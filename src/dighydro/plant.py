"""Closed plant model: two on/off valves feeding the compliant tube.

One explicit-Euler step advances both valve armatures, evaluates the two
orifice flows against the current pressures (high-pressure valve from the
supply, low-pressure valve towards the tank), integrates the net flow into
the tube volume, and re-evaluates tube pressure and tip position.

A step that moves the plant does the orifice law and the tip map inline,
with the expressions of `orifice_flow` and `tip_position` in their order,
which saves three calls a move: about 8 % of the simulation time of the
`busy_sweep` benchmark workload, whose steps nearly all move. Those two
stay the definitions, which `initial_state`, the model-based controller
and the hysteresis walk call, and a differential test holds `plant_step`
to a step written out with them, bit for bit.

Quiescent steps are not recomputed. `plant_step` is a pure function of the
plant, the state, the held commands and dt, so when a call returns a state
equal to its input, that state is a fixed point: every later call on it with
the same plant and dt and with both valves still at rest returns it again,
with the same booked volume. A step returns its input state when
`valve_step` hands back both valves as themselves (it does so only for a
valve at rest) and every scalar field is unchanged in its float64 bits, all
packed by one `struct` call: `==` would equate 0.0 with -0.0, where the
orifice law keeps the sign through `copysign`, and never matches NaN.
`plant_step` remembers the last such fixed point and, when it is handed that
very state again with both valves at rest, returns the state and its volume
without evaluating the orifices, the tube or the tip map. The rest of the
step sees the commands only through the valves, so the memo needs no other
key. With both valves closed the first step still moves the state (it
re-canonicalises `p_tube = c_a * v_tube`), so the memo takes over one step
later. A state clamped at empty is never a fixed point: the supply and
tank pressures are constant and >= 0, so an empty tube has no outflow and
the step after that clamp does not clamp. A state clamped at the supply
pressure can be one, when the next step books no volume.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from math import copysign, sqrt

from .orifice import OrificeModel
from .tube import TipPositionMap, TubeModelLinear, tip_position
from .valve import ValveDynamics, valve_step


@dataclass(frozen=True)
class PlantModel:
    """Time-invariant plant parameters.

    p_supply and p_tank are the absolute supply and tank pressures (Pa),
    both held constant, finite and >= 0.
    """

    tube: TubeModelLinear
    hp_orifice: OrificeModel
    lp_orifice: OrificeModel
    tip_map: TipPositionMap
    p_supply: float
    p_tank: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_supply < math.inf and 0.0 <= self.p_tank < math.inf):
            raise ValueError("absolute pressures must be finite and >= 0")


@dataclass(frozen=True)
class HydraulicState:
    """Full plant state advanced each step.

    The one value object with its own `__init__`: `@dataclass` keeps it,
    and it fills the instance dict in one update instead of one
    `object.__setattr__` per field, at under half the cost (about 0.55 us
    against 1.1 us). Every step that moves the plant builds one, so the
    engine builds this class far more often than any other: 77,080 times a
    pass of the `busy_sweep` benchmark workload at seed 1, where the
    generated `__init__` would add about 45 ms. `ValveDynamics`, built 7,322
    times a pass at most, uses the generated one. The class stays frozen:
    assignment raises `FrozenInstanceError`, and `==`, `fields()` and
    `replace()` work as for any dataclass (`replace` calls this `__init__`).
    """

    v_tube: float
    p_tube: float
    hp_valve: ValveDynamics
    lp_valve: ValveDynamics
    tip_y: float
    play_out: float = 0.0
    clamped: bool = False

    def __init__(
        self,
        v_tube: float,
        p_tube: float,
        hp_valve: ValveDynamics,
        lp_valve: ValveDynamics,
        tip_y: float,
        play_out: float = 0.0,
        clamped: bool = False,
    ) -> None:
        # p_tube == p_tube fails only for NaN; riding in the v_tube condition,
        # it costs an active step one more compare.
        if not (v_tube >= 0.0 and p_tube == p_tube):
            raise ValueError("tube volume must be >= 0 and tube pressure not NaN")
        self.__dict__.update(
            v_tube=v_tube,
            p_tube=p_tube,
            hp_valve=hp_valve,
            lp_valve=lp_valve,
            tip_y=tip_y,
            play_out=play_out,
            clamped=clamped,
        )


# The scalar fields of HydraulicState in float64 bits (and the clamp flag),
# so that equal bytes mean bitwise equal scalars.
_SCALARS = struct.Struct("<4d?")


# (plant, state, dt, dv) of the last call that returned its input state
# unchanged, bit for bit. Every caller in the process shares it, but a hit
# needs the very plant and state objects held here (which keeps their
# identities from being reused), and the tuple is read once and replaced
# whole, so callers can only displace each other's entry, never read a
# wrong one.
_fixed_point: tuple[PlantModel, HydraulicState, float, float] | None = None


def initial_state(
    plant: PlantModel, p_tube: float, valve_template: ValveDynamics
) -> HydraulicState:
    """Plant state at rest with both valves closed and the tube at p_tube.

    The play operator starts centred on the initial pressure, i.e. with no
    committed travel direction.
    """
    v = p_tube / plant.tube.c_a
    tip, play = tip_position(plant.tip_map, p_tube, p_tube)
    return HydraulicState(
        v_tube=v,
        p_tube=p_tube,
        hp_valve=valve_template,
        lp_valve=valve_template,
        tip_y=tip,
        play_out=play,
    )


def plant_step(
    plant: PlantModel,
    state: HydraulicState,
    hp_cmd: bool,
    lp_cmd: bool,
    dt: float,
) -> tuple[HydraulicState, float]:
    """One explicit-Euler step of length dt under held valve commands.

    Returns (new_state, dv_applied) where dv_applied is the exact volume
    change booked into the tube this step (after any clamping at empty or
    at the supply pressure), so callers can keep an exact conservation
    ledger. A dt that is not > 0 raises ValueError from the first
    `valve_step`, which takes the same dt.
    """
    global _fixed_point
    hp_valve = valve_step(state.hp_valve, hp_cmd, dt)
    lp_valve = valve_step(state.lp_valve, lp_cmd, dt)
    fixed = _fixed_point
    if (
        fixed is not None
        and fixed[1] is state
        and fixed[0] is plant
        and fixed[2] == dt
        and hp_valve is state.hp_valve
        and lp_valve is state.lp_valve
    ):
        return state, fixed[3]

    # The orifice law of `orifice_flow` for each valve, the same expressions
    # in the same order. Its checks are not needed here: a ValveDynamics
    # armature lies in [0, 1], the plant's pressures are finite, and a
    # HydraulicState's p_tube is not NaN, so only an infinite one is left.
    p_tube = state.p_tube
    if not -math.inf < p_tube < math.inf:
        raise ValueError(f"pressures must be finite, got p1={plant.p_supply}, p2={p_tube}")
    orifice = plant.hp_orifice
    dp = plant.p_supply - p_tube
    abs_dp = abs(dp)
    if abs_dp > orifice.p_tr:
        q_hp = hp_valve.armature * orifice.k_v * copysign(sqrt(abs_dp), dp)
    else:
        p_tr = orifice.p_tr
        q_hp = hp_valve.armature * orifice.k_v * dp / (2.0 * sqrt(p_tr)) * (3.0 - abs_dp / p_tr)
    orifice = plant.lp_orifice
    dp = plant.p_tank - p_tube
    abs_dp = abs(dp)
    if abs_dp > orifice.p_tr:
        q_lp = lp_valve.armature * orifice.k_v * copysign(sqrt(abs_dp), dp)
    else:
        p_tr = orifice.p_tr
        q_lp = lp_valve.armature * orifice.k_v * dp / (2.0 * sqrt(p_tr)) * (3.0 - abs_dp / p_tr)

    dv = (q_hp + q_lp) * dt
    v_new = state.v_tube + dv
    clamped = False
    if v_new < 0.0:
        # The tank line cannot pull the tube below empty.
        dv = -state.v_tube
        v_new = 0.0
        clamped = True

    c_a = plant.tube.c_a
    p_new = c_a * v_new
    if p_new > plant.p_supply >= p_tube and plant.p_tank <= plant.p_supply:
        # Nor can the supply line, the only inflow while the tank is not
        # above it, push the tube past the supply pressure. v_top, then dv,
        # step down until c_a * v_top <= p_supply and v_tube + dv <= v_top,
        # so the books stay exact (dv < 0 only from an initial state at
        # p_supply whose volume rounds above v_top).
        p_supply = plant.p_supply
        v_top = p_supply / c_a
        while c_a * v_top > p_supply:
            v_top = math.nextafter(v_top, 0.0)
        dv = v_top - state.v_tube
        while state.v_tube + dv > v_top:
            dv = math.nextafter(dv, -math.inf)
        v_new = state.v_tube + dv
        p_new = c_a * v_new
        clamped = True

    # The tip map of `tip_position`, the same expressions in the same order.
    # Its p >= 0 check is not needed here: v_new >= 0 after the clamp at
    # empty, and c_a > 0.
    tmap = plant.tip_map
    width = tmap.play_width
    play = state.play_out
    lo = p_new - width
    play = lo if lo > play else play
    hi = p_new + width
    play = hi if hi < play else play
    tip = tmap.gain * play + tmap.offset
    lo = tmap.sat_lo
    tip = lo if lo > tip else tip
    hi = tmap.sat_hi
    tip = hi if hi < tip else tip

    # The v_tube compare rejects a moving plant before the full one. A valve
    # that valve_step hands back as itself is at rest, and bitwise unchanged.
    if (
        v_new == state.v_tube
        and hp_valve is state.hp_valve
        and lp_valve is state.lp_valve
        and _SCALARS.pack(v_new, p_new, tip, play, clamped)
        == _SCALARS.pack(state.v_tube, p_tube, state.tip_y, state.play_out, state.clamped)
    ):
        _fixed_point = (plant, state, dt, dv)
        return state, dv
    return HydraulicState(v_new, p_new, hp_valve, lp_valve, tip, play, clamped), dv
