"""Closed plant model: two on/off valves feeding the compliant tube.

One explicit-Euler step advances both valve armatures, evaluates the two
orifice flows against the current pressures (high-pressure valve from the
supply, low-pressure valve towards the tank), integrates the net flow into
the tube volume, and re-evaluates tube pressure and tip position.

Quiescent steps are not recomputed. `plant_step` is a pure function of the
plant, the state, the held commands and dt, so when a call returns a state
equal to its input, that state is a fixed point: every later call on it with
the same plant and dt and with both valves still at rest returns it again,
with the same booked volume. A step returns its input state when
`valve_step` hands back both valves as themselves (it does so only for a
valve at rest) and every scalar field is unchanged in its float64 bits, all
packed by one `struct` call: `==` would equate 0.0 with -0.0, where
`orifice_flow` keeps the sign through `copysign`, and never matches NaN.
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

from .orifice import OrificeModel, orifice_flow
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

    q_hp = orifice_flow(plant.hp_orifice, hp_valve.armature, plant.p_supply, state.p_tube)
    q_lp = orifice_flow(plant.lp_orifice, lp_valve.armature, plant.p_tank, state.p_tube)

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
    if p_new > plant.p_supply >= state.p_tube and plant.p_tank <= plant.p_supply:
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

    tip, play = tip_position(plant.tip_map, p_new, state.play_out)

    # The v_tube compare rejects a moving plant before the full one. A valve
    # that valve_step hands back as itself is at rest, and bitwise unchanged.
    if (
        v_new == state.v_tube
        and hp_valve is state.hp_valve
        and lp_valve is state.lp_valve
        and _SCALARS.pack(v_new, p_new, tip, play, clamped)
        == _SCALARS.pack(state.v_tube, state.p_tube, state.tip_y, state.play_out, state.clamped)
    ):
        _fixed_point = (plant, state, dt, dv)
        return state, dv
    return HydraulicState(v_new, p_new, hp_valve, lp_valve, tip, play, clamped), dv
