"""Closed plant model: two on/off valves feeding the compliant tube.

One explicit-Euler step advances both valve armatures, evaluates the two
orifice flows against the current pressures (high-pressure valve from the
supply, low-pressure valve towards the tank), integrates the net flow into
the tube volume, and re-evaluates tube pressure and tip position.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .orifice import OrificeModel, orifice_flow
from .tube import TipPositionMap, TubeModelLinear, tube_pressure
from .valve import ValveDynamics, valve_step


@dataclass(frozen=True)
class PlantModel:
    """Time-invariant plant parameters.

    supply_droop (Pa/m^3) lowers the effective supply pressure in proportion
    to the cumulative volume drawn from it; 0 keeps the supply ideal.
    """

    tube: TubeModelLinear
    hp_orifice: OrificeModel
    lp_orifice: OrificeModel
    tip_map: TipPositionMap
    supply_droop: float = 0.0


@dataclass(frozen=True)
class HydraulicState:
    """Full plant state advanced each step."""

    p_supply: float
    p_tank: float
    v_tube: float
    p_tube: float
    hp_valve: ValveDynamics
    lp_valve: ValveDynamics
    tip_y: float
    play_out: float = 0.0
    v_drawn: float = 0.0
    clamped: bool = False

    def __post_init__(self) -> None:
        if self.p_supply < 0.0 or self.p_tank < 0.0:
            raise ValueError("absolute pressures must be >= 0")
        if self.v_tube < 0.0:
            raise ValueError("tube volume must be >= 0")


def initial_state(
    plant: PlantModel,
    p_supply: float,
    p_tank: float,
    p_tube: float,
    valve_template: ValveDynamics,
) -> HydraulicState:
    """Plant state at rest with both valves closed and the tube at p_tube.

    The play operator starts centred on the initial pressure, i.e. with no
    committed travel direction.
    """
    v = p_tube / plant.tube.c_a
    tip, play = tip_position_of(plant, p_tube, p_tube)
    return HydraulicState(
        p_supply=p_supply,
        p_tank=p_tank,
        v_tube=v,
        p_tube=p_tube,
        hp_valve=valve_template,
        lp_valve=valve_template,
        tip_y=tip,
        play_out=play,
    )


def tip_position_of(plant: PlantModel, p: float, play_out: float) -> tuple[float, float]:
    from .tube import tip_position

    return tip_position(plant.tip_map, p, play_out)


def plant_step(
    plant: PlantModel,
    state: HydraulicState,
    hp_cmd: bool,
    lp_cmd: bool,
    dt: float,
) -> tuple[HydraulicState, float]:
    """One explicit-Euler step of length dt under held valve commands.

    Returns (new_state, dv_applied) where dv_applied is the exact volume
    change booked into the tube this step (after any clamping at zero), so
    callers can keep an exact conservation ledger.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")

    hp_valve = valve_step(state.hp_valve, hp_cmd, dt)
    lp_valve = valve_step(state.lp_valve, lp_cmd, dt)

    p_sup = state.p_supply - plant.supply_droop * state.v_drawn
    q_hp = orifice_flow(plant.hp_orifice, hp_valve.armature, p_sup, state.p_tube)
    q_lp = orifice_flow(plant.lp_orifice, lp_valve.armature, state.p_tank, state.p_tube)

    dv = (q_hp + q_lp) * dt
    v_new = state.v_tube + dv
    clamped = False
    if v_new < 0.0:
        # The tank line cannot pull the tube below empty.
        dv = -state.v_tube
        v_new = 0.0
        clamped = True

    p_new = tube_pressure(plant.tube, v_new)
    tip, play = tip_position_of(plant, p_new, state.play_out)

    new_state = replace(
        state,
        v_tube=v_new,
        p_tube=p_new,
        hp_valve=hp_valve,
        lp_valve=lp_valve,
        tip_y=tip,
        play_out=play,
        v_drawn=state.v_drawn + max(q_hp, 0.0) * dt,
        clamped=clamped,
    )
    return new_state, dv
