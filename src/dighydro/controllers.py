"""Control laws as pure per-tick state machines.

Three controllers:

* model-based sensorless pressure control: per tick, hold while the
  estimate is within the tolerance band of the reference; otherwise predict
  the tube pressure after one sample period for each feasible valve
  combination (hold, pressurize, depressurize) from the controller's own
  plant model, pick the combination whose predicted pressure is closest to
  the reference, and advance the internal volume/pressure estimate with the
  chosen prediction. The tick takes only the reference: no measurement and
  no value of the simulated plant enters the loop.
* switching position control: thresholded three-level switch on the
  position error, choosing once per window which valve the engine pulses.
* PI outer loop (experimental): turns a position error into a pressure
  reference for the model-based inner loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .orifice import orifice_flow
from .plant import PlantModel

@dataclass(frozen=True)
class ModelBasedControllerState:
    """Internal model and estimate of the sensorless pressure controller.

    `model` is the controller's own plant model: its supply and tank
    pressures, orifices and tube compliance are all the tick predicts from.
    It is built from the run's plant with the controller's flow factors, so
    the miscalibration experiments can set them apart from the plant truth.
    """

    model: PlantModel
    tolerance: float
    sample_period: float
    est_volume: float = 0.0
    est_pressure: float = 0.0

    def __post_init__(self) -> None:
        if not self.tolerance >= 0.0:
            raise ValueError("tolerance must be >= 0")
        if not self.sample_period > 0.0:
            raise ValueError("sample_period must be > 0")


def model_based_init(state: ModelBasedControllerState, p0: float) -> ModelBasedControllerState:
    """Seed the estimate with a known initial tube pressure."""
    return replace(state, est_volume=p0 / state.model.tube.c_a, est_pressure=p0)


def model_based_tick(
    state: ModelBasedControllerState, p_ref: float
) -> tuple[bool, bool, ModelBasedControllerState]:
    """One decision tick; returns (hp_cmd, lp_cmd, updated state).

    Holding wins outright whenever the estimate is within the tolerance
    band of the reference, to avoid needless valve switching: the tick then
    predicts nothing and returns its input state, since holding leaves the
    estimate as it is. Outside the band, each action's (volume, pressure)
    after one sample period is predicted with the pressures held constant
    over the period and the volume clamped at zero (the tube cannot be
    pumped below empty), and the argmin over the three predicted errors
    decides, with exact ties broken hold-first, then pressurize. (ON, ON) is
    never emitted. A non-finite estimate raises ValueError on every tick,
    held or not; the model's supply and tank pressures are finite by
    construction.
    """
    p = state.est_pressure
    if not math.isfinite(p):
        raise ValueError(f"est_pressure must be finite, got {p}")
    if abs(p_ref - p) <= state.tolerance:
        return False, False, state
    model = state.model
    T = state.sample_period
    v = state.est_volume
    v_hp = max(0.0, v + orifice_flow(model.hp_orifice, 1.0, model.p_supply, p) * T)
    v_lp = max(0.0, v + orifice_flow(model.lp_orifice, 1.0, model.p_tank, p) * T)
    p_hp = model.tube.c_a * v_hp
    p_lp = model.tube.c_a * v_lp
    # The argmin over (hold, pressurize, depressurize), as min() picks it:
    # a later action wins only on a strictly smaller error, so exact ties
    # keep the earlier one and a NaN error never wins.
    hp_cmd = lp_cmd = False
    v_new, p_new, err = v, p, abs(p_ref - p)
    e = abs(p_ref - p_hp)
    if e < err:
        hp_cmd, v_new, p_new, err = True, v_hp, p_hp, e
    if abs(p_ref - p_lp) < err:
        hp_cmd, lp_cmd, v_new, p_new = False, True, v_lp, p_lp
    # The positional constructor runs __post_init__ as replace() would, at
    # half its cost.
    new_state = ModelBasedControllerState(model, state.tolerance, state.sample_period, v_new, p_new)
    return hp_cmd, lp_cmd, new_state


@dataclass(frozen=True)
class SwitchingControllerState:
    """Three-level position switch, evaluated once per window.

    Above the threshold the high-pressure valve is pulsed, below
    minus-threshold the low-pressure valve, inside the band both stay off.
    The switch only decides; the engine times the pulse (see `sim`).
    """

    threshold: float

    def __post_init__(self) -> None:
        if not self.threshold > 0.0:
            raise ValueError("threshold must be > 0")


def switching_tick(state: SwitchingControllerState, e_p: float) -> tuple[bool, bool]:
    """The window's pulse (hp_cmd, lp_cmd); a NaN error pulses neither valve."""
    return e_p > state.threshold, e_p < -state.threshold


@dataclass(frozen=True)
class PiControllerState:
    """PI position controller producing a pressure reference (experimental).

    Gains are not taken from any identified model; they are desk-scale
    defaults. Anti-windup back-calculates the integral so the unsaturated
    output equals the clamped one.
    """

    kp: float
    ki: float
    bias: float
    out_lo: float
    out_hi: float
    integral: float = 0.0

    def __post_init__(self) -> None:
        if not self.out_lo <= self.out_hi:
            raise ValueError("output limits must satisfy out_lo <= out_hi")
        if math.isnan(self.kp) or math.isnan(self.ki) or math.isnan(self.bias):
            raise ValueError("kp, ki and bias must not be NaN")


def pi_tick(state: PiControllerState, e_p: float, dt: float) -> tuple[float, PiControllerState]:
    """One PI update; returns (pressure reference, updated state)."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    integral = state.integral + e_p * dt
    raw = state.bias + state.kp * e_p + state.ki * integral
    out = min(max(raw, state.out_lo), state.out_hi)
    if out != raw and state.ki > 0.0:
        integral = (out - state.bias - state.kp * e_p) / state.ki
    return out, PiControllerState(
        state.kp, state.ki, state.bias, state.out_lo, state.out_hi, integral
    )
