"""Control laws as pure per-tick state machines.

Three controllers:

* model-based sensorless pressure control: per tick, predict the tube
  pressure after one sample period for each feasible valve combination
  (hold, pressurize, depressurize) using the controller's own orifice and
  tube models, pick the combination whose predicted pressure is closest to
  the reference, and advance the internal volume/pressure estimate with the
  chosen prediction. No measurement enters the loop.
* switching position control: thresholded three-level switch on the
  position error, emitting a duty-modulated valve pulse train per window.
* PI outer loop (experimental): turns a position error into a pressure
  reference for the model-based inner loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .orifice import OrificeModel, orifice_flow
from .tube import TubeModelLinear, tube_pressure

HOLD = "hold"
PRESSURIZE = "pressurize"
DEPRESSURIZE = "depressurize"


@dataclass(frozen=True)
class ModelBasedControllerState:
    """Internal model and estimate of the sensorless pressure controller.

    The orifice and tube models are the controller's own copies; the
    miscalibration experiments rely on them being independent of the plant
    truth.
    """

    tube: TubeModelLinear
    hp_orifice: OrificeModel
    lp_orifice: OrificeModel
    tolerance: float
    sample_period: float
    est_volume: float = 0.0
    est_pressure: float = 0.0

    def __post_init__(self) -> None:
        if self.tolerance < 0.0:
            raise ValueError("tolerance must be >= 0")
        if self.sample_period <= 0.0:
            raise ValueError("sample_period must be > 0")


def model_based_init(state: ModelBasedControllerState, p0: float) -> ModelBasedControllerState:
    """Seed the estimate with a known initial tube pressure."""
    return replace(state, est_volume=p0 / state.tube.c_a, est_pressure=p0)


def model_based_predictions(
    state: ModelBasedControllerState, p_supply: float, p_tank: float
) -> dict[str, tuple[float, float]]:
    """Predicted (volume, pressure) after one sample period for each action.

    Pressures are assumed constant over the period; predicted volumes are
    clamped at zero (the tube cannot be pumped below empty).
    """
    T = state.sample_period
    v = state.est_volume
    p = state.est_pressure
    v_hp = max(0.0, v + orifice_flow(state.hp_orifice, 1.0, p_supply, p) * T)
    v_lp = max(0.0, v + orifice_flow(state.lp_orifice, 1.0, p_tank, p) * T)
    return {
        HOLD: (v, p),
        PRESSURIZE: (v_hp, tube_pressure(state.tube, v_hp)),
        DEPRESSURIZE: (v_lp, tube_pressure(state.tube, v_lp)),
    }


def model_based_tick(
    state: ModelBasedControllerState,
    p_ref: float,
    p_supply: float,
    p_tank: float,
) -> tuple[bool, bool, ModelBasedControllerState]:
    """One decision tick; returns (hp_cmd, lp_cmd, updated state).

    Holding wins outright whenever its error is within the tolerance band,
    to avoid needless valve switching. Otherwise the argmin over the three
    predicted errors decides, with exact ties broken hold-first, then
    pressurize. (ON, ON) is never emitted.
    """
    pred = model_based_predictions(state, p_supply, p_tank)
    errs = {a: abs(p_ref - p) for a, (_, p) in pred.items()}

    if errs[HOLD] <= state.tolerance:
        choice = HOLD
    else:
        choice = HOLD
        for action in (PRESSURIZE, DEPRESSURIZE):
            if errs[action] < errs[choice]:
                choice = action

    v_new, p_new = pred[choice]
    new_state = replace(state, est_volume=v_new, est_pressure=p_new)
    return choice == PRESSURIZE, choice == DEPRESSURIZE, new_state


@dataclass(frozen=True)
class SwitchingControllerState:
    """Three-level position switch with per-window duty modulation.

    Every `sample_period` window the controller evaluates the position error
    against the threshold: above it the high-pressure valve is pulsed, below
    minus-threshold the low-pressure valve, inside the band both stay off.
    The pulse is a single contiguous block at the window start whose length
    is duty * window, floored to a whole number of command quanta so no
    pulse shorter than the quantum is ever emitted.
    """

    threshold: float
    sample_period: float = 0.1
    duty: float = 0.18
    command_quantum: float = 0.005

    def __post_init__(self) -> None:
        if self.threshold <= 0.0:
            raise ValueError("threshold must be > 0")
        if not 0.0 <= self.duty <= 1.0:
            raise ValueError("duty must be in [0, 1]")
        if self.command_quantum <= 0.0 or self.sample_period < self.command_quantum:
            raise ValueError("need 0 < command_quantum <= sample_period")


def switching_sign(state: SwitchingControllerState, e_p: float) -> int:
    """The three-level switch: +1 pressurize, -1 depressurize, 0 hold."""
    if e_p > state.threshold:
        return 1
    if e_p < -state.threshold:
        return -1
    return 0


def switching_tick(
    state: SwitchingControllerState, e_p: float
) -> tuple[list[tuple[bool, bool]], SwitchingControllerState]:
    """Valve command schedule for the next window, one entry per quantum."""
    n_q = round(state.sample_period / state.command_quantum)
    n_on = math.floor(state.duty * n_q + 1e-9)
    u = switching_sign(state, e_p)
    schedule = [(u == 1 and i < n_on, u == -1 and i < n_on) for i in range(n_q)]
    return schedule, state


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
        if self.out_lo > self.out_hi:
            raise ValueError("output limits must satisfy out_lo <= out_hi")


def pi_tick(state: PiControllerState, e_p: float, dt: float) -> tuple[float, PiControllerState]:
    """One PI update; returns (pressure reference, updated state)."""
    if dt <= 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    integral = state.integral + e_p * dt
    raw = state.bias + state.kp * e_p + state.ki * integral
    out = min(max(raw, state.out_lo), state.out_hi)
    if out != raw and state.ki > 0.0:
        integral = (out - state.bias - state.kp * e_p) / state.ki
    return out, replace(state, integral=integral)
