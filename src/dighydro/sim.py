"""Fixed-step simulation engine closing the loop around the plant.

The engine owns all timing: plant steps at dt, valve commands held for a
whole command quantum, controller decisions on their own (coarser) grids,
and the delayed/quantized sensors reading from the recorded true histories.
A run is strictly single-threaded and deterministic given its config.

Every trace column is recorded as packed doubles. The sensors count their
period and delay in whole steps, so a read at step k indexes the p_tube or
tip_y column directly; no time column is searched.

The engine steps the plant on every step. Quiescent steps stay cheap all the
same: `plant_step` hands a fixed point of the plant straight back without
recomputing it (see `plant`), bit for bit as a full step would.

Sensor noise for the whole run is drawn up front in one
`rng.standard_normal(n_steps * m)` call, m being the number of sensors with
noise_std > 0: per step, the pressure sensor's draw, then the position
sensor's. That is bit for bit the stream of n_steps * m scalar draws in
read order. Each read gets its draw as a Python float (`item`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .controllers import model_based_tick, pi_tick, switching_tick
from .plant import plant_step
from .reference import reference_eval
from .sensor import sensor_read

TRACE_COLUMNS = (
    "t",
    "ref",
    "p_tube",
    "v_tube",
    "tip_y",
    "hp_cmd",
    "lp_cmd",
    "hp_arm",
    "lp_arm",
    "sensed_pos",
    "sensed_p",
)

# What a trace's tracking error is measured in (see metrics.tracking_error).
CONTROL_DOMAINS = ("none", "pressure", "position")


@dataclass
class SimTrace:
    """Per-step records of one run plus bookkeeping that backs the
    conservation and determinism checks.

    Rows are recorded at the start of each step: the state columns are the
    pre-step state at time t, the command columns are the commands applied
    over [t, t + dt). `dv` is the exact volume booked into the tube during
    each step, and `v_final` the tube volume after the last step.
    """

    columns: dict[str, np.ndarray]
    dv: np.ndarray | None = None
    v_final: float = 0.0
    clamp_events: int = 0
    control_domain: str = "none"
    label: str = ""
    dt: float = 0.0

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __len__(self) -> int:
        return len(self.columns["t"])


def run_simulation(cfg: ScenarioConfig) -> SimTrace:
    """Run one scenario to completion and return its trace."""
    run = cfg.run
    dt = run.dt_s
    n_steps = round(run.duration_s / dt)
    quantum_steps = round(run.command_quantum_s / dt)
    sample_steps = round(cfg.controller.sample_period_s / dt)
    window_steps = round(cfg.controller.window_s / dt)
    pi_steps = round(cfg.controller.pi_period_s / dt)

    plant = cfg.build_plant()
    state = cfg.build_initial_state(plant)
    ref = cfg.build_reference()
    p_sensor = cfg.build_pressure_sensor()
    pos_sensor = cfg.build_position_sensor()
    p_noisy = p_sensor.noise_std > 0.0
    pos_noisy = pos_sensor.noise_std > 0.0
    m = p_noisy + pos_noisy
    draw = np.random.default_rng(run.seed).standard_normal(n_steps * m).item

    kind = cfg.controller.kind
    mb = cfg.build_model_based_controller() if kind in ("pressure_model", "pi_pressure") else None
    sw = cfg.build_switching_controller() if kind == "switching" else None
    pi = cfg.build_pi_controller() if kind == "pi_pressure" else None
    p_ref_inner = cfg.plant.initial_pressure_pa

    # Packed doubles, 8 bytes a value; the sensors index p_col and y_col by step.
    rows = {name: array("d") for name in TRACE_COLUMNS}
    p_col, y_col = rows["p_tube"], rows["tip_y"]
    (
        append_t,
        append_ref,
        append_p,
        append_v,
        append_y,
        append_hp_cmd,
        append_lp_cmd,
        append_hp_arm,
        append_lp_arm,
        append_sensed_pos,
        append_sensed_p,
    ) = (rows[name].append for name in TRACE_COLUMNS)
    dvs = array("d")
    append_dv = dvs.append
    clamp_events = 0

    hp_cmd = lp_cmd = False
    schedule: list[tuple[bool, bool]] = []

    # plant_step, sensor_read, reference_eval and the controller ticks are
    # looked up as module globals on every call, never bound to locals, so
    # that wrapping them on this module sees every call.
    for k in range(n_steps):
        t = k * dt
        append_t(t)
        append_p(state.p_tube)
        append_y(state.tip_y)

        sensed_p = sensor_read(p_sensor, p_col, k, draw(k * m) if p_noisy else None)
        sensed_pos = sensor_read(
            pos_sensor, y_col, k, draw(k * m + p_noisy) if pos_noisy else None
        )
        r = reference_eval(ref, t)

        # Controllers absent from this run are None; under PI the
        # model-based inner loop tracks the PI output instead of r.
        if k % quantum_steps == 0:
            if pi is not None and k % pi_steps == 0:
                p_ref_inner, pi = pi_tick(pi, r - sensed_pos, cfg.controller.pi_period_s)
            if mb is not None and k % sample_steps == 0:
                p_ref = r if pi is None else p_ref_inner
                hp_cmd, lp_cmd, mb = model_based_tick(mb, p_ref, plant.p_supply, plant.p_tank)
            if sw is not None:
                if k % window_steps == 0:
                    schedule, sw = switching_tick(sw, r - sensed_pos)
                hp_cmd, lp_cmd = schedule.pop(0)

        append_ref(r)
        append_v(state.v_tube)
        append_hp_cmd(hp_cmd)
        append_lp_cmd(lp_cmd)
        append_hp_arm(state.hp_valve.armature)
        append_lp_arm(state.lp_valve.armature)
        append_sensed_pos(sensed_pos)
        append_sensed_p(sensed_p)

        state, dv = plant_step(plant, state, hp_cmd, lp_cmd, dt)
        append_dv(dv)
        if state.clamped:
            clamp_events += 1

    return SimTrace(
        columns={name: np.asarray(vals, dtype=float) for name, vals in rows.items()},
        dv=np.asarray(dvs, dtype=float),
        v_final=state.v_tube,
        clamp_events=clamp_events,
        control_domain=cfg.control_domain,
        label=run.label,
        dt=dt,
    )


def volume_ledger_error(trace: SimTrace) -> float:
    """Relative mismatch between the net tube volume change and the per-step
    ledger, replayed with the same sequential summation the engine used."""
    if trace.dv is None or not len(trace):
        return 0.0
    v = trace.columns["v_tube"][0]
    for dv in trace.dv:
        v += dv
    scale = max(abs(trace.v_final), abs(float(np.max(trace.columns["v_tube"]))), 1e-300)
    return abs(v - trace.v_final) / scale
