"""Fixed-step simulation engine closing the loop around the plant.

The engine owns all timing: plant steps at dt, valve commands held for a
whole command quantum, controller decisions on their own (coarser) grids,
and the delayed/quantized sensors reading from the recorded true histories.
A run is strictly single-threaded and deterministic given its config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    rng = np.random.default_rng(run.seed)

    kind = cfg.controller.kind
    mb = cfg.build_model_based_controller() if kind in ("pressure_model", "pi_pressure") else None
    sw = cfg.build_switching_controller() if kind == "switching" else None
    pi = cfg.build_pi_controller() if kind == "pi_pressure" else None
    p_ref_inner = cfg.plant.initial_pressure_pa

    times: list[float] = []
    p_hist: list[float] = []
    pos_hist: list[float] = []
    rows: dict[str, list[float]] = {name: [] for name in TRACE_COLUMNS}
    dvs: list[float] = []
    clamp_events = 0

    hp_cmd = lp_cmd = False
    schedule: list[tuple[bool, bool]] = []

    for k in range(n_steps):
        t = k * dt
        times.append(t)
        p_hist.append(state.p_tube)
        pos_hist.append(state.tip_y)

        sensed_p = sensor_read(p_sensor, times, p_hist, t, rng)
        sensed_pos = sensor_read(pos_sensor, times, pos_hist, t, rng)
        r = reference_eval(ref, t)

        if k % quantum_steps == 0:
            if kind == "pressure_model":
                if k % sample_steps == 0:
                    hp_cmd, lp_cmd, mb = model_based_tick(
                        mb, r, cfg.plant.supply_pressure_pa, cfg.plant.tank_pressure_pa
                    )
            elif kind == "switching":
                if k % window_steps == 0:
                    schedule, sw = switching_tick(sw, r - sensed_pos)
                hp_cmd, lp_cmd = schedule.pop(0)
            elif kind == "pi_pressure":
                if k % pi_steps == 0:
                    p_ref_inner, pi = pi_tick(pi, r - sensed_pos, cfg.controller.pi_period_s)
                if k % sample_steps == 0:
                    hp_cmd, lp_cmd, mb = model_based_tick(
                        mb, p_ref_inner, cfg.plant.supply_pressure_pa, cfg.plant.tank_pressure_pa
                    )
            else:
                hp_cmd = lp_cmd = False

        rows["t"].append(t)
        rows["ref"].append(r)
        rows["p_tube"].append(state.p_tube)
        rows["v_tube"].append(state.v_tube)
        rows["tip_y"].append(state.tip_y)
        rows["hp_cmd"].append(float(hp_cmd))
        rows["lp_cmd"].append(float(lp_cmd))
        rows["hp_arm"].append(state.hp_valve.armature)
        rows["lp_arm"].append(state.lp_valve.armature)
        rows["sensed_pos"].append(sensed_pos)
        rows["sensed_p"].append(sensed_p)

        state, dv = plant_step(plant, state, hp_cmd, lp_cmd, dt)
        dvs.append(dv)
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
