"""Scenario harness: run configs, emit trace CSVs and metrics, sweep
parameters, and trace out the quasi-static pressure/position hysteresis loop.
"""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, load_config
from .metrics import RunMetrics, compute_metrics, write_metrics
from .sim import SimTrace, run_simulation
from .traceio import write_trace
from .tube import TipPositionMap, tip_position

BUNDLED_SCENARIOS = (
    "chirp_matched",
    "chirp_miscalibrated",
    "step_unloaded_p1",
    "step_unloaded_p2",
    "step_loaded",
    "hysteresis",
)


def scenario_path(name: str) -> Path:
    """Filesystem path of a bundled scenario config."""
    if name not in BUNDLED_SCENARIOS:
        raise ValueError(f"unknown bundled scenario {name!r}; have {BUNDLED_SCENARIOS}")
    return Path(str(resources.files(__package__).joinpath("scenarios", f"{name}.cfg")))


def settle_band(cfg: ScenarioConfig) -> float:
    """Band used for the settle-time metric: the pressure tolerance for
    pressure runs, the switching threshold for position runs."""
    if cfg.control_domain == "pressure":
        return cfg.controller.tolerance_pa
    if cfg.control_domain == "position":
        return cfg.controller.threshold_mm
    return 0.0


def run_scenario(
    config_path: str | Path,
    out_dir: str | Path = ".",
    overrides: dict[str, str] | None = None,
) -> tuple[Path, Path, RunMetrics, SimTrace]:
    """Run one scenario and write <label>_trace.csv and <label>_metrics.json.

    Partial output files are removed if anything fails mid-run.
    """
    cfg = load_config(config_path, overrides)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"{cfg.run.label}_trace.csv"
    metrics_path = out_dir / f"{cfg.run.label}_metrics.json"
    try:
        trace = run_simulation(cfg)
        metrics = compute_metrics(trace, settle_band(cfg))
        write_trace(trace, trace_path)
        write_metrics(metrics, metrics_path)
    except BaseException:
        for path in (trace_path, metrics_path):
            path.unlink(missing_ok=True)
        raise
    return trace_path, metrics_path, metrics, trace


# -- hysteresis sweep -------------------------------------------------------


def quasi_static_loop(
    tmap: TipPositionMap, p_max: float, p_step: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tip position along an up-then-down pressure staircase over [0, p_max].

    One full preconditioning cycle is run first so the recorded loop is the
    closed steady-state one (the very first up-sweep from an uncommitted
    play state traces a transient branch instead).

    Returns (pressures ascending, tip on the up branch, tip on the down branch).
    """
    n = round(p_max / p_step)
    grid = np.linspace(0.0, n * p_step, n + 1)
    play = 0.0
    for p in list(grid) + list(grid[::-1]):
        _, play = tip_position(tmap, float(p), play)
    tip_up = np.empty_like(grid)
    for i, p in enumerate(grid):
        tip_up[i], play = tip_position(tmap, float(p), play)
    tip_down = np.empty_like(grid)
    for i, p in enumerate(grid[::-1]):
        tip_down[n - i], play = tip_position(tmap, float(p), play)
    return grid, tip_up, tip_down


def loop_area(pressures: np.ndarray, tip_up: np.ndarray, tip_down: np.ndarray) -> float:
    """Area enclosed by the hysteresis loop, mm*Pa (down branch sits above
    the up branch for a positive play width)."""
    return float(np.trapezoid(tip_down - tip_up, pressures))


def play_loop_area(gain: float, play_width: float, p_range: float) -> float:
    """Closed-form loop area of the ideal saturating-free play loop."""
    if p_range < 2.0 * play_width:
        raise ValueError("pressure range must cover at least twice the play width")
    return 2.0 * gain * play_width * (p_range - 2.0 * play_width)


def hysteresis_sweep(
    config_path: str | Path,
    out_dir: str | Path = ".",
    overrides: dict[str, str] | None = None,
) -> tuple[Path, float, ScenarioConfig]:
    """Emit the (pressure, tip) loop CSV for a hysteretic tip map.

    The CSV lists the up branch in ascending pressure followed by the down
    branch in descending pressure, i.e. in sweep order.
    """
    cfg = load_config(config_path, overrides)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{cfg.run.label}_loop.csv"
    try:
        tmap = cfg.build_plant().tip_map
        grid, tip_up, tip_down = quasi_static_loop(
            tmap, cfg.hysteresis.pressure_max_pa, cfg.hysteresis.pressure_step_pa
        )
        area = loop_area(grid, tip_up, tip_down)
        with open(csv_path, "w", newline="\n") as fh:
            fh.write("branch,pressure_pa,tip_mm\n")
            for p, y in zip(grid, tip_up):
                fh.write(f"up,{float(p)!r},{float(y)!r}\n")
            for p, y in zip(grid[::-1], tip_down[::-1]):
                fh.write(f"down,{float(p)!r},{float(y)!r}\n")
    except BaseException:
        csv_path.unlink(missing_ok=True)
        raise
    return csv_path, area, cfg


# -- parameter sweeps -------------------------------------------------------


def sweep(
    config_path: str | Path,
    parameter: str,
    values: list[str],
    out_dir: str | Path = ".",
    overrides: dict[str, str] | None = None,
) -> tuple[Path, list[RunMetrics]]:
    """Run the scenario once per parameter value and tabulate the metrics.

    Each run writes its own trace/metrics pair, suffixed with the value
    index so files never collide; the summary table keeps the given order.
    """
    rows: list[RunMetrics] = []
    base = dict(overrides or {})
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg0 = load_config(config_path, base)  # validates config and parameter early
    label = cfg0.run.label
    table_path = out_dir / f"{label}_sweep.csv"
    try:
        for i, value in enumerate(values):
            run_overrides = dict(base)
            run_overrides[parameter] = value
            run_overrides["run.label"] = f"{label}_{i:03d}"
            _, _, metrics, _ = run_scenario(config_path, out_dir, run_overrides)
            rows.append(metrics)
        with open(table_path, "w", newline="\n") as fh:
            fh.write(
                "value,label,rms_tracking_error,max_abs_error,settle_time_s,settled,"
                "switch_count_hp,switch_count_lp,final_steady_error\n"
            )
            for value, m in zip(values, rows):
                fh.write(
                    f"{value},{m.label},{m.rms_tracking_error!r},{m.max_abs_error!r},"
                    f"{m.settle_time_s!r},{int(m.settled)},{m.switch_count_hp},"
                    f"{m.switch_count_lp},{m.final_steady_error!r}\n"
                )
    except BaseException:
        table_path.unlink(missing_ok=True)
        raise
    return table_path, rows
