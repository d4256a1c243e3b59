"""Scenario harness: run configs, emit trace CSVs and metrics, sweep
parameters, and trace out the quasi-static pressure/position hysteresis loop.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import asdict, fields
from importlib import resources
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .config import DOMAIN_TRACKING, MAX_LABEL_BYTES, ConfigError, ScenarioConfig, load_config
from .metrics import RunMetrics, compute_metrics, write_metrics
from .sim import SimTrace, run_simulation
from .traceio import sidecar_path, write_trace
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
    return Path(str(resources.files("dighydro").joinpath("scenarios", f"{name}.cfg")))


def settle_band(cfg: ScenarioConfig) -> float:
    """Band used for the settle-time metric: the [controller] key that
    config.DOMAIN_TRACKING names for the run's control domain, or 0."""
    _, key = DOMAIN_TRACKING[cfg.control_domain]
    return 0.0 if key is None else getattr(cfg.controller, key)


@contextmanager
def _removed_on_failure(*paths: Path):
    """Remove `paths` if the block raises: a failed call leaves no output."""
    try:
        yield
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise


def _run_outputs(out_dir: Path, label: str) -> tuple[Path, Path, Path]:
    """The trace CSV, its sidecar and the metrics JSON of run `label`."""
    trace_path = out_dir / f"{label}_trace.csv"
    return trace_path, sidecar_path(trace_path), out_dir / f"{label}_metrics.json"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def run_scenario(
    config_path: str | Path,
    out_dir: str | Path = ".",
    overrides: dict[str, str] | None = None,
) -> tuple[Path, Path, RunMetrics, SimTrace]:
    """Run one scenario and write <label>_trace.csv, its
    <label>_trace.csv.meta.json sidecar and <label>_metrics.json.

    Partial output files are removed if anything fails mid-run.
    """
    return _run(load_config(config_path, overrides), Path(out_dir))


def _run(cfg: ScenarioConfig, out_dir: Path) -> tuple[Path, Path, RunMetrics, SimTrace]:
    """Run the checked config `cfg` and write its three files into out_dir,
    removing them if anything fails."""
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path, meta_path, metrics_path = _run_outputs(out_dir, cfg.run.label)
    with _removed_on_failure(trace_path, meta_path, metrics_path):
        trace = run_simulation(cfg)
        metrics = compute_metrics(trace, settle_band(cfg))
        write_trace(trace, trace_path)
        write_metrics(metrics, metrics_path)
    return trace_path, metrics_path, metrics, trace


# -- hysteresis sweep -------------------------------------------------------


def quasi_static_loop(
    tmap: TipPositionMap, p_max: float, p_step: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tip position along an up-then-down pressure staircase over [0, p_max].

    The cycle is walked twice, the second walk writing over the first's tips,
    so the recorded loop is the closed steady-state one (the very first
    up-sweep from an uncommitted play state traces a transient branch instead).

    Returns (pressures ascending, tip on the up branch, tip on the down branch).
    """
    n = round(p_max / p_step)
    grid = np.linspace(0.0, n * p_step, n + 1)
    cycle = np.concatenate((grid, grid[::-1]))
    tips = np.empty_like(cycle)
    play = 0.0
    for i, p in enumerate(memoryview(np.tile(cycle, 2))):
        tips[i % len(cycle)], play = tip_position(tmap, p, play)
    return grid, tips[: n + 1], tips[n + 1 :][::-1]


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
    with _removed_on_failure(csv_path):
        tmap = cfg.build_plant().tip_map
        grid, tip_up, tip_down = quasi_static_loop(
            tmap, cfg.hysteresis.pressure_max_pa, cfg.hysteresis.pressure_step_pa
        )
        area = loop_area(grid, tip_up, tip_down)
        # Rows stream from zips: a tuple held per row would trip the collector.
        up = zip(repeat("up"), grid.tolist(), tip_up.tolist())
        down = zip(repeat("down"), grid[::-1].tolist(), tip_down[::-1].tolist())
        _write_csv(csv_path, ["branch", "pressure_pa", "tip_mm"], chain(up, down))
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

    Each run writes its own trace/metrics pair, labelled `<label>_<index>`
    so files never collide; the summary table keeps the given order.
    Every value's config is loaded and checked before the first run, so a
    bad value raises ConfigError before any file is written, and those
    checked configs are the ones run: the file is not read again. A failed
    run removes every file the sweep wrote. `run.label` cannot be swept, and
    the label with its longest index suffix must fit the label budget; an
    empty value list is refused.
    """
    if not values:
        raise ConfigError(["a sweep needs at least one value"])
    if parameter == "run.label":
        raise ConfigError(["[run] label cannot be swept: each run is labelled <label>_<index>"])
    base = dict(overrides or {})
    label = load_config(config_path, base).run.label
    budget = MAX_LABEL_BYTES - len(f"_{len(values) - 1:03d}")
    if len(label.encode("utf-8")) > budget:
        why = f"at most {budget} bytes in UTF-8 for a sweep, which labels its runs <label>_000"
        raise ConfigError([f"[run] label must be {why}"])
    cfgs = [
        load_config(config_path, {**base, parameter: value, "run.label": f"{label}_{i:03d}"})
        for i, value in enumerate(values)
    ]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = out_dir / f"{label}_sweep.csv"
    outputs = [path for cfg in cfgs for path in _run_outputs(out_dir, cfg.run.label)]
    with _removed_on_failure(table_path, *outputs):
        rows = [_run(cfg, out_dir)[2] for cfg in cfgs]
        header = ["value", *(f.name for f in fields(RunMetrics))]
        cells = [{**asdict(m), "settled": int(m.settled)}.values() for m in rows]
        _write_csv(table_path, header, ([value, *c] for value, c in zip(values, cells)))
    return table_path, rows
