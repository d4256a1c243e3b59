"""Correctness gate applied to every harness call of every pass.

A call fails when it raised, or when any of these holds for its output:

* a bundled `chirp_matched` or `step_unloaded_p1` run without overrides
  writes a trace CSV whose sha256 differs from tests/golden/trace_hashes.json;
* `read_trace` of a written CSV is not bit-identical to the in-memory trace;
* the volume ledger error of a trace exceeds 1e-12;
* a metrics JSON differs from `compute_metrics` of the in-memory trace;
* an output file, or a trace read back, differs between passes of one run.

The first pass of each set (untraced, traced) gets the full check. Later
passes check hashes against the first, which carries the full check over to
them byte for byte, plus the cheap in-memory checks.

The gate holds its own references to the package functions it uses, taken
at import, so the traced run's wrappers never see the gate's calls.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from dighydro.config import load_config
from dighydro.experiments import play_loop_area, settle_band
from dighydro.metrics import compute_metrics, read_metrics
from dighydro.sim import TRACE_COLUMNS, run_simulation, volume_ledger_error
from dighydro.traceio import read_trace

LEDGER_LIMIT = 1e-12
LOOP_AREA_REL = 1e-2


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def columns_digest(trace) -> str:
    """sha256 over the raw float64 bytes of every trace column, in order."""
    h = hashlib.sha256()
    for name in TRACE_COLUMNS:
        col = np.ascontiguousarray(trace.columns[name], dtype=np.float64)
        h.update(name.encode())
        h.update(len(col).to_bytes(8, "little"))
        h.update(col.tobytes())
    return h.hexdigest()


def quiescent_steps(trace) -> int:
    """Steps with both commands off and both armatures on the closed seat."""
    c = trace.columns
    idle = (c["hp_cmd"] == 0.0) & (c["lp_cmd"] == 0.0) & (c["hp_arm"] == 0.0) & (c["lp_arm"] == 0.0)
    return int(np.count_nonzero(idle))


class Gate:
    """Checks call outcomes; remembers first-pass digests for later passes."""

    def __init__(self, golden_path: Path) -> None:
        self.golden: dict[str, str] = json.loads(Path(golden_path).read_text())
        self.digests: dict[str, str] = {}
        self.reference_columns: dict[str, str] = {}

    def _same_as_before(self, key: str, digest: str, errors: list[str]) -> None:
        first = self.digests.setdefault(key, digest)
        if first != digest:
            errors.append(f"{key} differs between passes")

    def check(self, call, outcome, full: bool) -> list[str]:
        """Faults of one call's outcome; empty when it passes."""
        if outcome.error is not None:
            return [f"raised {outcome.error}"]
        try:
            return getattr(self, f"_check_{call.op}")(call, outcome.value, full)
        except Exception as exc:  # a missing or unreadable output is a failed call
            return [f"output could not be checked: {type(exc).__name__}: {exc}"]

    def _check_run_scenario(self, call, value, full: bool) -> list[str]:
        trace_path, metrics_path, metrics, trace = value
        errors: list[str] = []
        digest = file_digest(trace_path)
        if not call.overrides and call.scenario in self.golden:
            if digest != self.golden[call.scenario]:
                errors.append(f"{trace_path.name} sha256 differs from the golden hash")
        self._same_as_before(trace_path.name, digest, errors)
        self._same_as_before(metrics_path.name, file_digest(metrics_path), errors)
        if full and columns_digest(read_trace(trace_path)) != columns_digest(trace):
            errors.append(f"{trace_path.name} does not read back bit-identical")
        errors += self._check_trace(call.config_path, call.overrides, trace, metrics_path, metrics)
        return errors

    def _check_trace(self, path, overrides, trace, metrics_path, metrics) -> list[str]:
        errors: list[str] = []
        ledger = volume_ledger_error(trace)
        if not ledger <= LEDGER_LIMIT:
            errors.append(f"volume ledger error {ledger:.3e} > {LEDGER_LIMIT}")
        cfg = load_config(path, overrides)
        expected = compute_metrics(trace, settle_band(cfg))
        if read_metrics(metrics_path) != expected or metrics != expected:
            errors.append(f"{metrics_path.name} differs from compute_metrics of the trace")
        return errors

    def _check_hysteresis_sweep(self, call, value, full: bool) -> list[str]:
        csv_path, area, cfg = value
        errors: list[str] = []
        self._same_as_before(csv_path.name, file_digest(csv_path), errors)
        self._same_as_before(f"{csv_path.name}:area", repr(area), errors)
        expected = play_loop_area(
            cfg.tip_map.gain_mm_per_pa, cfg.tip_map.play_width_pa, cfg.hysteresis.pressure_max_pa
        )
        if not (math.isfinite(area) and abs(area - expected) <= LOOP_AREA_REL * expected):
            errors.append(f"loop area {area!r} not within 1 % of closed form {expected!r}")
        return errors

    def _check_sweep(self, call, value, full: bool) -> list[str]:
        table_path, rows = value
        errors: list[str] = []
        self._same_as_before(table_path.name, file_digest(table_path), errors)
        if len(rows) != len(call.values):
            return errors + [f"sweep returned {len(rows)} rows for {len(call.values)} values"]
        for i, value_text in enumerate(call.values):
            overrides = dict(call.overrides, **{call.parameter: value_text})
            overrides["run.label"] = f"{call.overrides['run.label']}_{i:03d}"
            trace_path = table_path.parent / f"{overrides['run.label']}_trace.csv"
            metrics_path = table_path.parent / f"{overrides['run.label']}_metrics.json"
            self._same_as_before(trace_path.name, file_digest(trace_path), errors)
            self._same_as_before(metrics_path.name, file_digest(metrics_path), errors)
            if full:
                # The sweep keeps no trace in memory: simulate the same config
                # again, outside the timed pass, as the in-memory reference.
                trace = run_simulation(load_config(call.config_path, overrides))
                reference = columns_digest(trace)
                self.reference_columns[trace_path.name] = reference
                if columns_digest(read_trace(trace_path)) != reference:
                    errors.append(f"{trace_path.name} does not read back bit-identical")
                errors += self._check_trace(
                    call.config_path, overrides, trace, metrics_path, rows[i]
                )
            elif read_metrics(metrics_path) != rows[i]:
                errors.append(f"{metrics_path.name} differs from the sweep's metrics row")
        return errors

    def _check_read_trace(self, call, value, full: bool) -> list[str]:
        name = Path(call.path).name
        reference = self.reference_columns.get(name)
        if reference is None:
            return [f"no in-memory reference for {name}"]
        if columns_digest(value) != reference:
            return [f"read_trace of {name} is not bit-identical to the simulated trace"]
        return []
