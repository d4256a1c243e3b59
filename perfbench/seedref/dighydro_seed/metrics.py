"""Scalar quality metrics computed from a simulation trace."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .sim import SimTrace


@dataclass
class RunMetrics:
    label: str
    rms_tracking_error: float
    max_abs_error: float
    settle_time_s: float
    settled: bool
    switch_count_hp: int
    switch_count_lp: int
    final_steady_error: float


def tracking_error(trace: SimTrace) -> np.ndarray:
    """Reference minus tracked output: tube pressure for pressure-domain
    runs, true tip position for position-domain runs, zeros otherwise."""
    if trace.control_domain == "pressure":
        return trace["ref"] - trace["p_tube"]
    if trace.control_domain == "position":
        return trace["ref"] - trace["tip_y"]
    return np.zeros(len(trace))


def _rising_edges(cmd: np.ndarray) -> int:
    on = cmd > 0.5
    return int(np.count_nonzero(on[1:] & ~on[:-1]) + (1 if on[0] else 0))


def compute_metrics(trace: SimTrace, settle_band: float) -> RunMetrics:
    """Metrics over the whole run; settle_time is the first instant after
    which the error magnitude never leaves the band again."""
    err = tracking_error(trace)
    abs_err = np.abs(err)
    t = trace["t"]

    inside = abs_err <= settle_band
    if inside.all():
        settle_time, settled = float(t[0]), True
    elif not inside[-1]:
        settle_time, settled = float(t[-1]), False
    else:
        last_out = int(np.max(np.nonzero(~inside)[0]))
        settle_time, settled = float(t[last_out + 1]), True

    return RunMetrics(
        label=trace.label,
        rms_tracking_error=float(np.sqrt(np.mean(err**2))),
        max_abs_error=float(np.max(abs_err)) if len(trace) else 0.0,
        settle_time_s=settle_time,
        settled=settled,
        switch_count_hp=_rising_edges(trace["hp_cmd"]),
        switch_count_lp=_rising_edges(trace["lp_cmd"]),
        final_steady_error=float(abs_err[-1]) if len(trace) else 0.0,
    )


def write_metrics(metrics: RunMetrics, path: str | Path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(asdict(metrics), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_metrics(path: str | Path) -> RunMetrics:
    with open(path) as fh:
        return RunMetrics(**json.load(fh))
