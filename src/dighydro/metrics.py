"""Scalar quality metrics computed from a simulation trace."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import DOMAIN_TRACKING
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
    """Reference minus the output that the trace's control domain tracks
    (config.DOMAIN_TRACKING): zeros in the domain that tracks none."""
    column, _ = DOMAIN_TRACKING[trace.control_domain]
    return np.zeros(len(trace)) if column is None else trace["ref"] - trace[column]


def _rising_edges(cmd: np.ndarray) -> int:
    on = cmd > 0.5
    return int(np.count_nonzero(on[1:] & ~on[:-1]) + (1 if on[0] else 0))


def compute_metrics(trace: SimTrace, settle_band: float) -> RunMetrics:
    """Metrics over the whole run; settle_time is the first instant after
    which the error magnitude never leaves the band again."""
    if not len(trace):
        return RunMetrics(trace.label, 0.0, 0.0, 0.0, True, 0, 0, 0.0)
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
        max_abs_error=float(np.max(abs_err)),
        settle_time_s=settle_time,
        settled=settled,
        switch_count_hp=_rising_edges(trace["hp_cmd"]),
        switch_count_lp=_rising_edges(trace["lp_cmd"]),
        final_steady_error=float(abs_err[-1]),
    )


def write_metrics(metrics: RunMetrics, path: str | Path) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(asdict(metrics), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_metrics(path: str | Path) -> RunMetrics:
    with open(path) as fh:
        return RunMetrics(**json.load(fh))
