"""CSV trace emission and exact round-trip reading.

Column order is fixed; floats are written with Python's shortest round-trip
representation so that reading a trace back reproduces it bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .sim import TRACE_COLUMNS, SimTrace


def _fmt(x: float) -> str:
    return repr(float(x))


def write_trace(trace: SimTrace, path: str | Path) -> None:
    path = Path(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        cols = [trace.columns[name] for name in TRACE_COLUMNS]
        for row in zip(*cols):
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def read_trace(path: str | Path) -> SimTrace:
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header in {path}: {header}")
        data: list[list[float]] = [[] for _ in TRACE_COLUMNS]
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(TRACE_COLUMNS):
                raise ValueError(f"malformed trace row in {path}: {line!r}")
            for store, text in zip(data, parts):
                store.append(float(text))
    columns = {name: np.asarray(vals, dtype=float) for name, vals in zip(TRACE_COLUMNS, data)}
    return SimTrace(columns=columns)
