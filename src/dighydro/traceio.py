"""CSV trace emission and exact round-trip reading.

Column order is fixed; floats are written with Python's shortest round-trip
representation so that reading a trace back reproduces it bit for bit.

The rows are written in self-contained chunks of `CHUNK_ROWS`, which bounds
the memory the texts take. In each chunk, only the leading columns whose
bits change on every row (t always, ref on a chirp) are formatted row by
row. The columns after them repeat from row to row on quiescent steps: each
gets one `repr` per run of its equal float64 bits, and together they get one
joined text per run of rows in which none of them changes, which every row
of that run shares. The bits, not `==`, decide, so 0.0 and -0.0 keep their
own texts.

Next to the trace file `<name>` the writer puts `<name>.meta.json`, a
sidecar holding the trace's label, control domain and step size, which the
CSV has no room for; `read_trace` reads it back, so metrics computed from a
trace read from disk equal those of the run that wrote it.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .sim import CONTROL_DOMAINS, TRACE_COLUMNS, SimTrace

CHUNK_ROWS = 1024


def sidecar_path(path: str | Path) -> Path:
    """Path of the label/control-domain/dt sidecar of a trace CSV."""
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def _rows(cols: list[np.ndarray]) -> list[str]:
    """Text of each row of equal-length columns, at least one row long."""
    n = len(cols[0])
    changed = [c.view(np.uint64)[1:] != c.view(np.uint64)[:-1] for c in cols]
    lead = next((i for i, ch in enumerate(changed) if not ch.all()), len(cols))
    dense = [map(repr, c.tolist()) for c in cols[:lead]]
    if lead == len(cols):
        return list(map(",".join, zip(*dense)))
    # The tail's text changes only where one of its columns does.
    starts = np.r_[0, np.flatnonzero(np.logical_or.reduce(changed[lead:])) + 1]
    tail_texts = []
    for c, ch in zip(cols[lead:], changed[lead:]):
        texts = np.array(list(map(repr, c[np.r_[0, np.flatnonzero(ch) + 1]].tolist())), dtype=object)
        tail_texts.append(texts[np.r_[0, np.cumsum(ch)][starts]].tolist())
    tails = np.array(list(map(",".join, zip(*tail_texts))), dtype=object)
    tails = np.repeat(tails, np.diff(starts, append=n)).tolist()
    return list(map(",".join, zip(*dense, tails))) if lead else tails


def write_trace(trace: SimTrace, path: str | Path) -> None:
    """Write the trace CSV and its sidecar. A missing column, or one with
    fewer rows than another, is a ValueError, and nothing is written."""
    path = Path(path)
    for name in TRACE_COLUMNS:
        if name not in trace.columns:
            raise ValueError(f"trace lacks column {name!r}")
    cols = [np.ascontiguousarray(trace.columns[name], dtype=np.float64) for name in TRACE_COLUMNS]
    n = max(map(len, cols))
    for name, c in zip(TRACE_COLUMNS, cols):
        if len(c) != n:
            raise ValueError(f"trace column {name!r} has {len(c)} rows, not {n}")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for start in range(0, n, CHUNK_ROWS):
            fh.write("\n".join(_rows([c[start : start + CHUNK_ROWS] for c in cols])) + "\n")
    meta = {"control_domain": trace.control_domain, "dt": trace.dt, "label": trace.label}
    sidecar_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def read_trace(path: str | Path) -> SimTrace:
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != TRACE_COLUMNS:
            raise ValueError(f"unexpected trace header in {path}: {header}")
        with warnings.catch_warnings():
            # A header-only trace has no rows, which loadtxt warns about.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    if not table.size:
        table = table.reshape(0, len(TRACE_COLUMNS))
    if table.shape[1] != len(TRACE_COLUMNS):
        raise ValueError(f"malformed trace rows in {path}: {table.shape[1]} fields each")
    # Copies, not views: views of the table cost 4-5 % more peak memory.
    columns = {name: table[:, i].copy() for i, name in enumerate(TRACE_COLUMNS)}
    return SimTrace(columns=columns, **_read_sidecar(sidecar_path(path)))


def _read_sidecar(meta_path: Path) -> dict:
    """The label, control domain and dt a sidecar holds, checked."""
    meta = json.loads(meta_path.read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"trace sidecar {meta_path} is not a JSON object")
    for key in ("label", "control_domain", "dt"):
        if key not in meta:
            raise ValueError(f"trace sidecar {meta_path} lacks {key!r}")
    label, domain, dt = meta["label"], meta["control_domain"], meta["dt"]
    if not isinstance(label, str):
        raise ValueError(f"trace sidecar {meta_path}: label must be a string, got {label!r}")
    if domain not in CONTROL_DOMAINS:
        raise ValueError(
            f"trace sidecar {meta_path}: control_domain must be one of {CONTROL_DOMAINS}, got {domain!r}"
        )
    if not isinstance(dt, float) or not math.isfinite(dt) or dt < 0.0:
        raise ValueError(f"trace sidecar {meta_path}: dt must be a finite float >= 0, got {dt!r}")
    return {"label": label, "control_domain": domain, "dt": dt}
