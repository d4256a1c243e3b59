"""CSV trace emission and exact round-trip reading.

Column order is fixed; floats are written with Python's shortest round-trip
representation so that reading a trace back reproduces it bit for bit.

The rows are written in self-contained chunks of `CHUNK_ROWS`, which bounds
the memory the texts take. Each chunk's text is one join over a flat list of
pieces; no row has a string of its own. Change detection runs on one bit
matrix per chunk, the chunk's columns stacked and viewed as uint64: only the
leading columns whose bits change on every row (t always, ref on a chirp)
are formatted row by row. The columns after them repeat from row to row on
quiescent steps: each gets one `repr` per run of its equal float64 bits, and
together they get one joined text per run of rows in which none of them
changes, a piece which every row of that run shares, as all rows share the
comma and newline pieces. The bits, not `==`, decide, so 0.0 and -0.0 keep
their own texts.

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


def _pieces(cols: list[np.ndarray]) -> list[str]:
    """Pieces whose join is the text of the rows of equal-length columns, at
    least one row long, each row ended by a newline. The caller joins them
    once this function's arrays are freed, so that they do not add to the
    join's peak memory."""
    block = np.vstack(cols)
    bits = block.view(np.uint64)
    changed = bits[:, 1:] != bits[:, :-1]
    dense = changed.all(axis=1)
    ncols, m = block.shape
    lead = ncols if dense.all() else int(dense.argmin())
    # A row's pieces: each dense column's text and a comma, then the tail's
    # text and the newline; without a tail, the last comma is the newline.
    width = 2 * lead + 2 if lead < ncols else 2 * ncols
    pieces = ([","] * (width - 1) + ["\n"]) * m
    for i in range(lead):
        pieces[2 * i :: width] = map(repr, block[i].tolist())
    if lead == ncols:
        return pieces
    # The tail's text changes only where one of its columns does: each run
    # of rows shares one text, and each column of it gets one repr per run
    # at which its bits change, carried forward by a flat cumsum.
    tail, tail_changed = block[lead:], changed[lead:]
    start = np.ones(m, dtype=bool)
    tail_changed.any(axis=0, out=start[1:])
    starts = np.flatnonzero(start)
    new = np.ones((len(tail), len(starts)), dtype=bool)
    new[:, 1:] = tail_changed[:, starts[1:] - 1]
    texts = np.array(list(map(repr, tail[:, starts][new].tolist())), dtype=object)
    run_texts = texts[np.cumsum(new) - 1].reshape(new.shape)
    tails = np.array(list(map(",".join, run_texts.T.tolist())), dtype=object)
    pieces[2 * lead :: width] = tails[np.cumsum(start) - 1].tolist()
    return pieces


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
            fh.write("".join(_pieces([c[start : start + CHUNK_ROWS] for c in cols])))
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
