"""CSV trace emission and exact round-trip reading.

Column order is fixed; floats are written as Python's repr writes them,
the shortest text that reads back as the same double, so that reading a
trace back reproduces every value bit for bit, except that every NaN reads
back as float("nan"), 0x7ff8000000000000: repr prints any NaN as `nan`,
dropping its sign bit and payload. The engine's traces hold no NaN.

The texts come from orjson's shortest float writer (Ryu), whose digits are
repr's. Only its notation differs, and `_reprs` mends it column by column,
byte for byte. orjson writes an exponent as e-7 or e16 where repr writes
e-07 and e+16: plain byte replaces add the zero to the one-digit negative
exponents and the sign to the positive ones. orjson writes the non-finite values as null, and 1e-5 <= |x| < 1e-4 in fixed
notation where repr uses an exponent: those cells take repr.

The rows are written in self-contained chunks of `CHUNK_ROWS`, which bounds
the memory the texts take. Each chunk's text is one join over a flat list
of pieces; no row has a string of its own. Change detection runs on one bit
matrix per chunk, the chunk's columns stacked and viewed as uint64: only the
leading columns whose bits change on every row (t always, ref on a chirp)
are formatted row by row. The columns after them repeat from row to row on
quiescent steps: each gets one text per run of its equal float64 bits, and
together they get one joined text per run of rows in which none of them
changes, a piece which every row of that run shares, as all rows share the
comma and newline pieces. The bits, not `==`, decide, so 0.0 and -0.0 keep
their own texts.

Next to the trace file `<name>` the writer puts `<name>.meta.json`, a
sidecar holding the trace's label and control domain, which the CSV has
no room for; `read_trace` reads it back, so metrics computed from a
trace read from disk equal those of the run that wrote it. The writer
checks the sidecar by the reader's rules before it writes either file, so
every trace it writes reads back.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np
import orjson

from .config import DOMAIN_TRACKING
from .sim import TRACE_COLUMNS, SimTrace

CHUNK_ROWS = 1024

# orjson writes e-7 and e16 where repr writes e-07 and e+16. Its fixed
# notation reaches down to 1e-5, so no exponent lies between -5 and 15. A
# comma ends each cell's text, so e-6, does not match the start of e-61.
_NEGATIVE = [(b"e-%d," % d, b"e-0%d," % d) for d in range(6, 10)]
_POSITIVE = [(b"e%d" % d, b"e+%d" % d) for d in range(1, 10)]


def sidecar_path(path: str | Path) -> Path:
    """Path of the label/control-domain sidecar of a trace CSV."""
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def _reprs(col: np.ndarray) -> list[str]:
    """list(map(repr, col.tolist())) for a contiguous float64 column: see
    the module docstring."""
    text = orjson.dumps(col, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] + b","
    a = np.abs(col)
    # A replace scans the whole text, so each form is rewritten only where
    # it occurs: one-digit negative exponents, -9 to -6, on 1e-9 <= |x| <
    # 1e-5 (rounding is monotonic, so the shortest digits of |x| >= 1e-9
    # are >= 1e-9 too), and positive exponents on finite |x| >= 1e16.
    if ((a >= 1e-9) & (a < 1e-5)).any():
        for old, new in _NEGATIVE:
            text = text.replace(old, new)
    if ((a >= 1e16) & (a < np.inf)).any():
        for old, new in _POSITIVE:
            text = text.replace(old, new)
    texts = text.decode().split(",")
    texts.pop()
    # repr where orjson's notation differs in more than the exponent: the
    # band 1e-5 <= |x| < 1e-4, and NaN and the infinities, which fail the
    # last comparison or both.
    for i in np.flatnonzero(~((a < 1e-5) | ((a >= 1e-4) & (a < np.inf)))).tolist():
        texts[i] = repr(float(col[i]))
    return texts


def _pieces(cols: list[np.ndarray]) -> list[str]:
    """Pieces whose join is the text of the rows of equal-length columns, at
    least one row long, each row ended by a newline. The caller joins the
    pieces once this function's arrays are freed, so that they do not add
    to the join's peak memory."""
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
        pieces[2 * i :: width] = _reprs(block[i])
    if lead == ncols:
        return pieces
    # The tail's text changes only where one of its columns does: each run
    # of rows shares one text, and each column of it gets one text per run
    # at which its bits change, carried forward by a flat cumsum.
    tail, tail_changed = block[lead:], changed[lead:]
    start = np.ones(m, dtype=bool)
    tail_changed.any(axis=0, out=start[1:])
    starts = np.flatnonzero(start)
    new = np.ones((len(tail), len(starts)), dtype=bool)
    new[:, 1:] = tail_changed[:, starts[1:] - 1]
    texts = np.array(_reprs(tail[:, starts][new]), dtype=object)
    run_texts = texts[np.cumsum(new) - 1].reshape(new.shape)
    # One run's tuple at a time: a list per run would trip the collector.
    tails = np.array(list(map(",".join, zip(*run_texts.tolist()))), dtype=object)
    pieces[2 * lead :: width] = tails[np.cumsum(start) - 1].tolist()
    return pieces


def write_trace(trace: SimTrace, path: str | Path) -> None:
    """Write the trace CSV and its sidecar. Checked before anything is
    written, each a ValueError: a missing column, or one with fewer rows
    than another, and the sidecar's label and control domain, by the rules
    `read_trace` applies to them, so every trace written reads back."""
    path = Path(path)
    for name in TRACE_COLUMNS:
        if name not in trace.columns:
            raise ValueError(f"trace lacks column {name!r}")
    cols = [np.ascontiguousarray(trace.columns[name], dtype=np.float64) for name in TRACE_COLUMNS]
    n = max(map(len, cols))
    for name, c in zip(TRACE_COLUMNS, cols):
        if len(c) != n:
            raise ValueError(f"trace column {name!r} has {len(c)} rows, not {n}")
    meta_path = sidecar_path(path)
    meta = _checked_sidecar({"control_domain": trace.control_domain, "label": trace.label}, meta_path)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for start in range(0, n, CHUNK_ROWS):
            fh.write("".join(_pieces([c[start : start + CHUNK_ROWS] for c in cols])))
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def read_trace(path: str | Path) -> SimTrace:
    """The trace `write_trace` wrote at path: its eleven columns, each value
    bit for bit (a NaN as float("nan")), and the label and control domain
    from its sidecar. The CSV does not hold the run's books: `dv` is None,
    and `v_final` 0.0 and `clamp_events` 0 are not the run's."""
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if tuple(header) != TRACE_COLUMNS:
        raise ValueError(f"unexpected trace header in {path}: {header}")
    with warnings.catch_warnings():
        # A header-only trace has no rows, which loadtxt warns about.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, ndmin=2)
    if not table.size:
        table = table.reshape(0, len(TRACE_COLUMNS))
    if table.shape[1] != len(TRACE_COLUMNS):
        raise ValueError(f"malformed trace rows in {path}: {table.shape[1]} fields each")
    # Copies, not views: views of the table cost 4-5 % more peak memory.
    columns = {name: table[:, i].copy() for i, name in enumerate(TRACE_COLUMNS)}
    meta_path = sidecar_path(path)
    return SimTrace(columns=columns, **_checked_sidecar(json.loads(meta_path.read_text()), meta_path))


def _checked_sidecar(meta, meta_path: Path) -> dict:
    """The label and control domain of the sidecar dict meta, checked by
    the rules both `write_trace` and `read_trace` apply; other keys, such
    as the "dt" of older sidecars, are ignored."""
    if not isinstance(meta, dict):
        raise ValueError(f"trace sidecar {meta_path} is not a JSON object")
    for key in ("label", "control_domain"):
        if key not in meta:
            raise ValueError(f"trace sidecar {meta_path} lacks {key!r}")
    label, domain = meta["label"], meta["control_domain"]
    if not isinstance(label, str):
        raise ValueError(f"trace sidecar {meta_path}: label must be a string, got {label!r}")
    if not isinstance(domain, str) or domain not in DOMAIN_TRACKING:
        raise ValueError(
            f"trace sidecar {meta_path}: control_domain must be one of"
            f" {tuple(DOMAIN_TRACKING)}, got {domain!r}"
        )
    return {"label": label, "control_domain": domain}
