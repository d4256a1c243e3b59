"""CSV trace emission and exact round-trip reading.

Column order is fixed; floats are written with Python's shortest round-trip
representation so that reading a trace back reproduces every value bit for
bit, except that every NaN reads back as float("nan"), 0x7ff8000000000000:
repr prints any NaN as `nan`, dropping its sign bit and payload. The
engine's traces hold no NaN.

The rows are written in self-contained chunks of `CHUNK_ROWS`, which bounds
the memory the texts take (inside a `shared_reference_texts` scope, see
below, the store of ref texts adds to it). Each chunk's text is one join over a flat list of
pieces; no row has a string of its own. Change detection runs on one bit
matrix per chunk, the chunk's columns stacked and viewed as uint64: only the
leading columns whose bits change on every row (t always, ref on a chirp)
are formatted row by row. The columns after them repeat from row to row on
quiescent steps: each gets one `repr` per run of its equal float64 bits, and
together they get one joined text per run of rows in which none of them
changes, a piece which every row of that run shares, as all rows share the
comma and newline pieces. The bits, not `==`, decide, so 0.0 and -0.0 keep
their own texts.

The time column takes its texts from the decimal grid of its step s, the
value in its row 1, which for t = arange(n) * dt is dt bit for bit: with
repr(s) = m * 10**-e, row k's grid value is c = k * m / 10**e.
A row whose t is c prints as two pieces shared with other rows, the whole
part k * m // 10**e, one text per run of rows in a chunk, and the fraction
with the comma after it, from one table per step size of 10**e / gcd(m,
10**e) texts; the table is used only while it is at most sixteen chunks'
rows long, which holds e at 12 or less. Row k is taken to be c where
k * m < 2**52, t >= 1e-4, and k * m / 10.0**e has t's bits. That is exact:
k * m and 10**e are then exact doubles, so the quotient is c correctly
rounded, and t is the double nearest c. Every other decimal that ends at
or before the 10**-e digit lies at least 10**-e from c, more than one ulp
of t while k * m < 2**52, so none of them reads back as t, and every
decimal with a later last digit has more significant digits than c. So c
is the shortest text that reads back as t, which is what repr prints, and
between 1e-4 and 1e16 repr prints it in fixed notation. A row past the
bound is compared with the last grid value inside it instead. The test is
made row by row and holds whatever s is, so a t column that is not
arange(n) * s is still written exactly. Every other row, -0.0, NaN, the
infinities and negative values among them, prints as its repr and a comma;
so does the whole column when s has no usable grid (0.0, NaN or one ulp
off a short decimal, say) or the trace has fewer than two rows.

Next to the trace file `<name>` the writer puts `<name>.meta.json`, a
sidecar holding the trace's label and control domain, which the CSV has
no room for; `read_trace` reads it back, so metrics computed from a
trace read from disk equal those of the run that wrote it. The writer
checks the sidecar by the reader's rules before it writes either file, so
every trace it writes reads back.

Within a `shared_reference_texts` scope, which `experiments.sweep` opens
around its runs, consecutive traces share the texts of their ref column. A
sweep's runs differ in one parameter, and unless it moves the reference (a
[reference] key, or the step size) every run has the same ref column, which
on a chirp is formatted row by row in every chunk. The scope keeps, for each
chunk whose ref column is formatted row by row, that column's texts joined
by commas, keyed by the chunk's ref bytes. The next write pops the text of
each chunk whose ref has the same bytes and splits it, formats every other
chunk's ref with repr, and leaves only its own chunks in the store. So
between writes the store holds one trace's ref texts, and while a trace is
written it holds at most two: the chunks of the last trace not yet popped
and those of the new one. That is about 8 bytes of key and 20 of text a
row, which grows with the trace, not the chunk. Equal bits have equal
repr, so the bytes written are those of a write outside the scope. The
store lives in a context variable and is dropped when the scope closes.
"""

from __future__ import annotations

import contextvars
import functools
import json
import math
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import DOMAIN_TRACKING
from .sim import TRACE_COLUMNS, SimTrace

CHUNK_ROWS = 1024
# Sixteen chunks' rows admit every dt of four decimals or fewer, 1e-4
# among them, and hold e at 12 or less: the table is at least 2**e long.
MAX_PERIOD = 16 * CHUNK_ROWS

# The store of a shared_reference_texts scope; None outside one.
_REF_TEXTS: contextvars.ContextVar[dict[bytes, str] | None] = contextvars.ContextVar(
    "dighydro_ref_texts", default=None
)


@contextmanager
def shared_reference_texts():
    """Scope in which `write_trace` shares ref texts; see the module docstring."""
    store: dict[bytes, str] = {}
    token = _REF_TEXTS.set(store)
    try:
        yield
    finally:
        _REF_TEXTS.reset(token)
        store.clear()


def sidecar_path(path: str | Path) -> Path:
    """Path of the label/control-domain sidecar of a trace CSV."""
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


@functools.lru_cache(maxsize=4)
def _time_grid(dt: float) -> tuple[int, int, np.ndarray] | None:
    """The decimal grid of the step size dt, (m, e, fractions): repr(dt) is
    m * 10**-e, with m > 0 and e >= 0 as small as they can be, and
    fractions[j] is the text of the fraction of j * m / 10**e followed by
    the comma, such as ".0015," or ".0,". None where there is no grid: dt
    not positive and finite, m of 2**52 or more (only the first row would be
    on it), or a table of fractions longer than MAX_PERIOD. Cached, as
    every trace of a run set shares its dt."""
    if not (math.isfinite(dt) and dt > 0.0):
        return None
    mantissa, _, exponent = repr(dt).partition("e")
    whole, _, fraction = mantissa.partition(".")
    m, e = int(whole + fraction), len(fraction) - int(exponent or 0)
    while e > 0 and m % 10 == 0:
        m, e = m // 10, e - 1
    if e < 0:
        m, e = m * 10**-e, 0
    scale = 10**e
    period = scale // math.gcd(m, scale)
    if m >= 2**52 or period > MAX_PERIOD:
        return None
    # Only the fraction of j = 0 is zero, and its text is ".0".
    fmt = f".%0{e}d"
    texts = [(fmt % (jm % scale)).rstrip("0") for jm in range(0, period * m, m)]
    texts[0] = ".0"
    return m, e, np.array(texts, dtype=object) + ","


def _time_texts(t: np.ndarray, first_row: int, grid: tuple[int, int, np.ndarray]) -> tuple[list, list]:
    """The two pieces of each value of a chunk of the time column, whose
    first value is row first_row: on the grid, the whole part and the
    fraction with its comma; off it, the repr and the comma."""
    m, e, fractions = grid
    # Row k is held to grid point j <= (2**52 - 1) // m: rows past that bound
    # are on the grid only where their value is the bound's.
    j = np.minimum(np.arange(first_row, first_row + len(t)), (2**52 - 1) // m)
    jm = j * m
    on = (t >= 1e-4) & ((jm / 10.0**e).view(np.uint64) == t.view(np.uint64))
    # jm rises with k: each whole part gets one text per run of rows.
    whole = jm // 10**e
    start = np.ones(len(t), dtype=bool)
    np.not_equal(whole[1:], whole[:-1], out=start[1:])
    wholes = np.array(list(map(str, whole[start].tolist())), dtype=object)[np.cumsum(start) - 1]
    fracs = fractions.take(j, mode="wrap")
    off = np.flatnonzero(~on)
    if len(off):
        wholes[off] = list(map(repr, t[off].tolist()))
        fracs[off] = ","
    return wholes.tolist(), fracs.tolist()


def _ref_texts(ref: np.ndarray, store: dict[bytes, str], kept: dict[bytes, str]) -> list[str]:
    """The repr of each value of a chunk's ref column: popped from store by
    the column's bytes and split, or formatted; either way its joined text
    is put in kept under those bytes."""
    key = ref.tobytes()
    text = store.pop(key, None)
    if text is not None:
        kept[key] = text
        return text.split(",")
    texts = list(map(repr, ref.tolist()))
    kept[key] = ",".join(texts)
    return texts


def _pieces(
    cols: list[np.ndarray], first_row: int, grid: tuple | None, shared: tuple | None = None
) -> list[str]:
    """Pieces whose join is the text of the rows of equal-length columns, at
    least one row long, each row ended by a newline. The first column is a
    time column whose first value is row first_row of the trace, and grid
    its `_time_grid`; the second is the ref column, whose row-by-row texts
    come from `_ref_texts` when shared, `write_trace`'s pair, is given. The
    caller joins the pieces once this function's arrays are freed, so that
    they do not add to the join's peak memory."""
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
    reprs = range(lead)
    if lead and grid is not None:
        # The time column's two pieces take its slot and its comma's.
        pieces[0::width], pieces[1::width] = _time_texts(block[0], first_row, grid)
        reprs = range(1, lead)
    for i in reprs:
        if i == 1 and shared is not None:
            pieces[2::width] = _ref_texts(block[1], *shared)
        else:
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
    # One run's tuple at a time: a list per run would trip the collector.
    tails = np.array(list(map(",".join, zip(*run_texts.tolist()))), dtype=object)
    pieces[2 * lead :: width] = tails[np.cumsum(start) - 1].tolist()
    return pieces


def write_trace(trace: SimTrace, path: str | Path) -> None:
    """Write the trace CSV and its sidecar. Checked before anything is
    written, each a ValueError: a missing column, or one with fewer rows
    than another, and the sidecar's label and control domain, by the rules
    `read_trace` applies to them, so every trace written reads back. The
    time column's grid is that of its step, t[1]. See the module docstring
    for `shared_reference_texts`."""
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
    grid = _time_grid(float(cols[0][1])) if n > 1 else None
    store = _REF_TEXTS.get()
    shared = None if store is None else (store, {})
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for start in range(0, n, CHUNK_ROWS):
            fh.write("".join(_pieces([c[start : start + CHUNK_ROWS] for c in cols], start, grid, shared)))
    if shared is not None:
        store.clear()
        store.update(shared[1])
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
