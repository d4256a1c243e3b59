"""CSV trace emission and exact round-trip reading.

Column order is fixed; floats are written with Python's shortest round-trip
representation so that reading a trace back reproduces it bit for bit.

Most columns repeat from row to row on quiescent steps, so `repr` runs once
per run of equal float64 bits, and the rows of a run share its text. The
bits, not `==`, decide, so 0.0 and -0.0 keep their own texts. The rows are
written in self-contained chunks of `CHUNK_ROWS`, which bounds the memory
the texts take.

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


def _column_texts(values: np.ndarray) -> list[str]:
    """Text of each value, made once per run of equal bits."""
    bits = values.view(np.uint64)
    changes = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    texts = np.array(list(map(repr, values[np.r_[0, changes]].tolist())), dtype=object)
    return np.repeat(texts, np.diff(changes, prepend=0, append=len(values))).tolist()


def write_trace(trace: SimTrace, path: str | Path) -> None:
    path = Path(path)
    cols = [np.ascontiguousarray(trace.columns[name], dtype=np.float64) for name in TRACE_COLUMNS]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for start in range(0, len(trace), CHUNK_ROWS):
            texts = [_column_texts(c[start : start + CHUNK_ROWS]) for c in cols]
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")
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
