import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dighydro import (
    RunMetrics,
    SimTrace,
    compute_metrics,
    load_config,
    read_trace,
    run_scenario,
    run_simulation,
    scenario_path,
    sweep,
    traceio,
    write_trace,
)
from dighydro.experiments import settle_band
from dighydro.sim import TRACE_COLUMNS

from conftest import collector_passes


def test_csv_round_trip_is_exact(tmp_path, scenario_run):
    _, trace = scenario_run("step_unloaded_p1")
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    back = read_trace(path)
    for name in trace.columns:
        assert np.array_equal(trace[name], back[name]), name
    # The CSV holds no books of the run.
    assert back.dv is None and back.v_final == 0.0 != trace.v_final and back.clamp_events == 0


def test_repeated_writes_are_byte_identical(tmp_path, scenario_run):
    cfg, trace = scenario_run("hysteresis")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_trace(trace, a)
    write_trace(run_simulation(cfg), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("chunk_rows", [7, traceio.CHUNK_ROWS])
def test_writer_matches_plain_row_by_row_repr(tmp_path, monkeypatch, scenario_run, chunk_rows):
    monkeypatch.setattr(traceio, "CHUNK_ROWS", chunk_rows)
    noisy = (("sensor.pressure_noise_std_pa", "500"), ("run.duration_s", "3"))
    _, trace = scenario_run("chirp_matched", noisy)
    _assert_writes_plain_repr(trace, tmp_path / "trace.csv")


def _assert_writes_plain_repr(trace: SimTrace, path) -> None:
    write_trace(trace, path)
    rows = zip(*(trace[name].tolist() for name in TRACE_COLUMNS))
    plain = "".join(",".join(map(repr, row)) + "\n" for row in rows)
    assert path.read_text() == ",".join(TRACE_COLUMNS) + "\n" + plain


# Signed zeros, subnormals, the smallest normal, and the non-finite values.
FINITE_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308)
_value = st.sampled_from(FINITE_SPECIAL + (math.nan, -math.nan, math.inf, -math.inf)) | st.floats()


def _dense(start: float, step: float | None, n: int) -> list[float]:
    """n values from start, each with new bits: start + k * step, or without
    a step each the next float up, which runs through the subnormals too."""
    if step is not None:
        return [start + k * step for k in range(n)]
    col = [start]
    while len(col) < n:
        col.append(math.nextafter(col[-1], math.inf))
    return col[:n]


# Step sizes m * 10**-e. The writer prints t from the decimal grid of its
# step, the value in row 1 of t, where the grid's table of fractions is
# short: 5e-05 and 1e-05 (whose small t repr prints in exponent form) and
# 1.234567e-4 have long tables and skip it, 1e20 has e < 0 and m >= 2**52
# and skips it too, and 6.25e-5 has a grid value below 1e-4, which must
# not take it.
_STEPS = (0.0, 5e-4, 1e-4, 6.25e-5, 5e-05, 1e-05, 0.1, 2.0, 1.5, 1.234567e-4, 1e20, 7.0)
_decimal = st.builds(lambda m, e: float(f"{m}e{-e}"), st.integers(1, 10**4), st.integers(-3, 8))
_step = st.sampled_from(_STEPS) | _decimal
_NUDGES = {
    "up": lambda x: math.nextafter(x, math.inf),
    "down": lambda x: math.nextafter(x, -math.inf),
    "negative zero": lambda x: -0.0,
    "nan": lambda x: math.nan,
    "inf": lambda x: math.inf,
    "-inf": lambda x: -math.inf,
    "negated": lambda x: -x,
}


def _t_cols(t: list[float]) -> list[list[float]]:
    """Columns with the time column t and every other column 1.0."""
    return [t] + [[1.0] * len(t)] * (len(TRACE_COLUMNS) - 1)


_TENTHS = [k * 0.1 for k in range(9)]

# Rows of a second trace's ref to nudge; none makes it the first's.
_ref_nudges = st.dictionaries(st.integers(0, 39), st.sampled_from(sorted(_NUDGES)), max_size=3)


@st.composite
def _columns(draw) -> list[list[float]]:
    """Eleven equal-length columns, each dense, constant, dense up to some
    row and constant after it, or drawn freely; sometimes every column
    dense, or every column constant. Sometimes t is arange(n) * dt for the
    drawn dt, with a few rows nudged off its grid."""
    n = draw(st.integers(0, 40))
    every = draw(st.sampled_from(("dense", "constant", None)))
    cols = []
    for _ in TRACE_COLUMNS:
        kind = every or draw(st.sampled_from(("dense", "constant", "stops", "free")))
        if kind == "free":
            cols.append(draw(st.lists(_value, min_size=n, max_size=n)))
            continue
        start = draw(st.sampled_from(FINITE_SPECIAL) | st.floats(-1e3, 1e3))
        if kind == "constant":
            cols.append([start] * n)
            continue
        col = _dense(start, draw(st.sampled_from((None, 5e-4, 1.0))), n)
        if kind == "stops":
            stop = draw(st.integers(1, max(n, 1)))
            col = col[:stop] + col[stop - 1 : stop] * (n - stop)
        cols.append(col)
    if draw(st.booleans()):
        dt = draw(_step)
        cols[0] = [k * dt for k in range(n)]
        rows = st.integers(0, max(n - 1, 0))
        for k, nudge in draw(st.dictionaries(rows, st.sampled_from(sorted(_NUDGES)), max_size=min(n, 4))).items():
            cols[0][k] = _NUDGES[nudge](cols[0][k])
    return cols


@pytest.mark.seeded
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    chunk_rows=st.sampled_from((1, 2, 7, traceio.CHUNK_ROWS)),
    cols=_columns(),
    nudges=st.none() | _ref_nudges,
)
# A dense leading t that stops changing mid-chunk, ahead of dense and
# constant columns.
@example(
    chunk_rows=7,
    cols=[[0.0, 0.1, 0.2, 0.3, 0.3, 0.3, 0.3, 0.3, 0.8]]
    + [[k * 1.5 for k in range(9)]] * 2
    + [[-0.0] * 9, [5e-324] * 9, [math.nan] * 9, [math.inf] * 9]
    + [[0.0, -0.0, -0.0, 0.0, 1e-310, 1e-310, -math.inf, -math.inf, 0.0]] * 4,
    nudges=None,
)
# The two edge layouts of a chunk's pieces: no dense column at all (a
# constant t), and every column dense but the last (only sensed_p repeats,
# in both chunks).
@example(
    chunk_rows=7,
    cols=[[0.5] * 9]
    + [_dense(0.0, None, 9), [-0.0] * 9]
    + [[0.0, -0.0, -0.0, 0.0, 1e-310, 1e-310, -math.inf, math.nan, math.nan]] * 8,
    nudges=None,
)
@example(
    chunk_rows=7,
    cols=[_dense(float(i), 0.5, 9) for i in range(len(TRACE_COLUMNS) - 1)]
    + [[1.0, 1.0, -0.0, 0.0, 0.0, 5e-324, 5e-324, 2.0, 2.0]],
    nudges=None,
)
# The same columns written twice in one scope, the second time with -0.0 in
# ref's first chunk: that chunk takes its own texts, the second shares them.
@example(
    chunk_rows=7,
    cols=[_dense(float(i), 0.5, 9) for i in range(len(TRACE_COLUMNS) - 1)]
    + [[1.0, 1.0, -0.0, 0.0, 0.0, 5e-324, 5e-324, 2.0, 2.0]],
    nudges={3: "negative zero"},
)
# t on the grid of its step 0.1, whose second chunk crosses a whole second;
# 0.30000000000000004 and 0.7000000000000001 are off the grid.
@example(chunk_rows=7, cols=[[k * 0.1 for k in range(14)]] + [[1.0] * 14] * 10, nudges=None)
# The grid of the step 6.25e-5 holds 6.25e-05 below 1e-4, which repr prints in
# exponent form, and 0.000125 above it.
@example(
    chunk_rows=traceio.CHUNK_ROWS,
    cols=[[k * 6.25e-5 for k in range(5)]] + [[1.0] * 5] * 10,
    nudges=None,
)
# m = 3002399751580331 < 2**52 but 3 * m = 2**53 + 1, whose nearest double
# 2**53 has t[3]'s bits and prints as 9007199254740992.0: row 3 lies past
# the k * m < 2**52 bound and must take repr.
@example(
    chunk_rows=traceio.CHUNK_ROWS,
    cols=[[k * 3002399751580331.0 for k in range(5)]] + [[1.0] * 5] * 10,
    nudges=None,
)
# The step is row 1 of t: a one-row trace has none. A row 1 one ulp off
# 0.1, or -0.0, NaN or inf there, has no grid either, and every row takes
# its repr. A t that starts at 2.0 has the step 2.25, on whose grid only
# row 1 lies.
@example(chunk_rows=7, cols=_t_cols([0.5]), nudges=None)
@example(chunk_rows=7, cols=_t_cols([0.0, 0.5]), nudges=None)
@example(chunk_rows=7, cols=_t_cols([0.0, math.nextafter(0.1, math.inf)] + _TENTHS[2:]), nudges=None)
@example(chunk_rows=7, cols=_t_cols([0.0, math.nextafter(0.1, -math.inf)] + _TENTHS[2:]), nudges=None)
@example(chunk_rows=7, cols=_t_cols([0.0, -0.0] + _TENTHS[2:]), nudges=None)
@example(chunk_rows=7, cols=_t_cols([0.0, math.nan] + _TENTHS[2:]), nudges=None)
@example(chunk_rows=7, cols=_t_cols([0.0, math.inf] + _TENTHS[2:]), nudges=None)
@example(chunk_rows=7, cols=_t_cols([2.0 + k * 0.25 for k in range(9)]), nudges=None)
def test_writer_matches_plain_row_by_row_repr_on_any_columns(tmp_path, chunk_rows, cols, nudges):
    # With nudges the trace is written, then a copy whose ref has the rows
    # nudges names nudged, in one scope that shares their reference texts.
    columns = {name: np.array(col, dtype=float) for name, col in zip(TRACE_COLUMNS, cols)}
    trace = SimTrace(columns=columns)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traceio, "CHUNK_ROWS", chunk_rows)
        if nudges is None:
            _assert_writes_plain_repr(trace, tmp_path / "trace.csv")
            return
        ref = columns["ref"].copy()
        for k, nudge in nudges.items():
            if k < len(ref):
                ref[k] = _NUDGES[nudge](ref[k])
        second = SimTrace(columns={**columns, "ref": ref})
        with traceio.shared_reference_texts():
            _assert_writes_plain_repr(trace, tmp_path / "first.csv")
            _assert_writes_plain_repr(second, tmp_path / "second.csv")


@pytest.mark.parametrize("step", [1.234567e-4, 1e-4, 7.0])
def test_writer_memory_is_bounded_by_the_chunk_not_the_trace(tmp_path, step):
    # Dense t and ref ahead of columns that hold each value for four rows:
    # every row has its own text, so a writer that held the text of the
    # whole trace at once would need about ten times the memory on ten
    # times the rows. The step 1.234567e-4 has no usable grid, so t takes
    # repr; 1e-4 prints t from its grid, and 7.0 too, with a whole part of
    # its own on every row.
    def write_peak(rows: int) -> int:
        rng = np.random.default_rng(7)
        columns = {name: np.repeat(rng.standard_normal(rows // 4), 4) for name in TRACE_COLUMNS}
        columns["t"] = np.arange(rows) * step
        columns["ref"] = rng.standard_normal(rows)
        trace = SimTrace(columns=columns)
        # Each write builds its own table of fractions, as a first one would.
        traceio._time_grid.cache_clear()
        tracemalloc.start()
        try:
            write_trace(trace, tmp_path / "trace.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = write_peak(4 * traceio.CHUNK_ROWS), write_peak(40 * traceio.CHUNK_ROWS)
    assert long < 1.5 * short, (short, long)


# The chirp of the benchmark's busy sweep: its noisy sensed columns change on
# every row, so a chunk's tail starts a run on every row.
BUSY_CHIRP = (
    ("run.duration_s", "10"),
    ("reference.chirp_f0_hz", "1"),
    ("reference.chirp_f1_hz", "6.5"),
    ("reference.chirp_lo", "50e3"),
    ("reference.chirp_hi", "450e3"),
    ("reference.chirp_sweep_time_s", "10"),
    ("controller.tolerance_pa", "2e3"),
    ("sensor.pressure_noise_std_pa", "500"),
    ("sensor.position_noise_std_mm", "0.02"),
)


@pytest.mark.parametrize("job", ["write", "sweep and read"])
def test_writing_a_busy_trace_runs_no_collector_pass(tmp_path, scenario_run, job):
    # A container the collector tracks, built per run of a chunk's tail,
    # would run the cyclic collector about once a chunk: 19 passes in this
    # write. The sweep may run one pass outside the writer.
    if job == "write":
        _, trace = scenario_run("chirp_matched", BUSY_CHIRP)
        assert math.ceil(len(trace) / traceio.CHUNK_ROWS) == 20
        with collector_passes() as passes:
            write_trace(trace, tmp_path / "trace.csv")
        assert passes == []
        return
    with collector_passes() as passes:
        values = ["0.95e-8", "1.05e-8"]
        sweep(scenario_path("chirp_matched"), "plant.kv_hp", values, tmp_path, dict(BUSY_CHIRP))
        backs = [read_trace(path) for path in sorted(tmp_path.glob("*_trace.csv"))]
    assert len(backs) == 2 and len(passes) <= 1, passes


@pytest.mark.parametrize("shares", [True, False], ids=["same ref", "other ref"])
def test_shared_reference_texts_hold_one_trace_between_writes_and_two_during_one(tmp_path, shares):
    # Inside a scope the store grows with the trace, not the chunk. Between
    # writes it holds one trace's ref texts. While a second trace is written
    # it adds to the memory of a write outside the scope the first trace's
    # store, and, when the second shares no chunk, a second store as large.
    rows = 40 * traceio.CHUNK_ROWS
    rng = np.random.default_rng(7)
    columns = {name: np.repeat(rng.standard_normal(rows // 4), 4) for name in TRACE_COLUMNS}
    columns["t"] = np.arange(rows) * 1e-4
    first = SimTrace(columns={**columns, "ref": rng.standard_normal(rows)})
    second = first if shares else SimTrace(columns={**columns, "ref": rng.standard_normal(rows)})
    write_trace(second, tmp_path / "alone.csv")
    tracemalloc.start()
    try:
        write_trace(second, tmp_path / "alone.csv")
        alone = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with traceio.shared_reference_texts():
        store = traceio._REF_TEXTS.get()
        tracemalloc.start()
        try:
            write_trace(first, tmp_path / "first.csv")
            size = sum(sys.getsizeof(k) + sys.getsizeof(v) for k, v in store.items())
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            write_trace(second, tmp_path / "second.csv")
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(store) == 40
    assert held < 1.1 * size and after < 1.1 * size, (size, held, after)
    assert peak - held < alone + (0 if shares else size) + 0.1 * size, (alone, size, held, peak)


@pytest.mark.parametrize(
    "row, value",
    [(5, "one ulp up"), (3 * 1024 - 1, "one ulp down"), (3 * 1024 // 2, "-0.0")],
)
def test_shared_reference_texts_print_a_changed_ref_as_it_is(tmp_path, row, value):
    # A dense ref over three chunks that holds 0.0 at its middle row. A
    # second trace whose ref differs in one row's bits prints as it does
    # outside the scope; a third, bit-equal to the first, shares all its
    # chunks' texts.
    n = 3 * traceio.CHUNK_ROWS
    columns = {name: np.arange(n) * 1e-4 + i for i, name in enumerate(TRACE_COLUMNS)}
    columns["ref"] = (np.arange(n) - n // 2) * 0.25
    assert columns["ref"][row] == 0.0 or value != "-0.0"
    changed = columns["ref"].copy()
    if value == "-0.0":
        changed[row] = -0.0
    else:
        changed[row] = np.nextafter(changed[row], np.inf if value == "one ulp up" else -np.inf)
    first = SimTrace(columns=columns)
    second = SimTrace(columns={**columns, "ref": changed})
    write_trace(second, tmp_path / "alone.csv")
    with traceio.shared_reference_texts():
        store = traceio._REF_TEXTS.get()
        write_trace(first, tmp_path / "first.csv")
        keys = set(store)
        write_trace(second, tmp_path / "second.csv")
        assert len(store) == 3 and len(keys & set(store)) == 2
        write_trace(first, tmp_path / "third.csv")
        assert set(store) == keys
    assert store == {} and traceio._REF_TEXTS.get() is None
    assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()
    _assert_writes_plain_repr(second, tmp_path / "plain.csv")
    assert (tmp_path / "third.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()


@pytest.mark.parametrize("short", ["sensed_p", "t"])
def test_columns_of_unequal_length_are_refused(tmp_path, short):
    # zip would silently stop at the shortest column.
    columns = {name: np.arange(5.0) for name in TRACE_COLUMNS}
    columns[short] = columns[short][:3]
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError, match=f"'{short}' has 3 rows, not 5"):
        write_trace(SimTrace(columns=columns), path)
    del columns[short]
    with pytest.raises(ValueError, match=f"lacks column '{short}'"):
        write_trace(SimTrace(columns=columns), path)
    assert not path.exists()


def test_malformed_files_are_rejected(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_trace(bad_header)

    bad_row = tmp_path / "r.csv"
    header = "t,ref,p_tube,v_tube,tip_y,hp_cmd,lp_cmd,hp_arm,lp_arm,sensed_pos,sensed_p"
    row = ",".join(["0.0"] * 11)
    for rows in ("1,2,3", ",".join(["0.0"] * 12), f"{row}\n{row},0.0", f"#{row}"):
        bad_row.write_text(f"{header}\n{rows}\n")
        with pytest.raises(ValueError):
            read_trace(bad_row)

    bad_sidecar = tmp_path / "s.csv"
    bad_sidecar.write_text(header + "\n" + ",".join(["0.0"] * 11) + "\n")
    sidecars = {
        '{"label": "s"}': "lacks 'control_domain'",
        '["s", "pressure"]': "not a JSON object",
        '{"label": 3, "control_domain": "pressure"}': "label",
        '{"label": "s", "control_domain": "force"}': "control_domain",
        '{"label": "s", "control_domain": []}': "control_domain",
        '{"label": "s", "control_domain": {}}': "control_domain",
    }
    for text, match in sidecars.items():
        traceio.sidecar_path(bad_sidecar).write_text(text + "\n")
        with pytest.raises(ValueError, match=match):
            read_trace(bad_sidecar)


def test_sidecar_never_overwrites_its_trace(tmp_path, scenario_run):
    _, trace = scenario_run("step_unloaded_p1")
    path = tmp_path / "trace.json"
    write_trace(trace, path)
    assert traceio.sidecar_path(path) != path
    back = read_trace(path)
    assert (back.label, back.control_domain) == (trace.label, trace.control_domain)
    assert np.array_equal(back["p_tube"], trace["p_tube"])


@pytest.mark.parametrize("chunk_rows", [1, 2, 4, traceio.CHUNK_ROWS])
def test_repeated_values_keep_their_signed_zero_texts(tmp_path, monkeypatch, chunk_rows):
    # With two-row chunks the run -0.0, -0.0 spans a chunk boundary; with
    # one-row chunks every run does.
    monkeypatch.setattr(traceio, "CHUNK_ROWS", chunk_rows)
    values = np.array([0.0, -0.0, -0.0, 0.0, 1e-300, 1e-300])
    trace = SimTrace(columns={name: values.copy() for name in TRACE_COLUMNS})
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    rows = path.read_text().splitlines()[1:]
    expected = ["0.0", "-0.0", "-0.0", "0.0", "1e-300", "1e-300"]
    assert rows == [",".join([text] * len(TRACE_COLUMNS)) for text in expected]
    back = read_trace(path)
    for name in TRACE_COLUMNS:
        assert back[name].tobytes() == values.tobytes(), name


def test_a_negative_nan_reads_back_as_a_nan(tmp_path):
    # 0.0 * inf is the NaN with its sign bit set; repr prints it as "nan",
    # which reads back as float("nan").
    with np.errstate(invalid="ignore"):
        values = np.array([1.0, 0.0, 2.0]) * np.array([1.0, np.inf, 1.0])
    bits = values.view(np.uint64).tolist()
    assert bits[1] == 0xFFF8_0000_0000_0000
    trace = SimTrace(columns={name: values.copy() for name in TRACE_COLUMNS})
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    assert path.read_text().splitlines()[2] == ",".join(["nan"] * len(TRACE_COLUMNS))
    bits[1] = 0x7FF8_0000_0000_0000
    back = read_trace(path)
    for name in TRACE_COLUMNS:
        assert back[name].view(np.uint64).tolist() == bits, name


def test_zero_row_trace_is_only_the_header(tmp_path):
    trace = SimTrace(columns={name: np.empty(0) for name in TRACE_COLUMNS}, label="empty")
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    assert path.read_text() == ",".join(TRACE_COLUMNS) + "\n"
    back = read_trace(path)
    assert len(back) == 0 and back.label == "empty"
    for name in TRACE_COLUMNS:
        assert back[name].dtype == np.float64 and back[name].shape == (0,), name
    assert compute_metrics(back, 10e3) == RunMetrics("empty", 0.0, 0.0, 0.0, True, 0, 0, 0.0)


@pytest.mark.parametrize(
    "name, overrides, domain, old",
    [
        ("step_unloaded_p1", None, "position", False),
        ("chirp_matched", {"run.duration_s": "3"}, "pressure", False),
        # Open loop: no output is tracked, so the error is zero and settled.
        ("step_unloaded_p1", {"controller.kind": "none", "run.duration_s": "3"}, "none", False),
        # Sidecars written before the step came from t hold "dt" too.
        ("chirp_matched", {"run.duration_s": "3"}, "pressure", True),
    ],
)
def test_trace_read_from_disk_gives_the_run_metrics(tmp_path, name, overrides, domain, old):
    trace_path, _, metrics, trace = run_scenario(scenario_path(name), tmp_path, overrides)
    band = settle_band(load_config(scenario_path(name), overrides))
    meta_path = traceio.sidecar_path(trace_path)
    meta = json.loads(meta_path.read_text())
    assert meta == {"label": trace.label, "control_domain": domain}
    if old:
        meta_path.write_text(json.dumps({**meta, "dt": 0.0005}))
    back = read_trace(trace_path)
    for field in ("label", "control_domain"):
        assert getattr(back, field) == getattr(trace, field), field
    assert compute_metrics(back, band) == metrics
    if domain == "none":
        assert (band, metrics.max_abs_error, metrics.settled) == (0.0, 0.0, True)


def test_trace_without_sidecar_is_refused(tmp_path, scenario_run):
    # Without its sidecar a trace would read as control domain "none", whose
    # tracking error is zero: the metrics would be silently wrong.
    _, trace = scenario_run("hysteresis")
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    traceio.sidecar_path(path).unlink()
    with pytest.raises(FileNotFoundError):
        read_trace(path)


@pytest.mark.parametrize(
    "field, value",
    [("control_domain", []), ("control_domain", {}), ("control_domain", "force"), ("label", 3)],
)
def test_writer_refuses_a_sidecar_the_reader_would(tmp_path, field, value):
    columns = {name: np.zeros(3) for name in TRACE_COLUMNS}
    meta = {"control_domain": "pressure", "label": "run"}
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError) as written:
        write_trace(SimTrace(columns=columns, **{**meta, field: value}), path)
    assert not path.exists() and not traceio.sidecar_path(path).exists()
    # The same fields in a sidecar on disk: read_trace gives the same message.
    write_trace(SimTrace(columns=columns, **meta), path)
    traceio.sidecar_path(path).write_text(json.dumps({**meta, field: value}))
    with pytest.raises(ValueError) as read:
        read_trace(path)
    assert str(written.value) == str(read.value)
