import json
import math
import tracemalloc

import numpy as np
import orjson
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

from conftest import assert_writes_plain_repr, collector_passes


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
    assert_writes_plain_repr(trace, tmp_path / "trace.csv")


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


# Step sizes m * 10**-e: t = arange(n) * dt, as the engine builds it, and
# with 5e-05, 1e-05 and 6.25e-5 values in the band 1e-5 <= t < 1e-4 and
# below it, where repr uses an exponent; 1e20 gives exponents past 1e16.
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


@st.composite
def _columns(draw) -> list[list[float]]:
    """Eleven equal-length columns, each dense, constant, dense up to some
    row and constant after it, or drawn freely; sometimes every column
    dense, or every column constant. Sometimes t is arange(n) * dt for the
    drawn dt, with a few rows nudged."""
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


# A quiet NaN with a payload; repr prints it as nan.
PAYLOAD_NAN = float(np.uint64(0x7FF8_0000_DEAD_BEEF).view(np.float64))


def _at(x: float) -> list[list[float]]:
    """Columns that hold x in a dense column, ref, which alternates x with
    -x, and in tail columns that hold it for runs of rows."""
    n = 5
    return [
        [k * 0.1 for k in range(n)],
        [x, -x, x, -x, x],
        [x] * n,
        [1.0, x, x, -x, -x],
    ] + [[1.0] * n] * (len(TRACE_COLUMNS) - 4)


@pytest.mark.seeded
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(chunk_rows=st.sampled_from((1, 2, 7, traceio.CHUNK_ROWS)), cols=_columns())
# A dense leading t that stops changing mid-chunk, ahead of dense and
# constant columns.
@example(
    chunk_rows=7,
    cols=[[0.0, 0.1, 0.2, 0.3, 0.3, 0.3, 0.3, 0.3, 0.8]]
    + [[k * 1.5 for k in range(9)]] * 2
    + [[-0.0] * 9, [5e-324] * 9, [math.nan] * 9, [math.inf] * 9]
    + [[0.0, -0.0, -0.0, 0.0, 1e-310, 1e-310, -math.inf, -math.inf, 0.0]] * 4,
)
# The two edge layouts of a chunk's pieces: no dense column at all (a
# constant t), and every column dense but the last (only sensed_p repeats,
# in both chunks).
@example(
    chunk_rows=7,
    cols=[[0.5] * 9]
    + [_dense(0.0, None, 9), [-0.0] * 9]
    + [[0.0, -0.0, -0.0, 0.0, 1e-310, 1e-310, -math.inf, math.nan, math.nan]] * 8,
)
@example(
    chunk_rows=7,
    cols=[_dense(float(i), 0.5, 9) for i in range(len(TRACE_COLUMNS) - 1)]
    + [[1.0, 1.0, -0.0, 0.0, 0.0, 5e-324, 5e-324, 2.0, 2.0]],
)
# The step 6.25e-5 puts t[1] in the band, where orjson writes fixed
# notation and repr an exponent, and t[2] above it.
@example(chunk_rows=traceio.CHUNK_ROWS, cols=[[k * 6.25e-5 for k in range(5)]] + [[1.0] * 5] * 10)
# Each side of each boundary of repr's notation and of orjson's, and the
# values orjson writes as null or with a short exponent.
@example(chunk_rows=2, cols=_at(1e-5))
@example(chunk_rows=2, cols=_at(math.nextafter(1e-5, 0.0)))
@example(chunk_rows=2, cols=_at(math.nextafter(1e-4, 0.0)))
@example(chunk_rows=2, cols=_at(1e-4))
@example(chunk_rows=2, cols=_at(math.nextafter(1e16, 0.0)))
@example(chunk_rows=2, cols=_at(1e16))
@example(chunk_rows=2, cols=_at(1.5e-7))
@example(chunk_rows=2, cols=_at(1e22))
@example(chunk_rows=2, cols=_at(5e-324))
@example(chunk_rows=2, cols=_at(-0.0))
@example(chunk_rows=2, cols=_at(PAYLOAD_NAN))
@example(chunk_rows=2, cols=_at(-math.inf))
def test_writer_matches_plain_row_by_row_repr_on_any_columns(tmp_path, chunk_rows, cols):
    columns = {name: np.array(col, dtype=float) for name, col in zip(TRACE_COLUMNS, cols)}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traceio, "CHUNK_ROWS", chunk_rows)
        assert_writes_plain_repr(SimTrace(columns=columns), tmp_path / "trace.csv")


def test_texts_are_repr_on_a_million_bit_patterns_and_the_powers_of_ten():
    # Uniform 64-bit patterns hold every notation of repr, with NaN payloads
    # and subnormals among them. Every power of ten from the smallest
    # subnormal to the largest double and both its neighbours cross each
    # notation boundary from both sides.
    rng = np.random.default_rng(2028)
    patterns = rng.integers(0, 2**64, size=2**20, dtype=np.uint64, endpoint=False).view(np.float64)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    special = [0.0, 5e-324, 1e-310, math.inf, PAYLOAD_NAN, math.nan]
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), special])
    for col in (patterns, np.concatenate([near, -near])):
        assert traceio._reprs(col) == list(map(repr, col.tolist()))


@pytest.mark.parametrize(
    "values",
    [
        # orjson writes a one-digit negative exponent, repr two digits.
        [1.5e-7, 1e-9, -9.99e-6, math.nextafter(1e-5, 0.0)],
        # orjson writes a positive exponent without its sign.
        [1e16, -1.5e22, 1e100, 1.7976931348623157e308],
        # orjson writes fixed notation, repr an exponent.
        [1e-5, -3e-5, 5e-5, math.nextafter(1e-4, 0.0)],
        # orjson writes null.
        [math.nan, PAYLOAD_NAN, math.inf, -math.inf],
    ],
    ids=["negative exponent", "positive exponent", "band", "non-finite"],
)
def test_texts_are_repr_where_orjson_writes_otherwise(values):
    # Each case holds only values whose orjson text is not repr's, between
    # plain ones, so each of the writer's four rewrites must act on it.
    col = np.array([0.5] + values + [-2.0])
    raw = orjson.dumps(col, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(",")
    assert all(text != repr(x) for text, x in zip(raw[1:-1], values)), raw
    assert traceio._reprs(col) == list(map(repr, col.tolist()))


@pytest.mark.parametrize("step", [1.234567e-4, 1e-4, 7.0])
def test_writer_memory_is_bounded_by_the_chunk_not_the_trace(tmp_path, step):
    # Dense t and ref ahead of columns that hold each value for four rows:
    # every row has its own text, so a writer that held the text of the
    # whole trace at once would need about ten times the memory on ten
    # times the rows. The three steps give t texts of different lengths.
    def write_peak(rows: int) -> int:
        rng = np.random.default_rng(7)
        columns = {name: np.repeat(rng.standard_normal(rows // 4), 4) for name in TRACE_COLUMNS}
        columns["t"] = np.arange(rows) * step
        columns["ref"] = rng.standard_normal(rows)
        trace = SimTrace(columns=columns)
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
