"""The engine's fast paths, the valve machine and the per-step leaf
functions against the plain per-step path.

The plain path is the frozen seed copy of the package under
perfbench/seedref/, whose plant_step computes every step in full and whose
sensors bisect the time column for each sample instead of indexing a delay
line by step. It is imported by path, under its own package name, and never
edited.
"""

import importlib.util
import math
import struct
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dighydro
from dighydro import (
    BUNDLED_SCENARIOS,
    ConfigError,
    ReferenceSignal,
    TipPositionMap,
    ValveDynamics,
    load_config,
    model_based_tick,
    reference_column,
    run_simulation,
    scenario_path,
    tip_position,
    valve_step,
)
from dighydro.config import CONTROLLER_DOMAINS
from dighydro.sim import TRACE_COLUMNS

from conftest import DRAINING_RUN

pytestmark = pytest.mark.seeded

SEED_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "seedref" / "dighydro_seed"


def _import_seed_copy():
    name = SEED_DIR.name
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, SEED_DIR / "__init__.py", submodule_search_locations=[str(SEED_DIR)]
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


plain = _import_seed_copy()


def _num(lo: float, hi: float) -> st.SearchStrategy[str]:
    return st.floats(lo, hi).map(repr)


def _on_grid(draw, dt: float, lo: int, hi: int, special: tuple[int, ...]) -> str:
    return repr(draw(st.sampled_from(special) | st.integers(lo, hi)) * dt)


@st.composite
def overrides(draw) -> dict[str, str]:
    """Overrides of a bundled scenario: short runs, every controller kind,
    valve timings, noise, low initial pressures, and switching pulses of any
    duty over windows of one, two or twenty command quanta."""
    dt = draw(st.sampled_from([2.5e-4, 5e-4, 1e-3]))
    o = {
        "controller.kind": draw(st.sampled_from(tuple(CONTROLLER_DOMAINS))),
        "run.dt_s": repr(dt),
        "run.duration_s": repr(draw(st.integers(1, 500)) * dt),
        "run.seed": str(draw(st.integers(-2, 2**16))),
        "plant.valve_delay_s": draw(st.sampled_from(["0", "5e-4", "1e-3"]) | _num(0.0, 4e-3)),
        "plant.valve_movement_time_s": draw(st.sampled_from(["0", "2e-3"]) | _num(0.0, 4e-3)),
        "plant.valve_sticking_time_s": draw(st.sampled_from(["0", "1e-3"]) | _num(0.0, 4e-3)),
        "plant.initial_pressure_pa": draw(st.sampled_from(["0", "1", "-0.0"]) | _num(0.0, 3e5)),
        "plant.kv_lp": draw(_num(5e-9, 8e-8)),
        "plant.transition_pressure_pa": draw(_num(10.0, 5e3)),
        "controller.tolerance_pa": draw(st.sampled_from(["0", "10e3"]) | _num(0.0, 5e4)),
        "controller.duty": draw(st.sampled_from(["0", "0.15", "0.17", "0.2", "1"]) | _num(0.0, 1.0)),
        # Every bundled scenario has a 5 ms command quantum.
        "controller.window_s": repr(draw(st.sampled_from([1, 2, 20])) * 5e-3),
        "controller.threshold_mm": draw(st.sampled_from(["0.5", "0.05"]) | _num(1e-3, 5.0)),
        "sensor.pressure_noise_std_pa": draw(st.sampled_from(["0", "500"])),
        "sensor.position_noise_std_mm": draw(st.sampled_from(["0", "0.02"])),
        "sensor.pressure_quantization_pa": draw(st.sampled_from(["0", "1e3"]) | _num(0.0, 5e3)),
    }
    # Sensor timing on the step grid, as whole steps: periods from one step
    # up, delays from zero up to well past the period.
    for sensor, period in (("pressure", 10), ("position", 100)):
        o[f"sensor.{sensor}_period_s"] = _on_grid(draw, dt, 1, 2 * period, (1, period))
        o[f"sensor.{sensor}_delay_s"] = _on_grid(draw, dt, 0, 3 * period, (0, 1))
    if draw(st.booleans()):
        o["controller.ctrl_kv_hp"] = draw(_num(5e-9, 2e-8))
    # PI output limits in either order.
    if draw(st.booleans()):
        o["controller.pi_out_lo_pa"] = draw(_num(0.0, 6e5))
        o["controller.pi_out_hi_pa"] = draw(_num(0.0, 6e5))
    return o


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _quotient_overflows(cfg, trace) -> bool:
    """Whether a sensor's quantization step is too fine to count some true
    value of the signal it reads."""
    s = cfg.sensor
    return any(
        q > 0.0 and any(abs(x) / q == math.inf for x in trace[column].tolist())
        for column, q in (
            ("p_tube", s.pressure_quantization_pa),
            ("tip_y", s.position_quantization_mm),
        )
    )


def _assert_matches_plain_path(name: str, o: dict[str, str]) -> None:
    try:
        cfg = load_config(scenario_path(name), o)
    except ConfigError:
        return
    # Every config load_config accepts runs to completion or raises ConfigError.
    try:
        fast = run_simulation(cfg)
    except ConfigError:
        return
    try:
        ref = plain.run_simulation(plain.load_config(scenario_path(name), o))
    except OverflowError:
        # The plain path's quantize floors an infinite abs(value) / q when a
        # quantization step is finer than a float can count; the package
        # passes such a value through. Nothing else is excused.
        assert _quotient_overflows(cfg, fast)
        assert len(fast) == round(cfg.run.duration_s / cfg.run.dt_s)
        return
    for column in TRACE_COLUMNS:
        assert fast[column].tobytes() == ref[column].tobytes(), column
    assert fast.dv.tobytes() == ref.dv.tobytes()
    assert _bits(fast.v_final) == _bits(ref.v_final)
    assert fast.clamp_events == ref.clamp_events
    # The volume books are exact at every step, not only end to end.
    v, dv = fast["v_tube"], fast.dv
    assert (v[:-1] + dv[:-1]).tobytes() == v[1:].tobytes()
    assert _bits(v[-1] + dv[-1]) == _bits(fast.v_final)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(BUNDLED_SCENARIOS), o=overrides())
# Quantization steps so fine that abs(value) / q overflows.
@example(
    name="chirp_matched",
    o={"run.duration_s": "0.01", "sensor.pressure_quantization_pa": "2.225073858507e-311"},
)
@example(
    name="chirp_matched",
    o={"run.duration_s": "0.01", "sensor.position_quantization_mm": "1.1125369292536007e-308"},
)
# One step: the initial state fills the whole v_tube and armature columns.
@example(name="chirp_matched", o={"run.duration_s": "0.0005"})
# 11 steps at 5e-4 s end one step into the second 10-step command quantum;
# from an empty tube every step moves the plant.
@example(name="chirp_matched", o={"run.duration_s": "0.0055", "plant.initial_pressure_pa": "0"})
# The last step moves the plant, so the last move holds from step n_steps
# on and fills no row; in the one-step case it is the only step.
@example(name="chirp_matched", o={"run.duration_s": "0.05", "plant.initial_pressure_pa": "0"})
@example(name="chirp_matched", o={"run.duration_s": "0.0005", "plant.initial_pressure_pa": "123456.7"})
# Switching runs over three windows and more, each ending inside a window:
# HP pulses of 3 of 20 quanta, of 1 of 2, and of a whole one-quantum window;
# LP pulses of 4 of 20 quanta from a pressurized tube down to the -0.8 mm
# target of step_loaded.
@example(
    name="step_unloaded_p1",
    o={"reference.step_levels": "100, 100", "controller.duty": "0.17", "run.duration_s": "0.35"},
)
@example(
    name="step_unloaded_p1",
    o={
        "reference.step_levels": "4, 4",
        "controller.duty": "0.5",
        "controller.window_s": "0.01",
        "run.duration_s": "0.035",
    },
)
@example(
    name="step_unloaded_p2",
    o={
        "reference.step_levels": "7, 7",
        "controller.duty": "1",
        "controller.window_s": "0.005",
        "run.duration_s": "0.0175",
    },
)
@example(
    name="step_loaded",
    o={"plant.initial_pressure_pa": "1e5", "controller.duty": "0.2", "run.duration_s": "0.35"},
)
# A chirp that sweeps for 50 ms and then holds f1 for 50 ms: the one
# reference column reaches both branches of the phase.
@example(
    name="chirp_matched",
    o={
        "reference.chirp_f1_hz": "20",
        "reference.chirp_sweep_time_s": "0.05",
        "run.duration_s": "0.1",
    },
)
# Runs past many switching windows, PI ticks and sensor samples with noisy
# sensors; overrides() draws at most 500 steps.
@example(
    name="step_unloaded_p1",
    o={
        "controller.kind": "pi_pressure",
        "run.duration_s": "2",
        "reference.step_times_s": "0, 0.5, 1.2",
        "reference.step_levels": "1, 6, 3",
        "sensor.pressure_noise_std_pa": "500",
        "sensor.position_noise_std_mm": "0.02",
    },
)
@example(
    name="step_loaded",
    o={
        "run.duration_s": "1.5",
        "sensor.pressure_noise_std_pa": "500",
        "sensor.position_noise_std_mm": "0.02",
        "sensor.pressure_quantization_pa": "1e3",
    },
)
@example(
    name="step_unloaded_p2",
    o={
        "run.duration_s": "1.2",
        "controller.window_s": "0.01",
        "controller.duty": "0.5",
        "sensor.position_noise_std_mm": "0.02",
    },
)
@example(
    name="chirp_miscalibrated",
    o={"run.duration_s": "2", "sensor.pressure_noise_std_pa": "500"},
)
def test_memo_is_bit_identical_to_plain_path(name, o):
    _assert_matches_plain_path(name, o)


@pytest.mark.parametrize(
    "name, dt, p_period, p_delay, y_period, y_delay",
    [
        ("chirp_matched", 5e-4, 1, 0, 1, 0),  # every step, undelayed
        ("chirp_matched", 2.5e-4, 3, 7, 2, 13),  # delays longer than the period
        ("step_unloaded_p1", 1e-3, 1, 5, 7, 0),
        ("hysteresis", 5e-4, 4, 4, 100, 250),
    ],
)
def test_delay_line_reads_what_the_plain_path_bisects(name, dt, p_period, p_delay, y_period, y_delay):
    # The plain path finds the sample by bisecting the time column; the
    # engine indexes the history by step. Both must see the same sample.
    o = {
        "run.dt_s": repr(dt),
        "run.duration_s": repr(1200 * dt),
        "sensor.pressure_period_s": repr(p_period * dt),
        "sensor.pressure_delay_s": repr(p_delay * dt),
        "sensor.position_period_s": repr(y_period * dt),
        "sensor.position_delay_s": repr(y_delay * dt),
        "sensor.pressure_quantization_pa": "250",
        "sensor.pressure_noise_std_pa": "500",
    }
    cfg = load_config(scenario_path(name), o)
    assert cfg.build_position_sensor().delay_steps == y_delay
    _assert_matches_plain_path(name, o)


_valve_time = st.just(0.0) | st.floats(0.0, 5e-3)


@settings(max_examples=300)
@given(
    delay=_valve_time,
    movement=_valve_time,
    sticking=_valve_time,
    dt=st.sampled_from([5e-4, 1e-3]) | st.floats(1e-6, 5e-3),
    commands=st.lists(st.booleans(), min_size=1, max_size=60),
)
def test_valve_machine_is_bit_identical_to_plain_path(delay, movement, sticking, dt, commands):
    ours = ValveDynamics(delay, movement, sticking)
    seeds = plain.ValveDynamics(delay, movement, sticking)
    for command in commands:
        ours, seeds = valve_step(ours, command, dt), plain.valve_step(seeds, command, dt)
        # repr tells 0.0 from -0.0 and True from 1.
        assert repr(astuple(ours)) == repr(astuple(seeds))


@settings(max_examples=300)
@given(
    p=st.sampled_from([-0.0, math.inf, math.nan]) | st.floats(min_value=0.0),
    play_out=st.floats(),
    width=st.sampled_from([0.0, -0.0, math.inf]) | st.floats(0.0, 1e6),
    gain=st.sampled_from([0.0, 2e-5]) | st.floats(min_value=0.0),
    offset=st.floats(allow_nan=False),
    bounds=st.sampled_from([(-math.inf, math.inf), (0.0, 14.0)])
    | st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)).map(sorted),
)
# Signed zeros through the play operator and both clamps: min and max keep
# the first of equal arguments.
@example(p=-0.0, play_out=0.0, width=0.0, gain=1.0, offset=0.0, bounds=(-0.0, 0.0))
@example(p=0.0, play_out=-0.0, width=0.0, gain=1.0, offset=0.0, bounds=(-0.0, -0.0))
# A NaN or infinite pressure leaves the play output where it was.
@example(p=math.nan, play_out=1e5, width=15e3, gain=2e-5, offset=0.0, bounds=(0.0, 14.0))
@example(p=math.inf, play_out=1e5, width=math.inf, gain=2e-5, offset=0.0, bounds=(0.0, 14.0))
def test_tip_position_is_bit_identical_to_plain_path(p, play_out, width, gain, offset, bounds):
    fields = (gain, offset, *bounds, width)
    ours = tip_position(TipPositionMap(*fields), p, play_out)
    seeds = plain.tip_position(plain.TipPositionMap(*fields), p, play_out)
    assert [_bits(x) for x in ours] == [_bits(x) for x in seeds]


_pressure = st.floats(0.0, 6.5e5)
_non_finite = st.sampled_from([math.inf, -math.inf, math.nan])


def _model_based(pkg, kv_hp, kv_lp, tolerance, p0, p_supply, p_tank):
    """The same controller, built from the package `pkg`. The package's
    holds the supply and tank pressures in its plant model; the seed copy's
    takes them on every tick instead."""
    tube = pkg.TubeModelLinear(3.3e11)
    hp, lp = pkg.OrificeModel(kv_hp, 1e3), pkg.OrificeModel(kv_lp, 1e3)
    if pkg is plain:
        state = plain.ModelBasedControllerState(tube, hp, lp, tolerance, 5e-3)
    else:
        model = pkg.PlantModel(tube, hp, lp, pkg.TipPositionMap(2e-5), p_supply, p_tank)
        state = pkg.ModelBasedControllerState(model, tolerance, 5e-3)
    return pkg.model_based_init(state, p0)


@settings(max_examples=300)
@given(
    p0=_pressure,
    p_refs=st.lists(_pressure | _non_finite, min_size=1, max_size=20),
    tolerance=st.sampled_from([0.0, 10e3, math.inf]) | st.floats(0.0, 5e4),
    kv_hp=st.floats(1e-9, 1e-7),
    kv_lp=st.floats(1e-9, 1e-7),
    p_supply=st.floats(1e5, 1e6),
    p_tank=st.just(0.0) | st.floats(0.0, 1e5),
)
# Both edges of the band, |p_ref - p| == tolerance, hold; then a tick outside it.
@example(
    p0=200e3, p_refs=[210e3, 190e3, 260e3, 200e3], tolerance=10e3,
    kv_hp=1e-8, kv_lp=1e-8, p_supply=600e3, p_tank=0.0,
)
# Without a band only an exact match holds.
@example(
    p0=200e3, p_refs=[200e3, 250e3, 250e3, 0.0, 0.0], tolerance=0.0,
    kv_hp=1e-8, kv_lp=2e-8, p_supply=600e3, p_tank=0.0,
)
# Exact ties: pressurizing against a supply at the estimate predicts the
# estimate itself, so hold and pressurize tie and hold wins; a supply and a
# tank at one pressure through equal orifices predict one pressure, so
# pressurize and depressurize tie and pressurize wins.
@example(
    p0=200e3, p_refs=[300e3], tolerance=10e3,
    kv_hp=1e-8, kv_lp=1e-8, p_supply=200e3, p_tank=0.0,
)
@example(
    p0=200e3, p_refs=[600e3], tolerance=10e3,
    kv_hp=1e-8, kv_lp=1e-8, p_supply=600e3, p_tank=600e3,
)
# A NaN reference is outside every band: the tick predicts, then holds.
@example(
    p0=200e3, p_refs=[math.nan, 300e3], tolerance=10e3,
    kv_hp=1e-8, kv_lp=1e-8, p_supply=600e3, p_tank=0.0,
)
def test_model_based_tick_is_bit_identical_to_plain_path(
    p0, p_refs, tolerance, kv_hp, kv_lp, p_supply, p_tank
):
    ours = _model_based(dighydro, kv_hp, kv_lp, tolerance, p0, p_supply, p_tank)
    seeds = _model_based(plain, kv_hp, kv_lp, tolerance, p0, p_supply, p_tank)
    for p_ref in p_refs:
        held = abs(p_ref - ours.est_pressure) <= tolerance
        before = ours
        *cmds, ours = model_based_tick(ours, p_ref)
        hp, lp, seeds = plain.model_based_tick(seeds, p_ref, p_supply, p_tank)
        # repr tells True from 1.
        assert repr(cmds) == repr([hp, lp])
        assert _bits(ours.est_volume) == _bits(seeds.est_volume)
        assert _bits(ours.est_pressure) == _bits(seeds.est_pressure)
        if held:
            assert ours is before


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", ["p0", "p_supply", "p_tank"])
@pytest.mark.parametrize("tolerance", [10e3, math.inf])
def test_model_based_tick_raises_on_non_finite_pressures_as_plain_path(bad, where, tolerance):
    # The plain path predicts on every tick, so it raises on any non-finite
    # pressure. The package refuses a non-finite supply or tank when its
    # model is built, and a non-finite estimate on every tick, inside the
    # band as outside it.
    p = {"p0": 200e3, "p_supply": 600e3, "p_tank": 0.0, where: bad}
    args = (1e-8, 1e-8, tolerance, p["p0"], p["p_supply"], p["p_tank"])
    seeds = _model_based(plain, *args)
    with pytest.raises(ValueError):
        plain.model_based_tick(seeds, 200e3, p["p_supply"], p["p_tank"])
    with pytest.raises(ValueError):
        ours = _model_based(dighydro, *args)
        assert where == "p0"
        model_based_tick(ours, 200e3)


@st.composite
def signals(draw) -> tuple[dict, float]:
    """Fields of a reference signal of any kind, and a time to evaluate it
    at: for a chirp, before, at or after the end of its sweep."""
    kind = draw(st.sampled_from(["chirp_sine", "step_sequence", "constant"]))
    if kind == "constant":
        # A NaN constant is refused by ReferenceSignal (the seed copy took it).
        value = draw(st.floats(allow_nan=False))
        return {"kind": kind, "value": value}, draw(st.floats(0.0, 1e3))
    if kind == "step_sequence":
        times = [0.0] + sorted(draw(st.lists(st.floats(0.0, 10.0), max_size=6)))
        levels = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(times), max_size=len(times)))
        t = draw(st.sampled_from(times) | st.floats(0.0, 20.0))
        return {"kind": kind, "times": tuple(times), "levels": tuple(levels)}, t
    T = draw(st.floats(1e-3, 100.0))
    lo = draw(st.floats(-1e6, 1e6))
    fields = {
        "kind": kind,
        "f0": draw(st.floats(0.0, 10.0)),
        "f1": draw(st.floats(0.0, 10.0)),
        "lo": lo,
        "hi": lo + draw(st.floats(1e-3, 1e6)),
        "sweep_time": T,
    }
    return fields, draw(st.just(T) | st.floats(0.0, T) | st.floats(T, 10.0 * T))


_CHIRP = {"kind": "chirp_sine", "f0": 0.1, "f1": 2.0, "lo": 150e3, "hi": 250e3, "sweep_time": 30.0}


@settings(max_examples=300)
@given(sig=signals())
# A chirp while sweeping, at the end of its sweep, and holding f1 after it.
@example(sig=(_CHIRP, 12.345))
@example(sig=(_CHIRP, 30.0))
@example(sig=(_CHIRP, 31.7))
# Right-continuous steps, two of them at one time.
@example(sig=({"kind": "step_sequence", "times": (0.0, 1.0, 1.0), "levels": (0.0, 4.0, -2.0)}, 1.0))
@example(sig=({"kind": "constant", "value": -0.0}, 0.0))
def test_reference_at_one_time_is_bit_identical_to_plain_path(sig):
    fields, t = sig
    ours = reference_column(ReferenceSignal(**fields), [t])[0].item()
    assert _bits(ours) == _bits(plain.reference_eval(plain.ReferenceSignal(**fields), t))


@settings(max_examples=200)
@given(
    sig=signals(),
    n=st.sampled_from([0, 1]) | st.integers(0, 3000),
    dt=st.sampled_from([2.5e-4, 5e-4, 1e-3, 0.25]) | st.floats(1e-4, 0.1),
)
# Chirps whose rows cross the end of the sweep: row 120 of 200 sits exactly
# at 30 s, and row 61 exactly at 61 * 5e-4 s, where the hold branch's phase
# differs from the sweep branch's in the last bit.
@example(sig=(_CHIRP, 0.0), n=200, dt=0.25)
@example(sig=(dict(_CHIRP, sweep_time=61 * 5e-4), 0.0), n=200, dt=5e-4)
# A longer column whose sweep ends at row 5000 of 6000, so that a sixth of
# it holds f1.
@example(sig=(dict(_CHIRP, sweep_time=2.5), 0.0), n=6000, dt=5e-4)
# Steps on the grid (0.5 s; 0.0045 s, where row 9 is one ulp above it) and
# between grid points (0.6 s; 0.00625 s).
@example(
    sig=({"kind": "step_sequence", "times": (0.0, 0.5, 0.6), "levels": (1.0, 2.0, 3.0)}, 0.0),
    n=8, dt=0.25,
)
@example(
    sig=({"kind": "step_sequence", "times": (0.0, 0.0045, 0.00625), "levels": (1.0, 2.0, 3.0)}, 0.0),
    n=20, dt=5e-4,
)
# Two steps at one time: the later one holds from that time on.
@example(
    sig=({"kind": "step_sequence", "times": (0.0, 1.0, 1.0), "levels": (0.0, 4.0, -2.0)}, 0.0),
    n=8, dt=0.25,
)
# Signed zeros keep their sign.
@example(
    sig=({"kind": "step_sequence", "times": (0.0, 0.5), "levels": (-0.0, 0.0)}, 0.0),
    n=4, dt=0.25,
)
@example(sig=({"kind": "constant", "value": -0.0}, 0.0), n=3, dt=5e-4)
# No rows, and one row.
@example(sig=(_CHIRP, 0.0), n=0, dt=5e-4)
@example(sig=({"kind": "step_sequence", "times": (0.0, 0.0), "levels": (1.0, 2.0)}, 0.0), n=0, dt=5e-4)
@example(sig=({"kind": "constant", "value": 3.0}, 0.0), n=0, dt=5e-4)
@example(sig=(_CHIRP, 0.0), n=1, dt=5e-4)
@example(sig=({"kind": "step_sequence", "times": (0.0, 0.0), "levels": (1.0, 2.0)}, 0.0), n=1, dt=5e-4)
@example(sig=({"kind": "constant", "value": 3.0}, 0.0), n=1, dt=5e-4)
def test_reference_column_is_reference_eval_on_every_row(sig, n, dt):
    # The engine builds the column over t = arange(n) * dt before its loop;
    # each row must be the bits the seed copy's reference_eval gives at
    # k * dt.
    col = reference_column(ReferenceSignal(**sig[0]), np.arange(n) * dt)
    seed_ref = plain.ReferenceSignal(**sig[0])
    assert col.dtype == np.float64 and len(col) == n
    assert [_bits(x) for x in col.tolist()] == [
        _bits(plain.reference_eval(seed_ref, k * dt)) for k in range(n)
    ]


def test_draining_run_clamps_as_the_plain_path_does():
    o = dict(DRAINING_RUN)
    fast = run_simulation(load_config(scenario_path("step_unloaded_p1"), o))
    ref = plain.run_simulation(plain.load_config(scenario_path("step_unloaded_p1"), o))
    assert fast.clamp_events == ref.clamp_events >= 1
    assert fast.dv.tobytes() == ref.dv.tobytes()
