import math
import sys
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dighydro import (
    BUNDLED_SCENARIOS,
    ConfigError,
    compute_metrics,
    load_config,
    loop_area,
    quasi_static_loop,
    run_scenario,
    run_simulation,
    scenario_path,
)
from dighydro.config import (
    KEYS,
    MAX_LABEL_BYTES,
    MAX_LEVEL,
    MAX_STEPS,
    cross_validate,
    from_raw,
    read_raw,
)
from dighydro.experiments import settle_band

from conftest import assert_writes_plain_repr


def test_bundled_scenarios_validate():
    for name in (
        "chirp_matched",
        "chirp_miscalibrated",
        "step_unloaded_p1",
        "step_unloaded_p2",
        "step_loaded",
        "hysteresis",
    ):
        cfg = load_config(scenario_path(name))
        assert cfg.run.label == name
    with pytest.raises(ValueError, match="unknown bundled scenario 'absent'"):
        scenario_path("absent")


def test_unknown_key_is_a_hard_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[plant]\nkv_ph = 1e-8\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("kv_ph" in e for e in exc.value.errors)


def test_supply_droop_is_an_unknown_key(tmp_path):
    # The supply pressure is constant; a config written for a drooping
    # supply is refused rather than run with an ideal one.
    path = tmp_path / "droop.cfg"
    path.write_text("[plant]\nsupply_droop_pa_per_m3 = 0\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.errors == ["unknown key 'supply_droop_pa_per_m3' in section [plant]"]


def test_unknown_section_is_a_hard_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[pump]\nflow = 1\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("pump" in e for e in exc.value.errors)


def test_all_faults_are_collected_not_just_the_first(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(
        "[run]\nduration_s = -1\n"
        "[plant]\nkv_hp = -2\ntank_pressure_pa = 700e3\n"
        "[controller]\nkind = banguette\n"
    )
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    text = "\n".join(exc.value.errors)
    assert len(exc.value.errors) >= 4
    assert "duration_s" in text
    assert "kv_hp" in text
    assert "tank_pressure_pa" in text
    assert "kind" in text


def test_type_errors_are_reported_with_location(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[run]\nseed = soon\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("[run] seed" in e for e in exc.value.errors)


def test_quantum_must_divide_sample_period(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[controller]\nkind = pressure_model\nsample_period_s = 7e-3\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any("sample_period_s" in e for e in exc.value.errors)
    # A zero PI period would divide by zero in the engine; 12.3 ms would
    # silently tick every 25 ms.
    for period in ("0", "0.0123"):
        path.write_text(f"[controller]\nkind = pi_pressure\npi_period_s = {period}\n")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert any("pi_period_s" in e for e in exc.value.errors)


@pytest.mark.parametrize(
    "dotted, text",
    [
        ("plant.supply_pressure_pa", "nan"),
        ("run.dt_s", "nan"),
        ("run.duration_s", "inf"),
        ("reference.step_levels", "0.0, -inf"),
        ("controller.ctrl_kv_hp", "inf"),
    ],
)
def test_non_finite_numbers_are_rejected_with_location(dotted, text):
    section, _, key = dotted.partition(".")
    with pytest.raises(ConfigError) as exc:
        load_config(scenario_path("step_unloaded_p1"), {dotted: text})
    assert any(e.startswith(f"[{section}] {key}") for e in exc.value.errors)


def test_duration_shorter_than_one_step_is_rejected():
    # Less than one step would give an empty trace, which compute_metrics
    # cannot digest.
    with pytest.raises(ConfigError) as exc:
        load_config(scenario_path("step_unloaded_p1"), {"run.duration_s": "2e-4"})
    assert any("duration_s" in e for e in exc.value.errors)
    cfg = load_config(scenario_path("step_unloaded_p1"), {"run.duration_s": "5e-4"})
    assert len(run_simulation(cfg)) == 1


@pytest.mark.parametrize("text", ["0.01074", "1.00025", "7.5e-4"])
def test_duration_off_the_step_grid_is_rejected(text):
    # A run takes round(duration_s / dt_s) steps, so 0.01074 s at dt_s = 5e-4
    # would silently run 21 steps, 0.0105 s.
    with pytest.raises(ConfigError) as exc:
        load_config(scenario_path("step_unloaded_p1"), {"run.duration_s": text})
    assert "[run] duration_s must be a whole multiple of dt_s" in exc.value.errors


@pytest.mark.parametrize("text", ["5000.0005", "1e9"])
def test_run_above_the_step_budget_is_refused_by_name(text):
    # 1e9 s at dt_s = 5e-4 is 2e12 steps: its columns, allocated before the
    # first step, would fail with numpy's memory error, not a ConfigError.
    with pytest.raises(ConfigError) as exc:
        load_config(scenario_path("chirp_matched"), {"run.duration_s": text})
    assert exc.value.errors == [f"[run] duration_s / dt_s must be at most {MAX_STEPS} steps"]
    # The budget itself is accepted (loaded only, not run).
    cfg = load_config(scenario_path("chirp_matched"), {"run.duration_s": "5000"})
    assert round(cfg.run.duration_s / cfg.run.dt_s) == MAX_STEPS


@pytest.mark.parametrize(
    "key, text",
    [
        ("pressure_delay_s", "3e-4"),
        ("pressure_period_s", "5.2e-3"),
        ("position_delay_s", "1e-12"),
        ("position_period_s", "2.5e-4"),
    ],
)
def test_sensor_timing_must_sit_on_the_step_grid(key, text):
    # The sensors count their period and delay in whole steps of dt_s = 5e-4.
    with pytest.raises(ConfigError) as exc:
        load_config(scenario_path("step_unloaded_p1"), {f"sensor.{key}": text})
    assert any(e.startswith(f"[sensor] {key}") for e in exc.value.errors)


def test_zero_sensor_delay_is_accepted():
    o = {"sensor.pressure_delay_s": "0", "sensor.position_delay_s": "0", "run.duration_s": "2"}
    cfg = load_config(scenario_path("step_unloaded_p1"), o)
    assert cfg.build_pressure_sensor().delay_steps == 0
    trace = run_simulation(cfg)
    # Undelayed, unquantized and noiseless: every 5 ms sample is the true value.
    assert np.ptp(trace["p_tube"]) > 0.0
    assert np.array_equal(trace["sensed_p"][::10], trace["p_tube"][::10])


_CHIRP_PHASE = (
    "[reference] chirp_f0_hz and chirp_f1_hz must keep the chirp phase finite over the run"
)
_LABEL = "[run] label must be a file name: no path separator, NUL or lone surrogate"


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"plant.kv_hp": "0"}, "[plant] kv_hp must be > 0"),
        ({"controller.ctrl_kv_lp": "-1e-8"}, "[controller] ctrl_kv_lp must be > 0"),
        ({"hysteresis.pressure_step_pa": "0"}, "[hysteresis] pressure_step_pa must be > 0"),
        ({"controller.duty": "1.5"}, "[controller] duty must be in [0, 1]"),
        # Both of these used to pass load_config and raise ValueError in the run.
        ({"run.seed": "-1"}, "[run] seed must be >= 0"),
        (
            {"controller.kind": "pi_pressure", "controller.pi_out_lo_pa": "6e5"},
            "[controller] pi_out_lo_pa must be <= pi_out_hi_pa",
        ),
        # A positive subnormal compliance overflows the initial volume to inf;
        # this too used to pass load_config and raise ValueError in the run.
        (
            {"plant.tube_compliance_pa_per_m3": "1e-320", "plant.initial_pressure_pa": "2e5"},
            "[plant] initial_pressure_pa / tube_compliance_pa_per_m3 must be finite"
            " (the initial tube volume)",
        ),
        # An infinite ratio of a key to its step used to raise OverflowError.
        ({"run.dt_s": "1e-320"}, "[run] command_quantum_s must be a whole multiple of dt_s"),
        ({"run.duration_s": "1e308"}, "[run] duration_s must be a whole multiple of dt_s"),
        (
            {"controller.window_s": "1e308"},
            "[controller] window_s must be a whole multiple of command_quantum_s",
        ),
        (
            {"sensor.position_period_s": "1e308"},
            "[sensor] position_period_s must be a whole multiple of dt_s",
        ),
        ({"sensor.pressure_delay_s": "1e308"}, "[sensor] pressure_delay_s must be a whole multiple of dt_s"),
        # Chirps whose phase overflows within 2 s, and math.sin(inf) raised
        # a bare ValueError in the run: one sweeping to 1.7e308 Hz, and one
        # from -8e307 to 8e307 Hz, where neither frequency overflows alone.
        (
            {
                "reference.kind": "chirp_sine",
                "reference.chirp_f1_hz": "1.7e308",
                "run.duration_s": "2",
            },
            _CHIRP_PHASE,
        ),
        (
            {
                "reference.kind": "chirp_sine",
                "reference.chirp_f0_hz": "-8e307",
                "reference.chirp_f1_hz": "8e307",
                "run.duration_s": "2",
            },
            _CHIRP_PHASE,
        ),
        # A chirp whose span overflows: its column was inf * sin, with a
        # RuntimeWarning and NaN rows, and the run "completed".
        (
            {
                "reference.kind": "chirp_sine",
                "reference.chirp_lo": "-1.7e308",
                "reference.chirp_hi": "1.7e308",
                "run.duration_s": "0.5",
            },
            "[reference] chirp_hi must be at most 1e+150 in magnitude",
        ),
        # Levels whose tracking error's square overflowed in compute_metrics,
        # and a noise spread that made the sensed column inf.
        (
            {"plant.initial_pressure_pa": "1e300"},
            "[plant] initial_pressure_pa must be at most 1e+150 in magnitude",
        ),
        (
            {"reference.step_levels": "0.0, -1e300"},
            "[reference] step_levels must be at most 1e+150 in magnitude",
        ),
        (
            {"sensor.position_noise_std_mm": "1.7e308"},
            "[sensor] position_noise_std_mm must be at most 1e+150 in magnitude",
        ),
        (
            {"reference.kind": "triangle"},
            "[reference] kind must be one of ('constant', 'step_sequence', 'chirp_sine'),"
            " got 'triangle'",
        ),
        # A 4e305-point staircase used to fail at numpy's allocation.
        (
            {"hysteresis.pressure_step_pa": "1e-300"},
            f"[hysteresis] pressure_max_pa / pressure_step_pa must be at most {MAX_STEPS} steps",
        ),
        # round(10e3 / 3.9e3) = 3 steps put the loop's top at 11.7 kPa.
        (
            {"hysteresis.pressure_max_pa": "10e3", "hysteresis.pressure_step_pa": "3.9e3"},
            "[hysteresis] pressure_max_pa must be a whole multiple of pressure_step_pa",
        ),
    ],
)
def test_each_fault_names_its_key_and_rule(overrides, message):
    with pytest.raises(ConfigError) as exc:
        load_config(scenario_path("step_unloaded_p1"), overrides)
    assert message in exc.value.errors


@pytest.mark.parametrize("compliance", ["1e-320", "1e-300", "1e300"])
def test_extreme_compliance_from_an_empty_tube_runs(compliance):
    # Only the overflowing initial volume is refused: from an empty tube the
    # same compliance runs.
    o = {"plant.tube_compliance_pa_per_m3": compliance, "run.duration_s": "0.05"}
    trace = run_simulation(load_config(scenario_path("step_unloaded_p1"), o))
    assert np.isfinite(trace["v_tube"]).all()


@pytest.mark.parametrize(
    "text, located",
    [
        ("kv_hp = 1e-8\n", "no section headers"),
        ("[plant]\nkv_hp = 1e-8\nkv_hp = 2e-8\n", "'kv_hp' in section 'plant' already exists"),
    ],
)
def test_malformed_file_is_a_config_error(tmp_path, text, located):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any(located in e and str(path) in e for e in exc.value.errors)


def test_default_section_is_an_unknown_section(tmp_path):
    # configparser would copy [DEFAULT]'s keys into every section, setting
    # plant.kv_hp here without a word.
    path = tmp_path / "bad.cfg"
    path.write_text("[DEFAULT]\nkv_hp = 2e-8\n[plant]\n[run]\nlabel = x\n")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.errors == ["unknown section [DEFAULT]"]


def test_non_utf8_file_is_a_config_error(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("[run]\nlabel = café\n".encode("latin-1"))
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert any(str(path) in e and "not UTF-8" in e for e in exc.value.errors)


# The run's files are named after its label; "../escaped" wrote them into
# the output directory's parent. A NUL ran the whole simulation, then failed
# to open the trace with ValueError: embedded null byte; a lone surrogate
# made load_config raise UnicodeEncodeError.
@pytest.mark.parametrize(
    "label", ["", ".", "..", "../escaped", "out/run", "out\\run", "a\0b", "a\udc80b"]
)
def test_label_with_a_path_is_refused(tmp_path, label):
    with pytest.raises(ConfigError) as exc:
        run_scenario(scenario_path("step_unloaded_p1"), tmp_path / "out", {"run.label": label})
    assert exc.value.errors == [_LABEL]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("label", ["duty_50%", "café", "..a", "run.1"])
def test_label_without_a_path_is_accepted(label):
    assert load_config(scenario_path("step_unloaded_p1"), {"run.label": label}).run.label == label


# A 300-character label ran the whole simulation, then failed to open its
# trace with OSError: File name too long. Bytes count, not characters.
@pytest.mark.parametrize(
    "label", ["x" * 300, "x" * (MAX_LABEL_BYTES + 1), "é" * 118], ids=["300x", "236x", "118é"]
)
def test_label_too_long_for_its_file_names_is_refused(tmp_path, label):
    with pytest.raises(ConfigError) as exc:
        run_scenario(scenario_path("step_unloaded_p1"), tmp_path / "out", {"run.label": label})
    assert exc.value.errors == [f"[run] label must be at most {MAX_LABEL_BYTES} bytes in UTF-8"]
    assert not any(tmp_path.iterdir())


# Both labels are MAX_LABEL_BYTES long in UTF-8.
@pytest.mark.parametrize("label", ["x" * MAX_LABEL_BYTES, "é" * 117 + "x"], ids=["235x", "117éx"])
def test_label_at_the_bound_writes_its_files(tmp_path, label):
    o = {"run.label": label, "run.duration_s": "0.05"}
    trace_path, metrics_path, _, _ = run_scenario(scenario_path("step_unloaded_p1"), tmp_path, o)
    assert trace_path.is_file() and metrics_path.is_file()
    assert max(len(p.name.encode("utf-8")) for p in tmp_path.iterdir()) == 255


def test_staircase_budget_is_the_step_budget():
    # 400 kPa in 0.04 Pa steps is 10^7 steps, the budget; 0.01 Pa would be
    # a 4e7-point staircase walked in Python.
    h = load_config(scenario_path("hysteresis"), {"hysteresis.pressure_step_pa": "0.04"}).hysteresis
    assert round(h.pressure_max_pa / h.pressure_step_pa) == MAX_STEPS
    with pytest.raises(ConfigError) as exc:
        load_config(scenario_path("hysteresis"), {"hysteresis.pressure_step_pa": "0.01"})
    assert exc.value.errors == [
        f"[hysteresis] pressure_max_pa / pressure_step_pa must be at most {MAX_STEPS} steps"
    ]


def test_percent_is_literal(tmp_path):
    path = tmp_path / "pct.cfg"
    path.write_text("[run]\nlabel = duty_50%\n")
    assert load_config(path).run.label == "duty_50%"


def test_empty_controller_kv_inherits_the_plant_value():
    cfg = load_config(scenario_path("chirp_miscalibrated"), {"controller.ctrl_kv_hp": ""})
    assert cfg.controller.ctrl_kv_hp is None
    mb = cfg.build_model_based_controller(cfg.build_plant())
    assert mb.model.hp_orifice.k_v == cfg.plant.kv_hp
    assert mb.model.lp_orifice.k_v == cfg.controller.ctrl_kv_lp != cfg.plant.kv_lp


def test_overrides_change_values():
    cfg = load_config(scenario_path("chirp_matched"), {"run.seed": "42", "plant.kv_hp": "2e-8"})
    assert cfg.run.seed == 42
    assert cfg.plant.kv_hp == 2e-8


def test_unknown_override_lists_valid_parameters():
    with pytest.raises(ConfigError) as exc:
        load_config(scenario_path("chirp_matched"), {"plant.kv_zz": "1"})
    assert any("plant.kv_hp" in e for e in exc.value.errors)


def test_defaults_cross_validate_cleanly():
    raw = read_raw(scenario_path("chirp_matched"))
    cfg = from_raw(raw)
    assert cross_validate(cfg) == []


def test_controller_copies_are_independent_of_plant():
    cfg = load_config(scenario_path("chirp_miscalibrated"))
    plant = cfg.build_plant()
    mb = cfg.build_model_based_controller(plant)
    assert plant.hp_orifice.k_v != mb.model.hp_orifice.k_v
    assert plant.lp_orifice.k_v != mb.model.lp_orifice.k_v


# A short run: half a second of each bundled scenario, five switching
# windows, and no run longer than SHORT_STEPS steps.
SHORT = {"run.duration_s": "0.5"}
SHORT_STEPS = 2000
_EXTREMES = (5e-324, 2.2250738585072014e-308, 1e-300, MAX_LEVEL, 1e300, sys.float_info.max)


def _in_range(must_be):
    """Finite values of a key whose range rule is must_be (None: any sign);
    hypothesis' floats take in tiny, subnormal and huge ones, the extremes
    are drawn by name, and whole multiples and fractions of the bundled
    0.5 ms step let the timing keys load."""
    on_grid = st.integers(1, 4000).map(lambda k: k * 5e-4) | st.integers(1, 64).map(
        lambda k: 5e-4 / k
    )
    if must_be is None:
        return (
            st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([s * x for s in (1.0, -1.0) for x in _EXTREMES])
            | on_grid
        )
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    values = positive | st.sampled_from(_EXTREMES) | on_grid
    return values if must_be == "> 0" else values | st.just(0.0)


_NUMERIC = [
    (section, key, f)
    for section, keys in KEYS.items()
    for key, f in keys.items()
    if f.type in (int, float, float | None, tuple)
]


# The scenarios the key-range test draws, by name: (bundled scenario, its
# overrides). No bundled scenario runs the pi_pressure controller, so the
# PI variant of step_unloaded_p1 that the step_position benchmark workload
# runs is drawn too, with that workload's reference at seed 1.
SCENARIOS = {name: (name, {}) for name in BUNDLED_SCENARIOS} | {
    "step_unloaded_p1_pi": (
        "step_unloaded_p1",
        {
            "controller.kind": "pi_pressure",
            "reference.step_times_s": "0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0",
            "reference.step_levels": "1.94, 6.93, 6.35, 2.79, 4.47, 4.15, 5.56, 6.52, 1.66, 1.20",
        },
    )
}


@st.composite
def key_values(draw):
    """A scenario of SCENARIOS and one numeric key's value, as override
    text; a tuple key gets as many values as the scenario has."""
    name = draw(st.sampled_from(list(SCENARIOS)))
    section, key, f = draw(st.sampled_from(_NUMERIC))
    must_be = f.metadata.get("must_be")
    if f.type is int:
        return name, f"{section}.{key}", str(draw(st.integers(0, 2**64)))
    if f.type is tuple:
        base, overrides = SCENARIOS[name]
        n = len(getattr(getattr(load_config(scenario_path(base), overrides), section), key))
        values = draw(st.lists(_in_range(must_be), min_size=n, max_size=n))
        return name, f"{section}.{key}", ", ".join(map(repr, values))
    return name, f"{section}.{key}", repr(draw(_in_range(must_be)))


@pytest.mark.seeded
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kv=key_values())
# Values that overflowed before signal levels were bounded: the squared
# tracking error (the first two) and a sensed column (the last two).
@example(kv=("chirp_matched", "plant.initial_pressure_pa", "1e300"))
@example(kv=("chirp_matched", "reference.chirp_hi", "1e300"))
@example(kv=("chirp_matched", "sensor.pressure_noise_std_pa", "1.7e308"))
@example(kv=("step_unloaded_p1", "sensor.position_noise_std_mm", "1.7e308"))
def test_any_value_of_any_key_is_refused_or_runs(tmp_path, kv):
    # Every value load_config accepts gives a run that completes without a
    # warning, with finite columns and metrics, and a finite hysteresis
    # loop where its staircase is short. Its trace is written as the plain
    # row-by-row repr of its columns: fuzzed keys reach texts no bundled
    # run prints, such as pressures past 1e16 Pa and values in the band
    # 1e-5 <= |x| < 1e-4.
    name, dotted, text = kv
    base, overrides = SCENARIOS[name]
    try:
        cfg = load_config(scenario_path(base), {**overrides, **SHORT, dotted: text})
    except ConfigError:
        return
    r = cfg.run
    if round(r.duration_s / r.dt_s) > SHORT_STEPS:
        r.duration_s = SHORT_STEPS * r.dt_s
    h = cfg.hysteresis
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run_simulation(cfg)
        metrics = compute_metrics(trace, settle_band(cfg))
        if round(h.pressure_max_pa / h.pressure_step_pa) <= SHORT_STEPS:
            loop = quasi_static_loop(cfg.build_plant().tip_map, h.pressure_max_pa, h.pressure_step_pa)
            assert all(np.isfinite(x).all() for x in loop) and math.isfinite(loop_area(*loop))
    for column, values in trace.columns.items():
        assert np.isfinite(values).all(), column
    assert np.isfinite(trace.dv).all() and math.isfinite(trace.v_final)
    assert all(math.isfinite(x) for x in astuple(metrics) if isinstance(x, float))
    assert_writes_plain_repr(trace, tmp_path / "trace.csv")
