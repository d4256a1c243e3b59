import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dighydro
from dighydro import (
    BUNDLED_SCENARIOS,
    load_config,
    model_based_tick,
    plant_step,
    reference_column,
    run_simulation,
    scenario_path,
    sensor_read,
    volume_ledger_error,
)
from dighydro.metrics import tracking_error
from dighydro.sim import TRACE_COLUMNS, SimTrace

from conftest import DRAINING_RUN

# sha256 over the little-endian float64 bytes of every trace column, in
# TRACE_COLUMNS order. The golden file pins the CSV of every bundled
# scenario, and a CSV that reads back bit-exact pins every column; these
# lock the engine paths that no bundled scenario reaches: the PI outer loop,
# and sensor noise on both sensors or on position only.
PINNED_TRACES = [
    (
        "step_unloaded_p1",
        (("controller.kind", "pi_pressure"),),
        "f37485823bbbd9a488101b05c882158a250b5e68d692d45c29b7c5f24cc1c8f2",
    ),
    (
        "chirp_matched",
        (
            ("sensor.pressure_noise_std_pa", "500"),
            ("sensor.position_noise_std_mm", "0.02"),
            ("run.seed", "77"),
        ),
        "480cc1777c345b52ed8c617ba1e00b5fbb2892c08d106e78e0138723f07f2764",
    ),
    # One noisy sensor: each step's single draw goes to the position read.
    (
        "step_unloaded_p1",
        (("sensor.position_noise_std_mm", "0.02"),),
        "c3dcd9a2318cdfa1dab7a12d4e022e4ea668e3bb06f41d86df9ebf9f8613e9f1",
    ),
]


@pytest.mark.parametrize(
    "name, overrides, expected",
    PINNED_TRACES,
    ids=["pi_pressure", "noisy", "noisy_position"],
)
def test_pinned_trace_hashes(scenario_run, name, overrides, expected):
    _, trace = scenario_run(name, overrides)
    digest = hashlib.sha256()
    for column in TRACE_COLUMNS:
        digest.update(np.ascontiguousarray(trace[column], dtype="<f8").tobytes())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize("seed", [0, 7, 77, 2**31 - 1])
def test_one_bulk_draw_equals_the_scalar_draws(seed):
    # The engine draws a run's noise in one call and relies on it being the
    # stream of scalar draws, bit for bit. A numpy release that breaks this
    # fails here by name, not only through a trace hash.
    n = 4000
    rng = np.random.default_rng(seed)
    scalars = np.array([rng.standard_normal() for _ in range(n)])
    assert np.random.default_rng(seed).standard_normal(n).tobytes() == scalars.tobytes()


@pytest.mark.parametrize(
    "p_std, pos_std",
    [("500", "0.02"), ("0", "0.02"), ("500", "0")],
    ids=["both", "position", "pressure"],
)
def test_engine_noise_is_the_scalar_draws_in_read_order(p_std, pos_std):
    # Per step the pressure read takes its draw before the position read.
    overrides = {
        "run.duration_s": "0.5",
        "run.seed": "3",
        "sensor.pressure_noise_std_pa": p_std,
        "sensor.position_noise_std_mm": pos_std,
    }
    cfg = load_config(scenario_path("chirp_matched"), overrides)
    trace = run_simulation(cfg)
    rng = np.random.default_rng(3)
    reads = (
        (cfg.build_pressure_sensor(), trace["p_tube"], trace["sensed_p"]),
        (cfg.build_position_sensor(), trace["tip_y"], trace["sensed_pos"]),
    )
    for k in range(len(trace)):
        for sensor, truth, sensed in reads:
            expected = float(sensor_read(sensor, truth, k))
            if sensor.noise_std > 0.0:
                expected += sensor.noise_std * rng.standard_normal()
            assert sensed[k].tobytes() == np.float64(expected).tobytes(), k


@pytest.mark.parametrize("p_std, imported", [("0", False), ("500", True)])
def test_only_a_noisy_run_imports_numpy_random(tmp_path, p_std, imported):
    # numpy.random costs a process several MiB; a run without sensor noise
    # builds no generator and never imports it. A fresh interpreter, since
    # this one has imported it already.
    code = (
        "import sys\n"
        "from dighydro import run_scenario, scenario_path\n"
        "o = {'run.duration_s': '0.05', 'sensor.pressure_noise_std_pa': sys.argv[2]}\n"
        "run_scenario(scenario_path('chirp_matched'), sys.argv[1], o)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(dighydro.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), p_std],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == str(imported)


def test_identical_configs_give_identical_traces(scenario_run):
    cfg, trace_a = scenario_run("step_unloaded_p1")
    trace_b = run_simulation(cfg)
    for name in trace_a.columns:
        assert np.array_equal(trace_a[name], trace_b[name]), name


def test_engine_writes_each_column_into_its_final_array(scenario_run):
    # Each per-step column is allocated at its final size and written by
    # index, so a run holds little more than what it returns; columns grown
    # by append and copied out after the loop would read 1.034.
    cfg, _ = scenario_run("step_unloaded_p1")
    tracemalloc.start()
    try:
        trace = run_simulation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_steps = round(cfg.run.duration_s / cfg.run.dt_s)
    returned = [*trace.columns.values(), trace.dv]
    for col in returned:
        assert col.dtype == np.float64 and col.flags.c_contiguous and col.shape == (n_steps,)
    assert peak <= 1.02 * sum(col.nbytes for col in returned)


@pytest.mark.parametrize(
    "name, overrides",
    [(name, ()) for name in BUNDLED_SCENARIOS] + [("step_unloaded_p1", DRAINING_RUN)],
    ids=[*BUNDLED_SCENARIOS, "draining"],
)
def test_volume_ledger_is_exact(scenario_run, name, overrides):
    # Each step's booked volume takes v_tube to the next row's, bit for bit,
    # and the last one to v_final.
    _, trace = scenario_run(name, overrides)
    v, dv = trace["v_tube"], trace.dv
    assert (v[:-1] + dv[:-1]).tobytes() == v[1:].tobytes()
    assert (v[-1] + dv[-1]).tobytes() == np.float64(trace.v_final).tobytes()
    assert volume_ledger_error(trace) < 1e-12


def test_volume_ledger_of_an_empty_trace_is_zero():
    empty = SimTrace(columns={"t": np.empty(0), "v_tube": np.empty(0)}, dv=np.empty(0))
    assert volume_ledger_error(empty) == 0.0


_volume = st.floats(0.0, 1e-3)
_booked = (
    st.floats(-1e-3, 1e-3)
    | st.floats(-1e-20, 1e-20)
    | st.sampled_from([5e-324, -5e-324, 2.2e-308, -2.2e-308, 0.0, -0.0])
)


@given(v0=_volume, dvs=st.lists(_booked, min_size=1, max_size=50), v_final=st.none() | _volume)
def test_volume_ledger_replays_the_sequential_sum(v0, dvs, v_final):
    # The engine books each step's volume in step order; a pairwise or
    # reordered sum of sign-mixed or subnormal volumes rounds differently.
    v = np.float64(v0)
    for dv in dvs:
        v += dv
    if v_final is None:
        v_final = float(v)
    n = len(dvs)
    trace = SimTrace(
        columns={"t": np.arange(n) * 1e-3, "v_tube": np.full(n, v0)},
        dv=np.array(dvs),
        v_final=v_final,
    )
    expected = abs(v - v_final) / max(abs(v_final), v0, 1e-300)
    assert float(volume_ledger_error(trace)).hex() == float(expected).hex()


def test_trace_time_grid_has_no_drift(scenario_run):
    cfg, trace = scenario_run("step_unloaded_p1")
    k = np.arange(len(trace))
    assert np.array_equal(trace["t"], k * cfg.run.dt_s)


def test_commands_are_held_for_whole_quanta(scenario_run):
    cfg, trace = scenario_run("step_unloaded_p1")
    q = round(cfg.run.command_quantum_s / cfg.run.dt_s)
    for col in ("hp_cmd", "lp_cmd"):
        cmd = trace[col]
        changes = np.nonzero(np.diff(cmd))[0] + 1
        assert np.all(changes % q == 0)


def test_estimator_replays_plant_without_valve_dynamics():
    # With matched parameters, no valve dynamics, and the plant stepped at
    # the controller period, the sensorless estimate and the true pressure
    # run the same arithmetic and must agree to well below 0.1 %. No sensor
    # is read; the sensor delays only have to sit on the 5 ms step grid.
    overrides = {
        "plant.valve_delay_s": "0",
        "plant.valve_movement_time_s": "0",
        "plant.valve_sticking_time_s": "0",
        "run.dt_s": "5e-3",
        "sensor.pressure_delay_s": "5e-3",
        "sensor.position_delay_s": "1e-2",
    }
    cfg = load_config(scenario_path("chirp_matched"), overrides)
    plant = cfg.build_plant()
    state = cfg.build_initial_state(plant)
    mb = cfg.build_model_based_controller(plant)
    dt = cfg.run.dt_s
    refs = reference_column(cfg.build_reference(), np.arange(round(cfg.run.duration_s / dt)) * dt)
    worst = 0.0
    for r in refs.tolist():
        hp, lp, mb = model_based_tick(mb, r)
        state, _ = plant_step(plant, state, hp, lp, dt)
        worst = max(worst, abs(mb.est_pressure - state.p_tube) / max(state.p_tube, 1e3))
    assert worst < 1e-3


def test_halving_dt_barely_moves_the_chirp_endpoint(scenario_run):
    _, coarse = scenario_run("chirp_matched")
    _, fine = scenario_run("chirp_matched", (("run.dt_s", "2.5e-4"),))
    p_coarse = coarse["p_tube"][-1]
    p_fine = fine["p_tube"][-1]
    assert abs(p_coarse - p_fine) / p_fine < 0.01


def test_sensorless_commands_do_not_depend_on_the_plant(scenario_run):
    # The two chirps differ only in the plant's flow factors, and the
    # controller reads nothing from the plant: its commands are the same,
    # bit for bit, while the tube pressure is not.
    _, matched = scenario_run("chirp_matched")
    _, miscal = scenario_run("chirp_miscalibrated")
    for column in ("hp_cmd", "lp_cmd", "ref"):
        assert matched[column].tobytes() == miscal[column].tobytes(), column
    assert matched["hp_cmd"].any() and matched["lp_cmd"].any()
    assert matched["p_tube"].tobytes() != miscal["p_tube"].tobytes()


@pytest.mark.parametrize(
    "overrides",
    [
        (("plant.kv_hp", "1e12"), ("run.duration_s", "3")),
        (("plant.kv_hp", "1e300"), ("run.duration_s", "3")),
        (
            ("plant.kv_hp", "1.4065526409925564e+297"),
            ("controller.kind", "pi_pressure"),
            ("run.duration_s", "1"),
        ),
    ],
    ids=["kv_hp-1e12", "kv_hp-1e300", "pi-kv_hp-1.4e297"],
)
def test_an_overshooting_flow_factor_stops_at_the_supply(scenario_run, overrides):
    # Without the supply clamp the first drove the tube to 1.28e23 Pa, past
    # the 600 kPa supply, and the others to inf, where orifice_flow raised.
    cfg, trace = scenario_run("chirp_miscalibrated", overrides)
    assert len(trace) == round(cfg.run.duration_s / cfg.run.dt_s)
    assert trace["p_tube"].max() <= cfg.plant.supply_pressure_pa
    assert trace.clamp_events == 1
    v, dv = trace["v_tube"], trace.dv
    assert (v[:-1] + dv[:-1]).tobytes() == v[1:].tobytes()
    assert (v[-1] + dv[-1]).tobytes() == np.float64(trace.v_final).tobytes()


def test_miscalibrated_plant_tracks_worse(scenario_run):
    _, matched = scenario_run("chirp_matched")
    _, miscal = scenario_run("chirp_miscalibrated")
    rms = lambda tr: float(np.sqrt(np.mean(tracking_error(tr) ** 2)))
    assert rms(miscal) > rms(matched)


def test_pi_outer_loop_converges_on_linear_plant():
    overrides = {
        "controller.kind": "pi_pressure",
        "tip_map.play_width_pa": "0",
        "reference.kind": "step_sequence",
        "reference.step_times_s": "0.0, 1.0",
        "reference.step_levels": "0.0, 4.0",
        "plant.initial_pressure_pa": "0",
        "run.duration_s": "20",
    }
    cfg = load_config(scenario_path("chirp_matched"), overrides)
    trace = run_simulation(cfg)
    err = trace["ref"] - trace["tip_y"]
    tail = err[-round(2.0 / cfg.run.dt_s) :]
    assert np.max(np.abs(tail)) < 0.5
