"""Acceptance gate: every criterion as one test, each printing a pass line.

Run under pytest, or directly (`python tests/test_acceptance.py`) to get the
one-line-per-criterion summary without the pytest machinery.
"""

import hashlib
import json
import math
import random
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from dighydro import (
    BUNDLED_SCENARIOS,
    OrificeModel,
    PlantModel,
    TipPositionMap,
    hysteresis_sweep,
    load_config,
    orifice_flow,
    play_loop_area,
    run_scenario,
    scenario_path,
    volume_ledger_error,
)
from dighydro.controllers import (
    ModelBasedControllerState,
    model_based_init,
    model_based_tick,
)
from dighydro.metrics import tracking_error
from dighydro.tube import TubeModelLinear

sys.path.insert(0, str(Path(__file__).parent))
from conftest import cached_scenario_run  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "trace_hashes.json"


def check_1_orifice_branch_and_slope_continuity():
    """Flow branches agree in value (< 1e-12 rel) and slope (< 1e-6 rel) at
    the transition pressure, over a log grid of k_v and p_tr."""
    t0 = time.monotonic()
    worst_value = 0.0
    worst_slope = 0.0
    for kv in np.logspace(-10, -6, 9):
        for ptr in np.logspace(2, 5, 9):
            model = OrificeModel(k_v=float(kv), p_tr=float(ptr))
            below = orifice_flow(model, 1.0, math.nextafter(ptr, 0.0), 0.0)
            above = orifice_flow(model, 1.0, math.nextafter(ptr, math.inf), 0.0)
            at = kv * math.sqrt(ptr)
            worst_value = max(worst_value, abs(above - below) / at)

            h = ptr * 1e-7
            slope_below = (at - orifice_flow(model, 1.0, ptr - h, 0.0)) / h
            slope_above = (orifice_flow(model, 1.0, ptr + h, 0.0) - at) / h
            worst_slope = max(worst_slope, abs(slope_above - slope_below) / abs(slope_below))
    elapsed = time.monotonic() - t0
    assert worst_value < 1e-12, worst_value
    assert worst_slope < 1e-6, worst_slope
    assert elapsed < 1.0, elapsed
    return f"value {worst_value:.2e}, slope {worst_slope:.2e}, {elapsed:.2f}s"


def check_2_argmin_matches_bruteforce():
    """Controller choice equals exhaustive three-way enumeration on 1000
    random states, exactly."""
    t0 = time.monotonic()
    rng = random.Random(20260824)
    p_supply, p_tank = 600e3, 0.0
    for _ in range(1000):
        kv_hp = 10 ** rng.uniform(-9, -7)
        kv_lp = 10 ** rng.uniform(-9, -7)
        ptr = 10 ** rng.uniform(2, 4)
        c_a = 3.3e11 * 10 ** rng.uniform(-0.5, 0.5)
        T = rng.choice([5e-3, 10e-3, 20e-3])
        est_p = rng.uniform(0.0, 600e3)
        p_ref = rng.uniform(0.0, 650e3)
        tol = rng.uniform(0.0, 2e4)

        model = PlantModel(
            tube=TubeModelLinear(c_a=c_a),
            hp_orifice=OrificeModel(k_v=kv_hp, p_tr=ptr),
            lp_orifice=OrificeModel(k_v=kv_lp, p_tr=ptr),
            tip_map=TipPositionMap(gain=2e-5),
            p_supply=p_supply,
            p_tank=p_tank,
        )
        mb = ModelBasedControllerState(model, tolerance=tol, sample_period=T)
        mb = model_based_init(mb, est_p)
        hp, lp, _ = model_based_tick(mb, p_ref)

        def flow(kv, p1, p2):
            dp = p1 - p2
            if abs(dp) > ptr:
                return math.copysign(kv * math.sqrt(abs(dp)), dp)
            return kv * dp / (2.0 * math.sqrt(ptr)) * (3.0 - abs(dp) / ptr)

        v = est_p / c_a
        candidates = [
            ((False, False), est_p),
            ((True, False), c_a * max(0.0, v + flow(kv_hp, p_supply, est_p) * T)),
            ((False, True), c_a * max(0.0, v + flow(kv_lp, p_tank, est_p) * T)),
        ]
        if abs(p_ref - est_p) <= tol:
            expected = (False, False)
        else:
            expected = min(candidates, key=lambda item: abs(p_ref - item[1]))[0]
        assert (hp, lp) == expected, (hp, lp, expected)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, elapsed
    return f"1000/1000 exact, {elapsed:.2f}s"


def check_3_matched_chirp_tracks_within_band():
    """Matched-parameter chirp: max pressure error within tolerance plus one
    command-quantum pressure increment."""
    t0 = time.monotonic()
    cfg, trace = cached_scenario_run("chirp_matched")
    elapsed = time.monotonic() - t0
    max_err = float(np.max(np.abs(tracking_error(trace))))
    step_increment = (
        cfg.plant.tube_compliance_pa_per_m3
        * cfg.plant.kv_hp
        * math.sqrt(cfg.plant.supply_pressure_pa - cfg.reference.chirp_lo)
        * cfg.run.command_quantum_s
    )
    bound = cfg.controller.tolerance_pa + step_increment
    assert max_err <= bound, (max_err, bound)
    assert elapsed < 10.0, elapsed
    return f"max error {max_err / 1e3:.2f} kPa <= {bound / 1e3:.2f} kPa, {elapsed:.2f}s"


def check_4_miscalibration_degrades_tracking():
    """Plant valves passing +8 % / +58 % more flow than the controller's
    copies must strictly raise the RMS tracking error."""
    _, matched = cached_scenario_run("chirp_matched")
    _, miscal = cached_scenario_run("chirp_miscalibrated")
    rms_matched = float(np.sqrt(np.mean(tracking_error(matched) ** 2)))
    rms_miscal = float(np.sqrt(np.mean(tracking_error(miscal) ** 2)))
    assert rms_miscal > rms_matched, (rms_miscal, rms_matched)
    return f"rms {rms_miscal / 1e3:.1f} kPa (miscal) > {rms_matched / 1e3:.1f} kPa (matched)"


def check_5_switching_control_settles_into_the_band():
    """Step targets on the hysteretic plant: after settling, the controller's
    position error stays within the threshold for the rest of the run, both
    unloaded and loaded."""
    notes = []
    for name in ("step_unloaded_p1", "step_unloaded_p2", "step_loaded"):
        cfg, trace = cached_scenario_run(name)
        threshold = cfg.controller.threshold_mm
        e_p = trace["ref"] - trace["sensed_pos"]  # the controller's input
        outside = np.nonzero(np.abs(e_p) > threshold)[0]
        assert len(outside) > 0, f"{name}: step never left the band"
        t_settle = float(trace["t"][outside[-1] + 1])
        assert t_settle < 0.5 * cfg.run.duration_s, (name, t_settle)
        notes.append(f"{name} settles at {t_settle:.2f}s")
    return "; ".join(notes)


def check_6_hysteresis_loop_area_matches_closed_form():
    """Loop area within 1 % of the play-operator closed form; zero play
    width collapses the loop exactly."""
    with tempfile.TemporaryDirectory() as tmp:
        _, area, cfg = hysteresis_sweep(scenario_path("hysteresis"), tmp)
        expected = play_loop_area(
            cfg.tip_map.gain_mm_per_pa,
            cfg.tip_map.play_width_pa,
            cfg.hysteresis.pressure_max_pa,
        )
        rel = abs(area - expected) / expected
        assert rel < 1e-2, (area, expected)

        _, area0, _ = hysteresis_sweep(
            scenario_path("hysteresis"), tmp, {"tip_map.play_width_pa": "0"}
        )
        assert area0 == 0.0, area0
    return f"area {area:.4f} mm*Pa, rel err {rel:.2e}; zero width -> {area0}"


def check_7_bundled_scenarios_are_deterministic():
    """Repeated runs of every bundled scenario produce byte-identical CSVs."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in BUNDLED_SCENARIOS:
            digests = []
            for attempt in ("a", "b"):
                out = tmp / f"{name}_{attempt}"
                trace_path, _, _, _ = run_scenario(scenario_path(name), out)
                digests.append(hashlib.sha256(trace_path.read_bytes()).hexdigest())
            assert digests[0] == digests[1], name
    return f"{len(BUNDLED_SCENARIOS)} scenarios byte-identical across runs"


def check_8_volume_conservation_everywhere():
    """The per-step volume ledger reproduces the net tube volume change to
    < 1e-12 relative for every bundled scenario."""
    worst = 0.0
    for name in BUNDLED_SCENARIOS:
        _, trace = cached_scenario_run(name)
        worst = max(worst, volume_ledger_error(trace))
    assert worst < 1e-12, worst
    return f"worst ledger error {worst:.2e}"


def check_golden_traces_unchanged():
    """Regression lock: the trace CSV of every bundled scenario has the
    recorded per-platform sha256."""
    recorded = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        for name, expected in recorded.items():
            trace_path, _, _, _ = run_scenario(scenario_path(name), tmp)
            digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
            assert digest == expected, (name, digest, expected)
    return f"{len(recorded)} golden traces unchanged"


CHECKS = [
    ("criterion 1 (orifice continuity)", check_1_orifice_branch_and_slope_continuity),
    ("criterion 2 (argmin vs brute force)", check_2_argmin_matches_bruteforce),
    ("criterion 3 (matched chirp tracking)", check_3_matched_chirp_tracks_within_band),
    ("criterion 4 (miscalibration ordering)", check_4_miscalibration_degrades_tracking),
    ("criterion 5 (switching settles)", check_5_switching_control_settles_into_the_band),
    ("criterion 6 (hysteresis loop area)", check_6_hysteresis_loop_area_matches_closed_form),
    ("criterion 7 (determinism)", check_7_bundled_scenarios_are_deterministic),
    ("criterion 8 (volume conservation)", check_8_volume_conservation_everywhere),
    ("golden traces", check_golden_traces_unchanged),
]


def _run_and_report(label, check):
    note = check()
    print(f"PASS {label}: {note}")


def test_criterion_1():
    _run_and_report(*CHECKS[0])


def test_criterion_2():
    _run_and_report(*CHECKS[1])


def test_criterion_3():
    _run_and_report(*CHECKS[2])


def test_criterion_4():
    _run_and_report(*CHECKS[3])


def test_criterion_5():
    _run_and_report(*CHECKS[4])


def test_criterion_6():
    _run_and_report(*CHECKS[5])


def test_criterion_7():
    _run_and_report(*CHECKS[6])


def test_criterion_8():
    _run_and_report(*CHECKS[7])


def test_golden_traces():
    _run_and_report(*CHECKS[8])


def main() -> int:
    failures = 0
    for label, check in CHECKS:
        try:
            note = check()
            print(f"PASS {label}: {note}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
