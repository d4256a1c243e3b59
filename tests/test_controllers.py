import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dighydro import (
    ModelBasedControllerState,
    OrificeModel,
    PiControllerState,
    PlantModel,
    SwitchingControllerState,
    TipPositionMap,
    TubeModelLinear,
    load_config,
    model_based_init,
    model_based_tick,
    pi_tick,
    run_simulation,
    scenario_path,
    switching_tick,
)
from dighydro import sim

P_SUPPLY = 600e3
P_TANK = 0.0


def make_mb(est_p=200e3, tolerance=10e3, kv=1e-8, c_a=3.3e11, period=5e-3):
    orifice = OrificeModel(k_v=kv, p_tr=1e3)
    tip_map = TipPositionMap(gain=2e-5)
    model = PlantModel(TubeModelLinear(c_a), orifice, orifice, tip_map, P_SUPPLY, P_TANK)
    state = ModelBasedControllerState(model, tolerance=tolerance, sample_period=period)
    return model_based_init(state, est_p)


class TestModelBasedPressure:
    def test_zero_error_holds(self):
        mb = make_mb(est_p=200e3)
        hp, lp, mb2 = model_based_tick(mb, 200e3)
        assert (hp, lp) == (False, False)
        assert mb2 == mb

    def test_within_tolerance_holds_even_if_a_valve_would_be_closer(self):
        mb = make_mb(est_p=200e3, tolerance=10e3)
        hp, lp, mb2 = model_based_tick(mb, 209e3)
        assert (hp, lp) == (False, False)
        assert mb2.est_pressure == 200e3

    def test_pressurize_chosen_when_reference_above_band(self):
        # One HP period raises the estimate to ~210.4 kPa; |250 - 210.4| beats
        # both holding and venting.
        mb = make_mb(est_p=200e3)
        hp, lp, mb2 = model_based_tick(mb, 250e3)
        assert (hp, lp) == (True, False)
        assert mb2.est_pressure == pytest.approx(210.4355e3, rel=1e-4)
        assert mb2.est_pressure == pytest.approx(3.3e11 * mb2.est_volume, rel=1e-12)

    def test_depressurize_chosen_when_reference_far_below(self):
        mb = make_mb(est_p=200e3)
        hp, lp, _ = model_based_tick(mb, 50e3)
        assert (hp, lp) == (False, True)

    def test_estimate_consistency_invariant(self):
        mb = make_mb(est_p=123e3)
        for ref in (300e3, 50e3, 180e3, 240e3):
            _, _, mb = model_based_tick(mb, ref)
            assert mb.est_pressure == pytest.approx(mb.model.tube.c_a * mb.est_volume, rel=1e-12)

    @given(
        est_p=st.floats(min_value=0.0, max_value=6e5),
        p_ref=st.floats(min_value=0.0, max_value=6.5e5),
        tolerance=st.floats(min_value=0.0, max_value=2e4),
    )
    def test_never_commands_both_valves(self, est_p, p_ref, tolerance):
        mb = make_mb(est_p=est_p, tolerance=tolerance)
        hp, lp, _ = model_based_tick(mb, p_ref)
        assert not (hp and lp)

    @given(
        est_p=st.floats(min_value=0.0, max_value=6e5),
        offset=st.floats(min_value=-1.0, max_value=1.0),
    )
    # est_p + offset * tolerance rounds to 10000.000000000002 Pa above est_p:
    # outside the band, so the controller may switch there.
    @example(est_p=6384.571798126095, offset=1.0)
    def test_deadband_means_no_switching(self, est_p, offset):
        tolerance = 10e3
        p_ref = est_p + offset * tolerance
        mb = make_mb(est_p=est_p, tolerance=tolerance)
        hp, lp, mb2 = model_based_tick(mb, p_ref)
        # The band is that of the reference as rounded, not of offset.
        if abs(p_ref - est_p) <= tolerance:
            assert (hp, lp) == (False, False)
            assert mb2.est_pressure == est_p

    @settings(max_examples=200)
    @given(
        est_p=st.floats(min_value=0.0, max_value=6e5),
        p_ref=st.floats(min_value=0.0, max_value=6.5e5),
        kv=st.floats(min_value=1e-9, max_value=1e-7),
        tolerance=st.floats(min_value=0.0, max_value=2e4),
    )
    def test_choice_matches_bruteforce_enumeration(self, est_p, p_ref, kv, tolerance):
        c_a = 3.3e11
        T = 5e-3
        mb = make_mb(est_p=est_p, tolerance=tolerance, kv=kv, c_a=c_a, period=T)
        hp, lp, _ = model_based_tick(mb, p_ref)

        # independent arithmetic for the three predictions
        def flow(p1, p2):
            dp = p1 - p2
            if abs(dp) > 1e3:
                return math.copysign(kv * math.sqrt(abs(dp)), dp)
            return kv * dp / (2.0 * math.sqrt(1e3)) * (3.0 - abs(dp) / 1e3)

        v = est_p / c_a
        preds = [
            ("hold", est_p),
            ("hp", c_a * max(0.0, v + flow(P_SUPPLY, est_p) * T)),
            ("lp", c_a * max(0.0, v + flow(P_TANK, est_p) * T)),
        ]
        if abs(p_ref - est_p) <= tolerance:
            expected = "hold"
        else:
            expected = min(preds, key=lambda item: abs(p_ref - item[1]))[0]
            # tie-break order: hold, then hp
            best = abs(p_ref - dict(preds)[expected])
            for name, p in preds:
                if abs(p_ref - p) == best:
                    expected = name
                    break
        assert {"hold": (False, False), "hp": (True, False), "lp": (False, True)}[expected] == (
            hp,
            lp,
        )


class TestSwitchingPosition:
    def make(self, threshold=0.5):
        return SwitchingControllerState(threshold=threshold)

    def test_switch_is_odd_with_deadband(self):
        sw = self.make()
        assert switching_tick(sw, 1.0) == (True, False)
        assert switching_tick(sw, -1.0) == (False, True)
        for e in (0.0, 0.2, -0.2, 0.5, -0.5):
            assert switching_tick(sw, e) == (False, False)
        for e in (0.1, 0.3, 0.7, 2.0, math.inf):
            assert switching_tick(sw, e) == switching_tick(sw, -e)[::-1]

    @given(
        e=st.floats(allow_nan=True),
        threshold=st.floats(min_value=0.0, exclude_min=True),
    )
    @example(e=math.nan, threshold=0.5)
    def test_never_commands_both_valves(self, e, threshold):
        sw = self.make(threshold)
        hp, lp = switching_tick(sw, e)
        assert not (hp and lp)
        if not math.isnan(e):
            assert (hp, lp) == switching_tick(sw, -e)[::-1]

    @pytest.mark.parametrize("threshold", [0.0, -0.5, math.nan])
    def test_rejects_threshold_not_above_zero(self, threshold):
        with pytest.raises(ValueError):
            SwitchingControllerState(threshold=threshold)

    def run(self, level, duty, duration="0.5"):
        o = {
            "reference.step_levels": f"{level}, {level}",
            "controller.duty": duty,
            "run.duration_s": duration,
        }
        cfg = load_config(scenario_path("step_unloaded_p1"), o)
        return cfg, run_simulation(cfg)

    @pytest.mark.parametrize("duty, pulse_steps", [("0.2", 40), ("0.17", 30), ("0.18", 30)])
    def test_unreachable_target_pulses_hp_for_whole_quanta_of_duty(self, duty, pulse_steps):
        # The tip saturates at 14 mm. A 100 ms window is 200 steps of
        # 0.5 ms; 17 or 18 ms of duty floors to three whole 5 ms quanta.
        cfg, trace = self.run(100.0, duty)
        window_steps = round(cfg.controller.window_s / cfg.run.dt_s)
        hp = trace["hp_cmd"].reshape(-1, window_steps)
        assert len(hp) == 5
        expected = np.arange(window_steps) < pulse_steps
        assert (hp == expected).all()
        assert not trace["lp_cmd"].any()

    def test_target_below_reach_pulses_lp(self):
        cfg, trace = self.run(-100.0, "0.2")
        lp = trace["lp_cmd"].reshape(-1, round(cfg.controller.window_s / cfg.run.dt_s))
        assert (lp == (np.arange(lp.shape[1]) < 40)).all()
        assert not trace["hp_cmd"].any()

    def test_switch_is_ticked_once_per_window(self, monkeypatch):
        calls = []

        def counted(state, e_p):
            calls.append(e_p)
            return switching_tick(state, e_p)

        monkeypatch.setattr(sim, "switching_tick", counted)
        cfg, trace = self.run(4.0, "0.18", duration="1.0")
        n_steps = round(cfg.run.duration_s / cfg.run.dt_s)
        window_steps = round(cfg.controller.window_s / cfg.run.dt_s)
        assert len(trace) == n_steps
        assert len(calls) == n_steps / window_steps == 10


class TestPiOuterLoop:
    def make(self):
        return PiControllerState(kp=3e4, ki=1e4, bias=200e3, out_lo=0.0, out_hi=550e3)

    def test_zero_error_outputs_bias(self):
        out, _ = pi_tick(self.make(), 0.0, 0.05)
        assert out == 200e3

    def test_constant_error_integrates_until_clamp(self):
        pi = self.make()
        prev = 0.0
        for _ in range(1000):
            out, pi = pi_tick(pi, 5.0, 0.05)
            assert out >= prev
            prev = out
        assert prev == 550e3

    def test_antiwindup_recovers_within_one_tick(self):
        pi = self.make()
        for _ in range(1000):
            _, pi = pi_tick(pi, 5.0, 0.05)
        out_sat, pi = pi_tick(pi, 5.0, 0.05)
        assert out_sat == 550e3
        out_after, _ = pi_tick(pi, -5.0, 0.05)
        assert out_after < 550e3

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            pi_tick(self.make(), 0.0, 0.0)
