import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dighydro import (
    ModelBasedControllerState,
    OrificeModel,
    PiControllerState,
    SwitchingControllerState,
    TubeModelLinear,
    model_based_init,
    model_based_tick,
    pi_tick,
    switching_sign,
    switching_tick,
)

P_SUPPLY = 600e3
P_TANK = 0.0


def make_mb(est_p=200e3, tolerance=10e3, kv=1e-8, c_a=3.3e11, period=5e-3):
    state = ModelBasedControllerState(
        tube=TubeModelLinear(c_a=c_a),
        hp_orifice=OrificeModel(k_v=kv, p_tr=1e3),
        lp_orifice=OrificeModel(k_v=kv, p_tr=1e3),
        tolerance=tolerance,
        sample_period=period,
    )
    return model_based_init(state, est_p)


class TestModelBasedPressure:
    def test_zero_error_holds(self):
        mb = make_mb(est_p=200e3)
        hp, lp, mb2 = model_based_tick(mb, 200e3, P_SUPPLY, P_TANK)
        assert (hp, lp) == (False, False)
        assert mb2 == mb

    def test_within_tolerance_holds_even_if_a_valve_would_be_closer(self):
        mb = make_mb(est_p=200e3, tolerance=10e3)
        hp, lp, mb2 = model_based_tick(mb, 209e3, P_SUPPLY, P_TANK)
        assert (hp, lp) == (False, False)
        assert mb2.est_pressure == 200e3

    def test_pressurize_chosen_when_reference_above_band(self):
        # One HP period raises the estimate to ~210.4 kPa; |250 - 210.4| beats
        # both holding and venting.
        mb = make_mb(est_p=200e3)
        hp, lp, mb2 = model_based_tick(mb, 250e3, P_SUPPLY, P_TANK)
        assert (hp, lp) == (True, False)
        assert mb2.est_pressure == pytest.approx(210.4355e3, rel=1e-4)
        assert mb2.est_pressure == pytest.approx(3.3e11 * mb2.est_volume, rel=1e-12)

    def test_depressurize_chosen_when_reference_far_below(self):
        mb = make_mb(est_p=200e3)
        hp, lp, _ = model_based_tick(mb, 50e3, P_SUPPLY, P_TANK)
        assert (hp, lp) == (False, True)

    def test_estimate_consistency_invariant(self):
        mb = make_mb(est_p=123e3)
        for ref in (300e3, 50e3, 180e3, 240e3):
            _, _, mb = model_based_tick(mb, ref, P_SUPPLY, P_TANK)
            assert mb.est_pressure == pytest.approx(mb.tube.c_a * mb.est_volume, rel=1e-12)

    @given(
        est_p=st.floats(min_value=0.0, max_value=6e5),
        p_ref=st.floats(min_value=0.0, max_value=6.5e5),
        tolerance=st.floats(min_value=0.0, max_value=2e4),
    )
    def test_never_commands_both_valves(self, est_p, p_ref, tolerance):
        mb = make_mb(est_p=est_p, tolerance=tolerance)
        hp, lp, _ = model_based_tick(mb, p_ref, P_SUPPLY, P_TANK)
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
        hp, lp, mb2 = model_based_tick(mb, p_ref, P_SUPPLY, P_TANK)
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
        hp, lp, _ = model_based_tick(mb, p_ref, P_SUPPLY, P_TANK)

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
    def make(self, duty=0.2):
        return SwitchingControllerState(
            threshold=0.5, sample_period=0.1, duty=duty, command_quantum=5e-3
        )

    def test_sign_function_is_odd_with_deadband(self):
        sw = self.make()
        assert switching_sign(sw, 1.0) == 1
        assert switching_sign(sw, -1.0) == -1
        assert switching_sign(sw, 0.2) == 0
        assert switching_sign(sw, -0.2) == 0
        for e in (0.1, 0.3, 0.7, 2.0):
            assert switching_sign(sw, e) == -switching_sign(sw, -e)

    def test_inside_band_keeps_both_valves_off(self):
        schedule, _ = switching_tick(self.make(), 0.3)
        assert all(cmd == (False, False) for cmd in schedule)

    def test_positive_error_pulses_hp_for_duty_fraction(self):
        schedule, _ = switching_tick(self.make(duty=0.2), 1.0)
        assert len(schedule) == 20
        assert [hp for hp, _ in schedule] == [True] * 4 + [False] * 16
        assert not any(lp for _, lp in schedule)

    def test_negative_error_pulses_lp(self):
        schedule, _ = switching_tick(self.make(duty=0.2), -1.0)
        assert [lp for _, lp in schedule] == [True] * 4 + [False] * 16
        assert not any(hp for hp, _ in schedule)

    def test_duty_is_floored_to_whole_quanta(self):
        schedule, _ = switching_tick(self.make(duty=0.17), 1.0)
        assert sum(hp for hp, _ in schedule) == 3  # 17 ms -> 3 whole 5 ms quanta

    @given(e=st.floats(min_value=-5.0, max_value=5.0), duty=st.floats(min_value=0.0, max_value=1.0))
    def test_schedule_never_commands_both(self, e, duty):
        schedule, _ = switching_tick(self.make(duty=duty), e)
        assert not any(hp and lp for hp, lp in schedule)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SwitchingControllerState(threshold=0.0)
        with pytest.raises(ValueError):
            SwitchingControllerState(threshold=0.5, duty=1.5)


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
