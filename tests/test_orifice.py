import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dighydro import OrificeModel, orifice_flow

MODEL = OrificeModel(k_v=1e-8, p_tr=1000.0)


def test_zero_pressure_difference_gives_zero_flow():
    assert orifice_flow(MODEL, 1.0, 2e5, 2e5) == 0.0
    assert orifice_flow(MODEL, 0.3, 0.0, 0.0) == 0.0


def test_zero_opening_gives_zero_flow():
    assert orifice_flow(MODEL, 0.0, 6e5, 0.0) == 0.0


def test_turbulent_branch_value():
    # K_v * sqrt(400000) with K_v = 1e-8
    q = orifice_flow(MODEL, 1.0, 6e5, 2e5)
    assert q == pytest.approx(6.324555320336759e-06, rel=1e-12)


def test_branches_agree_at_transition():
    # Both branch formulas reduce to K_v * sqrt(p_tr) at the transition.
    expected = MODEL.k_v * math.sqrt(MODEL.p_tr)
    assert orifice_flow(MODEL, 1.0, MODEL.p_tr, 0.0) == pytest.approx(expected, rel=1e-15)
    just_above = math.nextafter(MODEL.p_tr, math.inf)
    assert orifice_flow(MODEL, 1.0, just_above, 0.0) == pytest.approx(expected, rel=1e-12)


def test_opening_scales_linearly():
    full = orifice_flow(MODEL, 1.0, 5e5, 1e5)
    assert orifice_flow(MODEL, 0.25, 5e5, 1e5) == pytest.approx(0.25 * full, rel=1e-15)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        orifice_flow(MODEL, -0.1, 1e5, 0.0)
    with pytest.raises(ValueError):
        orifice_flow(MODEL, 1.5, 1e5, 0.0)
    with pytest.raises(ValueError):
        orifice_flow(MODEL, 1.0, float("nan"), 0.0)
    with pytest.raises(ValueError):
        orifice_flow(MODEL, 1.0, float("inf"), 0.0)
    with pytest.raises(ValueError):
        OrificeModel(k_v=0.0, p_tr=1e3)
    with pytest.raises(ValueError):
        OrificeModel(k_v=1e-8, p_tr=0.0)


@given(dp=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_odd_symmetry(dp):
    forward = orifice_flow(MODEL, 1.0, dp if dp > 0 else 0.0, 0.0 if dp > 0 else -dp)
    backward = orifice_flow(MODEL, 1.0, 0.0 if dp > 0 else -dp, dp if dp > 0 else 0.0)
    assert forward == -backward


@given(
    dp1=st.floats(min_value=0.0, max_value=1e6),
    dp2=st.floats(min_value=0.0, max_value=1e6),
)
@example(dp1=0.0, dp2=5e-324)
@example(dp1=999.9999999999952, dp2=999.9999999999953)
def test_strictly_increasing_in_pressure_difference(dp1, dp2):
    lo, hi = sorted((dp1, dp2))
    q_lo = orifice_flow(MODEL, 1.0, lo, 0.0)
    q_hi = orifice_flow(MODEL, 1.0, hi, 0.0)
    if hi >= 1e-290 and hi - lo > 1e-12 * hi:
        assert q_hi > q_lo
    else:
        # Both flows underflow to 0.0 below 1e-290; adjacent floats just
        # under the branch seam dp = p_tr may round the other way.
        assert q_hi >= q_lo * (1.0 - 1e-12)
