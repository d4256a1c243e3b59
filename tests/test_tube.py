import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dighydro import TipPositionMap, TubeModelLinear, tip_position


def test_rejects_bad_compliance_and_negative_pressure():
    with pytest.raises(ValueError):
        TubeModelLinear(c_a=0.0)
    with pytest.raises(ValueError, match="pressure must be >= 0"):
        tip_position(TipPositionMap(gain=2e-5), -1.0, 0.0)


def test_affine_map_without_play():
    tmap = TipPositionMap(gain=1e-3, offset=0.0, sat_lo=0.0, sat_hi=100.0)
    y, play = tip_position(tmap, 50e3, 0.0)
    assert y == pytest.approx(50.0, rel=1e-12)
    assert play == 50e3


def test_saturation_clamps_output():
    tmap = TipPositionMap(gain=1e-3, offset=0.0, sat_lo=0.0, sat_hi=10.0)
    y, _ = tip_position(tmap, 50e3, 0.0)
    assert y == 10.0


def sweep(tmap, pressures, play):
    out = []
    for p in pressures:
        y, play = tip_position(tmap, p, play)
        out.append(y)
    return np.array(out), play


def test_up_down_branches_differ_by_twice_gain_times_width():
    width = 10e3
    tmap = TipPositionMap(gain=2e-5, play_width=width)
    grid = np.linspace(0.0, 400e3, 81)
    play = 0.0
    _, play = sweep(tmap, list(grid) + list(grid[::-1]), play)  # close the loop first
    up, play = sweep(tmap, grid, play)
    down, play = sweep(tmap, grid[::-1], play)
    down = down[::-1]
    interior = (grid >= 2 * width) & (grid <= grid[-1] - 2 * width)
    assert np.allclose((down - up)[interior], 2 * tmap.gain * width, rtol=1e-12)


def test_zero_width_map_is_single_valued():
    tmap = TipPositionMap(gain=2e-5, play_width=0.0)
    grid = np.linspace(0.0, 400e3, 41)
    up, play = sweep(tmap, grid, 0.0)
    down, _ = sweep(tmap, grid[::-1], play)
    assert np.array_equal(up, down[::-1])


def test_constant_pressure_holds_tip_still():
    tmap = TipPositionMap(gain=2e-5, play_width=10e3)
    # arrive at 100 kPa from above, then hold
    _, play = sweep(tmap, [300e3, 100e3], 0.0)
    y0, play = tip_position(tmap, 100e3, play)
    for _ in range(10):
        y, play = tip_position(tmap, 100e3, play)
        assert y == y0


def test_monotone_on_upward_sweep():
    tmap = TipPositionMap(gain=2e-5, play_width=10e3, sat_lo=0.0, sat_hi=10.0)
    grid = np.linspace(0.0, 500e3, 101)
    up, _ = sweep(tmap, grid, 0.0)
    assert np.all(np.diff(up) >= 0.0)


@given(
    pressures=st.lists(st.floats(min_value=0.0, max_value=6e5), min_size=1, max_size=100),
    width=st.floats(min_value=0.0, max_value=5e4),
)
def test_play_state_stays_within_width(pressures, width):
    tmap = TipPositionMap(gain=2e-5, play_width=width)
    play = 0.0
    for p in pressures:
        _, play = tip_position(tmap, p, play)
        assert abs(p - play) <= width + 1e-9
