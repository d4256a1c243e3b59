import pytest
from hypothesis import given
from hypothesis import strategies as st

from dighydro import ValveDynamics, valve_step
from dighydro.valve import CLOSED, OPEN


def step_many(valve, commands, dt):
    for cmd in commands:
        valve = valve_step(valve, cmd, dt)
    return valve


def test_closed_valve_stays_closed():
    v = ValveDynamics(delay=2e-3, movement_time=3e-3, sticking_time=1e-3)
    v2 = step_many(v, [False] * 50, 1e-3)
    assert v2.armature == 0.0
    assert v2.phase == CLOSED


def test_valve_at_rest_is_returned_itself():
    v = ValveDynamics(delay=2e-3, movement_time=3e-3, sticking_time=1e-3)
    assert valve_step(v, False, 1e-3) is v
    opened = step_many(v, [True] * 10, 1e-3)
    assert opened.phase == OPEN
    assert valve_step(opened, True, 1e-3) is opened
    assert valve_step(opened, False, 1e-3) is not opened


def test_opening_trajectory_is_piecewise_linear():
    # delay 2 ms then a 3 ms linear ramp: armature = 0 until 2 ms,
    # (t - 2ms) / 3ms afterwards, 1.0 from 5 ms on.
    v = ValveDynamics(delay=2e-3, movement_time=3e-3, sticking_time=1e-3)
    dt = 5e-4
    t = 0.0
    for _ in range(20):
        v = valve_step(v, True, dt)
        t += dt
        if t <= 2e-3 + 1e-12:
            expected = 0.0
        elif t < 5e-3:
            expected = (t - 2e-3) / 3e-3
        else:
            expected = 1.0
        assert v.armature == pytest.approx(expected, abs=1e-12)
    assert v.phase == OPEN


def test_trajectory_independent_of_step_alignment():
    # An uneven step that straddles the delay/ramp boundary must land on the
    # same piecewise-linear trajectory.
    v = ValveDynamics(delay=2e-3, movement_time=3e-3, sticking_time=1e-3)
    v = valve_step(v, True, 3.5e-3)
    assert v.armature == pytest.approx(1.5e-3 / 3e-3, abs=1e-12)


def test_fast_toggling_never_fully_opens():
    v = ValveDynamics(delay=2e-3, movement_time=3e-3, sticking_time=1e-3)
    peak = 0.0
    for k in range(200):
        v = valve_step(v, k % 2 == 0, 1e-3)
        peak = max(peak, v.armature)
    assert peak < 1.0


def test_reversal_mid_travel_sticks_before_reversing():
    v = ValveDynamics(delay=1e-3, movement_time=4e-3, sticking_time=2e-3)
    # open command for 3 ms: 1 ms delay + 2 ms ramp -> armature 0.5
    v = valve_step(v, True, 3e-3)
    assert v.armature == pytest.approx(0.5)
    # command drops: armature frozen for the 2 ms sticking dwell
    v = valve_step(v, False, 2e-3)
    assert v.armature == pytest.approx(0.5)
    # then it closes at the travel rate
    v = valve_step(v, False, 1e-3)
    assert v.armature == pytest.approx(0.25)


def test_cancelled_command_during_delay_returns_to_rest():
    v = ValveDynamics(delay=5e-3, movement_time=3e-3, sticking_time=1e-3)
    v = valve_step(v, True, 2e-3)
    assert v.armature == 0.0
    v = valve_step(v, False, 1e-3)
    assert v.phase == CLOSED
    assert v.timer == 0.0


def test_zero_movement_time_is_instantaneous():
    v = ValveDynamics(delay=0.0, movement_time=0.0, sticking_time=0.0)
    v = valve_step(v, True, 1e-4)
    assert v.armature == 1.0
    v = valve_step(v, False, 1e-4)
    assert v.armature == 0.0


def test_rejects_nonpositive_dt_and_bad_params():
    v = ValveDynamics()
    with pytest.raises(ValueError):
        valve_step(v, True, 0.0)
    with pytest.raises(ValueError, match=r"valve time parameters must be >= 0"):
        ValveDynamics(delay=-1e-3)
    with pytest.raises(ValueError, match=r"armature must be in \[0, 1\]"):
        ValveDynamics(armature=1.5)
    with pytest.raises(ValueError, match=r"unknown valve phase 'ajar'"):
        ValveDynamics(phase="ajar")


@pytest.mark.seeded
@given(
    commands=st.lists(st.booleans(), min_size=1, max_size=200),
    delay=st.floats(min_value=0.0, max_value=5e-3),
    movement=st.floats(min_value=0.0, max_value=5e-3),
    sticking=st.floats(min_value=0.0, max_value=5e-3),
    dt=st.floats(min_value=1e-5, max_value=5e-3),
)
def test_armature_never_leaves_unit_interval(commands, delay, movement, sticking, dt):
    v = ValveDynamics(delay=delay, movement_time=movement, sticking_time=sticking)
    for cmd in commands:
        v = valve_step(v, cmd, dt)
        assert 0.0 <= v.armature <= 1.0


@pytest.mark.seeded
@given(
    commands=st.lists(st.booleans(), min_size=1, max_size=100),
    dt=st.floats(min_value=1e-4, max_value=2e-3),
)
def test_armature_rate_is_bounded_by_travel_speed(commands, dt):
    v = ValveDynamics(delay=1e-3, movement_time=3e-3, sticking_time=1e-3)
    prev = v.armature
    for cmd in commands:
        v = valve_step(v, cmd, dt)
        assert abs(v.armature - prev) <= dt / 3e-3 + 1e-12
        prev = v.armature
