import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dighydro import ReferenceSignal, reference_column
from dighydro.reference import chirp_phase, chirp_phase_bound


def chirp():
    return ReferenceSignal(kind="chirp_sine", f0=0.0, f1=1.0, lo=150e3, hi=250e3, sweep_time=30.0)


def value_at(ref, t):
    return reference_column(ref, [t])[0]


def test_constant_is_constant():
    ref = ReferenceSignal(kind="constant", value=42.0)
    assert all(value_at(ref, t) == 42.0 for t in (0.0, 1.0, 1e3))


def test_chirp_starts_at_midpoint():
    assert value_at(chirp(), 0.0) == pytest.approx(200e3, rel=1e-12)


def test_chirp_stays_within_levels():
    ref = chirp()
    for k in range(4000):
        v = value_at(ref, k * 0.01)
        assert 150e3 - 1e-6 <= v <= 250e3 + 1e-6


def test_chirp_instantaneous_frequency_at_sweep_end():
    ref = chirp()
    h = 1e-6
    T = ref.sweep_time
    f_inst = (chirp_phase(ref, T) - chirp_phase(ref, T - h)) / (2 * math.pi * h)
    assert f_inst == pytest.approx(ref.f1, rel=1e-5)
    # after the sweep the frequency holds at f1
    f_after = (chirp_phase(ref, T + 2 + h) - chirp_phase(ref, T + 2)) / (2 * math.pi * h)
    assert f_after == pytest.approx(ref.f1, rel=1e-5)


_HZ = st.floats(-1e308, 1e308) | st.sampled_from([0.0, 1.0, -1.0, 8e307, -8e307, 1.7e308])


@pytest.mark.seeded
@given(
    f0=_HZ,
    f1=_HZ,
    sweep_time=st.floats(1e-3, 1e3),
    t=st.floats(0.0, 1e4),
    share=st.floats(0.0, 1.0),
)
# The hold branch, reached only after the sweep.
@example(f0=-3.0, f1=2.0, sweep_time=1.0, t=5.0, share=1.0)
def test_phase_bound_dominates_every_earlier_phase(f0, f1, sweep_time, t, share):
    ref = ReferenceSignal(kind="chirp_sine", f0=f0, f1=f1, sweep_time=sweep_time)
    bound = chirp_phase_bound(ref, t)
    if math.isfinite(bound):
        assert abs(chirp_phase(ref, t * share)) <= bound


def test_steps_are_right_continuous():
    ref = ReferenceSignal(kind="step_sequence", times=(0.0, 1.0, 2.0), levels=(0.0, 5.0, 3.0))
    assert value_at(ref, 0.0) == 0.0
    assert value_at(ref, 1.0 - 1e-12) == 0.0
    assert value_at(ref, 1.0) == 5.0
    assert value_at(ref, 2.0) == 3.0
    assert value_at(ref, 10.0) == 3.0


def test_invalid_signals_rejected():
    with pytest.raises(ValueError):
        ReferenceSignal(kind="triangle")
    with pytest.raises(ValueError):
        ReferenceSignal(kind="step_sequence", times=(0.0, 2.0, 1.0), levels=(0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        ReferenceSignal(kind="step_sequence", times=(0.0,), levels=(0.0, 1.0))
    with pytest.raises(ValueError):
        ReferenceSignal(kind="chirp_sine", lo=2e5, hi=1e5)
    with pytest.raises(ValueError):
        value_at(ReferenceSignal(), -1.0)
    with pytest.raises(ValueError):
        reference_column(ReferenceSignal(), np.array([-1.0, 0.0]))
