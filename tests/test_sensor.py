import math
import struct

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dighydro import SensorModel, quantize, sensor_read


def test_identity_sensor_returns_current_value():
    sensor = SensorModel(sample_steps=1, delay_steps=0, quantization=0.0)
    values = [float(k) for k in range(10)]
    assert sensor_read(sensor, values, 9) == 9.0


def test_step_appears_no_earlier_than_the_delay():
    sensor = SensorModel(sample_steps=1, delay_steps=4)
    values = [0.0 if k == 0 else 1.0 for k in range(20)]  # step right after k = 0
    for k in range(20):
        sensed = sensor_read(sensor, values, k)
        if k < 4 + 1:
            assert sensed == 0.0
        else:
            assert sensed == 1.0


def test_sampling_holds_between_grid_points():
    sensor = SensorModel(sample_steps=5, delay_steps=0)
    values = [float(k) for k in range(20)]
    assert sensor_read(sensor, values, 7) == 5.0
    assert sensor_read(sensor, values, 10) == 10.0


def test_delay_longer_than_the_sample_period():
    # Sample grid 0, 3, 6, ... read 7 steps late: step 12 sees sample 3.
    sensor = SensorModel(sample_steps=3, delay_steps=7)
    values = [float(k) for k in range(20)]
    assert [sensor_read(sensor, values, k) for k in range(6, 14)] == [
        0.0, 0.0, 0.0, 0.0, 3.0, 3.0, 3.0, 6.0
    ]


def test_read_at_step_k_needs_only_the_history_up_to_k():
    sensor = SensorModel(sample_steps=4, delay_steps=2)
    values = [float(k) for k in range(40)]
    for k in range(40):
        assert sensor_read(sensor, values[: k + 1], k) == sensor_read(sensor, values, k)
    identity = SensorModel(sample_steps=1)
    assert sensor_read(identity, values[:13], 12) == 12.0


def test_quantization_rounds_ties_away_from_zero():
    assert quantize(10.3, 0.5) == 10.5
    assert quantize(10.2, 0.5) == 10.0
    assert quantize(10.25, 0.5) == 10.5
    assert quantize(-10.25, 0.5) == -10.5
    assert quantize(10.3, 0.0) == 10.3


def test_quantized_sensor_output():
    sensor = SensorModel(sample_steps=1, quantization=0.5)
    assert sensor_read(sensor, [10.3], 0) == 10.5


@pytest.mark.parametrize("q", [2.225073858507e-311, 1.1125369292536007e-308])
def test_step_too_fine_to_count_passes_the_value_through(q):
    # abs(x) / q overflows to inf: x is a multiple of q as far as a float can tell.
    for x in (200e3, -4.0):
        assert quantize(x, q) == x
    assert sensor_read(SensorModel(sample_steps=1, quantization=q), [200e3], 0) == 200e3
    # Finite quotients round as ever.
    assert quantize(0.0, q) == 0.0
    assert quantize(3 * q, q) == 3 * q


def test_noise_is_seeded_and_reproducible():
    # The caller draws z; the same seed gives the same draw, and the same
    # draw the same reading.
    sensor = SensorModel(sample_steps=1, noise_std=0.1)
    a = sensor_read(sensor, [1.0], 0, np.random.default_rng(7).standard_normal())
    b = sensor_read(sensor, [1.0], 0, np.random.default_rng(7).standard_normal())
    assert a == b
    assert a != 1.0


@pytest.mark.parametrize("q", [0.0, 0.5])
@pytest.mark.parametrize("x", [-0.0, 0.0, 10.3, -10.3])
def test_no_noise_leaves_the_quantized_value_bit_identical(x, q):
    expected = struct.pack("<d", quantize(x, q))
    noisy = SensorModel(sample_steps=1, quantization=q, noise_std=0.1)
    quiet = SensorModel(sample_steps=1, quantization=q)
    for sensed in (
        sensor_read(noisy, [x], 0),
        sensor_read(noisy, [x], 0, None),
        sensor_read(quiet, [x], 0, 1.7),
        sensor_read(quiet, [x], 0, 0.0),
    ):
        assert struct.pack("<d", sensed) == expected


@pytest.mark.seeded
@given(
    x=st.floats(allow_nan=False),
    q=st.sampled_from([0.0, 0.5, 1e3, 5e-324]) | st.floats(0.0, 1e4),
    noise_std=st.sampled_from([0.0, 500.0]) | st.floats(0.0, 1e3),
    z=st.none() | st.floats(-6.0, 6.0),
)
# Signed zeros, with and without a step.
@example(x=-0.0, q=0.0, noise_std=0.0, z=None)
@example(x=-0.0, q=1e3, noise_std=0.0, z=None)
@example(x=0.0, q=1e3, noise_std=0.0, z=None)
# Ties round away from zero.
@example(x=2.5e3, q=1e3, noise_std=0.0, z=None)
@example(x=-10.25, q=0.5, noise_std=500.0, z=-1.25)
# abs(x) / q overflows, so x passes through.
@example(x=200e3, q=2.225073858507e-311, noise_std=500.0, z=0.5)
@example(x=-1e300, q=5e-324, noise_std=0.0, z=None)
def test_read_is_quantize_plus_noise(x, q, noise_std, z):
    expected = quantize(x, q)
    if noise_std > 0.0 and z is not None:
        expected += noise_std * z
    sensor = SensorModel(sample_steps=1, quantization=q, noise_std=noise_std)
    assert struct.pack("<d", sensor_read(sensor, [x], 0, z)) == struct.pack("<d", expected)


@pytest.mark.parametrize("q", [0.5, 5e-324])
def test_quantized_read_of_nan_raises_as_quantize_does(q):
    with pytest.raises(ValueError):
        quantize(math.nan, q)
    with pytest.raises(ValueError):
        sensor_read(SensorModel(sample_steps=1, quantization=q), [math.nan], 0)


def test_rejects_bad_history_and_params():
    sensor = SensorModel(sample_steps=1)
    with pytest.raises(IndexError):
        sensor_read(sensor, [], 0)
    with pytest.raises(IndexError):
        sensor_read(sensor, [1.0, 2.0], 2)
    for bad in (
        {"sample_steps": 0},
        {"sample_steps": -1},
        {"sample_steps": 1, "delay_steps": -1},
        {"sample_steps": 2.0},
        {"sample_steps": 1, "delay_steps": 0.5},
        {"sample_steps": True},
        {"sample_steps": 1, "quantization": -0.1},
        {"sample_steps": 1, "noise_std": -0.1},
        # NaN would skip rounding or noise without a word.
        {"sample_steps": 1, "quantization": math.nan},
        {"sample_steps": 1, "noise_std": math.nan},
    ):
        with pytest.raises(ValueError):
            SensorModel(**bad)
