"""Delayed, sampled, quantized sensor model.

Stands in for both the CAN-connected pressure measurement and the vision
tip tracker: the sensed value at time t is the true value at the latest
sample instant no later than t - transport_delay, rounded to the sensor's
quantization step, with optional additive Gaussian noise.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class SensorModel:
    """sample_period and transport_delay in seconds; quantization and
    noise_std in the units of the measured signal (0 disables either)."""

    sample_period: float
    transport_delay: float = 0.0
    quantization: float = 0.0
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if self.sample_period <= 0.0:
            raise ValueError("sample_period must be > 0")
        if self.transport_delay < 0.0 or self.quantization < 0.0 or self.noise_std < 0.0:
            raise ValueError("transport_delay, quantization, noise_std must be >= 0")


def quantize(x: float, q: float) -> float:
    """Round to the nearest multiple of q, ties away from zero; q = 0 is identity."""
    if q <= 0.0:
        return x
    return math.copysign(math.floor(abs(x) / q + 0.5), x) * q


def sensor_read(
    sensor: SensorModel,
    times: Sequence[float],
    values: Sequence[float],
    t: float,
    rng: np.random.Generator | None = None,
) -> float:
    """Sensed value at time t given the true signal history (times, values).

    Reads earlier than the transport delay return the first recorded value.
    The sample grid is anchored at t = 0 with spacing sample_period.
    """
    if len(times) != len(values) or not len(times):
        raise ValueError("times and values must be equal-length and non-empty")
    sample_t = math.floor((t - sensor.transport_delay) / sensor.sample_period + 1e-9)
    sample_t *= sensor.sample_period
    if sample_t <= times[0]:
        raw = values[0]
    else:
        idx = bisect_right(times, sample_t + 1e-12) - 1
        raw = values[idx]
    out = quantize(raw, sensor.quantization)
    if sensor.noise_std > 0.0 and rng is not None:
        out += sensor.noise_std * rng.standard_normal()
    return out
