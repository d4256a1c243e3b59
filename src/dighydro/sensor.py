"""Delayed, sampled, quantized sensor model.

Stands in for both the CAN-connected pressure measurement and the vision
tip tracker. Timing is counted in whole simulation steps: the sensed value at
step k is the true value at the latest sample step no later than
k - delay_steps, on a sample grid anchored at step 0 with spacing
sample_steps, rounded to the sensor's quantization step, with optional
additive Gaussian noise. A read at step k looks only at values[:k + 1].

A read takes its noise as a standard-normal draw `z` from the caller, who
owns the random stream; the engine draws a whole run's noise at once (see
`sim`).

`quantize` stays the public single-step definition of the rounding.
`sensor_read` inlines it on the per-step path; a property test holds a read
bit for bit to `quantize` plus noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class SensorModel:
    """sample_steps (>= 1) and delay_steps (>= 0) in whole simulation steps;
    quantization and noise_std in the units of the measured signal (0
    disables either)."""

    sample_steps: int
    delay_steps: int = 0
    quantization: float = 0.0
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sample_steps", "delay_steps"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.sample_steps < 1:
            raise ValueError("sample_steps must be >= 1")
        if self.delay_steps < 0:
            raise ValueError("delay_steps must be >= 0")
        # Written so that NaN fails too: a NaN step or spread would skip
        # rounding or noise without a word. An infinite one makes reads NaN,
        # as floor(abs(x) / inf + 0.5) * inf and inf * 0.0 are.
        for name in ("quantization", "noise_std"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def quantize(x: float, q: float) -> float:
    """Round to the nearest multiple of q, ties away from zero; q = 0 is identity.
    So is a q too fine for abs(x) / q to be finite: x is then already a
    multiple of q as far as a float can tell."""
    if q <= 0.0:
        return x
    steps = abs(x) / q
    if steps == math.inf:
        return x
    return math.copysign(math.floor(steps + 0.5), x) * q


def sensor_read(
    sensor: SensorModel,
    values: Sequence[float],
    k: int,
    z: float | None = None,
) -> float:
    """Sensed value at step k given the true signal per step, values[i] at
    step i. Reads earlier than the delay return values[0]. With noise_std > 0
    and a standard-normal draw z, noise_std * z is added to the quantized
    value; otherwise that value is returned as it is."""
    j = k - sensor.delay_steps
    out = values[j - j % sensor.sample_steps] if j > 0 else values[0]
    q = sensor.quantization
    if q > 0.0:
        # quantize(out, q), inlined.
        steps = abs(out) / q
        if steps != math.inf:
            out = math.copysign(math.floor(steps + 0.5), out) * q
    if sensor.noise_std > 0.0 and z is not None:
        out += sensor.noise_std * z
    return out
