"""Reference signal generators: constant, step sequence, and chirp sine.

`chirp_phase` stays the public single-step definition of the chirp phase.
`reference_eval` inlines its sweep branch (t <= sweep_time) on the per-step
path; a differential test holds both branches bit for bit to the plain path.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

CONSTANT = "constant"
STEP_SEQUENCE = "step_sequence"
CHIRP_SINE = "chirp_sine"

KINDS = (CONSTANT, STEP_SEQUENCE, CHIRP_SINE)

# 2.0 * math.pi * x multiplies left to right, so this is the same product.
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ReferenceSignal:
    """One reference signal. Only the fields of the selected kind are used.

    constant:      `value`
    step_sequence: right-continuous steps, `levels[i]` holds on
                   [times[i], times[i+1])
    chirp_sine:    sine between `lo` and `hi` whose frequency ramps linearly
                   from f0 to f1 over `sweep_time`, then holds f1
    """

    kind: str = CONSTANT
    value: float = 0.0
    times: tuple[float, ...] = (0.0,)
    levels: tuple[float, ...] = (0.0,)
    f0: float = 0.0
    f1: float = 1.0
    lo: float = 150e3
    hi: float = 250e3
    sweep_time: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown reference kind {self.kind!r}")
        if self.kind == CONSTANT and math.isnan(self.value):
            raise ValueError("constant value must not be NaN")
        if self.kind == STEP_SEQUENCE:
            if len(self.times) != len(self.levels) or not self.times:
                raise ValueError("step_sequence needs equal-length, non-empty times/levels")
            if not all(a <= b for a, b in zip(self.times, self.times[1:])):
                raise ValueError("step times must be non-decreasing")
            if self.times[0] != 0.0:
                raise ValueError("first step time must be 0")
            if any(math.isnan(level) for level in self.levels):
                raise ValueError("step levels must not be NaN")
        if self.kind == CHIRP_SINE:
            if not self.lo < self.hi:
                raise ValueError("chirp needs lo < hi")
            if not self.sweep_time > 0.0:
                raise ValueError("chirp sweep_time must be > 0")
            if math.isnan(self.f0) or math.isnan(self.f1):
                raise ValueError("chirp f0 and f1 must not be NaN")


def chirp_phase(ref: ReferenceSignal, t: float) -> float:
    """Chirp phase in radians; the instantaneous frequency is its derivative
    over 2*pi: f0 + (f1 - f0) * t / sweep_time while sweeping, f1 after."""
    T = ref.sweep_time
    if t <= T:
        return _TWO_PI * (ref.f0 * t + (ref.f1 - ref.f0) * t * t / (2.0 * T))
    phase_end = _TWO_PI * (ref.f0 * T + (ref.f1 - ref.f0) * T / 2.0)
    return phase_end + _TWO_PI * ref.f1 * (t - T)


def reference_eval(ref: ReferenceSignal, t: float) -> float:
    """Reference value at time t >= 0."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if ref.kind == CHIRP_SINE:
        T = ref.sweep_time
        if t <= T:
            # chirp_phase's sweep branch, inlined.
            phase = _TWO_PI * (ref.f0 * t + (ref.f1 - ref.f0) * t * t / (2.0 * T))
        else:
            phase = chirp_phase(ref, t)
        return 0.5 * (ref.lo + ref.hi) + 0.5 * (ref.hi - ref.lo) * math.sin(phase)
    if ref.kind == STEP_SEQUENCE:
        return ref.levels[bisect_right(ref.times, t) - 1]
    return ref.value
