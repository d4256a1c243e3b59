"""Reference signal generators: constant, step sequence, and chirp sine."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

CONSTANT = "constant"
STEP_SEQUENCE = "step_sequence"
CHIRP_SINE = "chirp_sine"

KINDS = (CONSTANT, STEP_SEQUENCE, CHIRP_SINE)


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
        if self.kind == STEP_SEQUENCE:
            if len(self.times) != len(self.levels) or not self.times:
                raise ValueError("step_sequence needs equal-length, non-empty times/levels")
            if not all(a <= b for a, b in zip(self.times, self.times[1:])):
                raise ValueError("step times must be non-decreasing")
            if self.times[0] != 0.0:
                raise ValueError("first step time must be 0")
        if self.kind == CHIRP_SINE:
            if not self.lo < self.hi:
                raise ValueError("chirp needs lo < hi")
            if not self.sweep_time > 0.0:
                raise ValueError("chirp sweep_time must be > 0")


def chirp_phase(ref: ReferenceSignal, t: float) -> float:
    """Chirp phase in radians; the instantaneous frequency is its derivative
    over 2*pi: f0 + (f1 - f0) * t / sweep_time while sweeping, f1 after."""
    T = ref.sweep_time
    if t <= T:
        return 2.0 * math.pi * (ref.f0 * t + (ref.f1 - ref.f0) * t * t / (2.0 * T))
    phase_end = 2.0 * math.pi * (ref.f0 * T + (ref.f1 - ref.f0) * T / 2.0)
    return phase_end + 2.0 * math.pi * ref.f1 * (t - T)


def reference_eval(ref: ReferenceSignal, t: float) -> float:
    """Reference value at time t >= 0."""
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t}")
    if ref.kind == CHIRP_SINE:
        mid = 0.5 * (ref.lo + ref.hi)
        amp = 0.5 * (ref.hi - ref.lo)
        return mid + amp * math.sin(chirp_phase(ref, t))
    if ref.kind == STEP_SEQUENCE:
        return ref.levels[bisect_right(ref.times, t) - 1]
    return ref.value
