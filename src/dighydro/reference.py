"""Reference signal generators: constant, step sequence, and chirp sine.

`reference_column` gives the values over a whole non-decreasing time column
at once, so that the engine builds a run's reference before its loop. The
chirp phase's sweep (t <= sweep_time) and hold branches are each written
once, for a float t or an array alike: `chirp_phase` applies one to a time,
the column both to slices in numpy, taking each sine with `math.sin` (a
vectorised sine need not match libm), and `chirp_phase_bound`, by which a
config refuses a phase that can overflow, both to absolute coefficients.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

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


def _coefficients(ref: ReferenceSignal) -> tuple[float, float, float, float]:
    return ref.f0, ref.f1 - ref.f0, ref.f1, ref.sweep_time


def _sweep_phase(f0, df, f1, T, t):
    """The chirp phase while sweeping, t <= T."""
    return _TWO_PI * (f0 * t + df * t * t / (2.0 * T))


def _hold_phase(f0, df, f1, T, t):
    """The chirp phase after the sweep, t > T: the phase at T, then f1."""
    return _TWO_PI * (f0 * T + df * T / 2.0) + _TWO_PI * f1 * (t - T)


def chirp_phase(ref: ReferenceSignal, t: float) -> float:
    """Chirp phase in radians; the instantaneous frequency is its derivative
    over 2*pi: f0 + (f1 - f0) * t / sweep_time while sweeping, f1 after."""
    branch = _sweep_phase if t <= ref.sweep_time else _hold_phase
    return branch(*_coefficients(ref), t)


def chirp_phase_bound(ref: ReferenceSignal, t: float) -> float:
    """A bound on abs(chirp_phase(ref, x)) over 0 <= x <= t, not finite
    wherever such a phase may not be: the phase's own two branches on
    abs(f0), abs(f1 - f0), abs(f1) and sweep_time > 0. IEEE rounding is
    monotone, so each result bounds the magnitude of its counterpart, and
    each branch grows with x."""
    c = tuple(map(abs, _coefficients(ref)))
    sweep = _sweep_phase(*c, min(t, ref.sweep_time))
    # After the sweep, t > sweep_time > 0, so neither branch is NaN.
    return sweep if t <= ref.sweep_time else max(sweep, _hold_phase(*c, t))


def reference_column(ref: ReferenceSignal, t: np.ndarray) -> np.ndarray:
    """The reference value at each of the non-decreasing times t >= 0, as a
    float64 array. No list of Python floats is built."""
    t = np.asarray(t, dtype=float)
    n = len(t)
    if n and t[0] < 0.0:
        raise ValueError(f"t must be >= 0, got {t[0]}")
    if ref.kind == CHIRP_SINE:
        # t is sorted, so the sweeping rows are a prefix.
        j = bisect_right(t, ref.sweep_time)
        c = _coefficients(ref)
        # An overflowing phase is left to math.sin to refuse.
        with np.errstate(over="ignore", invalid="ignore"):
            phase = np.concatenate((_sweep_phase(*c, t[:j]), _hold_phase(*c, t[j:])))
        col = np.fromiter(map(math.sin, memoryview(phase)), float, n)
        # mid + amp * sin, in place; IEEE * and + commute.
        col *= 0.5 * (ref.hi - ref.lo)
        col += 0.5 * (ref.lo + ref.hi)
        return col
    if ref.kind == STEP_SEQUENCE:
        # Level i holds from the first row at or after times[i]; a later
        # step at the same time takes over at once, as bisect_right does.
        starts = [bisect_left(t, x) for x in ref.times]
        return np.repeat(np.asarray(ref.levels, dtype=float), np.diff(starts, append=n))
    return np.full(n, ref.value, dtype=float)
