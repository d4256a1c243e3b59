"""Elastomer tube models.

The tube itself is compliance-only: pressure is a linear function of the
fluid volume inside it. The bending tip is described by a static affine
pressure-to-position map, optionally preceded by a play (backlash) operator
so that up-sweeps and down-sweeps trace different branches, which is how the
drive exhibits its pressure/position hysteresis loop.

`tip_position` is the one definition of the play operator, whose output
follows the input once the input has moved more than the play width away;
a differential test holds it bit for bit to the seed copy's composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class TubeModelLinear:
    """Linear volume-to-pressure map: p = c_a * v (c_a in Pa/m^3)."""

    c_a: float

    def __post_init__(self) -> None:
        # An infinite compliance turns an empty tube's pressure into inf * 0.0.
        if not 0.0 < self.c_a < math.inf:
            raise ValueError(f"c_a must be finite and > 0, got {self.c_a}")


@dataclass(frozen=True)
class TipPositionMap:
    """Static pressure-to-tip-position map with optional backlash.

    gain (mm/Pa) and offset (mm) define the affine branch; the output is
    clamped to [sat_lo, sat_hi]. play_width (Pa) is the half-width of the
    play operator applied to the pressure before the affine map; zero width
    makes the map single-valued.
    """

    gain: float
    offset: float = 0.0
    sat_lo: float = float("-inf")
    sat_hi: float = float("inf")
    play_width: float = 0.0

    def __post_init__(self) -> None:
        if not self.gain >= 0.0:
            raise ValueError(f"gain must be >= 0, got {self.gain}")
        if math.isnan(self.offset):
            raise ValueError("offset must not be NaN")
        if not self.play_width >= 0.0:
            raise ValueError(f"play_width must be >= 0, got {self.play_width}")
        if not self.sat_lo <= self.sat_hi:
            raise ValueError("saturation bounds must satisfy sat_lo <= sat_hi")


def tip_position(tmap: TipPositionMap, p: float, play_out: float) -> tuple[float, float]:
    """Tip Y position in mm for pressure p, given the play operator state.

    Returns (tip_y, new_play_out). With play_width = 0 the play operator is
    the identity and the map reduces to clamp(gain * p + offset).
    """
    if p < 0.0:
        raise ValueError(f"pressure must be >= 0, got {p}")
    # The play operator, min(max(play_out, p - width), p + width), and the
    # saturation clamp: `b if b > a else a` is exactly max(a, b) and
    # `b if b < a else a` exactly min(a, b), NaN and signed zeros included.
    width = tmap.play_width
    lo = p - width
    w = lo if lo > play_out else play_out
    hi = p + width
    w = hi if hi < w else w
    y = tmap.gain * w + tmap.offset
    lo = tmap.sat_lo
    y = lo if lo > y else y
    hi = tmap.sat_hi
    return (hi if hi < y else y), w
