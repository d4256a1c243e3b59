"""Elastomer tube models.

The tube itself is compliance-only: pressure is a linear function of the
fluid volume inside it. The bending tip is described by a static affine
pressure-to-position map, optionally preceded by a play (backlash) operator
so that up-sweeps and down-sweeps trace different branches, which is how the
drive exhibits its pressure/position hysteresis loop.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TubeModelLinear:
    """Linear volume-to-pressure map: p = c_a * v (c_a in Pa/m^3)."""

    c_a: float

    def __post_init__(self) -> None:
        if not self.c_a > 0.0:
            raise ValueError(f"c_a must be > 0, got {self.c_a}")


def tube_pressure(model: TubeModelLinear, v: float) -> float:
    """Tube pressure in Pa for a fluid volume v in m^3."""
    if v < 0.0:
        raise ValueError(f"fluid volume must be >= 0, got {v}")
    return model.c_a * v


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
        if self.gain < 0.0:
            raise ValueError(f"gain must be >= 0, got {self.gain}")
        if self.play_width < 0.0:
            raise ValueError(f"play_width must be >= 0, got {self.play_width}")
        if self.sat_lo > self.sat_hi:
            raise ValueError("saturation bounds must satisfy sat_lo <= sat_hi")


def play_update(play_out: float, p: float, width: float) -> float:
    """Advance the play operator; `play_out` is the lagged effective pressure.

    The operator output follows the input once the input has moved more than
    `width` away from it, i.e. it is the rate-independent backlash primitive.
    The invariant |p - play_out| <= width holds after every update.
    """
    return min(max(play_out, p - width), p + width)


def tip_position(tmap: TipPositionMap, p: float, play_out: float) -> tuple[float, float]:
    """Tip Y position in mm for pressure p, given the play operator state.

    Returns (tip_y, new_play_out). With play_width = 0 the play operator is
    the identity and the map reduces to clamp(gain * p + offset).
    """
    if p < 0.0:
        raise ValueError(f"pressure must be >= 0, got {p}")
    w = play_update(play_out, p, tmap.play_width)
    y = tmap.gain * w + tmap.offset
    y = min(max(y, tmap.sat_lo), tmap.sat_hi)
    return y, w
