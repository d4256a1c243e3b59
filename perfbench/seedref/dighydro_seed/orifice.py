"""Sharp-edged orifice flow with a smoothed small-difference branch.

Above the transition pressure difference the flow follows the turbulent
square-root law; below it a polynomial branch takes over that matches both
value and slope at the transition, so the derivative stays finite through
zero pressure difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class OrificeModel:
    """Flow factor and transition pressure of one on/off valve orifice.

    k_v:  flow factor, m^3/(s*sqrt(Pa))
    p_tr: transition pressure difference, Pa. Must be > 0: the smoothed
          branch divides by sqrt(p_tr), so a zero transition is rejected.
    """

    k_v: float
    p_tr: float

    def __post_init__(self) -> None:
        if not self.k_v > 0.0:
            raise ValueError(f"k_v must be > 0, got {self.k_v}")
        if not self.p_tr > 0.0:
            raise ValueError(f"p_tr must be > 0, got {self.p_tr}")


def flow_factor(q_nom: float, dp_nom: float) -> float:
    """Flow factor from a nominal operating point: Q_nom / sqrt(dp_nom)."""
    if q_nom <= 0.0 or dp_nom <= 0.0:
        raise ValueError("nominal flow and pressure difference must be > 0")
    return q_nom / math.sqrt(dp_nom)


def orifice_flow(model: OrificeModel, opening: float, p1: float, p2: float) -> float:
    """Volume flow in m^3/s through the orifice, positive from port 1 to port 2.

    `opening` scales the flow linearly and must lie in [0, 1]; it is the
    armature position when the orifice sits behind an on/off valve.
    """
    if not 0.0 <= opening <= 1.0:
        raise ValueError(f"opening must be in [0, 1], got {opening}")
    if not (math.isfinite(p1) and math.isfinite(p2)):
        raise ValueError(f"pressures must be finite, got p1={p1}, p2={p2}")
    dp = p1 - p2
    abs_dp = abs(dp)
    if abs_dp > model.p_tr:
        return opening * model.k_v * math.copysign(math.sqrt(abs_dp), dp)
    return (
        opening
        * model.k_v
        * dp
        / (2.0 * math.sqrt(model.p_tr))
        * (3.0 - abs_dp / model.p_tr)
    )
