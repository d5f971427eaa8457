"""High-temperature series and zero-temperature limits of the four branches.

The coefficients are hard-coded from the printed expansions rather than derived
from the exact formulas, so they act as an independent asymptotic check on the
closed forms in :mod:`qxcorr.correlations`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .xmodel import XStateParams

__all__ = [
    "SeriesValue",
    "IndeterminateZeroTemperatureLimit",
    "SERIES_MAX_ORDER",
    "high_t_series",
    "zero_t_limit",
]

#: highest available power of 1/T per branch
SERIES_MAX_ORDER = {"F0": 4, "F1": 3, "U0": 4, "U1": 3}

#: hypersurface R1 = R2 + 2 Jz where the zero-temperature limit is undefined
DEGENERATE_SURFACE_TOL = 1e-12


@dataclass(frozen=True)
class SeriesValue:
    """A truncated 1/T expansion value and the highest included power."""

    value: float
    order: int


class IndeterminateZeroTemperatureLimit(ValueError):
    """Raised on the hypersurface R1 = R2 + 2 Jz, where the two asymptotic
    ground sectors are degenerate and the limit value is not defined."""


def _radii(p: XStateParams) -> tuple[float, float]:
    return math.hypot(p.r1, p.B1 + p.B2), math.hypot(p.r2, p.B1 - p.B2)


def high_t_series(p: XStateParams, which: str, order: int | None = None) -> SeriesValue:
    """Truncated high-temperature expansion of one branch.

    ``order`` selects the highest included power of 1/T (2, 3, or additionally
    4 for the 0-branches); by default the full printed series is used.
    """
    if which not in SERIES_MAX_ORDER:
        raise ValueError(f"unknown branch {which!r}; expected one of F0, F1, U0, U1")
    max_order = SERIES_MAX_ORDER[which]
    if order is None:
        order = max_order
    if order not in range(2, max_order + 1):
        raise ValueError(f"order for {which} must be in 2..{max_order}, got {order}")

    R1, R2 = _radii(p)
    r1sq, r2sq = p.r1 * p.r1, p.r2 * p.r2
    if which == "F0":
        coeffs = {
            2: 0.5 * (r1sq + r2sq),
            3: 0.5 * (r2sq - r1sq) * p.Jz,
            4: -((5.0 * r1sq + 3.0 * r2sq) * R1 * R1 + (3.0 * r1sq + 5.0 * r2sq) * R2 * R2) / 24.0,
        }
    elif which == "U0":
        coeffs = {
            2: 0.25 * (r1sq + r2sq),
            3: 0.25 * (r2sq - r1sq) * p.Jz,
            4: -((2.0 * r1sq + 3.0 * r2sq) * R1 * R1 + (3.0 * r1sq + 2.0 * r2sq) * R2 * R2) / 48.0,
        }
    elif which == "F1":
        coeffs = {
            2: (4.0 * p.B1 * p.B1 + 4.0 * p.Jz * p.Jz + (p.r1 - p.r2) ** 2) / 4.0,
            3: 0.5 * (R2 * R2 - R1 * R1) * p.Jz,
        }
    else:  # U1
        coeffs = {
            2: (4.0 * p.B1 * p.B1 + 4.0 * p.Jz * p.Jz + (p.r1 - p.r2) ** 2) / 8.0,
            3: 0.25 * (R2 * R2 - R1 * R1) * p.Jz,
        }

    value = 0.0
    for k in range(2, order + 1):
        value += coeffs[k] / p.T**k
    return SeriesValue(value=value, order=order)


def zero_t_limit(p: XStateParams, which: str) -> float:
    """Zero-temperature value of a branch (temperature field of ``p`` unused).

    The 0-branches tend to (r1/R1)^2 or (r2/R2)^2 depending on which level
    sector wins at low temperature; the 1-branch of LQU saturates at 1.  Within
    ``DEGENERATE_SURFACE_TOL`` of the hypersurface R1 = R2 + 2 Jz the limit is
    undefined and :class:`IndeterminateZeroTemperatureLimit` is raised.
    """
    if which not in ("F0", "U0", "U1"):
        raise ValueError(f"zero-temperature limit is defined for F0, U0, U1; got {which!r}")
    R1, R2 = _radii(p)
    gap = R1 - (R2 + 2.0 * p.Jz)
    if abs(gap) < DEGENERATE_SURFACE_TOL:
        raise IndeterminateZeroTemperatureLimit(
            f"R1 - (R2 + 2*Jz) = {gap!r} lies on the degenerate hypersurface"
        )
    if which == "U1":
        return 1.0
    if gap > 0.0:
        return (p.r1 / R1) ** 2 if R1 > 0.0 else 0.0
    return (p.r2 / R2) ** 2 if R2 > 0.0 else 0.0
