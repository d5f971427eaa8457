"""Parameter sweeps, sudden-transition location, and the zero-field boundary.

A sudden transition is a kink in a correlation measure where the active branch
changes while the branches themselves stay smooth.  Crossings are bracketed on
a uniform grid of the branch difference and then bisected; bisection acts on
the smooth difference, not on the kinked minimum.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .correlations import BranchPair, lqfi_thermal, lqu_thermal
from .xmodel import XStateParams

__all__ = [
    "SweepSpec",
    "SweepRow",
    "TransitionPoint",
    "BoundaryClassification",
    "SWEEP_VARIABLES",
    "sweep",
    "find_transitions",
    "bell_diagonal_boundary",
]

SWEEP_VARIABLES = ("T", "B1", "B2", "r1", "r2", "Jz")

#: final bracket half-width for transition bisection (far below the 1e-8
#: reporting requirement, so located points are grid-independent)
BISECTION_WIDTH = 1e-12

# Sign changes whose endpoint magnitudes both sit below this floor are
# float dust from saturated (branch0 == branch1) regions, not crossings; a
# transversal crossing on any reasonable grid clears it by many orders.
GAP_NOISE_FLOOR = 1e-12

_BOUNDARY_LINE_TOL = 1e-12


@dataclass(frozen=True)
class SweepSpec:
    """A uniform scan of one reduced parameter over [start, stop]."""

    base: XStateParams
    variable: str
    start: float
    stop: float
    points: int = 300

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("sweep endpoints must be finite")
        if not self.start < self.stop:
            raise ValueError(f"empty sweep range [{self.start!r}, {self.stop!r}]")
        if self.points < 2:
            raise ValueError(f"need at least two grid points, got {self.points}")
        if self.variable == "T" and self.start <= 0.0:
            raise ValueError("temperature sweeps must start above zero")
        if self.variable in ("r1", "r2") and self.start < 0.0:
            raise ValueError("radius sweeps must stay nonnegative")

    def grid(self) -> list[float]:
        step = (self.stop - self.start) / (self.points - 1)
        return [self.start + i * step for i in range(self.points)]


@dataclass(frozen=True)
class SweepRow:
    """Both measures and their branches at one grid point."""

    x: float
    f0: float
    f1: float
    f: float
    f_branch: str
    u0: float
    u1: float
    u: float
    u_branch: str


@dataclass(frozen=True)
class TransitionPoint:
    """A located branch crossing of one measure along the swept variable."""

    measure: str
    location: float
    bracket: tuple[float, float]
    residual: float


@dataclass(frozen=True)
class BoundaryClassification:
    """Position of a zero-field parameter point relative to r1 + r2 = 2|Jz|,
    with the (temperature-independent) active branches of both measures."""

    side: str  # "above", "below", or "boundary"
    lqfi_branch: str
    lqu_branch: str


def _at(base: XStateParams, variable: str, value: float) -> XStateParams:
    return dataclasses.replace(base, **{variable: value})


def _row(base: XStateParams, variable: str, value: float) -> SweepRow:
    p = _at(base, variable, value)
    f = lqfi_thermal(p)
    u = lqu_thermal(p)
    return SweepRow(
        x=value,
        f0=f.branch0,
        f1=f.branch1,
        f=f.value,
        f_branch=f.active,
        u0=u.branch0,
        u1=u.branch1,
        u=u.value,
        u_branch=u.active,
    )


def _grid_rows(spec: SweepSpec) -> list[SweepRow]:
    """Rows for every grid point, in grid order, evaluated in this process."""
    return [_row(spec.base, spec.variable, value) for value in spec.grid()]


def sweep(spec: SweepSpec, jobs: int = 1) -> list[SweepRow]:
    """Evaluate the thermal closed forms on the grid, in grid order.

    ``jobs`` is accepted for compatibility and ignored: every grid is
    evaluated in this process.
    """
    return _grid_rows(spec)


def _branch_gap(base: XStateParams, variable: str, measure: str, value: float) -> float:
    p = _at(base, variable, value)
    pair: BranchPair = lqfi_thermal(p) if measure == "LQFI" else lqu_thermal(p)
    return pair.branch0 - pair.branch1


def _bisect_crossing(
    base: XStateParams, variable: str, measure: str, lo: float, hi: float
) -> TransitionPoint:
    flo = _branch_gap(base, variable, measure, lo)
    a, b = lo, hi
    while b - a > BISECTION_WIDTH:
        mid = 0.5 * (a + b)
        fmid = _branch_gap(base, variable, measure, mid)
        if flo * fmid <= 0.0:
            b = mid
        else:
            a, flo = mid, fmid
    location = 0.5 * (a + b)
    return TransitionPoint(
        measure=measure,
        location=location,
        bracket=(a, b),
        residual=abs(_branch_gap(base, variable, measure, location)),
    )


def find_transitions(spec: SweepSpec, jobs: int = 1) -> list[TransitionPoint]:
    """Locate every branch crossing of both measures on the sweep range.

    The grid is scanned for sign changes of the (smooth) branch difference;
    each bracket is bisected down to ``BISECTION_WIDTH``.  Tangential contacts
    without a sign change are not reported.  Results are ordered by location.
    ``jobs`` is accepted for compatibility and ignored, as in ``sweep``.
    """
    grid = spec.grid()
    rows = _grid_rows(spec)

    found: list[TransitionPoint] = []
    for measure in ("LQFI", "LQU"):
        gaps = [r.f0 - r.f1 if measure == "LQFI" else r.u0 - r.u1 for r in rows]
        for i in range(len(grid) - 1):
            if gaps[i] * gaps[i + 1] < 0.0 and max(abs(gaps[i]), abs(gaps[i + 1])) > GAP_NOISE_FLOOR:
                found.append(_bisect_crossing(spec.base, spec.variable, measure, grid[i], grid[i + 1]))
        for i in range(1, len(grid) - 1):
            # an exact zero at a grid point counts only when the signs flip around it
            if (
                gaps[i] == 0.0
                and gaps[i - 1] * gaps[i + 1] < 0.0
                and max(abs(gaps[i - 1]), abs(gaps[i + 1])) > GAP_NOISE_FLOOR
            ):
                found.append(
                    TransitionPoint(measure=measure, location=grid[i], bracket=(grid[i], grid[i]), residual=0.0)
                )
    found.sort(key=lambda t: t.location)
    return found


def bell_diagonal_boundary(
    p: XStateParams, temperatures: tuple[float, ...] = (0.05, 0.5, 5.0, 50.0)
) -> BoundaryClassification:
    """Classify a zero-field point against the line r1 + r2 = 2|Jz|.

    Off the line, the active branch of each measure is independent of
    temperature.  This is checked on the sampled ``temperatures``: every point
    where the branches are resolved must select the same branch (saturated
    points, where both branches coincide at double precision, are compatible
    with either label and are skipped).  A RuntimeError signals a violation,
    which would be a numerical problem, not physics.
    """
    if p.B1 != 0.0 or p.B2 != 0.0:
        raise ValueError("boundary classification applies to zero-field states only")
    offset = p.r1 + p.r2 - 2.0 * abs(p.Jz)
    if abs(offset) < _BOUNDARY_LINE_TOL:
        return BoundaryClassification(side="boundary", lqfi_branch="boundary", lqu_branch="boundary")

    f_labels = set()
    u_labels = set()
    for t in temperatures:
        pt = dataclasses.replace(p, T=t)
        f_labels.add(lqfi_thermal(pt).active)
        u_labels.add(lqu_thermal(pt).active)
    f_labels.discard("boundary")
    u_labels.discard("boundary")
    if len(f_labels) != 1 or len(u_labels) != 1:
        raise RuntimeError(
            f"active branch off the boundary line is not temperature-independent: "
            f"LQFI={sorted(f_labels)}, LQU={sorted(u_labels)}"
        )
    return BoundaryClassification(
        side="above" if offset > 0.0 else "below",
        lqfi_branch=f_labels.pop(),
        lqu_branch=u_labels.pop(),
    )
