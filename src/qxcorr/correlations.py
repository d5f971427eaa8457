"""Closed-form LQFI and LQU for dephased X matrices and for thermal parameters.

Both measures reduce to 1 - max of two candidate eigenvalues of a 3x3 moment
matrix, which yields two analytic branches per measure:

* branch 0 comes from the zz moment,
* branch 1 from the xx moment (the yy moment never wins),

and the measure is the pointwise minimum of the branches.  Each moment has a
simplified matrix-element form, a raw spectral-sum form kept as an internal
cross-check, and a direct thermal form in the reduced parameters
(Jz, r1, r2, B1, B2, T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import oracle_w_matrix, spectral_moments
from .xalgebra import eigenframe, local_spin_in_eigenbasis, spectrum
from .xmodel import XMatrix, XStateParams, _shifted_weights, dephase, gibbs_xstate, realize

__all__ = [
    "MomentDiagonal",
    "BranchPair",
    "BOUNDARY_TOL",
    "m_eigenvalues",
    "m_eigenvalues_raw",
    "w_eigenvalues",
    "w_eigenvalues_raw",
    "lqfi_x",
    "lqu_x",
    "lqfi_thermal",
    "lqu_thermal",
    "thermal_xmatrix",
]

# Two branch values closer than this are reported as sitting on the boundary.
BOUNDARY_TOL = 1e-10

# A block with total population below this holds no state weight; its terms
# vanish identically (positivity forces the coherence to vanish with it).
_EMPTY_BLOCK = 1e-14

_RATIO_DEN_TOL = 1e-14
_RATIO_NUM_TOL = 1e-12


@dataclass(frozen=True)
class MomentDiagonal:
    """Diagonal entries of a Fisher or skew-information moment matrix; xx >= yy always."""

    xx: float
    yy: float
    zz: float

    @classmethod
    def of(cls, k: np.ndarray) -> "MomentDiagonal":
        """The diagonal of a 3x3 moment matrix."""
        return cls(xx=float(k[0, 0]), yy=float(k[1, 1]), zz=float(k[2, 2]))


@dataclass(frozen=True)
class BranchPair:
    """Both analytic branches of a measure plus the selected minimum.

    ``active`` is "0", "1", or "boundary" when the branches agree within
    ``BOUNDARY_TOL``.
    """

    branch0: float
    branch1: float
    value: float
    active: str

    @classmethod
    def from_branches(cls, branch0: float, branch1: float) -> "BranchPair":
        """Clip both branches to [0, 1] and label the smaller one.

        A non-finite branch (overflow or cancellation far outside the unit
        energy scale) raises ValueError instead of yielding a ``nan`` value.
        """
        if not (math.isfinite(branch0) and math.isfinite(branch1)):
            raise ValueError(f"non-finite branch: branch0={branch0!r}, branch1={branch1!r}")
        b0 = _clip01(branch0)
        b1 = _clip01(branch1)
        if abs(b0 - b1) < BOUNDARY_TOL:
            active = "boundary"
        elif b0 < b1:
            active = "0"
        else:
            active = "1"
        return cls(branch0=b0, branch1=b1, value=min(b0, b1), active=active)


def _clip01(value: float) -> float:
    # float dust only; the formulas are bounded to [0, 1] for valid states
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


# ---------------------------------------------------------------------------
# matrix-element forms
# ---------------------------------------------------------------------------


def _transverse_moment_scale(p1: float, p2: float, p3: float, p4: float) -> float:
    """Shared weight of the xx/yy Fisher moments from block eigenvalues.

    The moments equal 4 * numerator_core * scale with

        scale = [(p1+p2) p3 p4 + (p3+p4) p1 p2] / [(p1+p3)(p1+p4)(p2+p3)(p2+p4)]

    (the flat denominator of the printed forms factorizes into the four cross
    sums).  Every factor is a nonnegative sum, so the evaluation is free of
    cancellation; when both minor eigenvalues vanish the expression collapses
    to its exact limit 1/(p1+p3), which also covers underflowed occupations
    near level degeneracies.
    """
    if p1 + p2 <= _EMPTY_BLOCK or p3 + p4 <= _EMPTY_BLOCK:
        # the state lives in a single anti-diagonal block; sigma_x/sigma_y only
        # connect across blocks, so both transverse moments vanish
        return 0.0
    if p2 + p4 <= _EMPTY_BLOCK:
        return 4.0 / (p1 + p3)
    pair_products = (p1 + p3) * (p1 + p4) * (p2 + p3) * (p2 + p4)
    weight = (p1 + p2) * p3 * p4 + (p3 + p4) * p1 * p2
    return 4.0 * weight / pair_products


def m_eigenvalues(x: XMatrix) -> MomentDiagonal:
    """Simplified closed forms for the Fisher moment diagonal, from ``spectrum(x)``.

    Exactly empty blocks contribute zero to the zz entry; the transverse
    entries run through the guarded factored weight shared with the thermal
    route.
    """
    s = spectrum(x)
    u = abs(x.u)
    v = abs(x.v)
    ad = x.a + x.d
    bc = x.b + x.c

    zz = 1.0
    if ad > _EMPTY_BLOCK:
        zz -= 4.0 * u * u / ad
    if bc > _EMPTY_BLOCK:
        zz -= 4.0 * v * v / bc

    core = x.a * x.c + x.b * x.d + s.p1 * s.p2 + s.p3 * s.p4
    cross = 2.0 * u * v
    scale = _transverse_moment_scale(s.p1, s.p2, s.p3, s.p4)
    return MomentDiagonal(xx=(core + cross) * scale, yy=(core - cross) * scale, zz=zz)


class _OracleFallback(Exception):
    """Raised when a degenerate ratio has a non-vanishing numerator."""


def _degenerate_ratio(num: float, den: float) -> float:
    """num/den with the valid-state degenerate limit.

    Positivity ties each numerator to its denominator, so both vanish together
    on valid states and the limit is exactly zero.  A large numerator over a
    vanishing denominator signals an invalid input and defers to the generic
    spectral route.
    """
    if den >= _RATIO_DEN_TOL:
        return num / den
    if abs(num) < _RATIO_NUM_TOL:
        return 0.0
    raise _OracleFallback


def w_eigenvalues(x: XMatrix) -> MomentDiagonal:
    """Simplified closed forms for the skew moment diagonal, from ``spectrum(x)``."""
    s = spectrum(x)
    u = abs(x.u)
    v = abs(x.v)
    sp12 = math.sqrt(s.p1) + math.sqrt(s.p2)
    sp34 = math.sqrt(s.p3) + math.sqrt(s.p4)
    base = sp12 * sp34
    num = (x.b - x.c) * (x.d - x.a)
    try:
        xx = base + _degenerate_ratio(num + 4.0 * u * v, base)
        yy = base + _degenerate_ratio(num - 4.0 * u * v, base)
        zz = 0.5 * (
            sp12 * sp12
            + sp34 * sp34
            + _degenerate_ratio((x.d - x.a) ** 2 - 4.0 * u * u, sp12 * sp12)
            + _degenerate_ratio((x.b - x.c) ** 2 - 4.0 * v * v, sp34 * sp34)
        )
    except _OracleFallback:
        return MomentDiagonal.of(oracle_w_matrix(x.as_matrix()))
    return MomentDiagonal(xx=xx, yy=yy, zz=zz)


def _frame_eigenvalues_and_spins(x: XMatrix):
    """Frame-diagonal eigenvalues paired with the conjugated spin operators."""
    frame = eigenframe(x)
    u = abs(x.u)
    v = abs(x.v)
    dephased = np.array(
        [
            [x.a, 0.0, 0.0, u],
            [0.0, x.b, v, 0.0],
            [0.0, v, x.c, 0.0],
            [u, 0.0, 0.0, x.d],
        ]
    )
    f = frame.transform
    lam = np.clip(np.diag(f.T @ dephased @ f), 0.0, None)
    spins = {axis: local_spin_in_eigenbasis(x, axis, frame) for axis in ("x", "y", "z")}
    return lam, spins


def m_eigenvalues_raw(x: XMatrix) -> MomentDiagonal:
    """Raw spectral-sum form of the Fisher moments (internal cross-check).

    Sums 2 p_m p_n / (p_m + p_n) |<m|sigma x I|n>|^2 over eigenvector pairs in
    the closed-form frame, skipping pairs with vanishing total weight.
    """
    return MomentDiagonal.of(spectral_moments(*_frame_eigenvalues_and_spins(x), "fisher"))


def w_eigenvalues_raw(x: XMatrix) -> MomentDiagonal:
    """Raw spectral-sum form of the skew moments (internal cross-check)."""
    return MomentDiagonal.of(spectral_moments(*_frame_eigenvalues_and_spins(x), "skew"))


def lqfi_x(x: XMatrix) -> BranchPair:
    """LQFI of a dephased X matrix: min(1 - zz, 1 - xx) of the Fisher moments."""
    m = m_eigenvalues(x)
    return BranchPair.from_branches(1.0 - m.zz, 1.0 - m.xx)


def lqu_x(x: XMatrix) -> BranchPair:
    """LQU of a dephased X matrix: min(1 - zz, 1 - xx) of the skew moments."""
    w = w_eigenvalues(x)
    return BranchPair.from_branches(1.0 - w.zz, 1.0 - w.xx)


# ---------------------------------------------------------------------------
# thermal forms
# ---------------------------------------------------------------------------


def _thermal_setup(p: XStateParams):
    """Shifted Boltzmann weights and radii for the reduced parameterization."""
    beta = 1.0 / p.T
    R1 = math.hypot(p.r1, p.B1 + p.B2)
    R2 = math.hypot(p.r2, p.B1 - p.B2)
    levels = (p.Jz + R1, p.Jz - R1, -p.Jz + R2, -p.Jz - R2)
    weights, m = _shifted_weights(levels, beta)
    return weights, sum(weights), m, R1, R2, beta


def _coupling_ratio(p: XStateParams, R1: float, R2: float) -> float:
    # (r1 r2 + B2^2 - B1^2)/(R1 R2); bounded by 1 in magnitude (Cauchy-Schwarz)
    # and vanishing with either radius.
    prod = R1 * R2
    if prod == 0.0:
        return 0.0
    return (p.r1 * p.r2 + p.B2 * p.B2 - p.B1 * p.B1) / prod


def lqfi_thermal(p: XStateParams) -> BranchPair:
    """Both LQFI branches directly from the reduced thermal parameters.

    Branch 0 uses sinh*tanh weights of the two radii; branch 1 is the ratio of
    occupation products, evaluated entirely in shifted Boltzmann weights so
    that no hyperbolic function overflows at low temperature.
    """
    (w1, w2, w3, w4), zt, _, R1, R2, beta = _thermal_setup(p)

    rr1 = (p.r1 / R1) ** 2 if R1 > 0.0 else 0.0
    rr2 = (p.r2 / R2) ** 2 if R2 > 0.0 else 0.0
    em1 = -math.expm1(-2.0 * beta * R1)
    em2 = -math.expm1(-2.0 * beta * R2)
    f0 = (
        rr1 * w2 * em1 * em1 / (1.0 + math.exp(-2.0 * beta * R1))
        + rr2 * w4 * em2 * em2 / (1.0 + math.exp(-2.0 * beta * R2))
    ) / zt

    # occupations sorted within each level pair (w2 >= w1, w4 >= w3 for T > 0)
    p1, p2, p3, p4 = w2 / zt, w1 / zt, w4 / zt, w3 / zt
    kappa = _coupling_ratio(p, R1, R2)
    core = (
        p1 * p2
        + p3 * p4
        + 0.5 * (p1 + p2) * (p3 + p4)
        + 0.5 * kappa * (p1 - p2) * (p3 - p4)
    )
    f1 = 1.0 - core * _transverse_moment_scale(p1, p2, p3, p4)
    return BranchPair.from_branches(f0, f1)


def lqu_thermal(p: XStateParams) -> BranchPair:
    """Both LQU branches directly from the reduced thermal parameters."""
    weights, zt, m, R1, R2, beta = _thermal_setup(p)
    w2, w4 = weights[1], weights[3]

    rr1 = (p.r1 / R1) ** 2 if R1 > 0.0 else 0.0
    rr2 = (p.r2 / R2) ** 2 if R2 > 0.0 else 0.0
    em1 = -math.expm1(-beta * R1)
    em2 = -math.expm1(-beta * R2)
    u0 = (rr1 * w2 * em1 * em1 + rr2 * w4 * em2 * em2) / zt

    x1 = beta * R1
    x2 = beta * R2
    kappa = _coupling_ratio(p, R1, R2)
    bracket = 0.25 * (
        (1.0 + kappa) * (1.0 + math.exp(-(x1 + x2)))
        + (1.0 - kappa) * (math.exp(-x1) + math.exp(-x2))
    )
    # exp((x1+x2)/2 - m) <= 1 since the shift m dominates the half-sum exponent
    u1 = 1.0 - 4.0 * math.exp(0.5 * (x1 + x2) - m) * bracket / zt
    return BranchPair.from_branches(u0, u1)


def thermal_xmatrix(p: XStateParams) -> XMatrix:
    """Dephased Gibbs X matrix of the standard realization of ``p``."""
    return dephase(gibbs_xstate(realize(p), p.T))
