"""Thermal two-qubit XYZ model with DM and KSEA couplings in an inhomogeneous z field.

The Hamiltonian combines Heisenberg exchange (Jx, Jy, Jz), the antisymmetric
Dzyaloshinsky term Dz, the symmetric KSEA term Gz, and site fields B1, B2 along
z.  Its Gibbs state keeps the two-qubit X shape: real populations a, b, c, d on
the main diagonal and complex coherences u, v on the anti-diagonal.

All thermal expressions are evaluated with the dominant Boltzmann exponent
factored out, so temperatures down to 1e-3 (in energy units) stay finite in
double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "HamiltonianParams",
    "DerivedRadii",
    "XMatrix",
    "XStateParams",
    "derived_radii",
    "realize",
    "hamiltonian_matrix",
    "energy_levels",
    "partition_function",
    "gibbs_xstate",
    "dephase",
]

# Absolute tolerance for validating externally supplied X matrices; file-ingested
# states carry limited precision, so this is looser than what gibbs_xstate emits.
XMATRIX_ATOL = 1e-9


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class HamiltonianParams:
    """The seven couplings of the two-qubit Hamiltonian, all in energy units."""

    Jx: float = 0.0
    Jy: float = 0.0
    Jz: float = 0.0
    Dz: float = 0.0
    Gz: float = 0.0
    B1: float = 0.0
    B2: float = 0.0

    def __post_init__(self):
        for name in ("Jx", "Jy", "Jz", "Dz", "Gz", "B1", "B2"):
            _require_finite(name, getattr(self, name))


@dataclass(frozen=True)
class DerivedRadii:
    """Internal radii r1, r2 and full radii R1, R2 derived from the couplings.

    r1 collects the (Jx - Jy, 2 Gz) pair, r2 the (Jx + Jy, 2 Dz) pair; the full
    radii add the field combinations B1 + B2 and B1 - B2 in quadrature.
    """

    r1: float
    r2: float
    R1: float
    R2: float


def derived_radii(h: HamiltonianParams) -> DerivedRadii:
    r1 = math.hypot(h.Jx - h.Jy, 2.0 * h.Gz)
    r2 = math.hypot(h.Jx + h.Jy, 2.0 * h.Dz)
    return DerivedRadii(
        r1=r1,
        r2=r2,
        R1=math.hypot(r1, h.B1 + h.B2),
        R2=math.hypot(r2, h.B1 - h.B2),
    )


@dataclass(frozen=True)
class XMatrix:
    """Two-qubit X-form density matrix.

    Diagonal populations a, b, c, d and anti-diagonal coherences u (outer block,
    coupling |00> with |11>) and v (inner block, coupling |01> with |10>).
    Validity (positivity, unit trace) is checked on construction to within
    ``XMATRIX_ATOL``.
    """

    a: float
    b: float
    c: float
    d: float
    u: complex = 0.0
    v: complex = 0.0

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            value = getattr(self, name)
            _require_finite(name, value)
            if value < -XMATRIX_ATOL:
                raise ValueError(f"population {name}={value!r} is negative")
        for name in ("u", "v"):
            value = complex(getattr(self, name))
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"coherence {name} must be finite")
        tr = self.a + self.b + self.c + self.d
        if abs(tr - 1.0) > XMATRIX_ATOL:
            raise ValueError(f"trace {tr!r} differs from 1 beyond tolerance")
        if self.a * self.d - abs(self.u) ** 2 < -XMATRIX_ATOL:
            raise ValueError("positivity violated in the outer block: a*d < |u|^2")
        if self.b * self.c - abs(self.v) ** 2 < -XMATRIX_ATOL:
            raise ValueError("positivity violated in the inner block: b*c < |v|^2")

    def as_matrix(self) -> np.ndarray:
        """Dense 4x4 complex matrix in the product basis |00>, |01>, |10>, |11>."""
        import numpy as np

        u = complex(self.u)
        v = complex(self.v)
        return np.array(
            [
                [self.a, 0.0, 0.0, u],
                [0.0, self.b, v, 0.0],
                [0.0, v.conjugate(), self.c, 0.0],
                [u.conjugate(), 0.0, 0.0, self.d],
            ],
            dtype=complex,
        )

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "XMatrix":
        """Build from a dense 4x4 matrix, rejecting entries off the X pattern beyond XMATRIX_ATOL."""
        import numpy as np

        m = np.asarray(m, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix has non-finite entries")
        mask = np.ones((4, 4), dtype=bool)
        for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)):
            mask[i, j] = False
        if np.abs(m[mask]).max() > XMATRIX_ATOL:
            raise ValueError("matrix has entries outside the X pattern")
        if np.abs(np.diag(m).imag).max() > XMATRIX_ATOL:
            raise ValueError("diagonal of an X density matrix must be real")
        mismatch = (abs(m[3, 0] - np.conj(m[0, 3])), abs(m[2, 1] - np.conj(m[1, 2])))
        if mismatch[0] > XMATRIX_ATOL or mismatch[1] > XMATRIX_ATOL:
            raise ValueError("anti-diagonal entries are not Hermitian conjugates")
        return cls(
            a=float(m[0, 0].real),
            b=float(m[1, 1].real),
            c=float(m[2, 2].real),
            d=float(m[3, 3].real),
            u=complex(m[0, 3]),
            v=complex(m[1, 2]),
        )


@dataclass(frozen=True)
class XStateParams:
    """Reduced thermal-state parameterization (Jz, r1, r2, B1, B2) plus T.

    The correlation measures of a thermal X state depend on the couplings only
    through these five combinations, so any Hamiltonian realization with the
    same radii is equivalent (see :func:`realize`).
    """

    Jz: float
    r1: float
    r2: float
    B1: float = 0.0
    B2: float = 0.0
    T: float = 1.0

    def __post_init__(self):
        for name in ("Jz", "r1", "r2", "B1", "B2", "T"):
            _require_finite(name, getattr(self, name))
        if self.r1 < 0.0 or self.r2 < 0.0:
            raise ValueError("radii r1, r2 must be nonnegative")
        if self.T <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.T!r}")


def realize(p: XStateParams) -> HamiltonianParams:
    """Pick the simplest Hamiltonian with the requested radii: Gz = Dz = 0.

    Jx = (r2 + r1)/2 and Jy = (r2 - r1)/2 reproduce r1 = |Jx - Jy| and
    r2 = |Jx + Jy| exactly for nonnegative radii.
    """
    return HamiltonianParams(
        Jx=0.5 * (p.r2 + p.r1),
        Jy=0.5 * (p.r2 - p.r1),
        Jz=p.Jz,
        B1=p.B1,
        B2=p.B2,
    )


def hamiltonian_matrix(h: HamiltonianParams) -> np.ndarray:
    """Dense 4x4 Hamiltonian in the product basis |00>, |01>, |10>, |11>."""
    import numpy as np

    return np.array(
        [
            [h.Jz + h.B1 + h.B2, 0.0, 0.0, h.Jx - h.Jy - 2j * h.Gz],
            [0.0, -h.Jz + h.B1 - h.B2, h.Jx + h.Jy + 2j * h.Dz, 0.0],
            [0.0, h.Jx + h.Jy - 2j * h.Dz, -h.Jz - h.B1 + h.B2, 0.0],
            [h.Jx - h.Jy + 2j * h.Gz, 0.0, 0.0, h.Jz - h.B1 - h.B2],
        ],
        dtype=complex,
    )


def energy_levels(h: HamiltonianParams) -> tuple[float, float, float, float]:
    """Closed-form eigenvalues (Jz + R1, Jz - R1, -Jz + R2, -Jz - R2)."""
    rad = derived_radii(h)
    return (h.Jz + rad.R1, h.Jz - rad.R1, -h.Jz + rad.R2, -h.Jz - rad.R2)


def _shifted_weights(
    levels: tuple[float, float, float, float], beta: float
) -> tuple[tuple[float, float, float, float], float]:
    """Boltzmann weights exp(-beta*E - m) with m = max(-beta*E), and the shift m.

    The largest weight is exactly 1, so sums and ratios of weights are safe at
    any inverse temperature.
    """
    exponents = tuple(-beta * e for e in levels)
    m = max(exponents)
    return tuple(math.exp(e - m) for e in exponents), m


def _one_minus_exp_ratio(x: float) -> float:
    """(1 - exp(-x)) / x for x >= 0, with the x -> 0 limit equal to 1."""
    if x == 0.0:
        return 1.0
    return -math.expm1(-x) / x


def partition_function(h: HamiltonianParams, T: float) -> float:
    """Sum of Boltzmann factors over the four levels.

    Evaluated with the dominant exponent factored out; if the true value
    exceeds the double-precision range the result is ``inf``.
    """
    if T <= 0.0:
        raise ValueError(f"temperature must be positive, got {T!r}")
    weights, m = _shifted_weights(energy_levels(h), 1.0 / T)
    total = sum(weights)
    if m > 709.0:  # exp would overflow; the physical value really is that large
        return math.inf
    return math.exp(m) * total


def gibbs_xstate(h: HamiltonianParams, T: float) -> XMatrix:
    """Thermal state exp(-H/T)/Z in closed X form.

    sinh(beta*R)/R factors are evaluated through expm1, which covers the
    R -> 0 limit (the factor tends to beta) without a separate branch.
    """
    if T <= 0.0:
        raise ValueError(f"temperature must be positive, got {T!r}")
    beta = 1.0 / T
    rad = derived_radii(h)
    (w1, w2, w3, w4), _ = _shifted_weights(energy_levels(h), beta)
    zt = w1 + w2 + w3 + w4

    # s1 = sinh(beta*R1) * exp(-beta*Jz - m) / R1, and the R2 analogue.
    s1 = beta * w2 * _one_minus_exp_ratio(2.0 * beta * rad.R1)
    s2 = beta * w4 * _one_minus_exp_ratio(2.0 * beta * rad.R2)

    bp = h.B1 + h.B2
    bm = h.B1 - h.B2
    a = (0.5 * (w1 + w2) - bp * s1) / zt
    d = (0.5 * (w1 + w2) + bp * s1) / zt
    b = (0.5 * (w3 + w4) - bm * s2) / zt
    c = (0.5 * (w3 + w4) + bm * s2) / zt
    u = -complex(h.Jx - h.Jy, -2.0 * h.Gz) * (s1 / zt)
    v = -complex(h.Jx + h.Jy, 2.0 * h.Dz) * (s2 / zt)
    return XMatrix(a=a, b=b, c=c, d=d, u=u, v=v)


def dephase(x: XMatrix) -> XMatrix:
    """Strip the coherence phases: u, v -> |u|, |v|.

    Correlation measures are invariant under local phase rotations, so this
    canonical real form is used by every downstream closed formula.
    """
    return XMatrix(a=x.a, b=x.b, c=x.c, d=x.d, u=abs(x.u), v=abs(x.v))
