"""Brute-force verification path for the closed-form correlation measures.

Nothing here assumes the X structure: density matrices are diagonalized with a
self-contained cyclic Jacobi routine, the moment matrices are built from their
defining spectral sums, and the optimization over local observables is carried
out explicitly on the Bloch sphere.  Agreement with the closed forms is the
main correctness evidence for the whole package.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from .xmodel import XMatrix

__all__ = [
    "PAULI",
    "LOCAL_SPIN",
    "jacobi_eigh",
    "validate_density_matrix",
    "spectral_moments",
    "oracle_m_matrix",
    "oracle_w_matrix",
    "lambda_max_closed",
    "lambda_max_jacobi",
    "fibonacci_sphere",
    "minimize_over_observables",
    "random_x_state",
]

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

#: sigma_mu acting on qubit A of the pair, mu in (x, y, z)
LOCAL_SPIN = {axis: np.kron(mat, np.eye(2, dtype=complex)) for axis, mat in PAULI.items()}

_AXES = ("x", "y", "z")

# Spectral-sum terms with total pair weight below this are excluded, matching
# the exact-zero restriction of the defining sum at float resolution.
PAIR_WEIGHT_CUTOFF = 1e-14

_HERMITIAN_ATOL = 1e-12
_TRACE_ATOL = 1e-12
_EIGENVALUE_FLOOR = -1e-12


def jacobi_eigh(a: np.ndarray, tol: float = 1e-14, max_sweeps: int = 100):
    """Eigen-decomposition of a Hermitian matrix by cyclic complex Jacobi.

    Deterministic and dependency-free; adequate for the tiny matrices used
    here.  Returns eigenvalues in ascending order and the matching eigenvector
    columns.  ``tol`` bounds the final off-diagonal Frobenius norm.
    """
    a = np.array(a, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    v = np.eye(n, dtype=complex)
    for _ in range(max_sweeps):
        off = math.sqrt(sum(2.0 * abs(a[p, q]) ** 2 for p in range(n) for q in range(p + 1, n)))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                # A subnormal |a_pq| must not overflow the phase, so it is
                # divided out part by part.  tau may still overflow to inf
                # (the rotation is then the identity); Python floats do that
                # without a warning.
                phase = complex(apq.real / mag, apq.imag / mag)
                tau = float(a[q, q].real - a[p, p].real) / (2.0 * float(mag))
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                g = np.eye(n, dtype=complex)
                g[p, p] = c
                g[q, q] = c
                g[p, q] = s * phase
                g[q, p] = -s * np.conj(phase)
                a = g.conj().T @ a @ g
                v = v @ g
    else:
        raise RuntimeError("Jacobi iteration did not converge")
    evals = np.diag(a).real
    order = np.argsort(evals, kind="stable")
    return evals[order], v[:, order]


def validate_density_matrix(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check Hermiticity, unit trace and positivity of a 4x4 density matrix.

    Returns the eigen-decomposition the positivity check computed: ascending
    eigenvalues, with those within the negativity tolerance clamped to zero,
    and the matching eigenvector columns.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > _HERMITIAN_ATOL:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > _TRACE_ATOL or abs(np.trace(rho).imag) > _TRACE_ATOL:
        raise ValueError("density matrix trace differs from 1")
    evals, evecs = jacobi_eigh(rho)
    if evals.min() < _EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has a negative eigenvalue: {evals.min()!r}")
    return np.clip(evals, 0.0, None), evecs


def spectral_moments(p: np.ndarray, spins: Mapping[str, np.ndarray], kind: str) -> np.ndarray:
    """Moment matrix K[mu, nu] = sum_mn w_mn Re(S_mu[m, n] S_nu[n, m]), symmetrized.

    ``p`` holds the eigenvalues of the state and ``spins`` maps each axis
    "x", "y", "z" to the local spin operator written in the same eigenbasis.
    ``kind`` selects the pair weights:

    * "fisher": w_mn = 2 p_m p_n / (p_m + p_n), restricted to pairs with total
      weight above ``PAIR_WEIGHT_CUTOFF``;
    * "skew": w_mn = sqrt(p_m) sqrt(p_n), which makes K[mu, nu] the trace
      tr(sqrt(rho) S_mu sqrt(rho) S_nu) written in the eigenbasis.
    """
    p = np.asarray(p, dtype=float)
    if kind == "fisher":
        total = p[:, None] + p[None, :]
        keep = total > PAIR_WEIGHT_CUTOFF
        weights = np.where(keep, 2.0 * np.outer(p, p) / np.where(keep, total, 1.0), 0.0)
    elif kind == "skew":
        root = np.sqrt(p)
        weights = np.outer(root, root)
    else:
        raise ValueError(f"kind must be 'fisher' or 'skew', got {kind!r}")
    s = np.stack([spins[axis] for axis in _AXES])
    k = np.einsum("mn,imn,jnm->ij", weights, s, s).real
    return 0.5 * (k + k.T)


def _spectral_elements(rho: np.ndarray):
    """Eigenvalues of rho and the local spin operators in its eigenbasis."""
    p, evecs = validate_density_matrix(rho)
    return p, {axis: evecs.conj().T @ LOCAL_SPIN[axis] @ evecs for axis in _AXES}


def oracle_m_matrix(rho: np.ndarray) -> np.ndarray:
    """Fisher moment matrix from its defining spectral sum over eigenvector pairs."""
    return spectral_moments(*_spectral_elements(rho), "fisher")


def oracle_w_matrix(rho: np.ndarray) -> np.ndarray:
    """Skew moment matrix tr(sqrt(rho) S_mu sqrt(rho) S_nu) from the spectral sum."""
    return spectral_moments(*_spectral_elements(rho), "skew")


def lambda_max_closed(k: np.ndarray) -> float:
    """Largest eigenvalue of a real symmetric 3x3 matrix, trigonometric route."""
    k = np.asarray(k, dtype=float)
    q = (k[0, 0] + k[1, 1] + k[2, 2]) / 3.0
    b = k - q * np.eye(3)
    p2 = float(np.sum(b * b)) / 6.0
    if p2 <= 0.0:
        return q
    p = math.sqrt(p2)
    det = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    r = det / (2.0 * p**3)
    r = min(1.0, max(-1.0, r))
    return q + 2.0 * p * math.cos(math.acos(r) / 3.0)


def lambda_max_jacobi(k: np.ndarray) -> float:
    """Largest eigenvalue of a real symmetric 3x3 matrix, iterative route."""
    evals, _ = jacobi_eigh(np.asarray(k, dtype=float))
    return float(evals[-1])


def fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform unit vectors on the sphere (golden-angle spiral)."""
    if n < 1:
        raise ValueError("need at least one direction")
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    radius = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    theta = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])


def _bloch_moment(k: np.ndarray, direction: np.ndarray) -> float:
    return float(direction @ k @ direction)


def minimize_over_observables(
    rho: np.ndarray,
    which: str,
    grid_points: int = 2048,
    refine: bool = True,
) -> float:
    """Minimize 1 - n.K.n over unit Bloch vectors n by grid search plus polish.

    ``which`` selects the moment matrix ("LQFI" -> Fisher, "LQU" -> skew).  The
    grid minimum is deterministic (first minimal grid index wins); the optional
    Nelder-Mead polish refines it to well below 1e-9 in value.  Must agree with
    1 - lambda_max of the same matrix.
    """
    measure = which.upper()
    if measure == "LQFI":
        k = oracle_m_matrix(rho)
    elif measure == "LQU":
        k = oracle_w_matrix(rho)
    else:
        raise ValueError(f"which must be 'LQFI' or 'LQU', got {which!r}")

    dirs = fibonacci_sphere(grid_points)
    values = 1.0 - np.einsum("ij,jk,ik->i", dirs, k, dirs)
    best = int(np.argmin(values))
    best_value = float(values[best])
    if not refine:
        return best_value

    nx, ny, nz = dirs[best]
    start = np.array([math.acos(min(1.0, max(-1.0, nz))), math.atan2(ny, nx)])

    def objective(angles):
        th, ph = angles
        n = np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])
        return 1.0 - _bloch_moment(k, n)

    # scipy's only use: imported here so that importing qxcorr does not load it
    from scipy.optimize import minimize

    result = minimize(
        objective,
        start,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000},
    )
    return min(best_value, float(result.fun))


def random_x_state(rng: np.random.Generator, dephased: bool = True) -> XMatrix:
    """A random valid X state: Dirichlet populations, coherences inside the
    positivity disks.  With ``dephased=False`` the coherences carry random
    phases."""
    a, b, c, d = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
    # keep a small positivity margin so spectra stay resolvable in floats
    fu = rng.uniform(0.0, 0.998)
    fv = rng.uniform(0.0, 0.998)
    u = fu * math.sqrt(a * d)
    v = fv * math.sqrt(b * c)
    if not dephased:
        u = u * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        v = v * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return XMatrix(a=float(a), b=float(b), c=float(c), d=float(d), u=u, v=v)
