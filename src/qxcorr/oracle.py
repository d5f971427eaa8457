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
    "SPHERE_GRID",
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

_JACOBI_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 100

_HERMITIAN_ATOL = 1e-12
_TRACE_ATOL = 1e-12
_EIGENVALUE_FLOOR = -1e-12


def _at(batch: tuple[int, ...], flat: int) -> str:
    """Where a stack member sits, for error messages; empty for a single matrix."""
    if not batch:
        return ""
    index = tuple(int(i) for i in np.unravel_index(flat, batch))
    return f" (stack index {index[0] if len(index) == 1 else index})"


def _givens(apq: complex, app: float, aqq: float) -> tuple[float, complex, complex]:
    """Entries (c, g_pq, g_qp) of the rotation that zeroes the pivot a_pq.

    Scalar Python arithmetic: a subnormal |a_pq| must not overflow the phase,
    so it is divided out part by part, and tau may overflow to inf (the
    rotation is then the identity) without a numpy warning.
    """
    mag = abs(apq)
    phase = complex(apq.real / mag, apq.imag / mag)
    tau = (aqq - app) / (2.0 * mag)
    t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
    c = 1.0 / math.hypot(1.0, t)
    s = t * c
    return c, s * phase, -s * phase.conjugate()


def jacobi_eigh(a: np.ndarray):
    """Eigen-decomposition of Hermitian matrices by cyclic complex Jacobi.

    ``a`` is one n x n matrix or a stack of shape (..., n, n).  Deterministic
    and dependency-free; adequate for the tiny matrices used here.  Returns
    eigenvalues in ascending order, shape (..., n), and the matching
    eigenvector columns, shape (..., n, n).  Each member's final off-diagonal
    Frobenius norm is below 1e-14, or RuntimeError is raised after 100 sweeps.

    Every member is rotated as if it were alone: the rotation parameters are
    formed member by member in scalar arithmetic, the dense Givens rotations of
    one pivot are applied with one stacked matmul to the members whose pivot is
    nonzero (the others are left untouched), and a member leaves the iteration
    once it has converged.  A stack therefore gives the same bits as separate
    calls on its members.  A single matrix skips that bookkeeping and runs the
    same arithmetic directly (``_jacobi_single``).
    """
    a = np.array(a, dtype=complex)
    n = a.shape[-1] if a.ndim else 0
    if a.ndim < 2 or a.shape[-2] != n:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    batch = a.shape[:-2]
    pivots = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    rows, cols = np.array(pivots, dtype=int).reshape(-1, 2).T
    if not batch:
        return _jacobi_single(a, pivots, rows, cols)
    a = a.reshape(math.prod(batch), n, n)
    eye = np.eye(n, dtype=complex)[None]
    v = eye.repeat(len(a), axis=0)
    active = np.arange(len(a))
    for _ in range(_JACOBI_MAX_SWEEPS):
        upper = a[active[:, None], rows, cols].view(float)
        off = np.sqrt(2.0 * (upper * upper).sum(axis=1))
        active = active[~(off < _JACOBI_TOL)]
        if not active.size:
            break
        for p, q in pivots:
            hit = active[a[active, p, q] != 0]
            if not hit.size:
                continue
            sub = a[hit]
            params = np.array(
                list(map(_givens, sub[:, p, q].tolist(), sub[:, p, p].real.tolist(), sub[:, q, q].real.tolist()))
            )
            g = eye.repeat(hit.size, axis=0)
            g[:, p, p] = g[:, q, q] = params[:, 0]
            g[:, p, q] = params[:, 1]
            g[:, q, p] = params[:, 2]
            a[hit] = g.conj().swapaxes(1, 2) @ sub @ g
            v[hit] = v[hit] @ g
    else:
        raise RuntimeError("Jacobi iteration did not converge" + _at(batch, int(active[0])))
    evals = np.diagonal(a, axis1=1, axis2=2).real
    order = np.argsort(evals, axis=1, kind="stable")
    member = np.arange(len(a))[:, None]
    # eigenvector columns follow their eigenvalues
    evals, v = evals[member, order], v.swapaxes(1, 2)[member, order].swapaxes(1, 2)
    return evals.reshape(*batch, n), v.reshape(*batch, n, n)


def _jacobi_single(a, pivots, rows, cols):
    """``jacobi_eigh`` on one matrix: the stacked iteration's arithmetic, step
    for step, without the member bookkeeping, so the bits are the same."""
    n = len(a)
    v = np.eye(n, dtype=complex)
    for _ in range(_JACOBI_MAX_SWEEPS):
        upper = a[rows, cols].view(float)
        if np.sqrt(2.0 * (upper * upper).sum()) < _JACOBI_TOL:
            break
        for p, q in pivots:
            if a[p, q] == 0:
                continue
            c, g_pq, g_qp = _givens(complex(a[p, q]), float(a[p, p].real), float(a[q, q].real))
            g = np.eye(n, dtype=complex)
            g[p, p] = g[q, q] = c
            g[p, q] = g_pq
            g[q, p] = g_qp
            a = g.conj().T @ a @ g
            v = v @ g
    else:
        raise RuntimeError("Jacobi iteration did not converge")
    evals = np.diagonal(a).real
    order = np.argsort(evals, kind="stable")
    return evals[order], v[:, order]


def validate_density_matrix(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check finiteness, Hermiticity, unit trace and positivity of 4x4 density matrices.

    ``rho`` is one matrix or a stack of shape (..., 4, 4).  Returns the
    eigen-decomposition the positivity check computed: ascending eigenvalues,
    with those within the negativity tolerance clamped to zero, and the
    matching eigenvector columns.  An error names the stack index of the first
    offending member.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix or a stack of them, got shape {rho.shape}")
    batch = rho.shape[:-2]
    flat = rho.reshape(-1, 4, 4)
    bad = ~np.isfinite(flat).all(axis=(1, 2))
    if bad.any():
        raise ValueError("density matrix has non-finite entries" + _at(batch, int(np.argmax(bad))))
    bad = np.abs(flat - flat.conj().swapaxes(1, 2)).max(axis=(1, 2)) > _HERMITIAN_ATOL
    if bad.any():
        raise ValueError("density matrix is not Hermitian" + _at(batch, int(np.argmax(bad))))
    trace = np.trace(flat, axis1=1, axis2=2)
    bad = (np.abs(trace.real - 1.0) > _TRACE_ATOL) | (np.abs(trace.imag) > _TRACE_ATOL)
    if bad.any():
        raise ValueError("density matrix trace differs from 1" + _at(batch, int(np.argmax(bad))))
    evals, evecs = jacobi_eigh(rho)
    lowest = evals[..., 0].reshape(-1)
    bad = lowest < _EIGENVALUE_FLOOR
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"density matrix has a negative eigenvalue: {lowest[i]!r}" + _at(batch, i))
    return np.clip(evals, 0.0, None), evecs


def spectral_moments(p: np.ndarray, spins: Mapping[str, np.ndarray], kind: str) -> np.ndarray:
    """Moment matrix K[mu, nu] = sum_mn w_mn Re(S_mu[m, n] S_nu[n, m]), symmetrized.

    ``p`` holds the eigenvalues of the state and ``spins`` maps each axis
    "x", "y", "z" to the local spin operator written in the same eigenbasis.
    For a stack of states, ``p`` has shape (..., n), each operator (..., n, n)
    and the result (..., 3, 3); each member gets the same bits as a separate
    call.  ``kind`` selects the pair weights:

    * "fisher": w_mn = 2 p_m p_n / (p_m + p_n), restricted to pairs with total
      weight above ``PAIR_WEIGHT_CUTOFF``;
    * "skew": w_mn = sqrt(p_m) sqrt(p_n), which makes K[mu, nu] the trace
      tr(sqrt(rho) S_mu sqrt(rho) S_nu) written in the eigenbasis.
    """
    p = np.asarray(p, dtype=float)
    if kind == "fisher":
        total = p[..., :, None] + p[..., None, :]
        keep = total > PAIR_WEIGHT_CUTOFF
        weights = np.where(keep, 2.0 * (p[..., :, None] * p[..., None, :]) / np.where(keep, total, 1.0), 0.0)
    elif kind == "skew":
        root = np.sqrt(p)
        weights = root[..., :, None] * root[..., None, :]
    else:
        raise ValueError(f"kind must be 'fisher' or 'skew', got {kind!r}")
    s = np.stack([spins[axis] for axis in _AXES], axis=-3)
    k = np.einsum("...mn,...imn,...jnm->...ij", weights, s, s).real
    return 0.5 * (k + k.swapaxes(-1, -2))


def _spectral_elements(rho: np.ndarray):
    """Eigenvalues of rho and the local spin operators in its eigenbasis."""
    p, evecs = validate_density_matrix(rho)
    adjoint = evecs.conj().swapaxes(-1, -2)
    return p, {axis: adjoint @ LOCAL_SPIN[axis] @ evecs for axis in _AXES}


def oracle_m_matrix(rho: np.ndarray) -> np.ndarray:
    """Fisher moment matrix from its defining spectral sum over eigenvector pairs.

    Takes one density matrix or a stack (..., 4, 4) and returns (..., 3, 3).
    """
    return spectral_moments(*_spectral_elements(rho), "fisher")


def oracle_w_matrix(rho: np.ndarray) -> np.ndarray:
    """Skew moment matrix tr(sqrt(rho) S_mu sqrt(rho) S_nu) from the spectral sum.

    Takes one density matrix or a stack (..., 4, 4) and returns (..., 3, 3).
    """
    return spectral_moments(*_spectral_elements(rho), "skew")


def lambda_max_closed(k: np.ndarray) -> float | np.ndarray:
    """Largest eigenvalue of real symmetric 3x3 matrices, trigonometric route.

    ``k`` is one matrix, giving a float, or a stack (..., 3, 3), giving an
    array of shape (...).  The sums are taken over the stack with numpy and the
    trigonometric step member by member in scalar arithmetic, so a stack gives
    the same bits as separate calls.
    """
    k = np.asarray(k, dtype=float)
    q = (k[..., 0, 0] + k[..., 1, 1] + k[..., 2, 2]) / 3.0
    b = k - q[..., None, None] * np.eye(3)
    p2 = np.sum(b * b, axis=(-2, -1)) / 6.0
    det = (
        b[..., 0, 0] * (b[..., 1, 1] * b[..., 2, 2] - b[..., 1, 2] * b[..., 2, 1])
        - b[..., 0, 1] * (b[..., 1, 0] * b[..., 2, 2] - b[..., 1, 2] * b[..., 2, 0])
        + b[..., 0, 2] * (b[..., 1, 0] * b[..., 2, 1] - b[..., 1, 1] * b[..., 2, 0])
    )
    top = map(_top_root, q.reshape(-1).tolist(), p2.reshape(-1).tolist(), det.reshape(-1).tolist())
    return np.array(list(top)).reshape(q.shape)[()]


def _top_root(q: float, p2: float, det: float) -> float:
    """Largest root of the shifted characteristic cubic of one 3x3 matrix."""
    if p2 <= 0.0:
        return q
    p = math.sqrt(p2)
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


#: the 2048 Bloch directions ``minimize_over_observables`` scans, built once
SPHERE_GRID = fibonacci_sphere(2048)
SPHERE_GRID.flags.writeable = False


def _dot(x, y) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _cross(x, y) -> tuple[float, float, float]:
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


def _unit(x) -> tuple[float, float, float]:
    norm = math.sqrt(_dot(x, x))
    return (x[0] / norm, x[1] / norm, x[2] / norm)


def _tangent_basis(n) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    """Orthonormal e1, e2 spanning the tangent plane of the unit sphere at n."""
    smallest = min(range(3), key=lambda i: abs(n[i]))
    axis = tuple(float(i == smallest) for i in range(3))
    e1 = _unit(_cross(n, axis))
    return e1, _cross(n, e1)


# The polish stops once the tangent gradient is within a few rounding units of
# the largest entry of K.  The step cap only guards against a stall: from the
# 2048-point grid start, seeded scans of moment matrices and of symmetric
# matrices with near-tied top eigenvalues took at most 7 steps.
_POLISH_GRADIENT_FLOOR = 8.0 * np.finfo(float).eps
_POLISH_MAX_STEPS = 32


def _newton_polish(k: np.ndarray, n) -> tuple[float, tuple[float, float, float]]:
    """Maximize rho = n.K.n over unit vectors n by Riemannian Newton ascent.

    Starts at the unit vector ``n`` and returns the final rho and n.  Each step
    takes the tangent basis E = (e1, e2) at n, the gradient g = E^T (K n - rho n)
    and the 2x2 tangent Hessian H = E^T (K - rho I) E (Absil, Mahony &
    Sepulchre, Optimization Algorithms on Matrix Manifolds, ch. 6).  Where H
    is negative definite the step direction d solves H d = -g.  Elsewhere n is
    near a saddle, or the top two eigenvalues of K are so close that the
    gradient drowns in rounding, and d is the tangent direction of largest
    curvature, along which the form rises unless H is negative semidefinite.
    n then moves to the exact maximum of the form on the great circle through
    n along d.  Only ascent is accepted.  No eigensolver is called.
    """
    rows = k.tolist()

    def apply(x):
        return (_dot(rows[0], x), _dot(rows[1], x), _dot(rows[2], x))

    floor = _POLISH_GRADIENT_FLOOR * max(abs(x) for row in rows for x in row)
    kn = apply(n)
    rho = _dot(n, kn)
    for _ in range(_POLISH_MAX_STEPS):
        e1, e2 = _tangent_basis(n)
        residual = (kn[0] - rho * n[0], kn[1] - rho * n[1], kn[2] - rho * n[2])
        g1, g2 = _dot(e1, residual), _dot(e2, residual)
        ke1, ke2 = apply(e1), apply(e2)
        h11, h12, h22 = _dot(e1, ke1) - rho, _dot(e1, ke2), _dot(e2, ke2) - rho
        det = h11 * h22 - h12 * h12
        if h11 < 0.0 and det > 0.0:
            if math.hypot(g1, g2) <= floor:
                break
            d1, d2 = (h12 * g2 - h22 * g1) / det, (h12 * g1 - h11 * g2) / det
        else:
            # d.H.d over unit d peaks at this angle
            phi = 0.5 * math.atan2(2.0 * h12, h11 - h22)
            d1, d2 = math.cos(phi), math.sin(phi)
        t = _unit((d1 * e1[0] + d2 * e2[0], d1 * e1[1] + d2 * e2[1], d1 * e1[2] + d2 * e2[2]))
        # n.K.n on the circle n cos(theta) + t sin(theta) peaks at this theta
        theta = 0.5 * math.atan2(2.0 * _dot(t, kn), rho - _dot(t, apply(t)))
        c, s = math.cos(theta), math.sin(theta)
        step = _unit((c * n[0] + s * t[0], c * n[1] + s * t[1], c * n[2] + s * t[2]))
        k_step = apply(step)
        value = _dot(step, k_step)
        if not value > rho:
            break
        n, kn, rho = step, k_step, value
    return rho, n


def minimize_over_observables(rho: np.ndarray, which: str, refine: bool = True) -> float:
    """Minimize 1 - n.K.n over unit Bloch vectors n by grid search plus polish.

    ``which`` selects the moment matrix ("LQFI" -> Fisher, "LQU" -> skew).  The
    minimum over ``SPHERE_GRID`` is deterministic (first minimal index wins);
    the optional polish, a Riemannian Newton ascent from the grid minimum
    (``_newton_polish``), brings it to rounding level without calling an
    eigensolver.  Must agree with 1 - lambda_max of the same matrix.
    """
    measure = which.upper()
    if measure == "LQFI":
        k = oracle_m_matrix(rho)
    elif measure == "LQU":
        k = oracle_w_matrix(rho)
    else:
        raise ValueError(f"which must be 'LQFI' or 'LQU', got {which!r}")

    values = 1.0 - np.einsum("ij,jk,ik->i", SPHERE_GRID, k, SPHERE_GRID)
    best = int(np.argmin(values))
    best_value = float(values[best])
    if not refine:
        return best_value
    top, _ = _newton_polish(k, tuple(SPHERE_GRID[best].tolist()))
    return min(best_value, 1.0 - top)


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
