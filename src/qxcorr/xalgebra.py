"""Diagonalization of dephased X matrices and local spin operators in that eigenbasis.

An X matrix splits into two 2x2 blocks under the permutation that swaps the
second and fourth basis states.  Each block is diagonalized by a symmetric
rotation built from the block eigenvector components, giving closed forms for
the eigenvalues and the transforms.  The oracle's single-qubit spin operators
conjugated into that frame feed the raw spectral-sum cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oracle import LOCAL_SPIN
from .xmodel import XMatrix

__all__ = [
    "XSpectrum",
    "EigenFrame",
    "spectrum",
    "eigenframe",
    "local_spin_in_eigenbasis",
    "BLOCK_PERMUTATION",
    "DEGENERACY_THRESHOLD",
]

# A block whose rotation parameters satisfy q^2 + coherence^2 < this threshold is
# proportional to a diagonal matrix already; its rotation falls back to identity.
DEGENERACY_THRESHOLD = 1e-24

# Block determinants smaller than this multiple of the block scale are
# indistinguishable from zero: the stored double-precision entries carry O(eps)
# absolute noise relative to the block sum (their assembly may cancel O(1)
# intermediates).  Such eigenvalues snap to exactly zero so that sqrt(p) terms
# stay consistent between independent evaluation routes.
_DET_NOISE_FACTOR = 8.0 * np.finfo(float).eps

# Simultaneous swap of the 2nd and 4th rows and columns; maps the X pattern to
# block-diagonal form.
BLOCK_PERMUTATION = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ]
)


@dataclass(frozen=True)
class XSpectrum:
    """Eigenvalues p1 >= p2 (outer block), p3 >= p4 (inner block) and the
    rotation parameters q1, q2 of the block eigenvectors."""

    p1: float
    p2: float
    p3: float
    p4: float
    q1: float
    q2: float


def _block_spectrum(top: float, bottom: float, coh: float) -> tuple[float, float, float]:
    """Eigen-pair data for the 2x2 block [[top, coh], [coh, bottom]].

    Returns (larger eigenvalue, smaller eigenvalue, q) where q = larger - bottom.
    The smaller eigenvalue is recovered from the block determinant, which is
    evaluated in extended precision: positivity makes it a near-total
    cancellation for barely mixed blocks, and downstream sqrt(p) terms amplify
    any noise in it.  Determinants below the rounding scale of the entries
    themselves snap to exactly zero.
    """
    gap = top - bottom
    s = math.hypot(gap, 2.0 * coh)
    hi = 0.5 * ((top + bottom) + s)
    if hi <= 0.0:
        return 0.0, 0.0, 0.0
    det = float(
        np.longdouble(top) * np.longdouble(bottom) - np.longdouble(coh) * np.longdouble(coh)
    )
    half_sum = 0.5 * (top + bottom)
    if det < _DET_NOISE_FACTOR * (half_sum * half_sum + coh * coh):
        lo = 0.0
    else:
        lo = det / hi
    # q = 0.5*(gap + s); for gap < 0 use the conjugate form to avoid cancellation
    if gap >= 0.0:
        q = 0.5 * (gap + s)
    else:
        q = (2.0 * coh * coh) / (s - gap)
    return hi, lo, q


def spectrum(x: XMatrix) -> XSpectrum:
    """Closed-form eigenvalues and rotation parameters of a dephased X matrix.

    Complex coherence phases, if still present, are ignored (they do not affect
    the spectrum).
    """
    u = abs(x.u)
    v = abs(x.v)
    p1, p2, q1 = _block_spectrum(x.a, x.d, u)
    p3, p4, q2 = _block_spectrum(x.c, x.b, v)
    return XSpectrum(p1=p1, p2=p2, p3=p3, p4=p4, q1=q1, q2=q2)


def _rotation_blocks(x: XMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The two symmetric 2x2 rotations diagonalizing the permuted X matrix,
    built from ``spectrum(x)``.

    A block with q^2 + coherence^2 below ``DEGENERACY_THRESHOLD`` is already
    proportional to identity (or diagonal), so its rotation is the identity.
    """
    s = spectrum(x)
    u = abs(x.u)
    v = abs(x.v)
    blocks = []
    for q, coh in ((s.q1, u), (s.q2, v)):
        nsq = q * q + coh * coh
        if nsq < DEGENERACY_THRESHOLD:
            blocks.append(np.eye(2))
        else:
            n = math.sqrt(nsq)
            blocks.append(np.array([[q / n, coh / n], [coh / n, -q / n]]))
    return blocks[0], blocks[1]


@dataclass(frozen=True, eq=False)
class EigenFrame:
    """Orthogonal transforms that diagonalize a dephased X matrix.

    ``permutation`` swaps basis states 2 and 4; ``rotation`` is the block
    rotation.  Both are symmetric and involutive, and
    rotation @ permutation @ x @ permutation @ rotation is diagonal with
    entries (p1, p2, p3, p4) for non-degenerate blocks.
    """

    permutation: np.ndarray
    rotation: np.ndarray


def eigenframe(x: XMatrix) -> EigenFrame:
    b1, b2 = _rotation_blocks(x)
    rot = np.zeros((4, 4))
    rot[:2, :2] = b1
    rot[2:, 2:] = b2
    return EigenFrame(permutation=BLOCK_PERMUTATION.copy(), rotation=rot)


def local_spin_in_eigenbasis(x: XMatrix, axis: str, frame: EigenFrame | None = None) -> np.ndarray:
    """Pauli operator on qubit A, written in the eigenbasis of the X matrix.

    With f = permutation @ rotation, the ``eigenframe`` of ``x`` as one
    orthogonal matrix, this is f.T @ LOCAL_SPIN[axis] @ f: the same sigma_axis
    x I the oracle conjugates into its Jacobi eigenbasis.  The x and y results
    are block-anti-diagonal, z is block-diagonal.  Returned as complex128 (the
    y matrix is purely imaginary).  Pass ``frame``, the ``eigenframe`` of
    ``x``, to reuse it instead of building it again.
    """
    if axis not in LOCAL_SPIN:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    if frame is None:
        frame = eigenframe(x)
    f = frame.permutation @ frame.rotation
    return f.T @ LOCAL_SPIN[axis] @ f
