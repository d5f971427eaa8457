"""Shared helpers: reference parameter sets and brute-force oracles for tests."""

import numpy as np

from qxcorr import HamiltonianParams, XStateParams, hamiltonian_matrix

# Reference parameter sets used across the suite (values carried by the
# low-temperature limits (r1/R1)^2 or (r2/R2)^2 of each set).

# Ferromagnetic exchange, weak inhomogeneous field: smooth 0-branch curves,
# low-T plateau at 0.735294...
FERRO_WEAK_FIELD = dict(Jz=-1.0, r1=0.5, r2=1.0, B1=-0.4, B2=0.7)

# Antiferromagnetic exchange, strong radii: one crossing per measure when the
# field is on, smooth 1-branch curves when it is off; low-T plateau 0.5322245...
ANTIFERRO_STRONG = dict(Jz=1.0, r1=3.4, r2=3.2, B1=-1.3, B2=1.7)
ANTIFERRO_STRONG_ZERO_FIELD = dict(Jz=1.0, r1=3.4, r2=3.2, B1=0.0, B2=0.0)

# Ferromagnetic set with two crossings per measure; low-T plateau 0.961538...
FERRO_DOUBLE_CROSSING = dict(Jz=-1.0, r1=1.0, r2=0.5, B1=-0.6, B2=0.8)

# Base point for field sweeps (B1 varied at fixed T)
FIELD_SWEEP_BASE = dict(Jz=1.0, r1=3.0, r2=5.0, B1=0.0, B2=-0.7)


def gibbs_dense(h: HamiltonianParams, T: float) -> np.ndarray:
    """Brute-force Gibbs matrix via dense eigendecomposition of the Hamiltonian."""
    evals, evecs = np.linalg.eigh(hamiltonian_matrix(h))
    weights = np.exp(-(evals - evals.min()) / T)
    rho = (evecs * weights) @ evecs.conj().T
    return rho / np.trace(rho).real


def random_hamiltonian(rng: np.random.Generator, scale: float = 3.0) -> HamiltonianParams:
    vals = rng.uniform(-scale, scale, size=7)
    return HamiltonianParams(*vals)


def random_reduced(rng: np.random.Generator, scale: float = 3.0, t_lo=0.05, t_hi=10.0) -> XStateParams:
    return XStateParams(
        Jz=rng.uniform(-scale, scale),
        r1=rng.uniform(0.0, scale),
        r2=rng.uniform(0.0, scale),
        B1=rng.uniform(-scale, scale),
        B2=rng.uniform(-scale, scale),
        T=float(np.exp(rng.uniform(np.log(t_lo), np.log(t_hi)))),
    )


# Reference forms of the spectral sums, kept as plain loops so that the shared
# numpy contraction in ``qxcorr.oracle.spectral_moments`` is checked against an
# independent evaluation.  Pairs with total weight at or below 1e-14 are
# excluded from the Fisher sum, as in the defining restriction.


def fisher_pair_loop(p, spins) -> np.ndarray:
    """sum_mn 2 p_m p_n / (p_m + p_n) Re(S_mu[m, n] S_nu[n, m]), pair by pair."""
    m = np.zeros((3, 3))
    for i, mu in enumerate("xyz"):
        for j, nu in enumerate("xyz"):
            total = 0.0
            for a in range(4):
                for b in range(4):
                    denom = p[a] + p[b]
                    if denom > 1e-14:
                        total += 2.0 * p[a] * p[b] / denom * (spins[mu][a, b] * spins[nu][b, a]).real
            m[i, j] = total
    return 0.5 * (m + m.T)


def skew_pair_loop(p, spins) -> np.ndarray:
    """sum_mn sqrt(p_m) sqrt(p_n) Re(S_mu[m, n] S_nu[n, m]), pair by pair."""
    root = np.sqrt(p)
    w = np.zeros((3, 3))
    for i, mu in enumerate("xyz"):
        for j, nu in enumerate("xyz"):
            w[i, j] = sum(
                root[a] * root[b] * (spins[mu][a, b] * spins[nu][b, a]).real
                for a in range(4)
                for b in range(4)
            )
    return 0.5 * (w + w.T)
