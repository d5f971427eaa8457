"""Brute-force verification path: Jacobi eigensolver, moment matrices, minimizer."""

import math
import warnings

import numpy as np
import pytest

import qxcorr.oracle
from conftest import fisher_pair_loop, random_hamiltonian
from qxcorr import (
    XMatrix,
    XStateParams,
    fibonacci_sphere,
    gibbs_xstate,
    jacobi_eigh,
    lambda_max_closed,
    lambda_max_jacobi,
    lqfi_thermal,
    lqfi_x,
    lqu_thermal,
    lqu_x,
    minimize_over_observables,
    oracle_m_matrix,
    oracle_w_matrix,
    random_x_state,
    thermal_xmatrix,
    validate_density_matrix,
)
from qxcorr.oracle import LOCAL_SPIN

MIXED = np.eye(4, dtype=complex) / 4.0
BELL = XMatrix(a=0.5, b=0.0, c=0.0, d=0.5, u=0.5).as_matrix()


def random_hermitian(rng, n=4):
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return raw + raw.conj().T


class TestJacobiEigh:
    def test_matches_numpy_on_random_hermitian(self):
        rng = np.random.default_rng(307)
        for _ in range(30):
            mat = random_hermitian(rng)
            evals, evecs = jacobi_eigh(mat)
            assert np.allclose(evals, np.linalg.eigvalsh(mat), atol=1e-12)
            # eigenvectors reconstruct the matrix
            assert np.abs((evecs * evals) @ evecs.conj().T - mat).max() < 1e-12
            # unitarity
            assert np.abs(evecs.conj().T @ evecs - np.eye(4)).max() < 1e-13

    def test_three_by_three_real(self):
        rng = np.random.default_rng(311)
        mat = rng.normal(size=(3, 3))
        mat = mat + mat.T
        evals, _ = jacobi_eigh(mat)
        assert np.allclose(evals, np.linalg.eigvalsh(mat), atol=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.zeros((2, 3)))

    def test_subnormal_entries(self):
        # a low-temperature Gibbs state whose entries are all subnormal or zero,
        # and a subnormal coherence beside a normal diagonal gap; LQU is held to
        # the documented dense-matrix ceiling of 1e-7
        p = XStateParams(Jz=3.36696, r1=1.75083, r2=2.50158, B1=-0.1438, B2=-2.59175, T=0.00969473)
        gapped = XMatrix(a=0.5, b=0.3, c=0.1, d=0.1, u=1e-320, v=0.1)
        cases = [
            (thermal_xmatrix(p), lqfi_thermal(p).value, lqu_thermal(p).value),
            (gapped, lqfi_x(gapped).value, lqu_x(gapped).value),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for x, f_ref, u_ref in cases:
                rho = x.as_matrix()
                assert 1.0 - lambda_max_jacobi(oracle_m_matrix(rho)) == pytest.approx(f_ref, abs=1e-9)
                assert 1.0 - lambda_max_jacobi(oracle_w_matrix(rho)) == pytest.approx(u_ref, abs=1e-7)

    def test_low_temperature_scan(self):
        # occupations far below 1e-12 and entries down to the subnormal range
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for _ in range(8):
                base = dict(
                    Jz=rng.uniform(-4.0, 4.0), r1=rng.uniform(0.0, 4.0), r2=rng.uniform(0.0, 4.0),
                    B1=rng.uniform(-3.0, 3.0), B2=rng.uniform(-3.0, 3.0),
                )
                for t in np.linspace(1e-3, 0.05, 25):
                    p = XStateParams(T=float(t), **base)
                    rho = thermal_xmatrix(p).as_matrix()
                    f = 1.0 - lambda_max_jacobi(oracle_m_matrix(rho))
                    u = 1.0 - lambda_max_jacobi(oracle_w_matrix(rho))
                    assert f == pytest.approx(lqfi_thermal(p).value, abs=1e-9)
                    assert u == pytest.approx(lqu_thermal(p).value, abs=1e-7)


class TestValidation:
    def test_accepts_valid(self):
        validate_density_matrix(MIXED)

    def test_rejects_nonhermitian(self):
        bad = MIXED.copy()
        bad[0, 1] = 0.1
        with pytest.raises(ValueError):
            validate_density_matrix(bad)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.eye(4, dtype=complex) / 2.0)

    def test_rejects_negative_eigenvalue(self):
        bad = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(ValueError):
            validate_density_matrix(bad)

    def test_returns_decomposition(self):
        rng = np.random.default_rng(373)
        for dephased in (True, False):
            for _ in range(20):
                rho = random_x_state(rng, dephased=dephased).as_matrix()
                p, v = validate_density_matrix(rho)
                assert p.min() >= 0.0
                assert np.abs(rho @ v - v * p).max() < 1e-12


class TestMomentMatrices:
    def test_fisher_moments_identity_for_mixed(self):
        assert np.abs(oracle_m_matrix(MIXED) - np.eye(3)).max() < 1e-12

    def test_skew_moments_identity_for_mixed(self):
        assert np.abs(oracle_w_matrix(MIXED) - np.eye(3)).max() < 1e-12

    def test_diagonal_for_dephased_x_states(self):
        rng = np.random.default_rng(313)
        for _ in range(40):
            rho = random_x_state(rng).as_matrix()
            for k in (oracle_m_matrix(rho), oracle_w_matrix(rho)):
                off = k - np.diag(np.diag(k))
                assert np.abs(off).max() < 1e-12

    def test_skew_moments_of_pure_state(self):
        # idempotent square root: the trace formula reduces to rho itself
        w = oracle_w_matrix(BELL)
        direct = np.zeros((3, 3))
        for i, mu in enumerate("xyz"):
            for j, nu in enumerate("xyz"):
                direct[i, j] = np.trace(BELL @ LOCAL_SPIN[mu] @ BELL @ LOCAL_SPIN[nu]).real
        assert np.abs(w - direct).max() < 1e-12

    @pytest.mark.parametrize("dephased", [True, False])
    def test_matches_reference_forms(self, dephased):
        # reference: a separate Jacobi decomposition, the Fisher sum as a pair
        # loop and the skew sum as the trace tr(sqrt(rho) S sqrt(rho) S)
        rng = np.random.default_rng(379)
        for _ in range(40):
            rho = random_x_state(rng, dephased=dephased).as_matrix()
            evals, evecs = jacobi_eigh(rho)
            p = np.clip(evals, 0.0, None)
            spins = {axis: evecs.conj().T @ LOCAL_SPIN[axis] @ evecs for axis in "xyz"}
            root = (evecs * np.sqrt(p)) @ evecs.conj().T
            w = np.array(
                [[np.trace(root @ LOCAL_SPIN[mu] @ root @ LOCAL_SPIN[nu]).real for nu in "xyz"] for mu in "xyz"]
            )
            assert np.abs(oracle_m_matrix(rho) - fisher_pair_loop(p, spins)).max() < 1e-14
            assert np.abs(oracle_w_matrix(rho) - 0.5 * (w + w.T)).max() < 1e-14

    @pytest.mark.parametrize("matrix_fn", [oracle_m_matrix, oracle_w_matrix])
    def test_one_decomposition_per_matrix(self, monkeypatch, matrix_fn):
        calls = []
        original = qxcorr.oracle.jacobi_eigh

        def counting(a, *args, **kwargs):
            calls.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(qxcorr.oracle, "jacobi_eigh", counting)
        matrix_fn(random_x_state(np.random.default_rng(383)).as_matrix())
        assert len(calls) == 1

    def test_pipeline_equivalence_with_closed_forms(self):
        rng = np.random.default_rng(317)
        for _ in range(40):
            x = random_x_state(rng)
            rho = x.as_matrix()
            f_oracle = 1.0 - lambda_max_closed(oracle_m_matrix(rho))
            u_oracle = 1.0 - lambda_max_closed(oracle_w_matrix(rho))
            assert abs(f_oracle - lqfi_x(x).value) < 1e-9
            assert abs(u_oracle - lqu_x(x).value) < 1e-9

    def test_local_phase_invariance(self):
        # conjugation by phase unitaries on each qubit preserves both measures;
        # this is what licenses working with the dephased canonical form
        rng = np.random.default_rng(331)
        for _ in range(10):
            x = random_x_state(rng, dephased=False)
            rho = x.as_matrix()
            alpha, betaph = rng.uniform(0.0, 2.0 * math.pi, size=2)
            ua = np.diag([1.0, np.exp(1j * alpha)])
            ub = np.diag([1.0, np.exp(1j * betaph)])
            u = np.kron(ua, ub)
            rotated = u @ rho @ u.conj().T
            for matrix_fn in (oracle_m_matrix, oracle_w_matrix):
                before = 1.0 - lambda_max_closed(matrix_fn(rho))
                after = 1.0 - lambda_max_closed(matrix_fn(rotated))
                assert abs(before - after) < 1e-10

    def test_thermal_states_pass_validation(self):
        rng = np.random.default_rng(337)
        for _ in range(10):
            h = random_hamiltonian(rng)
            rho = gibbs_xstate(h, rng.uniform(0.1, 5.0)).as_matrix()
            validate_density_matrix(rho)


class TestLambdaMax:
    def test_routes_agree(self):
        rng = np.random.default_rng(347)
        for _ in range(50):
            k = rng.normal(size=(3, 3))
            k = k + k.T
            assert lambda_max_closed(k) == pytest.approx(lambda_max_jacobi(k), abs=1e-12)

    def test_isotropic_matrix(self):
        assert lambda_max_closed(0.7 * np.eye(3)) == pytest.approx(0.7, abs=1e-15)


class TestMinimizer:
    def test_sphere_directions_are_unit(self):
        dirs = fibonacci_sphere(2048)
        assert dirs.shape == (2048, 3)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-12

    def test_trivial_states(self):
        assert minimize_over_observables(MIXED, "LQFI") == pytest.approx(0.0, abs=1e-9)
        assert minimize_over_observables(BELL, "LQU") == pytest.approx(1.0, abs=1e-9)

    def test_refined_matches_eigenvalue_formula(self):
        rng = np.random.default_rng(353)
        for _ in range(15):
            rho = random_x_state(rng).as_matrix()
            for which, matrix_fn in (("LQFI", oracle_m_matrix), ("LQU", oracle_w_matrix)):
                formula = 1.0 - lambda_max_closed(matrix_fn(rho))
                refined = minimize_over_observables(rho, which)
                assert abs(refined - formula) < 1e-9

    def test_grid_only_never_undershoots(self):
        # the grid is a subset of the sphere, so its minimum can only sit above
        # the true one
        rng = np.random.default_rng(359)
        for _ in range(15):
            rho = random_x_state(rng).as_matrix()
            formula = 1.0 - lambda_max_closed(oracle_m_matrix(rho))
            grid_only = minimize_over_observables(rho, "LQFI", refine=False)
            assert grid_only >= formula - 1e-12

    def test_rejects_unknown_measure(self):
        with pytest.raises(ValueError):
            minimize_over_observables(MIXED, "discord")


class TestRandomStates:
    def test_generator_produces_valid_states(self):
        rng = np.random.default_rng(367)
        for _ in range(100):
            x = random_x_state(rng, dephased=False)
            validate_density_matrix(x.as_matrix())
