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
from qxcorr.oracle import LOCAL_SPIN, PAULI

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

    def test_rejects_non_finite_entries(self):
        bad = MIXED.copy()
        bad[0, 3] = bad[3, 0] = np.nan
        stack = stack_of_states()
        stack[5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="non-finite"):
                validate_density_matrix(bad)
            with pytest.raises(ValueError, match=r"non-finite entries \(stack index 5\)"):
                validate_density_matrix(stack)
            for matrix_fn in (oracle_m_matrix, oracle_w_matrix):
                with pytest.raises(ValueError, match="non-finite"):
                    matrix_fn(bad)

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



def assert_same_bits(stacked, single):
    stacked, single = np.asarray(stacked), np.asarray(single)
    assert stacked.dtype == single.dtype and stacked.shape == single.shape
    assert stacked.tobytes() == single.tobytes()


def stack_of_states():
    """Seeded dephased and phased states, both subnormal cases, a diagonal state
    and one with a single zero coherence (so that a pivot is zero for some
    members only)."""
    rng = np.random.default_rng(389)
    states = [random_x_state(rng, dephased=dephased) for dephased in (True, False) for _ in range(20)]
    states.insert(7, XMatrix(a=0.5, b=0.3, c=0.1, d=0.1, u=1e-320, v=0.1))
    p = XStateParams(Jz=3.36696, r1=1.75083, r2=2.50158, B1=-0.1438, B2=-2.59175, T=0.00969473)
    states.insert(19, thermal_xmatrix(p))
    states.insert(30, XMatrix(a=0.1, b=0.4, c=0.2, d=0.3))
    states.insert(35, XMatrix(a=0.4, b=0.3, c=0.2, d=0.1, v=0.15j))
    return np.stack([x.as_matrix() for x in states])


class TestStacks:
    """A stack of states gives the same bits as one call per state."""

    def test_jacobi_matches_single_calls(self):
        rho = stack_of_states()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            evals, evecs = jacobi_eigh(rho)
            for i, member in enumerate(rho):
                single_evals, single_evecs = jacobi_eigh(member)
                assert_same_bits(evals[i], single_evals)
                assert_same_bits(evecs[i], single_evecs)

    def test_diagonal_member_is_untouched(self):
        rho = stack_of_states()
        evals, evecs = jacobi_eigh(rho)
        assert_same_bits(evals[30], np.array([0.1, 0.2, 0.3, 0.4]))
        assert_same_bits(evecs[30], np.eye(4, dtype=complex)[:, [0, 2, 3, 1]])

    def test_validation_matches_single_calls(self):
        rho = stack_of_states()
        p, v = validate_density_matrix(rho)
        for i, member in enumerate(rho):
            single_p, single_v = validate_density_matrix(member)
            assert_same_bits(p[i], single_p)
            assert_same_bits(v[i], single_v)

    @pytest.mark.parametrize("matrix_fn", [oracle_m_matrix, oracle_w_matrix])
    def test_moment_matrices_match_single_calls(self, matrix_fn):
        rho = stack_of_states()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            k = matrix_fn(rho)
            top = lambda_max_closed(k)
        assert k.shape == (len(rho), 3, 3) and top.shape == (len(rho),)
        for i, member in enumerate(rho):
            single = matrix_fn(member)
            assert_same_bits(k[i], single)
            assert_same_bits(top[i], lambda_max_closed(single))

    def test_stack_of_one_and_nested_stacks(self):
        rho = stack_of_states()[:12]
        evals, evecs = jacobi_eigh(rho)
        one_evals, one_evecs = jacobi_eigh(rho[:1])
        assert one_evals.shape == (1, 4) and one_evecs.shape == (1, 4, 4)
        assert_same_bits(one_evals[0], evals[0])
        assert_same_bits(one_evecs[0], evecs[0])
        nested_evals, nested_evecs = jacobi_eigh(rho.reshape(3, 4, 4, 4))
        assert_same_bits(nested_evals, evals.reshape(3, 4, 4))
        assert_same_bits(nested_evecs, evecs.reshape(3, 4, 4, 4))
        assert_same_bits(oracle_w_matrix(rho.reshape(2, 6, 4, 4)), oracle_w_matrix(rho).reshape(2, 6, 3, 3))

    def test_non_hermitian_member(self):
        rho = stack_of_states()
        rho[5, 0, 1] += 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"not Hermitian \(stack index 5\)"):
                validate_density_matrix(rho)

    def test_negative_eigenvalue_member(self):
        rho = stack_of_states()
        rho[11] = np.diag([0.6, 0.5, -0.05, -0.05])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"negative eigenvalue.*\(stack index 11\)"):
                validate_density_matrix(rho)
            with pytest.raises(ValueError, match="negative eigenvalue"):
                oracle_m_matrix(rho)

class TestLambdaMax:
    def test_routes_agree(self):
        rng = np.random.default_rng(347)
        for _ in range(50):
            k = rng.normal(size=(3, 3))
            k = k + k.T
            assert lambda_max_closed(k) == pytest.approx(lambda_max_jacobi(k), abs=1e-12)

    def test_isotropic_matrix(self):
        assert lambda_max_closed(0.7 * np.eye(3)) == pytest.approx(0.7, abs=1e-15)


def bell_diagonal(c1, c2, c3):
    """(1 + sum_i c_i sigma_i (x) sigma_i) / 4."""
    rho = np.eye(4, dtype=complex)
    for c, axis in zip((c1, c2, c3), "xyz"):
        rho = rho + c * np.kron(PAULI[axis], PAULI[axis])
    return rho / 4.0


def tied_bell_states():
    """Seeded Bell-diagonal states with two equal correlations, in each slot,
    so that the top two eigenvalues of both moment matrices nearly tie."""
    rng = np.random.default_rng(397)
    states = []
    while len(states) < 30:
        c, other = rng.uniform(-1.0, 1.0, size=2)
        rho = bell_diagonal(*np.roll([c, c, other], len(states) % 3))
        if jacobi_eigh(rho)[0][0] > 1e-3:
            states.append(rho)
    return states


def boundary_line_states():
    """Zero-field thermal states on the branch-tie line r1 + r2 = 2|Jz|."""
    rng = np.random.default_rng(401)
    params = [XStateParams(Jz=1.0, r1=1.2, r2=0.8, B1=0.0, B2=0.0, T=0.7)]
    for _ in range(30):
        jz = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        r1 = rng.uniform(0.0, 2.0 * abs(jz))
        t = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        params.append(XStateParams(Jz=jz, r1=r1, r2=2.0 * abs(jz) - r1, B1=0.0, B2=0.0, T=t))
    return [thermal_xmatrix(p).as_matrix() for p in params]


MEASURES = (("LQFI", oracle_m_matrix), ("LQU", oracle_w_matrix))


def assert_polish_matches_jacobi(states):
    """The polished minimum is 1 - lambda_max of the moment matrix."""
    for rho in states:
        for which, matrix_fn in MEASURES:
            reference = 1.0 - lambda_max_jacobi(matrix_fn(rho))
            assert abs(minimize_over_observables(rho, which) - reference) <= 1e-13


class TestMinimizer:
    def test_sphere_directions_are_unit(self):
        dirs = fibonacci_sphere(2048)
        assert dirs.shape == (2048, 3)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-12

    def test_grid_is_a_read_only_constant(self, monkeypatch):
        expected = fibonacci_sphere(2048)

        def forbidden(n):
            raise AssertionError("grid rebuilt")

        monkeypatch.setattr(qxcorr.oracle, "fibonacci_sphere", forbidden)
        rho = random_x_state(np.random.default_rng(433), dephased=False).as_matrix()
        for which, _ in MEASURES:
            for refine in (True, False):
                minimize_over_observables(rho, which, refine=refine)
        assert np.array_equal(qxcorr.oracle.SPHERE_GRID, expected)
        assert not qxcorr.oracle.SPHERE_GRID.flags.writeable

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

    @pytest.mark.parametrize("dephased", [True, False])
    def test_polish_on_random_states(self, dephased):
        rng = np.random.default_rng(409)
        assert_polish_matches_jacobi([random_x_state(rng, dephased=dephased).as_matrix() for _ in range(40)])

    def test_polish_at_tied_correlations(self):
        assert_polish_matches_jacobi(tied_bell_states())

    def test_polish_with_isotropic_moments(self):
        assert_polish_matches_jacobi([MIXED])

    def test_polish_on_boundary_line(self):
        assert_polish_matches_jacobi(boundary_line_states())

    def test_near_tied_symmetric_matrices(self):
        # top two eigenvalues 1 and 1 - gap with gap down to 1e-16: the polish
        # must not stall where the gradient is lost in rounding
        rng = np.random.default_rng(431)
        dirs = fibonacci_sphere(2048)
        for _ in range(200):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            gap = 10.0 ** rng.uniform(-16.0, 0.0)
            k = (q * [1.0, 1.0 - gap, rng.uniform(-1.0, 1.0 - gap)]) @ q.T
            k = 0.5 * (k + k.T)
            start = dirs[np.argmax(np.einsum("ij,jk,ik->i", dirs, k, dirs))]
            top, _ = qxcorr.oracle._newton_polish(k, tuple(start.tolist()))
            assert abs(top - lambda_max_jacobi(k)) <= 1e-13

    def test_polished_direction_is_a_maximum(self, monkeypatch):
        # at a maximum of n.K.n the tangent Hessian E^T (K - rho I) E is
        # negative semidefinite: trace <= 0 and determinant >= 0
        polished = []
        original = qxcorr.oracle._newton_polish

        def recording(k, n):
            result = original(k, n)
            polished.append((k, *result))
            return result

        monkeypatch.setattr(qxcorr.oracle, "_newton_polish", recording)
        rng = np.random.default_rng(419)
        states = [random_x_state(rng, dephased=False).as_matrix() for _ in range(20)]
        for rho in states + tied_bell_states() + boundary_line_states() + [MIXED]:
            for which, _ in MEASURES:
                value = minimize_over_observables(rho, which)
                k, top, n = polished[-1]
                n = np.array(n)
                assert value == pytest.approx(1.0 - top, abs=1e-15)
                assert abs(n @ n - 1.0) < 1e-15
                helper = np.eye(3)[np.argmin(np.abs(n))]
                e1 = np.cross(n, helper)
                e1 /= math.sqrt(e1 @ e1)
                e = np.column_stack([e1, np.cross(n, e1)])
                h = e.T @ (k - top * np.eye(3)) @ e
                scale = np.abs(k).max()
                assert h[0, 0] + h[1, 1] <= 1e-14 * scale
                assert h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0] >= -1e-14 * scale**2

    def test_no_eigensolver_in_the_polish(self, monkeypatch):
        calls = []
        original = qxcorr.oracle.jacobi_eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return original(a, *args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy eigensolver called")

        monkeypatch.setattr(qxcorr.oracle, "jacobi_eigh", counting)
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        rho = random_x_state(np.random.default_rng(421), dephased=False).as_matrix()
        for which, _ in MEASURES:
            minimize_over_observables(rho, which)
        assert calls == [(4, 4), (4, 4)]


class TestRandomStates:
    def test_generator_produces_valid_states(self):
        rng = np.random.default_rng(367)
        for _ in range(100):
            x = random_x_state(rng, dephased=False)
            validate_density_matrix(x.as_matrix())
