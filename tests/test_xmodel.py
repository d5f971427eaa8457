"""Model construction: levels, partition function, Gibbs X state, dephasing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FERRO_WEAK_FIELD, gibbs_dense, random_hamiltonian
from qxcorr import (
    HamiltonianParams,
    XMatrix,
    XStateParams,
    dephase,
    derived_radii,
    energy_levels,
    gibbs_xstate,
    hamiltonian_matrix,
    lambda_max_closed,
    oracle_m_matrix,
    oracle_w_matrix,
    partition_function,
    realize,
)

WEAK_FIELD_H = HamiltonianParams(Jx=0.75, Jy=0.25, Jz=-1.0, B1=-0.4, B2=0.7)


class TestEnergyLevels:
    def test_zero_hamiltonian(self):
        assert energy_levels(HamiltonianParams()) == (0.0, 0.0, 0.0, 0.0)

    def test_weak_field_reference_radii(self):
        rad = derived_radii(WEAK_FIELD_H)
        assert rad.r1 == pytest.approx(0.5, abs=1e-12)
        assert rad.r2 == pytest.approx(1.0, abs=1e-12)
        assert rad.R1 == pytest.approx(0.583095, abs=1e-6)
        assert rad.R2 == pytest.approx(1.486607, abs=1e-6)

    def test_radii_ordering(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            h = random_hamiltonian(rng)
            rad = derived_radii(h)
            assert rad.R1 >= rad.r1 and rad.R1 >= abs(h.B1 + h.B2) - 1e-15
            assert rad.R2 >= rad.r2 and rad.R2 >= abs(h.B1 - h.B2) - 1e-15
            assert rad.r1 >= 0.0 and rad.r2 >= 0.0

    def test_weak_field_reference_levels(self):
        levels = energy_levels(WEAK_FIELD_H)
        expected = (-0.416905, -1.583095, 2.486607, -0.486607)
        assert levels == pytest.approx(expected, abs=1e-6)

    def test_hand_evaluated_levels(self):
        # r1 = r2 = 0, R1 = |B1+B2| = 4, R2 = 0
        h = HamiltonianParams(Jz=1.0, B1=2.0, B2=2.0)
        assert energy_levels(h) == pytest.approx((5.0, -3.0, -1.0, -1.0), abs=1e-14)

    def test_matches_dense_diagonalization(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            h = random_hamiltonian(rng)
            dense = np.linalg.eigvalsh(hamiltonian_matrix(h))
            closed = np.sort(energy_levels(h))
            assert np.allclose(dense, closed, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            HamiltonianParams(Jx=math.inf)


class TestPartitionFunction:
    def test_zero_hamiltonian(self):
        assert partition_function(HamiltonianParams(), T=0.37) == pytest.approx(4.0)

    def test_pure_ising_value(self):
        # r1 = r2 = 0 and R1 = R2 = 0: Z = 2(exp(-1) + exp(1)) at T = 1
        h = HamiltonianParams(Jz=1.0)
        assert partition_function(h, 1.0) == pytest.approx(2.0 * (math.exp(-1) + math.exp(1)), rel=1e-14)

    def test_matches_level_sum(self):
        z = partition_function(WEAK_FIELD_H, 1.0)
        direct = sum(math.exp(-e) for e in energy_levels(WEAK_FIELD_H))
        assert abs(z - direct) < 1e-12

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            partition_function(WEAK_FIELD_H, 0.0)
        with pytest.raises(ValueError):
            partition_function(WEAK_FIELD_H, -1.0)

    def test_no_premature_overflow(self):
        # naive cosh would overflow long before the shifted form does
        h = HamiltonianParams(Jx=1.0, Jy=0.2, Jz=0.9, B1=0.3, B2=-0.2)
        z = partition_function(h, 1e-3)
        assert math.isinf(z)  # genuinely beyond double range
        x = gibbs_xstate(h, 1e-3)  # but the state itself stays finite
        assert math.isfinite(x.a) and math.isfinite(abs(x.u))


class TestGibbsXState:
    def test_zero_hamiltonian_is_maximally_mixed(self):
        x = gibbs_xstate(HamiltonianParams(), 2.0)
        assert (x.a, x.b, x.c, x.d) == pytest.approx((0.25,) * 4, abs=1e-14)
        assert abs(x.u) == 0.0 and abs(x.v) == 0.0

    def test_zero_field_is_bell_diagonal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h = HamiltonianParams(
                Jx=rng.uniform(-2, 2), Jy=rng.uniform(-2, 2), Jz=rng.uniform(-2, 2),
                Dz=rng.uniform(-2, 2), Gz=rng.uniform(-2, 2),
            )
            x = gibbs_xstate(h, rng.uniform(0.2, 5.0))
            assert x.a == pytest.approx(x.d, abs=1e-14)
            assert x.b == pytest.approx(x.c, abs=1e-14)

    def test_matches_matrix_exponential_reference_point(self):
        x = gibbs_xstate(WEAK_FIELD_H, 0.5)
        assert np.abs(x.as_matrix() - gibbs_dense(WEAK_FIELD_H, 0.5)).max() < 1e-10

    def test_matches_matrix_exponential_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            h = random_hamiltonian(rng)
            t = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
            x = gibbs_xstate(h, t)
            assert np.abs(x.as_matrix() - gibbs_dense(h, t)).max() < 1e-10

    def test_coherence_magnitudes(self):
        h = random_hamiltonian(np.random.default_rng(3))
        t = 0.8
        x = gibbs_xstate(h, t)
        rad = derived_radii(h)
        z = partition_function(h, t)
        expected_u = rad.r1 * math.sinh(rad.R1 / t) * math.exp(-h.Jz / t) / (z * rad.R1)
        expected_v = rad.r2 * math.sinh(rad.R2 / t) * math.exp(h.Jz / t) / (z * rad.R2)
        assert abs(x.u) == pytest.approx(expected_u, rel=1e-12)
        assert abs(x.v) == pytest.approx(expected_v, rel=1e-12)

    def test_vanishing_radius_limit(self):
        # r1 = 0 and B1 + B2 = 0 force R1 = 0; the sinh(x)/x factor tends to 1/T
        h = HamiltonianParams(Jx=0.4, Jy=0.4, Jz=0.3, Dz=0.7, B1=0.6, B2=-0.6)
        assert derived_radii(h).R1 == 0.0
        x = gibbs_xstate(h, 0.9)
        assert abs(x.u) == 0.0
        assert np.abs(x.as_matrix() - gibbs_dense(h, 0.9)).max() < 1e-12

    def test_low_temperature_stays_finite_and_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = random_hamiltonian(rng, scale=5.0)
            x = gibbs_xstate(h, 1e-3)
            tr = x.a + x.b + x.c + x.d
            assert abs(tr - 1.0) < 1e-12
            assert x.a * x.d - abs(x.u) ** 2 >= -1e-12
            assert x.b * x.c - abs(x.v) ** 2 >= -1e-12

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            gibbs_xstate(WEAK_FIELD_H, -0.1)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[st.floats(-4.0, 4.0) for _ in range(7)]),
    st.floats(1e-3, 1e3),
)
def test_gibbs_invariants_property(couplings, temperature):
    x = gibbs_xstate(HamiltonianParams(*couplings), temperature)
    assert abs(x.a + x.b + x.c + x.d - 1.0) < 1e-12
    assert min(x.a, x.b, x.c, x.d) >= -1e-15
    assert x.a * x.d - abs(x.u) ** 2 >= -1e-12
    assert x.b * x.c - abs(x.v) ** 2 >= -1e-12


class TestDephase:
    def test_modulus(self):
        x = XMatrix(a=0.4, b=0.3, c=0.2, d=0.1, u=0.1 + 0.15j, v=0.0)
        out = dephase(x)
        assert out.u == pytest.approx(math.sqrt(0.0325), abs=1e-15)
        assert (out.a, out.b, out.c, out.d) == (x.a, x.b, x.c, x.d)

    def test_fixed_point_for_real_coherences(self):
        x = XMatrix(a=0.4, b=0.3, c=0.2, d=0.1, u=0.15, v=0.2)
        out = dephase(x)
        assert out == x

    def test_measures_invariant_under_dephasing(self):
        # local-unitary invariance, checked against the generic spectral oracle
        rng = np.random.default_rng(19)
        for _ in range(10):
            h = random_hamiltonian(rng)
            x = gibbs_xstate(h, rng.uniform(0.3, 3.0))
            before, after = x.as_matrix(), dephase(x).as_matrix()
            f_before = 1.0 - lambda_max_closed(oracle_m_matrix(before))
            f_after = 1.0 - lambda_max_closed(oracle_m_matrix(after))
            u_before = 1.0 - lambda_max_closed(oracle_w_matrix(before))
            u_after = 1.0 - lambda_max_closed(oracle_w_matrix(after))
            assert abs(f_before - f_after) < 1e-10
            assert abs(u_before - u_after) < 1e-10


class TestXMatrixValidation:
    def test_rejects_negative_population(self):
        with pytest.raises(ValueError):
            XMatrix(a=-0.1, b=0.5, c=0.4, d=0.2)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            XMatrix(a=0.3, b=0.3, c=0.3, d=0.3)

    def test_rejects_positivity_violation(self):
        with pytest.raises(ValueError):
            XMatrix(a=0.25, b=0.25, c=0.25, d=0.25, u=0.3)

    def test_accepts_file_precision_noise(self):
        # tolerance is 1e-9 absolute for ingested data
        XMatrix(a=0.25 + 5e-10, b=0.25, c=0.25, d=0.25)

    def test_matrix_roundtrip(self):
        x = XMatrix(a=0.4, b=0.3, c=0.2, d=0.1, u=0.1 + 0.05j, v=0.12 - 0.03j)
        assert XMatrix.from_matrix(x.as_matrix()) == x

    def test_from_matrix_rejects_non_x_pattern(self):
        m = np.full((4, 4), 0.25, dtype=complex)
        with pytest.raises(ValueError):
            XMatrix.from_matrix(m)

    @pytest.mark.parametrize(
        "i, j, entry", [(0, 1, np.nan), (3, 0, np.nan), (1, 1, complex(0.25, np.nan)), (2, 2, np.inf)]
    )
    def test_from_matrix_rejects_non_finite_entries(self, i, j, entry):
        # a nan compares false against every tolerance, so it must be refused first
        m = np.diag([0.25] * 4).astype(complex)
        m[i, j] = entry
        with pytest.raises(ValueError, match="non-finite"):
            XMatrix.from_matrix(m)


class TestRealization:
    def test_radii_roundtrip(self):
        p = XStateParams(Jz=-1.0, r1=0.5, r2=1.0, B1=-0.4, B2=0.7, T=1.0)
        rad = derived_radii(realize(p))
        assert rad.r1 == pytest.approx(p.r1, abs=1e-14)
        assert rad.r2 == pytest.approx(p.r2, abs=1e-14)

    def test_state_params_validation(self):
        with pytest.raises(ValueError):
            XStateParams(Jz=0.0, r1=-0.1, r2=0.0, T=1.0)
        with pytest.raises(ValueError):
            XStateParams(Jz=0.0, r1=0.1, r2=0.0, T=0.0)

    def test_hamiltonian_reconstruction_levels(self):
        # dense diagonalization of the assembled matrix reproduces the closed levels
        p = XStateParams(**FERRO_WEAK_FIELD, T=1.0)
        h = realize(p)
        dense = np.linalg.eigvalsh(hamiltonian_matrix(h))
        assert np.allclose(dense, np.sort(energy_levels(h)), atol=1e-12)
