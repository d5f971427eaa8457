"""Closed-form LQFI/LQU: matrix-element forms, raw cross-checks, thermal forms."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    ANTIFERRO_STRONG,
    FERRO_DOUBLE_CROSSING,
    FERRO_WEAK_FIELD,
    fisher_pair_loop,
    random_reduced,
    skew_pair_loop,
)
from qxcorr import (
    XMatrix,
    XStateParams,
    lqfi_thermal,
    lqfi_x,
    lqu_thermal,
    lqu_x,
    m_eigenvalues,
    m_eigenvalues_raw,
    oracle_m_matrix,
    oracle_w_matrix,
    random_x_state,
    thermal_xmatrix,
    w_eigenvalues,
    w_eigenvalues_raw,
)
from qxcorr.correlations import BranchPair, _frame_eigenvalues_and_spins

MIXED = XMatrix(a=0.25, b=0.25, c=0.25, d=0.25)
BELL = XMatrix(a=0.5, b=0.0, c=0.0, d=0.5, u=0.5)
INNER_ONLY = XMatrix(a=0.0, b=0.6, c=0.4, d=0.0, v=0.3)


def random_states(seed, count):
    rng = np.random.default_rng(seed)
    return [random_x_state(rng) for _ in range(count)]


class TestFisherMoments:
    def test_maximally_mixed(self):
        m = m_eigenvalues(MIXED)
        assert (m.xx, m.yy, m.zz) == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)

    def test_bell_state(self):
        m = m_eigenvalues(BELL)
        assert m.zz == pytest.approx(0.0, abs=1e-14)
        assert m.xx == pytest.approx(0.0, abs=1e-14)

    def test_single_block_state(self):
        m = m_eigenvalues(INNER_ONLY)
        assert m.xx == 0.0 and m.yy == 0.0
        assert m.zz == pytest.approx(1.0 - 4.0 * 0.09, abs=1e-14)

    def test_raw_matches_simplified(self):
        for x in random_states(101, 60):
            simple = m_eigenvalues(x)
            raw = m_eigenvalues_raw(x)
            assert simple.xx == pytest.approx(raw.xx, abs=1e-10)
            assert simple.yy == pytest.approx(raw.yy, abs=1e-10)
            assert simple.zz == pytest.approx(raw.zz, abs=1e-10)

    def test_matches_spectral_oracle(self):
        for x in random_states(103, 60):
            k = oracle_m_matrix(x.as_matrix())
            m = m_eigenvalues(x)
            assert m.xx == pytest.approx(k[0, 0], abs=1e-9)
            assert m.yy == pytest.approx(k[1, 1], abs=1e-9)
            assert m.zz == pytest.approx(k[2, 2], abs=1e-9)


class TestSkewMoments:
    def test_maximally_mixed(self):
        w = w_eigenvalues(MIXED)
        assert (w.xx, w.yy, w.zz) == pytest.approx((1.0, 1.0, 1.0), abs=1e-14)

    def test_bell_state_degenerate_rule(self):
        # (sqrt(p3) + sqrt(p4)) vanishes; the tied numerators vanish with it
        w = w_eigenvalues(BELL)
        assert w.xx == pytest.approx(0.0, abs=1e-14)
        assert w.zz == pytest.approx(0.0, abs=1e-14)

    def test_single_block_state(self):
        w = w_eigenvalues(INNER_ONLY)
        assert w.xx == 0.0 and w.yy == 0.0

    def test_raw_matches_simplified(self):
        for x in random_states(107, 60):
            simple = w_eigenvalues(x)
            raw = w_eigenvalues_raw(x)
            assert simple.xx == pytest.approx(raw.xx, abs=1e-10)
            assert simple.yy == pytest.approx(raw.yy, abs=1e-10)
            assert simple.zz == pytest.approx(raw.zz, abs=1e-10)

    def test_matches_square_root_oracle(self):
        for x in random_states(109, 60):
            k = oracle_w_matrix(x.as_matrix())
            w = w_eigenvalues(x)
            assert w.xx == pytest.approx(k[0, 0], abs=1e-9)
            assert w.yy == pytest.approx(k[1, 1], abs=1e-9)
            assert w.zz == pytest.approx(k[2, 2], abs=1e-9)


@pytest.mark.parametrize("dephased", [True, False])
def test_raw_forms_match_pair_loops(dephased):
    rng = np.random.default_rng(151)
    for _ in range(40):
        x = random_x_state(rng, dephased=dephased)
        lam, spins = _frame_eigenvalues_and_spins(x)
        for raw, ref in (
            (m_eigenvalues_raw(x), fisher_pair_loop(lam, spins)),
            (w_eigenvalues_raw(x), skew_pair_loop(lam, spins)),
        ):
            assert np.abs(np.array([raw.xx, raw.yy, raw.zz]) - np.diag(ref)).max() < 1e-14


class TestBranchPair:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "branch0, branch1",
        [(float("nan"), 0.1), (0.1, float("inf")), (float("-inf"), 0.1), (float("nan"), float("nan"))],
    )
    def test_non_finite_branch_raises(self, branch0, branch1):
        with pytest.raises(ValueError, match="non-finite"):
            BranchPair.from_branches(branch0, branch1)


class TestOrderings:
    def test_xx_dominates_yy(self):
        for x in random_states(113, 200):
            m = m_eigenvalues(x)
            w = w_eigenvalues(x)
            assert m.xx >= m.yy - 1e-14
            assert w.xx >= w.yy - 1e-14

    def test_lqu_never_exceeds_lqfi(self):
        # harmonic-vs-geometric mean ordering of the moment weights
        for x in random_states(127, 200):
            assert lqu_x(x).value <= lqfi_x(x).value + 1e-12


class TestMeasuresOnStates:
    def test_maximally_mixed(self):
        assert lqfi_x(MIXED).value == pytest.approx(0.0, abs=1e-14)
        assert lqu_x(MIXED).value == pytest.approx(0.0, abs=1e-14)

    def test_bell_state(self):
        assert lqfi_x(BELL).value == pytest.approx(1.0, abs=1e-14)
        assert lqu_x(BELL).value == pytest.approx(1.0, abs=1e-14)

    def test_branch_bookkeeping(self):
        for x in random_states(131, 100):
            for pair in (lqfi_x(x), lqu_x(x)):
                assert pair.value == min(pair.branch0, pair.branch1)
                assert 0.0 <= pair.value <= 1.0
                if pair.active == "boundary":
                    assert abs(pair.branch0 - pair.branch1) < 1e-10
                else:
                    assert pair.active == ("0" if pair.branch0 < pair.branch1 else "1")

    def test_strong_exchange_low_temperature_plateau(self):
        x = thermal_xmatrix(XStateParams(**ANTIFERRO_STRONG, T=1e-3))
        assert lqfi_x(x).value == pytest.approx(0.5322245, abs=1e-4)
        assert lqu_x(x).value == pytest.approx(0.5322245, abs=1e-4)

    def test_double_crossing_low_temperature_plateau(self):
        x = thermal_xmatrix(XStateParams(**FERRO_DOUBLE_CROSSING, T=1e-3))
        assert lqu_x(x).value == pytest.approx(0.961538, abs=1e-4)
        assert lqfi_x(x).value == pytest.approx(0.961538, abs=1e-4)


class TestThermalForms:
    def test_weak_field_low_temperature_plateau(self):
        pair = lqfi_thermal(XStateParams(**FERRO_WEAK_FIELD, T=1e-3))
        assert pair.branch0 == pytest.approx(0.735294, abs=1e-4)
        assert pair.value == pair.branch0

    @staticmethod
    def _block_products(p):
        """True products of paired level occupations, kept in exponential form."""
        import math

        beta = 1.0 / p.T
        r1 = math.hypot(p.r1, p.B1 + p.B2)
        r2 = math.hypot(p.r2, p.B1 - p.B2)
        levels = (p.Jz + r1, p.Jz - r1, -p.Jz + r2, -p.Jz - r2)
        m = max(-beta * e for e in levels)
        w = [math.exp(-beta * e - m) for e in levels]
        z = sum(w)
        return (w[0] * w[1] / z**2, w[2] * w[3] / z**2)

    def test_matches_matrix_element_route(self):
        # The skew branches involve sqrt(p) of block eigenvalues; once a true
        # eigenvalue product drops near the rounding scale of the stored matrix
        # entries (~1e-16), the matrix-element route cannot represent it and at
        # most ~1e-7 of sqrt-amplified noise remains.  Outside that window the
        # two routes must agree to 1e-10; inside it the bounded looser check
        # documents the double-precision ceiling.
        rng = np.random.default_rng(137)
        checked = 0
        for _ in range(25):
            base = random_reduced(rng)
            for t in np.geomspace(1e-3, 1e3, 9):
                p = dataclasses.replace(base, T=float(t))
                x = thermal_xmatrix(p)
                f_t, f_x = lqfi_thermal(p), lqfi_x(x)
                u_t, u_x = lqu_thermal(p), lqu_x(x)
                assert f_t.branch0 == pytest.approx(f_x.branch0, abs=1e-10)
                assert f_t.branch1 == pytest.approx(f_x.branch1, abs=1e-10)
                resolvable = all(
                    prod == 0.0 or not (1e-22 < prod < 1e-9)
                    for prod in self._block_products(p)
                )
                tol = 1e-10 if resolvable else 1e-7
                checked += resolvable
                assert u_t.branch0 == pytest.approx(u_x.branch0, abs=tol)
                assert u_t.branch1 == pytest.approx(u_x.branch1, abs=tol)
        assert checked > 150  # the strict tolerance covers the bulk of the grid

    def test_zero_field_pipeline_consistency(self):
        p = XStateParams(Jz=1.0, r1=3.4, r2=3.2, B1=0.0, B2=0.0, T=1.0)
        f_t = lqfi_thermal(p)
        f_x = lqfi_x(thermal_xmatrix(p))
        assert f_t.value == pytest.approx(f_x.value, abs=1e-12)

    def test_field_swap_leaves_zero_branches(self):
        rng = np.random.default_rng(139)
        for _ in range(25):
            p = random_reduced(rng)
            q = dataclasses.replace(p, B1=p.B2, B2=p.B1)
            assert lqfi_thermal(p).branch0 == lqfi_thermal(q).branch0
            assert lqu_thermal(p).branch0 == lqu_thermal(q).branch0

    def test_field_swap_only_flips_difference_term(self):
        # B2^2 - B1^2 is the single swap-sensitive piece of the 1-branches
        p = XStateParams(Jz=0.7, r1=1.1, r2=0.4, B1=0.9, B2=-0.2, T=0.8)
        swapped = dataclasses.replace(p, B1=p.B2, B2=p.B1)
        assert lqfi_thermal(p).branch1 != lqfi_thermal(swapped).branch1
        same_diff = dataclasses.replace(p, B1=-p.B1, B2=-p.B2)
        assert lqfi_thermal(p).branch1 == pytest.approx(lqfi_thermal(same_diff).branch1, abs=1e-14)
        assert lqu_thermal(p).branch1 == pytest.approx(lqu_thermal(same_diff).branch1, abs=1e-14)

    def test_zero_field_symmetric_branch(self):
        # with B1 = B2 = 0 the field-difference term drops from the 1-branch
        p = XStateParams(Jz=-0.5, r1=0.8, r2=1.3, B1=0.0, B2=0.0, T=0.9)
        u = lqu_thermal(p)
        assert 0.0 <= u.branch1 <= 1.0

    def test_thermal_ordering_lqu_below_lqfi(self):
        rng = np.random.default_rng(149)
        for _ in range(60):
            p = random_reduced(rng)
            assert lqu_thermal(p).value <= lqfi_thermal(p).value + 1e-12

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            XStateParams(Jz=1.0, r1=1.0, r2=1.0, T=-1.0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-3.0, 3.0),
    st.floats(0.0, 3.0),
    st.floats(0.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(1e-3, 1e3),
)
def test_branch_values_stay_in_unit_interval(jz, r1, r2, b1, b2, t):
    p = XStateParams(Jz=jz, r1=r1, r2=r2, B1=b1, B2=b2, T=t)
    for pair in (lqfi_thermal(p), lqu_thermal(p)):
        assert 0.0 <= pair.branch0 <= 1.0
        assert 0.0 <= pair.branch1 <= 1.0
        assert pair.value == min(pair.branch0, pair.branch1)
