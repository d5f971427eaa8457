"""Closed-form LQFI/LQU: matrix-element forms, raw cross-checks, thermal forms."""

import dataclasses
import math

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
    lambda_max_jacobi,
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
from qxcorr.correlations import BOUNDARY_TOL, BranchPair, _frame_eigenvalues_and_spins, thermal_branches

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

    def test_lqu_of_accepted_state_with_negative_populations(self):
        # XMatrix accepts populations down to -XMATRIX_ATOL; the skew moments'
        # degenerate ratios then take their valid-state limit, which is the
        # value at the nearest valid state (populations clipped to zero)
        x = XMatrix(a=0.25, b=-5e-10, c=-1e-9, d=0.75 + 1.5e-9)
        nearest = XMatrix(a=0.25, b=0.0, c=0.0, d=0.75)
        u = lqu_x(x)
        assert 0.0 <= u.value <= 1.0
        assert u.value == pytest.approx(1.0 - lambda_max_jacobi(oracle_w_matrix(nearest.as_matrix())), abs=1e-12)
        assert u.value == lqfi_x(x).value == 0.0

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


# README-scale thermal points plus the degenerate kinds the scalar guards
# exist for, with T log-uniform in [1e-3, 1e3]
_README_SCALE = 3.4
_coordinate = st.floats(-_README_SCALE, _README_SCALE, allow_nan=False)
_radius = st.floats(0.0, _README_SCALE, allow_nan=False)


def _near_level_crossing(r1, r2, b1, b2, t, offset):
    """Jz within ``offset * t`` of the surface R1 = R2 + 2 Jz, where two levels
    cross: at low T a last-bit change in a radius shows in the branches there."""
    return 0.5 * (math.hypot(r1, b1 + b2) - math.hypot(r2, b1 - b2)) + offset * t


@st.composite
def thermal_points(draw):
    kinds = ("generic", "zero field", "r1 = 0, B1 = -B2", "r1 + r2 = 2|Jz|", "R1 = R2 + 2 Jz")
    kind = draw(st.sampled_from(kinds))
    jz, r1, r2, b1, b2 = draw(_coordinate), draw(_radius), draw(_radius), draw(_coordinate), draw(_coordinate)
    t = float(np.exp(draw(st.floats(np.log(1e-3), np.log(1e3)))))
    if kind == "zero field":
        b1 = b2 = 0.0
    elif kind == "r1 = 0, B1 = -B2":
        r1, b2 = 0.0, -b1
    elif kind == "r1 + r2 = 2|Jz|":
        r1 = min(r1, 2.0 * abs(jz))
        r2, b1, b2 = 2.0 * abs(jz) - r1, 0.0, 0.0
    elif kind == "R1 = R2 + 2 Jz":
        jz = _near_level_crossing(r1, r2, b1, b2, t, draw(st.floats(-1.0, 1.0)))
    return XStateParams(Jz=jz, r1=r1, r2=r2, B1=b1, B2=b2, T=t)


class TestThermalKernel:
    """``thermal_branches`` against the scalar thermal forms it repeats."""

    @settings(max_examples=400, deadline=None)
    @given(thermal_points())
    def test_matches_scalar_forms(self, p):
        columns = thermal_branches(p.Jz, p.r1, p.r2, p.B1, p.B2, p.T)
        for pair, (b0, b1, value, label) in ((lqfi_thermal(p), columns[:4]), (lqu_thermal(p), columns[4:])):
            assert abs(b0 - pair.branch0) <= 1e-14
            assert abs(b1 - pair.branch1) <= 1e-14
            assert abs(value - pair.value) <= 1e-14
            if abs(abs(pair.branch0 - pair.branch1) - BOUNDARY_TOL) >= 1e-14:
                assert label == pair.active

    def test_matches_scalar_forms_near_level_crossings_at_low_temperature(self):
        # radii rounded differently from math.hypot (np.hypot is not correctly
        # rounded) move branches here by up to ~6e-13
        rng = np.random.default_rng(223)
        points = []
        for _ in range(4000):
            r1, r2, b1, b2 = rng.uniform([0.0, 0.0, -3.4, -3.4], [3.4, 3.4, 3.4, 3.4]).tolist()
            t = float(np.exp(rng.uniform(np.log(1e-3), np.log(1e-2))))
            jz = _near_level_crossing(r1, r2, b1, b2, t, float(rng.uniform(-1.0, 1.0)))
            points.append(XStateParams(Jz=jz, r1=r1, r2=r2, B1=b1, B2=b2, T=t))
        names = ("Jz", "r1", "r2", "B1", "B2", "T")
        columns = thermal_branches(*(np.array([getattr(p, name) for p in points]) for name in names))
        for i, p in enumerate(points):
            f, u = lqfi_thermal(p), lqu_thermal(p)
            got = [columns.f0[i], columns.f1[i], columns.u0[i], columns.u1[i]]
            assert got == pytest.approx([f.branch0, f.branch1, u.branch0, u.branch1], rel=0.0, abs=1e-14), p

    def test_columns_follow_the_branch_pair_rule(self):
        rng = np.random.default_rng(211)
        points = [random_reduced(rng) for _ in range(200)]
        names = ("Jz", "r1", "r2", "B1", "B2", "T")
        columns = thermal_branches(*(np.array([getattr(p, name) for p in points]) for name in names))
        for b0, b1, value, label in (columns[:4], columns[4:]):
            assert np.all((0.0 <= b0) & (b0 <= 1.0) & (0.0 <= b1) & (b1 <= 1.0))
            assert np.array_equal(value, np.minimum(b0, b1))
            assert set(label) <= {"0", "1", "boundary"}
            assert all(lab == "boundary" for lab in label[np.abs(b0 - b1) < BOUNDARY_TOL])

    @pytest.mark.parametrize("exponent", [154, 200])
    def test_overflow_is_refused_without_warnings(self, exponent):
        # the strong-exchange point scaled by 10**exponent: r1*r2 overflows
        scale = 10.0**exponent
        temperatures = np.geomspace(1e-3, 3.0, 7) * scale
        with pytest.raises(ValueError, match="non-finite branch at Jz=1e"):
            thermal_branches(1.0 * scale, 3.4 * scale, 3.2 * scale, -1.3 * scale, 1.7 * scale, temperatures)

    @pytest.mark.parametrize(
        "name, bad", [("B1", np.nan), ("Jz", np.inf), ("T", 0.0), ("T", -1.0), ("r2", -0.5)]
    )
    def test_names_the_first_parameter_outside_the_domain(self, name, bad):
        params = dict(Jz=1.0, r1=3.4, r2=3.2, B1=-1.3, B2=1.7, T=np.array([0.5, 1.0, 2.0]))
        params[name] = np.array([1.0, bad, bad]) if name != "T" else np.array([0.5, bad, 2.0])
        with pytest.raises(ValueError, match=rf"outside its domain at .*{name}={bad!r}"):
            thermal_branches(**params)
