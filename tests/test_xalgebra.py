"""Spectrum, eigenframe, and local spin operators of dephased X matrices."""

import math

import numpy as np
import pytest

from conftest import random_hamiltonian
from qxcorr import (
    XMatrix,
    dephase,
    eigenframe,
    gibbs_xstate,
    local_spin_in_eigenbasis,
    random_x_state,
    spectrum,
)
from qxcorr.oracle import LOCAL_SPIN
from qxcorr.xalgebra import BLOCK_PERMUTATION

MIXED = XMatrix(a=0.25, b=0.25, c=0.25, d=0.25)
BELL = XMatrix(a=0.5, b=0.0, c=0.0, d=0.5, u=0.5)


def random_states(seed, count):
    rng = np.random.default_rng(seed)
    return [random_x_state(rng) for _ in range(count)]


class TestSpectrum:
    def test_maximally_mixed(self):
        s = spectrum(MIXED)
        assert (s.p1, s.p2, s.p3, s.p4) == pytest.approx((0.25,) * 4, abs=1e-15)
        assert s.q1 == 0.0 and s.q2 == 0.0

    def test_bell_state(self):
        s = spectrum(BELL)
        assert (s.p1, s.p2, s.p3, s.p4) == pytest.approx((1.0, 0.0, 0.0, 0.0), abs=1e-15)
        assert s.q1 == pytest.approx(0.5, abs=1e-15)
        assert s.q2 == 0.0

    def test_matches_dense_eigenvalues(self):
        from conftest import FERRO_WEAK_FIELD
        from qxcorr import XStateParams, realize

        rng = np.random.default_rng(31)
        cases = [dephase(gibbs_xstate(realize(XStateParams(**FERRO_WEAK_FIELD, T=1.0)), 1.0))]
        cases += [
            dephase(gibbs_xstate(random_hamiltonian(rng), rng.uniform(0.2, 4.0)))
            for _ in range(30)
        ]
        for x in cases:
            s = spectrum(x)
            closed = np.sort([s.p1, s.p2, s.p3, s.p4])
            dense = np.linalg.eigvalsh(x.as_matrix().real)
            assert np.allclose(closed, dense, atol=1e-12)

    def test_sum_and_range(self):
        for x in random_states(17, 50):
            s = spectrum(x)
            values = (s.p1, s.p2, s.p3, s.p4)
            assert abs(sum(values) - 1.0) < 1e-12
            assert all(0.0 <= p <= 1.0 for p in values)
            assert s.p1 >= s.p2 and s.p3 >= s.p4

    def test_q_identities(self):
        cases = random_states(41, 50)
        # edge cases with vanishing coherences
        cases.append(XMatrix(a=0.1, b=0.3, c=0.4, d=0.2))
        cases.append(XMatrix(a=0.4, b=0.2, c=0.3, d=0.1, u=0.0, v=0.1))
        for x in cases:
            s = spectrum(x)
            u, v = abs(x.u), abs(x.v)
            assert s.q1 ** 2 == pytest.approx((x.a - x.d) * s.q1 + u * u, abs=1e-10)
            assert s.q2 ** 2 == pytest.approx((x.c - x.b) * s.q2 + v * v, abs=1e-10)


class TestEigenFrame:
    def test_transforms_symmetric_and_involutive(self):
        for x in random_states(53, 20):
            f = eigenframe(x)
            for mat in (f.permutation, f.rotation):
                assert np.allclose(mat, mat.T, atol=1e-15)
                assert np.allclose(mat @ mat, np.eye(4), atol=1e-12)

    def test_diagonalizes_in_block_order(self):
        for x in random_states(59, 40):
            f = eigenframe(x)
            s = spectrum(x)
            conj = f.rotation @ f.permutation @ x.as_matrix().real @ f.permutation @ f.rotation
            off = conj - np.diag(np.diag(conj))
            assert np.abs(off).max() < 1e-12
            assert np.allclose(np.diag(conj), [s.p1, s.p2, s.p3, s.p4], atol=1e-12)

    def test_identity_rotation_for_diagonal_input(self):
        # both blocks have vanishing rotation parameter (a <= d, c <= b)
        x = XMatrix(a=0.1, b=0.4, c=0.3, d=0.2)
        f = eigenframe(x)
        assert np.array_equal(f.rotation, np.eye(4))

    def test_diagonal_input_with_positive_q_keeps_order(self):
        # a > d and c > b: rotation blocks reduce to sign flips, which keep the
        # frame diagonal in (p1, p2, p3, p4) order
        x = XMatrix(a=0.2, b=0.3, c=0.4, d=0.1)
        f = eigenframe(x)
        assert np.allclose(np.abs(f.rotation), np.eye(4), atol=1e-14)
        conj = f.rotation @ f.permutation @ x.as_matrix().real @ f.permutation @ f.rotation
        assert np.allclose(np.diag(conj), [0.2, 0.1, 0.4, 0.3], atol=1e-15)

    def test_symmetric_block_rotation(self):
        x = XMatrix(a=0.3, b=0.2, c=0.2, d=0.3, u=0.2)
        f = eigenframe(x)
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(f.rotation[:2, :2], [[s, s], [s, -s]], atol=1e-14)

    def test_transform_is_the_product_over_a_shared_permutation(self):
        for x in random_states(67, 10):
            f = eigenframe(x)
            assert np.array_equal(f.transform, f.permutation @ f.rotation)
            assert f.permutation is BLOCK_PERMUTATION
        assert not BLOCK_PERMUTATION.flags.writeable


class TestLocalSpin:
    def test_matches_brute_force_conjugation(self):
        for x in random_states(61, 25):
            f = eigenframe(x)
            for axis in "xyz":
                brute = f.rotation @ f.permutation @ LOCAL_SPIN[axis] @ f.permutation @ f.rotation
                closed = local_spin_in_eigenbasis(x, axis)
                assert np.abs(closed - brute).max() < 1e-12

    def test_z_sign_pattern_for_diagonal_input(self):
        # a > d and b < c with zero coherences: q1 = a - d, q2 = c - b
        x = XMatrix(a=0.4, b=0.1, c=0.3, d=0.2)
        z = local_spin_in_eigenbasis(x, "z")
        assert np.allclose(z, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-14)

    def test_x_for_maximally_mixed_is_permuted_pauli(self):
        # rotation is the identity, so only the block swap acts
        expected = eigenframe(MIXED).permutation @ LOCAL_SPIN["x"] @ eigenframe(MIXED).permutation
        assert np.abs(local_spin_in_eigenbasis(MIXED, "x") - expected).max() < 1e-14

    def test_frobenius_norm_preserved(self):
        for x in random_states(67, 20):
            for axis in "xyz":
                mat = local_spin_in_eigenbasis(x, axis)
                assert np.trace(mat @ mat).real == pytest.approx(4.0, abs=1e-12)

    def test_block_structure(self):
        for x in random_states(71, 15):
            zmat = local_spin_in_eigenbasis(x, "z")
            assert np.abs(zmat[:2, 2:]).max() == 0.0 and np.abs(zmat[2:, :2]).max() == 0.0
            for axis in "xy":
                mat = local_spin_in_eigenbasis(x, axis)
                assert np.abs(mat[:2, :2]).max() == 0.0 and np.abs(mat[2:, 2:]).max() == 0.0

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            local_spin_in_eigenbasis(MIXED, "w")
