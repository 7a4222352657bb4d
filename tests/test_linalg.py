import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lgscan.errors import BadAxis, NotHermitian, NotPSD
from lgscan.linalg import (
    IDENTITY,
    Operator,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    X_HAT,
    eig_hermitian,
    from_pauli,
    qubit_unitary,
    sqrt_psd,
    to_pauli,
)

from conftest import random_axis


def random_hermitian(rng):
    return from_pauli(rng.normal(), rng.normal(size=3))


def random_psd(rng):
    lam = rng.uniform(0, 2, size=2)
    return from_pauli(0.5 * lam.sum(), 0.5 * (lam[0] - lam[1]) * random_axis(rng))


class TestToPauli:
    def test_identity(self):
        c = to_pauli(IDENTITY)
        assert c.a0 == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(c.vec, 0.0, atol=1e-14)

    def test_sigma_z(self):
        c = to_pauli(SIGMA_Z)
        assert c.a0 == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(c.vec, [0, 0, 1], atol=1e-14)

    def test_projector(self):
        c = to_pauli(0.5 * (IDENTITY + SIGMA_Z))
        assert c.a0 == pytest.approx(0.5, abs=1e-14)
        assert np.allclose(c.vec, [0, 0, 0.5], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            to_pauli(Operator(np.array([[0, 1], [0, 0]], dtype=complex)))

    @pytest.mark.parametrize("mat", [[[np.nan, 0], [0, 0.5]], [[0.5, np.nan], [np.nan, 0.5]],
                                     [[0.5, complex(0, np.nan)], [0, 0.5]]])
    def test_rejects_nan(self, mat):
        # a test written `max |A - A^dag| > tol` lets nan through
        with pytest.raises(NotHermitian):
            to_pauli(Operator(np.array(mat, dtype=complex)))

    def test_roundtrip_random(self, rng):
        for _ in range(1000):
            a0, vec = rng.normal(), rng.normal(size=3)
            c = to_pauli(from_pauli(a0, vec))
            assert abs(c.a0 - a0) < 1e-14
            assert np.max(np.abs(c.vec - vec)) < 1e-13

    def test_trace_cyclicity(self, rng):
        for _ in range(200):
            a, b = random_hermitian(rng), random_hermitian(rng)
            assert abs((a @ b).trace() - (b @ a).trace()) < 1e-14


class TestEig:
    def test_sigma_x(self):
        lp, lm, n = eig_hermitian(SIGMA_X)
        assert (lp, lm) == pytest.approx((1.0, -1.0), abs=1e-14)
        assert np.allclose(n, [1, 0, 0], atol=1e-14)

    def test_degenerate_axis_convention(self):
        lp, lm, n = eig_hermitian(0.5 * IDENTITY)
        assert lp == lm == pytest.approx(0.5)
        assert np.allclose(n, [0, 0, 1])

    def test_hand_value(self):
        lp, lm, n = eig_hermitian(0.3 * IDENTITY + 0.2 * SIGMA_Y)
        assert lp == pytest.approx(0.5, abs=1e-14)
        assert lm == pytest.approx(0.1, abs=1e-14)
        assert np.allclose(n, [0, 1, 0], atol=1e-14)

    def test_against_numpy(self, rng):
        for _ in range(300):
            op = random_hermitian(rng)
            lp, lm, _ = eig_hermitian(op)
            ref = np.linalg.eigvalsh(op.mat)
            assert abs(lm - ref[0]) < 1e-12 and abs(lp - ref[1]) < 1e-12


class TestSqrtPsd:
    def test_projector_is_own_root(self):
        proj = 0.5 * (IDENTITY + SIGMA_Z)
        assert sqrt_psd(proj).isclose(proj, tol=1e-14)

    def test_quarter_identity(self):
        assert sqrt_psd(0.25 * IDENTITY).isclose(0.5 * IDENTITY, tol=1e-14)

    def test_unsharp_effect(self):
        effect = from_pauli(0.5, np.array([0, 0, 0.4]))  # eigenvalues 0.9, 0.1
        root = sqrt_psd(effect)
        lp, lm, _ = eig_hermitian(root)
        assert lp == pytest.approx(np.sqrt(0.9), abs=1e-13)
        assert lm == pytest.approx(np.sqrt(0.1), abs=1e-13)
        assert (root @ root).isclose(effect, tol=1e-13)

    def test_square_recovers_random(self, rng):
        for _ in range(1000):
            op = random_psd(rng)
            root = sqrt_psd(op)
            assert root.is_hermitian()
            assert (root @ root).isclose(op, tol=1e-12)

    def test_matches_scipy(self, rng):
        for _ in range(50):
            op = random_psd(rng)
            ref = scipy.linalg.sqrtm(op.mat)
            assert np.max(np.abs(sqrt_psd(op).mat - ref)) < 1e-10

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            sqrt_psd(SIGMA_Z)

    def test_rejects_nan_eigenvalue(self):
        # a finite Hermitian operator whose a0 and |a| overflow to inf: its
        # lower eigenvalue inf - inf is nan, which a test written
        # `lam_minus < -tol` lets through
        op = Operator(np.full((2, 2), 1.7e308))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(eig_hermitian(op)[1])
            with pytest.raises(NotPSD):
                sqrt_psd(op)

    def test_clamps_boundary_rounding(self):
        op = from_pauli(0.5, np.array([0.0, 0.0, 0.5 + 4e-13]))
        root = sqrt_psd(op)
        assert root.is_psd()


class TestQubitUnitary:
    def test_zero_phase(self):
        assert qubit_unitary(X_HAT, 0.0).isclose(IDENTITY, tol=1e-15)

    def test_half_turn(self):
        assert qubit_unitary(X_HAT, np.pi / 2).isclose(-1j * SIGMA_X, tol=1e-15)

    def test_heisenberg_rotation_pins_convention(self, rng):
        # U^dag sigma_z U must carry Pauli vector (0, sin 2tau, cos 2tau)
        for tau in rng.uniform(-np.pi, np.pi, 50):
            u = qubit_unitary(X_HAT, tau)
            vec = to_pauli(u.adjoint() @ SIGMA_Z @ u).vec
            assert np.max(np.abs(vec - [0, np.sin(2 * tau), np.cos(2 * tau)])) < 1e-12

    def test_unitary_random(self, rng):
        for _ in range(300):
            u = qubit_unitary(random_axis(rng), rng.uniform(-10, 10))
            assert (u @ u.adjoint()).isclose(IDENTITY, tol=1e-14)

    def test_matches_expm(self, rng):
        for _ in range(50):
            axis, phase = random_axis(rng), rng.uniform(-5, 5)
            gen = sum((a * s.mat for a, s in zip(axis, (SIGMA_X, SIGMA_Y, SIGMA_Z))),
                      np.zeros((2, 2), complex))
            ref = scipy.linalg.expm(-1j * phase * gen)
            assert np.max(np.abs(qubit_unitary(axis, phase).mat - ref)) < 1e-12

    def test_rejects_non_unit_axis(self):
        with pytest.raises(BadAxis):
            qubit_unitary(np.array([1.0, 1.0, 0.0]), 0.2)

    @pytest.mark.parametrize("axis", [[np.nan, 0.0, 0.0], [1.0, np.nan, 0.0], [0.0, 0.0, np.inf]])
    def test_rejects_non_finite_axis(self, axis):
        # a test written `|norm - 1| > tol` lets nan through
        with pytest.raises(BadAxis):
            qubit_unitary(np.array(axis), 0.3)


@settings(max_examples=60, deadline=None)
@given(
    a0=st.floats(-5, 5),
    ax=st.floats(-5, 5),
    ay=st.floats(-5, 5),
    az=st.floats(-5, 5),
)
def test_adjoint_involution_and_hermiticity(a0, ax, ay, az):
    op = from_pauli(a0, np.array([ax, ay, az]))
    assert op.adjoint().adjoint().isclose(op, tol=0.0)
    assert op.is_hermitian()
