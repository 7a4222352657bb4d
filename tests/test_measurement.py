import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lgscan.errors import BadSubset, InvalidEffect, InvariantError
from lgscan.linalg import IDENTITY, SIGMA_Z, Z_HAT, Operator
from lgscan.measurement import (
    Effect,
    QubitState,
    Schedule,
    correlator,
    effect_at_time,
    luders_update,
    run_schedule,
)

from conftest import random_axis, random_point


PLUS = QubitState.pure(np.pi / 4, 0.0)


class TestQubitState:
    def test_zero_state(self):
        s = QubitState.pure(0.0, 0.0)
        assert np.allclose(s.bloch(), [0, 0, 1], atol=1e-14)
        assert s.purity() == pytest.approx(1.0, abs=1e-13)

    def test_plus_state(self):
        assert np.allclose(PLUS.bloch(), [1, 0, 0], atol=1e-14)

    def test_tilted_state(self):
        s = QubitState.pure(np.pi / 3, np.pi / 2)
        assert np.allclose(s.bloch(), [0, np.sqrt(3) / 2, -0.5], atol=1e-14)

    def test_pure_random_trace_and_purity(self, rng):
        for _ in range(100):
            s = QubitState.pure(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            assert s.rho.trace().real == pytest.approx(1.0, abs=1e-13)
            assert s.purity() == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        s = QubitState.maximally_mixed()
        assert np.allclose(s.bloch(), 0.0, atol=1e-15)
        assert s.purity() == pytest.approx(0.5, abs=1e-14)

    def test_from_bloch_rejects_unphysical(self):
        with pytest.raises(InvariantError):
            QubitState.from_bloch(np.array([0.0, 0.0, 1.1]))

    def test_rejects_bad_trace(self):
        with pytest.raises(InvariantError):
            QubitState(Operator(np.diag([1.0, 0.5]).astype(complex)))

    @pytest.mark.parametrize("bloch", [[np.nan, 0.0, 0.0], [0.0, 0.0, np.inf]])
    def test_from_bloch_rejects_non_finite(self, bloch):
        # a test written `norm > 1` lets nan through
        with pytest.raises(InvariantError):
            QubitState.from_bloch(np.array(bloch))
        with pytest.raises(InvariantError):
            QubitState(Operator(np.diag([np.nan, 0.5]).astype(complex)))


class TestEffect:
    def test_completeness_exact(self, rng):
        for _ in range(100):
            _, _, _, eta, x = random_point(rng)
            m = eta * random_axis(rng)
            total = Effect(x, m, +1).operator() + Effect(x, m, -1).operator()
            assert np.array_equal(total.mat, IDENTITY.mat)

    def test_psd(self, rng):
        for _ in range(100):
            _, _, _, eta, x = random_point(rng)
            assert Effect(x, eta * random_axis(rng), 1).operator().is_psd()

    def test_rejects_invalid(self):
        with pytest.raises(InvalidEffect):
            Effect(0.5, np.array([0.0, 0.0, 0.6]), 1)

    @pytest.mark.parametrize("x, m", [(np.nan, [0.0, 0.0, 0.5]), (0.0, [np.nan, 0.0, 0.0]),
                                      (-np.inf, [0.0, 0.0, 0.5])])
    def test_rejects_non_finite(self, x, m):
        with pytest.raises(InvalidEffect):
            Effect(x, np.array(m), 1)

    def test_bias_family_operator(self):
        # x = eta - 1 gives eta * (I + sigma_z)/2
        eff = Effect(-0.5, np.array([0.0, 0.0, 0.5]), 1)
        expected = 0.25 * (IDENTITY + SIGMA_Z)
        assert eff.operator().isclose(expected, tol=1e-15)


class TestEffectAtTime:
    def test_first_time_unchanged(self):
        sched = Schedule(measured=(1, 2), tau=0.4, x=0.1, eta=0.6)
        eff = effect_at_time(sched, 1, +1)
        assert np.allclose(eff.m, 0.6 * Z_HAT)

    def test_second_time_rotation(self, rng):
        for tau in rng.uniform(0, np.pi, 30):
            sched = Schedule(measured=(1, 2), tau=tau, x=0.0, eta=0.8)
            eff = effect_at_time(sched, 2, +1)
            expect = 0.8 * np.array([0.0, np.sin(2 * tau), np.cos(2 * tau)])
            assert np.max(np.abs(eff.m - expect)) < 1e-12

    def test_third_time_quarter(self):
        sched = Schedule(measured=(1, 3), tau=np.pi / 4, x=0.0, eta=0.9)
        eff = effect_at_time(sched, 3, +1)
        assert np.max(np.abs(eff.m - 0.9 * np.array([0, 0, -1.0]))) < 1e-12

    def test_bias_exactly_invariant(self, rng):
        for _ in range(50):
            _, _, tau, eta, x = random_point(rng)
            sched = Schedule(measured=(1, 2, 3), tau=tau, axis=random_axis(rng), x=x, eta=eta)
            for t in (1, 2, 3):
                assert effect_at_time(sched, t, -1).x == x

    def test_sharpness_preserved(self, rng):
        for _ in range(50):
            _, _, tau, eta, x = random_point(rng)
            sched = Schedule(measured=(1, 2, 3), tau=tau, axis=random_axis(rng), x=x, eta=eta)
            for t in (2, 3):
                assert abs(np.linalg.norm(effect_at_time(sched, t, 1).m) - eta) < 1e-12

    def test_invalid_effect_rejected(self):
        with pytest.raises(InvalidEffect):
            Schedule(measured=(1,), tau=0.1, x=0.4, eta=0.7)

    @pytest.mark.parametrize("kw", [dict(axis=[np.nan, 0.0, 0.0]), dict(eta=np.nan),
                                    dict(x=np.nan), dict(eta=0.5, x=np.nan)])
    def test_nan_rejected(self, kw):
        error = ValueError if "axis" in kw else InvalidEffect
        with pytest.raises(error):
            Schedule(measured=(1, 2, 3), tau=0.5, **kw)


class TestLuders:
    def test_sharp_repeat(self):
        state = QubitState.pure(0.0, 0.0)
        prob, post = luders_update(state, Effect(0.0, Z_HAT.copy(), 1))
        assert prob == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(post.bloch(), [0, 0, 1], atol=1e-13)

    def test_orthogonal_outcome_is_none(self):
        state = QubitState.pure(0.0, 0.0)
        prob, post = luders_update(state, Effect(0.0, Z_HAT.copy(), -1))
        assert prob <= 1e-12 and post is None

    def test_unsharp_plus_state_matrix_oracle(self):
        effect = Effect(0.0, np.array([0.0, 0.0, 0.8]), 1)
        prob, post = luders_update(PLUS, effect)
        assert prob == pytest.approx(0.5, abs=1e-14)
        root = scipy.linalg.sqrtm(effect.operator().mat)
        expected = root @ PLUS.rho.mat @ root / 0.5
        assert np.max(np.abs(post.rho.mat - expected)) < 1e-12
        assert post.rho.trace().real == pytest.approx(1.0, abs=1e-13)

    def test_post_state_valid_random(self, rng):
        for _ in range(200):
            theta, phi, _, eta, x = random_point(rng)
            state = QubitState.pure(theta, phi)
            eff = Effect(x, eta * random_axis(rng), int(rng.choice([1, -1])))
            prob, post = luders_update(state, eff)
            assert 0.0 <= prob <= 1.0
            if post is not None:
                assert post.rho.is_psd()


class TestRunSchedule:
    def test_schedule_axis_is_a_copy(self):
        axis = np.array([0.0, 1.0, 0.0])
        sched = Schedule(measured=(1,), tau=0.3, axis=axis)
        axis[1] = -1.0  # the caller's array stays writable
        assert sched.axis.tolist() == [0.0, 1.0, 0.0] and not sched.axis.flags.writeable
        with pytest.raises(ValueError, match="unit 3-vector"):
            Schedule(measured=(1,), tau=0.3, axis=[0.0, 2.0, 0.0])

    def test_pair_23_plus_state(self):
        sched = Schedule(measured=(2, 3), tau=np.pi / 4, x=0.0, eta=1.0)
        dist = run_schedule(PLUS, sched)
        for p in dist.table.values():
            assert p == pytest.approx(0.25, abs=1e-14)

    def test_triple_plus_state_uniform(self):
        sched = Schedule(measured=(1, 2, 3), tau=np.pi / 4, x=0.0, eta=1.0)
        dist = run_schedule(PLUS, sched)
        for p in dist.table.values():
            assert p == pytest.approx(0.125, abs=1e-14)

    def test_single_time_mixed_state(self, rng):
        for eta in rng.uniform(0, 1, 20):
            sched = Schedule(measured=(1,), tau=0.3, x=0.0, eta=eta)
            dist = run_schedule(QubitState.maximally_mixed(), sched)
            assert dist.prob((1,)) == pytest.approx(0.5, abs=1e-14)
            assert dist.prob((-1,)) == pytest.approx(0.5, abs=1e-14)

    def test_normalization_random(self, rng):
        for _ in range(300):
            theta, phi, tau, eta, x = random_point(rng)
            subset = tuple(sorted(rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False)))
            sched = Schedule(measured=subset, tau=tau, axis=random_axis(rng), x=x, eta=eta)
            dist = run_schedule(QubitState.pure(theta, phi), sched)
            assert sum(dist.table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_heisenberg_schroedinger_equivalence(self, rng):
        worst = 0.0
        for _ in range(60):
            theta, phi, tau, eta, x = random_point(rng)
            state = QubitState.pure(theta, phi)
            sched = Schedule(measured=(1, 2), tau=tau, axis=random_axis(rng), x=x, eta=eta)
            for pair in ((1, 2), (1, 3), (2, 3)):
                dist = run_schedule(state, sched.with_measured(pair))
                for (k, l), p in dist.table.items():
                    ei = effect_at_time(sched, pair[0], k)
                    ej = effect_at_time(sched, pair[1], l)
                    root = ei.sqrt_operator()
                    heis = ((root @ state.rho @ root) @ ej.operator()).trace().real
                    worst = max(worst, abs(p - heis))
        assert worst < 1e-12

    def test_zero_probability_branch(self):
        # first measurement certain, orthogonal branch must contribute zeros
        state = QubitState.pure(0.0, 0.0)
        sched = Schedule(measured=(1, 2), tau=0.0, x=0.0, eta=1.0)
        dist = run_schedule(state, sched)
        assert dist.prob((1, 1)) == pytest.approx(1.0, abs=1e-14)
        assert dist.prob((-1, 1)) == 0.0
        assert dist.prob((-1, -1)) == 0.0


class TestIndependentMatrixOracle:
    """Rebuild the sequential statistics with scipy primitives only."""

    SX = np.array([[0, 1], [1, 0]], dtype=complex)
    SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
    SZ = np.array([[1, 0], [0, -1]], dtype=complex)

    def _oracle_table(self, theta, phi, tau, eta, x, axis, measured):
        psi = np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])
        rho = np.outer(psi, psi.conj())
        gen = axis[0] * self.SX + axis[1] * self.SY + axis[2] * self.SZ
        u = scipy.linalg.expm(-1j * tau * gen)
        effects = {
            s: (np.eye(2) + s * (x * np.eye(2) + eta * self.SZ)) / 2 for s in (1, -1)
        }
        roots = {s: scipy.linalg.sqrtm(e) for s, e in effects.items()}
        table = {}

        def walk(r, t, outs):
            if t > 3:
                table[outs] = table.get(outs, 0.0) + np.trace(r).real
                return
            branches = (
                [(s, roots[s] @ r @ roots[s].conj().T) for s in (1, -1)]
                if t in measured
                else [(None, r)]
            )
            for s, nr in branches:
                nxt = u @ nr @ u.conj().T if t < 3 else nr
                walk(nxt, t + 1, outs if s is None else outs + (s,))

        walk(rho, 1, ())
        return table

    def test_full_pipeline_matches_oracle(self, rng):
        worst = 0.0
        for _ in range(30):
            theta, phi, tau, eta, x = random_point(rng)
            axis = random_axis(rng)
            measured = tuple(
                sorted(rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False))
            )
            state = QubitState.pure(theta, phi)
            sched = Schedule(measured=measured, tau=tau, axis=axis, x=x, eta=eta)
            dist = run_schedule(state, sched)
            oracle = self._oracle_table(theta, phi, tau, eta, x, axis, measured)
            for key, p in dist.table.items():
                worst = max(worst, abs(p - oracle[key]))
        assert worst < 1e-12


class TestJointDistributionValidation:
    def test_bad_sum_is_error(self):
        from lgscan.measurement import JointDistribution

        sched = Schedule(measured=(1,), tau=0.1)
        with pytest.raises(InvariantError):
            JointDistribution(sched, {(1,): 0.6, (-1,): 0.3})

    def test_negative_entry_is_error(self):
        from lgscan.measurement import JointDistribution

        sched = Schedule(measured=(1,), tau=0.1)
        with pytest.raises(InvariantError):
            JointDistribution(sched, {(1,): 1.1, (-1,): -0.1})

    def test_tiny_negative_clamped(self):
        from lgscan.measurement import JointDistribution

        sched = Schedule(measured=(1,), tau=0.1)
        dist = JointDistribution(sched, {(1,): 1.0 + 5e-13, (-1,): -5e-13})
        assert dist.prob((-1,)) == 0.0


class TestMarginalize:
    def test_aot_exact(self, rng):
        for _ in range(50):
            theta, phi, tau, eta, x = random_point(rng)
            state = QubitState.pure(theta, phi)
            sched = Schedule(measured=(1, 2, 3), tau=tau, x=x, eta=eta)
            triple = run_schedule(state, sched)
            pair = run_schedule(state, sched.with_measured((1, 2)))
            marg = triple.marginalize((1, 2))
            for key in pair.table:
                assert marg.prob(key) == pytest.approx(pair.prob(key), abs=1e-12)

    def test_uniform_triple(self):
        sched = Schedule(measured=(1, 2, 3), tau=np.pi / 4, x=0.0, eta=1.0)
        marg = run_schedule(PLUS, sched).marginalize((2, 3))
        for p in marg.table.values():
            assert p == pytest.approx(0.25, abs=1e-13)

    def test_in_context_pair_13(self):
        # triple-experiment (1,3) marginal differs from the stand-alone pair
        state = QubitState.pure(0.0, 0.0)
        sched = Schedule(measured=(1, 2, 3), tau=np.pi / 3, x=0.0, eta=1.0)
        marg = run_schedule(state, sched).marginalize((1, 3))
        alone = run_schedule(state, sched.with_measured((1, 3)))
        # matrix oracle: for |0>, in-context P(+,+) = (1 + cos^2 2tau)/4... times p1
        c = np.cos(2 * np.pi / 3)
        assert marg.prob((1, 1)) == pytest.approx((1 + c * c) / 2, abs=1e-12)
        assert alone.prob((1, 1)) == pytest.approx((1 + np.cos(4 * np.pi / 3)) / 2, abs=1e-12)

    def test_bad_subset(self):
        sched = Schedule(measured=(1, 2), tau=0.2)
        dist = run_schedule(PLUS, sched)
        with pytest.raises(BadSubset):
            dist.marginalize((3,))
        with pytest.raises(BadSubset):
            dist.marginalize(())

    def test_two_step_marginalization_consistent(self, rng):
        theta, phi, tau, eta, x = random_point(rng)
        state = QubitState.pure(theta, phi)
        triple = run_schedule(state, Schedule(measured=(1, 2, 3), tau=tau, x=x, eta=eta))
        via_pair = triple.marginalize((1, 3)).marginalize((3,))
        direct = triple.marginalize((3,))
        for key in direct.table:
            assert via_pair.prob(key) == pytest.approx(direct.prob(key), abs=1e-14)


class TestCorrelator:
    def test_repeated_sharp(self, rng):
        for _ in range(10):
            theta, phi, _, _, _ = random_point(rng)
            sched = Schedule(measured=(1, 2), tau=0.0, x=0.0, eta=1.0)
            c = correlator(QubitState.pure(theta, phi), sched)
            assert c == pytest.approx(1.0, abs=1e-12)

    def test_spin_povm_mixed_state(self, rng):
        for _ in range(20):
            _, _, tau, eta, _ = random_point(rng)
            sched = Schedule(measured=(1, 2), tau=tau, x=0.0, eta=eta)
            c = correlator(QubitState.maximally_mixed(), sched)
            assert c == pytest.approx(eta**2 * np.cos(2 * tau), abs=1e-12)

    def test_pair_13_sharp(self):
        sched = Schedule(measured=(1, 3), tau=np.pi / 4, x=0.0, eta=1.0)
        c = correlator(QubitState.pure(0.0, 0.0), sched)
        assert c == pytest.approx(-1.0, abs=1e-13)

    def test_requires_two_times(self):
        with pytest.raises(BadSubset):
            correlator(PLUS, Schedule(measured=(1,), tau=0.1))


@settings(max_examples=80, deadline=None)
@given(
    theta=st.floats(0, np.pi),
    phi=st.floats(0, 2 * np.pi),
    eta=st.floats(0, 1),
    bias_frac=st.floats(-1, 1),
)
def test_effect_pair_completeness_property(theta, phi, eta, bias_frac):
    x = bias_frac * (1 - eta)
    m = eta * np.array([np.sin(2 * theta) * np.cos(phi),
                        np.sin(2 * theta) * np.sin(phi),
                        np.cos(2 * theta)])
    total = Effect(x, m, 1).operator() + Effect(x, m, -1).operator()
    assert np.array_equal(total.mat, IDENTITY.mat)
