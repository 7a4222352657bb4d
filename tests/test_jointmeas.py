import numpy as np
import pytest

from lgscan import jointmeas
from lgscan.errors import ConfigError, InvalidEffect
from lgscan.grid import BIAS_MODES, Z_HAT, rotate_bloch
from lgscan.jointmeas import (
    BIAS_ZERO,
    MARGIN_TOL,
    PAIR_ORDER,
    biased_pair_threshold,
    fixed_bias_pair_threshold,
    general_margin,
    jm_verdict,
    lg_combined_pair_threshold,
    lg_directions,
    lg_margins,
    lg_triple_threshold,
    pairwise_jm_general,
    pairwise_jm_unbiased,
    triple_threshold,
    triplewise_jm_unbiased,
    unbiased_pair_threshold,
)
from lgscan.measurement import Schedule, effect_at_time
from lgscan.scan import bias_x

from conftest import bits, random_axis


def scalar_pair_threshold(x, d1, d2):
    """Reference: one pair bisected on its own, 60 scalar halvings of [0, cap]."""
    cap = 1.0 - abs(x)

    def margin(eta):
        return float(general_margin(x, eta * d1, x, eta * d2))

    if margin(cap) >= -MARGIN_TOL:
        return cap
    lo, hi = 0.0, cap
    assert margin(lo) >= -MARGIN_TOL
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if margin(mid) >= -MARGIN_TOL:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pair_rows(tau, axis):
    """(da, db): the unit directions of the three LG pairs, one row each."""
    dirs = lg_directions(tau, axis)
    return (np.stack([dirs[a] for a, _ in PAIR_ORDER]),
            np.stack([dirs[b] for _, b in PAIR_ORDER]))


def lg_vectors(tau, eta):
    d1 = np.array([0.0, 0.0, 1.0])
    d2 = np.array([0.0, np.sin(2 * tau), np.cos(2 * tau)])
    d3 = np.array([0.0, np.sin(4 * tau), np.cos(4 * tau)])
    return eta * d1, eta * d2, eta * d3


class TestUnbiasedPairwise:
    def test_orthogonal_sharp_incompatible(self):
        jm, margin = pairwise_jm_unbiased(np.array([1.0, 0, 0]), np.array([0, 0, 1.0]))
        assert not jm
        assert margin == pytest.approx(2 - 2 * np.sqrt(2), abs=1e-14)

    def test_equal_vectors_compatible(self, rng):
        for _ in range(20):
            m = rng.uniform(0, 1) * random_axis(rng)
            jm, margin = pairwise_jm_unbiased(m, m)
            assert jm
            assert margin == pytest.approx(2 - 2 * np.linalg.norm(m), abs=1e-13)

    def test_lg_threshold_at_quarter_pi(self):
        m1, m2, _ = lg_vectors(np.pi / 4, 0.707)
        assert pairwise_jm_unbiased(m1, m2)[0]
        m1, m2, _ = lg_vectors(np.pi / 4, 0.7072)
        assert not pairwise_jm_unbiased(m1, m2)[0]

    def test_threshold_formula(self, rng):
        for tau in rng.uniform(0.05, np.pi / 2 - 0.05, 20):
            thr = unbiased_pair_threshold(2 * tau)
            assert thr == pytest.approx(1 / (np.cos(tau) + np.sin(tau)), abs=1e-13)
            m1, m2, _ = lg_vectors(tau, thr - 1e-6)
            assert pairwise_jm_unbiased(m1, m2)[0]
            m1, m2, _ = lg_vectors(tau, min(thr + 1e-6, 1.0))
            if thr + 1e-6 <= 1.0:
                assert not pairwise_jm_unbiased(m1, m2)[0]


class TestGeneralPairwise:
    def test_commuting_unbiased_compatible(self, rng):
        for _ in range(20):
            axis = random_axis(rng)
            m = rng.uniform(0, 1) * axis
            n = rng.uniform(0, 1) * axis
            assert pairwise_jm_general(0.0, m, 0.0, n)[0]

    def test_sharp_noncommuting_incompatible(self):
        jm, _ = pairwise_jm_general(0.0, np.array([0, 0, 1.0]), 0.0, np.array([0, 1.0, 0]))
        assert not jm

    def test_identical_biased_effects_compatible(self):
        m = np.array([0.0, 0.0, 0.9])
        jm, margin = pairwise_jm_general(-0.1, m, -0.1, m)
        assert jm
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_biased_threshold_pattern(self, rng):
        # x = eta - 1, separation 2 tau: compatible iff eta <= 1/(1 + cos tau)
        for tau in rng.uniform(0.3, np.pi / 2, 20):
            thr = 1 / (1 + np.cos(tau))
            for eta, expect in ((thr - 1e-4, True), (min(thr + 1e-4, 1.0), False)):
                if eta > 1:
                    continue
                m1, m2, _ = lg_vectors(tau, eta)
                assert pairwise_jm_general(eta - 1, m1, eta - 1, m2)[0] == expect

    def test_below_half_always_compatible(self, rng):
        for _ in range(50):
            eta = rng.uniform(0, 0.5)
            tau = rng.uniform(0, np.pi)
            m1, m2, _ = lg_vectors(tau, eta)
            assert pairwise_jm_general(eta - 1, m1, eta - 1, m2)[0]

    def test_agrees_with_unbiased_criterion(self, rng):
        n = 10_000
        m = rng.uniform(0, 1, (n, 1)) * rng.normal(size=(n, 3))
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        m *= rng.uniform(0, 1, (n, 1))
        w = rng.uniform(0, 1, (n, 1)) * rng.normal(size=(n, 3))
        w /= np.maximum(np.linalg.norm(w, axis=1, keepdims=True), 1e-12)
        w *= rng.uniform(0, 1, (n, 1))
        from lgscan.jointmeas import unbiased_margin

        g = general_margin(np.zeros(n), m, np.zeros(n), w)
        u = unbiased_margin(m, w)
        decided = (np.abs(g) > 1e-9) & (np.abs(u) > 1e-9)
        assert np.all((g[decided] > 0) == (u[decided] > 0))

    def test_monotone_in_eta(self, rng):
        for _ in range(200):
            d1, d2 = random_axis(rng), random_axis(rng)
            e1, e2 = sorted(rng.uniform(0, 1, 2))
            if pairwise_jm_general(0.0, e2 * d1, 0.0, e2 * d2)[0]:
                assert pairwise_jm_general(0.0, e1 * d1, 0.0, e1 * d2)[0]

    def test_invalid_effect(self):
        with pytest.raises(InvalidEffect):
            pairwise_jm_general(0.5, np.array([0, 0, 0.6]), 0.0, np.array([0, 0, 0.1]))

    @pytest.mark.parametrize("check", [
        lambda m: pairwise_jm_unbiased(m, 0.5 * Z_HAT),
        lambda m: pairwise_jm_unbiased(0.5 * Z_HAT, m),
        lambda m: triplewise_jm_unbiased(0.5 * Z_HAT, 0.5 * Z_HAT, m),
        lambda m: pairwise_jm_general(0.0, m, 0.0, 0.5 * Z_HAT),
    ], ids=["unbiased-first", "unbiased-second", "triple", "general"])
    @pytest.mark.parametrize("m", [[1.2, 0.0, 0.0], [np.nan, 0.0, 0.0]], ids=["long", "nan"])
    def test_invalid_vector_rejected(self, check, m):
        # |m| > 1 used to return a margin from the unbiased criteria, and
        # a NaN passed every check (a comparison with NaN is false)
        with pytest.raises(InvalidEffect):
            check(np.array(m))

    @pytest.mark.parametrize("x, y", [(np.nan, 0.0), (0.0, np.nan), (1.2, 0.0)])
    def test_invalid_bias_rejected(self, x, y):
        # x = NaN used to give (False, nan)
        with pytest.raises(InvalidEffect):
            pairwise_jm_general(x, 0.5 * Z_HAT, y, 0.5 * Z_HAT)


class TestTriplewise:
    def test_equal_vectors(self, rng):
        # sum = 6|m| by direct arithmetic: compatible iff |m| <= 2/3
        for _ in range(10):
            d = random_axis(rng)
            assert triplewise_jm_unbiased(0.66 * d, 0.66 * d, 0.66 * d)[0]
            assert not triplewise_jm_unbiased(0.67 * d, 0.67 * d, 0.67 * d)[0]

    def test_orthogonal_sharp(self):
        jm, margin = triplewise_jm_unbiased(
            np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])
        )
        assert not jm
        assert margin == pytest.approx(4 - 4 * np.sqrt(3), abs=1e-13)

    def test_orthogonal_threshold_is_inv_sqrt3(self):
        dirs = np.eye(3)
        assert triple_threshold(dirs[0], dirs[1], dirs[2]) == pytest.approx(1 / np.sqrt(3), abs=1e-13)

    def test_trine_threshold_two_thirds(self):
        thr = lg_triple_threshold(np.pi / 3)
        assert thr == pytest.approx(2 / 3, abs=1e-13)

    def test_lg_threshold_minimum_is_golden(self):
        # grid minimization locates tau = pi/4 and 4/(2 + 2 sqrt 5)
        taus = np.linspace(0.01, np.pi - 0.01, 4001)
        vals = np.array([lg_triple_threshold(t) for t in taus])
        k = int(np.argmin(vals))
        assert taus[k] == pytest.approx(np.pi / 4, abs=2e-3)
        assert vals[k] == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-5)

    def test_margin_matches_bisection_threshold(self, rng):
        # independent route: bisect the margin in eta and compare with 4/S
        for tau in rng.uniform(0.2, np.pi / 2, 5):
            lo, hi = 0.0, 1.0
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if triplewise_jm_unbiased(*lg_vectors(tau, mid))[0]:
                    lo = mid
                else:
                    hi = mid
            assert 0.5 * (lo + hi) == pytest.approx(min(lg_triple_threshold(tau), 1.0), abs=1e-6)


class TestLgDirections:
    def test_match_operator_pipeline(self, rng):
        # jm_verdict and the scan JM flags both read lg_directions, so the
        # operator pipeline's Heisenberg effects are the independent check
        for _ in range(50):
            axis = random_axis(rng)
            tau, eta = rng.uniform(0, np.pi), rng.uniform(0.05, 1.0)
            x = rng.uniform(-1, 1) * (1 - eta)
            sched = Schedule(measured=(1, 2, 3), tau=tau, axis=axis, x=x, eta=eta)
            dirs = lg_directions(tau, axis)
            for t in (1, 2, 3):
                m = effect_at_time(sched, t, +1).m
                assert np.max(np.abs(dirs[t] - m / eta)) < 1e-14

    def test_broadcasts_over_tau(self, rng):
        axis = random_axis(rng)
        taus = rng.uniform(0, np.pi, (4, 5))
        batch = lg_directions(taus, axis)
        for t in (1, 2, 3):
            assert batch[t].shape == (4, 5, 3)
            for idx in np.ndindex(4, 5):
                assert np.allclose(batch[t][idx], lg_directions(taus[idx], axis)[t],
                                   rtol=0, atol=1e-15)

    def test_equals_one_rotation_per_direction(self, rng):
        # the three directions are rotated in one stacked call; each must be
        # bit for bit what rotating z_hat on its own gives
        axis = random_axis(rng)
        for tau in (rng.uniform(0, np.pi), rng.uniform(0, np.pi, 1000)):
            z = np.broadcast_to(Z_HAT, np.shape(tau) + (3,))
            dirs = lg_directions(tau, axis)
            for k in (1, 2, 3):
                assert np.array_equal(dirs[k], rotate_bloch(z, axis, -2.0 * (k - 1) * tau))


class TestVerdict:
    def test_spin_point_pairs_yes_triple_no(self):
        sched = Schedule(measured=(1, 2, 3), tau=np.pi / 4, x=0.0, eta=0.7)
        v = jm_verdict(sched)
        assert v.all_pairs_jm()
        assert v.triple is not None and not v.triple.jointly_measurable
        assert v.pairwise[(1, 2)].threshold == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_biased_point_jm(self):
        sched = Schedule(measured=(1, 2, 3), tau=np.pi / 4, x=-0.45, eta=0.55)
        v = jm_verdict(sched, bias_mode="eta-1")
        assert v.all_pairs_jm()
        assert v.triple is None
        assert v.pairwise[(1, 2)].threshold == pytest.approx(1 / (1 + np.cos(np.pi / 4)), abs=1e-9)

    def test_sharp_point_nothing_jm(self):
        sched = Schedule(measured=(1, 2, 3), tau=np.pi / 5, x=0.0, eta=1.0)
        v = jm_verdict(sched)
        assert not any(p.jointly_measurable for p in v.pairwise.values())
        assert not v.triple.jointly_measurable

    def test_fixed_bias_numeric_threshold(self):
        sched = Schedule(measured=(1, 2, 3), tau=np.pi / 4, x=0.2, eta=0.3)
        v = jm_verdict(sched)
        for pair, res in v.pairwise.items():
            assert res.threshold is not None
            # thresholds bounded by validity
            assert 0 <= res.threshold <= 0.8 + 1e-9

    @pytest.mark.parametrize("mode", ["eta1", "eta - 1", "x=0.2", "ETA-1"])
    def test_unknown_bias_mode_is_config_error(self, mode):
        # used to take the fixed-bias thresholds for any mode but "eta-1"
        sched = Schedule(measured=(1, 2, 3), tau=np.pi / 4, x=-0.45, eta=0.55)
        with pytest.raises(ConfigError, match="unknown bias mode"):
            jm_verdict(sched, bias_mode=mode)
        for known in BIAS_MODES:
            jm_verdict(sched, bias_mode=known)

    def test_fixed_bias_margin_call_count(self, rng, monkeypatch):
        # the thresholds are closed forms: the margins are the only call
        calls = []
        inner = jointmeas.general_margin

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(jointmeas, "general_margin", counted)
        for mode in ("zero", "eta-1", "fixed"):
            for _ in range(20):
                eta = rng.uniform(0.05, 0.8)
                x = {"zero": 0.0, "eta-1": eta - 1.0, "fixed": 0.2}[mode]
                sched = Schedule(measured=(1, 2, 3), tau=rng.uniform(0.05, np.pi - 0.05),
                                 axis=random_axis(rng), x=x, eta=eta)
                calls.clear()
                jm_verdict(sched, bias_mode=mode)
                assert len(calls) == 1

    def test_thresholds_consistent_with_margins(self, rng):
        for tau in rng.uniform(0.2, np.pi / 2 - 0.1, 10):
            for eta in rng.uniform(0.05, 1.0, 4):
                sched = Schedule(measured=(1, 2, 3), tau=tau, x=0.0, eta=eta)
                v = jm_verdict(sched)
                for pair, res in v.pairwise.items():
                    if eta < res.threshold - 1e-9:
                        assert res.jointly_measurable
                    if eta > res.threshold + 1e-9:
                        assert not res.jointly_measurable


class TestNumericPairThresholds:
    """`fixed_bias_pair_threshold`: the fixed-bias pair thresholds, the
    smaller root of the margin quadratic in eta^2."""

    @pytest.mark.parametrize("mode", ["zero", "eta-1", "fixed"])
    def test_margin_is_the_quadratic(self, rng, mode):
        for _ in range(300):
            eta = rng.uniform(0.0, 1.0)
            x = {"zero": 0.0, "eta-1": eta - 1.0,
                 "fixed": rng.uniform(-1.0, 1.0) * (1.0 - eta)}[mode]
            da, db = pair_rows(rng.uniform(0, np.pi), random_axis(rng))
            c, u = np.sum(da * db, axis=-1), eta * eta
            quadratic = c * c * u * u - 2.0 * (1.0 + c * x * x) * u + (1.0 - x * x) ** 2
            got = general_margin(x, eta * da, x, eta * db)
            assert np.max(np.abs(got - quadratic)) <= 1e-14

    def test_matches_scalar_bisection(self, rng):
        for _ in range(200):
            x = rng.uniform(-0.9, 0.9)
            da, db = pair_rows(rng.uniform(0, np.pi), random_axis(rng))
            got = fixed_bias_pair_threshold(x, np.sum(da * db, axis=-1))
            want = [scalar_pair_threshold(x, d1, d2) for d1, d2 in zip(da, db)]
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_brackets_the_margin_sign_change(self, rng):
        for _ in range(400):
            x = rng.uniform(-0.9, 0.9)
            cap = 1.0 - abs(x)
            da, db = pair_rows(rng.uniform(0, np.pi), random_axis(rng))
            for d1, d2, thr in zip(da, db, fixed_bias_pair_threshold(x, np.sum(da * db, axis=-1))):
                below = max(thr - 1e-6, 0.0)
                assert general_margin(x, below * d1, x, below * d2) >= -MARGIN_TOL
                above = thr + 1e-6
                if above <= cap:  # past cap the effect is not valid
                    assert general_margin(x, above * d1, x, above * d2) < -MARGIN_TOL

    def test_zero_bias_matches_closed_form(self, rng):
        for _ in range(100):
            da, db = pair_rows(rng.uniform(0, np.pi), random_axis(rng))
            got = fixed_bias_pair_threshold(0.0, np.sum(da * db, axis=-1))
            for d1, d2, thr in zip(da, db, got):
                assert thr == pytest.approx(min(1.0, unbiased_pair_threshold(np.arccos(np.clip(d1 @ d2, -1.0, 1.0)))),
                                            abs=1e-8)


class TestLgMargins:
    @pytest.mark.parametrize("mode", ["zero", "eta-1", "fixed"])
    def test_matches_scalar_criteria(self, rng, mode):
        axis = random_axis(rng)
        n = 60
        tau = rng.uniform(0, np.pi, n)
        eta = rng.uniform(0.05, 0.8 if mode == "fixed" else 1.0, n)
        x = {"zero": np.zeros(n), "eta-1": eta - 1.0, "fixed": np.full(n, 0.2)}[mode]
        pairs, triple = lg_margins(tau, eta, x, axis)
        assert pairs.shape == (n, 3) and triple.shape == (n,)
        for i in range(n):
            dirs = lg_directions(tau[i], axis)
            m = {k: eta[i] * d for k, d in dirs.items()}
            for j, (a, b) in enumerate(PAIR_ORDER):
                _, want = pairwise_jm_general(x[i], m[a], x[i], m[b])
                assert abs(pairs[i, j] - want) <= 1e-15
            _, want = triplewise_jm_unbiased(m[1], m[2], m[3])
            assert abs(triple[i] - want) <= 1e-15

    def test_verdict_reads_lg_margins(self, rng):
        for _ in range(20):
            axis = random_axis(rng)
            tau, eta = rng.uniform(0, np.pi), rng.uniform(0.05, 0.8)
            sched = Schedule(measured=(1, 2, 3), tau=tau, axis=axis, x=0.0, eta=eta)
            v = jm_verdict(sched)
            pairs, triple = lg_margins(tau, eta, 0.0, axis)
            assert [v.pairwise[p].margin for p in PAIR_ORDER] == pairs.tolist()
            assert v.triple.margin == float(triple)


def _general_margin_reference(x, m, y, n):
    """general_margin with its dot products taken by np.sum."""
    m_sq, n_sq = np.sum(m * m, axis=-1), np.sum(n * n, axis=-1)
    fx, fy = jointmeas._f_factor(x, m_sq), jointmeas._f_factor(y, n_sq)
    bias_x = np.where(np.abs(x) < BIAS_ZERO, 0.0, x**2 / np.where(fx > 0, fx, 1.0) ** 2)
    bias_y = np.where(np.abs(y) < BIAS_ZERO, 0.0, y**2 / np.where(fy > 0, fy, 1.0) ** 2)
    lhs = (1.0 - fx**2 - fy**2) * (1.0 - bias_x - bias_y)
    return (np.sum(m * n, axis=-1) - x * y) ** 2 - lhs


def _triple_sum_reference(m1, m2, m3):
    """triple_sum with its norms taken by np.linalg.norm."""
    return (np.linalg.norm(m1 + m2 + m3, axis=-1) + np.linalg.norm(m1 + m2 - m3, axis=-1)
            + np.linalg.norm(m1 - m2 - m3, axis=-1) + np.linalg.norm(m1 - m2 + m3, axis=-1))


class TestComponentSums:
    @pytest.mark.parametrize("mode", BIAS_MODES)
    def test_lg_margins_equal_norm_and_sum(self, rng, mode):
        # bit for bit against np.sum / np.linalg.norm: eta in {0, 1 - |x|},
        # coincident (tau = 0, pi) and orthogonal effects, a z axis (exact
        # zeros in every direction) and a tilted one
        for axis in (Z_HAT, random_axis(rng)):
            n = 200
            tau = rng.uniform(0, np.pi, n)
            tau[:4] = (0.0, np.pi / 4, np.pi / 2, np.pi)
            x = bias_x(mode, np.zeros(n), 0.3)
            eta = rng.uniform(0, 1, n) * (1.0 - np.abs(x))
            eta[:2] = (0.0, 1.0 - abs(x[1]))
            if mode == "eta-1":
                x = eta - 1.0
            pairs, triple = lg_margins(tau, eta, x, axis)
            m = {k: eta[:, None] * d for k, d in lg_directions(tau, axis).items()}
            want = np.stack([_general_margin_reference(x, m[a], x, m[b]) for a, b in PAIR_ORDER],
                            axis=-1)
            assert np.array_equal(bits(pairs), bits(want))
            assert np.array_equal(bits(triple), bits(4.0 - _triple_sum_reference(m[1], m[2], m[3])))

    def test_criteria_equal_norm_and_sum(self, rng):
        # random effects with exact zeros of either sign and biases at or
        # below BIAS_ZERO, as a batch and as single vectors
        n = 300
        m, w, v = (rng.uniform(-0.6, 0.6, (n, 3)) for _ in range(3))
        for vec in (m, w, v):
            vec[rng.random((n, 3)) < 0.3] = 0.0
            vec[rng.random((n, 3)) < 0.3] = -0.0
        x, y = rng.uniform(-0.3, 0.3, n), rng.uniform(-0.3, 0.3, n)
        x[::4], y[::5] = 0.0, 1e-16
        assert np.array_equal(bits(general_margin(x, m, y, w)),
                              bits(_general_margin_reference(x, m, y, w)))
        assert np.array_equal(bits(jointmeas.triple_sum(m, w, v)),
                              bits(_triple_sum_reference(m, w, v)))
        want = 2.0 - np.linalg.norm(m + w, axis=-1) - np.linalg.norm(m - w, axis=-1)
        assert np.array_equal(bits(jointmeas.unbiased_margin(m, w)), bits(want))
        for i in range(0, n, 37):
            assert np.array_equal(bits(general_margin(x[i], m[i], y[i], w[i])),
                                  bits(_general_margin_reference(x[i], m[i], y[i], w[i])))
            assert np.array_equal(bits(jointmeas.triple_sum(m[i], w[i], v[i])),
                                  bits(_triple_sum_reference(m[i], w[i], v[i])))


class TestGapChain:
    def test_spin_hierarchy(self):
        # SLGI spin threshold > pairwise bound > triple bound
        slgi_thr = np.sqrt(2 / 3)
        pair_thr = min(lg_combined_pair_threshold(t) for t in np.linspace(0.02, np.pi - 0.02, 800))
        taus = np.linspace(0.02, np.pi - 0.02, 800)
        triple_thr = min(lg_triple_threshold(t) for t in taus)
        assert slgi_thr == pytest.approx(0.8165, abs=2e-4)
        assert pair_thr == pytest.approx(1 / np.sqrt(2), abs=1e-4)
        assert slgi_thr > pair_thr > triple_thr

    def test_biased_bound_at_spin_minimizing_tau(self):
        assert lg_combined_pair_threshold(np.pi / 4, biased=True) == pytest.approx(
            2 / (2 + np.sqrt(2)), abs=1e-12
        )
        assert biased_pair_threshold(np.pi / 2) == pytest.approx(0.585786, abs=1e-6)
