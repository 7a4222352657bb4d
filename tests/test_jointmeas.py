import numpy as np
import pytest

from lgscan.errors import InvalidEffect
from lgscan.jointmeas import (
    biased_pair_threshold,
    general_margin,
    jm_verdict,
    lg_combined_pair_threshold,
    lg_directions,
    lg_triple_threshold,
    pairwise_jm_general,
    pairwise_jm_unbiased,
    triple_threshold,
    triplewise_jm_unbiased,
    unbiased_pair_threshold,
)
from lgscan.measurement import Schedule, effect_at_time

from conftest import random_axis


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


class TestVerdict:
    def test_spin_point_pairs_yes_triple_no(self):
        sched = Schedule(measured=(1, 2, 3), tau=np.pi / 4, x=0.0, eta=0.7)
        v = jm_verdict(sched)
        assert v.all_pairs_jm()
        assert v.triple is not None and not v.triple.jointly_measurable
        assert v.pairwise[(1, 2)].threshold == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_biased_point_jm(self):
        sched = Schedule(measured=(1, 2, 3), tau=np.pi / 4, x=-0.45, eta=0.55)
        v = jm_verdict(sched)
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
