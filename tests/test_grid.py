import gc
import weakref
from itertools import product

import numpy as np
import pytest

from lgscan import grid as gridmod
from lgscan.inequalities import elgi_all, slgi_all, wlgi_all
from lgscan.linalg import X_HAT
from lgscan.measurement import Schedule, make_pure_state, run_schedule
from lgscan.nsit import disturbance_report

from conftest import random_axis, random_point


class TestRotate:
    def test_z_about_x(self, rng):
        for ang in rng.uniform(-6, 6, 20):
            out = gridmod.rotate_bloch(np.array([0.0, 0, 1]), X_HAT, ang)
            assert np.allclose(out, [0, -np.sin(ang), np.cos(ang)], atol=1e-14)

    def test_norm_preserved_batch(self, rng):
        r = rng.normal(size=(50, 3))
        axis = random_axis(rng)
        out = gridmod.rotate_bloch(r, axis, rng.uniform(-3, 3, 50))
        assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(r, axis=1), atol=1e-12)

    def test_composition(self, rng):
        r = rng.normal(size=3)
        axis = random_axis(rng)
        once = gridmod.rotate_bloch(gridmod.rotate_bloch(r, axis, 0.7), axis, 0.5)
        assert np.allclose(once, gridmod.rotate_bloch(r, axis, 1.2), atol=1e-13)


class TestPureBloch:
    def test_matches_state(self, rng):
        for _ in range(30):
            theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            assert np.allclose(
                gridmod.pure_bloch(theta, phi),
                make_pure_state(theta, phi).bloch(),
                atol=1e-13,
            )

    def test_broadcast(self):
        out = gridmod.pure_bloch(np.linspace(0, 1, 5), 0.3)
        assert out.shape == (5, 3)


class TestSequentialProbabilities:
    def test_matches_pipeline_random(self, rng):
        worst = 0.0
        for _ in range(120):
            theta, phi, tau, eta, x = random_point(rng)
            axis = random_axis(rng)
            subset = tuple(sorted(rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False)))
            state = make_pure_state(theta, phi)
            sched = Schedule(measured=subset, tau=tau, axis=axis, x=x, eta=eta)
            slow = run_schedule(state, sched).probabilities()
            fast = gridmod.sequential_probabilities(state.bloch(), subset, tau, axis, eta, x)
            worst = max(worst, float(np.max(np.abs(slow - fast))))
        assert worst < 1e-13

    def test_batch_shapes(self):
        bloch = gridmod.pure_bloch(np.linspace(0.1, 1.0, 7), 0.4)
        probs = gridmod.sequential_probabilities(
            bloch, (1, 2, 3), np.linspace(0.1, 3.0, 7), X_HAT, 0.8, 0.0
        )
        assert probs.shape == (7, 8)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_mixed_state_input(self):
        probs = gridmod.sequential_probabilities(
            np.zeros(3), (1, 2, 3), np.pi / 4, X_HAT, 1.0, 0.0
        )
        assert np.allclose(probs, 0.125, atol=1e-14)


def _experiment(bloch0, measured, tau, axis, eta, x):
    """One stand-alone experiment walked step by step, one outcome sequence at
    a time in product((1, -1)) order: a Lueders update along z at each
    measured time and a rotation by 2 tau from each time to the next."""
    columns = []
    for signs in product((1, -1), repeat=len(measured)):
        r, weight, outcome = bloch0, np.ones(len(tau)), iter(signs)
        for t in range(1, measured[-1] + 1):
            if t > 1:
                r = gridmod.rotate_bloch(r, axis, 2.0 * tau)
            if t in measured:
                prob, r = gridmod.luders_step(r, gridmod.Z_HAT, eta, x, next(outcome))
                weight = weight * prob
        columns.append(weight)
    return np.stack(columns, axis=-1)


class TestLgDistributions:
    @pytest.mark.parametrize("mode", ["zero", "eta-1", "fixed"])
    def test_equals_step_by_step_walk(self, rng, mode):
        for _ in range(10):
            n = int(rng.integers(1, 200))
            bloch = gridmod.pure_bloch(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n))
            tau, eta = rng.uniform(0, np.pi, n), rng.uniform(0, 1, n)
            x = {"zero": np.zeros(n), "eta-1": eta - 1.0,
                 "fixed": rng.uniform(-1, 1, n) * (1 - eta)}[mode]
            axis = random_axis(rng)
            dists = gridmod.lg_distributions(bloch, tau, axis, eta, x)
            assert tuple(dists) == gridmod.SUBSETS
            for subset, probs in dists.items():
                assert np.array_equal(probs, _experiment(bloch, subset, tau, axis, eta, x))

    def test_result_freed_without_cycle_collector(self):
        # a reference cycle in the walk would keep its arrays until gc runs
        gc.disable()
        try:
            dists = gridmod.lg_distributions(gridmod.pure_bloch(0.3, 0.2),
                                             np.linspace(0.1, 3.0, 50), X_HAT, 0.8, -0.1)
            refs = [weakref.ref(probs) for probs in dists.values()]
            del dists
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestFamilyEvaluators:
    def _both(self, rng, biased):
        theta, phi, tau, eta, x = random_point(rng, biased=biased)
        state = make_pure_state(theta, phi)
        sched = Schedule(measured=(1, 2, 3), tau=tau, x=x, eta=eta)
        dists = gridmod.lg_distributions(state.bloch(), tau, X_HAT, eta, x)
        return state, sched, dists

    def test_slgi_matches(self, rng):
        for _ in range(25):
            state, sched, dists = self._both(rng, biased=True)
            fast = gridmod.slgi_values(dists)
            slow = [r.value for r in slgi_all(state, sched)]
            assert np.max(np.abs(fast - slow)) < 1e-12

    def test_wlgi_matches(self, rng):
        for _ in range(25):
            state, sched, dists = self._both(rng, biased=True)
            fast = gridmod.wlgi_values(dists)
            slow = [r.value for r in wlgi_all(state, sched)]
            assert np.max(np.abs(fast - slow)) < 1e-12

    def test_elgi_matches(self, rng):
        for _ in range(25):
            state, sched, dists = self._both(rng, biased=True)
            fast = gridmod.elgi_values(dists)
            slow = [r.value for r in elgi_all(state, sched)]
            assert np.max(np.abs(fast - slow)) < 1e-12

    def test_disturbances_match_report(self, rng):
        for _ in range(20):
            state, sched, dists = self._both(rng, biased=True)
            fast = gridmod.disturbances(dists)
            rep = disturbance_report(state, sched)
            assert np.max(np.abs(fast["d1_pair"] - list(rep.d1_pair.values()))) < 1e-12
            assert np.max(np.abs(fast["d2_pair"] - list(rep.d2_pair.values()))) < 1e-12
            assert np.max(np.abs(fast["d1_m2"] - list(rep.d1_m2.values()))) < 1e-12
            assert np.max(np.abs(fast["d1_m3"] - list(rep.d1_m3.values()))) < 1e-12
            assert np.max(np.abs(fast["d2_m3"] - list(rep.d2_m3.values()))) < 1e-12

    def test_aot_residual_zero(self, rng):
        theta = rng.uniform(0, np.pi, 200)
        phi = rng.uniform(0, 2 * np.pi, 200)
        tau = rng.uniform(0, np.pi, 200)
        eta = rng.uniform(0, 1, 200)
        x = rng.uniform(-1, 1, 200) * (1 - eta)
        dists = gridmod.lg_distributions(gridmod.pure_bloch(theta, phi), tau, X_HAT, eta, x)
        assert float(np.max(gridmod.aot_residual(dists))) < 1e-12

    def test_entropy_matches_scipy(self, rng):
        import scipy.stats

        p = rng.dirichlet(np.ones(4), size=10)
        ours = gridmod.entropy(p)
        ref = np.array([scipy.stats.entropy(row) for row in p])
        assert np.max(np.abs(ours - ref)) < 1e-12
