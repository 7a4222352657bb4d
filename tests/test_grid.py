import gc
import tracemalloc
import weakref
from itertools import combinations, permutations, product

import numpy as np
import pytest

from lgscan import grid as gridmod
from lgscan.inequalities import elgi_all, slgi_all, wlgi_all
from lgscan.linalg import X_HAT
from lgscan.measurement import QubitState, Schedule, run_schedule
from lgscan.nsit import disturbance_report
from lgscan.scan import CHUNK, EXACT_TAUS

from conftest import bits, random_axis, random_point


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

    @pytest.mark.parametrize("r_shape, angle_shape", [((3,), (7,)), ((3,), (2, 5)),
                                                      ((7, 3), ()), ((2, 5, 3), ()),
                                                      ((4, 1, 3), (6,))])
    def test_in_place_sum_equals_rodrigues_expression(self, rng, r_shape, angle_shape):
        # the terms are summed in place; a (3,) vector against an angle
        # batch (as jointmeas.lg_directions rotates z_hat) must broadcast
        r = rng.normal(size=r_shape)
        axis = random_axis(rng)
        angle = np.asarray(rng.uniform(-7, 7, size=angle_shape))
        want = _rotate_reference(r, axis, angle)
        got = gridmod.rotate_bloch(r, axis, angle)
        assert got.shape == want.shape
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("angle_shape", [(5, 1), (64,)])
    def test_signed_zeros_equal_rodrigues_expression(self, angle_shape):
        # vectors and axes with exact zeros of either sign, at angles with
        # cos or sin of either sign: the component sums keep np.sum's and
        # np.cross's signs of zero
        r = np.array(list(product((-0.0, 0.0, 1.0, -1.0), repeat=3)))
        angle = np.resize([0.0, np.pi / 2, np.pi, -np.pi / 2, 2.5, -2.5, -0.0], angle_shape)
        for axis in (X_HAT, -X_HAT, np.array([-0.0, -0.6, -0.8]),
                     -np.ones(3) / np.sqrt(3), np.array([0.0, 0.6, -0.8])):
            got = gridmod.rotate_bloch(r, axis, angle)
            want = _rotate_reference(r, axis, angle)
            assert np.array_equal(bits(got), bits(want))

    def test_peak_memory(self, rng):
        # the kernel's (3, branches, n) planes, rotated in place: one buffer
        # of the input's shape and two of a third of it
        r = rng.normal(size=(3, 4, 4096))
        angle = rng.uniform(-3, 3, 4096)
        cos, sin = np.cos(angle), np.sin(angle)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = gridmod.rotate_planes(r, X_HAT.tolist(), (cos, sin, 1.0 - cos))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.shape == r.shape
        assert peak <= 2.5 * r.nbytes


class TestPureBloch:
    def test_matches_state(self, rng):
        for _ in range(30):
            theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            assert np.allclose(
                gridmod.pure_bloch(theta, phi),
                QubitState.pure(theta, phi).bloch(),
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
            state = QubitState.pure(theta, phi)
            sched = Schedule(measured=subset, tau=tau, axis=axis, x=x, eta=eta)
            slow = run_schedule(state, sched).probabilities()
            fast = gridmod.lg_distributions(state.bloch(), tau, axis, eta, x)[subset]
            worst = max(worst, float(np.max(np.abs(slow - fast))))
        assert worst < 1e-13

    def test_batch_shapes(self):
        bloch = gridmod.pure_bloch(np.linspace(0.1, 1.0, 7), 0.4)
        probs = gridmod.lg_distributions(bloch, np.linspace(0.1, 3.0, 7), X_HAT, 0.8, 0.0)
        probs = probs[(1, 2, 3)]
        assert probs.shape == (7, 8)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_mixed_state_input(self):
        probs = gridmod.lg_distributions(np.zeros(3), np.pi / 4, X_HAT, 1.0, 0.0)[(1, 2, 3)]
        assert np.allclose(probs, 0.125, atol=1e-14)

    def test_lueders_eigenvalue_floor_is_np_clip(self):
        # the eigenvalues c +- d are floored with np.maximum, which is what
        # np.clip(a, 0.0, None) runs, bit for bit, on negatives and signed zeros
        a = np.array([-0.0, 0.0, -1.0, -5e-324, 5e-324, -np.inf, np.inf, np.nan, 0.25])
        assert np.array_equal(bits(np.maximum(a, 0.0)), bits(np.clip(a, 0.0, None)))
        # invalid effects (c - d < 0), the eta-1 family's c - d = 0, valid ones
        eta = np.array([1.0, 0.9, 0.5, 0.3, 0.7, 1.0, 0.0])
        x = np.array([0.5, -0.1, -0.5, 0.9, 0.0, -0.0, -1.0])
        for sign in (1, -1):
            c, d = 0.5 * (1.0 + sign * x), 0.5 * sign * eta
            lam_p, lam_m = np.clip(c + d, 0.0, None), np.clip(c - d, 0.0, None)
            want = (c, d, 0.5 * (np.sqrt(lam_p) + np.sqrt(lam_m)),
                    0.5 * (np.sqrt(lam_p) - np.sqrt(lam_m)))
            for got, ref in zip(gridmod.luders_coefficients(eta, x, sign), want):
                assert np.array_equal(bits(got), bits(ref))


def _rotate_reference(r, axis, angle):
    """Rodrigues rotation by `angle`, written with np.cross and np.sum."""
    angle = np.asarray(angle, dtype=float)[..., None]
    cos, sin = np.cos(angle), np.sin(angle)
    dot = np.sum(axis * r, axis=-1, keepdims=True)
    return r * cos + np.cross(axis, r) * sin + axis * dot * (1.0 - cos)


def _luders_step_reference(r, m_hat, eta, x, sign):
    """One Lueders update along any unit vector m_hat in the general form:
    m_hat.r by np.sum, and the m_hat term added to every component."""
    c, d, p, q = gridmod.luders_coefficients(eta, x, sign)
    mdotr = np.sum(m_hat * r, axis=-1)
    prob = c + d * mdotr
    safe = np.where(prob > 1e-15, prob, 1.0)[..., None]
    post = ((p**2 - q**2)[..., None] * r
            + (2 * p * q + 2 * q**2 * mdotr)[..., None] * np.broadcast_to(m_hat, r.shape))
    return np.clip(prob, 0.0, 1.0), np.where(prob[..., None] > 1e-15, post / safe, 0.0)


def _experiment(bloch0, measured, tau, axis, eta, x):
    """One stand-alone experiment walked step by step, one outcome sequence at
    a time in product((1, -1)) order: a general-form Lueders update along z
    at each measured time and a rotation by 2 tau from each time to the
    next, neither of them the kernel's code."""
    columns = []
    for signs in product((1, -1), repeat=len(measured)):
        r, weight, outcome = np.asarray(bloch0, dtype=float), 1.0, iter(signs)
        for t in range(1, measured[-1] + 1):
            if t > 1:
                r = _rotate_reference(r, axis, 2.0 * tau)
            if t in measured:
                prob, r = _luders_step_reference(r, gridmod.Z_HAT, eta, x, next(outcome))
                weight = weight * prob
        columns.append(weight)
    return np.stack(columns, axis=-1)


class TestLgDistributions:
    @pytest.mark.parametrize("mode", ["zero", "eta-1", "fixed"])
    def test_equals_step_by_step_walk(self, rng, mode):
        # bit for bit, signs of zeros included: phi = 0 states (r_y = +-0),
        # states on or next to z (an outcome of probability 0 or <= 1e-15,
        # whose post-state is 0, at eta = 1), eta in {0, 1},
        # the rank-one cap 1 - |x| (x = eta - 1 in "eta-1"), axes with
        # exact zeros or all components negative, the full walk, the pairs
        # and ELGI's reads, and a shape-() point
        axes = [X_HAT, -X_HAT, -np.abs(random_axis(rng))] + [random_axis(rng) for _ in range(5)]
        for trial, axis in enumerate(axes):
            n = int(rng.integers(8, 200))
            theta, phi = rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n)
            phi[:n // 2] = 0.0
            theta[:4] = (0.0, np.pi / 2, np.pi, 1e-8)
            tau = rng.uniform(0, np.pi, n)
            x = rng.uniform(-1, 1, n) if mode == "fixed" else np.zeros(n)
            eta = rng.uniform(0, 1, n) * (1 - np.abs(x))
            eta[:6] = (1.0, 1.0, 1.0, 1.0, 1.0 - abs(x[4]), 0.0)
            x[:4] = 0.0
            if mode == "eta-1":
                x = eta - 1.0
            bloch = gridmod.pure_bloch(theta, phi)
            experiments = (gridmod.SUBSETS, gridmod.PAIRS,
                           gridmod.FAMILY_TABLE["elgi"].reads)[trial % 3]
            for args in ((bloch, tau, axis, eta, x), (bloch[n - 1], tau[0], axis, eta[4], x[4])):
                dists = gridmod.lg_distributions(*args, experiments)
                if experiments == gridmod.SUBSETS:
                    assert tuple(dists) == gridmod.SUBSETS
                for subset, probs in dists.items():
                    want = _experiment(args[0], subset, *args[1:])
                    assert probs.shape == want.shape
                    assert np.array_equal(bits(probs), bits(want)), (subset, trial)

    @pytest.mark.parametrize("mode", ["zero", "eta-1", "fixed"])
    def test_batch_equals_per_point_calls(self, rng, mode):
        # a distinct (tau, eta, x) per point, as one call or one call per point;
        # threshold bisection evaluates its bracket samples as one batch
        n = 40
        bloch = gridmod.pure_bloch(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n))
        tau, eta = rng.uniform(0, np.pi, n), rng.uniform(0, 1, n)
        eta[:4] = (0.0, 1.0, 0.0, 1.0)
        x = {"zero": np.zeros(n), "eta-1": eta - 1.0,
             "fixed": rng.uniform(-1, 1, n) * (1 - eta)}[mode]
        axis = random_axis(rng)
        batch = gridmod.lg_distributions(bloch, tau, axis, eta, x)
        grid = gridmod.lg_distributions(bloch[0], tau[:5], axis, eta[5:8, None], x[5:8, None])
        for i in range(n):
            point = gridmod.lg_distributions(bloch[i], tau[i], axis, eta[i], x[i])
            assert all(np.array_equal(batch[s][i], point[s]) for s in gridmod.SUBSETS)
        for i, k in product(range(3), range(5)):
            point = gridmod.lg_distributions(bloch[0], tau[k], axis, eta[5 + i], x[5 + i])
            assert all(np.array_equal(grid[s][i, k], point[s]) for s in gridmod.SUBSETS)

    @pytest.mark.parametrize("experiments, keys", [
        (gridmod.PAIRS, ((1,), (2,)) + gridmod.PAIRS),
        (gridmod.FAMILY_TABLE["elgi"].reads, gridmod.SUBSETS[:-1]),
        (gridmod.SUBSETS, gridmod.SUBSETS),
    ], ids=["pairs", "elgi", "subsets"])
    @pytest.mark.parametrize("mode", gridmod.BIAS_MODES)
    def test_pruned_walk_equals_full_walk(self, rng, mode, experiments, keys):
        # every requested experiment, its prefixes and (1,), each bit-equal
        # to the full walk: eta in {0, 1} and the rank-one cap 1 - |x| on a
        # tilted axis, as a per-point batch, threshold_eta's (eta, 1) x (5,)
        # batch and a shape-() point
        n = 12
        bloch = gridmod.pure_bloch(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n))
        tau = rng.uniform(0, np.pi, n)
        x = rng.uniform(-0.6, 0.6, n) if mode == "fixed" else np.zeros(n)
        eta = rng.uniform(0, 1, n) * (1.0 - np.abs(x))
        eta[:2] = (0.0, 1.0 - abs(x[1]))
        if mode == "eta-1":
            x = eta - 1.0
        axis = random_axis(rng)
        calls = [(bloch, tau, axis, eta, x),
                 (bloch[0], EXACT_TAUS, axis, eta[:, None], x[:, None]),
                 (bloch[1], tau[1], axis, eta[1], x[1])]
        for args in calls:
            full = gridmod.lg_distributions(*args)
            pruned = gridmod.lg_distributions(*args, experiments)
            assert tuple(pruned) == keys
            assert set(experiments) | {(1,)} <= set(pruned)
            for key, probs in pruned.items():
                assert np.array_equal(probs, full[key]), key

    @pytest.mark.parametrize("mode", gridmod.BIAS_MODES)
    @pytest.mark.parametrize("theta", [0.0, 1.1], ids=["on-z", "tilted"])
    def test_every_experiment_set_equals_step_by_step_walk(self, rng, theta, mode):
        # all 127 nonempty sets of experiments, on one state against an
        # (n_eta, 5) batch and at shape (): the keys (each requested
        # experiment, its prefixes and (1,), in SUBSETS order), the shapes
        # and the bits.  On z at eta = 1, outcome - of t1 has probability 0
        # and its post-state is 0
        eta = np.concatenate([[1.0, 0.0], rng.uniform(0, 1, 5)])[:, None]
        x = {"zero": 0.0 * eta, "eta-1": eta - 1.0,
             "fixed": rng.uniform(-1, 1, eta.shape) * (1.0 - eta)}[mode]
        bloch, axis = gridmod.pure_bloch(theta, 0.4), -np.abs(random_axis(rng))
        calls = [(bloch, EXACT_TAUS, axis, eta, x),
                 (bloch, EXACT_TAUS[1], axis, eta[2, 0], x[2, 0])]
        for args in calls:
            # the reference's (1,) does not read tau: broadcast it over the batch
            batch = np.broadcast_shapes(np.shape(args[1]), np.shape(args[3]))
            want = {s: np.broadcast_to(_experiment(args[0], s, *args[1:]), batch + (2 ** len(s),))
                    for s in gridmod.SUBSETS}
            for n in range(1, 8):
                for experiments in combinations(gridmod.SUBSETS, n):
                    dists = gridmod.lg_distributions(*args, experiments)
                    measured = {e[:k] for e in experiments + ((1,),) for k in range(1, len(e) + 1)}
                    assert tuple(dists) == tuple(s for s in gridmod.SUBSETS if s in measured)
                    for subset, probs in dists.items():
                        assert probs.shape == want[subset].shape
                        assert np.array_equal(bits(probs), bits(want[subset])), \
                            (experiments, subset)

    def test_peak_memory_of_a_scan_block(self, rng):
        # one full walk at scan.CHUNK points: 3.25 MiB of distributions and
        # the walk's temporaries, with each leaf group's states rotated and
        # measured in turn (all leaves at once peaked at 18.4 MiB)
        n = CHUNK
        bloch = gridmod.pure_bloch(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n))
        tau, eta = rng.uniform(0, np.pi, n), rng.uniform(0, 1, n)
        x = rng.uniform(-1, 1, n) * (1.0 - eta)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dists = gridmod.lg_distributions(bloch, tau, random_axis(rng), eta, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sum(probs.nbytes for probs in dists.values()) == 26 * 8 * n
        assert peak <= 9.5 * 2**20

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
        state = QubitState.pure(theta, phi)
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
            for name, family in rep.families().items():
                assert np.max(np.abs(fast[name] - list(family.values()))) < 1e-12, name

    def test_aot_residual_zero(self, rng):
        theta = rng.uniform(0, np.pi, 200)
        phi = rng.uniform(0, 2 * np.pi, 200)
        tau = rng.uniform(0, np.pi, 200)
        eta = rng.uniform(0, 1, 200)
        x = rng.uniform(-1, 1, 200) * (1 - eta)
        dists = gridmod.lg_distributions(gridmod.pure_bloch(theta, phi), tau, X_HAT, eta, x)
        assert float(np.max(gridmod.aot_residual(dists))) < 1e-12

    def test_elgi_takes_each_entropy_once(self, rng, monkeypatch):
        # a dict's six entropies are taken once each, and both inputs give
        # H(a,c) - H(a,b) - H(b,c) + H(b) bit for bit, for every spec subset
        # in every order, in the three bias modes
        n = 30
        entropy, calls = gridmod.entropy, []

        def counting(probs):
            calls.append(probs.shape)
            return entropy(probs)

        orders = [specs for r in (1, 2, 3) for specs in permutations(gridmod.ELGI_SPECS, r)]
        assert len(orders) == 15
        for mode in gridmod.BIAS_MODES:
            eta = rng.uniform(0, 1, n) * (0.8 if mode == "fixed" else 1.0)
            dists = gridmod.lg_distributions(
                gridmod.pure_bloch(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n)),
                rng.uniform(0, np.pi, n), random_axis(rng), eta, gridmod.bias_x(mode, eta, 0.2))
            table = np.concatenate([dists[key] for key in gridmod.ELGI_STACK], axis=-1)
            calls.clear()
            monkeypatch.setattr(gridmod, "entropy", counting)
            gridmod.elgi_values(dists)
            monkeypatch.undo()
            assert len(calls) == 6
            want = {}
            for spec in gridmod.ELGI_SPECS:
                b = spec.middle
                a, c = sorted({1, 2, 3} - {b})
                want[spec] = (entropy(dists[(a, c)]) - entropy(dists[tuple(sorted((a, b)))])
                              - entropy(dists[tuple(sorted((b, c)))]) + entropy(dists[(b,)]))
            for specs in orders:
                for values in (gridmod.elgi_values(dists, specs),
                               gridmod.elgi_values(table, specs)):
                    assert values.shape == (n, len(specs))
                    for j, spec in enumerate(specs):
                        assert np.array_equal(bits(values[:, j]), bits(want[spec])), (mode, specs)

    def test_entropy_equals_masked_form(self, rng):
        # 0 ln 0 = 0 through a floored log, bit-equal to masking the
        # argument and the terms: also for -0.0 and (rounding-sized)
        # negative entries, which contribute nothing, and for rows of zeros
        # of either sign, on C-ordered rows of 2, 4 and 8 outcomes
        for width in (2, 4, 8):
            p = rng.dirichlet(np.ones(width), size=200)
            p[::3, 1] = 0.0
            p[::5] = np.eye(width)[0]
            p[::7, 0] = -0.0
            p[::11, 1] = -1e-17
            p[4] = 0.0
            p[9] = -0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                want = -np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0).sum(axis=-1)
            got = gridmod.entropy(p)
            assert np.array_equal(bits(got), bits(want))
            for row in (7, 11):
                assert np.array_equal(bits(gridmod.entropy(p[row])), bits(want[row]))

    def test_strided_row_sums_add_left_to_right(self, rng):
        # entropy and elgi_values sum rows of 2 and 4 outcomes with np.sum on
        # an outcome axis that is strided in memory: the kernel's entries are
        # stored outcome-major, (2**k, *batch), and the table the ELGI tau
        # maximum rebuilds is tau-fastest, (eta, 18, tau).  Both must give the
        # masked p ln p summed left to right from +0, bit for bit, with rows
        # of zeros of either sign, point masses, subnormals, 1 + 1e-9 and a
        # NaN of either sign (one per row: which of two NaNs an add returns
        # is the loop's choice)
        edge = [0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308 / 3, 1.0 + 1e-9, -1e-17]

        def strided(p, layout):
            """p (6, 40, w) with its outcome axis slowest in memory, or in the
            middle: the kernel's layout and the tau-fastest one."""
            if layout == "outcome-major":
                return np.moveaxis(np.ascontiguousarray(np.moveaxis(p, -1, 0)), 0, -1)
            return np.ascontiguousarray(p.swapaxes(-1, -2)).swapaxes(-1, -2)

        def reference(p):
            with np.errstate(divide="ignore", invalid="ignore"):
                terms = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
            terms = np.where(np.isnan(p), p, terms)
            total = np.zeros(p.shape[:-1])
            for i in range(p.shape[-1]):
                total = total + terms[..., i]
            return -total

        probs, h = {}, {}
        for key in gridmod.ELGI_STACK:
            width = 2 ** len(key)
            p = rng.dirichlet(np.ones(width), size=(6, 40))
            scattered = rng.random(p.shape) < 0.3
            p[scattered] = rng.choice(edge, scattered.sum())
            p[0, :width] = np.eye(width)  # point masses
            p[1, :4] = np.array([0.0, -0.0, 1.0 + 1e-9, 5e-324])[:, None]
            p[1, 4] = [-0.0, 0.0] * (width // 2)
            p[2, ::3, 1] = np.nan
            p[3, ::5, 0] = -np.nan
            probs[key], h[key] = p, reference(p)
            for layout in ("outcome-major", "tau-fastest"):
                got = gridmod.entropy(strided(p, layout))
                assert np.array_equal(bits(got), bits(h[key])), (key, layout)
            assert np.isnan(got).any() and (bits(got) == bits(-0.0)).any()
        table = np.concatenate([probs[key] for key in gridmod.ELGI_STACK], axis=-1)
        for spec, layout in product(gridmod.ELGI_SPECS, ("outcome-major", "tau-fastest")):
            b = spec.middle
            a, c = sorted({1, 2, 3} - {b})
            want = (h[(a, c)] - h[tuple(sorted((a, b)))] - h[tuple(sorted((b, c)))] + h[(b,)])
            got = gridmod.elgi_values(strided(table, layout), (spec,))[..., 0]
            assert np.array_equal(bits(got), bits(want)), (spec, layout)

    @pytest.mark.parametrize("tau_major", [False, True])
    def test_stacked_table_equals_dicts(self, rng, tau_major):
        # one (..., 18) table of the ELGI_STACK experiments gives the floats
        # of the dict, for every spec set, with exact 0 and 1 probabilities
        # and whichever axis is fastest in memory
        dists = {key: rng.dirichlet(np.ones(2 ** len(key)), size=(3, 40))
                 for key in gridmod.ELGI_STACK}
        dists[(1,)][0] = (1.0, 0.0)
        dists[(1, 3)][1] = (0.0, 0.0, 1.0, 0.0)
        dists[(2, 3)][:, ::4, 2] = 0.0
        table = np.concatenate([dists[key] for key in gridmod.ELGI_STACK], axis=-1)
        if tau_major:
            table = np.ascontiguousarray(table.swapaxes(-1, -2)).swapaxes(-1, -2)
        for specs in [gridmod.ELGI_SPECS] + [gridmod.ELGI_SPECS[i:i + 1] for i in range(3)]:
            got = gridmod.elgi_values(table, specs)
            assert got.shape == (3, 40, len(specs))
            assert np.array_equal(bits(got), bits(gridmod.elgi_values(dists, specs)))

    def test_stacked_table_equals_dicts_on_edge_values(self, rng):
        # the stacked path's one pass of strided column adds (singles 0:6:2
        # and 1:6:2, pairs 6::4 through 9::4, each then += 0.0) and its index
        # gathers give the dict path's floats bit for bit, for every spec
        # subset in every order, on synthetic tables holding exact 0 and 1,
        # -0.0, subnormals, values just above 1, NaN of either sign and tiny
        # negatives: scattered, and as whole rows of one value
        edge = np.array([0.0, 1.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3,
                         np.nextafter(1.0, 2.0), 1.0 + 1e-9, np.nan, -np.nan, -1e-17])
        table = rng.uniform(0.0, 1.0, (3, 40, 18))
        scattered = rng.random(table.shape) < 0.35
        table[scattered] = rng.choice(edge, scattered.sum())
        table[0, :edge.size] = edge[:, None]
        table[1, :4] = np.array([0.0, -0.0, 1.0, 0.5])[:, None]
        table[1, 4] = [1.0, 0.0] * 3 + [0.0, -0.0, 1.0, 0.0] * 3  # point masses
        # a point mass at (1, 3) between zero rows: a zero H of either sign
        table[1, 5] = [1.0, 0.0] * 3 + [0.0] * 4 + [0.0, 0.0, 1.0, 0.0] + [-0.0] * 4
        starts = (0, 2, 4, 6, 10, 14)
        dists = {key: table[..., start:start + 2 ** len(key)]
                 for key, start in zip(gridmod.ELGI_STACK, starts)}
        orders = [specs for r in (1, 2, 3) for specs in permutations(gridmod.ELGI_SPECS, r)]
        assert len(orders) == 15
        for specs in orders:
            got = gridmod.elgi_values(table, specs)
            assert got.shape == (3, 40, len(specs))
            assert np.array_equal(bits(got), bits(gridmod.elgi_values(dists, specs)))
        assert np.isnan(gridmod.elgi_values(table)).any()  # the NaN cells were compared too

    def test_entropy_matches_scipy(self, rng):
        import scipy.stats

        p = rng.dirichlet(np.ones(4), size=10)
        ours = gridmod.entropy(p)
        ref = np.array([scipy.stats.entropy(row) for row in p])
        assert np.max(np.abs(ours - ref)) < 1e-12


# The definitions in lgscan.nsit, written out independently of grid's tables:
# D family -> (stand-alone experiment, the larger experiment it is compared with)
D_EXPERIMENTS = {"d1_pair": ((2, 3), (1, 2, 3)), "d2_pair": ((1, 3), (1, 2, 3)),
                 "d1_m2": ((2,), (1, 2)), "d1_m3": ((3,), (1, 3)), "d2_m3": ((3,), (2, 3))}
# AoT identity: the stand-alone experiment equals this marginal of the larger one
AOT_EXPERIMENTS = (((1, 2), (1, 2, 3)), ((1,), (1, 2)), ((1,), (1, 3)), ((2,), (2, 3)))


class TestDisturbanceDefinitions:
    @pytest.mark.parametrize("bias", ["zero", "eta-1", "fixed"])
    def test_against_marginalized_pipeline(self, rng, bias):
        for _ in range(15):
            theta, phi, tau, eta, _ = random_point(rng, biased=False)
            eta = 0.8 * eta if bias == "fixed" else eta
            x = {"zero": 0.0, "eta-1": eta - 1.0, "fixed": 0.2}[bias]
            state = QubitState.pure(theta, phi)
            sched = Schedule(measured=(1, 2, 3), tau=tau, axis=random_axis(rng), x=x, eta=eta)
            runs = {s: run_schedule(state, sched.with_measured(s)) for s in gridmod.SUBSETS}
            dists = {s: run.probabilities() for s, run in runs.items()}

            def gap(small, larger):
                """P(small) minus the marginal of the larger experiment, in product order."""
                marginal = runs[larger].marginalize(small)
                return np.array([runs[small].prob(o) - marginal.prob(o)
                                 for o in product((1, -1), repeat=len(small))])

            fast = gridmod.disturbances(dists)
            assert set(fast) == set(D_EXPERIMENTS)
            for name, (small, larger) in D_EXPERIMENTS.items():
                assert np.max(np.abs(fast[name] - gap(small, larger))) < 1e-14, name
            worst = max(np.max(np.abs(gap(*pair))) for pair in AOT_EXPERIMENTS)
            assert abs(float(gridmod.aot_residual(dists)) - worst) < 1e-14

    def test_aot_residual_reads_each_identity(self, rng):
        theta, phi, tau, eta, x = random_point(rng)
        dists = gridmod.lg_distributions(gridmod.pure_bloch(theta, phi), tau, X_HAT, eta, x)
        base = float(gridmod.aot_residual(dists))
        assert base < 1e-15
        delta = 1e-3
        for key, probs in dists.items():
            for i in range(probs.size):
                moved = dict(dists)
                moved[key] = probs + delta * (np.arange(probs.size) == i)
                residual = float(gridmod.aot_residual(moved))
                if key == (3,):  # no identity reads the stand-alone t3 experiment
                    assert residual == base
                else:
                    assert abs(residual - delta) < 1e-12, (key, i)


class TestPick:
    def test_lowest_index_within_tolerance(self):
        vals = np.array([[0.1, 0.3, 0.3 + 5e-13, 0.3 - 2e-12],
                         [-1.0, -2.0, -1.0 - 1e-12, 0.5]])
        best, spec = gridmod.pick(vals)
        assert best.tolist() == [0.3 + 5e-13, 0.5]
        assert spec.tolist() == [1, 3]
        best, spec = gridmod.pick([-1.0, -1.0 + 1e-13, -3.0])
        assert (float(best), int(spec)) == (-1.0 + 1e-13, 0)

    @pytest.mark.parametrize("bias", ["zero", "eta-1"])
    def test_tied_rows_keep_their_spec_under_one_ulp(self, bias):
        # a seeded scan grid; WLGI members tie in exact arithmetic on many rows
        rng = np.random.default_rng(303)
        theta = rng.uniform(0.05, 0.45) + 0.5 * np.arange(3)
        phi = rng.uniform(0.05, 0.95) + np.arange(3)
        grids = np.meshgrid(theta, phi, np.arange(1, 90) * 0.035,
                            np.arange(1, 21) * 0.05, indexing="ij")
        th, ph, tau, eta = (a.ravel() for a in grids)
        x = eta - 1.0 if bias == "eta-1" else 0.0
        dists = gridmod.lg_distributions(gridmod.pure_bloch(th, ph), tau, X_HAT, eta, x)
        for name, fam in gridmod.FAMILY_TABLE.items():
            vals = fam.values(dists)
            best, spec = gridmod.pick(vals)
            tied = np.sum(vals >= best[:, None] - 1e-12, axis=-1) > 1
            if name == "wlgi":
                assert tied.sum() > 1000
            # every member of a tied row moves by -1, 0 or +1 ulp
            step = rng.integers(-1, 2, size=vals.shape)
            up = np.where(step > 0, np.inf, -np.inf)
            nudged = np.where(step == 0, vals, np.nextafter(vals, up))
            assert np.array_equal(gridmod.pick(nudged)[1][tied], spec[tied])
            # so does every outcome probability the reduction reads
            moved = {k: np.nextafter(d, rng.choice([-np.inf, np.inf], size=d.shape))
                     for k, d in dists.items()}
            assert np.array_equal(gridmod.pick(fam.values(moved))[1][tied], spec[tied])
            if name == "wlgi":  # the first argmax is decided by that last bit
                assert np.any(np.argmax(nudged, axis=-1)[tied] != np.argmax(vals, axis=-1)[tied])


class TestWlgiTies:
    """The WLGI forms that tie in exact arithmetic (see the WLGI_SPECS comment)."""

    CLASSES = ((0, 11), (1, 9), (2, 10), (3, 8), (4, 15), (5, 13), (6, 14), (7, 12))
    ZERO_BIAS_JOINS = ((1, 23), (3, 19), (4, 20), (6, 16))

    def test_classes_pair_forms_of_one_time_1_marginal(self):
        # each class pairs a (1, 2) form (p:u, q:v, r:s) with the (1, 3) form
        # (u, v' = -s, s' = -v): their difference is P(1:u) of the (1, 2)
        # pair minus P(1:u) of the (1, 3) pair
        for a, b in self.CLASSES:
            low, high = gridmod.WLGI_SPECS[a], gridmod.WLGI_SPECS[b]
            assert (low.positive_pair, high.positive_pair) == ((1, 2), (1, 3))
            assert (high.u, high.v, high.s) == (low.u, -low.s, -low.v)

    @pytest.mark.parametrize("bias_mode, x_fixed", [("zero", 0.0), ("eta-1", 0.0),
                                                    ("fixed", 0.2)])
    @pytest.mark.parametrize("axis", [X_HAT, np.array([np.cos(0.4) * np.sin(1.1),
                                                       np.cos(0.4) * np.cos(1.1), np.sin(0.4)])],
                             ids=["x_hat", "tilted"])
    def test_tie_classes_agree_to_rounding(self, bias_mode, x_fixed, axis):
        # seeded points in every bias mode: a class agrees within 1e-15
        # (measured <= 2.2e-16 over 20,000 points, about half not bitwise
        # equal), the zero-bias joins only at zero bias (<= 3.6e-16 there,
        # 0.2-0.3 apart elsewhere), and `pick` never reports a class's
        # higher member
        rng = np.random.default_rng(2029)
        n = 4000
        eta = rng.uniform(0.0, 1.0 - abs(x_fixed), n)
        dists = gridmod.lg_distributions(
            gridmod.pure_bloch(rng.uniform(0, np.pi, n), rng.uniform(0, 2 * np.pi, n)),
            rng.uniform(0, np.pi, n), axis, eta, gridmod.bias_x(bias_mode, eta, x_fixed),
            experiments=gridmod.PAIRS)
        values = gridmod.wlgi_values(dists)
        for a, b in self.CLASSES:
            assert np.abs(values[:, a] - values[:, b]).max() <= 1e-15, (a, b)
        joins = [np.abs(values[:, a] - values[:, b]).max() for a, b in self.ZERO_BIAS_JOINS]
        higher = {b for _, b in self.CLASSES}
        if bias_mode == "zero":
            assert max(joins) <= 1e-15
            higher |= {b for _, b in self.ZERO_BIAS_JOINS}
        else:
            assert min(joins) > 0.1
        _, spec = gridmod.pick(values)
        assert not higher & set(spec.tolist())
