import numpy as np
import pytest

from lgscan.inequalities import (
    ELGI_SPECS,
    SLGI_SPECS,
    WLGI_SPECS,
    WlgiSpec,
    elgi_all,
    shannon_entropy,
    slgi_all,
    slgi_closed_form_biased,
    slgi_closed_form_spin,
    wlgi_all,
)
from lgscan.measurement import QubitState, Schedule, run_schedule
from lgscan.scan import axis_from_angles

from conftest import random_point

PLUS = QubitState.pure(np.pi / 4, 0.0)

# the inequality with positive pair (2,3), outcomes (+,-), split +
SPEC_23 = WlgiSpec((2, 3), 1, -1, 1)
# the inequality with positive pair (1,3), outcomes (+,-), split -
SPEC_13 = WlgiSpec((1, 3), 1, -1, -1)


def spin_sched(tau, eta, **kw):
    return Schedule(measured=(1, 2, 3), tau=tau, x=0.0, eta=eta, **kw)


def biased_sched(tau, eta, **kw):
    return Schedule(measured=(1, 2, 3), tau=tau, x=eta - 1.0, eta=eta, **kw)


class TestSpecTables:
    def test_counts(self):
        assert len(SLGI_SPECS) == 4
        assert len(WLGI_SPECS) == 24
        assert len(ELGI_SPECS) == 3

    def test_canonical_wlgi_indices(self):
        assert WLGI_SPECS.index(SPEC_23) == 18
        assert WLGI_SPECS.index(SPEC_13) == 11

    def test_slgi_specs_inequivalent(self):
        assert len({s.signs for s in SLGI_SPECS}) == 4
        products = {(s.signs[0] * s.signs[1], s.signs[1] * s.signs[2]) for s in SLGI_SPECS}
        assert len(products) == 4


class TestSlgi:
    def test_sharp_peak(self):
        r = slgi_all(PLUS, spin_sched(np.pi / 6, 1.0), (SLGI_SPECS[0],))[0]
        assert r.value == pytest.approx(1.5, abs=1e-12)
        assert r.violated

    def test_relabeled_peak_at_pi_3(self):
        # the fully-flipped relabeling reaches the same maximum at tau = pi/3
        r = slgi_all(PLUS, spin_sched(np.pi / 3, 1.0), (SLGI_SPECS[2],))[0]
        assert r.value == pytest.approx(1.5, abs=1e-12)

    def test_tau_zero_no_violation(self, rng):
        for eta in rng.uniform(0, 1, 10):
            r = slgi_all(PLUS, spin_sched(0.0, eta), (SLGI_SPECS[0],))[0]
            assert r.value == pytest.approx(eta**2, abs=1e-12)
            assert not r.violated

    def test_biased_simple_form_any_eta(self):
        state = QubitState.pure(np.pi / 3, np.pi / 2)
        for eta in np.linspace(0.05, 1.0, 20):
            r = slgi_all(state, biased_sched(5 * np.pi / 6, eta), (SLGI_SPECS[0],))[0]
            assert r.value == pytest.approx(1 + eta**2 / 2, abs=1e-10)
            assert r.violated

    def test_relabeling_closure(self, rng):
        # flipping outcomes in the distributions == evaluating the flipped spec
        theta, phi, tau, eta, x = random_point(rng)
        state = QubitState.pure(theta, phi)
        sched = Schedule(measured=(1, 2, 3), tau=tau, x=x, eta=eta)
        base = {p: run_schedule(state, sched.with_measured(p)) for p in ((1, 2), (2, 3), (1, 3))}
        for spec in SLGI_SPECS:
            s = {1: spec.signs[0], 2: spec.signs[1], 3: spec.signs[2]}
            corr = {}
            for (a, b), dist in base.items():
                corr[(a, b)] = sum(
                    (s[a] * i) * (s[b] * j) * p for (i, j), p in dist.table.items()
                )
            flipped_plain = corr[(1, 2)] + corr[(2, 3)] - corr[(1, 3)]
            direct = slgi_all(state, sched, (spec,))[0].value
            assert flipped_plain == pytest.approx(direct, abs=1e-14)


class TestSlgiClosedForms:
    def test_spin_values(self):
        assert slgi_closed_form_spin(1.0, np.pi / 6) == pytest.approx(1.5, abs=1e-14)
        assert slgi_closed_form_spin(0.81, np.pi / 6) == pytest.approx(1.5 * 0.81**2, abs=1e-14)
        assert slgi_closed_form_spin(0.81, np.pi / 6) < 1.0
        for eta in (0.3, 0.7, 1.0):
            assert slgi_closed_form_spin(eta, 0.0) == pytest.approx(eta**2, abs=1e-14)

    def test_spin_threshold_location(self):
        assert np.sqrt(2 / 3) == pytest.approx(0.816497, abs=1e-6)
        assert slgi_closed_form_spin(np.sqrt(2 / 3) + 1e-3, np.pi / 6) > 1.0
        assert slgi_closed_form_spin(np.sqrt(2 / 3) - 1e-3, np.pi / 6) < 1.0

    def test_spin_agreement_50x50_grid_and_state_independence(self, rng):
        # full 50x50 (eta, tau) grid over 20 random states via the vectorized
        # engine (itself pinned to the pipeline elsewhere), plus scalar
        # pipeline spot checks
        from lgscan import grid as gridmod
        from lgscan.linalg import X_HAT

        taus = np.linspace(0.02, np.pi - 0.02, 50)
        etas = np.linspace(0.02, 1.0, 50)
        target = etas[:, None] ** 2 * (2 * np.cos(2 * taus)[None, :] - np.cos(4 * taus)[None, :])
        worst = 0.0
        for _ in range(20):
            bloch = gridmod.pure_bloch(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            dists = gridmod.lg_distributions(
                bloch, taus[None, :], X_HAT, etas[:, None], 0.0
            )
            vals = gridmod.slgi_values(dists)[..., 0]
            worst = max(worst, float(np.max(np.abs(vals - target))))
        assert worst < 1e-10

        for _ in range(12):
            state = QubitState.pure(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            tau, eta = rng.uniform(0.05, np.pi - 0.05), rng.uniform(0.05, 1.0)
            v = slgi_all(state, spin_sched(tau, eta), (SLGI_SPECS[0],))[0].value
            assert abs(v - slgi_closed_form_spin(eta, tau)) < 1e-10

    def test_biased_closed_form_reductions(self):
        assert slgi_closed_form_biased(np.pi / 3, np.pi / 2, 5 * np.pi / 6, 1.0) == pytest.approx(1.5, abs=1e-12)
        for eta in np.linspace(0.1, 1.0, 7):
            v = slgi_closed_form_biased(np.pi / 3, np.pi / 2, 5 * np.pi / 6, eta)
            assert v == pytest.approx(1 + eta**2 / 2, abs=1e-12)

    def test_biased_closed_form_vs_pipeline(self, rng):
        worst = 0.0
        for _ in range(25):
            theta, phi, tau, eta, _ = random_point(rng)
            eta = max(eta, 1e-3)
            state = QubitState.pure(theta, phi)
            v = slgi_all(state, biased_sched(tau, eta), (SLGI_SPECS[0],))[0].value
            worst = max(worst, abs(v - slgi_closed_form_biased(theta, phi, tau, eta)))
        assert worst < 1e-10

    def test_biased_closed_form_eta_to_zero(self):
        # pure bias x -> -1: the degenerate limit evaluated just off zero
        state = QubitState.pure(1.1, 2.2)
        v = slgi_all(state, biased_sched(0.8, 1e-6), (SLGI_SPECS[0],))[0].value
        assert v == pytest.approx(slgi_closed_form_biased(1.1, 2.2, 0.8, 1e-6), abs=1e-9)
        assert v == pytest.approx(1.0, abs=1e-5)


class TestWlgi:
    def test_lowest_threshold_point_closed_form(self):
        state = QubitState.pure(np.pi / 3, np.pi / 2)
        for eta in np.linspace(0.1, 1.0, 10):
            r = wlgi_all(state, spin_sched(np.pi / 3, eta), (SPEC_23,))[0]
            expected = (3 * eta * (1 + eta - np.sqrt(1 - eta**2)) - 2) / 8
            assert r.value == pytest.approx(expected, abs=1e-10)

    def test_threshold_is_069(self):
        state = QubitState.pure(np.pi / 3, np.pi / 2)
        r = wlgi_all(state, spin_sched(np.pi / 3, 0.69), (SPEC_23,))[0]
        assert abs(r.value) < 1e-4
        assert wlgi_all(state, spin_sched(np.pi / 3, 0.72), (SPEC_23,))[0].violated
        assert not wlgi_all(state, spin_sched(np.pi / 3, 0.66), (SPEC_23,))[0].violated

    def test_spin_closed_form_generic(self, rng):
        # transcription of the unbiased closed form for SPEC_23
        def wl1(theta, phi, tau, eta):
            q = np.sqrt(1 - eta * eta)
            s2th, c2th = np.sin(2 * theta), np.cos(2 * theta)
            s2t, c2t = np.sin(2 * tau), np.cos(2 * tau)
            s4t, c4t = np.sin(4 * tau), np.cos(4 * tau)
            sp = np.sin(phi)
            inner = (-4 * s2th * s2t * sp * (q + c2t - 1)
                     - 2 * q * (c2th * c4t - sp * s2th * s4t)
                     - 4 * eta * (2 * c2t + c4t))
            return (eta * inner + 2 * eta * c2th * (q + c4t - 1) - 4) / 16

        worst = 0.0
        for _ in range(25):
            theta, phi, tau, eta, _ = random_point(rng)
            state = QubitState.pure(theta, phi)
            v = wlgi_all(state, spin_sched(tau, eta), (SPEC_23,))[0].value
            worst = max(worst, abs(v - wl1(theta, phi, tau, eta)))
        assert worst < 1e-10

    def test_biased_simple_form_needs_phi_half_pi(self):
        # eta^2/8 for the positive-(1,3) inequality at (pi/3, pi/2, 5pi/6);
        # at phi = pi/3 no member of the family reduces this way
        state = QubitState.pure(np.pi / 3, np.pi / 2)
        for eta in np.linspace(0.1, 1.0, 10):
            r = wlgi_all(state, biased_sched(5 * np.pi / 6, eta), (SPEC_13,))[0]
            assert r.value == pytest.approx(eta**2 / 8, abs=1e-10)
            assert r.violated
        off = QubitState.pure(np.pi / 3, np.pi / 3)
        mismatch = [abs(r.value - 1 / 8) for r in wlgi_all(off, biased_sched(5 * np.pi / 6, 1.0))]
        assert min(mismatch) > 1e-3

    def test_all_values_plus_state_three_forms(self, rng):
        for tau in rng.uniform(0.05, np.pi - 0.05, 15):
            forms = (
                np.cos(2 * tau) * np.sin(tau) ** 2,
                -np.sin(2 * tau) ** 2 / 2,
                -np.cos(tau) ** 2 * np.cos(2 * tau),
            )
            for r in wlgi_all(PLUS, spin_sched(tau, 1.0)):
                assert min(abs(r.value - f) for f in forms) < 1e-12

    def test_plus_state_pi4_no_violation(self):
        vals = [r.value for r in wlgi_all(PLUS, spin_sched(np.pi / 4, 1.0))]
        assert max(vals) == pytest.approx(0.0, abs=1e-14)

    def test_tilted_axis_zero_state_no_violation(self):
        axis = axis_from_angles(np.pi / 4, np.pi / 4)
        state = QubitState.pure(0.0, 0.0)
        sched = Schedule(measured=(1, 2, 3), tau=np.pi / 3, axis=axis, x=0.0, eta=1.0)
        assert max(r.value for r in wlgi_all(state, sched)) <= 1e-12

    def test_range_bounds(self, rng):
        for _ in range(30):
            theta, phi, tau, eta, x = random_point(rng)
            state = QubitState.pure(theta, phi)
            sched = Schedule(measured=(1, 2, 3), tau=tau, x=x, eta=eta)
            for r in wlgi_all(state, sched):
                assert -2.0 - 1e-12 <= r.value <= 1.0 + 1e-12

    def test_commuting_limit_all_nonpositive(self, rng):
        for _ in range(10):
            theta, phi, _, _, _ = random_point(rng)
            state = QubitState.pure(theta, phi)
            sched = Schedule(measured=(1, 2, 3), tau=0.0, x=0.0, eta=1.0)
            assert max(r.value for r in wlgi_all(state, sched)) <= 1e-12


class TestEntropy:
    def test_uniform_four(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(2 * np.log(2), abs=1e-14)

    def test_point_mass(self):
        assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_eight(self):
        assert shannon_entropy([0.125] * 8) == pytest.approx(3 * np.log(2), abs=1e-14)

    def test_distribution_input(self):
        sched = Schedule(measured=(1, 2, 3), tau=np.pi / 4, x=0.0, eta=1.0)
        assert shannon_entropy(run_schedule(PLUS, sched)) == pytest.approx(3 * np.log(2), abs=1e-12)

    def test_matches_scipy(self, rng):
        import scipy.stats

        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            assert shannon_entropy(p) == pytest.approx(scipy.stats.entropy(p), abs=1e-12)


class TestElgi:
    STATE = QubitState.pure(1.7, np.pi / 2)

    def test_tau_zero_collapses(self):
        for spec in ELGI_SPECS:
            r = elgi_all(self.STATE, spin_sched(0.0, 1.0), (spec,))[0]
            assert abs(r.value) < 1e-12

    def test_sharp_violation_exists(self):
        taus = np.linspace(0.05, np.pi - 0.05, 80)
        best = max(elgi_all(self.STATE, spin_sched(t, 1.0), (ELGI_SPECS[1],))[0].value
                   for t in taus)
        assert best > 0.05

    def test_eta_09_never_violates(self):
        taus = np.linspace(0.05, np.pi - 0.05, 60)
        best = max(elgi_all(self.STATE, spin_sched(t, 0.9), (ELGI_SPECS[1],))[0].value
                   for t in taus)
        assert best <= 0.0

    def test_chain_rule_inequalities(self, rng):
        # joint-entropy bounds hold for marginals of the same experiment
        # (stand-alone single-time statistics differ: that gap is the NSIT
        # signal, and it is what lets the ELGI combination go positive)
        for _ in range(40):
            theta, phi, tau, eta, x = random_point(rng)
            state = QubitState.pure(theta, phi)
            sched = Schedule(measured=(1, 2), tau=tau, x=x, eta=eta)
            for a, b in ((1, 2), (1, 3), (2, 3)):
                dist = run_schedule(state, sched.with_measured((a, b)))
                h_ab = shannon_entropy(dist)
                h_a = shannon_entropy(dist.marginalize((a,)))
                h_b = shannon_entropy(dist.marginalize((b,)))
                assert h_ab >= max(h_a, h_b) - 1e-12
                assert h_ab <= h_a + h_b + 1e-12
                # AoT: the first-slot marginal equals stand-alone statistics
                h_a_alone = shannon_entropy(run_schedule(state, sched.with_measured((a,))))
                assert h_a == pytest.approx(h_a_alone, abs=1e-10)

    def test_all_three_variants_evaluated(self):
        results = elgi_all(self.STATE, spin_sched(0.9, 1.0))
        assert [r.spec.middle for r in results] == [1, 2, 3]


class TestInequalityResult:
    def test_violation_flag_tolerance(self):
        r = slgi_all(PLUS, spin_sched(np.pi / 6, 1.0), (SLGI_SPECS[0],))[0]
        assert r.violated == (r.value > r.bound + 1e-12)
