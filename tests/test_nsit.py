import numpy as np
import pytest

from lgscan import inequalities, nsit
from lgscan.grid import SUBSETS
from lgscan.inequalities import WLGI_SPECS, wlgi_all
from lgscan.measurement import QubitState, Schedule, run_schedule
from lgscan.nsit import (
    closed_form_variants,
    disturbance_closed_forms,
    disturbance_report,
    nsit_satisfied,
    wlgi_threshold_check,
)

from conftest import random_point

SIGNS = (1, -1)


def sharp_sched(tau):
    return Schedule(measured=(1, 2, 3), tau=tau, x=0.0, eta=1.0)


class TestDisturbanceReport:
    def test_maximally_mixed_t1_causes_no_disturbance(self):
        # the t1 measurement leaves I/2 statistics untouched (D1 families
        # vanish); the t2 measurement still disturbs the (1,3) pair
        tau = np.pi / 5
        rep = disturbance_report(QubitState.maximally_mixed(), sharp_sched(tau))
        assert rep.max_abs("d1_pair") < 1e-14
        assert rep.max_abs("d1_m2") < 1e-14
        assert rep.max_abs("d1_m3") < 1e-14
        for (i, k), val in rep.d2_pair.items():
            assert val == pytest.approx(-i * k * np.sin(2 * tau) ** 2 / 4, abs=1e-13)

    def test_plus_state_pi4(self):
        rep = disturbance_report(QubitState.pure(np.pi / 4, 0.0), sharp_sched(np.pi / 4))
        assert rep.max_abs("d1_pair") < 1e-14
        for (i, k), val in rep.d2_pair.items():
            assert val == pytest.approx(-i * k * 0.25, abs=1e-13)

    def test_zero_state_pi4_d2(self):
        rep = disturbance_report(QubitState.pure(0.0, 0.0), sharp_sched(np.pi / 4))
        assert rep.d2_pair[(1, 1)] == pytest.approx(-0.5, abs=1e-13)

    def test_families_sum_to_zero(self, rng):
        for _ in range(20):
            theta, phi, tau, eta, x = random_point(rng)
            state = QubitState.pure(theta, phi)
            sched = Schedule(measured=(1, 2, 3), tau=tau, x=x, eta=eta)
            rep = disturbance_report(state, sched)
            assert abs(sum(rep.d1_pair.values())) < 1e-10
            assert abs(sum(rep.d2_pair.values())) < 1e-10
            for fam in ("d1_m2", "d1_m3", "d2_m3"):
                entries = rep.families()[fam]
                assert abs(sum(entries.values())) < 1e-12

    def test_single_outcome_sign_pairing(self, rng):
        for _ in range(20):
            theta, phi, tau, eta, x = random_point(rng)
            state = QubitState.pure(theta, phi)
            rep = disturbance_report(state, Schedule(measured=(1,), tau=tau, x=x, eta=eta))
            for fam in ("d1_m2", "d1_m3", "d2_m3"):
                entries = rep.families()[fam]
                assert entries[1] == pytest.approx(-entries[-1], abs=1e-12)

    def test_aot_residual_small_random(self, rng):
        for _ in range(30):
            theta, phi, tau, eta, x = random_point(rng)
            state = QubitState.pure(theta, phi)
            rep = disturbance_report(state, Schedule(measured=(1,), tau=tau, x=x, eta=eta))
            assert rep.aot_residual < 1e-10


class TestClosedForms:
    def test_agreement_with_pipeline(self, rng):
        worst = 0.0
        for _ in range(150):
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            tau = rng.uniform(0, np.pi)
            rep = disturbance_report(QubitState.pure(theta, phi), sharp_sched(tau))
            closed = disturbance_closed_forms(theta, phi, tau)
            for fam, entries in rep.families().items():
                ref = closed.families()[fam]
                for key, val in entries.items():
                    worst = max(worst, abs(val - ref[key]))
        assert worst < 1e-10

    def test_plus_state_only_d2_pair_survives(self, rng):
        for tau in rng.uniform(0.1, np.pi - 0.1, 10):
            closed = disturbance_closed_forms(np.pi / 4, 0.0, tau)
            assert closed.max_abs("d1_pair") < 1e-14
            assert closed.max_abs("d1_m2") < 1e-14
            assert closed.max_abs("d1_m3") < 1e-14
            assert closed.max_abs("d2_m3") < 1e-14
            assert closed.d2_pair[(1, 1)] == pytest.approx(-np.sin(2 * tau) ** 2 / 4, abs=1e-14)

    def test_half_pi_zeros(self, rng):
        for _ in range(5):
            theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            closed = disturbance_closed_forms(theta, phi, np.pi / 2)
            for fam in closed.families():
                assert closed.max_abs(fam) < 1e-12

    def test_printed_sign_relations(self, rng):
        for _ in range(10):
            theta, phi, tau = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
            c = disturbance_closed_forms(theta, phi, tau)
            assert c.d2_pair[(1, 1)] == pytest.approx(-c.d2_pair[(1, -1)], abs=1e-15)
            assert c.d2_pair[(-1, 1)] == pytest.approx(-c.d2_pair[(-1, -1)], abs=1e-15)
            assert c.d1_pair[(1, 1)] == pytest.approx(-c.d1_pair[(-1, -1)], abs=1e-15)
            assert c.d1_pair[(-1, 1)] == pytest.approx(-c.d1_pair[(1, -1)], abs=1e-15)

    def test_generic_point_families_nonzero_except_d2_m3(self):
        # at (pi/3, pi/2, pi/3) the two D2(M3) contributions cancel exactly;
        # the other six families are nonzero there
        closed = disturbance_closed_forms(np.pi / 3, np.pi / 2, np.pi / 3)
        assert closed.max_abs("d2_m3") < 1e-15
        for fam in ("d1_pair", "d2_pair", "d1_m2", "d1_m3"):
            assert closed.max_abs(fam) > 1e-3
        # a nearby generic tau keeps all five families nonzero
        closed = disturbance_closed_forms(np.pi / 3, np.pi / 2, np.pi / 5)
        for fam in closed.families():
            assert closed.max_abs(fam) > 1e-3

    def test_variant_forms_disagree_with_pipeline(self, rng):
        # the two variant single-outcome transcriptions are demonstrably not
        # what the sequential pipeline produces
        worst_d1m2 = worst_d2m3 = 0.0
        for _ in range(50):
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            tau = rng.uniform(0, np.pi)
            rep = disturbance_report(QubitState.pure(theta, phi), sharp_sched(tau))
            var = closed_form_variants(theta, phi, tau)
            worst_d1m2 = max(worst_d1m2, abs(rep.d1_m2[1] - var["d1_m2"][1]))
            worst_d2m3 = max(worst_d2m3, abs(rep.d2_m3[1] - var["d2_m3"][1]))
        assert worst_d1m2 > 1e-2
        assert worst_d2m3 > 1e-2


class TestNsitSatisfied:
    def test_generic_point_all_violated(self):
        rep = disturbance_report(QubitState.pure(np.pi / 3, np.pi / 2), sharp_sched(np.pi / 5))
        flags = nsit_satisfied(rep)
        assert not any(flags.values())
        assert set(flags) == {"nsit_12", "nsit_13", "nsit_23", "nsit_123", "nsit_1_2_3"}

    def test_trivial_effects_satisfy_all(self):
        sched = Schedule(measured=(1,), tau=0.7, x=0.0, eta=0.0)
        rep = disturbance_report(QubitState.pure(1.0, 2.0), sched)
        assert all(nsit_satisfied(rep).values())

    def test_plus_state_pi4_only_middle_family_violated(self):
        rep = disturbance_report(QubitState.pure(np.pi / 4, 0.0), sharp_sched(np.pi / 4))
        flags = nsit_satisfied(rep)
        assert flags == {
            "nsit_12": True,
            "nsit_13": True,
            "nsit_23": True,
            "nsit_123": True,
            "nsit_1_2_3": False,
        }

    def test_tolerance_parameter(self):
        rep = disturbance_report(QubitState.pure(np.pi / 4, 0.0), sharp_sched(np.pi / 4))
        assert nsit_satisfied(rep, tol=0.5)["nsit_1_2_3"]


class TestNecessityDirection:
    def test_lgi_violation_implies_three_time_nsit_violation(self):
        # wherever an SLGI or WLGI is violated on a coarse scan grid, at
        # least one three-time disturbance family must be nonzero (a joint
        # distribution would otherwise reproduce all pair statistics)
        from lgscan import grid as gridmod
        from lgscan.linalg import X_HAT

        theta = np.linspace(0, np.pi, 13)
        phi = np.linspace(0, 2 * np.pi, 13)
        tau = np.linspace(0.1, np.pi - 0.1, 15)
        th, ph, ta = (a.ravel() for a in np.meshgrid(theta, phi, tau, indexing="ij"))
        for eta, x in ((1.0, 0.0), (0.9, -0.1)):
            dists = gridmod.lg_distributions(gridmod.pure_bloch(th, ph), ta, X_HAT, eta, x)
            slgi_max = gridmod.slgi_values(dists).max(axis=-1)
            wlgi_max = gridmod.wlgi_values(dists).max(axis=-1)
            d = gridmod.disturbances(dists)
            three_time = np.maximum(
                np.abs(d["d1_pair"]).max(axis=-1), np.abs(d["d2_pair"]).max(axis=-1)
            )
            violated = (slgi_max > 1 + 1e-6) | (wlgi_max > 1e-6)
            assert violated.any()
            assert np.all(three_time[violated] > 1e-10)


class TestWlgiThresholdCheck:
    def test_plus_state_pi4_rhs_quarter(self):
        state = QubitState.pure(np.pi / 4, 0.0)
        sched = sharp_sched(np.pi / 4)
        for spec in WLGI_SPECS:
            check = wlgi_threshold_check(state, sched, spec)
            assert check.rhs == pytest.approx(0.25, abs=1e-13)
            assert check.lhs <= check.rhs + 1e-13
            assert not check.predicted_violation

    def test_mixed_state_pi4_no_violation(self):
        state = QubitState.maximally_mixed()
        sched = sharp_sched(np.pi / 4)
        for spec in WLGI_SPECS:
            check = wlgi_threshold_check(state, sched, spec)
            assert check.rhs == pytest.approx(0.25, abs=1e-13)
            assert not check.predicted_violation

    def test_known_violation_point(self):
        state = QubitState.pure(np.pi / 3, np.pi / 2)
        spec = WLGI_SPECS[18]
        check = wlgi_threshold_check(state, sharp_sched(np.pi / 3), spec)
        assert check.predicted_violation

    def test_equivalence_with_wlgi_value(self, rng):
        worst = 0.0
        for _ in range(25):
            theta, phi, tau, eta, x = random_point(rng)
            state = QubitState.pure(theta, phi)
            sched = Schedule(measured=(1, 2, 3), tau=tau, x=x, eta=eta)
            values = [r.value for r in wlgi_all(state, sched)]
            for i in rng.integers(0, 24, 6):
                check = wlgi_threshold_check(state, sched, WLGI_SPECS[i])
                value = values[i]
                worst = max(worst, abs(value - (check.lhs - check.rhs)))
                assert check.predicted_violation == (value > 1e-12)
        assert worst < 1e-12

    def test_decomposition_all_specs_one_point(self):
        state = QubitState.pure(1.1, 0.7)
        sched = Schedule(measured=(1, 2, 3), tau=0.9, x=-0.2, eta=0.5)
        for spec, r in zip(WLGI_SPECS, wlgi_all(state, sched)):
            check = wlgi_threshold_check(state, sched, spec)
            value = r.value
            assert value == pytest.approx(check.lhs - check.rhs, abs=1e-13)

    def test_seven_experiment_runs(self, monkeypatch):
        calls = []

        def counting(state, schedule):
            calls.append(schedule.measured)
            return run_schedule(state, schedule)

        for module in (inequalities, nsit):
            monkeypatch.setattr(module, "run_schedule", counting)
        wlgi_threshold_check(QubitState.pure(0.4, 1.2), sharp_sched(0.7), WLGI_SPECS[5])
        assert sorted(calls) == sorted(SUBSETS)

    def test_equals_three_case_form(self, rng):
        # the three hand-ordered cases the one formula replaced, one per
        # marginalized time r
        for _ in range(10):
            theta, phi, tau, eta, x = random_point(rng)
            state = QubitState.pure(theta, phi)
            sched = Schedule(measured=(1, 2, 3), tau=tau, x=x, eta=eta)
            rep = disturbance_report(state, sched)
            triple = run_schedule(state, sched)
            for spec in (WLGI_SPECS[int(i)] for i in rng.integers(0, 24, 8)):
                u, v, s = spec.u, spec.v, spec.s
                if spec.marginalized == 1:
                    lhs = rep.d1_pair[(u, v)] - rep.d2_pair[(-s, v)]
                    rhs = triple.prob((s, u, -v)) + triple.prob((-s, -u, v))
                elif spec.marginalized == 2:
                    lhs = rep.d2_pair[(u, v)] - rep.d1_pair[(-s, v)]
                    rhs = triple.prob((u, s, -v)) + triple.prob((-u, -s, v))
                else:
                    lhs = -rep.d2_pair[(u, s)] - rep.d1_pair[(v, -s)]
                    rhs = triple.prob((u, -v, s)) + triple.prob((-u, v, -s))
                check = wlgi_threshold_check(state, sched, spec)
                assert (check.lhs.hex(), check.rhs.hex()) == (float(lhs).hex(), float(rhs).hex())
                assert check.predicted_violation == (lhs > rhs + 1e-12)
