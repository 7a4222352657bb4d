"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Two criteria were first stated with numbers that the model itself rules
out; their tests keep their names and now check each claim against an
independently established value:

* criterion 5 was stated at (theta, phi, tau) = (pi/3, pi/3, 5pi/6).  There
  the best of the 24 WLGIs is off eta^2/8 by 1.3e-2 and is negative at small
  eta (-0.66 eta^2 at eta = 0.05), against the any-eta violation the
  criterion demonstrates.  Criterion 3 uses phi = pi/2 for the same biased
  point, and the phi = pi/3 value follows from it by rotational covariance
  only if the Hamiltonian axis turns with the state, by -pi/6 about z.  The
  test asserts the reduction at phi = pi/2 on x_hat and at phi = pi/3 on
  axis_from_angles(0, 2pi/3).
* criterion 10's triple-wise threshold was stated as 0.54 +/- 0.01.  For
  unit directions the four squared norms |d1 +/- d2 +/- d3|^2 sum to 12, so
  no triple of unbiased qubit effects has a threshold below 1/sqrt(3) ~ 0.577.
  The test computes the exact threshold with the Fermat-Torricelli criterion
  of Yu & Oh (2013), independently of lgscan, and asserts its minimum over tau
  (2/3 at tau = pi/6), its value 1/sqrt(2) at tau = pi/4, and that the
  four-norm sufficient criterion reported by `lg_triple_threshold` never
  exceeds it.
"""

import time
from itertools import product

import numpy as np
import pytest

from lgscan import grid as gridmod
from lgscan.inequalities import (
    SLGI_SPECS,
    WLGI_SPECS,
    slgi_all,
    wlgi_all,
)
from lgscan.jointmeas import (
    lg_combined_pair_threshold,
    lg_triple_threshold,
    unbiased_pair_threshold,
)
from lgscan.linalg import X_HAT
from lgscan.measurement import (
    QubitState,
    Schedule,
    correlator,
    run_schedule,
)
from lgscan.nsit import (
    closed_form_variants,
    disturbance_closed_forms,
    disturbance_report,
    wlgi_threshold_check,
)
from lgscan.scan import axis_from_angles, default_tau_grid, threshold_eta

SIGNS = (1, -1)


def _line(num: str, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _idx(*signs):
    i = 0
    for s in signs:
        i = 2 * i + (0 if s == 1 else 1)
    return i


def test_criterion_01_slgi_spin_threshold():
    start = time.perf_counter()
    thr = threshold_eta("slgi", maximize_tau=True)
    elapsed = time.perf_counter() - start
    ok = abs(thr - 0.8165) <= 0.002 and elapsed < 10.0
    _line("01", ok, f"slgi spin threshold eta* = {thr:.4f} (target 0.8165 +/- 0.002), "
                    f"{elapsed:.2f} s")
    assert abs(thr - 0.8165) <= 0.002
    assert elapsed < 10.0


def test_criterion_02_slgi_spin_maximum():
    state = QubitState.pure(0.3, 1.1)  # spin-family values are state-independent
    taus = default_tau_grid()
    best_per_spec = {}
    best = -np.inf
    for spec_i, spec in enumerate(SLGI_SPECS):
        vals = []
        for tau in taus:
            sched = Schedule(measured=(1, 2, 3), tau=tau, x=0.0, eta=1.0)
            c12 = correlator(state, sched.with_measured((1, 2)))
            c23 = correlator(state, sched.with_measured((2, 3)))
            c13 = correlator(state, sched.with_measured((1, 3)))
            s1, s2, s3 = spec.signs
            vals.append(s1 * s2 * c12 + s2 * s3 * c23 - s1 * s3 * c13)
        k = int(np.argmax(vals))
        best_per_spec[spec_i] = (float(vals[k]), float(taus[k]))
        best = max(best, float(vals[k]))
    ok = abs(best - 1.5) <= 1e-6
    peak0 = best_per_spec[0]
    peak2 = best_per_spec[2]
    _line("02", ok,
          f"pipeline max = {best:.9f} (target 1.5 +/- 1e-6); "
          f"plain form peaks at tau = {peak0[1]:.4f} (= pi/6 = {np.pi/6:.4f}), "
          f"fully-flipped relabeling at tau = {peak2[1]:.4f} (= pi/3 = {np.pi/3:.4f})")
    assert abs(best - 1.5) <= 1e-6
    assert peak0[1] == pytest.approx(np.pi / 6, abs=1e-9)
    assert peak2[1] == pytest.approx(np.pi / 3, abs=1e-9)


def test_criterion_03_biased_slgi_point():
    state = QubitState.pure(np.pi / 3, np.pi / 2)
    worst = 0.0
    for eta in np.linspace(0.05, 1.0, 20):
        sched = Schedule(measured=(1, 2, 3), tau=5 * np.pi / 6, x=eta - 1.0, eta=eta)
        r = [v for v in slgi_all(state, sched)][0]
        worst = max(worst, abs(r.value - (1 + eta**2 / 2)))
        assert r.violated
    ok = worst <= 1e-8
    _line("03", ok, f"pipeline vs 1 + eta^2/2 at 20 eta values: max dev {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_04_wlgi_spin_threshold_and_grid():
    thr = threshold_eta("wlgi", theta=np.pi / 3, phi=np.pi / 2, tau=np.pi / 3,
                        spec_index=18)
    assert abs(thr - 0.690) <= 0.002

    # default grid: theta, phi step pi/60; tau step pi/60 on the open interval
    theta = np.arange(61) * np.pi / 60
    phi = np.arange(120) * np.pi / 60
    tau = np.arange(1, 60) * np.pi / 60
    eta = 0.688
    worst = -np.inf
    for th in theta:  # chunk over theta to bound memory
        t_grid, p_grid = np.meshgrid(tau, phi, indexing="ij")
        bloch = gridmod.pure_bloch(np.full(t_grid.shape, th), p_grid)
        dists = gridmod.lg_distributions(bloch, t_grid, X_HAT, eta, 0.0)
        worst = max(worst, float(gridmod.wlgi_values(dists).max()))
    ok = worst <= 0.0
    _line("04", ok, f"wlgi threshold eta* = {thr:.4f} (target 0.690 +/- 0.002); "
                    f"grid max over 24 at eta = 0.688: {worst:.3e} (<= 0 required)")
    assert worst <= 0.0


def _wlgi_matches_quadratic(phi: float, axis: np.ndarray = X_HAT) -> float:
    """Smallest max-deviation from eta^2/8 over the 24 specs, 20 eta values."""
    etas = np.linspace(0.05, 1.0, 20)
    state = QubitState.pure(np.pi / 3, phi)
    per_spec = [0.0] * 24
    for eta in etas:
        sched = Schedule(measured=(1, 2, 3), tau=5 * np.pi / 6, axis=axis,
                         x=eta - 1.0, eta=eta)
        for i, r in enumerate(wlgi_all(state, sched)):
            per_spec[i] = max(per_spec[i], abs(r.value - eta**2 / 8))
    return min(per_spec)


def test_criterion_05_biased_wlgi_point_as_stated():
    # At (theta, tau) = (pi/3, 5pi/6) with x = eta - 1 some member of the
    # family equals eta^2/8 > 0 for every eta.  The point was first stated
    # with phi = pi/3, where the best member misses by 1.3e-2 and is
    # negative for small eta; phi = pi/2 is the point of criterion 3.  Turning
    # state and Hamiltonian axis together about the measured z axis leaves
    # every probability unchanged, so the stated phi = pi/3 carries the
    # identity once x_hat is turned by the same -pi/6.
    dev_half_pi = _wlgi_matches_quadratic(np.pi / 2)
    dev_turned = _wlgi_matches_quadratic(np.pi / 3, axis_from_angles(0.0, 2 * np.pi / 3))
    ok = dev_half_pi <= 1e-8 and dev_turned <= 1e-8
    _line("05", ok, f"best-matching spec deviation from eta^2/8: phi = pi/2 on x_hat "
                    f"{dev_half_pi:.2e}, phi = pi/3 on axis_from_angles(0, 2pi/3) "
                    f"{dev_turned:.2e} (both required <= 1e-8)")
    assert dev_half_pi <= 1e-8
    assert dev_turned <= 1e-8


def test_criterion_05_companion_verified_at_phi_half_pi():
    state = QubitState.pure(np.pi / 3, np.pi / 2)
    worst = 0.0
    for eta in np.linspace(0.05, 1.0, 20):
        sched = Schedule(measured=(1, 2, 3), tau=5 * np.pi / 6, x=eta - 1.0, eta=eta)
        val = wlgi_all(state, sched, WLGI_SPECS[11:12])[0].value  # positive pair (1,3), (+,-), split -
        worst = max(worst, abs(val - eta**2 / 8))
        assert val > 1e-12  # any-eta violation
    ok = worst <= 1e-8
    _line("05b", ok, f"pipeline vs eta^2/8 at phi = pi/2 (spec 11): max dev {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_06_elgi_thresholds():
    thr = threshold_eta("elgi", theta=1.7, phi=np.pi / 2, maximize_tau=True,
                        spec_index=1)
    assert abs(thr - 0.972) <= 0.005

    taus = default_tau_grid()
    bloch = gridmod.pure_bloch(1.7, np.pi / 2)
    worst_eta, worst_val = None, np.inf
    for eta in np.arange(1, 21) * 0.05:
        dists = gridmod.lg_distributions(bloch, taus, X_HAT, eta, eta - 1.0)
        best = float(gridmod.elgi_values(dists)[..., 1].max())
        if best < worst_val:
            worst_eta, worst_val = eta, best
        assert best > 0.0, f"no biased ELGI violation at eta = {eta}"
    _line("06", True, f"spin ELGI threshold eta* = {thr:.4f} (target 0.972 +/- 0.005); "
                      f"biased ELGI positive for all 20 eta values "
                      f"(weakest: {worst_val:.2e} at eta = {worst_eta:.2f})")


def test_criterion_07_disturbance_closed_forms():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        tau = rng.uniform(0, np.pi)
        state = QubitState.pure(theta, phi)
        sched = Schedule(measured=(1, 2, 3), tau=tau, x=0.0, eta=1.0)
        rep = disturbance_report(state, sched)
        closed = disturbance_closed_forms(theta, phi, tau)
        for fam, entries in rep.families().items():
            ref = closed.families()[fam]
            for key, val in entries.items():
                worst = max(worst, abs(val - ref[key]))
    assert worst <= 1e-10

    # justification of the two flagged variant transcriptions: show the
    # pipeline recomputation agrees with the corrected forms and not with
    # the variants (one factor differs in each)
    theta, phi, tau = 1.1, 2.0, 0.8
    rep = disturbance_report(QubitState.pure(theta, phi),
                             Schedule(measured=(1,), tau=tau, x=0.0, eta=1.0))
    var = closed_form_variants(theta, phi, tau)
    corr = disturbance_closed_forms(theta, phi, tau)
    d1m2_dev_var = abs(rep.d1_m2[1] - var["d1_m2"][1])
    d2m3_dev_var = abs(rep.d2_m3[1] - var["d2_m3"][1])
    assert abs(rep.d1_m2[1] - corr.d1_m2[1]) <= 1e-12
    assert abs(rep.d2_m3[1] - corr.d2_m3[1]) <= 1e-12
    assert d1m2_dev_var > 1e-3 and d2m3_dev_var > 1e-3
    _line("07", True,
          f"closed forms vs pipeline over 1000 random points: max dev {worst:.2e}; "
          f"flagged variants recomputed at (1.1, 2.0, 0.8): D1(M2+) pipeline "
          f"{rep.d1_m2[1]:+.6f} vs variant {var['d1_m2'][1]:+.6f}, D2(M3+) pipeline "
          f"{rep.d2_m3[1]:+.6f} vs variant {var['d2_m3'][1]:+.6f}")


def test_criterion_08_tau_quarter_pi_degeneracy():
    worst_tri = worst_wlgi = worst_rhs = 0.0
    for state in (QubitState.pure(np.pi / 4, 0.0), QubitState.maximally_mixed()):
        sched = Schedule(measured=(1, 2, 3), tau=np.pi / 4, x=0.0, eta=1.0)
        triple = run_schedule(state, sched)
        worst_tri = max(worst_tri, max(abs(p - 0.125) for p in triple.table.values()))
        worst_wlgi = max(worst_wlgi, max(r.value for r in wlgi_all(state, sched)))
        for spec in WLGI_SPECS:
            check = wlgi_threshold_check(state, sched, spec)
            worst_rhs = max(worst_rhs, abs(check.rhs - 0.25))
            assert not check.predicted_violation
    ok = worst_tri <= 1e-12 and worst_wlgi <= 1e-12 and worst_rhs <= 1e-12
    _line("08", ok, f"triple probs dev {worst_tri:.1e}, max WLGI {worst_wlgi:.1e}, "
                    f"threshold RHS dev {worst_rhs:.1e} (all <= 1e-12)")
    assert worst_tri <= 1e-12
    assert worst_wlgi <= 1e-12
    assert worst_rhs <= 1e-12


def test_criterion_09_general_hamiltonian():
    axis = axis_from_angles(np.pi / 4, np.pi / 4)
    # |0>: no WLGI violation on a width-0.2 interval containing pi/3
    taus = np.linspace(np.pi / 3 - 0.1, np.pi / 3 + 0.1, 81)
    dists = gridmod.lg_distributions(gridmod.pure_bloch(0.0, 0.0), taus, axis, 1.0, 0.0)
    window_max = float(gridmod.wlgi_values(dists).max())
    assert window_max <= 0.0

    # |+> at tau = pi/4: at least one WLGI violated
    state = QubitState.pure(np.pi / 4, 0.0)
    sched = Schedule(measured=(1, 2, 3), tau=np.pi / 4, axis=axis, x=0.0, eta=1.0)
    best = max(r.value for r in wlgi_all(state, sched))
    assert best > 0.0
    _line("09", True, f"|0>: window max {window_max:.3e} <= 0 on width-0.2 interval "
                      f"around pi/3; |+> at pi/4: max WLGI {best:.4f} > 0")


def test_criterion_10_joint_measurability_main():
    taus = default_tau_grid()
    combined = np.array([lg_combined_pair_threshold(t) for t in taus])
    pair_min = float(combined.min())
    assert abs(pair_min - 0.7071) <= 1e-3

    # each pair's unbiased threshold curve has its own minimizing tau
    # (pi/4 for the adjacent pairs, pi/8 for the far pair); the biased
    # threshold evaluated at that per-pair minimizer is the same number,
    # 2/(2 + sqrt 2), for every pair
    from lgscan.jointmeas import biased_pair_threshold, unbiased_pair_threshold

    biased_bounds = []
    minimizing = []
    for mult in (2, 4):
        curve = np.array([unbiased_pair_threshold(mult * t) for t in taus])
        # symmetry yields several equivalent minimizers; take the earliest
        tau_star = float(taus[np.isclose(curve, curve.min(), atol=1e-12)].min())
        minimizing.append(tau_star)
        biased_bounds.append(biased_pair_threshold(mult * tau_star))
    assert minimizing[0] == pytest.approx(np.pi / 4, abs=1e-9)
    assert minimizing[1] == pytest.approx(np.pi / 8, abs=1e-9)
    for biased_bound in biased_bounds:
        assert abs(biased_bound - 0.589) <= 0.005
    tau_star, biased_bound = minimizing[0], biased_bounds[0]

    # existence of a biased point that is pairwise compatible yet violates
    # all three inequality families (search a coarse grid around the
    # any-eta-violation region; eta <= 1/2 guarantees pairwise compatibility)
    found = None
    bloch = gridmod.pure_bloch(np.linspace(0.9, 1.3, 9)[:, None], np.pi / 2)
    taus_b = np.linspace(2.4, 2.8, 9)[None, :]
    for eta in (0.3, 0.4, 0.45):
        x = eta - 1.0
        dists = gridmod.lg_distributions(bloch, taus_b, X_HAT, eta, x)
        slgi = gridmod.slgi_values(dists).max(axis=-1)
        wlgi = gridmod.wlgi_values(dists).max(axis=-1)
        elgi = gridmod.elgi_values(dists).max(axis=-1)
        hit = (slgi > 1 + 1e-9) & (wlgi > 1e-9) & (elgi > 1e-9)
        if hit.any():
            i, j = np.argwhere(hit)[0]
            found = (float(np.linspace(0.9, 1.3, 9)[i]), float(taus_b[0, j]), eta,
                     float(slgi[i, j]), float(wlgi[i, j]), float(elgi[i, j]))
            break
    assert found is not None, "no pairwise-compatible point violating all families"
    theta_f, tau_f, eta_f, s_v, w_v, e_v = found
    # confirm compatibility with the scalar verdict machinery
    from lgscan.jointmeas import jm_verdict

    verdict = jm_verdict(Schedule(measured=(1, 2, 3), tau=tau_f, x=eta_f - 1.0, eta=eta_f))
    assert verdict.all_pairs_jm()
    _line("10", True,
          f"pairwise spin bound min {pair_min:.4f} at tau* = {tau_star:.4f}; biased "
          f"bound there {biased_bound:.4f} (target 0.589 +/- 0.005); JM point with "
          f"all families violated: theta={theta_f:.2f} tau={tau_f:.2f} eta={eta_f} "
          f"(slgi {s_v:.3f}, wlgi {w_v:.3f}, elgi {e_v:.5f})")


def _exact_lg_triple_threshold(taus) -> np.ndarray:
    """Exact triple-wise eta threshold of the unbiased LG effects, per tau.

    Three unbiased qubit effects with Bloch vectors eta*d_k are jointly
    measurable iff eta * min_p sum_k |g_k - p| <= 4, with g_0 = d1 + d2 + d3
    and g_k = 2 d_k - g_0 (Yu & Oh 2013).  The minimum is a Fermat-Torricelli
    problem.  Weiszfeld's iteration from the centroid converges to an interior
    minimizer but only slowly to one at a data point, which is where the
    minimizer lies for these triples (at tau = pi/4, for one); so each g_k
    is also evaluated directly.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    ang = 2.0 * taus[:, None] * np.arange(3)
    d = np.stack([np.zeros_like(ang), np.sin(ang), np.cos(ang)], axis=-1)
    g0 = d.sum(axis=1, keepdims=True)
    g = np.concatenate([g0, 2.0 * d - g0], axis=1)

    def total(p):
        return np.linalg.norm(g - p[:, None, :], axis=-1).sum(axis=-1)

    best = np.min([total(g[:, k]) for k in range(4)], axis=0)
    p = g.mean(axis=1)
    for _ in range(1000):
        w = 1.0 / np.maximum(np.linalg.norm(g - p[:, None, :], axis=-1), 1e-300)
        p = np.einsum("nk,nkc->nc", w, g) / w.sum(axis=1, keepdims=True)
    return 4.0 / np.minimum(best, total(p))


def test_criterion_10_triple_threshold_as_stated():
    # The minimized triple-wise threshold was first stated as 0.54 +/- 0.01,
    # below the floor 1/sqrt(3) ~ 0.5774 that holds for any three unbiased
    # qubit effects.  Checked here instead against the exact threshold.
    taus = default_tau_grid()
    exact = _exact_lg_triple_threshold(taus)
    thr = float(exact.min())
    # symmetry yields several equivalent minimizers; take the earliest
    tau_star = float(taus[np.isclose(exact, thr, atol=1e-9)].min())
    # at tau = pi/4, d3 = -d1 and the triple reduces to the pair (d1, d2)
    at_quarter = float(_exact_lg_triple_threshold(np.pi / 4)[0])
    four_norm = np.array([lg_triple_threshold(t) for t in taus])
    floor_gap = float((four_norm - 1 / np.sqrt(3)).min())
    excess = float((four_norm - exact).max())
    ok = (abs(thr - 2 / 3) <= 1e-6 and abs(tau_star - np.pi / 6) <= 1e-9
          and abs(at_quarter - 1 / np.sqrt(2)) <= 1e-9
          and floor_gap >= 0.0 and excess <= 1e-9)
    _line("10b", ok, f"exact triple threshold min over tau = {thr:.6f} at tau = "
                     f"{tau_star:.4f} (target 2/3 at pi/6), {at_quarter:.6f} at pi/4 "
                     f"(target 1/sqrt 2); four-norm criterion within "
                     f"[1/sqrt 3, exact] on the grid (max excess {excess:.1e})")
    assert abs(thr - 2 / 3) <= 1e-6
    assert tau_star == pytest.approx(np.pi / 6, abs=1e-9)
    assert at_quarter == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert at_quarter == pytest.approx(unbiased_pair_threshold(np.pi / 2), abs=1e-9)
    assert floor_gap >= 0.0
    assert excess <= 1e-9


def test_criterion_10_companion_triple_threshold_derived():
    # (sqrt 5 - 1)/2 is the threshold of the four-norm sufficient criterion,
    # a lower bound on the exact one (2/3 at its minimum, criterion 10b)
    taus = default_tau_grid()
    vals = np.array([lg_triple_threshold(t) for t in taus])
    thr = float(vals.min())
    tau_star = float(taus[int(np.argmin(vals))])
    ok = abs(thr - (np.sqrt(5) - 1) / 2) <= 2e-3
    _line("10c", ok, f"four-norm criterion threshold {thr:.6f} at tau = {tau_star:.4f} "
                     f"(golden-ratio value {(np.sqrt(5)-1)/2:.6f}, tau* = pi/4)")
    assert ok
    assert tau_star == pytest.approx(np.pi / 4, abs=5e-3)


def test_criterion_11_property_suites():
    rng = np.random.default_rng(11)
    n = 10_000
    theta = rng.uniform(0, np.pi, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    tau = rng.uniform(0, np.pi, n)
    eta = rng.uniform(0, 1, n)
    x = rng.uniform(-1, 1, n) * (1 - eta)
    bloch = gridmod.pure_bloch(theta, phi)
    dists = gridmod.lg_distributions(bloch, tau, X_HAT, eta, x)

    # normalization across all seven experiments
    norm_dev = max(
        float(np.max(np.abs(d.sum(axis=-1) - 1.0))) for d in dists.values()
    )
    assert norm_dev < 1e-10

    # arrow of time
    aot = float(np.max(gridmod.aot_residual(dists)))
    assert aot < 1e-10

    # Heisenberg/Schroedinger equivalence on the (1,2) pair
    m1 = np.broadcast_to(gridmod.Z_HAT, (n, 3)).astype(float)
    m2 = gridmod.rotate_bloch(m1, X_HAT, -2.0 * tau)
    hs_dev = 0.0
    # the first step's probabilities and post-states of both outcomes, on
    # the (3, states, n) planes of the kernel, one state per point
    planes = np.moveaxis(bloch, -1, 0)[:, None]
    terms = gridmod.luders_terms(eta, x)
    probs = gridmod.luders_probabilities(planes[2], terms)
    posts = gridmod.luders_posts(planes, terms, probs)
    for k, l in product(SIGNS, SIGNS):
        prob = probs[0, _idx(k)]
        p1 = np.clip(prob, 0.0, 1.0)
        post = np.moveaxis(posts[:, _idx(k)], 0, -1)
        c2 = 0.5 * (1.0 + l * x)
        d2 = 0.5 * l * eta
        heis = p1 * (c2 + d2 * np.sum(m2 * post, axis=-1))
        seq = dists[(1, 2)][..., _idx(k, l)]
        hs_dev = max(hs_dev, float(np.max(np.abs(heis - seq))))
    assert hs_dev < 1e-12

    # sharp-limit reduction: projective closed form for pair probabilities
    sharp = gridmod.lg_distributions(bloch, tau, X_HAT, 1.0, 0.0)
    proj_dev = 0.0
    cos2t = np.cos(2 * tau)
    pz = bloch[..., 2]
    for k, l in product(SIGNS, SIGNS):
        textbook = 0.5 * (1 + k * pz) * 0.5 * (1 + k * l * cos2t)
        proj_dev = max(proj_dev, float(np.max(np.abs(sharp[(1, 2)][..., _idx(k, l)] - textbook))))
    assert proj_dev < 1e-12

    # entropy chain inequalities on marginals of each pair experiment
    ent_dev = -np.inf
    for pair in ((1, 2), (1, 3), (2, 3)):
        joint = dists[pair]
        h_joint = gridmod.entropy(joint)
        marg_first = joint.reshape(n, 2, 2).sum(axis=2)
        marg_second = joint.reshape(n, 2, 2).sum(axis=1)
        h1, h2 = gridmod.entropy(marg_first), gridmod.entropy(marg_second)
        ent_dev = max(ent_dev,
                      float(np.max(h1 - h_joint)),
                      float(np.max(h2 - h_joint)),
                      float(np.max(h_joint - h1 - h2)))
    assert ent_dev < 1e-10

    # WLGI threshold-check decomposition and boolean equivalence, all specs
    dist_arrays = gridmod.disturbances(dists)
    tri = dists[(1, 2, 3)]
    wl = gridmod.wlgi_values(dists)
    dec_dev = 0.0
    for col, spec in enumerate(WLGI_SPECS):
        u, v, s = spec.u, spec.v, spec.s
        r = spec.marginalized
        if r == 1:
            lhs = dist_arrays["d1_pair"][..., _idx(u, v)] - dist_arrays["d2_pair"][..., _idx(-s, v)]
            rhs = tri[..., _idx(s, u, -v)] + tri[..., _idx(-s, -u, v)]
        elif r == 2:
            lhs = dist_arrays["d2_pair"][..., _idx(u, v)] - dist_arrays["d1_pair"][..., _idx(-s, v)]
            rhs = tri[..., _idx(u, s, -v)] + tri[..., _idx(-u, -s, v)]
        else:
            lhs = -dist_arrays["d2_pair"][..., _idx(u, s)] - dist_arrays["d1_pair"][..., _idx(v, -s)]
            rhs = tri[..., _idx(u, -v, s)] + tri[..., _idx(-u, v, -s)]
        value = wl[..., col]
        dec_dev = max(dec_dev, float(np.max(np.abs(value - (lhs - rhs)))))
        decided = np.abs(value - 1e-12) > 1e-9
        assert np.array_equal((value > 1e-12)[decided], (lhs - rhs > 1e-12)[decided])
    assert dec_dev < 1e-12

    # anchor the vectorized engine to the scalar operator pipeline
    anchor_dev = 0.0
    for i in rng.integers(0, n, 150):
        state = QubitState.pure(theta[i], phi[i])
        sched = Schedule(measured=(1, 2, 3), tau=tau[i], x=x[i], eta=eta[i])
        slow = run_schedule(state, sched).probabilities()
        anchor_dev = max(anchor_dev, float(np.max(np.abs(slow - tri[i]))))
    assert anchor_dev < 1e-12

    _line("11", True,
          f"10^4-case suites: normalization {norm_dev:.1e}, AoT {aot:.1e}, "
          f"H/S {hs_dev:.1e}, sharp-limit {proj_dev:.1e}, entropy {ent_dev:.1e}, "
          f"threshold-decomposition {dec_dev:.1e}, pipeline anchor {anchor_dev:.1e}")
