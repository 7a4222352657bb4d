"""Output checks: every workload's results are compared with the other
pipeline of the package.

* Report rows written by the vectorized engine (`scan-csv`, `figures-json`)
  are recomputed on the scalar Lueders pipeline: `slgi_all`, `wlgi_all`,
  `elgi_all`, `disturbance_report` and `jm_verdict`.
* `eval` output, which comes from the scalar pipeline, is recomputed on the
  vectorized engine (`lgscan.grid`) for all points at once.
* Each eta threshold is confirmed by the sign of g(eta) = max_tau value -
  bound at threshold -/+ tolerance, with the maximum over tau taken on a
  denser grid than the program's and refined around its argmax.

Values must agree to `VALUE_TOL`, or to `RANK_ONE_TOL` for rank-one effects
(|x| + eta = 1, e.g. the bias family x = eta - 1).  There the Lueders square
root is taken of an eigenvalue that is 0 in exact arithmetic but a rounding
residue of ~1e-17 in floats, and its square root (~5e-9) reaches the
post-measurement state: the pipelines differ by up to ~4e-9 on that family
and by ~2e-15 elsewhere (600 seeded points, three bias modes).  A boolean
flag counts as a mismatch only when the recomputed quantity lies further
than `FLAG_BAND` from the flag's decision threshold.
"""

from __future__ import annotations

import importlib
import math
import re

import numpy as np

VALUE_TOL = 1e-9
RANK_ONE_TOL = 1e-7
FLAG_BAND = 1e-12
NSIT_TOL = 1e-10        # the program's default NSIT tolerance
JM_TOL = 1e-12          # the program's margin tolerance
VIOLATION_TOL = 1e-12   # value > bound + VIOLATION_TOL means violated
BOUNDS = {"slgi": 1.0, "wlgi": 0.0, "elgi": 0.0}
NSIT_FAMILY = {          # NSIT flag -> disturbance family (see lgscan.nsit)
    "nsit_12": "d1_m2", "nsit_13": "d1_m3", "nsit_23": "d2_m3",
    "nsit_123": "d1_pair", "nsit_1_2_3": "d2_pair",
}
JM_PAIRS = {"jm_12": (1, 2), "jm_23": (2, 3), "jm_13": (1, 3)}


def _mod(name: str):
    return importlib.import_module(f"lgscan.{name}")


def axis_vector(alpha: float, beta: float) -> np.ndarray:
    """Hamiltonian axis (cos a sin b, cos a cos b, sin a)."""
    return np.array([math.cos(alpha) * math.sin(beta),
                     math.cos(alpha) * math.cos(beta), math.sin(alpha)])


def scalar_point(theta, phi, tau, eta, x, axis) -> dict:
    """Every reported quantity at one point, from the scalar pipeline."""
    meas = _mod("measurement")
    ineq = _mod("inequalities")
    nsit = _mod("nsit")
    jm = _mod("jointmeas")
    state = meas.QubitState.pure(theta, phi)
    sched = meas.Schedule(measured=(1, 2, 3), tau=tau, axis=axis, x=x, eta=eta)
    values = {
        "slgi": [r.value for r in ineq.slgi_all(state, sched)],
        "wlgi": [r.value for r in ineq.wlgi_all(state, sched)],
        "elgi": [r.value for r in ineq.elgi_all(state, sched)],
    }
    rep = nsit.disturbance_report(state, sched)
    # distance from each flag's decision threshold (>= 0 means flag true)
    margins = {flag: NSIT_TOL - rep.max_abs(fam) for flag, fam in NSIT_FAMILY.items()}
    margins["nsit_1_2_3"] = min(margins["nsit_1_2_3"], NSIT_TOL - rep.aot_residual)
    verdict = jm.jm_verdict(sched)
    for flag, pair in JM_PAIRS.items():
        margins[flag] = verdict.pairwise[pair].margin + JM_TOL
    triple = None if verdict.triple is None else verdict.triple.margin + JM_TOL
    return {"values": values, "margins": margins, "triple": triple}


def value_tol(eta: float, x: float) -> float:
    return RANK_ONE_TOL if abs(x) + eta >= 1.0 - 1e-12 else VALUE_TOL


def _flag_ok(reported, margin: float) -> bool:
    return reported == (margin >= 0.0) or abs(margin) <= FLAG_BAND


def check_row(row: dict, oracle: dict, spec_is_argmax: bool) -> list[str]:
    """Mismatches between one report row (typed values) and the oracle.

    `spec_is_argmax`: scan rows carry the family maximum and its argmax;
    figure rows carry the value of one fixed spec.
    """
    fam = row["family"]
    vals = oracle["values"][fam]
    k = row["spec_index"]
    best = max(vals)
    expected = best if spec_is_argmax else vals[k]
    tol = value_tol(row["eta"], row["x"])
    bad = []
    if abs(row["value"] - expected) > tol:
        bad.append(f"{fam} value {row['value']!r} != {expected!r}")
    if spec_is_argmax and vals[k] < best - tol:
        bad.append(f"{fam} spec {k} is not an argmax")
    if row["bound"] != BOUNDS[fam]:
        bad.append(f"{fam} bound {row['bound']!r}")
    if not _flag_ok(row["violated"], expected - BOUNDS[fam] - VIOLATION_TOL):
        bad.append(f"{fam} violated={row['violated']}")
    for flag, margin in oracle["margins"].items():
        if not _flag_ok(row[flag], margin):
            bad.append(f"{flag}={row[flag]} (margin {margin:.3g})")
    triple = oracle["triple"]
    if triple is None:
        if row["jm_triple"] is not None:
            bad.append("jm_triple reported for biased effects")
    elif row["jm_triple"] is None or not _flag_ok(row["jm_triple"], triple):
        bad.append(f"jm_triple={row['jm_triple']} (margin {triple:.3g})")
    return bad


# --- eval output ---------------------------------------------------------------

_MAX_LINE = re.compile(
    r"^(slgi|wlgi|elgi): max value ([+-]\d+\.\d+) \(bound \S+, spec (\d+)\) "
    r"(VIOLATED|satisfied)$", re.M)
_NSIT_LINE = re.compile(r"^nsit: (.*)$", re.M)


def grid_point_values(points: list[dict], axis: np.ndarray) -> dict:
    """Family values and NSIT margins of many points on the vectorized engine."""
    grid = _mod("grid")
    arr = {k: np.array([p[k] for p in points]) for k in ("theta", "phi", "tau", "eta", "x")}
    dists = grid.lg_distributions(grid.pure_bloch(arr["theta"], arr["phi"]),
                                  arr["tau"], axis, arr["eta"], arr["x"])
    dist = grid.disturbances(dists)
    margins = {flag: NSIT_TOL - np.abs(dist[fam]).max(axis=-1)
               for flag, fam in NSIT_FAMILY.items()}
    margins["nsit_1_2_3"] = np.minimum(margins["nsit_1_2_3"],
                                       NSIT_TOL - grid.aot_residual(dists))
    return {
        "slgi": grid.slgi_values(dists), "wlgi": grid.wlgi_values(dists),
        "elgi": grid.elgi_values(dists), "margins": margins,
    }


def check_eval_text(text: str, i: int, grid_vals: dict, tol: float) -> list[str]:
    """Mismatches between the stdout of `lgscan eval` for point i and the grid."""
    bad = []
    found = _MAX_LINE.findall(text)
    if [f[0] for f in found] != ["slgi", "wlgi", "elgi"]:
        return ["eval output lacks the three family maxima"]
    for fam, value, spec, mark in found:
        vals = grid_vals[fam][i]
        best = float(vals.max())
        if abs(float(value) - best) > tol:
            bad.append(f"{fam} max {value} != {best!r}")
        if vals[int(spec)] < best - tol:
            bad.append(f"{fam} spec {spec} is not an argmax")
        if not _flag_ok(mark == "VIOLATED", best - BOUNDS[fam] - VIOLATION_TOL):
            bad.append(f"{fam} marked {mark}")
    nsit = _NSIT_LINE.search(text)
    if nsit is None:
        return bad + ["eval output lacks the nsit line"]
    flags = dict(item.split("=") for item in nsit.group(1).split())
    for flag, margin in grid_vals["margins"].items():
        if flag not in flags or not _flag_ok(flags[flag] == "ok", float(margin[i])):
            bad.append(f"{flag}={flags.get(flag)} (margin {float(margin[i]):.3g})")
    return bad


# --- thresholds ------------------------------------------------------------------


def _max_over_tau(family: str, theta: float, phi: float, eta: float) -> tuple[float, float]:
    """(max over tau in (0, pi), argmax) of the family maximum at x = 0."""
    grid = _mod("grid")
    values = {"slgi": grid.slgi_values, "wlgi": grid.wlgi_values, "elgi": grid.elgi_values}
    bloch = grid.pure_bloch(theta, phi)
    axis = axis_vector(0.0, math.pi / 2)

    def fam_max(taus: np.ndarray) -> np.ndarray:
        dists = grid.lg_distributions(bloch, taus, axis, eta, 0.0)
        return values[family](dists).max(axis=-1)

    step = math.pi / 1440
    taus = np.arange(1, 1440) * step
    for _ in range(3):  # refine around the argmax, 100x finer each round
        vals = fam_max(taus)
        k = int(np.argmax(vals))
        lo, hi = taus[max(k - 1, 0)], taus[min(k + 1, taus.size - 1)]
        taus = np.linspace(lo, hi, 201)
    vals = fam_max(taus)
    k = int(np.argmax(vals))
    return float(vals[k]), float(taus[k])


def check_threshold(family: str, theta: float, phi: float, thr: float, tol: float) -> list[str]:
    """g must be negative at thr - tol and positive at thr + tol; the positive
    side is confirmed on the scalar pipeline at the maximizing tau."""
    bad = []
    below, _ = _max_over_tau(family, theta, phi, thr - tol)
    above, tau_star = _max_over_tau(family, theta, phi, thr + tol)
    bound = BOUNDS[family]
    if not below < bound:
        bad.append(f"{family} g(thr - tol) = {below - bound:.3g} >= 0")
    if not above > bound:
        bad.append(f"{family} g(thr + tol) = {above - bound:.3g} <= 0")
    scalar = max(scalar_point(theta, phi, tau_star, thr + tol, 0.0,
                              axis_vector(0.0, math.pi / 2))["values"][family])
    if not scalar > bound:
        bad.append(f"{family} scalar value {scalar:.6g} at tau* does not exceed {bound}")
    return bad
