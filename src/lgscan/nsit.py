"""No-signaling-in-time (NSIT) and arrow-of-time (AoT) diagnostics.

The disturbance functionals compare stand-alone statistics with marginals of
a larger experiment; lgscan.grid.DISTURBANCES defines them, and these
formulas give their sign convention, D = P(stand-alone) - P(marginal):

    D1(M2^j, M3^k) = P_{23}(j, k) - P_{123}(., j, k)     [t1 disturbs (2,3)]
    D2(M1^i, M3^k) = P_{13}(i, k) - P_{123}(i, ., k)     [t2 disturbs (1,3)]
    D1(M2^j)       = P_{2}(j)     - P_{12}(., j)
    D1(M3^k)       = P_{3}(k)     - P_{13}(., k)
    D2(M3^k)       = P_{3}(k)     - P_{23}(., k)

An NSIT condition holds iff every entry of the corresponding D family
vanishes (to a tolerance; default lgscan.grid.NSIT_TOL = 1e-10, since
everything here is analytic): NSIT_(1)2 <-> D1(M2), NSIT_(1)3 <-> D1(M3),
NSIT_(2)3 <-> D2(M3), NSIT_(1)23 <-> D1(M2, M3), NSIT_1(2)3 <-> D2(M1, M3),
the last one together with AoT (lgscan.grid.NSIT_CONDITIONS).
AoT identities (earlier statistics unaffected by later measurements, the
rows of lgscan.grid.AOT_IDENTITIES) hold automatically in quantum
mechanics; their largest residual is reported and a residual above 1e-10 is
a pipeline bug, never a physical effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import grid
from .errors import InvariantError
from .grid import WlgiSpec
from .inequalities import experiment_probabilities
# not called here; imported so that lgscan.nsit.run_schedule still resolves
from .measurement import QubitState, Schedule, run_schedule  # noqa: F401

AOT_TOL = 1e-10

SIGNS = (1, -1)


@dataclass(frozen=True, eq=False)
class DisturbanceReport:
    """All D families at one parameter point, plus the worst AoT residual."""

    d1_pair: dict[tuple[int, int], float]
    d2_pair: dict[tuple[int, int], float]
    d1_m2: dict[int, float]
    d1_m3: dict[int, float]
    d2_m3: dict[int, float]
    aot_residual: float

    def families(self) -> dict[str, dict]:
        return {name: getattr(self, name) for name in grid.DISTURBANCES}

    def max_abs(self, family: str) -> float:
        return max(abs(v) for v in self.families()[family].values())


@dataclass(frozen=True, eq=False)
class ThresholdCheck:
    """Disturbance-vs-triple-probability test equivalent to one WLGI."""

    lhs: float
    rhs: float
    predicted_violation: bool


def _checked_disturbances(dists: dict) -> tuple[dict[str, np.ndarray], float]:
    """lgscan.grid.disturbances of the operator pipeline's distributions, and
    their AoT residual, which must not exceed AOT_TOL."""
    residual = float(grid.aot_residual(dists))
    if residual > AOT_TOL:
        raise InvariantError(f"AoT residual {residual:g} exceeds {AOT_TOL:g}")
    return grid.disturbances(dists), residual


def disturbance_report(state: QubitState, schedule: Schedule) -> DisturbanceReport:
    """Every D family from the operator pipeline's distributions.

    The schedule's `measured` field is ignored; all seven sub-experiments
    (three singles, three pairs, the triple) are run with its parameters and
    reduced by lgscan.grid.disturbances / aot_residual.
    """
    fams, residual = _checked_disturbances(
        experiment_probabilities(state, schedule, grid.SUBSETS))
    families = {}
    for name, (experiment, _) in grid.DISTURBANCES.items():
        outcomes = product(SIGNS, repeat=len(experiment)) if len(experiment) > 1 else SIGNS
        families[name] = dict(zip(outcomes, fams[name].tolist()))
    return DisturbanceReport(**families, aot_residual=residual)


def disturbance_closed_forms(theta: float, phi: float, tau: float) -> DisturbanceReport:
    """Analytic D families for sharp sigma_z measurement and x-axis evolution.

    Valid for the pure state cos(theta)|0> + e^{i phi} sin(theta)|1> with
    eta = 1, x = 0, axis = x_hat.  With a_y = sin 2theta sin phi and
    a_z = cos 2theta:

        D2(M1^i, M3^k) = -i k (1 + i a_z) sin^2(2 tau) / 4
        D1(M2^j, M3^k) =  j a_y sin(2 tau) (1 + j k cos(2 tau)) / 4
        D1(M2^j)       =  j a_y sin(2 tau) / 2
        D1(M3^k)       =  k a_y sin(4 tau) / 2
        D2(M3^k)       =  k (a_y sin(4 tau) - 2 a_z sin^2(2 tau)) / 4

    These match the sequential pipeline entrywise to rounding (see tests);
    two commonly quoted variant forms that do not are kept in
    `closed_form_variants` for comparison.  Sign pairings within each
    family, e.g. D2(M1^+, M3^+) = -D2(M1^+, M3^-), are manifest.
    """
    a_y = np.sin(2 * theta) * np.sin(phi)
    a_z = np.cos(2 * theta)
    s2t, c2t = np.sin(2 * tau), np.cos(2 * tau)
    s4t = np.sin(4 * tau)
    d1_pair = {
        (j, k): j * a_y * s2t * (1 + j * k * c2t) / 4.0
        for j, k in product(SIGNS, repeat=2)
    }
    d2_pair = {
        (i, k): -i * k * (1 + i * a_z) * s2t**2 / 4.0
        for i, k in product(SIGNS, repeat=2)
    }
    d1_m2 = {j: j * a_y * s2t / 2.0 for j in SIGNS}
    d1_m3 = {k: k * a_y * s4t / 2.0 for k in SIGNS}
    d2_m3 = {k: k * (a_y * s4t - 2 * a_z * s2t**2) / 4.0 for k in SIGNS}
    return DisturbanceReport(d1_pair, d2_pair, d1_m2, d1_m3, d2_m3, 0.0)


def closed_form_variants(theta: float, phi: float, tau: float) -> dict[str, dict[int, float]]:
    """Variant transcriptions of the two single-outcome families.

    These differ from `disturbance_closed_forms` in one factor each
    (cos 2theta in place of sin 2theta for D1(M2); sin^2 tau in place of
    sin^2 2tau for D2(M3)) and do NOT reproduce the sequential
    recomputation except on measure-zero parameter sets.  Kept only so the
    discrepancy can be demonstrated and tested.
    """
    d1_m2 = {j: j * np.sin(2 * tau) * np.cos(2 * theta) * np.sin(phi) / 2.0 for j in SIGNS}
    d2_m3 = {
        k: k * (-2 * np.sin(tau) ** 2 * np.cos(2 * theta)
                + np.sin(2 * theta) * np.sin(4 * tau) * np.sin(phi)) / 4.0
        for k in SIGNS
    }
    return {"d1_m2": d1_m2, "d2_m3": d2_m3}


def nsit_satisfied(report: DisturbanceReport, tol: float = grid.NSIT_TOL) -> dict[str, bool]:
    """Per-condition booleans from the D families, by lgscan.grid.nsit_flags.
    NSIT_1(2)3 also carries the AoT residual check: the condition is an
    in-between-measurement non-disturbance statement and AoT."""
    arrays = {fam: np.array(list(d.values())) for fam, d in report.families().items()}
    flags = grid.nsit_flags(arrays, report.aot_residual, tol)
    return {cond: bool(flag) for cond, flag in flags.items()}


def wlgi_threshold_check(state: QubitState, schedule: Schedule, spec: WlgiSpec) -> ThresholdCheck:
    """Violation condition for one WLGI in disturbance form.

    Each WLGI value decomposes exactly as (lhs - rhs) with lhs a signed
    combination of pair disturbances and rhs a sum of two triple
    probabilities; the WLGI is violated iff lhs > rhs.  For the positive
    pair (p, q) with outcomes (u, v), split s and marginalized time r:

        D(p:u, q:v) - D(p:u, r:s) - D(q:v, r:-s)
            > P(p:u, q:-v, r:s) + P(p:-u, q:v, r:-s)

    where D of a pair is its D family (D1 for (2,3), D2 for (1,3)) and
    D = 0 for (1,2), which only a later measurement could disturb.  The seven
    experiments run once, through the operator pipeline.
    """
    dists = experiment_probabilities(state, schedule, grid.SUBSETS)
    fams, _ = _checked_disturbances(dists)
    pair_d = {experiment: fams[name] for name, (experiment, _) in grid.DISTURBANCES.items()
              if len(experiment) == 2}

    def d(*outcomes) -> float:
        key, i = grid.locate(outcomes)
        return pair_d[key][i] if key in pair_d else 0.0

    def p(*outcomes) -> float:
        key, i = grid.locate(outcomes)
        return dists[key][i]

    (a, b), r, u, v, s = spec.positive_pair, spec.marginalized, spec.u, spec.v, spec.s
    lhs = d((a, u), (b, v)) - d((a, u), (r, s)) - d((b, v), (r, -s))
    rhs = p((a, u), (b, -v), (r, s)) + p((a, -u), (b, v), (r, -s))
    return ThresholdCheck(lhs=float(lhs), rhs=float(rhs),
                          predicted_violation=bool(grid.violated(lhs, rhs)))
