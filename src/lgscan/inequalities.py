"""Leggett-Garg inequality families: standard (SLGI), Wigner (WLGI), entropic (ELGI).

All two-time probabilities entering an inequality come from experiments in
which only those two measurements are performed, and single-time entropies
from single-measurement experiments; this is what quantum mechanics
prescribes and what makes the no-signaling-in-time diagnostics (lgscan.nsit)
generally nonzero.

Families and canonical orderings
--------------------------------
* SLGI (bound 1):  s1 s2 <M1 M2> + s2 s3 <M2 M3> - s1 s3 <M1 M3>.
  Outcome relabelings M_i -> s_i M_i give 4 distinct inequalities; the
  canonical order fixes s1 = +1 and iterates (s2, s3) over
  (+,+), (+,-), (-,+), (-,-).  Spec 0 is the familiar
  <M1 M2> + <M2 M3> - <M1 M3> <= 1.
* WLGI (bound 0):  P(M_p^u, M_q^v) - P(. , .) - P(. , .), where the two
  subtracted pair probabilities split the remaining time r with outcomes
  s and -s.  24 inequalities: positive pair in [(1,2), (1,3), (2,3)]
  (lexicographic), then u, v, s each over (+1, -1).  Under noninvasive
  marginalization every one reduces to minus a sum of two triple
  probabilities, hence the macrorealist bound 0.
* ELGI (bound 0):  H(M_a, M_c) - H(M_a, M_b) - H(M_b, M_c) + H(M_b) with
  b the conditioned middle variable; specs iterate middle = 1, 2, 3.
  Entropies are Shannon entropies in nats.

The spec tables, bounds and reductions live in lgscan.grid's FAMILY_TABLE,
which defines each family once over outcome-probability arrays.  The
evaluators here run the stand-alone experiments a family reads through the
operator pipeline (lgscan.measurement) and hand their distributions to that
family's reduction.  Each of the seven experiments runs once per (state,
schedule) pair: the families and lgscan.nsit share its run.

Closed forms for two special parameter families are provided as cross-check
targets; the measurement pipeline is the ground truth and any mismatch above
1e-8 is treated as a transcription defect of the closed form, not patched
into the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from . import grid
from .grid import (
    ELGI_SPECS,
    SLGI_SPECS,
    WLGI_SPECS,
    ElgiSpec,
    SlgiSpec,
    WlgiSpec,
)
from .measurement import JointDistribution, QubitState, Schedule, run_schedule


@dataclass(frozen=True, eq=False)
class InequalityResult:
    value: float
    bound: float
    violated: bool
    spec: object


def _result(value: float, bound: float, spec: object) -> InequalityResult:
    return InequalityResult(value=float(value), bound=float(bound),
                            violated=bool(grid.violated(value, bound)), spec=spec)


# The last len(SUBSETS) runs, one point's seven experiments.  QubitState and
# Schedule compare and hash by identity (eq=False) and hold read-only arrays,
# and the cache keeps each key alive, so a key names one unchanging point.
@lru_cache(maxsize=len(grid.SUBSETS))
def _run(state: QubitState, schedule: Schedule, subset: tuple[int, ...]) -> JointDistribution:
    return run_schedule(state, schedule.with_measured(subset))


def experiment_probabilities(
    state: QubitState, schedule: Schedule, subsets: Iterable[tuple[int, ...]]
) -> dict[tuple[int, ...], np.ndarray]:
    """Outcome probabilities of the stand-alone experiments in `subsets`, run
    through the operator pipeline and keyed as the lgscan.grid reductions read
    them.  Each experiment runs once per (state, schedule) pair while it is
    among the last seven run, so the families and the disturbance report at
    one point share its run; every call returns fresh arrays."""
    return {s: _run(state, schedule, s).probabilities() for s in subsets}


def _family_all(family: str, state: QubitState, schedule: Schedule, specs) -> list[InequalityResult]:
    """One result per spec, from only the experiments the family reads."""
    fam = grid.FAMILY_TABLE[family]
    values = fam.values(experiment_probabilities(state, schedule, fam.reads), specs)
    return [_result(v, fam.bound, spec) for v, spec in zip(values, specs)]


# --- SLGI -------------------------------------------------------------------


def slgi_all(state: QubitState, schedule: Schedule, specs=SLGI_SPECS) -> list[InequalityResult]:
    """SLGIs (default: all 4, in canonical order) from one set of pair experiments."""
    return _family_all("slgi", state, schedule, specs)


def slgi_closed_form_spin(eta: float, tau: float) -> float:
    """Unbiased (x = 0) SLGI value eta^2 (2 cos 2tau - cos 4tau).

    State-independent; peaks at 3/2 eta^2 where cos 2tau = 1/2 (tau = pi/6,
    5pi/6, ...), so violation requires eta > sqrt(2/3) ~ 0.8165.
    """
    return eta**2 * (2.0 * np.cos(2.0 * tau) - np.cos(4.0 * tau))


def slgi_closed_form_biased(theta: float, phi: float, tau: float, eta: float) -> float:
    """SLGI value for the bias family x = eta - 1 (effects eta*(I + m.sigma)/2).

    Transcribed long form; cross-checked against the pipeline (which is the
    ground truth).  At (theta, phi, tau) = (pi/3, pi/2, 5pi/6) it reduces to
    1 + eta^2/2, which exceeds the bound for every eta > 0.
    """
    rt = math.sqrt(max(1.0 - eta, 0.0))
    s2th, c2th = math.sin(2 * theta), math.cos(2 * theta)
    s2t, c2t = math.sin(2 * tau), math.cos(2 * tau)
    s4t, c4t = math.sin(4 * tau), math.cos(4 * tau)
    sp = math.sin(phi)
    term1 = eta * (4 * s2th * s2t * sp) * (4 * (eta - 1) * math.cos(tau) ** 2 + 2 * rt * (2 * c2t - 1))
    term2 = -4 * eta * rt * (sp * s2th * s4t + c2th * c4t)
    term3 = 2 * eta * c2th * (4 * (eta - 1) * s2t**2 + 8 * (eta - 1) * c2t + 2 * rt)
    term4 = 8 * (eta - 1) ** 2
    term5 = -8 * eta**2 * (-2 * c2t + c4t)
    return (term1 + term2 + term3 + term4 + term5) / 8.0


# --- WLGI -------------------------------------------------------------------


def wlgi_all(state: QubitState, schedule: Schedule, specs=WLGI_SPECS) -> list[InequalityResult]:
    """WLGIs (default: all 24, in canonical order) from one set of pair experiments."""
    return _family_all("wlgi", state, schedule, specs)


# --- ELGI -------------------------------------------------------------------


def shannon_entropy(dist: JointDistribution | Iterable[float]) -> float:
    """Shannon entropy in nats, with 0 ln 0 = 0."""
    if isinstance(dist, JointDistribution):
        probs = dist.probabilities()
    else:
        probs = np.asarray(list(dist), dtype=float)
    return float(grid.entropy(probs))


def elgi_all(state: QubitState, schedule: Schedule, specs=ELGI_SPECS) -> list[InequalityResult]:
    """ELGIs (default: all 3, in canonical order): pair entropies from two-time
    experiments, H(M_b) from the single-measurement experiment at t_b."""
    if any(spec.middle not in (1, 2, 3) for spec in specs):
        raise ValueError("middle must be 1, 2 or 3")
    return _family_all("elgi", state, schedule, specs)
