"""Pairwise and triple-wise joint measurability of the scheduled POVMs.

Criteria
--------
* General pairwise criterion for biased effects M(x, m), M(y, n):

      (1 - Fx^2 - Fy^2) (1 - x^2/Fx^2 - y^2/Fy^2) <= (m.n - x y)^2,

  with Fx = (sqrt((1-x)^2 - m^2) + sqrt((1+x)^2 - m^2))/2 and Fy alike.
  The bias terms x^2/Fx^2 are taken as 0 when x = 0 (the only parameter
  region where Fx can vanish for a valid effect is sharp unbiased, where
  the limit of x^2/Fx^2 is 0); with that convention the criterion reduces
  exactly to the unbiased one below at x = y = 0.

* Unbiased pairwise criterion:  ||m + n|| + ||m - n|| <= 2.

* Triple-wise criterion (unbiased only):

      |m1+m2+m3| + |m1+m2-m3| + |m1-m2-m3| + |m1-m2+m3| <= 4.

  This four-norm criterion is sufficient, not necessary: it is the exact
  Fermat-Torricelli criterion of Yu & Oh (2013) with the Fermat point pinned
  at the origin.  Its eta thresholds are therefore lower bounds on the true
  triple-wise thresholds (for the LG geometry, (sqrt 5 - 1)/2 at tau = pi/4
  where the exact value is 1/sqrt 2).

Closed-form eta thresholds for the time-evolved LG effects (separation
angle 2*tau between consecutive Bloch directions):

* unbiased pair:  eta <= 1/(|cos(d/2)| + |sin(d/2)|), d the separation;
* bias family x = eta - 1:  eta <= 1/(1 + |cos(d/2)|).

The biased threshold is discontinuous at coincidence (d -> 0 gives 1/2,
yet two identical POVMs are trivially compatible and the criterion itself
returns margin 0 there); threshold curves therefore exclude coincidence
points, and verdicts at such points come from the margin, not the curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidEffect, NoBracket
from .grid import Z_HAT, rotate_bloch
from .linalg import X_HAT
from .measurement import Schedule

MARGIN_TOL = 1e-12
BIAS_ZERO = 1e-15

PAIR_ORDER = ((1, 2), (2, 3), (1, 3))


@dataclass(frozen=True)
class JmPair:
    jointly_measurable: bool
    margin: float
    threshold: float | None


@dataclass(frozen=True)
class JmTriple:
    jointly_measurable: bool
    margin: float
    threshold: float


@dataclass(frozen=True, eq=False)
class JmVerdict:
    """Pairwise verdicts for (1,2), (2,3), (1,3) and, for unbiased POVMs,
    the triple-wise verdict."""

    pairwise: dict[tuple[int, int], JmPair]
    triple: JmTriple | None

    def all_pairs_jm(self) -> bool:
        return all(p.jointly_measurable for p in self.pairwise.values())


def _check_effect(x: float, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if np.any(np.abs(x) + np.linalg.norm(m, axis=-1) > 1.0 + 1e-12):
        raise InvalidEffect("effect violates |x| + |m| <= 1")
    return m


def _f_factor(x, m_norm_sq):
    a = np.clip((1.0 - x) ** 2 - m_norm_sq, 0.0, None)
    b = np.clip((1.0 + x) ** 2 - m_norm_sq, 0.0, None)
    return 0.5 * (np.sqrt(a) + np.sqrt(b))


def general_margin(x, m, y, n):
    """Margin (RHS - LHS) of the general pairwise criterion; broadcasts."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m_sq = np.sum(m * m, axis=-1)
    n_sq = np.sum(n * n, axis=-1)
    fx = _f_factor(x, m_sq)
    fy = _f_factor(y, n_sq)
    bias_x = np.where(np.abs(x) < BIAS_ZERO, 0.0, x**2 / np.where(fx > 0, fx, 1.0) ** 2)
    bias_y = np.where(np.abs(y) < BIAS_ZERO, 0.0, y**2 / np.where(fy > 0, fy, 1.0) ** 2)
    lhs = (1.0 - fx**2 - fy**2) * (1.0 - bias_x - bias_y)
    rhs = (np.sum(m * n, axis=-1) - x * y) ** 2
    return rhs - lhs


def unbiased_margin(m, n):
    """Margin 2 - ||m + n|| - ||m - n||; broadcasts."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    return 2.0 - np.linalg.norm(m + n, axis=-1) - np.linalg.norm(m - n, axis=-1)


def triple_sum(m1, m2, m3):
    """The four-norm sum of the triple-wise criterion; broadcasts."""
    m1, m2, m3 = (np.asarray(v, dtype=float) for v in (m1, m2, m3))
    return (
        np.linalg.norm(m1 + m2 + m3, axis=-1)
        + np.linalg.norm(m1 + m2 - m3, axis=-1)
        + np.linalg.norm(m1 - m2 - m3, axis=-1)
        + np.linalg.norm(m1 - m2 + m3, axis=-1)
    )


def pairwise_jm_general(x: float, m: np.ndarray, y: float, n: np.ndarray) -> tuple[bool, float]:
    """Joint measurability of M(x, m) and M(y, n) by the general criterion."""
    m = _check_effect(x, m)
    n = _check_effect(y, n)
    margin = float(general_margin(x, m, y, n))
    return margin >= -MARGIN_TOL, margin


def pairwise_jm_unbiased(m: np.ndarray, n: np.ndarray) -> tuple[bool, float]:
    """Unbiased criterion ||m + n|| + ||m - n|| <= 2."""
    margin = float(unbiased_margin(m, n))
    return margin >= -MARGIN_TOL, margin


def triplewise_jm_unbiased(m1: np.ndarray, m2: np.ndarray, m3: np.ndarray) -> tuple[bool, float]:
    """Triple-wise four-norm criterion; margin = 4 - sum."""
    margin = float(4.0 - triple_sum(m1, m2, m3))
    return margin >= -MARGIN_TOL, margin


# --- closed-form thresholds ---------------------------------------------------


def unbiased_pair_threshold(separation: float) -> float:
    """Largest eta with spin-POVM pairs at the given Bloch angle compatible."""
    h = 0.5 * separation
    return 1.0 / (abs(np.cos(h)) + abs(np.sin(h)))


def biased_pair_threshold(separation: float) -> float:
    """Same for the bias family x = eta - 1.  Not meaningful at coincidence."""
    return 1.0 / (1.0 + abs(np.cos(0.5 * separation)))


def triple_threshold(d1: np.ndarray, d2: np.ndarray, d3: np.ndarray) -> float:
    """Largest eta with eta*d_i compatible by the four-norm criterion (unit d_i).

    The four-norm criterion is sufficient only, so this is a lower bound on
    the true triple-wise threshold.
    """
    return float(4.0 / triple_sum(d1, d2, d3))


def _separation(a: np.ndarray, b: np.ndarray) -> float:
    cosang = np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0)
    return float(np.arccos(cosang))


def _numeric_pair_threshold(x: float, d1: np.ndarray, d2: np.ndarray) -> float:
    """Bisect the general-criterion margin in eta at fixed bias x."""
    cap = 1.0 - abs(x)

    def margin(eta: float) -> float:
        return float(general_margin(x, eta * d1, x, eta * d2))

    if margin(cap) >= -MARGIN_TOL:
        return cap
    lo, hi = 0.0, cap
    if margin(lo) < -MARGIN_TOL:
        raise NoBracket("no compatible eta at this bias")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if margin(mid) >= -MARGIN_TOL:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lg_directions(tau, axis) -> dict[int, np.ndarray]:
    """Unit Bloch directions of the Heisenberg-evolved effects at t1, t2, t3:
    z_hat rotated by -2 (k - 1) tau about the axis; broadcasts over tau."""
    tau = np.asarray(tau, dtype=float)
    z = np.broadcast_to(Z_HAT, tau.shape + (3,))
    return {k: rotate_bloch(z, axis, -2.0 * (k - 1) * tau) for k in (1, 2, 3)}


def jm_verdict(schedule: Schedule) -> JmVerdict:
    """Assemble pairwise (and, for x = 0, triple-wise) verdicts for the three
    time-evolved effects of the schedule.

    Margins come from the criteria on the effect vectors eta * d_k, with d_k
    from `lg_directions`; thresholds use the closed forms for the unbiased
    and x = eta - 1 families and a numeric bisection for any other fixed
    bias.  They depend on the d_k only, so at eta = 0 they are the
    eta -> 0+ limit.
    """
    x, eta = schedule.x, schedule.eta
    dirs = lg_directions(schedule.tau, schedule.axis)
    vecs = {t: eta * d for t, d in dirs.items()}
    unbiased = abs(x) < BIAS_ZERO
    bias_family = abs(x - (eta - 1.0)) < 1e-12

    pairwise: dict[tuple[int, int], JmPair] = {}
    for a, b in PAIR_ORDER:
        _, margin = pairwise_jm_general(x, vecs[a], x, vecs[b])
        sep = _separation(dirs[a], dirs[b])
        if unbiased:
            threshold = unbiased_pair_threshold(sep)
        elif bias_family:
            threshold = biased_pair_threshold(sep)
        else:
            threshold = _numeric_pair_threshold(x, dirs[a], dirs[b])
        pairwise[(a, b)] = JmPair(margin >= -MARGIN_TOL, margin, threshold)

    triple = None
    if unbiased:
        jm, margin = triplewise_jm_unbiased(vecs[1], vecs[2], vecs[3])
        triple = JmTriple(jm, margin, triple_threshold(dirs[1], dirs[2], dirs[3]))
    return JmVerdict(pairwise=pairwise, triple=triple)


def lg_combined_pair_threshold(tau: float, biased: bool = False) -> float:
    """Largest eta with all three LG pairs compatible at this tau (closed
    forms; the pairs are separated by 2tau, 2tau and 4tau)."""
    fn = biased_pair_threshold if biased else unbiased_pair_threshold
    return min(fn(2 * tau), fn(4 * tau))


def lg_triple_threshold(tau: float) -> float:
    """Four-norm triple-wise threshold for the LG geometry at this tau (unbiased).

    A lower bound on the true triple-wise threshold: its minimum over tau is
    (sqrt 5 - 1)/2 at pi/4, while the exact threshold is 1/sqrt 2 there and
    has its minimum 2/3 at tau = pi/6.
    """
    return triple_threshold(*lg_directions(tau, X_HAT).values())
