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
* bias family x = eta - 1:  eta <= 1/(1 + |cos(d/2)|), and
  |cos(d/2)| = sqrt((1 + cos d)/2);
* fixed bias x:  for two effects of the same x and eta, with c = cos d and
  u = eta^2, the left side above is exactly
  (1 - 2F^2)(1 - 2x^2/F^2) = 2u + 2x^2 - 1, so the margin (right side
  minus left side) is the quadratic

      c^2 u^2 - 2 (1 + c x^2) u + (1 - x^2)^2.

  It is (1 - x^2)^2 >= 0 at u = 0, and its larger root is at least
  (1 - |x|)^2, so the threshold is its smaller root (at margin
  -MARGIN_TOL), capped at 1 - |x|.  At x = 0 that root is
  1/(1 + |sin d|), the square of the unbiased threshold.

The biased threshold is discontinuous at coincidence (d -> 0 gives 1/2,
yet two identical POVMs are trivially compatible and the criterion itself
returns margin 0 there); threshold curves therefore exclude coincidence
points, and verdicts at such points come from the margin, not the curve.

An effect that fails `grid.valid_effect` (|x| + |m| > 1, or a NaN) raises
InvalidEffect; an unknown bias mode raises ConfigError in `grid.bias_x`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidEffect
from .grid import Z_HAT, bias_x, rotate_bloch, valid_effect

MARGIN_TOL = 1e-12
BIAS_ZERO = 1e-15

PAIR_ORDER = ((1, 2), (2, 3), (1, 3))


@dataclass(frozen=True)
class JmCheck:
    """One criterion's verdict, its margin and its eta threshold."""

    jointly_measurable: bool
    margin: float
    threshold: float


@dataclass(frozen=True, eq=False)
class JmVerdict:
    """Pairwise verdicts for (1,2), (2,3), (1,3) and, for unbiased POVMs,
    the triple-wise verdict."""

    pairwise: dict[tuple[int, int], JmCheck]
    triple: JmCheck | None

    def all_pairs_jm(self) -> bool:
        return all(p.jointly_measurable for p in self.pairwise.values())


def _check_effect(x: float, m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if not np.all(valid_effect(np.linalg.norm(m, axis=-1), x)):
        raise InvalidEffect("effect violates |x| + |m| <= 1")
    return m


def _f_factor(x, m_norm_sq):
    a = np.clip((1.0 - x) ** 2 - m_norm_sq, 0.0, None)
    b = np.clip((1.0 + x) ** 2 - m_norm_sq, 0.0, None)
    return 0.5 * (np.sqrt(a) + np.sqrt(b))


def _dot(a, b):
    """a.b over the last axis, as the component sum (a0 b0 + a1 b1) + a2 b2:
    np.sum's order, which differs from it only in giving -0 for a sum of
    three -0 products, and no caller reads the sign of a zero dot."""
    prod = a * b
    return prod[..., 0] + prod[..., 1] + prod[..., 2]


def _norm(v):
    """np.linalg.norm(v, axis=-1), bit-identical: sqrt of the component sum
    of squares (no square is -0)."""
    return np.sqrt(_dot(v, v))


def general_margin(x, m, y, n):
    """Margin (RHS - LHS) of the general pairwise criterion; broadcasts."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fx = _f_factor(x, _dot(m, m))
    fy = _f_factor(y, _dot(n, n))
    bias_x = np.where(np.abs(x) < BIAS_ZERO, 0.0, x**2 / np.where(fx > 0, fx, 1.0) ** 2)
    bias_y = np.where(np.abs(y) < BIAS_ZERO, 0.0, y**2 / np.where(fy > 0, fy, 1.0) ** 2)
    lhs = (1.0 - fx**2 - fy**2) * (1.0 - bias_x - bias_y)
    rhs = (_dot(m, n) - x * y) ** 2
    return rhs - lhs


def unbiased_margin(m, n):
    """Margin 2 - ||m + n|| - ||m - n||; broadcasts."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    return 2.0 - _norm(m + n) - _norm(m - n)


def triple_sum(m1, m2, m3):
    """The four-norm sum of the triple-wise criterion; broadcasts."""
    m1, m2, m3 = (np.asarray(v, dtype=float) for v in (m1, m2, m3))
    plus, minus = m1 + m2, m1 - m2
    return _norm(plus + m3) + _norm(plus - m3) + _norm(minus - m3) + _norm(minus + m3)


def pairwise_jm_general(x: float, m: np.ndarray, y: float, n: np.ndarray) -> tuple[bool, float]:
    """Joint measurability of M(x, m) and M(y, n) by the general criterion."""
    m = _check_effect(x, m)
    n = _check_effect(y, n)
    margin = float(general_margin(x, m, y, n))
    return margin >= -MARGIN_TOL, margin


def pairwise_jm_unbiased(m: np.ndarray, n: np.ndarray) -> tuple[bool, float]:
    """Unbiased criterion ||m + n|| + ||m - n|| <= 2."""
    margin = float(unbiased_margin(_check_effect(0.0, m), _check_effect(0.0, n)))
    return margin >= -MARGIN_TOL, margin


def triplewise_jm_unbiased(m1: np.ndarray, m2: np.ndarray, m3: np.ndarray) -> tuple[bool, float]:
    """Triple-wise four-norm criterion; margin = 4 - sum."""
    margin = float(4.0 - triple_sum(*(_check_effect(0.0, m) for m in (m1, m2, m3))))
    return margin >= -MARGIN_TOL, margin


# --- closed-form thresholds ---------------------------------------------------


def unbiased_pair_threshold(separation: float) -> float:
    """Largest eta with spin-POVM pairs at the given Bloch angle compatible."""
    h = 0.5 * separation
    return 1.0 / (abs(np.cos(h)) + abs(np.sin(h)))


def biased_pair_threshold(separation: float) -> float:
    """Same for the bias family x = eta - 1.  Not meaningful at coincidence."""
    return 1.0 / (1.0 + abs(np.cos(0.5 * separation)))


def fixed_bias_pair_threshold(x, cos_sep):
    """Largest eta <= 1 - |x| with M(x, eta d_a) and M(x, eta d_b)
    compatible by the general criterion, cos_sep = d_a . d_b for unit d_a,
    d_b; broadcasts.  The smaller root of the fixed-bias margin quadratic
    at margin -MARGIN_TOL, written without cancellation."""
    x, c = np.asarray(x, dtype=float), np.asarray(cos_sep, dtype=float)
    k = (1.0 - x * x) ** 2 + MARGIN_TOL
    p = 1.0 + c * x * x
    u = k / (p + np.sqrt(np.maximum(p * p - c * c * k, 0.0)))
    return np.minimum(np.sqrt(u), 1.0 - np.abs(x))


def triple_threshold(d1: np.ndarray, d2: np.ndarray, d3: np.ndarray) -> float:
    """Largest eta with eta*d_i compatible by the four-norm criterion (unit d_i).

    The four-norm criterion is sufficient only, so this is a lower bound on
    the true triple-wise threshold.
    """
    return float(4.0 / triple_sum(d1, d2, d3))


def lg_directions(tau, axis) -> dict[int, np.ndarray]:
    """Unit Bloch directions of the Heisenberg-evolved effects at t1, t2, t3:
    z_hat rotated by -2 (k - 1) tau about the axis; broadcasts over tau."""
    tau = np.asarray(tau, dtype=float)
    z = np.broadcast_to(Z_HAT, tau.shape + (3,))
    d1, d2, d3 = rotate_bloch(z, axis, -2.0 * np.multiply.outer(np.arange(3.0), tau))
    return {1: d1, 2: d2, 3: d3}


def lg_margins(tau, eta, x, axis) -> tuple[np.ndarray, np.ndarray]:
    """Criterion margins of the LG effects M(x, eta * d_k), d_k from
    `lg_directions`; broadcasts over tau, eta and x.

    Returns the general-criterion margins of the three pairs, in PAIR_ORDER
    on the last axis, and the four-norm triple margin 4 - sum (meaningful
    for x = 0 only).
    """
    tau, eta, x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (tau, eta, x)))
    return _margins(lg_directions(tau, axis), eta, x)


def _margins(dirs: dict[int, np.ndarray], eta, x) -> tuple[np.ndarray, np.ndarray]:
    """`lg_margins` from directions already at hand (dirs[k] = d_k)."""
    eta, x = np.asarray(eta, dtype=float), np.asarray(x, dtype=float)
    m = {k: eta[..., None] * d for k, d in dirs.items()}
    first = np.stack([m[a] for a, _ in PAIR_ORDER], axis=-2)
    second = np.stack([m[b] for _, b in PAIR_ORDER], axis=-2)
    pairs = general_margin(x[..., None], first, x[..., None], second)
    return pairs, 4.0 - triple_sum(m[1], m[2], m[3])


def jm_verdict(schedule, bias_mode: str = "fixed") -> JmVerdict:
    """Assemble pairwise (and, for x = 0, triple-wise) verdicts for the three
    time-evolved effects of a schedule: anything with the `tau`, `axis`, `x`
    and `eta` of a `measurement.Schedule`.

    Margins are those of `lg_margins`, computed on the directions that the
    thresholds also read.  `bias_mode` is how x follows eta, one of
    `grid.BIAS_MODES`; the schedule's numbers cannot tell it.  The
    thresholds read each pair's cosine c once: `biased_pair_threshold` as
    1/(1 + sqrt((1 + c)/2)) for "eta-1", `fixed_bias_pair_threshold` at the
    schedule's x otherwise (x = 0 for "zero").  They depend on the directions d_k and the mode
    only, so at eta = 0 they are the eta -> 0+ limit.
    """
    x, eta = schedule.x, schedule.eta
    bias_x(bias_mode, eta, x)  # ConfigError for an unknown mode
    dirs = lg_directions(schedule.tau, schedule.axis)
    pair_margins, triple_margin = _margins(dirs, eta, x)
    cos_sep = np.array([dirs[a] @ dirs[b] for a, b in PAIR_ORDER])
    if bias_mode == "eta-1":
        thresholds = 1.0 / (1.0 + np.sqrt(np.maximum(0.5 * (1.0 + cos_sep), 0.0)))
    else:
        thresholds = fixed_bias_pair_threshold(x, cos_sep)
    pairwise = {pair: JmCheck(margin >= -MARGIN_TOL, margin, float(threshold))
                for pair, margin, threshold in zip(PAIR_ORDER, pair_margins.tolist(), thresholds)}

    triple = None
    if abs(x) < BIAS_ZERO:
        margin = float(triple_margin)
        triple = JmCheck(margin >= -MARGIN_TOL, margin,
                         triple_threshold(dirs[1], dirs[2], dirs[3]))
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
    return triple_threshold(*lg_directions(tau, np.array([1.0, 0.0, 0.0])).values())  # x_hat
