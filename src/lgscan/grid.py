"""Vectorized Bloch-vector engine for parameter-space scans.

Re-derives the sequential-measurement pipeline in closed form on Bloch
vectors so that whole parameter grids evaluate as numpy array operations:

* a state rho = (I + r.sigma)/2 evolving under qubit_unitary(axis, tau) has
  its Bloch vector rotated by +2*tau about the axis (right-handed);
* a Lueders update by the effect E = c I + d (mhat.sigma), c = (1 + s x)/2,
  d = s eta / 2, has probability c + d (mhat.r) and post-measurement Bloch
  vector ((p^2 - q^2) r + (2 p q + 2 q^2 (mhat.r)) mhat) / prob with
  p = (sqrt(c+d) + sqrt(c-d))/2 and q = (sqrt(c+d) - sqrt(c-d))/2.

`lg_distributions` runs the seven stand-alone experiments (the nonempty
subsets of t1 < t2 < t3) as one walk over the measurement tree, so shared
prefixes are computed once: 14 Lueders updates and 6 rotations per call.
The singles are measured, not marginals, so the AoT residual stays a real
check.  `sequential_probabilities` selects one experiment from the result.

The family reductions (SLGI, WLGI, ELGI), the disturbance functionals, the
AoT residual and the NSIT conditions (`NSIT_CONDITIONS`, `nsit_flags`) are
defined here and nowhere else.  They take a dict of outcome-probability
arrays keyed by measured subset and accept any batch shape, including the
shape-() vectors of one `run_schedule(...)` result, so the scalar
evaluators in lgscan.inequalities and lgscan.nsit feed them the operator
pipeline's distributions.

Every caller reads a family's bound, specs and reduction from
`FAMILY_TABLE`, and chooses the reported member by `pick`.

The distributions agree with the operator pipeline (lgscan.measurement),
which tests hold as the independent reference: to ~1e-15 when
|x| + eta < 1, and to ~1e-9 on rank-one effects (|x| + eta = 1, e.g.
x = eta - 1), where the Lueders square root is taken of the rounding residue
of an eigenvalue that is 0 in exact arithmetic.

Outcome ordering everywhere matches itertools.product((1, -1), repeat=k):
the earliest measured time varies slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

Z_HAT = np.array([0.0, 0.0, 1.0])

PAIRS = ((1, 2), (1, 3), (2, 3))
SUBSETS = ((1,), (2,), (3,)) + PAIRS + ((1, 2, 3),)


@dataclass(frozen=True)
class SlgiSpec:
    """Outcome relabeling (s1, s2, s3); only the products s_i s_j matter."""

    signs: tuple[int, int, int]


@dataclass(frozen=True)
class WlgiSpec:
    """Positive pair (p, q), its outcomes (u, v), and the split sign s for the
    marginalized time r."""

    positive_pair: tuple[int, int]
    u: int
    v: int
    s: int

    @property
    def marginalized(self) -> int:
        (p, q) = self.positive_pair
        return ({1, 2, 3} - {p, q}).pop()


@dataclass(frozen=True)
class ElgiSpec:
    """Index of the conditioned middle variable."""

    middle: int


SLGI_SPECS: tuple[SlgiSpec, ...] = tuple(
    SlgiSpec((1, s2, s3)) for s2, s3 in product((1, -1), repeat=2)
)

WLGI_SPECS: tuple[WlgiSpec, ...] = tuple(
    WlgiSpec(pair, u, v, s)
    for pair in PAIRS
    for u in (1, -1)
    for v in (1, -1)
    for s in (1, -1)
)

ELGI_SPECS: tuple[ElgiSpec, ...] = tuple(ElgiSpec(m) for m in (1, 2, 3))


def rotate_bloch(r: np.ndarray, axis: np.ndarray, angle) -> np.ndarray:
    """Rodrigues rotation of Bloch vectors; r (..., 3), angle broadcastable."""
    r = np.asarray(r, dtype=float)
    axis = np.asarray(axis, dtype=float)
    angle = np.asarray(angle, dtype=float)[..., None]
    c, s = np.cos(angle), np.sin(angle)
    cross = np.cross(np.broadcast_to(axis, r.shape), r)
    dot = np.sum(axis * r, axis=-1, keepdims=True)
    return r * c + cross * s + axis * dot * (1.0 - c)


def luders_step(r: np.ndarray, m_hat: np.ndarray, eta, x, sign: int):
    """Probability and post-measurement Bloch vector of one Lueders update."""
    r = np.asarray(r, dtype=float)
    m_hat = np.asarray(m_hat, dtype=float)
    eta = np.asarray(eta, dtype=float)
    x = np.asarray(x, dtype=float)
    c = 0.5 * (1.0 + sign * x)
    d = 0.5 * sign * eta
    lam_p = np.clip(c + d, 0.0, None)
    lam_m = np.clip(c - d, 0.0, None)
    p = 0.5 * (np.sqrt(lam_p) + np.sqrt(lam_m))
    q = 0.5 * (np.sqrt(lam_p) - np.sqrt(lam_m))
    mdotr = np.sum(m_hat * r, axis=-1)
    prob = c + d * mdotr
    safe = np.where(prob > 1e-15, prob, 1.0)[..., None]
    post = ((p**2 - q**2)[..., None] * r
            + (2 * p * q + 2 * q**2 * mdotr)[..., None] * np.broadcast_to(m_hat, r.shape))
    post = np.where(prob[..., None] > 1e-15, post / safe, 0.0)
    return np.clip(prob, 0.0, 1.0), post


def _expand(done, t, weights, r, axis, angle, eta, x, out) -> list:
    """Measure node (done, t, weights, r) of the `lg_distributions` walk at
    time t, store its distribution as out[done + (t,)] and return its
    children at t + 1: the post-states (t measured) and r (t skipped), each
    rotated by 2 tau.  A function, not a loop body, so that its temporaries
    are freed before the next node is measured."""
    (p_up, post_up), (p_down, post_down) = (
        luders_step(r, Z_HAT, eta, x, sign) for sign in (1, -1))
    # earliest time slowest: each branch b splits into (2b, 2b+1)
    batch = weights.shape[:-1]
    probs = np.stack([weights * p_up, weights * p_down], axis=-1).reshape(batch + (-1,))
    out[done + (t,)] = probs
    if t == 3:
        return []
    post = np.stack([post_up, post_down], axis=-2).reshape(batch + (-1, 3))
    return [(done + (t,), t + 1, probs, rotate_bloch(post, axis, angle)),
            (done, t + 1, weights, rotate_bloch(r, axis, angle))]


def lg_distributions(bloch0, tau, axis, eta, x) -> dict[tuple[int, ...], np.ndarray]:
    """All seven stand-alone experiments (singles, pairs, triple) from one
    walk over the measurement tree, keyed in SUBSETS order; entry s has shape
    (..., 2**len(s)).  bloch0 has shape (..., 3); tau, eta, x broadcast
    against its batch shape.  A node of the walk is an experiment that has
    measured `done` and reaches time t with branch weights and states r."""
    bloch0 = np.asarray(bloch0, dtype=float)
    batch = np.broadcast_shapes(bloch0.shape[:-1], np.shape(tau), np.shape(eta), np.shape(x))
    r = np.broadcast_to(bloch0, batch + (3,)).reshape(batch + (1, 3))
    tau, eta, x = (np.asarray(v, dtype=float)[..., None] for v in (tau, eta, x))
    angle = 2.0 * tau
    out = {}
    todo = [((), 1, np.ones(batch + (1,)), r)]
    while todo:
        todo += _expand(*todo.pop(), axis, angle, eta, x, out)
    return {s: out[s] for s in SUBSETS}


def sequential_probabilities(bloch0, measured, tau, axis, eta, x) -> np.ndarray:
    """Outcome probabilities of the one experiment that measures `measured`."""
    return lg_distributions(bloch0, tau, axis, eta, x)[tuple(sorted(measured))]


def _idx(*signs: int) -> int:
    i = 0
    for s in signs:
        i = 2 * i + (0 if s == 1 else 1)
    return i


def slgi_values(dists: dict, specs=SLGI_SPECS) -> np.ndarray:
    """(..., len(specs)) SLGI values, by default in the canonical spec order.

    Only the three pair experiments are read, through their correlators
    <M_i M_j> = P(+,+) + P(-,-) - P(+,-) - P(-,+).
    """
    c = {}
    for pair in PAIRS:
        d = dists[pair]
        c[pair] = d[..., _idx(1, 1)] + d[..., _idx(-1, -1)] - d[..., _idx(1, -1)] - d[..., _idx(-1, 1)]
    cols = []
    for spec in specs:
        s1, s2, s3 = spec.signs
        cols.append(s1 * s2 * c[(1, 2)] + s2 * s3 * c[(2, 3)] - s1 * s3 * c[(1, 3)])
    return np.stack(cols, axis=-1)


def wlgi_values(dists: dict, specs=WLGI_SPECS) -> np.ndarray:
    """(..., len(specs)) WLGI values, by default in the canonical spec order.

    Only the three pair experiments are read.  The subtracted terms pair the
    marginalized time r (outcome s with the earlier of p, q; outcome -s with
    the later), each temporally ordered.
    """
    cols = []
    for spec in specs:
        (p, q), u, v, s = spec.positive_pair, spec.u, spec.v, spec.s
        r = spec.marginalized
        pos = dists[(p, q)][..., _idx(u, v)]
        if r == 1:
            neg1 = dists[(1, 2)][..., _idx(s, u)]
            neg2 = dists[(1, 3)][..., _idx(-s, v)]
        elif r == 2:
            neg1 = dists[(1, 2)][..., _idx(u, s)]
            neg2 = dists[(2, 3)][..., _idx(-s, v)]
        else:
            neg1 = dists[(1, 3)][..., _idx(u, s)]
            neg2 = dists[(2, 3)][..., _idx(v, -s)]
        cols.append(pos - neg1 - neg2)
    return np.stack(cols, axis=-1)


def entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) along the last axis with 0 ln 0 = 0."""
    p = np.asarray(probs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def elgi_values(dists: dict, specs=ELGI_SPECS) -> np.ndarray:
    """(..., len(specs)) ELGI values; the default specs order the middle
    index 1, 2, 3.  Reads the three pairs and the single at each middle."""
    cols = []
    for spec in specs:
        b = spec.middle
        a, c = sorted({1, 2, 3} - {b})
        h_ac = entropy(dists[(a, c)])
        h_ab = entropy(dists[tuple(sorted((a, b)))])
        h_bc = entropy(dists[tuple(sorted((b, c)))])
        h_b = entropy(dists[(b,)])
        cols.append(h_ac - h_ab - h_bc + h_b)
    return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class Family:
    """An inequality family: its macrorealist bound, canonical specs, the
    stand-alone experiments it reads and its reduction
    reduce(dists, specs) -> (..., len(specs))."""

    bound: float
    specs: tuple
    reads: tuple[tuple[int, ...], ...]
    reduce: Callable[[dict, tuple], np.ndarray]

    def values(self, dists: dict, specs: tuple | None = None) -> np.ndarray:
        return self.reduce(dists, self.specs if specs is None else specs)


# The reductions are looked up by name when called, so a wrapper installed on
# the module attribute (as perfbench's tracer does) sees every call.
FAMILY_TABLE: dict[str, Family] = {
    "slgi": Family(1.0, SLGI_SPECS, PAIRS, lambda d, s: slgi_values(d, s)),
    "wlgi": Family(0.0, WLGI_SPECS, PAIRS, lambda d, s: wlgi_values(d, s)),
    "elgi": Family(0.0, ELGI_SPECS, PAIRS + ((1,), (2,), (3,)), lambda d, s: elgi_values(d, s)),
}

VIOLATION_TOL = 1e-12


def violated(value, bound):
    """value > bound + VIOLATION_TOL; broadcasts."""
    return value > bound + VIOLATION_TOL


def pick(values) -> tuple[np.ndarray, np.ndarray]:
    """Family maximum along the last axis, and the lowest spec index whose
    value is at least max - VIOLATION_TOL: members that tie in exact
    arithmetic report one spec however their values round."""
    values = np.asarray(values, dtype=float)
    best = values.max(axis=-1)
    return best, np.argmax(values >= best[..., None] - VIOLATION_TOL, axis=-1)


def disturbances(dists: dict) -> dict[str, np.ndarray]:
    """D families stacked along the last axis (signs iterate (+1, -1), pairs
    in product order); lgscan.nsit documents the sign convention."""
    tri = dists[(1, 2, 3)]
    p23, p13, p12 = dists[(2, 3)], dists[(1, 3)], dists[(1, 2)]
    p2, p3 = dists[(2,)], dists[(3,)]
    d1_pair = np.stack(
        [p23[..., _idx(j, k)] - tri[..., _idx(1, j, k)] - tri[..., _idx(-1, j, k)]
         for j in (1, -1) for k in (1, -1)],
        axis=-1,
    )
    d2_pair = np.stack(
        [p13[..., _idx(i, k)] - tri[..., _idx(i, 1, k)] - tri[..., _idx(i, -1, k)]
         for i in (1, -1) for k in (1, -1)],
        axis=-1,
    )
    d1_m2 = np.stack(
        [p2[..., _idx(j)] - p12[..., _idx(1, j)] - p12[..., _idx(-1, j)] for j in (1, -1)],
        axis=-1,
    )
    d1_m3 = np.stack(
        [p3[..., _idx(k)] - p13[..., _idx(1, k)] - p13[..., _idx(-1, k)] for k in (1, -1)],
        axis=-1,
    )
    d2_m3 = np.stack(
        [p3[..., _idx(k)] - p23[..., _idx(1, k)] - p23[..., _idx(-1, k)] for k in (1, -1)],
        axis=-1,
    )
    return {"d1_pair": d1_pair, "d2_pair": d2_pair, "d1_m2": d1_m2, "d1_m3": d1_m3, "d2_m3": d2_m3}


def aot_residual(dists: dict) -> np.ndarray:
    """Worst arrow-of-time residual per batch point (drop-latest identities)."""
    tri = dists[(1, 2, 3)]
    res = []
    marg12 = tri.reshape(tri.shape[:-1] + (4, 2)).sum(axis=-1)
    res.append(np.abs(marg12 - dists[(1, 2)]).max(axis=-1))
    for big, small in (((1, 2), (1,)), ((1, 3), (1,)), ((2, 3), (2,))):
        marg = dists[big].reshape(dists[big].shape[:-1] + (2, 2)).sum(axis=-1)
        res.append(np.abs(marg - dists[small]).max(axis=-1))
    return np.max(np.stack(res, axis=-1), axis=-1)


NSIT_TOL = 1e-10

# NSIT condition -> the D family that must vanish for it (see lgscan.nsit);
# nsit_1_2_3 also requires the AoT residual within tolerance
NSIT_CONDITIONS = {"nsit_12": "d1_m2", "nsit_13": "d1_m3", "nsit_23": "d2_m3",
                   "nsit_123": "d1_pair", "nsit_1_2_3": "d2_pair"}


def nsit_flags(disturbance_arrays: dict, aot, tol: float) -> dict[str, np.ndarray]:
    """Per-condition NSIT booleans from `disturbances` arrays and the AoT
    residual: every entry of the condition's D family within tol."""
    flags = {cond: np.abs(disturbance_arrays[fam]).max(axis=-1) <= tol
             for cond, fam in NSIT_CONDITIONS.items()}
    flags["nsit_1_2_3"] &= np.asarray(aot) <= tol
    return flags


def pure_bloch(theta, phi) -> np.ndarray:
    """Bloch vector of cos(theta)|0> + e^{i phi} sin(theta)|1>; broadcasts."""
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    s = np.sin(2 * theta)
    return np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(2 * theta)], axis=-1)
