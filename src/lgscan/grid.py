"""Vectorized Bloch-vector engine for parameter-space scans.

Re-derives the sequential-measurement pipeline in closed form on Bloch
vectors so that whole parameter grids evaluate as numpy array operations:

* a state rho = (I + r.sigma)/2 evolving under qubit_unitary(axis, tau) has
  its Bloch vector rotated by +2*tau about the axis (right-handed);
* every measurement is along z_hat: a Lueders update by the effect
  E = c I + d sigma_z, c = (1 + s x)/2, d = s eta / 2, has probability
  c + d r_z and post-measurement Bloch vector
  ((p^2 - q^2) r + (2 p q + 2 q^2 r_z) z_hat) / prob with
  p = (sqrt(c+d) + sqrt(c-d))/2 and q = (sqrt(c+d) - sqrt(c-d))/2.
  It reads r_z and adds the z_hat term to the z component only; its
  probabilities are bit-identical to those of the general form along any
  unit mhat (mhat.r by np.sum, the mhat term on every component) taken at
  mhat = z_hat, which differs from it only in the sign of exact zeros of
  the state, and no probability reads those.

`lg_distributions` runs the seven stand-alone experiments (the nonempty
subsets of t1 < t2 < t3) as one walk over the measurement tree, so shared
prefixes are computed once, one measurement time at a time.  The live
states at a time are planes, one (3, states, *batch) array with the batch
innermost.  One array op gives both outcomes' probabilities of all of them
(`luders_probabilities`, from the `luders_terms` of both outcomes stacked
(2, *batch)), and one op clips them; each node group that a later time
reads takes one post-update (`luders_posts`), and the states take one
in-place rotation (`rotate_planes`) per step.  Nothing reads the states
after t3, so each leaf group in turn rotates only its z plane and is
measured, and the leaves' full states are never stacked.  A full walk takes
6 probability ops and 6 clips, 3 post-updates, 1 rotation and 4 z-plane
rotations per call.  A caller that reads fewer experiments names them, and
the walk skips every node, post-state and rotation none of them reaches:
the three pairs take 4 probability ops, 2 post-updates, 1 rotation and 2
z-plane rotations, the pairs and singles (ELGI) 5, 2, 1 and 3.  A call
computes the Lueders terms and the cosine and sine of 2 tau once, not at
every node.  Each experiment is stored outcome-major, (2**k, *batch), and
returned as a (..., 2**k) view.  The rotation and the update are written
once, on planes, and `rotate_bloch` is the rotation's (..., 3) wrapper.
The singles are measured, not marginals, so the AoT residual stays a real
check.

The family reductions (SLGI, WLGI, ELGI), the disturbance functionals, the
AoT residual and the NSIT conditions (`NSIT_CONDITIONS`, `nsit_flags`) are
defined here and nowhere else.  They take a dict of outcome-probability
arrays keyed by measured subset and accept any batch shape, including the
shape-() vectors of one `run_schedule(...)` result, so the scalar
evaluators in lgscan.inequalities and lgscan.nsit feed them the operator
pipeline's distributions.  `elgi_values` also takes the six experiments it
reads stacked as one (..., 18) table (`ELGI_STACK`), which the ELGI
tau-maximum of lgscan.scan.threshold_eta rebuilds at many taus.  Both
forms end in the six entropies of ELGI_STACK as rows, p ln p from
`_plogp` summed by np.sum, and `_elgi`, the formula, runs once on them.
np.sum adds a row of 2 or 4 outcomes left to right from +0 in any layout,
so the two forms give the same floats.  It is fast here only because the
outcome axis is strided in memory (the kernel stores each entry
outcome-major, and the rebuilt ELGI table is tau-fastest), so numpy adds
whole columns: on C-contiguous (16384, 4) rows it takes ~273 us against
~33 us for column adds, and a change that makes that axis contiguous must
measure again.

SLGI, WLGI, D and AoT find each outcome term by `locate`, once.  Each D
family is a row of `DISTURBANCES` and each AoT identity a row of
`AOT_IDENTITIES`: a stand-alone experiment and the time a larger one adds.

Every caller reads a family's bound, specs and reduction from
`FAMILY_TABLE`, and chooses the reported member by `pick`.

The bias rule is written here once: `BIAS_MODES` names how the effect bias
x follows eta, `bias_x` applies a mode and is the one place an unknown mode
raises ConfigError, and `valid_effect` is the engine's one test of
|x| + eta <= 1 (lgscan.measurement keeps its own, as the reference).

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
from functools import cache, cached_property
from itertools import product
from typing import Callable

import numpy as np

from .errors import ConfigError

Z_HAT = np.array([0.0, 0.0, 1.0])

PAIRS = ((1, 2), (1, 3), (2, 3))
SUBSETS = ((1,), (2,), (3,)) + PAIRS + ((1, 2, 3),)
BIAS_MODES = ("zero", "eta-1", "fixed")  # how the effect bias x follows eta (`bias_x`)


def bias_x(bias_mode: str, eta, x_fixed: float = 0.0) -> np.ndarray:
    """Effect bias x at sharpness eta: 0 ("zero"), eta - 1 ("eta-1"), or
    x_fixed ("fixed"); same shape as eta.  Any other mode is a ConfigError."""
    eta = np.asarray(eta, dtype=float)
    if bias_mode == "zero":
        return np.zeros_like(eta)
    if bias_mode == "eta-1":
        return eta - 1.0
    if bias_mode == "fixed":
        return np.full_like(eta, x_fixed)
    raise ConfigError(f"unknown bias mode {bias_mode!r}", "bias_mode")


def valid_effect(eta, x):
    """|x| + eta <= 1 (to 1e-12; a NaN fails): M(x, eta) is a valid effect; broadcasts."""
    return np.abs(x) + eta <= 1.0 + 1e-12


AXIS_TOL = 1e-12  # |axis| = 1 to this, as lgscan.linalg.qubit_unitary (not imported here)


def unit_axis(axis) -> np.ndarray:
    """axis as a float array; ConfigError unless a finite 3-vector of length 1 within AXIS_TOL."""
    try:
        unit = np.asarray(axis, dtype=float)
    except (TypeError, ValueError):
        unit = np.full(3, np.nan)
    if unit.shape != (3,) or not abs(np.linalg.norm(unit) - 1.0) <= AXIS_TOL:  # nan, inf fail
        raise ConfigError(f"axis must be a finite unit 3-vector, got {axis!r}")
    return unit


def check_angles(theta=None, tau=None) -> None:
    """ConfigError, with the angle's name as its field, unless 2 theta and
    4 tau are finite: the largest multiples of each that the engine forms
    (`pure_bloch`; lgscan.jointmeas.lg_directions).  Each angle is a number
    or an array; None is not checked."""
    for name, angles, k in (("theta", theta, 2), ("tau", tau, 4)):
        if angles is not None:
            angles = np.asarray(angles, dtype=float)
            bad = angles[~(np.abs(angles) <= np.finfo(float).max / k)]
            if bad.size:
                raise ConfigError(f"{k} {name} must be finite, got {name} = {float(bad[0])!r}",
                                  name)


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

    @cached_property
    def terms(self) -> tuple:
        """Locations of P(p:u, q:v), P(p:u, r:s) and P(q:v, r:-s)."""
        (p, q), r, u, v, s = self.positive_pair, self.marginalized, self.u, self.v, self.s
        return tuple(map(locate, (((p, u), (q, v)), ((p, u), (r, s)), ((q, v), (r, -s)))))


@dataclass(frozen=True)
class ElgiSpec:
    """Index of the conditioned middle variable."""

    middle: int


SLGI_SPECS: tuple[SlgiSpec, ...] = tuple(
    SlgiSpec((1, s2, s3)) for s2, s3 in product((1, -1), repeat=2)
)

# WLGI_SPECS[k], k = 8 (pair index) + 4 (u = -1) + 2 (v = -1) + (s = -1).  Forms
# tie in classes: (0, 11), (1, 9), (2, 10), (3, 8), (4, 15), (5, 13), (6, 14)
# and (7, 12) pair a (1, 2) form with the (1, 3) form of the same u, v' = -s and
# s' = -v; the two differ by P(1:u) read off the (1, 2) and off the (1, 3)
# experiment, which the arrow of time makes equal, in every bias mode.  At zero
# bias 23, 19, 20 and 16 also join the classes of 1, 3, 4 and 6; at other biases
# they differ by ~0.2-0.3.  Within a class the floats differ by rounding only
# (<= 3.6e-16; about half of them not bitwise equal), so which member holds the
# float maximum is decided by rounding; `pick` reports the class's lowest index,
# within VIOLATION_TOL of the maximum, however the members round
# (tests/test_grid.py TestWlgiTies).
WLGI_SPECS: tuple[WlgiSpec, ...] = tuple(
    WlgiSpec(pair, u, v, s)
    for pair in PAIRS
    for u in (1, -1)
    for v in (1, -1)
    for s in (1, -1)
)

ELGI_SPECS: tuple[ElgiSpec, ...] = tuple(ElgiSpec(m) for m in (1, 2, 3))


_SIGNS = np.array([1.0, -1.0])  # the outcomes of a Lueders step, + then -
_CROSS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # (i, j, k): (axis x r)_i = a_j r_k - a_k r_j


def rotate_bloch(r: np.ndarray, axis: np.ndarray, angle) -> np.ndarray:
    """Rodrigues rotation of Bloch vectors; r (..., 3), axis one unit
    vector, angle broadcastable.  The result is a new C-ordered (..., 3)
    array, rotated in place as planes by `rotate_planes`."""
    r = np.asarray(r, dtype=float)
    angle = np.asarray(angle, dtype=float)
    cos = np.cos(angle)
    out = np.empty(np.broadcast_shapes(r.shape[:-1], angle.shape) + (3,))
    out[...] = r
    planes = out.transpose(-1, *range(out.ndim - 1))
    rotate_planes(planes, np.asarray(axis, dtype=float).tolist(), (cos, np.sin(angle), 1.0 - cos))
    return out


def rotate_planes(r: np.ndarray, axis: list, turn: tuple, first: int = 0) -> np.ndarray:
    """Rotate Bloch vectors held as planes, r (3, ...) with r[i] the i-th
    components, in place, about the unit `axis` (three floats) by the angle
    whose (cos, sin, 1 - cos) are `turn` (each broadcasting against r[0]);
    returns r[first:].  Only the planes r[first:] are rotated: first = 2
    rotates the z plane alone and leaves r[0] and r[1] as they were.  Each
    plane is r_i cos + (axis x r)_i sin + axis_i (axis.r) (1 - cos), summed
    in that order: bit-identical to that expression with np.cross and
    np.sum.  The cross product and axis.r are taken plane by plane into two
    buffers, before any plane is written."""
    cos, sin, one_minus_cos = turn
    a = axis
    rotated = r[first:]
    vec, part = np.empty(rotated.shape), np.empty(r.shape[1:])
    for i, j, k in _CROSS[first:]:
        column = np.multiply(a[j], r[k], out=vec[i - first, ...])
        np.multiply(a[k], r[j], out=part)
        column -= part
    # axis.r in np.sum's order, from its +0 start: a sum of three -0 is +0
    dot = np.multiply(a[0], r[0])
    dot += np.multiply(a[1], r[1], out=part)
    dot += np.multiply(a[2], r[2], out=part)
    dot += 0.0
    del part
    rotated *= cos
    vec *= sin
    rotated += vec
    np.multiply.outer(a[first:], dot, out=vec)
    del dot
    vec *= one_minus_cos
    rotated += vec
    return rotated


def luders_coefficients(eta, x, sign) -> tuple:
    """(c, d, p, q) of outcome `sign`: its effect is c I + d sigma_z and the
    effect's square root p I + q sigma_z.  sign is +-1 or an array of them
    that broadcasts against eta and x."""
    eta = np.asarray(eta, dtype=float)
    x = np.asarray(x, dtype=float)
    c = 0.5 * (1.0 + sign * x)
    d = 0.5 * sign * eta
    # np.clip(a, 0.0, None) is np.maximum(a, 0.0) inside numpy, without its wrapper
    lam_p = np.maximum(c + d, 0.0)
    lam_m = np.maximum(c - d, 0.0)
    p = 0.5 * (np.sqrt(lam_p) + np.sqrt(lam_m))
    q = 0.5 * (np.sqrt(lam_p) - np.sqrt(lam_m))
    return c, d, p, q


def luders_terms(eta, x) -> tuple:
    """What a Lueders step along z_hat reads, for both outcomes: (c, d,
    p^2 - q^2, 2 p q, 2 q^2) of `luders_coefficients`, each stacked with
    outcome + then - on a first axis of 2.  eta and x broadcast against the
    batch shape and must have its number of dimensions."""
    eta, x = np.asarray(eta, dtype=float), np.asarray(x, dtype=float)
    sign = _SIGNS.reshape((2,) + (1,) * max(eta.ndim, x.ndim))
    c, d, p, q = luders_coefficients(eta, x, sign)
    return c, d, p**2 - q**2, 2 * p * q, 2 * q**2


def luders_probabilities(z: np.ndarray, terms) -> np.ndarray:
    """Unclipped outcome probabilities c + d r_z of a Lueders step along
    z_hat (`luders_terms`) of the states whose z plane is z (S, *batch):
    (S, 2, *batch), state by state, outcome + then -."""
    c, d = terms[:2]
    prob = d * z[:, None]
    prob += c
    return prob


def luders_posts(r: np.ndarray, terms, prob: np.ndarray) -> np.ndarray:
    """Post-measurement states (3, 2 S, *batch) of the Lueders step of the
    plane-form states r (3, S, *batch) that gave `luders_probabilities`
    prob: state s, outcome o at 2 s + o.  Each is (p^2 - q^2) r, plus
    2 p q + 2 q^2 r_z on the z plane, over prob; 0 where the outcome has
    probability <= 1e-15."""
    _, _, scale, shift, slope = terms
    post = scale * r[:, :, None]
    z_term = slope * r[2][:, None]
    z_term += shift
    post[2] += z_term
    del z_term
    kept = prob > 1e-15
    post /= np.where(kept, prob, 1.0)
    np.copyto(post, 0.0, where=~kept)
    return post.reshape((3, -1) + post.shape[3:])


@cache
def _reaches(prefixes: frozenset, done: tuple, t: int) -> bool:
    """Whether the `lg_distributions` walk still needs node (done, t): some
    requested experiment (or prefix of one) measures exactly `done` before t
    and a time at or after t."""
    return any(p[:len(done)] == done and len(p) > len(done) and p[len(done)] >= t
               for p in prefixes)


def _store(out: dict, key: tuple, prob: np.ndarray, weights) -> None:
    """out[key] = the clipped probabilities prob (S, 2, *batch) times the
    weights (S, *batch) of their states (None: weight 1), flat as
    (2 S, *batch): outcome-major, earliest time slowest."""
    if weights is not None:
        prob *= weights[:, None]
    out[key] = prob.reshape((-1,) + prob.shape[2:])


def _measure(states, groups, t, terms, prefixes, out):
    """Measure the live states (3, S, *batch) at time t, whose node groups
    (done, weights, slice of states) partition them, and store each
    requested experiment that ends at t.  Both outcomes' probabilities of
    every state are one array, clipped in one op and weighted once per
    group.  Then yield each child group at t + 1 that `_reaches` keeps, as
    (done, weights, states (3, S', *batch)), not yet rotated: a group's
    post-states (one `luders_posts` per group) and then the group itself if
    t is skipped.  A generator, so that the caller can take each child's
    leaves before the next child's post-states exist."""
    prob = luders_probabilities(states[2], terms)
    weighted = prob.clip(0.0, 1.0)
    for done, weights, part in groups:
        if done + (t,) in prefixes:
            _store(out, done + (t,), weighted[part], weights)
    del weighted
    for done, weights, part in groups:
        if done + (t,) in prefixes and _reaches(prefixes, done + (t,), t + 1):
            yield (done + (t,), out[done + (t,)],
                   luders_posts(states[:, part], terms, prob[part]))
        if _reaches(prefixes, done, t + 1):
            yield done, weights, states[:, part]


def _stack(children) -> tuple:
    """The node groups (done, weights, states (3, S, *batch)) that reach one
    time as one (3, states, *batch) array of their states, in group order,
    and the groups as (done, weights, slice of that array).  A lone group's
    states are returned as they are."""
    children = list(children)
    groups, start = [], 0
    for done, weights, r in children:
        groups.append((done, weights, slice(start, start + r.shape[1])))
        start += r.shape[1]
    if len(children) == 1:
        return children[0][2], groups
    return np.concatenate([r for *_, r in children], axis=1), groups


def _lift(v, ndim: int) -> np.ndarray:
    """v as a float array with `ndim` dimensions, leading ones added."""
    v = np.asarray(v, dtype=float)
    return v.reshape((1,) * (ndim - v.ndim) + v.shape)


def lg_distributions(bloch0, tau, axis, eta, x,
                     experiments=SUBSETS) -> dict[tuple[int, ...], np.ndarray]:
    """The stand-alone experiments (keys of SUBSETS) that `experiments` names,
    and (1,), from one walk over the measurement tree, keyed in SUBSETS
    order; entry s has shape (..., 2**len(s)).  By default all seven.  The
    walk skips every node, post-state and rotation that no requested
    experiment reaches, and returns every experiment it measured: each
    requested one, its prefixes, and always (1,) at the root.  A returned
    entry is bit-identical to the same entry of the full walk.  Each entry
    is stored outcome-major, (2**len(s), ...), and returned as a view with
    the outcome axis last.

    bloch0 has shape (..., 3); tau, eta, x broadcast against its batch
    shape.  The walk goes one measurement time at a time; a node group is
    an experiment that has measured `done` and reaches time t with branch
    weights and states.  Before the last time the groups' states are one
    (3, states, *batch) array, rotated in place; at the last time, each
    group in turn rotates only its z plane and is measured."""
    prefixes = frozenset(s[:k] for s in (*experiments, (1,)) for k in range(1, len(s) + 1))
    last = max(p[-1] for p in prefixes)
    bloch0 = np.asarray(bloch0, dtype=float)
    batch = np.broadcast_shapes(bloch0.shape[:-1], np.shape(tau), np.shape(eta), np.shape(x))
    tau, eta, x = (_lift(v, len(batch)) for v in (tau, eta, x))
    angle = 2.0 * tau
    cos = np.cos(angle)
    turn = cos, np.sin(angle), 1.0 - cos
    terms = luders_terms(eta, x)
    axis = np.asarray(axis, dtype=float).tolist()
    root = np.empty((3, 1) + batch)
    root[:, 0] = np.moveaxis(_lift(bloch0, len(batch) + 1), -1, 0)
    out = {}
    children = [((), None, root)]
    del root
    for t in range(1, last):
        states, groups = _stack(children)
        del children
        if t > 1:
            rotate_planes(states, axis, turn)
        children = _measure(states, groups, t, terms, prefixes, out)
    for done, weights, r in children:
        z = r[2] if last == 1 else rotate_planes(r, axis, turn, first=2)[0]
        del r
        prob = luders_probabilities(z, terms)
        del z
        _store(out, done + (last,), prob.clip(0.0, 1.0, out=prob), weights)
    outcomes_last = tuple(range(1, len(batch) + 1)) + (0,)
    return {s: out[s].transpose(outcomes_last) for s in SUBSETS if s in out}


def locate(outcomes) -> tuple[tuple[int, ...], int]:
    """Where P(outcomes) is stored, for an outcome assignment
    ((time, sign), ...): the key of the experiment that measures exactly
    those times, and the outcome's flat index in it."""
    key, index = (), 0
    for time, sign in sorted(outcomes):
        key, index = key + (time,), 2 * index + (sign == -1)
    return key, index


@cache
def _correlator_terms(pair: tuple[int, int]) -> tuple:
    """Locations of P(+,+), P(-,-), P(+,-), P(-,+) in the pair experiment."""
    (a, b) = pair
    return tuple(locate(((a, u), (b, v))) for u, v in ((1, 1), (-1, -1), (1, -1), (-1, 1)))


def slgi_values(dists: dict, specs=SLGI_SPECS) -> np.ndarray:
    """(..., len(specs)) SLGI values, by default in the canonical spec order.

    Only the three pair experiments are read, through their correlators
    <M_i M_j> = P(+,+) + P(-,-) - P(+,-) - P(-,+).
    """
    c = {}
    for pair in PAIRS:
        pp, mm, pm, mp = (dists[key][..., i] for key, i in _correlator_terms(pair))
        c[pair] = pp + mm - pm - mp
    cols = []
    for spec in specs:
        s1, s2, s3 = spec.signs
        cols.append(s1 * s2 * c[(1, 2)] + s2 * s3 * c[(2, 3)] - s1 * s3 * c[(1, 3)])
    return np.stack(cols, axis=-1)


# specs per gather of a negative WLGI term: with the default 24 specs, the
# temporaries (the stacked rows and this buffer) are as large as the values
WLGI_TERM_ROWS = 12


@cache
def _wlgi_rows(specs: tuple) -> np.ndarray:
    """(3, len(specs)) rows of every spec's P(p:u, q:v), P(p:u, r:s) and
    P(q:v, r:-s) in the three pairs' outcomes stacked outcome-major, 4 rows
    per pair in PAIRS order."""
    rows = np.array([[4 * PAIRS.index(key) + i for key, i in spec.terms] for spec in specs]).T
    rows.flags.writeable = False
    return rows


def wlgi_values(dists: dict, specs=WLGI_SPECS) -> np.ndarray:
    """(..., len(specs)) WLGI values, by default in the canonical spec order:
    P(p:u, q:v) - P(p:u, r:s) - P(q:v, r:-s), r the marginalized time.

    Only the three pair experiments are read: their outcomes are stacked
    as (12, ...) rows, each spec's three terms gathered by `_wlgi_rows`,
    and the result, computed spec-major, is returned as a view with the
    spec axis last.
    """
    pos, neg1, neg2 = _wlgi_rows(tuple(specs))
    rows = np.concatenate([np.moveaxis(dists[pair], -1, 0) for pair in PAIRS])
    values = np.take(rows, pos, axis=0)
    # the negative terms go WLGI_TERM_ROWS specs at a time through one buffer;
    # mode="clip" (the rows are all in range) lets np.take write into it unbuffered
    term = np.empty((min(len(pos), WLGI_TERM_ROWS),) + rows.shape[1:])
    for at in range(0, len(pos), WLGI_TERM_ROWS):
        block = values[at:at + WLGI_TERM_ROWS]
        for neg in (neg1, neg2):
            block -= np.take(rows, neg[at:at + WLGI_TERM_ROWS], axis=0, out=term[:len(block)],
                             mode="clip")
    return np.moveaxis(values, 0, -1)


_LEAST_POSITIVE = np.nextafter(0.0, 1.0)


def _plogp(p: np.ndarray) -> np.ndarray:
    """p ln p of a float array, 0 where p <= 0.  The log reads p floored at
    the least positive float, so it needs no where= mask (which takes
    numpy's slower masked loop), and multiplies p floored at 0: a p > 0
    gives p ln p, a p <= 0 a zero of either sign."""
    terms = np.maximum(p, _LEAST_POSITIVE)
    np.log(terms, out=terms)
    terms *= np.maximum(p, 0.0)
    return terms


def entropy(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) along the last axis with 0 ln 0 = 0: minus
    np.sum of `_plogp`, which is fast only where the last axis is strided
    (see the module docstring)."""
    return -_plogp(np.asarray(probs, dtype=float)).sum(axis=-1)


def _elgi(h_ac, h_ab, h_bc, h_b):
    """The ELGI value from its four entropies: H(a,c) - H(a,b) - H(b,c) + H(b)."""
    return h_ac - h_ab - h_bc + h_b


# The experiments ELGI reads (its Family.reads) in the column order of its stacked
# (..., 18) table: the singles, 2 columns each, then the pairs, 4 columns each
ELGI_STACK = ((1,), (2,), (3,)) + PAIRS


@cache
def _elgi_rows(specs: tuple) -> np.ndarray:
    """(4, len(specs)) rows in ELGI_STACK of every spec's H(a,c), H(a,b),
    H(b,c) and H(b), b the middle."""
    rows = []
    for spec in specs:
        b = spec.middle
        a, c = sorted({1, 2, 3} - {b})
        keys = (a, c), tuple(sorted((a, b))), tuple(sorted((b, c))), (b,)
        rows.append([ELGI_STACK.index(key) for key in keys])
    rows = np.array(rows).T
    rows.flags.writeable = False
    return rows


def elgi_values(dists, specs=ELGI_SPECS) -> np.ndarray:
    """(..., len(specs)) ELGI values H(a,c) - H(a,b) - H(b,c) + H(b) (`_elgi`);
    the default specs order the middle index b 1, 2, 3.

    `dists` is a dict of distributions that holds the ELGI_STACK
    experiments, or their stacked (..., 18) table.  Both end in the six
    entropies of ELGI_STACK as rows: a dict by `entropy` on each experiment,
    a table by one `_plogp` over it and np.sum over its singles' columns as
    (3, 2) and its pairs' as (3, 4), with no copy of the table.  np.sum
    adds a row of 2 or 4 entries left to right from +0, so both give the
    same floats, and it is fast because the outcome axis of the kernel's
    entries and of the tau-fastest table is strided (see the module
    docstring).  Every spec's four entropies are gathered from the rows by
    `_elgi_rows`, so `_elgi` runs once, on (len(specs), ...) arrays, and the
    values come back spec-major, as a view with the spec axis last: a max
    over specs reduces whole rows."""
    if isinstance(dists, dict):
        h = np.stack([entropy(dists[key]) for key in ELGI_STACK])
    else:
        plogp = _plogp(np.asarray(dists, dtype=float))
        batch = plogp.shape[:-1]
        h = np.concatenate([plogp[..., :6].reshape(batch + (3, 2)).sum(axis=-1),
                            plogp[..., 6:].reshape(batch + (3, 4)).sum(axis=-1)], axis=-1)
        h = -h.transpose(-1, *range(h.ndim - 1))
    values = _elgi(*h[_elgi_rows(tuple(specs))])
    return values.transpose(*range(1, values.ndim), 0)


@dataclass(frozen=True)
class Family:
    """An inequality family: its macrorealist bound, canonical specs, the
    stand-alone experiments it reads and its reduction
    reduce(dists, specs) -> (..., len(specs)).

    `linear`: the reduction is a linear combination of outcome
    probabilities.  Every probability of `lg_distributions` is a
    trigonometric polynomial of degree 2 in u = 2 tau (each rotation by u
    acts linearly on the unnormalized Bloch vectors), so at fixed state,
    eta, x and axis so is every value of a linear family.
    """

    bound: float
    specs: tuple
    reads: tuple[tuple[int, ...], ...]
    reduce: Callable[[dict, tuple], np.ndarray]
    linear: bool

    def values(self, dists: dict, specs: tuple | None = None) -> np.ndarray:
        return self.reduce(dists, self.specs if specs is None else specs)


# The reductions are looked up by name when called, so a wrapper installed on
# the module attribute (as perfbench's tracer does) sees every call.
FAMILY_TABLE: dict[str, Family] = {
    "slgi": Family(1.0, SLGI_SPECS, PAIRS, lambda d, s: slgi_values(d, s), linear=True),
    "wlgi": Family(0.0, WLGI_SPECS, PAIRS, lambda d, s: wlgi_values(d, s), linear=True),
    "elgi": Family(0.0, ELGI_SPECS, ELGI_STACK, lambda d, s: elgi_values(d, s), linear=False),
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


# D family -> (stand-alone experiment, the time t the larger one adds, before
# its last): D = P(o) - P(o, t=+) - P(o, t=-); lgscan.nsit has the formulas.
DISTURBANCES = {"d1_pair": ((2, 3), 1), "d2_pair": ((1, 3), 2), "d1_m2": ((2,), 1),
                "d1_m3": ((3,), 1), "d2_m3": ((3,), 2)}

# AoT identities (stand-alone experiment, a later time t): measuring t too
# leaves the marginal unchanged, |P(o, t=+) + P(o, t=-) - P(o)| = 0.
AOT_IDENTITIES = (((1, 2), 3), ((1,), 2), ((1,), 3), ((2,), 3))


@cache
def _marginal_terms(experiment: tuple[int, ...], t: int) -> tuple:
    """Key of the experiment that also measures t, and the flat indices in it
    of each outcome of `experiment` (product order) with t = + and t = -."""
    outcomes = [tuple(zip(experiment, signs))
                for signs in product((1, -1), repeat=len(experiment))]
    keys, plus = zip(*(locate(o + ((t, 1),)) for o in outcomes))
    _, minus = zip(*(locate(o + ((t, -1),)) for o in outcomes))
    return keys[0], np.array(plus), np.array(minus)


def _split(dists: dict, experiment: tuple[int, ...], t: int) -> tuple:
    """P(o) from the stand-alone experiment and P(o, t=+), P(o, t=-) from
    the one that also measures t, over the outcomes o in product order.  Each
    comes transposed, outcomes first, so that a gather copies whole rows and
    the arithmetic on the terms runs along the batch."""
    key, plus, minus = _marginal_terms(experiment, t)
    larger = dists[key].T
    return dists[experiment].T, larger[plus], larger[minus]


def disturbances(dists: dict) -> dict[str, np.ndarray]:
    """The D families of `DISTURBANCES`, each over the stand-alone
    experiment's outcomes in product order."""
    out = {}
    for name, (experiment, t) in DISTURBANCES.items():
        p, plus, minus = _split(dists, experiment, t)
        out[name] = (p - plus - minus).T
    return out


def aot_residual(dists: dict) -> np.ndarray:
    """Worst arrow-of-time residual per batch point over `AOT_IDENTITIES`."""
    res = []
    for experiment, t in AOT_IDENTITIES:
        p, plus, minus = _split(dists, experiment, t)
        res.append(np.abs(plus + minus - p).max(axis=0).T)
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
