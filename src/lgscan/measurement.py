"""Sequential POVM measurements on a qubit at up to three times.

The scenario: one dichotomic POVM with effects

    M(+/-) = (I +/- (x I + m.sigma)) / 2,   |x| + |m| <= 1,

is measured at a subset of three equally spaced times t1, t2, t3.  Between
consecutive times the system evolves by the unitary qubit_unitary(axis, tau)
with tau the dimensionless phase per step.  The post-measurement state is the
Lueders update rho -> sqrt(E) rho sqrt(E) / tr(rho E); other Kraus
decompositions of the same POVM would give different sequential statistics
and are deliberately not supported.

Two equivalent pictures are exposed:

* `run_schedule` evolves the state and measures the same base effect at each
  measured time (Schroedinger);
* `effect_at_time` returns the Heisenberg-evolved effect U^dag(k tau) M U(k tau),
  whose bias x is unchanged and whose Bloch vector is rigidly rotated.

Both give identical outcome statistics; the equivalence is enforced by tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import BadSubset, InvalidEffect, InvariantError
from .linalg import (
    IDENTITY,
    Operator,
    X_HAT,
    Z_HAT,
    from_pauli,
    qubit_unitary,
    sqrt_psd,
    to_pauli,
)

EFFECT_TOL = 1e-12
STATE_TOL = 1e-12
PROB_FLOOR = 1e-12
TABLE_ENTRY_TOL = 1e-12
TABLE_SUM_TOL = 1e-10

TIMES = (1, 2, 3)


@dataclass(frozen=True, eq=False)
class QubitState:
    """Density matrix with trace-1 / PSD invariants checked at construction."""

    rho: Operator

    def __post_init__(self) -> None:
        t = self.rho.trace()
        if abs(t - 1.0) > STATE_TOL:
            raise InvariantError(f"state trace {t} != 1")
        coeffs = to_pauli(self.rho, tol=1e-10)
        r = coeffs.norm
        # eigenvalues are 1/2 +/- |bloch|/2; PSD means |bloch| <= 1
        if r > 1.0 + 2 * STATE_TOL:
            raise InvariantError(f"state Bloch norm {r} > 1")

    @classmethod
    def pure(cls, theta: float, phi: float) -> "QubitState":
        """|psi> = cos(theta)|0> + e^{i phi} sin(theta)|1> as a density matrix.

        Bloch vector (sin 2theta cos phi, sin 2theta sin phi, cos 2theta).
        """
        psi = np.array([np.cos(theta), np.exp(1j * phi) * np.sin(theta)])
        return cls(Operator(np.outer(psi, psi.conj())))

    @classmethod
    def from_bloch(cls, bloch: np.ndarray) -> "QubitState":
        """rho = (I + bloch.sigma)/2 for any |bloch| <= 1."""
        bloch = np.asarray(bloch, dtype=float)
        if bloch.shape != (3,) or np.linalg.norm(bloch) > 1.0 + STATE_TOL:
            raise InvariantError("Bloch vector must have norm <= 1")
        return cls(from_pauli(0.5, 0.5 * bloch))

    @classmethod
    def maximally_mixed(cls) -> "QubitState":
        return cls(0.5 * IDENTITY)

    def bloch(self) -> np.ndarray:
        return 2.0 * to_pauli(self.rho, tol=1e-10).vec

    def purity(self) -> float:
        return float((self.rho @ self.rho).trace().real)


def make_pure_state(theta: float, phi: float) -> QubitState:
    return QubitState.pure(theta, phi)


@dataclass(frozen=True, eq=False)
class Effect:
    """One POVM element (I + sign*(x I + m.sigma))/2.

    `x` is the bias, `m` the (possibly unsharp) Bloch vector with sharpness
    eta = |m|.  Validity requires |x| + |m| <= 1, which makes both outcomes
    PSD; M(+) + M(-) = I holds exactly by construction.
    """

    x: float
    m: np.ndarray
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise InvalidEffect(f"sign must be +1 or -1, got {self.sign}")
        m = np.asarray(self.m, dtype=float)
        if m.shape != (3,):
            raise InvalidEffect("m must be a 3-vector")
        if abs(self.x) + np.linalg.norm(m) > 1.0 + EFFECT_TOL:
            raise InvalidEffect(
                f"|x| + |m| = {abs(self.x) + np.linalg.norm(m):.6g} exceeds 1"
            )
        object.__setattr__(self, "x", float(self.x))
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    def operator(self) -> Operator:
        plus = from_pauli(0.5 * (1.0 + self.x), 0.5 * self.m)
        if self.sign == 1:
            return plus
        # entrywise complement keeps M(+) + M(-) == I exact in floating point
        return IDENTITY - plus

    def sqrt_operator(self) -> Operator:
        """The Lueders square root sqrt(M)."""
        return sqrt_psd(self.operator())


@dataclass(frozen=True, eq=False)
class Schedule:
    """Which times are measured, plus the shared POVM and evolution parameters.

    All measured times use one (x, eta) pair; only the Bloch direction of the
    effect changes under Heisenberg evolution.  `tau` is the evolution phase
    per unit time step and `axis` the Hamiltonian axis; the effect at t1 is
    measured along z_hat.
    """

    measured: tuple[int, ...]
    tau: float
    axis: np.ndarray = dataclasses.field(default_factory=lambda: X_HAT.copy())
    x: float = 0.0
    eta: float = 1.0

    def __post_init__(self) -> None:
        times = tuple(sorted(set(int(t) for t in self.measured)))
        if not times or any(t not in TIMES for t in times):
            raise BadSubset(f"measured must be a nonempty subset of {TIMES}")
        object.__setattr__(self, "measured", times)
        if not np.isfinite(self.tau):
            raise ValueError("tau must be finite")
        object.__setattr__(self, "tau", float(self.tau))
        axis = np.array(self.axis, dtype=float)  # a copy: the caller's array stays writable
        if axis.shape != (3,) or abs(np.linalg.norm(axis) - 1.0) > 1e-12:
            raise ValueError("axis must be a unit 3-vector")
        axis.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "eta", float(self.eta))
        if self.eta < 0:
            raise InvalidEffect("eta must be >= 0")
        if abs(self.x) + self.eta > 1.0 + EFFECT_TOL:
            raise InvalidEffect(f"|x| + eta = {abs(self.x) + self.eta:.6g} exceeds 1")

    def with_measured(self, measured: tuple[int, ...]) -> "Schedule":
        return dataclasses.replace(self, measured=measured)

    def base_effect(self, sign: int) -> Effect:
        return Effect(self.x, self.eta * Z_HAT, sign)


def effect_at_time(schedule: Schedule, time_index: int, outcome: int) -> Effect:
    """Heisenberg effect at t_k: U^dag((k-1) tau) M(outcome) U((k-1) tau).

    Evolution never touches the bias, so the returned effect carries
    schedule.x exactly; only the Bloch vector is rotated.
    """
    if time_index not in TIMES:
        raise ValueError(f"time_index must be one of {TIMES}")
    base = schedule.base_effect(outcome)
    if time_index == 1:
        return base
    u = qubit_unitary(schedule.axis, (time_index - 1) * schedule.tau)
    conj = u.adjoint() @ base.operator() @ u
    coeffs = to_pauli(conj)
    # M = ((1 + s x) I + s m.sigma)/2  =>  m = 2 s vec
    m_new = 2.0 * outcome * coeffs.vec
    return Effect(schedule.x, m_new, outcome)


def luders_update(state: QubitState, effect: Effect) -> tuple[float, QubitState | None]:
    """One Lueders step: probability and the normalized post-measurement state.

    Returns (0, None) when the outcome probability is at the floor; a branch
    with probability <= 1e-12 contributes nothing to any extension and no
    post-state is fabricated for it.
    """
    prob = (state.rho @ effect.operator()).trace().real
    prob = min(max(prob, 0.0), 1.0)
    if prob <= PROB_FLOOR:
        return prob, None
    root = effect.sqrt_operator()
    post = (1.0 / prob) * (root @ state.rho @ root)
    # kill rounding on the Hermitian part before re-validating
    sym = 0.5 * (post + post.adjoint())
    return prob, QubitState(sym)


def run_schedule(state: QubitState, schedule: Schedule) -> "JointDistribution":
    """Joint distribution over +/-1 outcomes of the measured times.

    Walks t = 1, 2, 3 carrying an unnormalized conditional state; measured
    times apply sqrt(M) rho sqrt(M) for each outcome (no division, so
    zero-probability branches die out naturally), unmeasured times contribute
    unitary evolution only.  Entry t_i -> t_{i+1} applies one step of
    qubit_unitary(axis, tau).
    """
    u = qubit_unitary(schedule.axis, schedule.tau)
    u_dag = u.adjoint()
    roots = {s: schedule.base_effect(s).sqrt_operator() for s in (1, -1)}
    table: dict[tuple[int, ...], float] = {}

    def walk(rho: Operator, t: int, outcomes: tuple[int, ...]) -> None:
        if t > 3:
            table[outcomes] = table.get(outcomes, 0.0) + rho.trace().real
            return
        if t in schedule.measured:
            branches = [(s, roots[s] @ rho @ roots[s]) for s in (1, -1)]
        else:
            branches = [(None, rho)]
        for s, branch in branches:
            nxt = (u @ branch @ u_dag) if t < 3 else branch
            walk(nxt, t + 1, outcomes if s is None else outcomes + (s,))

    walk(state.rho, 1, ())
    return JointDistribution(schedule, table)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability table over outcome tuples of a schedule's measured times.

    Keys are tuples of +/-1 aligned with `schedule.measured` (ascending
    time).  Entries below -1e-12 or a total off 1 by more than 1e-10 indicate
    a pipeline bug and raise InvariantError; tiny negative rounding residue
    is clamped to 0.  The table is never renormalized.
    """

    schedule: Schedule
    table: dict[tuple[int, ...], float]

    def __post_init__(self) -> None:
        k = len(self.schedule.measured)
        clean: dict[tuple[int, ...], float] = {}
        for key in product((1, -1), repeat=k):
            p = float(self.table.get(key, 0.0))
            if p < -TABLE_ENTRY_TOL:
                raise InvariantError(f"probability {p:g} for outcome {key}")
            clean[key] = max(p, 0.0)
        extra = set(self.table) - set(clean)
        if extra:
            raise InvariantError(f"unexpected outcome keys {sorted(extra)}")
        total = sum(clean.values())
        if abs(total - 1.0) > TABLE_SUM_TOL:
            raise InvariantError(f"table sums to {total!r}, not 1")
        object.__setattr__(self, "table", clean)

    def prob(self, outcome: tuple[int, ...]) -> float:
        return self.table[tuple(outcome)]

    def probabilities(self) -> np.ndarray:
        """Probabilities in canonical product((1,-1), ...) order."""
        return np.array(list(self.table.values()))

    def marginalize(self, keep: tuple[int, ...]) -> "JointDistribution":
        """Sum out every measured time not in `keep`."""
        keep = tuple(sorted(set(keep)))
        if not keep or not set(keep) <= set(self.schedule.measured):
            raise BadSubset(
                f"keep {keep} is not a nonempty subset of measured {self.schedule.measured}"
            )
        positions = [self.schedule.measured.index(t) for t in keep]
        out: dict[tuple[int, ...], float] = {}
        for key, p in self.table.items():
            sub = tuple(key[i] for i in positions)
            out[sub] = out.get(sub, 0.0) + p
        return JointDistribution(self.schedule.with_measured(keep), out)


def marginalize(dist: JointDistribution, keep: tuple[int, ...]) -> JointDistribution:
    return dist.marginalize(keep)


def correlator(state: QubitState, schedule: Schedule) -> float:
    """<M_i M_j> = sum_{k,l} k*l*P(k,l) for a two-time schedule."""
    if len(schedule.measured) != 2:
        raise BadSubset("correlator needs a schedule with exactly two measured times")
    dist = run_schedule(state, schedule)
    return float(sum(k * l * p for (k, l), p in dist.table.items()))
