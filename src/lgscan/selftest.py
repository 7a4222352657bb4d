"""Built-in invariant suites, runnable from the CLI (`lgscan selftest`).

Each check returns (name, ok, detail).  These duplicate the fast core of the
pytest suite so a deployed installation can be sanity-checked without test
infrastructure; a failure means the numerical pipeline is broken, not that
some physics claim is false.
"""

from __future__ import annotations

import numpy as np

from . import grid as gridmod
from .errors import ConfigError
from .inequalities import (
    WLGI_SPECS,
    pair_distributions,
    shannon_entropy,
    slgi_closed_form_spin,
    wlgi_from_pairs,
)
from .linalg import (
    IDENTITY,
    Operator,
    from_pauli,
    qubit_unitary,
    sqrt_psd,
    to_pauli,
    X_HAT,
)
from .measurement import QubitState, Schedule, effect_at_time, run_schedule
from .nsit import disturbance_report, wlgi_threshold_check

Check = tuple[str, bool, str]


def _random_params(rng: np.random.Generator, n: int):
    theta = rng.uniform(0, np.pi, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    tau = rng.uniform(0, np.pi, n)
    eta = rng.uniform(0, 1, n)
    x = rng.uniform(-1, 1, n) * (1 - eta)
    return theta, phi, tau, eta, x


def check_pauli_roundtrip(rng: np.random.Generator, n: int = 500) -> Check:
    worst = 0.0
    for _ in range(n):
        a0 = rng.normal()
        vec = rng.normal(size=3)
        op = from_pauli(a0, vec)
        c = to_pauli(op)
        worst = max(worst, abs(c.a0 - a0), float(np.max(np.abs(c.vec - vec))))
    return ("pauli-roundtrip", worst < 1e-13, f"max residual {worst:.2e}")


def check_sqrt_psd(rng: np.random.Generator, n: int = 500) -> Check:
    worst = 0.0
    for _ in range(n):
        lam = rng.uniform(0, 2, size=2)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        op = from_pauli(0.5 * (lam[0] + lam[1]), 0.5 * (lam[0] - lam[1]) * axis)
        root = sqrt_psd(op)
        worst = max(worst, float(np.max(np.abs((root @ root).mat - op.mat))))
    return ("sqrt-psd", worst < 1e-12, f"max |S.S - A| {worst:.2e}")


def check_unitary(rng: np.random.Generator, n: int = 200) -> Check:
    worst = 0.0
    for _ in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        u = qubit_unitary(axis, rng.uniform(-10, 10))
        worst = max(worst, float(np.max(np.abs((u @ u.adjoint()).mat - IDENTITY.mat))))
    return ("unitarity", worst < 1e-14, f"max |U U+ - I| {worst:.2e}")


def check_phase_convention() -> Check:
    tau = 0.7321
    u = qubit_unitary(X_HAT, tau)
    conj = u.adjoint() @ Operator(np.diag([1.0, -1.0]).astype(complex)) @ u
    vec = to_pauli(conj).vec
    target = np.array([0.0, np.sin(2 * tau), np.cos(2 * tau)])
    worst = float(np.max(np.abs(vec - target)))
    return ("heisenberg-rotation", worst < 1e-12, f"max residual {worst:.2e}")


def check_normalization(rng: np.random.Generator, n: int = 2000) -> Check:
    theta, phi, tau, eta, x = _random_params(rng, n)
    bloch = gridmod.pure_bloch(theta, phi)
    worst = 0.0
    for probs in gridmod.lg_distributions(bloch, tau, X_HAT, eta, x).values():
        worst = max(worst, float(np.max(np.abs(probs.sum(axis=-1) - 1.0))))
    return ("normalization", worst < 1e-10, f"max |sum - 1| {worst:.2e}")


def check_aot(rng: np.random.Generator, n: int = 2000) -> Check:
    theta, phi, tau, eta, x = _random_params(rng, n)
    bloch = gridmod.pure_bloch(theta, phi)
    dists = gridmod.lg_distributions(bloch, tau, X_HAT, eta, x)
    worst = float(np.max(gridmod.aot_residual(dists)))
    return ("arrow-of-time", worst < 1e-10, f"max residual {worst:.2e}")


def check_grid_vs_pipeline(rng: np.random.Generator, n: int = 60) -> Check:
    worst = 0.0
    for _ in range(n):
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        tau = rng.uniform(0, np.pi)
        eta = rng.uniform(0, 1)
        x = rng.uniform(-1, 1) * (1 - eta)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        state = QubitState.pure(theta, phi)
        subset = tuple(
            sorted(rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False))
        )
        sched = Schedule(measured=subset, tau=tau, axis=axis, x=x, eta=eta)
        table = run_schedule(state, sched).probabilities()
        fast = gridmod.lg_distributions(state.bloch(), tau, axis, eta, x)[subset]
        worst = max(worst, float(np.max(np.abs(table - fast))))
    return ("grid-vs-pipeline", worst < 1e-12, f"max deviation {worst:.2e}")


def check_heisenberg_schroedinger(rng: np.random.Generator, n: int = 40) -> Check:
    worst = 0.0
    for _ in range(n):
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        tau = rng.uniform(0, np.pi)
        eta = rng.uniform(0, 1)
        x = rng.uniform(-1, 1) * (1 - eta)
        state = QubitState.pure(theta, phi)
        sched = Schedule(measured=(1, 2), tau=tau, x=x, eta=eta)
        for pair in ((1, 2), (1, 3), (2, 3)):
            dist = run_schedule(state, sched.with_measured(pair))
            for (k, l), p in dist.table.items():
                ei = effect_at_time(sched, pair[0], k)
                ej = effect_at_time(sched, pair[1], l)
                root = ei.sqrt_operator()
                heis = ((root @ state.rho @ root) @ ej.operator()).trace().real
                worst = max(worst, abs(p - heis))
    return ("heisenberg-schroedinger", worst < 1e-12, f"max deviation {worst:.2e}")


def check_sharp_limit(rng: np.random.Generator, n: int = 50) -> Check:
    worst = 0.0
    for _ in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        sched = Schedule(measured=(1,), tau=0.3, x=0.0, eta=1.0)
        eff = sched.base_effect(1)
        worst = max(
            worst, float(np.max(np.abs(eff.sqrt_operator().mat - eff.operator().mat)))
        )
    state = QubitState.pure(np.pi / 4, 0.0)
    sched = Schedule(measured=(1, 2, 3), tau=np.pi / 4, x=0.0, eta=1.0)
    table = run_schedule(state, sched)
    worst = max(worst, max(abs(p - 0.125) for p in table.table.values()))
    return ("sharp-limit", worst < 1e-12, f"max deviation {worst:.2e}")


def check_entropy_bounds(rng: np.random.Generator, n: int = 300) -> Check:
    # bounds on marginals of one joint distribution (stand-alone single-time
    # statistics are different objects; their gap is the NSIT signal)
    worst = -np.inf
    for _ in range(n):
        theta, phi, tau, eta, x = (float(v[0]) for v in _random_params(rng, 1))
        state = QubitState.pure(theta, phi)
        sched = Schedule(measured=(1, 2), tau=tau, x=x, eta=eta)
        for a, b in ((1, 2), (1, 3), (2, 3)):
            dist = run_schedule(state, sched.with_measured((a, b)))
            h_ab = shannon_entropy(dist)
            h_a = shannon_entropy(dist.marginalize((a,)))
            h_b = shannon_entropy(dist.marginalize((b,)))
            worst = max(worst, h_a - h_ab, h_b - h_ab, h_ab - h_a - h_b)
    return ("entropy-chain", worst < 1e-10, f"max violation {worst:.2e}")


def check_threshold_equivalence(rng: np.random.Generator, n: int = 30) -> Check:
    worst = 0.0
    agree = True
    for _ in range(n):
        theta, phi, tau, eta, x = (float(v[0]) for v in _random_params(rng, 1))
        state = QubitState.pure(theta, phi)
        sched = Schedule(measured=(1, 2, 3), tau=tau, x=x, eta=eta)
        dists = pair_distributions(state, sched)
        spec = WLGI_SPECS[int(rng.integers(0, 24))]
        check = wlgi_threshold_check(state, sched, spec)
        value = wlgi_from_pairs(dists, spec)
        worst = max(worst, abs(value - (check.lhs - check.rhs)))
        agree &= check.predicted_violation == bool(gridmod.violated(value, 0.0))
    ok = worst < 1e-12 and agree
    return ("wlgi-threshold-equivalence", ok, f"max residual {worst:.2e}, agree={agree}")


def check_spin_closed_form(rng: np.random.Generator) -> Check:
    worst = 0.0
    etas = np.linspace(0.05, 1.0, 12)
    taus = np.linspace(0.05, np.pi - 0.05, 12)
    bloch = gridmod.pure_bloch(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
    for eta in etas:
        dists = gridmod.lg_distributions(bloch, taus, X_HAT, eta, 0.0)
        vals = gridmod.slgi_values(dists)[..., 0]
        target = np.array([slgi_closed_form_spin(eta, t) for t in taus])
        worst = max(worst, float(np.max(np.abs(vals - target))))
    return ("slgi-spin-closed-form", worst < 1e-10, f"max deviation {worst:.2e}")


def check_disturbance_closed_forms(rng: np.random.Generator, n: int = 40) -> Check:
    from .nsit import disturbance_closed_forms

    worst = 0.0
    for _ in range(n):
        theta, phi, tau = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi)
        state = QubitState.pure(theta, phi)
        sched = Schedule(measured=(1, 2, 3), tau=tau, x=0.0, eta=1.0)
        rep = disturbance_report(state, sched)
        closed = disturbance_closed_forms(theta, phi, tau)
        for fam, entries in rep.families().items():
            ref = closed.families()[fam]
            for key, val in entries.items():
                worst = max(worst, abs(val - ref[key]))
    return ("disturbance-closed-forms", worst < 1e-10, f"max deviation {worst:.2e}")


ALL_CHECKS = (
    check_pauli_roundtrip,
    check_sqrt_psd,
    check_unitary,
    lambda rng: check_phase_convention(),
    check_normalization,
    check_aot,
    check_grid_vs_pipeline,
    check_heisenberg_schroedinger,
    check_sharp_limit,
    check_entropy_bounds,
    check_threshold_equivalence,
    check_spin_closed_form,
    check_disturbance_closed_forms,
)


def run_all(seed: int = 20240601) -> list[Check]:
    if seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    return [fn(rng) for fn in ALL_CHECKS]
