"""Parameter-space scans, eta-threshold bisection, and CSV/JSON reporting.

A scan walks the grid theta x phi x tau x eta in row-major order (theta
outermost) and, for every requested inequality family, emits one record with
the family's maximum value over its specs, the spec index lgscan.grid.pick
reports, the five NSIT condition booleans, and the joint-measurability
summary.  Output order is the grid order, and two runs of the same
configuration produce byte-identical files.

Records are held as a `ScanTable`, one numpy array per report column.  A
scan and the canned figures walk their grid in blocks of `CHUNK` points
(`_grid_table`): one kernel call per block, whose loop computes every
per-point cell, the NSIT and JM flags among them, in one place; the JM
flags are evaluated on the block's first (tau, eta) cycle and tiled over
the block.  `_fill` only writes a block's cells and picks straight into
the preallocated columns.
`report` splits the columns into four runs and formats each run of a
`CHUNK`-row block once per distinct combination of its cells, places the
four cells of each row row-major in one object array and joins `WRITE_ROWS`
rows of it at a time; `parse_report` reads a CSV report back into a table.
`ScanRecord` is the row view.

Bias modes (`bias_x`, the one rule every command uses): "zero" (x = 0),
"eta-1" (x = eta - 1, always a valid effect), or a fixed explicit x; in
fixed mode grid points with |x| + eta > 1 are skipped and counted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import grid as gridmod
from . import jointmeas
from .errors import ConfigError, NoBracket

FAMILIES = tuple(gridmod.FAMILY_TABLE)

CSV_COLUMNS = (
    "theta", "phi", "tau", "eta", "x", "axis_alpha", "axis_beta",
    "family", "spec_index", "value", "bound", "violated",
    "nsit_12", "nsit_13", "nsit_23", "nsit_123", "nsit_1_2_3",
    "jm_12", "jm_23", "jm_13", "jm_triple",
)

FLOAT_COLUMNS = ("theta", "phi", "tau", "eta", "x", "axis_alpha", "axis_beta",
                 "value", "bound")
FLAG_COLUMNS = CSV_COLUMNS[CSV_COLUMNS.index("violated"):]
# flag cells are int8 codes into FLAG_VALUES; jm_triple is None for biased effects
FLAG_VALUES = (False, True, None)

# grid points per kernel call in `scan` and `figure_records`, and rows per
# block formatted by `report`
CHUNK = 2**14
WRITE_ROWS = 2**10  # rows per string that `report` joins and writes

DEFAULT_TAU_STEP = math.pi / 360  # threshold-resolution grid

ETA_LO, ETA_HI, BRACKET_SAMPLES = 1e-6, 1.0, 9  # threshold_eta's bracket and sign samples
HALVINGS_PER_CALL = 3  # threshold_eta's halvings decided per kernel call

# Every probability of gridmod.lg_distributions, so every linear family value, is
# a trigonometric polynomial of degree 2 in u = 2 tau, fixed by these 5 samples
EXACT_TAUS = (np.arange(5) + 0.5) * (math.pi / 5)
# (a0, a1, b1, a2, b2) of f(u) = a0 + a1 cos u + b1 sin u + a2 cos 2u
# + b2 sin 2u are _FOURIER @ f(u), u = 2 EXACT_TAUS
_U = 2 * EXACT_TAUS
_FOURIER = 0.4 * np.stack([np.full(5, 0.5), np.cos(_U), np.sin(_U), np.cos(2 * _U),
                           np.sin(2 * _U)])
ZOOM_ROUNDS, _ZOOM = 7, np.linspace(-1.0, 1.0, 21)  # `_zoom_tau_max` rounds, taus per round


def _interpolate(dists: dict, tau) -> dict:
    """Distributions at `tau`, (T,) or (..., T), from those at EXACT_TAUS on axis
    -2, clipped to [0, 1] as the kernel clips: (..., 5, k) -> (..., T, k)."""
    u = 2 * np.asarray(tau, dtype=float)[..., None]
    weights = np.concatenate([np.ones_like(u), np.cos(u), np.sin(u), np.cos(2 * u),
                              np.sin(2 * u)], axis=-1) @ _FOURIER
    return {key: np.clip(weights @ p, 0.0, 1.0) for key, p in dists.items()}


def _zoom_tau_max(value_fn) -> np.ndarray:
    """Maximum over tau of value_fn(taus (T,) or (..., T)) -> (..., T): over
    `default_tau_grid()`, then ZOOM_ROUNDS rounds of 21 taus centred on the
    best tau so far, each a tenth as wide as the last (the first spans one
    grid step either side).  A round replaces only a value it beats."""
    taus, best, tau, width = default_tau_grid(), -np.inf, 0.0, 10 * DEFAULT_TAU_STEP
    for _ in range(ZOOM_ROUNDS + 1):
        vals = value_fn(taus)
        k = vals.argmax(axis=-1)[..., None]
        new = np.take_along_axis(vals, k, -1)
        at = np.take_along_axis(np.broadcast_to(taus, vals.shape), k, -1)
        tau = np.where(new > best, at, tau)
        best, width = np.maximum(best, new), width / 10
        taus = tau + width * _ZOOM
    return best[..., 0]


def axis_from_angles(alpha: float, beta: float) -> np.ndarray:
    """Hamiltonian axis (cos a sin b, cos a cos b, sin a); (0, pi/2) is x_hat."""
    return np.array(
        [math.cos(alpha) * math.sin(beta), math.cos(alpha) * math.cos(beta), math.sin(alpha)]
    )


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
    """|x| + eta <= 1 (to 1e-12): M(x, eta) is a valid effect; broadcasts."""
    return np.abs(x) + eta <= 1.0 + 1e-12


def default_tau_grid() -> np.ndarray:
    """Open grid on (0, pi) in DEFAULT_TAU_STEP steps; endpoints are
    degenerate (coinciding effects)."""
    n = int(round(math.pi / DEFAULT_TAU_STEP))
    return np.arange(1, n) * DEFAULT_TAU_STEP


@dataclass(frozen=True, eq=False)
class ScanConfig:
    theta: np.ndarray
    phi: np.ndarray
    tau: np.ndarray
    eta: np.ndarray
    bias_mode: str = "zero"  # one of gridmod.BIAS_MODES
    x_fixed: float = 0.0
    axis_alpha: float = 0.0
    axis_beta: float = math.pi / 2
    families: tuple[str, ...] = FAMILIES
    nsit_tol: float = gridmod.NSIT_TOL
    jobs: int = 1
    out: str | None = None

    def __post_init__(self) -> None:
        for name in ("theta", "phi", "tau", "eta"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.ndim != 1 or arr.size < 1:
                raise ConfigError(f"grid '{name}' must be a nonempty 1-D array", name)
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"grid '{name}' must hold finite numbers only", name)
            object.__setattr__(self, name, arr)
        for name in ("x_fixed", "axis_alpha", "axis_beta", "nsit_tol"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}", name)
            object.__setattr__(self, name, value)
        if self.nsit_tol < 0:
            raise ConfigError(f"nsit_tol must be >= 0, got {self.nsit_tol!r}", "nsit_tol")
        if np.any(self.eta < 0) or np.any(self.eta > 1):
            raise ConfigError("eta must lie in [0, 1]", "eta")
        if self.bias_mode not in gridmod.BIAS_MODES:
            raise ConfigError(f"unknown bias mode {self.bias_mode!r}", "bias_mode")
        if not self.families:
            raise ConfigError("families must be nonempty", "families")
        bad = [f for f in self.families if f not in FAMILIES]
        if bad:
            raise ConfigError(f"unknown families {bad}", "families")
        object.__setattr__(self, "families", tuple(self.families))
        if len(set(self.families)) != len(self.families):
            raise ConfigError(f"families must not repeat, got {self.families}", "families")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1", "jobs")

    @property
    def axis(self) -> np.ndarray:
        return axis_from_angles(self.axis_alpha, self.axis_beta)

    def x_of(self, eta: np.ndarray) -> np.ndarray:
        return bias_x(self.bias_mode, eta, self.x_fixed)

    @property
    def eta_kept(self) -> np.ndarray:
        """Eta grid values with a valid effect, |x| + eta <= 1 (fixed bias only)."""
        return self.eta[valid_effect(self.eta, self.x_of(self.eta))]


@dataclass(frozen=True)
class ScanRecord:
    """One report row; `ScanTable` indexing and iteration yield these."""

    theta: float
    phi: float
    tau: float
    eta: float
    x: float
    axis_alpha: float
    axis_beta: float
    family: str
    spec_index: int
    value: float
    bound: float
    violated: bool
    nsit_12: bool
    nsit_13: bool
    nsit_23: bool
    nsit_123: bool
    nsit_1_2_3: bool
    jm_12: bool
    jm_23: bool
    jm_13: bool
    jm_triple: bool | None


def _dtype(col: str):
    if col in FLOAT_COLUMNS:
        return np.float64
    if col == "spec_index":
        return np.int64
    return np.int8  # family: index into FAMILIES; flags: code into FLAG_VALUES


_FAMILY_OBJECTS = np.array(FAMILIES, dtype=object)
_FLAG_OBJECTS = np.array(FLAG_VALUES, dtype=object)


class ScanTable:
    """Report rows held as columns: `columns[c]` is one numpy array per
    CSV_COLUMNS entry c.

    Floats are float64, `spec_index` is int64, `family` holds indices into
    FAMILIES and every flag column codes into FLAG_VALUES.  `len`, indexing
    and iteration give the rows as `ScanRecord`s; tables compare equal
    column by column.
    """

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        self.columns = columns

    @classmethod
    def empty(cls, n: int) -> "ScanTable":
        return cls({col: np.empty(n, dtype=_dtype(col)) for col in CSV_COLUMNS})

    def __len__(self) -> int:
        return len(self.columns["theta"])

    def _records(self, start: int, stop: int) -> list[ScanRecord]:
        cells = []
        for col in CSV_COLUMNS:
            part = self.columns[col][start:stop]
            if col == "family":
                part = _FAMILY_OBJECTS[part]
            elif col in FLAG_COLUMNS:
                part = _FLAG_OBJECTS[part]
            cells.append(part.tolist())
        return [ScanRecord(*row) for row in zip(*cells)]

    def __getitem__(self, i: int) -> ScanRecord:
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"row {i} out of range for {n} rows")
        i %= n
        return self._records(i, i + 1)[0]

    def __iter__(self) -> Iterator[ScanRecord]:
        for start in range(0, len(self), CHUNK):
            yield from self._records(start, start + CHUNK)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScanTable):
            return NotImplemented
        return all(np.array_equal(self.columns[c], other.columns[c]) for c in CSV_COLUMNS)


def skipped_points(config: ScanConfig) -> int:
    """Grid points excluded because |x| + eta > 1 (fixed-bias mode only)."""
    per_eta = config.eta.size - config.eta_kept.size
    return per_eta * config.theta.size * config.phi.size * config.tau.size


def _fill(table: ScanTable, row: int, cells: dict,
          picks: Sequence[tuple[str, np.ndarray, np.ndarray]]) -> int:
    """Write the report rows of a flat batch of points into `table` from
    `row` on; returns the row after them.

    `cells` holds the per-point columns, each one cell per point or one for
    the batch.  Each pick (family, value, spec_index) gives one row per
    point, with per-point value and spec_index arrays; rows run points
    outermost, picks innermost.
    """
    n, k = picks[0][1].size, len(picks)
    # (point, pick) views of the rows: a per-point cell fills its point's
    # row, a per-pick cell its pick's column
    cols = {c: a[row:row + n * k].reshape(n, k) for c, a in table.columns.items()}
    for name, v in cells.items():
        cols[name][...] = np.reshape(v, (-1, 1))
    for j, (family, value, spec) in enumerate(picks):
        cols["family"][:, j] = FAMILIES.index(family)
        cols["value"][:, j] = value
        cols["spec_index"][:, j] = spec
        cols["bound"][:, j] = gridmod.FAMILY_TABLE[family].bound
    cols["violated"][...] = gridmod.violated(cols["value"], cols["bound"])
    return row + n * k


def _grid_table(config: ScanConfig, order: tuple[str, ...], n_picks: int,
                picks_of) -> ScanTable:
    """The report rows of the grid config.theta x phi x tau x eta_kept, its
    axes nested as `order` names them (outermost first), `n_picks` rows per
    point.

    The flat point list is evaluated in blocks of CHUNK points, each one
    kernel call with per-point arrays.  The block loop computes every
    per-point cell (theta through axis_beta, the NSIT flags and the JM
    flags), picks_of(dists) gives the block's picks, and `_fill` only
    writes them; the kernel result is freed before the next block's call.
    tau and eta must be the two innermost axes: the JM flags depend on
    (tau, eta) only, and a block's first min(block length, n_tau n_eta)
    points, consecutive flat indices, hold each of its (tau, eta) pairs
    once, so every block evaluates the flags there and tiles them.
    """
    axes = {"theta": config.theta, "phi": config.phi, "tau": config.tau,
            "eta": config.eta_kept}
    shape = tuple(axes[name].size for name in order)
    n_points, cycle = math.prod(shape), math.prod(shape[-2:])
    jm_tol = jointmeas.MARGIN_TOL
    table = ScanTable.empty(n_points * n_picks)
    row = 0
    for start in range(0, n_points, CHUNK):
        flat = np.arange(start, min(start + CHUNK, n_points))
        cells = {name: axes[name][i] for name, i in zip(order, np.unravel_index(flat, shape))}
        tau, eta = cells["tau"], cells["eta"]
        x = cells["x"] = config.x_of(eta)
        cells["axis_alpha"], cells["axis_beta"] = config.axis_alpha, config.axis_beta
        dists = gridmod.lg_distributions(gridmod.pure_bloch(cells["theta"], cells["phi"]),
                                         tau, config.axis, eta, x)
        cells.update(gridmod.nsit_flags(gridmod.disturbances(dists),
                                        gridmod.aot_residual(dists), config.nsit_tol))
        picks = picks_of(dists)
        del dists
        m = min(flat.size, cycle)
        pairs, triple = jointmeas.lg_margins(tau[:m], eta[:m], x[:m], config.axis)
        jm = {f"jm_{a}{b}": pairs[:, i] >= -jm_tol
              for i, (a, b) in enumerate(jointmeas.PAIR_ORDER)}
        jm["jm_triple"] = np.where(np.abs(x[:m]) < jointmeas.BIAS_ZERO, triple >= -jm_tol,
                                   FLAG_VALUES.index(None))
        cells.update((name, np.resize(flags, flat.size)) for name, flags in jm.items())
        row = _fill(table, row, cells, picks)
    return table


def scan(config: ScanConfig) -> ScanTable:
    """Evaluate the whole grid; records ordered by grid index, then family.

    The grid is evaluated in blocks of CHUNK points.  `config.jobs` is
    accepted for compatibility and has no effect.
    """
    def picks_of(dists):
        return [(fam, *gridmod.pick(gridmod.FAMILY_TABLE[fam].values(dists)))
                for fam in config.families]

    return _grid_table(config, ("theta", "phi", "tau", "eta"), len(config.families), picks_of)


# --- threshold search ---------------------------------------------------------


def _nonzero(a: np.ndarray) -> np.ndarray:
    return np.where(a != 0.0, a, 1.0)


def _unit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) scaled to unit length; (1, 0) where both are 0."""
    norm = np.sqrt(x * x + y * y)
    return np.where(norm > 0, x / _nonzero(norm), 1.0), y / _nonzero(norm)


def _circle_max(a0, a1, b1, a2, b2) -> np.ndarray:
    """Maximum over u of f(u) = a0 + a1 cos u + b1 sin u + a2 cos 2u
    + b2 sin 2u, per element of the coefficient arrays.

    Turned by h, 2h = atan2(b2, a2), so that (X, Y) = (cos(u - h),
    sin(u - h)), f is the quadratic a0 + r (X^2 - Y^2) + 2 (g1 X + g2 Y),
    r = |(a2, b2)|, on the unit circle.  Its maximum there is a point with
    mu X = g1 and (mu + 2r) Y = g2, where r + mu is the Lagrange multiplier
    and mu >= 0.  If X^2 + Y^2 = 1 has a root mu > 0, it is the only one,
    and Newton's method on 1/|(X, Y)| - 1, which is concave and increasing
    in mu, reaches it from mu = |g1| below; otherwise (g1 = 0,
    |g2| <= 2r) the maximum has mu = 0, Y = g2 / 2r and X = +-sqrt(1 - Y^2).
    f is evaluated at these three points of the circle, so the result is a
    value that f takes.  Constant and lower-degree curves need no case of
    their own.  Only arithmetic and square roots are used: the first call
    of a companion-matrix `eigvals`, `np.fft`, `np.einsum` or `np.arctan2`
    pages in 0.1-0.9 MiB of code, which a threshold run's peak RSS shows.
    """
    r = np.sqrt(a2 * a2 + b2 * b2)
    # (cos h, sin h) up to a sign, which f does not see: along (r + a2, b2),
    # or along (b2, r - a2) where a2 < 0 and r + a2 cancels; any h if r = 0
    cos_h, sin_h = _unit(np.where(a2 >= 0, r + a2, b2), np.where(a2 >= 0, b2, r - a2))
    g1 = 0.5 * (a1 * cos_h + b1 * sin_h)
    g2 = 0.5 * (b1 * cos_h - a1 * sin_h)
    mu = np.abs(g1)
    for _ in range(60):  # converges in <= 8 steps on 20,000 random curves
        x, y = g1 / _nonzero(mu), g2 / _nonzero(mu + 2 * r)
        norm2 = x * x + y * y
        slope = x * x / _nonzero(mu) + y * y / _nonzero(mu + 2 * r)
        step = np.where(slope > 0, norm2 * (np.sqrt(norm2) - 1.0) / _nonzero(slope), 0.0)
        mu, last = np.maximum(mu + step, 0.0), mu
        if not np.any(mu - last > 1e-15 * mu):
            break
    y0 = np.clip(g2 / _nonzero(2 * r), -1.0, 1.0)  # the mu = 0 points (+-x0, y0)
    x0 = np.sqrt(1.0 - y0 * y0)
    X, Y = _unit(np.stack([x0, -x0, g1 / _nonzero(mu)]),
                 np.stack([y0, y0, g2 / _nonzero(mu + 2 * r)]))
    cos_u, sin_u = X * cos_h - Y * sin_h, X * sin_h + Y * cos_h
    f = (a0 + a1 * cos_u + b1 * sin_u + a2 * (cos_u * cos_u - sin_u * sin_u)
         + 2 * b2 * sin_u * cos_u)
    return f.max(axis=0)


def exact_tau_max(samples: np.ndarray) -> np.ndarray:
    """Maximum over tau, and over the last axis, of values that are
    trigonometric polynomials of degree 2 in u = 2 tau, from their samples
    at EXACT_TAUS on axis -2: shape (..., 5, specs) -> (...).

    The samples fix each curve's coefficients, and `_circle_max` gives its
    maximum; the result is never below the samples.  Curves whose bound
    a0 + |(a1, b1)| + |(a2, b2)| is below the best sample are not solved.
    """
    a0, a1, b1, a2, b2 = ((row[:, None] * samples).sum(axis=-2) for row in _FOURIER)
    best = samples.max(axis=(-2, -1))
    solve = (a0 + np.sqrt(a1 * a1 + b1 * b1) + np.sqrt(a2 * a2 + b2 * b2)
             >= best[..., None])
    peak = np.full(solve.shape, -np.inf)
    peak[solve] = _circle_max(*(c[solve] for c in (a0, a1, b1, a2, b2)))
    return np.maximum(best, peak.max(axis=-1))


def halving_tree(lo: float, hi: float, depth: int) -> list[tuple[float, float, float]]:
    """The halvings that `depth` bisection steps from [lo, hi] can reach, as
    (a, b, midpoint of [a, b]) in tree order: node i halves its [a, b], and
    nodes 2i + 1 and 2i + 2 halve its lower and upper half.  Testing every
    midpoint at once decides `depth` steps, at the midpoints that halving
    one step at a time would test."""
    nodes, ends = [], [(lo, hi)]
    for i in range(2**depth - 1):
        a, b = ends[i]
        mid = 0.5 * (a + b)
        nodes.append((a, b, mid))
        ends += [(a, mid), (mid, b)]
    return nodes


def threshold_eta(
    family: str,
    *,
    theta: float = 0.0,
    phi: float = 0.0,
    tau: float | None = None,
    maximize_tau: bool = False,
    bias_mode: str = "zero",
    x_fixed: float = 0.0,
    axis: np.ndarray | None = None,
    spec_index: int | None = None,
    tol: float = 1e-4,
) -> float:
    """Smallest eta at which the family maximum (or spec `spec_index`)
    crosses the family bound.

    Bisection on g(eta) = value(eta) - bound, to absolute tolerance `tol`,
    that reads g only at valid effects, eta <= cap: cap = 1 - |x| at a
    fixed bias and ETA_HI otherwise.  Exactly one of `tau` and maximize_tau
    is required.  With maximize_tau, value is the supremum over the open
    interval 0 < tau < pi (the maximum over the period), from the
    distributions at EXACT_TAUS: `exact_tau_max` for the linear families,
    `_zoom_tau_max` on `_interpolate`d distributions for ELGI.  Raises
    NoBracket when g has no sign change on [ETA_LO, cap] or its samples
    (the BRACKET_SAMPLES points of [ETA_LO, ETA_HI] below cap, and cap) are
    not monotone-crossing.

    The midpoints are those of halving [ETA_LO, ETA_HI]; one past cap (by
    `valid_effect`) lies above the crossing, since g(cap) > 0, and the
    result is at most cap.  g takes one kernel call for all its etas: one
    for the bracket samples, then one per HALVINGS_PER_CALL halvings, at
    every midpoint they can reach (`halving_tree`), deciding as halving one
    step at a time would.  g is memoized: a repeated eta costs nothing.
    """
    if family not in gridmod.FAMILY_TABLE:
        raise ConfigError(f"unknown family {family!r}")
    fam = gridmod.FAMILY_TABLE[family]
    specs = fam.specs
    if spec_index is not None:
        if not 0 <= spec_index < len(specs):
            raise ConfigError(f"{family} spec index must lie in 0..{len(specs) - 1}, "
                              f"got {spec_index}")
        specs = specs[spec_index:spec_index + 1]
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"tolerance must be a finite number > 0, got {tol!r}")
    axis = axis_from_angles(0.0, math.pi / 2) if axis is None else axis
    if maximize_tau == (tau is not None):
        raise ConfigError("exactly one of tau and maximize_tau is required")
    taus = EXACT_TAUS if maximize_tau else np.array([float(tau)])
    if not valid_effect(ETA_LO, bias_x(bias_mode, ETA_LO, x_fixed)):
        raise ConfigError(f"bias x = {x_fixed:.12g} leaves no valid eta >= {ETA_LO:g}")
    cap = 1.0 - abs(x_fixed) if bias_mode == "fixed" else ETA_HI
    bloch = gridmod.pure_bloch(theta, phi)

    def valid(eta: float) -> bool:
        return bool(valid_effect(eta, bias_x(bias_mode, eta, x_fixed)))

    def value_max(etas: np.ndarray) -> np.ndarray:
        etas = etas[:, None]
        dists = gridmod.lg_distributions(bloch, taus, axis, etas, bias_x(bias_mode, etas, x_fixed),
                                         experiments=fam.reads)
        if not maximize_tau:
            return fam.values(dists, specs).max(axis=(-2, -1))
        if fam.linear:
            return exact_tau_max(fam.values(dists, specs))
        return _zoom_tau_max(lambda t: fam.values(_interpolate(dists, t), specs).max(axis=-1))

    memo: dict[float, float] = {}  # g is deterministic; the bisection revisits bracket samples

    def g(*etas: float) -> list[float]:
        """g at each eta; the etas not seen before are evaluated together."""
        new = [e for e in dict.fromkeys(etas) if e not in memo]
        if new:
            memo.update(zip(new, (value_max(np.array(new)) - fam.bound).tolist()))
        return [memo[e] for e in etas]

    samples = [e for e in np.linspace(ETA_LO, ETA_HI, BRACKET_SAMPLES).tolist() if e < cap]
    signs = [v > 0 for v in g(*samples, cap)]
    g_lo, g_hi = g(ETA_LO, cap)
    if not (g_lo < 0.0 < g_hi):
        raise NoBracket(
            f"no violation bracket on [{ETA_LO:g}, {cap:.12g}]: g={g_lo:.3g}..{g_hi:.3g}"
        )
    if sum(1 for a, b in zip(signs, signs[1:]) if a != b) != 1:
        raise NoBracket("g(eta) is not monotone-crossing on the bracket")
    lo, hi = ETA_LO, ETA_HI
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no float left between lo and hi
            break
        above = not valid(mid)
        if not above and mid not in memo:  # one call for the midpoints of the next halvings
            tree = halving_tree(lo, hi, HALVINGS_PER_CALL)
            g(*(m for a, b, m in tree if b - a > tol and a < m < b and valid(m)))
        if above or memo[mid] > 0:
            hi = mid
        else:
            lo = mid
    return min(0.5 * (lo + hi), cap)


# --- reporting ------------------------------------------------------------------

# Each cell carries the separator that follows it.  CSV: "," or, in the last
# column, "\n".  JSON: json.dump(rows, indent=1) puts each cell on its own
# line after its key, opens and closes each row's object around the first
# and last cell, and follows every cell with ",\n" but the file's last one.
_CSV_AFFIXES = {col: ("", "\n" if col == CSV_COLUMNS[-1] else ",") for col in CSV_COLUMNS}
_JSON_AFFIXES = {
    col: (" {\n" * (i == 0) + f'  "{col}": ', "\n }" * (i == len(CSV_COLUMNS) - 1) + ",\n")
    for i, col in enumerate(CSV_COLUMNS)
}
_FAMILY_CELLS = {False: list(FAMILIES), True: [json.dumps(f) for f in FAMILIES]}
_FLAG_CELLS = {False: ["false", "true", ""], True: ["false", "true", "null"]}

# The column runs `report` writes as one cell per row: a run's cell is its
# columns' cells with their separators, formatted once per distinct
# combination in a block.  `value` runs alone: nearly every row has its own.
_RUNS = (
    ("theta", "phi", "tau"),
    ("eta", "x", "axis_alpha", "axis_beta", "family", "spec_index"),
    ("value",),
    ("bound",) + FLAG_COLUMNS,
)
_KEY_LIMIT = 2**62  # combination keys stay below this: int64 never overflows


def _json_float(text: str) -> str:
    """json's spelling of the float `text` reads as: its repr when finite."""
    value = float(text)
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _unique(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_inverse=True), without the sort when every
    value is the first (a block-constant column)."""
    if (values == values[0]).all():
        return values[:1], np.zeros(len(values), dtype=np.intp)
    return np.unique(values, return_inverse=True)


def _distinct(column: np.ndarray, col: str, as_json: bool) -> tuple[list[str], np.ndarray]:
    """(cells, codes) of one column block: its distinct cells, each between
    the column's affixes, and each row's index into them.

    Floats are f"{v:.12g}" (CSV) or the repr of the float that text reads as
    (JSON; non-finite floats keep json's NaN and Infinity), deduplicated on
    their bit pattern, not on ==, so -0.0 ("-0") stays apart from 0.0.
    Family and flag codes index their cell tables as they are.
    """
    pre, post = (_JSON_AFFIXES if as_json else _CSV_AFFIXES)[col]
    if col == "family":
        distinct, codes = _FAMILY_CELLS[as_json], column
    elif col in FLAG_COLUMNS:
        distinct, codes = _FLAG_CELLS[as_json], column
    elif col == "spec_index":
        values, codes = _unique(column)
        distinct = [str(v) for v in values.tolist()]
    else:
        bits, codes = _unique(column.view(np.int64))
        floats = bits.view(np.float64).tolist()
        if not as_json:
            return [f"{v:.12g}{post}" for v in floats], codes
        distinct = [_json_float(f"{v:.12g}") for v in floats]
    return [pre + c + post for c in distinct], codes


def _combinations(parts: list[tuple[list[str], np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, inverse) of the distinct combinations of per-column codes:
    one row holding each combination, and each row's combination.

    The codes fold into one int64 key per row, mixed-radix by the columns'
    distinct counts (a column of one cell adds nothing); before the count
    of possible keys would pass _KEY_LIMIT, the key is renumbered by its
    distinct values.
    """
    key, size = np.zeros(len(parts[0][1]), dtype=np.int64), 1
    for cells, codes in parts:
        if len(cells) == 1:
            continue
        if size * len(cells) > _KEY_LIMIT:
            distinct, key = np.unique(key, return_inverse=True)
            size = len(distinct)
        key = key * len(cells) + codes
        size *= len(cells)
    distinct, inverse = np.unique(key, return_inverse=True)
    rows = np.empty(len(distinct), dtype=np.intp)
    rows[inverse] = np.arange(len(key))
    return rows, inverse


def _cells(columns: dict[str, np.ndarray], run: tuple[str, ...], as_json: bool) -> np.ndarray:
    """The report cells of one run of columns in a block, each its columns'
    cells with their separators, as an object array that shares one string
    per distinct combination of the run's cells."""
    parts = [_distinct(columns[col], col, as_json) for col in run]
    if len(parts) == 1:
        cells, inverse = parts[0]
    else:
        rows, inverse = _combinations(parts)
        picked = [[cells[k] for k in codes[rows].tolist()] for cells, codes in parts]
        cells = ["".join(combination) for combination in zip(*picked)]
    return np.array(cells, dtype=object)[inverse]


def report(table: ScanTable, path: str, fmt: str = "csv") -> None:
    """Write a table; floats carry 12 significant digits in either format.

    JSON is what json.dump(rows, indent=1) writes for the rows as dicts, with
    each float rounded through f"{v:.12g}".  Each block of CHUNK rows is
    formatted run by run (`_cells`, `_RUNS`) into one row-major object array of
    len(_RUNS) cells per row, which is written WRITE_ROWS rows to a string.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    as_json, n = fmt == "json", len(table)
    try:
        with open(path, "w", newline=None if as_json else "") as fh:
            if as_json and n == 0:
                fh.write("[]\n")
                return
            fh.write("[\n" if as_json else ",".join(CSV_COLUMNS) + "\n")
            for start in range(0, n, CHUNK):
                block = {col: a[start:start + CHUNK] for col, a in table.columns.items()}
                cells = np.empty((len(block["theta"]), len(_RUNS)), dtype=object)
                for j, run in enumerate(_RUNS):
                    cells[:, j] = _cells(block, run, as_json)
                if as_json and start + CHUNK >= n:
                    cells[-1, -1] = cells[-1, -1][:-2]  # no ",\n" after the last row
                for i in range(0, len(cells), WRITE_ROWS):
                    fh.write("".join(cells[i:i + WRITE_ROWS].ravel().tolist()))
            if as_json:
                fh.write("\n]\n")
    except OSError as exc:
        raise ConfigError(f"cannot write report {path!r}: {exc.strerror or exc}") from exc


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite cell {cell!r}")
    return value


def _decoder(col: str):
    """CSV cell text -> the column's stored code, through the writer's cell
    tables; raises ValueError for a cell the writer does not write, or a
    float cell that is not finite."""
    if col == "family":
        return _FAMILY_CELLS[False].index
    if col in FLAG_COLUMNS:
        return _FLAG_CELLS[False].index
    return int if col == "spec_index" else _finite


def parse_report(path: str) -> ScanTable:
    """Read a CSV report back into a table (inverse of `report`); a missing
    or wrong header, row length or cell (a nan or inf float among them)
    raises ConfigError naming the line."""
    with open(path) as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, 1) if ln.strip()]
    n, header = lines[0] if lines else (1, "")
    if tuple(header.split(",")) != CSV_COLUMNS:
        raise ConfigError(f"line {n}: expected the report header, got {header!r}")
    decoders = [(col, _decoder(col)) for col in CSV_COLUMNS]
    table = ScanTable.empty(len(lines) - 1)
    for row, (n, ln) in enumerate(lines[1:]):
        cells = ln.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ConfigError(f"line {n}: expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
        for (col, decode), cell in zip(decoders, cells):
            try:
                table.columns[col][row] = decode(cell)
            except (ValueError, OverflowError):  # OverflowError: spec_index beyond int64
                raise ConfigError(f"line {n}: cannot parse {col} cell {cell!r}") from None
    return table


# --- canned figure runs ---------------------------------------------------------


def figure_records(which: int) -> ScanTable:
    """Data behind the four canned survey figures.

    1: ELGI (middle = 2) surface over (tau, eta), x = 0, state (1.7, pi/2).
    2: same with the bias family x = eta - 1 and a coarse eta grid.
    3: all 24 WLGI curves vs tau for the sharp x_hat scenario, state |+>.
    4: all 24 WLGI curves vs tau, axis angles alpha = beta = pi/4, state |0>.

    The tau range is the open interval (0, pi) in every case.  The points
    run eta outermost, tau innermost, and are evaluated in blocks of CHUNK
    points (`_grid_table`), one kernel call each.
    """
    tau_grid = default_tau_grid()
    if which in (1, 2):
        start, step = (0.90, 0.002) if which == 1 else (0.05, 0.05)
        cfg = ScanConfig(theta=[1.7], phi=[math.pi / 2], tau=tau_grid,
                         eta=np.round(np.arange(start, 1.0001, step), 6),
                         bias_mode="zero" if which == 1 else "eta-1")
        family, specs = "elgi", (1,)  # middle = 2
    elif which in (3, 4):  # |+> about x_hat, |0> about alpha = beta = pi/4
        theta, alpha, beta = ((math.pi / 4, 0.0, math.pi / 2) if which == 3
                              else (0.0, math.pi / 4, math.pi / 4))
        cfg = ScanConfig(theta=[theta], phi=[0.0], tau=tau_grid, eta=[1.0],
                         axis_alpha=alpha, axis_beta=beta)
        family, specs = "wlgi", range(len(gridmod.WLGI_SPECS))
    else:
        raise ConfigError(f"unknown figure {which}; pick 1, 2, 3 or 4")

    def picks_of(dists):
        values = gridmod.FAMILY_TABLE[family].values(dists)
        return [(family, values[:, k], np.full(len(values), k)) for k in specs]

    return _grid_table(cfg, ("theta", "phi", "eta", "tau"), len(specs), picks_of)
