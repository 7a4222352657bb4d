"""Parameter-space scans, eta-threshold bisection, and CSV/JSON reporting.

A scan walks the grid theta x phi x tau x eta in row-major order (theta
outermost) and, for every requested inequality family, emits one record with
the family's maximum value over its specs, the spec index lgscan.grid.pick
reports, the five NSIT condition booleans, and the joint-measurability
summary.  Output order is the grid order, and two runs of the same
configuration produce byte-identical files.

Records are held as a `ScanTable`, one numpy array per report column.  A
scan and the canned figures walk their grid in blocks of `CHUNK` points
(`_grid_blocks`), a row per point and (family, spec) pick: a scan picks
each family's maximum, a figure each of its forms.  Each block is one
kernel call, whose loop computes every per-point cell, the NSIT and JM
flags among them; the JM flags are evaluated on the block's first (tau,
eta) cycle and tiled over the block.  `_fill` only writes a block's cells
and picks into a table's columns.  The table that `scan` and
`figure_records` return is streamed: no block is computed when it is made,
and every read computes each block once (a row read, only the blocks up
to its own).  `ScanTable._blocks` is the one read path, `CHUNK` rows at a
time from each block as it is computed or from the filled table, so
`report` and a row read hold one block of rows at a time, never the grid;
reading `ScanTable.columns` fills the whole table once.
`report` splits the columns into four runs and formats each run of a
`CHUNK`-row piece once per distinct combination of its cells, places the
four cells of each row row-major in one object array and joins `WRITE_ROWS`
rows of it at a time; `parse_report` reads a CSV report back into a table.
`ScanRecord` is the row view.  The family and flag columns hold indices
into their values, read, written and parsed through one table, `_CODED`.

Bias modes (`grid.bias_x`, the one rule every command uses): "zero", "eta-1"
or a fixed explicit x; in fixed mode grid points that fail
`grid.valid_effect` (|x| + eta > 1) are skipped and counted.
"""

from __future__ import annotations

import io
import json
import locale
import math
from dataclasses import dataclass, fields
from functools import cache
from itertools import groupby
from typing import Callable, Iterator, Sequence

import numpy as np

from . import grid as gridmod
from . import jointmeas
from .errors import ConfigError, NoBracket
from .grid import bias_x, valid_effect

FAMILIES = tuple(gridmod.FAMILY_TABLE)


@dataclass(frozen=True)
class ScanRecord:
    """One report row; `ScanTable` indexing and iteration yield these.  Its
    fields, in order, are the report columns, and their types the columns'
    kinds."""

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


_COLUMN_TYPES = {f.name: f.type for f in fields(ScanRecord)}
CSV_COLUMNS = tuple(_COLUMN_TYPES)
FLOAT_COLUMNS = tuple(col for col, kind in _COLUMN_TYPES.items() if kind == "float")
FLAG_COLUMNS = CSV_COLUMNS[CSV_COLUMNS.index("violated"):]
# flag cells are int8 codes into FLAG_VALUES; jm_triple is None for biased effects
FLAG_VALUES = (False, True, None)


def _dtype(col: str):
    # family: index into FAMILIES; flags: code into FLAG_VALUES
    return {"float": np.float64, "int": np.int64}.get(_COLUMN_TYPES[col], np.int8)


# grid points per kernel call in `scan` and `figure_records`, and rows per
# block formatted by `report`
CHUNK = 2**14
WRITE_ROWS = 2**10  # rows per string that `report` joins and writes

DEFAULT_TAU_STEP = math.pi / 360  # threshold-resolution grid

ETA_LO, ETA_HI, BRACKET_SAMPLES = 1e-6, 1.0, 9  # threshold_eta's bracket and sign samples
# threshold_eta's halvings decided per kernel call, a batching choice that never
# changes a result.  ELGI's zoomed tau-maximum costs in proportion to its etas,
# so its calls decide 3 and its first call holds only the bracket samples.  Every
# other g (an exact tau-maximum, or a fixed tau) costs about the same per call at
# 7 etas or 63, so its calls decide 5, and the first also carries the first 5.
HALVINGS_PER_CALL = 3
EXACT_HALVINGS_PER_CALL = 5

# Every probability of gridmod.lg_distributions, so every linear family value, is
# a trigonometric polynomial of degree 2 in u = 2 tau, fixed by these 5 samples
EXACT_TAUS = (np.arange(5) + 0.5) * (math.pi / 5)
# (a0, a1, b1, a2, b2) of f(u) = a0 + a1 cos u + b1 sin u + a2 cos 2u
# + b2 sin 2u are _FOURIER @ f(u), u = 2 EXACT_TAUS
_U = 2 * EXACT_TAUS
_FOURIER = 0.4 * np.stack([np.full(5, 0.5), np.cos(_U), np.sin(_U), np.cos(2 * _U),
                           np.sin(2 * _U)])
_HARMONICS = np.array([2.0, 4.0])  # tau -> (u, 2u), u = 2 tau
ZOOM_ROUNDS, _ZOOM = 7, np.linspace(-1.0, 1.0, 21)  # `_zoom_tau_max` rounds, taus per round


TAU_BLOCK = 120  # taus per block of `_elgi_tau_curve`, which bounds its temporaries


def _tau_weights(tau) -> np.ndarray:
    """(..., 5) weights w with f(tau) = w @ samples for a degree-2
    trigonometric polynomial in u = 2 tau sampled at EXACT_TAUS: its basis
    (1, cos u, sin u, cos 2u, sin 2u) @ _FOURIER."""
    angles = np.asarray(tau, dtype=float)[..., None] * _HARMONICS
    basis = np.empty(angles.shape[:-1] + (5,))
    basis[..., 0] = 1.0
    np.cos(angles, out=basis[..., 1::2])
    np.sin(angles, out=basis[..., 2::2])
    return basis @ _FOURIER


@cache
def _grid_weights() -> tuple[np.ndarray, np.ndarray]:
    """`default_tau_grid()` and its `_tau_weights`, computed once and kept
    read-only: every ELGI tau-maximum starts on this grid."""
    grid = default_tau_grid()
    weights = _tau_weights(grid)
    grid.flags.writeable = weights.flags.writeable = False
    return grid, weights


def _elgi_tau_curve(table: np.ndarray, tau, specs) -> np.ndarray:
    """(..., T) maximum over `specs` of gridmod.elgi_values at `tau`, (T,) or
    (..., T), from the stacked table (..., 5, 18) of the ELGI_STACK
    experiments at EXACT_TAUS: the values of each experiment rebuilt at tau
    and clipped to [0, 1], as the kernel clips.  The weights are
    `_tau_weights`, kept from `_grid_weights` when tau is that grid.  The
    taus go TAU_BLOCK at a time: each block is one weights matmul into an
    array whose tau axis is the fastest in memory, one clip in place, and
    one elgi_values call on the table it makes.  That layout keeps the
    table's outcome axis strided, which is what makes elgi_values' np.sum
    row sums fast, and elgi_values returns spec-major values, so the max
    over specs reduces whole rows.  The clip is
    np.minimum(., 1.0): elgi_values takes p ln p as 0 wherever p <= 0
    (`gridmod._plogp`), so a probability below 0 gives the floats that 0
    gives, and the floor needs no pass of its own.  A block of one tau alone
    would take BLAS's matrix-vector path, whose floats differ; neither the
    359-tau grid nor a 21-tau zoom round leaves one."""
    grid, weights = _grid_weights()
    if tau is not grid:
        weights = _tau_weights(tau)
    table_t, weights_t = table.swapaxes(-1, -2), weights.swapaxes(-1, -2)
    vals = []
    for start in range(0, weights_t.shape[-1], TAU_BLOCK):
        # table_t @ weights_t is (weights @ table) transposed, bit for bit
        probs = table_t @ weights_t[..., start:start + TAU_BLOCK]
        probs = np.minimum(probs, 1.0, out=probs).swapaxes(-1, -2)
        vals.append(gridmod.elgi_values(probs, specs).max(axis=-1))
    return vals[0] if len(vals) == 1 else np.concatenate(vals, axis=-1)


def _zoom_tau_max(value_fn) -> np.ndarray:
    """Maximum over tau of value_fn(taus (T,) or (..., T)) -> (..., T): over
    `default_tau_grid()` (the one `_grid_weights` keeps), then ZOOM_ROUNDS
    rounds of 21 taus centred on the best tau so far, each a tenth as wide
    as the last (the first spans one grid step either side).  A round
    replaces only a value it beats."""
    grid = _grid_weights()[0]
    vals = value_fn(grid)
    k = vals.argmax(axis=-1)[..., None]
    rows = np.indices(k.shape, sparse=True)[:-1]  # with k, indexes each row's argmax
    best, tau, width = vals[rows + (k,)], grid[k], DEFAULT_TAU_STEP
    for _ in range(ZOOM_ROUNDS):
        taus = tau + width * _ZOOM
        vals = value_fn(taus)
        at = rows + (vals.argmax(axis=-1)[..., None],)
        new = vals[at]
        tau = np.where(new > best, taus[at], tau)
        best, width = np.maximum(best, new), width / 10
    return best[..., 0]


def axis_from_angles(alpha: float, beta: float) -> np.ndarray:
    """Hamiltonian axis (cos a sin b, cos a cos b, sin a); (0, pi/2) is x_hat."""
    return np.array(
        [math.cos(alpha) * math.sin(beta), math.cos(alpha) * math.cos(beta), math.sin(alpha)]
    )


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
        gridmod.check_angles(self.theta, self.tau)
        for name in ("x_fixed", "axis_alpha", "axis_beta", "nsit_tol"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}", name)
            object.__setattr__(self, name, value)
        if self.nsit_tol < 0:
            raise ConfigError(f"nsit_tol must be >= 0, got {self.nsit_tol!r}", "nsit_tol")
        if np.any(self.eta < 0) or np.any(self.eta > 1):
            raise ConfigError("eta must lie in [0, 1]", "eta")
        self.x_of(self.eta)  # ConfigError for an unknown bias mode
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


# Coded columns store an index into their values: the values as Python
# objects, and each value's CSV and its JSON cell
_CODED = {
    col: (np.array(values, dtype=object), csv, [json.dumps(v) for v in values])
    for cols, values, csv in ((("family",), FAMILIES, FAMILIES),
                              (FLAG_COLUMNS, FLAG_VALUES, ("false", "true", "")))
    for col in cols
}


class ScanTable:
    """Report rows held as columns: `columns[c]` is one numpy array per
    CSV_COLUMNS entry c.

    Floats are float64, `spec_index` is int64, `family` holds indices into
    FAMILIES and every flag column codes into FLAG_VALUES.  `len`, indexing
    and iteration give the rows as `ScanRecord`s; tables compare equal
    column by column.

    A table made by `streamed` (what `scan` and `figure_records` return)
    computes no row until it is read, and each read computes every block
    once: `report` and iteration walk the blocks through one block-sized
    buffer, and `len` reads no row.  Indexing row i walks the same buffer
    up to the block that holds row i and stops there.  Reading `columns`,
    so ==, fills the whole table once and keeps it.
    """

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        self._columns, self._rows, self._source = columns, len(columns["theta"]), None

    @classmethod
    def empty(cls, n: int) -> "ScanTable":
        return cls({col: np.empty(n, dtype=_dtype(col)) for col in CSV_COLUMNS})

    @classmethod
    def streamed(cls, rows: int, block_rows: int,
                 source: Callable[[], Iterator[tuple[dict, list]]]) -> "ScanTable":
        """A table of `rows` rows, in blocks of at most `block_rows`:
        `source()` yields each block's `_fill` arguments (cells, picks).
        Nothing is computed here; a block buffer is allocated and dropped,
        so that a block that cannot be allocated is a ConfigError now."""
        _allocate(block_rows, rows)
        table = cls.__new__(cls)
        table._columns, table._rows, table._source = None, rows, source
        table._block_rows = block_rows
        return table

    @property
    def columns(self) -> dict[str, np.ndarray]:
        if self._columns is None:  # each block `_fill`ed at its rows of the whole table
            table, row = _allocate(self._rows, self._rows), 0
            for cells, picks in self._source():
                row = _fill(table, row, cells, picks)
            self._columns, self._source = table.columns, None
        return self._columns

    def _blocks(self) -> Iterator[dict[str, np.ndarray]]:
        """The columns at most CHUNK rows at a time: of the whole table once
        filled, else of each block, computed as it is read into one buffer."""
        if self._columns is not None:
            yield from _slices(self._columns, self._rows)
            return
        buffer = _allocate(self._block_rows, self._rows)
        for cells, picks in self._source():
            rows = _fill(buffer, 0, cells, picks)
            del cells, picks  # freed before the next block is computed
            yield from _slices(buffer.columns, rows)

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, i: int) -> ScanRecord:
        i = range(len(self))[i]
        for block in self._blocks():  # up to the block that holds row i
            rows = len(block["theta"])
            if i < rows:
                return _records({col: a[i:i + 1] for col, a in block.items()})[0]
            i -= rows

    def __iter__(self) -> Iterator[ScanRecord]:
        for block in self._blocks():
            yield from _records(block)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScanTable):
            return NotImplemented
        return all(np.array_equal(self.columns[c], other.columns[c]) for c in CSV_COLUMNS)


def _allocate(n: int, rows: int) -> ScanTable:
    """ScanTable.empty(n), for a table of `rows` report rows; a ConfigError
    if it cannot be allocated."""
    try:
        return ScanTable.empty(n)
    except (MemoryError, ValueError):  # ValueError: past numpy's largest array
        raise ConfigError(f"{rows} report rows do not fit in memory") from None


def _slices(columns: dict[str, np.ndarray], rows: int) -> Iterator[dict[str, np.ndarray]]:
    """The first `rows` rows of `columns`, CHUNK rows at a time."""
    for start in range(0, rows, CHUNK):
        yield {col: a[start:min(start + CHUNK, rows)] for col, a in columns.items()}


def _records(columns: dict[str, np.ndarray]) -> list[ScanRecord]:
    cells = [(_CODED[col][0][columns[col]] if col in _CODED else columns[col]).tolist()
             for col in CSV_COLUMNS]
    return [ScanRecord(*row) for row in zip(*cells)]


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


def _grid_blocks(config: ScanConfig, axes: dict[str, np.ndarray], order: tuple[str, ...],
                 picks: Sequence[tuple[str, int | None]],
                 chunk: int) -> Iterator[tuple[dict, list]]:
    """The `_fill` arguments (cells, picks) of each block of `chunk` points
    of the grid `axes` (theta, phi, tau and the kept eta); see
    `_grid_table`.  Each block is one kernel call, freed before the block is
    yielded."""
    shape = tuple(axes[name].size for name in order)
    n_points, cycle = math.prod(shape), math.prod(shape[-2:])
    jm_tol = jointmeas.MARGIN_TOL
    for start in range(0, n_points, chunk):
        flat = np.arange(start, min(start + chunk, n_points))
        cells = {name: axes[name][i] for name, i in zip(order, np.unravel_index(flat, shape))}
        tau, eta = cells["tau"], cells["eta"]
        x = cells["x"] = config.x_of(eta)
        cells["axis_alpha"], cells["axis_beta"] = config.axis_alpha, config.axis_beta
        dists = gridmod.lg_distributions(gridmod.pure_bloch(cells["theta"], cells["phi"]),
                                         tau, config.axis, eta, x)
        cells.update(gridmod.nsit_flags(gridmod.disturbances(dists),
                                        gridmod.aot_residual(dists), config.nsit_tol))
        picked = []
        for family, group in groupby(picks, key=lambda p: p[0]):
            values = gridmod.FAMILY_TABLE[family].values(dists)
            # a form's spec as a per-point array: figures-json's peak RSS follows allocation order
            picked += [(family, *gridmod.pick(values)) if spec is None
                       else (family, values[:, spec], np.full(len(values), spec))
                       for _, spec in group]
            del values
        del dists
        m = min(flat.size, cycle)
        pairs, triple = jointmeas.lg_margins(tau[:m], eta[:m], x[:m], config.axis)
        jm = {f"jm_{a}{b}": pairs[:, i] >= -jm_tol
              for i, (a, b) in enumerate(jointmeas.PAIR_ORDER)}
        jm["jm_triple"] = np.where(np.abs(x[:m]) < jointmeas.BIAS_ZERO, triple >= -jm_tol,
                                   FLAG_VALUES.index(None))
        cells.update((name, np.resize(flags, flat.size)) for name, flags in jm.items())
        yield cells, picked
        del cells, picked  # not alive through the next kernel call


def _grid_table(config: ScanConfig, order: tuple[str, ...],
                picks: Sequence[tuple[str, int | None]]) -> ScanTable:
    """The report rows of the grid config.theta x phi x tau x eta_kept, its
    axes nested as `order` names them (outermost first): one row per point
    and pick (family, spec), the family maximum with the spec `gridmod.pick`
    chooses if spec is None, else the value of form `spec`.

    The rows are streamed (`ScanTable.streamed`) in blocks of CHUNK points
    (`_grid_blocks`), each one kernel call whose loop computes every
    per-point cell (theta through axis_beta, the NSIT and JM flags) and
    each picked family once; `_fill` only writes them, and the kernel
    result is freed before the next call.  No block is computed here: each
    read of the table computes them all, so `report` holds one block.
    CHUNK and the grid are read now: the table does not change when either
    does later.  tau and eta must be the two innermost axes: the JM flags
    depend on (tau, eta) only, and a block's first min(block length, n_tau
    n_eta) points, consecutive flat indices, hold each of its (tau, eta)
    pairs once, so every block evaluates the flags there and tiles them.
    More rows than numpy can index, or a first block too large to
    allocate, is a ConfigError.
    """
    axes = {"theta": config.theta.copy(), "phi": config.phi.copy(), "tau": config.tau.copy(),
            "eta": config.eta_kept}
    n_points, chunk = math.prod(a.size for a in axes.values()), CHUNK
    rows = n_points * len(picks)
    if rows > np.iinfo(np.intp).max:
        raise ConfigError(f"{rows} report rows do not fit in memory")
    return ScanTable.streamed(rows, min(n_points, chunk) * len(picks),
                              lambda: _grid_blocks(config, axes, order, picks, chunk))


def scan(config: ScanConfig) -> ScanTable:
    """Each family's maximum at every grid point, in blocks of CHUNK points;
    records ordered by grid index, then family.  The table is streamed
    (`_grid_table`).  `config.jobs` is accepted for compatibility and has
    no effect."""
    return _grid_table(config, ("theta", "phi", "tau", "eta"), [(f, None) for f in config.families])


# --- threshold search ---------------------------------------------------------


def _nonzero(a: np.ndarray) -> np.ndarray:
    return np.where(a != 0.0, a, 1.0)


def _unit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) scaled to unit length; (1, 0) where both are 0."""
    norm = np.sqrt(x * x + y * y)
    divisor = _nonzero(norm)
    return np.where(norm > 0, x / divisor, 1.0), y / divisor


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
    two_r = 2 * r
    # (cos h, sin h) up to a sign, which f does not see: along (r + a2, b2),
    # or along (b2, r - a2) where a2 < 0 and r + a2 cancels; any h if r = 0
    right = a2 >= 0
    cos_h, sin_h = _unit(np.where(right, r + a2, b2), np.where(right, b2, r - a2))
    g1 = 0.5 * (a1 * cos_h + b1 * sin_h)
    g2 = 0.5 * (b1 * cos_h - a1 * sin_h)
    # (X, Y) = g / (mu + shift) row by row: both coordinates in one array op
    g, shift = np.array([g1, g2]), np.array([np.zeros(two_r.shape), two_r])
    mu = np.abs(g1)
    moving = np.ones(mu.shape, dtype=bool)
    for _ in range(60):  # converges in <= 8 steps on 20,000 random curves
        divisor = _nonzero(mu + shift)  # mu + 0.0 is mu: mu >= +0
        squares = g / divisor
        squares *= squares
        norm2 = squares[0] + squares[1]
        squares /= divisor
        slope = squares[0] + squares[1]
        rising = slope > 0
        step = np.sqrt(norm2)
        step -= 1.0
        step *= norm2
        step /= np.where(rising, slope, 1.0)
        # each curve stops on its own test, so its mu does not depend on the batch
        new = np.where(rising, step, 0.0)
        new += mu
        np.maximum(new, 0.0, out=new)
        mu, moving = np.where(moving, new, mu), moving & (new - mu > 1e-15 * new)
        if not moving.any():
            break
    y0 = (g2 / _nonzero(two_r)).clip(-1.0, 1.0)  # the mu = 0 points (+-x0, y0)
    x0 = np.sqrt(1.0 - y0 * y0)
    turned = g / _nonzero(mu + shift)
    X, Y = _unit(np.array([x0, -x0, turned[0]]), np.array([y0, y0, turned[1]]))
    cos_u, sin_u = X * cos_h - Y * sin_h, X * sin_h + Y * cos_h
    f = (a0 + a1 * cos_u + b1 * sin_u + a2 * (cos_u * cos_u - sin_u * sin_u)
         + 2 * b2 * sin_u * cos_u)
    return f.max(axis=0)


def exact_tau_max(samples: np.ndarray) -> np.ndarray:
    """Maximum over tau, and over the last axis, of values that are
    trigonometric polynomials of degree 2 in u = 2 tau, from their samples
    at EXACT_TAUS on axis -2: shape (..., 5, specs) -> (...).

    The samples fix each curve's coefficients, and `_circle_max` gives its
    maximum, the same for a curve however it is batched; the result is
    never below the samples.
    """
    a0, a1, b1, a2, b2 = ((row[:, None] * samples).sum(axis=-2) for row in _FOURIER)
    return np.maximum(samples.max(axis=(-2, -1)), _circle_max(a0, a1, b1, a2, b2).max(axis=-1))


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
    distributions at EXACT_TAUS: `exact_tau_max` for the linear families;
    for ELGI, `_zoom_tau_max` of `_elgi_tau_curve`, which rebuilds the six
    experiments ELGI reads, stacked once per kernel call into one
    (..., 5, 18) table (gridmod.ELGI_STACK), at the taus of each round and
    hands them to gridmod.elgi_values as one table.  Raises ConfigError for
    an axis that is not a finite unit 3-vector (`gridmod.unit_axis`), for a
    non-finite theta, phi, tau or x_fixed, and for a theta or tau whose
    multiple overflows (`gridmod.check_angles`).  Raises NoBracket when g has no
    sign change on [ETA_LO, cap] or its samples (the BRACKET_SAMPLES points
    of [ETA_LO, ETA_HI] below cap, and cap) are not monotone-crossing.

    The midpoints are those of halving [ETA_LO, ETA_HI]; one past cap (by
    `valid_effect`) lies above the crossing, since g(cap) > 0, and the
    result is at most cap.  g takes one kernel call for all its etas, and
    each call tests every midpoint that the next `depth` halvings can reach
    (`halving_tree`), deciding as halving one step at a time would.  For
    ELGI's zoomed tau-maximum, whose cost grows with its etas, depth is
    HALVINGS_PER_CALL (3), and the first call holds only the bracket samples
    and cap, which are most of the first three halvings' midpoints.  For
    every other g, whose call costs about the same at 7 etas or 63, depth
    is EXACT_HALVINGS_PER_CALL (5), and the first call carries the first 5
    halvings together with the samples and cap; the sign and NoBracket tests
    read only the samples and cap.  The depth only batches: every g value
    is the same however its etas are batched, so the result does not
    depend on it.  g is memoized: a repeated eta costs nothing; so is
    whether each midpoint of a halving tree is a valid effect.
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
    if maximize_tau == (tau is not None):
        raise ConfigError("exactly one of tau and maximize_tau is required")
    for name, value in (("theta", theta), ("phi", phi), ("tau", tau), ("x_fixed", x_fixed)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
    gridmod.check_angles(theta, tau)
    axis = axis_from_angles(0.0, math.pi / 2) if axis is None else gridmod.unit_axis(axis)
    taus = EXACT_TAUS if maximize_tau else np.array([float(tau)])
    if not valid_effect(ETA_LO, bias_x(bias_mode, ETA_LO, x_fixed)):
        raise ConfigError(f"bias x = {x_fixed:.12g} leaves no valid eta >= {ETA_LO:g}")
    cap = 1.0 - abs(x_fixed) if bias_mode == "fixed" else ETA_HI
    bloch = gridmod.pure_bloch(theta, phi)

    def valid(etas):
        return valid_effect(etas, bias_x(bias_mode, etas, x_fixed))

    def value_max(etas: np.ndarray) -> np.ndarray:
        etas = etas[:, None]
        dists = gridmod.lg_distributions(bloch, taus, axis, etas, bias_x(bias_mode, etas, x_fixed),
                                         experiments=fam.reads)
        if not maximize_tau:
            return fam.values(dists, specs).max(axis=(-2, -1))
        if fam.linear:
            return exact_tau_max(fam.values(dists, specs))
        table = np.concatenate([dists[key] for key in gridmod.ELGI_STACK], axis=-1)
        return _zoom_tau_max(lambda t: _elgi_tau_curve(table, t, specs))

    memo: dict[float, float] = {}  # g is deterministic; the bisection revisits bracket samples

    def g(*etas: float) -> list[float]:
        """g at each eta; the etas not seen before are evaluated together."""
        new = [e for e in dict.fromkeys(etas) if e not in memo]
        if new:
            memo.update(zip(new, (value_max(np.array(new)) - fam.bound).tolist()))
        return [memo[e] for e in etas]

    zoomed = maximize_tau and not fam.linear
    depth = HALVINGS_PER_CALL if zoomed else EXACT_HALVINGS_PER_CALL

    checked: dict[float, bool] = {}  # whether each midpoint tested so far is a valid effect

    def midpoints(lo: float, hi: float) -> list[float]:
        """The midpoints of `depth` halvings of [lo, hi] that the bisection
        can read: of intervals wider than tol, with a float inside, at valid
        effects (each `checked`)."""
        nodes = halving_tree(lo, hi, depth)
        mids = [m for _, _, m in nodes]
        checked.update(zip(mids, valid(np.array(mids)).tolist()))
        return [m for a, b, m in nodes if b - a > tol and a < m < b and checked[m]]

    samples = [e for e in np.linspace(ETA_LO, ETA_HI, BRACKET_SAMPLES).tolist() if e < cap]
    # the first call: the samples, cap and, for an exact g, the first `depth` halvings
    g(*samples, cap, *([] if zoomed else midpoints(ETA_LO, ETA_HI)))
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
        above = not (checked[mid] if mid in checked else valid(mid))
        if not above and mid not in memo:  # one call for the midpoints of the next halvings
            g(*midpoints(lo, hi))
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
    """json's spelling of the float `text` reads as: its repr when finite.

    For the 12-digit text of a normal float that is the text, with ".0" after
    an integer text (no other decimal of <= 15 digits reads as the same
    float), as `_distinct` writes it.  This takes the rest: magnitudes from
    1e11 (.12g's exponents start at 1e+12, repr's at 1e16), below 1e-307
    (subnormal 5e-324 prints 4.94065645841e-324), nan and inf.
    """
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

    Floats are f"{v:.12g}" (CSV) or json's spelling of the float that text
    reads as (JSON, see `_json_float`), deduplicated on their bit pattern,
    not on ==, so -0.0 ("-0") stays apart from 0.0.
    Coded columns index their cells (`_CODED`) as they are.
    """
    pre, post = (_JSON_AFFIXES if as_json else _CSV_AFFIXES)[col]
    if col in _CODED:
        distinct, codes = _CODED[col][1 + as_json], column
    elif col == "spec_index":
        values, codes = _unique(column)
        distinct = [str(v) for v in values.tolist()]
    else:
        bits, codes = _unique(column.view(np.int64))
        floats = bits.view(np.float64).tolist()
        if not as_json:
            return [f"{v:.12g}{post}" for v in floats], codes
        cells = [f"{pre}{t}{post}" if "." in t or "e" in t else f"{pre}{t}.0{post}"
                 for t in [f"{v:.12g}" for v in floats]]
        size = np.abs(bits.view(np.float64))
        for i in np.flatnonzero((size < 1e-307) | ~(size < 1e11)).tolist():
            cells[i] = pre + _json_float(f"{floats[i]:.12g}") + post
        return cells, codes
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
    each float rounded through f"{v:.12g}": a cell is that text, with ".0"
    after an integer text, outside the ranges `_json_float` spells.  The
    table's blocks are read one at a time (a streamed table computes each
    as it is read and holds one), and each CHUNK rows of a block are
    formatted run by run (`_cells`, `_RUNS`) into one row-major object
    array of len(_RUNS) cells per row, which is written WRITE_ROWS rows to
    a string.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    as_json, n, written = fmt == "json", len(table), 0
    try:
        with open(path, "w", newline=None if as_json else "") as fh:
            if as_json and n == 0:
                fh.write("[]\n")
                return
            fh.write("[\n" if as_json else ",".join(CSV_COLUMNS) + "\n")
            for block in table._blocks():
                cells = np.empty((len(block["theta"]), len(_RUNS)), dtype=object)
                for j, run in enumerate(_RUNS):
                    cells[:, j] = _cells(block, run, as_json)
                written += len(cells)
                if as_json and written == n:
                    cells[-1, -1] = cells[-1, -1][:-2]  # no ",\n" after the last row
                for i in range(0, len(cells), WRITE_ROWS):
                    fh.write("".join(cells[i:i + WRITE_ROWS].ravel().tolist()))
                del block, cells  # not alive through the next kernel call
            if as_json:
                fh.write("\n]\n")
    except OSError as exc:
        raise ConfigError(f"cannot write report {path!r}: {exc.strerror or exc}") from exc


def _decoder(col: str) -> Callable[[str], object]:
    """CSV cell text -> the column's stored value or code; raises ValueError
    for a cell that is not the text the writer writes for what it reads as
    (a coded column's cell, f"{v:.12g}" for a float, str(n) for
    spec_index), or a float cell that is not finite."""
    if col in _CODED:
        return _CODED[col][1].index
    parse, text = (int, str) if col == "spec_index" else (float, "{:.12g}".format)

    def decode(cell: str):
        value = parse(cell)
        if text(value) != cell or not math.isfinite(value):
            raise ValueError(f"not a report cell: {cell!r}")
        return value
    return decode


def read_lines(path: str, what: str) -> list[str]:
    """open(path).readlines(), with universal newlines; a file that cannot be
    read or decoded raises ConfigError 'cannot read <what> <path>: ...',
    naming the line of the first undecodable byte."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc
    encoding = locale.getpreferredencoding(False)  # what open() decodes with
    try:
        return io.StringIO(data.decode(encoding), newline=None).readlines()
    except UnicodeDecodeError as exc:
        before = io.StringIO(data[:exc.start].decode(encoding, "replace"), newline=None)
        line = before.read().count("\n") + 1
        raise ConfigError(f"cannot read {what} {path!r}: line {line}: "
                          f"byte 0x{data[exc.start]:02x} is not valid {exc.encoding}") from exc


def parse_report(path: str) -> ScanTable:
    """Read a CSV report back into a table (inverse of `report`); an
    unreadable file (`read_lines`), or a missing or wrong header, row length
    or cell (`_decoder`: one the writer would not write, or a nan or inf
    float) raises ConfigError."""
    lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(read_lines(path, "report"), 1)
             if ln.strip()]
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
    return _grid_table(cfg, ("theta", "phi", "eta", "tau"), [(family, k) for k in specs])
