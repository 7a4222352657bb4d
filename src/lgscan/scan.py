"""Parameter-space scans, eta-threshold bisection, and CSV/JSON reporting.

A scan walks the grid theta x phi x tau x eta in row-major order (theta
outermost) and, for every requested inequality family, emits one record with
the family's maximum value over its specs, the spec index lgscan.grid.pick
reports, the five NSIT condition booleans, and the joint-measurability
summary.  Output order is the grid order, and two runs of the same
configuration produce byte-identical files.

Records are held as a `ScanTable`, one numpy array per report column.  The
scan evaluates the grid in blocks of `CHUNK` points and fills the table with
array operations; `report` formats whole columns and writes `CHUNK` rows at
a time.  `ScanRecord` is the row view.

Bias modes (`bias_x`, the one rule every command uses): "zero" (x = 0),
"eta-1" (x = eta - 1, always a valid effect), or a fixed explicit x; in
fixed mode grid points with |x| + eta > 1 are skipped and counted.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
_FLAG_CODES = {False: 0, True: 1, None: 2}

# grid points per kernel call in `scan`, and rows per block written by `report`
CHUNK = 2**14

DEFAULT_TAU_STEP = math.pi / 360  # threshold-resolution grid

ETA_LO, ETA_HI, BRACKET_SAMPLES = 1e-6, 1.0, 9  # threshold_eta's bracket and sign samples


def axis_from_angles(alpha: float, beta: float) -> np.ndarray:
    """Hamiltonian axis (cos a sin b, cos a cos b, sin a); (0, pi/2) is x_hat."""
    return np.array(
        [math.cos(alpha) * math.sin(beta), math.cos(alpha) * math.cos(beta), math.sin(alpha)]
    )


def bias_x(bias_mode: str, eta, x_fixed: float = 0.0) -> np.ndarray:
    """Effect bias x at sharpness eta: 0 ("zero"), eta - 1 ("eta-1"), or
    x_fixed ("fixed"); same shape as eta."""
    eta = np.asarray(eta, dtype=float)
    if bias_mode == "zero":
        return np.zeros_like(eta)
    if bias_mode == "eta-1":
        return eta - 1.0
    return np.full_like(eta, x_fixed)


def valid_effect(eta, x):
    """|x| + eta <= 1 (to 1e-12): M(x, eta) is a valid effect; broadcasts."""
    return np.abs(x) + eta <= 1.0 + 1e-12


def default_tau_grid(step: float = DEFAULT_TAU_STEP) -> np.ndarray:
    """Open grid on (0, pi); endpoints are degenerate (coinciding effects)."""
    n = int(round(math.pi / step))
    return np.arange(1, n) * step


@dataclass(frozen=True, eq=False)
class ScanConfig:
    theta: np.ndarray
    phi: np.ndarray
    tau: np.ndarray
    eta: np.ndarray
    bias_mode: str = "zero"  # "zero" | "eta-1" | "fixed"
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
        if self.bias_mode not in ("zero", "eta-1", "fixed"):
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

    @classmethod
    def from_records(cls, records: Sequence[ScanRecord]) -> "ScanTable":
        table = cls.empty(len(records))
        for col in CSV_COLUMNS:
            values = [getattr(r, col) for r in records]
            if col == "family":
                bad = sorted(set(values) - set(FAMILIES))
                if bad:
                    raise ConfigError(f"unknown families {bad} in records")
                values = [FAMILIES.index(v) for v in values]
            elif col in FLAG_COLUMNS:
                values = [_FLAG_CODES[v] for v in values]
            table.columns[col][:] = values
        return table

    def put(self, start: int, rows: dict[str, np.ndarray]) -> int:
        """Write a block of rows from row `start` on; returns the row after it."""
        stop = start + len(rows["theta"])
        for col in CSV_COLUMNS:
            self.columns[col][start:stop] = rows[col]
        return stop

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


def _point_flags(dists: dict, tau, eta, x, config: ScanConfig) -> dict[str, np.ndarray]:
    """NSIT and JM flag columns (FLAG_VALUES codes) for a flat parameter batch."""
    flags = gridmod.nsit_flags(gridmod.disturbances(dists), gridmod.aot_residual(dists),
                               config.nsit_tol)
    # JM depends only on (tau, eta, x)
    tau, eta, x = np.broadcast_arrays(np.atleast_1d(np.asarray(tau, dtype=float)), eta, x)
    m = {k: eta[..., None] * d for k, d in jointmeas.lg_directions(tau, config.axis).items()}
    jm_tol = jointmeas.MARGIN_TOL
    for a, b in jointmeas.PAIR_ORDER:
        flags[f"jm_{a}{b}"] = jointmeas.general_margin(x, m[a], x, m[b]) >= -jm_tol
    triple_margin = 4.0 - jointmeas.triple_sum(m[1], m[2], m[3])
    flags["jm_triple"] = np.where(np.abs(x) < jointmeas.BIAS_ZERO, triple_margin >= -jm_tol,
                                  _FLAG_CODES[None])
    return flags


def _point_rows(theta, phi, tau, eta, x, dists: dict, config: ScanConfig,
                picks: Sequence[tuple[str, np.ndarray, np.ndarray]]) -> dict[str, np.ndarray]:
    """Report columns for a flat batch of points evaluated into `dists`.

    Each pick (family, value, spec_index) gives one row per point, with
    per-point value and spec_index arrays; rows run points outermost, picks
    innermost.  theta .. x broadcast to the batch.
    """
    flags = _point_flags(dists, tau, eta, x, config)
    n = flags["jm_12"].size
    k = len(picks)
    rows = {
        name: np.repeat(np.broadcast_to(np.asarray(v, dtype=float), (n,)), k)
        for name, v in (("theta", theta), ("phi", phi), ("tau", tau), ("eta", eta), ("x", x))
    }
    rows.update((name, np.repeat(flag, k)) for name, flag in flags.items())
    rows["axis_alpha"] = np.full(n * k, config.axis_alpha)
    rows["axis_beta"] = np.full(n * k, config.axis_beta)
    rows["family"] = np.tile([FAMILIES.index(f) for f, _, _ in picks], n)
    rows["value"] = np.stack([v for _, v, _ in picks], axis=-1).ravel()
    rows["spec_index"] = np.stack([s for _, _, s in picks], axis=-1).ravel()
    rows["bound"] = np.tile([gridmod.FAMILY_TABLE[f].bound for f, _, _ in picks], n)
    rows["violated"] = gridmod.violated(rows["value"], rows["bound"])
    return rows


def scan(config: ScanConfig) -> ScanTable:
    """Evaluate the whole grid; records ordered by grid index, then family.

    The grid is evaluated in blocks of CHUNK points.  `config.jobs` is
    accepted for compatibility and has no effect.
    """
    eta_kept = config.eta_kept
    shape = (config.theta.size, config.phi.size, config.tau.size, eta_kept.size)
    n_points = math.prod(shape)
    table = ScanTable.empty(n_points * len(config.families))
    row = 0
    for start in range(0, n_points, CHUNK):
        i, j, k, m = np.unravel_index(np.arange(start, min(start + CHUNK, n_points)), shape)
        theta, phi, tau, eta = config.theta[i], config.phi[j], config.tau[k], eta_kept[m]
        x = config.x_of(eta)
        dists = gridmod.lg_distributions(gridmod.pure_bloch(theta, phi), tau, config.axis, eta, x)
        picks = [(fam, *gridmod.pick(gridmod.FAMILY_TABLE[fam].values(dists)))
                 for fam in config.families]
        row = table.put(row, _point_rows(theta, phi, tau, eta, x, dists, config, picks))
    return table


# --- threshold search ---------------------------------------------------------


def _polish_tau(value_fn, tau_grid: np.ndarray) -> float:
    """Grid maximum plus one parabolic refinement step."""
    vals = value_fn(tau_grid)
    k = int(np.argmax(vals))
    best = float(vals[k])
    if 0 < k < tau_grid.size - 1:
        t0, t1, t2 = tau_grid[k - 1 : k + 2]
        v0, v1, v2 = vals[k - 1 : k + 2]
        denom = (v0 - 2 * v1 + v2)
        if denom < -1e-300:
            t_star = t1 + 0.5 * (t1 - t0) * (v0 - v2) / denom
            if t0 < t_star < t2:
                best = max(best, float(value_fn(np.array([t_star]))[0]))
    return best


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

    Bisection on g(eta) = value(eta) - bound, to absolute tolerance `tol`.
    With maximize_tau, the inner maximization runs over `default_tau_grid()`
    with one parabolic polish; otherwise `tau` must be given.  Raises
    NoBracket when g has no sign change on [ETA_LO, ETA_HI], the sampled
    g (BRACKET_SAMPLES points) is not monotone-crossing, or the threshold
    lies where the effect is not valid (|x| + eta > 1 at a fixed bias).
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
    if axis is None:
        axis = axis_from_angles(0.0, math.pi / 2)
    if maximize_tau:
        grid_values = default_tau_grid()
    else:
        if tau is None:
            raise ConfigError("either tau or maximize_tau is required")
        grid_values = np.array([float(tau)])
    if not valid_effect(ETA_LO, bias_x(bias_mode, ETA_LO, x_fixed)):
        raise ConfigError(f"bias x = {x_fixed:g} leaves no valid eta >= {ETA_LO:g}")
    bloch = gridmod.pure_bloch(theta, phi)

    @functools.cache  # g is deterministic; the bisection revisits bracket samples
    def g(eta: float) -> float:
        x = bias_x(bias_mode, eta, x_fixed)

        def value_fn(taus: np.ndarray) -> np.ndarray:
            dists = gridmod.lg_distributions(bloch, taus, axis, eta, x)
            return fam.values(dists, specs).max(axis=-1)

        if maximize_tau:
            return _polish_tau(value_fn, grid_values) - fam.bound
        return float(value_fn(grid_values)[0]) - fam.bound

    g_lo, g_hi = g(ETA_LO), g(ETA_HI)
    if not (g_lo < 0.0 < g_hi):
        raise NoBracket(
            f"no violation bracket on [{ETA_LO:g}, {ETA_HI:g}]: g={g_lo:.3g}..{g_hi:.3g}"
        )
    samples = np.linspace(ETA_LO, ETA_HI, BRACKET_SAMPLES)
    signs = [g(e) > 0 for e in samples]
    if sum(1 for a, b in zip(signs, signs[1:]) if a != b) != 1:
        raise NoBracket("g(eta) is not monotone-crossing on the bracket")
    lo, hi = ETA_LO, ETA_HI
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no float left between lo and hi
            break
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    eta = 0.5 * (lo + hi)
    if not valid_effect(eta, bias_x(bias_mode, eta, x_fixed)):
        raise NoBracket(f"threshold eta = {eta:.6f} lies outside the valid range "
                        f"0 <= eta <= {1.0 - abs(x_fixed):g} of bias x = {x_fixed:g}")
    return eta


# --- reporting ------------------------------------------------------------------

# json.dump(rows, indent=1) puts each cell on its own line after its key, and
# opens and closes each row's object around the first and last cell
_JSON_AFFIXES = {
    col: (" {\n" * (i == 0) + f'  "{col}": ', "\n }" * (i == len(CSV_COLUMNS) - 1))
    for i, col in enumerate(CSV_COLUMNS)
}
_FAMILY_CELLS = {False: list(FAMILIES), True: [json.dumps(f) for f in FAMILIES]}
_FLAG_CELLS = {False: ["false", "true", ""], True: ["false", "true", "null"]}


def _cells(column: np.ndarray, col: str, as_json: bool) -> list[str]:
    """The report cells of one column block.

    Each distinct value is formatted once.  Floats are f"{v:.12g}" (CSV) or
    json's rendering of that number, deduplicated on their bit pattern, not
    on ==, so -0.0 ("-0") stays apart from 0.0.
    """
    if col == "family":
        distinct, inverse = _FAMILY_CELLS[as_json], column
    elif col in FLAG_COLUMNS:
        distinct, inverse = _FLAG_CELLS[as_json], column
    elif col == "spec_index":
        values, inverse = np.unique(column, return_inverse=True)
        distinct = [str(v) for v in values.tolist()]
    else:
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        distinct = [f"{v:.12g}" for v in bits.view(np.float64).tolist()]
        if as_json:
            distinct = [json.dumps(float(c)) for c in distinct]
    if as_json:
        pre, post = _JSON_AFFIXES[col]
        distinct = [pre + c + post for c in distinct]
    return np.array(distinct, dtype=object)[inverse].tolist()


def report(records: ScanTable | Iterable[ScanRecord], path: str, fmt: str = "csv") -> None:
    """Write records; floats carry 12 significant digits in either format.

    JSON is what json.dump(rows, indent=1) writes for the rows as dicts, with
    each float rounded through f"{v:.12g}".  Records that are not a
    ScanTable are turned into one first.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown report format {fmt!r}")
    table = records if isinstance(records, ScanTable) else ScanTable.from_records(list(records))
    as_json = fmt == "json"
    with open(path, "w", newline=None if as_json else "") as fh:
        if not as_json:
            fh.write(",".join(CSV_COLUMNS) + "\n")
        elif len(table) == 0:
            fh.write("[]\n")
            return
        for start in range(0, len(table), CHUNK):
            cols = [_cells(table.columns[c][start:start + CHUNK], c, as_json)
                    for c in CSV_COLUMNS]
            if as_json:
                rows = map(",\n".join, zip(*cols))
                fh.write(("[\n" if start == 0 else ",\n") + ",\n".join(rows))
            else:
                fh.write("\n".join(map(",".join, zip(*cols))) + "\n")
        if as_json:
            fh.write("\n]\n")


def _parse_cell(col: str, cell: str):
    if col == "family":
        return cell
    if col == "spec_index":
        return int(cell)
    if col in FLAG_COLUMNS:
        return FLAG_VALUES[_FLAG_CELLS[False].index(cell)]
    return float(cell)


def parse_report(path: str) -> list[ScanRecord]:
    """Read a CSV report back into records (inverse of `report`); a missing
    or wrong header, row length or cell raises ConfigError naming the line."""
    with open(path) as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, 1) if ln.strip()]
    n, header = lines[0] if lines else (1, "")
    if tuple(header.split(",")) != CSV_COLUMNS:
        raise ConfigError(f"line {n}: expected the report header, got {header!r}")
    out = []
    for n, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ConfigError(f"line {n}: expected {len(CSV_COLUMNS)} cells, got {len(cells)}")
        values = []
        for col, cell in zip(CSV_COLUMNS, cells):
            try:
                values.append(_parse_cell(col, cell))
            except ValueError:
                raise ConfigError(f"line {n}: cannot parse {col} cell {cell!r}") from None
        out.append(ScanRecord(*values))
    return out


# --- canned figure runs ---------------------------------------------------------


def figure_records(which: int) -> ScanTable:
    """Data behind the four canned survey figures.

    1: ELGI (middle = 2) surface over (tau, eta), x = 0, state (1.7, pi/2).
    2: same with the bias family x = eta - 1 and a coarse eta grid.
    3: all 24 WLGI curves vs tau for the sharp x_hat scenario, state |+>.
    4: all 24 WLGI curves vs tau, axis angles alpha = beta = pi/4, state |0>.

    The tau range is the open interval (0, pi) in every case.
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
    theta, phi = float(cfg.theta[0]), float(cfg.phi[0])
    bloch = gridmod.pure_bloch(theta, phi)
    table = ScanTable.empty(cfg.eta.size * tau_grid.size * len(specs))
    row = 0
    for eta, x in zip(cfg.eta, cfg.x_of(cfg.eta).tolist()):
        dists = gridmod.lg_distributions(bloch, tau_grid, cfg.axis, eta, x)
        values = gridmod.FAMILY_TABLE[family].values(dists)
        picks = [(family, values[:, k], np.full(tau_grid.size, k)) for k in specs]
        row = table.put(row, _point_rows(theta, phi, tau_grid, eta, x, dists, cfg, picks))
    return table
