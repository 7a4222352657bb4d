"""Parameter-space scans, eta-threshold bisection, and CSV/JSON reporting.

A scan walks the grid theta x phi x tau x eta in row-major order (theta
outermost) and, for every requested inequality family, emits one record with
the family's maximum value over its specs, the argmax spec index, the five
NSIT condition booleans, and the joint-measurability summary.  Output order
is the grid order, and two runs of the same configuration produce
byte-identical files.

Bias modes (`bias_x`, the one rule every command uses): "zero" (x = 0),
"eta-1" (x = eta - 1, always a valid effect), or a fixed explicit x; in
fixed mode grid points with |x| + eta > 1 are skipped and counted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import grid as gridmod
from . import jointmeas
from .errors import ConfigError, NoBracket

FAMILIES = ("slgi", "wlgi", "elgi")
FAMILY_BOUNDS = {"slgi": 1.0, "wlgi": 0.0, "elgi": 0.0}

CSV_COLUMNS = (
    "theta", "phi", "tau", "eta", "x", "axis_alpha", "axis_beta",
    "family", "spec_index", "value", "bound", "violated",
    "nsit_12", "nsit_13", "nsit_23", "nsit_123", "nsit_1_2_3",
    "jm_12", "jm_23", "jm_13", "jm_triple",
)

DEFAULT_ANGLE_STEP = math.pi / 60
DEFAULT_TAU_STEP = math.pi / 360  # threshold-resolution grid


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
    nsit_tol: float = 1e-10
    jobs: int = 1
    out: str | None = None

    def __post_init__(self) -> None:
        for name in ("theta", "phi", "tau", "eta"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.ndim != 1 or arr.size < 1:
                raise ConfigError(f"grid '{name}' must be a nonempty 1-D array")
            object.__setattr__(self, name, arr)
        if np.any(self.eta < 0) or np.any(self.eta > 1):
            raise ConfigError("eta grid must lie in [0, 1]")
        if self.bias_mode not in ("zero", "eta-1", "fixed"):
            raise ConfigError(f"unknown bias mode {self.bias_mode!r}")
        if not self.families:
            raise ConfigError("families must be nonempty")
        bad = [f for f in self.families if f not in FAMILIES]
        if bad:
            raise ConfigError(f"unknown families {bad}")
        object.__setattr__(self, "families", tuple(self.families))
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    @property
    def axis(self) -> np.ndarray:
        return axis_from_angles(self.axis_alpha, self.axis_beta)

    def x_of(self, eta: np.ndarray) -> np.ndarray:
        return bias_x(self.bias_mode, eta, self.x_fixed)


@dataclass(frozen=True)
class ScanRecord:
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


def skipped_points(config: ScanConfig) -> int:
    """Grid points excluded because |x| + eta > 1 (fixed-bias mode only)."""
    per_eta = np.sum(np.abs(config.x_of(config.eta)) + config.eta > 1.0 + 1e-12)
    return int(per_eta) * config.theta.size * config.phi.size * config.tau.size


def _family_arrays(dists: dict, families: Sequence[str]) -> dict[str, np.ndarray]:
    out = {}
    if "slgi" in families:
        out["slgi"] = gridmod.slgi_values(dists)
    if "wlgi" in families:
        out["wlgi"] = gridmod.wlgi_values(dists)
    if "elgi" in families:
        out["elgi"] = gridmod.elgi_values(dists)
    return out


def _point_flags(dists: dict, tau, eta, x, config: ScanConfig):
    """Vectorized NSIT booleans and JM margins for a flat parameter batch."""
    dist_arrays = gridmod.disturbances(dists)
    tol = config.nsit_tol
    aot = gridmod.aot_residual(dists)
    nsit_flags = {
        "nsit_12": np.abs(dist_arrays["d1_m2"]).max(axis=-1) <= tol,
        "nsit_13": np.abs(dist_arrays["d1_m3"]).max(axis=-1) <= tol,
        "nsit_23": np.abs(dist_arrays["d2_m3"]).max(axis=-1) <= tol,
        "nsit_123": np.abs(dist_arrays["d1_pair"]).max(axis=-1) <= tol,
        "nsit_1_2_3": (np.abs(dist_arrays["d2_pair"]).max(axis=-1) <= tol) & (aot <= tol),
    }
    # JM depends only on (tau, eta, x); directions follow the Heisenberg rotation
    tau, eta, x = np.broadcast_arrays(
        np.atleast_1d(np.asarray(tau, dtype=float)),
        np.asarray(eta, dtype=float),
        np.asarray(x, dtype=float),
    )
    d1 = np.broadcast_to(gridmod.Z_HAT, tau.shape + (3,)).astype(float)
    d2 = gridmod.rotate_bloch(d1, config.axis, -2.0 * tau)
    d3 = gridmod.rotate_bloch(d1, config.axis, -4.0 * tau)
    e = eta[..., None]
    jm_margins = {
        "jm_12": jointmeas.general_margin(x, e * d1, x, e * d2),
        "jm_23": jointmeas.general_margin(x, e * d2, x, e * d3),
        "jm_13": jointmeas.general_margin(x, e * d1, x, e * d3),
    }
    triple_margin = 4.0 - jointmeas.triple_sum(e * d1, e * d2, e * d3)
    unbiased = np.abs(x) < 1e-15
    return nsit_flags, jm_margins, triple_margin, unbiased


def _flags_at(i: int, nsit_flags, jm_margins, triple_margin, unbiased) -> dict:
    flags = {k: bool(v[i]) for k, v in nsit_flags.items()}
    flags.update({k: bool(v[i] >= -1e-12) for k, v in jm_margins.items()})
    flags["jm_triple"] = bool(triple_margin[i] >= -1e-12) if unbiased[i] else None
    return flags


def scan(config: ScanConfig) -> list[ScanRecord]:
    """Evaluate the whole grid; records ordered by grid index, then family.

    `config.jobs` is accepted for compatibility and has no effect: the grid
    is evaluated in one vectorized pass.
    """
    theta, phi, tau, eta = np.meshgrid(
        config.theta, config.phi, config.tau, config.eta, indexing="ij"
    )
    theta, phi, tau, eta = (a.ravel() for a in (theta, phi, tau, eta))
    x = config.x_of(eta)
    keep = np.abs(x) + eta <= 1.0 + 1e-12
    theta, phi, tau, eta, x = theta[keep], phi[keep], tau[keep], eta[keep], x[keep]
    if theta.size == 0:
        return []
    bloch = gridmod.pure_bloch(theta, phi)
    dists = gridmod.lg_distributions(bloch, tau, config.axis, eta, x)
    fams = _family_arrays(dists, config.families)
    flag_parts = _point_flags(dists, tau, eta, x, config)

    records: list[ScanRecord] = []
    for i in range(theta.size):
        flags = _flags_at(i, *flag_parts)
        for fam in config.families:
            vals = fams[fam][i]
            spec_index = int(np.argmax(vals))
            value = float(vals[spec_index])
            bound = FAMILY_BOUNDS[fam]
            records.append(
                ScanRecord(
                    theta=float(theta[i]), phi=float(phi[i]), tau=float(tau[i]),
                    eta=float(eta[i]), x=float(x[i]),
                    axis_alpha=config.axis_alpha, axis_beta=config.axis_beta,
                    family=fam, spec_index=spec_index, value=value, bound=bound,
                    violated=bool(value > bound + 1e-12),
                    **flags,
                )
            )
    return records


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
    tau_grid: np.ndarray | None = None,
    bias_mode: str = "zero",
    x_fixed: float = 0.0,
    axis: np.ndarray | None = None,
    spec_index: int | None = None,
    eta_lo: float = 1e-6,
    eta_hi: float = 1.0,
    tol: float = 1e-4,
    bracket_samples: int = 9,
) -> float:
    """Smallest eta at which the family's (max) value crosses its bound.

    Bisection on g(eta) = max_value(eta) - bound, to absolute tolerance
    `tol`.  With maximize_tau, the inner maximization runs over `tau_grid`
    (default: step pi/360 on (0, pi)) with one parabolic polish; otherwise
    `tau` must be given.  Raises NoBracket when g has no sign change on
    [eta_lo, eta_hi] or the sampled g is not monotone-crossing.
    """
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}")
    if axis is None:
        axis = axis_from_angles(0.0, math.pi / 2)
    if maximize_tau:
        grid_values = tau_grid if tau_grid is not None else default_tau_grid()
    else:
        if tau is None:
            raise ConfigError("either tau or maximize_tau is required")
        grid_values = np.array([float(tau)])
    bound = FAMILY_BOUNDS[family]
    bloch = gridmod.pure_bloch(theta, phi)

    def g(eta: float) -> float:
        x = bias_x(bias_mode, eta, x_fixed)

        def value_fn(taus: np.ndarray) -> np.ndarray:
            dists = gridmod.lg_distributions(bloch, taus, axis, eta, x)
            vals = _family_arrays(dists, (family,))[family]
            if spec_index is not None:
                return vals[..., spec_index]
            return vals.max(axis=-1)

        if maximize_tau and grid_values.size > 2:
            return _polish_tau(value_fn, grid_values) - bound
        return float(np.max(value_fn(grid_values))) - bound

    g_lo, g_hi = g(eta_lo), g(eta_hi)
    if not (g_lo < 0.0 < g_hi):
        raise NoBracket(
            f"no violation bracket on [{eta_lo:g}, {eta_hi:g}]: g={g_lo:.3g}..{g_hi:.3g}"
        )
    samples = np.linspace(eta_lo, eta_hi, bracket_samples)
    signs = [g(e) > 0 for e in samples]
    if sum(1 for a, b in zip(signs, signs[1:]) if a != b) != 1:
        raise NoBracket("g(eta) is not monotone-crossing on the bracket")
    lo, hi = eta_lo, eta_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# --- reporting ------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _record_row(rec: ScanRecord) -> list[str]:
    return [_fmt(getattr(rec, col)) for col in CSV_COLUMNS]


def report(records: Iterable[ScanRecord], path: str, fmt: str = "csv") -> None:
    """Write records; floats carry 12 significant digits in either format."""
    records = list(records)
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(_record_row(r)) for r in records]
        text = "\n".join(lines) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(text)
    elif fmt == "json":
        payload = []
        for rec in records:
            d = {}
            for col in CSV_COLUMNS:
                v = getattr(rec, col)
                if isinstance(v, float):
                    v = float(f"{v:.12g}")
                d[col] = v
            payload.append(d)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:
        raise ConfigError(f"unknown report format {fmt!r}")


def _parse_cell(col: str, cell: str):
    if col in ("family",):
        return cell
    if col == "spec_index":
        return int(cell)
    if col.startswith(("nsit", "jm", "violated")) or col in ("violated",):
        if cell == "":
            return None
        return cell == "true"
    return float(cell)


def parse_report(path: str) -> list[ScanRecord]:
    """Read a CSV report back into records (inverse of `report`)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    if tuple(header) != CSV_COLUMNS:
        raise ConfigError(f"unexpected header {header}")
    out = []
    for ln in lines[1:]:
        cells = ln.split(",")
        kwargs = {col: _parse_cell(col, cell) for col, cell in zip(CSV_COLUMNS, cells)}
        out.append(ScanRecord(**kwargs))
    return out


# --- canned figure runs ---------------------------------------------------------


def figure_records(which: int) -> list[ScanRecord]:
    """Data behind the four canned survey figures.

    1: ELGI (middle = 2) surface over (tau, eta), x = 0, state (1.7, pi/2).
    2: same with the bias family x = eta - 1 and a coarse eta grid.
    3: all 24 WLGI curves vs tau for the sharp x_hat scenario, state |+>.
    4: all 24 WLGI curves vs tau, axis angles alpha = beta = pi/4, state |0>.

    The tau range is the open interval (0, pi) in every case.
    """
    tau_grid = default_tau_grid()
    if which in (1, 2):
        theta, phi = 1.7, math.pi / 2
        eta_grid = (
            np.round(np.arange(0.90, 1.0001, 0.002), 6)
            if which == 1
            else np.round(np.arange(0.05, 1.0001, 0.05), 6)
        )
        bias = "zero" if which == 1 else "eta-1"
        cfg = ScanConfig(theta=[theta], phi=[phi], tau=tau_grid, eta=eta_grid, bias_mode=bias)
        bloch = gridmod.pure_bloch(theta, phi)
        records = []
        for eta, x in zip(cfg.eta, cfg.x_of(cfg.eta).tolist()):
            dists = gridmod.lg_distributions(bloch, tau_grid, cfg.axis, eta, x)
            vals = gridmod.elgi_values(dists)[..., 1]  # middle = 2 variant
            flag_parts = _point_flags(dists, tau_grid, eta, x, cfg)
            for j, tau in enumerate(tau_grid):
                records.append(
                    _bare_record(theta, phi, float(tau), float(eta), x, cfg,
                                 "elgi", 1, float(vals[j]),
                                 _flags_at(j, *flag_parts))
                )
        return records
    if which in (3, 4):
        if which == 3:
            theta, phi = math.pi / 4, 0.0  # |+>
            cfg = ScanConfig(theta=[theta], phi=[phi], tau=tau_grid, eta=[1.0],
                             bias_mode="zero")
        else:
            theta, phi = 0.0, 0.0  # |0>
            cfg = ScanConfig(theta=[theta], phi=[phi], tau=tau_grid, eta=[1.0],
                             bias_mode="zero", axis_alpha=math.pi / 4, axis_beta=math.pi / 4)
        bloch = gridmod.pure_bloch(theta, phi)
        dists = gridmod.lg_distributions(bloch, tau_grid, cfg.axis, 1.0, 0.0)
        vals = gridmod.wlgi_values(dists)
        flag_parts = _point_flags(dists, tau_grid, 1.0, 0.0, cfg)
        records = []
        for j, tau in enumerate(tau_grid):
            flags = _flags_at(j, *flag_parts)
            for k in range(len(gridmod.WLGI_SPECS)):
                records.append(_bare_record(theta, phi, float(tau), 1.0, 0.0,
                                             cfg, "wlgi", k, float(vals[j, k]), flags))
        return records
    raise ConfigError(f"unknown figure {which}; pick 1, 2, 3 or 4")


def _bare_record(theta, phi, tau, eta, x, cfg: ScanConfig, family: str,
                 spec_index: int, value: float, flags: dict) -> ScanRecord:
    bound = FAMILY_BOUNDS[family]
    return ScanRecord(
        theta=theta, phi=phi, tau=tau, eta=eta, x=x,
        axis_alpha=cfg.axis_alpha, axis_beta=cfg.axis_beta,
        family=family, spec_index=spec_index, value=value, bound=bound,
        violated=bool(value > bound + 1e-12), **flags,
    )
