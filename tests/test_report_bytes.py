"""Report bytes of the columnar scan pipeline against a row-by-row reference.

The reference below is the row-wise record assembly and writer that the
columnar `ScanTable` path replaced: one `ScanRecord` per (grid point,
family) with the reported spec chosen per row by its own loop (the lowest
index within 1e-12 of the maximum), cells formatted one by one with
f"{v:.12g}", and JSON written by `json.dump(payload, indent=1)`.  Scans in
every bias mode, multi-chunk scans, figures 3 and 4 and the empty report
must match it byte for byte.
"""

import dataclasses
import importlib
import json
import math

import numpy as np
import pytest

from lgscan import grid as gridmod
from lgscan import jointmeas
from lgscan.errors import ConfigError
from lgscan.scan import (
    CSV_COLUMNS,
    ScanConfig,
    ScanRecord,
    ScanTable,
    default_tau_grid,
    figure_records,
    parse_report,
    report,
    scan,
)

scan_mod = importlib.import_module("lgscan.scan")  # the module, not the function

FAMILY_VALUES = {
    "slgi": gridmod.slgi_values,
    "wlgi": gridmod.wlgi_values,
    "elgi": gridmod.elgi_values,
}
BOUNDS = {"slgi": 1.0, "wlgi": 0.0, "elgi": 0.0}


def reference_pick(vals) -> int:
    """Lowest spec index whose value is within 1e-12 of the row maximum."""
    vals = [float(v) for v in vals]
    top = max(vals)
    return next(k for k, v in enumerate(vals) if v >= top - 1e-12)


# --- reference: row-wise records and writer --------------------------------------


def reference_flags(dists, tau, eta, x, cfg) -> list[dict]:
    """Per-point NSIT/JM flags as Python values, one dict per point."""
    dist = gridmod.disturbances(dists)
    aot = gridmod.aot_residual(dists)
    tol = cfg.nsit_tol
    nsit = {
        "nsit_12": np.abs(dist["d1_m2"]).max(axis=-1) <= tol,
        "nsit_13": np.abs(dist["d1_m3"]).max(axis=-1) <= tol,
        "nsit_23": np.abs(dist["d2_m3"]).max(axis=-1) <= tol,
        "nsit_123": np.abs(dist["d1_pair"]).max(axis=-1) <= tol,
        "nsit_1_2_3": (np.abs(dist["d2_pair"]).max(axis=-1) <= tol) & (aot <= tol),
    }
    tau, eta, x = np.broadcast_arrays(np.atleast_1d(np.asarray(tau, dtype=float)),
                                      np.asarray(eta, dtype=float), np.asarray(x, dtype=float))
    d1 = np.broadcast_to(gridmod.Z_HAT, tau.shape + (3,)).astype(float)
    d2 = gridmod.rotate_bloch(d1, cfg.axis, -2.0 * tau)
    d3 = gridmod.rotate_bloch(d1, cfg.axis, -4.0 * tau)
    e = eta[..., None]
    margins = {
        "jm_12": jointmeas.general_margin(x, e * d1, x, e * d2),
        "jm_23": jointmeas.general_margin(x, e * d2, x, e * d3),
        "jm_13": jointmeas.general_margin(x, e * d1, x, e * d3),
    }
    triple = 4.0 - jointmeas.triple_sum(e * d1, e * d2, e * d3)
    out = []
    for i in range(tau.size):
        flags = {k: bool(v[i]) for k, v in nsit.items()}
        flags.update({k: bool(v[i] >= -1e-12) for k, v in margins.items()})
        flags["jm_triple"] = bool(triple[i] >= -1e-12) if abs(x[i]) < 1e-15 else None
        out.append(flags)
    return out


def reference_record(theta, phi, tau, eta, x, cfg, family, spec_index, value, flags):
    bound = BOUNDS[family]
    return ScanRecord(theta=theta, phi=phi, tau=tau, eta=eta, x=x,
                      axis_alpha=cfg.axis_alpha, axis_beta=cfg.axis_beta,
                      family=family, spec_index=spec_index, value=value, bound=bound,
                      violated=bool(value > bound + 1e-12), **flags)


def reference_scan(cfg: ScanConfig) -> list[ScanRecord]:
    """The whole grid in one kernel call, then one record per point and family."""
    grids = np.meshgrid(cfg.theta, cfg.phi, cfg.tau, cfg.eta, indexing="ij")
    theta, phi, tau, eta = (a.ravel() for a in grids)
    x = cfg.x_of(eta)
    keep = np.abs(x) + eta <= 1.0 + 1e-12
    theta, phi, tau, eta, x = theta[keep], phi[keep], tau[keep], eta[keep], x[keep]
    if theta.size == 0:
        return []
    dists = gridmod.lg_distributions(gridmod.pure_bloch(theta, phi), tau, cfg.axis, eta, x)
    fams = {f: FAMILY_VALUES[f](dists) for f in cfg.families}
    flags = reference_flags(dists, tau, eta, x, cfg)
    records = []
    for i in range(theta.size):
        for fam in cfg.families:
            vals = fams[fam][i]
            records.append(reference_record(
                float(theta[i]), float(phi[i]), float(tau[i]), float(eta[i]), float(x[i]),
                cfg, fam, reference_pick(vals), float(vals.max()), flags[i]))
    return records


def reference_figure(which: int) -> list[ScanRecord]:
    """Figures 3 and 4: all 24 WLGI members per tau of the open tau grid."""
    tau_grid = default_tau_grid()
    if which == 3:
        theta, phi = math.pi / 4, 0.0
        cfg = ScanConfig(theta=[theta], phi=[phi], tau=tau_grid, eta=[1.0])
    else:
        theta, phi = 0.0, 0.0
        cfg = ScanConfig(theta=[theta], phi=[phi], tau=tau_grid, eta=[1.0],
                         axis_alpha=math.pi / 4, axis_beta=math.pi / 4)
    dists = gridmod.lg_distributions(gridmod.pure_bloch(theta, phi), tau_grid, cfg.axis,
                                     1.0, 0.0)
    vals = gridmod.wlgi_values(dists)
    flags = reference_flags(dists, tau_grid, 1.0, 0.0, cfg)
    return [reference_record(theta, phi, float(tau), 1.0, 0.0, cfg, "wlgi", k,
                             float(vals[j, k]), flags[j])
            for j, tau in enumerate(tau_grid) for k in range(24)]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def reference_report(records, path, fmt) -> None:
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(_fmt(getattr(r, col)) for col in CSV_COLUMNS) for r in records]
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        payload = []
        for rec in records:
            row = {}
            for col in CSV_COLUMNS:
                v = getattr(rec, col)
                row[col] = float(f"{v:.12g}") if isinstance(v, float) else v
            payload.append(row)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")


def assert_same_bytes(table, records, tmp_path, name="r"):
    for fmt in ("csv", "json"):
        got, want = tmp_path / f"{name}.{fmt}", tmp_path / f"{name}_ref.{fmt}"
        report(table, str(got), fmt)
        reference_report(records, str(want), fmt)
        assert got.read_bytes() == want.read_bytes(), fmt


# --- tests -----------------------------------------------------------------------


def config(**kw):
    base = dict(theta=[np.pi / 3], phi=[np.pi / 2], tau=np.linspace(0.3, 2.8, 6),
                eta=[0.5, 1.0], bias_mode="zero")
    base.update(kw)
    return ScanConfig(**base)


CONFIGS = {
    "zero": config(),
    "eta-1": config(bias_mode="eta-1", eta=[0.05, 0.5, 1.0], theta=[0.2, 1.1],
                    phi=[0.0, 2.5]),
    "fixed": config(bias_mode="fixed", x_fixed=0.2, eta=[0.2, 0.5, 0.8]),
    "fixed-skips": config(bias_mode="fixed", x_fixed=0.6, eta=[0.2, 0.5, 0.9]),
    "axis": config(axis_alpha=math.pi / 4, axis_beta=math.pi / 4),
    "families": config(families=("elgi", "slgi"), bias_mode="eta-1"),
    "one-family": config(families=("wlgi",)),
    "tolerance": config(nsit_tol=1e-3, bias_mode="eta-1", tau=np.linspace(0.01, 3.1, 40),
                        eta=np.linspace(0.1, 1.0, 7)),
    "signed-zero": config(theta=[-0.0, 0.0, 0.5], bias_mode="fixed", x_fixed=-0.0),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_scan_matches_row_wise_reference(tmp_path, name):
    cfg = CONFIGS[name]
    table, records = scan(cfg), reference_scan(cfg)
    assert len(table) == len(records) > 0
    assert list(table) == records
    assert_same_bytes(table, records, tmp_path)
    # records (parse_report output) go through the same writer
    parsed = parse_report(str(tmp_path / "r.csv"))
    assert_same_bytes(parsed, records, tmp_path, "parsed")


def test_row_kinds_are_covered():
    rows = [r for cfg in CONFIGS.values() for r in scan(cfg)]
    assert {r.jm_triple for r in rows} == {True, False, None}
    assert {r.family for r in rows} == {"slgi", "wlgi", "elgi"}
    assert {r.violated for r in rows} == {True, False}
    assert any(math.copysign(1.0, r.x) < 0 and r.x == 0 for r in rows)


def test_multi_chunk_scan_matches_one_chunk(tmp_path, monkeypatch):
    cfg = config(theta=[0.2, 0.9], bias_mode="eta-1", eta=[0.3, 0.6, 1.0])  # 36 points
    whole = scan(cfg)
    monkeypatch.setattr(scan_mod, "CHUNK", 7)
    chunked = scan(cfg)
    assert chunked == whole
    records = reference_scan(cfg)
    assert list(chunked) == records
    assert_same_bytes(chunked, records, tmp_path)  # written 7 rows at a time


@pytest.mark.parametrize("which", [3, 4])
def test_figures_match_row_wise_reference(tmp_path, which):
    table, records = figure_records(which), reference_figure(which)
    assert list(table) == records
    assert_same_bytes(table, records, tmp_path)


def test_empty_report(tmp_path):
    assert_same_bytes([], [], tmp_path)
    table = scan(config(bias_mode="fixed", x_fixed=0.9, eta=[0.5]))  # every point skipped
    assert len(table) == 0 and list(table) == []
    assert_same_bytes(table, [], tmp_path, "skipped")


def test_table_row_view():
    cfg = CONFIGS["eta-1"]
    table, records = scan(cfg), reference_scan(cfg)
    assert table[0] == records[0] and table[-1] == records[-1]
    assert type(table[0].value) is float and type(table[0].spec_index) is int
    with pytest.raises(IndexError):
        table[len(table)]
    assert ScanTable.from_records(records) == table
    assert table != scan(CONFIGS["zero"])


def test_unknown_family_in_records_rejected():
    rec = reference_scan(CONFIGS["zero"])[0]
    bad = dataclasses.replace(rec, family="qlgi")
    with pytest.raises(ConfigError, match="qlgi"):
        ScanTable.from_records([bad])
