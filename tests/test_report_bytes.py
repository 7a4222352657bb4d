"""Report bytes of the columnar scan pipeline against a row-by-row reference.

The reference below is the row-wise record assembly and writer that the
columnar `ScanTable` path replaced: one `ScanRecord` per (grid point,
family) with the reported spec chosen per row by its own loop (the lowest
index within 1e-12 of the maximum), cells formatted one by one with
f"{v:.12g}", and JSON written by `json.dump(payload, indent=1)`.  Scans in
every bias mode, multi-chunk scans, all four figures (1 and 2 against their
earlier one-kernel-call-per-eta loop), non-finite and extreme floats, block
edges, the empty report and random tables (hypothesis) must match it byte
for byte.
"""

import gc
import importlib
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgscan import grid as gridmod
from lgscan import jointmeas
from lgscan.errors import ConfigError
from lgscan.scan import (
    CSV_COLUMNS,
    FLAG_COLUMNS,
    FLOAT_COLUMNS,
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
    """Figures 1 and 2: ELGI spec 1 (middle = 2) per tau of the open tau grid,
    one kernel call per eta, eta outermost.  Figures 3 and 4: all 24 WLGI
    members per tau."""
    tau_grid = default_tau_grid()
    if which in (1, 2):
        theta, phi = 1.7, math.pi / 2
        start, step, bias = (0.90, 0.002, "zero") if which == 1 else (0.05, 0.05, "eta-1")
        cfg = ScanConfig(theta=[theta], phi=[phi], tau=tau_grid,
                         eta=np.round(np.arange(start, 1.0001, step), 6), bias_mode=bias)
        records = []
        for eta in cfg.eta.tolist():
            x = float(cfg.x_of(eta))
            dists = gridmod.lg_distributions(gridmod.pure_bloch(theta, phi), tau_grid, cfg.axis,
                                             eta, x)
            vals = gridmod.elgi_values(dists)[:, 1]
            flags = reference_flags(dists, tau_grid, eta, x, cfg)
            records += [reference_record(theta, phi, float(tau), eta, x, cfg, "elgi", 1,
                                         float(vals[j]), flags[j])
                        for j, tau in enumerate(tau_grid)]
        return records
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
    # the table parse_report reads back goes through the same writer
    parsed = parse_report(str(tmp_path / "r.csv"))
    assert_same_bytes(parsed, records, tmp_path, "parsed")


def test_row_kinds_are_covered():
    rows = [r for cfg in CONFIGS.values() for r in scan(cfg)]
    assert {r.jm_triple for r in rows} == {True, False, None}
    assert {r.family for r in rows} == {"slgi", "wlgi", "elgi"}
    assert {r.violated for r in rows} == {True, False}
    assert any(math.copysign(1.0, r.x) < 0 and r.x == 0 for r in rows)


@pytest.mark.parametrize("chunk", [7, 25, 40])
def test_multi_chunk_scan_matches_one_chunk(tmp_path, monkeypatch, chunk):
    # 108 points, 18 (tau, eta) pairs: blocks of 7 are shorter than the
    # pair cycle; blocks of 25 and 40 are longer and start mid-cycle (at
    # pairs 7, 14, 3 and 4, 8), and the last block of 25 is shorter again
    cfg = config(theta=[0.2, 0.9, 1.4], phi=[0.0, 2.5], bias_mode="eta-1",
                 eta=[0.3, 0.6, 1.0])
    whole = scan(cfg)
    monkeypatch.setattr(scan_mod, "CHUNK", chunk)
    chunked = scan(cfg)
    assert chunked == whole
    records = reference_scan(cfg)
    assert list(chunked) == records
    assert_same_bytes(chunked, records, tmp_path)  # written `chunk` rows at a time


@pytest.mark.parametrize("which", [1, 2, 3, 4])
def test_figures_match_row_wise_reference(tmp_path, which):
    table, records = figure_records(which), reference_figure(which)
    assert list(table) == records
    assert_same_bytes(table, records, tmp_path)


def test_multi_block_figure_matches_one_block(tmp_path, monkeypatch):
    whole = figure_records(2)  # 20 etas x 359 taus: block edges fall inside eta rows
    monkeypatch.setattr(scan_mod, "CHUNK", 7)
    blocks = figure_records(2)
    assert blocks == whole
    assert_same_bytes(blocks, reference_figure(2), tmp_path)  # written 7 rows at a time


@pytest.mark.parametrize("run", ["scan", "figure"])
def test_block_result_freed_before_next_kernel_call(tmp_path, monkeypatch, run):
    # one block's kernel result (3.25 MiB at 2^14 points) must not stay
    # alive through the next block's kernel call, when `report` streams the
    # blocks and when `.columns` fills the whole table
    kernel, previous, calls = gridmod.lg_distributions, [], []

    def tracked(*args, **kwargs):
        calls.append([ref() is not None for ref in previous])
        dists = kernel(*args, **kwargs)
        previous[:] = [weakref.ref(probs) for probs in dists.values()]
        return dists

    monkeypatch.setattr(gridmod, "lg_distributions", tracked)
    monkeypatch.setattr(scan_mod, "CHUNK", 100)
    gc.disable()  # freed by reference counting alone
    try:
        if run == "scan":
            table, blocks = scan(CONFIGS["tolerance"]), 3  # 280 points
        else:
            table, blocks = figure_records(3), 4  # 359 points
        assert len(calls) == 0  # nothing computed by the call
        report(table, str(tmp_path / "r.csv"))
        assert len(calls) == blocks  # every block, as it is written
        table.columns
    finally:
        gc.enable()
    assert len(calls) == 2 * blocks  # every block again, into the whole table
    assert calls[0] == [] and all(alive == [False] * 7 for alive in calls[1:])


@pytest.mark.parametrize("run, blocks", [("scan", 3), ("figure", 4)])
@pytest.mark.parametrize("read", ["report", "iterate", "columns", "index", "equal"])
def test_each_read_computes_each_block_once(tmp_path, monkeypatch, run, blocks, read):
    # making and sizing a streamed table call no kernel; any one read then
    # computes each block exactly once, and a row read only the blocks up
    # to the row's own
    kernel, calls = gridmod.lg_distributions, []

    def counted(*args, **kwargs):
        calls.append(None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(gridmod, "lg_distributions", counted)
    monkeypatch.setattr(scan_mod, "CHUNK", 100)
    table = scan(CONFIGS["tolerance"]) if run == "scan" else figure_records(3)
    assert len(calls) == 0
    assert len(table) == (280 * 3 if run == "scan" else 359 * 24) and len(calls) == 0
    reads = {"report": lambda: report(table, str(tmp_path / "r.csv")),
             "iterate": lambda: list(table), "columns": lambda: table.columns,
             "index": lambda: table[0], "equal": lambda: table == table}
    reads[read]()
    assert len(calls) == (1 if read == "index" else blocks)
    if read == "index":
        table[-1]
        assert len(calls) == 1 + blocks


def test_row_read_holds_one_block(monkeypatch):
    # a row of a streamed table whose whole table cannot be allocated is
    # read through one block buffer, as `report` writes it; filling the
    # whole table is the ConfigError
    monkeypatch.setattr(scan_mod, "CHUNK", 100)
    cfg = CONFIGS["tolerance"]  # 280 points x 3 families: 3 blocks of 300 rows
    records = reference_scan(cfg)
    empty, sizes = ScanTable.empty, []

    def block_only(n):
        sizes.append(n)
        if n > 300:
            raise MemoryError(f"Unable to allocate the table of {n} rows")
        return empty(n)

    monkeypatch.setattr(ScanTable, "empty", staticmethod(block_only))
    table = scan(cfg)
    assert (table[0], table[301], table[-1]) == (records[0], records[301], records[-1])
    assert max(sizes) == 300
    with pytest.raises(ConfigError, match=r"^840 report rows do not fit in memory$"):
        table.columns


def streaming_grid(n_theta: int) -> ScanConfig:
    """n_theta x 4 x 32 x 32 points: n_theta blocks of 2^12 points, or 4
    n_theta blocks of 2^10."""
    return config(theta=np.linspace(0.1, 1.5, n_theta), phi=np.linspace(0.0, 3.0, 4),
                  tau=np.linspace(0.05, 3.1, 32), eta=np.linspace(0.1, 1.0, 32))


def test_report_memory_is_one_block(tmp_path, monkeypatch):
    # a streamed report holds one block of rows, so its peak does not grow
    # with the grid; the whole 16-block table alone would be 4.3 MiB
    monkeypatch.setattr(scan_mod, "CHUNK", 2**10)
    report(scan(streaming_grid(1)), str(tmp_path / "warm.csv"))  # first-call caches
    peaks = {}
    for blocks in (4, 16):
        tracemalloc.start()
        try:
            report(scan(streaming_grid(blocks // 4)), str(tmp_path / f"{blocks}.csv"))
            peaks[blocks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[16] <= 1.1 * peaks[4], peaks


@pytest.mark.parametrize("read", ["report", "iterate"])
def test_streamed_reads_allocate_one_block(tmp_path, monkeypatch, read):
    # neither writing nor iterating a streamed table allocates more than
    # CHUNK x len(picks) rows at once
    monkeypatch.setattr(scan_mod, "CHUNK", 2**10)
    empty, sizes = ScanTable.empty, []

    def tracked(n):
        sizes.append(n)
        return empty(n)

    monkeypatch.setattr(ScanTable, "empty", staticmethod(tracked))
    cfg = streaming_grid(1)  # 4 blocks
    table = scan(cfg)
    if read == "report":
        report(table, str(tmp_path / "r.csv"))
    else:
        assert sum(1 for _ in table) == len(table) == 3 * 4096
    assert sizes and max(sizes) <= 2**10 * len(cfg.families), sizes


def test_streamed_table_reads_again(tmp_path, monkeypatch):
    # a table written twice, or filled after it was written, gives the same
    # bytes and rows
    monkeypatch.setattr(scan_mod, "CHUNK", 100)  # 280 points: 3 blocks
    cfg = CONFIGS["tolerance"]
    records = reference_scan(cfg)
    table = scan(cfg)
    assert_same_bytes(table, records, tmp_path, "first")
    assert_same_bytes(table, records, tmp_path, "again")
    assert list(table) == records
    assert table == scan(cfg) and scan(cfg) == table
    assert_same_bytes(table, records, tmp_path, "filled")


def test_table_ignores_later_grid_edits(tmp_path):
    cfg = config(bias_mode="eta-1", eta=[0.05, 0.5, 1.0], theta=[0.2, 1.1], phi=[0.0, 2.5])
    records = reference_scan(cfg)
    tables = [scan(cfg) for _ in range(3)]
    cfg.tau[:] = 0.0  # frozen dataclass, mutable arrays
    assert list(tables[0]) == records
    assert tables[1][-1] == records[-1]
    assert_same_bytes(tables[2], records, tmp_path)


def test_empty_report(tmp_path):
    assert_same_bytes(ScanTable.empty(0), [], tmp_path)
    table = scan(config(bias_mode="fixed", x_fixed=0.9, eta=[0.5]))  # every point skipped
    assert len(table) == 0 and list(table) == []
    assert_same_bytes(table, [], tmp_path, "skipped")


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]


def test_non_finite_and_extreme_floats(tmp_path):
    # CSV cells are f"{v:.12g}"; JSON cells are json's spelling (NaN, Infinity)
    table = scan(CONFIGS["zero"])
    k = len(SPECIAL_FLOATS)
    for shift, col in enumerate(("theta", "tau", "x", "value", "bound")):
        table.columns[col][:k] = np.roll(SPECIAL_FLOATS, shift)
    assert_same_bytes(table, list(table), tmp_path)
    rows = (tmp_path / "r.csv").read_text().splitlines()[1:1 + k]
    assert [r.split(",")[CSV_COLUMNS.index("value")] for r in rows] == [
        "4.94065645841e-324", "1e+16", "1e-05", "nan", "inf", "-inf", "-0"]
    json_rows = json.loads((tmp_path / "r.json").read_text())[:k]
    assert [repr(r["value"]) for r in json_rows] == [
        "5e-324", "1e+16", "1e-05", "nan", "inf", "-inf", "-0.0"]


@pytest.mark.parametrize("blocks", [1, 2])
def test_tables_of_whole_blocks(tmp_path, blocks):
    # the last row of the last block loses its JSON separator, and only it
    base = scan(CONFIGS["tolerance"])
    n = blocks * scan_mod.CHUNK
    table = ScanTable({c: np.resize(a, n) for c, a in base.columns.items()})
    assert_same_bytes(table, list(table), tmp_path)


def test_table_row_view():
    cfg = CONFIGS["eta-1"]
    table, records = scan(cfg), reference_scan(cfg)
    assert table[0] == records[0] and table[-1] == records[-1]
    assert type(table[0].value) is float and type(table[0].spec_index) is int
    with pytest.raises(IndexError):
        table[len(table)]
    assert table != scan(CONFIGS["zero"])


# --- random tables ---------------------------------------------------------------

# where f"{v:.12g}" and repr switch notation, and pairs that tie after 12 digits
EDGE_FLOATS = SPECIAL_FLOATS + [
    0.0, 1e12, 999999999999.5, 1e15, 1.2345678901234e13, 1e-4, 9.99999999999e-5,
    0.1234567890123, 0.1234567890124, 1.0000000000001, 1.0000000000002,
    123456789012.3, 123456789012.4,
    # print as integers but are not integral; 999999999999.5 prints 1e+12
    2.0000000000001, -0.99999999999996, 999999999999.4, 999999999999.5,
    # the smallest normal float and two subnormals
    2.2250738585072014e-308, 1e-310, -2.5e-320,
]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(1e12, 1e16),
                   st.floats(allow_nan=True, allow_infinity=True))
SPEC_INDICES = st.one_of(st.integers(0, 23), st.integers(-(2**63), 2**63 - 1))
CODES = {"family": range(3), **{col: range(3) for col in FLAG_COLUMNS}}


def _key(value):
    """Distinct floats by bit pattern (-0.0 apart from 0.0, one key per nan)."""
    return np.float64(value).view(np.int64).item() if isinstance(value, float) else value


@st.composite
def tables(draw) -> ScanTable:
    """A table whose columns are each constant, a few values, or all distinct."""
    n = draw(st.integers(1, 40))
    columns = {}
    for col in CSV_COLUMNS:
        if col in CODES:
            values = draw(st.permutations(CODES[col]))
        else:
            values = draw(st.lists(FLOATS if col in FLOAT_COLUMNS else SPEC_INDICES,
                                   min_size=1, max_size=n, unique_by=_key))
        kind = draw(st.sampled_from(["constant", "few", "distinct"]))
        if kind == "constant" or len(values) == 1:
            cells = values[:1] * n
        elif kind == "few" or len(values) < n:
            cells = draw(st.lists(st.sampled_from(values[:4]), min_size=n, max_size=n))
        else:
            cells = values[:n]
        columns[col] = np.array(cells, dtype=ScanTable.empty(0).columns[col].dtype)
    return ScanTable(columns)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tables())
def test_random_tables_match_row_wise_writer(tmp_path_factory, table):
    # blocks of 7 rows, written 3 rows at a time
    tmp_path = tmp_path_factory.mktemp("random")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan_mod, "CHUNK", 7)
        mp.setattr(scan_mod, "WRITE_ROWS", 3)
        assert_same_bytes(table, list(table), tmp_path)


def json_cells(values: np.ndarray) -> list[str]:
    """The JSON writer's float cell of each of `values`, without its affixes."""
    pre, post = scan_mod._JSON_AFFIXES["value"]
    cells, codes = scan_mod._distinct(values, "value", True)
    assert all(c.startswith(pre) and c.endswith(post) for c in cells)
    return [cells[k][len(pre):-len(post)] for k in codes.tolist()]


def round_trip_cells(values: np.ndarray) -> list[str]:
    return [scan_mod._json_float(f"{v:.12g}") for v in values.tolist()]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_subnormal=True)),
                min_size=1, max_size=30))
def test_json_cells_are_the_round_tripped_text(values):
    # the text rule ("." or "e", else ".0" appended) and its fallback give the
    # cell that float(text) spells; integrality is read off the text, so
    # 2.0000000000001 ("2") is "2.0"
    values = np.array(values)
    assert json_cells(values) == round_trip_cells(values)


def test_json_cells_of_random_bit_patterns():
    bits = np.random.default_rng(24).integers(-(2**63), 2**63 - 1, 10**5, dtype=np.int64,
                                              endpoint=True)
    values = bits.view(np.float64)
    assert np.isnan(values).any() and (np.abs(values) < 2.2250738585072014e-308).any()
    assert json_cells(values) == round_trip_cells(values)


def test_parse_report_reads_every_written_cell_back(tmp_path):
    # parse_report accepts a cell only as the writer's text for the value it
    # reads as, so every cell written from a finite float or any spec_index
    # must read back to a table that writes the same bytes
    rng = np.random.default_rng(26)
    values = rng.integers(-(2**63), 2**63 - 1, 4000, dtype=np.int64, endpoint=True)
    values = values.view(np.float64)
    finite = [v for v in EDGE_FLOATS if math.isfinite(v)]
    values = np.concatenate([finite, values[np.isfinite(values)]])
    base = scan(CONFIGS["zero"]).columns
    table = ScanTable({c: np.resize(a, len(values)) for c, a in base.items()})
    for shift, col in enumerate(FLOAT_COLUMNS):
        table.columns[col][:] = np.roll(values, shift)
    table.columns["spec_index"][:] = rng.integers(-(2**63), 2**63 - 1, len(values), endpoint=True)
    report(table, str(tmp_path / "r.csv"))
    report(parse_report(str(tmp_path / "r.csv")), str(tmp_path / "again.csv"))
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()


def test_all_distinct_table_renumbers_its_keys(tmp_path):
    # one block whose columns are all distinct: the second column run has
    # 3 n^5 > 2^63 combinations, more than an int64 key can count
    n = 2**13
    rng = np.random.default_rng(11)
    table = ScanTable.empty(n)
    for col, column in table.columns.items():
        if col in FLOAT_COLUMNS:
            column[...] = rng.uniform(-1e3, 1e3, n) * 10.0 ** rng.integers(-20, 20, n)
            column[:4] = [0.0, -0.0, 1e16, 5e-324]
            assert np.unique(column.view(np.int64)).size == n
        elif col == "spec_index":
            column[...] = rng.permutation(n)
        else:
            column[...] = np.arange(n) % 3
    assert 3 * n**5 > 2**63
    assert_same_bytes(table, list(table), tmp_path)


def test_wrapped_keys_would_merge_combinations(tmp_path):
    # one block of n = 2^14 rows: eta is distinct per row and x, axis_alpha,
    # axis_beta and spec_index repeat with period n / 2, so their run has
    # n (n / 2)^4 = 2^66 combination keys; rows r and r + n / 2 differ in eta
    # only, and a key wrapped modulo 2^64 would give them the same key
    n = scan_mod.CHUNK
    r = np.arange(n)
    table = ScanTable.empty(n)
    for col, column in table.columns.items():
        column[...] = 0
    table.columns["eta"][...] = 1.0 + 1e-3 * r
    for col in ("x", "axis_alpha", "axis_beta"):
        table.columns[col][...] = -1.0 - 1e-3 * (r % (n // 2))
    table.columns["spec_index"][...] = r % (n // 2)
    assert n * (n // 2) ** 4 >= 2**66
    assert_same_bytes(table, list(table), tmp_path)
