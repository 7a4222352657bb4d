import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lgscan.cli as cli
from lgscan import grid as gridmod
from lgscan.config import (
    MAX_RANGE_POINTS,
    eval_expr,
    load_configs,
    parse_bias,
    parse_grid,
)
from lgscan.errors import ConfigError, NoBracket
from lgscan.scan import (
    BRACKET_SAMPLES,
    CSV_COLUMNS,
    ETA_HI,
    ETA_LO,
    EXACT_TAUS,
    HALVINGS_PER_CALL,
    ScanConfig,
    ScanTable,
    _circle_max,
    _interpolate,
    _zoom_tau_max,
    axis_from_angles,
    bias_x,
    default_tau_grid,
    exact_tau_max,
    figure_records,
    parse_report,
    report,
    scan,
    skipped_points,
    threshold_eta,
    valid_effect,
)


def small_config(**kw):
    base = dict(
        theta=[np.pi / 3],
        phi=[np.pi / 2],
        tau=np.linspace(0.3, 2.8, 6),
        eta=[0.5, 1.0],
        bias_mode="zero",
    )
    base.update(kw)
    return ScanConfig(**base)


class TestConfigParsing:
    def test_eval_expr(self):
        assert eval_expr("pi/3") == pytest.approx(math.pi / 3)
        assert eval_expr("2*pi") == pytest.approx(2 * math.pi)
        assert eval_expr("-0.5 + 1") == pytest.approx(0.5)
        assert eval_expr("1e-3") == pytest.approx(0.001)

    def test_eval_expr_rejects_junk(self):
        with pytest.raises(ConfigError):
            eval_expr("__import__('os')")
        with pytest.raises(ConfigError):
            eval_expr("pi; 1")

    def test_parse_grid(self):
        g = parse_grid("0 : 1 : 0.25")
        assert np.allclose(g, [0, 0.25, 0.5, 0.75, 1.0])
        assert parse_grid("pi/2").shape == (1,)

    def test_load_good_config(self, tmp_path):
        cfg_text = """
# comment
[run-a]
theta = pi/3
phi = pi/2
tau = 0.1 : 0.5 : 0.1
eta = 0.2 : 1.0 : 0.4
bias = eta-1
families = slgi,wlgi
tolerance = 1e-9
out = a.csv

[run-b]
tau = 0.3
eta = 1
axis_alpha = pi/4
axis_beta = pi/4
"""
        path = tmp_path / "scan.cfg"
        path.write_text(cfg_text)
        configs = load_configs(str(path))
        assert set(configs) == {"run-a", "run-b"}
        a = configs["run-a"]
        assert a.bias_mode == "eta-1"
        assert a.families == ("slgi", "wlgi")
        assert a.nsit_tol == 1e-9
        assert a.out == "a.csv"
        assert np.allclose(a.tau, [0.1, 0.2, 0.3, 0.4, 0.5])
        b = configs["run-b"]
        assert np.allclose(b.axis, axis_from_angles(np.pi / 4, np.pi / 4))

    def test_unknown_key_diagnostic(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[x]\ntheta = 0\nbogus = 1\n")
        with pytest.raises(ConfigError, match=r"line 3: unknown key 'bogus'"):
            load_configs(str(path))

    def test_key_outside_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("theta = 0\n")
        with pytest.raises(ConfigError, match="line 1"):
            load_configs(str(path))

    def test_bad_bias(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[x]\nbias = nonsense\n")
        with pytest.raises(ConfigError, match="bias"):
            load_configs(str(path))

    def test_eta_out_of_range(self):
        with pytest.raises(ConfigError):
            ScanConfig(theta=[0], phi=[0], tau=[0.1], eta=[1.5])


# arithmetic expressions over the config grammar's atoms, nested a few deep
_ATOMS = st.one_of(
    st.sampled_from(["pi", "0", "1", "2", "0.5", "1e308", "1e-308", "2000.5", "-1"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**400, 10**400).map(str),
)
_EXPRS = st.recursive(
    _ATOMS,
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from(["+", "-", "*", "/", "**"]), sub).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        sub.map(lambda e: f"-({e})"),
    ),
    max_leaves=6,
)


class TestConfigArithmetic:
    @pytest.mark.parametrize("expr", ["1e308*10", "1/0", "2**2000.5"])
    def test_bad_arithmetic_exits_2_with_line(self, tmp_path, capsys, expr):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[x]\ntheta = 0\ntau = {expr}\n")
        code = cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "line 3 (x.tau)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "x.csv").exists()

    def test_eval_tau_division_by_zero_exits_2(self, capsys):
        assert cli.main(["eval", "--tau", "1/0"]) == 2
        assert "ZeroDivisionError" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_eval_non_finite_eta_exits_2(self, capsys, eta):
        assert cli.main(["eval", "--tau", "1", "--eta", eta]) == 2
        assert "eta" in capsys.readouterr().err

    def test_complex_result_rejected(self):
        with pytest.raises(ConfigError, match="finite real"):
            eval_expr("(-1)**0.5", "bias")

    @pytest.mark.parametrize("text", ["-" * 100000 + "1", "1" + "+1" * 50000, "1\x00"])
    def test_unparseable_nesting_and_nul(self, text):
        with pytest.raises(ConfigError, match="cannot parse"):
            eval_expr(text, "line 1")

    def test_range_without_finite_step_count(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_grid("-1e308 : 1e308 : 1e-300", "line 2")

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_EXPRS, st.text(max_size=30)))
    def test_expression_is_finite_float_or_config_error(self, text):
        try:
            value = eval_expr(text, "line 1")
        except ConfigError as exc:
            assert str(exc).startswith("line 1")
        else:
            assert isinstance(value, float) and math.isfinite(value)


class TestInputValidation:
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_threshold_tolerance_must_be_finite_positive(self, capsys, tol):
        # 0 and -1 used to bisect forever, nan returned eta = 0.5
        code = cli.main(["threshold", "--family", "slgi", "--tau", "pi/4", "--tolerance", tol])
        assert code == 2
        assert "tolerance must be a finite number > 0" in capsys.readouterr().err

    def test_threshold_tiny_tolerance_terminates(self):
        kw = dict(theta=np.pi / 3, phi=np.pi / 2, tau=np.pi / 3, spec_index=18)
        fine = threshold_eta("wlgi", tol=1e-300, **kw)
        assert fine == pytest.approx(threshold_eta("wlgi", **kw), abs=1e-4)

    @pytest.mark.parametrize("command", ["eval", "scan"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_nsit_tolerance_must_be_finite_nonnegative(self, tmp_path, capsys, command, tol):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[x]\ntau = 1\n")
        args = (["eval", "--tau", "1"] if command == "eval"
                else ["scan", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert cli.main(args + ["--tolerance", tol]) == 2
        assert "tolerance must be a finite number >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, text, message", [
        ("eta", "1.5", "eta must lie in [0, 1]"),
        ("jobs", "0", "jobs must be >= 1"),
        ("families", "wlgi,wlgi", "families must not repeat"),
        ("families", ",", "families must be nonempty"),
    ])
    def test_config_value_rejected_names_line(self, tmp_path, capsys, key, text, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[x]\ntheta = 0\ntau = 1\n{key} = {text}\n")
        assert cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"line 4 (x.{key}): {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_scan_config_rejects_repeated_family(self):
        with pytest.raises(ConfigError, match="must not repeat"):
            small_config(families=("wlgi", "slgi", "wlgi"))

    def test_config_negative_tolerance_names_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[x]\ntheta = 0\ntau = 1\ntolerance = -1e-9\n")
        assert cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "line 4 (x.tolerance)" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("theta", [0.1, math.nan]), ("phi", [math.inf]), ("tau", [math.nan]),
        ("eta", [math.nan]), ("x_fixed", math.nan), ("axis_alpha", math.inf),
        ("axis_beta", math.nan), ("nsit_tol", math.nan), ("nsit_tol", -1.0),
    ])
    def test_scan_config_rejects_non_finite(self, field, value):
        # a nan grid used to give value=nan rows, a nan x_fixed 0 records
        with pytest.raises(ConfigError, match=field):
            small_config(**{"bias_mode": "fixed", field: value})

    def test_range_point_cap(self, tmp_path, capsys):
        assert parse_grid("0 : 999999 : 1").size == MAX_RANGE_POINTS
        with pytest.raises(ConfigError, match=r"^line 3: .* more than 1000000 points"):
            parse_grid("0 : 1000000 : 1", "line 3")
        cfg = tmp_path / "big.cfg"
        cfg.write_text("[x]\ntheta = 0\ntau = 0 : 1 : 1e-300\n")
        assert cli.main(["scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "line 3 (x.tau)" in capsys.readouterr().err

    def _report_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        report(scan(small_config(families=("slgi",))), str(path), "csv")
        return path, path.read_text().splitlines()

    def test_parse_report_short_row_names_line(self, tmp_path):
        # used to end in a TypeError from ScanRecord
        path, lines = self._report_lines(tmp_path)
        path.write_text("\n".join(lines[:2] + ["1,2,3"] + lines[2:]) + "\n")
        with pytest.raises(ConfigError, match=r"^line 3: expected 21 cells, got 3$"):
            parse_report(str(path))

    @pytest.mark.parametrize("col, cell", [("value", "abc"), ("spec_index", "1.5"),
                                           ("violated", "maybe"), ("family", "qlgi"),
                                           ("spec_index", "9" * 20)])
    def test_parse_report_bad_cell_names_line(self, tmp_path, col, cell):
        # a bad number used to raise a bare ValueError, a bad flag read as false
        path, lines = self._report_lines(tmp_path)
        cells = lines[2].split(",")
        cells[CSV_COLUMNS.index(col)] = cell
        path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        with pytest.raises(ConfigError, match=rf"^line 3: cannot parse {col} cell '{cell}'$"):
            parse_report(str(path))

    @pytest.mark.parametrize("col, cell", [("value", "nan"), ("theta", "inf"),
                                           ("eta", "-inf"), ("x", "NaN")])
    def test_parse_report_non_finite_cell_names_line(self, tmp_path, col, cell):
        # a nan or inf float cell used to be read into the table without complaint
        path, lines = self._report_lines(tmp_path)
        cells = lines[2].split(",")
        cells[CSV_COLUMNS.index(col)] = cell
        path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        with pytest.raises(ConfigError, match=rf"^line 3: cannot parse {col} cell '{cell}'$"):
            parse_report(str(path))

    def test_parse_report_empty_file(self, tmp_path):
        # used to end in an IndexError
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ConfigError, match=r"^line 1: expected the report header"):
            parse_report(str(path))


class TestBias:
    def test_parse_bias_modes(self):
        assert parse_bias("zero") == ("zero", 0.0)
        assert parse_bias(" eta - 1 ") == ("eta-1", 0.0)
        assert parse_bias("x=pi/10") == ("fixed", pytest.approx(math.pi / 10))

    def test_parse_bias_diagnostics(self):
        with pytest.raises(ConfigError, match=r"^bias must be zero, eta-1 or x=<value>$"):
            parse_bias("nonsense")
        with pytest.raises(ConfigError, match=r"^line 4: bias must be"):
            parse_bias("nonsense", "line 4", "run.bias")
        with pytest.raises(ConfigError, match=r"^line 4 \(run\.bias\): cannot parse"):
            parse_bias("x=1+", "line 4", "run.bias")

    @pytest.mark.parametrize("mode", ["eta - 1", "eta1", "x=0.2", "ETA-1"])
    def test_bias_x_rejects_unknown_modes(self, mode):
        # used to return x_fixed for any mode but "zero" and "eta-1"
        with pytest.raises(ConfigError, match=f"^unknown bias mode {mode!r}$"):
            bias_x(mode, np.array([0.25, 0.5]), 0.2)
        with pytest.raises(ConfigError, match="unknown bias mode"):
            small_config(bias_mode=mode)

    def test_bias_x_rule(self):
        eta = np.array([0.25, 0.5])
        assert np.array_equal(bias_x("zero", eta), [0.0, 0.0])
        assert np.array_equal(bias_x("eta-1", eta), [-0.75, -0.5])
        assert np.array_equal(bias_x("fixed", eta, 0.2), [0.2, 0.2])
        assert float(bias_x("eta-1", 0.75)) == -0.25
        cfg = small_config(bias_mode="fixed", x_fixed=0.1)
        assert np.array_equal(cfg.x_of(cfg.eta), bias_x("fixed", cfg.eta, 0.1))


class TestScan:
    def test_record_count_and_order(self):
        cfg = small_config()
        records = scan(cfg)
        assert len(records) == 6 * 2 * len(cfg.families)
        # grid order: tau outer loop over eta, family innermost
        keys = [(r.tau, r.eta, r.family) for r in records]
        expect = [
            (t, e, f)
            for t in cfg.tau
            for e in cfg.eta
            for f in cfg.families
        ]
        assert keys == [(pytest.approx(t), pytest.approx(e), f) for t, e, f in expect]

    def test_determinism(self):
        cfg = small_config()
        a = scan(cfg)
        b = scan(cfg)
        assert a == b

    def test_jobs_equivalence(self):
        cfg1 = small_config()
        cfg2 = small_config(jobs=3)
        r1, r2 = scan(cfg1), scan(cfg2)
        assert r1 == r2

    def test_skipped_points_fixed_bias(self):
        cfg = small_config(bias_mode="fixed", x_fixed=0.6, eta=[0.2, 0.5, 0.9])
        # eta = 0.5 exactly on the boundary |x| + eta = 1.1 > 1 -> skipped; 0.9 skipped
        skipped = skipped_points(cfg)
        assert skipped == 2 * 1 * 1 * 6
        records = scan(cfg)
        assert {r.eta for r in records} == {0.2}

    def test_values_against_known_point(self):
        cfg = ScanConfig(
            theta=[np.pi / 3], phi=[np.pi / 2], tau=[5 * np.pi / 6],
            eta=[0.5], bias_mode="eta-1", families=("slgi",),
        )
        rec = scan(cfg)[0]
        assert rec.value == pytest.approx(1.125, abs=1e-10)
        assert rec.violated
        assert rec.x == pytest.approx(-0.5)
        assert rec.jm_triple is None

    def test_nsit_flags_match_scalar(self):
        from lgscan.jointmeas import jm_verdict
        from lgscan.measurement import QubitState, Schedule, make_pure_state
        from lgscan.nsit import disturbance_report, nsit_satisfied

        cfg = ScanConfig(theta=[np.pi / 4], phi=[0.0], tau=[np.pi / 4], eta=[1.0])
        rec = scan(cfg)[0]
        rep = disturbance_report(
            make_pure_state(np.pi / 4, 0.0),
            Schedule(measured=(1, 2, 3), tau=np.pi / 4, x=0.0, eta=1.0),
        )
        flags = nsit_satisfied(rep)
        assert (rec.nsit_12, rec.nsit_13, rec.nsit_23, rec.nsit_123, rec.nsit_1_2_3) == (
            flags["nsit_12"], flags["nsit_13"], flags["nsit_23"],
            flags["nsit_123"], flags["nsit_1_2_3"],
        )
        # seeded points in every bias mode, turned axis: NSIT and JM flags
        rng = np.random.default_rng(17)
        for bias_mode, x_fixed in (("zero", 0.0), ("eta-1", 0.0), ("fixed", -0.2)):
            cfg = ScanConfig(theta=rng.uniform(0, np.pi, 2), phi=rng.uniform(0, 2 * np.pi, 2),
                             tau=rng.uniform(0.05, np.pi - 0.05, 3),
                             eta=rng.uniform(0.05, 0.8, 2), bias_mode=bias_mode,
                             x_fixed=x_fixed, axis_alpha=0.4, axis_beta=1.1, families=("slgi",))
            records = scan(cfg)
            assert len(records) == 24
            for rec in records:
                sched = Schedule(measured=(1, 2, 3), tau=rec.tau, axis=cfg.axis, x=rec.x,
                                 eta=rec.eta)
                rep = disturbance_report(QubitState.pure(rec.theta, rec.phi), sched)
                for cond, ok in nsit_satisfied(rep, cfg.nsit_tol).items():
                    assert getattr(rec, cond) == ok
                verdict = jm_verdict(sched)
                for (a, b), pair in verdict.pairwise.items():
                    assert getattr(rec, f"jm_{a}{b}") == pair.jointly_measurable
                triple = verdict.triple
                assert rec.jm_triple == (None if triple is None else triple.jointly_measurable)


def _threshold_one_sample_at_a_time(family, *, theta=0.0, phi=0.0, tau=None,
                                    maximize_tau=False, bias_mode="zero", x_fixed=0.0,
                                    spec_index=None, tol=1e-4):
    """The eta bisection with one g evaluation per eta, each bracket sample
    on its own: with maximize_tau, one kernel call at the 5 EXACT_TAUS,
    then `exact_tau_max` for a linear family, else `_zoom_tau_max` on the
    `_interpolate`d distributions.  g is read only at valid effects: the
    bracket is [ETA_LO, cap], cap = 1 - |x| at a fixed bias, the samples
    are those below cap plus cap, a midpoint past cap counts as above the
    crossing, and the result is at most cap.  Returns the threshold and the
    number of distinct etas the bisection evaluated past the samples."""
    fam = gridmod.FAMILY_TABLE[family]
    specs = fam.specs if spec_index is None else fam.specs[spec_index:spec_index + 1]
    axis = axis_from_angles(0.0, math.pi / 2)
    bloch = gridmod.pure_bloch(theta, phi)

    @functools.cache
    def g(eta):
        x = bias_x(bias_mode, eta, x_fixed)
        assert valid_effect(eta, x)
        if not maximize_tau:
            dists = gridmod.lg_distributions(bloch, np.array([float(tau)]), axis, eta, x)
            return float(fam.values(dists, specs).max()) - fam.bound
        dists = gridmod.lg_distributions(bloch, EXACT_TAUS, axis, eta, x)
        if fam.linear:
            return float(exact_tau_max(fam.values(dists, specs))) - fam.bound
        value = _zoom_tau_max(lambda t: fam.values(_interpolate(dists, t), specs).max(axis=-1))
        return float(value) - fam.bound

    cap = 1.0 - abs(x_fixed) if bias_mode == "fixed" else ETA_HI
    g_lo, g_hi = g(ETA_LO), g(cap)
    if not g_lo < 0.0 < g_hi:
        raise NoBracket(f"no violation bracket on [{ETA_LO:g}, {cap:g}]: "
                        f"g={g_lo:.3g}..{g_hi:.3g}")
    samples = [e for e in np.linspace(ETA_LO, ETA_HI, BRACKET_SAMPLES) if e < cap] + [cap]
    signs = [g(e) > 0 for e in samples]
    if sum(1 for a, b in zip(signs, signs[1:]) if a != b) != 1:
        raise NoBracket("g(eta) is not monotone-crossing on the bracket")
    lo, hi = ETA_LO, ETA_HI
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if not valid_effect(mid, bias_x(bias_mode, mid, x_fixed)) or g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return min(0.5 * (lo + hi), cap), g.cache_info().misses - len(samples)


def _outcome(fn, *args, **kw):
    """fn's result, or the type and text of the NoBracket it raised."""
    try:
        return fn(*args, **kw)
    except NoBracket as exc:
        return NoBracket, str(exc)


_STATES = [(float(t), float(p)) for t, p in np.random.default_rng(2024).uniform(
    (0.0, 0.0), (math.pi, 2 * math.pi), size=(2, 2))]
_BIASES = [dict(bias_mode="zero"), dict(bias_mode="eta-1"),
           dict(bias_mode="fixed", x_fixed=0.1)]
_TAU_MODES = [dict(maximize_tau=True), dict(tau=0.7), dict(tau=0.7, spec_index=1)]


class TestThresholdEta:
    @pytest.mark.parametrize("family", ["slgi", "wlgi", "elgi"])
    @pytest.mark.parametrize("bias", _BIASES, ids=["zero", "eta-1", "x=0.1"])
    @pytest.mark.parametrize("taus", _TAU_MODES, ids=["maximize", "fixed", "spec"])
    def test_equals_one_sample_at_a_time(self, family, bias, taus):
        for theta, phi in _STATES + [(1.7, math.pi / 2)]:
            kw = dict(theta=theta, phi=phi, **bias, **taus)
            want = _outcome(lambda: _threshold_one_sample_at_a_time(family, **kw)[0])
            assert _outcome(threshold_eta, family, **kw) == want

    def test_not_monotone_crossing_equals_one_sample_at_a_time(self):
        kw = dict(theta=1.0203076046982933, phi=4.90879241562788, tau=1.793517709541068,
                  bias_mode="eta-1")
        want = _outcome(lambda: _threshold_one_sample_at_a_time("slgi", **kw)[0])
        assert want == (NoBracket, "g(eta) is not monotone-crossing on the bracket")
        assert _outcome(threshold_eta, "slgi", **kw) == want

    @staticmethod
    def _kernel_calls(family, monkeypatch, **taus):
        """Per state of _STATES: the kernel calls of threshold_eta and the
        halvings of the one-sample-at-a-time bisection; the thresholds agree
        and the first call carries the nine bracket samples."""
        calls, counts = [], []
        kernel = gridmod.lg_distributions

        def counting(bloch0, tau, axis, eta, x, experiments=gridmod.SUBSETS):
            calls.append(np.ravel(eta))
            return kernel(bloch0, tau, axis, eta, x, experiments)

        for theta, phi in _STATES:
            kw = dict(theta=theta, phi=phi, **taus)
            eta, halvings = _threshold_one_sample_at_a_time(family, **kw)
            calls.clear()
            monkeypatch.setattr(gridmod, "lg_distributions", counting)
            assert threshold_eta(family, **kw) == eta
            monkeypatch.undo()
            assert np.array_equal(calls[0], np.linspace(ETA_LO, ETA_HI, BRACKET_SAMPLES))
            counts.append((len(calls), halvings))
        return counts

    @pytest.mark.parametrize("family", ["slgi", "wlgi", "elgi"])
    def test_bracket_samples_take_one_kernel_call(self, family, monkeypatch):
        # one call for the nine samples; every family's maximum reads 5
        # taus per eta, and one call decides HALVINGS_PER_CALL halvings
        for calls, halvings in self._kernel_calls(family, monkeypatch, maximize_tau=True):
            assert calls <= 1 + math.ceil(halvings / HALVINGS_PER_CALL)

    @pytest.mark.parametrize("family", ["slgi", "wlgi", "elgi"])
    def test_fixed_tau_decides_halvings_per_call(self, family, monkeypatch):
        # a fixed tau is one tau per eta: one call decides HALVINGS_PER_CALL halvings
        for calls, halvings in self._kernel_calls(family, monkeypatch, tau=0.7):
            assert calls <= 1 + math.ceil(halvings / HALVINGS_PER_CALL)

    def test_slgi_spin_threshold(self):
        thr = threshold_eta("slgi", maximize_tau=True)
        assert thr == pytest.approx(np.sqrt(2 / 3), abs=2e-3)

    def test_wlgi_spec_threshold(self):
        thr = threshold_eta(
            "wlgi", theta=np.pi / 3, phi=np.pi / 2, tau=np.pi / 3, spec_index=18
        )
        assert thr == pytest.approx(0.690, abs=2e-3)

    def test_no_bracket(self):
        # the plain (unrelabeled) inequality never violates at this tau;
        # the family max would, via a relabeled member
        with pytest.raises(NoBracket):
            threshold_eta("slgi", tau=1.3, spec_index=0)

    def test_unknown_bias_mode_is_config_error(self):
        # "eta - 1" used to give the zero-bias threshold 0.883148, where
        # "eta-1" gives 0.800873
        with pytest.raises(ConfigError, match="unknown bias mode 'eta - 1'"):
            threshold_eta("slgi", tau=0.7, bias_mode="eta - 1")
        assert abs(threshold_eta("slgi", tau=0.7, bias_mode="eta-1") - 0.800873) < 1e-6

    def test_requires_tau(self):
        with pytest.raises(ConfigError):
            threshold_eta("slgi")

    def test_fixed_bias_threshold_outside_valid_range_exits_2(self, capsys):
        # used to print 0.829071, where |x| + eta = 1.129; the valid range
        # [1e-6, 1 - |x|] holds no violation
        code = cli.main(["threshold", "--family", "slgi", "--maximize-tau", "--bias", "x=-0.3"])
        assert code == 2
        assert "no violation bracket on [1e-06, 0.7]: " in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["slgi", "wlgi", "elgi"])
    def test_reads_only_valid_effects(self, family, monkeypatch):
        # at a fixed bias the kernel used to see eta up to 1, past 1 - |x|
        kernel = gridmod.lg_distributions
        seen = []

        def checking(bloch0, tau, axis, eta, x, experiments=gridmod.SUBSETS):
            seen.append(bool(np.all(valid_effect(eta, x))))
            return kernel(bloch0, tau, axis, eta, x, experiments)

        monkeypatch.setattr(gridmod, "lg_distributions", checking)
        biases = _BIASES + [dict(bias_mode="fixed", x_fixed=-0.3),
                            dict(bias_mode="fixed", x_fixed=0.25)]
        for bias in biases:
            for taus in _TAU_MODES:
                for theta, phi in _STATES + [(1.7, math.pi / 2)]:
                    _outcome(threshold_eta, family, theta=theta, phi=phi, **bias, **taus)
        assert seen and all(seen)

    def test_fixed_bias_crossing_inside_valid_range(self, capsys):
        # used to exit 2 with "no violation bracket on [1e-06, 1]", reading
        # g(1) at |x| + eta = 1.3; the crossing lies below 1 - |x| = 0.7
        from lgscan.inequalities import wlgi_all
        from lgscan.measurement import QubitState, Schedule

        tol = 1e-4
        kw = dict(theta=1.7, phi=math.pi / 2, bias_mode="fixed", x_fixed=-0.3, spec_index=0)
        eta = threshold_eta("wlgi", maximize_tau=True, tol=tol, **kw)
        assert abs(eta - 0.697296) < tol
        state = QubitState.pure(1.7, math.pi / 2)
        taus = np.linspace(0.0, math.pi, 1502)[1:-1]

        def scalar_max(e):
            return max(wlgi_all(state, Schedule(measured=(1, 2, 3), tau=t, x=-0.3, eta=e),
                                specs=gridmod.WLGI_SPECS[:1])[0].value for t in taus)

        assert scalar_max(eta - tol) < 0.0 < scalar_max(eta + tol)
        assert cli.main(["threshold", "--family", "wlgi", "--bias", "x=-0.3", "--theta", "1.7",
                         "--phi", "pi/2", "--maximize-tau", "--spec-index", "0"]) == 0
        assert capsys.readouterr().out == "wlgi threshold eta = 0.697296\n"

    def test_tau_with_maximize_tau_exits_2(self, capsys):
        # the tau used to be ignored
        with pytest.raises(ConfigError, match="exactly one of tau and maximize_tau"):
            threshold_eta("slgi", tau=0.7, maximize_tau=True)
        assert cli.main(["threshold", "--family", "slgi", "--tau", "0.7", "--maximize-tau"]) == 2
        assert "exactly one of tau and maximize_tau" in capsys.readouterr().err

    def test_fixed_bias_without_valid_eta(self, capsys):
        # used to report "no violation bracket ... g=0..0"
        with pytest.raises(ConfigError, match="leaves no valid eta"):
            threshold_eta("slgi", maximize_tau=True, bias_mode="fixed", x_fixed=2.0)
        assert cli.main(["threshold", "--family", "slgi", "--maximize-tau", "--bias", "x=2"]) == 2
        assert "bias x = 2 leaves no valid eta" in capsys.readouterr().err

    def test_fixed_bias_without_valid_eta_prints_twelve_digits(self, capsys):
        # used to print "bias x = 1" for x = 0.99999999
        msg = "bias x = 0.99999999 leaves no valid eta >= 1e-06"
        with pytest.raises(ConfigError) as exc:
            threshold_eta("slgi", maximize_tau=True, bias_mode="fixed", x_fixed=0.99999999)
        assert str(exc.value) == msg
        assert cli.main(["threshold", "--family", "slgi", "--maximize-tau",
                         "--bias", "x=0.99999999"]) == 2
        assert msg in capsys.readouterr().err

    def test_no_bracket_prints_cap_to_twelve_digits(self, capsys):
        # the cap 1 - 0.1234567 used to print as 0.876543
        assert cli.main(["threshold", "--family", "elgi", "--bias", "x=0.1234567", "--theta",
                         "1.1", "--phi", "0.4", "--maximize-tau"]) == 2
        assert "no violation bracket on [1e-06, 0.8765433]: " in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["slgi", "wlgi", "elgi"])
    def test_kernel_calls_walk_the_family_reads(self, family, monkeypatch):
        # SLGI and WLGI read only the pairs: no call measures (1, 2, 3)
        kernel, keys = gridmod.lg_distributions, []

        def recording(*args, **kwargs):
            dists = kernel(*args, **kwargs)
            keys.append(tuple(dists))
            return dists

        monkeypatch.setattr(gridmod, "lg_distributions", recording)
        threshold_eta(family, maximize_tau=True)
        want = ((1,), (2,)) + gridmod.PAIRS if family != "elgi" else gridmod.SUBSETS[:-1]
        assert keys and all(k == want for k in keys)
        assert all((1, 2, 3) not in k for k in keys)

    def test_fixed_bias_valid_threshold_unchanged(self, capsys):
        code = cli.main(["threshold", "--family", "wlgi", "--maximize-tau", "--bias", "x=0.1"])
        assert code == 0
        assert capsys.readouterr().out == "wlgi threshold eta = 0.718293\n"

    @pytest.mark.parametrize("family, index", [("slgi", "4"), ("wlgi", "-6")])
    def test_spec_index_out_of_range_exits_2(self, capsys, family, index):
        # slgi 4 used to end in an IndexError traceback, wlgi -6 to print
        # the threshold of spec 18
        code = cli.main(["threshold", "--family", family, "--maximize-tau",
                         f"--spec-index={index}"])
        assert code == 2
        assert f"{family} spec index must lie in 0.." in capsys.readouterr().err


_AXES = [axis_from_angles(0.0, math.pi / 2), axis_from_angles(math.pi / 4, math.pi / 4)]


def _tau_cases(n_states):
    """(dists, values) over seeded states x bias zero / eta-1 / x = 0.1 x the
    two _AXES, at seeded valid etas: dists(taus) gives the distributions and
    values(taus, family) the family's (..., specs) values."""
    rng = np.random.default_rng(77)
    for _ in range(n_states):
        bloch = gridmod.pure_bloch(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        for bias, axis in zip(_BIASES * 2, np.repeat(_AXES, len(_BIASES), axis=0)):
            eta = rng.uniform(0.05, 0.9)  # x = 0.1 is valid up to eta = 0.9

            def dists(taus, eta=eta, bias=bias, bloch=bloch, axis=axis):
                x = bias_x(bias["bias_mode"], eta, bias.get("x_fixed", 0.0))
                return gridmod.lg_distributions(bloch, taus, axis, eta, x)

            def values(taus, family, dists=dists):
                return gridmod.FAMILY_TABLE[family].values(dists(taus))

            yield dists, values


def _harmonics_above_2(values):
    """Largest |c_k|, k > 2, of values at 64 taus over the period of 2 tau."""
    return np.abs(np.fft.rfft(values(np.arange(64) * (math.pi / 64)), axis=0)[3:] / 64).max()


class TestExactTauMax:
    @pytest.mark.parametrize("family", ["slgi", "wlgi"])
    def test_linear_families_are_degree_2_in_2tau(self, family):
        assert gridmod.FAMILY_TABLE[family].linear
        for _, values in _tau_cases(6):
            assert _harmonics_above_2(lambda t: values(t, family)) <= 1e-14

    def test_elgi_is_not_band_limited(self):
        # entropies are not linear in the probabilities: 5 samples of ELGI
        # do not fix it, so its maximum is searched on rebuilt distributions
        assert not gridmod.FAMILY_TABLE["elgi"].linear
        worst = max(_harmonics_above_2(lambda t: values(t, "elgi")) for _, values in _tau_cases(2))
        assert worst > 1e-3

    @pytest.mark.parametrize("family", ["slgi", "wlgi"])
    def test_at_least_dense_grid(self, family):
        dense = np.linspace(0.0, math.pi, 20001)
        for _, values in _tau_cases(4):
            exact = float(exact_tau_max(values(EXACT_TAUS, family)))
            dense_max = values(dense, family).max()
            assert exact >= dense_max - 1e-12
            # and it is a value f attains: the dense grid misses the peak by
            # O(step^2) only
            assert exact <= dense_max + 1e-7

    def test_batches_over_leading_axes(self):
        _, values = next(_tau_cases(1))
        samples = np.stack([values(EXACT_TAUS, "wlgi") * s for s in (1.0, -0.5, 2.0)])
        each = [float(exact_tau_max(s)) for s in samples]
        assert exact_tau_max(samples).tolist() == each

    @pytest.mark.parametrize("bloch", [gridmod.pure_bloch(0.3, 1.1), np.array([1.0, 0, 0])],
                             ids=["state", "on-axis"])
    @pytest.mark.parametrize("family", ["slgi", "wlgi"])
    def test_degenerate_curves(self, family, bloch):
        # eta = 0 makes every curve constant; a state on the axis is a
        # stationary state.  No NaN and no warning (warnings are errors);
        # a constant curve keeps its sample maximum, to the DFT's rounding
        axis = _AXES[0]
        for eta in (0.0, 1e-9, 0.5):
            dists = gridmod.lg_distributions(bloch, EXACT_TAUS, axis, eta, 0.0)
            samples = gridmod.FAMILY_TABLE[family].values(dists)
            got = exact_tau_max(samples)
            assert np.isfinite(got) and got >= samples.max()
            if eta == 0.0:
                assert got == pytest.approx(samples.max(), rel=0, abs=1e-15)

    def test_degenerate_coefficients(self):
        def curve(u, c1, c2):  # 0.1 + 2 Re(c_1 e^(iu) + c_2 e^(2iu)), one spec
            return (0.1 + 2 * (c1 * np.exp(1j * u) + c2 * np.exp(2j * u)).real)[:, None]

        u, dense = 2 * EXACT_TAUS, np.linspace(0.0, 2 * math.pi, 20001)
        c1 = 0.3 * np.exp(0.4j)
        assert exact_tau_max(np.full((5, 2), 0.25)) == pytest.approx(0.25, rel=0, abs=1e-15)
        assert exact_tau_max(np.zeros((5, 1))) == 0.0
        # c_2 = 0: the degree-1 curve peaks at c_0 + 2|c_1|, between samples
        assert exact_tau_max(curve(u, c1, 0.0)) == pytest.approx(0.7, rel=0, abs=1e-15)
        assert curve(u, c1, 0.0).max() < 0.7 - 1e-3
        # c_1 = 0: the peak is at the mu = 0 points, c_0 + 2|c_2|
        assert exact_tau_max(curve(u, 0.0, 0.2j)) == pytest.approx(0.5, rel=0, abs=1e-15)
        # c_2 from tiny to comparable with c_1, and a peak at mu = 0 with c_1 != 0
        cases = [(c1, c2 * np.exp(1.3j)) for c2 in (5e-15, 1e-11, 1e-9, 1e-6, 0.2)]
        for c1, c2 in cases + [(0.1j, 0.2)]:
            assert exact_tau_max(curve(u, c1, c2)) >= curve(dense, c1, c2).max() - 1e-15


    @pytest.mark.parametrize("a0, a1, b1, a2, b2", [
        (0.1, 0.0, 0.2, 0.4, 0.0),     # g1 = 0 exactly: the peak is a mu = 0 point
        (0.1, 0.05, 0.0, -0.3, 0.0),   # a2 = -r: the half-angle frame from (b2, r - a2)
        (0.1, 0.0, 0.0, -0.3, 0.0),
        (0.1, 0.3, -0.2, 0.0, 0.0),    # degree 1
        (0.1, 0.0, 0.0, 0.0, 0.0),     # constant
        (0.1, 0.0, 0.7, 0.2, 0.0),     # g1 = 0, |g2| > 2r: mu > 0 from mu = 0
    ])
    def test_circle_max_on_exact_coefficients(self, a0, a1, b1, a2, b2):
        u = np.linspace(0.0, 2 * math.pi, 200001)
        f = a0 + a1 * np.cos(u) + b1 * np.sin(u) + a2 * np.cos(2 * u) + b2 * np.sin(2 * u)
        got = _circle_max(*(np.array([c]) for c in (a0, a1, b1, a2, b2)))[0]
        assert f.max() - 1e-15 <= got <= f.max() + 1e-9


class TestInterpolatedTauMax:
    @pytest.mark.parametrize("bias", _BIASES, ids=["zero", "eta-1", "x=0.1"])
    def test_interpolate_equals_kernel(self, bias):
        # every probability is a trigonometric polynomial of degree 2 in
        # 2 tau, so the 5 EXACT_TAUS fix all of them at any tau: also at
        # eta = 0 and on rank-one effects (eta = 1 - |x|, every eta at eta-1)
        rng = np.random.default_rng(31)
        cap = 1.0 - abs(bias.get("x_fixed", 0.0))
        taus = np.concatenate([default_tau_grid(), rng.uniform(-1.0, 4.0, 40)])
        etas = np.array([0.0, cap, rng.uniform(0.05, cap)])
        xs = bias_x(bias["bias_mode"], etas, bias.get("x_fixed", 0.0))
        for axis in _AXES:
            for theta, phi in _STATES + [(0.0, 0.0)]:
                bloch = gridmod.pure_bloch(theta, phi)
                for eta, x in zip(etas, xs):
                    got = _interpolate(gridmod.lg_distributions(bloch, EXACT_TAUS, axis, eta, x),
                                       taus)
                    want = gridmod.lg_distributions(bloch, taus, axis, eta, x)
                    for key in gridmod.SUBSETS:
                        assert np.abs(got[key] - want[key]).max() <= 1e-14
                # per-eta taus over a batch of etas, as the threshold search reads them
                rows = taus.reshape(3, -1)
                got = _interpolate(gridmod.lg_distributions(bloch, EXACT_TAUS, axis,
                                                            etas[:, None], xs[:, None]), rows)
                want = gridmod.lg_distributions(bloch, rows, axis, etas[:, None], xs[:, None])
                for key in gridmod.SUBSETS:
                    assert got[key].shape == want[key].shape
                    assert np.abs(got[key] - want[key]).max() <= 1e-14

    def test_elgi_tau_max_at_least_dense_kernel_max(self):
        # the grid start and the zoom rounds never miss the peak that a
        # 200,001-tau direct kernel scan finds, and stop within that scan's
        # own miss of it
        elgi = gridmod.FAMILY_TABLE["elgi"]
        dense = np.linspace(0.0, math.pi, 200_001)
        for dists, values in _tau_cases(1):  # both axes, all three bias modes
            samples = dists(EXACT_TAUS)
            got = float(_zoom_tau_max(lambda t: elgi.values(_interpolate(samples, t))
                                      .max(axis=-1)))
            dense_max = max(values(part, "elgi").max() for part in np.array_split(dense, 8))
            assert dense_max - 1e-12 <= got <= dense_max + 1e-9

    def test_zoom_never_drops(self):
        # a round replaces only a value it beats: rounds that read lower
        # everywhere, even at the grid's best tau, keep the grid's value
        grid = default_tau_grid()

        def value_fn(t):
            if t.size != grid.size:
                return np.zeros(t.shape)
            return np.where(t == grid[100], 1.0, 0.0)

        assert _zoom_tau_max(value_fn) == 1.0


class TestReport:
    def test_header_only_for_empty(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        report(ScanTable.empty(0), path, "csv")
        with open(path) as fh:
            content = fh.read()
        assert content == ",".join(CSV_COLUMNS) + "\n"

    def test_roundtrip_byte_identical(self, tmp_path):
        records = scan(small_config())
        p1 = str(tmp_path / "a.csv")
        report(records, p1, "csv")
        parsed = parse_report(p1)
        assert isinstance(parsed, ScanTable)
        p2 = str(tmp_path / "b.csv")
        report(parsed, p2, "csv")
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_two_runs_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        report(scan(small_config()), p1, "csv")
        report(scan(small_config()), p2, "csv")
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_json_mirror(self, tmp_path):
        records = scan(small_config(families=("wlgi",)))
        path = str(tmp_path / "r.json")
        report(records, path, "json")
        payload = json.loads(Path(path).read_text())
        assert len(payload) == len(records)
        assert set(payload[0]) == set(CSV_COLUMNS)
        assert payload[0]["family"] == "wlgi"

    def test_float_formatting_12_digits(self, tmp_path):
        records = scan(small_config(families=("slgi",)))
        path = str(tmp_path / "r.csv")
        report(records, path, "csv")
        row = Path(path).read_text().splitlines()[1].split(",")
        value_cell = row[CSV_COLUMNS.index("value")]
        assert value_cell == f"{records[0].value:.12g}"


class TestFigures:
    def test_figure1_threshold_visible(self):
        records = figure_records(1)
        by_eta = {}
        for r in records:
            by_eta.setdefault(round(r.eta, 6), []).append(r.value)
        maxima = {e: max(v) for e, v in by_eta.items()}
        assert maxima[0.96] < 0
        assert maxima[0.98] > 0
        positives = sorted(e for e, v in maxima.items() if v > 0)
        assert positives[0] >= 0.97

    def test_figure2_positive_for_all_eta(self):
        records = figure_records(2)
        by_eta = {}
        for r in records:
            by_eta.setdefault(round(r.eta, 6), []).append(r.value)
        assert len(by_eta) == 20
        for eta, vals in by_eta.items():
            assert max(vals) > 0, f"no violation at eta={eta}"

    def test_figure3_shape_and_pi4(self):
        records = figure_records(3)
        taus = sorted({r.tau for r in records})
        assert len(records) == len(taus) * 24
        at_pi4 = [r.value for r in records if abs(r.tau - np.pi / 4) < 1e-12]
        assert len(at_pi4) == 24
        assert max(at_pi4) == pytest.approx(0.0, abs=1e-13)
        # the other non-violating grid points are degenerate relabelings:
        # pi/2 (all effects commute) and 3pi/4 (the pi/4 triple with signs
        # flipped); everywhere else some member is violated
        by_tau = {}
        for r in records:
            by_tau.setdefault(r.tau, []).append(r.value)
        quiet = sorted(t for t, vals in by_tau.items() if max(vals) <= 1e-12)
        assert np.allclose(quiet, [np.pi / 4, np.pi / 2, 3 * np.pi / 4], atol=1e-12)

    def test_figure4_window_around_pi_3(self):
        records = figure_records(4)
        by_tau = {}
        for r in records:
            by_tau.setdefault(r.tau, []).append(r.value)
        inside = [t for t in by_tau if abs(t - np.pi / 3) <= 0.1]
        assert inside and all(max(by_tau[t]) <= 1e-12 for t in inside)

    def test_bad_figure_number(self):
        with pytest.raises(ConfigError):
            figure_records(5)


class TestCli:
    def run_cli(self, *args):
        proc = subprocess.run(
            [sys.executable, "-m", "lgscan.cli", *args],
            capture_output=True,
            text=True,
        )
        return proc

    def test_eval_runs(self):
        proc = self.run_cli("eval", "--theta", "pi/3", "--phi", "pi/2",
                            "--tau", "pi/3", "--eta", "1")
        assert proc.returncode == 0
        assert "slgi" in proc.stdout and "jm triple" in proc.stdout

    def test_closed_stdout_exits_1_without_traceback(self):
        # as `lgscan eval ... | head -2` once the reader has gone: the read end
        # of the pipe is closed before lgscan writes a line
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lgscan.cli", "eval", "--theta", "pi/3",
                 "--phi", "pi/2", "--tau", "pi/3"],
                stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr

    def test_eval_triple_line_is_inconclusive_not_incompatible(self, capsys):
        # the four-norm criterion fails at tau = pi/4, eta = 0.65 (threshold
        # (sqrt 5 - 1)/2), but the exact triple threshold there is 1/sqrt 2,
        # so the triple is jointly measurable and must not read "incompatible"
        code = cli.main(["eval", "--theta", "pi/3", "--phi", "pi/2",
                         "--tau", "pi/4", "--eta", "0.65"])
        assert code == 0
        line = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("jm triple:")]
        assert len(line) == 1
        assert line[0].startswith("jm triple: inconclusive by the four-norm sufficient criterion")
        assert "incompatible" not in line[0]
        assert "(margin -" in line[0] and line[0].endswith("threshold 0.618034")

    @pytest.mark.parametrize("bias", ["zero", "eta-1", "x=0.3"])
    def test_eval_eta_zero_thresholds_are_the_limit(self, capsys, bias):
        # the thresholds depend on the effect directions only; at eta = 0
        # they used to be computed for z_hat at every time
        def thresholds(eta):
            assert cli.main(["eval", "--tau", "0.7", "--eta", eta, "--bias", bias]) == 0
            return [ln.rsplit("threshold", 1)[1] for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("jm ") and "threshold" in ln]

        at_zero = thresholds("0")
        assert len(at_zero) == (4 if bias == "zero" else 3)
        assert at_zero == thresholds("1e-9")

    def test_eval_thresholds_follow_the_bias_mode_not_the_numbers(self, capsys):
        # x = -0.3 at eta = 0.7 lies on x = eta - 1, but a fixed bias keeps
        # the fixed-bias thresholds, capped at 1 - |x| = 0.7; and eta-1 at
        # eta = 1 (x = 0) keeps the eta-1 family's thresholds
        def jm_lines(eta, bias):
            assert cli.main(["eval", "--theta", "pi/3", "--phi", "pi/2", "--tau", "pi/4",
                             "--eta", eta, "--bias", bias]) == 0
            return [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("jm (")]

        def thresholds(lines):
            return [ln.rsplit(" threshold ", 1)[1] for ln in lines]

        fixed = jm_lines("0.7", "x=-0.3")
        assert fixed[2] == "jm (1, 3): compatible (margin +0.1764) threshold 0.7"
        assert thresholds(fixed) == thresholds(jm_lines("0.69", "x=-0.3"))
        assert thresholds(fixed) == ["0.643467", "0.643467", "0.7"]
        assert thresholds(jm_lines("0.7", "eta-1")) == ["0.585786", "0.585786", "1"]
        assert thresholds(jm_lines("1", "eta-1")) == ["0.585786", "0.585786", "1"]

    def test_eval_reports_lowest_tied_spec(self, capsys):
        # WLGI specs 7, 12 and 18 tie here in exact arithmetic; rounding
        # made spec 12 the largest by 9e-17, the pick rule reports spec 7
        code = cli.main(["eval", "--theta", "pi/3", "--phi", "pi/2",
                         "--tau", "pi/4", "--eta", "0.65"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wlgi: max value -0.091085405 (bound 0, spec 7) satisfied" in out.splitlines()

    def test_scan_and_artifacts(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[tiny]\ntheta = pi/3\nphi = pi/2\ntau = 0.4 : 2.8 : 0.4\neta = 1\n"
        )
        out = tmp_path / "out"
        proc = self.run_cli("scan", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0
        produced = os.listdir(out)
        assert produced == ["tiny.csv"]
        rows = (out / "tiny.csv").read_text().splitlines()
        assert rows[0] == ",".join(CSV_COLUMNS)
        assert len(rows) == 1 + 7 * 3

    def test_scan_jobs_flag_identical_output(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[tiny]\ntheta = pi/3\nphi = pi/2\ntau = 0.4 : 2.8 : 0.4\neta = 1\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        p1 = self.run_cli("scan", "--config", str(cfg), "--out", str(out1))
        p2 = self.run_cli("scan", "--config", str(cfg), "--out", str(out2), "--jobs", "2")
        assert p1.returncode == 0 and p2.returncode == 0
        assert (out1 / "tiny.csv").read_bytes() == (out2 / "tiny.csv").read_bytes()

    def test_selftest_failure_exit_3(self, monkeypatch):
        import lgscan.cli as cli
        import lgscan.selftest as selftest

        monkeypatch.setattr(selftest, "run_all", lambda seed=0: [("broken", False, "x")])
        assert cli.main(["selftest"]) == 3

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[x]\nwhat = 1\n")
        proc = self.run_cli("scan", "--config", str(cfg), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert "unknown key" in proc.stderr

    @pytest.mark.parametrize("case", ["figure", "config-out", "scan-out-is-file"])
    def test_unwritable_output_exits_2_without_traceback(self, tmp_path, case):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[tiny]\ntheta = pi/3\nphi = pi/2\ntau = 0.4\neta = 1\n"
                       + ("out = nosuch/x.csv\n" if case == "config-out" else ""))
        afile = tmp_path / "afile"
        afile.write_text("")
        args, message = {
            "figure": (["figure", "3", "--out", str(tmp_path / "nosuch" / "f.csv")],
                       f"error: cannot write report '{tmp_path / 'nosuch' / 'f.csv'}': "
                       "No such file or directory"),
            "config-out": (["scan", "--config", str(cfg), "--out", str(tmp_path)],
                           f"error: cannot write report '{tmp_path / 'nosuch' / 'x.csv'}': "
                           "No such file or directory"),
            "scan-out-is-file": (["scan", "--config", str(cfg), "--out", str(afile)],
                                 f"error: cannot make output directory '{afile}': File exists"),
        }[case]
        proc = self.run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr == message + "\n"
        assert proc.stdout == ""

    def test_threshold_takes_no_eta(self):
        proc = self.run_cli("threshold", "--family", "slgi", "--maximize-tau", "--eta", "0.5")
        assert proc.returncode == 2
        assert "unrecognized arguments: --eta 0.5" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_threshold_cli(self):
        proc = self.run_cli("threshold", "--family", "wlgi", "--theta", "pi/3",
                            "--phi", "pi/2", "--tau", "pi/3", "--spec-index", "18")
        assert proc.returncode == 0
        value = float(proc.stdout.strip().rsplit(" ", 1)[1])
        assert value == pytest.approx(0.690, abs=2e-3)

    def test_threshold_no_bracket_exit_2(self):
        proc = self.run_cli("threshold", "--family", "slgi", "--tau", "1.3",
                            "--spec-index", "0")
        assert proc.returncode == 2
        assert "bracket" in proc.stderr

    def test_figure_cli(self, tmp_path):
        out = tmp_path / "fig3.csv"
        proc = self.run_cli("figure", "3", "--out", str(out))
        assert proc.returncode == 0
        assert out.exists()

    def test_selftest_cli(self):
        proc = self.run_cli("selftest")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all" in proc.stdout and "passed" in proc.stdout

    def test_selftest_negative_seed_exits_2_without_traceback(self):
        proc = self.run_cli("selftest", "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stderr == "error: seed must be an integer >= 0, got -1\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("content, line, byte", [
        (b"\xff\xfe[\x00x\x00]\x00", 1, "0xff"),  # UTF-16 with its byte order mark
        (b"[x]\r\ntau = 1\r# caf\xe9\n", 3, "0xe9"),  # a Latin-1 comment, on line 3
    ])
    def test_undecodable_config_exits_2_naming_file_and_line(self, tmp_path, content, line,
                                                             byte):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(content)
        proc = self.run_cli("scan", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert proc.stderr == (f"error: cannot read config '{cfg}': line {line}: "
                               f"byte {byte} is not valid utf-8\n")
        assert not (tmp_path / "out").exists()
