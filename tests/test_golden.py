"""tools/golden.py on a few of its commands: a tree against itself is
identical, a copy that prints thresholds to 5 decimals is reported, and a
copy that shifts one WLGI form is found in the right column and row, a
copy that moves one ELGI value by one ulp is found by the family hashes;
the CI step checks the gate's run count, and the threshold-sweep launcher
prints each float in full."""

import importlib
import importlib.util
import json
import math
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = sys.modules.setdefault("golden", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(golden)

THRESHOLD = "threshold --family slgi --maximize-tau"
CASES = golden.all_cases()
SMOKE = [case for case in CASES if case.name in (THRESHOLD, "scan ci csv", "figure 3 json")]


def test_tree_against_itself_is_identical(capsys):
    assert len(SMOKE) == 3
    assert golden.main([str(ROOT), str(ROOT)], SMOKE) == 0
    out = capsys.readouterr().out
    assert "DIFF" not in out
    assert out.startswith("golden: 3 runs, 3 identical, 0 differ (old tree: 3 exit 0)")


def test_changed_threshold_digits_are_reported(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "lgscan" / "cli.py"
    text = cli.read_text()
    assert text.count("{eta:.6f}") == 1
    cli.write_text(text.replace("{eta:.6f}", "{eta:.5f}"))
    assert golden.main([str(ROOT), str(tmp_path)], SMOKE) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"DIFF [{THRESHOLD}] stdout differs at line 1: "
                          "b'slgi threshold eta = 0.816498' -> b'slgi threshold eta = 0.81650'"]
    assert lines[-1].startswith("golden: 3 runs, 2 identical, 1 differ")


def test_tree_without_sources_exits_2(tmp_path, capsys):
    assert golden.main([str(ROOT), str(tmp_path)], SMOKE) == 2
    assert capsys.readouterr().err == f"error: {str(tmp_path)!r} has no src/lgscan/cli.py\n"


def test_shifted_wlgi_form_is_found_in_value_column(tmp_path, capsys):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    grid = tmp_path / "src" / "lgscan" / "grid.py"
    text = grid.read_text()
    end = "    return np.moveaxis(values, 0, -1)\n"
    assert text.count(end) == 1  # the end of wlgi_values, whose values are spec-major
    grid.write_text(text.replace(end, "    values[0] += 1e-9\n" + end))
    figure = [case for case in CASES if case.name == "figure 3 json"]
    assert golden.main([str(ROOT), str(tmp_path)], figure) == 1
    lines = capsys.readouterr().out.splitlines()
    value = [line for line in lines if line.startswith("DIFF [figure 3 json] file figure.json "
                                                       "column value: ")]
    assert len(value) == 1
    delta = float(value[0].split("max |diff| ")[1].split()[0])
    assert delta == pytest.approx(1e-9, rel=1e-3)
    assert value[0].endswith(" family=wlgi spec_index=0)")
    assert lines[-1].startswith("golden: 1 runs, 0 identical, 1 differ")


def test_one_ulp_elgi_change_is_found(tmp_path, capsys):
    # a report cell carries 12 digits; the family hashes see one ulp
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    grid = tmp_path / "src" / "lgscan" / "grid.py"
    text = grid.read_text()
    end = "    return values.transpose(*range(1, values.ndim), 0)\n"
    assert text.count(end) == 1  # the end of elgi_values
    grid.write_text(text.replace(end, "    values.flat[-1] = np.nextafter(values.flat[-1], 2.0)\n"
                                      + end))
    case = [case for case in CASES if case.launcher == golden.FAMILIES_LAUNCHER]
    assert len(case) == 1
    assert golden.main([str(ROOT), str(tmp_path)], case) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("DIFF [family values sha256] stdout differs at line 3: ")
    assert " elgi 1 dict " in lines[0]
    assert lines[-1].startswith("golden: 1 runs, 0 identical, 1 differ")


def test_ci_threshold_lines_are_read_from_the_workflow():
    lines = golden.ci_thresholds()
    assert "--family slgi --maximize-tau" in lines
    assert all(line.startswith("--family ") for line in lines)
    names = {case.name for case in CASES}
    assert all(" ".join(("threshold", *line.split())) in names for line in lines)


def test_header_and_row_count_changes_are_one_line(tmp_path):
    header = "theta,family,value\n"
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text(header + "0.5,slgi,1.25\n0.7,wlgi,-0.5\n")
    new.write_text(header + "0.5,slgi,1.25\n")
    assert golden.cell_diff(str(old), str(new)) == ["rows 2 -> 1"]
    new.write_text(header.replace("value", "val") + "0.5,slgi,1.25\n0.7,wlgi,-0.5\n")
    assert golden.cell_diff(str(old), str(new)) == [
        "header theta,family,value -> theta,family,val"]
    new.write_text(header + "0.5,slgi,1.5\n0.7,elgi,-1.0\n")
    assert golden.cell_diff(str(old), str(new)) == [
        "column family: 1 of 2 cells differ",
        "column value: 2 of 2 cells differ, max |diff| 0.5 at row 2 (theta=0.7 family=wlgi)"]
    new.write_text(header + "0.5,slgi\n0.7,wlgi,-0.5\n")
    with pytest.raises(ValueError, match="a row of 2 cells under 3 columns"):
        golden.cell_diff(str(old), str(new))


def test_json_report_is_read_an_item_at_a_time(tmp_path):
    rows = [{"theta": 0.1 * k, "family": "elgi", "violated": k % 2 == 0, "jm": None}
            for k in range(40)]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(rows, indent=1) + "\n")
    assert list(golden._json_items(str(path), size=200)) == rows
    path.write_text("[]\n")
    assert list(golden._json_items(str(path))) == []


def test_ci_checks_the_run_count():
    # the CI step fails when the gate runs fewer (or more) cases than it holds
    with open(golden.CI_WORKFLOW, encoding="utf-8") as fh:
        counts = re.findall(r"golden: (\d+) runs, (\d+) identical, 0 differ", fh.read())
    assert counts == [(str(len(CASES)), str(len(CASES)))]
    assert len(CASES) == 800


def test_threshold_launcher_prints_each_float_in_full(tmp_path):
    # one seed of the threshold-sweep launcher: 6 states, 12 floats each,
    # every one the repr of threshold_eta in this process
    case = next(c for c in CASES if c.launcher == golden.THRESHOLD_LAUNCHER)
    assert case.args == ("301", "310")
    one_seed = golden.Case("one seed", ("301", "301"), launcher=case.launcher)
    run = golden._finish(golden._start(str(ROOT), one_seed, str(tmp_path)), str(tmp_path))
    assert run.code == 0 and run.stderr == b""
    lines = run.stdout.decode().splitlines()
    assert len(lines) == 72
    rng = np.random.default_rng(301)
    theta, phi = float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
    scan_mod = importlib.import_module("lgscan.scan")
    for line in (lines[0], lines[11]):
        seed, th, ph, family, spec, tol, value = line.split()
        assert (seed, th, ph) == ("301", repr(theta), repr(phi))
        want = scan_mod.threshold_eta(family, theta=theta, phi=phi, maximize_tau=True,
                                      spec_index=None if spec == "None" else int(spec),
                                      tol=float(tol))
        assert value == repr(want)
