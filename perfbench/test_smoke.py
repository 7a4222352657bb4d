"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_checks(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "machine: " in proc.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "eval-points", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scan_check_catches_a_wrong_row(tmp_path):
    wl = workloads.ScanCsv(5, True, str(tmp_path))
    out = wl.settle(0, wl.run(0))
    assert wl.check([(0, out)]) == (0, [])
    with open(wl.report) as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split(",")
    cells[9] = repr(float(cells[9]) + 1e-6)                 # the value column
    lines[1] = ",".join(cells)
    with open(wl.report, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    failed, messages = wl.check([(0, out)])
    assert failed == 1 and "value" in messages[0]


def test_eval_check_catches_a_wrong_maximum(tmp_path):
    wl = workloads.EvalPoints(5, True, str(tmp_path))
    text = wl.run(0)
    assert wl.check([(0, text)]) == (0, [])
    line = next(ln for ln in text.splitlines() if ln.startswith("wlgi: max value"))
    value = line.split()[3]
    bad = text.replace(line, line.replace(value, f"{float(value) + 1e-6:+.9f}"))
    assert wl.check([(0, bad)])[0] == 1


def test_threshold_check_catches_a_shifted_threshold():
    scan_module = importlib.import_module("lgscan.scan")
    thr = scan_module.threshold_eta("slgi", maximize_tau=True, tol=workloads.THRESHOLD_TOL)
    assert oracle.check_threshold("slgi", 0.0, 0.0, thr, workloads.THRESHOLD_TOL) == []
    assert oracle.check_threshold("slgi", 0.0, 0.0, thr + 1e-3, workloads.THRESHOLD_TOL)


def test_traced_run_fails_when_a_layer_records_no_call():
    tracer = tracing.Tracer()
    tracer.names.append("cli.main")
    with pytest.raises(RuntimeError, match="scan.scan"):
        tracer.check_expected("scan-csv")


def test_tracer_covers_every_binding_and_restores_it():
    import lgscan
    import lgscan.inequalities
    import lgscan.measurement
    import lgscan.nsit

    original = lgscan.measurement.run_schedule
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lgscan.inequalities.run_schedule is lgscan.nsit.run_schedule
        assert lgscan.nsit.run_schedule is not original
        lgscan.wlgi_all(lgscan.QubitState.pure(0.3, 0.2),
                        lgscan.Schedule(measured=(1, 2, 3), tau=0.4, eta=0.9))
    finally:
        tracer.uninstall()
    assert lgscan.inequalities.run_schedule is original
    assert tracer.calls("inequalities.wlgi_all") == 1
    assert tracer.calls("measurement.run_schedule") == 3
    assert tracer.parents[-1] == 0
