"""Golden gate: run a fixed set of lgscan commands on two source trees and
compare what they print and write, byte for byte.

    python tools/golden.py OLD_TREE NEW_TREE

Each command of `CASES` runs in a fresh `python -m lgscan.cli` process with
PYTHONPATH=<tree>/src and its own temporary working directory, which holds
the case's input files and nothing else; the old and the new tree's run of a
case go side by side.  Exit code, stdout, stderr and every file the run
leaves in its directory are compared.  Each difference is one line, then a
summary line; the exit status is 0 when every output is identical and 1
otherwise (2 for a tree without src/lgscan).

The set covers: a four-section scan config (seed 301's benchmark grid at
zero bias, a fixed bias on a tilted axis, eta-1, a section without `tau`)
in CSV and JSON; figures 1-4 in CSV and JSON; 64 `eval` points; 120
`threshold` runs; every `threshold` line of the CI workflow; `selftest`; and
runs that exit 2.  Report files are compared whole: a difference names the
file and its first differing line, not the cells.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

TIMEOUT_S = 900  # per run; a run past it counts as a difference


@dataclass(frozen=True)
class Case:
    name: str
    args: tuple[str, ...]
    inputs: dict[str, bytes] = field(default_factory=dict)  # files written before the run


SCAN_CONFIG = b"""\
[zero]
theta = 0.2103 : 2.7103 : 0.5
phi = 0.2303 : 5.2303 : 1.0
tau = 0.035 : 3.115 : 0.035
eta = 0.05 : 1.0 : 0.05
bias = zero
families = slgi,wlgi,elgi

[fixed]
theta = 0.3 : 2.8 : 0.5
phi = 0.5
tau = 0.1 : 3.1 : 0.1
eta = 0.05 : 1.0 : 0.05
bias = x=-0.3
axis_alpha = 0.4
axis_beta = 1.1
tolerance = 1e-9

[eta-1]
theta = 1.7
phi = pi/2
tau = 0.05 : 3.1 : 0.05
eta = 0.05 : 1.0 : 0.05
bias = eta-1
families = elgi,slgi

[no-tau]
theta = 0.7
phi = 1.3
eta = 0.05 : 1.0 : 0.05
families = elgi
"""

CI_SCAN_CONFIG = b"[ci]\ntheta = 0.2\nphi = 0.5\ntau = 0.4 : 1.2 : 0.4\neta = 0.5 : 1.0 : 0.5\n" \
                 b"families = slgi,wlgi,elgi\n"

TILTED = ("--axis-alpha", "0.4", "--axis-beta", "1.1")
STATES = (("0", "0"), ("pi/3", "pi/2"), ("1.1", "0.4"), ("1.7", "pi/2"), ("0.3", "1.1"))

# the `threshold` lines of .github/workflows/tests.yml
CI_THRESHOLDS = (
    "--family wlgi --theta pi/3 --phi pi/2 --tau pi/3 --spec-index 18",
    "--family slgi --maximize-tau",
    "--family wlgi --maximize-tau --theta pi/3 --phi pi/2",
    "--family elgi --maximize-tau --theta 1.1 --phi 0.4",
    "--family slgi --maximize-tau --tolerance 1e-10",
    "--family wlgi --theta pi/3 --phi pi/2 --tau pi/3 --spec-index 18 --tolerance 1e-10",
    "--family elgi --bias x=0.1 --theta 1.1 --phi 0.4 --maximize-tau",
    "--family wlgi --bias x=-0.3 --theta 1.7 --phi pi/2 --maximize-tau --spec-index 0",
    "--family elgi --theta 1.7 --phi pi/2 --maximize-tau --spec-index 1",
    "--family elgi --maximize-tau --theta 0.3 --phi 1.1 --bias eta-1",
    "--family elgi --maximize-tau --theta 1.7 --phi pi/2 --bias x=-0.3",
    "--family elgi --maximize-tau --theta 0.3 --phi 1.1 --bias x=0.1 --axis-alpha 0.4 "
    "--axis-beta 1.1",
    "--family wlgi --theta 1.1 --phi 0 --maximize-tau",
    "--family elgi --theta 1.1 --phi 0 --maximize-tau",
    "--family wlgi --theta 1.7 --phi 0 --maximize-tau --bias x=-0.3",
    "--family slgi --maximize-tau --eta 0.5",
    "--family slgi --maximize-tau --bias x=1.5",
)


def _cases() -> list[Case]:
    cases = [Case(f"scan {fmt}", ("scan", "--config", "gate.cfg", "--out", "out",
                                  "--format", fmt), {"gate.cfg": SCAN_CONFIG})
             for fmt in ("csv", "json")]
    cases += [Case(f"scan ci {fmt}", ("scan", "--config", "ci.cfg", "--out", "out",
                                      "--format", fmt), {"ci.cfg": CI_SCAN_CONFIG})
              for fmt in ("csv", "json")]
    cases += [Case(f"figure {which} {fmt}", ("figure", str(which), "--out", f"figure.{fmt}",
                                             "--format", fmt))
              for which, fmt in itertools.product((1, 2, 3, 4), ("csv", "json"))]
    for theta, tau, bias in itertools.product(("0", "pi/3", "1.1", "1.7"),
                                              ("pi/6", "pi/4", "1.0", "2.5"),
                                              ("zero", "eta-1", "x=0.2", "x=-0.3")):
        args = ("eval", "--theta", theta, "--phi", "pi/2", "--tau", tau, "--eta", "0.7",
                "--bias", bias) + TILTED
        cases.append(Case(" ".join(args), args))
    for family, (theta, phi), bias, tau in itertools.product(
            ("slgi", "wlgi", "elgi"), STATES, ("zero", "eta-1", "x=0.1", "x=-0.3"),
            (("--maximize-tau",), ("--tau", "pi/3") + TILTED)):
        args = ("threshold", "--family", family, "--theta", theta, "--phi", phi,
                "--bias", bias) + tau
        cases.append(Case(" ".join(args), args))
    cases += [Case("threshold " + line, ("threshold", *line.split())) for line in CI_THRESHOLDS]
    cases += [
        Case("selftest", ("selftest",)),
        Case("selftest --seed -1", ("selftest", "--seed", "-1")),
        Case("scan missing config", ("scan", "--config", "missing.cfg", "--out", "out")),
        Case("scan utf-16 config", ("scan", "--config", "bad.cfg", "--out", "out"),
             {"bad.cfg": b"\xff\xfe[ci]\n"}),
        Case("eval invalid bias", ("eval", "--tau", "pi/4", "--eta", "0.7", "--bias", "x=0.5")),
        Case("figure unwritable", ("figure", "3", "--out", "missing/figure3.csv")),
    ]
    return cases


CASES = _cases()


@dataclass
class Run:
    code: int | str
    stdout: bytes
    stderr: bytes
    workdir: str


def _start(tree: str, case: Case, workdir: str) -> subprocess.Popen:
    for name, data in case.inputs.items():
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(data)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    return subprocess.Popen([sys.executable, "-m", "lgscan.cli", *case.args], cwd=workdir,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _finish(proc: subprocess.Popen, workdir: str) -> Run:
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
        code: int | str = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = f"timeout after {TIMEOUT_S} s"
    return Run(code, out, err, workdir)


def _files(root: str) -> dict[str, str]:
    """Relative path -> absolute path of every file under root."""
    found = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            found[os.path.relpath(path, root)] = path
    return found


def _first_line_diff(a: bytes, b: bytes) -> str:
    for n, (x, y) in enumerate(itertools.zip_longest(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {n}: {x!r} -> {y!r}"
    return "line endings"


def _file_diff(a: str, b: str, chunk: int = 1 << 20) -> str | None:
    """None if the files hold the same bytes, else where they first differ."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        line = 1
        while True:
            x, y = fa.read(chunk), fb.read(chunk)
            if x != y:
                i = next((k for k, (p, q) in enumerate(zip(x, y)) if p != q), min(len(x), len(y)))
                line += x[:i].count(b"\n")
                return f"line {line}, sizes {os.path.getsize(a)} -> {os.path.getsize(b)} bytes"
            if not x:
                return None
            line += x.count(b"\n")


def compare(case: Case, old: Run, new: Run) -> tuple[list[str], int]:
    """The differences between two runs of a case, one line each, and the
    bytes of the files compared."""
    diffs, compared = [], 0
    if old.code != new.code:
        diffs.append(f"exit code {old.code} -> {new.code}")
    for stream in ("stdout", "stderr"):
        a, b = getattr(old, stream), getattr(new, stream)
        if a != b:
            diffs.append(f"{stream} differs at {_first_line_diff(a, b)}")
    old_files, new_files = _files(old.workdir), _files(new.workdir)
    for rel in sorted(old_files.keys() | new_files.keys()):
        if rel in case.inputs:
            continue
        if rel not in new_files or rel not in old_files:
            diffs.append(f"file {rel} written by the {'old' if rel in old_files else 'new'} "
                         "tree only")
            continue
        compared += os.path.getsize(old_files[rel])
        where = _file_diff(old_files[rel], new_files[rel])
        if where is not None:
            diffs.append(f"file {rel} differs at {where}")
    return diffs, compared


def gate(old_tree: str, new_tree: str, cases=CASES) -> int:
    """Run every case on both trees; print one line per difference and a
    summary.  Returns the number of cases whose outputs differ."""
    start, differ, compared, codes = time.monotonic(), 0, 0, {}
    for case in cases:
        dirs = [tempfile.mkdtemp(prefix="golden-") for _ in range(2)]
        try:
            procs = [_start(tree, case, d) for tree, d in zip((old_tree, new_tree), dirs)]
            old, new = (_finish(p, d) for p, d in zip(procs, dirs))
            diffs, size = compare(case, old, new)
        finally:
            for d in dirs:
                shutil.rmtree(d, ignore_errors=True)
        compared += size
        codes[old.code] = codes.get(old.code, 0) + 1
        differ += bool(diffs)
        for diff in diffs:
            print(f"DIFF [{case.name}] {diff}")
    exits = ", ".join(f"{n} exit {code}" for code, n in sorted(codes.items(), key=str))
    print(f"golden: {len(cases)} runs, {len(cases) - differ} identical, {differ} differ "
          f"(old tree: {exits}); {compared / 1e6:.1f} MB of files compared; "
          f"{time.monotonic() - start:.0f} s")
    return differ


def main(argv: list[str] | None = None, cases=CASES) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("old_tree")
    p.add_argument("new_tree")
    args = p.parse_args(argv)
    for tree in (args.old_tree, args.new_tree):
        if not os.path.isfile(os.path.join(tree, "src", "lgscan", "cli.py")):
            print(f"error: {tree!r} has no src/lgscan/cli.py", file=sys.stderr)
            return 2
    return 1 if gate(args.old_tree, args.new_tree, cases) else 0


if __name__ == "__main__":
    sys.exit(main())
