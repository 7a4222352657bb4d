"""Golden gate: run a fixed set of lgscan commands on two source trees and
compare what they print and write, byte for byte.

    python tools/golden.py OLD_TREE NEW_TREE

Each case of `all_cases()` runs in a fresh process with
PYTHONPATH=<tree>/src and its own temporary working directory, which holds
the case's input files and nothing else; the old and the new tree's run of
a case go side by side.  A
case runs `python -m lgscan.cli`, or a `python -c` launcher that sets up
what the command line cannot: `scan.CHUNK` patched, thousands of `eval`
points in one process, `threshold_eta` floats printed in full, the
kernel's entries or the family values hashed, or a `ScanTable` read as a
library caller reads it.  Exit
code, stdout, stderr and every file the run leaves in its directory are
compared.  Each difference is one line, then a
summary line; the exit status is 0 when every output is identical and 1
otherwise (2 for a tree without src/lgscan).

The set covers: a four-section scan config (seed 301's benchmark grid at
zero bias, a fixed bias on a tilted axis, eta-1, a section without `tau`)
in CSV and JSON, also at CHUNK = 4756; figures 1-4 in CSV and JSON; 64
`eval` points and 3,000 seeded ones over the zero, eta-1 and x=0.2 bias
modes; four `eval` points each run in one process as A, B (eta or the
bias mode changed), A again and A with its angles given as float text; 120
`threshold` runs on hand-picked states, the 528-run grid on seeded and
phi = 0 states, 33 ELGI `--spec-index` runs, 1e-10 and 1e-12 tolerance
runs, and every `threshold` line of the CI workflow (read from it); the
repr of `threshold_eta` on the threshold-sweep benchmark's states for seeds
301-310 (720 floats: each family, and each ELGI spec, at tolerances 1e-4
and 1e-12); the sha256 of every `lg_distributions` entry
for all 127 sets of experiments in the three bias modes on a tilted axis;
the sha256 of the bits of every family value (SLGI, WLGI, ELGI in all 15
spec orders from the dict and from both table layouts, each experiment's
entropy), which a report's 12 digits can round away; the table reads of
the CI scan config and figure 3 (`len`, `.columns`, the first and last
row, iteration and ==);
`selftest`; and runs that exit 2, angles whose 2 theta or 4 tau overflows
among them.

A report file (.csv or .json) that differs is read back with the csv or
json module, a row at a time, and accounted for per column: the cells that
differ and, for numeric cells, max |old - new| with the worst row's
parameters.  A header or row-count change is one line; any other file, or a
report whose cells agree while its bytes do not, names its first differing
line.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

TIMEOUT_S = 900  # per run; a run past it counts as a difference


@dataclass(frozen=True)
class Case:
    name: str
    args: tuple[str, ...]
    inputs: dict[str, bytes] = field(default_factory=dict)  # files written before the run
    launcher: str | None = None  # `python -c` code run in place of `-m lgscan.cli`


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

CI_WORKFLOW = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           ".github", "workflows", "tests.yml")
# an `lgscan threshold` command line of the workflow, up to `)`, `2>`, `||` or its end
_CI_THRESHOLD = re.compile(r"lgscan threshold ([^)|>\"\n]*?)\s*(?:\)|2>|\|\||$)", re.M)


def ci_thresholds(path: str = CI_WORKFLOW) -> list[str]:
    """The arguments of every `lgscan threshold` command of the CI workflow,
    in order."""
    with open(path, encoding="utf-8") as fh:
        return _CI_THRESHOLD.findall(fh.read())


# the threshold grid's states: 7 seeded, 4 with r_y exactly 0
GRID_STATES = [(repr(float(t)), repr(float(p))) for t, p in
               np.random.default_rng(2024).uniform((0.0, 0.0), (math.pi, 2 * math.pi), (7, 2))]
GRID_STATES += [(theta, "0") for theta in ("0.4", "1.1", "1.7", "2.6")]
BIASES = ("zero", "eta-1", "x=0.1", "x=-0.3")
# the threshold runs' bisection tolerances below the default 1e-4
TOLERANCE_RUNS = (
    "--family slgi --maximize-tau",
    "--family wlgi --theta pi/3 --phi pi/2 --tau pi/3 --spec-index 18",
    "--family wlgi --theta 1.1 --phi 0 --maximize-tau",
    "--family elgi --maximize-tau --theta 1.1 --phi 0.4",
    "--family wlgi --bias x=-0.3 --theta 1.7 --phi pi/2 --maximize-tau --spec-index 0",
)

# the scan module, not the `lgscan.scan` function that shadows it in the package
CHUNK_LAUNCHER = """\
import importlib, sys
importlib.import_module("lgscan.scan").CHUNK = 4756
from lgscan.cli import main
sys.exit(main(sys.argv[1:]))
"""
# `lgscan eval` on argv[2] seeded points (seed argv[1]), the bias modes zero,
# eta-1 and x=0.2 in turn, each on its own seeded axis; exits with the largest code
EVAL_LAUNCHER = """\
import math, sys
import numpy as np
from lgscan.cli import main
rng = np.random.default_rng(int(sys.argv[1]))
codes = [0]
for i in range(int(sys.argv[2])):
    eta = float(rng.uniform(0.05, 0.8 if i % 3 == 2 else 1.0))
    theta, phi = float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
    tau = float(rng.uniform(0.05, math.pi - 0.05))
    alpha, beta = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.5, math.pi - 0.5))
    codes.append(main(["eval", f"--theta={theta!r}", f"--phi={phi!r}", f"--tau={tau!r}",
                       f"--eta={eta!r}", "--bias=" + ("zero", "eta-1", "x=0.2")[i % 3],
                       f"--axis-alpha={alpha!r}", f"--axis-beta={beta!r}"]))
sys.exit(max(codes))
"""
# `lgscan eval` in one process on each point A, then B, A and A': B changes only
# eta or only the bias mode, and A' gives A's angles as the repr of the floats
# their text evaluates to.  Runs shared between points under a key that misses
# eta or x print another point's values.
EVAL_ORDER_LAUNCHER = """\
import sys
from lgscan.cli import main
from lgscan.config import eval_expr
NAMES = ("theta", "phi", "tau", "axis-alpha")
# (theta, phi, tau, axis-alpha), eta, bias, and what B changes
POINTS = [(("pi/3", "pi/2", "pi/4", "0"), "0.7", "zero", "--eta=0.75"),
          (("2*pi/5", "pi/7", "1.3", "0.4"), "0.6", "eta-1", "--bias=x=0.2"),
          (("3*pi/5", "7*pi/4", "2*pi/3", "-0.3"), "0.45", "x=0.2", "--eta=0.5"),
          (("pi/6", "pi", "5*pi/6", "0.2"), "0.75", "x=0.2", "--bias=eta-1")]
codes = [0]
for angles, eta, bias, change in POINTS:
    def point(texts, *more):
        return ["eval", *(f"--{k}={v}" for k, v in zip(NAMES, texts)), f"--eta={eta}",
                f"--bias={bias}", *more]
    a = point(angles)
    runs = [("A", a), ("B", point(angles, change)), ("A", a),
            ("A'", point([repr(eval_expr(t)) for t in angles]))]
    for name, argv in runs:
        print("==", name, *argv[1:])
        codes.append(main(argv))
sys.exit(max(codes))
"""
# threshold_eta on the benchmark's threshold-sweep states, seeds argv[1] to argv[2]
# (each 6 states, drawn as that workload draws them), at the maximized tau and
# zero bias: the repr of every float, which shows a flipped bisection decision
# that the CLI's 6 decimals can hide, at tolerances 1e-4 and 1e-12; ELGI also
# per spec
THRESHOLD_LAUNCHER = """\
import importlib, itertools, math, sys
import numpy as np
from lgscan.errors import NoBracket
threshold_eta = importlib.import_module("lgscan.scan").threshold_eta
for seed in range(int(sys.argv[1]), int(sys.argv[2]) + 1):
    rng = np.random.default_rng(seed)
    states = [(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
              for _ in range(6)]
    for (theta, phi), (family, spec), tol in itertools.product(
            states, [("slgi", None), ("wlgi", None), ("elgi", None), ("elgi", 0), ("elgi", 1),
                     ("elgi", 2)], (1e-4, 1e-12)):
        try:
            value = repr(threshold_eta(family, theta=theta, phi=phi, maximize_tau=True,
                                       bias_mode="zero", spec_index=spec, tol=tol))
        except NoBracket as exc:
            value = f"NoBracket: {exc}"
        print(seed, repr(theta), repr(phi), family, spec, tol, value)
"""
# the sha256 of every `grid.lg_distributions` entry, with its key and shape, for
# each of the 127 nonempty sets of experiments, in the three bias modes on a
# tilted axis: 64 seeded states (half with phi = 0) and one state against an
# (eta, 5 tau) batch, eta 0 and 1 among the etas
KERNEL_LAUNCHER = """\
import hashlib, importlib, itertools
import numpy as np
grid = importlib.import_module("lgscan.grid")
axis = importlib.import_module("lgscan.scan").axis_from_angles(0.4, 1.1)
rng = np.random.default_rng(2031)
theta, phi = rng.uniform(0, np.pi, 64), rng.uniform(0, 2 * np.pi, 64)
phi[::2] = 0.0
points = grid.pure_bloch(theta, phi), rng.uniform(0, np.pi, 64), rng.uniform(0, 1, 64)
grid_eta = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 9)])[:, None]
batches = (("points",) + points,
           ("eta x tau", grid.pure_bloch(0.7, 1.3), (np.arange(5) + 0.5) * np.pi / 5, grid_eta))
for mode, (name, bloch, tau, eta) in itertools.product(grid.BIAS_MODES, batches):
    eta = eta * 0.8 if mode == "fixed" else eta
    x = grid.bias_x(mode, eta, 0.2)
    for n in range(1, 8):
        for experiments in itertools.combinations(grid.SUBSETS, n):
            dists = grid.lg_distributions(bloch, tau, axis, eta, x, experiments)
            for key, probs in dists.items():
                digest = hashlib.sha256(probs.tobytes()).hexdigest()
                print(mode, name, experiments, key, probs.shape, digest)
"""
# the sha256 of the int64 bits of every family value, which a report's 12-digit
# cells can round away: SLGI, WLGI, ELGI for all 15 spec orders from the dict and
# from the stacked table (C-ordered and tau-fastest), and each experiment's
# entropy, in the three bias modes on a tilted axis, for seeded states against an
# (eta, tau) batch and at shape (), eta 0 and 1 among the etas
FAMILIES_LAUNCHER = """\
import hashlib, importlib, itertools
import numpy as np
grid = importlib.import_module("lgscan.grid")
axis = importlib.import_module("lgscan.scan").axis_from_angles(0.4, 1.1)
rng = np.random.default_rng(2032)
states = [grid.pure_bloch(*rng.uniform((0, 0), (np.pi, 2 * np.pi))) for _ in range(4)]
batch = rng.uniform(0, np.pi, 6), np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 7)])[:, None]
points = [(rng.uniform(0, np.pi), rng.uniform(0, 1)) for _ in states]
orders = [specs for n in (1, 2, 3) for specs in itertools.permutations(grid.ELGI_SPECS, n)]

def show(values, *name):
    bits = np.array(values, dtype=float, order="C").view(np.int64)
    print(*name, bits.shape, hashlib.sha256(bits.tobytes()).hexdigest())

for mode, k in itertools.product(grid.BIAS_MODES, range(len(states))):
    for name, (tau, eta) in (("eta x tau", batch), ("()", points[k])):
        eta = eta * 0.8 if mode == "fixed" else eta
        dists = grid.lg_distributions(states[k], tau, axis, eta, grid.bias_x(mode, eta, 0.2))
        show(grid.slgi_values(dists), mode, k, name, "slgi")
        show(grid.wlgi_values(dists), mode, k, name, "wlgi")
        table = np.concatenate([dists[key] for key in grid.ELGI_STACK], axis=-1)
        # (eta, tau, 18) laid out (eta, 18, tau), as the ELGI tau maximum rebuilds it
        tau_fastest = np.ascontiguousarray(table.swapaxes(-1, -2)).swapaxes(-1, -2) \
            if table.ndim > 1 else table
        tables = {"dict": dists, "C table": table, "tau-fastest table": tau_fastest}
        for specs, (form, reads) in itertools.product(orders, tables.items()):
            middles = "".join(str(spec.middle) for spec in specs)
            show(grid.elgi_values(reads, specs), mode, k, name, "elgi", middles, form)
        for key, probs in dists.items():
            show(grid.entropy(probs), mode, k, name, "entropy", key)
"""
# the table reads that no command makes, each on a fresh table of the CI scan
# config and of figure 3: len, a sha256 of each `.columns` array, the first and
# last row, a sha256 of every row's repr, and ==
TABLE_LAUNCHER = """\
import hashlib, importlib
from lgscan.config import load_configs
scan_mod = importlib.import_module("lgscan.scan")
for name, make in (("ci", lambda: scan_mod.scan(load_configs("ci.cfg")["ci"])),
                   ("figure 3", lambda: scan_mod.figure_records(3))):
    print(name, "len", len(make()))
    for col, a in make().columns.items():
        print(name, col, a.dtype.str, hashlib.sha256(a.tobytes()).hexdigest())
    print(name, "first", repr(make()[0]))
    print(name, "last", repr(make()[-1]))
    print(name, "rows", hashlib.sha256(repr(list(make())).encode()).hexdigest())
    print(name, "==", make() == make())
"""


def all_cases() -> list[Case]:
    """The gate's commands, in run order (this reads the CI workflow)."""
    cases = [Case(f"scan {fmt}", ("scan", "--config", "gate.cfg", "--out", "out",
                                  "--format", fmt), {"gate.cfg": SCAN_CONFIG})
             for fmt in ("csv", "json")]
    cases += [Case(f"scan {fmt} at CHUNK 4756", ("scan", "--config", "gate.cfg", "--out", "out",
                                                 "--format", fmt), {"gate.cfg": SCAN_CONFIG},
                   CHUNK_LAUNCHER)
              for fmt in ("csv", "json")]
    cases += [Case(f"scan ci {fmt}", ("scan", "--config", "ci.cfg", "--out", "out",
                                      "--format", fmt), {"ci.cfg": CI_SCAN_CONFIG})
              for fmt in ("csv", "json")]
    cases.append(Case("table reads", (), {"ci.cfg": CI_SCAN_CONFIG}, TABLE_LAUNCHER))
    cases += [Case(f"figure {which} {fmt}", ("figure", str(which), "--out", f"figure.{fmt}",
                                             "--format", fmt))
              for which, fmt in itertools.product((1, 2, 3, 4), ("csv", "json"))]
    for theta, tau, bias in itertools.product(("0", "pi/3", "1.1", "1.7"),
                                              ("pi/6", "pi/4", "1.0", "2.5"),
                                              ("zero", "eta-1", "x=0.2", "x=-0.3")):
        args = ("eval", "--theta", theta, "--phi", "pi/2", "--tau", tau, "--eta", "0.7",
                "--bias", bias) + TILTED
        cases.append(Case(" ".join(args), args))
    cases.append(Case("eval 3000 seeded points", ("2027", "3000"), launcher=EVAL_LAUNCHER))
    cases.append(Case("eval A, B, A, A' in one process", (), launcher=EVAL_ORDER_LAUNCHER))
    threshold_lines = [
        ("--family", family, "--theta", theta, "--phi", phi, "--bias", bias) + tau
        for family, (theta, phi), bias, tau in itertools.product(
            ("slgi", "wlgi", "elgi"), STATES, BIASES,
            (("--maximize-tau",), ("--tau", "pi/3") + TILTED))]
    threshold_lines += [
        ("--family", family, "--theta", theta, "--phi", phi, "--bias", bias) + tau + axis
        for family, (theta, phi), bias, tau, axis in itertools.product(
            ("slgi", "wlgi", "elgi"), GRID_STATES, BIASES,
            (("--maximize-tau",), ("--tau", "pi/3")), ((), TILTED))]
    threshold_lines += [("--family", "elgi", "--theta", theta, "--phi", phi, "--maximize-tau",
                         "--spec-index", str(k)) for (theta, phi), k in itertools.product(
                             GRID_STATES, range(3))]
    threshold_lines += [tuple(f"{line} --tolerance {tol}".split())
                        for line, tol in itertools.product(TOLERANCE_RUNS, ("1e-10", "1e-12"))]
    threshold_lines += [tuple(line.split()) for line in ci_thresholds()]
    # a line already in the set runs once, under its first name
    cases += [Case(" ".join(("threshold",) + line), ("threshold",) + line)
              for line in dict.fromkeys(threshold_lines)]
    cases.append(Case("threshold-sweep states, seeds 301-310", ("301", "310"),
                      launcher=THRESHOLD_LAUNCHER))
    cases.append(Case("lg_distributions sha256, 127 experiment sets", (),
                      launcher=KERNEL_LAUNCHER))
    cases.append(Case("family values sha256", (), launcher=FAMILIES_LAUNCHER))
    cases += [
        Case("selftest", ("selftest",)),
        Case("selftest --seed -1", ("selftest", "--seed", "-1")),
        Case("scan missing config", ("scan", "--config", "missing.cfg", "--out", "out")),
        Case("scan utf-16 config", ("scan", "--config", "bad.cfg", "--out", "out"),
             {"bad.cfg": b"\xff\xfe[ci]\n"}),
        Case("eval invalid bias", ("eval", "--tau", "pi/4", "--eta", "0.7", "--bias", "x=0.5")),
        Case("figure unwritable", ("figure", "3", "--out", "missing/figure3.csv")),
        # 2 theta or 4 tau past the largest float
        Case("scan theta 1e308", ("scan", "--config", "big.cfg", "--out", "out"),
             {"big.cfg": b"[big]\ntheta = 1e308\ntau = 0.4\n"}),
        Case("scan tau 5e307", ("scan", "--config", "big.cfg", "--out", "out"),
             {"big.cfg": b"[big]\ntheta = 0.2\ntau = 5e307\neta = 0.5\n"}),
        Case("eval tau 5e307", ("eval", "--tau", "5e307", "--eta", "0.5")),
        Case("threshold theta 1e308", ("threshold", "--family", "slgi", "--theta", "1e308",
                                       "--maximize-tau")),
    ]
    return cases


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
    head = ["-c", case.launcher] if case.launcher else ["-m", "lgscan.cli"]
    return subprocess.Popen([sys.executable, *head, *case.args], cwd=workdir,
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


REPORT_SUFFIXES = (".csv", ".json")
ROW_KEY = ("theta", "phi", "tau", "eta", "x", "family", "spec_index")  # a row's parameters
_SPACE = re.compile(r"\s*")


def _json_items(path: str, size: int = 1 << 16):
    """The items of the JSON array in `path`, decoded one at a time with at
    least `size` characters read ahead, so a large report is never held
    whole."""
    decode = json.JSONDecoder().raw_decode
    with open(path, encoding="utf-8") as fh:
        buf, pos, sep, eof = "", 0, "[", False
        while True:
            if not eof and len(buf) - pos < size:
                more = fh.read(size)
                buf, pos, eof = buf[pos:] + more, 0, not more
            pos = _SPACE.match(buf, pos).end()
            if buf.startswith("]", pos) and sep == ",":
                return
            if not buf.startswith(sep, pos):
                raise ValueError(f"expected {sep!r} at character {pos}")
            pos = _SPACE.match(buf, pos + 1).end()
            if buf.startswith("]", pos) and sep == "[":
                return
            item, pos = decode(buf, pos)
            yield item
            sep = ","


def _report_rows(path: str):
    """The header of a CSV or JSON report, then each row's cells in its
    order; ValueError for a row that does not fit the header."""
    if path.endswith(".csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            header = tuple(next(rows, ()))
            yield header
            for row in rows:
                if len(row) != len(header):
                    raise ValueError(f"a row of {len(row)} cells under {len(header)} columns")
                yield tuple(row)
        return
    items = _json_items(path)
    first = next(items, None)
    header = tuple(first) if isinstance(first, dict) else ()
    yield header
    for item in itertools.chain((first,) if first is not None else (), items):
        if not isinstance(item, dict) or tuple(item) != header:
            raise ValueError("an item that is not an object with the first one's keys")
        yield tuple(item.values())


def _number(cell) -> float | None:
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def cell_diff(a: str, b: str) -> list[str]:
    """How two reports differ, one line per column with differing cells:
    their count and, where both cells are numbers, max |a - b| with the
    worst row's ROW_KEY cells in `a`.  A header or row-count change is one
    line.  Empty when every cell agrees in type and value."""
    rows_a, rows_b = _report_rows(a), _report_rows(b)
    header, header_b = next(rows_a), next(rows_b)
    if header != header_b:
        return [f"header {','.join(header)} -> {','.join(header_b)}"]
    changed = dict.fromkeys(header, 0)
    worst: dict[str, tuple[float, int, tuple]] = {}
    count_a = count_b = 0
    for x, y in itertools.zip_longest(rows_a, rows_b):
        count_a += x is not None
        count_b += y is not None
        if x is None or y is None or x == y:
            continue
        for col, p, q in zip(header, x, y):
            if type(p) is type(q) and (p == q or p != p and q != q):
                continue
            changed[col] += 1
            u, v = _number(p), _number(q)
            if u is not None and v is not None:
                d = abs(u - v)
                d = math.inf if d != d else d
                if col not in worst or d > worst[col][0]:
                    worst[col] = (d, count_a, x)
    if count_a != count_b:
        return [f"rows {count_a} -> {count_b}"]
    lines = []
    for col, count in changed.items():
        if not count:
            continue
        line = f"column {col}: {count} of {count_a} cells differ"
        if col in worst:
            d, row, cells = worst[col]
            where = " ".join(f"{k}={cells[header.index(k)]}" for k in ROW_KEY if k in header)
            line += f", max |diff| {d:.3g} at row {row} ({where})"
        lines.append(line)
    return lines


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
        a, b = old_files[rel], new_files[rel]
        where = _file_diff(a, b)
        if where is None:
            continue
        lines = [f"differs at {where}"]
        if rel.endswith(REPORT_SUFFIXES):
            try:  # a report whose cells all agree keeps its first differing line
                lines = cell_diff(a, b) or lines
            except (ValueError, csv.Error) as exc:  # JSONDecodeError, UnicodeDecodeError
                lines = [f"differs at {where} (not read as a report: {exc})"]
        diffs += [f"file {rel} {line}" for line in lines]
    return diffs, compared


def gate(old_tree: str, new_tree: str, cases: list[Case]) -> int:
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


def main(argv: list[str] | None = None, cases: list[Case] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("old_tree")
    p.add_argument("new_tree")
    args = p.parse_args(argv)
    for tree in (args.old_tree, args.new_tree):
        if not os.path.isfile(os.path.join(tree, "src", "lgscan", "cli.py")):
            print(f"error: {tree!r} has no src/lgscan/cli.py", file=sys.stderr)
            return 2
    cases = all_cases() if cases is None else cases
    return 1 if gate(args.old_tree, args.new_tree, cases) else 0


if __name__ == "__main__":
    sys.exit(main())
