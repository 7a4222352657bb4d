"""The four benchmark workloads.

Each workload makes its inputs from the seed, defines the calls that make
one pass over them (`units`, each worth `unit_ops[i]` ops), runs one call
(`run`), keeps what a call left behind for the checks (`settle`, untimed)
and checks every output against the other pipeline (`check`).

Why these four (see README.md for the layer table):

* scan-csv: per-row record assembly and CSV formatting dominate a grid scan
  and the Bloch kernel is a small share; peak RSS grows with the grid.
* threshold-sweep: eta bisection is nearly all kernel time, with no records
  and no serialization, so it isolates the kernel and per-call overhead.
* figures-json: the canned figures use a second assembly loop and the JSON
  writer, which costs more than building the records.
* eval-points: the only path through the scalar Lueders pipeline, the scalar
  families and NSIT, and jm_verdict; fixed-bias points set the tail.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import os

import numpy as np

import oracle

FAMILIES = ("slgi", "wlgi", "elgi")
CSV_COLUMNS = (
    "theta", "phi", "tau", "eta", "x", "axis_alpha", "axis_beta",
    "family", "spec_index", "value", "bound", "violated",
    "nsit_12", "nsit_13", "nsit_23", "nsit_123", "nsit_1_2_3",
    "jm_12", "jm_23", "jm_13", "jm_triple",
)
FLOAT_COLUMNS = ("theta", "phi", "tau", "eta", "x", "axis_alpha", "axis_beta",
                 "value", "bound")
BOOL_COLUMNS = ("violated", "nsit_12", "nsit_13", "nsit_23", "nsit_123",
                "nsit_1_2_3", "jm_12", "jm_23", "jm_13", "jm_triple")

SAMPLE_POINTS = 100        # report rows recomputed on the scalar pipeline
THRESHOLD_TOL = 1e-4       # bisection tolerance passed to threshold_eta
X_FIXED = 0.2              # the fixed bias of eval-points' third mode
EVAL_POINTS = 1200         # distinct eval points, split evenly over bias modes
EVAL_MIN_OPS = 1000        # fewest eval calls timed in one run


def run_cli(argv: list[str]) -> str:
    """`lgscan <argv>` in-process; returns stdout, raises on a nonzero exit."""
    cli = importlib.import_module("lgscan.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"lgscan {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def typed_csv_row(cells: list[str]) -> dict:
    row = dict(zip(CSV_COLUMNS, cells))
    for col in FLOAT_COLUMNS:
        row[col] = float(row[col])
    row["spec_index"] = int(row["spec_index"])
    for col in BOOL_COLUMNS:
        row[col] = None if row[col] == "" else row[col] == "true"
    return row


class Workload:
    name = ""
    per_op = False          # True: each call is one op, timed on its own
    min_ops = 0

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.units: list = []
        self.unit_ops: list[int] = []

    def run(self, unit: int):
        raise NotImplementedError

    def settle(self, unit: int, value):
        return value

    def check(self, outputs: list[tuple[int, object]]) -> tuple[int, list[str]]:
        """(failed ops, messages) over every settled output of the run."""
        raise NotImplementedError

    def cleanup(self) -> None:
        pass


def _same_across_passes(outputs, ops_of) -> tuple[int, list[str]]:
    """Outputs of one call must be identical on every pass."""
    first: dict[int, object] = {}
    failed, bad = 0, []
    for unit, out in outputs:
        if first.setdefault(unit, out) != out:
            failed += ops_of(unit)
            bad.append(f"call {unit} output differs between passes")
    return failed, bad


class ScanCsv(Workload):
    """`lgscan scan` over theta x phi x tau x eta, zero bias, all families."""

    name = "scan-csv"

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = np.random.default_rng(seed)
        theta0 = round(float(rng.uniform(0.05, 0.45)), 4)
        phi0 = round(float(rng.uniform(0.05, 0.95)), 4)
        n_ang = 2 if smoke else 6
        tau = (0.35, 1.75, 0.35) if smoke else (0.035, 3.115, 0.035)   # 5 / 89 values
        eta = (0.4, 1.0, 0.3) if smoke else (0.05, 1.0, 0.05)          # 3 / 20 values
        ranges = {
            "theta": (theta0, round(theta0 + 0.5 * (n_ang - 1), 4), 0.5),
            "phi": (phi0, round(phi0 + 1.0 * (n_ang - 1), 4), 1.0),
            "tau": tau,
            "eta": eta,
        }
        self.grid = {k: [round(a + c * i, 6) for i in range(round((b - a) / c) + 1)]
                     for k, (a, b, c) in ranges.items()}
        lines = ["[bench]"] + [f"{k} = {a!r} : {b!r} : {c!r}" for k, (a, b, c) in ranges.items()]
        lines += ["bias = zero", "families = slgi,wlgi,elgi", "out = bench.csv"]
        self.config = os.path.join(workdir, "scan-csv.cfg")
        with open(self.config, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        self.outdir = os.path.join(workdir, "scan-csv")
        self.report = os.path.join(self.outdir, "bench.csv")
        self.points = math.prod(len(v) for v in self.grid.values())
        self.units = [0]
        self.unit_ops = [self.points]

    def run(self, unit):
        return run_cli(["scan", "--config", self.config, "--out", self.outdir,
                        "--format", "csv"])

    def settle(self, unit, value):
        return value, file_digest(self.report)

    def _point(self, p: int) -> dict:
        """Grid coordinates of point p in row-major (theta outermost) order."""
        coords = {}
        for key in ("eta", "tau", "phi", "theta"):
            p, i = divmod(p, len(self.grid[key]))
            coords[key] = self.grid[key][i]
        return coords

    def check(self, outputs):
        failed, bad = _same_across_passes(outputs, lambda u: self.points)
        expected = (f"[bench] {3 * self.points} records -> {self.report} "
                    f"(skipped 0 invalid points)\n")
        if outputs[-1][1][0] != expected:
            return failed + self.points, bad + [f"scan printed {outputs[-1][1][0]!r}"]
        with open(self.report, newline="") as fh:
            rows = list(csv.reader(fh))
        if tuple(rows[0]) != CSV_COLUMNS or len(rows) != 1 + 3 * self.points:
            return failed + self.points, bad + ["report header or row count is wrong"]
        rng = np.random.default_rng(self.seed + 1)
        picks = rng.choice(self.points, size=min(SAMPLE_POINTS, self.points), replace=False)
        axis = oracle.axis_vector(0.0, math.pi / 2)
        for p in sorted(int(p) for p in picks):
            c = self._point(p)
            want = oracle.scalar_point(c["theta"], c["phi"], c["tau"], c["eta"], 0.0, axis)
            for f, fam in enumerate(FAMILIES):
                row = typed_csv_row(rows[1 + 3 * p + f])
                msgs = [f"{k} {row[k]!r} != {v!r}" for k, v in c.items()
                        if abs(row[k] - v) > 1e-12]
                if row["family"] != fam or row["x"] != 0.0:
                    msgs.append(f"family/x {row['family']}/{row['x']!r}")
                msgs += oracle.check_row(row, want, spec_is_argmax=True)
                if msgs:
                    failed += 1
                    bad.append(f"row {3 * p + f}: " + "; ".join(msgs))
        return failed, bad

    def cleanup(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report)


class ThresholdSweep(Workload):
    """threshold_eta(maximize_tau=True) for three families x seeded states."""

    name = "threshold-sweep"
    per_op = True

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = np.random.default_rng(seed)
        states = [(float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
                  for _ in range(1 if smoke else 6)]
        self.units = [(fam, th, ph) for th, ph in states for fam in FAMILIES]
        self.unit_ops = [1] * len(self.units)
        self.scan = importlib.import_module("lgscan.scan")

    def run(self, unit):
        fam, theta, phi = self.units[unit]
        return float(self.scan.threshold_eta(fam, theta=theta, phi=phi, maximize_tau=True,
                                             bias_mode="zero", tol=THRESHOLD_TOL))

    def check(self, outputs):
        failed, bad = _same_across_passes(outputs, lambda u: 1)
        first = dict(reversed(outputs))
        for unit, thr in sorted(first.items()):
            fam, theta, phi = self.units[unit]
            msgs = oracle.check_threshold(fam, theta, phi, thr, THRESHOLD_TOL)
            if msgs:
                failed += sum(1 for u, _ in outputs if u == unit)
                bad.append(f"threshold {self.units[unit]} = {thr!r}: " + "; ".join(msgs))
        return failed, bad


class FiguresJson(Workload):
    """`lgscan figure 1..4 --format json`; the figures are canned, so the
    seed only picks which rows the oracle recomputes."""

    name = "figures-json"
    TAUS = 359                          # open tau grid on (0, pi), step pi/360
    COUNTS = {1: 51 * TAUS, 2: 20 * TAUS, 3: 24 * TAUS, 4: 24 * TAUS}
    ANGLE_STEP = math.pi / 720          # canned angles are multiples of this

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.units = [1, 2, 3, 4]
        self.unit_ops = [self.COUNTS[u] for u in self.units]
        self.paths = {u: os.path.join(workdir, f"figure{u}.json") for u in self.units}

    def run(self, unit):
        which = self.units[unit]
        return run_cli(["figure", str(which), "--out", self.paths[which], "--format", "json"])

    def settle(self, unit, value):
        return value, file_digest(self.paths[self.units[unit]])

    def _exact(self, value: float) -> float:
        """Undo the 12-digit rounding of an angle that is a multiple of pi/720."""
        k = round(value / self.ANGLE_STEP)
        return k * self.ANGLE_STEP if abs(k * self.ANGLE_STEP - value) <= 1e-10 else value

    def check(self, outputs):
        failed, bad = _same_across_passes(outputs, lambda u: self.unit_ops[u])
        last = dict(outputs)
        rng = np.random.default_rng(self.seed + 1)
        for unit, which in enumerate(self.units):
            count, path = self.COUNTS[which], self.paths[which]
            if unit not in last or last[unit][0] != f"figure {which}: {count} records -> {path}\n":
                failed += count
                bad.append(f"figure {which} printed {last.get(unit, ('',))[0]!r}")
                continue
            with open(path) as fh:
                rows = json.load(fh)
            if len(rows) != count:
                failed += count
                bad.append(f"figure {which} has {len(rows)} records, expected {count}")
                continue
            for i in sorted(rng.choice(count, size=SAMPLE_POINTS // 4, replace=False)):
                row = rows[int(i)]
                fam, spec = ("elgi", 1) if which in (1, 2) else ("wlgi", int(i) % 24)
                p = {k: self._exact(row[k]) for k in ("theta", "phi", "tau",
                                                      "axis_alpha", "axis_beta")}
                axis = oracle.axis_vector(p["axis_alpha"], p["axis_beta"])
                want = oracle.scalar_point(p["theta"], p["phi"], p["tau"], row["eta"],
                                           row["x"], axis)
                msgs = [] if (row["family"], row["spec_index"]) == (fam, spec) else [
                    f"family/spec {row['family']}/{row['spec_index']}"]
                msgs += oracle.check_row(row, want, spec_is_argmax=False)
                if msgs:
                    failed += 1
                    bad.append(f"figure {which} row {i}: " + "; ".join(msgs))
        return failed, bad

    def cleanup(self):
        for path in self.paths.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


class EvalPoints(Workload):
    """`lgscan eval` on seeded points, bias modes zero / eta-1 / x=X_FIXED in
    turn, one seeded Hamiltonian axis per run."""

    name = "eval-points"
    per_op = True

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        rng = np.random.default_rng(seed)
        self.alpha = float(rng.uniform(-0.5, 0.5))
        self.beta = float(rng.uniform(0.5, math.pi - 0.5))
        self.min_ops = 0 if smoke else EVAL_MIN_OPS
        self.points = []
        for i in range(12 if smoke else EVAL_POINTS):
            mode = ("zero", "eta-1", f"x={X_FIXED!r}")[i % 3]
            eta = float(rng.uniform(0.05, 1.0 - X_FIXED if i % 3 == 2 else 1.0))
            self.points.append({
                "theta": float(rng.uniform(0, math.pi)),
                "phi": float(rng.uniform(0, 2 * math.pi)),
                "tau": float(rng.uniform(0.05, math.pi - 0.05)),
                "eta": eta,
                "x": (0.0, eta - 1.0, X_FIXED)[i % 3],
                "bias": mode,
            })
        self.units = [
            ["eval"] + [f"--{k}={p[k]!r}" for k in ("theta", "phi", "tau", "eta")]
            + [f"--bias={p['bias']}", f"--axis-alpha={self.alpha!r}",
               f"--axis-beta={self.beta!r}"]
            for p in self.points
        ]
        self.unit_ops = [1] * len(self.units)

    def run(self, unit):
        return run_cli(self.units[unit])

    def check(self, outputs):
        failed, bad = _same_across_passes(outputs, lambda u: 1)
        grid_vals = oracle.grid_point_values(self.points,
                                             oracle.axis_vector(self.alpha, self.beta))
        verdict: dict[int, list[str]] = {}
        for unit, text in outputs:
            if unit not in verdict:
                p = self.points[unit]
                verdict[unit] = oracle.check_eval_text(
                    text, unit, grid_vals, oracle.value_tol(p["eta"], p["x"]))
                if verdict[unit]:
                    bad.append(f"eval {self.units[unit]}: " + "; ".join(verdict[unit]))
            failed += bool(verdict[unit])
        return failed, bad


WORKLOADS = {w.name: w for w in (ScanCsv, ThresholdSweep, FiguresJson, EvalPoints)}
