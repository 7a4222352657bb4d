"""One measured benchmark process (started by run.py, one per run).

Imports lgscan from the checkout's src/, builds the workload's inputs,
prints "ready <scale>" (run.py times set-up up to that line and multiplies
it by the scale to the reference speed), then measures and prints one JSON
line with the run's figures.  With --setup-only it exits after "ready".

    python3 perfbench/worker.py --workload scan-csv --seed 1 --seconds 25 --trace 0

Times are scaled to a reference speed (see SpeedProbe).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import time
import traceback
from bisect import bisect_left, bisect_right

import tracing

PROCESS_START = time.perf_counter()   # set-up is scaled from here; numpy and
                                      # lgscan are imported later, in main()


class SpeedProbe:
    """Samples how fast this thread runs while it works.

    Machines of the kind the benchmark runs on change speed by up to ~1.65x
    every few seconds (measured: a fixed Python loop took 5.3 or 8.7 ms in
    turn, with the lgscan kernel and `eval` moving with it; their ratio to the
    loop varied ~7-12% per sample).  A SIGALRM handler runs `spin`, a fixed
    mix of float arithmetic, dict/list work and float formatting, every
    PERIOD_S on the measured thread itself and records its duration.  The speed near each
    spin is the trimmed mean of the spins within WINDOW_S over REF_SPIN_S.
    Reference time advances by elapsed time over that speed and stands still
    while a spin runs, so `scaled` durations read as at the speed where
    `spin` takes REF_SPIN_S, exclude the probe, and add up: nested intervals
    keep their nesting.
    """

    PERIOD_S = 0.025
    WINDOW_S = 0.25
    REF_SPIN_S = 0.30e-3      # `spin` on this machine class in its fast state

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.spins: list[float] = []
        self._speed: list[float] = []
        self._ref: list[float] = []    # reference time at each spin's start
        self._data = [i * 1.0001 for i in range(20000)]

    def spin(self) -> int:
        s = 0.0
        for j in range(1000):
            s += (j * 0.5) ** 0.5
        table = {j: self._data[j] * s for j in range(0, 20000, 14)}
        text = ",".join([f"{v:.12g}" for v in sorted(table.values())[:200]])
        return len(text)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.spin()
        self.spins.append(time.perf_counter() - start)
        self.starts.append(start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _timeline(self) -> None:
        n = len(self.starts)
        if n == len(self._ref):
            return
        if n == 0:
            raise RuntimeError("speed probe took no sample")
        starts, spins = self.starts[:n], self.spins[:n]
        self._speed = []
        for t in starts:
            near = sorted(spins[bisect_left(starts, t - self.WINDOW_S):
                                bisect_right(starts, t + self.WINDOW_S)])
            cut = len(near) // 10
            kept = near[cut:len(near) - cut]
            self._speed.append(sum(kept) / len(kept) / self.REF_SPIN_S)
        self._ref = [0.0]
        for k in range(1, n):
            gap = starts[k] - starts[k - 1] - spins[k - 1]
            self._ref.append(self._ref[-1] + gap / self._speed[k - 1])

    def ref_time(self, t: float) -> float:
        """Reference time at perf_counter() time t."""
        self._timeline()
        k = bisect_right(self.starts, t, hi=len(self._ref)) - 1
        if k < 0:
            return (t - self.starts[0]) / self._speed[0]
        return self._ref[k] + max(t - self.starts[k] - self.spins[k], 0.0) / self._speed[k]

    def scaled(self, a: float, b: float) -> float:
        """Duration of [a, b] at the reference speed, probe time excluded."""
        return self.ref_time(b) - self.ref_time(a)


PROBE = SpeedProbe()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")


def import_lgscan():
    """lgscan from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import lgscan

    where = os.path.dirname(os.path.abspath(lgscan.__file__))
    if where != os.path.join(SRC, "lgscan"):
        raise ImportError(f"lgscan imported from {where}, not from {SRC}")
    return lgscan


class Run:
    """Accumulates the calls of one run: intervals, failures and outputs."""

    def __init__(self, workload) -> None:
        self.wl = workload
        self.calls: list[tuple[int, float, float]] = []   # (unit, start, end)
        self.passes: list[tuple[int, int]] = []           # call index ranges
        self.ops = 0
        self.failed = 0
        self.outputs: list[tuple[int, object]] = []
        self.errors: list[str] = []

    def call(self, unit: int) -> None:
        """Run one call; failures are counted, not raised."""
        start = time.perf_counter()
        try:
            value = self.wl.run(unit)
            ok = True
        except (Exception, SystemExit):
            ok = False
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc())
        self.calls.append((unit, start, time.perf_counter()))
        self.ops += self.wl.unit_ops[unit]
        if ok:
            self.outputs.append((unit, self.wl.settle(unit, value)))
        else:
            self.failed += self.wl.unit_ops[unit]

    def ops_for(self, seconds: float) -> None:
        """Per-op workloads: cycle through the calls until `seconds` have
        passed and at least the workload's minimum of ops has been timed."""
        start = time.perf_counter()
        unit = 0
        while time.perf_counter() - start < seconds or self.ops < self.wl.min_ops:
            self.call(unit)
            unit = (unit + 1) % len(self.wl.units)

    def passes_for(self, seconds: float) -> list[int]:
        """Whole passes (every call once) while one more pass is expected to
        end within `seconds`, at least one; returns their indices."""
        start = time.perf_counter()
        first = len(self.passes)
        while len(self.passes) == first or (
                (time.perf_counter() - start) * (1 + 1 / (len(self.passes) - first)) <= seconds):
            begin = len(self.calls)
            for unit in range(len(self.wl.units)):
                self.call(unit)
            self.passes.append((begin, len(self.calls)))
        return list(range(first, len(self.passes)))

    def durations(self) -> list[float]:
        """Each call's duration at the reference speed."""
        return [PROBE.scaled(a, b) for _, a, b in self.calls]

    def pass_times(self, durations: list[float], passes: list[int]) -> list[float]:
        return [sum(durations[a:b]) for a, b in (self.passes[p] for p in passes)]

    def check(self) -> None:
        failed, messages = self.wl.check(self.outputs) if self.outputs else (0, [])
        self.failed += failed
        self.errors += messages[:5]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(wl, seconds: float) -> dict:
    run = Run(wl)
    if wl.per_op:
        run.ops_for(seconds)
    else:
        passes = run.passes_for(seconds)
    PROBE.stop()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    durations = run.durations()
    if wl.per_op:
        samples = [1e3 * d / wl.unit_ops[u] for d, (u, _, _) in zip(durations, run.calls)]
    else:
        samples = [1e3 * t / sum(wl.unit_ops) for t in run.pass_times(durations, passes)]
    run.check()
    return {
        "attempted": run.ops,
        "failed": run.failed,
        "errors": run.errors,
        "samples": len(samples),
        "metrics": {
            "ops_per_s": run.ops / sum(durations),
            "op_p50_ms": percentile(samples, 50),
            "op_p99_ms": percentile(samples, 99),
            "peak_rss_mib": peak_kib / 1024.0,
        },
    }


def measure_traced(wl, seconds: float) -> dict:
    run = Run(wl)
    plain = run.passes_for(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.passes_for(seconds / 2)
    finally:
        tracer.uninstall()
    PROBE.stop()
    tracer.dump(os.path.join(WORKDIR, f"spans-{wl.name}.csv"))
    tracer.check_expected(wl.name)
    durations = run.durations()
    overhead = (percentile(run.pass_times(durations, traced), 50)
                / percentile(run.pass_times(durations, plain), 50))
    run.check()
    return {
        "attempted": run.ops,
        "failed": run.failed,
        "errors": run.errors,
        "samples": len(traced),
        "metrics": tracing.layer_metrics(tracer, len(traced), overhead, PROBE.scaled),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import_lgscan()
    import numpy
    import workloads

    os.makedirs(WORKDIR, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, WORKDIR)
    now = time.perf_counter()
    print(f"ready {PROBE.scaled(PROCESS_START, now) / (now - PROCESS_START)!r}", flush=True)
    if args.setup_only:
        return 0
    try:
        result = measure_traced(wl, args.seconds) if args.trace else measure(wl, args.seconds)
    finally:
        wl.cleanup()
    result["numpy"] = numpy.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    PROBE.start()
    try:
        code = main()
    finally:
        PROBE.stop()
    sys.exit(code)
