"""lgscan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan-csv --seed 1 --seconds 25 --trace 0

Every measured run happens in a fresh worker process (perfbench/worker.py),
so peak RSS and set-up time belong to that run.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with --trace 1
it holds the per-layer metrics of a separate traced run.  Earlier lines give
the same figures by name and unit, the machine, and any failure.  The exit
code is nonzero, with no JSON line, when the benchmark itself cannot run.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("scan-csv", "threshold-sweep", "figures-json", "eval-points")
SETUP_PROBES = 8          # extra set-up-only processes per untraced run
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class BenchError(Exception):
    pass


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def start_worker(args: argparse.Namespace, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its "ready"; returns it and its set-up
    time, scaled to the reference speed the worker measured meanwhile."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--smoke"] if args.smoke else []
    cmd += ["--setup-only"] if setup_only else []
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().split()
    setup_s = time.perf_counter() - start
    if len(line) != 2 or line[0] != "ready":
        finish(proc)
        raise BenchError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup_s * float(line[1])


def finish(proc: subprocess.Popen) -> str:
    """Wait for a worker and return the rest of its stdout; kill it on timeout."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def bench(args: argparse.Namespace) -> dict:
    if not os.path.isdir(os.path.join(ROOT, "src", "lgscan")):
        raise BenchError(f"no lgscan sources under {os.path.join(ROOT, 'src')}")
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup_s = start_worker(args, setup_only=True)
            finish(proc)
            setups.append(setup_s)
    proc, setup_s = start_worker(args, setup_only=False)
    lines = finish(proc).splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    if not args.trace:
        setups.append(setup_s)
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    p.add_argument("--save", metavar="FILE",
                   help="append the full result, with machine info, as one JSON line")
    args = p.parse_args(argv)

    try:
        result = bench(args)
    except (BenchError, json.JSONDecodeError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    info = dict(machine(), numpy=result["numpy"])
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    failed, attempted = result["failed"], result["attempted"]
    print(f"lgscan benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(info))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    print(f"  {'samples':42s} {result['samples']}")
    print(f"  {'failed_ratio':42s} {failed / attempted:.6g} ({failed}/{attempted})")
    for err in result["errors"]:
        print("failure: " + err.rstrip().replace("\n", "\n    "))
    if args.save:
        with open(args.save, "a") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "machine": info, "samples": result["samples"],
                "attempted": attempted, "failed": failed, "metrics": metrics,
            }) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
