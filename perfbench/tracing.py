"""Span recorder for the traced benchmark run.

Tracing works from outside the package: `Tracer.install` replaces a fixed
list of lgscan functions with wrappers that record one span (name, start,
end, parent) per call, in every lgscan module namespace that binds the
function (so `lgscan.cli.scan`, `lgscan.inequalities.run_schedule` and
`lgscan.nsit.run_schedule` are covered along with the defining modules).
Spans stay in memory; `dump` writes them out when the run ends and
`layer_metrics` turns them into the per-layer figures.

A target that no longer exists raises at install time, and `check_expected`
raises when a function the workload must reach recorded no call, so a rename
in the package cannot silently zero a layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (module, attribute) pairs wrapped in the traced run; span name is the
# module name without the package prefix plus the attribute.
TARGETS = (
    ("lgscan.cli", "main"),
    ("lgscan.config", "load_configs"),
    ("lgscan.scan", "scan"),
    ("lgscan.scan", "figure_records"),
    ("lgscan.scan", "threshold_eta"),
    ("lgscan.scan", "report"),
    ("lgscan.grid", "lg_distributions"),
    ("lgscan.grid", "slgi_values"),
    ("lgscan.grid", "wlgi_values"),
    ("lgscan.grid", "elgi_values"),
    ("lgscan.grid", "disturbances"),
    ("lgscan.grid", "aot_residual"),
    ("lgscan.jointmeas", "general_margin"),
    ("lgscan.jointmeas", "triple_sum"),
    ("lgscan.jointmeas", "jm_verdict"),
    ("lgscan.measurement", "run_schedule"),
    ("lgscan.inequalities", "slgi_all"),
    ("lgscan.inequalities", "wlgi_all"),
    ("lgscan.inequalities", "elgi_all"),
    ("lgscan.nsit", "disturbance_report"),
)

# Layer -> span names whose total time it reports.
LAYER_SPANS = {
    "grid.lg_distributions": ("grid.lg_distributions",),
    "grid.families": ("grid.slgi_values", "grid.wlgi_values", "grid.elgi_values"),
    "grid.nsit_flags": ("grid.disturbances", "grid.aot_residual"),
    "jointmeas.margins": ("jointmeas.general_margin", "jointmeas.triple_sum"),
    "jointmeas.jm_verdict": ("jointmeas.jm_verdict",),
    "scan.report": ("scan.report",),
    "measurement.run_schedule": ("measurement.run_schedule",),
    "inequalities.all": ("inequalities.slgi_all", "inequalities.wlgi_all",
                         "inequalities.elgi_all"),
    "nsit.disturbance_report": ("nsit.disturbance_report",),
    "config.load_configs": ("config.load_configs",),
}

ASSEMBLY_SPANS = ("scan.scan", "scan.figure_records")

# Spans each workload must record at least once.
EXPECTED = {
    "scan-csv": (
        "cli.main", "config.load_configs", "scan.scan", "grid.lg_distributions",
        "grid.slgi_values", "grid.wlgi_values", "grid.elgi_values",
        "grid.disturbances", "grid.aot_residual", "jointmeas.general_margin",
        "jointmeas.triple_sum", "scan.report",
    ),
    "threshold-sweep": (
        "scan.threshold_eta", "grid.lg_distributions", "grid.slgi_values",
        "grid.wlgi_values", "grid.elgi_values",
    ),
    "figures-json": (
        "cli.main", "scan.figure_records", "grid.lg_distributions",
        "grid.wlgi_values", "grid.elgi_values", "grid.disturbances",
        "grid.aot_residual", "jointmeas.general_margin", "jointmeas.triple_sum",
        "scan.report",
    ),
    "eval-points": (
        "cli.main", "measurement.run_schedule", "inequalities.slgi_all",
        "inequalities.wlgi_all", "inequalities.elgi_all",
        "nsit.disturbance_report", "jointmeas.jm_verdict",
    ),
}

# Per-layer metric names and units, in the order they are printed.
PER_LAYER_UNITS = {
    "grid.lg_distributions.calls": "count",
    "grid.lg_distributions.s": "s",
    "grid.lg_distributions.points": "count",
    "grid.lg_distributions.bytes_out": "bytes_computed",
    "grid.families.s": "s",
    "grid.nsit_flags.s": "s",
    "jointmeas.margins.s": "s",
    "jointmeas.jm_verdict.s": "s",
    "scan.assembly.self_s": "s",
    "scan.records": "count",
    "scan.assembly.us_per_record": "us",
    "scan.report.s": "s",
    "scan.report.bytes": "bytes",
    "scan.report.mb_per_s": "MB/s",
    "scan.threshold_eta.kernel_calls_per_op": "count",
    "measurement.run_schedule.calls": "count",
    "measurement.run_schedule.s": "s",
    "inequalities.all.s": "s",
    "nsit.disturbance_report.s": "s",
    "cli.self_s": "s",
    "config.load_configs.s": "s",
    "trace.overhead_ratio": "ratio",
}


def _kernel_size(args, kwargs, result) -> tuple[int, int]:
    """(points, bytes) of one lg_distributions result; bytes are computed
    from the returned arrays, not measured traffic."""
    points = result[(1,)].size // 2
    return points, sum(a.nbytes for a in result.values())


def _record_count(args, kwargs, result) -> tuple[int, int]:
    return len(result), 0


def _report_size(args, kwargs, result) -> tuple[int, int]:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return 0, os.path.getsize(path)


# Span name -> function giving (items, bytes) from the call and its result.
_SIZES = {
    "grid.lg_distributions": _kernel_size,
    "scan.scan": _record_count,
    "scan.figure_records": _record_count,
    "scan.report": _report_size,
}


class Tracer:
    """Records spans of the wrapped lgscan functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.items: dict[int, int] = {}
        self.bytes: dict[int, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        size = _SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.starts[idx] = start
                self.ends[idx] = end
            if size is not None:
                self.items[idx], self.bytes[idx] = size(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "lgscan" or k.startswith("lgscan.")]
        for modname, attr in TARGETS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(f"{modname.split('.', 1)[1]}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def calls(self, name: str) -> int:
        return sum(1 for n in self.names if n == name)

    def check_expected(self, workload: str) -> None:
        missing = [n for n in EXPECTED[workload] if self.calls(n) == 0]
        if missing:
            raise RuntimeError(
                f"traced run of {workload} recorded no call of {', '.join(missing)}")

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{name},{self.starts[i]!r},{self.ends[i]!r},{self.parents[i]}\n")


def layer_metrics(tracer: Tracer, passes: int, overhead_ratio: float,
                  scale) -> dict[str, float]:
    """Per-layer figures averaged over `passes` traced passes of the workload.

    `scale(start, end)` gives a span's duration at the reference speed.  A
    layer's self time is its spans' duration minus the time covered by their
    child spans; children of one span never overlap (one thread).
    """
    n = len(tracer.names)
    dur = [scale(tracer.starts[i], tracer.ends[i]) for i in range(n)]
    covered = [0.0] * n
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            covered[parent] += dur[i]
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    count: dict[str, int] = {}
    for i, name in enumerate(tracer.names):
        total[name] = total.get(name, 0.0) + dur[i]
        self_time[name] = self_time.get(name, 0.0) + dur[i] - covered[i]
        count[name] = count.get(name, 0) + 1

    def per_pass(table: dict, names) -> float:
        return sum(table.get(name, 0) for name in names) / passes

    def summed(values: dict[int, int], names) -> float:
        return sum(v for i, v in values.items() if tracer.names[i] in names) / passes

    m = {f"{layer}.s": per_pass(total, names) for layer, names in LAYER_SPANS.items()}
    kernel = ("grid.lg_distributions",)
    m["grid.lg_distributions.calls"] = per_pass(count, kernel)
    m["grid.lg_distributions.points"] = summed(tracer.items, kernel)
    m["grid.lg_distributions.bytes_out"] = summed(tracer.bytes, kernel)
    m["scan.assembly.self_s"] = per_pass(self_time, ASSEMBLY_SPANS)
    m["scan.records"] = summed(tracer.items, ASSEMBLY_SPANS)
    m["scan.assembly.us_per_record"] = (
        1e6 * m["scan.assembly.self_s"] / m["scan.records"] if m["scan.records"] else 0.0)
    m["scan.report.bytes"] = summed(tracer.bytes, ("scan.report",))
    m["scan.report.mb_per_s"] = (
        m["scan.report.bytes"] / 1e6 / m["scan.report.s"] if m["scan.report.s"] else 0.0)
    thresholds = count.get("scan.threshold_eta", 0)
    kernel_in_threshold = sum(
        1 for i, name in enumerate(tracer.names)
        if name == "grid.lg_distributions" and tracer.parents[i] >= 0
        and tracer.names[tracer.parents[i]] == "scan.threshold_eta")
    m["scan.threshold_eta.kernel_calls_per_op"] = (
        kernel_in_threshold / thresholds if thresholds else 0.0)
    m["measurement.run_schedule.calls"] = per_pass(count, ("measurement.run_schedule",))
    m["cli.self_s"] = per_pass(self_time, ("cli.main",))
    m["trace.overhead_ratio"] = overhead_ratio
    return {name: float(m[name]) for name in PER_LAYER_UNITS}
