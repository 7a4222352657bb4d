"""Command-line front end.

Subcommands:
  eval       one parameter point: all inequality families, NSIT booleans,
             joint-measurability verdict (uses the scalar operator pipeline,
             which runs the seven experiments once, shared by every family)
  scan       run every section of a config file over its grid
  threshold  bisection for the eta threshold of one family
  figure     emit the data behind one of the four canned survey figures
  selftest   run the built-in numerical invariant suites

Exit codes: 0 success, 1 stdout closed early (broken pipe), 2 configuration
error or an output path that cannot be written, 3 numerical-invariant
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .config import eval_expr, load_configs, parse_bias
from .errors import ConfigError, InvariantError, LgscanError
from .grid import FAMILY_TABLE, NSIT_TOL, bias_x, check_angles, pick, violated
from .inequalities import elgi_all, slgi_all, wlgi_all
from .measurement import QubitState, Schedule
from .jointmeas import jm_verdict
from .nsit import disturbance_report, nsit_satisfied
from .scan import (
    axis_from_angles,
    figure_records,
    report,
    scan,
    skipped_points,
    threshold_eta,
)


def _angle(text: str) -> float:
    return eval_expr(text, "argument")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lgscan", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    common_point = argparse.ArgumentParser(add_help=False)
    common_point.add_argument("--theta", type=_angle, default=0.0)
    common_point.add_argument("--phi", type=_angle, default=0.0)
    common_point.add_argument("--bias", type=str, default="zero",
                              help="zero | eta-1 | x=<value>")
    common_point.add_argument("--axis-alpha", type=_angle, default=0.0)
    common_point.add_argument("--axis-beta", type=_angle, default=math.pi / 2)

    pe = sub.add_parser("eval", parents=[common_point],
                        help="evaluate one parameter point")
    pe.add_argument("--tau", type=_angle, required=True)
    pe.add_argument("--eta", type=float, default=1.0)
    pe.add_argument("--tolerance", type=float, default=NSIT_TOL)

    ps = sub.add_parser("scan", help="run config-file scans")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default=".", help="output directory")
    ps.add_argument("--format", choices=("csv", "json"), default="csv")
    ps.add_argument("--jobs", type=int, default=None,
                    help="accepted for compatibility (must be >= 1); no effect")
    ps.add_argument("--tolerance", type=float, default=None)

    pt = sub.add_parser("threshold", parents=[common_point],
                        help="bisect the eta threshold of a family")
    pt.add_argument("--family", choices=tuple(FAMILY_TABLE), required=True)
    pt.add_argument("--tau", type=_angle, default=None)
    pt.add_argument("--maximize-tau", action="store_true")
    pt.add_argument("--spec-index", type=int, default=None)
    pt.add_argument("--tolerance", type=float, default=1e-4)

    pf = sub.add_parser("figure", help="emit canned figure data")
    pf.add_argument("which", type=int, choices=(1, 2, 3, 4))
    pf.add_argument("--out", default=None)
    pf.add_argument("--format", choices=("csv", "json"), default="csv")

    pst = sub.add_parser("selftest", help="run numerical invariant suites")
    pst.add_argument("--seed", type=int, default=20240601)
    return p


def _cmd_eval(args) -> int:
    check_angles(args.theta, args.tau)
    mode, x_fixed = parse_bias(args.bias)
    x = float(bias_x(mode, args.eta, x_fixed))
    axis = axis_from_angles(args.axis_alpha, args.axis_beta)
    state = QubitState.pure(args.theta, args.phi)
    sched = Schedule(measured=(1, 2, 3), tau=args.tau, axis=axis, x=x, eta=args.eta)

    print(f"point: theta={args.theta:.6g} phi={args.phi:.6g} tau={args.tau:.6g} "
          f"eta={args.eta:.6g} x={x:.6g} axis=({axis[0]:.4g},{axis[1]:.4g},{axis[2]:.4g})")
    for name, results in (("slgi", slgi_all(state, sched)),
                          ("wlgi", wlgi_all(state, sched)),
                          ("elgi", elgi_all(state, sched))):
        bound = FAMILY_TABLE[name].bound
        best, spec = pick([r.value for r in results])
        mark = "VIOLATED" if violated(best, bound) else "satisfied"
        print(f"{name}: max value {best:+.9f} (bound {bound:g}, spec {spec}) {mark}")
        for i, res in enumerate(results):
            print(f"  {name}[{i:2d}] = {res.value:+.9f}{' *' if res.violated else ''}")
    rep = disturbance_report(state, sched)
    flags = nsit_satisfied(rep, args.tolerance)
    print("nsit: " + " ".join(f"{k}={'ok' if v else 'VIOLATED'}" for k, v in flags.items()))
    print(f"aot residual: {rep.aot_residual:.3e}")
    verdict = jm_verdict(sched, bias_mode=mode)
    for pair, pr in verdict.pairwise.items():
        print(f"jm {pair}: {'compatible' if pr.jointly_measurable else 'incompatible'} "
              f"(margin {pr.margin:+.6g}) threshold {pr.threshold:.6g}")
    if verdict.triple is not None:
        # the four-norm criterion is sufficient only: failing it decides nothing
        t = verdict.triple
        print(f"jm triple: {'compatible' if t.jointly_measurable else 'inconclusive'} "
              f"by the four-norm sufficient criterion "
              f"(margin {t.margin:+.6g}) threshold {t.threshold:.6g}")
    else:
        print("jm triple: not reported for biased effects")
    return 0


def _cmd_scan(args) -> int:
    configs = load_configs(args.config)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {args.out!r}: "
                          f"{exc.strerror or exc}") from exc
    for name, cfg in configs.items():
        if args.jobs is not None:
            cfg = dataclasses.replace(cfg, jobs=args.jobs)
        if args.tolerance is not None:
            cfg = dataclasses.replace(cfg, nsit_tol=args.tolerance)
        try:
            records = scan(cfg)
        except ConfigError as exc:  # a grid whose report does not fit in memory
            raise ConfigError(f"[{name}] {exc}", exc.field) from exc
        skipped = skipped_points(cfg)
        path = os.path.join(args.out, cfg.out or f"{name}.{args.format}")
        report(records, path, args.format)
        print(f"[{name}] {len(records)} records -> {path} (skipped {skipped} invalid points)")
    return 0


def _cmd_threshold(args) -> int:
    mode, x_fixed = parse_bias(args.bias)
    axis = axis_from_angles(args.axis_alpha, args.axis_beta)
    eta = threshold_eta(
        args.family,
        theta=args.theta,
        phi=args.phi,
        tau=args.tau,
        maximize_tau=args.maximize_tau,
        bias_mode=mode,
        x_fixed=x_fixed,
        axis=axis,
        spec_index=args.spec_index,
        tol=args.tolerance,
    )
    print(f"{args.family} threshold eta = {eta:.6f}")
    return 0


def _cmd_figure(args) -> int:
    records = figure_records(args.which)
    path = args.out or f"figure{args.which}.{args.format}"
    report(records, path, args.format)
    print(f"figure {args.which}: {len(records)} records -> {path}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_all

    checks = run_all(seed=args.seed)
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name:28s} {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} invariant check(s) failed")
        return 3
    print(f"all {len(checks)} invariant checks passed")
    return 0


_COMMANDS = {"eval": _cmd_eval, "scan": _cmd_scan, "threshold": _cmd_threshold,
             "figure": _cmd_figure, "selftest": _cmd_selftest}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not math.isfinite(getattr(args, "eta", 0.0)):
            raise ConfigError(f"eta must be a finite number, got {args.eta!r}")
        # threshold_eta checks its own (bisection) tolerance, which must be > 0
        tol = getattr(args, "tolerance", None)
        if args.command in ("eval", "scan") and tol is not None and not (
                math.isfinite(tol) and tol >= 0):
            raise ConfigError(f"tolerance must be a finite number >= 0, got {tol!r}")
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, inside the try
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`lgscan eval ... | head -2`): point
        # stdout at devnull so the interpreter's last flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except InvariantError as exc:
        print(f"numerical invariant failure: {exc}", file=sys.stderr)
        return 3
    except LgscanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
