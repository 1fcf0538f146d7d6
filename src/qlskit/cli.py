"""Command line front end.

Subcommands:

* ``gen``: build the problems of a config and save them as files.
* ``solve``: run one solver on one saved problem, print the solution.
* ``bench``: run a full suite, emit records as CSV or JSON.
* ``profile``: turn a records CSV into an SVG performance profile.
* ``table``: render a records CSV as the error/estimate table.
* ``trace``: CGLSI residual-gap history of one problem as CSV.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 numerical
failure (a solver raised, or a bench record ended with status=error).
"""

import argparse
import csv
import os
import sys

import numpy as np

from . import bench, iterative, problems
from .errors import ConfigError, MissingConfiguration, QlskitError

_EXIT_CONFIG = 1
_EXIT_IO = 2
_EXIT_NUMERICAL = 3


def _check_eps(eps):
    """Round a requested eps to a power of two, warning when it moves."""
    if eps is None:
        return None
    if eps <= 0:
        raise ConfigError(f"--eps must be positive, got {eps!r}")
    if not problems.is_power_of_two(eps):
        rounded = problems.nearest_power_of_two(eps)
        print(f"warning: eps {eps!r} is not a power of two; "
              f"using {rounded!r}", file=sys.stderr)
        return rounded
    return eps


def _apply_overrides(config, args):
    if getattr(args, "solver", None):
        names = [s.strip() for s in args.solver.split(",") if s.strip()]
        config.solvers = bench.check_solvers(names, "--solver")
    if getattr(args, "eps", None) is not None:
        config.eps = _check_eps(args.eps)
    if getattr(args, "tol", None) is not None:
        if args.tol <= 0:
            raise ConfigError("--tol must be positive")
        config.tol = args.tol
    if getattr(args, "maxit", None) is not None:
        if args.maxit <= 0:
            raise ConfigError("--maxit must be positive")
        config.max_iterations = args.maxit
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    return config


def _cmd_gen(args):
    config = _apply_overrides(bench.parse_config(args.config), args)
    probs = bench.build_problems(config)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    for p in probs:
        path = os.path.join(out_dir, f"{p.label}.qls")
        problems.save_problem(p, path)
        print(path)
    return 0


def _cmd_solve(args):
    p = problems.load_problem(args.problem)
    solver = (args.solver or "QR").strip()
    eps = _check_eps(args.eps) or problems.DEFAULT_EPS
    ctrl = iterative.IterationControl(tol=args.tol, max_iterations=args.maxit)
    bench.check_solvers([solver], "--solver")
    run, _ = bench.SOLVER_TABLE[solver]
    x, iterations, status, _ = run(p, eps, ctrl)
    print(f"problem {p.label or args.problem}  m={p.m} n={p.n} "
          f"kappa={p.kappa():.3e}")
    print(f"solver {solver}  iterations={iterations}  status={status}")
    if p.x_exact is not None:
        rel = float(np.linalg.norm(x - p.x_exact) / np.linalg.norm(p.x_exact))
        print(f"rel_error={rel!r}")
    print("x:")
    for v in x:
        print(repr(float(v)))
    return 0


def _cmd_bench(args):
    config = _apply_overrides(bench.parse_config(args.config), args)
    records = bench.run_suite(config)
    out = args.out or config.output
    fmt = args.format or "csv"
    if out:
        bench.emit_records(records, out, fmt)
        print(f"wrote {len(records)} records to {out}")
    else:
        bench.emit_records(records, sys.stdout, fmt)
    if any(r.status == "error" for r in records):
        return _EXIT_NUMERICAL
    return 0


def _cmd_profile(args):
    records = bench.load_records(args.records)
    curves = bench.performance_profile(records)
    out = args.out or "profile.svg"
    bench.emit_profile_svg(curves, out)
    print(f"wrote {out}")
    return 0


def _cmd_table(args):
    records = bench.load_records(args.records)
    sys.stdout.write(bench.report_table(records))
    return 0


def _cmd_trace(args):
    p = problems.load_problem(args.problem)
    ctrl = iterative.IterationControl(tol=args.tol, max_iterations=args.maxit)
    gaps = bench.trace_residual_gap(p, ctrl)
    out = args.out
    rows = [["iteration", "gap"]] + [
        [str(k + 1), repr(g)] for k, g in enumerate(gaps)
    ]
    if out:
        with open(out, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        print(f"wrote {out}")
    else:
        for row in rows:
            print(",".join(row))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qlskit",
        description="Solvers and diagnostics for A^T A x = A^T b + c.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, config=False, problem=False, records=False):
        if config:
            sp.add_argument("--config", required=True,
                            help="experiment JSON path")
        if problem:
            sp.add_argument("problem", help="saved problem file")
        if records:
            sp.add_argument("records", help="records CSV from bench")
        sp.add_argument("--out", help="output path")
        sp.add_argument("--eps", type=float,
                        help="regularization eps (power of two)")
        sp.add_argument("--tol", type=float, help="stopping tolerance")
        sp.add_argument("--maxit", type=int, help="iteration cap")
        sp.add_argument("--seed", type=int, help="base PRNG seed")
        sp.add_argument("--solver", help="comma-separated solver names")

    sp = sub.add_parser("gen", help="save the config's problems as files")
    add_common(sp, config=True)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("solve", help="run one solver on one problem")
    add_common(sp, problem=True)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("bench", help="run a suite, emit records")
    add_common(sp, config=True)
    sp.add_argument("--format", choices=("csv", "json"),
                    help="record output format (default csv)")
    sp.set_defaults(func=_cmd_bench)

    sp = sub.add_parser("profile", help="records CSV to SVG profile")
    add_common(sp, records=True)
    sp.set_defaults(func=_cmd_profile)

    sp = sub.add_parser("table", help="records CSV to error table")
    add_common(sp, records=True)
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("trace", help="CGLSI residual-gap history")
    add_common(sp, problem=True)
    sp.set_defaults(func=_cmd_trace)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, MissingConfiguration) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    except QlskitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
