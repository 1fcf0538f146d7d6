"""Command line front end.

Subcommands:

* ``gen``: build the problems of a config and save them as files.
* ``solve``: run one solver on one saved problem, print the solution.
* ``bench``: run a full suite, emit records as CSV or JSON.
* ``profile``: turn a records CSV into an SVG performance profile.
* ``table``: render a records CSV as the error/estimate table.
* ``trace``: CGLSI residual-gap history of one problem as CSV.

Each run-setting flag sets the config key it names in ``_FLAG_KEYS``;
``solve`` and ``trace`` read their problem as a one-``file``-family
config.  So every run setting is checked once, by ``bench.parse_config``.

Exit codes: 0 success, 1 configuration error, 2 I/O or usage error, 3
numerical failure (a solver raised, or a bench record ended with
status=error).
"""

import argparse
import csv
import os
import sys
from contextlib import nullcontext

from . import bench, iterative, problems
from .errors import (ConfigError, InvalidParameter, MissingConfiguration,
                     QlskitError)

_EXIT_CONFIG = 1
_EXIT_IO = 2
_EXIT_NUMERICAL = 3


# Each run-setting flag (by its argparse dest) and the config key it sets.
_FLAG_KEYS = {"solver": "solvers", "eps": "eps", "tol": "tol",
              "maxit": "maxIterations", "seed": "seed"}


def _config(args, doc):
    """Lay the run-setting flags of `args` over config document `doc` and
    validate the result once, through ``bench.parse_config``."""
    flags = {key: getattr(args, dest) for dest, key in _FLAG_KEYS.items()
             if getattr(args, dest, None) is not None}
    if flags.get("solvers") == []:
        raise ConfigError("--solver: no solver names given")
    config = bench.parse_config({**doc, **flags})
    if "eps" in flags:
        eps, moved = problems.eps_weight(config.eps)
        if moved:
            print(f"warning: eps {config.eps!r} is not a power of two; "
                  f"using {eps!r}", file=sys.stderr)
    return config


def _one_problem(args, **doc):
    """The config and problem of a command that reads one problem file."""
    config = _config(args, {"families": [{"type": "file",
                                          "path": args.problem}], **doc})
    (p,) = bench.build_problems(config)
    return config, p


def _cmd_gen(args):
    config = _config(args, bench.read_config(args.config))
    built = bench._built(config)
    for idx, p in built:
        if not problems.is_file_label(p.label):
            # The schema checks the labels a config gives and the generated
            # ones keep the rule, so this one was read from a file's header.
            raise InvalidParameter(
                f"families[{idx}].path: {config.families[idx]['path']}: "
                f"header label {p.label!r} cannot name a problem file")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    for _, p in built:
        path = os.path.join(out_dir, f"{p.label}.qls")
        problems.save_problem(p, path)
        print(path)
    return 0


def _cmd_solve(args):
    config, p = _one_problem(args, solvers=["QR"])
    if len(config.solvers) != 1:
        raise ConfigError(f"--solver: solve runs one solver, "
                          f"got {', '.join(config.solvers)}")
    (solver,) = config.solvers
    (o,) = bench.solve(solver, [p], config.eps, config.control())
    if isinstance(o, QlskitError):
        raise o
    print(f"problem {p.label or args.problem}  m={p.m} n={p.n} "
          f"kappa={p.kappa():.3e}")
    print(f"solver {solver}  iterations={o.iterations}  status={o.status}")
    if p.x_exact is not None:
        print(f"rel_error={bench._rel_error(o.x, p.x_exact)!r}")
    print("x:")
    for v in o.x:
        print(repr(float(v)))
    return 0


def _cmd_bench(args):
    config = _config(args, bench.read_config(args.config))
    records = bench.run_suite(config)
    out = args.out or config.output
    bench.emit_records(records, out or sys.stdout, args.format)
    if out:
        print(f"wrote {len(records)} records to {out}")
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
    config, p = _one_problem(args)
    gaps = iterative.cgls_i(p, config.control()).true_residual_gap_history
    rows = [["iteration", "gap"]] + [
        [str(k + 1), repr(g)] for k, g in enumerate(gaps.tolist())
    ]
    with (open(args.out, "w", newline="") if args.out
          else nullcontext(sys.stdout)) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    if args.out:
        print(f"wrote {args.out}")
    return 0


# Every flag and positional argument, with its argparse settings.
_ARGUMENTS = {
    "--config": dict(required=True, help="experiment JSON path"),
    "problem": dict(help="saved problem file"),
    "records": dict(help="records CSV from bench"),
    "--out": dict(help="output path"),
    "--eps": dict(type=float, help="regularization eps (power of two)"),
    "--tol": dict(type=float, help="stopping tolerance"),
    "--maxit": dict(type=int, help="iteration cap"),
    "--seed": dict(type=int, help="base PRNG seed"),
    "--solver": dict(type=lambda text: [s.strip() for s in text.split(",")
                                         if s.strip()],
                     help="solver name; bench takes a comma-separated list"),
    "--format": dict(choices=("csv", "json"), default="csv",
                     help="record output format (default csv)"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qlskit",
        description="Solvers and diagnostics for A^T A x = A^T b + c.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand: its function, help line and the arguments it reads.
    for name, func, help_line, arguments in (
        ("gen", _cmd_gen, "save the config's problems as files",
         "--config --out --seed"),
        ("solve", _cmd_solve, "run one solver on one problem",
         "problem --solver --eps --tol --maxit"),
        ("bench", _cmd_bench, "run a suite, emit records",
         "--config --out --eps --tol --maxit --seed --solver --format"),
        ("profile", _cmd_profile, "records CSV to SVG profile",
         "records --out"),
        ("table", _cmd_table, "records CSV to error table", "records"),
        ("trace", _cmd_trace, "CGLSI residual-gap history",
         "problem --out --tol --maxit"),
    ):
        sp = sub.add_parser(name, help=help_line)
        for arg in arguments.split():
            sp.add_argument(arg, **_ARGUMENTS[arg])
        sp.set_defaults(func=func)
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
