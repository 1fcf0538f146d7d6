"""qlskit benchmark: one workload per run, timed through the qlskit CLI.

    python3 perfbench/run.py --workload set_p --seed 1729 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.
A run sets the workload up five times, then times whole ``qlskit bench``
passes until ``--seconds`` is used up (at least one pass), setting up
afresh before each further pass; ``setup_s`` and ``suite_s`` are
medians.  Every pass is checked (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sets up
once with tracing on, then times untraced and traced passes in turn,
and reports the per-layer metrics plus the tracing overhead.  Spans and the
full result go to ``perfbench/out/``; the last line of standard output
is the JSON result.  The exit code is 0 only when every check passed.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# One BLAS thread: the problems are small, and the run then uses one
# core of the machine whatever its size.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import TRACED, Tracer, span_name  # noqa: E402

SETUPS = 5
PER_LAYER_CALLS = ("linalg.svd", "linalg.qr_factorize",
                   "linalg.solve_triangular")
SELF_SUFFIX = {"cli.main": "_self_s", "bench.run_suite": "_self_s"}


def import_qlskit():
    """Import qlskit afresh from src/; returns {short name: module}."""
    for name in [m for m in sys.modules
                 if m == "qlskit" or m.startswith("qlskit.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import qlskit
    import qlskit.cli
    if not os.path.abspath(qlskit.__file__).startswith(SRC + os.sep):
        raise ImportError(f"qlskit imported from {qlskit.__file__}, not {SRC}")
    return {mod: sys.modules[f"qlskit.{mod}"] for mod, _ in TRACED}


def machine_facts():
    facts = {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = {key: blas.get(key) for key in
                     ("name", "version", "openblas configuration")}
    return facts


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digit_means(records):
    """Mean correct digits per solver over one pass's records."""
    per = {}
    for r in records:
        per.setdefault(r["solver"], []).append(checks.digits(r["rel_error"]))
    return {s: statistics.fmean(v) for s, v in per.items()}


class Run:
    """Counts and faults of one benchmark run."""

    def __init__(self, name):
        self.name = name
        self.attempted = 0
        self.faults = []
        self.suite_faults = []
        self.records = None

    def add_inputs(self, inputs):
        self.attempted += inputs.writes
        self.faults += inputs.write_faults

    def add_pass(self, inputs, out_csv, error):
        attempted, faults, suite, records = workloads.check_pass(
            self.name, inputs, out_csv)
        self.attempted += attempted
        self.faults += faults
        self.suite_faults += suite
        if error:
            self.suite_faults.append(error)
        if self.records is None:
            self.records = records


def traced(tracer, qk, name):
    return contextlib.nullcontext() if tracer is None else tracer.root(qk, name)


def setup(args, work, tracer=None):
    """One timed set-up; returns (seconds, modules, inputs, refs)."""
    t0 = time.perf_counter()
    qk = import_qlskit()
    with traced(tracer, qk, "setup"):
        inputs, refs = workloads.prepare(args.workload, qk, ROOT, work,
                                         args.seed)
    return time.perf_counter() - t0, qk, inputs, refs


def one_pass(run, qk, inputs, out_csv, tracer=None):
    """Time and check one pass; with a tracer, trace it as a "pass" span."""
    t0 = time.perf_counter()
    with traced(tracer, qk, "pass"):
        error = workloads.run_pass(qk, inputs, out_csv)
    seconds = time.perf_counter() - t0
    run.add_pass(inputs, out_csv, error)
    return seconds


def end_to_end(args, run, work, out_csv):
    # SETUPS set-ups, then passes until the next one would overrun
    # --seconds, with a fresh set-up before each pass after the first:
    # the machine's speed drifts from second to second, so set-ups spread
    # over the run give a steadier median than set-ups in one burst.
    setups, passes = [], []
    while (len(setups) < SETUPS or not passes
           or sum(passes) + statistics.median(passes) <= args.seconds):
        seconds, qk, inputs, refs = setup(args, work)
        setups.append(seconds)
        workloads.check_inputs(args.workload, inputs, refs)
        run.add_inputs(inputs)
        if len(setups) >= SETUPS:
            passes.append(one_pass(run, qk, inputs, out_csv))
    digits = digit_means(run.records)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "suite_s": (statistics.median(passes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        # 0 when no pass wrote records; such a run has failed anyway.
        "digits_mean": (statistics.fmean(
            [checks.digits(r["rel_error"]) for r in run.records] or [0.0]),
            "digits"),
        "digits_worst": (min(digits.values(), default=0.0), "digits"),
    }
    samples = {"setup_s": setups, "suite_s": passes}
    return metrics, samples


def per_layer(args, run, work, out_csv, trace_path):
    tracer = Tracer()
    _, qk, inputs, refs = setup(args, work, tracer)
    workloads.check_inputs(args.workload, inputs, refs)
    run.add_inputs(inputs)
    # Untraced and traced passes alternate, so a drift of the machine's
    # speed during the run falls on both alike.
    plain, traced = [], []
    while not plain or (sum(plain) + sum(traced) + statistics.median(plain)
                        + statistics.median(traced) <= args.seconds):
        plain.append(one_pass(run, qk, inputs, out_csv))
        traced.append(one_pass(run, qk, inputs, out_csv, tracer))
    tracer.dump(trace_path)

    n = len(traced)
    set_s, set_calls = tracer.self_times("setup")
    pass_s, pass_calls = tracer.self_times("pass")
    metrics = {}
    for mod_name, attr in TRACED:
        name = span_name(mod_name, attr)
        secs = set_s.get(name, 0.0) + pass_s.get(name, 0.0) / n
        metrics[name + SELF_SUFFIX.get(name, "_s")] = (secs, "s")
        if name in PER_LAYER_CALLS:
            calls = set_calls.get(name, 0) + pass_calls.get(name, 0) / n
            metrics[name + "_calls"] = (calls, "count")
        if mod_name == "iterative":
            for key in ("_iterations", "_capped"):
                metrics[name + key] = (
                    tracer.counts.get(name + key, 0) / n, "count")
    for key, count in workloads.watched_counts(run.records,
                                               inputs.kappa).items():
        metrics[key] = (count, "count")
    digits = digit_means(run.records)
    for solver in qk["bench"].SOLVERS:
        metrics["digits_" + solver] = (digits.get(solver, 0.0), "digits")
    overhead = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    samples = {"untraced_pass_s": plain, "traced_pass_s": traced}
    return metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1729,
                        help="set_p seed (set_p and files workloads)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="time budget of the timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qlskit", "__init__.py")):
        print(f"error: no qlskit package under {SRC}", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    work = os.path.join(HERE, "work",
                        f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-s{args.seed}-t{args.trace}")
    out_csv = os.path.join(work, "records.csv")
    run = Run(args.workload)
    try:
        if args.trace:
            metrics, samples = per_layer(args, run, work, out_csv,
                                         stem + "-spans.json")
        else:
            metrics, samples = end_to_end(args, run, work, out_csv)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.faults)
    correct = not run.suite_faults
    facts = machine_facts()
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(f"{args.workload}  operations attempted = {run.attempted}, "
          f"failed = {failed}")
    for fault in run.faults + run.suite_faults:
        print(f"check failed: {fault}")
    print("machine: " + json.dumps(facts))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"args": vars(args), "machine": facts, "samples": samples,
                   "faults": run.faults, "suite_faults": run.suite_faults,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
