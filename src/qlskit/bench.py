"""Experiment harness: suites, records, performance profiles, reports.

An experiment is a JSON document.  Its keys, each with its type, bound
and default, are declared once, in ``CONFIG_SCHEMA`` and
``FAMILY_SCHEMA``; README "Configuration files" shows the same tables.
``parse_config`` checks a document against them, and ``run_suite``
produces one record per (problem, solver), deterministic apart from
wall clock times.
"""

import csv
import json
import os
import sys
import time
from collections import namedtuple
from contextlib import nullcontext, suppress
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from . import analysis, direct, iterative, linalg, problems
from .errors import (
    ConfigError,
    EmptyInput,
    InvalidParameter,
    MissingConfiguration,
    QlskitError,
    RankDeficient,
)


# ---------------------------------------------------------------------------
# Solver table
# ---------------------------------------------------------------------------

# The one solver table: name -> (Krylov method or None, call, estimate
# key).  call(p, eps, control): a Krylov call solves one problem and
# returns its SolveOutcome; a direct call solves one problem or a list of
# same-shape problems and returns x or the list of x, as the `direct`
# solvers do.  The estimate key names the forward-error estimate of
# analysis.forward_error_estimates that fits the solver.  Solvers are
# looked up through their modules at call time.
SOLVER_TABLE = {
    "CG": ("cg", lambda p, eps, control: iterative.cg_base(p, control),
           "cg"),
    "CGLSI": ("cgls_i", lambda p, eps, control: iterative.cgls_i(p, control),
              "cglsi"),
    "CGLSEPS": ("cgls_eps",
                lambda p, eps, control: iterative.cgls_eps(p, eps, control),
                "cglseps"),
    "MINRES": ("minres",
               lambda p, eps, control: iterative.minres_augmented(p, control),
               None),
    "QR": (None, lambda p, eps, control: direct.solve_qr(p), None),
    "QREPS": (None, lambda p, eps, control: direct.solve_qr_eps(p, eps), None),
    "SM": (None, lambda p, eps, control: direct.solve_sm(p, eps), None),
    "AUG": (None, lambda p, eps, control: direct.solve_aug(p), None),
}
SOLVERS = tuple(SOLVER_TABLE)


# Above this relative error a run counts as failed (not merely inaccurate).
FAILURE_THRESHOLD = 1e-2

PROFILE_TAUS = np.logspace(0.0, 16.0, 81)


@dataclass
class BenchRecord:
    """One (problem, solver) outcome.

    The fields, in order, are the record schema: the CSV columns, the
    JSON object (keys in ``_JSON_KEYS``) and ``load_records`` follow them.
    ``eta_bar`` is the data-relative linearized backward error of the
    returned iterate, always judged against the base problem so the
    column is comparable across solvers.  ``estimate`` carries the
    forward-error estimate for CG / CGLSI / CGLSEPS and NaN for the
    other solvers.  ``residual_gap`` is CGLSI's final recurred-vs-true
    residual distance, None elsewhere.  ``wall_time_ns`` and
    ``analysis_time_ns`` are the solve and the record stage (``eta_bar``
    and ``estimate``) of the record's group, each divided by its size.
    """

    problem_id: str
    m: int
    n: int
    kappa: float
    solver: str
    iterations: int
    rel_error: float
    eta_bar: float
    estimate: float
    residual_gap: float = None
    wall_time_ns: int = 0
    status: str = "ok"
    analysis_time_ns: int = 0


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))
_record_values = attrgetter(*CSV_COLUMNS)
_JSON_KEYS = ("problemId", "m", "n", "kappaA", "solver", "iterations",
              "relError", "etaBar", "estimate", "residualGapFinal",
              "wallTimeNanos", "status", "analysisTimeNanos")


@dataclass
class ProfileCurve:
    """Fraction of problems solved within a factor tau of the best."""

    solver: str
    points: list

    @property
    def fractions(self):
        return np.array([f for _, f in self.points])


# ---------------------------------------------------------------------------
# Config schema and parsing
# ---------------------------------------------------------------------------

class Rule(str):
    """A default worked out per family: a Python expression in the
    config's ``seed``, the family's index ``idx`` and its ``type``,
    shown as this text in README."""


REQUIRED = object()  # the default of a key that must be given

# One config key: its type, a list of one type for a non-empty list of
# that type; its Bound, checked on the value or on each entry; and its
# default, a constant, REQUIRED or a Rule.
Key = namedtuple("Key", "type bound default", defaults=(None, None))

# A bound as the error and README say it, and its test.  eps_weight
# raises InvalidParameter on an eps it cannot round.
Bound = namedtuple("Bound", "text test")
_POSITIVE = Bound("positive", lambda v: v > 0)
_NON_NEGATIVE = Bound("non-negative", lambda v: v >= 0)
_KIND = Bound("in 1..6", lambda v: 1 <= v <= 6)
_SOLVER = Bound("one of " + ", ".join(SOLVERS), SOLVER_TABLE.__contains__)
_EPS = Bound("a power of two in [2^-1023, 1] once rounded",
             problems.eps_weight)
_FILE_LABEL = Bound("a file name: printable, no path separator, not . or "
                    ".., no space at either end", problems.is_file_label)

CONFIG_SCHEMA = {
    "families": Key([dict], None, REQUIRED),
    "solvers": Key([str], _SOLVER, SOLVERS),
    "seed": Key(int, _NON_NEGATIVE, problems.DEFAULT_SET_SEED),
    "eps": Key(float, _EPS, problems.DEFAULT_EPS),
    "tol": Key(float, _POSITIVE),
    "maxIterations": Key(int, _POSITIVE),
    "patience": Key(int, _POSITIVE),
    "output": Key(str),
}
_SYNTHETIC = {
    "m": Key(int, _POSITIVE, 40),
    "n": Key(int, _POSITIVE, 20),
    "alpha": Key(float, None, 1.0),
    "kind": Key(int, _KIND, 1),
    "seed": Key(int, _NON_NEGATIVE, Rule("seed * 100 + idx")),
    "cseed": Key([int], _NON_NEGATIVE, Rule("[seed, idx]")),
    "label": Key(str, _FILE_LABEL, Rule('f"{type}-{idx:02d}"')),
}
# The keys of each family type but "type" itself.
FAMILY_SCHEMA = {
    "c1": {"a": Key(float, _POSITIVE, REQUIRED), **_SYNTHETIC},
    "c2": {"up": Key(float, _POSITIVE, REQUIRED),
           "dw": Key(float, _POSITIVE, REQUIRED), **_SYNTHETIC},
    "set_p": {"m": Key(int, _POSITIVE, 100), "n": Key(int, _POSITIVE, 50),
              "seed": Key(int, _NON_NEGATIVE, Rule("seed"))},
    "file": {"path": Key(str, None, REQUIRED), "verify": Key(bool, None, True)},
}


@dataclass
class ExperimentConfig:
    """A checked config: its families as given, and its top-level keys
    (``maxIterations`` as ``max_iterations``), defaults from the schema."""

    families: list
    solvers: tuple = CONFIG_SCHEMA["solvers"].default
    seed: int = CONFIG_SCHEMA["seed"].default
    eps: float = CONFIG_SCHEMA["eps"].default
    tol: float = CONFIG_SCHEMA["tol"].default
    max_iterations: int = CONFIG_SCHEMA["maxIterations"].default
    patience: int = CONFIG_SCHEMA["patience"].default
    output: str = CONFIG_SCHEMA["output"].default

    def control(self):
        return iterative.IterationControl(
            tol=self.tol, max_iterations=self.max_iterations,
            patience=self.patience,
        )


def _check(val, kind, bound, where):
    """ConfigError naming `where` unless `val` has type `kind`, is finite
    and keeps `bound`."""
    if isinstance(kind, list):
        if not isinstance(val, list) or not val:
            raise ConfigError(f"{where}: must be a non-empty list, got {val!r}")
        for i, entry in enumerate(val):
            _check(entry, kind[0], bound, f"{where}[{i}]")
        return
    # A bool is no int here, and an int is a float.
    if (isinstance(val, bool) != (kind is bool)
            or not isinstance(val, (float, int) if kind is float else kind)):
        raise ConfigError(f"{where}: expected {kind.__name__}, "
                          f"got {type(val).__name__}")
    # NaN fails the test, and so does an int too large for binary64.
    if kind is float and not abs(val) <= sys.float_info.max:
        raise ConfigError(f"{where}: must be finite, got {val!r}")
    try:
        ok = bound is None or bound.test(val)
    except InvalidParameter:
        ok = False
    if not ok:
        raise ConfigError(f"{where}: must be {bound.text}, got {val!r}")


def _walk(obj, schema, where):
    """ConfigError naming `where.key` for an unknown key of `obj`, a
    missing required one, or a value that `schema` does not allow."""
    for key in obj:
        if key not in schema:
            raise ConfigError(f"{where}.{key}: unknown field")
    for key, spec in schema.items():
        if key in obj:
            _check(obj[key], spec.type, spec.bound, f"{where}.{key}")
        elif spec.default is REQUIRED:
            raise ConfigError(f"{where}.{key}: required field is missing")


def _values(obj, schema, **names):
    """Each key of `schema`: obj's value (a float key's as float), or its
    default, a Rule worked out on `names`."""
    out = {}
    for key, spec in schema.items():
        if key in obj:
            out[key] = float(obj[key]) if spec.type is float else obj[key]
        else:
            out[key] = (eval(spec.default, {}, names)
                        if isinstance(spec.default, Rule) else spec.default)
    return out


def family_values(fam, idx, seed):
    """Every key of family `idx` of a config whose seed is `seed`, absent
    ones at their defaults."""
    return _values(fam, FAMILY_SCHEMA[fam["type"]], seed=seed, idx=idx,
                   type=fam["type"])


def read_config(source):
    """The config object of a dict or of a str/PathLike path to JSON."""
    if isinstance(source, dict):
        return source
    if not isinstance(source, (str, os.PathLike)):
        raise ConfigError(f"config: expected a dict or a path, "
                          f"got {type(source).__name__}")
    try:
        with open(source) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {source}: {exc}")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config: invalid JSON at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}"
        )
    if not isinstance(obj, dict):
        raise ConfigError("config: top level must be an object")
    return obj


def parse_config(source):
    """Check a config document (a dict, or a str/PathLike path to a JSON
    file) against the schema; return its ExperimentConfig.

    Raises ConfigError naming the offending key, e.g.
    "families[2].up: must be positive, got 0", and for any other kind of
    source.  Beyond the schema, three rules tie keys together: m >= n
    (defaults included), set_p n >= 2, and c2 dw < up.
    """
    obj = read_config(source)
    _walk(obj, CONFIG_SCHEMA, "config")
    top = _values(obj, CONFIG_SCHEMA)
    for idx, fam in enumerate(obj["families"]):
        where = f"families[{idx}]"
        ftype = fam.get("type")
        if ftype not in FAMILY_SCHEMA:
            raise ConfigError(f"{where}.type: expected one of "
                              f"{sorted(FAMILY_SCHEMA)}, got {ftype!r}")
        _walk({k: v for k, v in fam.items() if k != "type"},
              FAMILY_SCHEMA[ftype], where)
        v = family_values(fam, idx, top["seed"])
        if "m" in v and v["m"] < v["n"]:
            raise ConfigError(f"{where}.m: must be at least n = {v['n']}, "
                              f"got {v['m']}")
        if ftype == "set_p" and v["n"] < 2:
            raise ConfigError(f"{where}.n: set_p needs n >= 2, got {v['n']}")
        if ftype == "c2" and v["dw"] >= v["up"]:
            raise ConfigError(f"{where}.dw: must be less than up")
    top["max_iterations"] = top.pop("maxIterations")
    return ExperimentConfig(**dict(top, solvers=tuple(top["solvers"])))


def build_problems(config):
    """Materialize the config's families into problem instances.

    Families are built in config order, so the first family that fails
    raises what it raises alone.  A "file" family is read and, when it
    is a ``verify`` family, checked; its singular values are computed
    the first time something asks for them.  Generated families seed
    their spectrum.  Only then do two problems sharing a label raise
    ConfigError naming both families: records and problem files are
    keyed by the label.
    """
    built = [(idx, p) for idx, fam in enumerate(config.families)
             for p in _family_problems(config, idx, fam)]
    first = {}
    for idx, p in built:
        if first.setdefault(p.label, idx) != idx:
            raise ConfigError(
                f"families[{first[p.label]}] and families[{idx}]: both "
                f"give a problem labelled {p.label!r}")
    return [p for _, p in built]


def _family_problems(config, idx, fam):
    """The problems of family `idx`."""
    ftype, v = fam["type"], family_values(fam, idx, config.seed)
    if ftype == "file":
        return [problems.load_problem(v["path"], verify=v["verify"])]
    if ftype == "set_p":
        return problems.generate_problem_set_p(seed=v["seed"], m=v["m"],
                                               n=v["n"])
    if ftype == "c1":
        sigma = problems.sigma_c1(v["n"], v["a"])
    else:
        sigma = problems.sigma_c2(v["n"], v["dw"], v["up"])
    c = v["alpha"] * problems.seeded_rng(*v["cseed"]).random(v["n"])
    return [problems.assemble_problem(v["m"], v["n"], sigma, c,
                                      kind=v["kind"], seed=v["seed"],
                                      label=v["label"])]


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

def solve(solver, probs, eps, control):
    """Run `solver` on problems of one shape: per problem, a SolveOutcome
    or the QlskitError that stopped it.  A direct solver solves the
    problems in one group call, and alone where that raises (``_each``);
    its outcome has ``iterations=0`` and ``status="direct"``.  A Krylov
    method solves the problems as one ``iterative.batched`` block, whose
    time a trace books to the first problem's call."""
    method, call, _ = SOLVER_TABLE[solver]
    if method is None:
        return [x if isinstance(x, QlskitError) else
                iterative.SolveOutcome(x, 0, None, status="direct")
                for x in _each(lambda ps: call(ps, eps, control), probs)]
    out = []
    with iterative.batched(method, probs):
        for p in probs:
            try:
                out.append(call(p, eps, control))
            except QlskitError as exc:
                out.append(exc)
    return out


def _rel_error(x, xref):
    """||x - xref|| / ||xref||, or ||x|| when xref is zero."""
    nref = linalg.safe_norm(xref)
    return linalg.safe_norm(x - xref) / (nref if nref > 0 else 1.0)


def _each(fn, probs, *stacks):
    """fn(probs, *stacks), the list of its values on the group, or, when
    that raises, each member's own value (its row of each stack), or the
    QlskitError its own call raised."""
    try:
        return fn(probs, *stacks)
    except QlskitError as exc:
        if len(probs) == 1:
            return [exc]
        return [_each(fn, [p], *(s[i:i + 1] for s in stacks))[0]
                for i, p in enumerate(probs)]


def _records(solver, probs, refs, outcomes, wall, eps):
    """The records of one ``solve`` call on `probs`; `refs` holds each
    problem's (kappa, xref).  An error in place of an outcome or of the
    reference gives status "error".  The record stage runs once on the
    group's finite iterates: one stacked ``relative_backward_error`` and
    one ``forward_error_estimates`` call, whose time divided by the group
    size is ``analysis_time_ns``."""
    key = SOLVER_TABLE[solver][2]
    rels = [float("inf") if isinstance(o, QlskitError)
            or isinstance(xref, QlskitError) else _rel_error(o.x, xref)
            for o, (_, xref) in zip(outcomes, refs)]
    live = [i for i, rel in enumerate(rels) if np.isfinite(rel)]
    eta, est = [float("nan")] * len(probs), [float("nan")] * len(probs)
    t0 = time.perf_counter_ns()
    if live:
        ps, xs = [probs[i] for i in live], np.stack([outcomes[i].x for i in live])
        stages = [(eta, analysis.relative_backward_error)]
        if key is not None:
            stages.append((est, lambda ps, xs: [
                e[key] for e in analysis.forward_error_estimates(
                    ps, xs, eps, methods=(key,))]))
        for column, fn in stages:
            for i, value in zip(live, _each(fn, ps, xs)):
                column[i] = (float("nan") if isinstance(value, QlskitError)
                             else value)
    spent = (time.perf_counter_ns() - t0) // len(probs)
    out = []
    for i, (p, (kappa, _), o, rel) in enumerate(zip(probs, refs, outcomes, rels)):
        failed = isinstance(o, QlskitError)
        if np.isfinite(rel):
            status = "failed" if rel > FAILURE_THRESHOLD else "ok"
        else:
            status, rel = "error", float("inf")
        out.append(BenchRecord(
            problem_id=p.label, m=p.m, n=p.n, kappa=kappa, solver=solver,
            iterations=0 if failed else o.iterations, rel_error=rel,
            eta_bar=eta[i], estimate=est[i],
            residual_gap=None if failed else o.residual_gap,
            wall_time_ns=wall, status=status, analysis_time_ns=spent,
        ))
    return out


def run_suite(config):
    """One BenchRecord per (problem, solver), sorted for stable output.

    Solver by solver, the problems of each shape (m, n) go to one
    ``solve`` call, so a Krylov method solves them as one batch; each
    record's ``wall_time_ns`` is that call's wall time divided by its
    size.  A problem without x_exact is measured against its QR
    solution, and its records have status "error" when that fails.
    """
    if not isinstance(config, ExperimentConfig):
        config = parse_config(config)
    spec = CONFIG_SCHEMA["solvers"]  # a config built in code is checked too
    _check(list(config.solvers), spec.type, spec.bound, "config.solvers")
    probs = build_problems(config)
    refs = []
    for p in probs:
        kappa = float("inf")  # when sigma_min = 0
        with suppress(RankDeficient):
            kappa = float(p.kappa())
        ref = p.x_exact
        if ref is None:
            (ref,) = solve("QR", [p], config.eps, config.control())
            ref = ref if isinstance(ref, QlskitError) else ref.x
        refs.append((kappa, ref))
    groups = {}
    for i, p in enumerate(probs):
        groups.setdefault((p.m, p.n), []).append(i)
    records = []
    for solver in config.solvers:
        for members in groups.values():
            t0 = time.perf_counter_ns()
            outcomes = solve(solver, [probs[i] for i in members], config.eps,
                             config.control())
            wall = (time.perf_counter_ns() - t0) // len(members)
            records += _records(solver, [probs[i] for i in members],
                                [refs[i] for i in members], outcomes, wall,
                                config.eps)
    records.sort(key=lambda r: (r.problem_id, r.solver))
    return records


# ---------------------------------------------------------------------------
# Performance profiles
# ---------------------------------------------------------------------------

def performance_profile(records):
    """Dolan-More curves on relative error, one per solver present.

    Failed and errored runs count as never solving their problem; the
    per-problem reference is the best finite error any solver reached.
    """
    if not records:
        raise EmptyInput("no records to profile")
    prob_ids = sorted({r.problem_id for r in records})
    solvers = [s for s in SOLVERS
               if any(r.solver == s for r in records)]
    best = {}
    for r in records:
        if np.isfinite(r.rel_error):
            cur = best.get(r.problem_id)
            if cur is None or r.rel_error < cur:
                best[r.problem_id] = r.rel_error
    ratios = {}
    for r in records:
        ref = best.get(r.problem_id)
        if r.status != "ok" or ref is None:
            ratio = np.inf
        elif ref == 0.0:
            ratio = 1.0 if r.rel_error == 0.0 else np.inf
        else:
            ratio = r.rel_error / ref
        ratios[(r.problem_id, r.solver)] = ratio
    curves = []
    for s in solvers:
        rs = np.array([ratios.get((pid, s), np.inf) for pid in prob_ids])
        pts = [(float(tau), float(np.mean(rs <= tau)))
               for tau in PROFILE_TAUS]
        curves.append(ProfileCurve(solver=s, points=pts))
    return curves


# ---------------------------------------------------------------------------
# Record and curve output
# ---------------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _clean(value):
    if isinstance(value, float) and not np.isfinite(value):
        return None
    return value


def emit_records(records, path, format="csv"):
    """Write records to a path or a text stream; CSV floats round-trip."""
    if format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {format!r}")
    stream = hasattr(path, "write")
    with nullcontext(path) if stream else open(path, "w", newline="") as fh:
        if format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            writer.writerows(map(_fmt, _record_values(r)) for r in records)
            return
        objs = [dict(zip(_JSON_KEYS, map(_clean, _record_values(r)),
                         strict=True)) for r in records]
        json.dump(objs, fh, indent=2, allow_nan=False)
        fh.write("\n")


def load_records(path):
    """Read back a CSV produced by emit_records; an empty cell is None in
    a field whose default is None."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_COLUMNS):
            raise ConfigError(f"{path}: unexpected CSV header {header}")
        for row in reader:
            if len(row) != len(CSV_COLUMNS):
                raise ConfigError(f"{path}: bad column count {len(row)}")
            out.append(BenchRecord(*(
                None if cell == "" and f.default is None else f.type(cell)
                for f, cell in zip(fields(BenchRecord), row))))
    return out


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f")


def emit_profile_svg(curves, path):
    """Standalone SVG of the curves plus a sibling CSV of the points.

    Axes and ticks are plain <line> elements; each solver contributes
    exactly one <polyline>, so the element count mirrors the curve
    count.  The x axis is log10(tau) over [1, 1e16].
    """
    if not curves:
        raise EmptyInput("no curves to draw")
    width, height = 720.0, 480.0
    ml, mr, mt, mb = 60.0, 20.0, 20.0, 45.0
    pw, ph = width - ml - mr, height - mt - mb

    def xpos(tau):
        return ml + pw * np.log10(tau) / 16.0

    def ypos(frac):
        return mt + ph * (1.0 - frac)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" '
        'stroke="black"/>',
    ]
    for e in range(0, 17, 2):
        x = xpos(10.0 ** e)
        parts.append(f'<line x1="{x:.1f}" y1="{mt + ph}" x2="{x:.1f}" '
                     f'y2="{mt + ph + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{mt + ph + 20}" '
                     f'text-anchor="middle" font-size="11">1e{e}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = ypos(frac)
        parts.append(f'<line x1="{ml - 5}" y1="{y:.1f}" x2="{ml}" '
                     f'y2="{y:.1f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 9}" y="{y + 4:.1f}" '
                     f'text-anchor="end" font-size="11">{frac:g}</text>')
    parts.append(f'<text x="{ml + pw / 2:.0f}" y="{height - 8:.0f}" '
                 'text-anchor="middle" font-size="12">tau</text>')
    for i, curve in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(
            f"{xpos(tau):.2f},{ypos(frac):.2f}" for tau, frac in curve.points
        )
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 18.0 + 16.0 * i
        parts.append(f'<line x1="{ml + 12}" y1="{ly - 4:.1f}" '
                     f'x2="{ml + 34}" y2="{ly - 4:.1f}" stroke="{color}" '
                     'stroke-width="1.5"/>')
        parts.append(f'<text x="{ml + 40}" y="{ly:.1f}" font-size="12">'
                     f'{curve.solver}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
    sibling = (str(path)[:-4] if str(path).endswith(".svg")
               else str(path)) + ".csv"
    with open(sibling, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["solver", "tau", "fraction"])
        for curve in curves:
            for tau, frac in curve.points:
                writer.writerow([curve.solver, repr(tau), repr(frac)])


def report_table(records):
    """Aligned error/estimate table over the iterative methods.

    One line per problem: kappa, kappa^2 times the CGLSI iterate's
    relative backward error, then measured error and estimate for CG,
    CGLSI, CGLSEPS.  Requires those three solvers per problem.
    """
    if not records:
        raise MissingConfiguration("no records")
    by_problem = {}  # in order of first appearance
    for r in records:
        by_problem.setdefault(r.problem_id, {})[r.solver] = r
    needed = ("CG", "CGLSI", "CGLSEPS")
    header = ("problem", "kappa", "k2*eta", "E_CG", "est_CG", "E_CGLSI",
              "est_CGLSI", "E_CGLSEPS", "est_CGLSEPS")
    rows = [header]
    for pid, group in by_problem.items():
        for s in needed:
            if s not in group:
                raise MissingConfiguration(f"problem {pid} lacks {s}")
        cg, ci, ce = (group[s] for s in needed)
        k2eta = cg.kappa ** 2 * ci.eta_bar
        rows.append((
            pid, f"{cg.kappa:.0e}", f"{k2eta:.0e}",
            f"{cg.rel_error:.0e}", f"{cg.estimate:.0e}",
            f"{ci.rel_error:.0e}", f"{ci.estimate:.0e}",
            f"{ce.rel_error:.0e}", f"{ce.estimate:.0e}",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
