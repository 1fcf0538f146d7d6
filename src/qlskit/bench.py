"""Experiment harness: suites, records, performance profiles, reports.

An experiment is a single JSON document:

    {
      "seed": 1729,
      "eps": 7.105427357601002e-15,
      "tol": 1e-30,
      "maxIterations": 4000,
      "patience": 200,
      "solvers": ["CG", "CGLSI", "CGLSEPS"],
      "output": "records.csv",
      "families": [
        {"type": "c1", "m": 40, "n": 20, "a": 2.0, "alpha": 1e-10,
         "kind": 1, "seed": 100, "cseed": [42, 0], "label": "row1"},
        {"type": "c2", "up": 100.0, "dw": 1e-4, "alpha": 1e-4},
        {"type": "set_p"},
        {"type": "file", "path": "problems/p00.qls"}
      ]
    }

Everything except "families" is optional.  "c1"/"c2" build one
synthetic problem each (c = alpha * uniform draw seeded by "cseed");
"set_p" expands to the full 40-problem benchmark set; "file" loads a
saved problem.  ``run_suite`` produces one record per (problem,
solver), deterministic apart from wall clock times.
"""

import csv
import json
import os
import time
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


def check_solvers(names, where):
    """Return `names` as a tuple; ConfigError naming `where` on an unknown one."""
    for name in names:
        if name not in SOLVER_TABLE:
            raise ConfigError(
                f"{where}: unknown solver {name!r}; "
                f"valid names: {', '.join(SOLVERS)}"
            )
    return tuple(names)


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


@dataclass
class ExperimentConfig:
    families: list
    solvers: tuple = SOLVERS
    seed: int = problems.DEFAULT_SET_SEED
    eps: float = problems.DEFAULT_EPS
    tol: float = None
    max_iterations: int = None
    patience: int = None
    output: str = None

    def control(self):
        return iterative.IterationControl(
            tol=self.tol, max_iterations=self.max_iterations,
            patience=self.patience,
        )


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_TOP_KEYS = {"families", "solvers", "seed", "eps", "tol", "maxIterations",
             "patience", "output"}
_FAMILY_KEYS = {
    "c1": {"type", "m", "n", "a", "alpha", "kind", "seed", "cseed", "label"},
    "c2": {"type", "m", "n", "up", "dw", "alpha", "kind", "seed", "cseed",
           "label"},
    "set_p": {"type", "m", "n", "seed"},
    "file": {"type", "path", "verify"},
}
# Default (m, n) of the generated families.
_SHAPE = {"c1": (40, 20), "c2": (40, 20), "set_p": (100, 50)}


def _want(obj, key, kinds, where, required=False, positive=False):
    if key not in obj:
        if required:
            raise ConfigError(f"{where}.{key}: required field is missing")
        return None
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, kinds):
        raise ConfigError(
            f"{where}.{key}: expected {kinds[0].__name__}, "
            f"got {type(val).__name__}"
        )
    if positive and not val > 0:
        raise ConfigError(f"{where}.{key}: must be positive, got {val!r}")
    return val


def read_config(source):
    """The config object of a dict, JSON text or a str/PathLike path."""
    # A config document is a JSON object, so a string is JSON text when
    # its first non-blank character is "{" and a path otherwise.
    if isinstance(source, dict):
        return source
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    elif isinstance(source, (str, os.PathLike)):
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"config: cannot read {source}: {exc}")
    else:
        raise ConfigError(f"config: expected a dict, JSON text or a path, "
                          f"got {type(source).__name__}")
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
    """Validate a config document (dict, JSON text, or str/PathLike path).

    Raises ConfigError naming the offending field path, e.g.
    "families[2].up: must be positive", and for any other kind of source.
    """
    obj = read_config(source)
    extra = set(obj) - _TOP_KEYS
    if extra:
        raise ConfigError(f"config.{sorted(extra)[0]}: unknown field")
    fams = obj.get("families")
    if not isinstance(fams, list) or not fams:
        raise ConfigError("config.families: must be a non-empty list")
    for idx, fam in enumerate(fams):
        where = f"families[{idx}]"
        if not isinstance(fam, dict):
            raise ConfigError(f"{where}: must be an object")
        ftype = fam.get("type")
        if ftype not in _FAMILY_KEYS:
            raise ConfigError(
                f"{where}.type: expected one of {sorted(_FAMILY_KEYS)}, "
                f"got {ftype!r}"
            )
        extra = set(fam) - _FAMILY_KEYS[ftype]
        if extra:
            raise ConfigError(f"{where}.{sorted(extra)[0]}: unknown field "
                              f"for type {ftype!r}")
        _want(fam, "m", (int,), where, positive=True)
        _want(fam, "n", (int,), where, positive=True)
        if ftype in _SHAPE:
            m, n = fam.get("m", _SHAPE[ftype][0]), fam.get("n", _SHAPE[ftype][1])
            if m < n:
                raise ConfigError(f"{where}.m: must be at least n = {n}, got {m}")
            if ftype == "set_p" and n < 2:
                raise ConfigError(f"{where}.n: set_p needs n >= 2, got {n}")
        if ftype == "c1":
            _want(fam, "a", (float, int), where, required=True, positive=True)
        elif ftype == "c2":
            up = _want(fam, "up", (float, int), where, required=True,
                       positive=True)
            dw = _want(fam, "dw", (float, int), where, required=True,
                       positive=True)
            if dw >= up:
                raise ConfigError(f"{where}.dw: must be less than up")
        elif ftype == "file":
            _want(fam, "path", (str,), where, required=True)
            if not isinstance(fam.get("verify", True), bool):
                raise ConfigError(f"{where}.verify: expected bool, "
                                  f"got {type(fam['verify']).__name__}")
        if ftype in ("c1", "c2"):
            _want(fam, "alpha", (float, int), where)
            kind = _want(fam, "kind", (int,), where)
            if kind is not None and not 1 <= kind <= 6:
                raise ConfigError(f"{where}.kind: must be in 1..6")
            _want(fam, "seed", (int,), where)
            cseed = fam.get("cseed")
            if cseed is not None:
                if (not isinstance(cseed, list) or not cseed
                        or not all(isinstance(v, int) and not isinstance(v, bool)
                                   for v in cseed)):
                    raise ConfigError(
                        f"{where}.cseed: must be a non-empty list of ints")
            _want(fam, "label", (str,), where)
    solvers = obj.get("solvers", list(SOLVERS))
    if not isinstance(solvers, list) or not solvers:
        raise ConfigError("config.solvers: must be a non-empty list")
    solvers = check_solvers(solvers, "config.solvers")
    seed = _want(obj, "seed", (int,), "config")
    eps = _want(obj, "eps", (float, int), "config")
    if eps is not None:
        try:
            problems.eps_weight(eps)
        except InvalidParameter as exc:
            raise ConfigError(f"config.eps: {exc}") from None
    tol = _want(obj, "tol", (float, int), "config", positive=True)
    maxit = _want(obj, "maxIterations", (int,), "config", positive=True)
    patience = _want(obj, "patience", (int,), "config", positive=True)
    output = _want(obj, "output", (str,), "config")
    return ExperimentConfig(
        families=fams,
        solvers=solvers,
        seed=problems.DEFAULT_SET_SEED if seed is None else seed,
        eps=problems.DEFAULT_EPS if eps is None else float(eps),
        tol=None if tol is None else float(tol),
        max_iterations=maxit,
        patience=patience,
        output=output,
    )


def build_problems(config):
    """Materialize the config's families into problem instances.

    The "file" families are read first, and the singular values of each
    same-shape group of them come from one stacked `linalg.svd` call.
    Construction checks and generated families then follow in config
    order, so the first family that fails raises what it raises alone.
    Only then do two problems sharing a label raise ConfigError naming
    both families: records and problem files are keyed by the label.
    """
    loaded = {}
    for idx, fam in enumerate(config.families):
        if fam["type"] == "file":
            try:
                loaded[idx] = problems.load_problem(fam["path"], verify=False)
            except (OSError, ValueError):
                break  # read again below, in config order, and raised
    groups = {}
    for p in loaded.values():
        groups.setdefault(p.a.shape, []).append(p)
    for group in groups.values():
        for p, sigma in zip(group, linalg.svd([p.a for p in group])):
            p.seed_spectrum(sigma)
    built = [(idx, p) for idx, fam in enumerate(config.families)
             for p in _family_problems(config, idx, fam, loaded.get(idx))]
    first = {}
    for idx, p in built:
        if first.setdefault(p.label, idx) != idx:
            raise ConfigError(
                f"families[{first[p.label]}] and families[{idx}]: both "
                f"give a problem labelled {p.label!r}")
    return [p for _, p in built]


def _family_problems(config, idx, fam, loaded):
    """The problems of family `idx`; `loaded` is its file's problem or None."""
    ftype = fam["type"]
    if ftype == "file":
        p = loaded or problems.load_problem(fam["path"], verify=False)
        if fam.get("verify", True):
            p.verify_construction()
        return [p]
    m = fam.get("m", _SHAPE[ftype][0])
    n = fam.get("n", _SHAPE[ftype][1])
    if ftype == "set_p":
        return problems.generate_problem_set_p(
            seed=fam.get("seed", config.seed), m=m, n=n)
    if ftype == "c1":
        sigma = problems.sigma_c1(n, float(fam["a"]))
    else:
        sigma = problems.sigma_c2(n, float(fam["dw"]), float(fam["up"]))
    alpha = float(fam.get("alpha", 1.0))
    cseed = fam.get("cseed", [config.seed, idx])
    rng = np.random.default_rng(np.random.SeedSequence(list(cseed)))
    c = alpha * rng.random(n)
    return [problems.assemble_problem(
        m, n, sigma, c,
        kind=fam.get("kind", 1),
        seed=fam.get("seed", config.seed * 100 + idx),
        label=fam.get("label", f"{ftype}-{idx:02d}"),
    )]


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
    solvers = check_solvers(config.solvers, "config.solvers")
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
    for solver in solvers:
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
