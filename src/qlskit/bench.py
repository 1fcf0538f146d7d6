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
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import analysis, direct, iterative, problems
from .errors import (
    ConfigError,
    EmptyInput,
    MissingConfiguration,
    QlskitError,
)


# ---------------------------------------------------------------------------
# Solver table
# ---------------------------------------------------------------------------

def _krylov(o):
    return o.x, o.iterations, o.status, None


def _direct(x):
    return x, 0, "direct", None


def _cgls_i(p, eps, control):
    o = iterative.cgls_i(p, control=control)
    gaps = o.true_residual_gap_history
    # Zero iterations means x0 was returned; its recurred d is the
    # exactly-computed b - A x0, so the gap is zero.
    return o.x, o.iterations, o.status, float(gaps[-1]) if len(gaps) else 0.0


# The one solver table: name -> (run, estimate key).  run(p, eps, control)
# returns (x, iterations, status, final CGLSI gap or None); the estimate
# key names the forward-error estimate of analysis.forward_error_estimates
# that fits the solver.  Solvers are looked up through their modules at
# call time.
SOLVER_TABLE = {
    "CG": (lambda p, eps, control: _krylov(
        iterative.cg_base(p, control=control)), "cg"),
    "CGLSI": (_cgls_i, "cglsi"),
    "CGLSEPS": (lambda p, eps, control: _krylov(
        iterative.cgls_eps(p, eps, control=control)), "cglseps"),
    "MINRES": (lambda p, eps, control: _krylov(
        iterative.minres_augmented(p, control=control)), None),
    "QR": (lambda p, eps, control: _direct(direct.solve_qr(p)), None),
    "QREPS": (lambda p, eps, control: _direct(direct.solve_qr_eps(p, eps)),
              None),
    "SM": (lambda p, eps, control: _direct(direct.solve_sm(p, eps)), None),
    "AUG": (lambda p, eps, control: _direct(direct.solve_aug(p)), None),
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

CSV_COLUMNS = (
    "problem_id", "m", "n", "kappa", "solver", "iterations", "rel_error",
    "eta_bar", "estimate", "residual_gap", "wall_time_ns", "status",
)

PROFILE_TAUS = np.logspace(0.0, 16.0, 81)


@dataclass
class BenchRecord:
    """One (problem, solver) outcome.

    ``eta_bar`` is the data-relative linearized backward error of the
    returned iterate, always judged against the base problem so the
    column is comparable across solvers.  ``estimate`` carries the
    forward-error estimate for CG / CGLSI / CGLSEPS and NaN for the
    other solvers.  ``residual_gap`` is CGLSI's final recurred-vs-true
    residual distance, None elsewhere.
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


def _read_config(source):
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
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config: invalid JSON at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}"
        )


def parse_config(source):
    """Validate a config document (dict, JSON text, or str/PathLike path).

    Raises ConfigError naming the offending field path, e.g.
    "families[2].up: must be positive", and for any other kind of source.
    """
    obj = _read_config(source)
    if not isinstance(obj, dict):
        raise ConfigError("config: top level must be an object")
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
            if dw > up:
                raise ConfigError(f"{where}.dw: must not exceed up")
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
    eps = _want(obj, "eps", (float, int), "config", positive=True)
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
    """Materialize the config's families into problem instances."""
    out = []
    for idx, fam in enumerate(config.families):
        ftype = fam["type"]
        if ftype == "file":
            out.append(problems.load_problem(
                fam["path"], verify=fam.get("verify", True)))
            continue
        m = fam.get("m", _SHAPE[ftype][0])
        n = fam.get("n", _SHAPE[ftype][1])
        if ftype == "set_p":
            out.extend(problems.generate_problem_set_p(
                seed=fam.get("seed", config.seed), m=m, n=n))
            continue
        if ftype == "c1":
            sigma = problems.sigma_c1(n, float(fam["a"]))
        else:
            sigma = problems.sigma_c2(n, float(fam["dw"]), float(fam["up"]))
        alpha = float(fam.get("alpha", 1.0))
        cseed = fam.get("cseed", [config.seed, idx])
        rng = np.random.default_rng(np.random.SeedSequence(list(cseed)))
        c = alpha * rng.random(n)
        out.append(problems.assemble_problem(
            m, n, sigma, c,
            kind=fam.get("kind", 1),
            seed=fam.get("seed", config.seed * 100 + idx),
            label=fam.get("label", f"{ftype}-{idx:02d}"),
        ))
    return out


# ---------------------------------------------------------------------------
# Suite runner
# ---------------------------------------------------------------------------

def _estimate_for(key, p, x, eps):
    if key is None:
        return float("nan")
    try:
        return analysis.forward_error_estimates(
            p, x, eps, methods=(key,))[key]
    except QlskitError:
        return float("nan")


def run_suite(config):
    """One BenchRecord per (problem, solver), sorted for stable output."""
    if not isinstance(config, ExperimentConfig):
        config = parse_config(config)
    solvers = check_solvers(config.solvers, "config.solvers")
    probs = build_problems(config)
    records = []
    for p in probs:
        xref = p.x_exact if p.x_exact is not None else direct.solve_qr(p)
        nref = np.linalg.norm(xref)
        for solver in solvers:
            run, key = SOLVER_TABLE[solver]
            t0 = time.perf_counter_ns()
            try:
                x, iterations, _, gap = run(p, config.eps, config.control())
                rel = float(np.linalg.norm(x - xref) /
                            (nref if nref > 0 else 1.0))
            except QlskitError:
                x, iterations, gap, rel = None, 0, None, float("inf")
            wall = time.perf_counter_ns() - t0
            if x is None or not np.isfinite(rel):
                status, rel = "error", float("inf")
                eta = est = float("nan")
            else:
                status = "failed" if rel > FAILURE_THRESHOLD else "ok"
                try:
                    eta = analysis.relative_backward_error(p, x)
                except QlskitError:
                    eta = float("nan")
                est = _estimate_for(key, p, x, config.eps)
            records.append(BenchRecord(
                problem_id=p.label, m=p.m, n=p.n, kappa=float(p.kappa()),
                solver=solver, iterations=iterations, rel_error=rel,
                eta_bar=eta, estimate=est, residual_gap=gap,
                wall_time_ns=wall, status=status,
            ))
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


def emit_records(records, path, format="csv"):
    """Write records to a path or a text stream; CSV floats round-trip."""
    if format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {format!r}")
    stream = hasattr(path, "write")
    with nullcontext(path) if stream else open(path, "w", newline="") as fh:
        if format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in records:
                writer.writerow([
                    r.problem_id, r.m, r.n, _fmt(r.kappa), r.solver,
                    r.iterations, _fmt(r.rel_error), _fmt(r.eta_bar),
                    _fmt(r.estimate), _fmt(r.residual_gap),
                    r.wall_time_ns, r.status,
                ])
            return

        def clean(v):
            if isinstance(v, float) and not np.isfinite(v):
                return None
            return v
        objs = [{
            "problemId": r.problem_id, "m": r.m, "n": r.n,
            "kappaA": clean(r.kappa), "solver": r.solver,
            "iterations": r.iterations, "relError": clean(r.rel_error),
            "etaBar": clean(r.eta_bar), "estimate": clean(r.estimate),
            "residualGapFinal": clean(r.residual_gap),
            "wallTimeNanos": r.wall_time_ns, "status": r.status,
        } for r in records]
        json.dump(objs, fh, indent=2, allow_nan=False)
        fh.write("\n")


def load_records(path):
    """Read back a CSV produced by emit_records."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(CSV_COLUMNS):
            raise ConfigError(f"{path}: unexpected CSV header {header}")
        for row in reader:
            if len(row) != len(CSV_COLUMNS):
                raise ConfigError(f"{path}: bad column count {len(row)}")
            out.append(BenchRecord(
                problem_id=row[0], m=int(row[1]), n=int(row[2]),
                kappa=float(row[3]), solver=row[4], iterations=int(row[5]),
                rel_error=float(row[6]), eta_bar=float(row[7]),
                estimate=float(row[8]),
                residual_gap=float(row[9]) if row[9] else None,
                wall_time_ns=int(row[10]), status=row[11],
            ))
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
    by_problem = {}
    order = []
    for r in records:
        if r.problem_id not in by_problem:
            order.append(r.problem_id)
            by_problem[r.problem_id] = {}
        by_problem[r.problem_id][r.solver] = r
    needed = ("CG", "CGLSI", "CGLSEPS")
    header = ("problem", "kappa", "k2*eta", "E_CG", "est_CG", "E_CGLSI",
              "est_CGLSI", "E_CGLSEPS", "est_CGLSEPS")
    rows = [header]
    for pid in order:
        group = by_problem[pid]
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


def trace_residual_gap(p, ctrl=None):
    """Per-iteration recurred-vs-true residual distance of CGLSI."""
    outcome = iterative.cgls_i(p, control=ctrl)
    return [float(g) for g in outcome.true_residual_gap_history]
