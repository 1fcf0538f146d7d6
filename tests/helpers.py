"""Shared oracles for the test suite.

The rational helpers run Gaussian elimination over ``fractions.Fraction``
so the reference solutions are exact: binary64 inputs convert to
fractions without rounding, and eliminating over them keeps every
intermediate exact.  Differences must be taken in fractions too; the
regularized solution sits within ~eps^2 of the base one, far below
float spacing.
"""

from fractions import Fraction
import math
import os
import pathlib
import subprocess
import sys

import numpy as np

from qlskit import analysis, bench, direct, linalg as la, problems

ROOT = pathlib.Path(__file__).resolve().parents[1]

# OpenBLAS cores whose kernels the stacked-equals-single checks run under.
CORES = ("Haswell", "SkylakeX", "Sandybridge", "Prescott")


def run_under_core(core, code, timeout=120):
    """Stdout of `code` run by a fresh interpreter under OpenBLAS core
    `core`, on one BLAS thread, with RuntimeWarnings as errors.  Skips
    when the core cannot run here (the child dies on a signal)."""
    # Imported here: the children import this module, and pytest would
    # add to the start-up of every one of them.
    import pytest

    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "tests")]))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                          "-c", code], env=env, capture_output=True,
                         text=True, timeout=timeout)
    if run.returncode < 0:
        pytest.skip(f"{core} kernel cannot run here (signal {-run.returncode})")
    assert run.returncode == 0, run.stderr
    return run.stdout


def frac_matrix(a):
    return [[Fraction(float(v)) for v in row] for row in np.atleast_2d(a)]


def frac_vector(y):
    return [Fraction(float(v)) for v in np.atleast_1d(y)]


def frac_solve(m, rhs):
    """Solve a square rational system by elimination with partial pivoting."""
    n = len(m)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(m)]
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(aug[i][k]))
        if aug[piv][k] == 0:
            raise ZeroDivisionError("singular rational system")
        aug[k], aug[piv] = aug[piv], aug[k]
        for i in range(k + 1, n):
            f = aug[i][k] / aug[k][k]
            for j in range(k, n + 1):
                aug[i][j] -= f * aug[k][j]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = aug[i][n] - sum(aug[i][j] * x[j] for j in range(i + 1, n))
        x[i] = s / aug[i][i]
    return x


def gram_system(a, b, c, eps=None):
    """Exact Gram system of A^T A x = A^T b + c, optionally eps-shifted."""
    af = frac_matrix(a)
    m, n = len(af), len(af[0])
    bf = frac_vector(b)
    cf = frac_vector(c)
    g = [[sum(af[k][i] * af[k][j] for k in range(m)) for j in range(n)]
         for i in range(n)]
    if eps is not None:
        e2 = Fraction(eps) ** 2
        g = [[g[i][j] + e2 * cf[i] * cf[j] for j in range(n)] for i in range(n)]
    rhs = [sum(af[k][i] * bf[k] for k in range(m)) + cf[i] for i in range(n)]
    return g, rhs


def rational_solution(a, b, c, eps=None):
    return frac_solve(*gram_system(a, b, c, eps=eps))


def frac_norm(v):
    return math.sqrt(float(sum(t * t for t in v)))


def frac_diff_norm(x, y):
    return frac_norm([x[i] - y[i] for i in range(len(x))])


def commutation_matrix(m, n):
    """K with K vec(Z) = vec(Z^T) for m x n arguments, column-major vec."""
    k = np.zeros((m * n, m * n))
    for i in range(m):
        for j in range(n):
            k[i * n + j, j * m + i] = 1.0
    return k


def random_integer_problem(rng, m, n, kappa_max=None, span=9):
    """Full-rank integer problem with entries in [-span, span]."""
    while True:
        a = rng.integers(-span, span + 1, size=(m, n)).astype(float)
        if np.linalg.matrix_rank(a) < n:
            continue
        s = np.linalg.svd(a, compute_uv=False)
        if kappa_max is not None and s[0] / s[-1] > kappa_max:
            continue
        b = rng.integers(-span, span + 1, size=m).astype(float)
        c = rng.integers(-span, span + 1, size=n).astype(float)
        return problems.QlsProblem(a=a, b=b, c=c, x_exact=None, label="int")


def identity_problem(b=(1.0, 0.0), c=(0.0, 0.0)):
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = b.shape[0]
    return problems.QlsProblem(
        a=np.eye(n), b=b, c=c, x_exact=b + c, label="identity"
    )


def svd_stacks():
    """Named (B, m, n) stacks for the stacked SVD.

    "graded": 12 x 6 matrices, in groups of an ungraded one, one with
    columns graded to 1e-15, one with rows graded to 1e-15 and one graded
    to 1e-8 on both sides, whose row sorts differ from matrix to matrix.
    "edge": 3 x 3 matrices that are zero, have zero columns, or have
    columns whose squared norms underflow, and a plain one alone and
    scaled by 2^-560 and 2^660, each needing its own scaling.  "wide":
    3 x 5 matrices, handled through their transposes.  "set_p_size":
    100 x 50 matrices with geometric spectra of kappa 1 to 1e10.
    """
    rng = np.random.default_rng(73)
    graded = []
    for _ in range(2):
        b = rng.standard_normal((12, 6))
        rows = rng.permutation(10.0 ** -np.linspace(0, 15, 12))[:, None]
        left = rng.permutation(10.0 ** -np.linspace(0, 8, 12))[:, None]
        right = rng.permutation(10.0 ** -np.linspace(0, 8, 6))
        graded += [b, b * rng.permutation(10.0 ** -np.arange(0, 16, 3)),
                   rows * b, left * b * right]
    t, s = 1.03390001e-109, 1.30448619e-153
    plain = rng.standard_normal((3, 3))
    edge = [np.zeros((3, 3)),
            [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
            [[0.0, t, t], [t, t, 1.0], [t, t, t]],
            [[128.0, s, s], [s, 0.0, s], [s, s, s]],
            plain, np.ldexp(plain, -560), np.ldexp(plain, 660)]
    big = []
    for kappa in (1.0, 1e3, 1e7, 1e10):
        u = np.linalg.qr(rng.standard_normal((100, 50)))[0]
        v = np.linalg.qr(rng.standard_normal((50, 50)))[0]
        big.append((u * kappa ** -np.linspace(0.0, 1.0, 50)) @ v.T)
    return {"graded": np.array(graded), "edge": np.array(edge),
            "wide": rng.standard_normal((4, 3, 5)), "set_p_size": np.array(big)}


def svd_stack_mismatches():
    """Names of the `svd_stacks` whose stacked la.svd is not bitwise the
    per-matrix calls."""
    return [name for name, stack in svd_stacks().items()
            if not all(np.array_equal(got, la.svd(a))
                       for got, a in zip(la.svd(stack), stack))]


def analysis_groups():
    """Two same-shape groups, each with a (B, n) stack of iterates: the
    ten problems of configs/table.json (40 x 20) and set_p p00, p09, p19,
    p29 and p39 of seed 1729 (100 x 50, kappa 1 to 1e10).  Each iterate is
    x_exact perturbed by a relative 1e-12 to 1e-6."""
    table = bench.build_problems(
        bench.parse_config(str(ROOT / "configs" / "table.json")))
    set_p = problems.generate_problem_set_p(seed=1729)
    groups = {"table": table, "set_p": [set_p[i] for i in (0, 9, 19, 29, 39)]}
    rng = np.random.default_rng(29)
    out = {}
    for name, probs in groups.items():
        scale = np.logspace(-12, -6, len(probs))[:, None]
        xs = np.stack([p.x_exact for p in probs])
        out[name] = (probs, xs * (1.0 + scale * rng.standard_normal(xs.shape)))
    return out


def analysis_stack_mismatches(eps=2.0 ** -47):
    """(group, what, index) wherever ``relative_backward_error`` or
    ``forward_error_estimates`` (all methods, or one key at a time) is
    not bitwise the one-problem formulas of ``analysis_reference``: in
    B = 1 calls, in one call on the group, and with the group run in
    chunks of two problems."""
    import analysis_reference as ref

    bad = []
    whole = analysis.STACK_BYTES
    for name, (probs, xs) in analysis_groups().items():
        want = {"eta": [ref.relative_backward_error(p, x)
                        for p, x in zip(probs, xs)]}
        est = [ref.forward_error_estimates(p, x, eps) for p, x in zip(probs, xs)]
        for key in ("cg", "cglsi", "cglseps"):
            want[key] = want[key + " of all"] = [e[key] for e in est]
        calls = {"single": lambda fn, *args, **kw: [
            fn(p, x, *args, **kw) for p, x in zip(probs, xs)]}
        calls["stack"] = calls["chunks"] = (
            lambda fn, *args, **kw: fn(probs, xs, *args, **kw))
        m, n = probs[0].a.shape
        for label, call in calls.items():
            if label == "chunks":
                analysis.STACK_BYTES = 2 * 8 * (2 * m + 2 * n + 1) * n
            try:
                got = {"eta": call(analysis.relative_backward_error)}
                full = call(analysis.forward_error_estimates, eps)
                for key in ("cg", "cglsi", "cglseps"):
                    one = call(analysis.forward_error_estimates, eps,
                               methods=(key,))
                    got[key] = [e[key] for e in one]
                    got[key + " of all"] = [e[key] for e in full]
            finally:
                analysis.STACK_BYTES = whole
            bad += [(name, f"{label} {what}", i)
                    for what, vals in got.items()
                    for i, (g, w) in enumerate(zip(vals, want[what]))
                    if g.hex() != w.hex()]
    return bad


def direct_stack_mismatches():
    """(group, solver, how, index) wherever a group call of a direct
    solver, on a group of ``analysis_groups`` whole (in stacks of
    ``linalg.STACK_CHUNK``) or in slices of two problems, does not give a
    problem the bits of its own call."""
    bad = []
    for name, (probs, _) in analysis_groups().items():
        for solve in (direct.solve_qr, direct.solve_qr_eps, direct.solve_sm,
                      direct.solve_aug):
            want = [solve(p) for p in probs]
            calls = {"whole": solve(probs),
                     "pairs": [x for lo in range(0, len(probs), 2)
                               for x in solve(probs[lo:lo + 2])]}
            bad += [(name, solve.__name__, how, i)
                    for how, xs in calls.items()
                    for i, (x, w) in enumerate(zip(xs, want, strict=True))
                    if not np.array_equal(x, w)]
    return bad
