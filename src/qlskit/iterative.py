"""Krylov solvers for A^T A x = A^T b + c: ``cg_base``, ``cgls``,
``cgls_i``, ``cgls_eps`` and ``minres_augmented``.

``solve_batch`` runs one of them on problems of one shape at once: A is
stacked as (B, m, n), vectors as (B, k, 1), inner products taken as
(B, 1, k) @ (B, k, 1).  Each problem meets the BLAS calls it would meet
alone, in the same order, so its outcome is bitwise that of a B = 1
call, which is what the single-problem functions make; inside a
``batched`` block they return their problem's share of one batch.  A
step generator (``_cg_steps``, ``_cgls_steps``, ``_minres_steps``)
advances every active problem one iteration; ``_drive`` holds the stop
rule and each best iterate as arrays of the active problems, copies an
iterate when its best index moves and drops stopped problems from its
own and the generator's arrays.  The step vectors are
``linalg.aligned_stack``s, and ``_take`` keeps them so: some BLAS kernels
sum a vector that starts 8 bytes off a 16-byte boundary in another order,
so each problem's vectors keep its own call's alignment whatever their
length.  The data, the eps system too, comes stacked and scaled in range
by powers of two (exact) by ``problems.Stack``, as the direct solvers
take it.

A run stops as "converged" when the recurred residual falls below
``tol`` (default 100 u) times its initial value, "stalled" after
``patience`` iterations without a new best norm (default 50), "diverged"
when the norm turns nonfinite or exceeds ``DIVERGENCE_FACTOR`` times
its smallest value so far, "max_iterations" at ``max_iterations`` (default
10 n), and "breakdown" on a zero-curvature step.  Past the attainable
floor the iterate random-walks, so the x returned is the iterate of
smallest recurred norm, and histories stop there.
"""

import contextlib
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import linalg as la
from .errors import DimensionMismatch, InvalidParameter, QlskitError
from .problems import DEFAULT_EPS, Stack, eps_weight

DEFAULT_TOL = 100.0 * la.U

# Iterations allowed without improving on the best residual norm so far.
STALL_PATIENCE = 50

# Past its floor the recurred residual of the re-forming solvers grows
# geometrically; a norm this far above the smallest one so far (or a
# nonfinite one) cannot be a stagnation plateau, and the run never comes
# back below that best norm to change the iterate it returns, so it stops
# there instead of wandering until the overflow threshold.
DIVERGENCE_FACTOR = 1e13
_BIG = np.finfo(float).max

STATUSES = ("converged", "stalled", "diverged", "max_iterations", "breakdown")


@dataclass
class IterationControl:
    """Stopping parameters; None fields take solver defaults."""

    tol: float = None
    max_iterations: int = None
    x0: np.ndarray = None
    patience: int = None

    def resolve(self, n):
        tol = DEFAULT_TOL if self.tol is None else float(self.tol)
        maxit = 10 * n if self.max_iterations is None else int(self.max_iterations)
        patience = STALL_PATIENCE if self.patience is None else int(self.patience)
        if not tol > 0.0:
            raise InvalidParameter("tol must be positive")
        if maxit < 1:
            raise InvalidParameter("max_iterations must be >= 1")
        if patience < 1:
            raise InvalidParameter("patience must be >= 1")
        if self.x0 is None:
            x0 = np.zeros(n)
        else:
            x0 = la.as_vector(self.x0, "x0").copy()
            if x0.shape[0] != n:
                raise DimensionMismatch("x0 length does not match column count")
        return tol, maxit, x0, patience


@dataclass
class SolveOutcome:
    """Result of an iterative solve: ``x`` is the iterate of smallest
    recurred residual norm and ``iterations`` its index; the histories hold
    one entry per iteration up to it (entry k-1 after k).  ``status`` is
    one of STATUSES, ``residual_gap`` CGLSI's gap at x (0 at x0) and
    ``iterations_run`` the number of steps the run took, the one that
    broke down included."""

    x: np.ndarray
    iterations: int
    residual_norm_history: np.ndarray
    true_residual_gap_history: np.ndarray = None
    status: str = "converged"
    residual_gap: float = None
    iterations_run: int = 0


def _aligned(v):
    """A copy of stack `v` in a ``linalg.aligned_stack``."""
    out = la.aligned_stack(*v.shape)
    np.copyto(out, v)
    return out


def _take(keep, *arrays):
    """Rows `keep` of each stack (None stays None), in aligned stacks.
    Mode "clip" (`keep` holds valid rows only) lets numpy write straight
    into them; a buffered take would add a copy of A to the peak memory."""
    return [v if v is None else np.take(
        v, keep, axis=0, mode="clip",
        out=la.aligned_stack(keep.size, *v.shape[1:])) for v in arrays]


def _drive(steps, count, tol, maxit, patience, history):
    """Run stacked steps under the stop rule; keep each best iterate.

    `steps` yields (series, broke, saved): recurred norms (a gap may
    follow), zero-curvature marks and the arrays kept at the best iterate
    (x first); it is sent the rows still running, or None.  Returns, per
    problem, the saved arrays at the best iterate, its index, the status
    code, the steps run and, with `history`, the histories."""
    series, _, saved = next(steps)
    norm = series[0].ravel()
    # Per active problem: global index, best norm, its index and iterate,
    # and limits.  A run goes on while threshold < norm <= ceiling; the
    # ceiling follows the best norm, capped at the largest float, so an
    # infinite norm is out of range.  A problem's best iterate and index
    # and its step count go out when it stops.
    idx, best, last = np.arange(count), norm.copy(), np.zeros(count, int)
    threshold = tol * norm
    ceiling = np.minimum(DIVERGENCE_FACTOR * norm, _BIG)
    kept = [s.copy() for s in saved]
    out = [s.copy() for s in saved]
    best_k, codes, runs = (np.zeros(count, int) for _ in range(3))
    logs = [[tuple(v.ravel()[i] for v in series)] for i in range(count)]
    # A zero initial residual (zero right-hand side or exact x0) is solved.
    codes[norm == 0.0] = 1
    keep = None if np.count_nonzero(norm) == count else np.flatnonzero(norm)
    # No run stalls before step `deadline`: the earliest last + patience.
    k, deadline = 0, patience
    while keep is None or keep.size:
        if keep is not None:
            idx, best, last, threshold, ceiling, *kept = (
                v[keep] for v in (idx, best, last, threshold, ceiling, *kept))
        series, broke, saved = steps.send(keep)
        k, keep = k + 1, None
        norm, ok = series[0].ravel(), ~broke.ravel()
        up = (norm < best) & ok
        if np.count_nonzero(up):
            np.copyto(best, norm, where=up)
            np.copyto(last, k, where=up)
            np.minimum(DIVERGENCE_FACTOR * best, _BIG, out=ceiling)
            for dst, src in zip(kept, saved):
                np.copyto(dst, src, where=up[:, None, None])
        if history:
            rows = [v.ravel() for v in series]
            for j in np.flatnonzero(ok):
                logs[idx[j]].append(tuple(v[j] for v in rows))
        if k >= deadline:
            deadline = last.min() + patience
        going = (norm > threshold) & (norm <= ceiling) & ok
        if k >= min(maxit, deadline) or np.count_nonzero(going) < going.size:
            # Codes are 1 + the index into STATUSES, in order of precedence.
            div = ~np.isfinite(norm) | (norm > ceiling)
            code = np.select([~ok, div, norm <= threshold,
                              k - last >= patience, k >= maxit],
                             [5, 3, 1, 2, 4])
            stop = code != 0
            codes[idx[stop]], best_k[idx[stop]] = code[stop], last[stop]
            runs[idx[stop]] = k
            for dst, src in zip(out, kept):
                dst[idx[stop]] = src[stop]
            keep = np.flatnonzero(~stop)
    steps.close()
    hists = [np.array(logs[i][1:best_k[i] + 1]).reshape(-1, len(series)).T
             for i in range(count)]
    return out, best_k, codes, runs, hists if history else None


def _cg_steps(a, rhs, x):
    """CG on A^T A x = rhs; x, r, d and q are updated in place."""
    r = np.subtract(rhs, a.mT @ (a @ x), out=la.aligned_stack(*x.shape))
    rho_new = r.mT @ r
    d = rho = None
    q = la.aligned_stack(*x.shape)
    keep = yield (np.sqrt(rho_new),), None, (x,)
    while True:
        if keep is not None:
            a, x, r, d, q, rho, rho_new = _take(keep, a, x, r, d, q, rho,
                                                rho_new)
        if d is None:
            d = _aligned(r)
        else:
            np.add(r, (rho_new / rho) * d, out=d)
        rho = rho_new
        np.matmul(a.mT, a @ d, out=q)
        den = d.mT @ q
        broke = den <= 0.0
        np.copyto(den, np.inf, where=broke)
        alpha = rho / den
        x += alpha * d
        r -= alpha * q
        rho_new = r.mT @ r
        keep = yield (np.sqrt(rho_new),), broke, (x,)


def _cgls_steps(a, b, x, shift=None, gaps=False):
    """CGLS on min ||a x - b||, r = a^T d (+ shift); `gaps` adds ||b - a x - d||.
    x, d, r, p_dir, t = a p_dir and the gap vector g are updated in place."""
    d = np.subtract(b, a @ x, out=la.aligned_stack(*b.shape))
    r, t = la.aligned_stack(*x.shape), la.aligned_stack(*b.shape)
    g = la.aligned_stack(*b.shape) if gaps else None
    p_dir = rho = broke = None
    while True:
        np.matmul(a.mT, d, out=r)
        if shift is not None:
            r += shift
        rho_new = r.mT @ r
        if gaps:
            np.subtract(b - a @ x, d, out=g)
        series = (np.sqrt(rho_new),) + ((np.sqrt(g.mT @ g),) if gaps else ())
        keep = yield series, broke, (x, d)
        if keep is not None:
            a, b, x, d, r, t, g, rho_new, shift, p_dir, rho = _take(
                keep, a, b, x, d, r, t, g, rho_new, shift, p_dir, rho)
        if p_dir is None:
            p_dir = _aligned(r)
        else:
            np.add(r, (rho_new / rho) * p_dir, out=p_dir)
        rho = rho_new
        np.matmul(a, p_dir, out=t)
        tt = t.mT @ t
        broke = tt <= 0.0
        np.copyto(tt, np.inf, where=broke)
        alpha = rho / tt
        x += alpha * p_dir
        d -= alpha * t


def _minres_steps(a, b, c, x):
    """MINRES (Paige-Saunders) on [[I, A], [A^T, 0]] (r, x) = (b, -c).

    Only the x blocks of the iterate and of the direction w are carried;
    their r blocks are never read.  A zero Lanczos beta makes phibar zero
    (converged); r1 = 0 and oldb = 1 make the first three-term update
    exactly y - 0.  The Lanczos vectors r1, r2 and y, and the directions
    w, w2 and w0, each take turns in three buffers."""
    m = a.shape[1]

    def op(v, out):
        np.matmul(a, v[:, m:], out=out[:, :m])
        out[:, :m] += v[:, :m]
        np.matmul(a.mT, v[:, :m], out=out[:, m:])
        return out

    shape = (len(a), m + x.shape[1], 1)
    r2 = op(np.concatenate([b - a @ x, x], axis=1,
                           out=la.aligned_stack(*shape)),
            la.aligned_stack(*shape))
    np.subtract(np.concatenate([b, -c], axis=1), r2, out=r2)
    beta = phibar = np.sqrt(r2.mT @ r2)
    keep = yield (phibar,), None, (x,)
    dbar = epsln = sn = np.zeros_like(beta)
    oldb, cs = np.ones_like(beta), -np.ones_like(beta)
    r1 = np.zeros_like(r2)
    v, y = la.aligned_stack(*shape), la.aligned_stack(*shape)
    w, w2, w0 = np.zeros_like(x), np.zeros_like(x), np.empty_like(x)
    while True:
        if keep is not None:
            (a, x, v, y, r1, r2, w, w2, w0, oldb, beta, dbar, epsln, phibar,
             cs, sn) = _take(keep, a, x, v, y, r1, r2, w, w2, w0, oldb, beta,
                             dbar, epsln, phibar, cs, sn)
        np.divide(r2, beta, out=v)
        op(v, y)
        y -= (beta / oldb) * r1
        alfa = v.mT @ y
        y -= (alfa / beta) * r2
        r1, r2, y = r2, y, r1
        oldb, beta, oldeps = beta, np.sqrt(r2.mT @ r2), epsln
        delta, gbar = cs * dbar + sn * alfa, sn * dbar - cs * alfa
        epsln, dbar = sn * beta, -cs * beta
        gamma = np.hypot(gbar, beta)
        broke = gamma == 0.0
        np.copyto(gamma, np.inf, where=broke)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        np.divide(v[:, m:] - oldeps * w2 - delta * w, gamma, out=w0)
        w, w2, w0 = w0, w, w2
        x += phi * w
        keep = yield (phibar,), broke, (x,)


def _start(method, s, control, history, eps):
    """The step generator, limits and exponents of stack `s`.

    "cgls" ignores c; "cgls_eps" runs on the stack's eps system.  The
    data is brought in range by its stack's exponents, and CG's formed
    right-hand side by its own 2^-er."""
    tol, maxit, x0, patience = (control or IterationControl()).resolve(
        s.a.shape[2])
    if method == "cgls_eps":
        s = s.eps_system(eps_weight(eps)[0])
    q = s.in_range()
    a, b = q.a, q.b[..., None]
    c = None if method in ("cgls", "cgls_eps") else q.c[..., None]
    ea, es = s.ea[:, None, None], s.es[:, None, None]
    ex, en = es - ea, ea + es  # x = 2^ex x', recurred norm = 2^en norm'
    if method == "cg":
        rhs = a.mT @ b + c
        er = la.scale_exponent(rhs, axis=(1, 2))
        rhs, ex, en = np.ldexp(rhs, -er), ex + er, en + er
    elif method == "minres":
        en = es
    x = np.ldexp(x0[:, None], -ex, out=la.aligned_stack(len(a), x0.size, 1))
    steps = (_cg_steps(a, rhs, x) if method == "cg" else
             _minres_steps(a, b, c, x) if method == "minres" else
             _cgls_steps(a, b, x, c, history and method == "cgls_i"))
    return steps, (tol, maxit, patience), ex, en.ravel(), es.ravel()


def solve_batch(method, probs, control=None, eps=DEFAULT_EPS, history=False):
    """Run one Krylov method on problems of one shape together.

    `method` is "cg" (``cg_base``), "cgls" (on A and b alone), "cgls_i",
    "cgls_eps" or "minres" (``minres_augmented``).  Returns a SolveOutcome
    per problem, bitwise equal to a call on that problem alone;
    histories are kept only with `history`.
    """
    if method not in ("cg", "cgls", "cgls_i", "cgls_eps", "minres"):
        raise InvalidParameter(f"unknown Krylov method {method!r}")
    steps, limits, ex, en, es = _start(method, Stack(probs), control,
                                       history, eps)
    kept, best_k, codes, runs, hists = _drive(steps, len(probs), *limits,
                                              history)
    xs, outs = np.ldexp(kept[0], ex)[:, :, 0], []
    for i, p in enumerate(probs):
        o = SolveOutcome(
            x=xs[i], iterations=int(best_k[i]), status=STATUSES[codes[i] - 1],
            iterations_run=int(runs[i]),
            residual_norm_history=hists and np.ldexp(hists[i][0], en[i]))
        if method == "cgls_i":
            # The gap, relative to sigma_max(A) ||x_exact|| (or ||x||), is 0
            # at x0, where a scale that underflows then divides nothing.
            xref = p.x_exact if p.x_exact is not None else o.x
            scale = p.sigma_max() * max(la.safe_norm(xref), np.finfo(float).tiny)
            d = np.ldexp(kept[1][i, :, 0], es[i])
            gap = la.safe_norm((p.b - p.a @ o.x) - d)
            o.residual_gap = float(gap / scale) if o.iterations else 0.0
            if history:
                o.true_residual_gap_history = np.ldexp(hists[i][1], es[i]) / scale
        outs.append(o)
    return outs


# Problems of the open ``batched`` blocks: (method, id) -> [probs, outcomes].
_open = {}


@contextlib.contextmanager
def batched(method, probs):
    """In the block, the first call of `method`'s public function on one of
    `probs` (one shape) runs ``solve_batch`` on all, with its control (and
    eps); each call returns its problem's outcome, without histories, or
    raises the batch's QlskitError."""
    batch, keys = [probs, None], [(method, id(p)) for p in probs]
    _open.update(dict.fromkeys(keys, batch))
    try:
        yield
    finally:
        for key in keys:
            _open.pop(key, None)


def _one(method, p, control, eps=DEFAULT_EPS):
    """p's outcome from its open batch, else from a batch of one."""
    batch = _open.get((method, id(p)))
    if batch is None:
        return solve_batch(method, [p], control, eps, history=True)[0]
    probs, outs = batch
    if outs is None:
        try:
            outs = batch[1] = solve_batch(method, probs, control, eps)
        except QlskitError as exc:
            outs = batch[1] = exc
    if isinstance(outs, QlskitError):
        raise outs
    return outs[[id(q) for q in probs].index(id(p))]


def cg_base(p, control=None):
    """CG on the normal equations with A^T b + c formed once, the baseline:
    that rounding error is amplified by kappa(A)^2 and never repaired."""
    return _one("cg", p, control)


def cgls(a, b, control=None):
    """CGLS for min ||a x - b||, re-forming r = a^T d each iteration."""
    a, b = la.as_matrix(a, "a"), la.as_vector(b, "b")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch("b length does not match row count")
    return solve_batch("cgls", [SimpleNamespace(a=a, b=b, c=np.zeros(
        a.shape[1]))], control, history=True)[0]


def cgls_eps(p, eps=DEFAULT_EPS, control=None):
    """CGLS on [A; eps c^T], (b, 1/eps); eps is a power of two, so both
    scalings of c are exact.  x differs from the base one by O(eps^2)."""
    return _one("cgls_eps", p, control, eps)


def cgls_i(p, control=None):
    """CGLS with the shift re-added every iteration: r = A^T d + c.

    This is CGLS on [A; c^T], (b, 1) with the last residual entry pinned
    to one.  The gaps ||(b - A x_k) - d_k|| are relative to sigma_max(A)
    ||x_exact||, or to the returned iterate's norm without x_exact.
    """
    return _one("cgls_i", p, control)


def minres_augmented(p, control=None):
    """MINRES on [[I, A], [A^T, 0]] (r, x) = (b, -c); returns the x block."""
    return _one("minres", p, control)
