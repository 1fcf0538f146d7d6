"""Krylov solvers for A^T A x = A^T b + c.

Four variants with rather different rounding behaviour:

* ``cg_base``: conjugate gradients on the normal equations with the
  right-hand side A^T b + c formed once up front.  The rounding error
  committed in that single formation is amplified by kappa(A)^2 and is
  never repaired later; the solver is included as the baseline.
* ``cgls``: least-squares CG on (A, b), re-forming r = A^T d every
  iteration instead of recurring it.
* ``cgls_i``: cgls with the shift re-added every iteration,
  r = A^T d + c.  This is cgls on [A; c^T] with (b, 1) and the last
  residual coordinate pinned to one, so it solves the base problem
  itself; the distance between the recurred and true residuals is
  tracked per iteration.
* ``cgls_eps``: cgls applied to the stacked system [A; eps c^T] with
  right-hand side (b, 1/eps).  eps is an exact power of two so the two
  scalings of c are exact; the solution differs from the base problem's
  by O(eps^2).

``minres_augmented`` runs MINRES on the symmetric saddle form as an
orthogonal point of comparison.

Each method is a generator of iterates (``_cg_steps``, ``_cgls_steps``,
``_minres_steps``) that yields (x_k, recurred residual norm) and
returns on breakdown.  One loop, ``_drive``, runs any of them under
the same stop rule and keeps the best iterate and the histories.

A run stops with status "converged" when the recurred residual falls
below ``tol`` (default 100 times the unit roundoff) times its initial
value, "stalled" after ``patience`` consecutive iterations without a new
best residual norm (default 50), "diverged" when the norm turns
nonfinite or exceeds ``DIVERGENCE_FACTOR`` times its initial value,
"max_iterations" at ``max_iterations`` (default ten times the column
count), and "breakdown" when a step has zero curvature.  Ill
conditioned spectra can stagnate for long stretches and then resume
converging, so experiment configurations raise the patience.

Whatever the stopping reason, the x handed back is the iterate whose
recurred residual norm was smallest, not the last one computed: past
the attainable floor the directions lose conjugacy and the iterate
random-walks, so the last iterate can be arbitrarily bad while the
best one is converged.  Histories are truncated at the returned
iterate, keeping their lengths consistent with ``iterations``.
"""

import numpy as np
from dataclasses import dataclass

from . import linalg as la
from .errors import DimensionMismatch, InvalidParameter
from .problems import DEFAULT_EPS, build_eps_system

DEFAULT_TOL = 100.0 * la.U

# Iterations allowed without improving on the best residual norm so far.
STALL_PATIENCE = 50

# Past its floor the recurred residual of the re-forming solvers grows
# geometrically; a norm this far above the initial one (or a nonfinite
# one) cannot be a stagnation plateau, so the run stops there instead of
# wandering until the overflow threshold.
DIVERGENCE_FACTOR = 1e13


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
    """Result of an iterative solve.

    ``x`` is the iterate with the smallest recurred residual norm and
    ``iterations`` is its index.  ``residual_norm_history`` holds one
    entry per iteration (entry k-1 is the recurred norm after k
    iterations; the initial norm is not stored), so its length equals
    ``iterations``; ``true_residual_gap_history`` follows the same
    convention.  ``status`` says why the run stopped: "converged",
    "stalled", "diverged", "max_iterations" or "breakdown".
    """

    x: np.ndarray
    iterations: int
    residual_norm_history: np.ndarray
    true_residual_gap_history: np.ndarray = None
    status: str = "converged"


class _StopRule:
    def __init__(self, initial, tol, maxit, patience):
        self.threshold = tol * initial
        self.ceiling = DIVERGENCE_FACTOR * initial
        self.maxit = maxit
        self.patience = patience
        self.best = initial
        self.best_k = 0
        self.stalled = 0

    def step(self, k, norm):
        if not np.isfinite(norm) or norm > self.ceiling:
            # Post-floor blow-up; the best iterate stands as the answer.
            return "diverged"
        if norm < self.best:
            self.best = norm
            self.best_k = k
            self.stalled = 0
        else:
            self.stalled += 1
        if norm <= self.threshold:
            return "converged"
        if self.stalled >= self.patience:
            return "stalled"
        if k >= self.maxit:
            return "max_iterations"
        return None


def _drive(steps, limits, gaps=None):
    """Run a step generator under the stop rule; return the best iterate.

    `steps` yields (x_k, recurred residual norm_k) for k = 0, 1, ...
    and returns on breakdown; `limits` is (tol, maxit, patience).
    `gaps`, if given, is a list the generator fills with one entry per
    yielded iterate.

    Once the recurred residual has reached its floor the iteration is
    not self-correcting: directions lose conjugacy and the iterate
    random-walks away from the converged point while the stall counter
    runs out.  The iterate with the smallest recurred residual norm is
    therefore handed back and the histories are cut at that point; the
    initial entry is dropped so they hold exactly one entry per
    iteration.
    """
    x, norm = next(steps)
    hist = [norm]
    rule = _StopRule(norm, *limits)
    # A zero initial residual (zero right-hand side or exact x0) is solved.
    status = "converged" if norm == 0.0 else None
    x_best = x.copy()
    k = 0
    while not status:
        step = next(steps, None)
        if step is None:
            status = "breakdown"
            break
        x, norm = step
        k += 1
        hist.append(norm)
        status = rule.step(k, norm)
        if rule.best_k == k:
            x_best = x.copy()
    end = rule.best_k + 1
    return SolveOutcome(
        x=x_best,
        iterations=rule.best_k,
        residual_norm_history=np.array(hist[1:end]),
        true_residual_gap_history=None if gaps is None else np.array(gaps[1:end]),
        status=status,
    )


def _cg_steps(a, rhs, x):
    """CG on A^T A x = rhs."""
    r = rhs - a.T @ (a @ x)
    d = r
    rho = float(r @ r)
    yield x, np.sqrt(rho)
    while True:
        q = a.T @ (a @ d)
        den = float(d @ q)
        if den <= 0.0:
            return
        alpha = rho / den
        x = x + alpha * d
        r = r - alpha * q
        rho_new = float(r @ r)
        yield x, np.sqrt(rho_new)
        d = r + (rho_new / rho) * d
        rho = rho_new


def _cgls_steps(a, b, x, shift=None, gaps=None):
    """CGLS on min ||a x - b||, re-forming r = a^T d (+ shift) every step.

    d is the recurred residual b - a x.  With a `gaps` list the distance
    ||(b - a x_k) - d_k|| is appended for every yielded iterate.
    """
    d = b - a @ x
    p_dir = None
    while True:
        r = a.T @ d
        if shift is not None:
            r += shift
        rho_new = float(r @ r)
        if gaps is not None:
            gaps.append(np.linalg.norm((b - a @ x) - d))
        yield x, np.sqrt(rho_new)
        p_dir = r if p_dir is None else r + (rho_new / rho) * p_dir
        rho = rho_new
        t = a @ p_dir
        tt = float(t @ t)
        if tt <= 0.0:
            return
        alpha = rho / tt
        x = x + alpha * p_dir
        d = d - alpha * t


def _minres_steps(a, b, c, x):
    """MINRES on [[I, A], [A^T, 0]] (r, x) = (b, -c), yielding the x block.

    Paige-Saunders recurrences; r2 carries the unnormalized next Lanczos
    vector, phibar the recurred residual norm.  A zero Lanczos beta
    makes sn and so phibar zero, which the stop rule takes as converged.
    """
    m, n = a.shape

    def op(y):
        return np.concatenate([y[:m] + a @ y[m:], a.T @ y[:m]])

    sol = np.concatenate([b - a @ x, x])
    r1 = np.concatenate([b, -c]) - op(sol)
    beta1 = np.linalg.norm(r1)
    yield sol[m:], beta1
    y = r2 = r1
    oldb = 0.0
    beta = beta1
    dbar = 0.0
    epsln = 0.0
    phibar = beta1
    cs = -1.0
    sn = 0.0
    w = np.zeros(m + n)
    w2 = np.zeros(m + n)
    first = True
    while True:
        v = y / beta
        y = op(v)
        if not first:
            y = y - (beta / oldb) * r1
        first = False
        alfa = float(v @ y)
        y = y - (alfa / beta) * r2
        r1 = r2
        r2 = y
        oldb = beta
        beta = np.linalg.norm(y)
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = np.hypot(gbar, beta)
        if gamma == 0.0:
            return
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) / gamma
        sol = sol + phi * w
        yield sol[m:], phibar


def _resolve(control, n):
    tol, maxit, x0, patience = (control or IterationControl()).resolve(n)
    return x0, (tol, maxit, patience)


def cg_base(p, control=None):
    """Conjugate gradients on A^T A x = A^T b + c.

    The right-hand side is formed once as fl(fl(A^T b) + c); everything
    after that sees only the already-rounded vector.
    """
    x0, limits = _resolve(control, p.n)
    return _drive(_cg_steps(p.a, (p.a.T @ p.b) + p.c, x0), limits)


def cgls(a, b, control=None):
    """CGLS for min ||a x - b||, re-forming a^T d each iteration."""
    a = la.as_matrix(a, "a")
    b = la.as_vector(b, "b")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch("b length does not match row count")
    x0, limits = _resolve(control, a.shape[1])
    return _drive(_cgls_steps(a, b, x0), limits)


def cgls_eps(p, eps=DEFAULT_EPS, control=None):
    """CGLS on the stacked regularized system [A; eps c^T], (b, 1/eps)."""
    sys_ = build_eps_system(p, eps)
    return cgls(sys_.a_eps, sys_.b_eps, control)


def cgls_i(p, control=None):
    """CGLS with the shift re-added every iteration: r = A^T d + c.

    This is CGLS on [A; c^T], (b, 1) with the last residual coordinate
    pinned to one, so c re-enters r at full accuracy every iteration.
    ``true_residual_gap_history`` records, per iteration,
    ||(b - A x_k) - d_k||, scaled by sigma_max(A) times ||x_exact|| (or
    the returned iterate's norm when the problem carries no reference
    solution).
    """
    x0, limits = _resolve(control, p.n)
    raw = []
    o = _drive(_cgls_steps(p.a, p.b, x0, shift=p.c, gaps=raw), limits, raw)
    xref = p.x_exact if p.x_exact is not None else o.x
    scale = p.sigma_max() * max(np.linalg.norm(xref), np.finfo(float).tiny)
    # Only the kept entries are scaled: with no iteration kept, a scale
    # that underflows to zero divides nothing.
    o.true_residual_gap_history = o.true_residual_gap_history / scale
    return o


def minres_augmented(p, control=None):
    """MINRES on [[I, A], [A^T, 0]] (r, x) = (b, -c); returns the x block.

    The operator is applied matrix-free.
    """
    x0, limits = _resolve(control, p.n)
    return _drive(_minres_steps(p.a, p.b, p.c, x0), limits)
