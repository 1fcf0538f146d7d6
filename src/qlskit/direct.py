"""Direct solvers for A^T A x = A^T b + c.

All four return the solution vector.  ``solve_qr`` and ``solve_sm``
factor A by unpivoted QR; the other two factor a derived matrix.  Data
whose largest magnitude lies outside 2^+-``linalg.SAFE_EXPONENT`` is
first scaled by powers of two, as the Krylov engine scales it, and x is
scaled back; both are exact.
``solve_qr_eps`` leaves that to the pivoted QR of its stacked matrix.
"""

import math

import numpy as np

from . import linalg as la
from .errors import DenominatorVanishes
from .problems import (DEFAULT_EPS, QlsProblem, build_augmented,
                       build_eps_system, eps_weight)


def _in_range(p):
    """(q, ea, es): q is p with A scaled by 2^-ea, b by 2^-es and c by
    2^-(ea+es), so x = 2^(es-ea) x_q.  q is p itself when no scaling is
    due."""
    ea = la.scale_exponent(p.a)
    es = la.scale_exponent(np.concatenate([p.b, np.ldexp(p.c, -ea)]))
    if not (ea or es):
        return p, 0, 0
    q = QlsProblem(np.ldexp(p.a, -ea), np.ldexp(p.b, -es),
                   np.ldexp(p.c, -(ea + es)), label=p.label)
    return q, int(ea), int(es)


def solve_qr(p):
    """Semi-normal equations: R^T R x = A^T b + c with R from QR of A."""
    q, ea, es = _in_range(p)
    f = la.qr_factorize(q.a)
    rhs = q.a.T @ q.b + q.c
    return np.ldexp(la.qr_gram_solve(f, rhs), es - ea)


def solve_qr_eps(p, eps=DEFAULT_EPS):
    """Pivoted QR least squares on the stacked system [A; eps c^T]."""
    sys_ = build_eps_system(p, eps)
    f = la.qr_factorize(sys_.a_eps, pivoting=True)
    return la.qr_lstsq(f, sys_.b_eps)


def solve_sm(p, eps=DEFAULT_EPS):
    """Least-squares solution plus a rank-one update.

    With w = (A^T A)^{-1} c, the stacked system's exact solution is
    x_dagger + w corrected along w:

        x = y - eps^2 (c^T y) / (1 + eps^2 c^T w) * w,   y = x_dagger + w.

    ``eps=0`` returns the base solution x_dagger + w itself; any other
    eps goes through ``problems.eps_weight`` (rounded to a power of two
    as the stacked system rounds it; InvalidParameter unless that lies
    in [2^-1023, 1]).  Raises DenominatorVanishes if 1 + eps^2 c^T w is
    not positive.
    """
    if eps != 0.0:
        eps = eps_weight(eps)[0]
    q, ea, es = _in_range(p)
    f = la.qr_factorize(q.a)
    # w is solved for c_hat = 2^-ec p.c, of largest magnitude near one
    # however far b's scale is from c's: q.c, w = 2^(ec-ea-es) c_hat, w_hat.
    ec = int(np.frexp(np.abs(p.c).max())[1])
    c_hat = np.ldexp(p.c, -ec)
    w_hat = la.qr_gram_solve(f, c_hat)
    y = la.qr_lstsq(f, q.b) + np.ldexp(w_hat, ec - ea - es)
    if eps == 0.0 or not c_hat.any():
        return np.ldexp(y, es - ea)
    # The correction (c^T y) / (eps^-2 + c^T w) w in c_hat's units; eps^-2
    # there is 2^e, +inf or 0 where the correction or eps^-2 is negligible.
    e = -2 * (math.frexp(eps)[1] - 1 + ec - ea)
    den = float(c_hat @ w_hat) + (math.inf if e > 1023 else math.ldexp(1.0, e))
    if not den > 0.0:
        raise DenominatorVanishes(f"1 + eps^2 c^T w <= 0 (scaled: {den:.3e})")
    return np.ldexp(y - (float(c_hat @ y) / den) * w_hat, es - ea)


def solve_aug(p, scale=None):
    """Symmetric-indefinite solve of [[s I, A], [A^T, 0]] (r/s, x) = (b, -c/s).

    The default scale sigma_min(A)/sqrt(2) keeps the saddle matrix as
    well conditioned as the problem allows.  The leading block of the
    internal solution is the residual divided by the scale; only the x
    block is returned.
    """
    q, ea, es = _in_range(p)
    au = build_augmented(q, None if scale is None else np.ldexp(scale, -ea))
    f = la.ldlt_factorize(au.k)
    sol = la.ldlt_solve(f, au.rhs)
    return np.ldexp(sol[q.m:], es - ea)
