"""Direct solvers for A^T A x = A^T b + c.

Each solver takes one problem and returns its x, or a same-shape group
and returns their list (``problems.grouped``), solved in stacks of
``linalg.STACK_CHUNK`` with each factorization and solve one stacked
call.  Each x is bitwise its problem's own call, and a group call raises
when any member's own call would.

``solve_qr`` and ``solve_sm`` factor A by unpivoted QR (LAPACK geqrf),
``solve_qr_eps`` factors [A; eps c^T] by column-pivoted Householder QR,
and ``solve_aug`` solves the augmented saddle-point system by LU with
partial pivoting (LAPACK gesv, through ``np.linalg.solve``).  They work
on the in-range data of ``problems.Stack``, as the Krylov engine does,
and scale x back exactly; ``solve_qr_eps`` leaves that to the pivoted QR
of its stacked matrix.
"""

import numpy as np

from . import linalg as la
from .errors import Breakdown, DenominatorVanishes
from .problems import DEFAULT_EPS, eps_weight, grouped


@grouped()
def solve_qr(s):
    """Semi-normal equations: R^T R x = A^T b + c with R from QR of A."""
    q = s.in_range()
    rhs = la.mv(q.a.mT, q.b) + q.c
    return s.unscale(la.qr_gram_solve(q.qr, rhs))


@grouped()
def solve_qr_eps(s, eps=DEFAULT_EPS):
    """Pivoted QR least squares on the stacked system [A; eps c^T]."""
    e = s.eps_system(eps_weight(eps)[0])
    return la.qr_lstsq(la.qr_factorize(e.a, pivoting=True), e.b)


@grouped()
def solve_sm(s, eps=DEFAULT_EPS):
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
    q = s.in_range()
    # w is solved for c_hat = 2^-ec c, of largest magnitude near one
    # however far b's scale is from c's: q.c, w = 2^(ec-ea-es) c_hat, w_hat.
    ecs = np.frexp(np.abs(s.c).max(axis=1))[1]
    c_hats = np.ldexp(s.c, -ecs[:, None])
    w_hats = la.qr_gram_solve(q.qr, c_hats)
    ys = la.qr_lstsq(q.qr, q.b) + np.ldexp(w_hats,
                                           (ecs - s.ea - s.es)[:, None])
    if eps != 0.0:
        # The correction (c^T y) / (eps^-2 + c^T w) w in c_hat's units, none
        # where c = 0; eps^-2 there is 2^e, +inf or 0 where the correction or
        # eps^-2 is negligible (ecs - ea: c_hat's exponent over ea's).
        e = -2 * (np.frexp(eps)[1] - 1 + ecs - s.ea)
        nz = c_hats.any(axis=1)
        den = np.where(nz, la.dot(c_hats, w_hats) + np.where(
            e > 1023, np.inf, np.ldexp(1.0, np.minimum(e, 1023))), 1.0)
        if not (den > 0.0).all():
            raise DenominatorVanishes(
                f"1 + eps^2 c^T w <= 0 (scaled: {den.min():.3e})")
        ys -= np.where(nz[:, None],
                       (la.dot(c_hats, ys) / den)[:, None] * w_hats, 0.0)
    return s.unscale(ys)


@grouped()
def solve_aug(s, scale=None):
    """LU solve of [[s I, A], [A^T, 0]] (r/s, x) = (b, -c/s).

    The saddle matrix goes to LAPACK's LU with partial pivoting (gesv,
    through ``np.linalg.solve``, one call per stack); an exactly singular
    one raises Breakdown.  The default scale is the power of two nearest
    sigma_min(A)/sqrt(2) (Bjorck's choice) on the log scale, ties up:
    2^floor(log2 sigma_min), with the problem's own sigma.  It keeps the
    saddle matrix as well conditioned as the problem allows, and it reads
    only the exponent of sigma_min, so x does not depend on the last bits
    of sigma.  A given `scale` is used for every problem.  The leading
    block of the internal solution is the residual divided by the scale;
    only the x block is returned.
    """
    if scale is None:
        smin = np.array([p.sigma_min() for p in s.probs])
        scales = np.ldexp(np.where(smin > 0.0, 0.5, 0.0),
                          np.frexp(smin)[1] - s.ea)
    else:
        scales = np.ldexp([scale] * len(s.probs), -s.ea)
    k, rhs = s.in_range().augmented(scales)
    try:
        sol = np.linalg.solve(k, rhs[..., None])
    except np.linalg.LinAlgError as exc:
        raise Breakdown(f"singular augmented matrix: {exc}") from None
    return s.unscale(sol[:, s.a.shape[1]:, 0])
