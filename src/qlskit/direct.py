"""Direct solvers for A^T A x = A^T b + c.

Each solver takes one problem and returns its solution vector, or a
list (or tuple) of same-shape problems and returns the list of their
solution vectors.  A group is solved in stacks of ``linalg.STACK_CHUNK``
problems, with each factorization and solve one stacked call, and each
x is bitwise that of the problem's own call: the one-problem call is a
stack of one.  A group call raises when any member's own call would.

``solve_qr`` and ``solve_sm`` factor A by unpivoted QR (LAPACK geqrf),
``solve_qr_eps`` factors [A; eps c^T] by column-pivoted Householder QR,
and ``solve_aug`` solves the augmented saddle-point system by LU with
partial pivoting (LAPACK gesv, through ``np.linalg.solve``).  Data whose
largest magnitude lies outside 2^+-``linalg.SAFE_EXPONENT`` is first
scaled by powers of two, problem by problem, as the Krylov engine scales
it, and x is scaled back; both are exact.  ``solve_qr_eps`` leaves that
to the pivoted QR of its stacked matrix.
"""

import functools
import math

import numpy as np

from . import linalg as la
from .errors import Breakdown, DenominatorVanishes, DimensionMismatch
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


def _scaled_back(xs, scaled):
    """Each x_q of `xs` as 2^(es-ea) x_q, with its problem's `_in_range`."""
    return [np.ldexp(x, es - ea) for x, (_, ea, es) in zip(xs, scaled)]


def _grouped(body):
    """The solver whose `body` solves a list of at most ``la.STACK_CHUNK``
    same-shape problems: one problem gives its x, a list or tuple of
    same-shape problems the list of their x, chunk by chunk."""

    @functools.wraps(body)
    def solve(p, *args, **kwargs):
        if not isinstance(p, (list, tuple)):
            return body([p], *args, **kwargs)[0]
        probs = list(p)
        if len({q.a.shape for q in probs}) != 1:
            raise DimensionMismatch("a group needs problems of one shape")
        return [x for lo in range(0, len(probs), la.STACK_CHUNK)
                for x in body(probs[lo:lo + la.STACK_CHUNK], *args, **kwargs)]

    return solve


@_grouped
def solve_qr(probs):
    """Semi-normal equations: R^T R x = A^T b + c with R from QR of A."""
    scaled = [_in_range(p) for p in probs]
    f = la.qr_factorize(np.stack([q.a for q, _, _ in scaled]))
    rhs = np.stack([q.a.T @ q.b + q.c for q, _, _ in scaled])
    return _scaled_back(la.qr_gram_solve(f, rhs), scaled)


@_grouped
def solve_qr_eps(probs, eps=DEFAULT_EPS):
    """Pivoted QR least squares on the stacked system [A; eps c^T]."""
    systems = [build_eps_system(p, eps) for p in probs]
    f = la.qr_factorize(np.stack([s.a_eps for s in systems]), pivoting=True)
    return list(la.qr_lstsq(f, np.stack([s.b_eps for s in systems])))


@_grouped
def solve_sm(probs, eps=DEFAULT_EPS):
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
    scaled = [_in_range(p) for p in probs]
    f = la.qr_factorize(np.stack([q.a for q, _, _ in scaled]))
    # w is solved for c_hat = 2^-ec p.c, of largest magnitude near one
    # however far b's scale is from c's: q.c, w = 2^(ec-ea-es) c_hat, w_hat.
    ecs = [int(np.frexp(np.abs(p.c).max())[1]) for p in probs]
    c_hats = np.stack([np.ldexp(p.c, -ec) for p, ec in zip(probs, ecs)])
    w_hats = la.qr_gram_solve(f, c_hats)
    ys = la.qr_lstsq(f, np.stack([q.b for q, _, _ in scaled]))
    out = []
    for y, c_hat, w_hat, ec, (_, ea, es) in zip(ys, c_hats, w_hats, ecs,
                                                scaled):
        y = y + np.ldexp(w_hat, ec - ea - es)
        if eps != 0.0 and c_hat.any():
            # The correction (c^T y) / (eps^-2 + c^T w) w in c_hat's units;
            # eps^-2 there is 2^e, +inf or 0 where the correction or eps^-2
            # is negligible.
            e = -2 * (math.frexp(eps)[1] - 1 + ec - ea)
            den = float(c_hat @ w_hat) + (math.inf if e > 1023
                                          else math.ldexp(1.0, e))
            if not den > 0.0:
                raise DenominatorVanishes(
                    f"1 + eps^2 c^T w <= 0 (scaled: {den:.3e})")
            y = y - (float(c_hat @ y) / den) * w_hat
        out.append(np.ldexp(y, es - ea))
    return out


@_grouped
def solve_aug(probs, scale=None):
    """LU solve of [[s I, A], [A^T, 0]] (r/s, x) = (b, -c/s).

    The saddle matrix goes to LAPACK's LU with partial pivoting (gesv,
    through ``np.linalg.solve``, one call per stack); an exactly singular
    one raises Breakdown.  The default scale sigma_min(A)/sqrt(2) keeps
    the saddle matrix as well conditioned as the problem allows; a given
    `scale` is used for every problem.  The leading block of the internal
    solution is the residual divided by the scale; only the x block is
    returned.
    """
    scaled = [_in_range(p) for p in probs]
    systems = [build_augmented(q, None if scale is None
                               else np.ldexp(scale, -ea))
               for q, ea, _ in scaled]
    try:
        sol = np.linalg.solve(np.stack([s.k for s in systems]),
                              np.stack([s.rhs for s in systems])[..., None])
    except np.linalg.LinAlgError as exc:
        raise Breakdown(f"singular augmented matrix: {exc}") from None
    return _scaled_back(sol[:, probs[0].m:, 0], scaled)
