"""Perturbation analysis: condition numbers, backward errors, estimates.

The central objects are the structured condition number of the solution
map (A, b, c) -> x of A^T A x = A^T b + c, the linearized minimum-norm
backward error of an approximate solution, and the forward error
estimates that combine the two.  Each is written once, for the stacked
system [A; eps c^T] with eps rounded by ``problems.eps_weight``; the
base quantity is the eps one at eps = 0.  The backward error never
forms the n x (mn+m+n) Jacobian J of the residual map: an n x (2m+2n+1)
factor F with F F^T = J J^T carries all it needs.  No solver is invoked.

Every body works on a ``problems.Stack`` with one iterate per problem,
so each factorization, solve and eigenvalue problem runs once per stack.
Through ``problems.grouped`` each function takes one problem or a group,
chunked by ``STACK_BYTES``, and gives per problem the bits of its own
call.  Only ``relative_backward_error`` works on the in-range data.
"""

import numpy as np
from dataclasses import dataclass

from . import linalg as la
from .errors import (
    DenominatorVanishes,
    DimensionMismatch,
    InvalidParameter,
    NoRealRoot,
    ZeroVector,
)
from .problems import DEFAULT_EPS, eps_weight, grouped


def problem_data_norm(p):
    """Frobenius norm of the stacked data [A, b, c]."""
    return float(np.sqrt(
        np.sum(p.a * p.a) + float(p.b @ p.b) + float(p.c @ p.c)
    ))


# ---------------------------------------------------------------------------
# Stacks of same-shape problems
# ---------------------------------------------------------------------------

# Bytes of the (2m+2n+1) x n backward-error factors of one chunk of a
# group: larger chunks save little time and hold more memory.
STACK_BYTES = 1 << 20


def _chunk(m, n):
    return max(1, STACK_BYTES // (8 * (2 * m + 2 * n + 1) * n))


def _norm(v):
    """2-norm per row of a (B, k) stack, as np.linalg.norm of the row."""
    return np.sqrt(la.dot(v, v))


def _outer(u, v):
    return u[..., :, None] * v[..., None, :]


# ---------------------------------------------------------------------------
# Structured condition numbers
# ---------------------------------------------------------------------------

def _structured_cond(d, x, eps):
    """sqrt(||Mbar||) per problem of stack `d` at the rows of x, through
    one stacked QR of [A; eps c^T] (of A alone at eps = 0; eps already a
    power of two).

    With W = (A^T A + eps^2 c c^T)^-1 and r = b - A x,

        Mbar = ((1 - 2 eps c^T x)^2 + ||r||^2) W^2
               + (1 + ||x||^2) W A^T A W - (B + B^T),

    B = (W A^T r)(W x)^T.  W A^T A W = W - eps^2 (W c)(W c)^T, and
    W A^T r is the least-squares solution of [A; eps c^T] z = (r, 0).
    """
    count, m, n = d.a.shape
    f = d.qr if eps == 0.0 else la.qr_factorize(d.eps_system(eps).a)
    r = d.residual(x)
    w = la.qr_gram_solve(f, np.broadcast_to(np.eye(n), (count, n, n)))
    b1 = la.qr_lstsq(f, np.pad(r, ((0, 0), (0, f.shape[-2] - m))))
    b2 = la.mv(w, x)
    # In Python floats: their ** 2 is libm's pow, not numpy's square.
    lead = np.array([(1.0 - 2.0 * eps * cx) ** 2 + rr for cx, rr in
                     zip(la.dot(d.c, x).tolist(), la.dot(r, r).tolist())])
    wc = la.mv(w, d.c)
    middle = w - (eps * eps) * _outer(wc, wc)
    mbar = (lead[:, None, None] * la.qr_gram_solve(f, w)
            + (1.0 + la.dot(x, x))[:, None, None] * middle
            - (_outer(b1, b2) + _outer(b2, b1)))
    mbar = 0.5 * (mbar + mbar.mT)
    return np.sqrt(la.sym_spectral_norm(mbar))


@grouped(_chunk, iterate=True)
def structured_cond_base(d, x):
    """Absolute condition number of the solution at x (Mbar at eps = 0)."""
    return _structured_cond(d, x, 0.0).tolist()


@grouped(_chunk, iterate=True)
def structured_cond_eps(d, x, eps=DEFAULT_EPS):
    """Absolute condition number of the regularized solution map at x."""
    return _structured_cond(d, x, eps_weight(eps)[0]).tolist()


# ---------------------------------------------------------------------------
# Linearized backward error
# ---------------------------------------------------------------------------

def _unit(v, nv):
    """Rows of v over their norms nv; a zero row stays zero."""
    return np.divide(v, nv[:, None], out=np.zeros_like(v),
                     where=nv[:, None] > 0.0)


def _gram_factor(d, xtilde, r, eps, theta1, theta2, theta_a):
    """QR of each F^T, where the n x (2m+2n+1) matrix F has F F^T = J J^T.

    J is the Jacobian of the eps residual map in the weighted perturbation
    (theta_a vec(E), theta1 f, theta2 g).  The first three blocks of F
    give its E part, ||r||^2 I - x s^T - s x^T + ||x||^2 A^T A, s = A^T r;
    the last its g part, (1 - eps^2 c^T x) I - eps^2 c x^T.  Hats are
    unit vectors, and the hat of a zero vector is zero, so x = 0 and
    r = 0 need no branch.  With F^T = Q R, ||J^dagger h|| = ||R^-T h||.
    The thetas are scalars or one per problem.
    """
    count, m, n = d.a.shape
    t1, t2, ta = (np.broadcast_to(t, (count,))[:, None, None]
                  for t in (theta1, theta2, theta_a))
    if not (np.minimum(np.minimum(t1, t2), ta) > 0.0).all():
        raise InvalidParameter("theta weights must be positive")
    a, c = d.a, d.c
    nr, nx = _norm(r), _norm(xtilde)
    xh, rh = _unit(xtilde, nx), _unit(r, nr)
    eye = np.eye(n)
    c_block = ((1.0 - eps * eps * la.dot(c, xtilde))[:, None, None] * eye
               - (eps * eps) * _outer(c, xtilde))
    # F^T row block by row block; each block is the transpose of F's.
    ft = np.empty((count, 2 * m + 2 * n + 1, n))
    ft[:, :1] = ((nr[:, None] * xh - nx[:, None] * la.mv(a.mT, rh))[:, None]
                 / ta)
    ft[:, 1:n + 1] = (nr[:, None, None] / ta) * (eye - _outer(xh, xh))
    ft[:, n + 1:n + m + 1] = (-nx[:, None, None] / ta) * (
        a - _outer(rh, (rh[:, None] @ a)[:, 0]))
    ft[:, n + m + 1:n + 2 * m + 1] = a / t1
    ft[:, n + 2 * m + 1:] = c_block.mT / t2
    return la.qr_factorize(ft)


def _eta(d, xtilde, eps, theta1, theta2, theta_a):
    """(z, r, F^T = Q R) of each row of xtilde for the eps residual map
    (eps = 0: base).

    z = R^-T h, h = A^T r + c - eps^2 (c^T xtilde) c, so ||z|| is the
    backward error and R^-1 z = (J J^T)^-1 h.
    """
    r = d.residual(xtilde)
    h = (la.mv(d.a.mT, r) + d.c
         - (eps * eps * la.dot(d.c, xtilde))[:, None] * d.c)
    f = _gram_factor(d, xtilde, r, eps, theta1, theta2, theta_a)
    return la.solve_triangular(f.r.mT, h, lower=True), r, f


@grouped(_chunk, iterate=True)
def linearized_backward_error(d, xtilde, theta1=1.0, theta2=1.0,
                              theta_a=1.0):
    """Minimum norm of the linearized perturbations admitting xtilde.

    Measures the smallest ||(theta_a vec(E), theta1 f, theta2 g)|| such
    that, to first order, (A+E)^T (b+f - (A+E) xtilde) + c + g = 0.
    The thetas weight the perturbation components against each other;
    theta = inf semantics (frozen data) are not supported here.
    """
    return _norm(_eta(d, xtilde, 0.0, theta1, theta2, theta_a)[0]).tolist()


@grouped(_chunk, iterate=True)
def linearized_backward_error_eps(d, xtilde, eps=DEFAULT_EPS,
                                  theta1=1.0, theta2=1.0, theta_a=1.0):
    """Backward error of xtilde for the stacked regularized system.

    The residual gains the term -eps^2 (c^T xtilde) c.
    """
    return _norm(_eta(d, xtilde, eps_weight(eps)[0], theta1, theta2,
                      theta_a)[0]).tolist()


def _weight(v):
    """1 / v, or one where v is zero."""
    return np.divide(1.0, v, out=np.ones_like(v), where=v > 0.0)


@grouped(_chunk, iterate=True)
def relative_backward_error(d, xtilde):
    """Backward error with every component measured against its data norm.

    Weights are 1/||A||_F, 1/||b||, 1/||c|| so the result is the
    dimensionless size of the smallest admitting perturbation relative
    to the data; a backward-stable iterate scores a small multiple of
    the unit roundoff.  Zero data components fall back to weight one.
    It is evaluated on the in-range data, where its value is the same.
    """
    x = np.ldexp(xtilde, (d.ea - d.es)[:, None])
    d = d.in_range()
    naf = np.sqrt(np.sum(d.a * d.a, axis=(1, 2)))
    z = _eta(d, x, 0.0, _weight(_norm(d.b)), _weight(_norm(d.c)),
             _weight(naf))[0]
    return _norm(z).tolist()


def eta_one(xtilde, theta1=1.0, theta2=1.0):
    """Cheap upper-bound scale sqrt(theta1^-2 + theta2^-2 + ||x||^2)."""
    xtilde = la.as_vector(xtilde, "xtilde")
    return float(np.sqrt(theta1 ** -2 + theta2 ** -2 + float(xtilde @ xtilde)))


@dataclass
class PerturbationTriple:
    """Data perturbation (E, f, g) certifying an approximate solution."""

    e: np.ndarray
    f: np.ndarray
    g: np.ndarray

    @property
    def weighted_norm(self):
        return float(np.sqrt(
            np.sum(self.e * self.e) + float(self.f @ self.f) + float(self.g @ self.g)
        ))


@grouped(_chunk, iterate=True)
def minimum_norm_perturbation(d, xtilde, theta1=1.0, theta2=1.0):
    """Smallest linearized perturbation triple admitting xtilde.

    Returns (E, f, g) with (A+E)^T (b+f - (A+E) xtilde) + c + g = 0 up
    to second order in the perturbation.
    """
    z, r, f = _eta(d, xtilde, 0.0, theta1, theta2, 1.0)
    # y = (J J^T)^-1 h; the triple is -J^T y, mapped back to data units.
    y = la.solve_triangular(f.r, z)
    return [PerturbationTriple(e=np.outer(ay, x) - np.outer(ri, yi),
                               f=-ay / theta1 ** 2, g=-yi / theta2 ** 2)
            for ay, x, ri, yi in zip(la.mv(d.a, y), xtilde, r, y)]


# ---------------------------------------------------------------------------
# Bounds and indicators
# ---------------------------------------------------------------------------

def _sm_terms(d, eps):
    """(w, den) per problem of stack `d`: w = (A^T A)^-1 c and
    den = 1 + eps^2 c^T w > 0."""
    w = la.qr_gram_solve(d.qr, d.c)
    den = 1.0 + eps * eps * la.dot(d.c, w)
    if not (den > 0.0).all():
        raise DenominatorVanishes(f"1 + eps^2 c^T w = {den.min():.3e}")
    return w, den


def _sm_bound(d, w, den, eps):
    return eps * eps * _norm(d.c) * _norm(w) / den


@grouped(_chunk)
def sm_proximity_bound(d, eps=DEFAULT_EPS):
    """Distance bound between the regularized and base solutions.

    ||x_eps - x|| <= eps^2 ||c|| ||w|| / (1 + eps^2 c^T w) with
    w = (A^T A)^-1 c.
    """
    eps = eps_weight(eps)[0]
    return _sm_bound(d, *_sm_terms(d, eps), eps).tolist()


def initial_rounding_bound(p):
    """Forward-error contribution of rounding A^T b + c once up front.

    u kappa(A)^2 [ (m+1)/(1-(m+1)u) ||b||/||A|| + ||c||/||A||^2 ].
    """
    m = p.m
    den = 1.0 - (m + 1) * la.U
    if den <= 0.0:
        raise InvalidParameter("row count too large for the bound to hold")
    na = p.sigma_max()
    kap = p.kappa()
    return float(la.U * kap * kap * (
        (m + 1) / den * np.linalg.norm(p.b) / na
        + np.linalg.norm(p.c) / (na * na)
    ))


@grouped(_chunk, iterate=True)
def cg_inadequacy_indicator(d, x):
    """Ratio of the formed-once right-hand side's weight to the data size.

    Values near one mean the single rounding of A^T b + c carries as
    much weight as the data itself, so methods that never revisit b and
    c cannot do better than that rounding allows.
    """
    nb, nc, nx = _norm(d.b), _norm(d.c), _norm(x)
    na, smin, dn = np.array([(p.sigma_max(), p.sigma_min(),
                              problem_data_norm(p)) for p in d.probs]).T
    bracket = (1.0 + _norm(d.residual(x)) + 2.0 * np.sqrt(nc * nx)
               + (1.0 + nx) * smin)
    return ((nb * na + nc) / (bracket * dn)).tolist()


def _rank_one_norm(u, v):
    """Spectral norm of I + u v^T per row pair of two (B, k) stacks, by
    restriction to span{u, v}; one when u or v is zero.

    With Q = [q1, q2] orthonormal, q1 along u, the restriction is the 2x2
    S = Q^T Q + (Q^T u)(Q^T v)^T.  When v lies along u, q2 = 0 leaves S
    one nonzero entry, which the 2x2 formula returns exactly.
    """
    nu, nv = _norm(u), _norm(v)
    q1 = _unit(u, nu)
    vperp = v - la.dot(q1, v)[:, None] * q1
    nvp = _norm(vperp)
    # Q as (B, k, 2) columns, so its products meet the BLAS calls of the
    # one-pair expressions.
    q = np.stack([q1, _unit(vperp, np.where(nvp > 1e-15 * nv, nvp, 0.0))],
                 axis=2)
    s = q.mT @ q + _outer(la.mv(q.mT, u), la.mv(q.mT, v))
    # Largest singular value of a 2x2 without forming the Gram matrix.
    smax = 0.5 * (np.hypot(s[:, 0, 0] + s[:, 1, 1], s[:, 0, 1] - s[:, 1, 0])
                  + np.hypot(s[:, 0, 0] - s[:, 1, 1], s[:, 0, 1] + s[:, 1, 0]))
    return np.where((nu > 0.0) & (nv > 0.0), np.maximum(1.0, smax), 1.0)


def rank_one_identity_norm(u, v):
    """Spectral norm of I + u v^T by restriction to span{u, v}."""
    u = la.as_vector(u, "u")
    v = la.as_vector(v, "v")
    if u.shape != v.shape:
        raise DimensionMismatch("u and v must have equal length")
    return float(_rank_one_norm(u[None], v[None])[0])


# ---------------------------------------------------------------------------
# Forward error estimates
# ---------------------------------------------------------------------------

@grouped(_chunk, iterate=True)
def forward_error_estimates(d, xhat, eps=DEFAULT_EPS,
                            methods=("cg", "cglsi", "cglseps")):
    """Computable forward-error estimates evaluated at one iterate.

    Returns a dict with a relative-error estimate per requested method.
    All three share the skeleton "condition number times backward
    error over ||xhat||", with the condition number and backward error
    both taken in absolute terms so their product bounds the absolute
    error:

    * "cglsi": sqrt(||Mbar||) eta_bar(xhat) / ||xhat||,
    * "cglseps": the regularized analogue, inflated by the norm of the
      rank-one back-map and shifted by the proximity bound between the
      regularized and base solutions,
    * "cg": the "cglsi" value plus the formed-once right-hand-side
      floor u kappa^2 (||b||/||A|| + ||c||/||A||^2) / ||xhat||, which
      no amount of further iteration removes.

    `methods` limits the work to what the caller needs; "cg" implies
    the "cglsi" computation.  A group gives a list of such dicts.
    """
    want = set(methods)
    unknown = want - {"cg", "cglsi", "cglseps"}
    if unknown:
        raise InvalidParameter(f"unknown methods: {sorted(unknown)}")
    x, nx = xhat, _norm(xhat)
    if not nx.all():
        raise ZeroVector("estimates need a nonzero iterate")
    out = {}
    if want & {"cg", "cglsi"}:
        etab = _norm(_eta(d, x, 0.0, 1.0, 1.0, 1.0)[0])
        base = _structured_cond(d, x, 0.0) * etab / nx
        if "cglsi" in want:
            out["cglsi"] = base.tolist()
        if "cg" in want:
            na = np.array([q.sigma_max() for q in d.probs])
            kap = np.array([q.kappa() for q in d.probs])
            floor = la.U * kap * kap * (_norm(d.b) / na
                                        + _norm(d.c) / (na * na))
            out["cg"] = (base + floor / nx).tolist()
    if "cglseps" in want:
        eps = eps_weight(eps)[0]
        w, den = _sm_terms(d, eps)
        amplify = _rank_one_norm(-(eps * eps / den)[:, None] * w, d.c)
        etab_e = _norm(_eta(d, x, eps, 1.0, 1.0, 1.0)[0])
        cond_e = _structured_cond(d, x, eps)
        out["cglseps"] = (_sm_bound(d, w, den, eps)
                          + cond_e * etab_e * amplify / nx).tolist()
    return [{k: v[i] for k, v in out.items()} for i in range(len(x))]


@dataclass
class ConditioningReport:
    """One-stop diagnostic bundle for a problem and an iterate."""

    kappa: float
    data_norm: float
    abs_cond: float
    rel_cond: float
    abs_cond_eps: float
    rel_cond_eps: float
    eta_bar: float
    eta_bar_eps: float
    eta_one: float
    sm_bound: float
    initial_rounding: float
    cg_indicator: float
    estimates: dict
    eps: float


def conditioning_report(p, x=None, eps=DEFAULT_EPS):
    """Evaluate every diagnostic at x (default: the QR solution)."""
    if x is None:
        from .direct import solve_qr
        x = solve_qr(p)
    ac = structured_cond_base(p, x)  # checks x
    dn = problem_data_norm(p)
    nx = np.linalg.norm(x)
    ace = structured_cond_eps(p, x, eps)
    return ConditioningReport(
        kappa=p.kappa(),
        data_norm=dn,
        abs_cond=ac,
        rel_cond=ac * dn / nx if nx > 0 else np.inf,
        abs_cond_eps=ace,
        rel_cond_eps=ace * dn / nx if nx > 0 else np.inf,
        eta_bar=linearized_backward_error(p, x),
        eta_bar_eps=linearized_backward_error_eps(p, x, eps),
        eta_one=eta_one(x),
        sm_bound=sm_proximity_bound(p, eps),
        initial_rounding=initial_rounding_bound(p),
        cg_indicator=cg_inadequacy_indicator(p, x),
        estimates=forward_error_estimates(p, x, eps),
        eps=eps,
    )


# ---------------------------------------------------------------------------
# Explicit perturbation construction
# ---------------------------------------------------------------------------

def construct_perturbation(p, xtilde, v, z=None, root="smaller"):
    """Exact rank-structured E with (A+E)^T (b - (A+E) xtilde) = -c.

    Given any nonzero direction v in R^m and free block Z, builds

        E = v (alpha c^T - v^+ A) + (I - v v^+)(r x^+ + Z (I - x x^+))

    where the plus superscript is the vector pseudoinverse w^T/||w||^2,
    r = b - A xtilde, and alpha solves the scalar quadratic
    alpha^2 ||v||^2 c^T x - alpha v^T b - 1 = 0.  `root` picks the
    smaller- or larger-magnitude real root.  Returns (E, alpha).

    Raises NoRealRoot when the quadratic has no real solution and
    ZeroVector for zero v or xtilde.
    """
    xtilde, v = la.as_vector(xtilde, "xtilde"), la.as_vector(v, "v")
    if (xtilde.shape[0], v.shape[0]) != (p.n, p.m):
        raise DimensionMismatch("xtilde and v need n and m entries")
    if root not in ("smaller", "larger"):
        raise InvalidParameter("root must be 'smaller' or 'larger'")
    vv = float(v @ v)
    xx = float(xtilde @ xtilde)
    if vv == 0.0:
        raise ZeroVector("v must be nonzero")
    if xx == 0.0:
        raise ZeroVector("xtilde must be nonzero")
    if z is None:
        z = np.zeros((p.m, p.n))
    else:
        z = la.as_matrix(z, "z")
        if z.shape != (p.m, p.n):
            raise DimensionMismatch("z must have the problem's shape")
    ctx = float(p.c @ xtilde)
    vb = float(v @ p.b)
    quad = vv * ctx
    if quad == 0.0:
        if vb == 0.0:
            raise NoRealRoot("v^T b = 0 with c^T x = 0 leaves no root")
        alpha = -1.0 / vb
    else:
        disc = vb * vb + 4.0 * quad
        if disc < 0.0:
            raise NoRealRoot(f"discriminant {disc:.3e} < 0")
        sq = np.sqrt(disc)
        if vb == 0.0:
            r_big = sq / (2.0 * quad)
        else:
            r_big = (vb + np.copysign(sq, vb)) / (2.0 * quad)
        r_small = -1.0 / (quad * r_big)
        roots = sorted((r_big, r_small), key=abs)
        alpha = roots[0] if root == "smaller" else roots[1]
    r = p.residual(xtilde)
    term1 = np.outer(v, alpha * p.c - (v @ p.a) / vv)
    proj_rows = np.eye(p.m) - np.outer(v, v) / vv
    inner = np.outer(r, xtilde) / xx + z @ (np.eye(p.n) - np.outer(xtilde, xtilde) / xx)
    e = term1 + proj_rows @ inner
    return e, float(alpha)
