"""Perturbation analysis: condition numbers, backward errors, estimates.

The central objects are the structured condition number of the solution
map (A, b, c) -> x of A^T A x = A^T b + c, the linearized minimum-norm
backward error of an approximate solution, and the forward error
estimates that combine the two.  Each is written once, for the stacked
system [A; eps c^T] with eps rounded by ``problems.eps_weight``; the
base quantity is the eps one at eps = 0.  The backward error never
forms the n x (mn+m+n) Jacobian J of the residual map: an n x (2m+2n+1)
factor F with F F^T = J J^T carries all it needs.  No solver is invoked.
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
from .problems import DEFAULT_EPS, build_eps_system, eps_weight


def problem_data_norm(p):
    """Frobenius norm of the stacked data [A, b, c]."""
    return float(np.sqrt(
        np.sum(p.a * p.a) + float(p.b @ p.b) + float(p.c @ p.c)
    ))


def _check_x(p, x):
    x = la.as_vector(x, "x")
    if x.shape[0] != p.n:
        raise DimensionMismatch("x length does not match column count")
    return x


# ---------------------------------------------------------------------------
# Structured condition numbers
# ---------------------------------------------------------------------------

def _structured_cond(p, x, f, eps):
    """sqrt(||Mbar||) at x, f the QR of [A; eps c^T] (of A at eps = 0).

    With W = (A^T A + eps^2 c c^T)^-1 and r = b - A x,

        Mbar = ((1 - 2 eps c^T x)^2 + ||r||^2) W^2
               + (1 + ||x||^2) W A^T A W - (B + B^T),

    B = (W A^T r)(W x)^T.  W A^T A W = W - eps^2 (W c)(W c)^T, and
    W A^T r is the least-squares solution of [A; eps c^T] z = (r, 0).
    """
    r = p.residual(x)
    w = la.qr_gram_solve(f, np.eye(p.n))
    b1 = la.qr_lstsq(f, np.pad(r, (0, f.shape[0] - p.m)))
    b2 = w @ x
    lead = (1.0 - 2.0 * eps * float(p.c @ x)) ** 2 + float(r @ r)
    wc = w @ p.c
    middle = w - (eps * eps) * np.outer(wc, wc)
    mbar = (lead * la.qr_gram_solve(f, w) + (1.0 + float(x @ x)) * middle
            - (np.outer(b1, b2) + np.outer(b2, b1)))
    mbar = 0.5 * (mbar + mbar.T)
    return float(np.sqrt(la.sym_spectral_norm(mbar)))


def structured_cond_base(p, x):
    """Absolute condition number of the solution at x (Mbar at eps = 0)."""
    return _structured_cond(p, _check_x(p, x), p.qr(), 0.0)


def structured_cond_eps(p, x, eps=DEFAULT_EPS):
    """Absolute condition number of the regularized solution map at x."""
    x = _check_x(p, x)
    sys_ = build_eps_system(p, eps)
    return _structured_cond(p, x, la.qr_factorize(sys_.a_eps), sys_.eps)


# ---------------------------------------------------------------------------
# Linearized backward error
# ---------------------------------------------------------------------------

def _unit(v):
    nv = np.linalg.norm(v)
    return v / nv if nv > 0.0 else np.zeros_like(v)


def _gram_factor(p, xtilde, r, eps, theta1, theta2, theta_a):
    """QR of F^T, where the n x (2m+2n+1) matrix F has F F^T = J J^T.

    J is the Jacobian of the eps residual map in the weighted perturbation
    (theta_a vec(E), theta1 f, theta2 g).  The first three blocks of F
    give its E part, ||r||^2 I - x s^T - s x^T + ||x||^2 A^T A, s = A^T r;
    the last its g part, (1 - eps^2 c^T x) I - eps^2 c x^T.  Hats are
    unit vectors, and the hat of a zero vector is zero, so x = 0 and
    r = 0 need no branch.  With F^T = Q R, ||J^dagger h|| = ||R^-T h||.
    """
    if not (theta1 > 0.0 and theta2 > 0.0 and theta_a > 0.0):
        raise InvalidParameter("theta weights must be positive")
    a, c = p.a, p.c
    nr, nx = np.linalg.norm(r), np.linalg.norm(xtilde)
    xh, rh = _unit(xtilde), _unit(r)
    ctx = float(c @ xtilde)
    c_block = (1.0 - eps * eps * ctx) * np.eye(p.n) - (eps * eps) * np.outer(c, xtilde)
    f = np.hstack([
        (nr * xh - nx * (a.T @ rh))[:, None] / theta_a,
        (nr / theta_a) * (np.eye(p.n) - np.outer(xh, xh)),
        (-nx / theta_a) * (a - np.outer(rh, rh @ a)).T,
        a.T / theta1,
        c_block / theta2,
    ])
    return la.qr_factorize(f.T)


def _eta(p, xtilde, eps, theta1, theta2, theta_a):
    """(z, r, F^T = Q R) of xtilde for the eps residual map (eps = 0: base).

    z = R^-T h, h = A^T r + c - eps^2 (c^T xtilde) c, so ||z|| is the
    backward error and R^-1 z = (J J^T)^-1 h.
    """
    r = p.residual(xtilde)
    h = p.a.T @ r + p.c - (eps * eps * float(p.c @ xtilde)) * p.c
    f = _gram_factor(p, xtilde, r, eps, theta1, theta2, theta_a)
    return la.solve_triangular(f.r.T, h, lower=True), r, f


def linearized_backward_error(p, xtilde, theta1=1.0, theta2=1.0,
                              theta_a=1.0):
    """Minimum norm of the linearized perturbations admitting xtilde.

    Measures the smallest ||(theta_a vec(E), theta1 f, theta2 g)|| such
    that, to first order, (A+E)^T (b+f - (A+E) xtilde) + c + g = 0.
    The thetas weight the perturbation components against each other;
    theta = inf semantics (frozen data) are not supported here.
    """
    z = _eta(p, _check_x(p, xtilde), 0.0, theta1, theta2, theta_a)[0]
    return float(np.linalg.norm(z))


def linearized_backward_error_eps(p, xtilde, eps=DEFAULT_EPS,
                                  theta1=1.0, theta2=1.0, theta_a=1.0):
    """Backward error of xtilde for the stacked regularized system.

    The residual gains the term -eps^2 (c^T xtilde) c.
    """
    eps = eps_weight(eps)[0]
    z = _eta(p, _check_x(p, xtilde), eps, theta1, theta2, theta_a)[0]
    return float(np.linalg.norm(z))


def relative_backward_error(p, xtilde):
    """Backward error with every component measured against its data norm.

    Weights are 1/||A||_F, 1/||b||, 1/||c|| so the result is the
    dimensionless size of the smallest admitting perturbation relative
    to the data; a backward-stable iterate scores a small multiple of
    the unit roundoff.  Zero data components fall back to weight one.
    """
    naf = np.sqrt(np.sum(p.a * p.a))
    nb = np.linalg.norm(p.b)
    nc = np.linalg.norm(p.c)
    return linearized_backward_error(
        p, xtilde,
        theta1=1.0 / nb if nb > 0.0 else 1.0,
        theta2=1.0 / nc if nc > 0.0 else 1.0,
        theta_a=1.0 / naf if naf > 0.0 else 1.0,
    )


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


def minimum_norm_perturbation(p, xtilde, theta1=1.0, theta2=1.0):
    """Smallest linearized perturbation triple admitting xtilde.

    Returns (E, f, g) with (A+E)^T (b+f - (A+E) xtilde) + c + g = 0 up
    to second order in the perturbation.
    """
    xtilde = _check_x(p, xtilde)
    z, r, f = _eta(p, xtilde, 0.0, theta1, theta2, 1.0)
    # y = (J J^T)^-1 h; the triple is -J^T y, mapped back to data units.
    y = la.solve_triangular(f.r, z)
    ay = p.a @ y
    return PerturbationTriple(e=np.outer(ay, xtilde) - np.outer(r, y),
                              f=-ay / theta1 ** 2, g=-y / theta2 ** 2)


# ---------------------------------------------------------------------------
# Bounds and indicators
# ---------------------------------------------------------------------------

def _sm_terms(p, eps):
    """(w, den): w = (A^T A)^-1 c and den = 1 + eps^2 c^T w > 0."""
    w = la.qr_gram_solve(p.qr(), p.c)
    den = 1.0 + eps * eps * float(p.c @ w)
    if den <= 0.0:
        raise DenominatorVanishes(f"1 + eps^2 c^T w = {den:.3e}")
    return w, den


def sm_proximity_bound(p, eps=DEFAULT_EPS):
    """Distance bound between the regularized and base solutions.

    ||x_eps - x|| <= eps^2 ||c|| ||w|| / (1 + eps^2 c^T w) with
    w = (A^T A)^-1 c.
    """
    eps = eps_weight(eps)[0]
    w, den = _sm_terms(p, eps)
    return float(eps * eps * np.linalg.norm(p.c) * np.linalg.norm(w) / den)


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


def cg_inadequacy_indicator(p, x):
    """Ratio of the formed-once right-hand side's weight to the data size.

    Values near one mean the single rounding of A^T b + c carries as
    much weight as the data itself, so methods that never revisit b and
    c cannot do better than that rounding allows.
    """
    x = _check_x(p, x)
    r = p.residual(x)
    nb = np.linalg.norm(p.b)
    nc = np.linalg.norm(p.c)
    nx = np.linalg.norm(x)
    na = p.sigma_max()
    bracket = (
        1.0 + np.linalg.norm(r) + 2.0 * np.sqrt(nc * nx)
        + (1.0 + nx) * p.sigma_min()
    )
    return float((nb * na + nc) / (bracket * problem_data_norm(p)))


def rank_one_identity_norm(u, v):
    """Spectral norm of I + u v^T by restriction to span{u, v}."""
    u = la.as_vector(u, "u")
    v = la.as_vector(v, "v")
    if u.shape != v.shape:
        raise DimensionMismatch("u and v must have equal length")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 1.0
    q1 = u / nu
    vperp = v - float(q1 @ v) * q1
    nvp = np.linalg.norm(vperp)
    if nvp <= 1e-15 * nv:
        basis = q1[:, None]
    else:
        basis = np.column_stack([q1, vperp / nvp])
    small = basis.T @ basis + np.outer(basis.T @ u, basis.T @ v)
    if small.shape[0] == 1:
        smax = abs(small[0, 0])
    else:
        # Largest singular value of a 2x2 without forming the Gram matrix.
        s = np.hypot(small[0, 0] + small[1, 1], small[0, 1] - small[1, 0])
        d = np.hypot(small[0, 0] - small[1, 1], small[0, 1] + small[1, 0])
        smax = 0.5 * (s + d)
    return float(max(1.0, smax))


# ---------------------------------------------------------------------------
# Forward error estimates
# ---------------------------------------------------------------------------

def forward_error_estimates(p, xhat, eps=DEFAULT_EPS,
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
    the "cglsi" computation.
    """
    xhat = _check_x(p, xhat)
    want = set(methods)
    unknown = want - {"cg", "cglsi", "cglseps"}
    if unknown:
        raise InvalidParameter(f"unknown methods: {sorted(unknown)}")
    nx = np.linalg.norm(xhat)
    if nx == 0.0:
        raise ZeroVector("estimates need a nonzero iterate")
    out = {}
    if want & {"cg", "cglsi"}:
        etab = linearized_backward_error(p, xhat)
        base = structured_cond_base(p, xhat) * etab / nx
        if "cglsi" in want:
            out["cglsi"] = float(base)
        if "cg" in want:
            na = p.sigma_max()
            kap = p.kappa()
            floor = la.U * kap * kap * (
                np.linalg.norm(p.b) / na + np.linalg.norm(p.c) / (na * na)
            )
            out["cg"] = float(base + floor / nx)
    if "cglseps" in want:
        eps = eps_weight(eps)[0]
        w, den = _sm_terms(p, eps)
        amplify = rank_one_identity_norm(-(eps * eps / den) * w, p.c)
        etab_e = linearized_backward_error_eps(p, xhat, eps)
        out["cglseps"] = float(
            sm_proximity_bound(p, eps)
            + structured_cond_eps(p, xhat, eps) * etab_e * amplify / nx
        )
    return out


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
    x = _check_x(p, x)
    dn = problem_data_norm(p)
    nx = np.linalg.norm(x)
    ac = structured_cond_base(p, x)
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
    xtilde = _check_x(p, xtilde)
    v = la.as_vector(v, "v")
    if v.shape[0] != p.m:
        raise DimensionMismatch("v length does not match row count")
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
