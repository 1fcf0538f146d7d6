"""One-problem analysis formulas, the reference for the stacked bodies.

``relative_backward_error`` and ``forward_error_estimates`` of one
problem and one vector, written with 1-d vectors, ``np.linalg.norm``
and Python floats.  ``qlskit.analysis`` must reproduce them bitwise,
for a single problem and for every member of a group, since it
performs the same operations in the same order.
"""

import numpy as np

from qlskit import analysis, linalg as la
from qlskit.problems import eps_weight


def _unit(v):
    nv = np.linalg.norm(v)
    return v / nv if nv > 0.0 else np.zeros_like(v)


def _eta_norm(p, x, eps, t1, t2, ta):
    a, c, n = p.a, p.c, p.n
    r = p.b - a @ x
    h = a.T @ r + c - (eps * eps * float(c @ x)) * c
    nr, nx = np.linalg.norm(r), np.linalg.norm(x)
    xh, rh = _unit(x), _unit(r)
    c_block = ((1.0 - eps * eps * float(c @ x)) * np.eye(n)
               - (eps * eps) * np.outer(c, x))
    f = np.hstack([
        (nr * xh - nx * (a.T @ rh))[:, None] / ta,
        (nr / ta) * (np.eye(n) - np.outer(xh, xh)),
        (-nx / ta) * (a - np.outer(rh, rh @ a)).T,
        a.T / t1,
        c_block / t2,
    ])
    rr = la.qr_factorize(f.T).r
    return np.linalg.norm(la.solve_triangular(rr.T, h, lower=True))


def _cond(p, x, f, eps):
    r = p.b - p.a @ x
    w = la.qr_gram_solve(f, np.eye(p.n))
    b1 = la.qr_lstsq(f, np.pad(r, (0, f.shape[0] - p.m)))
    b2 = w @ x
    lead = (1.0 - 2.0 * eps * float(p.c @ x)) ** 2 + float(r @ r)
    wc = w @ p.c
    middle = w - (eps * eps) * np.outer(wc, wc)
    mbar = (lead * la.qr_gram_solve(f, w) + (1.0 + float(x @ x)) * middle
            - (np.outer(b1, b2) + np.outer(b2, b1)))
    return float(np.sqrt(la.sym_spectral_norm(0.5 * (mbar + mbar.T))))


def relative_backward_error(p, x):
    naf = np.sqrt(np.sum(p.a * p.a))
    nb, nc = np.linalg.norm(p.b), np.linalg.norm(p.c)
    return float(_eta_norm(p, x, 0.0, 1.0 / nb if nb > 0.0 else 1.0,
                           1.0 / nc if nc > 0.0 else 1.0,
                           1.0 / naf if naf > 0.0 else 1.0))


def forward_error_estimates(p, x, eps):
    """All three estimates of one problem at x."""
    nx = np.linalg.norm(x)
    base = (_cond(p, x, la.qr_factorize(p.a), 0.0)
            * _eta_norm(p, x, 0.0, 1.0, 1.0, 1.0) / nx)
    na, kap = p.sigma_max(), p.kappa()
    floor = la.U * kap * kap * (np.linalg.norm(p.b) / na
                                + np.linalg.norm(p.c) / (na * na))
    eps = eps_weight(eps)[0]
    w = la.qr_gram_solve(la.qr_factorize(p.a), p.c)
    den = 1.0 + eps * eps * float(p.c @ w)
    amplify = analysis.rank_one_identity_norm(-(eps * eps / den) * w, p.c)
    sm = eps * eps * np.linalg.norm(p.c) * np.linalg.norm(w) / den
    f_eps = la.qr_factorize(np.vstack([p.a, eps * p.c]))
    cglseps = sm + (_cond(p, x, f_eps, eps)
                    * _eta_norm(p, x, eps, 1.0, 1.0, 1.0) * amplify / nx)
    return {"cglsi": float(base), "cg": float(base + floor / nx),
            "cglseps": float(cglseps)}
