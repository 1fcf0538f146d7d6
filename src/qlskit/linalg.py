"""Dense numerical kernels: QR, SVD, symmetric spectral norm, LDLT.

Everything operates on binary64 numpy arrays at desk scale (a few hundred
rows).  The factorizations keep the storage conventions the rest of the
package relies on: QR holds compact Householder reflectors so products
with Q or its transpose never form Q, the SVD is a one-sided Jacobi
iteration (accurate for small singular values), and the LDLT factorization
uses Bunch-Kaufman pivoting with 1x1 and 2x2 diagonal blocks.
"""

import numpy as np
from dataclasses import dataclass, field

from .errors import (
    Breakdown,
    DimensionMismatch,
    InvalidParameter,
    NoConvergence,
    NotSymmetric,
    RankDeficient,
    SingularDiagonal,
)

# Unit roundoff of binary64.
U = 2.0 ** -53


def as_matrix(a, name="matrix"):
    """Validate and return `a` as a 2-d float64 array with finite entries."""
    out = np.asarray(a, dtype=float)
    if out.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got ndim={out.ndim}")
    if out.size and not np.isfinite(out).all():
        raise InvalidParameter(f"{name} contains non-finite entries")
    return out


def as_vector(y, name="vector"):
    """Validate and return `y` as a 1-d float64 array with finite entries."""
    out = np.asarray(y, dtype=float)
    if out.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got ndim={out.ndim}")
    if out.size and not np.isfinite(out).all():
        raise InvalidParameter(f"{name} contains non-finite entries")
    return out


# ---------------------------------------------------------------------------
# QR with compact Householder storage
# ---------------------------------------------------------------------------

@dataclass
class QrFactorization:
    """Householder QR of a tall matrix, A[:, perm] = Q R.

    `reflectors` stores R in its upper triangle and the reflector vectors
    (implicit unit first component) below the diagonal; `tau` holds the
    reflector scalings.  `perm[i]` is the original column sitting at
    position i after pivoting (identity when pivoting was off).
    """

    reflectors: np.ndarray
    tau: np.ndarray
    r: np.ndarray
    perm: np.ndarray
    pivoted: bool = False

    @property
    def shape(self):
        return self.reflectors.shape


def qr_factorize(a, pivoting=False):
    """Factor a tall matrix as A[:, perm] = Q R.

    Parameters
    ----------
    a : (m, n) array_like, m >= n
        Matrix to factor; must have full column rank.
    pivoting : bool
        Enable column pivoting on the largest remaining column norm.
        Ties break to the lowest column index; norms are recomputed each
        step so the pivot order is deterministic.

    Returns
    -------
    QrFactorization

    Raises
    ------
    RankDeficient
        If any |R[k, k]| <= n * u * |R[0, 0]|.
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    if m < n:
        raise DimensionMismatch(f"need rows >= cols, got {m} x {n}")
    if n == 0:
        raise DimensionMismatch("matrix has no columns")
    v = a.copy()
    tau = np.zeros(n)
    perm = np.arange(n)
    for k in range(n):
        if pivoting:
            norms = np.einsum("ij,ij->j", v[k:, k:], v[k:, k:])
            j = k + int(np.argmax(norms))
            if j != k:
                v[:, [k, j]] = v[:, [j, k]]
                perm[[k, j]] = perm[[j, k]]
        x = v[k:, k]
        sigma = np.sqrt(x @ x)
        if sigma == 0.0:
            continue
        alpha = x[0]
        # Already triangular column: keep it, tau stays 0 (no reflector).
        if sigma == abs(alpha):
            continue
        rkk = -np.copysign(sigma, alpha)
        w = x / (alpha - rkk)
        w[0] = 1.0
        tau[k] = 2.0 / (w @ w)
        if k + 1 < n:
            t = w @ v[k:, k + 1:]
            v[k:, k + 1:] -= np.outer(tau[k] * w, t)
        v[k, k] = rkk
        v[k + 1:, k] = w[1:]
    r = np.triu(v[:n, :n])
    dmax = abs(r[0, 0])
    if np.any(np.abs(np.diag(r)) <= n * U * dmax):
        raise RankDeficient("triangular factor has a negligible diagonal entry")
    return QrFactorization(v, tau, r, perm, pivoted=bool(pivoting))


def _apply_reflectors(f, y, transpose):
    z = np.array(y, dtype=float)
    vec = z.ndim == 1
    if vec:
        z = z[:, None]
    m, n = f.reflectors.shape
    if z.shape[0] != m:
        raise DimensionMismatch(f"operand has {z.shape[0]} rows, expected {m}")
    order = range(n) if transpose else range(n - 1, -1, -1)
    for k in order:
        if f.tau[k] == 0.0:
            continue
        w = np.empty(m - k)
        w[0] = 1.0
        w[1:] = f.reflectors[k + 1:, k]
        z[k:] -= np.outer(f.tau[k] * w, w @ z[k:])
    return z[:, 0] if vec else z


def apply_q_transpose(f, y):
    """Return Q^T y from the stored reflectors without forming Q."""
    return _apply_reflectors(f, y, transpose=True)


def apply_q(f, y):
    """Return Q y from the stored reflectors without forming Q."""
    return _apply_reflectors(f, y, transpose=False)


def solve_triangular(t, y, lower=False):
    """Solve T x = y for a nonsingular triangular T (vector or matrix y).

    Raises SingularDiagonal on an exactly zero diagonal entry.
    """
    t = as_matrix(t, "t")
    n = t.shape[0]
    if t.shape[1] != n:
        raise DimensionMismatch("triangular matrix must be square")
    x = np.array(y, dtype=float)
    vec = x.ndim == 1
    if vec:
        x = x[:, None]
    if x.shape[0] != n:
        raise DimensionMismatch(f"right-hand side has {x.shape[0]} rows, expected {n}")
    if np.any(np.diag(t) == 0.0):
        raise SingularDiagonal("zero diagonal entry in triangular solve")
    if lower:
        for i in range(n):
            x[i] = (x[i] - t[i, :i] @ x[:i]) / t[i, i]
    else:
        for i in range(n - 1, -1, -1):
            x[i] = (x[i] - t[i, i + 1:] @ x[i + 1:]) / t[i, i]
    return x[:, 0] if vec else x


def qr_gram_solve(f, rhs):
    """Solve (A^T A) z = rhs through R^T R using the QR factors of A.

    Works for vector or matrix right-hand sides; A^T A is never formed.
    """
    z = np.array(rhs, dtype=float)
    vec = z.ndim == 1
    if vec:
        z = z[:, None]
    zp = z[f.perm] if f.pivoted else z
    w = solve_triangular(f.r.T, zp, lower=True)
    y = solve_triangular(f.r, w, lower=False)
    out = np.empty_like(y)
    out[f.perm] = y
    return out[:, 0] if vec else out


def qr_lstsq(f, y):
    """Return argmin_z ||A z - y|| using the QR factors of A."""
    n = f.r.shape[0]
    qty = apply_q_transpose(f, y)
    w = solve_triangular(f.r, qty[:n], lower=False)
    out = np.empty_like(w)
    out[f.perm] = w
    return out


# ---------------------------------------------------------------------------
# One-sided Jacobi SVD
# ---------------------------------------------------------------------------

@dataclass
class SvdFactorization:
    """Thin SVD A = U diag(sigma) V^T with sigma descending."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def kappa(self):
        return self.sigma[0] / self.sigma[-1]


def svd(a, tol=1e-15):
    """One-sided Jacobi SVD.

    Columns are rotated pairwise in cyclic sweeps until every pair is
    numerically orthogonal: |a_i . a_j| <= tol * ||a_i|| ||a_j||.  The
    sweep budget is 30 per column; exceeding it raises NoConvergence.

    Parameters
    ----------
    a : (m, n) array_like
        Matrix to decompose.  An m < n input is handled by factoring the
        transpose and swapping the singular vector blocks.
    tol : float
        Pairwise orthogonality threshold.

    Returns
    -------
    SvdFactorization
    """
    a = as_matrix(a, "a")
    m, n = a.shape
    if m < n:
        f = svd(a.T, tol=tol)
        return SvdFactorization(u=f.v, sigma=f.sigma, v=f.u)
    w = a.copy()
    v = np.eye(n)
    colsq = np.einsum("ij,ij->j", w, w)
    converged = False
    for _ in range(30 * max(n, 1)):
        rotated = False
        for i in range(n - 1):
            wi = w[:, i]
            for j in range(i + 1, n):
                wj = w[:, j]
                gamma = wi @ wj
                alpha = colsq[i]
                beta = colsq[j]
                if alpha == 0.0 or beta == 0.0:
                    continue
                if abs(gamma) <= tol * np.sqrt(alpha * beta):
                    continue
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.copysign(1.0, zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                cs = 1.0 / np.hypot(1.0, t)
                sn = cs * t
                ti = cs * wi - sn * wj
                w[:, j] = sn * wi + cs * wj
                w[:, i] = ti
                wi = w[:, i]
                tv = cs * v[:, i] - sn * v[:, j]
                v[:, j] = sn * v[:, i] + cs * v[:, j]
                v[:, i] = tv
                colsq[i] = alpha - t * gamma
                colsq[j] = beta + t * gamma
                rotated = True
        colsq = np.einsum("ij,ij->j", w, w)
        if not rotated:
            converged = True
            break
    if not converged:
        raise NoConvergence("Jacobi SVD sweep budget exhausted")
    sig = np.sqrt(colsq)
    order = np.argsort(-sig, kind="stable")
    sig = sig[order]
    w = w[:, order]
    v = v[:, order]
    u = np.zeros_like(w)
    nz = sig > 0.0
    u[:, nz] = w[:, nz] / sig[nz]
    return SvdFactorization(u=u, sigma=sig, v=v)


# ---------------------------------------------------------------------------
# Symmetric spectral norm
# ---------------------------------------------------------------------------

def _symmetric_part(m):
    """Return (M + M^T) / 2; NotSymmetric if ||M - M^T||_F > 10 u ||M||_F.

    The norms are taken of M / max|M| and the halves are added, so huge
    entries cannot overflow.
    """
    m = as_matrix(m, "m")
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("matrix must be square")
    scale = np.max(np.abs(m)) if m.size else 0.0
    if scale > 0.0:
        s = m / scale
        if np.sqrt(np.sum((s - s.T) ** 2)) > 10.0 * U * np.sqrt(np.sum(s * s)):
            raise NotSymmetric("matrix is not symmetric to working precision")
    return 0.5 * m + 0.5 * m.T


def sym_spectral_norm(m):
    """Largest |eigenvalue| of a symmetric matrix.

    The eigenvalues come from LAPACK's symmetric eigensolver
    (``np.linalg.eigvalsh``), which is backward stable, so the result
    carries an absolute error of a small multiple of u ||M||_2.  Asymmetry
    beyond 10 u ||M||_F raises NotSymmetric; smaller asymmetry is
    symmetrized away.  The zero matrix returns 0.0.
    """
    m = _symmetric_part(m)
    if not m.any():
        return 0.0
    w = np.linalg.eigvalsh(m)
    return float(max(-w[0], w[-1]))


# ---------------------------------------------------------------------------
# Bunch-Kaufman LDLT
# ---------------------------------------------------------------------------

_BK_ALPHA = (1.0 + np.sqrt(17.0)) / 8.0


@dataclass
class LdltFactorization:
    """Symmetric indefinite factorization M[perm][:, perm] = L D L^T.

    L is unit lower triangular, D is block diagonal with the block sizes
    (1 or 2) listed in `blocks`, and `perm` is the symmetric pivot order.
    """

    l: np.ndarray
    d: np.ndarray
    perm: np.ndarray
    blocks: list = field(default_factory=list)


def ldlt_factorize(m):
    """Bunch-Kaufman LDLT of a symmetric matrix.

    The standard partial-pivoting strategy with threshold (1 + sqrt(17))/8
    selects 1x1 or 2x2 diagonal pivots.  Each Schur update is exactly
    symmetric, so the two triangles of the working copy never drift
    apart.  A singular pivot block raises Breakdown.
    """
    a = _symmetric_part(m)
    n = a.shape[0]
    lmat = np.eye(n)
    d = np.zeros((n, n))
    perm = np.arange(n)
    blocks = []

    def swap(i, j, upto):
        # Only columns < upto of L are populated at swap time.
        if i == j:
            return
        a[[i, j], :] = a[[j, i], :]
        a[:, [i, j]] = a[:, [j, i]]
        perm[[i, j]] = perm[[j, i]]
        lmat[[i, j], :upto] = lmat[[j, i], :upto]

    k = 0
    while k < n:
        absakk = abs(a[k, k])
        col = np.abs(a[k + 1:, k])
        if col.size:
            rrel = int(np.argmax(col))
            colmax = col[rrel]
            r = k + 1 + rrel
        else:
            colmax = 0.0
            r = k
        size = 1
        if max(absakk, colmax) == 0.0:
            raise Breakdown("zero pivot column in LDLT")
        if absakk >= _BK_ALPHA * colmax:
            pass
        else:
            row = np.abs(a[r, k:])
            row[r - k] = 0.0
            rowmax = float(np.max(row)) if row.size else 0.0
            # rowmax >= colmax > 0; the quotient form of
            # absakk * rowmax >= alpha * colmax^2 cannot overflow.
            if absakk >= _BK_ALPHA * colmax * (colmax / rowmax):
                pass
            elif abs(a[r, r]) >= _BK_ALPHA * rowmax:
                swap(k, r, k)
            else:
                swap(k + 1, r, k)
                size = 2
        if size == 1:
            piv = a[k, k]
            if piv == 0.0:
                raise Breakdown("zero 1x1 pivot in LDLT")
            d[k, k] = piv
            blocks.append(1)
            if k + 1 < n:
                lmat[k + 1:, k] = a[k + 1:, k] / piv
                upd = np.outer(lmat[k + 1:, k], a[k + 1:, k])
                a[k + 1:, k + 1:] -= 0.5 * upd + 0.5 * upd.T
            k += 1
        else:
            e = a[k:k + 2, k:k + 2].copy()
            det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
            if det == 0.0:
                raise Breakdown("singular 2x2 pivot in LDLT")
            d[k:k + 2, k:k + 2] = e
            blocks.append(2)
            if k + 2 < n:
                wmat = a[k + 2:, k:k + 2]
                inv = np.array([[e[1, 1], -e[0, 1]], [-e[1, 0], e[0, 0]]]) / det
                cmat = wmat @ inv
                lmat[k + 2:, k:k + 2] = cmat
                upd = cmat @ wmat.T
                a[k + 2:, k + 2:] -= 0.5 * upd + 0.5 * upd.T
            k += 2
    return LdltFactorization(lmat, d, perm, blocks)


def ldlt_solve(f, rhs):
    """Solve M x = rhs from an LdltFactorization of M."""
    y = as_vector(rhs, "rhs")
    n = f.l.shape[0]
    if y.shape[0] != n:
        raise DimensionMismatch(f"right-hand side has {y.shape[0]} rows, expected {n}")
    z = y[f.perm]
    w = solve_triangular(f.l, z, lower=True)
    k = 0
    for size in f.blocks:
        if size == 1:
            w[k] = w[k] / f.d[k, k]
            k += 1
        else:
            e = f.d[k:k + 2, k:k + 2]
            det = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
            w0 = (e[1, 1] * w[k] - e[0, 1] * w[k + 1]) / det
            w1 = (-e[1, 0] * w[k] + e[0, 0] * w[k + 1]) / det
            w[k], w[k + 1] = w0, w1
            k += 2
    s = solve_triangular(f.l.T, w, lower=False)
    out = np.empty_like(s)
    out[f.perm] = s
    return out
