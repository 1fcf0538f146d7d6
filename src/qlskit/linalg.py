"""Dense numerical kernels: QR, singular values, symmetric spectral norm, LDLT.

Everything operates on binary64 numpy arrays at desk scale (a few hundred
rows).  Kernels that buy no accuracy are LAPACK's: the unpivoted QR is
geqrf (``np.linalg.qr`` in raw mode), the triangular solve is getrs on
one triangle, and `svd` takes the singular values of a matrix or a stack
from gesdd, around an exact power-of-two scaling.  Hand-written kernels
stay where they buy accuracy or fix data: the column-pivoted Householder
QR (numpy has no geqp3; it serves the stacked-system solver and the
problem generator), and the Bunch-Kaufman LDLT with 1x1 and 2x2
diagonal blocks, which no solver calls (AUG uses LAPACK's LU).  Every
QR keeps compact Householder reflectors, so products with Q or its
transpose never form Q; the Householder QR and those products also
take a (B, m, n) stack, each matrix bitwise its own call.
"""

import math

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

# Data whose largest magnitude lies within 2^+-SAFE_EXPONENT is used as
# it is; products of up to four entries of A with two of b then stay
# normal up to kappa 1e16.  Other data is scaled by a power of two.
SAFE_EXPONENT = 100


def _as_array(a, name, ndims):
    """`a` as a float64 array with finite entries and ndim in `ndims`."""
    try:
        out = np.asarray(a, dtype=float)
    except ValueError as exc:  # ragged nesting, or not numbers
        raise DimensionMismatch(f"{name} is not a regular array: {exc}") from None
    if out.ndim not in ndims:
        raise DimensionMismatch(
            f"{name} must be {'- or '.join(map(str, ndims))}-d, got ndim={out.ndim}")
    if out.size and not np.isfinite(out).all():
        raise InvalidParameter(f"{name} contains non-finite entries")
    return out


def as_matrix(a, name="matrix"):
    """Validate and return `a` as a 2-d float64 array with finite entries."""
    return _as_array(a, name, (2,))


def scale_exponent(v, axis=None):
    """Exponent e of max |v| (over `axis`, dimensions kept) when it lies
    outside 2^+-SAFE_EXPONENT, else 0: 2^-e v is safe to compute on, and
    data in range is not scaled at all."""
    keep = axis is not None
    big = np.maximum(np.max(v, axis=axis, keepdims=keep),
                     -np.min(v, axis=axis, keepdims=keep))
    e = np.frexp(big)[1]
    return np.where(np.abs(e) > SAFE_EXPONENT, e, 0)


def as_vector(y, name="vector"):
    """Validate and return `y` as a 1-d float64 array with finite entries."""
    return _as_array(y, name, (1,))


def safe_norm(x):
    """2-norm of a vector computed on 2^-e x, e = frexp(max |x|).

    The scaling is exact, so inside the normal range the result is
    bitwise np.linalg.norm(x); near the ends of the exponent range the
    squares no longer overflow or underflow.
    """
    e = math.frexp(float(np.max(np.abs(x))))[1] if np.size(x) else 0
    return float(np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e))


# ---------------------------------------------------------------------------
# QR with compact Householder storage
# ---------------------------------------------------------------------------

@dataclass
class QrFactorization:
    """Householder QR of a tall matrix, A[:, perm] = Q R, or of each
    matrix of a stack (every field then gains a leading axis).

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


def _tall(a):
    """`a` as a validated (m, n) float matrix, or (B, m, n) stack, with
    m >= n >= 1."""
    a = _as_array(a, "a", (2, 3))
    m, n = a.shape[-2:]
    if m < n:
        raise DimensionMismatch(f"need rows >= cols, got {m} x {n}")
    if n == 0:
        raise DimensionMismatch("matrix has no columns")
    return a


def aligned_stack(count, rows, cols):
    """Uninitialized (count, rows, cols) stack whose matrices each start on
    a 16-byte boundary, as a fresh array does.  Some BLAS kernels (Katmai,
    Prescott) sum a vector in another order when it starts 8 bytes off
    that boundary, so a stacked vector or matrix gets the rounding of its
    own call only at the alignment its own call has."""
    size = rows * cols
    return np.empty((count, size + size % 2))[:, :size].reshape(count, rows, cols)


# Stacked products that meet the BLAS calls of the one-problem expressions,
# so every value of a stack is bitwise that of its B = 1 stack.
def mv(a, x):
    """a @ x per matrix of a stack (one gemv each)."""
    return (a @ x[..., None])[..., 0]


def dot(u, v):
    """u . v per row of two (B, k) stacks (one dot each)."""
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def _reflect(dst, tw, t, act):
    """dst -= tw t^T (tw (B, k), t (B, 1, c), dst (B, k, c)) in the
    matrices marked by `act` (True: all); the others stay bitwise, as when
    their step is skipped."""
    np.subtract(dst, tw[:, :, None] * t, out=dst,
                where=act if act is True else act[:, None, None])


# Matrices per stacked Householder call where a caller has more: larger
# stacks save little time and hold more memory.
STACK_CHUNK = 8


def householder_qr(a, pivoting=False):
    """Hand-written Householder QR, A[:, perm] = Q R, with no rank check,
    of one matrix or of each matrix of a (B, m, n) stack.

    The reflectors follow LAPACK's geqrf storage and sign rule.  With
    `pivoting` each step brings the column of largest remaining norm
    forward; ties break to the lowest index, and the norms are recomputed
    each step, so the pivot order is deterministic.  A stack runs each
    step for all its matrices in one numpy call per operation; every
    matrix and work vector sits at the alignment of its own call (see
    `aligned_stack`), so each matrix's R, reflectors, tau and perm are
    bitwise those of its own call, and a 2-d input is the B = 1 case.
    This loop serves the pivoted `qr_factorize` and the problem
    generator, whose data its exact arithmetic fixes.
    """
    a = _tall(a)
    single = a.ndim == 2
    v = aligned_stack(*(a[None] if single else a).shape)
    v[...] = a
    tau, perm = _householder(v, pivoting)
    r = np.triu(v[:, :v.shape[2]])
    if single:
        v, tau, r, perm = v[0], tau[0], r[0], perm[0]
    return QrFactorization(v, tau, r, perm, pivoted=bool(pivoting))


def _householder(v, pivoting):
    """The steps of `householder_qr` on an `aligned_stack` v, in place:
    R and the reflectors overwrite v.  Returns (tau, perm)."""
    nb, m, n = v.shape
    tau, perm = np.zeros((nb, n)), np.tile(np.arange(n), (nb, 1))
    work, each = aligned_stack(nb, 1, m)[:, 0], np.arange(nb)
    for k in range(n):
        if pivoting:
            norms = np.einsum("bij,bij->bj", v[:, k:, k:], v[:, k:, k:])
            j = k + np.argmax(norms, axis=1)
            v[each, :, k], v[each, :, j] = v[each, :, j], v[each, :, k]
            perm[each, k], perm[each, j] = perm[each, j], perm[each, k]
        x = v[:, k:, k]
        sigma = np.sqrt(dot(x, x))
        # No reflector (tau stays 0) only when x[1:] is exactly zero, as in
        # LAPACK's dlarfg, or when every square underflows.
        act = (sigma != 0.0) & x[:, 1:].any(axis=1)
        if not act.any():
            continue
        alpha = x[:, 0]
        rkk = -np.copysign(sigma, alpha)
        w = work[:, :m - k]
        np.divide(x, np.where(act, alpha - rkk, 1.0)[:, None], out=w)
        w[:, 0] = 1.0
        tau[:, k] = np.where(act, 2.0 / dot(w, w), 0.0)
        if k + 1 < n:
            t = w[:, None] @ v[:, k:, k + 1:]
            _reflect(v[:, k:, k + 1:], tau[:, k, None] * w, t,
                     True if act.all() else act)
        w[:, 0] = rkk
        v[:, k:, k] = np.where(act[:, None], w, x)
    return tau, perm


def qr_factorize(a, pivoting=False):
    """Factor a tall matrix as A[:, perm] = Q R, or each matrix of a
    (B, m, n) stack (every field of the factorization then gains a
    leading axis, each matrix's bitwise its own call's).

    Without pivoting this is LAPACK's geqrf (``np.linalg.qr`` in raw
    mode).  With pivoting it is `householder_qr`, on each matrix scaled
    by a power of two when its largest entry lies outside
    2^+-SAFE_EXPONENT (R is scaled back, exactly).

    Parameters
    ----------
    a : (m, n) or (B, m, n) array_like, m >= n
        Matrix to factor; must have full column rank.
    pivoting : bool
        Enable column pivoting on the largest remaining column norm.

    Returns
    -------
    QrFactorization

    Raises
    ------
    RankDeficient
        If any |R[k, k]| <= n * u * |R[0, 0]| (of any matrix of a stack).
    """
    a = _tall(a)
    n = a.shape[-1]
    if pivoting:
        e = scale_exponent(a, axis=(-2, -1))
        f = householder_qr(np.ldexp(a, -e) if e.any() else a, pivoting=True)
        if e.any():
            f.r = np.ldexp(f.r, e)
            upper = np.triu_indices(n)
            f.reflectors[..., upper[0], upper[1]] = f.r[..., upper[0], upper[1]]
    else:
        h, tau = np.linalg.qr(a, mode="raw")
        v = h.mT
        f = QrFactorization(v, tau, np.triu(v[..., :n, :]),
                            np.broadcast_to(np.arange(n), tau.shape))
    d = np.abs(np.diagonal(f.r, axis1=-2, axis2=-1))
    if np.any(d <= n * U * d[..., :1]):
        raise RankDeficient("triangular factor has a negligible diagonal entry")
    return f


def _apply_reflectors(f, y, transpose):
    """Q y or Q^T y for one QR, y (m,) or (m, p), or for each QR of a
    stack, y (B, m, p) or one (m, p) for all; stacked as in
    `householder_qr`, so each product is bitwise its own call's."""
    h, tau = f.reflectors, f.tau
    single = h.ndim == 2
    if single:
        h, tau = h[None], tau[None]
    nb, m, n = h.shape
    y = np.asarray(y, dtype=float)
    vec = y.ndim == 1
    if vec:
        y = y[:, None]
    if y.shape[-2] != m:
        raise DimensionMismatch(f"operand has {y.shape[-2]} rows, expected {m}")
    z = aligned_stack(nb, m, y.shape[-1])
    z[...] = y
    work = aligned_stack(nb, 1, m)[:, 0]
    work[:, 0] = 1.0
    act = tau != 0.0
    some, every = act.any(axis=0).tolist(), act.all(axis=0).tolist()
    for k in (range(n) if transpose else range(n - 1, -1, -1)):
        if not some[k]:
            continue
        w = work[:, :m - k]
        w[:, 1:] = h[:, k + 1:, k]
        t = w[:, None] @ z[:, k:]
        _reflect(z[:, k:], tau[:, k, None] * w, t, every[k] or act[:, k])
    z = z[0] if single else z
    return z[..., 0] if vec else z


def apply_q_transpose(f, y):
    """Return Q^T y from the stored reflectors without forming Q."""
    return _apply_reflectors(f, y, transpose=True)


def apply_q(f, y):
    """Return Q y from the stored reflectors without forming Q."""
    return _apply_reflectors(f, y, transpose=False)


def _columns(y, t):
    """(y as a float array in column form (..., n, k), whether it was one
    vector per matrix of `t`): y is a vector when it has one dimension
    fewer than t."""
    y = np.asarray(y, dtype=float)
    vec = y.ndim == t.ndim - 1
    return (y[..., None] if vec else y), vec


def solve_triangular(t, y, lower=False):
    """Solve T x = y for a nonsingular triangular T, or each T of a
    (B, n, n) stack; y is a vector or a matrix per T.

    Only the named triangle of `t` is read.  The solve is LAPACK's
    getrf + getrs on that triangle: LU with partial pivoting of an upper
    triangular matrix swaps no rows and has L = I exactly, so getrs
    reduces to the triangular solve.  A lower T is solved as the upper
    J T J, J the reversal.  A stack is one ``np.linalg.solve`` call, each
    solution bitwise its own call's.  Raises SingularDiagonal on an
    exactly zero diagonal entry (of any T of a stack).
    """
    t = _as_array(t, "t", (2, 3))
    n = t.shape[-1]
    if t.shape[-2] != n:
        raise DimensionMismatch("triangular matrix must be square")
    z, vec = _columns(y, t)
    if z.ndim != t.ndim or z.shape[-2] != n or z.shape[:-2] != t.shape[:-2]:
        raise DimensionMismatch(
            f"right-hand side has shape {np.shape(y)}, expected {n} rows")
    if np.any(np.diagonal(t, axis1=-2, axis2=-1) == 0.0):
        raise SingularDiagonal("zero diagonal entry in triangular solve")
    if lower:
        # Contiguous, so a product with x meets the BLAS kernel it would
        # meet on a fresh array.
        x = np.ascontiguousarray(np.linalg.solve(
            np.triu(t[..., ::-1, ::-1]), z[..., ::-1, :])[..., ::-1, :])
    else:
        x = np.linalg.solve(np.triu(t), z)
    return x[..., 0] if vec else x


def _unpermute(f, y):
    """Rows of y (column form) back in the original column order."""
    if not f.pivoted:
        return y
    out = np.empty_like(y)
    np.put_along_axis(out, np.broadcast_to(f.perm[..., None], y.shape), y,
                      axis=-2)
    return out


def qr_gram_solve(f, rhs):
    """Solve (A^T A) z = rhs through R^T R using the QR factors of A, or of
    each A of a stack (rhs then (B, n) or (B, n, k)).

    Works for vector or matrix right-hand sides; A^T A is never formed.
    """
    z, vec = _columns(rhs, f.r)
    if f.pivoted:
        z = np.take_along_axis(z, np.broadcast_to(f.perm[..., None], z.shape),
                               axis=-2)
    w = solve_triangular(f.r.mT, z, lower=True)
    y = _unpermute(f, solve_triangular(f.r, w, lower=False))
    return y[..., 0] if vec else y


def qr_lstsq(f, y):
    """Return argmin_z ||A z - y|| using the QR factors of A, or of each A
    of a stack (y then (B, m) or (B, m, k))."""
    n = f.r.shape[-1]
    z, vec = _columns(y, f.r)
    qty = apply_q_transpose(f, z)
    w = _unpermute(f, solve_triangular(f.r, qty[..., :n, :], lower=False))
    return w[..., 0] if vec else w


# ---------------------------------------------------------------------------
# Singular values
# ---------------------------------------------------------------------------

def svd(a):
    """Singular values, descending, of one matrix (result (n,)) or of each
    matrix of a (B, m, n) stack (result (B, n)), from LAPACK.

    Each matrix is scaled by 2^-e, e = frexp(max |a|), which is exact and
    keeps its entries from overflowing or underflowing, and its rows are
    sorted by decreasing max |a_ij|, the order Cox and Higham give
    Householder QR for row-wise stability.  That leaves the singular
    values as they are, and on rows that mix a large entry with tiny ones
    it keeps tiny values that LAPACK loses on some row orders (returning
    0).  One ``np.linalg.svd(compute_uv=False)`` call (gesdd) then
    takes the whole stack, each matrix's values bitwise its own call's,
    and they are scaled back by 2^e.  The values carry an error of a small
    multiple of u ||A||: no more than rounding the entries of an ungraded
    A = fl(U Sigma V^T) already moves them.  An m < n input goes through
    its transpose; a LAPACK failure to converge raises NoConvergence.
    """
    s = _as_array(a, "a", (2, 3))
    if s.shape[-2] < s.shape[-1]:
        s = s.mT
    if not s.size:
        return np.zeros(s.shape[:-2] + s.shape[-1:])
    big = np.maximum(s.max(axis=-1), -s.min(axis=-1))  # row maxima of |a|
    e = np.frexp(big.max(axis=-1))[1][..., None]
    # Keys scaled exactly as the rows are, so 2^k A sorts as A does.
    rows = np.argsort(-np.ldexp(big, -e), axis=-1, kind="stable")
    s = np.ldexp(np.take_along_axis(s, rows[..., None], axis=-2), -e[..., None])
    try:
        sigma = np.linalg.svd(s, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK SVD did not converge: {exc}") from None
    return np.ldexp(sigma, e)


# ---------------------------------------------------------------------------
# Symmetric spectral norm
# ---------------------------------------------------------------------------

def _symmetric_part(m):
    """Return (M + M^T) / 2 of a matrix or of each matrix of a stack;
    NotSymmetric if ||M - M^T||_F > 10 u ||M||_F.

    The norms are taken of M / max|M| and the halves are added, so huge
    entries cannot overflow.
    """
    m = _as_array(m, "m", (2, 3))
    if m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch("matrix must be square")
    if m.size:
        scale = np.max(np.abs(m), axis=(-2, -1), keepdims=True)
        s = m / np.where(scale > 0.0, scale, 1.0)
        if np.any(np.sqrt(np.sum((s - s.mT) ** 2, axis=(-2, -1)))
                  > 10.0 * U * np.sqrt(np.sum(s * s, axis=(-2, -1)))):
            raise NotSymmetric("matrix is not symmetric to working precision")
    return 0.5 * m + 0.5 * m.mT


def sym_spectral_norm(m):
    """Largest |eigenvalue| of a symmetric matrix, or of each matrix of a
    (B, n, n) stack (result (B,)).

    The eigenvalues come from LAPACK's symmetric eigensolver
    (``np.linalg.eigvalsh``, one call for a stack, each matrix's values
    bitwise its own call's), which is backward stable, so the result
    carries an absolute error of a small multiple of u ||M||_2.  Asymmetry
    beyond 10 u ||M||_F raises NotSymmetric; smaller asymmetry is
    symmetrized away.  The zero matrix returns 0.0.
    """
    m = _symmetric_part(m)
    nonzero = m.any(axis=(-2, -1))
    if not nonzero.any():
        return 0.0 if m.ndim == 2 else np.zeros(m.shape[0])
    w = np.linalg.eigvalsh(m)
    low, high = -w[..., 0], w[..., -1]
    out = np.where(nonzero, np.where(high > low, high, low), 0.0)
    return float(out) if m.ndim == 2 else out


# ---------------------------------------------------------------------------
# Bunch-Kaufman LDLT
# ---------------------------------------------------------------------------

_BK_ALPHA = (1.0 + np.sqrt(17.0)) / 8.0


def _pivot_block(e):
    """(E 2^-k, det(E 2^-k), k), k = frexp(max |E|), for a 2x2 pivot E.

    The determinant of the scaled block cannot overflow, and in the
    normal range a result scaled back by 2^-k is bitwise the unscaled one.
    """
    k = math.frexp(float(np.max(np.abs(e))))[1]
    es = np.ldexp(e, -k)
    return es, es[0, 0] * es[1, 1] - es[0, 1] * es[1, 0], k


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
        col = np.abs(a[k:, k])
        col[0] = 0.0
        r = k + int(np.argmax(col))
        colmax = col[r - k]
        size = 1
        if max(absakk, colmax) == 0.0:
            raise Breakdown("zero pivot column in LDLT")
        if absakk < _BK_ALPHA * colmax:
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
                upd = lmat[k + 1:, k, None] * a[k + 1:, k]
                a[k + 1:, k + 1:] -= 0.5 * upd + 0.5 * upd.T
            k += 1
        else:
            d[k:k + 2, k:k + 2] = a[k:k + 2, k:k + 2]
            es, det, sc = _pivot_block(d[k:k + 2, k:k + 2])
            if det == 0.0:
                raise Breakdown("singular 2x2 pivot in LDLT")
            blocks.append(2)
            if k + 2 < n:
                wmat = a[k + 2:, k:k + 2]
                adj = np.array([[es[1, 1], -es[0, 1]], [-es[1, 0], es[0, 0]]])
                inv = np.ldexp(adj / det, -sc)
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
            e, det, sc = _pivot_block(f.d[k:k + 2, k:k + 2])
            w0 = (e[1, 1] * w[k] - e[0, 1] * w[k + 1]) / det
            w1 = (-e[1, 0] * w[k] + e[0, 0] * w[k + 1]) / det
            w[k], w[k + 1] = np.ldexp(w0, -sc), np.ldexp(w1, -sc)
            k += 2
    s = solve_triangular(f.l.T, w, lower=False)
    out = np.empty_like(s)
    out[f.perm] = s
    return out
