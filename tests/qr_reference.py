"""Single-matrix Householder loops, the reference for the stacked QR.

``householder_qr`` and ``apply_reflectors`` factor one matrix and apply
its Q or Q^T one column step at a time, each work vector a fresh array.
``qlskit.linalg.householder_qr`` and ``apply_q``/``apply_q_transpose``
run the same operations on a (B, m, n) stack, so each matrix's R,
reflectors, tau, perm and Q products must be bitwise these loops'.
``stacks`` names the cases and ``mismatches`` lists the ones that are
not.  ``thin_mismatches`` does the same for the thin seeded factors of
``qlskit.problems.orthogonal_factors``, which must be bitwise the
leading columns of the square ones.
"""

import numpy as np

from qlskit import linalg, problems


def householder_qr(a, pivoting=False):
    """(reflectors, tau, r, perm) of A[:, perm] = Q R for one matrix."""
    v = np.array(a, dtype=float)
    n = v.shape[1]
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
        if sigma == 0.0 or not x[1:].any():
            continue
        alpha = x[0]
        rkk = -np.copysign(sigma, alpha)
        w = x / (alpha - rkk)
        w[0] = 1.0
        tau[k] = 2.0 / (w @ w)
        if k + 1 < n:
            t = w @ v[k:, k + 1:]
            v[k:, k + 1:] -= (tau[k] * w)[:, None] * t
        v[k, k] = rkk
        v[k + 1:, k] = w[1:]
    return v, tau, np.triu(v[:n]), perm


def apply_reflectors(reflectors, tau, y, transpose):
    """Q^T y (`transpose`) or Q y for one matrix's stored reflectors."""
    z = np.array(y, dtype=float)
    vec = z.ndim == 1
    if vec:
        z = z[:, None]
    n = reflectors.shape[1]
    for k in range(n) if transpose else range(n - 1, -1, -1):
        if tau[k] == 0.0:
            continue
        w = np.concatenate(([1.0], reflectors[k + 1:, k]))
        z[k:] -= (tau[k] * w)[:, None] * (w @ z[k:])
    return z[:, 0] if vec else z


def stacks():
    """Named (B, m, n) stacks.

    "one": a stack of one.  "odd": 7 x 3 matrices, so m x n and every
    other m - k are odd and, unpadded, every other matrix or work vector
    would start 8 bytes off a 16-byte boundary.  "ties": +-1 and 0/1
    matrices whose columns have equal norms, so pivoting breaks ties.
    "zero_tail": a column whose entries below the diagonal are exactly
    zero (tau = 0), between matrices that need every reflector.
    "underflow": a column whose squares all underflow (tau = 0 with a
    nonzero tail).  "set_p_size": 100 x 50 Gaussian matrices.
    """
    rng = np.random.default_rng(29)
    plain = rng.standard_normal((6, 4))
    zero_tail = plain.copy()
    zero_tail[1:, 0] = 0.0
    zero_tail[3:, 2] = 0.0
    tiny = plain.copy()
    tiny[:, 1] = 1e-170 * rng.standard_normal(6)
    signs = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1],
                      [1, -1, -1, 1], [1, 1, 1, -1]], dtype=float)
    return {
        "one": rng.standard_normal((1, 9, 5)),
        "odd": rng.standard_normal((5, 7, 3)),
        "ties": np.stack([signs, signs[:, ::-1], (signs > 0) * 1.0]),
        "zero_tail": np.stack([plain, zero_tail, -plain, zero_tail[::-1]]),
        "underflow": np.stack([plain, tiny, tiny * 2.0, plain[::-1]]),
        "set_p_size": rng.standard_normal((3, 100, 50)),
    }


def _same(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def mismatches():
    """(case, what) pairs where a stacked call is not bitwise the loops:
    householder_qr with and without pivoting, its B = 1 calls, and Q and
    Q^T of a stacked (B, m, 2) operand, of the identity for all, and of a
    vector in a B = 1 call."""
    bad = []
    for name, stack in stacks().items():
        m = stack.shape[1]
        y = np.random.default_rng(3).standard_normal((len(stack), m, 2))
        for pivoting in (False, True):
            tag = "pivoted" if pivoting else "unpivoted"
            f = linalg.householder_qr(stack, pivoting=pivoting)
            products = [(transpose, apply, apply(f, y), apply(f, np.eye(m)))
                        for transpose, apply in ((True, linalg.apply_q_transpose),
                                                 (False, linalg.apply_q))]
            for b, a in enumerate(stack):
                want = householder_qr(a, pivoting)
                one = linalg.householder_qr(a, pivoting=pivoting)
                if not all(map(_same, (f.reflectors[b], f.tau[b], f.r[b],
                                       f.perm[b]), want)):
                    bad.append((name, f"{tag} stack"))
                if not all(map(_same, (one.reflectors, one.tau, one.r,
                                       one.perm), want)):
                    bad.append((name, f"{tag} B = 1"))
                for transpose, apply, qy, qi in products:
                    if not (_same(qy[b], apply_reflectors(*want[:2], y[b], transpose))
                            and _same(qi[b], apply_reflectors(*want[:2], np.eye(m),
                                                              transpose))):
                        bad.append((name, f"{tag} Q products"))
                    if not _same(apply(one, y[b, :, 0]), apply_reflectors(
                            *want[:2], y[b, :, 0], transpose)):
                        bad.append((name, f"{tag} Q vector"))
    return sorted(set(bad))


# (dim, cols) of the thin-factor cases: set_p's and table's U, an odd
# width, and three where cols + THIN_PAD >= dim, so the thin QR is the
# square one: an odd order, cols = dim - 1, and set_p's order.
THIN_SHAPES = ((100, 50), (40, 20), (60, 7), (7, 3), (33, 32), (100, 97))


def thin_mismatches():
    """(dim x cols, kind) pairs where orthogonal_factors(dim, specs,
    cols) is not bitwise orthogonal_factors(dim, specs)[:, :cols], over
    three seeds of every kind (12 seeded factors: a full stack and a
    partial one)."""
    specs = [(kind, seed) for seed in (0, 401, 1729) for kind in range(1, 7)]
    bad = []
    for dim, cols in THIN_SHAPES:
        square = problems.orthogonal_factors(dim, specs)
        thin = problems.orthogonal_factors(dim, specs, cols)
        bad += [(f"{dim} x {cols}", kind)
                for (kind, _), q, t in zip(specs, square, thin)
                if not _same(t, q[:, :cols])]
    return sorted(set(bad))
