"""Dense kernel tests: QR, SVD, spectral norm, LDLT, triangular solve."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from qlskit import linalg as la, problems
from qlskit.errors import (
    Breakdown,
    DimensionMismatch,
    InvalidParameter,
    NoConvergence,
    NotSymmetric,
    RankDeficient,
    SingularDiagonal,
)

U = np.finfo(float).eps / 2


def reconstruct_qr(f):
    m, n = f.shape
    cols = []
    for j in range(n):
        z = np.zeros(m)
        z[: n] = f.r[:, j]
        cols.append(la.apply_q(f, z))
    return np.column_stack(cols)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        la.as_matrix(np.zeros(3))
    with pytest.raises(InvalidParameter):
        la.as_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(DimensionMismatch):
        la.as_vector(np.zeros((2, 2)))
    with pytest.raises(InvalidParameter):
        la.as_vector([np.inf, 0.0])


def test_qr_identity_is_identity():
    f = la.qr_factorize(np.eye(3))
    assert np.allclose(f.r, np.eye(3))
    assert list(f.perm) == [0, 1, 2]
    assert not f.pivoted


def test_qr_single_column_householder():
    a = np.array([[3.0], [4.0]])
    f = la.qr_factorize(a)
    assert abs(abs(f.r[0, 0]) - 5.0) < 1e-14
    assert np.allclose(reconstruct_qr(f), a, atol=1e-14)


def test_qr_pivoting_against_rational_gram_schmidt():
    # |R| of a pivoted QR is unique; build it exactly over fractions.
    a = np.array([
        [2.0, -1.0, 3.0],
        [0.0, 4.0, 1.0],
        [1.0, 1.0, -2.0],
        [3.0, 0.0, 2.0],
    ])
    f = la.qr_factorize(a, pivoting=True)
    cols = [[Fraction(float(v)) for v in a[:, j]] for j in f.perm]
    rs = [[Fraction(0)] * 3 for _ in range(3)]
    basis = []
    for j in range(3):
        w = cols[j][:]
        for i, q in enumerate(basis):
            qq = sum(t * t for t in q)
            coef = sum(q[k] * cols[j][k] for k in range(4)) / qq
            rs[i][j] = coef
            w = [w[k] - coef * q[k] for k in range(4)]
        basis.append(w)
        rs[j][j] = Fraction(1)
    # scale rows by the basis norms: R[i, j] = coef * ||q_i||
    for i in range(3):
        nrm = float(sum(t * t for t in basis[i])) ** 0.5
        for j in range(3):
            rs[i][j] = float(rs[i][j]) * nrm
    assert np.allclose(np.abs(f.r), np.abs(np.array(rs, dtype=float)), atol=1e-13)
    d = np.abs(np.diag(f.r))
    assert np.all(d[:-1] >= d[1:] - 1e-14)
    q = reconstruct_qr(f) @ np.linalg.inv(f.r)
    assert np.linalg.norm(q.T @ q - np.eye(3)) < 1e-14


def test_qr_reconstruction_and_pivot_order_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = int(rng.integers(3, 9))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n))
        for pivoting in (False, True):
            f = la.qr_factorize(a, pivoting=pivoting)
            err = np.abs(reconstruct_qr(f) - a[:, f.perm])
            assert err.max() <= 50 * U * np.linalg.norm(a)
            if pivoting:
                d = np.abs(np.diag(f.r))
                assert np.all(d[:-1] >= d[1:] - 1e-14 * d[0])


def test_qr_shape_errors():
    with pytest.raises(DimensionMismatch):
        la.qr_factorize(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        la.qr_factorize(np.ones((3, 0)))


def test_apply_q_identity_and_single_column():
    f = la.qr_factorize(np.eye(3))
    y = np.array([1.0, 2.0, 3.0])
    assert np.allclose(la.apply_q_transpose(f, y), y)
    f = la.qr_factorize(np.array([[3.0], [4.0]]))
    z = la.apply_q_transpose(f, np.array([3.0, 4.0]))
    assert abs(abs(z[0]) - 5.0) < 1e-14
    assert abs(z[1]) < 1e-14


def test_apply_q_preserves_norm():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.standard_normal((5, 3))
        f = la.qr_factorize(a)
        y = rng.standard_normal(5)
        assert abs(np.linalg.norm(la.apply_q_transpose(f, y)) - np.linalg.norm(y)) < 1e-14 * np.linalg.norm(y)
        assert np.allclose(la.apply_q(f, la.apply_q_transpose(f, y)), y, atol=1e-13)
    with pytest.raises(DimensionMismatch):
        la.apply_q_transpose(f, np.zeros(4))


def test_qr_lstsq_and_gram_solve():
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.standard_normal((6, 3))
        f = la.qr_factorize(a)
        y = rng.standard_normal(6)
        x = la.qr_lstsq(f, y)
        assert np.allclose(x, np.linalg.lstsq(a, y, rcond=None)[0], atol=1e-12)
        rhs = rng.standard_normal(3)
        w = la.qr_gram_solve(f, rhs)
        assert np.allclose(a.T @ a @ w, rhs, atol=1e-11 * np.linalg.norm(rhs) * f.r[0, 0] ** 2)


def test_qr_rejects_rank_deficient():
    a = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(RankDeficient):
        la.qr_factorize(a)


def test_solve_triangular_hand_cases():
    assert np.allclose(la.solve_triangular(np.eye(2), np.array([5.0, 7.0])), [5.0, 7.0])
    t = np.array([[2.0, 1.0], [0.0, 4.0]])
    assert np.allclose(la.solve_triangular(t, np.array([4.0, 8.0])), [1.0, 2.0])


def test_solve_triangular_residual_random():
    rng = np.random.default_rng(14)
    for _ in range(20):
        t = np.triu(rng.standard_normal((6, 6))) + 4.0 * np.eye(6)
        y = rng.standard_normal(6)
        x = la.solve_triangular(t, y)
        assert np.linalg.norm(t @ x - y) <= 1e-13 * np.linalg.norm(t) * np.linalg.norm(x)
        xl = la.solve_triangular(t.T, y, lower=True)
        assert np.linalg.norm(t.T @ xl - y) <= 1e-13 * np.linalg.norm(t) * np.linalg.norm(xl)


def test_solve_triangular_errors():
    with pytest.raises(DimensionMismatch):
        la.solve_triangular(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatch):
        la.solve_triangular(np.eye(3), np.ones(2))
    with pytest.raises(SingularDiagonal):
        la.solve_triangular(np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones(2))


def test_svd_diagonal_and_kappa():
    f = la.svd(np.diag([3.0, 1.0]))
    assert np.allclose(f.sigma, [3.0, 1.0])
    assert abs(f.kappa - 3.0) < 1e-14


def test_svd_geometric_spectrum_kappa():
    # sigma_i = a^i spectrum with a = 0.5 spans 2^19 decades of kappa
    sig = 0.5 ** np.arange(20)
    f = la.svd(np.diag(sig))
    assert abs(f.kappa - 2.0 ** 19) < 1e-3 * 2.0 ** 19


def test_svd_orthogonal_input_unit_spectrum():
    rng = np.random.default_rng(15)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    f = la.svd(q)
    assert np.all(np.abs(f.sigma - 1.0) < 1e-14)


def test_svd_reconstruction_random():
    rng = np.random.default_rng(16)
    for _ in range(25):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n))
        f = la.svd(a)
        smax = f.sigma[0]
        err = np.abs(f.u @ np.diag(f.sigma) @ f.v.T - a)
        assert err.max() <= 100 * U * smax
        assert np.all(np.diff(f.sigma) <= 0.0)
        assert np.linalg.norm(f.u.T @ f.u - np.eye(n)) <= 100 * U * np.sqrt(n)
        assert np.linalg.norm(f.v.T @ f.v - np.eye(n)) <= 100 * U * np.sqrt(n)
        assert np.allclose(f.sigma, np.linalg.svd(a, compute_uv=False), atol=1e-12 * max(smax, 1.0))


def test_sym_spectral_norm_hand_cases():
    assert abs(la.sym_spectral_norm(2.0 * np.eye(3)) - 2.0) < 1e-14
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert abs(la.sym_spectral_norm(m) - 3.0) < 1e-13
    # M + M^T would overflow here; the symmetric part is taken halves first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = la.sym_spectral_norm(np.array([[1e308, 1e308], [1e308, -1e308]]))
    assert big == pytest.approx(np.sqrt(2.0) * 1e308, rel=1e-14)


def test_sym_spectral_norm_matches_svd():
    rng = np.random.default_rng(17)
    for _ in range(15):
        m = rng.standard_normal((10, 10))
        m = m + m.T
        got = la.sym_spectral_norm(m)
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(got - want) <= 1e-10 * want


def test_sym_spectral_norm_rejects_asymmetric():
    with pytest.raises(DimensionMismatch):
        la.sym_spectral_norm(np.ones((2, 3)))
    with pytest.raises(NotSymmetric):
        la.sym_spectral_norm(np.array([[1.0, 2.0], [0.0, 1.0]]))
    # squaring these entries overflows an unscaled Frobenius norm
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSymmetric):
            la.sym_spectral_norm(np.array([[1e200, 2e200], [0.0, 1e200]]))


def test_ldlt_identity():
    f = la.ldlt_factorize(np.eye(4))
    assert np.allclose(f.l, np.eye(4))
    assert np.allclose(f.d, np.eye(4))
    assert all(b in (1, 2) for b in f.blocks)


def test_ldlt_needs_two_by_two_pivot():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = la.ldlt_factorize(m)
    assert 2 in f.blocks
    back = f.l @ f.d @ f.l.T
    assert np.allclose(back, m[np.ix_(f.perm, f.perm)], atol=1e-15)


def test_ldlt_reconstruction_random():
    rng = np.random.default_rng(18)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n))
        m = m + m.T
        f = la.ldlt_factorize(m)
        back = f.l @ f.d @ f.l.T
        err = np.abs(back - m[np.ix_(f.perm, f.perm)])
        assert err.max() <= 100 * U * np.linalg.norm(m)


@pytest.mark.parametrize("index", [18, 19])
def test_ldlt_reconstruction_set_p_augmented(index):
    # set_p p18 and p19 (kappa 3e9 and 1e10): Schur updates that let the
    # two triangles of the working copy drift apart miss here by ~1e-3
    p = problems.generate_problem_set_p(seed=1729)[index]
    k = problems.build_augmented(p).k
    f = la.ldlt_factorize(k)
    back = f.l @ f.d @ f.l.T
    err = np.linalg.norm(back - k[np.ix_(f.perm, f.perm)]) / np.linalg.norm(k)
    assert err <= 1e-14


def test_ldlt_solve_augmented_residual():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = rng.standard_normal((5, 3))
        k = np.block([[np.eye(5), a], [a.T, np.zeros((3, 3))]])
        f = la.ldlt_factorize(k)
        rhs = rng.standard_normal(8)
        z = la.ldlt_solve(f, rhs)
        assert np.linalg.norm(k @ z - rhs) <= 1e-12 * np.linalg.norm(k) * np.linalg.norm(z)
    with pytest.raises(DimensionMismatch):
        la.ldlt_solve(f, np.ones(7))


def test_ldlt_errors():
    with pytest.raises(DimensionMismatch):
        la.ldlt_factorize(np.ones((2, 3)))
    with pytest.raises(NotSymmetric):
        la.ldlt_factorize(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSymmetric):
            la.ldlt_factorize(np.array([[1e200, 2e200], [0.0, 1e200]]))
    with pytest.raises(Breakdown):
        la.ldlt_factorize(np.zeros((3, 3)))


@pytest.mark.filterwarnings("error")
def test_ldlt_pivot_test_does_not_overflow():
    # Entries near 1e200: the product form of the Bunch-Kaufman test,
    # absakk * rowmax, overflows; the quotient form does not.
    m = np.array([[1e200, 3e200, 0.0], [3e200, 2e200, 1e200],
                  [0.0, 1e200, 5e200]])
    f = la.ldlt_factorize(m)
    p = m[f.perm][:, f.perm]
    assert np.max(np.abs(p - f.l @ f.d @ f.l.T)) <= 1e-15 * np.max(np.abs(m))
    rhs = np.array([1e200, -2e200, 3e200])
    x = la.ldlt_solve(f, rhs)
    assert np.allclose(x, np.linalg.solve(m, rhs), rtol=1e-13)
