"""Dense kernel tests: QR, SVD, spectral norm, LDLT, triangular solve."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

import qr_reference
from helpers import CORES, run_under_core, svd_stack_mismatches, svd_stacks
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


def test_qr_geqrf_path_reconstructs_and_keeps_the_hand_written_storage():
    # The unpivoted path is LAPACK's geqrf.  Q R = A within 10 n u ||A||,
    # Q (Q^T y) = y within 10 m u ||y||, and the factors match the
    # hand-written Householder loop's storage and R-diagonal signs.
    # test_qr_rejects_rank_deficient runs on this path too.
    rng = np.random.default_rng(17)
    for m, n in ((1, 1), (4, 4), (9, 3), (100, 50), (301, 50)):
        a = rng.standard_normal((m, n))
        f = la.qr_factorize(a)
        assert not f.pivoted and np.array_equal(f.perm, np.arange(n))
        assert np.array_equal(f.r, np.triu(f.reflectors[:n]))
        norm = np.linalg.norm(a, 2)
        assert np.abs(reconstruct_qr(f) - a).max() <= 10 * n * U * norm
        y = rng.standard_normal((m, 2))
        back = la.apply_q(f, la.apply_q_transpose(f, y))
        assert np.abs(back - y).max() <= 10 * m * U * np.linalg.norm(y, axis=0).max()
        h = la.householder_qr(a)
        assert np.array_equal(np.sign(np.diag(f.r)), np.sign(np.diag(h.r)))
        tol = 100 * n * U * np.linalg.cond(a)
        assert np.abs(f.r - h.r).max() <= tol * norm
        assert np.abs(f.reflectors - h.reflectors).max() <= tol * max(1.0, np.abs(h.reflectors).max())
        assert np.abs(f.tau - h.tau).max() <= tol


def test_stacked_householder_qr_is_bitwise_the_single_matrix_loop():
    # A stack of one, odd m - k (and odd m n), pivot-norm ties, a zero
    # tail (tau = 0), an underflowing column and 100 x 50 matrices: R, the
    # reflectors, tau and perm of each matrix of a stack, and of its B = 1
    # call, are bitwise the one-matrix reference loop's, pivoted or not.
    bad = [case for case in qr_reference.mismatches() if "Q" not in case[1]]
    assert bad == []


def test_stacked_q_products_are_bitwise_the_single_matrix_loop():
    # Q and Q^T of a stacked operand and of one operand for the whole
    # stack, and of a vector in a B = 1 call, for the same cases.
    bad = [case for case in qr_reference.mismatches() if "Q" in case[1]]
    assert bad == []


def test_pivoted_qr_scales_extreme_data_exactly():
    # Outside 2^+-100 the pivoted QR works on 2^-e A and scales R back:
    # the reflectors and tau are bitwise those of the unscaled matrix.
    a = np.array([[2.0, -1.0, 3.0], [0.0, 4.0, 1.0], [1.0, 1.0, -2.0],
                  [3.0, 0.0, 2.0]]) / 8
    f = la.qr_factorize(a, pivoting=True)
    for k in (-600, 700):
        g = la.qr_factorize(np.ldexp(a, k), pivoting=True)
        assert np.array_equal(g.r, np.ldexp(f.r, k))
        assert np.array_equal(g.tau, f.tau) and np.array_equal(g.perm, f.perm)
        assert np.array_equal(np.tril(g.reflectors, -1), np.tril(f.reflectors, -1))
        assert np.array_equal(np.triu(g.reflectors[:3]), g.r)


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


def test_solve_triangular_matches_scipy_and_reads_one_triangle():
    # LAPACK getrs on the named triangle (a lower one through J T J)
    # agrees with scipy's trsm-based solve, for vector and matrix
    # right-hand sides; entries of the other triangle are never read.
    # test_solve_triangular_errors checks SingularDiagonal on both.
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(18)
    for n in (1, 2, 7, 50):
        t = rng.standard_normal((n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
        for lower in (False, True):
            tri = np.tril(t) if lower else np.triu(t)
            junk = tri + (np.triu(t, 1) if lower else np.tril(t, -1)) * 1e6
            for y in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                want = scipy_linalg.solve_triangular(tri, y, lower=lower)
                x = la.solve_triangular(junk, y, lower=lower)
                assert x.shape == y.shape
                scale = np.abs(want).max()
                assert np.abs(x - want).max() <= 10 * n * U * np.linalg.cond(tri) * scale


def test_solve_triangular_errors():
    with pytest.raises(DimensionMismatch):
        la.solve_triangular(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatch):
        la.solve_triangular(np.eye(3), np.ones(2))
    with pytest.raises(SingularDiagonal):
        la.solve_triangular(np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones(2))
    with pytest.raises(SingularDiagonal):
        la.solve_triangular(np.array([[0.0, 0.0], [1.0, 1.0]]), np.ones(2), lower=True)


def test_svd_diagonal_and_kappa():
    s = la.svd(np.diag([3.0, 1.0]))
    assert np.allclose(s, [3.0, 1.0])
    assert abs(s[0] / s[-1] - 3.0) < 1e-14


def test_svd_geometric_spectrum_kappa():
    # sigma_i = a^i spectrum with a = 0.5 spans 2^19 decades of kappa
    sig = 0.5 ** np.arange(20)
    s = la.svd(np.diag(sig))
    assert abs(s[0] / s[-1] - 2.0 ** 19) < 1e-3 * 2.0 ** 19


def test_svd_orthogonal_input_unit_spectrum():
    rng = np.random.default_rng(15)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    s = la.svd(q)
    assert np.all(np.abs(s - 1.0) < 1e-14)


def test_svd_random_matches_lapack():
    rng = np.random.default_rng(16)
    for _ in range(25):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, m + 1))
        a = rng.standard_normal((m, n))
        s = la.svd(a)
        assert s.shape == (n,)
        assert np.all(np.diff(s) <= 0.0)
        want = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(s, want, atol=1e-12 * max(s[0], 1.0))
        # an m < n input goes through its transpose
        assert np.allclose(la.svd(a.T), want, atol=1e-12 * max(s[0], 1.0))


def test_svd_extreme_scales_are_exact_multiples():
    # A power-of-two scaling inside svd: 2^k A gives exactly 2^k sigma,
    # down to entries near 1e-170 and up to 1e200, without warnings.
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
    s = la.svd(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-565, -400, 400, 664):
            assert np.array_equal(la.svd(np.ldexp(a, k)), np.ldexp(s, k))
        tiny = la.svd(np.array([[1e-170, 0.0], [0.0, 3e-171], [0.0, 0.0]]))
    assert np.array_equal(tiny, [1e-170, 3e-171])


def test_svd_tiny_columns_converge():
    # Columns whose squared norms underflow.  |det A| = t^2 (1 - t): LAPACK
    # on A as given returns a zero third value, on its rows sorted by
    # decreasing max |a_ij| (as svd sorts them) the product is right.
    t = 1.03390001e-109
    s = la.svd(np.array([[0.0, t, t], [t, t, 1.0], [t, t, t]]))
    assert s[0] == pytest.approx(1.0, rel=1e-15)
    assert s[0] * s[1] * s[2] == pytest.approx(t * t, rel=1e-14)
    t = 1.30448619e-153
    a = np.array([[128.0, t, t], [t, 0.0, t], [t, t, t]])
    s = la.svd(a)
    assert np.all(np.abs(s - np.linalg.svd(a, compute_uv=False)) <= 4 * U * 128.0)


def test_column_whose_norm_rounds_to_its_first_entry_is_reflected():
    # ||(1, t)|| rounds to 1 for t = 2.8e-11, but the column is not
    # triangular: it must still get a reflector (LAPACK's dlarfg skips
    # only an exactly zero tail), so the rank-one matrix has sigma_min 0.
    t = 2.8058859e-11
    a = np.array([[1.0, 1.0], [t, t]])
    f = la.householder_qr(a)
    assert f.tau[0] != 0.0
    assert np.allclose(reconstruct_qr(f), a, rtol=0.0, atol=4 * U)
    s = la.svd(a)
    want = np.linalg.svd(a, compute_uv=False)
    assert np.all(np.abs(s - want) <= 8 * U * want[0])
    assert s[1] == 0.0


def test_svd_zero_column_and_empty():
    s = la.svd(np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 0.0]]))
    assert np.array_equal(s, [3.0, 0.0])
    assert np.array_equal(la.svd(np.zeros((3, 2))), [0.0, 0.0])
    assert la.svd(np.zeros((3, 0))).shape == (0,)


def test_svd_stack_is_bitwise_its_per_matrix_calls():
    # Graded and ungraded, zero and tiny-column, wide, and 100 x 50
    # matrices: each row of a stacked result is bitwise the matrix's own
    # call, and a 2-d input gives the B = 1 stack's row.
    assert svd_stack_mismatches() == []
    for stack in svd_stacks().values():
        assert np.array_equal(la.svd(stack[1]), la.svd(stack[1:2])[0])


def test_svd_stack_edge_cases():
    # Zero matrix, zero columns, the underflowing columns of
    # test_svd_tiny_columns_converge and one matrix at three scales 2^k
    # (exactly 2^k times its values), inside one batch; then a wide
    # stack, and stacks with no matrix or no column.
    stacks = svd_stacks()
    s = la.svd(stacks["edge"])
    assert s.shape == (7, 3)
    assert np.array_equal(s[5], np.ldexp(s[4], -560))
    assert np.array_equal(s[6], np.ldexp(s[4], 660))
    assert np.array_equal(s[0], [0.0, 0.0, 0.0])
    assert np.array_equal(s[1], [3.0, 0.0, 0.0])
    t = 1.03390001e-109
    assert s[2, 0] == pytest.approx(1.0, rel=1e-15)
    assert s[2, 0] * s[2, 1] * s[2, 2] == pytest.approx(t * t, rel=1e-14)
    a = stacks["edge"][3]
    assert np.all(np.abs(s[3] - np.linalg.svd(a, compute_uv=False)) <= 4 * U * 128.0)
    wide = stacks["wide"]
    s = la.svd(wide)
    assert s.shape == (4, 3)
    assert np.allclose(s, np.linalg.svd(wide, compute_uv=False), rtol=0.0,
                       atol=1e-12 * s.max())
    assert la.svd(np.zeros((0, 3, 2))).shape == (0, 2)
    assert la.svd(np.zeros((2, 3, 0))).shape == (2, 0)


def test_svd_lapack_failure_raises_no_convergence(monkeypatch):
    def fail(a, compute_uv=True):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NoConvergence, match="did not converge"):
        la.svd(np.eye(3))
    with pytest.raises(NoConvergence):
        la.svd(np.ones((2, 4, 3)))


def test_svd_rejects_ragged_and_4d_input():
    with pytest.raises(DimensionMismatch):
        la.svd([np.ones((3, 2)), np.ones((4, 2))])
    with pytest.raises(DimensionMismatch):
        la.svd(np.ones((2, 2, 3, 2)))
    with pytest.raises(DimensionMismatch):
        la.svd(np.ones(3))
    with pytest.raises(InvalidParameter):
        la.svd(np.full((2, 3, 2), np.inf))


@pytest.mark.parametrize("core", CORES)
def test_svd_stack_bitwise_under_each_blas_kernel(core):
    # One LAPACK call loops over the stack, copying each matrix into the
    # work buffer its own call would use, so under every OpenBLAS core the
    # stack stays bitwise its per-matrix calls.
    out = run_under_core(
        core, "import helpers\nprint(helpers.svd_stack_mismatches())\n")
    assert out.strip() == "[]"


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
    scale = np.array([p.sigma_min() / np.sqrt(2.0)])
    (k,), _ = problems.Stack([p]).augmented(scale)
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


def test_ldlt_two_by_two_pivot_does_not_overflow():
    # A 2x2 pivot with entries 1e200: its determinant, 1e400 unscaled,
    # is formed from the block scaled by a power of two.
    m = np.array([[0.0, 1e200], [1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = la.ldlt_factorize(m)
        x = la.ldlt_solve(f, np.array([3e200, 5e200]))
        big = np.array([[0.0, 1e200, 2e200], [1e200, 0.0, 1e200],
                        [2e200, 1e200, 1e200]])
        fb = la.ldlt_factorize(big)
        xb = la.ldlt_solve(fb, big @ np.array([1.0, -2.0, 3.0]))
    assert f.blocks == [2]
    assert np.allclose(x, [5.0, 3.0], rtol=1e-15)
    assert 2 in fb.blocks
    assert np.allclose(xb, [1.0, -2.0, 3.0], rtol=1e-13)


def _same(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def test_stacked_kernels_are_bitwise_their_single_calls():
    # qr_factorize (with and without pivoting), qr_lstsq, qr_gram_solve,
    # solve_triangular and sym_spectral_norm take a (B, ...) stack, and
    # each matrix's result is bitwise its own call's.
    rng = np.random.default_rng(41)
    a = rng.standard_normal((5, 9, 4)) * np.logspace(0, 6, 4)
    a[2] = np.ldexp(a[2], 400)  # scaled apart from the others when pivoted
    y, rhs = rng.standard_normal((5, 9)), rng.standard_normal((5, 4, 3))
    for pivoting in (False, True):
        f = la.qr_factorize(a, pivoting=pivoting)
        for b in range(5):
            one = la.qr_factorize(a[b], pivoting=pivoting)
            for k in ("reflectors", "tau", "r", "perm"):
                assert _same(getattr(f, k)[b], getattr(one, k))
            assert _same(la.qr_lstsq(f, y)[b], la.qr_lstsq(one, y[b]))
            assert _same(la.qr_gram_solve(f, rhs)[b],
                         la.qr_gram_solve(one, rhs[b]))
            assert _same(la.qr_gram_solve(f, rhs[..., 0])[b],
                         la.qr_gram_solve(one, rhs[b, :, 0]))
    t = la.qr_factorize(a).r
    for lower in (False, True):
        tt = t.mT if lower else t
        vec = la.solve_triangular(tt, rhs[..., 0], lower=lower)
        mat = la.solve_triangular(tt, rhs, lower=lower)
        for b in range(5):
            assert _same(vec[b], la.solve_triangular(tt[b], rhs[b, :, 0], lower=lower))
            assert _same(mat[b], la.solve_triangular(tt[b], rhs[b], lower=lower))
    g = a.mT @ a
    g[3] = 0.0
    norms = la.sym_spectral_norm(g)
    assert norms.shape == (5,) and norms[3] == 0.0
    assert all(norms[b] == la.sym_spectral_norm(g[b]) for b in range(5))


def test_stacked_kernels_raise_for_any_member():
    a = np.random.default_rng(42).standard_normal((3, 4, 2))
    a[1, :, 1] = a[1, :, 0]
    with pytest.raises(RankDeficient):
        la.qr_factorize(a)
    t = np.stack([np.eye(2), np.diag([1.0, 0.0])])
    with pytest.raises(SingularDiagonal):
        la.solve_triangular(t, np.ones((2, 2)))
    with pytest.raises(DimensionMismatch):
        la.solve_triangular(t, np.ones((3, 2)))
    with pytest.raises(NotSymmetric):
        la.sym_spectral_norm(np.stack([np.eye(2), np.triu(np.ones((2, 2)))]))
    with pytest.raises(InvalidParameter):
        la.sym_spectral_norm(np.stack([np.eye(2), np.full((2, 2), np.nan)]))
