"""Problem families, assembly, stacked systems, serialization."""

import ctypes
import hashlib
import pathlib

import numpy as np
import pytest

from conftest import ROOT
from qlskit import bench, direct
from qlskit import linalg as la
from qlskit import problems
from qlskit.errors import DimensionMismatch, InvalidParameter, RankDeficient
import qr_reference
from helpers import run_under_core

U = np.finfo(float).eps / 2


def test_power_of_two_predicates():
    assert problems.is_power_of_two(1.0)
    assert problems.is_power_of_two(2.0 ** -47)
    assert not problems.is_power_of_two(0.3)
    assert not problems.is_power_of_two(0.0)
    assert not problems.is_power_of_two(-2.0)
    assert problems.nearest_power_of_two(0.3) == 0.25
    assert problems.nearest_power_of_two(0.75) == 1.0
    assert problems.nearest_power_of_two(2.0 ** -20) == 2.0 ** -20


def test_sigma_c1_values():
    assert np.allclose(problems.sigma_c1(3, 2.0), [0.5, 0.25, 0.125])
    s = problems.sigma_c1(20, 0.5)
    assert abs(max(s) / min(s) - 2.0 ** 19) < 1e-6 * 2.0 ** 19
    assert np.allclose(problems.sigma_c1(1, 4.0), [0.25])
    with pytest.raises(InvalidParameter):
        problems.sigma_c1(0, 2.0)
    with pytest.raises(InvalidParameter):
        problems.sigma_c1(3, 0.0)


def test_sigma_c2_values():
    assert np.allclose(problems.sigma_c2(3, 1.0, 2.0), [1.0, 1.5, 2.0])
    assert np.allclose(problems.sigma_c2(2, 0.1, 0.2), [0.1, 0.2])
    s = problems.sigma_c2(50, 1e-7, 0.1)
    assert abs(max(s) / min(s) - 1e6) < 1e-6 * 1e6
    with pytest.raises(InvalidParameter):
        problems.sigma_c2(3, 0.2, 0.1)
    with pytest.raises(InvalidParameter):
        problems.sigma_c2(0, 0.1, 0.2)


def test_orthogonal_factor_sine_transform():
    n = 8
    q = problems.orthogonal_factor(n, 1)
    i, j = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
    want = np.sqrt(2.0 / (n + 1)) * np.sin(i * j * np.pi / (n + 1))
    assert np.allclose(q, want, atol=1e-14)
    assert np.allclose(q, q.T, atol=1e-14)
    assert np.linalg.norm(q.T @ q - np.eye(n)) < 1e-13


def test_orthogonal_factor_small_and_seeded():
    for kind in range(1, 7):
        q = problems.orthogonal_factor(1, kind, seed=3)
        assert q.shape == (1, 1) and abs(abs(q[0, 0]) - 1.0) < 1e-15
    q = problems.orthogonal_factor(5, 6, seed=42)
    assert np.linalg.norm(q.T @ q - np.eye(5)) < 1e-13
    # deterministic in (kind, seed)
    assert np.array_equal(q, problems.orthogonal_factor(5, 6, seed=42))
    assert not np.array_equal(q, problems.orthogonal_factor(5, 6, seed=43))
    with pytest.raises(InvalidParameter):
        problems.orthogonal_factor(0, 1)
    with pytest.raises(InvalidParameter):
        problems.orthogonal_factor(4, 7)


def test_negative_seeds_raise_invalid_parameter():
    # numpy's SeedSequence rejects them with a plain ValueError; the one
    # place a seed enters it says which seed instead.
    with pytest.raises(InvalidParameter, match=r"seed must be non-negative, "
                       r"got \[-1, 0\]"):
        problems.generate_problem_set_p(seed=-1, m=12, n=6)
    with pytest.raises(InvalidParameter, match=r"got \[-2, 3, 6\]"):
        problems.orthogonal_factor(6, 3, seed=-2)
    with pytest.raises(InvalidParameter, match="seed must be non-negative"):
        problems.assemble_problem(6, 3, (1.0, 0.5, 0.25), np.zeros(3),
                                  kind=4, seed=-5)
    # Kinds 1 and 2 are closed forms: their seed is never drawn from.
    assert np.array_equal(problems.orthogonal_factor(6, 1, seed=-2),
                          problems.orthogonal_factor(6, 1))


def test_assemble_problem_identity_factors():
    p = problems.assemble_problem(2, 2, (1.0, 1.0), (0.0, 0.0),
                                  u=np.eye(2), v=np.eye(2))
    assert np.allclose(p.a, np.eye(2))
    assert np.allclose(p.b, [1.0, 0.0])
    assert np.allclose(p.x_exact, [1.0, 0.0])

    p = problems.assemble_problem(2, 2, (2.0, 1.0), (1.0, 1.0),
                                  u=np.eye(2), v=np.eye(2))
    # b = A x - (A^dagger)^T c with diagonal A
    assert np.allclose(p.b, [1.5, -1.0])
    rhs = p.a.T @ p.b + p.c
    assert np.allclose(p.a.T @ p.a @ p.x_exact, rhs, atol=1e-14)


def test_assemble_problem_consistency_random():
    rng = np.random.default_rng(21)
    for _ in range(12):
        n = int(rng.integers(2, 8))
        m = n + int(rng.integers(0, 6))
        sigma = np.sort(rng.random(n) + 0.1)[::-1]
        c = rng.standard_normal(n)
        kind = int(rng.integers(1, 7))
        p = problems.assemble_problem(m, n, sigma, c, kind=kind, seed=int(rng.integers(100)))
        p.verify_construction()
        assert p.m == m and p.n == n
        assert abs(p.sigma_max() - sigma[0]) < 1e-12 * sigma[0]
        assert abs(p.kappa() - sigma[0] / sigma[-1]) < 1e-9 * p.kappa()


def test_assemble_problem_errors():
    with pytest.raises(DimensionMismatch):
        problems.assemble_problem(4, 2, (1.0,), (0.0, 0.0))
    with pytest.raises(InvalidParameter):
        problems.assemble_problem(4, 2, (1.0, 0.0), (0.0, 0.0))
    with pytest.raises(DimensionMismatch, match="m x m or m x n"):
        problems.assemble_problem(3, 2, (1.0, 1.0), (0.0, 0.0), u=np.eye(2))
    with pytest.raises(DimensionMismatch, match="need m >= n"):
        problems.assemble_problem(2, 3, (1.0,) * 3, (0.0,) * 3, kind=3)
    with pytest.raises(DimensionMismatch):
        problems.assemble_problem(3, 2, (1.0, 1.0), (0.0, 0.0), v=np.eye(3))


def test_assemble_problem_reads_the_leading_columns_of_u():
    # An m x n u gives the problem of the m x m u it leads.
    u = problems.orthogonal_factor(5, 4, seed=9)
    args = (5, 3, (1.0, 0.5, 0.25), (1.0, -2.0, 0.5))
    square = problems.assemble_problem(*args, u=u)
    thin = problems.assemble_problem(*args, u=u[:, :3])
    for block in ("a", "b", "c", "x_exact"):
        assert getattr(thin, block).tobytes() == getattr(square, block).tobytes()


def test_qls_problem_validation():
    with pytest.raises(DimensionMismatch):
        problems.QlsProblem(a=np.ones((2, 3)), b=np.ones(2), c=np.ones(3))
    with pytest.raises(DimensionMismatch):
        problems.QlsProblem(a=np.eye(2), b=np.ones(3), c=np.ones(2))
    with pytest.raises(DimensionMismatch):
        problems.QlsProblem(a=np.eye(2), b=np.ones(2), c=np.ones(1))
    with pytest.raises(DimensionMismatch):
        problems.QlsProblem(a=np.eye(2), b=np.ones(2), c=np.ones(2),
                            x_exact=np.ones(3))


def test_verify_construction_rejects_wrong_solution():
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 0.0]),
                            c=np.zeros(2), x_exact=np.array([2.0, 2.0]))
    with pytest.raises(InvalidParameter):
        p.verify_construction()


def test_verify_construction_at_a_zero_solution():
    # n = 1 gives x_exact = (0,), so A^T b + c is zero in exact arithmetic
    # and only its roundoff is left; the bound must not vanish with it.
    p = problems.assemble_problem(11, 1, (1.0,), (-1.0,))
    assert np.array_equal(p.x_exact, [0.0])
    p.verify_construction()
    q = problems.QlsProblem(np.eye(2), np.array([1.0, 0.0]),
                            np.array([-1.0, 0.0]), x_exact=np.zeros(2))
    q.verify_construction()


def test_verify_construction_rejects_a_solution_off_by_1e_8():
    table = bench.build_problems(
        bench.parse_config(str(ROOT / "configs" / "table.json")))
    set_p = problems.generate_problem_set_p(seed=1729)
    for p in (set_p[0], set_p[19], set_p[39], table[0], table[-1]):
        p.verify_construction()
        bad = problems.QlsProblem(p.a, p.b, p.c, x_exact=p.x_exact * (1 + 1e-8))
        bad.seed_spectrum(p.singular_values())
        with pytest.raises(InvalidParameter, match="violates"):
            bad.verify_construction()


def test_build_eps_system_layout():
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 2.0]),
                            c=np.array([1.0, 2.0]))
    assert problems.eps_weight(0.5) == (0.5, False)
    sys_ = problems.Stack([p]).eps_system(0.5)
    assert np.allclose(sys_.a[0, :2], np.eye(2))
    assert np.allclose(sys_.a[0, 2], [0.5, 1.0])
    assert sys_.b[0, -1] == 2.0
    assert np.allclose(sys_.b[0, :2], p.b)
    assert not sys_.c.any()


def test_build_eps_system_rounds_to_power_of_two():
    p = problems.QlsProblem(a=np.eye(2), b=np.ones(2), c=np.ones(2))
    eps, adjusted = problems.eps_weight(0.3)
    assert eps == 0.25 and adjusted
    assert problems.is_power_of_two(eps)
    sys_ = problems.Stack([p]).eps_system(eps)
    assert np.array_equal(sys_.a[0, 2], [0.25, 0.25])
    assert np.array_equal(sys_.b[0, 2], 4.0)
    # Above one the row eps c^T outweighs A and eps^2 overflows: 1e300
    # is refused before anything is formed.
    for eps in (0.0, 1e300, 2.0, float("inf"), float("nan")):
        with pytest.raises(InvalidParameter, match="eps"):
            problems.eps_weight(eps)
    assert problems.eps_weight(1.0) == (1.0, False)


def test_eps_scaling_is_exact():
    # multiplying by eps and back by 1/eps is a pure exponent shift
    rng = np.random.default_rng(22)
    eps = 2.0 ** -47
    for _ in range(50):
        c = rng.standard_normal(30) * 10.0 ** rng.integers(-6, 7)
        assert np.array_equal((eps * c) * (1.0 / eps), c)


def test_eps_system_zero_c_minimizer():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    p = problems.QlsProblem(a=a, b=b, c=np.zeros(3))
    for eps in (2.0 ** -10, 2.0 ** -30):
        sys_ = problems.Stack([p]).eps_system(eps)
        x = np.linalg.lstsq(sys_.a[0], sys_.b[0], rcond=None)[0]
        want = np.linalg.lstsq(a, b, rcond=None)[0]
        assert np.allclose(x, want, atol=1e-10)


def test_hat_system_normal_equations_at_exact():
    rng = np.random.default_rng(24)
    for _ in range(10):
        sigma = np.sort(rng.random(2) + 0.2)[::-1]
        p = problems.assemble_problem(4, 2, sigma, rng.standard_normal(2),
                                      kind=3, seed=int(rng.integers(100)))
        # [A; c^T]^T ((b, 1) - (A x, 0)) = A^T (b - A x) + c
        a_hat = np.vstack([p.a, p.c])
        masked = np.r_[p.a @ p.x_exact, 0.0]
        res = a_hat.T @ (np.r_[p.b, 1.0] - masked)
        tol = 1e3 * U * p.kappa() ** 2 * np.linalg.norm(p.a.T @ p.b + p.c)
        assert np.linalg.norm(res) <= tol


def test_build_augmented_hand_case():
    p = problems.QlsProblem(a=np.array([[1.0]]), b=np.array([2.0]),
                            c=np.array([1.0]))
    (k,), (rhs,) = problems.Stack([p]).augmented(np.array([1.0]))
    assert np.allclose(k, [[1.0, 1.0], [1.0, 0.0]])
    assert np.allclose(rhs, [2.0, -1.0])
    f = la.ldlt_factorize(k)
    z = la.ldlt_solve(f, rhs)
    assert abs(z[1] - 3.0) < 1e-13  # x = 3 solves 1*x = 2 + 1


def test_build_augmented_default_scale_and_invariance():
    # AUG's scale is the power of two nearest sigma_min / sqrt(2),
    # 2^floor(log2 sigma_min); the x block solves the problem at that scale
    # and at one alike.
    rng = np.random.default_rng(25)
    p = problems.assemble_problem(6, 3, (1.0, 0.7, 0.5), rng.standard_normal(3),
                                  kind=4, seed=9)
    scale = 2.0 ** np.floor(np.log2(p.sigma_min()))
    k, rhs = problems.Stack([p, p]).augmented(np.array([scale, 1.0]))
    x_aug = np.linalg.solve(k[:1], rhs[:1, :, None])[0, p.m:, 0]
    assert np.array_equal(direct.solve_aug(p), x_aug)
    assert np.array_equal(k[0, :p.m, :p.m], scale * np.eye(p.m))
    assert np.array_equal(rhs[0, p.m:], -p.c / scale)
    x_default, x_one = (la.ldlt_solve(la.ldlt_factorize(ki), ri)[p.m:]
                        for ki, ri in zip(k, rhs))
    assert np.allclose(x_default, x_one, atol=1e-10 * np.linalg.norm(x_one))
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(InvalidParameter):
            problems.Stack([p]).augmented(np.array([bad]))


def test_set_p_cardinality_and_coverage():
    ps = problems.generate_problem_set_p(seed=0)
    assert len(ps) == 40
    kappas = []
    for p in ps:
        p.verify_construction()
        kappas.append(p.kappa())
    decades = np.log10(max(kappas)) - np.log10(min(kappas))
    assert decades >= 8.0


def test_set_p_deterministic():
    a = problems.generate_problem_set_p(seed=7)
    b = problems.generate_problem_set_p(seed=7)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.a, pb.a)
        assert np.array_equal(pa.b, pb.b)
        assert np.array_equal(pa.c, pb.c)
        assert np.array_equal(pa.x_exact, pb.x_exact)
        assert pa.label == pb.label


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(26)
    p = problems.assemble_problem(5, 3, (1.0, 0.5, 0.25),
                                  rng.standard_normal(3), kind=5, seed=17,
                                  label="disk")
    path = tmp_path / "disk.qls"
    problems.save_problem(p, str(path))
    q = problems.load_problem(str(path))
    assert np.array_equal(p.a, q.a)
    assert np.array_equal(p.b, q.b)
    assert np.array_equal(p.c, q.c)
    assert np.array_equal(p.x_exact, q.x_exact)
    assert q.label == "disk"


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.qls"
    path.write_text("not a problem\n")
    with pytest.raises(InvalidParameter):
        problems.load_problem(str(path))


@pytest.mark.parametrize("old, new, block", [
    ("A\n2 2\n", "A\n2 x\n", "A"),
    ("A\n2 2\n", "A\n2\n", "A"),
    ("A\n2 2\n", "A\n2 2 2\n", "A"),
    ("b\n2 1\n", "b\n-2 1\n", "b"),
    ("c\n2 1\n", "c\n2 -1\n", "c"),
    ("A\n2 2\n" + (1.0).hex(), "A\n2 2\nzz", "A"),
    ("x\n2 1\n" + (1.0).hex(), "x\n2 1\n0x1.8p", "x"),
    # A vector block of two full columns.
    ("b\n2 1\n0x1.0000000000000p+0\n0x0.0p+0\n",
     "b\n2 2\n0x1.0000000000000p+0 0x1.0p+0\n0x0.0p+0 0x0.0p+0\n", "b"),
])
def test_load_rejects_malformed_blocks(tmp_path, old, new, block):
    # Size lines that are not two non-negative integers, vector blocks of
    # more than one column, and entries that are not hexadecimal floats
    # raise InvalidParameter naming the block.
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 0.0]),
                            c=np.zeros(2), x_exact=np.array([1.0, 0.0]))
    path = tmp_path / "bad.qls"
    problems.save_problem(p, str(path))
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    with pytest.raises(InvalidParameter, match=f"block '{block}'"):
        problems.load_problem(str(path))


@pytest.mark.parametrize("edit", ["drop", "add"])
def test_load_rejects_rows_of_the_wrong_length(tmp_path, edit):
    # One row of A with n - 1 or n + 1 entries, the others with n.
    p = problems.QlsProblem(a=np.eye(3), b=np.ones(3), c=np.zeros(3))
    path = tmp_path / "bad.qls"
    problems.save_problem(p, str(path))
    lines = path.read_text().splitlines()
    row = lines.index("A") + 3
    toks = lines[row].split()
    lines[row] = " ".join(toks[:-1] if edit == "drop" else toks + [toks[0]])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidParameter, match="block 'A' has inconsistent shape"):
        problems.load_problem(str(path))


@pytest.mark.parametrize("with_x", [True, False])
def test_load_rejects_trailing_content(tmp_path, with_x):
    # Anything after the last block is an error, not silently dropped.
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 0.0]), c=np.zeros(2),
                            x_exact=np.array([1.0, 0.0]) if with_x else None)
    path = tmp_path / "tail.qls"
    problems.save_problem(p, str(path))
    text = path.read_text()
    for tail in ("garbage here\n", "x\n2 1\n0x0.0p+0\n0x0.0p+0\n"):
        path.write_text(text + tail)
        with pytest.raises(InvalidParameter):
            problems.load_problem(str(path))


def test_save_writes_float_hex_text_and_round_trips_bitwise(tmp_path):
    values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, -1.5]
    p = problems.QlsProblem(a=np.eye(6), b=np.ones(6), c=np.array(values))
    path = tmp_path / "edge.qls"
    problems.save_problem(p, str(path))
    lines = path.read_text().splitlines()
    start = lines.index("c") + 2
    assert lines[start:start + 6] == [float.hex(v) for v in values]
    assert lines[start:start + 2] == ["0x0.0p+0", "-0x0.0p+0"]
    q = problems.load_problem(str(path))
    assert q.c.tobytes() == np.array(values).tobytes()


@pytest.mark.parametrize("block, value, error", [
    ("b", [1.0, np.inf], "b contains non-finite"),
    ("x_exact", [np.nan, 1.0], "x contains non-finite"),
    ("c", [], "c is empty")])
def test_save_refuses_a_block_it_could_not_read_back(tmp_path, block, value,
                                                     error):
    # A block set after construction that load_problem would reject: no
    # file is written.
    p = problems.QlsProblem(a=np.eye(2), b=np.ones(2), c=np.zeros(2),
                            x_exact=np.ones(2))
    setattr(p, block, np.array(value))
    path = tmp_path / "bad.qls"
    with pytest.raises(InvalidParameter, match=error):
        problems.save_problem(p, str(path))
    assert not path.exists()


@pytest.mark.parametrize("label", ["two\nlines", "sep\u2028arator", "pad "])
def test_save_refuses_a_label_its_header_could_not_read_back(tmp_path, label):
    # A line break splits the header, U+2028 splits it for str.splitlines,
    # and the reader strips a trailing space: no file is written.
    p = problems.QlsProblem(a=np.eye(2), b=np.ones(2), c=np.zeros(2),
                            label=label)
    path = tmp_path / "label.qls"
    with pytest.raises(InvalidParameter, match="label"):
        problems.save_problem(p, str(path))
    assert not path.exists()


def test_set_p_builds_each_orthogonal_factor_once(monkeypatch):
    # Each problem needs U (order m, its leading n columns) and V (order
    # n).  The generator asks orthogonal_factors once per order, naming
    # each problem's (kind, seed) once; each seed-free kind is built once
    # per order and each seeded one in exactly one stacked QR, of the
    # leading n + THIN_PAD columns of U's Gaussian (never all m) and of
    # all of V's.  Every problem is made of the factors built for it:
    # U^T A V is diagonal.
    real, calls, closed, stacked = problems.orthogonal_factors, [], [], []

    def spy(dim, specs, cols=None):
        out = real(dim, specs, cols)
        calls.append((dim, list(specs), cols, list(out)))
        return out

    def closed_spy(dim, kind):
        closed.append((dim, kind))
        return real_closed(dim, kind)

    def qr_spy(a, pivoting=False):
        stacked.append(a.shape)
        return real_qr(a, pivoting)

    real_closed, real_qr = problems._closed_form_factor, la.householder_qr
    monkeypatch.setattr(problems, "orthogonal_factors", spy)
    monkeypatch.setattr(problems, "_closed_form_factor", closed_spy)
    monkeypatch.setattr(la, "householder_qr", qr_spy)
    m, n = 20, 6
    ps = problems.generate_problem_set_p(seed=3, m=m, n=n)
    assert [call[:3] for call in calls] == [
        (m, [(1 + idx % 6, 300 + idx) for idx in range(40)], n),
        (n, [(1 + idx % 6, 301 + idx) for idx in range(40)], None)]
    assert sorted(closed) == [(n, 1), (n, 2), (m, 1), (m, 2)]
    seeded = sum(kind > 2 for kind, _ in calls[0][1])
    thin = min(m, n + problems.THIN_PAD)
    assert thin < m
    assert {shape[1:] for shape in stacked} == {(m, thin), (n, n)}
    for dim in (m, n):
        assert sum(b for b, rows, _ in stacked if rows == dim) == seeded == 26
    for p, u, v in zip(ps, calls[0][3], calls[1][3]):
        assert u.shape == (m, n)
        d = u.T @ p.a @ v
        off = d - np.diag(np.diag(d))
        assert np.abs(off).max() <= 1e-13 * np.abs(d).max()


def test_thin_seeded_factors_are_bitwise_the_square_leading_columns():
    # orthogonal_factors(dim, specs, cols) under this BLAS kernel; every
    # pinned kernel runs it in
    # test_pinned_data_and_stacked_qr_under_each_blas_kernel.
    assert qr_reference.thin_mismatches() == []


def test_load_verifies_solution(tmp_path):
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 0.0]),
                            c=np.zeros(2), x_exact=np.array([1.0, 0.0]))
    path = tmp_path / "ok.qls"
    problems.save_problem(p, str(path))
    text = path.read_text()
    # corrupt x_exact; verify=False must still accept the file
    broken = text.replace(np.float64(1.0).hex(), np.float64(5.0).hex())
    bad = tmp_path / "bad.qls"
    bad.write_text(broken)
    with pytest.raises(InvalidParameter):
        problems.load_problem(str(bad))
    q = problems.load_problem(str(bad), verify=False)
    assert q.b[0] == 5.0


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_kappa_from_file_at_extreme_scales(tmp_path, scale):
    # Read back from a file the spectrum comes from linalg.svd; its
    # power-of-two scaling keeps entries near 1e-170 from
    # underflowing (sigma = 0) and near 1e200 from overflowing (inf).
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
    p = problems.QlsProblem(scale * a, np.ones(3), np.zeros(2), label="x")
    path = tmp_path / "scaled.qls"
    problems.save_problem(p, str(path))
    q = problems.load_problem(str(path))
    want = np.linalg.svd(a, compute_uv=False)
    assert q.singular_values() == pytest.approx(scale * want, rel=1e-14)
    assert q.kappa() == pytest.approx(want[0] / want[1], rel=1e-14)


def test_kappa_rank_deficient_raises(tmp_path):
    a = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
    p = problems.QlsProblem(a, np.ones(3), np.zeros(2))
    assert p.sigma_min() == 0.0
    with pytest.raises(RankDeficient):
        p.kappa()
    # With an x block, load_problem's construction check needs kappa.
    q = problems.QlsProblem(a, np.ones(3), np.zeros(2), x_exact=np.zeros(2))
    path = tmp_path / "zero_column.qls"
    problems.save_problem(q, str(path))
    with pytest.raises(RankDeficient):
        problems.load_problem(str(path))


def test_seeded_spectrum_is_descending():
    p = problems.assemble_problem(4, 3, (0.25, 1.0, 0.5), np.zeros(3),
                                  kind=1, seed=2)
    assert np.array_equal(p.singular_values(), [1.0, 0.5, 0.25])
    assert p.kappa() == 4.0


# SHA-256 of the generated data, computed before the unpivoted QR moved
# to LAPACK (numpy 2.4, OpenBLAS 0.3.31), one set per OpenBLAS x86-64
# kernel as the library names it, since the generator's dot products
# round per kernel.  The build names its Prescott kernel after Katmai,
# the first core that maps to it.  The generator keeps its own
# Householder arithmetic so that every benchmark problem stays bitwise;
# a QR with other rounding (such as geqrf) matches none of the sets.
# The set_p seed-401 digests were taken while U was still formed square,
# so they check the thin U of a second seed.  On another kernel or BLAS
# build the test is skipped.
DIGEST_BLAS = "0.3.31"
DATA_DIGESTS = {
    "SkylakeX": {
        "table": "0ae68269863bd1b0e171911ea154a11b19fc7424808f3b947ce1e28d55d30197",
        "set_p": "18d1c0aa50233c4dfa8622ddf34e05c60b8b4d6dcd8da06196bc1ac4f077d8cd",
        "set_p401": "6d927e86a35a0a34d3221acbb53936a635664096bf00c51466e420da53778608",
        "kind3": "24475a707783781464b90c5fe085c227ebbfd66efe7427f4005bd04e2bbb3777",
        "kind4": "0ecadac9d2fe00da6d00b8c8a602e5960c93c49a36da06476cf50f8ee1c57f8a",
        "kind5": "a9c8501a7a4983dfdf752752c27059e8a9a2c92a99cc396dbfc26f9f46a31546",
        "kind6": "c07614dda0e31f9bc46218f1f7806da10da7d4a2264a6c288df5a29820a5aa2d",
    },
    "Haswell": {
        "table": "275e48795979e4a791c334dc1174ad0eae5dd83808a38fca5786c95f9d67ad7b",
        "set_p": "d5f4fe7f99c199b6542162e568e8dd40e658652512fadeb65b15f399b735bbb9",
        "set_p401": "f02b7dd043de601c405d71712c1a5e5dcd0159b0da0cc3e2290e554e269a4c54",
        "kind3": "fad2438c22de2baf8d04694fb03517cbb98b4411da08aec37df7de1660f009af",
        "kind4": "107d470c0f4436d822b57a1ea041b23ef435160739856ee6147178e29e7d4c6f",
        "kind5": "3560e623fbd11a0941b09a7b0e269698bb1f71e2cc102fbeb952cbb915fb221c",
        "kind6": "b56f69feec1231351a1b3d2a722b4e1c23482cabe4adf657bbf9786b30e26aed",
    },
    "Sandybridge": {
        "table": "d2ceac5e639d509b60bd440bd9af3495e487d8c14ecd4174ca1c53189804a6f7",
        "set_p": "cabd6b9ad9c0292fba5939d309ba1f886afeae87585c713d168ea30bb84b24f5",
        "set_p401": "3cc49ebb38613fa72be3599bb3ba556ed7ad899ae66ec0131cc41f95b25153ca",
        "kind3": "6452ccdb91f662c153d7f2a4b191a51d09ee4027ac529eaee73a186c0c883f2c",
        "kind4": "b0550e7373d387b19e42187e42d0528748a5b1dd31947f23cb5aceae43869247",
        "kind5": "360855d304972a7dd57ff0baf1ea544347746b1c6cd358d2970ccda2a734ba13",
        "kind6": "8b5ceace8dc1773d3a0e509a00c6b672955d7c7dabe3d2697333668d7f432e98",
    },
    "Nehalem": {
        "table": "777ec7868907cc39b11c1b6bd5a6453bb5fa74b03633eb41939e3050151293e7",
        "set_p": "d79ee7da5359b1d5bc560ed48a149e2e690d7f0903a295ff3e9836a97789aeaf",
        "set_p401": "4dcc2de0579f2390d817c623a69ae371defe05bfdb5f0c0405cbaaee8fd0a55a",
        "kind3": "a321ef7e4b1a48c49e6c2b6e71816286c277d438a20a62a2ed83e5e30cfdf556",
        "kind4": "000745bb2da6432679629f39a41a262a4d089040370d2f36ab9d0bbbea6d7737",
        "kind5": "9fada839e45384161fedf229d42cac9122330076a3ba844a338adb5a884dd47b",
        "kind6": "68bf46d7ef92ccda7a2c81087ebf09d916eb0fb2da02954b41037f9b6e897bc0",
    },
    "Katmai": {
        "table": "e34375ac3f656f9c2633a8375623f67bd5c4b0ae6debb44afec9b51ae5cea4a0",
        "set_p": "1684a28f523f0ec92f8c87c2c5ea847c826a5b5f2e323f6b5a33db542f873e13",
        "set_p401": "0d18aae108113e3cb9312810bba093db055cf39151a697c396e554e1d3c546d3",
        "kind3": "e30403ac3a42d868cb5de0c5d46f7ba85d5023256a8c9cb80f3fd0a1c23289c1",
        "kind4": "997b4c366541afa0639d4df4342869581e08575c1875d0a4eac3ce3b54c4d45a",
        "kind5": "519851db65167d434cb54c57f0b0ea156d4efad9a4f1b6f7e518cef3bc67fe77",
        "kind6": "72e375dbc70168584fa8665855109d59cc81e997bcdddf669295d6b34e8ccae0",
    },
}


def _digest(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _data(probs):
    return [arr for p in probs for arr in (p.a, p.b, p.c, p.x_exact)]


def _openblas_core():
    """Name of the kernel numpy's OpenBLAS runs on here, or None when the
    BLAS is not the OpenBLAS version the digests were taken with or does
    not report its kernel."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if not ("openblas" in blas.get("name", "")
            and str(blas.get("version", "")).startswith(DIGEST_BLAS)):
        return None
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return None


def test_generated_data_is_bitwise_pinned():
    # configs/table.json, set_p seeds 1729 and 401, and
    # orthogonal_factor(dim, kind, 1729) for dim 7 and 50 under kinds 3
    # to 6.
    core = _openblas_core()
    if core not in DATA_DIGESTS:
        pytest.skip(f"no digests for BLAS kernel {core} (pinned: OpenBLAS "
                    f"{DIGEST_BLAS}, {', '.join(DATA_DIGESTS)})")
    table = bench.build_problems(bench.parse_config(str(ROOT / "configs" / "table.json")))
    got = {"table": _digest(_data(table))}
    for seed, key in ((1729, "set_p"), (401, "set_p401")):
        got[key] = _digest(_data(problems.generate_problem_set_p(seed=seed)))
    for kind in (3, 4, 5, 6):
        got[f"kind{kind}"] = _digest([problems.orthogonal_factor(dim, kind, 1729)
                                      for dim in (7, 50)])
    assert got == DATA_DIGESTS[core], got


@pytest.mark.parametrize("core", [*DATA_DIGESTS, "Prescott"])
def test_pinned_data_and_stacked_qr_under_each_blas_kernel(core):
    # Under each OpenBLAS core with digests the generated data is that
    # core's (Prescott reports itself as Katmai, so it is not run twice);
    # under those and Prescott, whose dot kernels sum a vector 8 bytes
    # off a 16-byte boundary in another order, a stacked householder_qr
    # and its Q products are bitwise the one-matrix loop, and each thin
    # seeded factor is bitwise the square one's leading columns.
    pinned = ("if core in tp.DATA_DIGESTS:\n"
              "    tp.test_generated_data_is_bitwise_pinned()\n")
    code = ("import qr_reference, test_problems as tp\n"
            "core = tp._openblas_core()\n"
            + (pinned if core in DATA_DIGESTS else "")
            + "print(core)\n"
            "print(qr_reference.mismatches() + qr_reference.thin_mismatches())\n")
    reported, bad = run_under_core(core, code, timeout=300).split("\n")[:2]
    assert bad == "[]"
    if core in DATA_DIGESTS and reported not in DATA_DIGESTS:
        pytest.skip(f"stacked QR checked; no digests for BLAS kernel {reported}")
