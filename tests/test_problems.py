"""Problem families, assembly, stacked systems, serialization."""

import numpy as np
import pytest

from qlskit import linalg as la
from qlskit import problems
from qlskit.errors import DimensionMismatch, InvalidParameter

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
    with pytest.raises(DimensionMismatch):
        problems.assemble_problem(3, 2, (1.0, 1.0), (0.0, 0.0), u=np.eye(2))
    with pytest.raises(DimensionMismatch):
        problems.assemble_problem(3, 2, (1.0, 1.0), (0.0, 0.0), v=np.eye(3))


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


def test_build_eps_system_layout():
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 2.0]),
                            c=np.array([1.0, 2.0]))
    sys_ = problems.build_eps_system(p, 0.5)
    assert np.allclose(sys_.a_eps[:2], np.eye(2))
    assert np.allclose(sys_.a_eps[2], [0.5, 1.0])
    assert sys_.b_eps[-1] == 2.0
    assert np.allclose(sys_.b_eps[:2], p.b)
    assert sys_.eps == 0.5 and not sys_.adjusted


def test_build_eps_system_rounds_to_power_of_two():
    p = problems.QlsProblem(a=np.eye(2), b=np.ones(2), c=np.ones(2))
    sys_ = problems.build_eps_system(p, 0.3)
    assert sys_.eps == 0.25 and sys_.adjusted
    assert problems.is_power_of_two(sys_.eps)
    with pytest.raises(InvalidParameter):
        problems.build_eps_system(p, 0.0)


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
        sys_ = problems.build_eps_system(p, eps)
        x = np.linalg.lstsq(sys_.a_eps, sys_.b_eps, rcond=None)[0]
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
    aug = problems.build_augmented(p, scale=1.0)
    assert np.allclose(aug.k, [[1.0, 1.0], [1.0, 0.0]])
    assert np.allclose(aug.rhs, [2.0, -1.0])
    f = la.ldlt_factorize(aug.k)
    z = la.ldlt_solve(f, aug.rhs)
    assert abs(z[1] - 3.0) < 1e-13  # x = 3 solves 1*x = 2 + 1


def test_build_augmented_default_scale_and_invariance():
    rng = np.random.default_rng(25)
    p = problems.assemble_problem(6, 3, (1.0, 0.7, 0.5), rng.standard_normal(3),
                                  kind=4, seed=9)
    aug = problems.build_augmented(p)
    assert abs(aug.scale - p.sigma_min() / np.sqrt(2.0)) < 1e-12
    x_default = la.ldlt_solve(la.ldlt_factorize(aug.k), aug.rhs)[p.m:]
    one = problems.build_augmented(p, scale=1.0)
    x_one = la.ldlt_solve(la.ldlt_factorize(one.k), one.rhs)[p.m:]
    assert np.allclose(x_default, x_one, atol=1e-10 * np.linalg.norm(x_one))
    with pytest.raises(InvalidParameter):
        problems.build_augmented(p, scale=0.0)


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
