"""Condition numbers, backward errors, bounds, perturbation construction."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest


from qlskit import analysis, direct, iterative, linalg, problems
from qlskit.errors import (
    DimensionMismatch,
    InvalidParameter,
    NoRealRoot,
    ZeroVector,
)
from helpers import (
    CORES,
    analysis_groups,
    analysis_stack_mismatches,
    commutation_matrix,
    frac_matrix,
    frac_solve,
    frac_vector,
    random_integer_problem,
    run_under_core,
)

U = np.finfo(float).eps / 2

LONG = iterative.IterationControl(tol=1e-30, max_iterations=4000, patience=200)


def zero_problem(a):
    n = a.shape[1]
    return problems.QlsProblem(a=a, b=np.zeros(a.shape[0]), c=np.zeros(n))


def test_structured_cond_base_hand_cases():
    p = zero_problem(np.eye(2))
    assert abs(analysis.structured_cond_base(p, np.zeros(2)) - np.sqrt(2.0)) < 1e-14
    p = zero_problem(2.0 * np.eye(2))
    want = np.sqrt(1.0 / 16.0 + 1.0 / 4.0)
    assert abs(analysis.structured_cond_base(p, np.zeros(2)) - want) < 1e-14


def test_structured_cond_base_matches_explicit_operator():
    # the operator [(r^T (x) G^-1) K - x^T (x) A^dagger, A^dagger, G^-1]
    # acting on (vec E, f, g); K re-orders vec(E^T) into vec(E)
    rng = np.random.default_rng(np.random.SeedSequence(66))
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(n + 3, 7))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        c = rng.standard_normal(n)
        p = problems.QlsProblem(a=a, b=b, c=c)
        x = direct.solve_qr(p)
        r = b - a @ x
        gi = np.linalg.inv(a.T @ a)
        pinv = gi @ a.T
        k = commutation_matrix(m, n)
        blk = np.kron(r.reshape(1, -1), gi) @ k - np.kron(x.reshape(1, -1), pinv)
        mop = np.hstack([blk, pinv, gi])
        smax = np.linalg.svd(mop, compute_uv=False)[0]
        got = analysis.structured_cond_base(p, x)
        worst = max(worst, abs(got - smax) / smax)
    assert worst <= 1e-10


def test_structured_cond_eps_zero_c_equals_base():
    rng = np.random.default_rng(48)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    p = problems.QlsProblem(a=a, b=b, c=np.zeros(3))
    x = direct.solve_qr(p)
    base = analysis.structured_cond_base(p, x)
    got = analysis.structured_cond_eps(p, x, 2.0 ** -20)
    assert abs(got - base) <= 1e-12 * base


def test_structured_cond_eps_converges_to_base():
    p = problems.assemble_problem(8, 4, (2.0, 1.5, 1.0, 0.5),
                                  (1.0, -2.0, 0.5, 3.0), kind=3, seed=2)
    x = direct.solve_qr(p)
    base = analysis.structured_cond_base(p, x)
    diffs = []
    for eps in (2.0 ** -5, 2.0 ** -10, 2.0 ** -20, 2.0 ** -30):
        diffs.append(abs(analysis.structured_cond_eps(p, x, eps) - base))
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    assert diffs[-1] <= 1e-8 * base


def test_structured_cond_eps_flat_where_classical_blows_up():
    # the shifted system has a huge residual (||r|| ~ ||c||/sigma_min),
    # so the classical large-residual estimate grows like 1/eps while
    # the structured value stays put and approaches the base one
    rng = np.random.default_rng(np.random.SeedSequence([3]))
    sig = problems.sigma_c2(50, 1e-7, 0.1)
    c = rng.random(50)
    p = problems.assemble_problem(100, 50, sig, c, kind=1, seed=5)
    x = direct.solve_qr(p)
    base = analysis.structured_cond_base(p, x)
    grid = [2.0 ** -27, 2.0 ** -36, 2.0 ** -45, 2.0 ** -54]
    vals, classical = [], []
    for eps in grid:
        vals.append(analysis.structured_cond_eps(p, x, eps))
        sys_ = problems.Stack([p]).eps_system(eps)
        a_eps, b_eps = sys_.a[0], sys_.b[0]
        xe = direct.solve_qr_eps(p, eps)
        res = np.linalg.norm(b_eps - a_eps @ xe)
        smax = np.linalg.svd(a_eps, compute_uv=False)
        kap = smax[0] / smax[-1]
        classical.append(kap ** 2 * res / (smax[0] * np.linalg.norm(xe)))
    assert max(vals) / min(vals) <= 1.5
    assert abs(vals[-1] - base) <= 1e-2 * base
    assert classical[-1] / classical[0] >= 1e6


def test_structured_cond_eps_matches_explicit_inverse():
    # Mbar of the docstring from an explicitly inverted G_eps, at an eps
    # large enough that every eps term weighs in.
    rng = np.random.default_rng(np.random.SeedSequence(1414))
    eps = 2.0 ** -3
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n + 2, 9))
        a = rng.standard_normal((m, n)) + 2.0 * np.eye(m, n)
        b = rng.standard_normal(m)
        c = 4.0 * rng.standard_normal(n)
        p = problems.QlsProblem(a=a, b=b, c=c)
        x = rng.standard_normal(n)
        r = b - a @ x
        w = np.linalg.inv(a.T @ a + eps * eps * np.outer(c, c))
        lead = (1.0 - 2.0 * eps * (c @ x)) ** 2 + r @ r
        bmat = np.outer(w @ a.T @ r, w @ x)
        mbar = lead * w @ w + (1.0 + x @ x) * w @ a.T @ a @ w - (bmat + bmat.T)
        want = np.sqrt(np.linalg.norm(mbar, 2))
        got = analysis.structured_cond_eps(p, x, eps)
        worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-10


def test_eps_quantities_round_eps_like_eps_weight():
    rng = np.random.default_rng(np.random.SeedSequence(1415))
    p = problems.QlsProblem(a=rng.standard_normal((7, 3)),
                            b=rng.standard_normal(7), c=rng.standard_normal(3))
    x = direct.solve_qr(p)
    assert problems.eps_weight(0.3) == (0.25, True)
    for fn in (analysis.structured_cond_eps,
               analysis.linearized_backward_error_eps,
               lambda p, x, eps: analysis.forward_error_estimates(
                   p, x, eps, methods=("cglseps",))["cglseps"]):
        assert fn(p, x, 0.3) == fn(p, x, 0.25)
        with pytest.raises(InvalidParameter):
            fn(p, x, 2.0)


def test_linearized_backward_error_hand_case():
    p = problems.QlsProblem(a=np.array([[1.0]]), b=np.array([1.0]),
                            c=np.array([0.0]))
    got = analysis.linearized_backward_error(p, np.zeros(1))
    assert abs(got - 1.0 / np.sqrt(3.0)) < 1e-14


def test_backward_error_zero_at_exact():
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 2.0]),
                            c=np.zeros(2), x_exact=np.array([1.0, 2.0]))
    assert analysis.linearized_backward_error(p, p.x_exact) == 0.0
    assert analysis.relative_backward_error(p, p.x_exact) == 0.0
    with pytest.raises(InvalidParameter):
        analysis.linearized_backward_error(p, p.x_exact, theta1=0.0)


def test_backward_error_small_at_computed_solution():
    rng = np.random.default_rng(51)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        m = n + int(rng.integers(1, 5))
        sigma = np.sort(rng.random(n) + 0.2)[::-1]
        p = problems.assemble_problem(m, n, sigma, rng.standard_normal(n),
                                      kind=4, seed=int(rng.integers(100)))
        eta = analysis.relative_backward_error(p, direct.solve_qr(p))
        assert 0.0 <= eta <= 1e3 * U * p.kappa()


def test_backward_error_eps_approaches_base():
    rng = np.random.default_rng(52)
    p = problems.assemble_problem(8, 4, (2.0, 1.5, 1.0, 0.5),
                                  (1.0, -2.0, 0.5, 3.0), kind=3, seed=2)
    xh = direct.solve_qr(p) + 1e-8 * rng.standard_normal(4)
    base = analysis.linearized_backward_error(p, xh)
    assert analysis.linearized_backward_error_eps(p, xh, 2.0 ** -10) > 2.0 * base
    for eps in (2.0 ** -25, 2.0 ** -47):
        got = analysis.linearized_backward_error_eps(p, xh, eps)
        assert abs(got - base) <= 1e-3 * base


def test_eta_one_scale():
    assert abs(analysis.eta_one(np.array([1.0, 0.0])) - np.sqrt(3.0)) < 1e-14
    got = analysis.eta_one(np.array([2.0]), theta1=0.5, theta2=0.25)
    assert abs(got - np.sqrt(4.0 + 16.0 + 4.0)) < 1e-14


def test_minimum_norm_perturbation_matches_eta():
    rng = np.random.default_rng(53)
    for theta1, theta2 in [(1.0, 1.0), (0.5, 2.0), (4.0, 0.25)] * 8:
        n = int(rng.integers(2, 5))
        m = n + int(rng.integers(1, 4))
        a = rng.standard_normal((m, n))
        p = problems.QlsProblem(a=a, b=rng.standard_normal(m),
                                c=rng.standard_normal(n))
        xt = direct.solve_qr(p) + 1e-7 * rng.standard_normal(n)
        trip = analysis.minimum_norm_perturbation(p, xt, theta1, theta2)
        eta = analysis.linearized_backward_error(p, xt, theta1, theta2)
        weighted = np.sqrt(np.sum(trip.e ** 2) + theta1 ** 2 * trip.f @ trip.f
                           + theta2 ** 2 * trip.g @ trip.g)
        assert abs(weighted - eta) <= 1e-10 * max(eta, 1e-300)
        if theta1 == theta2 == 1.0:
            assert trip.weighted_norm == pytest.approx(eta, rel=1e-10)
        # the triple admits xt up to second order in its own size
        ap = a + trip.e
        res = ap.T @ (p.b + trip.f - ap @ xt) + p.c + trip.g
        scale = max(1.0, 1.0 / theta1, 1.0 / theta2)
        assert np.linalg.norm(res) <= 1e2 * (scale * eta) ** 2 * (1 + np.linalg.norm(xt)) + 1e2 * U


def exact_backward_error(p, x, theta1, theta2, theta_a, eps=None):
    """sqrt(h^T (J J^T)^-1 h) with J built entrywise in fractions."""
    a, b, c = frac_matrix(p.a), frac_vector(p.b), frac_vector(p.c)
    xf = frac_vector(x)
    m, n = len(a), len(a[0])
    t1, t2, ta = Fraction(theta1), Fraction(theta2), Fraction(theta_a)
    r = [b[i] - sum(a[i][j] * xf[j] for j in range(n)) for i in range(m)]
    e2 = Fraction(0) if eps is None else Fraction(eps) ** 2
    ctx = sum(c[j] * xf[j] for j in range(n))
    h = [sum(a[i][k] * r[i] for i in range(m)) + c[k] - e2 * ctx * c[k]
         for k in range(n)]
    rows = []
    for k in range(n):
        # d psi_k / d E[i, j] = delta_kj r_i - A[i, k] x_j
        row = [((r[i] if k == j else 0) - a[i][k] * xf[j]) / ta
               for i in range(m) for j in range(n)]
        row += [a[i][k] / t1 for i in range(m)]
        row += [((1 - e2 * ctx if k == l else 0) - e2 * c[k] * xf[l]) / t2
                for l in range(n)]
        rows.append(row)
    gram = [[sum(u * v for u, v in zip(rows[i], rows[j])) for j in range(n)]
            for i in range(n)]
    y = frac_solve(gram, h)
    return math.sqrt(sum(hk * yk for hk, yk in zip(h, y)))


def test_backward_error_matches_exact_jacobian_oracle():
    rng = np.random.default_rng(np.random.SeedSequence(60))
    eps = 2.0 ** -3
    weights = [(1.0, 1.0, 1.0), (0.25, 2.0, 0.5), (2.0, 0.5, 0.25),
               (0.5, 0.25, 2.0)]
    cases = []
    for m, n in ((1, 1), (3, 2), (4, 3), (5, 3), (5, 1), (3, 3)):
        p = random_integer_problem(rng, m, n)
        cases.append((p, rng.standard_normal(n)))
        cases.append((p, np.zeros(n)))
        # c = A^T (A x - b) makes the integer x an exact solution: h = 0
        xs = rng.integers(-3, 4, size=n).astype(float)
        c = p.a.T @ (p.a @ xs - p.b)
        cases.append((problems.QlsProblem(a=p.a, b=p.b, c=c), xs))
    exact_solutions = 0
    for p, x in cases:
        for t1, t2, ta in weights:
            want = exact_backward_error(p, x, t1, t2, ta)
            got = analysis.linearized_backward_error(p, x, t1, t2, ta)
            assert abs(got - want) <= 1e-10 * want
            exact_solutions += want == 0.0
            want = exact_backward_error(p, x, t1, t2, ta, eps)
            got = analysis.linearized_backward_error_eps(p, x, eps, t1, t2, ta)
            assert abs(got - want) <= 1e-10 * want
    assert exact_solutions == 6 * len(weights)


def test_sm_proximity_bound_values():
    p = problems.QlsProblem(a=np.eye(2), b=np.ones(2), c=np.zeros(2))
    assert analysis.sm_proximity_bound(p, 0.5) == 0.0
    p = problems.QlsProblem(a=np.eye(2), b=np.ones(2), c=np.array([1.0, 0.0]))
    assert abs(analysis.sm_proximity_bound(p, 1.0) - 0.5) < 1e-14


def test_sm_proximity_bound_quarters_on_halved_eps():
    rng = np.random.default_rng(54)
    sigma = np.sort(rng.random(4) + 0.2)[::-1]
    p = problems.assemble_problem(8, 4, sigma, rng.standard_normal(4),
                                  kind=5, seed=11)
    for eps in (2.0 ** -15, 2.0 ** -25):
        ratio = analysis.sm_proximity_bound(p, eps / 2) / analysis.sm_proximity_bound(p, eps)
        assert abs(ratio - 0.25) < 1e-6


def test_initial_rounding_bound_values():
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 0.0]), c=np.zeros(2))
    want = 3.0 * U / (1.0 - 3.0 * U)
    assert abs(analysis.initial_rounding_bound(p) - want) < 1e-20


def test_initial_rounding_bound_predicts_cg_failure():
    rng = np.random.default_rng(np.random.SeedSequence([3]))
    sig = problems.sigma_c2(20, 1e-8, 0.5)
    c = 1e-14 * rng.random(20)
    p = problems.assemble_problem(40, 20, sig, c, kind=2, seed=3)
    assert analysis.initial_rounding_bound(p) > 1e-2


def test_cg_inadequacy_indicator_values():
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 0.0]), c=np.zeros(2))
    got = analysis.cg_inadequacy_indicator(p, np.array([1.0, 0.0]))
    assert abs(got - 1.0 / (3.0 * np.sqrt(3.0))) < 1e-14
    assert got < 1.0
    # steep spectrum with a tiny c: the formed-once rhs dominates
    rng = np.random.default_rng(np.random.SeedSequence([42, 1]))
    c = 1e-12 * rng.random(20)
    p = problems.assemble_problem(40, 20, problems.sigma_c1(20, 0.4), c,
                                  kind=1, seed=101)
    assert analysis.cg_inadequacy_indicator(p, p.x_exact) > 1.0


def test_rank_one_identity_norm():
    assert analysis.rank_one_identity_norm(np.zeros(3), np.ones(3)) == 1.0
    assert analysis.rank_one_identity_norm(np.ones(3), np.zeros(3)) == 1.0
    with pytest.raises(DimensionMismatch):
        analysis.rank_one_identity_norm(np.ones(2), np.ones(3))
    rng = np.random.default_rng(55)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        got = analysis.rank_one_identity_norm(u, v)
        dense = np.linalg.svd(np.eye(n) + np.outer(u, v), compute_uv=False)[0]
        want = max(1.0, dense)
        assert abs(got - want) <= 1e-12 * want


def test_forward_error_estimates_magnitudes():
    # steep well-separated spectrum with a tiny c; the CG estimate sits
    # orders above the structured ones
    rng = np.random.default_rng(np.random.SeedSequence([42, 0]))
    c = 1e-10 * rng.random(20)
    p = problems.assemble_problem(40, 20, problems.sigma_c1(20, 2.0), c,
                                  kind=1, seed=100)
    xhats = {
        "cg": iterative.cg_base(p, control=LONG).x,
        "cglsi": iterative.cgls_i(p, control=LONG).x,
        "cglseps": iterative.cgls_eps(p, 2.0 ** -47, control=LONG).x,
    }
    est = {k: analysis.forward_error_estimates(p, x, eps=2.0 ** -47,
                                               methods=[k])[k]
           for k, x in xhats.items()}
    assert 1e-6 <= est["cg"] <= 1e-4
    assert 3e-7 <= est["cglsi"] <= 3e-5
    assert 4e-8 <= est["cglseps"] <= 4e-6


def test_forward_error_estimates_validation():
    p = problems.QlsProblem(a=np.eye(2), b=np.ones(2), c=np.zeros(2))
    with pytest.raises(InvalidParameter):
        analysis.forward_error_estimates(p, np.ones(2), methods=["simplex"])
    with pytest.raises(ZeroVector):
        analysis.forward_error_estimates(p, np.zeros(2))


def test_conditioning_report_fields():
    rng = np.random.default_rng(56)
    sigma = np.sort(rng.random(3) + 0.3)[::-1]
    p = problems.assemble_problem(6, 3, sigma, rng.standard_normal(3),
                                  kind=6, seed=8)
    rep = analysis.conditioning_report(p)
    for name in ("kappa", "data_norm", "eta_bar"):
        v = getattr(rep, name)
        assert np.isfinite(v) and v >= 0.0
    assert abs(rep.kappa - p.kappa()) < 1e-9 * p.kappa()
    assert abs(rep.data_norm - analysis.problem_data_norm(p)) < 1e-12


def test_conditioning_report_eta_zero_at_exact():
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 2.0]),
                            c=np.zeros(2), x_exact=np.array([1.0, 2.0]))
    rep = analysis.conditioning_report(p, x=p.x_exact)
    assert rep.eta_bar == 0.0


def test_construct_perturbation_membership_random():
    rng = np.random.default_rng(57)
    for _ in range(25):
        a = rng.integers(-5, 6, size=(3, 2)).astype(float)
        if np.linalg.matrix_rank(a) < 2:
            continue
        p = problems.QlsProblem(a=a, b=rng.integers(-5, 6, size=3).astype(float),
                                c=rng.integers(-5, 6, size=2).astype(float))
        xt = rng.standard_normal(2)
        if abs(np.linalg.norm(xt)) < 1e-3:
            continue
        v = rng.standard_normal(3)
        z = rng.standard_normal((3, 2))
        for root in ("smaller", "larger"):
            try:
                e, alpha = analysis.construct_perturbation(p, xt, v, z=z, root=root)
            except NoRealRoot:
                continue
            ap = a + e
            res = ap.T @ (p.b - ap @ xt) + p.c
            scale = (np.linalg.norm(a) + np.linalg.norm(e)) ** 2 * np.linalg.norm(xt)
            assert np.linalg.norm(res) <= 1e-10 * scale


def test_construct_perturbation_linear_degenerate_case():
    # c = 0 at the exact LS solution: the quadratic term vanishes and
    # alpha = -1 / v^T b with v = residual
    rng = np.random.default_rng(58)
    a = rng.standard_normal((4, 2))
    b = rng.standard_normal(4)
    p = problems.QlsProblem(a=a, b=b, c=np.zeros(2))
    xt = direct.solve_qr(p)
    v = p.residual(xt)
    e, alpha = analysis.construct_perturbation(p, xt, v)
    assert abs(alpha + 1.0 / float(v @ b)) <= 1e-10 * abs(alpha)
    ap = a + e
    res = ap.T @ (p.b - ap @ xt) + p.c
    scale = (np.linalg.norm(a) + np.linalg.norm(e)) ** 2 * np.linalg.norm(xt)
    assert np.linalg.norm(res) <= 1e-10 * scale


def test_zero_perturbation_membership_consistent_case():
    rng = np.random.default_rng(59)
    a = rng.standard_normal((4, 2))
    xstar = rng.standard_normal(2)
    p = problems.QlsProblem(a=a, b=a @ xstar, c=np.zeros(2))
    res = a.T @ (p.b - a @ xstar) + p.c
    assert np.linalg.norm(res) <= 1e2 * U * np.linalg.norm(a) ** 2 * np.linalg.norm(xstar)


def test_construct_perturbation_no_real_root():
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 0.0]),
                            c=np.array([-5.0, 0.0]))
    with pytest.raises(NoRealRoot):
        # v orthogonal to b and c^T x < 0 push the discriminant negative
        analysis.construct_perturbation(p, np.array([1.0, 0.0]),
                                        np.array([0.0, 1.0]))


def test_construct_perturbation_validation():
    p = problems.QlsProblem(a=np.eye(2), b=np.ones(2), c=np.ones(2))
    with pytest.raises(ZeroVector):
        analysis.construct_perturbation(p, np.ones(2), np.zeros(2))
    with pytest.raises(ZeroVector):
        analysis.construct_perturbation(p, np.zeros(2), np.ones(2))
    with pytest.raises(DimensionMismatch):
        analysis.construct_perturbation(p, np.ones(2), np.ones(3))
    with pytest.raises(DimensionMismatch):
        analysis.construct_perturbation(p, np.ones(2), np.ones(2),
                                        z=np.ones((3, 3)))
    with pytest.raises(InvalidParameter):
        analysis.construct_perturbation(p, np.ones(2), np.ones(2),
                                        root="median")


def test_group_calls_are_bitwise_their_single_calls():
    # One-problem calls, and a group of same-shape problems with a (B, n)
    # stack of iterates, whole or in chunks, give per problem exactly the
    # value of the one-problem formulas in analysis_reference.
    assert analysis_stack_mismatches() == []


@pytest.mark.parametrize("core", CORES)
def test_group_bitwise_under_each_blas_kernel(core):
    # The stacked products, factorizations and solves reach the kernels of
    # the one-problem calls under every OpenBLAS core.
    out = run_under_core(
        core, "import helpers\nprint(helpers.analysis_stack_mismatches())\n")
    assert out.strip() == "[]"


@pytest.mark.parametrize("methods, kinds", [(("cglsi",), 2),
                                             (("cglseps",), 3),
                                             (("cg", "cglsi", "cglseps"), 4)])
def test_estimates_factor_each_chunk_once_per_kind(monkeypatch, methods,
                                                   kinds):
    # Every QR of the record stage (of the backward-error factor F^T and
    # of A; of [A; eps c^T] too for "cglseps") is one stacked call per
    # chunk of the group, never one call per problem, and A is factored
    # once per chunk however many estimates use it.
    probs, xs = analysis_groups()["table"]
    m, n = probs[0].a.shape
    monkeypatch.setattr(analysis, "STACK_BYTES",
                        4 * 8 * (2 * m + 2 * n + 1) * n)
    real, shapes = linalg.qr_factorize, []

    def spy(a, pivoting=False):
        shapes.append(np.shape(a))
        return real(a, pivoting)

    monkeypatch.setattr(linalg, "qr_factorize", spy)
    analysis.forward_error_estimates(probs, xs, methods=methods)
    assert sorted(s[:-2] for s in shapes) == sorted([(4,), (4,), (2,)] * kinds)
    assert sorted(s for s in shapes if s[-2:] == (m, n)) == [
        (2, m, n), (4, m, n), (4, m, n)]


def test_group_call_validation():
    probs, xs = analysis_groups()["table"]
    other = zero_problem(np.eye(2))
    for fn in (analysis.relative_backward_error,
               analysis.forward_error_estimates):
        with pytest.raises(DimensionMismatch):
            fn(probs[:2] + [other], xs[:3])
        with pytest.raises(DimensionMismatch):
            fn(probs[:2], xs[:3])
        with pytest.raises(DimensionMismatch):
            fn(probs[:2], xs[0])
        with pytest.raises(DimensionMismatch):
            fn([], np.zeros((0, 20)))
    # A missing iterate is a missing argument, as in any Python call.
    with pytest.raises(TypeError):
        analysis.relative_backward_error(probs[0])
    with pytest.raises(TypeError):
        analysis.forward_error_estimates(probs[:2])
    zeroed = xs[:3].copy()
    zeroed[1] = 0.0
    with pytest.raises(ZeroVector):
        analysis.forward_error_estimates(probs[:3], zeroed)
    assert analysis.forward_error_estimates(probs[:2], xs[:2], methods=()) == [{}, {}]


@pytest.mark.parametrize("ka, kb, kc", [(0, 996, 996), (600, 0, 600),
                                        (-300, 500, 200)])
def test_relative_backward_error_is_finite_and_exact_far_from_unit_scale(
        ka, kb, kc):
    # A scaled by 2^ka, b by 2^kb and c by 2^kc = 2^(ka+kb) is exact and
    # scales x by 2^(kb-ka); the relative backward error does not change.
    # It is evaluated on the in-range data, so it gives the unscaled bits,
    # alone and in a group, with no overflow (any warning fails).
    probs, xs = analysis_groups()["table"]
    big = [problems.QlsProblem(np.ldexp(p.a, ka), np.ldexp(p.b, kb),
                               np.ldexp(p.c, kc)) for p in probs[:3]]
    xbig = np.ldexp(xs[:3], kb - ka)
    want = analysis.relative_backward_error(probs[:3], xs[:3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = analysis.relative_backward_error(big[0], xbig[0])
        group = analysis.relative_backward_error(big, xbig)
    assert one.hex() == want[0].hex()
    assert [g.hex() for g in group] == [w.hex() for w in want]
