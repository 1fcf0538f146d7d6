"""Direct solvers: semi-normal QR, eps-shifted QR, rank-one update, KKT."""

import math

import numpy as np
import pytest

from qlskit import analysis, bench, direct, iterative, linalg, problems
from qlskit.errors import Breakdown, DimensionMismatch, InvalidParameter
from helpers import (CORES, direct_stack_mismatches, frac_norm,
                     rational_solution, run_under_core)

U = np.finfo(float).eps / 2


def test_solve_qr_identity():
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 2.0]),
                            c=np.array([3.0, 4.0]))
    assert np.allclose(direct.solve_qr(p), [4.0, 6.0], atol=1e-14)


def test_solve_qr_embedded_diagonal():
    a = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    p = problems.QlsProblem(a=a, b=np.array([2.0, 1.0, 0.0]), c=np.zeros(2))
    assert np.allclose(direct.solve_qr(p), [1.0, 1.0], atol=1e-14)


def test_solve_qr_matches_rational_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        a = rng.integers(-9, 10, size=(5, 3)).astype(float)
        if np.linalg.matrix_rank(a) < 3:
            continue
        b = rng.integers(-9, 10, size=5).astype(float)
        c = rng.integers(-9, 10, size=3).astype(float)
        p = problems.QlsProblem(a=a, b=b, c=c)
        xf = rational_solution(a, b, c)
        xe = np.array([float(v) for v in xf])
        rel = np.linalg.norm(direct.solve_qr(p) - xe) / frac_norm(xf)
        assert rel <= 1e3 * U * p.kappa() ** 2


def test_solve_qr_eps_zero_c_is_least_squares():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    p = problems.QlsProblem(a=a, b=b, c=np.zeros(3))
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    for eps in (2.0 ** -47, 2.0 ** -20):
        assert np.allclose(direct.solve_qr_eps(p, eps), want, atol=1e-12)


def test_solve_qr_eps_unit_eps_hand_case():
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 1.0]),
                            c=np.array([1.0, 0.0]))
    assert np.allclose(direct.solve_qr_eps(p, 1.0), [1.0, 1.0], atol=1e-14)


def test_solve_qr_eps_accuracy_on_mild_spectrum():
    rng = np.random.default_rng(np.random.SeedSequence([42, 2]))
    c = 0.1 * rng.random(20)
    p = problems.assemble_problem(40, 20, problems.sigma_c1(20, 0.7), c,
                                  kind=1, seed=102)
    x = direct.solve_qr_eps(p, 2.0 ** -47)
    rel = np.linalg.norm(x - p.x_exact) / np.linalg.norm(p.x_exact)
    assert rel <= 5e-13


def test_solve_sm_hand_case_and_zero_c():
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 1.0]),
                            c=np.array([1.0, 0.0]))
    assert np.allclose(direct.solve_sm(p, 1.0), [1.0, 1.0], atol=1e-14)
    rng = np.random.default_rng(43)
    a = rng.standard_normal((5, 2))
    b = rng.standard_normal(5)
    p = problems.QlsProblem(a=a, b=b, c=np.zeros(2))
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.allclose(direct.solve_sm(p, 2.0 ** -30), want, atol=1e-12)


def test_solve_sm_eps_zero_closed_form():
    rng = np.random.default_rng(44)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        m = n + int(rng.integers(1, 4))
        sigma = np.sort(rng.random(n) + 0.3)[::-1]
        p = problems.assemble_problem(m, n, sigma, rng.standard_normal(n),
                                      kind=6, seed=int(rng.integers(100)))
        x = direct.solve_sm(p, 0.0)
        xq = direct.solve_qr(p)
        assert np.linalg.norm(x - xq) <= 1e2 * U * p.kappa() ** 2 * np.linalg.norm(xq)


def test_solve_sm_agrees_with_qr_small_eps():
    rng = np.random.default_rng(45)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        m = n + int(rng.integers(1, 4))
        sigma = np.sort(rng.random(n) + 0.2)[::-1]
        p = problems.assemble_problem(m, n, sigma, rng.standard_normal(n),
                                      kind=3, seed=int(rng.integers(100)))
        xq = direct.solve_qr(p)
        x = direct.solve_sm(p, 2.0 ** -47)
        w = np.linalg.solve(p.a.T @ p.a, p.c)
        grow = 1.0 + 2.0 ** -94 * np.linalg.norm(p.c) * np.linalg.norm(w)
        assert np.linalg.norm(x - xq) <= 1e2 * U * p.kappa() ** 2 * grow * np.linalg.norm(xq)


def test_solve_aug_hand_case_and_consistent():
    p = problems.QlsProblem(a=np.array([[1.0]]), b=np.array([2.0]),
                            c=np.array([1.0]))
    assert np.allclose(direct.solve_aug(p, scale=1.0), [3.0], atol=1e-13)
    rng = np.random.default_rng(46)
    a = rng.standard_normal((6, 3))
    xstar = rng.standard_normal(3)
    p = problems.QlsProblem(a=a, b=a @ xstar, c=np.zeros(3))
    kappa = np.linalg.cond(a)
    rel = np.linalg.norm(direct.solve_aug(p) - xstar) / np.linalg.norm(xstar)
    assert rel <= 1e2 * U * kappa


def test_all_solvers_agree_at_desk_scale():
    # kappa <= 1e2 instances; every solver lands on the same solution
    rng = np.random.default_rng(47)
    long = iterative.IterationControl(tol=1e-30, max_iterations=2000,
                                      patience=100)
    eps = 2.0 ** -47
    for _ in range(10):
        n = int(rng.integers(2, 7))
        m = n + int(rng.integers(1, 6))
        sigma = np.linspace(0.05, 1.0, n)[::-1]
        p = problems.assemble_problem(m, n, sigma, rng.standard_normal(n),
                                      kind=int(rng.integers(1, 7)),
                                      seed=int(rng.integers(1000)))
        sols = [
            iterative.cg_base(p, control=long).x,
            iterative.cgls_i(p, control=long).x,
            iterative.cgls_eps(p, eps, control=long).x,
            iterative.minres_augmented(p, control=long).x,
            direct.solve_qr(p),
            direct.solve_qr_eps(p, eps),
            direct.solve_sm(p, eps),
            direct.solve_aug(p),
        ]
        ref = sols[4]
        nref = np.linalg.norm(ref)
        for x in sols:
            assert np.linalg.norm(x - ref) <= 1e-8 * nref


A0 = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
DIRECT = (direct.solve_qr, direct.solve_qr_eps, direct.solve_sm,
          direct.solve_aug)


@pytest.mark.parametrize("scale", [1e-180, 1e-170, 1e200])
def test_direct_solvers_extreme_scale_data(scale):
    # Unscaled, every solver overflowed at both scales (in A^T b near
    # 1e200, in the triangular solves near 1e-170).  Scaled by powers of
    # two at entry, each lands on the least-squares solution; any
    # RuntimeWarning fails the test.  At 1e-180 SM's eps^-2 underflows in
    # the scaled units, where c = 0 must still add no correction.
    p = problems.QlsProblem(a=scale * A0, b=np.ones(3), c=np.zeros(2))
    want = np.linalg.lstsq(p.a, p.b, rcond=None)[0]
    for solve in DIRECT:
        x = solve(p)
        assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max(), solve


@pytest.mark.parametrize("ka, kb", [(600, 0), (-600, 0), (0, 700),
                                    (0, -700), (-500, 500)])
def test_direct_out_of_range_scaling_is_exact(ka, kb):
    # With max |A| and max |(b, c)| in [1/2, 1), data scaled by 2^ka and
    # 2^kb beyond the safe range is scaled back exactly, so each solver
    # repeats the unscaled solve and returns 2^(kb - ka) x bitwise.  The
    # eps solution is homogeneous in (b, c) only for kb = 0: the eps row
    # keeps its right-hand side 1/eps.
    base = problems.QlsProblem(a=A0 / 8, b=np.array([0.75, 0.5, -0.5]),
                               c=np.array([0.5, -0.25]))
    big = problems.QlsProblem(a=np.ldexp(base.a, ka), b=np.ldexp(base.b, kb),
                              c=np.ldexp(base.c, ka + kb))
    solvers = [direct.solve_qr, direct.solve_aug,
               lambda p: direct.solve_sm(p, 0.0)]
    if kb == 0:
        solvers += [direct.solve_qr_eps, direct.solve_sm]
    for solve in solvers:
        assert np.array_equal(solve(big), np.ldexp(solve(base), kb - ka))


@pytest.mark.parametrize(
    "kb, kc", [pytest.param(k, k, id=str(k)) for k in (-600, -116, 116, 600)]
    + [(600, 0)])
def test_eps_solvers_keep_the_weight_on_out_of_range_data(kb, kc):
    # b near 2^kb and c near 2^kc, outside the safe range, are scaled at
    # entry; the eps weight must stay that of the unscaled stacked system,
    # and SM's rank-one correction must neither overflow nor underflow,
    # also where b's scale lies far from c's.  Exact reference: the
    # eps-shifted Gram system in rational arithmetic.
    p = problems.QlsProblem(a=A0, b=np.ldexp([0.75, -0.5, 0.625], kb),
                            c=np.ldexp([0.5, -0.875], kc))
    want = np.array([float(v) for v in
                     rational_solution(p.a, p.b, p.c, eps=0.5)])
    solvers = [direct.solve_sm]
    if kc <= 0:
        # At 2^116 the eps row outweighs A by 2^115, past the pivoted
        # QR's rank check.
        solvers.append(direct.solve_qr_eps)
    for solve in solvers:
        x = solve(p, 0.5)
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max(), solve


@pytest.mark.parametrize("eps", [1e300, 2.0, -0.5, float("nan"), 1e-320])
def test_sm_eps_outside_range_raises(eps):
    # SM and its proximity bound take eps through problems.eps_weight, as
    # the stacked system does; eps = 1e300 returned [nan, nan] before, and
    # 1e-320 rounds below 2^-1023, where 1/eps overflows.
    p = problems.QlsProblem(a=A0, b=np.ones(3), c=np.array([1.0, -2.0]))
    with pytest.raises(InvalidParameter):
        direct.solve_sm(p, eps)
    with pytest.raises(InvalidParameter):
        analysis.sm_proximity_bound(p, eps)


# Rank one, so the saddle matrix [[s I, A], [A^T, 0]] is singular at any s.
RANK_ONE = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])


def test_singular_saddle_matrix_is_breakdown():
    # LAPACK's LinAlgError becomes the package's typed Breakdown, alone
    # and inside a group, where the others keep their own call's x.
    singular = problems.QlsProblem(a=RANK_ONE, b=np.array([1.0, 2.0, 3.0]),
                                   c=np.array([1.0, -1.0]))
    others = [problems.QlsProblem(a=A0, b=np.array([1.0, 2.0, 3.0]),
                                  c=np.array([1.0, -1.0])),
              problems.QlsProblem(a=A0 / 8, b=np.ones(3), c=np.zeros(2))]
    for scale in (1.0, None):
        with pytest.raises(Breakdown):
            direct.solve_aug(singular, scale=scale)
        with pytest.raises(Breakdown):
            direct.solve_aug([others[0], singular, others[1]], scale=scale)
    outcomes = bench.solve("AUG", [others[0], singular, others[1]],
                           problems.DEFAULT_EPS, iterative.IterationControl())
    assert isinstance(outcomes[1], Breakdown)
    for o, p in zip(outcomes[::2], others):
        assert o.status == "direct"
        assert np.array_equal(o.x, direct.solve_aug(p))


def test_direct_group_calls_are_bitwise_their_single_calls():
    # QR, QREPS, SM and AUG on the table and set_p groups: a group call,
    # whole or in slices, gives each problem exactly its own call's x.
    assert direct_stack_mismatches() == []


@pytest.mark.parametrize("core", CORES)
def test_direct_group_bitwise_under_each_blas_kernel(core):
    # The stacked factorizations and solves reach the kernels of the
    # one-problem calls under every OpenBLAS core.
    out = run_under_core(
        core, "import helpers\nprint(helpers.direct_stack_mismatches())\n")
    assert out.strip() == "[]"


def test_direct_groups_factor_in_stacks(monkeypatch):
    # A 40-problem group: QREPS makes one pivoted QR per stack of
    # STACK_CHUNK problems, and AUG no LDLT at all.
    probs = problems.generate_problem_set_p(seed=1729)
    real, pivoted = linalg.qr_factorize, []

    def spy(a, pivoting=False):
        if pivoting:
            pivoted.append(np.shape(a)[0])
        return real(a, pivoting)

    def no_ldlt(m):
        raise AssertionError("AUG called the LDLT")

    monkeypatch.setattr(linalg, "qr_factorize", spy)
    monkeypatch.setattr(linalg, "ldlt_factorize", no_ldlt)
    direct.solve_qr_eps(probs)
    direct.solve_aug(probs)
    assert len(pivoted) == math.ceil(len(probs) / linalg.STACK_CHUNK)
    assert sum(pivoted) == len(probs)


def test_direct_group_validation():
    p = problems.QlsProblem(a=A0, b=np.ones(3), c=np.zeros(2))
    other = problems.QlsProblem(a=np.eye(2), b=np.ones(2), c=np.zeros(2))
    for solve in DIRECT:
        with pytest.raises(DimensionMismatch):
            solve([p, other])
        with pytest.raises(DimensionMismatch):
            solve([])
        assert np.array_equal(solve((p,))[0], solve(p))


def test_aug_scale_is_a_power_of_two_read_from_the_exponent_of_sigma_min(
        monkeypatch):
    # The default scale is 2^floor(log2 sigma_min), the power of two nearest
    # sigma_min / sqrt(2): a spectrum seeded off by a relative 1e-7 gives
    # every set_p 1729 problem bitwise the same x.
    probs = problems.generate_problem_set_p(seed=1729)
    scales, real = [], problems.Stack.augmented

    def spy(self, scale):
        scales.extend(np.ldexp(scale, self.ea))
        return real(self, scale)

    monkeypatch.setattr(problems.Stack, "augmented", spy)
    want = direct.solve_aug(probs)
    for p, s in zip(probs, scales):
        assert problems.is_power_of_two(s)
        assert p.sigma_min() / 2.0 < s <= p.sigma_min()
    moved = []
    for p in probs:
        q = problems.QlsProblem(p.a, p.b, p.c)
        q.seed_spectrum(p.singular_values() * (1.0 + 1e-7))
        moved.append(q)
    got = direct.solve_aug(moved)
    assert all(np.array_equal(x, w) for x, w in zip(got, want))


def test_aug_takes_sigma_from_the_problem_on_scaled_data(monkeypatch):
    # set_p 1729 with A and c scaled by 2^k, outside the safe range, and
    # sigma seeded scaled with them: AUG's scale comes from the problem's
    # own sigma_min, brought in range, so no SVD runs and every x is
    # exactly 2^-k times the unscaled one.
    probs = problems.generate_problem_set_p(seed=1729)
    want = direct.solve_aug(probs)
    calls = []
    real = linalg.svd
    monkeypatch.setattr(linalg, "svd", lambda a: calls.append(a) or real(a))
    for k in (120, -300):
        scaled = []
        for p in probs:
            q = problems.QlsProblem(np.ldexp(p.a, k), p.b, np.ldexp(p.c, k))
            q.seed_spectrum(np.ldexp(p.singular_values(), k))
            scaled.append(q)
        got = direct.solve_aug(scaled)
        assert calls == []
        assert all(np.array_equal(x, np.ldexp(w, -k))
                   for x, w in zip(got, want)), k
