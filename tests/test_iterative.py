"""Iterative solvers: CG on the normal equations and the CGLS family."""

import numpy as np
import pytest

from qlskit import analysis, iterative, problems
from qlskit.errors import DimensionMismatch, InvalidParameter
from helpers import identity_problem

U = np.finfo(float).eps / 2

LONG = iterative.IterationControl(tol=1e-30, max_iterations=4000, patience=200)


def test_control_resolve_validation():
    with pytest.raises(InvalidParameter):
        iterative.IterationControl(tol=0.0).resolve(3)
    with pytest.raises(InvalidParameter):
        iterative.IterationControl(tol=-1e-8).resolve(3)
    with pytest.raises(InvalidParameter):
        iterative.IterationControl(max_iterations=0).resolve(3)
    with pytest.raises(InvalidParameter):
        iterative.IterationControl(patience=0).resolve(3)
    with pytest.raises(DimensionMismatch):
        iterative.IterationControl(x0=np.ones(2)).resolve(3)
    tol, maxit, x0, patience = iterative.IterationControl().resolve(5)
    assert tol == iterative.DEFAULT_TOL and maxit == 50
    assert patience == iterative.STALL_PATIENCE and np.all(x0 == 0.0)


def test_cg_identity_one_iteration():
    p = identity_problem(b=(1.0, 2.0))
    o = iterative.cg_base(p)
    assert np.allclose(o.x, [1.0, 2.0]) and o.iterations == 1
    assert o.status == "converged"


def test_cg_pure_c_right_hand_side():
    p = identity_problem(b=(0.0, 0.0), c=(3.0, 4.0))
    o = iterative.cg_base(p)
    assert np.allclose(o.x, [3.0, 4.0]) and o.iterations == 1


def test_cg_exact_start_stops_immediately():
    p = identity_problem(b=(1.0, 2.0))
    o = iterative.cg_base(p, control=iterative.IterationControl(x0=[1.0, 2.0]))
    assert o.iterations == 0 and o.status == "converged"
    assert len(o.residual_norm_history) == 0


def test_cg_fails_on_tiny_sigma_cluster():
    # nearly rank-deficient spectrum; CG cannot recover the c-driven part
    rng = np.random.default_rng(np.random.SeedSequence([3]))
    sig = problems.sigma_c2(20, 1e-8, 0.5)
    c = 1e-14 * rng.random(20)
    p = problems.assemble_problem(40, 20, sig, c, kind=2, seed=3)
    o = iterative.cg_base(p)
    rel = np.linalg.norm(o.x - p.x_exact) / np.linalg.norm(p.x_exact)
    assert rel > 1e-2


def test_cgls_identity_and_mean():
    o = iterative.cgls(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(o.x, [1.0, 2.0, 3.0]) and o.iterations == 1
    o = iterative.cgls(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
    assert np.allclose(o.x, [2.0])


def test_cgls_recurred_residual_tracks_truth():
    # rerun with a shrinking iteration cap to observe every iterate
    rng = np.random.default_rng(31)
    a = rng.standard_normal((6, 3))
    b = a @ rng.standard_normal(3)
    full = iterative.cgls(a, b, control=iterative.IterationControl(tol=1e-30))
    na = np.linalg.norm(a)
    for k in range(1, full.iterations + 1):
        o = iterative.cgls(a, b, control=iterative.IterationControl(
            tol=1e-30, max_iterations=k))
        true_norm = np.linalg.norm(a.T @ (b - a @ o.x))
        rec = o.residual_norm_history[-1]
        assert abs(rec - true_norm) <= 100 * U * na ** 2 * np.linalg.norm(o.x) + 1e-300


def test_cgls_eps_zero_c_reduces_to_cgls():
    o = iterative.cgls_eps(identity_problem(b=(1.0, 2.0)), 2.0 ** -5)
    assert np.allclose(o.x, [1.0, 2.0], atol=1e-14)
    # appending the zero row only reshuffles dot-product grouping
    rng = np.random.default_rng(32)
    for _ in range(5):
        a = rng.standard_normal((7, 4))
        b = rng.standard_normal(7)
        p = problems.QlsProblem(a=a, b=b, c=np.zeros(4))
        oe = iterative.cgls_eps(p, 2.0 ** -47)
        oc = iterative.cgls(a, b)
        assert np.linalg.norm(oe.x - oc.x) <= 1e-10 * np.linalg.norm(oc.x)


def test_cgls_eps_smaller_eps_smaller_error():
    # With a large c the shifted solution sits eps^2-proportionally away
    # from the target; dropping eps by 2^3 divides the gap by 64.
    rng = np.random.default_rng(np.random.SeedSequence([8, 1]))
    c = 1e2 * rng.random(20)
    p = problems.assemble_problem(40, 20, problems.sigma_c1(20, 1.3), c,
                                  kind=1, seed=41)
    nx = np.linalg.norm(p.x_exact)
    errs = {}
    for eps in (2.0 ** -20, 2.0 ** -23):
        o = iterative.cgls_eps(p, eps, control=LONG)
        errs[eps] = np.linalg.norm(o.x - p.x_exact) / nx
        assert errs[eps] <= analysis.sm_proximity_bound(p, eps)
    assert errs[2.0 ** -23] < errs[2.0 ** -20]
    assert errs[2.0 ** -20] / errs[2.0 ** -23] > 4.0


def test_cgls_eps_first_step_approaches_cg_step():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 2))
    b = rng.standard_normal(4)
    c = rng.standard_normal(2)
    r0 = a.T @ b + c
    den = float((a @ r0) @ (a @ r0))
    base = float(r0 @ r0) / den
    prev = np.inf
    for eps in (2.0 ** -10, 2.0 ** -20, 2.0 ** -40):
        al = float(r0 @ r0) / (den + eps ** 2 * float(c @ r0) ** 2)
        diff = abs(al - base) / base
        assert diff < prev or diff == 0.0
        prev = diff
    assert prev <= 1e-12


def test_cglsi_identity_cases():
    o = iterative.cgls_i(identity_problem(b=(1.0, 2.0)))
    assert np.allclose(o.x, [1.0, 2.0]) and o.iterations == 1
    o = iterative.cgls_i(identity_problem(b=(0.0, 0.0), c=(3.0, 4.0)))
    assert np.allclose(o.x, [3.0, 4.0])


def test_cglsi_beats_cg_on_steep_spectrum():
    rng = np.random.default_rng(np.random.SeedSequence([42, 9]))
    c = 0.1 * rng.random(20)
    p = problems.assemble_problem(40, 20, problems.sigma_c1(20, 0.5), c,
                                  kind=1, seed=109)
    nx = np.linalg.norm(p.x_exact)
    e_cg = np.linalg.norm(iterative.cg_base(p, control=LONG).x - p.x_exact) / nx
    e_ci = np.linalg.norm(iterative.cgls_i(p, control=LONG).x - p.x_exact) / nx
    assert e_ci <= 1e-9
    assert e_cg / e_ci >= 1e2


def test_cglsi_gap_history_small():
    rng = np.random.default_rng(33)
    for _ in range(5):
        sigma = np.sort(rng.random(4) + 0.1)[::-1]
        p = problems.assemble_problem(8, 4, sigma, rng.standard_normal(4),
                                      kind=3, seed=int(rng.integers(100)))
        o = iterative.cgls_i(p, control=LONG)
        gaps = o.true_residual_gap_history
        assert gaps is not None and len(gaps) == o.iterations
        assert gaps[-1] <= 100 * U


def test_minres_hand_case_and_consistent():
    p = problems.QlsProblem(a=np.array([[1.0]]), b=np.array([2.0]),
                            c=np.array([1.0]))
    o = iterative.minres_augmented(p)
    assert np.allclose(o.x, [3.0], atol=1e-12) and o.status == "converged"
    rng = np.random.default_rng(34)
    a = rng.standard_normal((5, 3))
    xstar = rng.standard_normal(3)
    p = problems.QlsProblem(a=a, b=a @ xstar, c=np.zeros(3))
    o = iterative.minres_augmented(p)
    assert np.allclose(o.x, xstar, atol=1e-8 * np.linalg.norm(xstar))


def test_history_conventions_all_solvers():
    rng = np.random.default_rng(35)
    solvers = (
        iterative.cg_base,
        iterative.cgls_i,
        lambda q, control=None: iterative.cgls_eps(q, 2.0 ** -47, control=control),
        iterative.minres_augmented,
    )
    for _ in range(6):
        n = int(rng.integers(2, 6))
        m = n + int(rng.integers(1, 5))
        sigma = np.sort(rng.random(n) + 0.2)[::-1]
        p = problems.assemble_problem(m, n, sigma, rng.standard_normal(n),
                                      kind=4, seed=int(rng.integers(100)))
        for solve in solvers:
            o = solve(p)
            assert o.status in ("converged", "stalled", "diverged",
                                "max_iterations", "breakdown")
            hist = o.residual_norm_history
            assert len(hist) == o.iterations
            assert np.all(np.isfinite(hist)) and np.all(hist >= 0.0)


def test_max_iterations_status():
    rng = np.random.default_rng(np.random.SeedSequence([42, 9]))
    c = 0.1 * rng.random(20)
    p = problems.assemble_problem(40, 20, problems.sigma_c1(20, 0.5), c,
                                  kind=1, seed=109)
    o = iterative.cg_base(p, control=iterative.IterationControl(max_iterations=3))
    assert o.status == "max_iterations" and o.iterations == 3


def test_stall_status_under_small_patience():
    # Past the floor the recurred residual stops improving; a short
    # patience ends the run there and says so.
    rng = np.random.default_rng(np.random.SeedSequence([42, 9]))
    c = 0.1 * rng.random(20)
    p = problems.assemble_problem(40, 20, problems.sigma_c1(20, 0.5), c,
                                  kind=1, seed=109)
    ctrl = iterative.IterationControl(tol=1e-30, max_iterations=4000,
                                      patience=3)
    for solve in (iterative.cg_base, iterative.cgls_i):
        o = solve(p, control=ctrl)
        assert o.status == "stalled"
        hist = o.residual_norm_history
        assert 0 < o.iterations < 4000 and hist[-1] == hist.min()


def test_diverged_status_past_the_floor():
    # Without a stall window CGLSI's recurred residual grows past its
    # floor until it crosses DIVERGENCE_FACTOR times the initial norm.
    rng = np.random.default_rng(np.random.SeedSequence([42, 9]))
    p = problems.assemble_problem(16, 8, problems.sigma_c1(8, 0.5),
                                  0.1 * rng.random(8), kind=1, seed=109)
    o = iterative.cgls_i(p, control=iterative.IterationControl(
        tol=1e-30, max_iterations=3000, patience=3000))
    assert o.status == "diverged" and 0 < o.iterations < 3000
    assert np.linalg.norm(o.x - p.x_exact) <= 1e-10 * np.linalg.norm(p.x_exact)


def test_breakdown_on_vanishing_curvature():
    # the squared column underflows, so the first step has zero curvature
    p = problems.QlsProblem(a=np.array([[1e-150], [0.0]]),
                            b=np.array([1.0, 0.0]), c=np.array([0.0]))
    assert iterative.cg_base(p).status == "breakdown"
    assert iterative.cgls(p.a, p.b).status == "breakdown"
    assert iterative.cgls_eps(p, 2.0 ** -47).status == "breakdown"
    # sigma_max * ||x0|| underflows to zero; no gap entry is kept, so
    # none is divided by it.
    o = iterative.cgls_i(p)
    assert o.status == "breakdown" and o.iterations == 0
    assert len(o.true_residual_gap_history) == 0
    # The augmented operator keeps unit entries, so MINRES solves it.
    o = iterative.minres_augmented(p)
    assert o.status == "converged" and o.x[0] == pytest.approx(1e150)


def test_cgls_shape_error():
    with pytest.raises(DimensionMismatch):
        iterative.cgls(np.eye(3), np.ones(2))


def test_iterative_agreement_well_conditioned():
    rng = np.random.default_rng(36)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        m = n + int(rng.integers(2, 5))
        sigma = np.linspace(1.0, 2.0, n)[::-1]
        p = problems.assemble_problem(m, n, sigma, rng.standard_normal(n),
                                      kind=5, seed=int(rng.integers(100)))
        nx = np.linalg.norm(p.x_exact)
        for solve in (iterative.cg_base, iterative.cgls_i,
                      iterative.minres_augmented):
            o = solve(p)
            assert np.linalg.norm(o.x - p.x_exact) <= 1e-8 * nx
        o = iterative.cgls_eps(p, 2.0 ** -47)
        assert np.linalg.norm(o.x - p.x_exact) <= 1e-8 * nx
