"""Iterative solvers: CG on the normal equations and the CGLS family."""

import numpy as np
import pytest

from qlskit import analysis, iterative, problems
from qlskit.errors import DimensionMismatch, InvalidParameter
from helpers import CORES, identity_problem, run_under_core
import krylov_reference as kr

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
    # floor until it crosses DIVERGENCE_FACTOR times its smallest value so
    # far, some steps after the iterate returned.
    rng = np.random.default_rng(np.random.SeedSequence([42, 9]))
    p = problems.assemble_problem(16, 8, problems.sigma_c1(8, 0.5),
                                  0.1 * rng.random(8), kind=1, seed=109)
    o = iterative.cgls_i(p, control=iterative.IterationControl(
        tol=1e-30, max_iterations=3000, patience=3000))
    assert o.status == "diverged" and 0 < o.iterations < 3000
    assert o.iterations < o.iterations_run
    assert np.linalg.norm(o.x - p.x_exact) <= 1e-10 * np.linalg.norm(p.x_exact)


def _norm_steps(*seqs):
    """A step generator whose problem i yields the recurred norms seqs[i];
    its iterate x is the step index."""
    norms = np.array(seqs)[:, :, None, None]
    rows, x = np.arange(len(seqs)), np.zeros((len(seqs), 1, 1))
    keep = yield (norms[:, 0],), None, (x,)
    for k in range(1, norms.shape[1]):
        rows = rows if keep is None else rows[keep]
        keep = yield ((norms[rows, k],), np.zeros((rows.size, 1, 1), bool),
                      (np.full((rows.size, 1, 1), float(k)),))


def test_divergence_is_measured_from_the_best_norm():
    # Problem 0 rises to 1e12 times its best norm, comes back below it and
    # runs on to the cap; problem 1 rises past 1e13 times its best, still
    # below 1e13 times its initial norm, and stops there as diverged.  The
    # scalar reference loop applies the same rule.
    seqs = ([1.0, 1e-4, 1e8, 1e-5, 1.0], [1.0, 1e-6, 2e7, 1e-7, 1.0])
    out, best_k, codes, runs, hists = iterative._drive(
        _norm_steps(*seqs), 2, 1e-30, 4, 10, history=True)
    statuses = [iterative.STATUSES[c - 1] for c in codes]
    assert statuses == ["max_iterations", "diverged"]
    assert best_k.tolist() == [3, 1] and runs.tolist() == [4, 2]
    assert out[0].ravel().tolist() == [3.0, 1.0]
    assert hists[0][0].tolist() == seqs[0][1:4]
    assert hists[1][0].tolist() == seqs[1][1:2]
    for seq, k, run, status in zip(seqs, best_k, runs, statuses):
        want = kr.drive(((np.full(1, float(i)), v) for i, v in enumerate(seq)),
                        1e-30, 4, 10)
        assert (want[1], want[2], want[5]) == (k, status, run)
        assert want[0][0] == k


def test_breakdown_on_vanishing_curvature():
    # The columns differ in scale by 1e100 or more, so no scaling of the
    # data as a whole keeps the step's curvature ||A p||^2 from
    # underflowing.
    a = np.zeros((3, 2))
    a[0, 0], a[1, 1] = 1.0, 1e-100
    p = problems.QlsProblem(a=a, b=np.array([0.0, 1.0, 0.0]), c=np.zeros(2))
    assert iterative.cgls(p.a, p.b).status == "breakdown"
    assert iterative.cgls_eps(p, 2.0 ** -47).status == "breakdown"
    a[1, 1] = 1e-170
    q = problems.QlsProblem(a=a, b=np.zeros(3), c=np.array([0.0, 1.0]))
    assert iterative.cg_base(q).status == "breakdown"
    # sigma_max * ||x0|| underflows to zero; no gap entry is kept, so
    # none is divided by it.
    r = problems.QlsProblem(a=np.diag([1e-20, 1e-120, 0.0])[:, :2],
                            b=np.array([0.0, 1.0, 0.0]), c=np.zeros(2))
    o = iterative.cgls_i(r)
    assert o.status == "breakdown" and o.iterations == 0
    assert len(o.true_residual_gap_history) == 0 and o.residual_gap == 0.0


A0 = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])


@pytest.mark.parametrize("a0, b, scale", [
    (A0, np.ones(3), 1e-170),
    (A0, np.ones(3), 1e200),
    (np.array([[1.0], [0.0]]), np.array([1.0, 0.0]), 1e-150),
])
def test_krylov_extreme_scale_data(a0, b, scale):
    # Unscaled, entries near 1e-170 (or a lone 1e-150 column) square to
    # zero, so the runs stopped "converged" at x = 0 or broke down, and
    # entries near 1e200 overflowed.  Scaled by a power of two at entry,
    # every solver converges to the least-squares solution; any
    # RuntimeWarning fails the test.
    p = problems.QlsProblem(a=scale * a0, b=b, c=np.zeros(a0.shape[1]))
    want = np.linalg.lstsq(a0, b, rcond=None)[0] / scale
    for o in (iterative.cg_base(p), iterative.cgls_i(p),
              iterative.cgls_eps(p, 2.0 ** -47), iterative.cgls(p.a, p.b),
              iterative.minres_augmented(p)):
        assert o.status == "converged" and o.iterations > 0
        assert np.abs(o.x - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("ka, kb", [(600, 0), (-600, 0), (0, 700),
                                    (0, -700), (-500, 500)])
def test_out_of_range_scaling_is_exact(ka, kb):
    # With max |A| and max |(b, c)| in [1/2, 1), data scaled by 2^ka and
    # 2^kb beyond the safe range is scaled back exactly, so each solver
    # repeats the unscaled run and returns 2^(kb - ka) x bitwise.
    base = problems.QlsProblem(a=A0 / 8, b=np.array([0.75, 0.5, -0.5]),
                               c=np.array([0.5, -0.25]))
    big = problems.QlsProblem(a=np.ldexp(base.a, ka), b=np.ldexp(base.b, kb),
                              c=np.ldexp(base.c, ka + kb))
    for solve in (iterative.cg_base, iterative.cgls_i,
                  iterative.minres_augmented):
        o, ob = solve(base), solve(big)
        assert np.array_equal(ob.x, np.ldexp(o.x, kb - ka))
        assert (ob.iterations, ob.status) == (o.iterations, o.status)
        assert ob.residual_gap == o.residual_gap
    o, ob = iterative.cgls(base.a, base.b), iterative.cgls(big.a, big.b)
    assert np.array_equal(ob.x, np.ldexp(o.x, kb - ka))
    assert np.array_equal(ob.residual_norm_history,
                          np.ldexp(o.residual_norm_history, ka + kb))


@pytest.mark.parametrize("control", [kr.long_control, kr.short_control])
def test_batch_matches_single_calls_and_reference_bitwise(control):
    # One batch holds converged, stalled, diverged, max_iterations and
    # breakdown runs, a zero right-hand side and an exact x0.  Each
    # outcome (x, iterations, status, histories, CGLSI's final gap) is
    # bitwise that of a B = 1 call and of the single-problem reference
    # loop, and the batch keeps no history unless asked.
    bad, seen = kr.mismatches(kr.mixed_problems(), control())
    assert bad == []
    want = {"long_control": {"converged", "diverged", "max_iterations",
                             "breakdown"},
            "short_control": {"converged", "stalled", "max_iterations",
                              "breakdown"}}
    assert seen == want[control.__name__]


def test_batched_block_shares_one_batch_among_its_calls(monkeypatch):
    # In a batched block the public functions return their problem's
    # share of one solve_batch run, made at the first call whatever the
    # order: bitwise the batch outcome, without histories.  A batch error
    # reaches every call.  Outside the block each call solves alone.
    probs, control, eps = kr.mixed_problems(), kr.short_control(), 2.0 ** -47
    real, sizes = iterative.solve_batch, []

    def spy(method, ps, *args, **kwargs):
        sizes.append(len(ps))
        return real(method, ps, *args, **kwargs)

    monkeypatch.setattr(iterative, "solve_batch", spy)
    for method in kr.METHODS:
        want = real(method, probs, control, eps)
        sizes.clear()
        with iterative.batched(method, probs):
            got = [kr.PUBLIC[method](p, control, eps) for p in probs[::-1]]
        assert sizes == [len(probs)]
        for o, w in zip(got[::-1], want):
            assert np.array_equal(o.x, w.x, equal_nan=True)
            assert (o.iterations, o.status, o.residual_gap) == (
                w.iterations, w.status, w.residual_gap)
            assert o.residual_norm_history is None
        alone = kr.PUBLIC[method](probs[0], control, eps)
        assert sizes[-1] == 1 and alone.residual_norm_history is not None
    sizes.clear()
    with iterative.batched("cg", probs):
        for p in probs[:2]:
            with pytest.raises(InvalidParameter):
                iterative.cg_base(p, iterative.IterationControl(tol=0.0))
    assert sizes == [len(probs)]


def test_batch_rejects_mixed_shapes_and_unknown_methods():
    probs = kr.mixed_problems()
    with pytest.raises(DimensionMismatch):
        iterative.solve_batch("cg", [probs[0], identity_problem()])
    with pytest.raises(DimensionMismatch):
        iterative.solve_batch("cg", [])
    with pytest.raises(InvalidParameter):
        iterative.solve_batch("lsqr", probs)


@pytest.mark.parametrize("core", CORES)
def test_batch_bitwise_under_each_blas_kernel(core):
    # A batch is bitwise its B = 1 calls only if the stacked operations
    # reach the same kernels; a short run of the mixed batch checks that
    # under each OpenBLAS core.  Prescott's ddot sums a vector that starts
    # 8 bytes off a 16-byte boundary in another order, so every step
    # vector holds its own call's alignment in the batch, whatever its
    # length: CGLSEPS's rows (17, 16 and 18 here), odd n (15 x 7) and
    # MINRES's odd m + n (17 x 8).
    out = run_under_core(
        core, "import krylov_reference as kr\n"
        "print([kr.mismatches(kr.mixed_problems(m, n),\n"
        "                     kr.short_control(n))[0]\n"
        "       for m, n in ((16, 8), (15, 7), (17, 8))])\n")
    assert out.strip() == "[[], [], []]"


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
