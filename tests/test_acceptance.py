"""Release gate: end-to-end checks at fixed tolerances.

Each test is one criterion.  Oracles are exact where possible (rational
elimination, explicitly formed operators, bitwise comparisons); the
benchmark-level checks run the shipped configs through the public
entry points.
"""

import json

import numpy as np
import pytest

import helpers
from qlskit import analysis, bench, cli, direct, iterative, problems
from qlskit.errors import NoRealRoot
from qlskit.linalg import U


# Error levels the ten table families were calibrated to land on, as
# (CG, CGLSI, CGLSEPS) per row.  Measured values drift with the drawn
# orthogonal factors, so the check is order-of-magnitude: within two
# decades of these.
#
# At the table's eps = 2^-47, CGLSI and CGLSEPS return bitwise-identical
# iterates on every row, so both windows of a row must hold the same
# measurement (rows 02 and 06 have differing levels and do).  Row08's
# CGLSI level (1e-11, like its CGLSEPS level) rests on the rational
# floor: A and b are formed in floating point, and the exact solution of
# the stored row08 data already lies 2.8e-12 to 1.5e-11 from x_exact,
# depending on the BLAS kernel that formed them.
# No solver can land reliably below that, so a level whose window tops
# out lower is unreachable (test_c01_expected_levels_are_attainable).
# Every other level is the original calibration.
EXPECTED_LEVELS = (
    (6e-7, 2e-10, 2e-10),
    (1e-3, 1e-8, 7e-11),
    (2e-12, 5e-15, 5e-15),
    (2e-13, 2e-15, 1e-14),
    (1e-5, 1e-10, 1e-10),
    (2e-9, 5e-9, 8e-10),
    (4e-8, 3e-9, 3e-9),
    (1e-9, 1e-11, 1e-11),
    (1e-3, 1e-9, 1e-9),
    (1e-7, 5e-12, 5e-12),
)

# Rows whose calibrated CG level sits >= 10x above the CGLSI/CGLSEPS
# levels; only there is the measured ordering required to hold (row
# index 5 has all three levels within a decade).
ORDER_ROWS = (0, 1, 2, 3, 4, 6, 7, 8, 9)

ITERATIVE = ("CG", "CGLSI", "CGLSEPS")

# Controls used by the shipped table config.
LONG = dict(tol=1e-30, max_iterations=4000, patience=200)


def table_rows(records):
    """Group table records as row -> solver -> record, sorted by label."""
    by_id = {}
    for r in records:
        by_id.setdefault(r.problem_id, {})[r.solver] = r
    return [by_id[k] for k in sorted(by_id)]


def test_c01_table_errors_reproduced(table_suite):
    records, seconds = table_suite
    rows = table_rows(records)
    assert len(rows) == 10
    for row, levels in zip(rows, EXPECTED_LEVELS):
        for solver, level in zip(ITERATIVE, levels):
            measured = row[solver].rel_error
            assert 1e-2 * level <= measured <= 1e2 * level, (
                row[solver].problem_id, solver, measured, level)
    for i in ORDER_ROWS:
        assert rows[i]["CGLSI"].rel_error <= rows[i]["CG"].rel_error
        assert rows[i]["CGLSEPS"].rel_error <= rows[i]["CG"].rel_error
    assert seconds < 10.0


def test_c01_expected_levels_are_attainable(table_config):
    # A and b are rounded when they are formed, so x_exact is not the
    # exact solution x* of the stored data.  Rational elimination gives
    # x*; a level whose window top (100x, as in c01) lies below
    # ||x* - x_exact|| / ||x_exact|| asks for more than the data holds.
    probs = bench.build_problems(bench.parse_config(table_config))
    probs.sort(key=lambda p: p.label)
    assert len(probs) == len(EXPECTED_LEVELS)
    for p, levels in zip(probs, EXPECTED_LEVELS):
        xs = helpers.rational_solution(p.a, p.b, p.c)
        floor = (helpers.frac_diff_norm(xs, helpers.frac_vector(p.x_exact))
                 / np.linalg.norm(p.x_exact))
        for solver, level in zip(ITERATIVE, levels):
            assert floor <= 1e2 * level, (p.label, solver, floor, level)


def test_c02_estimates_dominate_measured_errors(table_suite):
    records, _ = table_suite
    assert len(records) == 30
    for r in records:
        assert r.estimate >= r.rel_error, (r.problem_id, r.solver)


def test_c03_flat_spectrum_defeats_cg_only():
    # Near-flat spectrum with a sharp drop at the end and a tiny c:
    # forming A^T b once loses the information CG needs.
    rng = np.random.default_rng(np.random.SeedSequence([3]))
    sig = problems.sigma_c2(20, 1e-8, 0.5)
    c = 1e-14 * rng.random(20)
    p = problems.assemble_problem(40, 20, sig, c, kind=2, seed=3)
    ctrl = iterative.IterationControl(**LONG)
    nx = np.linalg.norm(p.x_exact)

    def rel(x):
        return np.linalg.norm(x - p.x_exact) / nx

    assert rel(iterative.cg_base(p, control=ctrl).x) > 1e-2
    assert rel(iterative.cgls_i(p, control=ctrl).x) <= 1e-6
    assert rel(iterative.cgls_eps(p, problems.DEFAULT_EPS,
                                  control=ctrl).x) <= 1e-6


def test_c04_residual_gap_stays_within_hundred_ulps(set_p_suite):
    records, _ = set_p_suite
    gaps = [r.residual_gap for r in records if r.solver == "CGLSI"]
    assert len(gaps) == 40
    for g in gaps:
        assert g is not None and g <= 100.0 * U


def test_c05_regularized_solution_proximity_and_quartering():
    # Rational oracle: the eps-shifted Gram system is solved exactly and
    # differences are taken over fractions, because the shifted solution
    # sits far below float spacing from the base one.
    rng = np.random.default_rng(np.random.SeedSequence(55))
    kept = 0
    tried = 0
    while kept < 10 and tried < 200:
        tried += 1
        a = rng.integers(-9, 10, size=(8, 4)).astype(float)
        if np.linalg.matrix_rank(a) < 4:
            continue
        s = np.linalg.svd(a, compute_uv=False)
        if s[0] / s[-1] > 1e4:
            continue
        b = rng.integers(-9, 10, size=8).astype(float)
        c = rng.integers(-9, 10, size=4).astype(float)
        xf = helpers.rational_solution(a, b, c)
        x = np.array([float(v) for v in xf])
        nx = np.linalg.norm(x)
        if abs(c @ x) < 1e-3 * np.linalg.norm(c) * nx:
            continue  # degenerate alignment, the offset would vanish
        kept += 1
        p = problems.QlsProblem(a=a, b=b, c=c, x_exact=x)
        for eps in (2.0 ** -20, 2.0 ** -25, 2.0 ** -30):
            dist = {}
            for ee in (eps, eps / 2):
                xef = helpers.rational_solution(a, b, c, eps=ee)
                dist[ee] = helpers.frac_diff_norm(xef, xf) / nx
            assert dist[eps] <= analysis.sm_proximity_bound(p, eps)
            ratio = dist[eps / 2] / dist[eps]
            assert 0.2 <= ratio <= 0.3, (kept, eps, ratio)
    assert kept == 10


def test_c06_condition_value_matches_explicit_operator():
    # The closed-form value must equal sigma_max of the dense operator
    # [(r^T kron G^-1) K - x^T kron A^+, A^+, G^-1] acting on
    # (vec dA, db, dc).
    rng = np.random.default_rng(np.random.SeedSequence(66))
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
        k = helpers.commutation_matrix(m, n)
        blk = (np.kron(r.reshape(1, -1), gi) @ k
               - np.kron(x.reshape(1, -1), pinv))
        mop = np.hstack([blk, pinv, gi])
        smax = np.linalg.svd(mop, compute_uv=False)[0]
        got = analysis.structured_cond_base(p, x)
        assert abs(got - smax) <= 1e-10 * smax


def test_c07_constructed_perturbations_satisfy_equation():
    rng = np.random.default_rng(np.random.SeedSequence(77))
    probs = []
    while len(probs) < 10:
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n + 2, 8))
        a = rng.standard_normal((m, n))
        if np.linalg.svd(a, compute_uv=False)[-1] < 1e-2:
            continue
        b = rng.standard_normal(m)
        c = rng.standard_normal(n)
        probs.append(problems.QlsProblem(a=a, b=b, c=c))
    count = 0
    while count < 1000:
        p = probs[count % 10]
        xt = direct.solve_qr(p) + 1e-6 * rng.standard_normal(p.n)
        v = rng.standard_normal(p.m)
        z = rng.standard_normal((p.m, p.n))
        root = "smaller" if rng.random() < 0.5 else "larger"
        try:
            e, _ = analysis.construct_perturbation(p, xt, v, z=z, root=root)
        except NoRealRoot:
            continue  # that draw admits no real scaling, take another
        ap = p.a + e
        res = ap.T @ (p.b - ap @ xt) + p.c
        scale = (np.linalg.norm(p.a) + np.linalg.norm(e)) ** 2
        assert np.linalg.norm(res) <= 1e-10 * scale * np.linalg.norm(xt)
        count += 1


def test_c08_all_solvers_agree_with_rational_oracle():
    rng = np.random.default_rng(np.random.SeedSequence(88))
    ctrl = iterative.IterationControl(tol=1e-30, max_iterations=2000,
                                      patience=100)
    eps = 2.0 ** -47
    kept = 0
    while kept < 20:
        a = rng.integers(-9, 10, size=(6, 3)).astype(float)
        if np.linalg.matrix_rank(a) < 3:
            continue
        s = np.linalg.svd(a, compute_uv=False)
        kap = s[0] / s[-1]
        b = rng.integers(-9, 10, size=6).astype(float)
        c = rng.integers(-9, 10, size=3).astype(float)
        xe = np.array([float(v) for v in helpers.rational_solution(a, b, c)])
        nx = np.linalg.norm(xe)
        p = problems.QlsProblem(a=a, b=b, c=c)
        kept += 1
        tol = 1e3 * U * kap ** 2
        candidates = (
            iterative.cg_base(p, control=ctrl).x,
            iterative.cgls_i(p, control=ctrl).x,
            iterative.cgls_eps(p, eps, control=ctrl).x,
            iterative.minres_augmented(p, control=ctrl).x,
            direct.solve_qr(p),
            direct.solve_qr_eps(p, eps),
            direct.solve_sm(p, eps),
            direct.solve_aug(p),
        )
        for x in candidates:
            assert np.linalg.norm(x - xe) / nx <= tol


def test_c09_power_of_two_scaling_is_bitwise_exact():
    # Scaling by eps and back multiplies the exponent only; no mantissa
    # bit moves as long as no value leaves the normal range.
    eps = 2.0 ** -47
    inv = 1.0 / eps
    rng = np.random.default_rng(np.random.SeedSequence(99))
    for _ in range(1000):
        c = rng.standard_normal(20) * 10.0 ** rng.uniform(-30.0, 30.0)
        back = (eps * c) * inv
        assert np.all(back == c)


def test_c10_profile_dominance_and_runtime(set_p_suite):
    records, seconds = set_p_suite
    curves = {cv.solver: cv for cv in bench.performance_profile(records)}
    for (t_i, f_i), (t_g, f_g) in zip(curves["CGLSI"].points,
                                      curves["CG"].points):
        assert t_i == t_g
        assert f_i >= f_g

    def success(solver):
        flags = [r.status == "ok" for r in records if r.solver == solver]
        return float(np.mean(flags))

    assert success("CGLSI") >= success("CG")
    assert seconds < 60.0


def test_c11_bench_output_is_deterministic(tmp_path):
    cfg = {
        "seed": 7,
        "tol": 1e-12,
        "maxIterations": 400,
        "solvers": list(bench.SOLVERS),
        "families": [
            {"type": "c1", "m": 12, "n": 6, "a": 1.4, "alpha": 1e-6,
             "kind": 1, "seed": 21, "label": "d0"},
            {"type": "c2", "m": 12, "n": 6, "up": 0.8, "dw": 1e-4,
             "alpha": 1.0, "kind": 2, "seed": 22, "label": "d1"},
        ],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        assert cli.main(["bench", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        outs.append(out.read_bytes())

    def drop_times(blob):
        # The wall-clock columns are the only ones that may differ.
        rows = [ln.split(",") for ln in blob.decode().splitlines()]
        clocks = {rows[0].index(k) for k in ("wall_time_ns", "analysis_time_ns")}
        return [[f for i, f in enumerate(row) if i not in clocks] for row in rows]

    assert drop_times(outs[0]) == drop_times(outs[1])
