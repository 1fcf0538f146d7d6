"""Benchmark harness: config parsing, suite runs, profiles, reports."""

import dataclasses
import io
import json
import math
import os

import numpy as np
import pytest

from helpers import analysis_groups
from qlskit import analysis, bench, direct, iterative, linalg, problems
from qlskit.errors import (ConfigError, DenominatorVanishes, EmptyInput,
                           InvalidParameter, MissingConfiguration,
                           RankDeficient)
from qlskit.problems import QlsProblem

U = np.finfo(float).eps / 2


def records_equal(a, b):
    for name in bench.CSV_COLUMNS:
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, float) and isinstance(vb, float):
            if math.isnan(va) and math.isnan(vb):
                continue
            if va != vb:
                return False
        elif va != vb:
            return False
    return True


def small_config(**kw):
    base = {
        "seed": 5,
        "families": [{"type": "c1", "m": 8, "n": 4, "a": 1.5, "alpha": 0.5,
                      "kind": 3, "seed": 7, "cseed": [1, 2]}],
    }
    base.update(kw)
    return base


def test_parse_config_accepts_dict_text_path(tmp_path):
    d = small_config()
    from_dict = bench.parse_config(d)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(d))
    from_path = bench.parse_config(str(path))
    for cfg in (from_dict, from_path):
        assert cfg.seed == 5
        assert len(cfg.families) == 1
        assert cfg.solvers == bench.SOLVERS


def test_parse_config_reads_path_with_brace(tmp_path):
    # A path is a path even when it contains "{".
    d = small_config()
    path = tmp_path / "cfg{1}" / "t.json"
    path.parent.mkdir()
    path.write_text(json.dumps(d))
    for source in (str(path), path):
        assert bench.parse_config(source).seed == 5


def test_parse_config_rejects_file_descriptors():
    # An int would be opened as a file descriptor: 0 is stdin.
    rfd, wfd = os.pipe()
    try:
        os.write(wfd, json.dumps(small_config()).encode())
        os.close(wfd)
        for source in (0, rfd, True):
            with pytest.raises(ConfigError, match="expected a dict"):
                bench.parse_config(source)
    finally:
        os.close(rfd)


def test_parse_config_rejects_other_types():
    for source in (None, 3.5, b"{}", ["families"]):
        with pytest.raises(ConfigError, match="expected a dict"):
            bench.parse_config(source)
    with pytest.raises(ConfigError, match="expected a dict"):
        bench.run_suite(None)


def test_solver_table_is_the_only_name_list():
    assert bench.SOLVERS == ("CG", "CGLSI", "CGLSEPS", "MINRES", "QR",
                             "QREPS", "SM", "AUG")
    assert bench.SOLVERS == tuple(bench.SOLVER_TABLE)
    cfg = bench.parse_config(small_config(solvers=["QR", "CG"]))
    assert cfg.solvers == ("QR", "CG")
    with pytest.raises(ConfigError, match=r"config\.solvers\[1\]: must be "
                       r"one of CG, CGLSI, .*, AUG, got 'NOPE'"):
        bench.parse_config(small_config(solvers=["QR", "NOPE"]))
    # A config built in code is checked against the same table.
    cfg = bench.ExperimentConfig(families=small_config()["families"],
                                 solvers=("CG", "NOPE"))
    with pytest.raises(ConfigError, match="config.solvers"):
        bench.run_suite(cfg)


def test_parse_config_diagnostics():
    with pytest.raises(ConfigError, match="families"):
        bench.parse_config({})
    with pytest.raises(ConfigError, match="config.bogus"):
        bench.parse_config(small_config(bogus=1))
    with pytest.raises(ConfigError, match=r"families\[0\]"):
        bad = small_config()
        bad["families"][0]["spam"] = 2
        bench.parse_config(bad)
    with pytest.raises(ConfigError, match="cseed"):
        bad = small_config()
        bad["families"][0]["cseed"] = "xyz"
        bench.parse_config(bad)
    with pytest.raises(ConfigError, match="solvers"):
        bench.parse_config(small_config(solvers=["CG", "SIMPLEX"]))
    for dw in (0.5, 0.1):  # dw > up and dw == up
        with pytest.raises(ConfigError, match=r"families\[0\]\.dw"):
            bench.parse_config({"families": [
                {"type": "c2", "m": 8, "n": 4, "up": 0.1, "dw": dw, "alpha": 1.0}
            ]})
    with pytest.raises(ConfigError, match="tol"):
        bench.parse_config(small_config(tol="tight"))
    with pytest.raises(ConfigError, match="config.eps"):
        bench.parse_config(small_config(eps=1e300))
    # fewer rows than columns, given or by default (c1/c2 n = 20, set_p
    # n = 50), cannot be built; set_p also needs n >= 2
    for fam in ({"type": "c1", "m": 4, "n": 8, "a": 1.5},
                {"type": "c1", "m": 10, "a": 1.5},
                {"type": "c2", "m": 3, "n": 4, "up": 1.0, "dw": 0.1},
                {"type": "set_p", "m": 49},
                {"type": "set_p", "n": 101}):
        with pytest.raises(ConfigError, match=r"families\[0\]\.m"):
            bench.parse_config({"families": [fam]})
    with pytest.raises(ConfigError, match=r"families\[0\]\.n"):
        bench.parse_config({"families": [{"type": "set_p", "m": 4, "n": 1}]})
    with pytest.raises(ConfigError, match=r"families\[0\]\.verify"):
        bench.parse_config({"families": [
            {"type": "file", "path": "p.qls", "verify": "no"}]})
    cfg = bench.parse_config({"families": [
        {"type": "c2", "m": 4, "n": 4, "up": 1.0, "dw": 0.1},
        {"type": "file", "path": "p.qls", "verify": False}]})
    assert cfg.families[1]["verify"] is False


def test_config_control_passes_through():
    cfg = bench.parse_config(small_config(tol=1e-30, maxIterations=77,
                                          patience=9))
    ctrl = cfg.control()
    tol, maxit, patience = ctrl.resolve(4)
    assert tol == 1e-30 and maxit == 77 and patience == 9


def test_build_problems_deterministic_and_labeled():
    cfg = bench.parse_config(small_config())
    ps1 = bench.build_problems(cfg)
    ps2 = bench.build_problems(cfg)
    assert len(ps1) == 1
    assert ps1[0].label == "c1-00"
    assert np.array_equal(ps1[0].a, ps2[0].a)
    assert np.array_equal(ps1[0].c, ps2[0].c)
    # c scale: alpha times a uniform draw from the family cseed
    rng = np.random.default_rng(np.random.SeedSequence([1, 2]))
    assert np.array_equal(ps1[0].c, 0.5 * rng.random(4))


def test_build_problems_file_family(tmp_path):
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 0.0]),
                            c=np.zeros(2), x_exact=np.array([1.0, 0.0]),
                            label="disk")
    path = tmp_path / "p.qls"
    problems.save_problem(p, str(path))
    cfg = bench.parse_config({"families": [
        {"type": "file", "path": str(path)}
    ]})
    ps = bench.build_problems(cfg)
    assert len(ps) == 1 and ps[0].label == "disk"
    assert np.array_equal(ps[0].a, np.eye(2))


def _save(tmp_path, name, p):
    path = tmp_path / f"{name}.qls"
    problems.save_problem(p, str(path))
    return str(path)


def _svd_spy(monkeypatch):
    """Shapes of the linalg.svd calls made from here on."""
    real, shapes = linalg.svd, []

    def spy(a):
        shapes.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(linalg, "svd", spy)
    return shapes


def _file_config(*paths):
    return bench.parse_config(
        {"families": [{"type": "file", "path": path} for path in paths]})


GOOD = dict(a=np.eye(2), b=np.array([1.0, 0.0]), c=np.zeros(2),
            x_exact=np.array([1.0, 0.0]), label="good")
# x_exact = (1, 0) while b asks for (5, 0): breaks the normal equations.
BROKEN = dict(GOOD, b=np.array([5.0, 0.0]), label="broken")
# A zero column: sigma_min = 0, so the construction check's kappa raises.
DEFICIENT = dict(a=np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 0.0]]),
                 b=np.ones(3), c=np.zeros(2), x_exact=np.zeros(2),
                 label="deficient")


def test_build_problems_one_svd_per_verified_file_in_order(tmp_path,
                                                           monkeypatch):
    # Five verified files of two shapes around a generated family, then
    # an unverified file: each verified file's construction check makes
    # one 2-d svd of its own matrix, in config order, and the unverified
    # one makes none.  Each file problem's singular values and kappa are
    # bitwise those load_problem gives it alone.
    paths = []
    for k in range(6):
        m, n = (8, 4) if k % 2 else (10, 5)
        p = problems.assemble_problem(m, n, problems.sigma_c1(n, 1.5 + k),
                                      np.full(n, 1e-3), kind=1 + k, seed=k,
                                      label=f"f{k}")
        paths.append(_save(tmp_path, f"f{k}", p))
    fams = [{"type": "file", "path": path} for path in paths]
    fams[5]["verify"] = False
    fams.insert(2, small_config()["families"][0])
    real, seen = linalg.svd, []

    def spy(a):
        seen.append(a)
        return real(a)

    monkeypatch.setattr(linalg, "svd", spy)
    ps = bench.build_problems(bench.parse_config({"families": fams}))
    assert [p.label for p in ps] == ["f0", "f1", "c1-02", "f2", "f3", "f4",
                                     "f5"]
    files = [p for p in ps if p.label[0] == "f"]
    assert [np.ndim(a) for a in seen] == [2] * 5
    assert all(a is p.a for a, p in zip(seen, files[:5], strict=True))
    for p, path in zip(files, paths, strict=True):
        alone = problems.load_problem(path)
        assert np.array_equal(p.singular_values(), alone.singular_values())
        assert p.kappa() == alone.kappa()


def test_build_problems_raises_the_first_failing_family(tmp_path):
    # Construction checks and unreadable files raise in config order, as
    # when each file is read and checked in turn: the second file's
    # broken normal equations come before the fourth's rank deficiency,
    # a missing file before a later broken one, and a later missing or
    # malformed file does not mask an earlier broken one.
    good = _save(tmp_path, "good", QlsProblem(**GOOD))
    broken = _save(tmp_path, "broken", QlsProblem(**BROKEN))
    deficient = _save(tmp_path, "deficient", QlsProblem(**DEFICIENT))
    missing = str(tmp_path / "missing.qls")
    malformed = tmp_path / "malformed.qls"
    malformed.write_text("qls-problem\nA\n2 x\n")
    with pytest.raises(InvalidParameter, match="normal equations"):
        bench.build_problems(_file_config(good, broken, good, deficient))
    with pytest.raises(RankDeficient):
        bench.build_problems(_file_config(good, good, deficient))
    with pytest.raises(FileNotFoundError):
        bench.build_problems(_file_config(good, missing, broken))
    for later in (missing, str(malformed)):
        with pytest.raises(InvalidParameter, match="normal equations"):
            bench.build_problems(_file_config(good, broken, later))


def test_build_problems_skips_checks_of_unverified_files(tmp_path,
                                                         monkeypatch):
    good = _save(tmp_path, "good", QlsProblem(**GOOD))
    broken = _save(tmp_path, "broken", QlsProblem(**BROKEN))
    checked, real = [], QlsProblem.verify_construction

    def spy(self, *args, **kwargs):
        checked.append(self.label)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(QlsProblem, "verify_construction", spy)
    ps = bench.build_problems(bench.parse_config({"families": [
        {"type": "file", "path": broken, "verify": False},
        {"type": "file", "path": good, "verify": True}]}))
    assert checked == ["good"]
    assert [p.label for p in ps] == ["broken", "good"]


def test_load_problem_alone_computes_no_svd_until_kappa(tmp_path,
                                                        monkeypatch):
    path = _save(tmp_path, "deficient", QlsProblem(**DEFICIENT))
    shapes = _svd_spy(monkeypatch)
    p = problems.load_problem(path, verify=False)
    assert shapes == []
    with pytest.raises(RankDeficient):
        p.kappa()
    assert shapes == [(3, 2)]


def _same_label_config(*extra):
    fam = small_config()["families"][0]
    return bench.parse_config({"seed": 5, "families": [
        dict(fam, label="same"), dict(fam, a=2.0, label="same"), *extra]})


def test_build_problems_rejects_duplicate_labels(tmp_path):
    # Records are keyed by problem_id, so two families giving one label
    # would merge in a profile: ConfigError names both families.
    for build in (bench.build_problems, bench.run_suite):
        with pytest.raises(ConfigError, match=r"families\[0\] and families\[1\]"):
            build(_same_label_config())
    # A family that fails to build raises its own error first.
    broken = _save(tmp_path, "broken", QlsProblem(**BROKEN))
    with pytest.raises(InvalidParameter, match="normal equations"):
        bench.run_suite(_same_label_config({"type": "file", "path": broken}))


def test_run_suite_identity_all_solvers(tmp_path):
    p = problems.QlsProblem(a=np.eye(2), b=np.array([1.0, 0.0]),
                            c=np.zeros(2), x_exact=np.array([1.0, 0.0]),
                            label="id")
    path = tmp_path / "id.qls"
    problems.save_problem(p, str(path))
    cfg = bench.parse_config({"families": [{"type": "file", "path": str(path)}]})
    records = bench.run_suite(cfg)
    assert len(records) == 8
    assert sorted(r.solver for r in records) == sorted(bench.SOLVERS)
    for r in records:
        assert r.status == "ok"
        assert r.rel_error <= 1e-12


# Two shapes: a table row (40 x 20) and a small set_p family (12 x 6).
MIXED_SHAPES = {
    "tol": 1e-30, "maxIterations": 300, "patience": 300,
    "families": [
        {"type": "c1", "m": 40, "n": 20, "a": 2.0, "alpha": 1e-10,
         "kind": 1, "seed": 100, "cseed": [42, 0], "label": "row01"},
        {"type": "set_p", "m": 12, "n": 6, "seed": 3},
    ],
}


def test_run_suite_batches_match_per_problem_runs(monkeypatch):
    # Solver by solver, the problems of each shape go to one Krylov batch;
    # run one problem at a time instead, every record but its clock times
    # is the same.
    cfg = bench.parse_config(MIXED_SHAPES)
    real = iterative.solve_batch
    sizes = []

    def spy(method, probs, *args):
        sizes.append(len(probs))
        return real(method, probs, *args)

    def one_at_a_time(method, probs, *args):
        return [o for p in probs for o in spy(method, [p], *args)]

    monkeypatch.setattr(iterative, "solve_batch", spy)
    batched = bench.run_suite(cfg)
    assert sorted(sizes) == [1] * 4 + [40] * 4
    monkeypatch.setattr(iterative, "solve_batch", one_at_a_time)
    single = bench.run_suite(cfg)
    assert len(batched) == len(single) == 41 * len(bench.SOLVERS)
    for a, b in zip(batched, single):
        b.wall_time_ns, b.analysis_time_ns = a.wall_time_ns, a.analysis_time_ns
        assert records_equal(a, b), (a, b)


def test_run_suite_errors_stay_with_their_problems(monkeypatch):
    cfg = bench.parse_config(dict(MIXED_SHAPES, solvers=["CGLSI", "QR"]))
    real_batch, real_qr = iterative.solve_batch, direct.solve_qr

    def failing_batch(method, probs, *args):
        if probs[0].m == 12:
            raise InvalidParameter("planted")
        return real_batch(method, probs, *args)

    def failing_qr(probs):
        # bench.solve hands a direct solver the group, as a list; a
        # failure planted in the 40-problem group stays with its problem.
        if any(p.label == "row01" or p.label.startswith("p05-")
               for p in probs):
            raise RankDeficient("planted")
        return real_qr(probs)

    monkeypatch.setattr(iterative, "solve_batch", failing_batch)
    monkeypatch.setattr(direct, "solve_qr", failing_qr)
    recs = bench.run_suite(cfg)
    errors = {(r.problem_id, r.solver) for r in recs if r.status == "error"}
    set_p = {r.problem_id for r in recs} - {"row01"}
    (p05,) = [pid for pid in set_p if pid.startswith("p05-")]
    assert len(set_p) == 40
    assert errors == ({(pid, "CGLSI") for pid in set_p}
                      | {("row01", "QR"), (p05, "QR")})


def test_run_suite_steep_spectrum_row(table_config):
    row = dict(table_config["families"][9])
    assert row["a"] == 0.5 and row["alpha"] == 1.0
    cfg = bench.parse_config({
        "seed": 42, "tol": 1e-30, "maxIterations": 4000, "patience": 200,
        "solvers": ["CG", "CGLSI", "CGLSEPS"], "families": [row],
    })
    recs = {r.solver: r for r in bench.run_suite(cfg)}
    assert 1e-9 <= recs["CG"].rel_error <= 1e-5
    assert recs["CGLSI"].rel_error <= 1e-10
    assert recs["CGLSEPS"].rel_error <= 1e-10


def test_set_p_records_cardinality_and_status(set_p_suite):
    records, _ = set_p_suite
    assert len(records) == 40 * len(bench.SOLVERS)
    for r in records:
        assert r.status in ("ok", "failed", "error")
        if r.status != "error":
            # failed exactly when the error exceeds the threshold
            assert (r.status == "failed") == (r.rel_error > bench.FAILURE_THRESHOLD)
    by = {}
    for r in records:
        by.setdefault(r.solver, []).append(r)
    fails = {s: sum(1 for r in rs if r.status != "ok") for s, rs in by.items()}
    assert fails["CGLSI"] <= fails["CG"]
    assert fails["AUG"] <= fails["CG"]
    assert fails["CGLSI"] <= fails["MINRES"]


def test_loose_estimates_still_bound(table_suite):
    records, _ = table_suite
    row8 = [r for r in records if r.problem_id == "row08" and r.solver == "CGLSI"]
    assert len(row8) == 1
    # upper bound, loose by design on this flat-spectrum row
    assert row8[0].estimate >= 10.0 * row8[0].rel_error


def test_profile_single_solver_flat(set_p_suite):
    records, _ = set_p_suite
    cg = [r for r in records if r.solver == "CG"]
    curves = bench.performance_profile(cg)
    assert len(curves) == 1
    fr = curves[0].fractions
    rate = np.mean([r.status == "ok" for r in cg])
    assert fr[-1] == pytest.approx(rate)
    assert np.all(np.diff(fr) >= 0.0)


def test_profile_ratio_arithmetic():
    mk = lambda s, e: bench.BenchRecord(
        problem_id="p0", m=4, n=2, kappa=10.0, solver=s, iterations=3,
        rel_error=e, eta_bar=1e-16, estimate=float("nan"))
    curves = bench.performance_profile([mk("CG", 1e-8), mk("QR", 1e-10)])
    by = {c.solver: c for c in curves}
    # grid point 10 is exactly 100, where the slower solver catches up
    taus = [t for t, _ in by["CG"].points]
    assert taus[0] == 1.0 and taus[10] == 100.0
    assert by["QR"].points[0][1] == 1.0
    assert by["CG"].points[0][1] == 0.0
    assert by["CG"].points[9][1] == 0.0
    assert by["CG"].points[10][1] == 1.0


def test_profile_failed_solver_capped():
    mk = lambda pid, s, e, st: bench.BenchRecord(
        problem_id=pid, m=4, n=2, kappa=10.0, solver=s, iterations=3,
        rel_error=e, eta_bar=1e-16, estimate=float("nan"), status=st)
    records = [
        mk("p0", "CG", 1e-10, "ok"), mk("p0", "QR", 1e-9, "ok"),
        mk("p0", "SM", 0.5, "failed"),
        mk("p1", "CG", 1e-9, "ok"), mk("p1", "QR", 1e-10, "ok"),
        mk("p1", "SM", 1e-9, "ok"),
    ]
    by = {c.solver: c for c in bench.performance_profile(records)}
    assert by["SM"].fractions.max() == 0.5
    assert by["CG"].fractions[-1] == 1.0
    with pytest.raises(EmptyInput):
        bench.performance_profile([])


def test_emit_records_round_trip(tmp_path):
    path = tmp_path / "r.csv"
    bench.emit_records([], str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 and lines[0] == ",".join(bench.CSV_COLUMNS)
    rec = bench.BenchRecord(
        problem_id="p0", m=4, n=2, kappa=1234.5678, solver="MINRES",
        iterations=17, rel_error=3.25e-11, eta_bar=2.5e-17,
        estimate=float("nan"), residual_gap=None, wall_time_ns=99,
        status="ok")
    bench.emit_records([rec], str(path))
    back = bench.load_records(str(path))
    assert len(back) == 1
    assert records_equal(back[0], rec)


def test_load_records_rejects_foreign_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        bench.load_records(str(path))


def test_set_p_records_round_trip(tmp_path, set_p_suite):
    records, _ = set_p_suite
    path = tmp_path / "suite.csv"
    bench.emit_records(records, str(path))
    back = bench.load_records(str(path))
    assert len(back) == len(records)
    for a, b in zip(records, back):
        assert records_equal(a, b)


def test_emit_profile_svg_and_csv(tmp_path, set_p_suite):
    records, _ = set_p_suite
    curves = bench.performance_profile(records)
    path = tmp_path / "profile.svg"
    bench.emit_profile_svg(curves, str(path))
    text = path.read_text()
    assert text.lstrip().startswith("<svg")
    assert text.count("<polyline") == len(curves)
    for c in curves:
        assert c.solver in text
    side = tmp_path / "profile.csv"
    rows = side.read_text().strip().splitlines()
    assert rows[0] == "solver,tau,fraction"
    assert len(rows) == 1 + len(curves) * len(bench.PROFILE_TAUS)


def test_report_table_layout(table_suite):
    records, _ = table_suite
    text = bench.report_table(records)
    lines = text.strip().splitlines()
    assert lines[0].split()[0] == "problem"
    for col in ("kappa", "E_CG", "est_CG", "E_CGLSI", "E_CGLSEPS"):
        assert col in lines[0]
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 12
    assert lines[2].split()[0] == "row01"


def test_report_table_needs_cg_family_records():
    with pytest.raises(MissingConfiguration):
        bench.report_table([])
    only_qr = bench.BenchRecord(
        problem_id="p0", m=4, n=2, kappa=10.0, solver="QR", iterations=0,
        rel_error=1e-12, eta_bar=1e-16, estimate=float("nan"))
    with pytest.raises(MissingConfiguration):
        bench.report_table([only_qr])


def test_trace_residual_gap_stays_at_roundoff():
    rng = np.random.default_rng(61)
    sigma = np.sort(rng.random(4) + 0.2)[::-1]
    p = problems.assemble_problem(8, 4, sigma, rng.standard_normal(4),
                                  kind=4, seed=13)
    gaps = iterative.cgls_i(p).true_residual_gap_history
    assert len(gaps) >= 1
    assert np.all(np.isfinite(gaps))
    assert max(gaps) <= 100 * U


def test_record_schema_is_the_dataclass_fields(tmp_path):
    # CSV columns, JSON keys and load_records all follow BenchRecord's
    # fields; inf, -inf, NaN and None survive the CSV round trip, and the
    # JSON writes the non-finite floats and None as null.
    names = tuple(f.name for f in dataclasses.fields(bench.BenchRecord))
    assert bench.CSV_COLUMNS == names
    recs = [
        bench.BenchRecord("p0", 4, 2, float("inf"), "QR", 0, float("inf"),
                          float("nan"), float("nan"), residual_gap=None,
                          wall_time_ns=5, status="error", analysis_time_ns=3),
        bench.BenchRecord("p1", 6, 3, 12.5, "CGLSI", 9, 1e-300, 2.5e-17,
                          -float("inf"), residual_gap=3e-16, wall_time_ns=7,
                          status="failed"),
    ]
    path = tmp_path / "r.csv"
    bench.emit_records(recs, str(path))
    back = bench.load_records(str(path))
    assert len(back) == 2
    for a, b in zip(recs, back):
        assert records_equal(a, b)
        assert [type(v) for v in dataclasses.astuple(a)] == \
            [type(v) for v in dataclasses.astuple(b)]
    out = io.StringIO()
    bench.emit_records(recs, out, "json")
    objs = json.loads(out.getvalue())
    assert [list(o) for o in objs] == [[
        "problemId", "m", "n", "kappaA", "solver", "iterations", "relError",
        "etaBar", "estimate", "residualGapFinal", "wallTimeNanos", "status",
        "analysisTimeNanos",
    ]] * 2
    assert objs[0]["kappaA"] is None and objs[0]["residualGapFinal"] is None
    assert objs[1]["estimate"] is None and objs[1]["residualGapFinal"] == 3e-16
    assert objs[1]["relError"] == 1e-300 and objs[1]["iterations"] == 9
    assert objs[0]["analysisTimeNanos"] == 3 and objs[1]["analysisTimeNanos"] == 0


def test_record_stage_isolates_a_failing_member(monkeypatch):
    # The record stage runs once per group; where the group call raises,
    # each member runs alone.  A zero iterate (ZeroVector) and a planted
    # DenominatorVanishes give that member a NaN estimate, a planted
    # RankDeficient in its backward error a NaN eta_bar, and every other
    # value is bitwise the member's own call.
    probs, xs = analysis_groups()["table"]
    eps, key = 2.0 ** -47, "cglseps"
    xs = xs.copy()
    xs[1] = 0.0
    den_member, rank_member = probs[4], probs[7]
    real_sm, real_gram = analysis._sm_terms, analysis._gram_factor

    def sm_terms(d, eps):
        if any(q is den_member for q in d.probs):
            raise DenominatorVanishes("planted")
        return real_sm(d, eps)

    def gram_factor(d, x, r, eps, *thetas):
        if any(q is rank_member for q in d.probs) and eps == 0.0:
            raise RankDeficient("planted")
        return real_gram(d, x, r, eps, *thetas)

    monkeypatch.setattr(analysis, "_sm_terms", sm_terms)
    monkeypatch.setattr(analysis, "_gram_factor", gram_factor)
    outcomes = [iterative.SolveOutcome(x, 5, None) for x in xs]
    refs = [(p.kappa(), p.x_exact) for p in probs]
    recs = bench._records("CGLSEPS", probs, refs, outcomes, 7, eps)
    for i, (p, x, rec) in enumerate(zip(probs, xs, recs)):
        assert (rec.problem_id, rec.iterations, rec.wall_time_ns) == (p.label, 5, 7)
        assert rec.status == ("failed" if i == 1 else "ok")
        if i == 7:
            assert math.isnan(rec.eta_bar)
        else:
            assert rec.eta_bar.hex() == analysis.relative_backward_error(p, x).hex()
        if i in (1, 4):
            assert math.isnan(rec.estimate)
        else:
            want = analysis.forward_error_estimates(p, x, eps, methods=(key,))
            assert rec.estimate.hex() == want[key].hex()
