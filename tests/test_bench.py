"""Benchmark harness: config parsing, suite runs, profiles, reports."""

import json
import math
import os

import numpy as np
import pytest

from qlskit import bench, iterative, problems
from qlskit.errors import ConfigError, EmptyInput, MissingConfiguration

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
    from_text = bench.parse_config(json.dumps(d))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(d))
    from_path = bench.parse_config(str(path))
    for cfg in (from_dict, from_text, from_path):
        assert cfg.seed == 5
        assert len(cfg.families) == 1
        assert cfg.solvers == bench.SOLVERS


def test_parse_config_reads_path_with_brace(tmp_path):
    # A path is a path even when it contains "{"; only text whose first
    # non-blank character is "{" is JSON.
    d = small_config()
    path = tmp_path / "cfg{1}" / "t.json"
    path.parent.mkdir()
    path.write_text(json.dumps(d))
    for source in (str(path), path):
        assert bench.parse_config(source).seed == 5
    assert bench.parse_config("  \n" + json.dumps(d)).seed == 5


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
    assert bench.check_solvers(["QR", "CG"], "x") == ("QR", "CG")
    with pytest.raises(ConfigError, match="x: unknown solver 'NOPE'"):
        bench.check_solvers(["QR", "NOPE"], "x")
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
    with pytest.raises(ConfigError, match="dw"):
        bench.parse_config({"families": [
            {"type": "c2", "m": 8, "n": 4, "up": 0.1, "dw": 0.5, "alpha": 1.0}
        ]})
    with pytest.raises(ConfigError, match="tol"):
        bench.parse_config(small_config(tol="tight"))
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
    tol, maxit, _, patience = ctrl.resolve(4)
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
    gaps = bench.trace_residual_gap(p)
    assert len(gaps) >= 1
    assert np.all(np.isfinite(gaps))
    assert max(gaps) <= 100 * U
