"""Command-line entry points: outputs, overrides, and exit codes."""

import argparse
import csv
import json
import os
import pathlib

import numpy as np
import pytest

from qlskit import bench, cli, problems


def write_config(tmp_path, **overrides):
    """Small two-family experiment config on disk; cheap to run."""
    cfg = {
        "seed": 3,
        "tol": 1e-12,
        "maxIterations": 300,
        "solvers": ["QR", "CG"],
        "families": [
            {"type": "c1", "m": 8, "n": 4, "a": 1.5, "alpha": 1e-6,
             "kind": 1, "seed": 3, "label": "t0"},
            {"type": "c1", "m": 10, "n": 5, "a": 2.0, "alpha": 1e-4,
             "kind": 2, "seed": 4, "label": "t1"},
        ],
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_gen_writes_problem_files(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_dir = tmp_path / "probs"
    assert cli.main(["gen", "--config", cfg, "--out", str(out_dir)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line, label in zip(lines, ("t0", "t1")):
        assert os.path.exists(line)
        p = problems.load_problem(line)
        assert p.label == label
        assert p.x_exact is not None


def test_gen_builds_a_one_column_family(tmp_path):
    # n = 1 makes x_exact zero; the construction check used to reject
    # these cseeds (exit 3).
    for j in range(5):
        cfg = write_config(tmp_path, families=[
            {"type": "c1", "m": 11, "n": 1, "a": 2.0, "alpha": 1.0,
             "kind": 1, "seed": 0, "cseed": [42, j], "label": f"n1-{j}"}])
        assert cli.main(["gen", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0


def test_svd_failure_exits_numerical_without_a_traceback(tmp_path, capsys,
                                                         monkeypatch):
    cfg = write_config(tmp_path)
    cli.main(["gen", "--config", cfg, "--out", str(tmp_path)])
    capsys.readouterr()

    def fail(a, compute_uv=True):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    assert cli.main(["solve", str(tmp_path / "t0.qls")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: LAPACK SVD did not converge")
    assert "Traceback" not in err


def test_solve_prints_solution_summary(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cli.main(["gen", "--config", cfg, "--out", str(tmp_path)])
    capsys.readouterr()
    rc = cli.main(["solve", str(tmp_path / "t0.qls")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "solver QR" in out
    assert "kappa=" in out
    # Generated files carry the construction solution, so the relative
    # error line must appear and be tiny for the direct solver.
    rel_lines = [ln for ln in out.splitlines() if ln.startswith("rel_error=")]
    assert len(rel_lines) == 1
    assert float(rel_lines[0].split("=")[1]) < 1e-8


def test_solve_iterative_override(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cli.main(["gen", "--config", cfg, "--out", str(tmp_path)])
    capsys.readouterr()
    rc = cli.main(["solve", str(tmp_path / "t0.qls"), "--solver", "CGLSI"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "solver CGLSI" in out
    assert "iterations=" in out


def test_bench_writes_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "records.csv"
    rc = cli.main(["bench", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert f"wrote 4 records to {out}" in capsys.readouterr().out
    records = bench.load_records(str(out))
    assert len(records) == 4
    assert {r.solver for r in records} == {"QR", "CG"}
    assert all(r.status == "ok" for r in records)


def test_bench_stdout_fallback(tmp_path, capsys):
    # No --out and no "output" key: the records go to stdout, written by
    # the same writer as --out.
    cfg = write_config(tmp_path)
    rc = cli.main(["bench", "--config", cfg])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert lines[0] == ",".join(bench.CSV_COLUMNS)
    assert len(lines) == 5
    out = tmp_path / "records.csv"
    assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    clocks = {bench.CSV_COLUMNS.index(k)
              for k in ("wall_time_ns", "analysis_time_ns")}
    stdout_rows = list(csv.reader(lines))
    file_rows = list(csv.reader(out.read_text().splitlines()))
    assert len(stdout_rows) == len(file_rows)
    for got, want in zip(stdout_rows, file_rows):
        assert ([f for i, f in enumerate(got) if i not in clocks]
                == [f for i, f in enumerate(want) if i not in clocks])
    assert cli.main(["bench", "--config", cfg, "--format", "json"]) == 0
    objs = json.loads(capsys.readouterr().out)
    assert [o["problemId"] for o in objs] == ["t0", "t0", "t1", "t1"]


def test_bench_json_format(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "records.json"
    rc = cli.main(["bench", "--config", cfg, "--out", str(out),
                   "--format", "json"])
    assert rc == 0
    objs = json.loads(out.read_text())
    assert len(objs) == 4
    assert objs[0]["problemId"] == "t0"
    assert "relError" in objs[0]
    assert "wallTimeNanos" in objs[0]


def test_bench_solver_override(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "records.csv"
    rc = cli.main(["bench", "--config", cfg, "--out", str(out),
                   "--solver", "CG"])
    assert rc == 0
    records = bench.load_records(str(out))
    assert [r.solver for r in records] == ["CG", "CG"]


def test_profile_writes_svg(tmp_path, capsys):
    cfg = write_config(tmp_path)
    records = tmp_path / "records.csv"
    cli.main(["bench", "--config", cfg, "--out", str(records)])
    capsys.readouterr()
    svg = tmp_path / "prof.svg"
    rc = cli.main(["profile", str(records), "--out", str(svg)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    text = svg.read_text()
    assert text.lstrip().startswith("<svg")
    for name in ("QR", "CG"):
        assert name in text


def test_table_prints_report(tmp_path, capsys):
    # The report needs all three iterative methods per problem.
    cfg = write_config(tmp_path, solvers=["CG", "CGLSI", "CGLSEPS"])
    records = tmp_path / "records.csv"
    cli.main(["bench", "--config", cfg, "--out", str(records)])
    capsys.readouterr()
    rc = cli.main(["table", str(records)])
    out = capsys.readouterr().out
    assert rc == 0
    for token in ("t0", "t1", "E_CG", "E_CGLSI", "E_CGLSEPS", "kappa"):
        assert token in out


def test_trace_emits_gap_rows(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cli.main(["gen", "--config", cfg, "--out", str(tmp_path)])
    capsys.readouterr()
    rc = cli.main(["trace", str(tmp_path / "t0.qls")])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert lines[0] == "iteration,gap"
    first = lines[1].split(",")
    assert first[0] == "1"
    gaps = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert all(np.isfinite(g) for g in gaps)


def test_trace_out_file(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cli.main(["gen", "--config", cfg, "--out", str(tmp_path)])
    out = tmp_path / "trace.csv"
    rc = cli.main(["trace", str(tmp_path / "t1.qls"), "--out", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "iteration,gap"


def test_eps_rounded_with_warning(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cli.main(["gen", "--config", cfg, "--out", str(tmp_path)])
    capsys.readouterr()
    rc = cli.main(["solve", str(tmp_path / "t0.qls"),
                   "--solver", "SM", "--eps", "3e-7"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "not a power of two" in captured.err


def test_exact_power_of_two_eps_silent(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cli.main(["gen", "--config", cfg, "--out", str(tmp_path)])
    capsys.readouterr()
    rc = cli.main(["solve", str(tmp_path / "t0.qls"),
                   "--solver", "QREPS", "--eps", str(2.0 ** -25)])
    assert rc == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["bench", "--config", "CFG", "--eps=-1.0"],
    ["bench", "--config", "CFG", "--tol=-1e-8"],
    ["bench", "--config", "CFG", "--maxit", "0"],
    ["bench", "--config", "CFG", "--solver", "NOPE"],
    ["bench", "--config", "CFG", "--eps=1e300"],
])
def test_bad_overrides_exit_config(tmp_path, capsys, argv):
    cfg = write_config(tmp_path)
    argv = [cfg if a == "CFG" else a for a in argv]
    assert cli.main(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("family", [
    {"type": "c1", "m": 4, "n": 8, "a": 1.5},
    {"type": "c2", "m": 10, "up": 1.0, "dw": 0.1},
    {"type": "set_p", "m": 40},
])
def test_bench_short_wide_family_exit_config(tmp_path, capsys, family):
    cfg = write_config(tmp_path, families=[family])
    assert cli.main(["bench", "--config", cfg]) == 1
    assert "families[0].m" in capsys.readouterr().err


def test_bench_c2_dw_equal_to_up_exit_config(tmp_path, capsys):
    # sigma_c2 needs dw < up; the config check says so before any build.
    cfg = write_config(tmp_path, families=[
        {"type": "c2", "m": 8, "n": 4, "up": 1.0, "dw": 1.0}])
    assert cli.main(["bench", "--config", cfg]) == 1
    assert "families[0].dw" in capsys.readouterr().err


def test_bench_eps_too_large_exit_config(tmp_path, capsys):
    # eps = 1e300 overflowed in matmul; it is a config error naming eps.
    cfg = write_config(tmp_path, eps=1e300, solvers=["CGLSEPS", "QREPS", "SM"])
    assert cli.main(["bench", "--config", cfg]) == 1
    assert "config.eps" in capsys.readouterr().err


def test_bench_empty_solver_list_exit_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "records.csv"
    rc = cli.main(["bench", "--config", cfg, "--solver", ",",
                   "--out", str(out)])
    assert rc == 1
    assert "--solver" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_solve_extreme_scale_file(tmp_path, capsys, scale):
    # kappa of a file problem near the ends of the exponent range is the
    # kappa of the unscaled matrix, not 0/0 or inf/inf, and every direct
    # solver returns the least-squares solution without a warning.
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
    p = problems.QlsProblem(scale * a, np.ones(3), np.zeros(2), label="far")
    path = tmp_path / "far.qls"
    problems.save_problem(p, str(path))
    want = np.linalg.lstsq(a, np.ones(3), rcond=None)[0] / scale
    for solver in ["QR", "QREPS", "SM", "AUG"]:
        assert cli.main(["solve", str(path), "--solver", solver]) == 0, solver
        out = capsys.readouterr().out
        assert "kappa=2.776e+01" in out, solver
        x = [float(v) for v in out.split("x:")[1].split()]
        assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max(), solver


def test_solve_measures_the_error_on_huge_data(tmp_path, capsys):
    # b, c and x_exact near 1e300: the construction check and the error
    # take their norms without squaring entries into overflow.
    p = problems.assemble_problem(8, 4, problems.sigma_c2(4, 0.5, 2.0),
                                  np.array([0.5, -1.0, 0.25, 2.0]), seed=3)
    huge = problems.QlsProblem(p.a, 1e300 * p.b, 1e300 * p.c,
                               x_exact=1e300 * p.x_exact, label="huge")
    path = tmp_path / "huge.qls"
    problems.save_problem(huge, str(path))
    assert cli.main(["solve", str(path), "--solver", "QR"]) == 0
    out = capsys.readouterr().out
    assert float(out.split("rel_error=")[1].split()[0]) <= 1e-12


def test_solve_zero_column_exits_numerical(tmp_path, capsys):
    # sigma_min = 0: kappa raises RankDeficient, not ZeroDivisionError.
    a = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
    p = problems.QlsProblem(a, np.ones(3), np.zeros(2), x_exact=np.zeros(2))
    path = tmp_path / "zero_column.qls"
    problems.save_problem(p, str(path))
    assert cli.main(["solve", str(path)]) == 3
    assert "zero singular value" in capsys.readouterr().err


def test_solve_singular_saddle_matrix_exits_numerical(tmp_path, capsys):
    # A rank-one A makes AUG's saddle matrix exactly singular: LAPACK's
    # error reaches the command as Breakdown, not as a traceback.
    a = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    p = problems.QlsProblem(a, np.array([1.0, 2.0, 3.0]), np.array([1.0, -1.0]))
    path = tmp_path / "rank_one.qls"
    problems.save_problem(p, str(path))
    assert cli.main(["solve", str(path), "--solver", "AUG"]) == 3
    assert "singular augmented matrix" in capsys.readouterr().err


def test_solve_zero_stored_solution_measures_absolute_error(tmp_path,
                                                          capsys):
    # b orthogonal to range(A) and c = 0: x = 0.  The error is then taken
    # against a divisor of 1, as in the records, not 0/0.
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    p = problems.QlsProblem(a, np.array([0.0, 0.0, 1.0]), np.zeros(2),
                            x_exact=np.zeros(2))
    path = tmp_path / "zero_x.qls"
    problems.save_problem(p, str(path))
    assert cli.main(["solve", str(path)]) == 0
    assert "rel_error=0.0\n" in capsys.readouterr().out


@pytest.mark.parametrize("with_x", [False, True])
def test_bench_keeps_records_of_a_rank_deficient_problem(tmp_path, capsys,
                                                         with_x):
    # A zero column, read unverified: without x_exact the reference QR
    # solve fails, with it kappa meets sigma_min = 0.  Either error stays
    # with that problem; every record is written and the exit code is 3.
    a = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 0.0]])
    p = problems.QlsProblem(a, np.ones(3), np.zeros(2), label="flat",
                            x_exact=np.array([5 / 9, 0.0]) if with_x else None)
    problems.save_problem(p, str(tmp_path / "flat.qls"))
    cfg = json.loads(open(write_config(tmp_path)).read())
    cfg["families"].append({"type": "file", "verify": False,
                            "path": str(tmp_path / "flat.qls")})
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    out = tmp_path / "records.csv"
    rc = cli.main(["bench", "--config", str(tmp_path / "config.json"),
                   "--out", str(out)])
    assert rc == 3
    records = bench.load_records(str(out))
    assert len(records) == 6
    flat = {r.solver: r for r in records if r.problem_id == "flat"}
    assert [r.kappa for r in flat.values()] == [np.inf, np.inf]
    assert flat["QR"].status == "error"
    assert flat["CG"].status == ("ok" if with_x else "error")
    assert all(r.status == "ok" for r in records if r.problem_id != "flat")


def test_seed_reaches_the_shipped_set_p_family(tmp_path, capsys):
    # configs/set_p.json leaves the family seed to the top-level one, so
    # --seed picks the problems and the default is seed 1729.
    config = str(pathlib.Path(__file__).parents[1] / "configs" / "set_p.json")
    for seed, suffix in ((None, "-s172900"), (401, "-s40100")):
        out = tmp_path / f"{seed}.csv"
        argv = ["bench", "--config", config, "--solver", "QR",
                "--out", str(out)]
        assert cli.main(argv + (["--seed", str(seed)] if seed else [])) == 0
        first = bench.load_records(str(out))[0]
        assert first.problem_id.startswith("p00-") and \
            first.problem_id.endswith(suffix)


def test_bench_reads_a_relative_config_path_that_starts_with_a_brace(
        tmp_path, monkeypatch):
    # A config source that is a string is a path, whatever its first
    # character: "{t}.json" names a file and is not read as JSON text.
    monkeypatch.chdir(tmp_path)
    os.rename(write_config(tmp_path), "{t}.json")
    assert cli.main(["bench", "--config", "{t}.json", "--out", "r.csv"]) == 0
    assert len(bench.load_records("r.csv")) == 4


def test_missing_config_exit_config(tmp_path, capsys):
    rc = cli.main(["bench", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_missing_problem_file_exit_io(tmp_path, capsys):
    rc = cli.main(["solve", str(tmp_path / "nope.qls")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "bench"])
def test_duplicate_labels_exit_config(tmp_path, capsys, command):
    # Two families labelled alike would write one file twice and merge
    # their records: exit 1 naming both families, and write nothing.
    cfg = json.loads(open(write_config(tmp_path)).read())
    cfg["families"][1]["label"] = "t0"
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    rc = cli.main([command, "--config", str(path), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "families[0] and families[1]" in captured.err
    assert captured.out == ""
    assert not out_dir.exists() or not any(out_dir.iterdir())


def _files(root):
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


@pytest.mark.parametrize("label", ["../escaped", "two\nlines", "sub/dir", ""])
def test_gen_rejects_a_config_label_that_is_no_file_name(tmp_path, capsys,
                                                          label):
    # A label names the file <label>.qls in --out: one that would leave
    # --out, break the header line, need a missing directory or make a
    # hidden file is a configuration error, and nothing is written.
    cfg = json.loads(open(write_config(tmp_path)).read())
    cfg["families"][1]["label"] = label
    path = tmp_path / "bad_label.json"
    path.write_text(json.dumps(cfg))
    before = _files(tmp_path)
    rc = cli.main(["gen", "--config", str(path), "--out",
                   str(tmp_path / "out" / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: families[1].label: ")
    assert _files(tmp_path) == before


@pytest.mark.parametrize("label", ["../hdr", ""])
def test_gen_rejects_a_header_label_that_is_no_file_name(tmp_path, capsys,
                                                          label):
    # A label read from a problem file's header is checked before the
    # first file is written: "../hdr" would overwrite the source file, and
    # an unlabelled file would be saved as the hidden file ".qls".
    p = problems.assemble_problem(6, 3, problems.sigma_c1(3, 1.5),
                                  np.ones(3), label=label)
    src = tmp_path / "hdr.qls"
    problems.save_problem(p, str(src))
    cfg = json.loads(open(write_config(tmp_path)).read())
    cfg["families"].append({"type": "file", "path": str(src)})
    path = tmp_path / "header.json"
    path.write_text(json.dumps(cfg))
    before, text = _files(tmp_path), src.read_text()
    rc = cli.main(["gen", "--config", str(path), "--out",
                   str(tmp_path / "out")])
    assert rc == 3
    assert (f"families[2].path: {src}: header label {label!r}"
            in capsys.readouterr().err)
    assert _files(tmp_path) == before
    assert src.read_text() == text


def test_solve_trailing_content_exits_numerical(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cli.main(["gen", "--config", cfg, "--out", str(tmp_path)])
    capsys.readouterr()
    path = tmp_path / "t0.qls"
    path.write_text(path.read_text() + "garbage here\n")
    assert cli.main(["solve", str(path)]) == 3
    assert "garbage here" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [("A\n2 2\n", "A\n2 x\n"),
                                      ("A\n2 2\n0x1", "A\n2 2\nzz")])
def test_solve_malformed_file_exits_like_a_foreign_file(tmp_path, capsys,
                                                        old, new):
    # A bad block size or entry ends like a file that is not a problem
    # file at all: an error line naming the block and the same exit code,
    # not a traceback.
    foreign = tmp_path / "foreign.qls"
    foreign.write_text("not a problem\n")
    want = cli.main(["solve", str(foreign), "--solver", "QR"])
    assert "not a problem file" in capsys.readouterr().err
    p = problems.QlsProblem(np.eye(2), np.ones(2), np.zeros(2))
    path = tmp_path / "bad.qls"
    problems.save_problem(p, str(path))
    path.write_text(path.read_text().replace(old, new, 1))
    assert cli.main(["solve", str(path), "--solver", "QR"]) == want == 3
    assert "block 'A'" in capsys.readouterr().err


def test_solve_unknown_solver_exit_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cli.main(["gen", "--config", cfg, "--out", str(tmp_path)])
    capsys.readouterr()
    rc = cli.main(["solve", str(tmp_path / "t0.qls"), "--solver", "BOGUS"])
    assert rc == 1


def test_solver_failure_exits_numerical(tmp_path, capsys):
    # A column pair that is dependent to working precision: the QR
    # factorization rejects it, the suite records status "error", and
    # the command still writes the CSV before signalling exit code 3.
    a = np.array([[1.0, 1.0], [0.0, 1e-18], [0.0, 0.0]])
    p = problems.QlsProblem(a, np.array([1.0, 0.0, 0.0]),
                            np.zeros(2), x_exact=np.array([1.0, 0.0]),
                            label="degenerate")
    prob_path = tmp_path / "degenerate.qls"
    problems.save_problem(p, str(prob_path))
    cfg_path = tmp_path / "file_config.json"
    cfg_path.write_text(json.dumps({
        "solvers": ["QR"],
        "families": [{"type": "file", "path": str(prob_path)}],
    }))
    out = tmp_path / "records.csv"
    rc = cli.main(["bench", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 3
    records = bench.load_records(str(out))
    assert len(records) == 1
    assert records[0].status == "error"


def test_rerun_reproduces_records(tmp_path):
    # Same config twice: only timing may differ.
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["bench", "--config", cfg, "--out", str(out1)])
    cli.main(["bench", "--config", cfg, "--out", str(out2)])
    clocks = {bench.CSV_COLUMNS.index(k)
              for k in ("wall_time_ns", "analysis_time_ns")}
    strip = lambda path: [
        [f for i, f in enumerate(ln.split(",")) if i not in clocks]
        for ln in path.read_text().splitlines()
    ]
    assert strip(out1) == strip(out2)


def gen_problem(tmp_path, capsys):
    """Config path and the path of its generated problem t0."""
    cfg = write_config(tmp_path)
    cli.main(["gen", "--config", cfg, "--out", str(tmp_path)])
    capsys.readouterr()
    return cfg, str(tmp_path / "t0.qls")


@pytest.mark.parametrize("command, flag, key", [
    (command, flag, key)
    for command in ("bench", "solve", "trace")
    for flag, key in (("--tol=-1", "config.tol"),
                      ("--maxit=0", "config.maxIterations"),
                      ("--eps=2", "config.eps"),
                      ("--eps=1e-320", "config.eps"))
    if not (command == "trace" and key == "config.eps")  # trace has no --eps
])
def test_bad_run_setting_exits_config_naming_its_key(tmp_path, capsys,
                                                     command, flag, key):
    # A flag sets its config key, and one validator checks the result:
    # the same bad value ends the same way under every subcommand.
    cfg, problem = gen_problem(tmp_path, capsys)
    head = (["bench", "--config", cfg] if command == "bench"
            else [command, problem])
    assert cli.main(head + [flag]) == 1
    assert key in capsys.readouterr().err


C1 = {"type": "c1", "m": 8, "n": 4, "a": 1.5}
# Values that only the schema's bounds catch: negative seeds, which
# numpy's SeedSequence rejects with a plain ValueError, and non-finite
# numbers, which json.loads reads.  Each is (config changes, the key its
# error must name).
ESCAPES = {
    "seed-1": ({"seed": -1}, "config.seed"),
    "cseed-1": ({"families": [dict(C1, cseed=[-1])]}, "families[0].cseed"),
    "set_p-seed-5": ({"families": [{"type": "set_p", "m": 12, "n": 6,
                                    "seed": -5}]}, "families[0].seed"),
    "kind3-seed-5": ({"families": [dict(C1, kind=3, seed=-5)]},
                     "families[0].seed"),
    "a-inf": ({"families": [dict(C1, a=float("inf"))]}, "families[0].a"),
    "alpha-nan": ({"families": [dict(C1, alpha=float("nan"))]},
                  "families[0].alpha"),
    "up-inf": ({"families": [{"type": "c2", "m": 8, "n": 4, "dw": 0.1,
                              "up": float("inf")}]}, "families[0].up"),
    "tol-inf": ({"tol": float("inf")}, "config.tol"),
}


@pytest.mark.parametrize("command, change, key", [
    *[pytest.param(command, change, key, id=f"{command}-{name}")
      for command in ("bench", "gen")
      for name, (change, key) in ESCAPES.items()],
    ("gen", "--seed -1", "config.seed"),
    ("bench", "--seed -1", "config.seed"),
    ("bench", "--tol inf", "config.tol"),
    ("solve", "--tol inf", "config.tol"),
    ("trace", "--tol inf", "config.tol"),
])
def test_config_escapes_exit_config_naming_the_key(tmp_path, capsys,
                                                   command, change, key):
    # A change is written into the config file (as JSON, so Infinity and
    # NaN), a flag is laid over it; either way the run stops at exit 1.
    if isinstance(change, dict):
        argv = [command, "--config", write_config(tmp_path, **change)]
    elif command in ("solve", "trace"):
        argv = [command, gen_problem(tmp_path, capsys)[1], *change.split()]
    else:
        argv = [command, "--config", write_config(tmp_path), *change.split()]
    if command == "gen":
        argv += ["--out", str(tmp_path / "probs")]
    assert cli.main(argv) == 1
    assert key in capsys.readouterr().err


def test_solve_rejects_a_solver_list(tmp_path, capsys):
    _, problem = gen_problem(tmp_path, capsys)
    assert cli.main(["solve", problem, "--solver", "CG,QR"]) == 1
    assert "solve runs one solver" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["table", "records.csv", "--out", "t.txt"],
    ["solve", "p.qls", "--out", "x.txt"],
    ["solve", "p.qls", "--seed", "1"],
    ["gen", "--config", "c.json", "--solver", "NOPE"],
    ["trace", "p.qls", "--eps", "5"],
    ["profile", "records.csv", "--seed", "1"],
])
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in \
        capsys.readouterr().err


def test_solve_two_column_vector_block_exits_numerical(tmp_path, capsys):
    # A b block of two columns is not a vector: exit 3 naming the block.
    p = problems.QlsProblem(np.eye(2), np.ones(2), np.zeros(2))
    path = tmp_path / "wide_b.qls"
    problems.save_problem(p, str(path))
    one = (1.0).hex()
    path.write_text(path.read_text().replace(
        f"b\n2 1\n{one}\n{one}\n", f"b\n2 2\n{one} {one}\n{one} {one}\n", 1))
    assert cli.main(["solve", str(path)]) == 3
    assert "block 'b'" in capsys.readouterr().err


def readme_table(header):
    """The cells of each row of the README table headed by `header`."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = text[text.index(header):].split("\n\n")[0]
    return [[cell.strip(" `") for cell in row.strip("|").split("|")]
            for row in table.splitlines()[2:]]  # below header and rule


def readme_flag_table():
    """{subcommand: [argument, ...]} from the README's flag table."""
    flags, command = {}, None
    for cells in readme_table("| subcommand | argument |"):
        command = cells[0] or command  # a blank cell continues the last
        flags.setdefault(command, []).append(cells[1])
    return flags


def test_readme_flag_table_matches_the_parser():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    want = {name: [a.option_strings[0] if a.option_strings else a.dest
                   for a in sp._actions if a.dest != "help"]
            for name, sp in sub.choices.items()}
    assert readme_flag_table() == want


def test_readme_config_tables_match_the_schema():
    # One README table per schema: key, type, bound and default, in order.
    def row(key, spec):
        kind = (f"list of {spec.type[0].__name__}"
                if isinstance(spec.type, list) else spec.type.__name__)
        default = ("required" if spec.default is bench.REQUIRED
                   else spec.default if isinstance(spec.default, bench.Rule)
                   else json.dumps(spec.default))
        return [key, kind, spec.bound.text if spec.bound else "", default]

    for name, schema in [("top-level", bench.CONFIG_SCHEMA)] + [
            (f"`{ftype}`", schema)
            for ftype, schema in bench.FAMILY_SCHEMA.items()]:
        rows = readme_table(f"| {name} key | type | bound | default |")
        assert [cells[:4] for cells in rows] == [
            row(key, spec) for key, spec in schema.items()], name


def test_readme_solver_table_matches_the_table():
    names = [cells[0] for cells in readme_table("| name | method |")]
    assert tuple(names) == bench.SOLVERS
