"""The benchmark's checks pass on good output and fail on planted faults.

A tiny config (the first two rows of configs/table.json, 40 x 20) runs
through ``qlskit bench`` and ``qlskit gen`` in process; the records and
files it writes are then checked as written and with one fault planted.
"""

import csv
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from qlskit import bench, cli  # noqa: E402


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Config, records path, problems and LAPACK kappas of a tiny run."""
    tmp = tmp_path_factory.mktemp("tiny")
    cfg = json.loads((ROOT / "configs" / "table.json").read_text())
    cfg["families"] = cfg["families"][:2]
    cfg["solvers"] = ["CG", "CGLSI", "CGLSEPS", "QR", "AUG"]
    cfg_path = tmp / "tiny.json"
    cfg_path.write_text(json.dumps(cfg))
    out_csv = tmp / "records.csv"
    assert cli.main(["bench", "--config", str(cfg_path),
                     "--out", str(out_csv)]) == 0
    probs = bench.build_problems(bench.parse_config(str(cfg_path)))
    inputs = workloads.Inputs(str(cfg_path), [p.label for p in probs],
                              cfg["solvers"])
    workloads.check_inputs("table", inputs, probs)
    return tmp, cfg_path, out_csv, probs, inputs


def _planted(tiny, solver, field, value):
    """Copy of the tiny records with one field of one record replaced."""
    tmp, _, out_csv, _, _ = tiny
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    row = next(r for r in rows if r["solver"] == solver)
    row[field] = repr(value)
    path = tmp / f"planted-{solver}-{field}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]),
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path, row["problem_id"]


def test_good_output_passes_every_check(tiny):
    _, _, out_csv, _, inputs = tiny
    records = checks.read_records(out_csv)
    assert len(records) == 10
    for rec in records:
        kappa = inputs.kappa[rec["problem_id"]]
        assert checks.finite_fault(rec) is None
        assert checks.bound_fault(rec, kappa) is None
        assert checks.estimate_fault(rec) is None
        assert checks.gap_fault(rec) is None
        assert checks.kappa_fault(rec, kappa) is None
    attempted, faults, suite, _ = workloads.check_pass("table", inputs,
                                                       out_csv)
    assert (attempted, faults, suite) == (10, [], [])


def test_error_above_kappa_squared_bound_fails(tiny):
    _, _, _, _, inputs = tiny
    label = inputs.labels[0]
    bound = 1e3 * checks.U * inputs.kappa[label] ** 2
    path, pid = _planted(tiny, "QR", "rel_error", 2.0 * bound)
    assert pid == label
    _, faults, _, _ = workloads.check_pass("table", inputs, path)
    assert len(faults) == 1 and "1e3 u kappa^2" in faults[0]


def test_estimate_below_error_fails(tiny):
    _, _, out_csv, _, inputs = tiny
    rec = next(r for r in checks.read_records(out_csv)
               if r["solver"] == "CGLSI")
    path, _ = _planted(tiny, "CGLSI", "estimate", 0.5 * rec["rel_error"])
    _, faults, _, _ = workloads.check_pass("table", inputs, path)
    assert len(faults) == 1 and "below error" in faults[0]


def test_cglsi_gap_above_hundred_u_fails(tiny):
    path, _ = _planted(tiny, "CGLSI", "residual_gap", 101.0 * checks.U)
    bad = [r for r in checks.read_records(path) if checks.gap_fault(r)]
    assert len(bad) == 1 and bad[0]["solver"] == "CGLSI"


def test_reported_kappa_off_lapack_fails(tiny):
    _, _, out_csv, _, inputs = tiny
    rec = checks.read_records(out_csv)[0]
    kappa = inputs.kappa[rec["problem_id"]]
    rec["kappa"] = kappa * (1.0 + 2e3 * checks.U * kappa)
    assert checks.kappa_fault(rec, kappa) is not None


def test_file_that_does_not_round_trip_fails(tiny):
    tmp, cfg_path, _, probs, _ = tiny
    out = tmp / "qls"
    assert cli.main(["gen", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    path = out / f"{probs[0].label}.qls"
    assert checks.roundtrip_fault(path, probs[0]) is None
    lines = path.read_text().splitlines()
    row = lines[3].split()
    # One unit in the last place of A[0, 0].
    row[0] = float.hex(float.fromhex(row[0]) * (1.0 + 2.0 ** -52))
    lines[3] = " ".join(row)
    path.write_text("\n".join(lines) + "\n")
    fault = checks.roundtrip_fault(path, probs[0])
    assert fault is not None and "block A" in fault


def test_missing_records_fail_every_operation(tiny):
    tmp, _, _, _, inputs = tiny
    empty = tmp / "empty.csv"
    empty.write_text(",".join(bench.CSV_COLUMNS) + "\n")
    attempted, faults, suite, _ = workloads.check_pass("table", inputs,
                                                       empty)
    assert attempted == len(faults) == 10
    assert suite == ["0 records, expected 10"]


def test_traced_self_times_add_up_to_the_pass(tiny):
    _, cfg_path, _, _, _ = tiny
    import qlskit

    from spans import TRACED, Tracer
    tracer = Tracer()
    modules = {mod: getattr(qlskit, mod) for mod, _ in TRACED}
    with tracer.root(modules, "pass"):
        modules["cli"].main(["bench", "--config", str(cfg_path),
                             "--out", str(cfg_path.with_suffix(".csv"))])
    assert cli.main.__name__ == "main"  # the wrappers are removed again
    secs, calls = tracer.self_times("pass")
    name, parent, start, end = tracer.spans[0]
    assert (name, parent) == ("pass", -1)
    assert abs(sum(secs.values()) - (end - start) / 1e9) < 1e-3
    assert calls["cli.main"] == 1 and calls["iterative.cgls_i"] == 2
    assert tracer.counts["iterative.cgls_i_iterations"] > 0
