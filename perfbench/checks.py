"""Output checks of the benchmark, made apart from the program.

Every check here uses only numpy, the csv module and the published
file format: records are read from the CSV the program wrote, condition
numbers come from LAPACK (``numpy.linalg.svd``) applied to the stored
matrix, and problem files are parsed by the reader below, not by
``qlskit.problems.load_problem``.  No check compares against a stored
copy of earlier records; each one is a property the method must have.

A check on one record or one file returns a reason string when it is
broken and None when it holds.  A check on a whole pass returns a list
of reason strings.
"""

import csv
import math

import numpy as np

U = 2.0 ** -53

WITH_ESTIMATE = ("CG", "CGLSI", "CGLSEPS")
FLOAT_FIELDS = ("kappa", "rel_error", "eta_bar", "estimate", "residual_gap")


def read_records(path):
    """Records of a ``qlskit bench`` CSV as dicts with float fields."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for key in FLOAT_FIELDS:
                row[key] = float(row[key]) if row[key] else None
            out.append(row)
    return out


def lapack_kappa(a):
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0] / s[-1])


def digits(rel_error):
    """Correct decimal digits of one record, clipped to [0, 16]."""
    if rel_error <= 0.0:
        return 16.0
    return min(16.0, max(0.0, -math.log10(rel_error)))


def finite_fault(rec):
    """No solver raised, and every reported number is finite."""
    if rec["status"] == "error":
        return f"{rec['problem_id']} {rec['solver']}: status error"
    for key in ("kappa", "rel_error", "eta_bar"):
        if not math.isfinite(rec[key]):
            return f"{rec['problem_id']} {rec['solver']}: {key} not finite"
    if rec["solver"] in WITH_ESTIMATE and not math.isfinite(rec["estimate"]):
        return f"{rec['problem_id']} {rec['solver']}: estimate not finite"
    return None


def bound_fault(rec, kappa):
    """The error stays within 1e3 u kappa^2, which a stable solver meets."""
    bound = 1e3 * U * kappa * kappa
    if rec["rel_error"] > bound:
        return (f"{rec['problem_id']} {rec['solver']}: rel_error "
                f"{rec['rel_error']:.3e} above 1e3 u kappa^2 = {bound:.3e}")
    return None


def estimate_fault(rec):
    """A forward-error estimate may not fall below the measured error."""
    if rec["solver"] in WITH_ESTIMATE and rec["estimate"] < rec["rel_error"]:
        return (f"{rec['problem_id']} {rec['solver']}: estimate "
                f"{rec['estimate']:.3e} below error {rec['rel_error']:.3e}")
    return None


def gap_fault(rec):
    """CGLSI's recurred residual stays within 100 u of the true one."""
    if rec["solver"] == "CGLSI":
        gap = rec["residual_gap"]
        if gap is None or not gap <= 100.0 * U:
            return f"{rec['problem_id']} CGLSI: residual gap {gap} above 100u"
    return None


def kappa_fault(rec, kappa):
    """The reported kappa agrees with LAPACK's to 1e3 u kappa."""
    dev = abs(rec["kappa"] - kappa) / kappa
    if not dev <= 1e3 * U * kappa:
        return (f"{rec['problem_id']} {rec['solver']}: kappa {rec['kappa']!r}"
                f" is {dev:.2e} from LAPACK's {kappa!r}")
    return None


def beats_cg_fault(records, losses=1):
    """CGLSI and CGLSEPS are worse than CG on at most `losses` problems."""
    err = {(r["problem_id"], r["solver"]): r["rel_error"] for r in records}
    ids = sorted({r["problem_id"] for r in records})
    out = []
    for solver in ("CGLSI", "CGLSEPS"):
        wins = sum(err[(pid, solver)] <= err[(pid, "CG")] for pid in ids)
        if wins < len(ids) - losses:
            out.append(f"{solver} no worse than CG on {wins} of {len(ids)} "
                       f"problems, need {len(ids) - losses}")
    return out


def ok_count_fault(records):
    """CGLSI reaches the 1e-2 threshold at least as often as CG."""
    ok = {s: sum(r["solver"] == s and r["status"] == "ok" for r in records)
          for s in ("CG", "CGLSI")}
    if ok["CGLSI"] < ok["CG"]:
        return [f"CGLSI has {ok['CGLSI']} ok records, CG has {ok['CG']}"]
    return []


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def parse_qls(path):
    """Blocks of a problem file: header label plus A, b, c and x arrays.

    The format is a ``qls-problem <label>`` line, then per block its
    name, a ``rows cols`` line and one line of hexadecimal floats per
    row.  Vectors are stored as one column.
    """
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    out = {"label": lines[0][len("qls-problem"):].strip()}
    pos = 1
    while pos < len(lines):
        name = lines[pos].strip()
        rows, cols = (int(t) for t in lines[pos + 1].split())
        body = lines[pos + 2:pos + 2 + rows]
        arr = np.array([[float.fromhex(t) for t in ln.split()] for ln in body])
        out[name] = arr.reshape(rows, cols) if name == "A" else arr.reshape(-1)
        pos += 2 + rows
    return out


def same_bits(x, y):
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def roundtrip_fault(path, problem):
    """The file re-reads bitwise equal to the problem it was written from."""
    try:
        got = parse_qls(path)
    except (OSError, ValueError, IndexError) as exc:
        return f"{path}: unreadable ({exc})"
    want = {"A": problem.a, "b": problem.b, "c": problem.c, "x": problem.x_exact}
    if got["label"] != problem.label:
        return f"{path}: label {got['label']!r} is not {problem.label!r}"
    for key, arr in want.items():
        if key not in got or not same_bits(got[key], arr):
            return f"{path}: block {key} does not round-trip bitwise"
    return None
