"""Compare two ``qlskit bench`` record CSVs cell by cell.

Usage: python tests/compare_records.py A.csv B.csv

Rows are matched by (problem_id, solver).  The clocks, ``wall_time_ns``
and ``analysis_time_ns``, are ignored; every other cell must be equal
as text.  Prints each differing (problem_id, solver, column, a, b) and
each row found in only one file, and exits 1 on any difference.
"""

import csv
import sys

CLOCKS = ("wall_time_ns", "analysis_time_ns")


def read(path):
    """(columns, {(problem_id, solver): row}) of a records CSV."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = {}
        for row in reader:
            key = (row["problem_id"], row["solver"])
            if key in rows:
                sys.exit(f"{path}: row {key} appears twice")
            rows[key] = row
        return reader.fieldnames, rows


def differences(a_path, b_path):
    """Lines naming every difference between the two files."""
    a_cols, a_rows = read(a_path)
    b_cols, b_rows = read(b_path)
    out = []
    if a_cols != b_cols:
        out.append(f"columns differ: {a_cols} {b_cols}")
    cols = [c for c in a_cols if c in b_cols and c not in CLOCKS]
    for key in sorted(a_rows.keys() | b_rows.keys()):
        if key not in b_rows:
            out.append(f"{key}: only in {a_path}")
        elif key not in a_rows:
            out.append(f"{key}: only in {b_path}")
        else:
            out += [f"{key + (c,)}: {a_rows[key][c]!r} {b_rows[key][c]!r}"
                    for c in cols if a_rows[key][c] != b_rows[key][c]]
    return out, len(a_rows)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    out, count = differences(*argv)
    print("\n".join(out) if out else
          f"{count} rows identical apart from {', '.join(CLOCKS)}")
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
