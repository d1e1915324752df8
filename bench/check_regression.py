#!/usr/bin/env python3
"""Gate benchmark reports against the committed bench/BENCH_baseline.json.

The baseline is a flat list of gates. Each names:

  report  the JSON file a benchmark wrote, found in REPORT_DIR;
  row     a selector: the one entry of the report's top-level lists whose
          keys hold the selector's values (a list means any of them) and
          that ran (no `error_occurred`);
  field   a dotted path into that row;
  cmp     `==`, `<=` or `>=`;
  value   the committed value the field is compared against.

A gate with `per` divides its field by the same field of a second row, so
an in-process ratio (SIMD over scalar) cancels the runner's speed. A
missing report, a missing, ambiguous or errored row, or a missing or
non-numeric field fails the gate. Checks that need no committed value
stay in the binaries that write the reports, which exit non-zero (or, in
microbench, error the row) when they fail.

Usage: check_regression.py [REPORT_DIR]
"""

import argparse
import json
import operator
import os
import sys

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_baseline.json")
COMPARE = {"==": operator.eq, "<=": operator.le, ">=": operator.ge}


def load_rows(path):
    """Returns (the report's rows, None), or (None, why it is unreadable)."""
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        return None, f"report unreadable: {e}"
    return [row for value in report.values() if isinstance(value, list)
            for row in value if isinstance(row, dict)], None


def find_row(rows, selector):
    """Returns (row, None), or (None, why no single row ran)."""
    hits = [row for row in rows
            if all(row.get(key) in (want if isinstance(want, list) else [want])
                   for key, want in selector.items())]
    ran = [row for row in hits if not row.get("error_occurred")]
    if len(ran) == 1:
        return ran[0], None
    if ran:
        return None, f"{len(ran)} rows match"
    errors = "; ".join(row.get("error_message", "error") for row in hits)
    return None, "no such row ran" + (f" ({errors})" if errors else "")


def field_of(row, path):
    for key in path.split("."):
        row = row[key]
    if isinstance(row, bool) or not isinstance(row, (int, float)):
        raise TypeError(f"{path} is not a number")
    return row


def measure(gate, rows):
    """Returns (value, None), or (None, why the gate has no value)."""
    row, why = find_row(rows, gate["row"])
    if row is None:
        return None, why
    try:
        value = field_of(row, gate["field"])
        if "per" in gate:
            base, why = find_row(rows, gate["per"])
            if base is None:
                return None, f"per row: {why}"
            value /= field_of(base, gate["field"])
    except (KeyError, TypeError, ZeroDivisionError):
        return None, f"field {gate['field']} unreadable"
    return value, None


def label(gate):
    per = f" per {json.dumps(gate['per'])}" if "per" in gate else ""
    return (f"{gate['report']} {json.dumps(gate['row'])} {gate['field']}"
            f"{per} {gate['cmp']} {gate['value']}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("reports", nargs="?", default=".",
                        help="directory holding the reports (default: .)")
    args = parser.parse_args()
    with open(BASELINE) as f:
        gates = json.load(f)["gates"]

    reports = {}
    failed = 0
    for gate in gates:
        if gate["report"] not in reports:
            reports[gate["report"]] = load_rows(
                os.path.join(args.reports, gate["report"]))
        rows, why = reports[gate["report"]]
        value, why = measure(gate, rows) if why is None else (None, why)
        if why is None and not COMPARE[gate["cmp"]](value, gate["value"]):
            why = f"got {value:.10g}"
        if why is None:
            print(f"OK   {label(gate)} (got {value:.10g})")
        else:
            failed += 1
            print(f"FAIL {label(gate)}: {why}")
    print(f"{len(gates) - failed} of {len(gates)} gates hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
