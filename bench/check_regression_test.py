#!/usr/bin/env python3
"""Self-test of check_regression.py over the committed baseline.

Writes reports that hold every gate's own value, which must pass. Then,
one gate at a time, it moves that value just past the gate's bound: the
checker must fail and name that gate alone. A missing row, an errored row
and a missing report must fail too.

Usage: check_regression_test.py
"""

import json
import math
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import check_regression  # noqa: E402

CHECKER = os.path.join(HERE, "check_regression.py")


def row_for(rows, selector):
    """The report row the selector picks (a list picks its first value)."""
    want = {k: v[0] if isinstance(v, list) else v for k, v in selector.items()}
    for row in rows:
        if all(row.get(k) == v for k, v in want.items()):
            return row
    rows.append(want)
    return want


def set_field(row, path, value):
    *parents, leaf = path.split(".")
    for key in parents:
        row = row.setdefault(key, {})
    row[leaf] = value


# The denominator of a `per` gate: a power of two keeps the ratio exact.
PER = 2.0


def build_reports(gates, nudged=None, toward=math.inf):
    """Every gate at its own value, except gate `nudged`, which moves the
    smallest step `toward` +-inf."""
    reports = {}
    for i, gate in enumerate(gates):
        rows = reports.setdefault(gate["report"], {"rows": []})["rows"]
        value = float(gate["value"])
        if i == nudged:
            value = math.nextafter(value, toward)
        if "per" in gate:
            set_field(row_for(rows, gate["per"]), gate["field"], PER)
            value *= PER
        set_field(row_for(rows, gate["row"]), gate["field"], value)
    return reports


def past_bound(gate):
    """The directions in which a step leaves the gate's bound."""
    return {"==": (-math.inf, math.inf), "<=": (math.inf,),
            ">=": (-math.inf,)}[gate["cmp"]]


def run_checker(reports):
    """Returns (exit code, the checker's FAIL lines, its output)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, report in reports.items():
            with open(os.path.join(tmp, name), "w") as f:
                json.dump(report, f)
        done = subprocess.run(
            [sys.executable, CHECKER, tmp],
            capture_output=True, text=True)
    failed = [line for line in done.stdout.splitlines()
              if line.startswith("FAIL ")]
    return done.returncode, failed, done.stdout + done.stderr


def main():
    with open(check_regression.BASELINE) as f:
        gates = json.load(f)["gates"]
    labels = [check_regression.label(gate) for gate in gates]
    problems = []

    def expect(case, reports, want_failed):
        code, failed, output = run_checker(reports)
        named = all(any(line.startswith(f"FAIL {want}:") for line in failed)
                    for want in want_failed)
        if code != (1 if want_failed else 0) or not named or len(
                failed) != len(want_failed):
            problems.append(f"{case}: exit {code}, expected these to fail: "
                            f"{want_failed}\n{output}")

    expect("own values", build_reports(gates), [])
    for i, gate in enumerate(gates):
        for toward in past_bound(gate):
            expect(f"{labels[i]} nudged toward {toward}",
                   build_reports(gates, nudged=i, toward=toward), [labels[i]])

    # The first gate's row, dropped or errored, fails every gate reading it.
    first = gates[0]
    reading = [labels[i] for i, g in enumerate(gates)
               if g["report"] == first["report"]
               and first["row"] in (g["row"], g.get("per"))]
    reports = build_reports(gates)
    rows = reports[first["report"]]["rows"]
    row = row_for(rows, first["row"])
    rows.remove(row)
    expect("missing row", reports, reading)
    rows.append(dict(row, error_occurred=True, error_message="self-check"))
    expect("errored row", reports, reading)

    reports = build_reports(gates)
    del reports[first["report"]]
    expect("missing report", reports,
           [labels[i] for i, g in enumerate(gates)
            if g["report"] == first["report"]])

    for problem in problems:
        print("FAIL:", problem)
    if problems:
        return 1
    print(f"OK: {len(gates)} gates pass at their own values and each fails "
          "just past its bound; missing and errored rows and a missing "
          "report fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
