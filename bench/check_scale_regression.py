#!/usr/bin/env python3
"""CI regression gate for bench/scale_sweep.

The control-plane election rows are gated on an ABSOLUTE ceiling:
failover is measured in simulated seconds over a deterministic plane, so
it is machine-independent and needs no noise margin. The hold-model
events/s of the report's 1k-node row are printed next to the committed
baseline (bench/BENCH_scale_baseline.json) for the record only: shared
CI runners differ too much in absolute speed to gate on them.

Usage: check_scale_regression.py BENCH_scale.json [baseline.json]
"""

import json
import sys


def row_at(report, nodes):
    for row in report["rows"]:
        if row["nodes"] == nodes:
            return row
    sys.exit(f"no {nodes}-node row in report")


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    current = json.load(open(sys.argv[1]))
    baseline_path = (
        sys.argv[2] if len(sys.argv) > 2 else "bench/BENCH_scale_baseline.json"
    )
    baseline = json.load(open(baseline_path))

    base_row = baseline["row"]
    cur_row = row_at(current, base_row["nodes"])

    print(f"sim hold events/s: {cur_row['sim']['events_per_s']:.3e} "
          f"(baseline {base_row['sim']['events_per_s']:.3e})")

    election = current.get("election")
    if election is None:
        sys.exit("FAIL: no election-availability section in the report")
    ceiling = election["ceiling_s"]
    for row in election["rows"]:
        print(
            f"election failover at {row['nodes']} nodes: "
            f"{row['failover_max_s']:.3f} s worst of {row['trials']} "
            f"leader kills (ceiling {ceiling:.1f} s)"
        )
        if not row["safety_ok"]:
            sys.exit(
                f"FAIL: raft safety invariant violated during the "
                f"{row['nodes']}-node leader-kill trials"
            )
        if row["failover_max_s"] > ceiling:
            sys.exit(
                f"FAIL: control-plane failover {row['failover_max_s']:.3f} s "
                f"at {row['nodes']} nodes exceeds the {ceiling:.1f} s ceiling"
            )
    print("OK: election failover under ceiling at every scale")


if __name__ == "__main__":
    main()
