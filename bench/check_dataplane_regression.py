#!/usr/bin/env python3
"""Gate BENCH_dataplane.json against the committed baseline.

Four checks, all designed to be meaningful on noisy shared runners:

1. Delta-path wire bytes. The dataplane benchmarks account wire traffic in
   SIMULATED time, so `wire_bytes_per_epoch` and `delta_wire_bytes_per_epoch`
   are bit-deterministic across machines. The baseline records the expected
   per-epoch byte counts for each incremental row; any drift (a delta frame
   growing, a member silently falling back to full payloads) fails the gate.
   Both counters must match the SAME expected value: on the delta path every
   shipped byte is a VDD1 frame.

2. Copy-bytes ceilings. `copy_bytes_per_epoch` on incremental epochs is a
   simulated-metric count of actual data-plane copies, so it is also
   deterministic. The baseline sets a per-row MAXIMUM: the zero-copy path
   keeps per-epoch copies O(dirty bytes), and any reintroduced
   whole-image flatten blows through the ceiling by three orders of
   magnitude.

3. Compression honesty. Every incremental row must ship
   `delta_wire_bytes_per_epoch` <= `trim_wire_bytes_per_epoch`: the
   per-record min(RLE, trim) choice can never do worse than a trim-only
   encoder.

4. Kernel throughput ratios. Absolute MB/s depends on the runner, but the
   SIMD and scalar tiers run in the same process seconds apart, so their
   RATIO cancels machine speed. The baseline sets a minimum ratio per kernel
   (measured headroom is ~2x for XOR and ~14x for gf256 at the gated size,
   so the gates have generous slack).

Usage: check_dataplane_regression.py BENCH_dataplane.json baseline.json
"""

import json
import sys

SIMD_TIERS = (2, 3)  # Avx2, Neon


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        bench = json.load(f)
    with open(sys.argv[2]) as f:
        baseline = json.load(f)

    rows = {
        b["name"]: b
        for b in bench.get("benchmarks", [])
        if not b.get("error_occurred")
    }
    failures = []

    for name, expected in baseline["wire_bytes_per_epoch"].items():
        row = rows.get(name)
        if row is None:
            failures.append(f"missing benchmark row {name}")
            continue
        for counter in ("wire_bytes_per_epoch", "delta_wire_bytes_per_epoch"):
            got = row.get(counter)
            if got is None:
                failures.append(f"{name}: counter {counter} missing")
            elif abs(got - expected) > 0.01 * expected:
                failures.append(
                    f"{name}: {counter} = {got:.0f}, expected {expected:.0f}"
                )

    for name, ceiling in baseline.get("copy_bytes_per_epoch_max", {}).items():
        row = rows.get(name)
        if row is None:
            failures.append(f"missing benchmark row {name}")
            continue
        got = row.get("copy_bytes_per_epoch")
        if got is None:
            failures.append(f"{name}: counter copy_bytes_per_epoch missing")
        elif got > ceiling:
            failures.append(
                f"{name}: copy_bytes_per_epoch = {got:.0f} exceeds "
                f"ceiling {ceiling:.0f}"
            )

    for name, row in rows.items():
        trim = row.get("trim_wire_bytes_per_epoch")
        delta = row.get("delta_wire_bytes_per_epoch")
        if trim is None or delta is None:
            continue
        if delta > trim * 1.0001:
            failures.append(
                f"{name}: delta wire bytes {delta:.0f} exceed trim-only "
                f"bytes {trim:.0f} (compression made things worse)"
            )

    for kernel, spec in baseline["kernel_ratios"].items():
        scalar_name = f"{spec['bench']}/tier:0/bytes:{spec['bytes']}"
        scalar = rows.get(scalar_name)
        if scalar is None:
            failures.append(f"{kernel}: missing scalar row {scalar_name}")
            continue
        simd_bps = 0.0
        simd_name = None
        for tier in SIMD_TIERS:
            row = rows.get(f"{spec['bench']}/tier:{tier}/bytes:{spec['bytes']}")
            if row and row.get("bytes_per_second", 0.0) > simd_bps:
                simd_bps = row["bytes_per_second"]
                simd_name = row["name"]
        if simd_name is None:
            failures.append(f"{kernel}: no SIMD tier ran (rows missing)")
            continue
        ratio = simd_bps / scalar["bytes_per_second"]
        if ratio < spec["min_ratio"]:
            failures.append(
                f"{kernel}: {simd_name} is only {ratio:.2f}x scalar "
                f"(need {spec['min_ratio']}x)"
            )
        else:
            print(
                f"OK {kernel}: {simd_name} at {ratio:.1f}x scalar "
                f"(gate {spec['min_ratio']}x)"
            )

    if failures:
        for f_ in failures:
            print("FAIL:", f_)
        return 1
    print("OK: wire bytes exact, copy bytes under ceilings, delta <= trim, kernel ratios above gates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
