#!/usr/bin/env python3
"""Smoke test of e2e_bench: the scaled-down --smoke variant of every
workload passes its checks, repeats bit for bit (equal sim_digest), and
simulates the same thing with the stack sampler and span tracing on. The
traced run's layer shares sum to 1, its samples cover the run's wall
time, and its trace holds both the sim-time and the host-time spans.

Usage: smoke_test.py path/to/e2e_bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["fleet", "serve", "dirty"]


def check(ok, what):
    if not ok:
        raise SystemExit(f"FAIL: {what}")


def run(exe, workload, trace_dir=None):
    cmd = [exe, f"--workload={workload}", "--seed=1", "--smoke"]
    if trace_dir:
        cmd.append(f"--trace={trace_dir}")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    check(proc.returncode == 0, f"{' '.join(cmd)} failed:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    check(record["ok"], f"{workload}: checks failed")
    return record


def main():
    exe = sys.argv[1]
    trace_dir = Path(exe).resolve().parent / "smoke-traces"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir()
    for w in WORKLOADS:
        first, second = run(exe, w), run(exe, w)
        traced = run(exe, w, trace_dir)
        digests = {first["sim_digest"], second["sim_digest"],
                   traced["sim_digest"]}
        check(len(digests) == 1, f"{w}: runs diverge {digests}")
        check(first["attempted"] >= 1, f"{w}: no operation attempted")

        m = {k: v["value"] for k, v in traced["metrics"].items()}
        shares = sum(v for k, v in m.items()
                     if k.startswith("host.") and k.endswith(".share"))
        check(abs(shares - 1.0) < 1e-9, f"{w}: layer shares sum to {shares}")
        layer_wall = sum(v for k, v in m.items()
                         if k.startswith("host.") and k.endswith(".wall_s")
                         and k != "host.wall_s")
        check(abs(layer_wall - m["host.wall_s"]) <= 0.1 * m["host.wall_s"],
              f"{w}: layers cover {layer_wall} s of {m['host.wall_s']} s")

        trace = json.loads((trace_dir / f"{w}.trace.json").read_text())
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        check(pids == {1, 2}, f"{w}: trace lacks sim or host spans ({pids})")
        layers = json.loads((trace_dir / f"{w}.layers.json").read_text())
        check(layers["metrics"]["host.samples"]["value"] == m["host.samples"],
              f"{w}: layers.json disagrees with the run's output")
        print(f"{w}: ok, digest {traced['sim_digest']}, "
              f"{int(m['host.samples'])} samples")
    shutil.rmtree(trace_dir)


if __name__ == "__main__":
    main()
