#!/usr/bin/env python3
"""Runs the end-to-end simulator benchmark (bench/e2e).

Builds `e2e_bench` from the checkout's sources (Release, under
.bench_build/e2e), then runs whole jobs, each in its own process.

One measured run of one workload; the last stdout line is the result:
    python3 bench/e2e/run.py --workload serve --seed 1 --seconds 30 --trace 0
  It runs jobs of that workload, all with that seed, for about --seconds
  and reports the median of each metric over the jobs. --trace 0 reports
  the end-to-end metrics of BENCHMARK.json; --trace 1 alternates untraced
  and traced jobs and reports its per-layer metrics. `correct` is true
  when every job passed its checks and all of them (traced or not)
  simulated the same thing (equal sim_digest).

Every workload, written to BENCH_e2e.json (--repeat N: N runs each, with
the median and quartiles of every metric printed):
    python3 bench/e2e/run.py [--seed 1] [--seconds 30] [--repeat 5]

Two result files against the bounds in BENCHMARK.json:
    python3 bench/e2e/run.py --compare BASE.json NEW.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
TRACES = ROOT / ".bench_build" / "e2e-traces"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ["fleet", "serve", "dirty"]
MIN_JOBS = 3          # per run, whatever --seconds says
JOB_TIMEOUT_S = 150   # one e2e_bench process


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def build():
    """Configure once, then bring e2e_bench up to date; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"run.py: no simulator sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=120)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "e2e_bench"],
                   stdout=sys.stderr, check=True, timeout=850)
    return BUILD / "e2e_bench"


def run_job(exe, workload, seed, traced):
    """One e2e_bench process; returns its JSON record (None if it crashed)."""
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}"]
    if traced:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace={TRACES}")
    # The library's VDC_* knobs select alternative implementations; a
    # measurement must run the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("VDC_")}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=JOB_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"e2e_bench {workload} seed {seed} crashed "
            f"(exit {proc.returncode}):\n{proc.stderr}")
        return None
    if proc.returncode != 0:
        log(proc.stderr.strip())
    record["exit"] = proc.returncode
    return record


def measure(exe, workload, seed, seconds, trace):
    """Jobs for about `seconds`; with `trace`, alternately untraced/traced."""
    jobs = []
    start = time.monotonic()
    while True:
        traced = trace and len(jobs) % 2 == 1
        record = run_job(exe, workload, seed, traced)
        if record is None:
            return None
        jobs.append(record)
        m = record["metrics"]
        log(f"  {workload} seed {seed}{' traced' if traced else ''}: "
            f"{m['sim_s_per_wall_s']['value']:.3f} sim-s/s, "
            f"setup {m['setup_s']['value']:.4f} s, "
            f"digest {record['sim_digest']}, ok {record['ok']}")
        elapsed = time.monotonic() - start
        # A traced run needs whole untraced/traced pairs, two at least.
        enough = (len(jobs) >= 4 and len(jobs) % 2 == 0 if trace
                  else len(jobs) >= MIN_JOBS)
        if enough and elapsed + elapsed / len(jobs) > seconds:
            return jobs


def summarize(jobs):
    """Median of every metric over the jobs that produced it (host.* and
    the seam timers come from traced jobs only), plus the verdict."""
    traced = [j for j in jobs if j["traced"]]
    untraced = [j for j in jobs if not j["traced"]]
    metrics = {}
    for name, entry in untraced[0]["metrics"].items():
        values = [j["metrics"][name]["value"] for j in untraced]
        metrics[name] = {"value": statistics.median(values),
                         "unit": entry["unit"]}
    if traced:
        for name, entry in traced[0]["metrics"].items():
            if name in metrics:
                continue
            values = [j["metrics"][name]["value"] for j in traced]
            metrics[name] = {"value": statistics.median(values),
                             "unit": entry["unit"]}
        # Jobs alternate untraced/traced, so each adjacent pair ran under
        # the same machine conditions; the median pair ratio is the cost of
        # tracing.
        speed = [j["metrics"]["sim_s_per_wall_s"]["value"] for j in jobs]
        ratios = [speed[i + 1] / speed[i] for i in range(0, len(jobs) - 1, 2)]
        metrics["trace.overhead"] = {"value": 1.0 - statistics.median(ratios),
                                     "unit": "fraction"}
    digests = {j["sim_digest"] for j in jobs}
    return {
        "correct": all(j["ok"] and j["exit"] == 0 for j in jobs)
                   and len(digests) == 1,
        "attempted": sum(j["attempted"] for j in jobs),
        "failed": sum(j["failed"] for j in jobs),
        "sim_digest": jobs[0]["sim_digest"],
        "jobs": len(jobs),
        "metrics": metrics,
    }


def one_run(args):
    spec = load_spec()
    exe = build()
    jobs = measure(exe, args.workload, args.seed, args.seconds, args.trace)
    if jobs is None:
        raise SystemExit(1)
    summary = summarize(jobs)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in summary["metrics"]:
            raise SystemExit(f"run.py: e2e_bench reported no {m['name']}")
        metrics[m["name"]] = {"value": summary["metrics"][m["name"]]["value"],
                              "unit": m["unit"]}
    print(f"{args.workload}: {summary['jobs']} jobs, digest "
          f"{summary['sim_digest']}, correct {summary['correct']}")
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def suite(args):
    exe = build()
    runs = {w: [] for w in WORKLOADS}
    for rep in range(args.repeat):
        for w in WORKLOADS:
            log(f"{w}: run {rep + 1}/{args.repeat}")
            jobs = measure(exe, w, args.seed, args.seconds, trace=False)
            traced = measure(exe, w, args.seed, args.seconds, trace=True)
            if jobs is None or traced is None:
                raise SystemExit(1)
            summary = summarize(jobs)
            layers = summarize(traced)
            for name, entry in layers["metrics"].items():
                summary["metrics"].setdefault(name, entry)
            summary["correct"] = (summary["correct"] and layers["correct"]
                                  and summary["sim_digest"]
                                  == layers["sim_digest"])
            runs[w].append({
                "correct": summary["correct"],
                "sim_digest": summary["sim_digest"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {k: v["value"]
                            for k, v in summary["metrics"].items()},
                "units": {k: v["unit"] for k, v in summary["metrics"].items()},
            })
    out = {"benchmark": "bench/e2e", "seed": args.seed,
           "seconds": args.seconds, "workloads": {}}
    for w, rs in runs.items():
        units = rs[0]["units"]
        stats = {}
        for name in rs[0]["metrics"]:
            q1, med, q3 = quartiles([r["metrics"][name] for r in rs])
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "unit": units[name]}
        for r in rs:
            del r["units"]
        out["workloads"][w] = {"runs": rs, "stats": stats}
        print(f"\n{w} ({len(rs)} run(s), digest "
              f"{', '.join(sorted({r['sim_digest'] for r in rs}))})")
        for name, s in stats.items():
            print(f"  {name:34s} {s['median']:14.6g}  "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] {s['unit']}")
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    print(f"\nwrote {args.out}")
    if not all(r["correct"] for rs in runs.values() for r in rs):
        raise SystemExit(1)


def compare(args):
    """Each end-to-end metric of BENCHMARK.json, per workload: the new
    median against the base median and the metric's bound. A base spread
    (interquartile range over median) wider than the bound leaves the
    metric unresolved unless every new run beats every base run."""
    spec = load_spec()
    with open(args.compare[0]) as f:
        base = json.load(f)["workloads"]
    with open(args.compare[1]) as f:
        new = json.load(f)["workloads"]
    regressed = False
    for w in WORKLOADS:
        if w not in base or w not in new:
            continue
        a_runs, b_runs = base[w]["runs"], new[w]["runs"]
        same = ({r["sim_digest"] for r in a_runs}
                == {r["sim_digest"] for r in b_runs})
        cells = []
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name] for r in a_runs]
            b = [r["metrics"][name] for r in b_runs]
            q1, med_a, q3 = quartiles(a)
            med_b = statistics.median(b)
            sign = 1.0 if m["better"] == "lower" else -1.0
            change = (med_b - med_a) / med_a if med_a else 0.0
            worse = sign * change
            spread = (q3 - q1) / med_a if med_a else 0.0
            all_better = all(sign * (y - x) < 0 for x in a for y in b)
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
                regressed = True
            elif all_better or worse < -max(spread, 1e-9):
                verdict = "better"
            else:
                verdict = "ok"
            cells.append(f"{name} {med_a:.4g}->{med_b:.4g} "
                         f"({change * 100:+.1f}%, bound {bound * 100:g}%) "
                         f"{verdict}")
        print(f"{w}: sim_digest {'same' if same else 'DIFFERENT'} | "
              + " | ".join(cells))
    raise SystemExit(1 if regressed else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default="BENCH_e2e.json")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(args)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload:
        return one_run(args)
    return suite(args)


if __name__ == "__main__":
    main()
