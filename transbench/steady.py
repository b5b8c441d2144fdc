#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and report the spread.

    python3 transbench/steady.py [--runs 10] [--workloads serve_mix,...]
                                 [--first-seed 1] [--save out.json]
                                 [--compare earlier.json]

Each run uses its own seed (first-seed, first-seed + 1, ...) and the
run_seconds from BENCHMARK.json. For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4), and the spread
(Q3 - Q1) / median. A spread above the metric's bound is flagged FAIL (the
benchmark is too noisy to gate that metric), above a third of the bound
WARN; setup_s is flagged like every other metric. --compare checks that
each median is not worse than a saved run's median by more than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    p = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit("steady.py: %s seed %d failed (exit %d)"
                         % (workload, seed, p.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("  %s seed %d: %d of %d operations failed"
              % (workload, seed, result["failed"], result["attempted"]))
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric, old, new):
    """Relative worsening of `new` against `old` (negative = better)."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    summary = {}
    flagged = 0
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            for name, v in run_once(w, seed, spec["run_seconds"]).items():
                values.setdefault(name, []).append(v)
            print("  %s seed %d done" % (w, seed), file=sys.stderr)
        summary[w] = {}
        print("%s: %d runs" % (w, args.runs))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[w][m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread, "runs": v}
            flag = ""
            if spread > m["bound"]:
                flag = "FAIL spread > bound"
            elif spread > m["bound"] / 3:
                flag = "WARN spread > bound/3"
            if w in earlier and m["name"] in earlier[w]:
                d = worse_by(m, earlier[w][m["name"]]["median"], med)
                if d > m["bound"]:
                    flag += " FAIL median worse by %.3f" % d
            if "FAIL" in flag:
                flagged += 1
            print("  %-14s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f"
                  "  bound %.3f %s" % (m["name"], med, q1, q3, spread,
                                       m["bound"], flag))
            print("  %-14s runs: %s" % ("", " ".join("%.4g" % x for x in v)))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(summary, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
