#!/usr/bin/env python3
"""Build the transtore benchmark and run one workload.

    python3 transbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 0
    python3 transbench/run.py --self-test

Run from the root of a checkout. The first call builds the library,
transtore_cli and the transbench binary with CMake into $CARGO_TARGET_DIR
(default .bench_build); later calls only rebuild what changed. The last
line of stdout is the JSON result: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1 (which also writes a Chrome
trace-event file into <build>/runs).

--self-test runs every workload on tiny inputs, traced and untraced, and
checks that each metric named in BENCHMARK.json is printed with its unit,
that no operation failed, and that on the exact workloads the per-layer
self times cover at least 95% of the traced job wall time.
"""
import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configure and build; build output goes to stderr. Returns the dir."""
    out = build_dir()
    for cmd in (["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build failed: " + " ".join(cmd))
    return out


def die_with_parent():
    """Child side of Popen: SIGKILL this child when its parent exits."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def run_binary(out, workload, seed, seconds, trace, tiny=False):
    """Run transbench; returns (exit code, stdout text)."""
    cmd = [os.path.join(out, "transbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--cli", os.path.join(out, "transtore_cli"),
           "--out-dir", os.path.relpath(os.path.join(out, "runs"), ROOT)]
    if tiny:
        cmd += ["--tiny", "1"]
    # transbench dies with this script (and its server with transbench).
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         preexec_fn=die_with_parent)
    try:
        out_text, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        return 1, ""
    return p.returncode, out_text


def self_test(out):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        untraced = None
        for trace in (False, True):
            rc, text = run_binary(out, w, 7, 3, trace, tiny=True)
            label = "%s (trace %d)" % (w, trace)
            lines = text.strip().splitlines()
            if rc != 0 or not lines:
                problems.append("%s: exit %d, no result" % (label, rc))
                continue
            result = json.loads(lines[-1])
            expect = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            if set(got) != {m["name"] for m in expect}:
                problems.append("%s: metric names differ from BENCHMARK.json: %s"
                                % (label, sorted(set(got) ^ {m["name"] for m in expect})))
            for m in expect:
                if m["name"] in got and got[m["name"]]["unit"] != m["unit"]:
                    problems.append("%s: %s unit %s, expected %s" % (
                        label, m["name"], got[m["name"]]["unit"], m["unit"]))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: %d of %d operations failed" % (
                    label, result["failed"], result["attempted"]))
            if not trace:
                untraced = got
                if got["ok_share"]["value"] != 1:
                    problems.append("%s: ok_share %s" % (label, got["ok_share"]["value"]))
                for name, m in got.items():
                    if m["value"] <= 0:
                        problems.append("%s: end-to-end %s is %s" % (label, name, m["value"]))
                continue
            cover = got["trace.coverage"]["value"]
            if w.startswith("exact") and cover < 0.95:
                problems.append("%s: self times cover %.3f of job wall" % (label, cover))
            trace_file = os.path.join(out, "runs", "trace-%s-7.json" % w)
            try:
                with open(trace_file) as f:
                    events = json.load(f)["traceEvents"]
                if not events:
                    problems.append("%s: empty trace file" % label)
            except (OSError, ValueError, KeyError) as e:
                problems.append("%s: trace file unreadable: %s" % (label, e))
            traced_line = [l for l in lines if l.startswith("# traced end-to-end:")]
            if untraced and traced_line:
                traced = dict(kv.split("=") for kv in traced_line[0].split(":", 1)[1].split())
                print("%-11s tracing overhead on solve_s: %+.4f s (traced %.4f, untraced %.4f)"
                      % (w, float(traced["solve_s"]) - untraced["solve_s"]["value"],
                         float(traced["solve_s"]), untraced["solve_s"]["value"]))
            print("%-11s ok: %d operations, coverage %.3f" % (w, result["attempted"], cover))
    for p in problems:
        print("SELF-TEST FAIL:", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    out = build()
    if args.self_test:
        return self_test(out)
    if not args.workload:
        ap.error("--workload is required")
    rc, text = run_binary(out, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(text)
    return rc


if __name__ == "__main__":
    sys.exit(main())
