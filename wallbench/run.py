#!/usr/bin/env python3
"""Wall-to-verified-result benchmark: build, run, check.

Run from the repository root:

    python3 wallbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 wallbench/run.py --workload all       # every workload in turn
    python3 wallbench/run.py --selfcheck          # verification-can-fail probes

Builds the wallbench package (CMake, Release) into .bench_build/wallbench,
runs one workload and relays its report.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.  With --trace 1
the spans go to .bench_build/wallbench/traces/<workload>-seed<n>.json as
Chrome trace-event JSON, which this script loads back and checks: one root
span per run, every child inside its run.  Exit status is 0 only when every
result is correct.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wallbench")
WORKLOADS = ["sim_dag_n64", "host_spmv_n1e4", "lang_graph_n1e4"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run measures for --seconds, then finishes the attempt in flight (the
# host workload's attempts take ~12 s); stay inside a 180 s budget.
RUN_TIMEOUT_S = 170


def die(msg):
    print("wallbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "exec", "executor.h")):
        die("no apex sources under %s/src: run from a full checkout" % ROOT)
    configured = any(os.path.isfile(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    try:
        if not configured:
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        die("build failed: %s" % e)
    return os.path.join(BUILD, "wallbench")


def trace_problem(path):
    """Empty string iff `path` is Chrome trace-event JSON with exactly one
    root span per run and every child span parented inside its own run."""
    try:
        with open(path) as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        return "trace %s does not load: %s" % (path, e)
    roots = {}
    for i, e in enumerate(events):
        if e.get("ph") != "X" or not {"name", "ts", "dur", "tid"} <= e.keys():
            return "trace event %d is not a complete event" % i
        if e["args"]["parent"] < 0:
            roots[e["tid"]] = roots.get(e["tid"], 0) + 1
    if not roots or any(n != 1 for n in roots.values()):
        return "trace %s: root spans per run %s" % (path, roots)
    for e in events:
        p = e["args"]["parent"]
        if p >= 0 and (p >= len(events) or events[p]["tid"] != e["tid"]):
            return "trace %s: span %s has a parent outside its run" % (
                path, e["name"])
    return ""


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (its report lines, its result object)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    trace_path = None
    if trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD, "traces",
                                  "%s-seed%d.json" % (workload, seed))
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("%s printed no result (exit %d)" % (workload, proc.returncode))
    if set(result) != RESULT_KEYS:
        die("%s result has keys %s" % (workload, sorted(result)))
    if proc.returncode != 0:
        result["correct"] = False
    if trace_path and result["correct"]:
        problem = trace_problem(trace_path)
        if problem:
            print("wallbench: " + problem, file=sys.stderr)
            result["correct"] = False
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    if not args.selfcheck and args.workload is None:
        die("give --workload or --selfcheck")

    binary = build()
    if args.selfcheck:
        sys.exit(subprocess.run([binary, "--selfcheck", "--seed",
                                 str(args.seed)]).returncode)

    if args.workload != "all":
        lines, result = run_one(binary, args.workload, args.seed,
                                args.seconds, args.trace)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        sys.exit(0 if result["correct"] else 1)

    # Every workload in turn; the last line merges them, metrics keyed
    # "<workload>.<metric>".
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        lines, result = run_one(binary, w, args.seed, args.seconds, args.trace)
        print("== %s" % w)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"]["%s.%s" % (w, k)] = v
    print(json.dumps(merged), flush=True)
    sys.exit(0 if merged["correct"] else 1)


if __name__ == "__main__":
    main()
