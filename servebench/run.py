#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload chat|rag --seed N --seconds S \
        --trace 0|1
    python3 servebench/run.py --self-test

Run from the repository root. The benchmark program is compiled from
source into .bench_build/servebench (build output goes to stderr), then
run with OMP_NUM_THREADS=1. Standard output ends with one JSON line holding
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
program's full report (thread settings, requests sent/completed/failed,
output-check counts). A traced run also writes its spans to
.bench_build/servebench/traces/. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def pinned_env():
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = "1"
    return env


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    if sys.argv[1:] == ["--self-test"]:
        build()
        return subprocess.run([os.path.join(BUILD, "servebench_test")],
                              env=pinned_env()).returncode

    p = argparse.ArgumentParser(description="serving benchmark")
    p.add_argument("--workload", required=True, choices=("chat", "rag"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    build()
    cmd = [os.path.join(BUILD, "servebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    out = subprocess.run(cmd, env=pinned_env(), stdout=subprocess.PIPE,
                         text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        print("servebench exited with %d" % out.returncode, file=sys.stderr)
        return 1
    report = json.loads(out.stdout.strip().splitlines()[-1])
    want = expected_metrics(args.trace)
    if set(report["metrics"]) != want:
        print("metrics %s do not match BENCHMARK.json %s"
              % (sorted(report["metrics"]), sorted(want)), file=sys.stderr)
        return 1
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["requests"]["sent"],
        "failed": report["requests"]["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
