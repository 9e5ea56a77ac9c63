#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: paper-apps, serve-fleet, repl-cluster, gc-churn (see NOTES.md).
The script builds the measuring program (a package of its own in this
directory) with cargo into $CARGO_TARGET_DIR (default `.bench_build`), runs
it, measures its peak resident memory from outside, and prints its report.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics; `--trace 1` the per-layer metrics, and writes the spans
to `perfbench/out/`.

Exits non-zero, without a result line, if the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-apps", "serve-fleet", "repl-cluster", "gc-churn"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# glibc keeps freed memory for reuse instead of returning it to the kernel
# after every round (the default trims the heap top above 128 KiB and maps
# large blocks afresh). Without this, re-faulting the same pages each round
# made kernel time a third of serve-fleet's run and its rate swing by ~20%
# between runs on a virtual machine.
MALLOC_ENV = {"MALLOC_TRIM_THRESHOLD_": str(1 << 32), "MALLOC_MMAP_THRESHOLD_": str(32 << 20)}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def run_one(binary, workload, args):
    """Runs one workload; returns (report lines, result, peak RSS in MiB)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(MALLOC_ENV, **os.environ)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = []
    reader = threading.Thread(target=lambda: lines.extend(proc.stdout))
    reader.start()
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    # wait4 reports this child's own peak RSS (cargo's compilers, also
    # children of this script, are not counted).
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    reader.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stdout.write("".join(lines))
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write("".join(lines))
        fail(f"{workload} printed no result line")
    return lines[:-1], result, usage.ru_maxrss / 1024.0


def check_declared(result, trace):
    """The result must carry every metric BENCHMARK.json declares."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        declared = json.load(f)
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail(f"result lacks declared metrics: {', '.join(missing)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        lines, result, rss_mb = run_one(binary, workload, args)
        if not args.trace:
            result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MiB"}
            lines.append(f"metric peak_rss_mb = {rss_mb} MiB (measured outside the program)\n")
        check_declared(result, args.trace)
        sys.stdout.write("".join(lines))
        if len(workloads) > 1:
            print(json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            combined["metrics"][key] = metric
    sys.stdout.flush()
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
