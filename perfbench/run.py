#!/usr/bin/env python3
"""End-to-end benchmark of the ISAAC dispatch runtime.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot_dispatch --seed 1 --seconds 10 --trace 0

Builds the library and the benchmark from source (Release, into
$CARGO_TARGET_DIR or .bench_build), runs one workload, and passes the
benchmark's output through. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. Traced runs
(--trace 1) also write their span records to <build dir>/out/.

Exit codes: 0 ok, 1 build or run failure, 2 bad arguments or no sources,
3 refused by the benchmark (non-Release build, ISAAC_FAILPOINTS set,
ISAAC_TELEMETRY set in a timed run); its exit code is passed through.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_dispatch", "hot_execute", "cold_arrivals")


# A run takes about 10 s of set-up and 4.5 times --seconds at most (the
# traced cold_arrivals run); past this many seconds it is stopped.
def run_timeout_s(seconds):
    return 60 + 5 * seconds


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build; compiler output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        log("--seed must be >= 0 and --seconds in [1, 60]")
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "isaac.hpp")):
        log(f"no ISAAC sources under {ROOT}/src; run from a full checkout")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "perfbench")
    out_dir = os.path.join(build_root, "out")
    os.makedirs(out_dir, exist_ok=True)
    if not build(build_dir):
        log("build failed")
        return 1

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    # The benchmark never outlives this script: a timeout or a SIGTERM stops
    # it, and the script waits for it to end.
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        def stop(signum, frame):
            proc.kill()
            proc.wait()
            sys.exit(128 + signum)
        signal.signal(signal.SIGTERM, stop)
        try:
            stdout, _ = proc.communicate(timeout=run_timeout_s(args.seconds))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"run exceeded {run_timeout_s(args.seconds)} s and was stopped")
            return 1
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with code {proc.returncode} and no result")
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
