#!/usr/bin/env python3
"""Fast self-check of the benchmark.

    python3 perfbench/self_check.py [--seconds 2] [--seed 7]

Runs every workload in BENCHMARK.json once timed (--trace 0) and once traced
(--trace 1) for a short time on a fixed seed, and asserts that:
  * each run exits 0 and its last line has exactly correct/attempted/failed/metrics;
  * a timed run emits every end-to-end metric, a traced run every per-layer
    metric, each with the unit BENCHMARK.json gives it, and nothing else;
  * correct is true, attempted > 0 and failed == 0;
  * every per-layer metric has a target in perfbench/targets.json that names
    metrics and workloads of BENCHMARK.json;
  * core.hit_ratio is 1.0 on the hot workloads.
Exits 0 when all hold, 1 otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_targets(spec, problems):
    targets = json.load(open(os.path.join(HERE, "targets.json")))["targets"]
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    layers = {m["name"] for m in spec["per_layer"]}
    if set(targets) != layers:
        problems.append(f"targets.json and per_layer differ: {sorted(set(targets) ^ layers)}")
    for name, t in targets.items():
        for m in t["moves"]:
            if m not in e2e | layers:
                problems.append(f"{name}: target {m} is not a metric of BENCHMARK.json")
        for w in t["workload"].split() + t.get("unchanged_on", "").split():
            if w not in workloads:
                problems.append(f"{name}: workload {w} is not in BENCHMARK.json")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def main():
    parser = argparse.ArgumentParser(description="fast self-check of the benchmark")
    parser.add_argument("--seconds", type=int, default=2)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    problems = []
    check_targets(spec, problems)
    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            tag = f"{w['name']} --trace {trace}"
            code, result = run(w["name"], args.seed, args.seconds, trace)
            if result is None:
                problems.append(f"{tag}: exit code {code}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']} "
                                f"attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {n: v["unit"] for n, v in result["metrics"].items()}
            if want != got:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(want.items()) ^ set(got.items()))}")
            if trace and w["name"] != "cold_arrivals":
                ratio = result["metrics"].get("core.hit_ratio", {}).get("value")
                if ratio != 1:
                    problems.append(f"{tag}: core.hit_ratio is {ratio}, not 1.0")
            print(f"checked {tag}: attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
