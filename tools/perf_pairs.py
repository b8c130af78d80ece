#!/usr/bin/env python3
"""Paired perfbench runs: a parent checkout against a changed one.

    python3 tools/perf_pairs.py --parent ../parent --change . --pairs 5

For every workload of BENCHMARK.json this runs `perfbench/run.py` N times
in each checkout, alternating which side goes first, with the same seed
on both sides of a pair. Each checkout builds into its own
CARGO_TARGET_DIR (under --target-root), so the two programs never share
a build. Host steal is read from /proc/stat around every run.

For each workload and end-to-end metric it prints the parent and change
medians, the parent's interquartile range, how many pairs the change
won (strictly better in the metric's direction), and the steal of each
run. --json also writes every raw result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def cpu_times():
    """(steal, total) jiffies summed over all CPUs."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def run_once(checkout, target_dir, workload, seed, seconds, smoke=False):
    """One perfbench run; returns (result dict, steal percent)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steal0, total0 = cpu_times()
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    steal1, total1 = cpu_times()
    if proc.returncode != 0:
        sys.exit("perf_pairs: %s %s seed %d failed with code %d" % (
            checkout, workload, seed, proc.returncode))
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    steal = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
    return result, steal


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--seed-base", type=int, default=1,
                        help="pair i of workload w uses seed seed_base + 100*w + i")
    parser.add_argument("--target-root", default=os.path.join(os.getcwd(), ".perf_pairs"),
                        help="each side builds into <target-root>/{parent,change}")
    parser.add_argument("--json", help="write the raw results here")
    args = parser.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec.get("run_seconds", 30)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    targets = {side: os.path.join(os.path.abspath(args.target_root), side) for side in sides}

    # Build both sides before anything is timed.
    for side, checkout in sides.items():
        run_once(checkout, targets[side], workloads[0], 1, 1, smoke=True)

    raw = {}
    for w_index, workload in enumerate(workloads):
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed_base + 100 * w_index + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, steal = run_once(sides[side], targets[side], workload, seed, seconds)
                runs[side].append({"seed": seed, "steal_pct": steal, "result": result})
                print("# %s pair %d %s: steal %.2f%% failed %s correct %s" % (
                    workload, i + 1, side, steal, result["failed"], result["correct"]),
                      file=sys.stderr, flush=True)
        raw[workload] = runs
        print_table(workload, runs, spec["end_to_end"])
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)


def print_table(workload, runs, metrics):
    pairs = len(runs["parent"])
    print("\n### %s (%d pairs)\n" % (workload, pairs))
    print("| metric | parent median | change median | parent IQR | change won |")
    print("|---|---|---|---|---|")
    for metric in metrics:
        name = metric["name"]
        parent = [r["result"]["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["result"]["metrics"][name]["value"] for r in runs["change"]]
        lower = metric["better"] == "lower"
        won = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
        q1, q3 = quartiles(parent)
        print("| %s (%s) | %.4g | %.4g | %.4g-%.4g | %d/%d |" % (
            name, metric["unit"], statistics.median(parent), statistics.median(change),
            q1, q3, won, pairs))
    steal = ", ".join("%.2f/%.2f" % (p["steal_pct"], c["steal_pct"])
                      for p, c in zip(runs["parent"], runs["change"]))
    failed = sum(r["result"]["failed"] for side in runs.values() for r in side)
    wrong = sum(not r["result"]["correct"] for side in runs.values() for r in side)
    print("\nsteal %% per pair (parent/change): %s. Failed operations: %d; "
          "incorrect runs: %d." % (steal, failed, wrong), flush=True)


if __name__ == "__main__":
    main()
