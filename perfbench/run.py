#!/usr/bin/env python3
"""Build and run the FSMonitor pipeline benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload drain_inproc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload live_tcp --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload catchup_inproc --seed 7 --seconds 10 --trace 0 --smoke
    python3 perfbench/run.py --self-test

The benchmark program is compiled from ../src with the CMake project in
this directory (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench. Stores, spans and the build log stay under that
directory. The last line of standard output is the JSON result; with
--trace 0 it carries every end_to_end metric of BENCHMARK.json, with
--trace 1 every per_layer metric.

--self-test builds the program, checks that the correctness reference
fails on an injected lost or duplicated event, and runs every workload in
smoke mode (tiny sizes) with and without tracing, checking that each
metric of BENCHMARK.json prints with its unit.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(base)


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sources at %s; nothing to build" % os.path.join(ROOT, "src"), 2)
    build_dir = os.path.join(build_root(), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "pipeline_bench",
                      "-j", str(os.cpu_count() or 2)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path, 3)
    return os.path.join(build_dir, "pipeline_bench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(binary, workload, seed, seconds, trace, smoke, echo=True):
    """Run one benchmark invocation; returns the parsed result object."""
    root = build_root()
    workdir = os.path.join(root, "run-%d" % os.getpid())
    trace_out = os.path.join(root, "traces", "%s-seed%s.jsonl" % (workload, seed))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir, "--trace-out", trace_out,
           "--commit", commit_id()]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 5)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("%s exited with code %d" % (workload, proc.returncode), 4)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("%s printed no result line" % workload, 4)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result keys: %s" % sorted(result), 4)
    if echo:
        for line in lines[:-1]:
            print(line)
    return result, lines[-1]


def check_metrics(result, expected):
    """Problems with a result's metric set against BENCHMARK.json entries."""
    problems = []
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        problems.append("metrics %s != %s" % (sorted(metrics), sorted(names)))
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append("%s unit %r != %r" % (m["name"], got.get("unit"), m["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            problems.append("%s has no numeric value" % m["name"])
    return problems


def self_test(binary):
    spec = load_spec()
    failures = 0
    proc = subprocess.run([binary, "--self-test"], stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    print(proc.stdout, end="")
    if proc.returncode != 0:
        failures += 1
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = run_workload(binary, workload["name"], 1, 1, trace, smoke=True,
                                     echo=False)
            problems = check_metrics(result, spec[key])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("correct=%s failed=%s attempted=%s" % (
                    result["correct"], result["failed"], result["attempted"]))
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print("# self-test smoke %-16s trace=%d %d metrics %s" % (
                workload["name"], trace, len(result["metrics"]), status))
            failures += bool(problems)
    print("# self-test %s" % ("passed" if failures == 0 else "FAILED"))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for checking only")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    result, line = run_workload(binary, args.workload, args.seed, args.seconds, args.trace,
                                args.smoke)
    problems = check_metrics(result, load_spec()["per_layer" if args.trace else "end_to_end"])
    if problems:
        fail("; ".join(problems), 4)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
