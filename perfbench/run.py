#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/bench/pkperf.exe with
dune into .bench_build/ (release profile, no shared cache, so nothing is
written outside the checkout), runs it, and passes its output through.
The last line of standard output is the JSON result; the traced run also
writes its spans under .bench_build/spans/.  Before printing, the result's
metric names are checked against BENCHMARK.json.  See
perfbench/BASELINE.md for the workloads, metrics and first numbers.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "perfbench/bench/pkperf.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--plant-wrong", action="store_true",
                   help="plant one wrong expectation; the run must then fail")
    a = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no dune-project and lib/ here: run from the repository root")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release", "--cache", "disabled",
             "--build-dir", BUILD_DIR, "./" + TARGET],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)

    spans = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "default", TARGET), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out", spans]
    if a.plant_wrong:
        cmd.append("--plant-wrong")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        # "--workload all" qualifies each name as "<workload>/<metric>".
        got = {k.split("/")[-1]: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        sys.stderr.write(run.stdout)
        fail("benchmark printed no result (exit %d)" % run.returncode, run.returncode or 2)
    want = expected_metrics(a.trace)
    if got != want:
        sys.stderr.write(run.stdout)
        fail("metrics %s do not match BENCHMARK.json %s" % (sorted(got), sorted(want)), 3)
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
