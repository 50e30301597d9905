#!/usr/bin/env python3
"""Oracle self-test of the benchmark.

    python3 perfbench/test_oracle.py

Run from the repository root.  For every workload in BENCHMARK.json, a
short run with one planted wrong expectation (--plant-wrong) must exit
non-zero and report correct=false with failed >= 1, and the same run
without it must exit 0 with correct=true and failed = 0.
"""

import json
import subprocess
import sys


def run(workload, plant):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", "0"] + (["--plant-wrong"] if plant else [])
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    result = json.loads(p.stdout.strip().split("\n")[-1])
    return p.returncode, result


def main():
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    bad = []
    for w in workloads:
        rc, r = run(w, plant=True)
        fired = rc != 0 and r["correct"] is False and r["failed"] >= 1
        rc0, r0 = run(w, plant=False)
        clean = rc0 == 0 and r0["correct"] is True and r0["failed"] == 0
        print("%-20s planted: exit %d failed %d -> %s; clean: exit %d failed %d -> %s"
              % (w, rc, r["failed"], "fires" if fired else "MISSED",
                 rc0, r0["failed"], "ok" if clean else "FAILED"))
        if not (fired and clean):
            bad.append(w)
    if bad:
        sys.exit("oracle self-test failed for: " + ", ".join(bad))


if __name__ == "__main__":
    main()
