#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload run.py knows (those
BENCHMARK.json lists, and scan_update), traced and untraced, at tiny
sizes. Checks that the result line carries exactly the metrics
BENCHMARK.json names for that mode, each with its unit, that the answers
were correct and that error_ratio is 0.

    python3 perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=600)
            tag = "%s trace=%d" % (workload, trace)
            if proc.returncode != 0:
                failures.append("%s: exit code %d" % (tag, proc.returncode))
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            metrics = result["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != expected[trace]:
                failures.append("%s: metrics %s, expected %s"
                                % (tag, sorted(got), sorted(expected[trace])))
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: correct=%s failed=%d"
                                % (tag, result["correct"], result["failed"]))
            if trace == 1 and metrics.get("error_ratio", {}).get("value") != 0:
                failures.append("%s: error_ratio %s" % (tag, metrics.get("error_ratio")))
            print("%-24s ok=%s attempted=%d" % (tag, not failures, result["attempted"]))
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
