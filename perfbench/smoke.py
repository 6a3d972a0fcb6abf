#!/usr/bin/env python3
"""The benchmark's own smoke test.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at tiny length (one pass), untraced
and traced, and checks that each run is correct, reports failed = 0, and
emits every metric BENCHMARK.json names, with its unit. Then flips one
crowd answer in a transcript (--flip 1) and checks that the benchmark's
correctness checks catch it: the run must report failed > 0 and
correct = false. Exits non-zero on the first problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace), *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (" ".join(cmd), out.returncode, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    for w in bench["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run(w["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, "%s trace=%d: metrics %s, expected %s" % (
                w["name"], trace, got, want)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (w["name"], name, m)
            print("ok   %-17s trace=%d  %d metrics, %d attempted, failed_ratio 0"
                  % (w["name"], trace, len(got), result["attempted"]))
        flipped = run(w["name"], 0, "--flip", "1")
        assert flipped["failed"] > 0 and not flipped["correct"], flipped
        print("ok   %-17s flipped answer caught: failed_ratio %.3f"
              % (w["name"], flipped["failed"] / flipped["attempted"]))


if __name__ == "__main__":
    main()
