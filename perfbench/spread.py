#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,3,4,5]
                                [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json.

For every metric: the median over the runs, and the distance between the
first and third quartile as a share of the median (statistics.quantiles,
n=4). Compare the shares with the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--seconds")
    p.add_argument("--trace", default="0")
    a = p.parse_args()
    bench = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = a.seconds or str(bench["run_seconds"])
    values = {}
    for seed in a.seeds.split(","):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
             "--seed", seed, "--seconds", seconds, "--trace", a.trace],
            capture_output=True, text=True,
        )
        if out.returncode != 0:
            sys.exit("seed %s failed (%d): %s" % (seed, out.returncode, out.stderr))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit("seed %s: incorrect result %s" % (seed, result))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %s: %s" % (seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if share < bound / 3 else "WIDE (bound %s)" % bound)
        print("%-28s median %12.5f  iqr/median %.4f  %s" % (name, med, share, flag))


if __name__ == "__main__":
    main()
