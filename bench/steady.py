"""Steadiness check: two separate sets of runs of the same code.

    python3 bench/steady.py [--workloads a,b] [--runs 5] [--first-seed 100]

For each workload, set A runs seeds first..first+runs-1 and set B the next
`runs` seeds, one run at a time, set A entirely before set B.  For every
end-to-end metric it prints each set's median and quartiles, the spread
(interquartile range over median) of each set and of both together, and
whether set B's median is within the metric's bound of set A's, in either
direction, and every spread within the bound (set-up's spread is not held
to it).  The raw results go to bench/out/steady-<workloads>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    print(f"    {lines[0]} ({perf_counter() - t0:.1f} s)", flush=True)
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4)


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a."""
    return (b - a) / a if better == "lower" else (a - b) / a


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=100)
    args = ap.parse_args()
    names = args.workloads.split(",")
    results: dict = {}
    ok = True
    for workload in names:
        sets = []
        for k in range(2):
            seeds = range(args.first_seed + k * args.runs, args.first_seed + (k + 1) * args.runs)
            print(f"{workload} set {'AB'[k]} seeds {seeds.start}..{seeds.stop - 1}", flush=True)
            sets.append([run_once(workload, s, spec["run_seconds"]) for s in seeds])
        results[workload] = sets
        shares = {r["failed"] / r["attempted"] for r in sets[0] + sets[1]}
        correct = all(r["correct"] for r in sets[0] + sets[1])
        print(f"{workload}: correct={correct} failed shares={sorted(shares)}")
        ok &= correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            spreads = [spread(v) for v in per_set + [per_set[0] + per_set[1]]]
            drift = worse_by(statistics.median(per_set[0]), statistics.median(per_set[1]),
                             metric["better"])
            spread_ok = name == "setup_s" or max(spreads) <= bound
            agree = abs(drift) <= bound
            ok &= spread_ok and agree
            cols = "  ".join("{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(v)) for v in per_set)
            print(f"  {name:18s} A/B median [q1, q3]: {cols}  spreads A/B/all "
                  + "/".join(f"{x:.3f}" for x in spreads) + ("" if spread_ok else " OVER")
                  + f"  B worse by {drift:+.3f}{'' if agree else ' OVER'}  (bound {bound})")
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    with open(os.path.join(BENCH, "out", f"steady-{'-'.join(names)}.json"), "w") as fh:
        json.dump(results, fh)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
