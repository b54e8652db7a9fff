"""One benchmark run of sgharm.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the library is imported from ``src/``.
The run plans seeded inputs and their oracle expectations, measures set-up
in fresh processes, then runs the workload in a worker process for S
seconds of whole rounds and checks every output.  The last line printed
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a traced run).
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

SETUP_PROBES = 5
# the tail is the highest of these percentiles with >= 10 operations beyond
# it in a run of the workload's minimum number of rounds
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
WORKER_TIMEOUT = 170.0


def tail_percentile(n: int) -> float | None:
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return None


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def reference_s(workload: str) -> float:
    """The calibration's time at the reference speed: timings are reported
    as if the machine ran the calibration in this time (see README.md)."""
    return workloads.CALIBRATION[workload][2]


def measure_setup(workload: str) -> list[float]:
    """Set-up times from fresh processes, scaled to the reference speed.

    For the library workloads a process imports sgharm, does its first-call
    work and times that itself, between calibrations of its own.  For the
    CLI it is the wall time of a process that only imports the package,
    between two processes that only start the interpreter.
    """
    out = []
    env = workloads.cli_env(ROOT)
    for _ in range(SETUP_PROBES):
        if workload == "cli":
            before = workloads.time_bare_process(env)
            t0 = perf_counter()
            code, _ = workloads.run_limited([sys.executable, "-c", "import sgharm"], env, 60)
            took = perf_counter() - t0
            calibration = [before, workloads.time_bare_process(env)]
        else:
            code, text = workloads.run_limited(
                [sys.executable, os.path.join(BENCH, "worker.py"), "--probe", workload], env, 60)
            if code == 0:
                probe = json.loads(text)
                took, calibration = probe["setup_s"], probe["calibration"]
        if code != 0:
            raise SystemExit(f"set-up probe for {workload} failed")
        out.append(took * reference_s(workload) / statistics.median(calibration))
    return out


def scaled_latencies(phase: dict, reference: float) -> list[float]:
    """Each latency scaled to the reference speed by the median of the five
    calibrations nearest to the operation's start (unscaled without them)."""
    if not phase["calibration"]:
        return list(phase["latencies"])
    when = [t for t, _ in phase["calibration"]]
    took = [c for _, c in phase["calibration"]]
    out = []
    for start, dt in zip(phase["starts"], phase["latencies"]):
        i = bisect.bisect(when, start)
        window = took[max(0, i - 2): i + 3]
        out.append(dt * reference / statistics.median(window))
    return out


def with_units(values: dict) -> dict:
    """Metric values with the units that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}


def end_to_end(phase: dict, plan: dict, setup: list[float], rss_mb: float) -> tuple[dict, str]:
    """The end-to-end metric values of an untraced run, and a note for people.

    Latencies are scaled to the reference speed.  Every op of the plan runs
    once per round, and the latency of an op is the median of its scaled
    repeats, counted once per repeat: percentiles then read the mix of
    inputs and not one-off stalls of the machine.  Throughput counts only
    the time of completed calls: a failed call is a CLI call killed at its
    fixed time limit, which shows in `failed` and would only dilute the
    time of the others.
    """
    scaled = scaled_latencies(phase, reference_s(plan["workload"]))
    n, rounds = len(scaled), phase["rounds"]
    p = tail_percentile(n // rounds * workloads.MIN_ROUNDS[plan["workload"]])
    if p is None:
        raise SystemExit(f"{n} operations in {rounds} rounds leave no tail")
    repeats: dict[int, list[float]] = {}
    for i, dt in zip(phase["index"], scaled):
        repeats.setdefault(i, []).append(dt)
    lat = sorted(statistics.median(v) for v in repeats.values() for _ in v)
    values = {
        "throughput_ops_s": n / sum(scaled),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * percentile(lat, p),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    raw = sorted(phase["latencies"])
    by_kind: dict[str, list[float]] = {}
    for i, dt in zip(phase["index"], phase["latencies"]):
        by_kind.setdefault(plan["ops"][i]["kind"], []).append(dt)
    cal = statistics.median([c for _, c in phase["calibration"]] or [math.nan])
    note = (f"{n} ops in {rounds} rounds, {phase['failed']} failed, tail is p{p:g}\n"
            f"unscaled: calibration {1000 * cal:.3f} ms, throughput "
            f"{n / sum(raw):.5g} ops/s, p50 "
            f"{1000 * statistics.median(raw):.5g} ms, tail {1000 * percentile(raw, p):.5g} ms\n"
            "unscaled median ms by kind: " + ", ".join(
                f"{k} {1000 * statistics.median(v):.2f}" for k, v in sorted(by_kind.items())))
    return values, note


def per_layer(layers: dict, phase: dict, reference: float) -> dict:
    """Layer figure values; times (names ending in `_ms`) scaled to the
    reference speed by the run's median calibration, if it has one."""
    scale = reference / statistics.median(
        [c for _, c in phase["calibration"]] or [reference])
    return {name: value * scale if name.endswith("_ms") else value
            for name, value in layers.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "sgharm", "__init__.py")):
        print(f"no sgharm sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    plan = workloads.make_plan(args.workload, args.seed)
    setup = None if args.trace else measure_setup(args.workload)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--seconds", str(args.seconds)]
    trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
    if args.trace:
        cmd += ["--trace-out", trace_path]
    proc = subprocess.run(cmd, input=json.dumps(plan), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout)
    phases = [res["untraced"], res["traced"]] if args.trace else [res]
    for phase in phases:
        for err in phase["errors"]:
            print(f"  {err}", file=sys.stderr)
    if args.trace:
        base, traced = res["untraced"], res["traced"]
        reference = reference_s(args.workload)
        per_op = [statistics.fmean(scaled_latencies(ph, reference)) for ph in (base, traced)]
        print(f"{args.workload} seed {args.seed}: traced run, spans in "
              f"{os.path.relpath(trace_path, ROOT)}")
        print(f"trace overhead: {100.0 * (per_op[1] / per_op[0] - 1):+.1f}% "
              f"({1000 * per_op[1]:.3f} ms/op traced, {1000 * per_op[0]:.3f} ms/op untraced)")
        metrics = per_layer(res["layers"], traced, reference)
    else:
        metrics, note = end_to_end(res, plan, setup, res["peak_rss_mb"])
        print(f"{args.workload} seed {args.seed}: {note}")
    summary = {
        "correct": all(ph["wrong"] == 0 for ph in phases),
        "attempted": sum(ph["attempted"] for ph in phases),
        "failed": sum(ph["failed"] for ph in phases),
        "metrics": with_units(metrics),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
