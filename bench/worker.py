"""Runs one workload in its own process, which imports only sgharm and
mpmath (the planner also loads sympy).

Reads the plan as JSON on stdin and writes one JSON result on stdout.
Before the timed phase, one unchecked round of the plan measures peak
memory, while no oracle structure is alive.  ``--probe`` only measures
set-up (import plus first-call work) and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def calibrate() -> tuple[float, float]:
    """(when, seconds) of one run of a fixed calibration loop.

    The loop mixes the kinds of work sgharm does (Fraction arithmetic, an
    integer loop, big-integer products, tuple and dict building) but calls
    none of it.  This machine's speed drifts by up to a third within
    seconds; library timings are scaled by this loop's time in the same
    moments (see README.md).
    """
    t0 = perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 120):
        x = (x * 3 + Fraction(1, i)) / 4
    count = 0
    for d in range(1, 12000):
        if 720720 % d == 0:
            count += 1
    a, acc = 3 ** 20000, 0
    for _ in range(5):
        acc ^= (a * (a + acc)) & 0xFFFF
    table = {}
    for i in range(2500):
        table[(i, -i)] = (i, i + 1)
    return t0, perf_counter() - t0


def set_up(workload: str) -> float:
    """Import the library and do its first-call work; returns the seconds.

    The first calls are one small call of every kind the workload times,
    so that lazy imports and mpmath's caches are filled.  The benchmark's
    own modules are imported after the clock stops.
    """
    t0 = perf_counter()
    import sgharm

    s = Fraction(5, 12)
    if workload in ("short_periods", "long_periods"):
        sgharm.holder_exponent(s)
        sgharm.direction_at_rational(s)
        sgharm.classify_form(sgharm.FORM_PRESETS["chi"], s)
        sgharm.curve_point(s)
        sgharm.direction_at(s)
        sgharm.lyapunov_sample(64, 1, 0)
        sgharm.exponent_estimate("0110", ns=[2, 4])
    if workload == "grids":
        for boundary in (sgharm.VECTOR_BOUNDARY, (Fraction(1), Fraction(-1, 2), Fraction(3))):
            grid = sgharm.harmonic_grid(boundary, 2)
            sgharm.check_harmonic(grid)
            grid.to_json()
            grid.side_values()
    return perf_counter() - t0


def memory_round(ops, workload: str, workdir: str) -> float:
    """Peak resident memory in MB over one round of the plan, unchecked and
    untimed: of this process, or for `cli` of the largest child.

    Outputs are dropped as they come, and nothing of the oracles has run
    yet, so the peak is the library's (with the interpreter and the plan).
    CLI calls that may outrun the time limit are left out.
    """
    import workloads

    if workload == "cli":
        return max(workloads.cli_peak_rss_mb(op.argv, ROOT, workdir)
                   for op in ops if op.argv is not None)
    for op in ops:
        op.call()
    return workloads.peak_rss_mb()


def run_phase(ops, seconds: float, min_rounds: int, calibrator=None, tracer=None,
              in_process=False, after=None, rounds: int | None = None) -> dict:
    """Closed loop, one caller: whole rounds of every op until `seconds`
    pass and at least `min_rounds` are done, or exactly `rounds` rounds
    when that is given.  `calibrator` is (function returning (when,
    seconds), seconds between its calls), or None.

    Only `op.call()` is timed.  Checks, `after(op)`, and a full collection
    once per round run between the timed calls.
    """
    from oracles import Mismatch

    latencies, starts, index, calibration = [], [], [], []
    attempted = failed = wrong = done = 0
    errors: list[str] = []
    start, last_calibration = perf_counter(), -math.inf
    while True:
        for i, op in enumerate(ops):
            if calibrator and perf_counter() - last_calibration >= calibrator[1]:
                calibration.append(calibrator[0]())
                last_calibration = perf_counter()
            call = op.call
            if in_process and op.argv is not None:
                call = _in_process(op)
            attempted += 1
            token = tracer.begin("op." + op.kind) if tracer else None
            t0 = perf_counter()
            try:
                out, error = call(), None
            except Exception as exc:  # a failing op is counted and the run goes on
                out, error = None, exc
            dt = perf_counter() - t0
            if tracer:
                tracer.end(token)
            if error is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{op.kind}: {type(error).__name__}: {error}")
            else:
                latencies.append(dt)
                starts.append(t0)
                index.append(i)
                try:
                    op.check(out)
                except Mismatch as exc:
                    wrong += 1
                    if len(errors) < 5:
                        errors.append(f"{op.kind}: wrong output: {exc}")
            del out
            if after is not None:
                after(op)
        done += 1
        gc.collect()
        if done == rounds or (rounds is None and done >= min_rounds
                              and perf_counter() - start >= seconds):
            break
    return {"latencies": latencies, "starts": starts, "index": index,
            "calibration": calibration, "attempted": attempted,
            "failed": failed, "wrong": wrong, "rounds": done, "errors": errors}


def _in_process(op):
    """A CLI op as an in-process sgharm.cli.main(argv) call (traced runs)."""
    import sgharm.cli

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = sgharm.cli.main(list(op.argv))
        return code, out.getvalue()

    return call


def _cli_probes(tracer):
    """After each in-process CLI op of a traced run: the interpreter start
    and the import that a subprocess would add to it."""
    import workloads

    env = workloads.cli_env(ROOT)

    def after(op):
        if op.argv is None:
            return
        for name, code in (("cli.interpreter", "pass"), ("cli.import", "import sgharm.cli")):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            tracer.record(name, perf_counter() - t0)

    return after


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", metavar="WORKLOAD")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH)
    if args.probe:
        before = [calibrate()[1] for _ in range(3)]
        took = set_up(args.probe)
        after = [calibrate()[1] for _ in range(3)]
        print(json.dumps({"setup_s": took, "calibration": before + after}))
        return 0

    plan = json.load(sys.stdin)
    workload = plan["workload"]
    set_up(workload)
    import workloads

    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "out")) as workdir:
        ops = workloads.make_ops(plan, ROOT, workdir)
        min_rounds = workloads.MIN_ROUNDS[workload]
        kind, interval, _ = workloads.CALIBRATION[workload]
        if kind == "loop":
            calibrator = calibrate, interval
        else:
            env = workloads.cli_env(ROOT)
            # traced CLI rounds run in-process, where a child's speed says little
            calibrator = None if args.trace_out else (
                lambda: (perf_counter(), workloads.time_bare_process(env)), interval)
        result = {}
        if not args.trace_out:
            result["peak_rss_mb"] = memory_round(ops, workload, workdir)
        gc.collect()
        gc.freeze()  # objects left from set-up and planning are never traversed again
        if args.trace_out:
            import spans

            cli = workload == "cli"
            # one discarded round, so that the untraced phase holds no first
            # calls (for `cli`, of the in-process commands)
            run_phase(ops, 0, 1, in_process=cli, rounds=1)
            base = run_phase(ops, args.seconds, min_rounds, calibrator, in_process=cli)
            tracer = spans.Tracer()
            tracer.install()
            # the same number of rounds again, traced, so that overhead and
            # per-round layer figures compare like with like
            traced = run_phase(ops, args.seconds, min_rounds, calibrator, tracer, in_process=cli,
                               after=_cli_probes(tracer) if cli else None,
                               rounds=base["rounds"])
            tracer.uninstall()
            # the import probe includes interpreter start
            tracer.self_time["cli.import"] -= tracer.self_time["cli.interpreter"]
            tracer.write(args.trace_out)
            result.update(untraced=base, traced=traced, layers=tracer.metrics(base["rounds"]))
        else:
            result.update(run_phase(ops, args.seconds, min_rounds, calibrator))
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
