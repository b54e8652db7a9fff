"""The four workloads: seeded inputs with their oracle expectations (built in
the parent process, which may import sympy), and the operations that run
them (built in the worker process, which imports only sgharm and mpmath).

A plan is plain JSON: ``{"workload": ..., "seed": ..., "ops": [...]}``.
Every round of a run executes the plan's ops once, in order, so the mix of
operations is the same in every round and every run.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
from fractions import Fraction
from time import perf_counter

import oracles as O

WORKLOADS = ("short_periods", "long_periods", "grids", "cli")
PRESETS = ("phi", "psi", "chi", "xi")
CLI_TIME_LIMIT = 2.0  # seconds per CLI call; slower calls count as failed
MERSENNE_61 = Fraction(1, 2 ** 61 - 1)


# ---------------------------------------------------------------------------
# Plans (parent process)


def _expansion(s: Fraction) -> tuple[str, str]:
    """Preperiod and period of the expansion the library uses at s: the one
    ending in zeros, except at 1, which only has 0.(1)."""
    if s == 1:
        return "", "1"
    a = O.odd_part(s.denominator)[0]
    n = O.period_length(s)
    word = O.digits(s, a + n)
    return word[:a], word[a:]


def _rational_point(s: Fraction) -> dict:
    pre, period = _expansion(s)
    m = O.word_matrix(period)
    return {"s": str(s), "pre": pre, "period": period,
            "exp": O.exponent(period, m), "chart": O.exact_direction(pre, period, m)}


def _orders(limit: int) -> dict[int, int]:
    from sympy.ntheory import n_order

    return {m: int(n_order(2, m)) for m in range(3, limit, 2)}


def _with_period(rng: random.Random, q: int, max_pre: int) -> Fraction:
    """Random p / (2**a q) whose period is the order of 2 mod q."""
    a = rng.randint(0, max_pre)
    while True:
        p = rng.randrange(1, q << a)
        if math.gcd(p, q) == 1:
            return Fraction(p, q << a)


# period-length bins of the seeded rationals and how many each gets; the
# last, narrow bin holds the costliest fifth of the mix, so that the p99
# tail reads a group of similar inputs and not the single largest one
SHORT_BINS = ((1, 40, 18), (41, 80, 18), (81, 120, 18), (121, 160, 18), (185, 200, 24))


def plan_short_periods(rng: random.Random) -> list[dict]:
    # 24 fixed points (the table's rows and both endpoints) plus seeded
    # rationals with periods up to 200 letters
    points = O.reference_parameters(7) + [Fraction(0), Fraction(1)]
    orders = _orders(4000)
    for lo, hi, count in SHORT_BINS:
        pool = [m for m, n in orders.items() if lo <= n <= hi]
        for _ in range(count):
            points.append(_with_period(rng, rng.choice(pool), 3))
    return [{"kind": "short", **_rational_point(s)} for s in points]


def _prime_with_full_period(rng: random.Random, target: int) -> int:
    """A prime q within about 1% above target for which 2 has order q - 1,
    so that a period's length, and with it the cost, hardly varies by seed."""
    from sympy import isprime
    from sympy.ntheory import n_order

    q = rng.randrange(target, target + target // 100) | 1
    while not (isprime(q) and n_order(2, q) == q - 1):
        q += 2
    return q


# The round's mix comes in three groups of five ops, so that the median
# reads the middle group (expansion of denominators near 9e5) and the p75
# tail the top group (20000-letter periods and Lyapunov batches of similar
# cost); each percentile then falls inside a group, not between two.
SMALL_PERIODS = (1000, 2000, 4000, 8000)
CURVE_DENOMINATOR = 900_000
CURVE_OPS = 5
LARGE_PERIOD, LARGE_PERIOD_OPS = 20_000, 3
LYAPUNOV_OPS, LYAPUNOV_TRIALS = 2, 48
STREAM_BITS = 4096


def plan_long_periods(rng: random.Random) -> list[dict]:
    ops = []
    for target in SMALL_PERIODS + (LARGE_PERIOD,) * LARGE_PERIOD_OPS:
        q = _prime_with_full_period(rng, target)
        ops.append({"kind": "period", **_rational_point(_with_period(rng, q, 2))})
    tol = Fraction(1, 10 ** 9)
    for _ in range(CURVE_OPS):
        q = _prime_with_full_period(rng, CURVE_DENOMINATOR)
        s = Fraction(rng.randrange(1, q), q)
        ops.append({"kind": "curve", "s": str(s), "terms": 48, "tol": str(tol),
                    "curve": O.curve_expectation(s, 48),
                    "dir": str(O.limit_direction(s, lower=False))})
    for _ in range(LYAPUNOV_OPS):
        seed = rng.randrange(1 << 30)
        ops.append({"kind": "lyapunov", "nbits": STREAM_BITS, "trials": LYAPUNOV_TRIALS,
                    "seed": seed, "want": O.lyapunov(STREAM_BITS, LYAPUNOV_TRIALS, seed)})
    ns = list(range(256, STREAM_BITS + 1, 256))
    bits = format(rng.getrandbits(STREAM_BITS), f"0{STREAM_BITS}b")
    ops.append({"kind": "estimate", "bits": bits, "ns": ns, "want": O.float_estimates(bits, ns)})
    return ops


# Levels 7 and 8 each hold two fifths of the mix (four boundaries, three
# ops).  The median then reads the scalar level-7 builds and the p75 tail
# the level-8 exports and checks; neither falls between two far-apart costs.
VECTOR_LEVELS = (5, 6, 7, 8)
SCALAR_LEVELS = (7, 8)
SCALAR_BOUNDARIES = 3


def _scalar_boundary(rng: random.Random) -> list[str]:
    # one prime denominator of three digits keeps the size of the grid's
    # fractions, and so its cost, the same from seed to seed
    from sympy import prevprime

    den = prevprime(rng.randint(500, 1000))
    return [str(Fraction(rng.randint(-den, den), den)) for _ in range(3)]


def plan_grids(rng: random.Random) -> list[dict]:
    ops = []
    boundaries = [("vector", VECTOR_LEVELS)]
    boundaries += [(_scalar_boundary(rng), SCALAR_LEVELS) for _ in range(SCALAR_BOUNDARIES)]
    for boundary, levels in boundaries:
        for level in levels:
            for kind in ("grid_build", "grid_check", "grid_export"):
                ops.append({"kind": kind, "boundary": boundary, "level": level})
    return ops


def plan_cli(rng: random.Random) -> list[dict]:
    def short_rational() -> Fraction:
        return _with_period(rng, rng.randrange(3, 130, 2), 3)

    ops = []
    for _ in range(2):
        n = rng.randint(3, 12)
        k = rng.randrange(1, 1 << n, 2)
        ops.append({"kind": "cli_eval_dyadic", "argv": ["eval", f"{k}/{1 << n}"],
                    "want": [str(c) for c in O.dyadic_curve_value(k, n)]})
    for _ in range(2):
        s = short_rational()
        ops.append({"kind": "cli_eval", "argv": ["eval", str(s), "--format", "json"],
                    "curve": O.curve_expectation(s, 48)})
    for _ in range(2):
        s = short_rational()
        ops.append({"kind": "cli_exponent", "argv": ["exponent", str(s), "--format", "json"],
                    **_rational_point(s)})
    for s, form in ((Fraction(0), "chi"), (Fraction(1), "xi"),
                    *((short_rational(), rng.choice(PRESETS)) for _ in range(3))):
        ops.append({"kind": "cli_classify", "argv": ["classify", str(s), form, "--format", "json"],
                    "s": str(s), "form": form, "exp": O.exponent(_expansion(s)[1])})
    ops.append({"kind": "cli_table", "argv": ["table", "7", "--check"],
                "rows": len(O.reference_parameters(7))})
    for _ in range(2):
        s = short_rational()
        ops.append({"kind": "cli_direction_exact", "argv": ["direction", str(s), "--exact"],
                    **_rational_point(s)})
    for _ in range(2):
        s = short_rational()
        ops.append({"kind": "cli_direction", "argv": ["direction", str(s)],
                    "dir": str(O.limit_direction(s, lower=False))})
    ops.append({"kind": "cli_render", "argv": ["render", "triangle", "--level", "4"],
                "points": O.triangle_points(4)})
    for _ in range(2):
        ops.append({"kind": "cli_maxrun", "argv": ["experiment", "maxrun", "--max-len", "8"],
                    "rows": O.maxrun_rows(8)})
    seed = rng.randrange(1 << 20)
    ops.append({"kind": "cli_lyapunov",
                "argv": ["experiment", "lyapunov", "--bits", "512", "--trials", "4",
                         "--seed", str(seed)], "want": O.lyapunov(512, 4, seed)})
    # 1/(2**61 - 1): period 61, but today's order computation factorises
    # 2**61 - 1 by trial division and does not finish within the limit
    m61 = str(MERSENNE_61)
    period = O.digits(MERSENNE_61, 61)
    ops.append({"kind": "cli_eval", "argv": ["eval", m61, "--format", "json"],
                "curve": O.curve_expectation(MERSENNE_61, 48), "subprocess_only": True})
    ops.append({"kind": "cli_exponent", "argv": ["exponent", m61, "--format", "json"],
                "subprocess_only": True, "s": m61, "pre": "", "period": period,
                "exp": O.exponent(period)})
    return ops


# Every run does at least this many rounds; the tail percentile is the
# highest that keeps ten operations beyond it at this many rounds, so it is
# the same in every run of a workload.
MIN_ROUNDS = {"short_periods": 20, "long_periods": 4, "grids": 3, "cli": 2}

# How each workload's times are scaled to a reference speed (README.md):
# (calibration, seconds between calibrations, its time at the reference
# speed).  The library workloads time an in-process loop
# (worker.calibrate).  CLI calls spend their time in child processes, which
# that loop does not follow, so `cli` times a child that only starts the
# interpreter (time_bare_process).
CALIBRATION = {"short_periods": ("loop", 0.1, 0.006), "long_periods": ("loop", 0.1, 0.006),
               "grids": ("loop", 0.1, 0.006), "cli": ("process", 0.3, 0.06)}

PLANNERS = {"short_periods": plan_short_periods, "long_periods": plan_long_periods,
            "grids": plan_grids, "cli": plan_cli}


def make_plan(workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed,
            "ops": PLANNERS[workload](random.Random(f"{workload}:{seed}"))}


# ---------------------------------------------------------------------------
# Operations (worker process)
#
# Each op is a pair of callables: `call()` runs the library and returns its
# output, and is the only timed part; `check(out)` compares that output
# with the plan's oracle expectations and raises oracles.Mismatch.


class Op:
    """`argv` is set for CLI ops that traced runs may call in-process."""

    __slots__ = ("kind", "call", "check", "argv")

    def __init__(self, kind, call, check, argv=None):
        self.kind, self.call, self.check, self.argv = kind, call, check, argv


def _check_period_point(spec, report, qd) -> None:
    s = Fraction(spec["s"])
    n = len(spec["period"])
    O.check_expansion(report.expansion.preperiod, report.expansion.period, s, n)
    O.expect(report.period == spec["period"], "exponent used another period")
    O.check_exponent(report, spec["exp"], n)
    O.check_exact_direction(qd.chart.t, qd.chart.d, qd.chart.plus_root,
                            qd.preperiod, qd.period, spec)


def _short_op(spec) -> Op:
    import sgharm

    s = Fraction(spec["s"])
    forms = [(name, sgharm.FORM_PRESETS[name]) for name in PRESETS]

    def call():
        report = sgharm.holder_exponent(s)
        classes = {name: sgharm.classify_form(form, s).value for name, form in forms}
        return report, classes, sgharm.direction_at_rational(s)

    def check(out):
        report, classes, qd = out
        _check_period_point(spec, report, qd)
        O.check_presets(classes, s, spec["exp"]["zero"])

    return Op("short", call, check)


def _period_op(spec) -> Op:
    import sgharm

    s = Fraction(spec["s"])

    def call():
        return sgharm.holder_exponent(s), sgharm.direction_at_rational(s)

    return Op("period", call, lambda out: _check_period_point(spec, *out))


def _curve_op(spec) -> Op:
    import sgharm

    s, tol, terms = Fraction(spec["s"]), Fraction(spec["tol"]), spec["terms"]
    want_dir = Fraction(spec["dir"])

    def call():
        return sgharm.curve_point(s, terms), sgharm.direction_at(s, tol=tol)

    def check(out):
        ap, pd = out
        O.check_curve_point(ap.value, ap.error_bound, spec["curve"])
        O.check_approx_direction(pd, want_dir, tol)

    return Op("curve", call, check)


def _lyapunov_op(spec) -> Op:
    import sgharm

    def call():
        return sgharm.lyapunov_sample(spec["nbits"], spec["trials"], spec["seed"])

    return Op("lyapunov", call, lambda out: O.check_lyapunov(out, spec["want"]))


def _estimate_op(spec) -> Op:
    import sgharm

    bits, ns = spec["bits"], spec["ns"]
    want = [tuple(p) for p in spec["want"]]

    def call():
        return sgharm.exponent_estimate(bits, ns=ns)

    return Op("estimate", call, lambda out: O.check_estimates(out.points, want))


def _grid_boundary(spec):
    import sgharm

    if spec["boundary"] == "vector":
        return sgharm.VECTOR_BOUNDARY, True
    a, b, c = (Fraction(v) for v in spec["boundary"])
    return sgharm.BoundaryTriple(a, b, c), False


def _grid_ops(specs) -> list[Op]:
    """Build, check and export of one grid share the grid built in the round."""
    import sgharm

    held = {}
    ops = []
    for spec in specs:
        boundary, vector = _grid_boundary(spec)
        level, kind = spec["level"], spec["kind"]
        corners = (boundary.at_zero, boundary.at_one, boundary.at_omega)
        if kind == "grid_build":
            def call(boundary=boundary, level=level):
                held["grid"] = sgharm.harmonic_grid(boundary, level)
                return held["grid"]

            def check(grid, level=level, corners=corners):
                O.check_grid(grid, level, corners)
        elif kind == "grid_check":
            def call():
                return sgharm.check_harmonic(held["grid"])

            def check(ok):
                O.expect(ok is True, "check_harmonic rejected a harmonic grid")
        else:
            def call(vector=vector):
                # the grid leaves `held` with the output, and is freed with
                # it after the check, not inside the next timed build
                grid = held.pop("grid")
                return grid.to_json(), grid.side_values() if vector else None, grid

            def check(out, level=level, vector=vector):
                text, side, grid = out
                O.check_grid_json(text, grid, level, vector)
                if vector:
                    O.check_side_values(side, level)
        ops.append(Op(kind, call, check))
    return ops


# -- CLI ----------------------------------------------------------------------


def _cli_check(spec, code: int, out: str, files: dict) -> None:
    kind = spec["kind"]
    O.expect(code == 0, f"{' '.join(spec['argv'])} exited with {code}")
    if kind == "cli_eval_dyadic":
        O.expect(out.split() == spec["want"], "eval at a dyadic differs")
        return
    if kind == "cli_table":
        O.expect(out.strip() == f"table check passed: {spec['rows']} rows match the reference",
                 f"table check output: {out.strip()!r}")
        return
    if kind == "cli_render":
        O.check_triangle_svg(files["svg"], spec["points"])
        return
    data = json.loads(out)
    if kind == "cli_eval":
        O.check_curve_point(data["value"], data["error_bound"], spec["curve"])
    elif kind == "cli_exponent":
        O.check_exponent_json(data, spec)
    elif kind == "cli_classify":
        s = Fraction(spec["s"])
        O.check_presets({spec["form"]: data["class"]}, s, spec["exp"]["zero"])
        exceptional = (spec["form"], s) in O.PRESET_KERNELS
        O.expect(data["kernel"] == ("in_kernel" if exceptional else "not_in_kernel"),
                 "kernel verdict differs")
    elif kind == "cli_direction_exact":
        O.check_direction_json(data, spec)
    elif kind == "cli_direction":
        # the JSON carries floats; allow for their rounding
        O.expect(abs(data["chart"] - float(Fraction(spec["dir"]))) <= data["error_bound"] + 1e-15,
                 "approximate direction outside its error bound")
    elif kind == "cli_maxrun":
        O.check_maxrun(data, spec["rows"])
    elif kind == "cli_lyapunov":
        O.check_lyapunov(data, spec["want"])
    else:
        raise ValueError(f"unknown CLI op {kind}")


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_limited(cmd: list[str], env: dict, limit: float) -> tuple[int | None, str]:
    """Run a command to its end, or kill it after `limit` seconds.

    Returns (exit code, stdout), with code None when it was killed.  The
    wait blocks on the process instead of polling, as subprocess's own
    timeout does in steps of up to 50 ms, which would round the timings.
    """
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(limit, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    killed = proc.returncode == -signal.SIGKILL
    return (None if killed else proc.returncode), out


def time_bare_process(env: dict) -> float:
    """Seconds of a child process that starts the interpreter and exits."""
    t0 = perf_counter()
    code, _ = run_limited([sys.executable, "-c", "pass"], env, 60)
    took = perf_counter() - t0
    if code != 0:
        raise RuntimeError("the interpreter does not start")
    return took


class CliTimeout(Exception):
    """A CLI call ran past the per-call limit and was killed."""


# -- Peak memory ----------------------------------------------------------------
#
# VmHWM is the high-water mark of a process's own resident memory.  Unlike
# ru_maxrss it is not carried over from the image that exec replaced, which
# for a child of a Python process is the parent's.

# `python -m sgharm.cli ARGS` that then writes its VmHWM line to REPORT;
# run as `python -c PEAK_CHILD REPORT ARGS`
PEAK_CHILD = """\
import runpy, sys
report = sys.argv.pop(1)
try:
    runpy.run_module("sgharm.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status, open(report, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")))
"""


def _hwm_mb(line: str) -> float:
    """MB from a line `VmHWM:  12345 kB`."""
    return int(line.split()[1]) / 1024.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    with open("/proc/self/status", encoding="ascii") as status:
        return _hwm_mb(next(line for line in status if line.startswith("VmHWM:")))


def cli_peak_rss_mb(argv: list[str], root: str, workdir: str) -> float:
    """Peak resident memory of one CLI call in a process of its own (0 if
    the call fails; the timed calls count that)."""
    report = os.path.join(workdir, "peak")
    code, _ = run_limited([sys.executable, "-c", PEAK_CHILD, report, *argv], cli_env(root), 60)
    if code != 0:
        return 0.0
    with open(report, encoding="ascii") as fh:
        return _hwm_mb(fh.read())


def _cli_ops(specs, root: str, workdir: str) -> list[Op]:
    env = cli_env(root)
    ops = []
    for spec in specs:
        argv = list(spec["argv"])
        files = {}
        if spec["kind"] == "cli_render":
            files["svg"] = os.path.join(workdir, "render.svg")
            argv += ["--out", files["svg"]]

        def call(argv=argv):
            code, out = run_limited([sys.executable, "-m", "sgharm.cli", *argv], env,
                                    CLI_TIME_LIMIT)
            if code is None:
                raise CliTimeout(" ".join(argv))
            return code, out

        def check(out, spec=spec, files=files):
            _cli_check(spec, out[0], out[1], files)

        # ops that may outrun the limit only ever run as a subprocess
        in_process = None if spec.get("subprocess_only") else argv
        ops.append(Op(spec["kind"], call, check, in_process))
    return ops


_MAKERS = {"short": _short_op, "period": _period_op, "curve": _curve_op,
           "lyapunov": _lyapunov_op, "estimate": _estimate_op}


def make_ops(plan: dict, root: str, workdir: str) -> list[Op]:
    specs = plan["ops"]
    if plan["workload"] == "grids":
        return _grid_ops(specs)
    if plan["workload"] == "cli":
        return _cli_ops(specs, root, workdir)
    return [_MAKERS[spec["kind"]](spec) for spec in specs]
