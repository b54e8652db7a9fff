"""Command-line surface: evaluation, exponents, classification, tables,
directions, SVG rendering and the two experiments.

Exit codes: 0 success, 1 reference-table mismatch, 2 input that cannot be
parsed, 3 domain or capacity violations, 4 output I/O failures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction
from itertools import chain
from typing import Optional

# Each command imports the modules it runs, so a call loads only those; the
# two cap errors that main maps to exit 3 come from exact for that reason.
from .exact import Expansion, GridCapExceeded, TableCapExceeded

# Frozen reference rows for `table 7 --check`: one row per necklace class of
# period length <= 7 (complement classes merged), as
# (s, period, length, scaled trace, exponent to three decimals).
REFERENCE_ROWS = (
    ("1/3", "01", 2, 7, 1.119),
    ("21/127", "0010101", 7, 388, 1.096),
    ("11/63", "001011", 6, 175, 1.086),
    ("5/31", "00101", 5, 76, 1.085),
    ("1/5", "0011", 4, 34, 1.078),
    ("19/127", "0010011", 7, 436, 1.072),
    ("11/127", "0001011", 7, 472, 1.055),
    ("13/127", "0001101", 7, 472, 1.055),
    ("1/7", "001", 3, 16, 1.050),
    ("3/31", "00011", 5, 88, 1.040),
    ("5/63", "000101", 6, 211, 1.039),
    ("1/9", "000111", 6, 223, 1.025),
    ("9/127", "0001001", 7, 580, 1.012),
    ("5/127", "0000101", 7, 616, 0.999),
    ("1/21", "000011", 6, 250, 0.997),
    ("7/127", "0000111", 7, 628, 0.995),
    ("1/15", "0001", 4, 43, 0.982),
    ("3/127", "0000011", 7, 736, 0.962),
    ("1/31", "00001", 5, 124, 0.936),
    ("1/63", "000001", 6, 367, 0.903),
    ("1/127", "0000001", 7, 1096, 0.880),
    ("0", "0", 1, 4, 0.737),
)


# `render curve` writes 2**level + 1 points; its time grows about 1.8x per level
CURVE_LEVEL_CAP = 16
# `eval --terms`: the error bound 2 * (3/5)**terms reaches its floor 5e-324 near 1460
EVAL_TERMS_CAP = 4096
# `experiment lyapunov`: the slowest accepted runs, 2**16 bits x 16 trials and
# 2**15 x 32, take about 0.2 s end to end, as streams above 2048 bits are
# combined from cut 1024-bit blocks; each trial also costs about 1.5 us however
# short it is
LYAPUNOV_BITS_CAP = 2 ** 16
LYAPUNOV_TRIALS_CAP = 2 ** 16
LYAPUNOV_LETTERS_CAP = 2 ** 20  # bits x trials


class CliInputError(ValueError):
    """Unparseable command-line value (exit code 2)."""


class CliDomainError(ValueError):
    """Parsed value outside the supported domain (exit code 3)."""


def parse_parameter(text: str) -> Fraction:
    """Rational in [0,1] from 'p/q', an exact decimal, or '0.pre(period)'."""
    body = text.strip()
    try:
        if "(" in body:
            value = Expansion.parse(body).value()
        else:
            # Fraction builds 10**|exponent| in full: bound the exponent as
            # the interpreter bounds the digits of an integer
            exponent = re.search(r"e([-+]?[\d_]+)$", body, re.IGNORECASE)
            if exponent and abs(int(exponent[1])) > sys.int_info.default_max_str_digits:
                raise ValueError("decimal exponent exceeds "
                                 f"{sys.int_info.default_max_str_digits}")
            value = Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliInputError(f"cannot parse parameter {text!r}: {exc}") from None
    if not 0 <= value <= 1:
        raise CliDomainError(f"parameter {value} is outside [0,1]")
    return value


def _parse_form(text: str):
    from .harmonic import LinearForm

    try:
        return LinearForm.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliInputError(str(exc)) from None


def _fmt(x: float, digits: int) -> str:
    return f"{x:.{digits}g}"


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


@contextlib.contextmanager
def _long_integers():
    """Lift the interpreter's 4300-digit limit on int-to-decimal conversion
    while a command runs: scaled traces, chart values and dyadic values
    exceed it at long periods and fine levels.  main parses the parameter
    and the form before, under the limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval(args) -> int:
    from .harmonic import curve_point, curve_point_dyadic

    s = args.s
    if args.terms > EVAL_TERMS_CAP:
        raise CliDomainError(f"terms {args.terms} exceeds the cap {EVAL_TERMS_CAP}")
    digits = args.precision
    if s.denominator & (s.denominator - 1) == 0:
        v = curve_point_dyadic(s.numerator, s.denominator.bit_length() - 1)
        if args.format == "json":
            _emit(json.dumps({"s": str(s), "exact": True,
                              "value": [str(c) for c in v.coords]}))
        else:
            _emit(" ".join(str(c) for c in v.coords))
        return 0
    ap = curve_point(s, args.terms)
    if args.format == "json":
        _emit(json.dumps({"s": str(s), "exact": False, "value": list(ap.value),
                          "error_bound": ap.error_bound, "terms": args.terms}))
    else:
        _emit(" ".join(_fmt(c, digits) for c in ap.value)
              + f"  error<={_fmt(ap.error_bound, 3)}")
    return 0


def cmd_exponent(args) -> int:
    from .holder import holder_exponent, table_csv

    report = holder_exponent(args.s)
    if args.format == "json":
        _emit(json.dumps(report.to_dict()))
    elif args.format == "csv":
        sys.stdout.write(table_csv([report]))
    else:
        d = args.precision
        _emit(f"s={report.s} period={report.period} n={report.period_length} "
              f"scaled_trace={report.scaled_trace} "
              f"alpha={_fmt(report.alpha, d)} "
              f"class={report.derivative_class.value}")
    return 0


def cmd_classify(args) -> int:
    from .holder import DerivativeClass, classify_form
    from .tangent import KernelVerdict

    cls = classify_form(args.form, args.s)
    # classify_form reports a direction in the form's kernel as EXCEPTIONAL
    verdict = (KernelVerdict.IN_KERNEL if cls is DerivativeClass.EXCEPTIONAL
               else KernelVerdict.NOT_IN_KERNEL)
    if args.format == "json":
        _emit(json.dumps({"s": str(args.s), "form": [str(c) for c in args.form.row],
                          "class": cls.value, "kernel": verdict.value}))
    else:
        _emit(f"class={cls.value} kernel={verdict.value}")
    return 0


def _check_table(reports) -> int:
    problems = []
    if len(reports) != len(REFERENCE_ROWS):
        problems.append(f"expected {len(REFERENCE_ROWS)} rows, got {len(reports)}")
    for i, (report, ref) in enumerate(zip(reports, REFERENCE_ROWS)):
        ref_s, ref_period, ref_n, ref_trace, ref_alpha = ref
        if (report.s != Fraction(ref_s) or report.period != ref_period
                or report.period_length != ref_n
                or report.scaled_trace != ref_trace):
            problems.append(f"row {i}: got ({report.s}, {report.period}, "
                            f"{report.period_length}, {report.scaled_trace}), "
                            f"want ({ref_s}, {ref_period}, {ref_n}, {ref_trace})")
        elif abs(report.alpha - ref_alpha) > 1e-3:
            problems.append(f"row {i}: alpha {report.alpha} vs reference {ref_alpha}")
    if problems:
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        return 1
    _emit(f"table check passed: {len(reports)} rows match the reference")
    return 0


def cmd_table(args) -> int:
    from .holder import generate_table, table_csv

    if args.check and (args.max_len != 7 or args.no_dedupe_complement):
        raise CliDomainError("--check requires max_len 7 with complement dedupe")
    reports = generate_table(args.max_len, dedupe_complement=not args.no_dedupe_complement)
    if args.check:
        return _check_table(reports)
    if args.format == "csv":
        sys.stdout.write(table_csv(reports))
    elif args.format == "json":
        _emit(json.dumps([r.to_dict() for r in reports]))
    else:
        d = args.precision
        for r in reports:
            _emit(f"{str(r.s):>8}  {r.period:<{args.max_len}}  n={r.period_length}  "
                  f"trace={r.scaled_trace:<6} alpha={_fmt(r.alpha, d)}  "
                  f"{r.derivative_class.value}")
    return 0


def cmd_direction(args) -> int:
    from .tangent import Side, direction_at, direction_at_rational, direction_vector

    s = args.s
    side = Side(args.side)
    out: dict = {"s": str(s), "side": side.value}
    if args.exact:
        qd = direction_at_rational(s, side)
        out.update({
            "exact": True,
            "chart": float(qd.chart),
            "chart_t": str(qd.chart.t),
            "chart_d": str(qd.chart.d),
            "chart_plus_root": qd.chart.plus_root,
            "period": qd.period,
            "preperiod": qd.preperiod,
            "unit_vector": list(direction_vector(qd)),
        })
    else:
        if args.tol is not None and not math.isfinite(args.tol):
            raise CliDomainError(f"tolerance must be finite, got {args.tol}")
        tol = Fraction(args.tol) if args.tol is not None else Fraction(1, 10 ** 9)
        pd = direction_at(s, side, tol=tol)
        out.update({
            "exact": False,
            "chart": float(pd.chart),
            "error_bound": float(pd.error),
            "unit_vector": list(direction_vector(pd)),
        })
    _emit(json.dumps(out))
    return 0


def _project(v, width: float, height: float, margin: float):
    # corners map to (0,0), (1,0), (1/2, sqrt(3)/2) before canvas scaling
    x = float(v.y) + float(v.z) / 2.0
    y = float(v.z) * (math.sqrt(3.0) / 2.0)
    scale = min(width - 2 * margin, (height - 2 * margin) / (math.sqrt(3.0) / 2.0))
    return (margin + x * scale, height - margin - y * scale)


def _svg(width: int, height: int, body: str) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">\n{body}\n</svg>\n')


def cmd_render(args) -> int:
    from .harmonic import (DEFAULT_GRID_CAP, VECTOR_BOUNDARY, curve_point_dyadic, harmonic_grid,
                           _positions)

    width, height = args.width, args.height
    if width <= 0 or height <= 0:
        raise CliDomainError("canvas must be positive")
    margin = 0.05 * min(width, height)
    if args.level is not None and args.level < 0:
        raise CliDomainError(f"level must be nonnegative, got {args.level}")
    if args.target == "curve":
        level = args.level if args.level is not None else 10
        if level > CURVE_LEVEL_CAP:
            raise CliDomainError(f"curve level {level} exceeds the cap {CURVE_LEVEL_CAP}")
        pts = []
        for k in range((1 << level) + 1):
            p = _project(curve_point_dyadic(k, level), width, height, margin)
            pts.append(f"{p[0]:.6f},{p[1]:.6f}")
        body = ('<polyline fill="none" stroke="black" stroke-width="1" points="'
                + " ".join(pts) + '"/>')
    else:
        level = args.level if args.level is not None else 4
        cap = os.environ.get("HARMONIC_GRID_CAP")
        grid = harmonic_grid(VECTOR_BOUNDARY, level, int(cap) if cap else DEFAULT_GRID_CAP)
        m, _, flat = grid._lattice()
        points = {}
        for p, v in enumerate(flat):
            if v is not None:
                x, y = _project(v, width, height, margin)
                points[p] = f"{x:.6f} {y:.6f}"
        corners = iter(_positions(chain.from_iterable(grid.triangles), m - 1))
        segs = []
        # triples of flat indices sort as the triangles' key triples do
        for a, b, c in sorted(zip(corners, corners, corners)):
            for p, q in ((a, b), (a, c), (b, c)):
                segs.append(f"M {points[p]} L {points[q]}")
        body = ('<path fill="none" stroke="black" stroke-width="0.5" d="'
                + " ".join(segs) + '"/>')
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_svg(width, height, body))
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 4
    _emit(f"wrote {args.out}")
    return 0


def cmd_experiment(args) -> int:
    from .holder import lyapunov_sample, maxrun_experiment

    if args.name == "maxrun":
        rows = maxrun_experiment(args.max_len)
        _emit(json.dumps({
            "experiment": "maxrun",
            "max_len": args.max_len,
            "classes": len(rows),
            "all_above_one": all(flag for _, _, flag in rows),
            "rows": [{"period": w, "alpha": a, "alpha_above_one": flag}
                     for w, a, flag in rows],
        }))
    else:
        if args.bits > LYAPUNOV_BITS_CAP:
            raise CliDomainError(f"bits {args.bits} exceeds the cap {LYAPUNOV_BITS_CAP}")
        if args.trials > LYAPUNOV_TRIALS_CAP:
            raise CliDomainError(f"trials {args.trials} exceeds the cap {LYAPUNOV_TRIALS_CAP}")
        if args.bits > 0 and args.bits * args.trials > LYAPUNOV_LETTERS_CAP:
            raise CliDomainError(f"bits x trials {args.bits * args.trials} exceeds the cap "
                                 f"{LYAPUNOV_LETTERS_CAP}")
        _emit(json.dumps({"experiment": "lyapunov",
                          **lyapunov_sample(args.bits, args.trials, args.seed)}))
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared."""
    parser = argparse.ArgumentParser(
        prog="sgharm",
        description="Harmonic functions on the Sierpinski gasket: exact side "
                    "evaluation, tangent directions and Holder exponents.")
    sub = parser.add_subparsers(dest="command", required=True)

    def precision(text):
        digits = int(text)
        if digits < 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {digits}")
        return digits

    def precision_option(p):
        p.add_argument("--precision", type=precision, default=6,
                       help="significant digits for numeric text output")

    p = sub.add_parser("eval", help="evaluate the vector curve at a parameter")
    p.add_argument("s")
    p.add_argument("-n", "--terms", type=int, default=48)
    p.add_argument("--format", choices=("text", "json"), default="text")
    precision_option(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("exponent", help="Holder exponent report at a rational")
    p.add_argument("s")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    precision_option(p)
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("classify", help="derivative class of a scalar side function")
    p.add_argument("s")
    p.add_argument("form", help="preset phi|psi|chi|xi or 'a,b,c'")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("table", help="exponent table over short periods")
    p.add_argument("max_len", type=int)
    p.add_argument("--no-dedupe-complement", action="store_true")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--check", action="store_true",
                   help="compare against the built-in reference rows")
    precision_option(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("direction", help="tangent direction at a parameter")
    p.add_argument("s")
    p.add_argument("--side", choices=("right", "left"), default="right")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_direction)

    p = sub.add_parser("render", help="static SVG of the curve or the image grid")
    p.add_argument("target", choices=("curve", "triangle"))
    p.add_argument("--out", required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--height", type=int, default=700)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("experiment", help="maxrun or lyapunov experiment")
    p.add_argument("name", choices=("maxrun", "lyapunov"))
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("--bits", type=int, default=4096)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "s" in vars(args):
            args.s = parse_parameter(args.s)
        if "form" in vars(args):
            args.form = _parse_form(args.form)
        with _long_integers():
            return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, GridCapExceeded, TableCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
