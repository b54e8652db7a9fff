import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import sgharm
import sgharm.cli
import sgharm.exact
import sgharm.harmonic
import sgharm.holder
import sgharm.tangent
from sgharm.cli import (
    CURVE_LEVEL_CAP,
    EVAL_TERMS_CAP,
    LYAPUNOV_BITS_CAP,
    LYAPUNOV_LETTERS_CAP,
    LYAPUNOV_TRIALS_CAP,
    main,
)
from sgharm.exact import PERIOD_CAP, Expansion, expand, generator_matrix
from sgharm.harmonic import (
    CENTROID,
    FORM_PRESETS,
    LinearForm,
    approx_error_bound,
    curve_point,
    curve_point_dyadic,
    form_value,
    truncated_curve_value,
)
from sgharm.holder import classify_form, holder_exponent
from sgharm.tangent import Side, apply_projective, direction_at, direction_at_rational, kernel_test


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# eval


def test_eval_dyadic_exact(capsys):
    code, out, _ = run(capsys, "eval", "1/2")
    assert code == 0 and out.strip() == "2/5 2/5 1/5"
    code, out, _ = run(capsys, "eval", "0")
    assert code == 0 and out.strip() == "1 0 0"


def test_eval_decimal_and_expansion_inputs(capsys):
    code, out, _ = run(capsys, "eval", "0.5")
    assert code == 0 and out.strip() == "2/5 2/5 1/5"
    code, out, _ = run(capsys, "eval", "0.(01)", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["s"] == "1/3" and not data["exact"]


def test_eval_nondyadic_bound(capsys):
    code, out, _ = run(capsys, "eval", "1/3", "-n", "40", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["error_bound"] <= 2 * 0.6 ** 40 * (1 + 1e-12)
    assert abs(sum(data["value"]) - 1.0) < 1e-9


def test_eval_parse_and_domain_errors(capsys):
    code, _, err = run(capsys, "eval", "zebra")
    assert code == 2 and "parse" in err
    code, _, err = run(capsys, "eval", "3/2")
    assert code == 3 and "outside" in err


def test_bad_usage_exits_2(capsys):
    assert run(capsys, "eval")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_eval_terms_cap(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("eval worked past the cap")

    code, out, _ = run(capsys, "eval", "1/3", "-n", str(EVAL_TERMS_CAP), "--format", "json")
    assert code == 0 and json.loads(out)["error_bound"] == 5e-324
    monkeypatch.setattr(sgharm.harmonic, "curve_point", no_work)
    monkeypatch.setattr(sgharm.harmonic, "curve_point_dyadic", no_work)
    for s in ("1/3", "1/2"):
        code, _, err = run(capsys, "eval", s, "-n", str(EVAL_TERMS_CAP + 1))
        assert code == 3 and f"exceeds the cap {EVAL_TERMS_CAP}" in err


M61 = Fraction(1, 2 ** 61 - 1)
M61_PERIOD = "0" * 60 + "1"


def _curve_from_bits(bits):
    """Image of the centroid under the letters, one Fraction matrix at a time."""
    v = CENTROID
    for ch in reversed(bits):
        v = generator_matrix(ch).apply(v)
    return v


def test_approximate_paths_never_compute_the_order(capsys, monkeypatch):
    def no_order(m):
        raise AssertionError(f"order of 2 mod {m} computed")

    s = Fraction(5, 900019)
    near = direction_at(s, tol=Fraction(1, 10 ** 18)).chart
    # a form whose kernel lies within 1e-18 of the direction at s, so that the
    # kernel test has to refine the direction from ProjDir.source
    close = LinearForm.of(0, 2, 1 - 1 / near)
    monkeypatch.setattr(sgharm.exact, "_mult_order_2", no_order)
    with pytest.raises(AssertionError):
        expand(s)
    refinements = []

    def counted(*args, **kwargs):
        refinements.append(args[0])
        return direction_at(*args, **kwargs)

    monkeypatch.setattr(sgharm.tangent, "direction_at", counted)
    for x in (s, M61, Fraction(2, 3), Fraction(1)):
        curve_point(x)
        for form in FORM_PRESETS.values():
            form_value(form, x)
    for side in Side:
        pd = direction_at(s, side)
        assert pd.source == s and isinstance(pd.source, Fraction)
        for form in FORM_PRESETS.values():
            kernel_test(form, pd)
    kernel_test(close, direction_at(s))
    assert refinements and set(refinements) == {s}
    code, out, _ = run(capsys, "eval", str(M61), "-n", "130", "--format", "json")
    want = _curve_from_bits(Expansion("", M61_PERIOD).bits(130))
    assert code == 0 and json.loads(out)["value"] == list(want.floats())
    for argv in (["eval", str(s)], ["eval", str(s), "--format", "json"],
                 ["direction", str(s)], ["direction", str(s), "--side", "left"]):
        assert run(capsys, *argv)[0] == 0, argv


def _src_env():
    src = str(Path(sgharm.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


def _python_process(*argv):
    return subprocess.run([sys.executable, *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=30)


def _cli_popen(*argv):
    """A CLI call left running in the background."""
    return subprocess.Popen([sys.executable, "-m", "sgharm.cli", *argv], env=_src_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _cli_process(*argv):
    return _python_process("-m", "sgharm.cli", *argv)


def _cli_subprocess(*argv):
    proc = _cli_process(*argv)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_eval_and_direction_at_huge_denominators():
    data = json.loads(_cli_subprocess("eval", str(M61), "--format", "json"))
    bits = Expansion("", M61_PERIOD).bits(48)
    assert data == {"s": str(M61), "exact": False,
                    "value": list(_curve_from_bits(bits).floats()),
                    "error_bound": approx_error_bound(48), "terms": 48}

    data = json.loads(_cli_subprocess("direction", str(M61)))
    n, err = 0, Fraction(2, 3)
    while err > Fraction(1, 10 ** 9):
        n, err = n + 1, err * 3 / 4
    assert data["chart"] == float(apply_projective(Expansion("", M61_PERIOD).bits(n), 0))
    assert data["error_bound"] == float(err) and not data["exact"]

    # the denominator is 2**100 + 277, so the first 100 letters are zeros
    s = "1/1267650600228229401496703205653"
    want = _curve_from_bits("0" * 48).floats()
    assert _cli_subprocess("eval", s).strip() == (
        " ".join(f"{c:.6g}" for c in want) + f"  error<={approx_error_bound(48):.3g}")


# the modules of sgharm (and mpmath) that one command loads besides exact
LOADED_BY_COMMAND = (
    (("eval", "1/3"), {"harmonic"}),
    (("render", "triangle", "--level", "2", "--out", "{tmp}"), {"harmonic"}),
    (("direction", "1/3"), {"tangent"}),
    (("exponent", "1/3"), {"holder", "mpmath"}),
    (("table", "3"), {"holder", "mpmath"}),
    (("experiment", "lyapunov", "--bits", "64", "--trials", "2"), {"holder"}),
    (("classify", "1/3", "phi"), {"harmonic", "holder", "tangent"}),
)


@pytest.mark.parametrize("argv, loaded", LOADED_BY_COMMAND,
                         ids=[" ".join(argv[:2]) for argv, _ in LOADED_BY_COMMAND])
def test_each_command_loads_only_its_modules(tmp_path, argv, loaded):
    # the CLI as users run it (as __main__, so sgharm.cli itself is not
    # imported); -X importtime names every module it imports
    argv = [a.format(tmp=tmp_path / "t.svg") for a in argv]
    proc = _python_process("-X", "importtime", "-m", "sgharm.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    assert {"sgharm", "sgharm.exact"} <= names
    candidates = {"harmonic", "holder", "tangent", "mpmath"}
    assert {m for m in candidates if m in names or f"sgharm.{m}" in names} == loaded


# ---------------------------------------------------------------------------
# exponent and classify


def test_mpmath_is_imported_only_for_exponents():
    script = "\n".join([
        "import sys",
        "from sgharm.cli import main",
        "assert main(['eval', '1/3']) == 0",
        "assert main(['direction', '1/3', '--exact']) == 0",
        "assert main(['classify', '1/3', 'phi']) == 0",
        "assert main(['experiment', 'lyapunov', '--bits', '64', '--trials', '2']) == 0",
        "assert 'mpmath' not in sys.modules",
        "assert main(['exponent', '1/3']) == 0",
        "assert 'mpmath' in sys.modules",
    ])
    proc = _python_process("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert "alpha=1.11855" in proc.stdout.splitlines()[-1]


def test_exponent_text(capsys):
    code, out, _ = run(capsys, "exponent", "1/3")
    assert code == 0
    assert "period=01" in out and "scaled_trace=7" in out and "class=zero" in out
    assert re.search(r"alpha=1\.11855", out)


def test_exponent_json_and_csv(capsys):
    code, out, _ = run(capsys, "exponent", "1/127", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["scaled_trace"] == 1096
    assert abs(data["alpha"] - 0.880) < 1e-3
    assert data["derivative_class"] == "infinite"
    code, out, _ = run(capsys, "exponent", "1/2", "--format", "csv")
    assert code == 0 and out.splitlines()[1].startswith("1/2,0,1,4,")


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "0", "chi")
    assert code == 0 and "class=exceptional" in out and "kernel=in_kernel" in out
    code, out, _ = run(capsys, "classify", "1", "xi", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["class"] == "exceptional"
    code, out, _ = run(capsys, "classify", "1/3", "phi")
    assert code == 0 and "class=zero" in out and "kernel=not_in_kernel" in out
    code, out, _ = run(capsys, "classify", "1/2", "psi")
    assert code == 0 and "class=infinite" in out
    code, out, _ = run(capsys, "classify", "1/2", "0,1,-1")
    assert code == 0


@pytest.mark.parametrize("argv, folds, line", [
    # period 01 folds its half 0
    (("1/3", "psi"), [1], '{"s": "1/3", "form": ["0", "1", "1"], "class": "zero", '
                          '"kernel": "not_in_kernel"}\n'),
    # 0.001(10): the half 1 of the period, then the preperiod
    (("5/24", "phi"), [1, 3], '{"s": "5/24", "form": ["0", "1", "0"], "class": "zero", '
                              '"kernel": "not_in_kernel"}\n'),
    # 0.0(001): a period that is not W + complement(W) folds in full
    (("1/14", "chi"), [3, 1], '{"s": "1/14", "form": ["0", "1", "-1"], "class": "zero", '
                              '"kernel": "not_in_kernel"}\n'),
    (("0", "chi"), [1], '{"s": "0", "form": ["0", "1", "-1"], "class": "exceptional", '
                        '"kernel": "in_kernel"}\n'),
], ids=["half-period", "preperiod", "full-period", "kernel"])
def test_classify_expands_and_folds_once(capsys, monkeypatch, argv, folds, line):
    import sgharm.holder

    expansions, letters = [], []
    original_expand, original_fold = sgharm.exact.expand, sgharm.exact._fold_bits

    def counted_expand(*args, **kwargs):
        expansions.append(args)
        return original_expand(*args, **kwargs)

    def counted_fold(x, n):
        letters.append(n)
        return original_fold(x, n)

    for mod in (sgharm.exact, sgharm.tangent, sgharm.holder, sgharm.cli):
        if getattr(mod, "expand", None) is original_expand:
            monkeypatch.setattr(mod, "expand", counted_expand)
    # every edge and chart fold goes through _fold_bits
    monkeypatch.setattr(sgharm.exact, "_fold_bits", counted_fold)
    code, out, _ = run(capsys, "classify", *argv, "--format", "json")
    assert code == 0 and out == line
    assert len(expansions) == 1 and letters == folds


def test_classify_unknown_preset(capsys):
    code, _, err = run(capsys, "classify", "1/2", "zeta")
    assert code == 2 and "unknown form" in err


# ---------------------------------------------------------------------------
# table


def test_table_check_passes(capsys):
    code, out, _ = run(capsys, "table", "7", "--check")
    assert code == 0 and "passed" in out


def test_table_check_requires_default_shape(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("table built before --check rejected its shape")

    # the shape is rejected before the table is built
    monkeypatch.setattr(sgharm.holder, "generate_table", no_work)
    for argv in (("table", "6", "--check"), ("table", "20", "--check"),
                 ("table", "7", "--check", "--no-dedupe-complement")):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "--check requires max_len 7" in err


def test_table_one_row(capsys):
    code, out, _ = run(capsys, "table", "1")
    assert code == 0 and len(out.strip().splitlines()) == 1 and "trace=4" in out


def test_table_csv_and_json(capsys):
    code, out, _ = run(capsys, "table", "2", "--format", "csv")
    assert code == 0 and out.splitlines()[0].startswith("s,period,n,scaled_trace")
    code, out, _ = run(capsys, "table", "2", "--format", "json")
    rows = json.loads(out)
    assert [r["period"] for r in rows] == ["01", "0"]


def test_table_cap(capsys):
    assert run(capsys, "table", "25")[0] == 3
    assert run(capsys, "table", "21") == (3, "", "error: max_len 21 exceeds cap 20\n")


def test_cap_errors_are_exacts_classes():
    # main maps them to exit 3 without importing harmonic or holder
    assert sgharm.harmonic.GridCapExceeded is sgharm.exact.GridCapExceeded
    assert sgharm.holder.TableCapExceeded is sgharm.exact.TableCapExceeded
    assert sgharm.GridCapExceeded is sgharm.exact.GridCapExceeded
    assert sgharm.TableCapExceeded is sgharm.exact.TableCapExceeded


def test_other_runtime_errors_are_not_exit_3(monkeypatch):
    def fails(*args, **kwargs):
        raise RuntimeError("not a cap")

    monkeypatch.setattr(sgharm.harmonic, "curve_point", fails)
    with pytest.raises(RuntimeError, match="not a cap"):
        main(["eval", "1/3"])


def test_table_determinism(capsys):
    a = run(capsys, "table", "5", "--format", "json")
    b = run(capsys, "table", "5", "--format", "json")
    assert a == b


# ---------------------------------------------------------------------------
# golden outputs of the exact commands

GOLDEN_PARAMETERS = ["0", "1", "5/127", "1/1019"] + [
    str(s) for s in sorted({Fraction(p, q) for q in range(2, 41) for p in range(1, q)})]

# sha256 of the JSON lines below, as written before the quadratic arithmetic
# of the exponent class and the tangent fixed point moved to integers
GOLDEN_SHA256 = "ee4c5469b230124af8760670d92b375cebea012f2a27afbe0309c702baf4a70b"


def test_golden_outputs_unchanged(capsys):
    lines = []
    for s in GOLDEN_PARAMETERS:
        commands = [("exponent", s, "--format", "json")]
        commands += [("direction", s, "--exact", "--side", side)
                     for side, ok in (("right", s != "1"), ("left", s != "0")) if ok]
        commands += [("classify", s, form, "--format", "json")
                     for form in ("phi", "psi", "chi", "xi")]
        for argv in commands:
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out.count("\n") == 1, argv
            lines.append(out)
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == GOLDEN_SHA256


# periods of 20028, 20028 (after 2 letters) and 50020 (after 5 letters)
LONG_GOLDEN_PARAMETERS = ["1/20029", "12345/80116", "7/1600672"]

# sha256 of the JSON lines below, as written while the chart products were
# folded from their own letter table and the eigenvalue data were Fractions
LONG_GOLDEN_SHA256 = "9d7f3edcfc0537c782644e6b8d3974ffde97e88c56c1f8c23313b5ffb45fdcc5"


# sha256 of `classify` at the parameters above for forms other than the
# presets, as written while classify expanded and folded the period twice
FORM_GOLDEN_SHA256 = "d46d801bb70679bc4ed4f0538ca4abc58b8ec8b2bcec1ad5ac43560c83eeb8ad"


def test_golden_classify_outputs_for_other_forms_unchanged(capsys):
    lines = []
    for s in GOLDEN_PARAMETERS:
        for form in ("1,-2/3,5/7", "0,0,1", "1,1,1"):
            code, out, _ = run(capsys, "classify", s, form, "--format", "json")
            assert code == 0 and out.count("\n") == 1, (s, form)
            lines.append(out)
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == FORM_GOLDEN_SHA256


def test_golden_outputs_at_long_periods_unchanged(capsys):
    lines = []
    for s in LONG_GOLDEN_PARAMETERS:
        commands = [("exponent", s, "--format", "json")]
        commands += [("direction", s, "--exact", "--side", side) for side in ("right", "left")]
        commands += [("classify", s, form, "--format", "json")
                     for form in ("phi", "psi", "chi", "xi")]
        for argv in commands:
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out.count("\n") == 1, argv
            lines.append(out)
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == LONG_GOLDEN_SHA256


# dyadic rationals, whose periods "0" and "1" have rational fixed points, so
# that the chart is rationalised through a preperiod of 200 letters
DYADIC_GOLDEN_PARAMETERS = [f"1/{2 ** 200}", f"3/{2 ** 201}"]

# sha256 of the JSON lines below, as written while every chart after a
# preperiod was rationalised and closed by QuadraticValue.from_pair
DYADIC_GOLDEN_SHA256 = "5bad1c1bc51b6e2f63093082ffbac6b880a1040158abba077286b18648bebba1"


def test_golden_exact_directions_at_dyadics_unchanged(capsys):
    lines = []
    for s in DYADIC_GOLDEN_PARAMETERS:
        for side in ("right", "left"):
            code, out, _ = run(capsys, "direction", s, "--exact", "--side", side)
            assert code == 0 and out.count("\n") == 1, (s, side)
            lines.append(out)
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == DYADIC_GOLDEN_SHA256


# ---------------------------------------------------------------------------
# exact integers longer than the interpreter's 4300-digit str() limit

# 2 has order 11068 mod 11069: the scaled trace has about 4360 digits
LONG_PERIOD = Fraction(1, 11069)


@pytest.fixture
def long_integers():
    """Parse the test's own copy of the output without the digit limit."""
    limit = sys.get_int_max_str_digits()

    def lift():
        sys.set_int_max_str_digits(0)

    yield lift
    sys.set_int_max_str_digits(limit)


def test_exponent_prints_long_trace(capsys, long_integers):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "exponent", str(LONG_PERIOD), "--format", "json")
    assert code == 0 and err == ""
    assert sys.get_int_max_str_digits() == limit
    trace = holder_exponent(LONG_PERIOD).scaled_trace
    assert trace > 10 ** 4300
    code, text, _ = run(capsys, "exponent", str(LONG_PERIOD))
    assert code == 0
    long_integers()
    assert json.loads(out)["scaled_trace"] == trace
    assert int(re.search(r"scaled_trace=(\d+)", text).group(1)) == trace


def test_direction_exact_prints_long_chart(capsys, long_integers):
    code, out, err = run(capsys, "direction", str(LONG_PERIOD), "--exact")
    assert code == 0 and err == ""
    chart = direction_at_rational(LONG_PERIOD).chart
    long_integers()
    data = json.loads(out)
    assert Fraction(data["chart_t"]) == chart.t and Fraction(data["chart_d"]) == chart.d


def test_eval_prints_long_dyadic_value(capsys, long_integers):
    # the value at 1/2**7000 has denominator 5**7000, of 4893 digits
    code, out, err = run(capsys, "eval", f"1/{2 ** 7000}", "--format", "json")
    assert code == 0 and err == ""
    long_integers()
    want = curve_point_dyadic(1, 7000).coords
    assert tuple(Fraction(c) for c in json.loads(out)["value"]) == want


def test_long_parameter_still_rejected(capsys):
    code, _, err = run(capsys, "exponent", "1/" + "7" * 4400)
    assert code == 2 and "cannot parse parameter" in err


def test_huge_decimal_exponent_rejected_quickly(capsys):
    # Fraction would build 10**|exponent| in full before the domain check
    for argv in (("eval", "1e-10000000"), ("exponent", "1e+100000000")):
        t0 = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert code == 2 and "decimal exponent exceeds 4300" in err, argv
        assert time.perf_counter() - t0 < 2, argv
    # exponents up to the bound keep their answers
    assert run(capsys, "eval", "1E-5") == run(capsys, "eval", "1/100000")
    assert run(capsys, "eval", "1e-4300") == \
        (0, "1 7.48409e-12 7.48409e-12  error<=4.49e-11\n", "")


def test_long_parameters_print_in_full(capsys, long_integers):
    # 1e-4300 has a denominator of 4301 digits, 1/2**14300 one of 4305
    tiny = "0." + "0" * 14299 + "1(0)"
    runs = [run(capsys, *argv) for argv in (("eval", "1e-4300", "--format", "json"),
                                             ("direction", "1e-4300"),
                                             ("classify", tiny, "phi", "--format", "json"),
                                             ("classify", "1/3", "1e-4300,0,1", "--format", "json"))]
    assert all(code == 0 and err == "" for code, _, err in runs), [r[2] for r in runs]
    long_integers()
    eval_json, direction, classify, form = (json.loads(out) for _, out, _ in runs)
    assert Fraction(eval_json["s"]) == Fraction(direction["s"]) == Fraction(1, 10 ** 4300)
    assert eval_json["value"] == list(truncated_curve_value(Fraction(1, 10 ** 4300), 48).floats())
    assert Fraction(classify["s"]) == Fraction(1, 2 ** 14300)
    assert classify["class"] == classify_form(FORM_PRESETS["phi"], Fraction(1, 2 ** 14300)).value
    assert [Fraction(c) for c in form["form"]] == [Fraction(1, 10 ** 4300), 0, 1]


def test_digit_limit_is_restored_after_every_command(capsys):
    limit = sys.get_int_max_str_digits()
    for argv, want in ((("exponent", "1/3"), 0), (("direction", "1", "--side", "right"), 3),
                       (("exponent", "1/" + "7" * 4400), 2)):
        code, _, err = run(capsys, *argv)
        assert code == want, (argv, err)
        assert sys.get_int_max_str_digits() == limit, argv


def test_periods_above_the_cap_exit_3():
    # 2 has order 4 * 5**4299 modulo 5**4300; finding it takes seconds, so the
    # three commands run side by side
    procs = [_cli_popen(*argv) for argv in (("exponent", "1e-4300"),
                                            ("classify", "1e-4300", "phi", "--format", "json"),
                                            ("direction", "1e-4300", "--exact"))]
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 3 and out == "", proc.args
            assert err == f"error: period of at least 2**9983 letters exceeds the cap {PERIOD_CAP}\n"
    finally:
        for proc in procs:
            proc.kill()


def test_negative_precision_is_a_usage_error(capsys):
    for argv in (("exponent", "1/3"), ("eval", "1/3"), ("table", "3")):
        code, out, err = run(capsys, *argv, "--precision", "-2")
        assert code == 2 and out == "" and "--precision: must be >= 0, got -2" in err, argv
    code, out, _ = run(capsys, "exponent", "1/3", "--precision", "0")
    assert code == 0 and out == "s=1/3 period=01 n=2 scaled_trace=7 alpha=1 class=zero\n"
    # commands without numeric text output take no --precision
    for argv in (("classify", "1/3", "phi"), ("direction", "1/3"),
                 ("render", "curve", "--out", os.devnull), ("experiment", "maxrun")):
        code, out, err = run(capsys, *argv, "--precision", "3")
        assert code == 2 and out == "" and "unrecognized arguments: --precision 3" in err, argv


# ---------------------------------------------------------------------------
# direction


def test_direction_approx(capsys):
    code, out, _ = run(capsys, "direction", "0")
    data = json.loads(out)
    assert code == 0
    assert abs(data["chart"] - 1 / 3) <= data["error_bound"] + 1e-15
    vec = data["unit_vector"]
    assert abs(sum(vec)) < 1e-9 and abs(sum(c * c for c in vec) - 1) < 1e-9


def test_direction_exact(capsys):
    code, out, _ = run(capsys, "direction", "1/3", "--exact")
    data = json.loads(out)
    assert code == 0 and data["exact"] and data["period"] == "01"
    assert abs(data["chart"] - 0.13148290817867014) < 1e-12


def test_direction_side_error(capsys):
    assert run(capsys, "direction", "1")[0] == 3
    assert run(capsys, "direction", "0", "--side", "left")[0] == 3


def test_cone_error_from_the_chart_fixed_point_exits_3(capsys, monkeypatch):
    assert sgharm.ConeError is sgharm.tangent.ConeError is sgharm.exact.ConeError

    def leave_the_cone(m, preperiod):
        raise sgharm.ConeError("injected: chart left the cone")

    monkeypatch.setattr(sgharm.exact, "_chart_fixed_point", leave_the_cone)
    assert run(capsys, "direction", "5/7", "--exact") == (
        3, "", "error: injected: chart left the cone\n")


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan"])
def test_direction_nonfinite_tolerance(tol):
    # in a subprocess, so that an uncaught exception's traceback would show
    proc = _cli_process("direction", "1/3", f"--tol={tol}")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == f"error: tolerance must be finite, got {tol}\n"


# ---------------------------------------------------------------------------
# render


def test_render_curve(tmp_path, capsys):
    out_file = tmp_path / "curve.svg"
    code, _, _ = run(capsys, "render", "curve", "--level", "4", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<svg") and "<polyline" in text
    points = re.search(r'points="([^"]+)"', text).group(1).split()
    assert len(points) == 17
    xs = [float(p.split(",")[0]) for p in points]
    ys = [float(p.split(",")[1]) for p in points]
    # endpoints at the two bottom corners
    assert ys[0] == ys[-1]
    # mirror symmetry about the vertical axis
    cx = (xs[0] + xs[-1]) / 2
    for k in range(len(xs)):
        assert abs((xs[k] - cx) + (xs[len(xs) - 1 - k] - cx)) < 1e-3
        assert abs(ys[k] - ys[len(xs) - 1 - k]) < 1e-3


def test_render_triangle_segments(tmp_path, capsys):
    out_file = tmp_path / "tri.svg"
    code, _, _ = run(capsys, "render", "triangle", "--level", "1", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.count("M ") == 9


# sha256 of `render triangle` at the default canvas: level 4 as written by
# the Fraction-keyed grid that the integer-lattice build replaced, level 7 as
# written before render read the grid through flat lattice indices
TRIANGLE_SHA256 = {
    4: "b35a2ecb2161a6a555f6e4e73c6c7bd34e2c3283ec2a4b1cb12b1c2a37d2be02",
    7: "71a49f57bf20134526a7d9a51dabefc686ed35cc54c1e635c3f03fa97670d163",
}


@pytest.mark.parametrize("level", TRIANGLE_SHA256)
def test_render_triangle_unchanged(tmp_path, capsys, level):
    out_file = tmp_path / "tri.svg"
    code, _, _ = run(capsys, "render", "triangle", "--level", str(level), "--out", str(out_file))
    assert code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == TRIANGLE_SHA256[level]


def test_render_level_bounds(tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("render did work above the cap")

    monkeypatch.setattr(sgharm.harmonic, "curve_point_dyadic", no_work)
    monkeypatch.setattr(sgharm.harmonic, "harmonic_grid", no_work)
    out_file = tmp_path / "curve.svg"
    for target, level in (("curve", -2), ("triangle", -1)):
        code, out, err = run(capsys, "render", target, "--level", str(level), "--out", str(out_file))
        assert code == 3 and out == "" and err == f"error: level must be nonnegative, got {level}\n"
    code, out, err = run(capsys, "render", "curve", "--level", str(CURVE_LEVEL_CAP + 1),
                         "--out", str(out_file))
    assert code == 3 and out == "" and f"exceeds the cap {CURVE_LEVEL_CAP}" in err
    assert not out_file.exists()


def test_render_triangle_above_the_grid_cap(tmp_path, capsys):
    out_file = tmp_path / "tri.svg"
    code, out, err = run(capsys, "render", "triangle", "--level", "11", "--out", str(out_file))
    assert (code, out, err) == (3, "", "error: level 11 exceeds grid cap 10\n")
    assert not out_file.exists()


def test_render_io_error(capsys):
    code, _, err = run(capsys, "render", "curve", "--level", "2",
                       "--out", "/nonexistent-dir/x.svg")
    assert code == 4 and "cannot write" in err


def test_render_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "render", "curve", "--level", "5", "--out", str(a))
    run(capsys, "render", "curve", "--level", "5", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# experiments


def test_experiment_maxrun(capsys):
    code, out, _ = run(capsys, "experiment", "maxrun", "--max-len", "2")
    data = json.loads(out)
    assert code == 0 and data["classes"] == 1
    assert data["rows"][0]["period"] == "01"
    assert abs(data["rows"][0]["alpha"] - 1.119) <= 1e-3
    assert data["all_above_one"]


def test_experiment_maxrun_cap(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("maxrun did work above the cap")

    monkeypatch.setattr(sgharm.holder, "necklace_classes", no_work)
    code, out, err = run(capsys, "experiment", "maxrun", "--max-len", "21")
    assert code == 3 and out == "" and "exceeds cap 20" in err
    # no lengths is no experiment, as for `table`
    for n in ("0", "-3"):
        code, out, err = run(capsys, "experiment", "maxrun", "--max-len", n)
        assert code == 3 and out == "" and "max_len must be >= 1" in err


def test_experiment_lyapunov_reproducible(capsys):
    args = ("experiment", "lyapunov", "--bits", "256", "--trials", "8", "--seed", "7")
    a = run(capsys, *args)
    b = run(capsys, *args)
    assert a == b and a[0] == 0
    data = json.loads(a[1])
    assert data["trials"] == 8 and data["seed"] == 7


# sha256 of the stdout, recorded before the estimates were read off balls: the
# benchmark's oracle allows 1e-9, so only this catches an estimate moved by an ulp
LYAPUNOV_STDOUT_SHA256 = {
    (): "a105f0113a96cb52c68b58246c80662d5a4577a7cd1a6829ee0089666da4819e",
    ("--bits", "32768", "--trials", "32"):
        "eca82a900eed93d790ca1b37f24ce7586040baa8042d2ef87437381c69d8cf3c",
    ("--bits", "65536", "--trials", "16"):
        "52bfff882965f259a22eb54a410377131e2971130200b6dcc3d53a052f633eda",
}


@pytest.mark.parametrize("args", list(LYAPUNOV_STDOUT_SHA256))
def test_experiment_lyapunov_stdout_is_unchanged(capsys, args):
    code, out, _ = run(capsys, "experiment", "lyapunov", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LYAPUNOV_STDOUT_SHA256[args]


def test_experiment_lyapunov_caps(capsys, monkeypatch):
    code, out, err = run(capsys, "experiment", "lyapunov", "--bits", "-70000", "--trials", "-70000")
    assert code == 3 and out == "" and "must be >= 1" in err

    def no_work(*args, **kwargs):
        raise AssertionError("lyapunov did work above the cap")

    monkeypatch.setattr(sgharm.holder, "lyapunov_sample", no_work)
    for bits, trials, cap in ((LYAPUNOV_BITS_CAP + 1, 1, LYAPUNOV_BITS_CAP),
                              (1, LYAPUNOV_TRIALS_CAP + 1, LYAPUNOV_TRIALS_CAP),
                              (LYAPUNOV_BITS_CAP, LYAPUNOV_LETTERS_CAP // LYAPUNOV_BITS_CAP + 1,
                               LYAPUNOV_LETTERS_CAP)):
        code, out, err = run(capsys, "experiment", "lyapunov",
                             "--bits", str(bits), "--trials", str(trials))
        assert code == 3 and out == "" and f"exceeds the cap {cap}" in err, (bits, trials)


def test_experiment_lyapunov_default_is_within_the_caps():
    args = sgharm.cli.build_parser().parse_args(["experiment", "lyapunov"])
    assert args.bits <= LYAPUNOV_BITS_CAP and args.trials <= LYAPUNOV_TRIALS_CAP
    assert args.bits * args.trials <= LYAPUNOV_LETTERS_CAP


def test_experiment_unknown_name(capsys):
    assert run(capsys, "experiment", "entropy")[0] == 2
