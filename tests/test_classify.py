"""classify_form against the composition it replaces: the exact direction,
its kernel test, then the curve's class, each from its own expansion and
fold.  Outcomes are compared whole, exceptions included."""

import hashlib
import random
from fractions import Fraction

import pytest

import sgharm.exact
from sgharm.exact import CHART_BASIS, Expansion, QuadraticValue, complement_word, quad_sign
from sgharm.harmonic import FORM_PRESETS, LinearForm
from sgharm.holder import DerivativeClass, classify_curve, classify_form
from sgharm.tangent import KernelVerdict, QuadDir, Side, direction_at_rational, kernel_test


def _reference(form, s):
    verdict = kernel_test(form, direction_at_rational(s))
    if verdict is KernelVerdict.IN_KERNEL:
        return DerivativeClass.EXCEPTIONAL
    return classify_curve(s)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _fraction_verdict(form, qd):
    """kernel_test's exact branch as Fraction arithmetic on the chart's pair."""
    A, B = form(CHART_BASIS[1]), form(CHART_BASIS[0])
    p, q = qd.chart.as_pair()
    sign = quad_sign(A + B * p, B * q, qd.chart.d)
    return KernelVerdict.IN_KERNEL if sign == 0 else KernelVerdict.NOT_IN_KERNEL


def _kernel_form(s):
    """A form with Fraction entries whose kernel holds the (rational) direction at s."""
    x = direction_at_rational(s).chart.as_fraction()
    # along chart y the form (0, -2x, 1 - x) is proportional to y - x
    return LinearForm.of(0, -2 * x, 1 - x)


FORMS = list(FORM_PRESETS.values()) + [
    LinearForm.of(1, Fraction(-2, 3), Fraction(5, 7)),
    LinearForm.of(Fraction(1, 2), Fraction(-1, 3), Fraction(7, 5)),
    LinearForm.of(0, 0, 1),
    LinearForm.of(0, 0, 0),
    LinearForm.of(1, 1, 1),
] + [_kernel_form(s) for s in (Fraction(1, 4), Fraction(3, 8), Fraction(5, 16))]

RATIONALS = sorted({Fraction(p, q) for q in range(1, 65) for p in range(q + 1)})


def test_classify_form_matches_the_composition_on_small_denominators():
    outcomes = set()
    for s in RATIONALS:
        for form in FORMS:
            got = _outcome(classify_form, form, s)
            assert got == _outcome(_reference, form, s), (form.row, s)
            outcomes.add(got)
    # the kernel pairs (chi, 0) and (xi, 1), and the Fraction-row kernel forms
    assert classify_form(FORM_PRESETS["chi"], 0) is DerivativeClass.EXCEPTIONAL
    assert classify_form(FORM_PRESETS["xi"], 1) is DerivativeClass.EXCEPTIONAL
    for s in (Fraction(1, 4), Fraction(3, 8), Fraction(5, 16)):
        assert classify_form(_kernel_form(s), s) is DerivativeClass.EXCEPTIONAL
    assert outcomes == {DerivativeClass.ZERO, DerivativeClass.INFINITE,
                        DerivativeClass.EXCEPTIONAL}


@pytest.mark.parametrize("s, form", [
    (Fraction(-1, 3), FORM_PRESETS["phi"]),
    (Fraction(4, 3), FORM_PRESETS["psi"]),
    (2, LinearForm.of(0, 0, 1)),
    ("1/0", FORM_PRESETS["chi"]),
    ("abc", FORM_PRESETS["xi"]),
    (Fraction(1, 3), None),
    (Fraction(-1, 3), None),
])
def test_classify_form_raises_as_the_composition_does(s, form):
    got = _outcome(classify_form, form, s)
    assert isinstance(got, tuple) and got == _outcome(_reference, form, s)


def _long_expansions():
    rng = random.Random(1414)
    out = []
    for k in range(16):
        period = "".join(rng.choice("01") for _ in range(rng.randrange(200, 2501)))
        if k >= 8:  # a period W + complement(W), which folds only W
            period = period[:len(period) // 2] + complement_word(period[:len(period) // 2])
        preperiod = ""
        if k % 2:
            preperiod = "".join(rng.choice("01") for _ in range(rng.randrange(1, 301)))
            preperiod = preperiod[:-1] + ("1" if period[-1] == "0" else "0")
        out.append(Expansion(preperiod, period))
    return out


def test_classify_form_matches_the_composition_on_long_words(monkeypatch):
    # long random words have denominators that expand() cannot factor quickly,
    # so the expansion is handed over directly
    forms = FORMS[:4] + FORMS[4:6]
    for e in _long_expansions():
        monkeypatch.setattr(sgharm.exact, "expand", lambda *args, e=e: e)
        s = e.value()
        for form in forms:
            assert _outcome(classify_form, form, s) == _outcome(_reference, form, s), \
                (form.row, str(e)[:40])
        qd = direction_at_rational(s)
        assert (qd.period, qd.preperiod) == (e.period, e.preperiod)
        for form in forms:
            assert kernel_test(form, qd) is _fraction_verdict(form, qd)


def test_kernel_test_matches_the_fraction_formula():
    directions = [direction_at_rational(s, side) for s in RATIONALS
                  for side, ok in ((Side.RIGHT, s < 1), (Side.LEFT, s > 0)) if ok]
    # charts with either root and with integer, negative or zero parts
    directions += [QuadDir(QuadraticValue(Fraction(t), Fraction(d), plus), "0", "", Side.RIGHT)
                   for t in (Fraction(-2, 3), 0, 1, Fraction(5, 9))
                   for d in (0, Fraction(4, 9), 2, Fraction(7, 50))
                   for plus in (True, False)]
    verdicts = set()
    for qd in directions:
        for form in FORMS:
            got = kernel_test(form, qd)
            assert got is _fraction_verdict(form, qd), (form.row, qd.chart)
            verdicts.add(got)
    assert verdicts == {KernelVerdict.IN_KERNEL, KernelVerdict.NOT_IN_KERNEL}


GOLDEN_RATIONALS = sorted({Fraction(p, q) for q in range(1, 97) for p in range(q + 1)})
GOLDEN_FORMS = ("1,-2/3,5/7", "0,0,1", "1,1,1", "0,0,0")

# sha256 of the lines below, as written while the exact tangent folded its
# chart products through projective_word_matrix and each consumer of a
# W + complement(W) period took the swap on its own
EXACT_GOLDEN_SHA256 = "4a764517b54f2cba0d70a5f93e65daea815f572d5f762c70bfa1bb657913877a"


def _golden_lines():
    for s in GOLDEN_RATIONALS:
        for text in GOLDEN_FORMS:
            yield f"classify {s} {text} {_outcome(classify_form, LinearForm.parse(text), s)!r}\n"
        for side in Side:
            yield f"direction {s} {side.value} {_outcome(direction_at_rational, s, side)!r}\n"


def test_golden_classes_and_exact_directions_unchanged():
    digest = hashlib.sha256("".join(_golden_lines()).encode()).hexdigest()
    assert digest == EXACT_GOLDEN_SHA256
