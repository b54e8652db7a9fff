"""exact._rational_period memoises one rational's expansion and period map, so
that the exponent, the classes and the exact tangent asked in turn at one
point expand and fold once.  No answer may depend on what the memo holds, and
it must stay smaller than the benchmark's batches of distinct rationals, or a
round of a workload would read the results of the round before."""

import importlib
import math
from fractions import Fraction
from pathlib import Path

import pytest

import sgharm.exact
from sgharm.exact import _rational_period
from sgharm.harmonic import FORM_PRESETS, LinearForm
from sgharm.holder import classify_curve, classify_form, holder_exponent
from sgharm.tangent import Side, direction_at_rational

BENCH = Path(__file__).resolve().parents[1] / "bench"
FORMS = [*FORM_PRESETS.values(), LinearForm.parse("1,-2/3,5/7")]


def _queries(s: Fraction) -> list:
    """Every memoised query at s, with each side of the exact tangent that
    exists there."""
    calls = [(holder_exponent, s), (classify_curve, s)]
    calls += [(classify_form, form, s) for form in FORMS]
    calls += [(direction_at_rational, s, side)
              for side, ok in ((Side.RIGHT, s < 1), (Side.LEFT, s > 0)) if ok]
    return calls


def test_warm_and_cleared_memo_give_equal_answers():
    hits = 0
    for q in range(1, 64):
        for p in range(q + 1):
            if math.gcd(p, q) != 1:
                continue
            calls = _queries(Fraction(p, q))
            before = _rational_period.cache_info().hits
            warm = [f(*args) for f, *args in calls]
            hits += _rational_period.cache_info().hits - before
            assert _rational_period.cache_info().currsize <= _rational_period.cache_info().maxsize
            cold = []
            for f, *args in calls:
                _rational_period.cache_clear()
                cold.append(f(*args))
            assert warm == cold, (p, q)
    assert hits > 0


def test_text_and_fraction_share_one_entry():
    holder_exponent("1/3")
    classify_form(FORM_PRESETS["psi"], Fraction(1, 3))
    direction_at_rational("1/3")
    info = _rational_period.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


def test_period_cap_error_is_raised_on_every_call(monkeypatch):
    monkeypatch.setattr(sgharm.exact, "PERIOD_CAP", 8)
    s = Fraction(1, 11)  # period 0001011101, 10 letters
    for _ in range(2):
        for f, *args in _queries(s):
            with pytest.raises(ValueError, match="exceeds the cap 8"):
                f(*args)
    assert _rational_period.cache_info().currsize == 0


@pytest.mark.parametrize("workload, points", [("short_periods", 120), ("long_periods", 7)])
def test_no_round_replays_the_round_before(monkeypatch, tmp_path, workload, points):
    """Each exact op of a round of the workload's seed-1 plan expands its
    rational afresh: a memo large enough to carry results across ops would
    make the benchmark time stored answers.  (short_periods repeats 0 and
    1/5, each time 18 or more ops apart.)"""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    plan = workloads.make_plan(workload, 1)
    assert sum(spec["kind"] in ("short", "period") for spec in plan["ops"]) == points
    ops = workloads.make_ops(plan, str(BENCH.parent), str(tmp_path))
    for _ in range(2):
        before = _rational_period.cache_info().misses
        for op in ops:
            op.call()
        assert _rational_period.cache_info().misses - before == points
