"""exact._rational_period memoises one rational's record: its expansion and
period map, from which the record computes the chart fixed point and the
exponent's sign itself on first call, so that the exponent, the classes and
the exact tangent asked in turn at one point expand, fold and solve once.  No answer may depend on what the memo holds,
and it must stay smaller than the benchmark's batches of distinct rationals,
or a round of a workload would read the results of the round before."""

import ast
import hashlib
import importlib
import json
import math
import os
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import sgharm.exact
import sgharm.holder
import sgharm.tangent
from sgharm.exact import ExpansionVariant, _RationalRecord, _rational_period
from sgharm.harmonic import FORM_PRESETS, LinearForm
from sgharm.holder import DerivativeClass, HolderReport, classify_curve, classify_form, holder_exponent
from sgharm.tangent import ConeError, Side, direction_at_rational

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


def _golden_value(f, *args):
    try:
        out = f(*args)
    except Exception as exc:
        return [type(exc).__name__, str(exc)]
    if isinstance(out, HolderReport):
        return out.to_dict()
    if isinstance(out, DerivativeClass):
        return out.value
    return [str(out.chart.t), str(out.chart.d), out.chart.plus_root]


# sha256 of the lines below, as written while the memo held (e, F, h) alone
# and each reader solved the chart fixed point and the exponent's sign itself
READERS_GOLDEN_SHA256 = "095fe515a9fe3bf983388dc8948e64ae3630913cff45b51fd8ff10e19a7ca764"


def test_readers_in_the_order_of_a_short_op_are_unchanged():
    """The four readers at every p/q with q < 97, asked in turn on a warm
    memo: the exponent, the classes, then each side of the tangent."""
    lines = []
    for q in range(1, 97):
        for p in range(q + 1):
            s = Fraction(p, q)
            if math.gcd(p, q) == 1:
                for f, *args in _queries(s):
                    lines.append(json.dumps([f.__name__, str(s), _golden_value(f, *args)]))
    assert len(lines) == 25261
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == READERS_GOLDEN_SHA256


def _counted(monkeypatch, module, name, fail_first=None):
    """Replace module.name by a wrapper that records each call, and raises
    fail_first on the first one instead of calling through."""
    calls, real = [], getattr(module, name)

    def call(*args):
        calls.append(args)
        if fail_first is not None and len(calls) == 1:
            raise fail_first
        return real(*args)

    monkeypatch.setattr(module, name, call)
    return calls


@pytest.mark.parametrize("module, name, error, query", [
    (sgharm.exact, "_chart_fixed_point", ConeError("injected"), direction_at_rational),
    (sgharm.exact, "_exponent_sign", AssertionError("injected"), classify_curve),
])
def test_a_failed_field_is_not_stored(monkeypatch, module, name, error, query):
    s = Fraction(5, 7)
    want = query(s)
    _rational_period.cache_clear()
    calls = _counted(monkeypatch, module, name, fail_first=error)
    with pytest.raises(type(error), match="injected"):
        query(s)
    record = _rational_period(s, ExpansionVariant.UPPER)
    assert query(s) == want and query(s) == want
    assert _rational_period(s, ExpansionVariant.UPPER) is record
    assert _rational_period.cache_info().misses == 1
    assert len(calls) == 2  # the failed call, then one that is kept
    _rational_period.cache_clear()
    assert query(s) == want
    assert len(calls) == 3


def test_cache_clear_recomputes_both_fields(monkeypatch):
    charts = _counted(monkeypatch, sgharm.exact, "_chart_fixed_point")
    signs = _counted(monkeypatch, sgharm.exact, "_exponent_sign")
    s = Fraction(3, 11)
    for cleared in range(1, 3):
        for _ in range(2):
            for f, *args in _queries(s):
                f(*args)
        # the tangent's left side reads the lower expansion, a second record
        assert (len(charts), len(signs)) == (2 * cleared, cleared)
        _rational_period.cache_clear()


def test_threads_racing_on_the_records_read_the_cold_answers():
    points = [Fraction(p, 97) for p in range(1, 9)]  # period 48 letters
    want = {}
    for s in points:
        _rational_period.cache_clear()
        want[s] = [f(*args) for f, *args in _queries(s)]
    got = []

    def reader():
        for s in points:
            got.append((s, [f(*args) for f, *args in _queries(s)]))

    workers = len(os.sched_getaffinity(0)) + 2
    saved = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(3):
            _rational_period.cache_clear()
            threads = [threading.Thread(target=reader) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(saved)
    assert len(got) == 3 * workers * len(points)  # no reader raised
    assert all(answers == want[s] for s, answers in got)


def test_only_exact_stores_what_a_record_holds():
    """exact imports no other module of the package, and its readers holder
    and tangent call a record's methods: they assign no attribute and read
    none of the values the record stores on first call."""
    for node in ast.walk(ast.parse(Path(sgharm.exact.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("sgharm"), node.lineno
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("sgharm") for a in node.names), node.lineno
    stored = {name for name in _RationalRecord.__slots__ if name.startswith("_")}
    for module in (sgharm.holder, sgharm.tangent):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Attribute):
                assert isinstance(node.ctx, ast.Load), (module.__name__, node.lineno)
                assert node.attr not in stored, (module.__name__, node.lineno)


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
    charts = _counted(monkeypatch, sgharm.exact, "_chart_fixed_point")
    signs = _counted(monkeypatch, sgharm.exact, "_exponent_sign")
    for _ in range(2):
        before = _rational_period.cache_info().misses
        charts.clear()
        signs.clear()
        for op in ops:
            op.call()
        assert _rational_period.cache_info().misses - before == points
        # one chart fixed point and one exponent sign per op, none carried over
        assert (len(charts), len(signs)) == (points, points)
