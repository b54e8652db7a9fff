"""The exact tangent's chart and its closing to lowest terms, against the
construction they replace: the period's fixed point rationalised through
the preperiod's projective map, closed by QuadraticValue.from_pair."""

import random
import time
from fractions import Fraction
from math import gcd, isqrt

from hypothesis import assume, given, strategies as st

from sgharm.exact import (
    QuadraticValue,
    _auto_variant,
    _chart_value,
    _coprime_fraction,
    _in_kernel,
    _is_square,
    _rational_period,
    _smooth_part,
    _to_chart,
    edge_word_matrix,
    quad_sign,
)
from sgharm.harmonic import FORM_PRESETS, LinearForm
from sgharm.holder import DerivativeClass, classify_curve, classify_form
from sgharm.tangent import Side, _side_variant, direction_at_rational


def rationalised_chart(m, preperiod):
    """(u, w, R, D) of the chart: the fixed point of m's chart product inside
    [-1/3, 1/3], pushed through the preperiod's chart product and
    rationalised by the norm of its denominator."""
    (p, q), (r, s) = _to_chart(m)
    D = (s - p) ** 2 + 4 * r * q
    u, R = (p - s, 2 * r) if r > 0 else (s - p, -2 * r)
    w, = [w for w in (1, -1)
          if quad_sign(3 * u + R, 3 * w, D) >= 0 >= quad_sign(3 * u - R, 3 * w, D)]
    if preperiod:
        (a, b), (c, d) = _to_chart(edge_word_matrix(preperiod).entries)
        n0, n1, d0, d1 = a * u + b * R, a * w, c * u + d * R, c * w
        u, w, R = n0 * d0 - n1 * d1 * D, n1 * d0 - n0 * d1, d0 * d0 - d1 * d1 * D
    return u, w, R, D


def from_pair(u, w, R, D):
    return QuadraticValue.from_pair(Fraction(u, R), Fraction(w, R), D)


def exact_parts(x):
    return x.t.as_integer_ratio(), x.d.as_integer_ratio(), x.plus_root


FORMS = list(FORM_PRESETS.values()) + [
    LinearForm.parse(text) for text in ("1,-2/3,5/7", "0,0,1", "1,1,1")]


def assert_matches_the_reference(s, side):
    """direction_at_rational at (s, side) and, at the side classify_form
    reads, classify_form of every form, against the rationalised chart."""
    rec = _rational_period(s, _side_variant(s, side))
    chart = rationalised_chart(rec.F, rec.e.preperiod)
    got = direction_at_rational(s, side)
    assert exact_parts(got.chart) == exact_parts(from_pair(*chart)), (s, side)
    u, w, R, D = rec.chart()
    if not _is_square(D):
        # the conjugated chart: one root of R's size, as without a preperiod
        assert abs(w) == 1 and R > 0, (s, side)
    if _side_variant(s, side) is _auto_variant(s):
        for form in FORMS:
            want = DerivativeClass.EXCEPTIONAL if _in_kernel(form, *chart) \
                else classify_curve(s)
            assert classify_form(form, s) is want, (form.row, s)


def seeded_rationals(seed, count, max_q):
    """p / (q * 2**k) for odd q < max_q and preperiods k of 0 to 6 letters."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.randrange(3, max_q, 2)
        k = rng.randrange(7)
        p = rng.randrange(1, q << k)
        s = Fraction(p, q << k)
        if s.denominator > 2:
            out.append(s)
    return out


def test_directions_and_classes_match_the_rationalised_chart():
    rationals = seeded_rationals(2801, 2600, 2000)
    rationals += [Fraction(k, 2 ** 7) for k in range(0, 129, 3)]  # periods "0" and "1"
    kinds, lengths = set(), set()
    for s in rationals:
        for side in (Side.RIGHT, Side.LEFT):
            if (side is Side.RIGHT and s < 1) or (side is Side.LEFT and s > 0):
                assert_matches_the_reference(s, side)
                rec = _rational_period(s, _side_variant(s, side))
                kinds.add((len(rec.e.preperiod), rec.h < len(rec.e.period)))
                lengths.add(len(rec.e.period))
    # every preperiod of 0 to 6 letters, each with W + complement(W) periods
    # and with periods folded whole, some of them of odd order
    assert kinds >= {(k, half) for k in range(7) for half in (False, True)}
    assert any(n > 1 and n % 2 for n in lengths)


def test_long_periods_match_the_rationalised_chart():
    # periods of 20028 (W + complement(W)), 20015 (odd order) and 50020
    # letters, after 0, 1, 2 and 5 letters
    rationals = [Fraction(12345, 20029), Fraction(12345, 40058), Fraction(12345, 80116),
                 Fraction(12345, 40031), Fraction(7, 1600672)]
    periods = set()
    for s in rationals:
        for side in (Side.RIGHT, Side.LEFT):
            assert_matches_the_reference(s, side)
            rec = _rational_period(s, _side_variant(s, side))
            got, want = rec.chart()[2], rationalised_chart(rec.F, rec.e.preperiod)[2]
            # after a preperiod, the conjugated chart keeps the period's
            # size, and the rationalised one doubles it
            assert 2 * got.bit_length() < abs(want).bit_length() + 64 or not rec.e.preperiod
        periods.add(len(rec.e.period))
    assert periods == {20028, 20015, 50020}


def test_the_exceptional_points_keep_their_kernel():
    assert_matches_the_reference(Fraction(0), Side.RIGHT)
    assert_matches_the_reference(Fraction(1), Side.LEFT)
    assert classify_form(FORM_PRESETS["chi"], 0) is DerivativeClass.EXCEPTIONAL
    assert classify_form(FORM_PRESETS["xi"], 1) is DerivativeClass.EXCEPTIONAL


def test_a_perfect_square_radicand_is_rationalised_as_before():
    # periods "0" and "1" have rational fixed points, so the chart's
    # (u, w, R, D) is the rationalised one, whose bytes the CLI prints
    for s in (Fraction(1, 32), Fraction(3, 2 ** 9), Fraction(31, 32)):
        for side in (Side.RIGHT, Side.LEFT):
            rec = _rational_period(s, _side_variant(s, side))
            assert rec.e.period in ("0", "1")
            assert rec.chart() == rationalised_chart(rec.F, rec.e.preperiod)


@given(st.integers(min_value=0, max_value=2 ** 200))
def test_is_square_matches_isqrt(n):
    for m in (n, n * n, n * n + 1, n * n + 2 * n):
        assert _is_square(m) is (isqrt(m) ** 2 == m), m


@given(st.integers(), st.integers(min_value=1))
def test_coprime_fraction_is_the_reduced_fraction(n, d):
    assume(gcd(n, d) == 1)
    x, want = _coprime_fraction(n, d), Fraction(n, d)
    assert type(x) is Fraction
    assert (x.numerator, x.denominator) == (want.numerator, want.denominator)
    assert x == want and hash(x) == hash(want)


@given(st.integers(min_value=1), st.integers(min_value=1, max_value=2 ** 40))
def test_smooth_part(n, m):
    part = _smooth_part(n, m)
    rest = n // part
    assert n % part == 0 and gcd(rest, m) == 1
    # every prime of part divides m: part divides a power of m
    assert pow(m, part.bit_length(), part) == 0


small = st.integers(min_value=-10 ** 30, max_value=10 ** 30)


@given(small, small, small.filter(bool), small, st.sampled_from([1, -1]),
       st.tuples(small, small, small, small),
       st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=6),
       small.filter(bool))
def test_chart_value_is_the_reduced_pair(p, q, r, s, w, P, twos, fives, k):
    """(u, w, R, D) read off an integer chart matrix, pushed through another
    and scaled by k 2**twos 5**fives, closes as from_pair closes it."""
    D = (s - p) ** 2 + 4 * r * q
    assume(D >= 0)
    u, R = p - s, 2 * r
    a, b, c, d = P
    n0, n1, d0, d1 = a * u + b * R, a * w, c * u + d * R, c * w
    norm = d0 * d0 - d1 * d1 * D
    scale = k * 2 ** twos * 5 ** fives
    charts = [(u, w, R, D)]
    if norm:
        charts.append((n0 * d0 - n1 * d1 * D, n1 * d0 - n0 * d1, norm, D))
    for chart in charts + [tuple(x * scale for x in chart[:3]) + chart[3:] for chart in charts]:
        u, w, R, D = chart
        assert (u * u - w * w * D) % R == 0
        assert exact_parts(_chart_value(*chart)) == exact_parts(from_pair(*chart)), chart


def test_chart_value_at_large_powers_of_2_and_5():
    rng = random.Random(4096)
    for _ in range(3):
        R = 2 ** 4096 * 5 ** 1000 * (rng.getrandbits(20000) | 1)
        u = 10 * rng.getrandbits(30000)
        D = u * u + R * rng.getrandbits(10000)
        start = time.perf_counter()
        got = _chart_value(u, 1, R, D)
        assert time.perf_counter() - start < 1
        assert exact_parts(got) == exact_parts(from_pair(u, 1, R, D))

