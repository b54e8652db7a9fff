"""The byte-leaf word fold, the estimators built on it, and the chart
products conjugated from it, against left folds over single letters."""

import random
import re
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, strategies as st

import sgharm.exact
from sgharm.exact import (
    PlaneBasis,
    QuadraticValue,
    chart_word_matrix,
    complement_word,
    edge_word_matrix,
    expand,
    generator_matrix,
    restrict_to_plane,
    _FROM_CHART,
    _LEAVES,
    _TO_CHART,
    _complement_half,
    _fold2,
    _period_map,
)
from sgharm.holder import (
    _estimate,
    _period_sign,
    exponent_estimate,
    holder_exponent,
    lyapunov_sample,
)
from sgharm.tangent import direction_at_rational, projective_word_matrix

IDENTITY = ((1, 0), (0, 1))
SWAP_EDGE = ((-1, 1), (0, 1))  # S: complementing a word conjugates its edge fold by S
SWAP_CHART = ((1, 0), (0, -1))  # J: the same swap in the chart basis
LETTERS = {basis: {c: restrict_to_plane(generator_matrix(c), basis).entries for c in "01"}
           for basis in PlaneBasis}


def mul(a, b):
    (p, q), (r, s) = a
    (e, f), (g, h) = b
    return ((p * e + q * g, p * f + q * h), (r * e + s * g, r * f + s * h))


def reference_fold(word, basis=PlaneBasis.EDGE):
    """The product as a left fold over single letters."""
    return reduce(mul, map(LETTERS[basis].__getitem__, word), IDENTITY)


def assert_folds(word):
    """Edge fold, chart matrix and projective matrix of a word against the
    left folds over the edge and the chart letters."""
    assert _fold2(word) == reference_fold(word), word
    chart = reference_fold(word, PlaneBasis.CHART)
    assert chart_word_matrix(word).entries == chart, word
    assert projective_word_matrix(word) == chart, word


def seeded_word(rng, n):
    return format(rng.getrandbits(n), f"0{n}b") if n else ""


def test_tables_hold_every_short_word():
    assert [len(table) for table in _LEAVES] == [2 ** k for k in range(9)]
    for k, table in enumerate(_LEAVES):
        for v, leaf in enumerate(table):
            word = format(v, f"0{k}b") if k else ""
            assert leaf == reference_fold(word), word


def test_chart_is_the_conjugated_edge_product():
    # _TO_CHART is 2 * Q**-1 for Q = _FROM_CHART
    assert mul(_TO_CHART, _FROM_CHART) == mul(_FROM_CHART, _TO_CHART) == ((2, 0), (0, 2))
    rng = random.Random(45)
    words = ["".join(w) for n in range(1, 9) for w in product("01", repeat=n)]
    words += [seeded_word(rng, n) for n in (97, 500, 3001)]
    for word in words:
        (a, b), (c, d) = mul(mul(_TO_CHART, reference_fold(word)), _FROM_CHART)
        k = len(word) - 1
        assert reference_fold(word, PlaneBasis.CHART) == \
            ((a << k, b << k), (c << k, d << k)), word


def test_every_short_word():
    for n in range(13):
        for i in range(1 << n):
            assert_folds(format(i, f"0{n}b") if n else "")


def test_every_length_around_the_leaves():
    rng = random.Random(41)
    for n in range(41):
        for _ in range(20):
            assert_folds(seeded_word(rng, n))


# a run of 64 byte leaves holds 512 letters; the first leaf of a word whose
# length is not a multiple of 8 is short
BLOCK_EDGES = sorted({511, 512, 513} | {512 * k + d for k in (2, 3, 4, 5) for d in (-1, 1)})


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_block_edges(n):
    rng = random.Random(n)
    for _ in range(3):
        word = seeded_word(rng, n)
        assert _fold2(word) == reference_fold(word), n


@pytest.mark.parametrize("n", list(range(41)) + BLOCK_EDGES)
def test_leading_zeros(n):
    # the word's integer has fewer bits than the word has letters
    for word in ("0" * n, "0" * n + "1"):
        assert _fold2(word) == reference_fold(word), word


@pytest.mark.parametrize("n", [1000, 1001, 4097, 12289, 30000])
def test_long_words(n):
    assert_folds(seeded_word(random.Random(n), n))


def test_empty_word_is_the_identity():
    assert _fold2("") == IDENTITY
    assert edge_word_matrix("").entries == IDENTITY
    assert chart_word_matrix("").entries == IDENTITY
    assert projective_word_matrix("") == IDENTITY


@pytest.mark.parametrize("word, bad", [
    ("0x" + "01" * 40, "x"),                 # in the first leaf
    ("01" * 40 + "1x", "x"),                 # in the last leaf
    ("0110w" + "1" * 50, "w"),
    ("0" * 13 + "a" + "1" * 30 + "b", "a"),  # the first of two
    ("2", "2"),
    # int(word, 2) accepts these
    ("0b1", "b"), ("1_0", "_"), (" 01", " "), ("+1", "+"),
])
def test_bad_letter_is_named(word, bad):
    message = re.escape(f"word letter must be 0 or 1, got '{bad}'")
    for fold in (_fold2, chart_word_matrix, projective_word_matrix):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fold(word)


# lyapunov_sample's results before the byte-leaf fold, which must not move
LYAPUNOV_RECORDED = {
    (4096, 48, 1): {"mean": 1.012650501570908, "median": 1.0124840504329375,
                    "fraction_above_one": 1.0, "min": 1.0063423040577355,
                    "max": 1.0169773129408362},
    (4096, 48, 2): {"mean": 1.0120163091890364, "median": 1.0119374871497269,
                    "fraction_above_one": 1.0, "min": 1.0054406852883235,
                    "max": 1.0167906295528066},
    (64, 5, 11): {"mean": 1.006885261212569, "median": 1.0171298864071652,
                  "fraction_above_one": 0.6, "min": 0.9672873256813166,
                  "max": 1.0365490933252388},
    (1, 3, 0): {"mean": 0.6380467934853584, "median": 0.6609640474436809,
                "fraction_above_one": 0.0, "min": 0.5922122855687135,
                "max": 0.6609640474436809},
    (13, 7, 2): {"mean": 0.9714568366478691, "median": 0.9654193468316071,
                 "fraction_above_one": 0.42857142857142855, "min": 0.8777698475430843,
                 "max": 1.037227021023117},
}


@pytest.mark.parametrize("nbits, trials, seed", list(LYAPUNOV_RECORDED))
def test_lyapunov_sample_is_unchanged(nbits, trials, seed):
    want = {"nbits": nbits, "trials": trials, "seed": seed,
            **LYAPUNOV_RECORDED[nbits, trials, seed], "low_confidence": nbits < 256}
    assert lyapunov_sample(nbits, trials, seed) == want


@pytest.mark.parametrize("ns", [
    [5, 1, 300, 17],             # unsorted
    [64, 64, 8, 8, 300],         # duplicates
    [0, -1, 301, 1, 300],        # outside 1..len(bits)
    [],
    range(1, 301),
])
def test_estimate_at_wanted_lengths_filters_the_prefix_trace(ns):
    bits = seeded_word(random.Random(47), 300)
    every = exponent_estimate(bits).points
    assert every == tuple((n, _estimate(reference_fold(bits[:n]), n)) for n in range(1, 301))
    assert exponent_estimate(bits, ns=ns).points == \
        tuple(p for p in every if p[0] in set(ns)), ns


def _long_period_rationals(count):
    """Seeded p/q with q prime, whose periods are about 10**3 letters or more."""
    rng = random.Random(43)
    out = []
    while len(out) < count:
        q = rng.randrange(1001, 8000, 2)
        if all(q % d for d in range(3, int(q ** 0.5) + 1, 2)):
            s = Fraction(rng.randrange(1, q), q)
            if len(expand(s).period) >= 1000:
                out.append(s)
    return out


def chart_fold_direction(e):
    """The exact chart from the chart-basis left folds of the whole period and
    the preperiod: the period's fixed point inside the chart interval, pushed
    through the preperiod's projective map."""
    (p, q), (r, s) = reference_fold(e.period, PlaneBasis.CHART)
    # x = (p - s +- sqrt((s - p)**2 + 4*r*q)) / (2*r); r is nonzero on these periods
    t, disc = Fraction(p - s, r), Fraction((s - p) ** 2 + 4 * r * q, r * r)
    x, = [x for x in (QuadraticValue(t, disc, True), QuadraticValue(t, disc, False))
          if x.compare(Fraction(-1, 3)) >= 0 >= x.compare(Fraction(1, 3))]
    if not e.preperiod:
        return x
    (a, b), (c, d) = reference_fold(e.preperiod, PlaneBasis.CHART)
    x0, x1 = x.as_pair()
    n0, n1, d0, d1 = a * x0 + b, a * x1, c * x0 + d, c * x1
    norm = d0 * d0 - d1 * d1 * x.d
    return QuadraticValue.from_pair((n0 * d0 - n1 * d1 * x.d) / norm,
                                    (n1 * d0 - n0 * d1) / norm, x.d)


def test_exponent_sign_and_chart_fixed_point_match_the_left_fold(monkeypatch):
    params = _long_period_rationals(20)
    periods = [expand(s).period for s in params]
    signs = [_period_sign(w) for w in periods]
    params += [s / 8 for s in params[:4]]  # with a preperiod of 3 letters
    charts = [direction_at_rational(s) for s in params]
    assert [qd.chart for qd in charts] == [chart_fold_direction(expand(s)) for s in params]
    monkeypatch.setattr(sgharm.exact, "_fold2", reference_fold)
    assert [_period_sign(w) for w in periods] == signs
    assert [direction_at_rational(s) for s in params] == charts


def test_swaps_are_involutions():
    assert mul(SWAP_EDGE, SWAP_EDGE) == mul(SWAP_CHART, SWAP_CHART) == IDENTITY
    for (a, b), (c, d) in (SWAP_EDGE, SWAP_CHART):
        assert a * d - b * c == -1


@given(st.text(alphabet="01", max_size=300))
def test_complement_conjugates_the_products_by_the_swap(word):
    other = complement_word(word)
    edge, chart = reference_fold(word), reference_fold(word, PlaneBasis.CHART)
    assert reference_fold(other) == mul(mul(SWAP_EDGE, edge), SWAP_EDGE)
    assert reference_fold(other, PlaneBasis.CHART) == mul(mul(SWAP_CHART, chart), SWAP_CHART)
    assert _fold2(other) == mul(mul(SWAP_EDGE, _fold2(word)), SWAP_EDGE)


@pytest.mark.parametrize("word, half", [
    ("", None), ("0", None), ("01", "0"), ("0110", "01"), ("0101", None),
])
def test_complement_half(word, half):
    assert _complement_half(word) == half


@pytest.mark.parametrize("s, folded", [
    (Fraction(1, 3), 1),             # period 01
    (Fraction(12345, 20029), 10014),
    (Fraction(1, 7), 3),             # odd order: period 001
    (Fraction(1, 21), 6),            # period 000011: even length, not W + complement
    (Fraction(1), 1),                # period 1
])
def test_half_fold_is_taken_exactly_on_complement_periods(monkeypatch, s, folded):
    letters = []

    def counted(fold):
        def call(word):
            letters.append(len(word))
            return fold(word)
        return call

    monkeypatch.setattr(sgharm.exact, "edge_word_matrix", counted(edge_word_matrix))
    period = holder_exponent(s).period
    direction_at_rational(s)
    assert letters == [folded]
    assert (folded < len(period)) == (_complement_half(period) is not None)


def _period_words():
    """Every word of 1 to 12 letters, and seeded words of 10**3 to 3*10**4
    letters, half of them of the form W + complement(W)."""
    words = ["".join(w) for n in range(1, 13) for w in product("01", repeat=n)]
    rng = random.Random(49)
    for k in range(12):
        word = seeded_word(rng, rng.randrange(1000, 30001))
        if k % 2:
            word = word[:len(word) // 2] + complement_word(word[:len(word) // 2])
        words.append(word)
    return words


def test_period_map_powers_to_the_period_product():
    halves = 0
    for word in _period_words():
        f, h = _period_map(word)
        half = _complement_half(word)
        assert h == len(half or word), word
        (a, b), (c, d) = f
        assert a * d - b * c == (3 ** h if h == len(word) else -3 ** h), word
        assert (f if h == len(word) else mul(f, f)) == _fold2(word), word
        halves += h < len(word)
    assert halves == 2 ** 7 - 2 + 6  # every nonempty W of up to 6 letters, and 6 seeded
