"""The product-tree word fold against a left fold, one letter at a time."""

import random
from fractions import Fraction
from functools import reduce
from itertools import product

import pytest

import sgharm.exact
import sgharm.tangent
from sgharm.exact import (
    PlaneBasis,
    chart_word_matrix,
    edge_word_matrix,
    expand,
    generator_matrix,
    restrict_to_plane,
    _CHART_GEN,
    _EDGE_GEN,
    _LEAF,
    _fold2,
)
from sgharm.holder import _period_sign
from sgharm.tangent import direction_at_rational

IDENTITY = ((1, 0), (0, 1))
TABLES = {PlaneBasis.EDGE: _EDGE_GEN, PlaneBasis.CHART: _CHART_GEN}
LETTERS = {basis: {c: restrict_to_plane(generator_matrix(c), basis).entries for c in "01"}
           for basis in TABLES}


def mul(a, b):
    (p, q), (r, s) = a
    (e, f), (g, h) = b
    return ((p * e + q * g, p * f + q * h), (r * e + s * g, r * f + s * h))


def reference_fold(word, gens):
    """The product as a left fold over single letters."""
    basis = next(b for b, table in TABLES.items() if table is gens)
    return reduce(mul, map(LETTERS[basis].__getitem__, word), IDENTITY)


def seeded_word(rng, n):
    return format(rng.getrandbits(n), f"0{n}b") if n else ""


def test_tables_hold_every_short_word():
    for basis, table in TABLES.items():
        assert len(table) == 2 ** (_LEAF + 1) - 2
        for n in range(1, _LEAF + 1):
            for letters in product("01", repeat=n):
                word = "".join(letters)
                assert table[word] == reference_fold(word, table), (basis, word)


def test_every_short_word():
    for n in range(13):
        for i in range(1 << n):
            word = format(i, f"0{n}b") if n else ""
            for gens in TABLES.values():
                assert _fold2(word, gens) == reference_fold(word, gens), word


def test_every_length_around_the_leaves():
    rng = random.Random(41)
    for n in range(4 * _LEAF + 2):
        for _ in range(20):
            word = seeded_word(rng, n)
            for gens in TABLES.values():
                assert _fold2(word, gens) == reference_fold(word, gens), word


@pytest.mark.parametrize("n", [1000, 1001, 4097, 12289, 30000])
def test_long_words(n):
    word = seeded_word(random.Random(n), n)
    for gens in TABLES.values():
        assert _fold2(word, gens) == reference_fold(word, gens)


def test_empty_word_is_the_identity():
    for gens in TABLES.values():
        assert _fold2("", gens) == IDENTITY
    assert edge_word_matrix("").entries == IDENTITY
    assert chart_word_matrix("").entries == IDENTITY


@pytest.mark.parametrize("word, bad", [
    ("0x" + "01" * 40, "x"),                 # in the first leaf
    ("01" * 40 + "1x", "x"),                 # in the last leaf
    ("0110w" + "1" * 50, "w"),
    ("0" * 13 + "a" + "1" * 30 + "b", "a"),  # the first of two
    ("2", "2"),
])
def test_bad_letter_is_named(word, bad):
    for gens in TABLES.values():
        with pytest.raises(ValueError, match=f"^word letter must be 0 or 1, got '{bad}'$"):
            _fold2(word, gens)


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


def test_exponent_sign_and_chart_fixed_point_match_the_left_fold(monkeypatch):
    params = _long_period_rationals(20)
    periods = [expand(s).period for s in params]
    signs = [_period_sign(w) for w in periods]
    charts = [direction_at_rational(s) for s in params]
    monkeypatch.setattr(sgharm.exact, "_fold2", reference_fold)
    monkeypatch.setattr(sgharm.tangent, "_fold2", reference_fold)
    assert [_period_sign(w) for w in periods] == signs
    assert [direction_at_rational(s) for s in params] == charts
