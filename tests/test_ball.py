"""Mid-radius balls and the estimates read off them, against exact products
and the full squares of the Frobenius norm."""

import math
import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import sgharm.holder
from sgharm.exact import _fold2, _fold_bits, _mul2, _period_map
from sgharm.holder import (
    LN2,
    LN5,
    _ball,
    _ball_mul,
    _ball_power,
    _certified,
    _mat_power,
    _stream_estimate,
    estimate_at_bits,
    exponent_estimate,
    holder_exponent,
    lyapunov_sample,
)


def exact_estimate(m, n):
    """The estimate from the full squares of the exact product m of n letters."""
    (a, b), (c, d) = m
    s = a * a + b * b + c * c + d * d
    nb = s.bit_length()
    ln = math.log(s) if nb <= 512 else math.log(s >> (nb - 64)) + (nb - 64) * LN2
    return (n * LN5 - 0.5 * ln) / (n * LN2)


def encloses(ball, m):
    """Whether every entry of the exact m lies within r * 2**k of the ball's."""
    mid, k, r = ball
    return all(abs(x - (y << k)) <= r << k for x, y in zip(m[0] + m[1], mid[0] + mid[1]))


entry = st.integers(0, 3000).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits))
matrix = st.tuples(st.tuples(entry, entry), st.tuples(entry, entry))


@given(st.lists(matrix, min_size=1, max_size=6))
def test_ball_products_enclose_the_exact_product(ms):
    exact, ball = ms[0], _ball(ms[0])
    assert encloses(ball, exact)
    for m in ms[1:]:
        exact, ball = _mul2(exact, m), _ball_mul(ball, _ball(m))
        assert encloses(ball, exact)
        assert max(e.bit_length() for e in ball[0][0] + ball[0][1]) <= sgharm.holder._KEPT_BITS


@given(matrix, st.integers(0, 12))
def test_ball_power_encloses_the_exact_power(m, e):
    assert encloses(_ball_power(m, e), _mat_power(m, e))


radius = st.integers(0, 3000).flatmap(lambda bits: st.integers(0, 1 << bits))
corner = st.tuples(*[st.sampled_from([-1, 0, 1])] * 4)


def member(ball, signs):
    """The matrix of the ball at a corner, edge or centre of its box."""
    mid, k, r = ball
    e = [(x + s * r) << k for x, s in zip(mid[0] + mid[1], signs)]
    return (e[0], e[1]), (e[2], e[3])


extra = st.integers(0, 200)


@given(matrix, st.integers(0, 64), radius, corner, extra)
def test_a_cut_ball_holds_every_member(m, k, r, signs, bits):
    assert encloses(_ball(m, k, r, bits), member((m, k, r), signs))


@given(matrix, radius, matrix, radius, corner, corner, extra)
def test_a_ball_product_holds_every_product_of_members(m, r, n, q, s, t, bits):
    x, y = (m, 3, r), (n, 5, q)
    assert encloses(_ball_mul(x, y, bits), _mul2(member(x, s), member(y, t)))


def test_a_ball_wider_than_its_entries_stays_short(monkeypatch):
    # cut to 4 bits, the ball soon holds zero; squaring must not then
    # double the radius's length at every step
    monkeypatch.setattr(sgharm.holder, "_KEPT_BITS", 4)
    m, k, r = _ball_power(_period_map("011")[0], 1 << 20)
    assert max(e.bit_length() for e in m[0] + m[1] + (r,)) <= 4 + 4


def test_certified_is_the_exact_estimate_at_both_ends():
    k, n = 300, 1000

    def exact(e):
        return exact_estimate(((e << k, 0), (0, -e << k)), n)

    for a in (3 << 93, (3 << 93) + 12345, (5 << 92) + 7):
        m = ((a, 0), (0, -a))
        assert _certified((m, k, 0), n) == exact(a)
        assert _certified((m, k, 1), n) == exact(a - 1) == exact(a + 1)


@pytest.mark.parametrize("m, k, r", [
    (((1 << 48, 0), (0, 0)), 300, 1),    # the sum of squares crosses 2**96
    (((1 << 95, 0), (0, 0)), 300, 1),    # crosses 2**190, both tops round to 2.0**64
    (((3 << 93, 0), (0, 0)), 300, 1 << 60),  # one bit length, two doubles
    (((3 << 93, 0), (0, 0)), 100, 1),    # below 2**512: _ln_big reads every bit
    (((1 << 30, 0), (0, 0)), 300, 1),    # fewer than 64 bits kept
])
def test_certified_refuses_a_ball_that_does_not_fix_the_estimate(m, k, r):
    assert _certified((m, k, r), 1000) is None


def reference_sample(nbits, trials, seed):
    """The estimates of lyapunov_sample's streams, each from the exact fold."""
    rng = random.Random(seed)
    return [exact_estimate(_fold_bits(rng.getrandbits(nbits), nbits), nbits)
            for _ in range(trials)]


@pytest.mark.parametrize("nbits, trials", [
    (1, 8), (13, 8), (512, 8), (2047, 8), (2048, 8), (2049, 8), (4096, 8), (4097, 8),
    (8192, 4), (65536, 1),
])
def test_lyapunov_sample_is_the_exact_fold(nbits, trials):
    seed = 1000 + nbits
    want = reference_sample(nbits, trials, seed)
    rng = random.Random(seed)
    assert [_stream_estimate(rng.getrandbits(nbits), nbits) for _ in range(trials)] == want
    got = lyapunov_sample(nbits, trials, seed)
    assert (got["mean"], got["median"], got["min"], got["max"]) == \
        (statistics.fmean(want), statistics.median(want), min(want), max(want))


@pytest.fixture
def exact_squares(monkeypatch):
    """The sizes of the sums of squares that the exact path takes logs of."""
    sizes = []
    ln_big = sgharm.holder._ln_big

    def counted(x):
        sizes.append(x.bit_length())
        return ln_big(x)

    monkeypatch.setattr(sgharm.holder, "_ln_big", counted)
    return sizes


def test_long_streams_need_no_exact_squares(exact_squares):
    for seed in (1, 2):
        lyapunov_sample(4096, 48, seed)
    lyapunov_sample(65536, 4, 3)
    estimate_at_bits("10110100", "011", 10 ** 6)
    assert exact_squares == []


def test_estimate_at_bits_needs_no_exact_power_far_out(monkeypatch):
    # far beyond any exact power; the estimates converge to the exponent
    def no_exact_power(m, e):
        raise AssertionError("the exact power was taken")

    monkeypatch.setattr(sgharm.holder, "_mat_power", no_exact_power)
    alpha = holder_exponent(Fraction(3, 7)).alpha  # period 011
    for k, tol in ((9, 1e-10), (30, 1e-14), (100, 1e-14)):
        assert abs(estimate_at_bits("", "011", 10 ** k) - alpha) < tol, k
        assert abs(estimate_at_bits("10110100", "011", 10 ** k) - alpha) < tol, k


def test_failed_certificate_falls_back_to_the_exact_path(monkeypatch, exact_squares):
    bits = format(random.Random(51).getrandbits(6000), "06000b")
    ns = [300, 1000, 3000, 6000]

    def results():
        return (lyapunov_sample(4096, 3, 7), lyapunov_sample(8192, 2, 8),
                exponent_estimate(bits, ns=ns),
                estimate_at_bits("10110100", "001", 5000), estimate_at_bits("", "011", 3001))

    want = results()
    exact_squares.clear()
    monkeypatch.setattr(sgharm.holder, "_KEPT_BITS", 4)
    assert results() == want
    # every estimate, each one's sum of squares above 512 bits
    assert len(exact_squares) == 3 + 2 + len(ns) + 2
    assert min(exact_squares) > 512


PERIODS = ["011", "001", "01", "0011", "0001011" + "1110100", "0000001",
           format(random.Random(53).getrandbits(37), "037b")]


@pytest.mark.parametrize("period", PERIODS)
@pytest.mark.parametrize("pre", ["", "10110100", "1" * 1500], ids=["0", "8", "1500"])
def test_estimate_at_bits_is_the_exact_path(period, pre):
    f, h = _period_map(period)
    for nbits in (3000, 10007, 10 ** 5):
        q, r = divmod(nbits - min(len(pre), nbits), len(period))
        m = _mul2(_mul2(_fold2(pre[:nbits]), _mat_power(f, q * (len(period) // h))),
                  _fold2(period[:r]))
        assert estimate_at_bits(pre, period, nbits) == exact_estimate(m, nbits), nbits
