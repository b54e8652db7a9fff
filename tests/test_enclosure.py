"""The exponent enclosure from intervals against the same enclosure on exact
operands, and the intervals and residues it reads."""

import math
import random

import pytest
from hypothesis import given, strategies as st

import sgharm.holder
from sgharm.exact import complement_word
from sgharm.holder import (
    LOG2_5,
    _disc_power_of_5,
    _enclosure_intervals,
    _ln_half,
    _over_power_of_5,
    _period_sign,
    alpha_enclosure,
)


def exact_enclosure(t, n, width=1e-12):
    """alpha_enclosure with every operand rounded from the exact integer."""
    from mpmath.libmp import (from_int, fzero, mpf_gt, mpf_shift, mpi_add, mpi_div, mpi_log,
                              mpi_mul, mpi_sqrt, round_ceiling, round_floor, round_nearest,
                              to_float)

    def interval(x):
        return from_int(x, prec, round_floor), from_int(x, prec, round_ceiling)

    tn, tk = _over_power_of_5(t, n)
    dn, dk = _over_power_of_5(t * t - 4 * 3 ** n, 2 * n)
    tden, dden = 5 ** tk, 5 ** dk
    prec = 64
    while True:
        trace = mpi_div(interval(tn), interval(tden), prec)
        root = mpi_sqrt(mpi_div(interval(dn), interval(dden), prec), prec)
        total = mpi_add(trace, root, prec)
        lam = mpf_shift(total[0], -1), mpf_shift(total[1], -1)
        if mpf_gt(lam[0], fzero):
            a, b = mpi_div(mpi_log(lam, prec), mpi_mul(interval(n), _ln_half(prec), prec), prec)
            lo = math.nextafter(to_float(a, rnd=round_nearest), -math.inf)
            hi = math.nextafter(to_float(b, rnd=round_nearest), math.inf)
            if hi - lo <= width and not lo <= 1.0 <= hi:
                return lo, hi
        prec *= 2
        if prec > 1 << 15:
            raise ArithmeticError("exponent enclosure did not converge")


def on_intervals(n):
    return 2 * n * LOG2_5 > sgharm.holder._EXACT_OPERAND_BITS


def operands(t, n):
    """tn, 5**tk, dn, 5**dk and 5**j for the enclosure of (t, n)."""
    tn, tk = _over_power_of_5(t, n)
    dn, dk = _over_power_of_5(t * t - 4 * 3 ** n, 2 * n)
    return tn, 5 ** tk, dn, 5 ** dk, 5 ** (2 * n - dk)


def interval_roundings(t, n):
    """The integers rounded on the interval path: tn, n, t and 5**j."""
    tn, _, _, _, f = operands(t, n)
    return {tn, n, t, f}


@pytest.fixture
def exact_roundings(monkeypatch):
    """The integers that the enclosure rounds with from_int."""
    import mpmath.libmp

    ints, from_int = [], mpmath.libmp.from_int

    def recorded(x, *args):
        ints.append(x)
        return from_int(x, *args)

    monkeypatch.setattr(mpmath.libmp, "from_int", recorded)
    return ints


def random_word(rng, n):
    return format(rng.getrandbits(n), f"0{n}b")


def traces(seed):
    """(t, n) of seeded periods of 2*10**3 to 6*10**4 letters: whole words,
    W + complement(W), ones with 5 | t, and ones with 25 | t*t - 4*3**n."""
    rng = random.Random(seed)
    cases = []
    for n in (2000, 2500, 3001, 5000, 9999, 20000, 60000):
        cases.append((_period_sign(random_word(rng, n))[0], n))
    for h in (1000, 1500, 2500, 10000, 30000):
        cases.append((_period_sign((w := random_word(rng, h)) + complement_word(w))[0], 2 * h))
    # at W + complement(W), t*t - 4*3**n is tr**2 * (tr**2 + 4*3**h) for W's
    # trace tr, so 5 | tr gives 25 | t*t - 4*3**n
    found = {"5|t": 0, "25|disc": 0}
    while min(found.values()) < 2:
        h = rng.randrange(1200, 4000)
        w = random_word(rng, h)
        word = w + complement_word(w) if rng.random() < 0.5 else random_word(rng, 2 * h + 1)
        t, n = _period_sign(word)[0], len(word)
        for key, hit in (("5|t", t % 5 == 0), ("25|disc", (t * t - 4 * 3 ** n) % 25 == 0)):
            if hit and found[key] < 2:
                found[key] += 1
                cases.append((t, n))
    return cases


def test_ball_enclosure_is_the_exact_enclosure(exact_roundings):
    cases = traces(20261021)
    assert sum(on_intervals(n) for t, n in cases) >= len(cases) - 2
    assert any(t % 5 == 0 and on_intervals(n) for t, n in cases)
    assert any((t * t - 4 * 3 ** n) % 25 == 0 and on_intervals(n) for t, n in cases)
    for t, n in cases:
        want = exact_enclosure(t, n)
        exact_roundings.clear()
        assert alpha_enclosure(t, n) == want, n
        # on intervals, no operand is built: only tn, n, t and 5**j are rounded
        if on_intervals(n):
            assert set(exact_roundings) == interval_roundings(t, n), n
    for t, n in cases[1:4]:
        for width in (5e-16, 1e-17):
            try:
                want = exact_enclosure(t, n, width)
            except ArithmeticError as exc:
                want = exc.args
            try:
                got = alpha_enclosure(t, n, width)
            except ArithmeticError as exc:
                got = exc.args
            assert got == want, (n, width)


def near(t, n, m):
    """The t' <= t nearest to t with 5**m | t'*t' - 4*3**n, for even n."""
    root = 2 * 3 ** (n // 2)
    return t - (t - root) % 5 ** m


@pytest.mark.parametrize("m", [1, 2, 5, 11, 12, 13, 40])
def test_high_powers_of_5_in_the_discriminant(m, exact_roundings):
    """Traces with 5**m | t*t - 4*3**n: at m >= _RESIDUE_DIGITS the residues
    are read to more digits, and the discriminant is still not built."""
    rng = random.Random(m)
    for n in (3000, 8000):
        t = near(_period_sign(random_word(rng, n))[0], n, m)
        dn, dk = _over_power_of_5(t * t - 4 * 3 ** n, 2 * n)
        j = 2 * n - dk
        assert j >= m
        assert _disc_power_of_5(t, n) == j
        want = exact_enclosure(t, n)
        exact_roundings.clear()
        assert alpha_enclosure(t, n) == want, (m, n)
        assert set(exact_roundings) == interval_roundings(t, n), (m, n)


@pytest.mark.parametrize("i", [1, 3, 30])
def test_powers_of_5_in_the_trace(i):
    """Traces with 5**i | t, whose trace denominator 5**tk is below 5**n."""
    rng = random.Random(100 + i)
    for n in (3000, 8001):
        t = _period_sign(random_word(rng, n))[0]
        t -= t % 5 ** i
        assert _over_power_of_5(t, n)[1] <= n - i
        assert alpha_enclosure(t, n) == exact_enclosure(t, n), (i, n)


def test_a_ball_that_fails_ziv_falls_back_to_the_exact_operand(monkeypatch, exact_roundings):
    """With no guard bits, no interval fixes its floor and ceiling: every
    operand is built and rounded exactly, and the enclosure stays the same."""
    cases = traces(7)[:8]
    want = [exact_enclosure(t, n) for t, n in cases]
    monkeypatch.setattr(sgharm.holder, "_GUARD_BITS", 0)
    for (t, n), w in zip(cases, want):
        exact_roundings.clear()
        assert alpha_enclosure(t, n) == w, n
        # tn, n and the three operands, and on intervals also t and 5**j
        tn, tden, dn, dden, _ = operands(t, n)
        built = {tn, n, tden, dn, dden}
        assert set(exact_roundings) == (built | interval_roundings(t, n) if on_intervals(n)
                                        else built), n


def test_the_residues_give_the_power_of_5():
    rng = random.Random(3)
    for _ in range(3000):
        n = rng.randrange(1, 60)
        t = rng.getrandbits(rng.randrange(1, 200)) + 2 * 3 ** (n // 2 + 1)
        if rng.random() < 0.5 and n % 2 == 0:
            t = near(t, n, rng.randrange(1, 20))
        if t * t <= 4 * 3 ** n:
            continue
        j = _disc_power_of_5(t, n)
        dn, dk = _over_power_of_5(t * t - 4 * 3 ** n, 2 * n)
        assert j == 2 * n - dk, (t, n)


def holds(interval, x):
    from mpmath.libmp import from_int, mpf_le

    lo, hi = interval
    return mpf_le(lo, from_int(x)) and mpf_le(from_int(x), hi)


@given(st.integers(1, 3000), st.integers(0, 6000).flatmap(lambda b: st.integers(0, 1 << b)),
       st.integers(0, 30), st.booleans(), st.integers(2, 300))
def test_the_intervals_hold_their_operands(n, extra, m, on_trace, bits):
    """5**m divides t, or, at even n, t*t - 4*3**n; t runs from just above
    2*sqrt(3**n), where the discriminant cancels, to well past it."""
    if on_trace or n % 2:
        t = 5 ** m * (math.isqrt(4 * 3 ** n) // 5 ** m + 1 + extra)
    else:
        t = 2 * 3 ** (n // 2) + 5 ** m * (1 + extra)
    _, tden, dn, dden, f = operands(t, n)
    j = _disc_power_of_5(t, n)
    assert 5 ** j == f
    intervals = _enclosure_intervals(t, n, _over_power_of_5(t, n)[1], j, bits)
    for interval, x in zip(intervals, (tden, dn, dden)):
        assert holds(interval, x)
