import math
import random
import time
from fractions import Fraction

import pytest

from sgharm.cli import REFERENCE_ROWS
from sgharm.exact import (
    Expansion,
    QuadraticValue,
    complement_word,
    edge_word_matrix,
    expand,
    expand_auto,
    lyndon_words,
    _product_sign,
)
from sgharm.harmonic import FORM_PRESETS
import sgharm.holder
from sgharm.holder import (
    DerivativeClass,
    HolderReport,
    MIN_EXPONENT,
    TableCapExceeded,
    alpha_enclosure,
    classify_curve,
    classify_form,
    estimate_at_bits,
    exponent_bound,
    exponent_estimate,
    exponent_excludes_one,
    generate_table,
    holder_exponent,
    infinite_derivative_guaranteed,
    lyapunov_sample,
    maxrun_experiment,
    table_csv,
    _ln_half,
    _over_power_of_5,
    _period_sign,
)


# ---------------------------------------------------------------------------
# exact exponents


def test_exponent_at_zero():
    r = holder_exponent(0)
    assert r.period == "0" and r.period_length == 1 and r.scaled_trace == 4
    assert r.top_eigenvalue.as_fraction() == Fraction(3, 5)
    assert abs(r.alpha - MIN_EXPONENT) <= 1e-12
    assert r.derivative_class is DerivativeClass.INFINITE


def test_exponent_at_third():
    r = holder_exponent(Fraction(1, 3))
    assert (r.period, r.period_length, r.scaled_trace) == ("01", 2, 7)
    assert abs(r.alpha - 1.119) <= 1e-3
    assert r.derivative_class is DerivativeClass.ZERO
    assert r.enclosure_width <= 1e-12
    assert r.alpha_lo <= math.log((7 + math.sqrt(13)) / 50) / (2 * math.log(0.5)) <= r.alpha_hi


def test_exponent_at_fifth():
    r = holder_exponent(Fraction(1, 5))
    assert (r.period, r.period_length, r.scaled_trace) == ("0011", 4, 34)
    assert abs(r.alpha - 1.078) <= 1e-3


def test_exponent_at_one():
    r = holder_exponent(1)
    assert r.period == "1"
    assert abs(r.alpha - MIN_EXPONENT) <= 1e-12


def test_exponent_domain():
    with pytest.raises(ValueError):
        holder_exponent(Fraction(9, 8))


def test_preperiod_dropped():
    base = holder_exponent(Fraction(1, 3))
    # push 1/3 through the half-scale map chain for prefix 10
    shifted = holder_exponent((Fraction(1, 3) + 2) / 4)
    assert shifted.expansion.preperiod != ""
    assert shifted.alpha == base.alpha
    assert shifted.scaled_trace == base.scaled_trace


def test_preperiod_invariance_through_half_maps():
    rng = random.Random(31)
    for _ in range(20):
        q = rng.randint(3, 200)
        p = rng.randint(0, q)
        s = Fraction(p, q)
        w = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
        mapped = Fraction(int(w, 2) + s, 2 ** len(w))
        a, b = holder_exponent(s), holder_exponent(mapped)
        assert a.scaled_trace == b.scaled_trace
        assert a.period_length == b.period_length
        assert (a.top_eigenvalue.t, a.top_eigenvalue.d) == \
            (b.top_eigenvalue.t, b.top_eigenvalue.d)
        assert a.alpha == b.alpha


def test_symmetry_and_rotation_invariance():
    rng = random.Random(32)
    for ref_s, period, *_ in REFERENCE_ROWS:
        s = Fraction(ref_s)
        a, b = holder_exponent(s), holder_exponent(1 - s)
        assert a.scaled_trace == b.scaled_trace and a.alpha == b.alpha
    for _ in range(10):
        w = "".join(rng.choice("01") for _ in range(rng.randint(1, 10)))
        base = None
        for r in range(len(w)):
            rot = w[r:] + w[:r]
            if not Expansion_is_primitive(rot):
                continue
            rep = holder_exponent(Expansion("", rot).value())
            if base is None:
                base = rep
            else:
                assert rep.scaled_trace == base.scaled_trace
                assert rep.alpha == base.alpha


def Expansion_is_primitive(word):
    n = len(word)
    return not any(n % d == 0 and word == word[:d] * (n // d) for d in range(1, n))


# ---------------------------------------------------------------------------
# classification


def test_classify_examples():
    assert classify_curve(Fraction(1, 3)) is DerivativeClass.ZERO
    assert classify_curve(Fraction(1, 2)) is DerivativeClass.INFINITE
    assert classify_curve(Fraction(1, 127)) is DerivativeClass.INFINITE


def test_classify_form_examples():
    chi, xi, phi, psi = (FORM_PRESETS[k] for k in ("chi", "xi", "phi", "psi"))
    assert classify_form(chi, 0) is DerivativeClass.EXCEPTIONAL
    assert classify_form(xi, 1) is DerivativeClass.EXCEPTIONAL
    assert classify_form(phi, Fraction(1, 2)) is DerivativeClass.INFINITE
    assert classify_form(phi, Fraction(1, 3)) is DerivativeClass.ZERO
    assert classify_form(psi, Fraction(1, 2)) is DerivativeClass.INFINITE
    # the mirrored pairs are regular
    assert classify_form(chi, 1) is DerivativeClass.INFINITE
    assert classify_form(xi, 0) is DerivativeClass.INFINITE


# ---------------------------------------------------------------------------
# bounds


def test_exponent_bound_examples():
    lo, hi = exponent_bound(expand_auto(Fraction(0)))
    assert lo == hi
    assert abs(lo - MIN_EXPONENT) < 1e-15
    lo, hi = exponent_bound(expand(Fraction(1, 3)))
    assert abs(hi - (MIN_EXPONENT + 1.0)) < 1e-15
    assert holder_exponent(Fraction(1, 3)).alpha <= hi
    lo, hi = exponent_bound(expand(Fraction(1, 127)))
    assert abs(hi - (MIN_EXPONENT + 2 / 7)) < 1e-15
    assert holder_exponent(Fraction(1, 127)).alpha <= hi


def test_infinite_derivative_guaranteed():
    assert infinite_derivative_guaranteed(expand(Fraction(1, 255)))   # period 00000001
    assert not infinite_derivative_guaranteed(expand(Fraction(1, 127)))
    assert not infinite_derivative_guaranteed(expand(Fraction(1, 3)))
    assert infinite_derivative_guaranteed(expand_auto(Fraction(1, 2)))


def test_integrality_examples():
    assert exponent_excludes_one("01")
    assert exponent_excludes_one("0000101")
    assert exponent_excludes_one("0")


def reference_enclosure(T, disc, n, width=1e-12, exclude_one=True):
    """The exponent enclosure from the eigenvalue's trace and discriminant as
    Fractions in lowest terms."""
    from mpmath import iv, mp

    def interval(f):
        return iv.mpf(f.numerator) / iv.mpf(f.denominator)

    prec = 64
    while True:
        saved = iv.prec
        try:
            iv.prec = prec
            lam = (interval(T) + iv.sqrt(interval(disc))) / 2
            ok = lam.a > 0
            if ok:
                alpha = iv.log(lam) / (n * iv.log(iv.mpf(0.5)))
                lo = math.nextafter(float(mp.mpf(alpha.a)), -math.inf)
                hi = math.nextafter(float(mp.mpf(alpha.b)), math.inf)
        finally:
            iv.prec = saved
        if ok and hi - lo <= width and not (exclude_one and lo <= 1.0 <= hi):
            return lo, hi
        prec *= 2
        assert prec <= 1 << 15


def test_integer_exponent_test_matches_quadratic_field():
    rng = random.Random(20240517)
    words = [w for n in range(1, 15) for w in lyndon_words(n)]
    words += ["".join(rng.choice("01") for _ in range(rng.randrange(200, 3001)))
              for _ in range(20)]
    # periods W + complement(W), whose sign and trace come from W alone
    halves = [format(i, f"0{n}b") for n in range(1, 9) for i in range(1 << n)]
    halves += ["".join(rng.choice("01") for _ in range(rng.randrange(100, 1501)))
               for _ in range(10)]
    words += [w + complement_word(w) for w in halves]
    reduced_trace = reduced_disc = 0
    for word in words:
        # reference: the dominant eigenvalue against 2**-n in the quadratic field
        n = len(word)
        m = edge_word_matrix(word)
        T, disc = m.trace(), m.trace() ** 2 - 4 * m.det()
        ref = QuadraticValue(T, disc).compare(Fraction(1, 1 << n))
        t, sign = _period_sign(word)
        assert ref != 0 and sign == ref, word
        assert exponent_excludes_one(word)
        assert alpha_enclosure(t, n) == reference_enclosure(T, disc, n), word
        # the enclosure reads T and disc in Fraction's lowest terms
        for x, k, f in ((t, n, T), (t * t - 4 * 3 ** n, 2 * n, disc)):
            num, e = _over_power_of_5(x, k)
            assert (num, 5 ** e) == (f.numerator, f.denominator), word
        reduced_trace += t % 5 == 0
        reduced_disc += (t * t - 4 * 3 ** n) % 25 == 0
    # the powers of 5 were reduced, not only passed through
    assert reduced_trace and reduced_disc


def test_enclosure_ignores_the_global_mpmath_precision():
    from mpmath import mp

    cases = [(w, width) for w in ("001", "01", "0", "0010111", "0" * 40 + "1")
             for width in (1e-12, 1e-15)]
    cases = [(_period_sign(w)[0], len(w), width) for w, width in cases]
    want = [alpha_enclosure(t, n, width) for t, n, width in cases]
    saved = mp.prec
    try:
        mp.prec = 20
        got = [alpha_enclosure(t, n, width) for t, n, width in cases]
    finally:
        mp.prec = saved
    assert got == want
    # period 001 at the default precision; mp.prec = 20 once gave an interval
    # that excluded the exponent 1.04997527...
    assert want[0] == (1.0499752744276936, 1.049975274427694)


def iv_enclosure(t, n, width=1e-12):
    """The exponent enclosure on mpmath's iv context, which sets the global
    iv.prec: the reference for alpha_enclosure's raw interval functions."""
    from mpmath import iv
    from mpmath.libmp import round_nearest, to_float

    tn, tk = _over_power_of_5(t, n)
    dn, dk = _over_power_of_5(t * t - 4 * 3 ** n, 2 * n)
    prec = 64
    while True:
        saved = iv.prec
        try:
            iv.prec = prec
            trace = iv.mpf(tn) / iv.mpf(5 ** tk)
            lam = (trace + iv.sqrt(iv.mpf(dn) / iv.mpf(5 ** dk))) / 2
            ok = lam.a > 0
            if ok:
                alpha = iv.log(lam) / (n * iv.log(iv.mpf(0.5)))
                a, b = alpha._mpi_
                lo = math.nextafter(to_float(a, rnd=round_nearest), -math.inf)
                hi = math.nextafter(to_float(b, rnd=round_nearest), math.inf)
        finally:
            iv.prec = saved
        if ok and hi - lo <= width and not lo <= 1.0 <= hi:
            return lo, hi
        prec *= 2
        if prec > 1 << 15:
            raise ArithmeticError("exponent enclosure did not converge")


def _enclosure_or_error(f, t, n, width):
    try:
        return f(t, n, width)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def test_enclosure_matches_the_iv_reference(monkeypatch):
    import mpmath.libmp

    rng = random.Random(20261019)
    words = [w for n in range(1, 17) for w in lyndon_words(n)]
    words += ["".join(rng.choice("01") for _ in range(rng.randrange(200, 3001)))
              for _ in range(20)]
    for word in words:
        t, n = _period_sign(word)[0], len(word)
        assert alpha_enclosure(t, n) == iv_enclosure(t, n), word
    # widths near two ulps escalate the precision, and 1e-17 never converges
    from_int, precs = mpmath.libmp.from_int, []

    def recorded(x, prec, rnd):
        precs.append(prec)
        return from_int(x, prec, rnd)

    monkeypatch.setattr(mpmath.libmp, "from_int", recorded)
    short = [w for n in range(1, 13) for w in lyndon_words(n)]
    escalated = {}
    for width, cases in ((1e-15, short), (7e-16, short), (5e-16, short),
                         (1e-17, short[:4])):
        escalated[width] = 0
        for word in cases:
            t, n = _period_sign(word)[0], len(word)
            precs.clear()
            got = _enclosure_or_error(alpha_enclosure, t, n, width)
            escalated[width] += max(precs) > 64
            assert got == _enclosure_or_error(iv_enclosure, t, n, width), (word, width)
            assert (width == 1e-17) == (got[0] is ArithmeticError), (word, width)
    assert escalated == {1e-15: 0, 7e-16: 0, 5e-16: 4, 1e-17: 4}


def test_enclosure_is_the_same_from_a_cold_and_a_full_ln_half_table():
    """alpha_enclosure keeps ln(1/2) per precision: the cases whose precision
    escalates at width 5e-16 give the iv reference's ends with the table
    empty, and again with it filled at every precision 64 ... 32768."""
    ladder = [1 << k for k in range(6, 16)]
    escalating = []
    for w in (w for n in range(1, 13) for w in lyndon_words(n)):
        _ln_half.cache_clear()
        alpha_enclosure(_period_sign(w)[0], len(w), 5e-16)
        if _ln_half.cache_info().currsize > 1:
            escalating.append((_period_sign(w)[0], len(w), 5e-16))
    assert len(escalating) == 4
    want = [iv_enclosure(*case) for case in escalating]
    _ln_half.cache_clear()
    assert [alpha_enclosure(*case) for case in escalating] == want
    assert _ln_half.cache_info().misses == 2  # 64 and 128 bits
    for prec in ladder:
        _ln_half(prec)
    assert _ln_half.cache_info().currsize == len(ladder)
    assert [alpha_enclosure(*case) for case in escalating] == want
    assert _ln_half.cache_info().currsize == len(ladder)


def test_enclosure_writes_no_mpmath_context(monkeypatch):
    from mpmath import iv, mp

    def refuse(ctx, value):
        raise AssertionError("the enclosure wrote a global mpmath precision")

    # the second case raises the precision once
    cases = [(_period_sign(w)[0], len(w), width)
             for w, width in (("001", 1e-12), ("000010111011", 5e-16))]
    want = [iv_enclosure(*case) for case in cases]
    for ctx in (iv, mp):
        for name in ("prec", "dps"):
            monkeypatch.setattr(type(ctx), name,
                                property(getattr(type(ctx), name).fget, refuse))
    assert [alpha_enclosure(*case) for case in cases] == want
    assert want[0] == (1.0499752744276936, 1.049975274427694)


def test_product_sign_matches_the_product():
    # the bit lengths decide only when they are two or more apart
    triples = [(a, b, c) for a in range(1, 40) for b in range(1, 40) for c in range(1, 1700, 7)]
    for k in (64, 200, 1000):
        x = 1 << k
        triples += [(a, b, a * b + d) for a in (x - 1, x, x + 1) for b in (3, x - 1, x)
                    for d in (-2, -1, 0, 1, 2)]
        triples += [(x - 1, x - 1, x * x), (x, x, (x * x << 1) - 1), (x, x, x * x >> 1)]
    for a, b, c in triples:
        assert _product_sign(a, b, c) == (a * b > c) - (a * b < c), (a, b, c)


def test_top_eigenvalue_is_built_from_the_scaled_trace():
    assert "top_eigenvalue" not in HolderReport.__dataclass_fields__
    for s in [Fraction(0), Fraction(1), Fraction(1, 5), Fraction(12345, 20029)] + \
            [Fraction(p, q) for q in range(2, 30) for p in range(1, q, 3)]:
        r = holder_exponent(s)
        t, n = r.scaled_trace, r.period_length
        m = edge_word_matrix(r.period)
        T, disc = m.trace(), m.trace() ** 2 - 4 * m.det()
        assert r.top_eigenvalue == QuadraticValue(Fraction(t, 5 ** n),
                                                  Fraction(t * t - 4 * 3 ** n, 25 ** n))
        assert r.top_eigenvalue == QuadraticValue(T, disc)


# ---------------------------------------------------------------------------
# estimates


def test_estimate_constant_word():
    trace = exponent_estimate("0" * 256, ns=[16, 64, 256])
    errs = [abs(v - MIN_EXPONENT) for _, v in trace.points]
    assert errs[-1] < 0.01
    assert errs[0] >= errs[-1]


def test_estimate_alternating_word():
    est = exponent_estimate("01" * 2048, ns=[4096]).final()
    exact = holder_exponent(Fraction(1, 3)).alpha
    assert abs(est - exact) < 0.01


def test_estimate_prefix_insensitive():
    rng = random.Random(33)
    prefix = "".join(rng.choice("01") for _ in range(8))
    plain = estimate_at_bits("", "01", 4096)
    with_prefix = estimate_at_bits(prefix, "01", 4096)
    assert abs(plain - with_prefix) < 0.01


def test_estimate_fast_path_matches_sequential():
    bits = ("001" * 700)[:2048]
    seq = exponent_estimate(bits, ns=[2048]).final()
    fast = estimate_at_bits("", "001", 2048)
    assert seq == fast
    pre_bits = "10110100" + bits[:-8]
    seq2 = exponent_estimate(pre_bits, ns=[2048]).final()
    fast2 = estimate_at_bits("10110100", "001", 2048)
    assert seq2 == fast2
    # periods W + complement(W), which power the map of W, at lengths that
    # end in either half
    for period in ("01", "0011", "011100", "0001011" + "1110100"):
        for pre in ("", "10110100"):
            word = pre + period * 1024
            for nbits in (1, 9, 2 * len(period) + 1, 1000, 1003, 2048):
                seq = exponent_estimate(word[:nbits], ns=[nbits]).final()
                assert estimate_at_bits(pre, period, nbits) == seq, (pre, period, nbits)


def test_estimate_validation():
    with pytest.raises(ValueError):
        exponent_estimate("")
    with pytest.raises(ValueError):
        exponent_estimate("012")
    with pytest.raises(ValueError):
        estimate_at_bits("", "01", 0)


# ---------------------------------------------------------------------------
# table


def test_table_matches_reference():
    rows = generate_table(7)
    assert len(rows) == len(REFERENCE_ROWS) == 22
    for row, (ref_s, ref_p, ref_n, ref_tr, ref_a) in zip(rows, REFERENCE_ROWS):
        assert row.s == Fraction(ref_s)
        assert row.period == ref_p
        assert row.period_length == ref_n
        assert row.scaled_trace == ref_tr
        assert abs(row.alpha - ref_a) <= 1e-3


def test_table_small():
    rows = generate_table(1)
    assert len(rows) == 1
    assert rows[0].scaled_trace == 4 and abs(rows[0].alpha - MIN_EXPONENT) < 1e-9
    rows = generate_table(2)
    assert [r.period for r in rows] == ["01", "0"]
    assert rows[0].scaled_trace == 7


def test_table_sorted_desc_with_tie_break():
    rows = generate_table(7)
    for a, b in zip(rows, rows[1:]):
        assert a.alpha > b.alpha or (a.alpha == b.alpha and a.s < b.s)
    tied = [r for r in rows if r.scaled_trace == 472]
    assert [r.s for r in tied] == [Fraction(11, 127), Fraction(13, 127)]


def test_table_extension_preserves_order():
    seven = [(r.s, r.period) for r in generate_table(7)]
    eight = [(r.s, r.period) for r in generate_table(8) if r.period_length <= 7]
    assert seven == eight


def test_table_without_dedupe():
    rows = generate_table(3, dedupe_complement=False)
    periods = {r.period for r in rows}
    assert periods == {"0", "1", "01", "001", "011"}


def test_table_cap():
    with pytest.raises(TableCapExceeded):
        generate_table(21)
    with pytest.raises(ValueError):
        generate_table(0)


def test_table_csv_layout():
    rows = generate_table(2)
    text = table_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "s,period,n,scaled_trace,alpha,alpha_enclosure_width,derivative_class"
    assert lines[1].startswith("1/3,01,2,7,")
    assert lines[2].startswith("0,0,1,4,")


# ---------------------------------------------------------------------------
# experiments


def test_maxrun_experiment_rows():
    rows = maxrun_experiment(6)
    by_period = {w: (a, flag) for w, a, flag in rows}
    assert "0" not in by_period and "0001" not in by_period
    assert abs(by_period["01"][0] - 1.119) <= 1e-3 and by_period["01"][1]
    assert abs(by_period["0011"][0] - 1.078) <= 1e-3 and by_period["0011"][1]
    assert abs(by_period["001011"][0] - 1.086) <= 1e-3 and by_period["001011"][1]


def test_lyapunov_determinism_and_flags():
    a = lyapunov_sample(64, 5, seed=11)
    b = lyapunov_sample(64, 5, seed=11)
    assert a == b
    c = lyapunov_sample(64, 5, seed=12)
    assert c != a
    assert a["low_confidence"] and a["nbits"] == 64 and a["trials"] == 5
    big = lyapunov_sample(512, 3, seed=1)
    assert not big["low_confidence"]
    assert 0.0 <= big["fraction_above_one"] <= 1.0
    assert big["min"] <= big["median"] <= big["max"]


# ---------------------------------------------------------------------------
# norm bounds behind the estimates


def _rand_cone_vector(rng):
    from sgharm.exact import MAJOR_EIGVEC_0, MAJOR_EIGVEC_1
    a = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
    b = Fraction(rng.randint(0, 1000), rng.randint(1, 1000))
    return a * MAJOR_EIGVEC_0 + b * MAJOR_EIGVEC_1


def test_iterated_generator_norm_floor():
    # ||M^n u|| >= (1/2) (3/5)^n ||u|| in the 2-norm, for cone vectors
    from sgharm.exact import word_product
    rng = random.Random(41)
    for _ in range(250):
        u = _rand_cone_vector(rng)
        n = rng.randint(1, 30)
        sym = rng.choice("01")
        img = word_product(sym * n).apply(u)
        assert img.norm2() >= 0.5 * (0.6 ** n) * u.norm2() * (1 - 1e-12)


def test_generator_operator_bound():
    # ||M u|| <= (3/5) ||u|| on the whole vector plane
    from sgharm.exact import Vec3Q, word_product
    rng = random.Random(43)
    for _ in range(250):
        x = Fraction(rng.randint(-100, 100), rng.randint(1, 50))
        y = Fraction(rng.randint(-100, 100), rng.randint(1, 50))
        u = Vec3Q(x, y, -x - y)
        for sym in "01":
            img = word_product(sym).apply(u)
            assert img.norm2() <= 0.6 * u.norm2() + 1e-12


# calibrated once over 3000 random samples (observed range [0.32, 1.41]);
# frozen with margin
SEPARATION_LO = 0.15
SEPARATION_HI = 3.0


def test_matrix_vector_separation_bounds():
    import math as _math

    from sgharm.exact import edge_word_matrix, word_product
    rng = random.Random(47)
    for _ in range(400):
        length = rng.randint(1, 20)
        w = "".join(rng.choice("01") for _ in range(length))
        u = _rand_cone_vector(rng)
        m2 = edge_word_matrix(w)
        den = m2.denominator
        fro = _math.sqrt(sum((v / den) ** 2 for row in m2.entries for v in row))
        ratio = word_product(w).apply(u).norm2() / (fro * u.norm2())
        assert SEPARATION_LO <= ratio <= SEPARATION_HI


def test_estimate_at_bits_widens_the_ball_and_caps_the_exact_power(monkeypatch):
    want = [estimate_at_bits(pre, "011", 10 ** 9) for pre in ("", "10110100")]
    certified, fixed = sgharm.holder._certified, []

    def recorded(ball, n):
        est = certified(ball, n)
        fixed.append(est is not None)
        return est

    # balls of 24 and 48 bits fix no estimate, but one four times as wide does
    monkeypatch.setattr(sgharm.holder, "_certified", recorded)
    monkeypatch.setattr(sgharm.holder, "_KEPT_BITS", 24)
    assert [estimate_at_bits(pre, "011", 10 ** 9) for pre in ("", "10110100")] == want
    assert fixed == [False, False, True] * 2
    # no ball fixes it: above the cap the exact power is refused at once
    for kept, refuse in ((4, recorded), (96, lambda ball, n: None)):
        monkeypatch.setattr(sgharm.holder, "_KEPT_BITS", kept)
        monkeypatch.setattr(sgharm.holder, "_certified", refuse)
        for nbits in (10 ** 9, sgharm.holder.ESTIMATE_EXACT_CAP + 1):
            fixed.clear()
            start = time.perf_counter()
            with pytest.raises(ValueError, match="exact power is taken only up to"):
                estimate_at_bits("10110100", "000110111", nbits)
            assert time.perf_counter() - start < 1.0
            assert not any(fixed)
