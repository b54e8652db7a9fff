import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import sgharm.exact
from sgharm.exact import (
    CHART_BASIS,
    DIFFERENCE_CONE,
    EDGE_BASIS,
    MAJOR_EIGVEC_0,
    MAJOR_EIGVEC_1,
    MINOR_EIGVEC_0,
    OUTER_CONE,
    PERIOD_CAP,
    ConeSpec,
    DegenerateEigenvalueError,
    Expansion,
    ExpansionVariant,
    PlaneBasis,
    QuadraticValue,
    ScaledIntMat2,
    ScaledIntMat3,
    Vec3Q,
    chart_word_matrix,
    dominant_eigen,
    edge_word_matrix,
    expand,
    expand_auto,
    expansion_value,
    generator_matrix,
    in_value_triangle,
    lyndon_words,
    max_cyclic_run,
    min_rotation,
    necklace_classes,
    plane_trace,
    quad_sign,
    restrict_to_plane,
    transition_density,
    word_product,
    _mult_order_2,
    _prefix_bits,
)

UPPER = ExpansionVariant.UPPER
LOWER = ExpansionVariant.LOWER


def rand_word(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


# ---------------------------------------------------------------------------
# generator matrices and word products


def test_generator_entries():
    assert generator_matrix("0").entries == ((5, 2, 2), (0, 2, 1), (0, 1, 2))
    assert generator_matrix("1").entries == ((2, 0, 1), (2, 5, 2), (1, 0, 2))
    assert generator_matrix("w").entries == ((2, 1, 0), (1, 2, 0), (2, 2, 5))
    assert all(generator_matrix(s).pow5 == 1 for s in "01w")
    assert generator_matrix("ω") is generator_matrix("w")


def test_generators_fix_their_corner():
    e = (Vec3Q.of(1, 0, 0), Vec3Q.of(0, 1, 0), Vec3Q.of(0, 0, 1))
    for sym, v in zip("01w", e):
        assert generator_matrix(sym).apply(v) == v


def test_word_product_empty_and_example():
    ident = word_product("")
    assert ident.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1)) and ident.pow5 == 0
    m = word_product("01")
    assert m.pow5 == 2
    assert m.apply(Vec3Q.of(1, 0, 0)) == Vec3Q.of(
        Fraction(16, 25), Fraction(5, 25), Fraction(4, 25))


def test_power_trace_matches_eigenvalues():
    for n in (1, 2, 5, 9):
        m = word_product("0" * n)
        expected = 1 + Fraction(3, 5) ** n + Fraction(1, 5) ** n
        assert m.trace() == expected


def test_column_sums_random_words():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(0, 64)
        m = word_product(rand_word(rng, n))
        target = 5 ** m.pow5
        for j in range(3):
            assert sum(m.entries[i][j] for i in range(3)) == target


def test_column_sum_violation_rejected():
    with pytest.raises(ValueError):
        ScaledIntMat3(((5, 2, 2), (0, 2, 1), (0, 1, 3)), 1)


# ---------------------------------------------------------------------------
# plane restrictions


def _solve_restriction(m, basis):
    """Independent 2x2 restriction via a direct linear solve."""
    b0, b1 = basis
    cols = []
    for b in basis:
        img = m.apply(b)
        # solve a*b0 + c*b1 = img using x and y coordinates
        det = b0.x * b1.y - b1.x * b0.y
        a = (img.x * b1.y - img.y * b1.x) / det
        c = (b0.x * img.y - b0.y * img.x) / det
        assert a * b0.z + c * b1.z == img.z
        cols.append((a, c))
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


@pytest.mark.parametrize("word,expected", [
    ("0", ((3, 0), (1, 1))),
    ("1", ((2, -1), (-1, 2))),
    ("01", ((6, -3), (1, 1))),
])
def test_edge_restriction_frozen_and_solved(word, expected):
    m2 = restrict_to_plane(word_product(word))
    assert m2.entries == expected
    assert m2.pow5 == len(word) and m2.pow2 == 0
    solved = _solve_restriction(word_product(word), EDGE_BASIS)
    den = 5 ** len(word)
    assert solved == tuple(tuple(Fraction(v, den) for v in row) for row in expected)


def test_chart_restriction_against_solver():
    rng = random.Random(7)
    for _ in range(10):
        w = rand_word(rng, rng.randint(1, 6))
        m2 = restrict_to_plane(word_product(w), PlaneBasis.CHART)
        assert m2.pow2 == 1
        solved = _solve_restriction(word_product(w), CHART_BASIS)
        assert m2.fractions() == solved


def test_edge_word_matrix_matches_restriction():
    rng = random.Random(3)
    for _ in range(15):
        w = rand_word(rng, rng.randint(0, 12))
        a = edge_word_matrix(w)
        b = restrict_to_plane(word_product(w))
        assert a.entries == b.entries and a.pow5 == b.pow5
    c = chart_word_matrix("01")
    d = restrict_to_plane(word_product("01"), PlaneBasis.CHART)
    assert c.fractions() == d.fractions()


def test_plane_trace_examples():
    assert plane_trace(word_product("0")) == Fraction(4, 5)
    assert plane_trace(word_product("0011")) == Fraction(34, 625)
    assert plane_trace(word_product("")) == 2


def test_plane_trace_equals_restriction_trace_and_cyclic():
    rng = random.Random(11)
    for _ in range(15):
        w = rand_word(rng, rng.randint(1, 16))
        m = word_product(w)
        assert plane_trace(m) == restrict_to_plane(m).trace()
        assert plane_trace(m) == restrict_to_plane(m, PlaneBasis.CHART).trace()
        for r in range(1, len(w)):
            assert plane_trace(word_product(w[r:] + w[:r])) == plane_trace(m)


def test_restriction_determinant():
    rng = random.Random(13)
    for _ in range(15):
        w = rand_word(rng, rng.randint(0, 20))
        assert edge_word_matrix(w).det() == Fraction(3, 25) ** len(w)
        assert restrict_to_plane(word_product(w), PlaneBasis.CHART).det() == \
            Fraction(3, 25) ** len(w)


def test_mixed_basis_product_rejected():
    with pytest.raises(ValueError):
        edge_word_matrix("0") @ chart_word_matrix("1")


# ---------------------------------------------------------------------------
# quadratic eigenvalues


def test_dominant_eigen_quadratic():
    lam, mu, _ = dominant_eigen(edge_word_matrix("01"))
    assert (lam.t, lam.d) == (Fraction(7, 25), Fraction(13, 625))
    assert lam.plus_root and not mu.plus_root
    assert abs(float(lam) - (7 + math.sqrt(13)) / 50) < 1e-15


def test_dominant_eigen_rational_case():
    lam, mu, vec = dominant_eigen(edge_word_matrix("0"))
    assert lam.as_fraction() == Fraction(3, 5)
    assert mu.as_fraction() == Fraction(1, 5)


def test_dominant_eigen_degenerate():
    scaled_identity = ScaledIntMat2(((3, 0), (0, 3)), 1)
    with pytest.raises(DegenerateEigenvalueError):
        dominant_eigen(scaled_identity)


def test_eigen_sum_product_identities():
    rng = random.Random(17)
    for _ in range(20):
        w = rand_word(rng, rng.randint(1, 12))
        m = edge_word_matrix(w)
        lam, mu, _ = dominant_eigen(m)
        assert lam.sum_with_conjugate() == m.trace()
        assert lam.product_with_conjugate() == m.det()
        assert lam.compare(Fraction(0)) > 0 and mu.compare(Fraction(0)) > 0
        assert quad_sign(lam.as_pair()[0] - mu.as_pair()[0],
                         lam.as_pair()[1] - mu.as_pair()[1], lam.d) > 0


def _qf_mul(a, b, d):
    return (a[0] * b[0] + a[1] * b[1] * d, a[0] * b[1] + a[1] * b[0])


def _pair_in_field(v, d):
    """(p, q) with value = p + q*sqrt(d); rational values embed with q = 0."""
    if v.d == 0:
        return (v.t / 2, Fraction(0))
    assert v.d == d
    return v.as_pair()


def test_eigenvector_satisfies_eigen_equation():
    rng = random.Random(19)
    for _ in range(12):
        w = rand_word(rng, rng.randint(1, 10))
        m = edge_word_matrix(w)
        lam, _, (v1, v2) = dominant_eigen(m)
        (a, b), (c, dd) = m.fractions()
        lp = lam.as_pair()
        p1, q1 = _pair_in_field(v1, lam.d)
        p2, q2 = _pair_in_field(v2, lam.d)
        for row, vec_val in (((a, b), v1), ((c, dd), v2)):
            lhs = (row[0] * p1 + row[1] * p2, row[0] * q1 + row[1] * q2)
            rhs = _qf_mul(lp, _pair_in_field(vec_val, lam.d), lam.d)
            assert lhs == rhs


def test_quadratic_compare():
    lam = QuadraticValue(Fraction(7, 25), Fraction(13, 625))
    assert lam.compare(Fraction(1, 4)) < 0
    assert lam.compare(Fraction(1, 5)) > 0
    assert QuadraticValue(Fraction(6, 5), Fraction(4, 25)).compare(Fraction(4, 5)) == 0
    assert QuadraticValue.from_pair(Fraction(1, 2), Fraction(-1, 3), Fraction(2)).compare(0) > 0


# ---------------------------------------------------------------------------
# expansions


def test_expand_examples():
    e = expand(Fraction(1, 3))
    assert (e.preperiod, e.period) == ("", "01")
    up = expand(Fraction(1, 2))
    lo = expand(Fraction(1, 2), LOWER)
    assert (up.preperiod, up.period) == ("1", "0")
    assert (lo.preperiod, lo.period) == ("0", "1")
    e = expand(Fraction(5, 31))
    assert (e.preperiod, e.period) == ("", "00101")


def test_expand_endpoints():
    assert (expand(0).preperiod, expand(0).period) == ("", "0")
    assert (expand(1, LOWER).preperiod, expand(1, LOWER).period) == ("", "1")
    with pytest.raises(ValueError):
        expand(1, UPPER)
    with pytest.raises(ValueError):
        expand(0, LOWER)
    assert expand_auto(1).period == "1"
    assert expand_auto(0).period == "0"


def test_expand_auto_switches_variant_only_at_the_missing_endpoint(monkeypatch):
    assert expand_auto(1) == expand(1, LOWER)
    assert expand_auto(0) == expand(0, UPPER)
    assert expand_auto(Fraction(1, 2)) == expand(Fraction(1, 2), UPPER)
    for s in (Fraction(3, 2), Fraction(-1, 5)):
        with pytest.raises(ValueError, match="outside"):
            expand_auto(s)
    # an error inside expand is not retried in the other variant
    orders = []
    monkeypatch.setattr(sgharm.exact, "PERIOD_CAP", 10)
    monkeypatch.setattr(sgharm.exact, "_mult_order_2",
                        lambda m: orders.append(m) or _mult_order_2(m))
    with pytest.raises(ValueError, match="exceeds the cap 10"):
        expand_auto(Fraction(1, 23))
    assert orders == [23]


def test_period_cap(monkeypatch):
    assert PERIOD_CAP >= 1000002  # the longest periods served, at 1/1000003
    # 2 has order q - 1 = 2097210 modulo the prime q = 2097211
    with pytest.raises(ValueError, match=f"^period of at least 2\\*\\*21 letters exceeds "
                                         f"the cap {PERIOD_CAP}$"):
        expand(Fraction(1, 2097211))
    # 2 has order 10 modulo 11 and 11 modulo 23
    monkeypatch.setattr(sgharm.exact, "PERIOD_CAP", 10)
    assert len(expand(Fraction(1, 11)).period) == 10
    for variant in (UPPER, LOWER):
        with pytest.raises(ValueError, match="exceeds the cap 10"):
            expand(Fraction(5, 46), variant)


def test_expand_domain_error():
    with pytest.raises(ValueError):
        expand(Fraction(3, 2))
    with pytest.raises(ValueError):
        expand(Fraction(-1, 5))


def test_expansion_value_examples():
    assert Expansion("", "01").value() == Fraction(1, 3)
    assert Expansion("1", "0").value() == Fraction(1, 2)
    assert Expansion("", "0000001").value() == Fraction(1, 127)


def test_expansion_validation():
    with pytest.raises(ValueError):
        Expansion("", "")
    with pytest.raises(ValueError):
        Expansion("", "0101")  # not primitive
    with pytest.raises(ValueError):
        Expansion("10", "10")  # sharing last bit with period: mergeable
    with pytest.raises(ValueError):
        Expansion("", "02")
    for n in range(1, 17):
        for i in range(1 << n):
            word = format(i, f"0{n}b")
            primitive = all(word != word[:d] * (n // d) for d in range(1, n) if n % d == 0)
            try:
                Expansion("", word)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == primitive, word


def test_expansion_negative_positions_rejected():
    e = Expansion("10", "01")
    assert e.bits(0) == "" and e.bits(5) == "10010" and e.bit(0) == 1
    for n in (-1, -2, -7):
        with pytest.raises(ValueError, match="bit count must be nonnegative"):
            e.bits(n)
        with pytest.raises(ValueError, match="bit index must be nonnegative"):
            e.bit(n)


def test_expansion_serialization_round_trip():
    e = expand(Fraction(11, 24))
    assert str(e) == f"0.{e.preperiod}({e.period})"
    assert Expansion.parse(str(e)) == e
    # the letters are the whole expansion: the lower one of a dyadic, read
    # back from its text, is the lower expansion
    assert Expansion.parse("0.0(1)") == expand(Fraction(1, 2), LOWER)


def _long_division_oracle(p, q):
    """Slow remainder-tracking expansion for cross-checking."""
    seen = {}
    digits = []
    r = p
    while r not in seen:
        seen[r] = len(digits)
        r *= 2
        digits.append(str(r // q))
        r %= q
    j = seen[r]
    return "".join(digits[:j]), "".join(digits[j:])


def test_expand_against_long_division():
    rng = random.Random(23)
    for _ in range(200):
        q = rng.randint(2, 400)
        p = rng.randint(1, q - 1)
        s = Fraction(p, q)
        if (s.denominator & (s.denominator - 1)) == 0:
            continue
        e = expand(s)
        assert (e.preperiod, e.period) == _long_division_oracle(s.numerator, s.denominator)
        # off the dyadics both variants have the same letters, so they are equal
        assert expand(s, LOWER) == e


def test_expand_round_trip_large():
    rng = random.Random(29)
    for _ in range(1000):
        q = rng.randint(1, 10 ** 6)
        p = rng.randint(0, q)
        s = Fraction(p, q)
        for variant in (UPPER, LOWER):
            if (variant is UPPER and s == 1) or (variant is LOWER and s == 0):
                continue
            e = expand(s, variant)
            assert e.value() == s
            assert expand(e.value(), variant) == e


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _check_prefix(s, variant, lengths):
    """_prefix_bits against expand(...).bits and against the definition."""
    e = _outcome(expand, s, variant)
    for n in lengths:
        got = _outcome(_prefix_bits, s, n, variant)
        assert got == (e.bits(n) if isinstance(e, Expansion) else e), (s, n, variant)
        if isinstance(got, str):
            # upper: k <= s * 2**n < k + 1; lower: k < s * 2**n <= k + 1
            k, x = int(got, 2) if n else 0, s * 2 ** n
            assert len(got) == n
            assert (k <= x < k + 1) if variant is UPPER else (k < x <= k + 1), (s, n, variant)


def test_prefix_bits_matches_expand():
    for q in range(1, 130):
        for p in range(-1, q + 2):
            for variant in (UPPER, LOWER):
                _check_prefix(Fraction(p, q), variant, (0, 1, 7, 48, 100))


@given(st.integers(1, 10 ** 5 - 1).flatmap(
           lambda q: st.builds(Fraction, st.integers(0, q), st.just(q))),
       st.sampled_from(ExpansionVariant), st.integers(0, 400))
def test_prefix_bits_property(s, variant, n):
    _check_prefix(s, variant, (n,))


def test_mult_order_2_against_sympy():
    from sympy.ntheory import n_order

    rng = random.Random(31)
    primes = [p for p in range(3, 5000, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
    semiprimes = [rng.choice(primes) * rng.choice(primes) for _ in range(200)]
    carmichael = [561, 1105, 1729, 2465, 2821]
    mersenne = [(1 << p) - 1 for p in range(2, 32)]
    for m in [*range(3, 20000, 2), *semiprimes, *carmichael, *mersenne]:
        assert _mult_order_2(m) == n_order(2, m), m


# ---------------------------------------------------------------------------
# necklaces and word statistics


def test_necklace_examples():
    assert necklace_classes(5, dedupe_complement=True) == ["00001", "00011", "00101"]
    assert len(necklace_classes(7, dedupe_complement=True)) == 9
    assert len(necklace_classes(7, dedupe_complement=False)) == 18
    assert necklace_classes(1, dedupe_complement=True) == ["0"]


def _brute_necklaces(length):
    reps = set()
    for k in range(2 ** length):
        w = format(k, f"0{length}b")
        if any(length % d == 0 and w == w[:d] * (length // d)
               for d in range(1, length)):
            continue
        reps.add(min_rotation(w))
    return sorted(reps)


@pytest.mark.parametrize("length", range(1, 13))
def test_necklace_counts_against_brute_force(length):
    fast = necklace_classes(length)
    assert fast == _brute_necklaces(length)
    deduped = necklace_classes(length, dedupe_complement=True)
    assert set(deduped) <= set(fast)
    # every class is reachable from a deduped representative via complement
    from sgharm.exact import complement_word
    covered = set(deduped) | {min_rotation(complement_word(w)) for w in deduped}
    assert covered == set(fast)


def test_lyndon_words_are_canonical():
    for length in range(1, 9):
        for w in lyndon_words(length):
            assert w == min_rotation(w)


def test_transition_density():
    assert transition_density("01") == 1
    assert transition_density("0") == 0
    assert transition_density("0000001") == Fraction(2, 7)


def test_max_cyclic_run():
    assert max_cyclic_run("0") == math.inf
    assert max_cyclic_run("01") == 1
    assert max_cyclic_run("0011") == 2
    assert max_cyclic_run("0001011") == 3
    assert max_cyclic_run("0110") == 2  # wraps around: ...0110 0110... has run 2


# ---------------------------------------------------------------------------
# cones


def test_difference_cone_membership():
    assert DIFFERENCE_CONE.contains(MAJOR_EIGVEC_0)
    assert DIFFERENCE_CONE.contains(MAJOR_EIGVEC_0 + MAJOR_EIGVEC_1)
    assert not DIFFERENCE_CONE.contains(-MAJOR_EIGVEC_0)
    assert not DIFFERENCE_CONE.contains(Vec3Q.of(0, 0, 0))
    assert not DIFFERENCE_CONE.contains(MINOR_EIGVEC_0)
    assert not DIFFERENCE_CONE.contains(Vec3Q.of(1, 1, 1))  # outside the plane


def test_outer_cone_contains_difference_cone_generators():
    assert OUTER_CONE.contains(MAJOR_EIGVEC_0)
    assert OUTER_CONE.contains(MAJOR_EIGVEC_1)


def test_cone_requires_independent_generators():
    with pytest.raises(ValueError):
        ConeSpec(MAJOR_EIGVEC_0, 2 * MAJOR_EIGVEC_0)


def test_value_triangle():
    assert in_value_triangle(Vec3Q.of(1, 0, 0))
    assert in_value_triangle(Vec3Q.of(Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)))
    assert not in_value_triangle(Vec3Q.of(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    assert not in_value_triangle(Vec3Q.of(2, -1, 0))
