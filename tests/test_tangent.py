import math
import random
from fractions import Fraction

import pytest

import sgharm.exact
from sgharm.exact import (
    CHART_BASIS,
    Expansion,
    ExpansionVariant,
    MAJOR_EIGVEC_0,
    MAJOR_EIGVEC_1,
    MINOR_EIGVEC_0,
    MINOR_EIGVEC_1,
    QuadraticValue,
    complement_word,
    expand,
    expand_auto,
    generator_matrix,
    quad_sign,
    restrict_to_plane,
    word_product,
    _SWAP,
    _fold2,
    _mul2,
    _to_chart,
)
from sgharm.harmonic import FORM_PRESETS, LinearForm, curve_point
from sgharm.tangent import (
    CHART_DECREASES,
    CHART_DIAMETER,
    CHART_HI,
    CHART_LO,
    CONTRACTION_FACTOR,
    ConeError,
    KernelVerdict,
    Side,
    SideError,
    apply_projective,
    chart_of,
    direction_at,
    direction_at_rational,
    direction_vector,
    kernel_test,
    projective_word_matrix,
    _iterations_for,
)


def rand_chart(rng):
    k = 10 ** 6
    return Fraction(rng.randint(-k, k), 3 * k)


# ---------------------------------------------------------------------------
# charts


def test_chart_of_eigenvectors():
    assert chart_of(MAJOR_EIGVEC_0) == Fraction(1, 3)
    assert chart_of(MAJOR_EIGVEC_1) == Fraction(-1, 3)
    assert chart_of(MAJOR_EIGVEC_0 + MAJOR_EIGVEC_1) == 0


def test_chart_of_cone_error():
    with pytest.raises(ConeError):
        chart_of(MINOR_EIGVEC_0)
    with pytest.raises(ConeError):
        chart_of(-MAJOR_EIGVEC_0)


def test_chart_consistent_with_basis_decomposition():
    rng = random.Random(21)
    for _ in range(40):
        a = Fraction(rng.randint(0, 100), rng.randint(1, 50))
        b = Fraction(rng.randint(0, 100), rng.randint(1, 50))
        if a == b == 0:
            continue
        v = a * MAJOR_EIGVEC_0 + b * MAJOR_EIGVEC_1
        coeff_v = v.z
        coeff_w = 2 * v.y + v.z
        assert coeff_v == chart_of(v) * coeff_w
        assert v == coeff_v * CHART_BASIS[0] + coeff_w * CHART_BASIS[1]


# ---------------------------------------------------------------------------
# projective maps


def test_fixed_charts():
    assert apply_projective("0", Fraction(1, 3)) == Fraction(1, 3)
    assert apply_projective("1", Fraction(-1, 3)) == Fraction(-1, 3)


def test_single_intersection_point():
    # the two cone images only share the image of the opposite generators
    meet0 = apply_projective("0", Fraction(-1, 3))
    meet1 = apply_projective("1", Fraction(1, 3))
    assert meet0 == meet1 == 0
    # images of the chart interval: [0, 1/3] and [-1/3, 0]
    assert apply_projective("0", CHART_HI) == CHART_HI
    assert apply_projective("1", CHART_LO) == CHART_LO


def test_major_eigvec_exchange_identity():
    # exact matrix form of the same intersection fact
    lhs = word_product("0").apply(MAJOR_EIGVEC_1)
    rhs = word_product("1").apply(MAJOR_EIGVEC_0)
    assert lhs == rhs
    assert generator_matrix("0").apply(MAJOR_EIGVEC_0) == Fraction(3, 5) * MAJOR_EIGVEC_0
    assert generator_matrix("1").apply(MAJOR_EIGVEC_1) == Fraction(3, 5) * MAJOR_EIGVEC_1
    assert generator_matrix("0").apply(MINOR_EIGVEC_0) == Fraction(1, 5) * MINOR_EIGVEC_0
    assert generator_matrix("1").apply(MINOR_EIGVEC_1) == Fraction(1, 5) * MINOR_EIGVEC_1


def test_projective_matrix_matches_chart_restriction():
    rng = random.Random(22)
    from sgharm.exact import PlaneBasis

    for _ in range(10):
        w = "".join(rng.choice("01") for _ in range(rng.randint(1, 8)))
        scaled = restrict_to_plane(word_product(w), PlaneBasis.CHART)
        raw = projective_word_matrix(w)
        den = Fraction(1, 2 ** len(w) * 5 ** len(w))
        assert scaled.fractions() == tuple(tuple(v * den for v in row) for row in raw)


def test_cone_stability():
    rng = random.Random(23)
    for _ in range(200):
        x = rand_chart(rng)
        for sym in "01":
            y = apply_projective(sym, x)
            assert CHART_LO <= y <= CHART_HI


def test_contraction_factor_exact():
    rng = random.Random(24)
    for _ in range(300):
        x, y = rand_chart(rng), rand_chart(rng)
        for sym in "01":
            lhs = abs(apply_projective(sym, x) - apply_projective(sym, y))
            assert lhs <= Fraction(3, 4) * abs(x - y)


# ---------------------------------------------------------------------------
# directions


def test_direction_at_endpoints():
    d = direction_at(0, Side.RIGHT, tol=Fraction(1, 10 ** 10))
    assert abs(d.chart - Fraction(1, 3)) <= d.error
    d = direction_at(1, Side.LEFT, tol=Fraction(1, 10 ** 10))
    assert abs(d.chart - Fraction(-1, 3)) <= d.error


def test_direction_side_errors():
    with pytest.raises(SideError):
        direction_at(1, Side.RIGHT)
    with pytest.raises(SideError):
        direction_at(0, Side.LEFT)
    with pytest.raises(SideError):
        direction_at_rational(1, Side.RIGHT)


def test_direction_iterates_contract():
    s = Fraction(2, 7)
    prev = None
    last_gap = None
    for tol_exp in range(2, 10):
        d = direction_at(s, Side.RIGHT, tol=Fraction(1, 10 ** tol_exp))
        if prev is not None:
            gap = abs(d.chart - prev)
            if last_gap is not None and last_gap > 0:
                assert gap <= last_gap
            last_gap = gap
        prev = d.chart


def reference_iterations(tols):
    """The least n with (2/3) * (3/4)**n <= tol, for each tol, from one walk of
    the Fraction loop; "small" above 20000 and "positive" for tol <= 0."""
    out = {tol: "positive" for tol in tols if tol <= 0}
    pending = sorted((tol for tol in tols if tol > 0), reverse=True)
    n, cur = 0, CHART_DIAMETER
    while pending:
        while pending and cur <= pending[0]:
            out[pending.pop(0)] = n
        cur = cur * 3 / 4
        n += 1
        if n > 20000:
            out.update((tol, "small") for tol in pending)
            break
    return out


def test_iterations_for_matches_the_fraction_loop():
    tiny = Fraction(1, 10 ** 300)
    tols = {Fraction(1, 10 ** k) for k in range(320)}
    tols |= {Fraction(1, 10 ** 6021), Fraction(1e-9), Fraction(1, 2 ** 256),
             Fraction(3, 2), Fraction(0), Fraction(-1, 7)}
    for k in [*range(800), *range(800, 20000, 997), 19999, 20000, 20001]:
        edge = CHART_DIAMETER * CONTRACTION_FACTOR ** k
        tols |= {edge, edge * (1 + tiny), edge * (1 - tiny)}
    rng = random.Random(28)
    tols |= {Fraction(rng.randrange(1, 10 ** 6), 10 ** 6 << rng.randrange(40000))
             for _ in range(200)}
    reference = reference_iterations(tols)
    for tol in tols:
        if reference[tol] == "positive":
            with pytest.raises(ValueError, match="^tolerance must be positive$"):
                _iterations_for(tol)
        elif reference[tol] == "small":
            with pytest.raises(ValueError, match="^tolerance is unreasonably small$"):
                _iterations_for(tol)
        else:
            assert _iterations_for(tol) == reference[tol], tol
    edge = CHART_DIAMETER * CONTRACTION_FACTOR ** 20000
    assert reference[edge] == 20000 and reference[edge * (1 - tiny)] == "small"
    assert reference[Fraction(1, 2 ** 256)] == 616


def test_exact_direction_dyadic():
    q = direction_at_rational(0, Side.RIGHT)
    assert q.period == "0" and q.chart.as_fraction() == Fraction(1, 3)
    q = direction_at_rational(1, Side.LEFT)
    assert q.period == "1" and q.chart.as_fraction() == Fraction(-1, 3)
    q = direction_at_rational(Fraction(1, 2), Side.RIGHT)
    assert q.chart.as_fraction() == 0
    q = direction_at_rational(Fraction(1, 2), Side.LEFT)
    assert q.chart.as_fraction() == 0


def test_exact_direction_third():
    q = direction_at_rational(Fraction(1, 3))
    # root of 3x^2 - 8x + 1 inside the chart interval
    x = q.chart
    p, qq = x.as_pair()
    # evaluate 3x^2 - 8x + 1 in the quadratic field
    sq = (p * p + qq * qq * x.d, 2 * p * qq)
    expr = (3 * sq[0] - 8 * p + 1, 3 * sq[1] - 8 * qq)
    assert expr == (0, 0)
    assert x.compare(CHART_LO) > 0 and x.compare(CHART_HI) < 0


def test_exact_direction_satisfies_moebius_fixed_point():
    rng = random.Random(25)
    for _ in range(20):
        q = Fraction(rng.randint(1, 60), rng.randint(61, 97))
        qd = direction_at_rational(q)
        if qd.preperiod:
            continue
        (pp, qq), (rr, ss) = projective_word_matrix(qd.period)
        p, w = qd.chart.as_pair()
        sq = (p * p + w * w * qd.chart.d, 2 * p * w)
        expr = (rr * sq[0] + (ss - pp) * p - qq, rr * sq[1] + (ss - pp) * w)
        assert expr == (0, 0)


def test_period_maps_move_infinity():
    # every chart letter maps infinity and [-1, 1] into [-1, 1], and the swap
    # is diag(1, -1) in the chart, so no period map F or F @ _SWAP has a
    # chart with r == 0, the case that would send infinity to itself
    for n in range(1, 13):
        for bits in range(1 << n):
            f = _fold2(format(bits, f"0{n}b"))
            assert _to_chart(f)[1][0] != 0
            assert _to_chart(_mul2(f, _SWAP))[1][0] != 0


# ---------------------------------------------------------------------------
# Fraction reference for the integer fixed point and preperiod map


def _attracting_fixed_point(m):
    """The unique fixed point of the Moebius map inside the chart interval."""
    (p, q), (r, s) = m
    if r == 0:
        if p == s:
            raise ValueError("projective map is the identity")
        return QuadraticValue.from_pair(Fraction(q, s - p), Fraction(0), Fraction(0))
    disc = Fraction((s - p) ** 2 + 4 * r * q)
    if disc < 0:
        raise ValueError("projective map has no real fixed point")
    t0 = Fraction(p - s, r)
    d0 = disc / Fraction(r * r)
    candidates = [QuadraticValue(t0, d0, True), QuadraticValue(t0, d0, False)]
    inside = [c for c in candidates
              if c.compare(CHART_LO) >= 0 and c.compare(CHART_HI) <= 0]
    if len(inside) != 1:
        raise ValueError("expected exactly one fixed point in the chart interval")
    return inside[0]


def _moebius_quad(m, x):
    (pp, qq), (rr, ss) = m
    p, q = x.as_pair()
    d = x.d
    num = (pp * p + qq, pp * q)
    den = (rr * p + ss, rr * q)
    norm = den[0] * den[0] - den[1] * den[1] * d
    if norm == 0:
        raise ConeError("chart left the domain of the projective map")
    rp = (num[0] * den[0] - num[1] * den[1] * d) / norm
    rq = (num[1] * den[0] - num[0] * den[1]) / norm
    return QuadraticValue.from_pair(rp, rq, d)


def _reference_chart(e):
    chart = _attracting_fixed_point(projective_word_matrix(e.period))
    if e.preperiod:
        chart = _moebius_quad(projective_word_matrix(e.preperiod), chart)
    return chart


def _fields(chart):
    return (str(chart.t), str(chart.d), chart.plus_root)


def test_exact_direction_matches_fraction_reference():
    for q in range(1, 65):
        for p in range(q + 1):
            if math.gcd(p, q) != 1:
                continue
            for side in [side for side, ok in ((Side.RIGHT, p < q), (Side.LEFT, p > 0)) if ok]:
                qd = direction_at_rational(Fraction(p, q), side)
                e = Expansion(qd.preperiod, qd.period)
                assert _fields(qd.chart) == _fields(_reference_chart(e)), (p, q, side)


def test_exact_direction_matches_fraction_reference_long_words(monkeypatch):
    # long random words have denominators that expand() cannot factor quickly,
    # so the expansion is handed to direction_at_rational directly
    rng = random.Random(27)
    for k in range(20):
        period = "".join(rng.choice("01") for _ in range(rng.randrange(200, 3001)))
        if k >= 12:  # a period W + complement(W), which folds only W
            period = period[:len(period) // 2] + complement_word(period[:len(period) // 2])
        preperiod = ""
        if k % 2:
            preperiod = "".join(rng.choice("01") for _ in range(rng.randrange(1, 301)))
            preperiod = preperiod[:-1] + ("1" if period[-1] == "0" else "0")
        e = Expansion(preperiod, period)
        monkeypatch.setattr(sgharm.exact, "expand", lambda frac, variant, e=e: e)
        qd = direction_at_rational(e.value(), Side.RIGHT)
        assert (qd.period, qd.preperiod) == (period, preperiod)
        assert _fields(qd.chart) == _fields(_reference_chart(e)), k


def test_exact_matches_iterative():
    rng = random.Random(26)
    tol = Fraction(1, 10 ** 12)
    for s in (Fraction(1, 3), Fraction(1, 5), Fraction(5, 31), Fraction(3, 8),
              Fraction(rng.randint(1, 30), 31)):
        qd = direction_at_rational(s, Side.RIGHT)
        pd = direction_at(s, Side.RIGHT, tol=tol)
        p, q = qd.chart.as_pair()
        diff_sign_hi = quad_sign(p - (pd.chart + pd.error), q, qd.chart.d)
        diff_sign_lo = quad_sign(p - (pd.chart - pd.error), q, qd.chart.d)
        assert diff_sign_hi <= 0 <= diff_sign_lo


def test_rational_and_expansion_arguments_agree():
    # an Expansion is read by its value, so at a dyadic either expansion, also
    # one rebuilt from its letters, gives the rational's direction on each side
    tol = Fraction(1, 10 ** 6)
    for s in sorted({Fraction(p, q) for q in range(1, 33) for p in range(q + 1)}):
        assert curve_point(s, 20) == curve_point(expand_auto(s), 20)
        expansions = [expand(s, variant) for variant in ExpansionVariant
                      if (variant, s) not in ((ExpansionVariant.UPPER, 1),
                                              (ExpansionVariant.LOWER, 0))]
        expansions += [Expansion.parse(str(e)) for e in expansions]
        for side in Side:
            if (side is Side.RIGHT and s == 1) or (side is Side.LEFT and s == 0):
                continue
            got = direction_at(s, side, tol=tol)
            for e in expansions:
                want = direction_at(e, side, tol=tol)
                assert (want.chart, want.error, want.source) == (got.chart, got.error, s), \
                    (s, side, str(e))


def test_two_sides_agree_at_nondyadic():
    for s in (Fraction(1, 3), Fraction(5, 31)):
        r = direction_at_rational(s, Side.RIGHT)
        l = direction_at_rational(s, Side.LEFT)
        assert r.chart == l.chart


def test_two_sides_agree_at_dyadic():
    # dyadic directions are rational charts; both one-sided limits coincide
    for s in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 8), Fraction(5, 16)):
        r = direction_at_rational(s, Side.RIGHT).chart.as_fraction()
        l = direction_at_rational(s, Side.LEFT).chart.as_fraction()
        assert r is not None and r == l


def test_chart_monotone_on_grid():
    assert CHART_DECREASES
    tol = Fraction(1, 10 ** 9)
    step = 64
    charts = [direction_at(Fraction(k, 1024), Side.RIGHT, tol=tol).chart
              for k in range(0, 1024, step)]
    for a, b in zip(charts, charts[1:]):
        assert a > b
    left_end = direction_at(1, Side.LEFT, tol=tol).chart
    assert charts[-1] > left_end - 2 * tol


# ---------------------------------------------------------------------------
# kernel tests


def test_kernel_exceptional_pairs():
    chi = FORM_PRESETS["chi"]
    xi = FORM_PRESETS["xi"]
    assert kernel_test(chi, direction_at_rational(0)) is KernelVerdict.IN_KERNEL
    assert kernel_test(xi, direction_at_rational(1)) is KernelVerdict.IN_KERNEL


def test_kernel_constant_form():
    ones = LinearForm.of(1, 1, 1)
    for s in (0, Fraction(1, 3), Fraction(2, 5)):
        assert kernel_test(ones, direction_at_rational(s)) is KernelVerdict.IN_KERNEL


def test_kernel_generic_not_in():
    phi = FORM_PRESETS["phi"]
    psi = FORM_PRESETS["psi"]
    for s in (0, Fraction(1, 2), Fraction(1, 3), 1):
        assert kernel_test(phi, direction_at_rational(s)) is KernelVerdict.NOT_IN_KERNEL
        assert kernel_test(psi, direction_at_rational(s)) is KernelVerdict.NOT_IN_KERNEL


def test_kernel_interval_path():
    phi = FORM_PRESETS["phi"]
    pd = direction_at(Fraction(1, 3), Side.RIGHT, tol=Fraction(1, 100))
    assert kernel_test(phi, pd) is KernelVerdict.NOT_IN_KERNEL
    chi = FORM_PRESETS["chi"]
    # at 0 the true value is exactly zero: the interval path must refine to
    # exhaustion and admit it cannot decide
    pd = direction_at(0, Side.RIGHT, tol=Fraction(1, 100))
    assert kernel_test(chi, pd) is KernelVerdict.UNDETERMINED


def test_kernel_interval_refinement_progresses():
    # coarse start still separates after internal refinement
    psi = FORM_PRESETS["psi"]
    pd = direction_at(Fraction(1, 5), Side.RIGHT, tol=Fraction(1, 4))
    assert kernel_test(psi, pd) is KernelVerdict.NOT_IN_KERNEL


def test_direction_vector_properties():
    for arg in (Fraction(1, 3), direction_at_rational(Fraction(1, 3)),
                direction_at(Fraction(1, 5), Side.RIGHT)):
        vec = direction_vector(arg)
        assert abs(sum(vec)) < 1e-12
        assert abs(sum(c * c for c in vec) - 1.0) < 1e-12
