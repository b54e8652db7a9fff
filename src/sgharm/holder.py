"""Holder exponents and derivative classification along the side.

Exact exponents at rational parameters through the dominant eigenvalue of
the period's plane restriction, log-space norm estimates on arbitrary bit
streams, transition-density bounds, the exponent table for short periods,
and the two exploratory experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .exact import (
    Expansion,
    Mat2i,
    QuadraticValue,
    RationalLike,
    TableCapExceeded,
    max_cyclic_run,
    necklace_classes,
    transition_density,
    _auto_variant,
    _coprime_fraction,
    _exponent_sign,
    _fold2,
    _fold_bits,
    _in_kernel,
    _mul2,
    _pairwise,
    _period_map,
    _rational_period,
    _RationalRecord,
)

if TYPE_CHECKING:
    from .harmonic import LinearForm

LN2 = math.log(2.0)
LN5 = math.log(5.0)
LOG2_5 = math.log2(5.0)

# Exponent at every dyadic parameter; also the global lower bound.
MIN_EXPONENT = math.log2(5.0 / 3.0)

TABLE_LENGTH_CAP = 20


class DerivativeClass(Enum):
    ZERO = "zero"
    INFINITE = "infinite"
    EXCEPTIONAL = "exceptional"


@dataclass(frozen=True)
class HolderReport:
    """Full exponent analysis of one rational parameter."""

    s: Fraction
    expansion: Expansion
    period: str
    period_length: int
    scaled_trace: int
    alpha: float
    alpha_lo: float
    alpha_hi: float
    derivative_class: DerivativeClass

    @property
    def top_eigenvalue(self) -> QuadraticValue:
        """Dominant eigenvalue of the period's restriction, built when read."""
        t, n = self.scaled_trace, self.period_length
        (tn, tk), (dn, dk) = _over_power_of_5(t, n), _over_power_of_5(t * t - 4 * 3 ** n, 2 * n)
        return QuadraticValue(_coprime_fraction(tn, 5 ** tk), _coprime_fraction(dn, 5 ** dk))

    @property
    def enclosure_width(self) -> float:
        return self.alpha_hi - self.alpha_lo

    def to_dict(self) -> dict:
        return {
            "s": str(self.s),
            "expansion": str(self.expansion),
            "period": self.period,
            "period_length": self.period_length,
            "scaled_trace": self.scaled_trace,
            "alpha": self.alpha,
            "alpha_enclosure_width": self.enclosure_width,
            "derivative_class": self.derivative_class.value,
        }

    def csv_row(self) -> list[str]:
        return [str(self.s), self.period, str(self.period_length),
                str(self.scaled_trace), repr(self.alpha),
                repr(self.enclosure_width), self.derivative_class.value]


TABLE_CSV_HEADER = ["s", "period", "n", "scaled_trace", "alpha",
                    "alpha_enclosure_width", "derivative_class"]


@dataclass(frozen=True)
class EstimateTrace:
    """Exponent estimates read off finite prefixes of a bit stream."""

    points: tuple[tuple[int, float], ...]

    def final(self) -> float:
        return self.points[-1][1]


def _over_power_of_5(x: int, k: int) -> tuple[int, int]:
    """x / 5**k in lowest terms, as (numerator, exponent of the denominator):
    the same integers as Fraction's, without a gcd."""
    while k and x % 5 == 0:
        x //= 5
        k -= 1
    return x, k


@lru_cache(maxsize=None)  # alpha_enclosure asks at its ten precisions 64 ... 32768
def _ln_half(prec: int):
    """Interval of ln(1/2) at prec bits, rounded outward."""
    from mpmath.libmp import fhalf, mpi_log

    return mpi_log((fhalf, fhalf), prec)


# alpha_enclosure rounds its operands from the exact integers while 5**(2*n)
# has at most this many bits, and from intervals above: building and rounding
# the exact powers then costs more than the intervals.
_EXACT_OPERAND_BITS = 11000
# An operand rounded to prec bits is enclosed at prec + _GUARD_BITS bits.
_GUARD_BITS = 64
# The power of 5 dividing t*t - 4*3**n is first read modulo 5**_RESIDUE_DIGITS,
# which fits one 30-bit digit of a Python int.
_RESIDUE_DIGITS = 12


def _disc_power_of_5(t: int, n: int) -> int:
    """The exponent j of the power of 5 that _over_power_of_5(t*t - 4*3**n,
    2*n) divides out, from residues modulo 5**digits, with the digits doubled
    from _RESIDUE_DIGITS until the residue is nonzero or they reach 2*n."""
    digits = _RESIDUE_DIGITS
    while True:
        m = 5 ** digits
        x = ((t % m) ** 2 - 4 * pow(3, n, m)) % m
        if x or digits >= 2 * n:  # a zero residue has every power of 5 up to 2*n
            return 2 * n - _over_power_of_5(x, 2 * n)[1]
        digits *= 2


def _enclosure_intervals(t: int, n: int, tk: int, j: int, bits: int):
    """mpmath intervals of 5**tk, (t*t - 4*3**n) / 5**j and 5**(2*n - j) at
    bits bits, with none of the three built.  Each operation rounds its lower
    end down and its upper end up, and mpf_pow_int truncates every product
    of its squarings in the requested direction, so each interval holds its
    exact integer."""
    from mpmath.libmp import (from_int, from_man_exp, mpf_shift, mpi_div, mpi_mul, mpi_pow_int,
                              mpi_sub, round_ceiling, round_floor)

    three, five, f = (from_man_exp(3, 0),) * 2, (from_man_exp(5, 0),) * 2, from_int(5 ** j)
    top = from_int(t, bits, round_floor), from_int(t, bits, round_ceiling)
    # 4*3**n / (t*t) is at most 4*mu/lam for the period's two eigenvalues, so
    # the difference cancels no leading bits, and the division by the exact
    # 5**j keeps its relative width
    lo, hi = mpi_pow_int(three, n, bits)
    disc = mpi_sub(mpi_mul(top, top, bits), (mpf_shift(lo, 2), mpf_shift(hi, 2)), bits)
    # 5**(2*n - j) is (5**tk)**2 times a short power of 5: as 5 does not
    # divide 4*3**n, it divides t (tk < n) or the discriminant (j > 0), not both
    p5 = mpi_pow_int(five, tk, bits)
    return p5, mpi_div(disc, (f, f), bits), mpi_mul(
        mpi_pow_int(p5, 2, bits), mpi_pow_int(five, 2 * (n - tk) - j, bits), bits)


def alpha_enclosure(t: int, n: int, width: float = 1e-12) -> tuple[float, float]:
    """Certified float enclosure of ln(lam)/(n ln 1/2) for the dominant
    eigenvalue lam = (t + sqrt(t*t - 4*3**n)) / (2*5**n) of an n-letter
    period with scaled trace t.

    lam is built from t / 5**n and (t*t - 4*3**n) / 25**n in lowest terms,
    tn / 5**tk and dn / 5**dk, each operand floored and ceiled at the
    working precision.  tn and n are rounded from the exact integers.  So
    are 5**tk, dn and 5**dk while 5**(2*n) is short (_EXACT_OPERAND_BITS).
    Above that, they are enclosed by mpmath's directed rounding at the
    precision plus _GUARD_BITS bits (_enclosure_intervals), and the power of
    5 taken out of dn is read from residues, so 5**tk, 5**dk, 3**n and t*t
    are not built.  An interval is used only when its two ends round to the
    same floor and the same ceiling (Ziv's test); otherwise the exact
    operand is built and rounded.  Either way the operands are those of the
    exact integers, bit for bit.

    Precision is doubled until the enclosure is narrower than `width` and
    separated from 1 (always possible: the exponent of a rational parameter
    is never 1).  Every operation gets its precision as an argument, so no
    mpmath context is read or written.
    """
    # only the exponent commands pay for the import
    from mpmath.libmp import (from_int, fzero, mpf_gt, mpf_pos, mpf_shift, mpi_add, mpi_div,
                              mpi_log, mpi_mul, mpi_sqrt, round_ceiling, round_floor,
                              round_nearest, to_float)

    def interval(x: int):
        return from_int(x, prec, round_floor), from_int(x, prec, round_ceiling)

    def rounded(iv, exact: Callable[[], int]):
        lo, hi = [(mpf_pos(x, prec, round_floor), mpf_pos(x, prec, round_ceiling)) for x in iv]
        if mpf_gt(iv[0], fzero) and lo == hi:  # every number of the interval rounds alike
            return lo
        return interval(exact())

    # the trace t/5**n and the discriminant over 25**n in lowest terms
    tn, tk = _over_power_of_5(t, n)
    j = None if 2 * n * LOG2_5 <= _EXACT_OPERAND_BITS else _disc_power_of_5(t, n)
    if j is None:
        dn, dk = _over_power_of_5(t * t - 4 * 3 ** n, 2 * n)
        operands = 5 ** tk, dn, 5 ** dk
    else:  # built only for an interval that fails Ziv's test
        exact = (lambda: 5 ** tk, lambda: (t * t - 4 * 3 ** n) // 5 ** j,
                 lambda: 5 ** (2 * n - j))
    prec = 64
    while True:
        if j is None:
            tden, dnum, dden = map(interval, operands)
        else:
            intervals = _enclosure_intervals(t, n, tk, j, prec + _GUARD_BITS)
            tden, dnum, dden = map(rounded, intervals, exact)
        trace = mpi_div(interval(tn), tden, prec)
        root = mpi_sqrt(mpi_div(dnum, dden, prec), prec)
        total = mpi_add(trace, root, prec)
        lam = mpf_shift(total[0], -1), mpf_shift(total[1], -1)  # halving is exact
        if mpf_gt(lam[0], fzero):
            a, b = mpi_div(mpi_log(lam, prec), mpi_mul(interval(n), _ln_half(prec), prec), prec)
            # each end to the nearest float, then one step outward
            lo = math.nextafter(to_float(a, rnd=round_nearest), -math.inf)
            hi = math.nextafter(to_float(b, rnd=round_nearest), math.inf)
            if hi - lo <= width and not lo <= 1.0 <= hi:
                return lo, hi
        prec *= 2
        if prec > 1 << 15:
            raise ArithmeticError("exponent enclosure did not converge")


def _scaled_trace(tr: int, h: int, n: int, p3: int) -> int:
    """Scaled trace t of an n-letter period whose period map (F, h) has the
    trace tr, with p3 = 3**h: the period's dominant eigenvalue is lam = (t +
    sqrt(t*t - 4*3**n)) / (2*5**n), and t is tr, or tr*tr + 2*p3, the trace
    of F**2, when F covers half the period in h letters."""
    return tr if h == n else tr * tr + 2 * p3


def _period_sign(period: str) -> tuple[int, int]:
    """Scaled trace of a period word and the exact sign of lam - 2**-n."""
    m, h = _period_map(period)
    p3 = 3 ** h
    tr, sign = _exponent_sign(m, h, p3)
    return _scaled_trace(tr, h, len(period), p3), sign


def _derivative_class(sign: int) -> DerivativeClass:
    if sign == 0:
        raise AssertionError("exponent 1 is impossible at rational parameters")
    return DerivativeClass.ZERO if sign < 0 else DerivativeClass.INFINITE


def _report(frac: Fraction, rec: _RationalRecord) -> HolderReport:
    """The exponent report at frac, from the record of its expansion."""
    e, (tr, sign) = rec.e, rec.sign()
    n = len(e.period)
    t = _scaled_trace(tr, rec.h, n, rec.power3())
    lo, hi = alpha_enclosure(t, n)
    return HolderReport(
        s=frac, expansion=e, period=e.period, period_length=n, scaled_trace=t,
        alpha=0.5 * (lo + hi), alpha_lo=lo, alpha_hi=hi,
        derivative_class=_derivative_class(sign),
    )


def holder_exponent(s: RationalLike) -> HolderReport:
    """Exact exponent report at a rational parameter in [0,1].

    The preperiod of the expansion is irrelevant to the exponent and is
    dropped; only the period word enters.
    """
    frac = Fraction(s)
    return _report(frac, _rational_period(frac, _auto_variant(frac)))


def _ln_big(x: int) -> float:
    nb = x.bit_length()
    if nb <= 512:
        return math.log(x)
    shift = nb - 64
    return math.log(x >> shift) + shift * LN2


# A ball (m, k, r) is an integer matrix m, a shift k and a radius r: it holds
# every matrix whose entries lie within r * 2**k of those of m * 2**k.  A ball
# is cut to _KEPT_BITS bits, well above the 64 that _ln_big reads.
_KEPT_BITS = 96
# _stream_estimate folds streams exactly in blocks of _BLOCK letters.
_BLOCK = 1024

Ball = tuple[Mat2i, int, int]


def _ball(m: Mat2i, k: int = 0, r: int = 0, bits: int = 0) -> Ball:
    """The ball (m, k, r), with m floored to _KEPT_BITS + bits bits and the
    radius widened to cover the cut.  A radius longer than m is cut too, so
    no number in a ball outgrows that width."""
    (a, b), (c, d) = m
    s = max(a.bit_length(), b.bit_length(), c.bit_length(), d.bit_length(),
            r.bit_length()) - _KEPT_BITS - bits
    if s <= 0:
        return m, k, r
    return ((a >> s, b >> s), (c >> s, d >> s)), k + s, -(-r >> s) + 1


def _ball_mul(x: Ball, y: Ball, bits: int = 0) -> Ball:
    """A ball holding every product of a matrix of x and a matrix of y."""
    (m, k, r), (n, j, q) = x, y
    am, an = max(map(abs, m[0] + m[1])), max(map(abs, n[0] + n[1]))
    return _ball(_mul2(m, n), k + j, 2 * (am * q + r * an + r * q), bits)


def _ball_power(m: Mat2i, e: int, bits: int = 0) -> Ball:
    """A ball holding m**e, by squaring, with bits more bits kept.  A
    squaring widens the ball by about two bits relative to its entries, so
    the ball keeps _KEPT_BITS more bits for every 16 bits of e."""
    bits += _KEPT_BITS * (e.bit_length() // 16)
    out, base = (((1, 0), (0, 1)), 0, 0), _ball(m, bits=bits)
    while e:
        if e & 1:
            out = _ball_mul(out, base, bits)
        e >>= 1
        if e:
            base = _ball_mul(base, base, bits)
    return out


def _certified(ball: Ball, n: int) -> Optional[float]:
    """The exponent estimate (n ln 5 - ln ||M||_F) / (n ln 2) shared by every
    integer product M of n letters in the ball, or None if they differ.

    _ln_big reads only the bit length nb of the sum of squares and the
    double nearest to its top 64 bits, so both ends of the ball's bound on
    the sum must give the same nb > 512 and the same double.
    """
    m, k, r = ball
    lo = hi = 0
    for e in map(abs, m[0] + m[1]):
        hi += (e + r) * (e + r)
        if e > r:
            lo += (e - r) * (e - r)
    nb = lo.bit_length()
    shift = nb - 64
    if shift < 0 or nb + 2 * k <= 512 or hi.bit_length() != nb:
        return None
    top = lo >> shift
    if float(top) != float(hi >> shift):
        return None
    return (n * LN5 - 0.5 * (math.log(top) + (shift + 2 * k) * LN2)) / (n * LN2)


def _estimate(entries: Mat2i, n: int) -> float:
    """The exponent estimate of n letters whose exact product is entries."""
    (a, b), (c, d) = entries
    # entries below 2**255 square to below 2**512, which _ln_big reads whole
    if max(a.bit_length(), b.bit_length(), c.bit_length(), d.bit_length()) > 255:
        est = _certified(_ball(entries), n)
        if est is not None:
            return est
    return (n * LN5 - 0.5 * _ln_big(a * a + b * b + c * c + d * d)) / (n * LN2)


def _stream_estimate(x: int, n: int) -> float:
    """_estimate(_fold_bits(x, n), n), with the blocks of a long stream
    folded exactly and multiplied as balls in a balanced tree, whose depth
    bounds how far the radius grows."""
    if n <= 2 * _BLOCK:
        return _estimate(_fold_bits(x, n), n)
    head = n % _BLOCK or _BLOCK  # the first block is the short one
    mask = (1 << _BLOCK) - 1
    level = [_ball(_fold_bits(x >> (n - head), head))]
    level += [_ball(_fold_bits(x >> shift & mask, _BLOCK))
              for shift in range(n - head - _BLOCK, -1, -_BLOCK)]
    est = _certified(_pairwise(level, _ball_mul), n)
    return _estimate(_fold_bits(x, n), n) if est is None else est


def exponent_estimate(bits: str, ns: Optional[Iterable[int]] = None) -> EstimateTrace:
    """Exponent estimates from the Frobenius norm of the restrictions of
    bit-prefix products, at each prefix length in ns (every length by default).

    The integer matrices are exact; only the logarithm of the norm is taken
    in floating point, with the power-of-five scale handled additively.
    """
    if not bits or set(bits) - {"0", "1"}:
        raise ValueError("bits must be a nonempty 0/1 word")
    if ns is None:
        ns = range(1, len(bits) + 1)
    # fold only the stretch between consecutive wanted lengths
    points = []
    m, done = ((1, 0), (0, 1)), 0
    for n in sorted({n for n in ns if 1 <= n <= len(bits)}):
        m = _mul2(m, _fold_bits(int(bits[done:n], 2), n - done))
        points.append((n, _estimate(m, n)))
        done = n
    return EstimateTrace(tuple(points))


def _mat_power(m, k: int):
    out = ((1, 0), (0, 1))
    base = m
    while k:
        if k & 1:
            out = _mul2(out, base)
        k >>= 1
        if k:
            base = _mul2(base, base)
    return out


# estimate_at_bits takes the exact power of a period map for at most this
# many letters (about 2 s at 10**6).
ESTIMATE_EXACT_CAP = 10 ** 6


def estimate_at_bits(preperiod: str, period: str, nbits: int) -> float:
    """Single estimate at exactly nbits letters of preperiod + period-cycle.

    Equivalent to exponent_estimate on the expanded word but computed by
    powering the period map (exact._period_map) as a ball, so large nbits
    stay cheap.  When the ball does not fix the estimate, balls 2 and 4
    times as wide are tried, and then the exact power, for at most
    ESTIMATE_EXACT_CAP letters; above that, ValueError is raised.
    """
    if nbits < 1:
        raise ValueError("nbits must be >= 1")
    if set(preperiod + period) - {"0", "1"} or not period:
        raise ValueError("words must be over {0,1} with a nonempty period")
    head = preperiod[:nbits]
    m = _fold2(head)
    rest = nbits - len(head)
    if not rest:
        return _estimate(m, nbits)
    f, h = _period_map(period)
    q, r = divmod(rest, len(period))
    e, tail = q * (len(period) // h), _fold2(period[:r])
    for wide in (0, _KEPT_BITS, 3 * _KEPT_BITS):
        ball = _ball_mul(_ball(m, bits=wide), _ball_power(f, e, wide), wide)
        est = _certified(_ball_mul(ball, _ball(tail, bits=wide), wide), nbits)
        if est is not None:
            return est
    if nbits > ESTIMATE_EXACT_CAP:
        raise ValueError(f"no ball fixes the estimate at {nbits} letters, and the exact "
                         f"power is taken only up to {ESTIMATE_EXACT_CAP}")
    return _estimate(_mul2(_mul2(m, _mat_power(f, e)), tail), nbits)


def classify_curve(s: RationalLike) -> DerivativeClass:
    """Derivative class of the vector curve at a rational parameter.

    Zero iff the exponent exceeds 1, infinite iff it is below 1; the value 1
    itself cannot occur, so the verdict is always decided.
    """
    frac = Fraction(s)
    return _derivative_class(_rational_period(frac, _auto_variant(frac)).sign()[1])


def classify_form(form: LinearForm, s: RationalLike) -> DerivativeClass:
    """Derivative class of a scalar harmonic side function at a rational.

    Inherits the curve's class when the tangent direction avoids the form's
    kernel; kernel directions are reported as EXCEPTIONAL.  The verdict is
    that of kernel_test on direction_at_rational(s), then classify_curve(s),
    from one expansion and one period map.
    """
    frac = Fraction(s)
    rec = _rational_period(frac, _auto_variant(frac))
    if _in_kernel(form, *rec.chart()):
        return DerivativeClass.EXCEPTIONAL
    return _derivative_class(rec.sign()[1])


def exponent_bound(e: Expansion) -> tuple[float, float]:
    """Upper bounds for the lower and upper exponents from transition density.

    For eventually periodic expansions both densities coincide, so the two
    bounds are equal.
    """
    d = float(transition_density(e.period))
    bound = MIN_EXPONENT + d
    return (bound, bound)


def infinite_derivative_guaranteed(e: Expansion) -> bool:
    """Exact test of the sufficient density condition for an infinite derivative.

    True iff the transition density is below 1 - log2(5/3); comparison done
    in integers.
    """
    d = transition_density(e.period)
    p, q = d.numerator, d.denominator
    return 2 ** (q - p) * 3 ** q > 5 ** q


def exponent_excludes_one(period: str) -> bool:
    """Exact certificate that the period's exponent differs from 1.

    Compares the dominant eigenvalue with (1/2)**n in the quadratic field;
    equality would force a non-integer scaled trace, so this always holds.
    """
    return _period_sign(period)[1] != 0


def _short_periods(max_len: int, dedupe_complement: bool = True) -> Iterator[str]:
    """The word of every necklace class of up to max_len letters, by length.
    max_len is checked at the call: below 1 is ValueError, above
    TABLE_LENGTH_CAP is TableCapExceeded."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if max_len > TABLE_LENGTH_CAP:
        raise TableCapExceeded(f"max_len {max_len} exceeds cap {TABLE_LENGTH_CAP}")
    return (word for length in range(1, max_len + 1)
            for word in necklace_classes(length, dedupe_complement))


def generate_table(max_len: int, dedupe_complement: bool = True) -> list[HolderReport]:
    """Exponent reports for every necklace class of period length <= max_len.

    Sorted by exponent descending, ties broken by parameter ascending.
    """
    reports = []
    for word in _short_periods(max_len, dedupe_complement):
        e = Expansion("", word)
        reports.append(_report(e.value(), _RationalRecord(e)))
    reports.sort(key=lambda r: (-r.alpha, r.s))
    return reports


def table_csv(reports: Sequence[HolderReport]) -> str:
    lines = [",".join(TABLE_CSV_HEADER)]
    lines.extend(",".join(r.csv_row()) for r in reports)
    return "\n".join(lines) + "\n"


def maxrun_experiment(max_len: int) -> list[tuple[str, float, bool]]:
    """Exponents of all necklace classes whose cyclic runs never exceed 2.

    Returns (period, exponent, exponent > 1) rows; the comparison with 1 is
    exact.  Supports the observation that such parameters appear to have
    vanishing derivative; nothing here is a proof.  Lengths above
    TABLE_LENGTH_CAP raise TableCapExceeded.
    """
    rows = []
    for word in _short_periods(max_len):
        if max_cyclic_run(word) > 2:
            continue
        t, sign = _period_sign(word)
        lo, hi = alpha_enclosure(t, len(word))
        rows.append((word, 0.5 * (lo + hi), _derivative_class(sign) is DerivativeClass.ZERO))
    return rows


def lyapunov_sample(nbits: int, trials: int, seed: int) -> dict:
    """Exponent estimates on independent uniform bit streams.

    Deterministic for a fixed seed.  Small nbits give noisy estimates and
    are flagged as low confidence.
    """
    import random
    import statistics

    if nbits < 1 or trials < 1:
        raise ValueError("nbits and trials must be >= 1")
    rng = random.Random(seed)
    estimates = []
    for _ in range(trials):
        estimates.append(_stream_estimate(rng.getrandbits(nbits), nbits))
    above = sum(e > 1.0 for e in estimates)
    return {
        "nbits": nbits,
        "trials": trials,
        "seed": seed,
        "mean": statistics.fmean(estimates),
        "median": statistics.median(estimates),
        "fraction_above_one": above / trials,
        "min": min(estimates),
        "max": max(estimates),
        "low_confidence": nbits < 256,
    }
