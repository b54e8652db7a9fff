"""One-sided tangent directions of the boundary curve.

Directions live on the projective cone spanned by the two major
eigenvectors, charted by the coefficient ratio in the orthogonal chart
basis.  In that chart both projective generator maps are Moebius maps with
Lipschitz constant 3/4, which gives certified stopping rules; at rational
parameters the direction is an exact quadratic number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from .exact import (
    DIFFERENCE_CONE,
    ConeError,
    Expansion,
    ExpansionVariant,
    Mat2i,
    QuadraticValue,
    RationalLike,
    Vec3Q,
    _chart_fold,
    _form_chart_coeffs,
    _in_kernel,
    _prefix_bits,
    _rational_period,
)

if TYPE_CHECKING:
    from .harmonic import LinearForm

CHART_LO = Fraction(-1, 3)
CHART_HI = Fraction(1, 3)
CHART_DIAMETER = Fraction(2, 3)
CONTRACTION_FACTOR = Fraction(3, 4)

# Orientation of the chart along the side, frozen after sampling: the chart
# decreases from 1/3 at parameter 0 to -1/3 at parameter 1.
CHART_DECREASES = True


class SideError(ValueError):
    """One-sided limit requested on the wrong side of an endpoint."""


class Side(Enum):
    RIGHT = "right"
    LEFT = "left"


class KernelVerdict(Enum):
    IN_KERNEL = "in_kernel"
    NOT_IN_KERNEL = "not_in_kernel"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class ProjDir:
    """Chart coordinate of a direction within a certified error radius, and
    the parameter and side it was computed at, from which it can be refined."""

    chart: Fraction
    error: Fraction
    source: Fraction
    side: Side


@dataclass(frozen=True)
class QuadDir:
    """Exact direction chart at a rational parameter."""

    chart: QuadraticValue
    period: str
    preperiod: str
    side: Side


def chart_of(v: Vec3Q) -> Fraction:
    """Chart coordinate of a cone vector: ratio a/b in the chart basis."""
    if not DIFFERENCE_CONE.contains(v):
        raise ConeError(f"{v} is not in the difference cone")
    a = v.z
    b = 2 * v.y + v.z
    return a / b


def projective_word_matrix(word: str) -> Mat2i:
    """Integer chart-basis matrix (up to scale) of a binary word product.

    Only the projective action is used, so the scale 10**len(word) is dropped.
    """
    return _chart_fold(word)


def _moebius(m: Mat2i, x: Fraction) -> Fraction:
    (p, q), (r, s) = m
    den = r * x + s
    if den == 0:
        raise ConeError("chart left the domain of the projective map")
    return (p * x + q) / den


def apply_projective(word: str, chart: Fraction) -> Fraction:
    """Image of a chart coordinate under the projective map of a word."""
    return _moebius(projective_word_matrix(word), Fraction(chart))


_MAX_ITERATIONS = 20000


def _iterations_for(tol: Fraction) -> int:
    """Least n with CHART_DIAMETER * CONTRACTION_FACTOR**n <= tol."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    a, b = tol.numerator, tol.denominator

    def within(n: int) -> bool:  # (2/3) * (3/4)**n <= a/b
        return 2 * 3 ** n * b <= 3 * 4 ** n * a

    # a float estimate of the logarithms, then exact steps to the least n;
    # the logarithms are taken apart because a tiny tol underflows as a float
    est = (math.log(a) - math.log(b) - math.log(2 / 3)) / math.log(3 / 4)
    n = min(max(math.ceil(est), 0), _MAX_ITERATIONS + 1)
    while n > 0 and within(n - 1):
        n -= 1
    while n <= _MAX_ITERATIONS and not within(n):
        n += 1
    if n > _MAX_ITERATIONS:
        raise ValueError("tolerance is unreasonably small")
    return n


def _side_variant(frac: Fraction, side: Side) -> ExpansionVariant:
    """The expansion whose letters give the one-sided limit at frac."""
    if side is Side.RIGHT:
        if frac >= 1:
            raise SideError("no right-side limit at parameter 1")
        return ExpansionVariant.UPPER
    if frac <= 0:
        raise SideError("no left-side limit at parameter 0")
    return ExpansionVariant.LOWER


def direction_at(s: Union[Expansion, RationalLike], side: Side = Side.RIGHT,
                 tol: Union[float, Fraction] = Fraction(1, 10 ** 9)) -> ProjDir:
    """One-sided direction chart within tol, by iterating the projective maps
    on the letters of the side's expansion of s, or of s.value()."""
    frac = s.value() if isinstance(s, Expansion) else Fraction(s)
    variant = _side_variant(frac, side)
    n = _iterations_for(Fraction(tol))
    chart = _moebius(projective_word_matrix(_prefix_bits(frac, n, variant)), Fraction(0))
    return ProjDir(chart, CHART_DIAMETER * CONTRACTION_FACTOR ** n, frac, side)


def direction_at_rational(s: RationalLike, side: Optional[Side] = None) -> QuadDir:
    """Exact one-sided direction at a rational parameter.

    The chart is the fixed point of the period's projective map inside the
    chart interval, pushed through the preperiod's projective map.  Both
    steps work on integers, with the chart held as (u + w*sqrt(D)) / R.
    """
    frac = Fraction(s)
    if not 0 <= frac <= 1:
        raise ValueError(f"{frac} is outside [0,1]")
    if side is None:
        side = Side.RIGHT if frac < 1 else Side.LEFT
    rec = _rational_period(frac, _side_variant(frac, side))
    u, w, R, D = rec.chart()
    chart = QuadraticValue.from_pair(Fraction(u, R), Fraction(w, R), D)
    return QuadDir(chart=chart, period=rec.e.period, preperiod=rec.e.preperiod, side=side)


MAX_REFINE_ERROR = Fraction(1, 2 ** 256)


def kernel_test(form: LinearForm, direction: Union[QuadDir, ProjDir]) -> KernelVerdict:
    """Exact or interval test of whether a direction lies in a form's kernel."""
    if isinstance(direction, QuadDir):
        # (t +- sqrt(d)) / 2 for t = tn/td and d = dn/dd is
        # (tn*dd +- td*sqrt(dn*dd)) / (2*td*dd)
        chart = direction.chart
        (tn, td), (dn, dd) = chart.t.as_integer_ratio(), chart.d.as_integer_ratio()
        if _in_kernel(form, tn * dd, td if chart.plus_root else -td, 2 * td * dd, dn * dd):
            return KernelVerdict.IN_KERNEL
        return KernelVerdict.NOT_IN_KERNEL
    A, B = _form_chart_coeffs(form)
    pd = direction
    while True:
        lo = A + B * pd.chart - abs(B) * pd.error
        hi = A + B * pd.chart + abs(B) * pd.error
        if lo > 0 or hi < 0:
            return KernelVerdict.NOT_IN_KERNEL
        if pd.error <= MAX_REFINE_ERROR:
            return KernelVerdict.UNDETERMINED
        pd = direction_at(pd.source, pd.side, tol=max(pd.error / 1024, MAX_REFINE_ERROR))


def direction_vector(direction) -> tuple[float, float, float]:
    """Unit vector (2-norm) in the plane x+y+z=0 for a direction chart."""
    if isinstance(direction, (QuadDir, ProjDir)):
        x = float(direction.chart)
    elif isinstance(direction, QuadraticValue):
        x = float(direction)
    else:
        x = float(Fraction(direction))
    vx, vy, vz = (-x / 2 - 0.5, -x / 2 + 0.5, x)
    norm = math.sqrt(vx * vx + vy * vy + vz * vz)
    return (vx / norm, vy / norm, vz / norm)
