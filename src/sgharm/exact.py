"""Exact arithmetic backbone.

Integer-scaled transition matrices and their plane restrictions, quadratic
eigenvalues, eventually periodic binary expansions of rationals with the
exponent sign and tangent chart read from their periods, the exact kernel
test of a linear form at such a chart, and the necklace
combinatorics behind the exponent table.  Everything here is pure and
exact: no floats except in explicitly named conversion helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Optional, Union

RationalLike = Union[Fraction, int, str]


# ---------------------------------------------------------------------------
# Vectors in the value space


@dataclass(frozen=True)
class Vec3Q:
    """Exact vector in the 3-dimensional value space."""

    x: Fraction
    y: Fraction
    z: Fraction

    @classmethod
    def of(cls, x, y, z) -> "Vec3Q":
        return cls(Fraction(x), Fraction(y), Fraction(z))

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)

    def __add__(self, other: "Vec3Q") -> "Vec3Q":
        return Vec3Q(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3Q") -> "Vec3Q":
        return Vec3Q(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3Q":
        return Vec3Q(-self.x, -self.y, -self.z)

    def __mul__(self, scalar) -> "Vec3Q":
        return Vec3Q(self.x * scalar, self.y * scalar, self.z * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Vec3Q":
        return Vec3Q(self.x / scalar, self.y / scalar, self.z / scalar)

    def dot(self, row) -> Fraction:
        a, b, c = row
        return a * self.x + b * self.y + c * self.z

    def coord_sum(self) -> Fraction:
        return self.x + self.y + self.z

    def floats(self) -> tuple[float, float, float]:
        return (float(self.x), float(self.y), float(self.z))

    def norm2(self) -> float:
        return math.sqrt(float(self.x * self.x + self.y * self.y + self.z * self.z))

    def max_abs(self) -> Fraction:
        return max(abs(self.x), abs(self.y), abs(self.z))


E0 = Vec3Q.of(1, 0, 0)
E1 = Vec3Q.of(0, 1, 0)
EW = Vec3Q.of(0, 0, 1)

# Eigenvectors of the plane restrictions: MAJOR carries eigenvalue 3/5,
# MINOR carries 1/5.
MAJOR_EIGVEC_0 = Vec3Q.of(-1, Fraction(1, 2), Fraction(1, 2))
MAJOR_EIGVEC_1 = Vec3Q.of(Fraction(-1, 2), 1, Fraction(-1, 2))
MINOR_EIGVEC_0 = Vec3Q.of(0, Fraction(1, 2), Fraction(-1, 2))
MINOR_EIGVEC_1 = Vec3Q.of(Fraction(-1, 2), 0, Fraction(1, 2))

# Basis pairs of the vector plane x+y+z = 0 used for restrictions.
EDGE_BASIS = (E0 - E1, E1 - EW)
CHART_BASIS = (
    Vec3Q.of(Fraction(-1, 2), Fraction(-1, 2), 1),
    Vec3Q.of(Fraction(-1, 2), Fraction(1, 2), 0),
)


# ---------------------------------------------------------------------------
# Scaled integer matrices


def _norm_symbol(symbol) -> str:
    s = str(symbol)
    if s in ("0", "1"):
        return s
    if s in ("w", "W", "ω", "2"):
        return "w"
    raise ValueError(f"unknown generator symbol {symbol!r}")


@dataclass(frozen=True)
class ScaledIntMat3:
    """3x3 integer matrix understood as entries / 5**pow5.

    Every column of `entries` must sum to 5**pow5 (column-stochastic after
    scaling), which is preserved by products.
    """

    entries: tuple[tuple[int, int, int], ...]
    pow5: int

    def __post_init__(self):
        if len(self.entries) != 3 or any(len(r) != 3 for r in self.entries):
            raise ValueError("entries must be 3x3")
        if self.pow5 < 0:
            raise ValueError("pow5 must be nonnegative")
        target = 5 ** self.pow5
        for j in range(3):
            col = sum(self.entries[i][j] for i in range(3))
            if col != target:
                raise ValueError("column sums must equal 5**pow5")

    @classmethod
    def identity(cls) -> "ScaledIntMat3":
        return cls(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 0)

    @property
    def denominator(self) -> int:
        return 5 ** self.pow5

    def trace(self) -> Fraction:
        e = self.entries
        return Fraction(e[0][0] + e[1][1] + e[2][2], self.denominator)

    def __matmul__(self, other: "ScaledIntMat3") -> "ScaledIntMat3":
        a, b = self.entries, other.entries
        rows = tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )
        return ScaledIntMat3(rows, self.pow5 + other.pow5)

    def apply_int(self, col: tuple[int, int, int]) -> tuple[int, int, int]:
        (a, b, c), (d, f, g), (h, i, j) = self.entries
        x, y, z = col
        return (a * x + b * y + c * z, d * x + f * y + g * z, h * x + i * y + j * z)

    def apply(self, v: Vec3Q) -> Vec3Q:
        den = self.denominator
        e = self.entries
        return Vec3Q(
            (e[0][0] * v.x + e[0][1] * v.y + e[0][2] * v.z) / den,
            (e[1][0] * v.x + e[1][1] * v.y + e[1][2] * v.z) / den,
            (e[2][0] * v.x + e[2][1] * v.y + e[2][2] * v.z) / den,
        )

_GEN3 = {
    "0": ScaledIntMat3(((5, 2, 2), (0, 2, 1), (0, 1, 2)), 1),
    "1": ScaledIntMat3(((2, 0, 1), (2, 5, 2), (1, 0, 2)), 1),
    "w": ScaledIntMat3(((2, 1, 0), (1, 2, 0), (2, 2, 5)), 1),
}


def generator_matrix(symbol) -> ScaledIntMat3:
    """Exact transition matrix of one subdivision map (symbol 0, 1 or w)."""
    return _GEN3[_norm_symbol(symbol)]


def word_product(word: str) -> ScaledIntMat3:
    """Left-to-right product of generator matrices for a word over {0,1,w}."""
    out = ScaledIntMat3.identity()
    for ch in word:
        out = out @ _GEN3[_norm_symbol(ch)]
    return out


def plane_trace(m: ScaledIntMat3) -> Fraction:
    """Trace of the restriction to the vector plane: trace(m) - 1."""
    e = m.entries
    den = m.denominator
    return Fraction(e[0][0] + e[1][1] + e[2][2] - den, den)


Mat2i = tuple[tuple[int, int], tuple[int, int]]


def _mul2(a: Mat2i, b: Mat2i) -> Mat2i:
    """Product of two 2x2 integer matrices given as row pairs."""
    (p, q), (r, s) = a
    (e, f), (g, h) = b
    return ((p * e + q * g, p * f + q * h), (r * e + s * g, r * f + s * h))


class PlaneBasis(Enum):
    EDGE = "edge"    # (e0 - e1, e1 - ew); keeps integer entries over 5**n
    CHART = "chart"  # the orthogonal chart pair; entries over 2**n * 5**n


@dataclass(frozen=True)
class ScaledIntMat2:
    """2x2 integer matrix understood as entries / (5**pow5 * 2**pow2).

    pow2 is 0 for the EDGE basis; the CHART basis needs one factor of 2 per
    word letter to keep entries integral.
    """

    entries: tuple[tuple[int, int], tuple[int, int]]
    pow5: int
    pow2: int = 0
    basis: PlaneBasis = PlaneBasis.EDGE

    def __post_init__(self):
        if len(self.entries) != 2 or any(len(r) != 2 for r in self.entries):
            raise ValueError("entries must be 2x2")
        if self.pow5 < 0 or self.pow2 < 0:
            raise ValueError("scales must be nonnegative")

    @property
    def denominator(self) -> int:
        return 5 ** self.pow5 * 2 ** self.pow2

    def trace(self) -> Fraction:
        e = self.entries
        return Fraction(e[0][0] + e[1][1], self.denominator)

    def det(self) -> Fraction:
        e = self.entries
        return Fraction(e[0][0] * e[1][1] - e[0][1] * e[1][0], self.denominator ** 2)

    def __matmul__(self, other: "ScaledIntMat2") -> "ScaledIntMat2":
        if self.basis is not other.basis:
            raise ValueError("cannot multiply restrictions in different bases")
        return ScaledIntMat2(_mul2(self.entries, other.entries), self.pow5 + other.pow5,
                             self.pow2 + other.pow2, self.basis)

    def fractions(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.denominator
        return tuple(tuple(Fraction(v, den) for v in row) for row in self.entries)


def restrict_to_plane(m: ScaledIntMat3, basis: PlaneBasis = PlaneBasis.EDGE) -> ScaledIntMat2:
    """Exact matrix of m's action on the vector plane in the requested basis."""
    e = m.entries
    col = lambda j: (e[0][j], e[1][j], e[2][j])
    c0, c1, c2 = col(0), col(1), col(2)
    if basis is PlaneBasis.EDGE:
        # images of (e0 - e1) and (e1 - ew); coefficients are (x, -z)
        i1 = tuple(c0[k] - c1[k] for k in range(3))
        i2 = tuple(c1[k] - c2[k] for k in range(3))
        rows = ((i1[0], i2[0]), (-i1[2], -i2[2]))
        return ScaledIntMat2(rows, m.pow5, 0, PlaneBasis.EDGE)
    # chart basis: image coefficients are (z, 2y + z); basis vectors doubled
    # to stay integral, which introduces the extra power of two
    iv = tuple(-c0[k] - c1[k] + 2 * c2[k] for k in range(3))
    iw = tuple(-c0[k] + c1[k] for k in range(3))
    rows = ((iv[2], iw[2]), (2 * iv[1] + iv[2], 2 * iw[1] + iw[2]))
    return ScaledIntMat2(rows, m.pow5, 1, PlaneBasis.CHART)


def _leaf_tables() -> list[list[Mat2i]]:
    """Integer edge-basis products of the two half-side generators on the plane
    (entries over 5 per letter): entry [k][v] is the product of the k-letter
    0/1 word spelled by the bits of v, for k = 0 to 8."""
    letters = [restrict_to_plane(_GEN3[c]).entries for c in "01"]
    tables = [[((1, 0), (0, 1))]]
    for _ in range(8):
        tables.append([_mul2(m, g) for m in tables[-1] for g in letters])
    return tables


_LEAVES = _leaf_tables()
# _fold_bits multiplies runs of up to _RUN leaves level by level and splits
# longer stretches depth-first, so that few large products are alive at once.
_RUN = 64


def _fold_bits(x: int, n: int) -> Mat2i:
    """Left-to-right integer edge-basis product of the n-letter 0/1 word
    spelled by the bits of x, 0 <= x < 2**n (entries over 5 per letter).

    A balanced product tree whose leaves are whole bytes, read from a table:
    the large multiplications pair operands of equal size, where Karatsuba
    pays off, so the cost is subquadratic in the length.
    """
    if n <= 8:
        return _LEAVES[n][x]
    data = x.to_bytes((n + 7) // 8, "big")
    leaves = list(map(_LEAVES[8].__getitem__, data))
    if n % 8:
        leaves[0] = _LEAVES[n % 8][data[0]]

    def tree(lo: int, hi: int) -> Mat2i:
        if hi - lo > _RUN:
            # the left half takes half the runs, so only the last run is short
            mid = lo + (hi - lo + _RUN - 1) // _RUN // 2 * _RUN
            return _mul2(tree(lo, mid), tree(mid, hi))
        return _pairwise(leaves[lo:hi], _mul2)

    return tree(0, len(leaves))


def _pairwise(level: list, mul: Callable):
    """The left-to-right product of a nonempty list under an associative mul,
    multiplied in pairs level by level, so that operands of equal size meet."""
    while len(level) > 1:
        pairs = iter(level)
        odd = level[-1:] if len(level) % 2 else []
        level = list(map(mul, pairs, pairs)) + odd
    return level[0]


def _fold2(word: str) -> Mat2i:
    """Left-to-right product of the generators named by a 0/1 word: the
    _fold_bits of the word read as a binary integer."""
    if word.count("0") + word.count("1") != len(word):
        bad = next(c for c in word if c not in "01")
        raise ValueError(f"word letter must be 0 or 1, got {bad!r}")
    return _fold_bits(int(word or "0", 2), len(word))


def edge_word_matrix(word: str) -> ScaledIntMat2:
    """Plane restriction of a binary word product, computed directly in 2x2."""
    return ScaledIntMat2(_fold2(word), len(word), 0, PlaneBasis.EDGE)


# The chart pair is the edge pair times Q = ((-1, -1), (-2, 0)), and a chart
# letter is 2 * Q**-1 @ (edge letter) @ Q, so a word of n >= 1 letters has the
# chart product (_TO_CHART @ E @ _FROM_CHART) << (n - 1) for its edge product E.
_TO_CHART = ((0, -1), (-2, 1))    # 2 * Q**-1
_FROM_CHART = ((-1, -1), (-2, 0))  # Q


def _to_chart(m: Mat2i) -> Mat2i:
    """The chart product of a nonempty word divided by 2**(len - 1), from its
    edge product m."""
    return _mul2(_mul2(_TO_CHART, m), _FROM_CHART)


def _chart_fold(word: str) -> Mat2i:
    """Integer chart-basis product of a 0/1 word (entries over 10 per letter),
    conjugated from the edge fold, whose entries are about half as long."""
    if not word:
        return ((1, 0), (0, 1))
    (a, b), (c, d) = _to_chart(_fold2(word))
    k = len(word) - 1
    return ((a << k, b << k), (c << k, d << k))


# Complementing a word conjugates its products by a swap: _fold2 of
# complement_word(w) is _SWAP @ _fold2(w) @ _SWAP, with _SWAP @ _SWAP = I and
# det _SWAP = -1.  So a period W + complement_word(W) has the product
# (_fold2(W) @ _SWAP) ** 2.  In the chart basis the swap is J = diag(1, -1):
# _to_chart(m @ _SWAP) is _to_chart(m) @ J.
_SWAP = ((-1, 1), (0, 1))


def _complement_half(word: str) -> Optional[str]:
    """W when word is W + complement_word(W) for a nonempty W, else None."""
    h, odd = divmod(len(word), 2)
    half = word[:h]
    return half if h and not odd and word[h:] == complement_word(half) else None


def _period_map(period: str) -> tuple[Mat2i, int]:
    """(F, h): an edge product F of h letters whose power F**(len(period) // h)
    is the edge product of the nonempty period, so det F = +-3**h.

    F is the period's own fold, or _fold2(W) @ _SWAP, of determinant -3**h,
    when the period is W + complement_word(W): then only W is folded.
    """
    half = _complement_half(period)
    if half is None:
        return edge_word_matrix(period).entries, len(period)
    return _mul2(edge_word_matrix(half).entries, _SWAP), len(half)


def chart_word_matrix(word: str) -> ScaledIntMat2:
    """Chart-basis restriction of a binary word product."""
    return ScaledIntMat2(_chart_fold(word), len(word), len(word), PlaneBasis.CHART)


# ---------------------------------------------------------------------------
# Quadratic values


def quad_sign(p: Fraction, q: Fraction, d: Fraction) -> int:
    """Exact sign of p + q*sqrt(d) with d >= 0, for ints or Fractions."""
    if d < 0:
        raise ValueError("negative radicand")
    sgn = lambda v: (v > 0) - (v < 0)
    if q == 0 or d == 0:
        return sgn(p)
    sp, sq = sgn(p), sgn(q)
    if sp == sq:
        return sp
    if sp == 0:
        return sq
    c = p * p - q * q * d
    return sgn(c) if sp > 0 else -sgn(c)


def _product_sign(a: int, b: int, c: int) -> int:
    """Sign of a*b - c for positive integers, without the product when the
    bit lengths decide it."""
    bits, cbits = a.bit_length() + b.bit_length(), c.bit_length()
    if bits < cbits:  # a*b < 2**bits <= c
        return -1
    if bits > cbits + 1:  # a*b >= 2**(bits - 2) > c
        return 1
    x = a * b
    return (x > c) - (x < c)


def _exponent_sign(m: Mat2i, h: int) -> tuple[int, int]:
    """Trace of a period map and the exact sign of lam - 2**-n, in integers
    only.

    (m, h) is the (F, h) of _period_map for a period of n letters, so F has
    a trace tr and the determinant det = 3**h or -3**h, and the period's
    dominant eigenvalue lam is rho**(n // h) for
    rho = (|tr| + sqrt(tr*tr - 4*det)) / (2*5**h): the sign is that of
    rho - 2**-h.
    """
    (a, b), (c, d) = m
    tr, det = a + d, a * d - b * c
    if abs(det) != 3 ** h:
        raise AssertionError("restriction determinant is off")
    # rho is the larger root of x*x - |tr|/5**h * x + det/25**h.  2**-h is
    # below rho when it is below the roots' midpoint |tr| / (2*5**h), that
    # is when k > f below, and otherwise exactly when the polynomial is
    # negative at 2**-h, where 100**h times it is det*4**h - f*k
    f = 5 ** h
    k = (abs(tr) << h) - f
    if k > f:
        return tr, 1
    if k == 0 or (k > 0) != (det > 0):
        return tr, -1 if det > 0 else 1
    sign = _product_sign(f, abs(k), abs(det) << 2 * h)
    return tr, sign if k > 0 else -sign


def _chart_fixed_point(m: Mat2i, preperiod: str) -> tuple[int, int, int, int]:
    """The exact direction chart at a rational parameter as integers (u, w, R,
    D), for the chart (u + w*sqrt(D)) / R with R != 0.

    m is the period map F of _period_map: a power of F is the period's edge
    product, so F's projective map has the period's fixed points.  The chart
    is the fixed point inside the chart interval, pushed through the
    preperiod's projective map.  Both maps are read in the chart basis from
    the edge products through _to_chart, up to a positive scale.
    """
    (p, q), (r, s) = _to_chart(m)
    # fixed points of x -> (p*x + q) / (r*x + s): (p - s +- sqrt(D)) / (2*r);
    # r != 0: each chart letter maps infinity and [-1, 1] into [-1, 1], and
    # the swap of a W + complement(W) period fixes infinity
    D = (s - p) ** 2 + 4 * r * q
    if D < 0:
        raise ValueError("projective map has no real fixed point")
    u, R = (p - s, 2 * r) if r > 0 else (s - p, -2 * r)
    # with R > 0, -1/3 <= (u + w*sqrt(D)) / R <= 1/3 is a sign test on
    # each of 3*u + R + 3*w*sqrt(D) and 3*u - R + 3*w*sqrt(D)
    inside = [w for w in (1, -1)
              if quad_sign(3 * u + R, 3 * w, D) >= 0 >= quad_sign(3 * u - R, 3 * w, D)]
    if len(inside) != 1:
        raise ValueError("expected exactly one fixed point in the chart interval")
    w, = inside
    if preperiod:
        (a, b), (c, d) = _to_chart(edge_word_matrix(preperiod).entries)
        n0, n1, d0, d1 = a * u + b * R, a * w, c * u + d * R, c * w
        norm = d0 * d0 - d1 * d1 * D
        if norm == 0:
            raise ConeError("chart left the domain of the projective map")
        # (n0 + n1*sqrt(D)) / (d0 + d1*sqrt(D)), rationalised by the conjugate
        u, w, R = n0 * d0 - n1 * d1 * D, n1 * d0 - n0 * d1, norm
    return u, w, R, D


@lru_cache(maxsize=64)  # forms are immutable, and a few presets serve most calls
def _form_chart_coeffs(form: Callable[[Vec3Q], Fraction]) -> tuple[Fraction, Fraction]:
    # value along direction with chart x is proportional to B*x + A
    return (form(CHART_BASIS[1]), form(CHART_BASIS[0]))


def _in_kernel(form: Callable[[Vec3Q], Fraction], u: int, w: int, R: int, D: int) -> bool:
    """Exact test of whether the direction with chart (u + w*sqrt(D)) / R,
    R != 0, lies in the kernel of a harmonic.LinearForm."""
    A, B = _form_chart_coeffs(form)
    # R * (B*x + A) = A*R + B*u + B*w*sqrt(D), times the positive common
    # denominator of A and B
    a, b = A.numerator * B.denominator, B.numerator * A.denominator
    return quad_sign(a * R + b * u, b * w, D) == 0


@dataclass(frozen=True)
class QuadraticValue:
    """Exact number (t + sqrt(d))/2, or (t - sqrt(d))/2 when plus_root is False."""

    t: Fraction
    d: Fraction
    plus_root: bool = True

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("negative radicand")

    @classmethod
    def from_pair(cls, p: Fraction, q: Fraction, d: Fraction) -> "QuadraticValue":
        """Build from the representation p + q*sqrt(d)."""
        if q == 0 or d == 0:
            return cls(2 * p, Fraction(0))
        return cls(2 * p, 4 * q * q * d, plus_root=q > 0)

    def as_pair(self) -> tuple[Fraction, Fraction]:
        half = Fraction(1, 2) if self.plus_root else Fraction(-1, 2)
        return (self.t / 2, half)

    def compare(self, r: RationalLike) -> int:
        """Exact three-way comparison with a rational."""
        p, q = self.as_pair()
        return quad_sign(p - Fraction(r), q, self.d)

    def sum_with_conjugate(self) -> Fraction:
        return self.t

    def product_with_conjugate(self) -> Fraction:
        return (self.t * self.t - self.d) / 4

    def as_fraction(self) -> Optional[Fraction]:
        """Exact rational value when the radicand is a perfect square."""
        num, den = self.d.numerator, self.d.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            return None
        root = Fraction(rn, rd)
        return (self.t + root) / 2 if self.plus_root else (self.t - root) / 2

    def __float__(self) -> float:
        root = math.sqrt(float(self.d))
        return (float(self.t) + root) / 2 if self.plus_root else (float(self.t) - root) / 2


class DegenerateEigenvalueError(ValueError):
    """Raised when a 2x2 matrix has a nonpositive eigenvalue discriminant."""


def dominant_eigen(m: ScaledIntMat2):
    """Both eigenvalues (largest first) and an exact dominant eigenvector.

    Requires a positive discriminant; word restrictions always satisfy this.
    """
    T = m.trace()
    D = m.det()
    disc = T * T - 4 * D
    if disc <= 0:
        raise DegenerateEigenvalueError(f"discriminant {disc} is not positive")
    lam = QuadraticValue(T, disc, True)
    mu = QuadraticValue(T, disc, False)
    (a, b), (c, d) = m.fractions()
    if b != 0:
        vec = (
            QuadraticValue.from_pair(b, Fraction(0), disc),
            QuadraticValue(T - 2 * a, disc, True),
        )
    elif c != 0:
        vec = (
            QuadraticValue(T - 2 * d, disc, True),
            QuadraticValue.from_pair(c, Fraction(0), disc),
        )
    else:
        vec = (
            QuadraticValue.from_pair(Fraction(int(a > d)), Fraction(0), disc),
            QuadraticValue.from_pair(Fraction(int(a < d)), Fraction(0), disc),
        )
    return lam, mu, vec


# ---------------------------------------------------------------------------
# Binary expansions of rationals


class ExpansionVariant(Enum):
    UPPER = "upper"  # never ends in all ones
    LOWER = "lower"  # never ends in all zeros


def _is_primitive(word: str) -> bool:
    # u**k (k > 1) is a p-th power for each prime p | k; the word is the p-th
    # power of its prefix u exactly when u occurs p times without overlap.
    n = len(word)
    return all(word.count(word[:n // p]) != p for p in _factorize(n))


@dataclass(frozen=True)
class Expansion:
    """Eventually periodic binary expansion 0.preperiod(period); at a dyadic,
    the period "0" or "1" says whether it is the upper or the lower one."""

    preperiod: str
    period: str

    def __post_init__(self):
        word = self.preperiod + self.period
        if not self.period:
            raise ValueError("period must be nonempty")
        if set(word) - {"0", "1"}:
            raise ValueError("expansion words must be over {0,1}")
        if not _is_primitive(self.period):
            raise ValueError(f"period {self.period!r} is not primitive")
        if self.preperiod and self.preperiod[-1] == self.period[-1]:
            raise ValueError("preperiod is not minimal (last bits merge)")

    def value(self) -> Fraction:
        k, m = len(self.preperiod), len(self.period)
        head = int(self.preperiod, 2) if self.preperiod else 0
        tail = Fraction(int(self.period, 2), (1 << m) - 1)
        return Fraction(head + tail, 1 << k)

    def bits(self, n: int) -> str:
        if n < 0:
            raise ValueError(f"bit count must be nonnegative, got {n}")
        if n <= len(self.preperiod):
            return self.preperiod[:n]
        rest = n - len(self.preperiod)
        reps = rest // len(self.period) + 1
        return self.preperiod + (self.period * reps)[:rest]

    def bit(self, i: int) -> int:
        if i < 0:
            raise ValueError(f"bit index must be nonnegative, got {i}")
        if i < len(self.preperiod):
            return int(self.preperiod[i])
        return int(self.period[(i - len(self.preperiod)) % len(self.period)])

    def __str__(self) -> str:
        return f"0.{self.preperiod}({self.period})"

    @classmethod
    def parse(cls, text: str) -> "Expansion":
        body = text.strip()
        if not body.startswith("0."):
            raise ValueError(f"expansion must start with '0.': {text!r}")
        body = body[2:]
        if "(" in body:
            pre, _, rest = body.partition("(")
            if not rest.endswith(")"):
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return cls(pre, rest[:-1])
        return cls(body.rstrip("0"), "0")


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _carmichael(m: int) -> int:
    lam = 1
    for p, e in _factorize(m).items():
        if p == 2:
            piece = 1 if e == 1 else (2 if e == 2 else 1 << (e - 2))
        else:
            piece = p ** (e - 1) * (p - 1)
        lam = lam * piece // math.gcd(lam, piece)
    return lam


def _mult_order_2(m: int) -> int:
    # m odd, m > 1: the order divides k = lambda(m); divide each prime p out
    # of k while 2**(k/p) is still 1 mod m
    k = _carmichael(m)
    for p in _factorize(k):
        while k % p == 0 and pow(2, k // p, m) == 1:
            k //= p
    return k


def _prefix_bits(s: RationalLike, n: int, variant: ExpansionVariant) -> str:
    """expand(s, variant).bits(n) by long division, without the period.

    The upper expansion starts with the n-bit floor of s * 2**n, the lower one
    with the n-bit ceiling minus one; they differ only at dyadics.
    """
    s = Fraction(s)
    if not 0 <= s <= 1:
        raise ValueError(f"{s} is outside [0,1]")
    head = s.numerator << n
    if variant is ExpansionVariant.UPPER:
        if s == 1:
            raise ValueError("1 has no upper expansion")
    elif s == 0:
        raise ValueError("0 has no lower expansion")
    else:
        head -= 1
    return format(head // s.denominator, f"0{n}b") if n else ""


# Capacity errors of harmonic_grid and generate_table.  They live here, which
# every command imports, so that the CLI maps them to exit 3 without importing
# the harmonic and holder modules.
class GridCapExceeded(RuntimeError):
    """Requested grid level is above the configured cap."""


class TableCapExceeded(RuntimeError):
    """Requested table length is above the configured cap."""


# Longest period that expand() builds, above the 10**6 letters of the longest
# periods served: the exact paths fold the whole period, and at 10**6 letters
# `direction --exact` already takes about 12 s.
PERIOD_CAP = 2 ** 21


def expand(s: RationalLike, variant: ExpansionVariant = ExpansionVariant.UPPER) -> Expansion:
    """Binary expansion of a rational in [0,1] in the requested variant.

    Dyadic endpoints only admit one variant: 0 has no lower expansion and 1
    has no upper expansion; those combinations raise ValueError, and so does
    a period longer than PERIOD_CAP.
    """
    s = Fraction(s)
    q = s.denominator
    a = (q & -q).bit_length() - 1
    pre = _prefix_bits(s, a, variant)
    m = q >> a
    if m == 1:
        return Expansion(pre, "0" if variant is ExpansionVariant.UPPER else "1")
    k = _mult_order_2(m)
    if k > PERIOD_CAP:
        raise ValueError(f"period of at least 2**{k.bit_length() - 1} letters exceeds "
                         f"the cap {PERIOD_CAP}")
    period_int = s.numerator % m * ((1 << k) - 1) // m
    return Expansion(pre, format(period_int, f"0{k}b"))


def _auto_variant(s: Fraction) -> ExpansionVariant:
    """The upper variant, or the lower one at 1, which has no upper expansion."""
    return ExpansionVariant.LOWER if s == 1 else ExpansionVariant.UPPER


def expand_auto(s: RationalLike) -> Expansion:
    """expand() in the upper variant, or in the lower one at 1, which has no
    upper expansion."""
    s = Fraction(s)
    return expand(s, _auto_variant(s))


def expansion_value(e: Expansion) -> Fraction:
    return e.value()


class _RationalRecord:
    """An expansion e, the _period_map (F, h) of its period, and what a
    rational point's readers ask of them: chart() is the _chart_fixed_point
    of F and e.preperiod, and sign() the _exponent_sign of F, each computed
    on first call.  A value is stored only once its computation returns, so
    an error is raised again on every call, and threads that race on a value
    compute one immutable answer twice."""

    __slots__ = ("e", "F", "h", "_chart", "_sign")

    def __init__(self, e: Expansion):
        self.e = e
        self.F, self.h = _period_map(e.period)
        self._chart = self._sign = None

    def chart(self) -> tuple[int, int, int, int]:
        if self._chart is None:
            self._chart = _chart_fixed_point(self.F, self.e.preperiod)
        return self._chart

    def sign(self) -> tuple[int, int]:
        if self._sign is None:
            self._sign = _exponent_sign(self.F, self.h)
        return self._sign


# Holds the records of a point's two one-sided expansions, so that the
# exponent, the classes and the exact tangent asked in turn at one rational
# expand and fold once, and the record computes its chart and its sign
# itself, once.  No answer depends on it, and it must stay smaller than any
# repeated batch of rationals, or a batch's second pass reads stored results
# instead of computing them.
@lru_cache(maxsize=2)
def _rational_period(s: Fraction, variant: ExpansionVariant) -> _RationalRecord:
    """The record of expand(s, variant)."""
    return _RationalRecord(expand(s, variant))


# ---------------------------------------------------------------------------
# Word combinatorics


def lyndon_words(length: int) -> Iterator[str]:
    """All Lyndon words of exactly the given length, lexicographically (Duval)."""
    if length < 1:
        raise ValueError("length must be >= 1")
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == length:
            yield "".join(map(str, w))
        while len(w) < length:
            w.append(w[-m])
        while w and w[-1] == 1:
            w.pop()


_COMPLEMENT = str.maketrans("01", "10")


def complement_word(word: str) -> str:
    return word.translate(_COMPLEMENT)


def min_rotation(word: str) -> str:
    return min(word[i:] + word[:i] for i in range(len(word)))


def necklace_classes(length: int, dedupe_complement: bool = False) -> list[str]:
    """Canonical representatives of primitive rotation classes of one length.

    The canonical representative is the lexicographically smallest rotation.
    With dedupe_complement, each {class, bitwise-complement class} pair keeps
    the representative with the smaller value.
    """
    words = list(lyndon_words(length))
    if not dedupe_complement:
        return words
    keep = []
    for w in words:
        cc = min_rotation(complement_word(w))
        if cc == w or int(w, 2) < int(cc, 2):
            keep.append(w)
    return keep


def transition_density(word: str) -> Fraction:
    """Cyclic fraction of adjacent positions whose bits differ."""
    if not word:
        raise ValueError("word must be nonempty")
    n = len(word)
    flips = sum(word[i] != word[(i + 1) % n] for i in range(n))
    return Fraction(flips, n)


def max_cyclic_run(word: str):
    """Longest run of equal bits in the periodic repetition of the word.

    Constant words repeat into a single infinite run, reported as math.inf.
    """
    if not word:
        raise ValueError("word must be nonempty")
    if len(set(word)) == 1:
        return math.inf
    doubled = word + word
    best = run = 1
    for i in range(1, len(doubled)):
        run = run + 1 if doubled[i] == doubled[i - 1] else 1
        best = max(best, run)
    return best


# ---------------------------------------------------------------------------
# Cones in the vector plane


class ConeError(ValueError):
    """Vector is outside the difference cone."""


@dataclass(frozen=True)
class ConeSpec:
    """Closed cone spanned by two independent vectors of the plane x+y+z=0."""

    gen0: Vec3Q
    gen1: Vec3Q

    def __post_init__(self):
        g0, g1 = self.gen0, self.gen1
        cross = (
            g0.y * g1.z - g0.z * g1.y,
            g0.z * g1.x - g0.x * g1.z,
            g0.x * g1.y - g0.y * g1.x,
        )
        if not any(cross):
            raise ValueError("cone generators must be linearly independent")

    def coefficients(self, v: Vec3Q) -> Optional[tuple[Fraction, Fraction]]:
        """Exact (a, b) with a*gen0 + b*gen1 = v, or None if v is outside the span."""
        g0, g1 = self.gen0.coords, self.gen1.coords
        w = v.coords
        for i, j in ((0, 1), (0, 2), (1, 2)):
            det = g0[i] * g1[j] - g0[j] * g1[i]
            if det == 0:
                continue
            a = (w[i] * g1[j] - w[j] * g1[i]) / det
            b = (g0[i] * w[j] - g0[j] * w[i]) / det
            k = 3 - i - j
            if a * g0[k] + b * g1[k] != w[k]:
                return None
            return (a, b)
        return None

    def contains(self, v: Vec3Q) -> bool:
        """Membership in the cone minus the origin."""
        coeffs = self.coefficients(v)
        if coeffs is None:
            return False
        a, b = coeffs
        return a >= 0 and b >= 0 and (a, b) != (0, 0)


DIFFERENCE_CONE = ConeSpec(MAJOR_EIGVEC_0, MAJOR_EIGVEC_1)
OUTER_CONE = ConeSpec(MINOR_EIGVEC_0, MINOR_EIGVEC_1)


def in_value_triangle(v: Vec3Q) -> bool:
    """Membership in the closed triangle of nonnegative affine coordinates."""
    return v.x >= 0 and v.y >= 0 and v.z >= 0 and v.coord_sum() == 1
