"""Evaluation of harmonic functions on the gasket.

Exact values of the vector-valued boundary curve at dyadic points and at
triangle addresses, certified approximation elsewhere, and exact discrete
harmonic grids on the level-n vertex graphs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Union

from .exact import (
    E0,
    E1,
    EW,
    Expansion,
    GridCapExceeded,
    RationalLike,
    Vec3Q,
    _GEN3,
    _auto_variant,
    _norm_symbol,
    _prefix_bits,
)

CENTROID = Vec3Q.of(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

DEFAULT_GRID_CAP = 10


@dataclass(frozen=True)
class BoundaryTriple:
    """Boundary data: values at the corners 0, 1 and w."""

    at_zero: Union[Fraction, Vec3Q]
    at_one: Union[Fraction, Vec3Q]
    at_omega: Union[Fraction, Vec3Q]


VECTOR_BOUNDARY = BoundaryTriple(E0, E1, EW)


@dataclass(frozen=True)
class LinearForm:
    """Row form acting on value vectors by dot product."""

    row: tuple[Fraction, Fraction, Fraction]

    @classmethod
    def of(cls, a, b, c) -> "LinearForm":
        return cls((Fraction(a), Fraction(b), Fraction(c)))

    def __call__(self, v: Vec3Q) -> Fraction:
        return v.dot(self.row)

    def l1(self) -> Fraction:
        return sum(abs(c) for c in self.row)

    @classmethod
    def parse(cls, text: str) -> "LinearForm":
        name = text.strip().lower()
        if name in FORM_PRESETS:
            return FORM_PRESETS[name]
        parts = [p for p in text.split(",") if p.strip()]
        if len(parts) != 3:
            raise ValueError(f"unknown form {text!r}; use a preset name or 'a,b,c'")
        return cls.of(*(Fraction(p.strip()) for p in parts))


FORM_PRESETS = {
    "phi": LinearForm.of(0, 1, 0),
    "psi": LinearForm.of(0, 1, 1),
    "chi": LinearForm.of(0, 1, -1),
    "xi": LinearForm.of(0, 1, 2),
}


@dataclass(frozen=True)
class ApproxPoint:
    """Float value with a certified max-norm error radius."""

    value: tuple[float, ...]
    error_bound: float


def _word_value(word: str, start: tuple[int, int, int], den: int) -> Vec3Q:
    """Exact image of the point start / den under the maps of a {0,1,w} word."""
    for ch in reversed(word):
        start = _GEN3[ch].apply_int(start)
    den *= 5 ** len(word)
    return Vec3Q(*(Fraction(c, den) for c in start))


def curve_point_dyadic(k: int, n: int) -> Vec3Q:
    """Exact curve value at the dyadic parameter k / 2**n."""
    if n < 0 or not 0 <= k <= (1 << n):
        raise ValueError(f"{k}/2^{n} is outside [0,1]")
    if k == 1 << n:
        return E1
    return _word_value(format(k, f"0{n}b") if n else "", (1, 0, 0), 1)


def vertex_value(address: str) -> Vec3Q:
    """Exact vector harmonic value at the vertex addressed by a {0,1,w} word."""
    return _word_value("".join(_norm_symbol(ch) for ch in address), (1, 0, 0), 1)


def truncated_curve_value(e: Union[Expansion, RationalLike], terms: int,
                          start: Vec3Q = CENTROID) -> Vec3Q:
    """Exact image of a start point under the first `terms` expansion letters.

    A rational takes its upper expansion, or its lower one at 1.
    """
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    if isinstance(e, Expansion):
        word = e.bits(terms)
    else:
        s = Fraction(e)
        word = _prefix_bits(s, terms, _auto_variant(s))
    den = math.lcm(*(c.denominator for c in start.coords))
    return _word_value(word, tuple(c.numerator * (den // c.denominator) for c in start.coords), den)


def approx_error_bound(terms: int) -> float:
    """Max-norm radius 2 * (3/5)**terms of the certified approximation."""
    bound = 2.0 * (0.6 ** terms)
    return bound if bound > 0.0 else 5e-324


def curve_point(s: Union[Expansion, RationalLike], terms: int = 48) -> ApproxPoint:
    """Certified approximation of the curve at any parameter in [0,1]."""
    v = truncated_curve_value(s, terms)
    return ApproxPoint(v.floats(), approx_error_bound(terms))


def _exactify(v):
    return Fraction(v) if isinstance(v, int) else v


def subdivide(corner_values):
    """Midpoint values of one triangle by the 2-2-1 harmonic extension rule.

    For corners (s, t, u) returns the values at the midpoints of (s,t),
    (s,u) and (t,u).  Values may be Fractions or Vec3Q.
    """
    a, b, c = (_exactify(v) for v in corner_values)
    return ((2 * a + 2 * b + c) / 5, (2 * a + b + 2 * c) / 5, (a + 2 * b + 2 * c) / 5)


GridKey = tuple[Fraction, Fraction]

CORNER_ZERO: GridKey = (Fraction(0), Fraction(0))
CORNER_ONE: GridKey = (Fraction(1), Fraction(0))
CORNER_OMEGA: GridKey = (Fraction(0), Fraction(1))

# Scaled by size = 2**n, a level-n vertex (a, b) is the lattice point
# (i, j) = size * (a, b) with i + j <= size, kept at the flat index
# i * (size + 1) + j; flat indices order vertices as their keys do.  The
# level-n cells are the up-triangles (i, j), (i + 1, j), (i, j + 1) with
# i & j == 0.


def _lattice_fractions(size: int) -> list[Fraction]:
    return [Fraction(k, size) for k in range(size + 1)]


def _positions(keys, size: int) -> list[int]:
    """Flat indices of vertex keys, in their order; ValueError when a key is
    off the lattice."""
    # a coordinate in lowest terms on the lattice has the denominator
    # 2**k <= size, and size >> k is its step
    step = {1 << k: size >> k for k in range(size.bit_length())}
    m = size + 1
    out = []
    for key in keys:
        (na, da), (nb, db) = key[0].as_integer_ratio(), key[1].as_integer_ratio()
        sa, sb = step.get(da), step.get(db)
        if sa is None or sb is None:
            raise ValueError(f"vertex {key} is off the lattice of side 1/{size}")
        i, j = na * sa, nb * sb
        if i < 0 or j < 0 or i + j > size:
            raise ValueError(f"vertex {key} is off the lattice of side 1/{size}")
        out.append(i * m + j)
    return out


def _neighbours(p: int, size: int) -> list[int]:
    """Flat indices of the other corners of the cells that hold the lattice
    point p."""
    m = size + 1
    i, j = divmod(p, m)
    out = []
    if i + j < size and not i & j:
        out += (p + m, p + 1)
    if i and not (i - 1) & j:
        out += (p - m, p - m + 1)
    if j and not i & (j - 1):
        out += (p - 1, p + m - 1)
    return out


@dataclass(frozen=True, eq=False)
class HarmonicGrid:
    """Exact harmonic values on all vertices of a level-n approximation.

    Vertex keys are coordinate pairs (a, b) meaning the point a + b*w in the
    plane, which dedups vertices shared between adjacent triangles exactly.
    """

    level: int
    values: dict
    triangles: tuple[tuple[GridKey, GridKey, GridKey], ...]

    def corners(self) -> tuple[GridKey, GridKey, GridKey]:
        return (CORNER_ZERO, CORNER_ONE, CORNER_OMEGA)

    def neighbor_map(self) -> dict:
        size = 1 << self.level
        m = size + 1
        fr = _lattice_fractions(size)
        return {k: {(fr[q // m], fr[q % m]) for q in _neighbours(p, size)}
                for k, p in zip(self.values, _positions(self.values, size))}

    def side_values(self) -> list[tuple[Fraction, object]]:
        """(parameter, value) pairs along the bottom side, sorted."""
        side = [(k, v) for k, v in self.values.items() if not k[1]]
        at = _positions([k for k, _ in side], 1 << self.level)
        return [(k[0], v) for _, (k, v) in sorted(zip(at, side))]

    def _lattice(self) -> tuple[int, list[str], list]:
        """Row length of the flat lattice, the labels of its coordinates,
        and the values at their flat indices (None off the grid), which
        lists them in the order of their keys."""
        size = 1 << self.level
        flat = [None] * (size + 1) ** 2
        for p, value in zip(_positions(self.values, size), self.values.values()):
            flat[p] = value
        return size + 1, [str(f) for f in _lattice_fractions(size)], flat

    def to_csv(self) -> str:
        m, labels, flat = self._lattice()
        vector = isinstance(next(iter(self.values.values())), Vec3Q)
        # labels and exact values hold only digits, '-' and '/', which no CSV
        # field needs quoted
        lines = ["x,y,value_x,value_y,value_z" if vector else "x,y,value"]
        lines += [",".join((labels[p // m], labels[p % m], *map(str, v.coords if vector else (v,))))
                  for p, v in enumerate(flat) if v is not None]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        m, labels, flat = self._lattice()
        vertices = []
        for p, v in enumerate(flat):
            if v is None:
                continue
            # labels and exact values hold only digits, '-' and '/', which a
            # JSON string carries as they are
            value = '["%s","%s","%s"]' % v.coords if isinstance(v, Vec3Q) else '"%s"' % v
            vertices.append('{"x":"%s","y":"%s","value":%s}' % (labels[p // m], labels[p % m],
                                                               value))
            flat[p] = len(vertices) - 1  # from here on, the vertex's index
        corners = iter(_positions(chain.from_iterable(self.triangles), m - 1))
        tris = sorted(tuple(sorted((flat[a], flat[b], flat[c])))
                      for a, b, c in zip(corners, corners, corners))
        return '{"level":%d,"vertices":[%s],"triangles":%s}' % (
            self.level, ",".join(vertices), json.dumps(tris, separators=(",", ":")))


def harmonic_grid(boundary, level: int, cap: int = DEFAULT_GRID_CAP) -> HarmonicGrid:
    """Exact harmonic grid at the given subdivision level.

    The triangle count is 3**level; levels above the cap raise GridCapExceeded.
    """
    if not isinstance(boundary, BoundaryTriple):
        boundary = BoundaryTriple(*boundary)
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level > cap:
        raise GridCapExceeded(f"level {level} exceeds grid cap {cap}")
    corners = (boundary.at_zero, boundary.at_one, boundary.at_omega)
    vector = isinstance(corners[0], Vec3Q)
    if any(isinstance(v, Vec3Q) != vector for v in corners):
        raise TypeError("boundary values must be all Vec3Q or all rationals")
    coords = [[Fraction(c) for c in (v.coords if vector else (v,))] for v in corners]
    den = math.lcm(*(c.denominator for cs in coords for c in cs))
    scale = den * 5 ** level
    size = 1 << level
    m = size + 1

    # Cells are triples of flat indices, split level by level into the
    # children (s, st, su), (st, t, tu), (su, tu, u), so `cells` ends in the
    # order of a level-by-level subdivision.  A vertex's value is a tuple of
    # integers over the final scale den * 5**level.  A midpoint of a level-k
    # cell is (2a + 2b + c) / 5 of the cell's corners.  Because the corners
    # start at the final scale, the numerators of every vertex of a level-k
    # cell are multiples of 5**(level - k), so each division by 5 is exact
    # and keeps that true at level k + 1.  Cells meet only at corners, so
    # each level sets three new midpoints per cell; a midpoint that was
    # already set would leave the count short.
    ints = {p: tuple(c.numerator * (scale // c.denominator) for c in cs)
            for p, cs in zip((0, size * m, size), coords)}
    cells = [(0, size * m, size)]
    for depth in range(level):
        children = []
        for s, t, u in cells:
            abc = tuple(zip(ints[s], ints[t], ints[u]))
            st, su, tu = (s + t) >> 1, (s + u) >> 1, (t + u) >> 1
            ints[st] = tuple([(2 * (a + b) + c) // 5 for a, b, c in abc])
            ints[su] = tuple([(2 * (a + c) + b) // 5 for a, b, c in abc])
            ints[tu] = tuple([(a + 2 * (b + c)) // 5 for a, b, c in abc])
            children += ((s, st, su), (st, t, tu), (su, tu, u))
        if len(ints) != (3 ** (depth + 2) + 3) // 2:  # the vertices of level depth + 1
            raise AssertionError(f"a midpoint of a level-{depth} cell was already set")
        cells = children

    # Keys and values in the order the cells first meet their vertices;
    # each integer tuple is dropped once its value is made.
    fr = _lattice_fractions(size)
    keys = dict.fromkeys(chain.from_iterable(cells))
    values: dict = {}
    for p in keys:
        key = keys[p] = (fr[p // m], fr[p % m])
        v = ints.pop(p)
        values[key] = (Vec3Q(*(Fraction(x, scale) for x in v)) if vector
                       else Fraction(v[0], scale))
    return HarmonicGrid(level, values, tuple((keys[s], keys[t], keys[u]) for s, t, u in cells))


def check_harmonic(grid: HarmonicGrid) -> bool:
    """True iff every non-corner vertex is the exact mean of its 4 neighbors.

    Keys map to the 2**n lattice and values to integers over one common
    denominator; a key off the lattice or a missing neighbour fails.
    """
    size = 1 << grid.level
    try:
        positions = _positions(grid.values, size)
    except ValueError:
        return False
    vals = list(grid.values.values())
    columns = list(zip(*(v.coords for v in vals))) if isinstance(vals[0], Vec3Q) else [vals]
    scale = math.lcm(*{c.denominator for column in columns for c in column})
    flats = []
    for column in columns:
        flat = [None] * (size + 1) ** 2
        for p, c in zip(positions, column):
            flat[p] = c.numerator * (scale // c.denominator)
        flats.append(flat)
    corners = (0, size, size * (size + 1))
    try:
        for p in positions:
            if p in corners:
                continue
            around = _neighbours(p, size)
            if len(around) != 4:
                return False
            a, b, c, d = around
            for flat in flats:
                if flat[a] + flat[b] + flat[c] + flat[d] != 4 * flat[p]:
                    return False
    except TypeError:  # a neighbour is None: it is not in the grid
        return False
    return True


def mirror(v: Vec3Q) -> Vec3Q:
    """Swap the first two coordinates; matches reversing the side parameter."""
    return Vec3Q(v.y, v.x, v.z)


def form_value(form: LinearForm, s: Union[Expansion, RationalLike],
               terms: int = 48) -> Union[Fraction, ApproxPoint]:
    """Scalar harmonic value along the side: exact at dyadics, certified otherwise."""
    frac = s.value() if isinstance(s, Expansion) else Fraction(s)
    if not 0 <= frac <= 1:
        raise ValueError(f"{frac} is outside [0,1]")
    den = frac.denominator
    if den & (den - 1) == 0:
        n = den.bit_length() - 1
        v = curve_point_dyadic(frac.numerator, n)
        return form(v)
    v = truncated_curve_value(s, terms)
    bound = float(form.l1()) * approx_error_bound(terms)
    return ApproxPoint((float(form(v)),), bound)
