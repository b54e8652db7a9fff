"""Evaluation of harmonic functions on the gasket.

Exact values of the vector-valued boundary curve at dyadic points and at
triangle addresses, certified approximation elsewhere, and exact discrete
harmonic grids on the level-n vertex graphs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .exact import (
    E0,
    E1,
    EW,
    Expansion,
    RationalLike,
    Vec3Q,
    expand_auto,
    _GEN3,
    _norm_symbol,
)

CENTROID = Vec3Q.of(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

DEFAULT_GRID_CAP = 10
GRID_CAP_ENV = "HARMONIC_GRID_CAP"

class GridCapExceeded(RuntimeError):
    """Requested grid level is above the configured cap."""


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


def _apply_word_int(word: str, start: tuple[int, int, int]) -> tuple[int, int, int]:
    for ch in reversed(word):
        start = _GEN3[ch].apply_int(start)
    return start


def curve_point_dyadic(k: int, n: int) -> Vec3Q:
    """Exact curve value at the dyadic parameter k / 2**n."""
    if n < 0 or not 0 <= k <= (1 << n):
        raise ValueError(f"{k}/2^{n} is outside [0,1]")
    if k == 1 << n:
        return E1
    word = format(k, f"0{n}b") if n else ""
    x, y, z = _apply_word_int(word, (1, 0, 0))
    den = 5 ** n
    return Vec3Q(Fraction(x, den), Fraction(y, den), Fraction(z, den))


def vertex_value(address: str) -> Vec3Q:
    """Exact vector harmonic value at the vertex addressed by a {0,1,w} word."""
    word = "".join(_norm_symbol(ch) for ch in address)
    x, y, z = _apply_word_int(word, (1, 0, 0))
    den = 5 ** len(word)
    return Vec3Q(Fraction(x, den), Fraction(y, den), Fraction(z, den))


def truncated_curve_value(e: Expansion, terms: int, start: Vec3Q = CENTROID) -> Vec3Q:
    """Exact image of a start point under the first `terms` expansion letters."""
    if terms < 0:
        raise ValueError("terms must be nonnegative")
    word = e.bits(terms)
    den0 = 1
    for c in start.coords:
        den0 = den0 * c.denominator // math.gcd(den0, c.denominator)
    ints = tuple(int(c * den0) for c in start.coords)
    x, y, z = _apply_word_int(word, ints)
    den = den0 * 5 ** len(word)
    return Vec3Q(Fraction(x, den), Fraction(y, den), Fraction(z, den))


def approx_error_bound(terms: int) -> float:
    """Max-norm radius 2 * (3/5)**terms of the certified approximation."""
    bound = 2.0 * (0.6 ** terms)
    return bound if bound > 0.0 else 5e-324


def curve_point(s: Union[Expansion, RationalLike], terms: int = 48,
                start: Vec3Q = CENTROID) -> ApproxPoint:
    """Certified approximation of the curve at any parameter in [0,1]."""
    e = s if isinstance(s, Expansion) else expand_auto(Fraction(s))
    v = truncated_curve_value(e, terms, start)
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


def _mid(p: GridKey, q: GridKey) -> GridKey:
    return ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)


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
        nbrs: dict = {k: set() for k in self.values}
        for a, b, c in self.triangles:
            nbrs[a].update((b, c))
            nbrs[b].update((a, c))
            nbrs[c].update((a, b))
        return nbrs

    def side_values(self) -> list[tuple[Fraction, object]]:
        """(parameter, value) pairs along the bottom side, sorted."""
        out = [(k[0], v) for k, v in self.values.items() if k[1] == 0]
        out.sort(key=lambda kv: kv[0])
        return out

    def _sorted_keys(self) -> list[GridKey]:
        return sorted(self.values, key=lambda k: (k[0], k[1]))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        sample = next(iter(self.values.values()))
        if isinstance(sample, Vec3Q):
            writer.writerow(["x", "y", "value_x", "value_y", "value_z"])
            for k in self._sorted_keys():
                v = self.values[k]
                writer.writerow([str(k[0]), str(k[1]), str(v.x), str(v.y), str(v.z)])
        else:
            writer.writerow(["x", "y", "value"])
            for k in self._sorted_keys():
                writer.writerow([str(k[0]), str(k[1]), str(self.values[k])])
        return buf.getvalue()

    def to_json(self) -> str:
        keys = self._sorted_keys()
        index = {k: i for i, k in enumerate(keys)}
        vertices = []
        for k in keys:
            v = self.values[k]
            val = [str(c) for c in v.coords] if isinstance(v, Vec3Q) else str(v)
            vertices.append({"x": str(k[0]), "y": str(k[1]), "value": val})
        tris = sorted(tuple(sorted(index[p] for p in tri)) for tri in self.triangles)
        return json.dumps({"level": self.level, "vertices": vertices,
                           "triangles": tris}, separators=(",", ":"))


def _grid_cap(explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get(GRID_CAP_ENV)
    return int(env) if env else DEFAULT_GRID_CAP


def harmonic_grid(boundary, level: int, cap: Optional[int] = None) -> HarmonicGrid:
    """Exact harmonic grid at the given subdivision level.

    The triangle count is 3**level; levels above the cap (default 10, or the
    HARMONIC_GRID_CAP environment variable) raise GridCapExceeded.
    """
    if not isinstance(boundary, BoundaryTriple):
        boundary = BoundaryTriple(*boundary)
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level > _grid_cap(cap):
        raise GridCapExceeded(f"level {level} exceeds grid cap {_grid_cap(cap)}")
    tris = [(
        (CORNER_ZERO, _exactify(boundary.at_zero)),
        (CORNER_ONE, _exactify(boundary.at_one)),
        (CORNER_OMEGA, _exactify(boundary.at_omega)),
    )]
    for _ in range(level):
        nxt = []
        for (ps, vs), (pt, vt), (pu, vu) in tris:
            vst, vsu, vtu = subdivide((vs, vt, vu))
            mst, msu, mtu = _mid(ps, pt), _mid(ps, pu), _mid(pt, pu)
            nxt.append(((ps, vs), (mst, vst), (msu, vsu)))
            nxt.append(((mst, vst), (pt, vt), (mtu, vtu)))
            nxt.append(((msu, vsu), (mtu, vtu), (pu, vu)))
        tris = nxt
    values: dict = {}
    triangles = []
    for tri in tris:
        for key, val in tri:
            prev = values.setdefault(key, val)
            if prev != val:
                raise AssertionError(f"inconsistent value at vertex {key}")
        triangles.append(tuple(key for key, _ in tri))
    return HarmonicGrid(level, values, tuple(triangles))


def check_harmonic(grid: HarmonicGrid) -> bool:
    """True iff every non-corner vertex is the exact mean of its 4 neighbors."""
    corners = set(grid.corners())
    nbrs = grid.neighbor_map()
    for key, val in grid.values.items():
        if key in corners:
            continue
        around = nbrs[key]
        if len(around) != 4:
            return False
        total = None
        for nb in around:
            total = grid.values[nb] if total is None else total + grid.values[nb]
        if total != 4 * val:
            return False
    return True


def mirror(v: Vec3Q) -> Vec3Q:
    """Swap the first two coordinates; matches reversing the side parameter."""
    return Vec3Q(v.y, v.x, v.z)


def form_value(form: LinearForm, s: Union[Expansion, RationalLike],
               terms: int = 48) -> Union[Fraction, ApproxPoint]:
    """Scalar harmonic value along the side: exact at dyadics, certified otherwise."""
    if isinstance(s, Expansion):
        frac = s.value()
        e: Optional[Expansion] = s
    else:
        frac = Fraction(s)
        e = None
    if not 0 <= frac <= 1:
        raise ValueError(f"{frac} is outside [0,1]")
    den = frac.denominator
    if den & (den - 1) == 0:
        n = den.bit_length() - 1
        v = curve_point_dyadic(frac.numerator, n)
        return form(v)
    if e is None:
        e = expand_auto(frac)
    v = truncated_curve_value(e, terms)
    bound = float(form.l1()) * approx_error_bound(terms)
    return ApproxPoint((float(form(v)),), bound)
