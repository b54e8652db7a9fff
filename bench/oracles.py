"""Independent oracles for the benchmark.

Nothing here imports ``sgharm``.  The generator matrices are derived from
the 2-2-1 harmonic extension rule, binary digits come from long division,
word products use a balanced product tree instead of the library's left
fold, real numbers are evaluated with ``mpmath`` at high precision, and
multiplicative orders come from ``sympy`` (imported only where needed, so
the process that runs a workload never loads it).

Every ``check_*`` function raises ``Mismatch`` with a reason when the
program's result disagrees with the oracle.
"""

from __future__ import annotations

import json
import math
import random
import re
import statistics
from fractions import Fraction

import mpmath

PREC = 320  # bits for every mpmath evaluation below


class Mismatch(AssertionError):
    """A program output disagrees with the oracle."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# Generators from the 2-2-1 rule


def _unit(i: int) -> list[int]:
    return [5 if k == i else 0 for k in range(3)]


def _midpoint(a: int, b: int) -> list[int]:
    # harmonic value at the midpoint of edge (a, b): 2/5, 2/5 and 1/5 weight
    # on the opposite corner; stored scaled by 5
    c = 3 - a - b
    out = [0, 0, 0]
    out[a], out[b], out[c] = 2, 2, 1
    return out


def _subcell(c: int) -> tuple[tuple[int, ...], ...]:
    # the cell at corner c keeps c and replaces corner k by the midpoint of
    # (c, k); column k holds the weights of new corner k on the old corners
    cols = [_unit(c) if k == c else _midpoint(c, k) for k in range(3)]
    return tuple(tuple(cols[j][i] for j in range(3)) for i in range(3))


# corners in the order 0, 1, w; entries are integers over 5
GEN = {"0": _subcell(0), "1": _subcell(1), "w": _subcell(2)}
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def matmul(a, b):
    (a0, a1, a2), (a3, a4, a5), (a6, a7, a8) = a
    (b0, b1, b2), (b3, b4, b5), (b6, b7, b8) = b
    return ((a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8),
            (a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8),
            (a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8))


def apply(m, v):
    return tuple(sum(m[i][k] * v[k] for k in range(3)) for i in range(3))


def word_matrix(word: str):
    """Integer product GEN[w0] @ GEN[w1] @ ..., scaled by 5**len(word).

    Balanced product tree, so long words cost a few big multiplications.
    """
    if not word:
        return IDENTITY
    level = [GEN[ch] for ch in word]
    while len(level) > 1:
        nxt = [matmul(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def edge_generators():
    """2x2 integer restrictions to the plane x+y+z=0 in the basis
    (e0 - e1, e1 - ew), derived from GEN.  The estimators' matrix norm
    depends on this basis, so prefix estimates use the same one."""
    out = {}
    for ch in "01":
        g = GEN[ch]
        cols = []
        for u in ((1, -1, 0), (0, 1, -1)):
            x, _, z = apply(g, u)
            cols.append((x, -z))  # v = x*(e0-e1) - z*(e1-ew) for v in the plane
        out[ch] = ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
    return out


EDGE2 = edge_generators()


# ---------------------------------------------------------------------------
# Binary digits and periods


def odd_part(q: int) -> tuple[int, int]:
    a = (q & -q).bit_length() - 1
    return a, q >> a


def digits(s: Fraction, n: int, lower: bool = False) -> str:
    """First n binary digits of s in [0,1] by long division.

    lower=True gives the expansion ending in ones at dyadic points (and at 1).
    """
    p, q = s.numerator, s.denominator
    if lower and odd_part(q)[1] == 1:
        if p == 0:
            raise ValueError("0 has no lower expansion")
        p, q = p * 2 - 1, q * 2  # s - 2**-(k+1): the next digits are all ones
        head = []
        for _ in range(n):
            p *= 2
            head.append("1" if p >= q else "0")
            p -= q if p >= q else 0
            if p == 0:
                break
        return ("".join(head) + "1" * n)[:n]
    out = []
    for _ in range(n):
        p *= 2
        bit = p >= q
        out.append("1" if bit else "0")
        if bit:
            p -= q
    return "".join(out)


def period_length(s: Fraction) -> int:
    """Length of the minimal period of the binary expansion (sympy's order)."""
    from sympy.ntheory import n_order

    m = odd_part(Fraction(s).denominator)[1]
    return 1 if m == 1 else int(n_order(2, m))


def check_expansion(pre: str, period: str, s: Fraction, n: int) -> None:
    """Period length n, minimal period and preperiod, and value round trip."""
    expect(len(period) == n, f"period length {len(period)} != {n}")
    expect(set(pre + period) <= {"0", "1"}, "expansion has non-binary letters")
    k, m = len(pre), len(period)
    head = int(pre, 2) if pre else 0
    value = Fraction(head * ((1 << m) - 1) + int(period, 2), ((1 << m) - 1) << k)
    expect(value == s, f"expansion 0.{pre}({period}) does not round-trip to {s}")
    expect(not pre or pre[-1] != period[-1], "preperiod is not minimal")
    expect((period + period).find(period, 1) == m, "period is not primitive")


# ---------------------------------------------------------------------------
# Exponents


def exponent(period: str, m=None) -> dict:
    """Exact scaled trace, the exponent to PREC bits and the derivative class.

    The plane restriction has determinant (3/25)**n, so the dominant
    eigenvalue is (t + sqrt(t*t - 4*3**n)) / (2*5**n).  The class is zero
    iff that eigenvalue is below 2**-n, decided in integers.
    """
    n = len(period)
    m = m or word_matrix(period)
    t = m[0][0] + m[1][1] + m[2][2] - 5 ** n  # 5**n times the plane trace
    disc = t * t - 4 * 3 ** n
    bound = 2 * 5 ** n - (t << n)  # 2**n * sqrt(disc) < bound  <=>  zero
    zero = bound > 0 and (disc << (2 * n)) < bound * bound
    with mpmath.workprec(PREC):
        lam = (mpmath.mpf(t) + mpmath.sqrt(mpmath.mpf(disc))) / 2
        alpha = (n * mpmath.log(5) - mpmath.log(lam)) / (n * mpmath.log(2))
        text = mpmath.nstr(alpha, 60)
    return {"trace": hex(t), "alpha": text, "zero": zero}


def check_exponent(report, exp: dict, n: int) -> None:
    """Scaled trace, enclosure of the exponent, and class vs the oracle."""
    expect(report.period_length == n, f"period_length {report.period_length} != {n}")
    expect(report.scaled_trace == int(exp["trace"], 16), "scaled trace differs")
    with mpmath.workprec(PREC):
        alpha = mpmath.mpf(exp["alpha"])
        lo, hi = mpmath.mpf(report.alpha_lo), mpmath.mpf(report.alpha_hi)
        expect(lo <= alpha <= hi, f"exponent {mpmath.nstr(alpha, 20)} outside "
                                  f"[{report.alpha_lo!r}, {report.alpha_hi!r}]")
    expect(report.alpha_lo <= report.alpha <= report.alpha_hi, "alpha outside its enclosure")
    expect(exp["zero"] == (alpha > 1), "oracle class disagrees with its exponent")
    expect(report.derivative_class.value == ("zero" if exp["zero"] else "infinite"),
           f"class {report.derivative_class.value} is wrong")


# ---------------------------------------------------------------------------
# Tangent directions
#
# The chart of a plane vector v is v.z / (2 v.y + v.z).  The vector
# ((-1-x)/2, (1-x)/2, x) has chart x, so a 3x3 matrix acts on charts by a
# Moebius map whose coefficients are read off its image of that vector.


def _chart_image(m, x):
    v = (-(1 + x) / 2, (1 - x) / 2, x)
    y, z = (sum(m[i][k] * v[k] for k in range(3)) for i in (1, 2))
    return z / (2 * y + z)


def _fixed_point(m):
    # fixed points of x -> chart(m v(x)): solve a x^2 + b x + c = 0
    # with v(x) = P + x Q, P = (-1/2, 1/2, 0), Q = (-1/2, -1/2, 1) (doubled)
    P = apply(m, (-1, 1, 0))
    Q = apply(m, (-1, -1, 2))
    a = 2 * Q[1] + Q[2]
    b = 2 * P[1] + P[2] - Q[2]
    c = -P[2]
    root = mpmath.sqrt(mpmath.mpf(b * b - 4 * a * c))
    inside = [x for x in ((-b + root) / (2 * a), (-b - root) / (2 * a))
              if -1 <= 3 * x <= 1]
    expect(len(inside) == 1, "oracle: no unique fixed point in [-1/3, 1/3]")
    return inside[0]


def exact_direction(pre: str, period: str, m=None) -> str:
    """Chart of the fixed point in [-1/3, 1/3] of the period's projective
    map (m, its matrix, if already known), pushed through the preperiod, as
    a decimal string."""
    with mpmath.workprec(PREC):
        x = _fixed_point(m or word_matrix(period))
        if pre:
            x = _chart_image(word_matrix(pre), x)
        return mpmath.nstr(x, 60)


def limit_direction(s: Fraction, lower: bool, letters: int = 240) -> Fraction:
    """Chart of the chord M(b1..bk)(e1 - e0) for the first k digits of s.

    Both projective maps contract charts by 3/4, so this is within
    (2/3)(3/4)**k of the one-sided tangent direction.
    """
    v = (-1, 1, 0)
    for ch in reversed(digits(s, letters, lower)):
        v = apply(GEN[ch], v)
    return Fraction(v[2], 2 * v[1] + v[2])


def quad_value(t: Fraction, d: Fraction, plus: bool):
    root = mpmath.sqrt(mpmath.mpf(d.numerator) / d.denominator)
    base = mpmath.mpf(t.numerator) / t.denominator
    return (base + root) / 2 if plus else (base - root) / 2


def check_exact_direction(t: Fraction, d: Fraction, plus: bool, pre: str, period: str,
                          spec: dict) -> None:
    """(t +- sqrt(d))/2 is the oracle's fixed-point chart for spec's expansion."""
    expect(period == spec["period"] and pre == spec["pre"], "direction used another expansion")
    with mpmath.workprec(PREC):
        got = quad_value(t, d, plus)
        want = mpmath.mpf(spec["chart"])
        expect(abs(got - want) < mpmath.mpf(2) ** -200,
               f"exact direction {mpmath.nstr(got, 15)} != {mpmath.nstr(want, 15)}")


def check_approx_direction(pd, want: Fraction, tol: Fraction) -> None:
    expect(pd.error <= tol, "direction error bound above the tolerance")
    slack = Fraction(1, 10 ** 24)  # the oracle's own truncation error
    off = abs(pd.chart - want)
    expect(off <= pd.error + slack,
           f"approximate direction off by {float(off):.3g} > {float(pd.error):.3g}")


def check_direction_json(data: dict, spec: dict) -> None:
    check_exact_direction(Fraction(data["chart_t"]), Fraction(data["chart_d"]),
                          data["chart_plus_root"], data["preperiod"], data["period"], spec)
    expect(abs(data["chart"] - float(mpmath.mpf(spec["chart"]))) <= 1e-12, "chart float differs")


def check_exponent_json(data: dict, spec: dict) -> None:
    """The CLI's exponent report: expansion, trace, exponent and class."""
    s = Fraction(spec["s"])
    n = len(spec["period"])
    pre, _, period = data["expansion"][2:-1].partition("(")
    check_expansion(pre, period, s, n)
    expect(data["period"] == period == spec["period"] and data["period_length"] == n,
           "exponent report has another period")
    exp = spec["exp"]
    expect(data["scaled_trace"] == int(exp["trace"], 16), "scaled trace differs")
    width = data["alpha_enclosure_width"]
    expect(0 < width <= 1e-12, "enclosure width out of range")
    expect(abs(data["alpha"] - float(exp["alpha"])) <= width, "exponent outside its enclosure")
    expect(data["derivative_class"] == ("zero" if exp["zero"] else "infinite"), "class differs")


# ---------------------------------------------------------------------------
# Scalar side functions


PRESET_KERNELS = {("chi", Fraction(0)), ("xi", Fraction(1))}


def check_presets(classes: dict, s: Fraction, zero: bool) -> None:
    """Only chi at 0 and xi at 1 are exceptional; the rest follow the curve."""
    curve = "zero" if zero else "infinite"
    for name, cls in classes.items():
        want = "exceptional" if (name, s) in PRESET_KERNELS else curve
        expect(cls == want, f"classify {name} at {s}: {cls} != {want}")


# ---------------------------------------------------------------------------
# Curve values


CENTROID = (1, 1, 1)  # over 3


def curve_value(s: Fraction, terms: int) -> tuple[Fraction, ...]:
    """Exact image of the centroid under the first `terms` digits of s."""
    v = apply(word_matrix(digits(s, terms)), CENTROID)
    den = 3 * 5 ** terms
    return tuple(Fraction(c, den) for c in v)


def curve_expectation(s: Fraction, terms: int) -> dict:
    """Floats of the truncated value, and of a value 60 letters deeper that
    stands in for the limit when checking the error bound."""
    return {"value": [float(c) for c in curve_value(s, terms)],
            "far": [float(c) for c in curve_value(s, terms + 60)]}


def check_curve_point(value, error_bound: float, want: dict) -> None:
    expect(list(value) == want["value"], "curve value differs")
    dist = max(abs(a - b) for a, b in zip(want["far"], value))
    expect(dist <= error_bound, f"curve error {dist:.3g} above its bound {error_bound:.3g}")


def dyadic_curve_value(k: int, n: int) -> tuple[Fraction, ...]:
    if k == 1 << n:
        return (Fraction(0), Fraction(1), Fraction(0))
    v = apply(word_matrix(format(k, f"0{n}b") if n else ""), (1, 0, 0))
    return tuple(Fraction(c, 5 ** n) for c in v)


# ---------------------------------------------------------------------------
# Estimators


LN2, LN5 = math.log(2.0), math.log(5.0)


def float_estimates(bits: str, ns, norm: str = "fro") -> list[tuple[int, float]]:
    """Prefix estimates (n ln 5 - ln |M_n|) / (n ln 2) in floating point.

    M_n is the edge-basis product scaled by 5**n; it is renormalised every
    letter and the scale kept as a logarithm.
    """
    wanted = set(ns)
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    log_scale = 0.0
    out = []
    for i, ch in enumerate(bits, 1):
        (p, q), (r, t) = EDGE2[ch]
        a, b, c, d = a * p + b * r, a * q + b * t, c * p + d * r, c * q + d * t
        big = max(abs(a), abs(b), abs(c), abs(d))
        a, b, c, d = a / big, b / big, c / big, d / big
        log_scale += math.log(big)
        if i in wanted:
            if norm == "fro":
                ln_norm = 0.5 * math.log(a * a + b * b + c * c + d * d)
            else:
                ln_norm = math.log(max(abs(a), abs(b), abs(c), abs(d)))
            out.append((i, (i * LN5 - ln_norm - log_scale) / (i * LN2)))
    return out


def lyapunov(nbits: int, trials: int, seed: int) -> dict:
    """Float recomputation of a Lyapunov sample from the same seeded bits."""
    rng = random.Random(seed)
    est = []
    for _ in range(trials):
        bits = format(rng.getrandbits(nbits), f"0{nbits}b")
        est.append(float_estimates(bits, [nbits])[0][1])
    return {"mean": statistics.fmean(est), "median": statistics.median(est),
            "min": min(est), "max": max(est),
            "fraction_above_one": sum(e > 1.0 for e in est) / trials}


def check_lyapunov(got: dict, want: dict) -> None:
    for key, value in want.items():
        expect(abs(got[key] - value) <= 1e-9, f"lyapunov {key}: {got[key]} vs {value}")


def check_estimates(points, want) -> None:
    expect(len(points) == len(want), "estimate trace has the wrong length")
    for (n, v), (wn, wv) in zip(points, want):
        expect(n == wn and abs(v - wv) <= 1e-9, f"estimate at {n}: {v} vs {wv}")


# ---------------------------------------------------------------------------
# Harmonic grids
#
# Scaled by 2**n, the level-n vertices are lattice points (i, j) meaning
# i + j*w.  The level-n cells are the unit up-triangles at (i, j) with
# i & j == 0 (Pascal's triangle mod 2); there are 3**n of them.


def grid_counts(n: int) -> tuple[int, int]:
    """(triangles, vertices) of the level-n graph."""
    return 3 ** n, (3 ** (n + 1) + 3) // 2


def _cell(i: int, j: int, size: int) -> bool:
    return i >= 0 and j >= 0 and i + j < size and i & j == 0


def lattice_neighbours(i: int, j: int, size: int) -> list[tuple[int, int]]:
    out = []
    if _cell(i, j, size):
        out += [(i + 1, j), (i, j + 1)]
    if _cell(i - 1, j, size):
        out += [(i - 1, j), (i - 1, j + 1)]
    if _cell(i, j - 1, size):
        out += [(i, j - 1), (i + 1, j - 1)]
    return out


def _scaled(x, scale: int, what) -> int:
    """scale * x for a Fraction x whose denominator divides scale."""
    x = Fraction(x)
    q, r = divmod(scale, x.denominator)
    expect(r == 0, f"{what} is off the grid's lattice")
    return x.numerator * q


def _coords(value) -> tuple:
    return value.coords if hasattr(value, "coords") else (value,)


def check_grid(grid, level: int, corner_values) -> None:
    """Counts, corners and the four-neighbour mean at every other vertex.

    Keys are scaled by 2**level and values by 5**level times the corners'
    common denominator, so that all the arithmetic is on integers.
    """
    size = 1 << level
    tris, verts = grid_counts(level)
    expect(len(grid.triangles) == tris, f"{len(grid.triangles)} triangles, want {tris}")
    expect(len(grid.values) == verts, f"{len(grid.values)} vertices, want {verts}")
    scale = 5 ** level
    for value in corner_values:
        for c in _coords(value):
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
    lattice = {key: (_scaled(key[0], size, key), _scaled(key[1], size, key))
               for key in grid.values}
    ints = {lattice[key]: tuple(_scaled(c, scale, key) for c in _coords(value))
            for key, value in grid.values.items()}
    expect(len(ints) == verts, "two vertices share a lattice point")
    corners = dict(zip(((0, 0), (size, 0), (0, size)), corner_values))
    for ij, want in corners.items():
        expect(ij in ints and ints[ij] == tuple(_scaled(c, scale, ij) for c in _coords(want)),
               f"corner {ij} has the wrong value")
    for ij, value in ints.items():
        if ij in corners:
            continue
        around = lattice_neighbours(ij[0], ij[1], size)
        expect(len(around) == 4, f"vertex {ij} has {len(around)} lattice neighbours")
        expect(all(nb in ints for nb in around), f"a neighbour of {ij} is missing")
        total = [sum(col) for col in zip(*(ints[nb] for nb in around))]
        expect(total == [4 * c for c in value], f"vertex {ij} is not the mean of its neighbours")
    for tri in grid.triangles:
        expect(all(k in lattice for k in tri), f"triangle {tri} has a corner off the grid")
        points = {lattice[k] for k in tri}
        i, j = min(points)
        expect(_cell(i, j, size) and points == {(i, j), (i + 1, j), (i, j + 1)},
               f"triangle {tri} is not a level-{level} cell")


def check_side_values(side, level: int) -> None:
    """Vector grid's bottom side equals the dyadic curve values."""
    size = 1 << level
    expect(len(side) == size + 1, "wrong number of side values")
    for k, (param, value) in enumerate(side):
        expect(param == Fraction(k, size), f"side parameter {param} out of order")
        expect(tuple(value.coords) == dyadic_curve_value(k, level),
               f"side value at {param} differs")


def _as_value(raw):
    return tuple(Fraction(c) for c in raw) if isinstance(raw, list) else Fraction(raw)


def check_grid_json(text: str, grid, level: int, vector: bool) -> None:
    """The JSON export lists every grid vertex with its value, and the cells."""
    data = json.loads(text)
    tris, verts = grid_counts(level)
    expect(data["level"] == level, "exported level differs")
    expect(len(data["vertices"]) == verts and len(data["triangles"]) == tris,
           "export has the wrong counts")
    keys = []
    for vert in data["vertices"]:
        key = (Fraction(vert["x"]), Fraction(vert["y"]))
        want = grid.values.get(key)
        expect(want is not None, f"exported vertex {key} is not in the grid")
        want = tuple(want.coords) if vector else want
        expect(_as_value(vert["value"]) == want, f"exported value at {key} differs")
        keys.append(key)
    cells = {frozenset(tri) for tri in grid.triangles}
    expect(all(frozenset(keys[i] for i in tri) in cells for tri in data["triangles"]),
           "an exported triangle is not a cell of the grid")


# ---------------------------------------------------------------------------
# Necklaces (reference rows and the maxrun experiment)


def necklaces(length: int) -> list[str]:
    """Smallest rotations of primitive binary words, complement classes merged
    onto the member with the smaller value."""
    out = set()
    for x in range(1 << length):
        w = format(x, f"0{length}b")
        if (w + w).find(w, 1) != length:
            continue
        rot = min(w[i:] + w[:i] for i in range(length))
        comp = rot.translate(str.maketrans("01", "10"))
        crot = min(comp[i:] + comp[:i] for i in range(length))
        out.add(min(rot, crot, key=lambda v: int(v, 2)))
    return sorted(out)


def reference_parameters(max_len: int = 7) -> list[Fraction]:
    """The parameters of the exponent table: one per necklace class."""
    out = []
    for n in range(1, max_len + 1):
        for w in necklaces(n):
            out.append(Fraction(1) if w == "1" else Fraction(int(w, 2), (1 << n) - 1))
    return out


def max_cyclic_run(word: str) -> float:
    if len(set(word)) == 1:
        return math.inf
    runs = [len(r) for r in re.findall(r"0+|1+", word + word)]
    return max(runs)


def maxrun_rows(max_len: int) -> dict:
    """Exponent and class of every necklace class whose cyclic runs are <= 2."""
    rows = {}
    for n in range(1, max_len + 1):
        for w in necklaces(n):
            if max_cyclic_run(w) <= 2:
                exp = exponent(w)
                rows[w] = {"alpha": exp["alpha"], "zero": exp["zero"]}
    return rows


def check_maxrun(data: dict, rows: dict) -> None:
    got = {r["period"]: r for r in data["rows"]}
    expect(set(got) == set(rows) and data["classes"] == len(rows),
           "maxrun lists other classes than the oracle")
    for w, want in rows.items():
        expect(abs(got[w]["alpha"] - float(want["alpha"])) <= 1e-9, f"maxrun alpha of {w}")
        expect(got[w]["alpha_above_one"] == want["zero"], f"maxrun class of {w}")
    expect(data["all_above_one"] == all(r["zero"] for r in rows.values()), "maxrun summary")


# ---------------------------------------------------------------------------
# The rendered image of the gasket under the vector harmonic map


def triangle_points(level: int, width: int = 800, height: int = 700) -> dict:
    """Canvas positions of all level-n vertex values, with the segment count.

    A value (x, y, z) is drawn at (y + z/2, z*sqrt(3)/2) on a canvas with a
    5% margin, the y axis pointing down.
    """
    points = set()
    words = [""]
    for _ in range(level):
        words = [w + ch for w in words for ch in "01w"]
    margin = 0.05 * min(width, height)
    h = math.sqrt(3.0) / 2.0
    scale = min(width - 2 * margin, (height - 2 * margin) / h)
    den = 5 ** level
    for w in words:
        m = word_matrix(w)
        for k in range(3):
            _, y, z = (m[i][k] / den for i in range(3))
            points.add((margin + (y + z / 2) * scale, height - margin - z * h * scale))
    return {"points": sorted(points), "segments": 3 * 3 ** level}


def check_triangle_svg(path: str, want: dict) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    segs = re.findall(r"M ([-\d.]+) ([-\d.]+) L ([-\d.]+) ([-\d.]+)", text)
    expect(len(segs) == want["segments"], f"{len(segs)} segments, want {want['segments']}")
    points = [tuple(p) for p in want["points"]]
    used = set()
    for seg in segs:
        for x, y in ((seg[0], seg[1]), (seg[2], seg[3])):
            x, y = float(x), float(y)
            near = min(range(len(points)),
                       key=lambda i: abs(points[i][0] - x) + abs(points[i][1] - y))
            expect(abs(points[near][0] - x) + abs(points[near][1] - y) < 1e-4,
                   f"segment end ({x}, {y}) is not a vertex image")
            used.add(near)
    expect(len(used) == len(points), "some vertex images are not drawn")
