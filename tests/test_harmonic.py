import csv
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest

from sgharm.cli import main
from sgharm.exact import (
    DIFFERENCE_CONE,
    Vec3Q,
    expand,
    expand_auto,
    generator_matrix,
)
from sgharm.harmonic import (
    BoundaryTriple,
    CENTROID,
    CORNER_OMEGA,
    CORNER_ONE,
    CORNER_ZERO,
    FORM_PRESETS,
    GridCapExceeded,
    LinearForm,
    VECTOR_BOUNDARY,
    approx_error_bound,
    check_harmonic,
    curve_point,
    curve_point_dyadic,
    form_value,
    harmonic_grid,
    mirror,
    subdivide,
    truncated_curve_value,
    vertex_value,
)

E0 = Vec3Q.of(1, 0, 0)

# calibrated: max-norm distance of curve values at parameters within 2**-n
# never exceeded (3/5)**n in dense level-10 plus random level-16 scans
UNIFORM_CONTINUITY_C = Fraction(1)


def rand_frac(rng, den=100):
    return Fraction(rng.randint(-den, den), rng.randint(1, den))


# ---------------------------------------------------------------------------
# exact curve values


def test_curve_point_examples():
    assert curve_point_dyadic(0, 0) == E0
    assert curve_point_dyadic(1, 1) == Vec3Q.of(
        Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))
    assert curve_point_dyadic(1, 2) == Vec3Q.of(
        Fraction(16, 25), Fraction(5, 25), Fraction(4, 25))
    assert curve_point_dyadic(1, 0) == Vec3Q.of(0, 1, 0)


def test_curve_point_range_errors():
    with pytest.raises(ValueError):
        curve_point_dyadic(5, 2)
    with pytest.raises(ValueError):
        curve_point_dyadic(-1, 2)
    with pytest.raises(ValueError):
        curve_point_dyadic(0, -1)


def test_junction_value():
    # the two half-side images meet at a single point
    assert generator_matrix("0").apply(Vec3Q.of(0, 1, 0)) == \
        generator_matrix("1").apply(E0) == \
        Vec3Q.of(Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))


def test_recursion_identity_sampled():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(0, 8)
        k = rng.randint(0, 2 ** n)
        v = curve_point_dyadic(k, n)
        assert generator_matrix("0").apply(v) == curve_point_dyadic(k, n + 1)
        assert generator_matrix("1").apply(v) == curve_point_dyadic(k + 2 ** n, n + 1)


def test_values_stay_in_triangle():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(0, 10)
        k = rng.randint(0, 2 ** n)
        v = curve_point_dyadic(k, n)
        assert v.coord_sum() == 1
        assert v.x >= 0 and v.y >= 0 and v.z >= 0


def test_injectivity_on_level_10():
    seen = {curve_point_dyadic(k, 10).coords for k in range(2 ** 10 + 1)}
    assert len(seen) == 2 ** 10 + 1


def test_monotone_difference_in_cone():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 10)
        i, j = sorted(rng.sample(range(2 ** n + 1), 2))
        diff = curve_point_dyadic(j, n) - curve_point_dyadic(i, n)
        assert DIFFERENCE_CONE.contains(diff)


def test_uniform_continuity_calibrated():
    rng = random.Random(10)
    level = 12
    for _ in range(80):
        n = rng.randint(1, 10)
        ka = rng.randint(0, 2 ** level)
        kb = min(2 ** level, ka + rng.randint(0, 2 ** (level - n)))
        diff = curve_point_dyadic(ka, level) - curve_point_dyadic(kb, level)
        assert diff.max_abs() <= Fraction(3, 5) ** n * UNIFORM_CONTINUITY_C


def test_mirror_examples_and_identity():
    assert mirror(E0) == Vec3Q.of(0, 1, 0)
    half = Vec3Q.of(Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))
    assert mirror(half) == half
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(0, 10)
        k = rng.randint(0, 2 ** n)
        assert mirror(curve_point_dyadic(k, n)) == curve_point_dyadic(2 ** n - k, n)


# ---------------------------------------------------------------------------
# addresses


def test_vertex_value_examples():
    assert vertex_value("") == E0
    assert vertex_value("w") == Vec3Q.of(Fraction(2, 5), Fraction(1, 5), Fraction(2, 5))
    assert vertex_value("1") == Vec3Q.of(Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))


def test_vertex_value_against_grid():
    # independent check of the third generator: the grid is built from the
    # midpoint weights alone
    grid = harmonic_grid(VECTOR_BOUNDARY, 3)
    half = Fraction(1, 2)
    assert vertex_value("w") == grid.values[(Fraction(0), half)]
    assert vertex_value("w1") == grid.values[(half / 2, half)]
    assert vertex_value("ww") == grid.values[(Fraction(0), Fraction(3, 4))]
    assert vertex_value("10") == grid.values[(half, Fraction(0))]


# ---------------------------------------------------------------------------
# approximation


def test_curve_point_at_zero():
    ap = curve_point(Fraction(0), terms=20)
    assert ap.error_bound == approx_error_bound(20)
    assert all(abs(a - b) <= ap.error_bound for a, b in zip(ap.value, (1.0, 0.0, 0.0)))


def test_error_bound_value():
    assert approx_error_bound(10) == 2 * 0.6 ** 10
    assert approx_error_bound(10 ** 6) > 0


def test_sandwich_between_dyadic_neighbors():
    rng = random.Random(13)
    for _ in range(25):
        q = rng.randint(3, 997)
        p = rng.randint(1, q - 1)
        s = Fraction(p, q)
        e = expand_auto(s)
        n = rng.randint(1, 20)
        approx = truncated_curve_value(e, n)
        k = int(e.bits(n), 2)
        bound = 2 * Fraction(3, 5) ** n
        for kk in (k, min(k + 1, 2 ** n)):
            diff = approx - curve_point_dyadic(kk, n)
            assert diff.max_abs() <= bound


def test_start_point_independence():
    e = expand(Fraction(1, 3))
    n = 15
    bound = 2 * Fraction(3, 5) ** n
    a = truncated_curve_value(e, n, CENTROID)
    for start in (E0, Vec3Q.of(0, 1, 0), Vec3Q.of(0, 0, 1)):
        b = truncated_curve_value(e, n, start)
        assert (a - b).max_abs() <= bound


# ---------------------------------------------------------------------------
# subdivision and grids


def test_subdivide_examples():
    assert subdivide((Fraction(2), Fraction(2), Fraction(2))) == \
        (Fraction(2), Fraction(2), Fraction(2))
    assert subdivide((1, 0, 0)) == (Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))


def test_subdivide_diameter_contraction():
    rng = random.Random(14)
    spread = lambda t: max(t) - min(t)
    for _ in range(200):
        vals = tuple(rand_frac(rng) for _ in range(3))
        m_st, m_su, m_tu = subdivide(vals)
        corner_triangle = (vals[0], m_st, m_su)
        assert spread(corner_triangle) <= Fraction(3, 5) * spread(vals)


def test_grid_level1_scalar():
    grid = harmonic_grid(BoundaryTriple(Fraction(1), Fraction(0), Fraction(0)), 1)
    assert len(grid.values) == 6
    half = Fraction(1, 2)
    assert grid.values[(half, Fraction(0))] == Fraction(2, 5)
    assert grid.values[(Fraction(0), half)] == Fraction(2, 5)
    assert grid.values[(half, half)] == Fraction(1, 5)
    assert check_harmonic(grid)


def test_grid_constant_boundary():
    c = Fraction(7, 3)
    grid = harmonic_grid(BoundaryTriple(c, c, c), 4)
    assert all(v == c for v in grid.values.values())
    assert check_harmonic(grid)


def test_grid_vector_boundary_matches_curve():
    grid = harmonic_grid(VECTOR_BOUNDARY, 2)
    assert grid.values[(Fraction(1, 4), Fraction(0))] == curve_point_dyadic(1, 2)
    assert check_harmonic(grid)


def test_grid_side_matches_curve_up_to_level_6():
    grid = harmonic_grid(VECTOR_BOUNDARY, 6)
    for param, value in grid.side_values():
        k = param * 2 ** 6
        assert value == curve_point_dyadic(int(k), 6)


def test_random_boundary_grids_are_harmonic():
    rng = random.Random(15)
    for level in (1, 2, 3, 4):
        triple = BoundaryTriple(*(rand_frac(rng) for _ in range(3)))
        assert check_harmonic(harmonic_grid(triple, level))


def test_perturbed_grid_fails():
    grid = harmonic_grid(BoundaryTriple(Fraction(1), Fraction(0), Fraction(0)), 2)
    key = next(k for k in grid.values if k not in grid.corners())
    grid.values[key] += Fraction(1, 7)
    assert not check_harmonic(grid)


def _perturbed_key(grid):
    return next(k for k in grid.values if k not in grid.corners())


def test_check_rejects_perturbed_vector_vertex():
    grid = harmonic_grid(VECTOR_BOUNDARY, 5)
    assert check_harmonic(grid)
    key = list(grid.values)[len(grid.values) // 2]
    grid.values[key] = grid.values[key] + Vec3Q.of(0, 0, Fraction(1, 5 ** 9))
    assert not check_harmonic(grid)


def test_check_rejects_deleted_vertex():
    grid = harmonic_grid(VECTOR_BOUNDARY, 5)
    del grid.values[_perturbed_key(grid)]
    assert not check_harmonic(grid)


@pytest.mark.parametrize("off", [(Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(1, 3)),
                                 (Fraction(-1, 32), Fraction(0)), (Fraction(1), Fraction(1, 2)),
                                 (Fraction(1, 64), Fraction(0))])
def test_check_rejects_key_off_the_lattice(off):
    grid = harmonic_grid(VECTOR_BOUNDARY, 5)
    grid.values[off] = grid.values.pop(_perturbed_key(grid))
    assert not check_harmonic(grid)
    grid = harmonic_grid(VECTOR_BOUNDARY, 5)
    grid.values[off] = grid.values[_perturbed_key(grid)]
    assert not check_harmonic(grid)


def test_check_rejects_vertex_in_a_hole():
    # a lattice point inside a removed triangle has no cell and no neighbours
    grid = harmonic_grid(VECTOR_BOUNDARY, 5)
    grid.values[(Fraction(3, 8), Fraction(3, 8))] = grid.values[_perturbed_key(grid)]
    assert not check_harmonic(grid)


def test_interior_degree_is_four():
    grid = harmonic_grid(VECTOR_BOUNDARY, 4)
    nbrs = grid.neighbor_map()
    corners = set(grid.corners())
    for key, around in nbrs.items():
        if key in corners:
            assert len(around) == 2
        else:
            assert len(around) == 4


def test_grid_cap(tmp_path, capsys, monkeypatch):
    with pytest.raises(GridCapExceeded):
        harmonic_grid(VECTOR_BOUNDARY, 5, cap=4)
    harmonic_grid(VECTOR_BOUNDARY, 4, cap=4)
    # the library reads no environment; HARMONIC_GRID_CAP is the CLI's
    monkeypatch.setenv("HARMONIC_GRID_CAP", "3")
    assert harmonic_grid(VECTOR_BOUNDARY, 4).level == 4
    argv = ["render", "triangle", "--level", "4", "--out", str(tmp_path / "t.svg")]
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: level 4 exceeds grid cap 3\n"
    assert main(argv[:3] + ["3"] + argv[4:]) == 0
    monkeypatch.setenv("HARMONIC_GRID_CAP", "abc")
    assert main(argv) == 3
    assert capsys.readouterr().err == "error: invalid literal for int() with base 10: 'abc'\n"
    monkeypatch.setenv("HARMONIC_GRID_CAP", "")
    assert main(argv) == 0


def test_grid_exports():
    grid = harmonic_grid(BoundaryTriple(Fraction(1), Fraction(0), Fraction(0)), 1)
    csv_text = grid.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "x,y,value"
    assert len(lines) == 7
    assert "2/5" in csv_text
    data = json.loads(harmonic_grid(VECTOR_BOUNDARY, 1).to_json())
    assert data["level"] == 1
    assert len(data["vertices"]) == 6
    assert len(data["triangles"]) == 3
    assert data["vertices"][0]["value"] == ["1", "0", "0"]


# ---------------------------------------------------------------------------
# the integer-lattice grid against a Fraction subdivision


def reference_grid(boundary, level):
    """Level-by-level subdivision with Fraction keys and values: children
    (s, st, su), (st, t, tu), (su, tu, u), vertices kept in order of first
    appearance."""
    def mid(p, q):
        return ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)

    exact = [Fraction(v) if isinstance(v, int) else v
             for v in (boundary.at_zero, boundary.at_one, boundary.at_omega)]
    tris = [tuple(zip((CORNER_ZERO, CORNER_ONE, CORNER_OMEGA), exact))]
    for _ in range(level):
        nxt = []
        for (ps, vs), (pt, vt), (pu, vu) in tris:
            vst, vsu, vtu = subdivide((vs, vt, vu))
            mst, msu, mtu = mid(ps, pt), mid(ps, pu), mid(pt, pu)
            nxt.append(((ps, vs), (mst, vst), (msu, vsu)))
            nxt.append(((mst, vst), (pt, vt), (mtu, vtu)))
            nxt.append(((msu, vsu), (mtu, vtu), (pu, vu)))
        tris = nxt
    values = {}
    for tri in tris:
        for key, val in tri:
            assert values.setdefault(key, val) == val
    return values, tuple(tuple(key for key, _ in tri) for tri in tris)


def reference_exports(level, values, triangles):
    """to_json, to_csv and side_values with keys sorted as Fraction pairs."""
    keys = sorted(values)
    vector = isinstance(values[keys[0]], Vec3Q)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "y", "value_x", "value_y", "value_z"] if vector else ["x", "y", "value"])
    for k in keys:
        coords = values[k].coords if vector else (values[k],)
        writer.writerow([str(k[0]), str(k[1]), *(str(c) for c in coords)])
    index = {k: i for i, k in enumerate(keys)}
    vertices = [{"x": str(k[0]), "y": str(k[1]),
                 "value": [str(c) for c in values[k].coords] if vector else str(values[k])}
                for k in keys]
    tris = sorted(tuple(sorted(index[p] for p in tri)) for tri in triangles)
    text = json.dumps({"level": level, "vertices": vertices, "triangles": tris},
                      separators=(",", ":"))
    side = sorted(((k[0], v) for k, v in values.items() if k[1] == 0), key=lambda kv: kv[0])
    return text, buf.getvalue(), side


def _differential_boundaries():
    rng = random.Random(17)
    yield VECTOR_BOUNDARY
    yield BoundaryTriple(1, 0, Fraction(2, 3))
    for den in (7, 997, 10 ** 6):
        yield BoundaryTriple(*(rand_frac(rng, den) for _ in range(3)))
    yield BoundaryTriple(*(Vec3Q(*(rand_frac(rng) for _ in range(3))) for _ in range(3)))


@pytest.mark.parametrize("level", range(7))
def test_grid_matches_fraction_subdivision(level):
    for boundary in _differential_boundaries():
        grid = harmonic_grid(boundary, level)
        values, triangles = reference_grid(boundary, level)
        assert list(grid.values.items()) == list(values.items())
        assert grid.triangles == triangles
        text, csv_text, side = reference_exports(level, values, triangles)
        assert grid.to_json() == text
        assert grid.to_csv() == csv_text
        assert grid.side_values() == side


# One sha256 per boundary over levels 0-8 of each grid's vertices and values
# in order, its triangles, to_json, to_csv and side_values, recorded from the
# depth-first builder that looked its vertices up by Fraction keys.
GRID_GOLDEN_SHA256 = {
    "vector": (VECTOR_BOUNDARY,
               "676e7decdce21d48346889641c662729fa82769ea049708bdd1566161e394aee"),
    "over_997": (BoundaryTriple(Fraction(-311, 997), Fraction(640, 997), Fraction(5, 997)),
                 "147c79d06756d7c6aa321870928ca633b4ed088de0ad48cb3d029d5f64865ac3"),
    "integers_and_a_half": (BoundaryTriple(1, Fraction(-1, 2), 3),
                            "9d6259139ede92aac6b76a44635ef01d08d04265c576dd9bbb82f7955a520f79"),
}


@pytest.mark.parametrize("name", GRID_GOLDEN_SHA256)
def test_grid_outputs_match_golden_hashes(name):
    boundary, want = GRID_GOLDEN_SHA256[name]
    digest = hashlib.sha256()
    for level in range(9):
        grid = harmonic_grid(boundary, level)
        for part in (list(grid.values.items()), grid.triangles, grid.side_values()):
            digest.update(repr(part).encode())
        digest.update(grid.to_json().encode())
        digest.update(grid.to_csv().encode())
    assert digest.hexdigest() == want


def test_grid_rejects_mixed_boundary():
    with pytest.raises(TypeError):
        harmonic_grid(BoundaryTriple(E0, Fraction(1), Fraction(0)), 1)


# ---------------------------------------------------------------------------
# scalar side functions


def test_form_value_exact():
    phi = FORM_PRESETS["phi"]
    psi = FORM_PRESETS["psi"]
    assert form_value(phi, Fraction(1, 2)) == Fraction(2, 5)
    assert form_value(psi, Fraction(0)) == 0


def test_form_value_constant_one():
    ones = LinearForm.of(1, 1, 1)
    rng = random.Random(16)
    for _ in range(10):
        n = rng.randint(0, 8)
        k = rng.randint(0, 2 ** n)
        assert form_value(ones, Fraction(k, 2 ** n)) == 1
    ap = form_value(ones, Fraction(1, 3), terms=12)
    assert abs(ap.value[0] - 1.0) <= ap.error_bound


def test_form_value_approx_bound():
    phi = FORM_PRESETS["phi"]
    ap = form_value(phi, Fraction(1, 3), terms=30)
    assert ap.error_bound == float(phi.l1()) * approx_error_bound(30)
    exact_band = [float(phi(curve_point_dyadic(k, 30))) for k in
                  (int(Fraction(1, 3) * 2 ** 30), int(Fraction(1, 3) * 2 ** 30) + 1)]
    assert min(exact_band) - ap.error_bound <= ap.value[0] <= max(exact_band) + ap.error_bound


def test_form_parse():
    assert LinearForm.parse("chi") == FORM_PRESETS["chi"]
    assert LinearForm.parse("1,1/2,-2").row == (Fraction(1), Fraction(1, 2), Fraction(-2))
    with pytest.raises(ValueError):
        LinearForm.parse("nope")
