"""The benchmark's oracles accept the library's results and reject each
kind of corrupted result.

Run with ``PYTHONPATH=src python -m pytest bench/test_oracles.py``.
"""

import dataclasses
import json
from fractions import Fraction

import pytest

import oracles as O
import sgharm
from workloads import _expansion, _rational_point

S = Fraction(5, 24)  # preperiod 001, period 10


@pytest.fixture(scope="module")
def point():
    return _rational_point(S)


def test_generators_follow_the_221_rule():
    for ch in "01w":
        assert O.GEN[ch] == sgharm.generator_matrix(ch).entries
    assert O.EDGE2 == {ch: sgharm.edge_word_matrix(ch).entries for ch in "01"}


def test_digits_and_periods():
    assert O.digits(Fraction(1, 2), 5) == "10000"
    assert O.digits(Fraction(1, 2), 5, lower=True) == "01111"
    assert O.digits(Fraction(1), 3, lower=True) == "111"
    for s in (Fraction(1, 3), Fraction(7, 40), Fraction(3, 1021)):
        pre, period = _expansion(s)
        e = sgharm.expand(s)
        assert (e.preperiod, e.period) == (pre, period)
        O.check_expansion(pre, period, s, O.period_length(s))


def test_expansion_check_rejects_wrong_period_length_and_words():
    e = sgharm.expand(S)
    O.check_expansion(e.preperiod, e.period, S, 2)
    with pytest.raises(O.Mismatch):
        O.check_expansion(e.preperiod, e.period, S, 3)
    with pytest.raises(O.Mismatch):
        O.check_expansion(e.preperiod, "01", S, 2)  # rotated period
    with pytest.raises(O.Mismatch):
        O.check_expansion(e.preperiod + "0", e.period, S / 2, 2)  # preperiod not minimal
    with pytest.raises(O.Mismatch):
        O.check_expansion("", "0101", Fraction(1, 3), 4)  # period not primitive


def test_exponent_check_rejects_shifted_enclosure_trace_and_class(point):
    report = sgharm.holder_exponent(S)
    O.check_exponent(report, point["exp"], 2)
    shift = 1e-6
    moved = dataclasses.replace(report, alpha_lo=report.alpha_lo + shift,
                                alpha_hi=report.alpha_hi + shift, alpha=report.alpha + shift)
    for bad in (moved,
                dataclasses.replace(report, scaled_trace=report.scaled_trace + 1),
                dataclasses.replace(report, derivative_class=sgharm.DerivativeClass.INFINITE),
                dataclasses.replace(report, period_length=3)):
        with pytest.raises(O.Mismatch):
            O.check_exponent(bad, point["exp"], 2)


def test_exponent_class_is_zero_exactly_above_one():
    for n in range(1, 9):
        for w in O.necklaces(n):
            exp = O.exponent(w)
            assert exp["zero"] == (float(exp["alpha"]) > 1)


def test_exact_direction_check_rejects_perturbed_chart(point):
    qd = sgharm.direction_at_rational(S)
    c = qd.chart
    O.check_exact_direction(c.t, c.d, c.plus_root, qd.preperiod, qd.period, point)
    with pytest.raises(O.Mismatch):
        O.check_exact_direction(c.t + Fraction(1, 10 ** 30), c.d, c.plus_root,
                                qd.preperiod, qd.period, point)
    with pytest.raises(O.Mismatch):
        O.check_exact_direction(c.t, c.d, not c.plus_root, qd.preperiod, qd.period, point)
    # the fixed point of the period's map, pushed through the preperiod,
    # is the limit of the chords
    assert abs(float(O.limit_direction(S, lower=False)) - float(c)) < 1e-15


def test_approx_direction_check_rejects_values_outside_the_bound():
    tol = Fraction(1, 10 ** 9)
    pd = sgharm.direction_at(S, tol=tol)
    want = O.limit_direction(S, lower=False)
    O.check_approx_direction(pd, want, tol)
    with pytest.raises(O.Mismatch):
        O.check_approx_direction(dataclasses.replace(pd, chart=pd.chart + 2 * pd.error), want, tol)
    with pytest.raises(O.Mismatch):
        O.check_approx_direction(pd, want, pd.error / 2)


def test_preset_check_allows_only_the_two_kernel_cases():
    for s in (Fraction(0), Fraction(1), S):
        zero = O.exponent(_expansion(s)[1])["zero"]
        classes = {name: sgharm.classify_form(sgharm.FORM_PRESETS[name], s).value
                   for name in ("phi", "psi", "chi", "xi")}
        O.check_presets(classes, s, zero)
    with pytest.raises(O.Mismatch):
        O.check_presets({"chi": "exceptional"}, S, True)
    with pytest.raises(O.Mismatch):
        O.check_presets({"xi": "infinite"}, Fraction(1), False)


def test_curve_check_rejects_one_ulp_and_a_short_bound():
    s = Fraction(3, 7)
    ap = sgharm.curve_point(s, 8)  # few terms, so the truncation error shows in floats
    want = O.curve_expectation(s, 8)
    O.check_curve_point(ap.value, ap.error_bound, want)
    x, y, z = ap.value
    with pytest.raises(O.Mismatch):
        O.check_curve_point((x, y + y * 2 ** -52, z), ap.error_bound, want)
    with pytest.raises(O.Mismatch):
        O.check_curve_point(ap.value, 1e-30, want)


def test_estimator_checks_reject_small_deviations():
    got = sgharm.lyapunov_sample(512, 3, 11)
    want = O.lyapunov(512, 3, 11)
    O.check_lyapunov(got, want)
    with pytest.raises(O.Mismatch):
        O.check_lyapunov(dict(got, mean=got["mean"] + 1e-8), want)
    bits = "0110100111010001" * 16
    ns = [16, 64, 256]
    trace = sgharm.exponent_estimate(bits, ns=ns)
    O.check_estimates(trace.points, O.float_estimates(bits, ns))
    bad = list(trace.points)
    bad[1] = (bad[1][0], bad[1][1] + 1e-8)
    with pytest.raises(O.Mismatch):
        O.check_estimates(bad, O.float_estimates(bits, ns))


@pytest.fixture(scope="module")
def grid():
    return sgharm.harmonic_grid(sgharm.VECTOR_BOUNDARY, 4)


def test_grid_counts():
    assert [O.grid_counts(n) for n in range(4)] == [(1, 3), (3, 6), (9, 15), (27, 42)]


def test_grid_check_rejects_one_perturbed_vertex(grid):
    b = sgharm.VECTOR_BOUNDARY
    corners = (b.at_zero, b.at_one, b.at_omega)
    O.check_grid(grid, 4, corners)
    key = (Fraction(3, 16), Fraction(5, 16))
    values = dict(grid.values)
    values[key] = values[key] + sgharm.Vec3Q.of(Fraction(1, 10 ** 6), 0, Fraction(-1, 10 ** 6))
    with pytest.raises(O.Mismatch):
        O.check_grid(sgharm.HarmonicGrid(4, values, grid.triangles), 4, corners)
    with pytest.raises(O.Mismatch):
        O.check_grid(sgharm.HarmonicGrid(4, grid.values, grid.triangles[1:]), 4, corners)
    scalar = sgharm.harmonic_grid((Fraction(1, 7), Fraction(-3, 7), Fraction(2)), 3)
    O.check_grid(scalar, 3, (Fraction(1, 7), Fraction(-3, 7), Fraction(2)))


def test_side_values_and_export_checks(grid):
    side = grid.side_values()
    O.check_side_values(side, 4)
    side[5] = (side[5][0], sgharm.Vec3Q.of(0, 1, 0))
    with pytest.raises(O.Mismatch):
        O.check_side_values(side, 4)
    text = grid.to_json()
    O.check_grid_json(text, grid, 4, True)
    data = json.loads(text)
    data["vertices"][7]["value"][0] = "1/3"
    with pytest.raises(O.Mismatch):
        O.check_grid_json(json.dumps(data), grid, 4, True)
    data = json.loads(text)
    data["triangles"][0] = [0, 1, 2]  # not a cell
    with pytest.raises(O.Mismatch):
        O.check_grid_json(json.dumps(data), grid, 4, True)


def run_cli(capsys, *argv):
    from sgharm.cli import main

    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_cli_outputs_pass_the_same_checks(capsys, point, tmp_path):
    data = json.loads(run_cli(capsys, "exponent", str(S), "--format", "json"))
    O.check_exponent_json(data, point)
    with pytest.raises(O.Mismatch):
        O.check_exponent_json(dict(data, scaled_trace=data["scaled_trace"] + 1), point)
    with pytest.raises(O.Mismatch):
        O.check_exponent_json(dict(data, alpha=data["alpha"] + 1e-6), point)

    data = json.loads(run_cli(capsys, "direction", str(S), "--exact"))
    O.check_direction_json(data, point)
    with pytest.raises(O.Mismatch):
        moved = str(Fraction(data["chart_t"]) + Fraction(1, 10 ** 40))
        O.check_direction_json(dict(data, chart_t=moved), point)

    rows = O.maxrun_rows(6)
    data = json.loads(run_cli(capsys, "experiment", "maxrun", "--max-len", "6"))
    O.check_maxrun(data, rows)
    with pytest.raises(O.Mismatch):
        O.check_maxrun(dict(data, rows=data["rows"][1:]), rows)

    out = tmp_path / "t.svg"
    run_cli(capsys, "render", "triangle", "--level", "2", "--out", str(out))
    want = O.triangle_points(2)
    O.check_triangle_svg(str(out), want)
    text = out.read_text()
    first = text.index("M ") + 2
    out.write_text(text[:first] + "1" + text[first:])  # move one segment end
    with pytest.raises(O.Mismatch):
        O.check_triangle_svg(str(out), want)
