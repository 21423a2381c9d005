"""Structural zeros on the numeric backend.

A numeric field has a literal zero and knows which coordinates it reads,
so the sparse calculus skips on numeric charts what it skips on exact
ones: a connection entry of a row whose frame entries ignore x_j, and a
derivative along a coordinate that a field does not read.  What is
skipped is exactly 0.0, not the rounding residue of a stencil over equal
values.  Forced onto the numeric backend, an exact chart gives the exact
backend's verdict, max_R and secondary class to rounding.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from flatcheck.catalog import CHART_FACTS, chart_document, get_chart
from flatcheck.charts_io import chart_from_json
from flatcheck.cli import main
from flatcheck.forms import chern_simons_report, identity_report, scalars_residual
from flatcheck.frames import ChartError, NumericScalar, gamma_from_frame


@pytest.mark.parametrize("name", ["abelian4", "abelian5"])
def test_forced_numeric_abelian_connection_is_the_zero(name):
    chart = chart_from_json({"builtin": name}, "numeric")
    assert chart.backend == "numeric"
    conn = gamma_from_frame(chart)
    assert all(f.is_zero() for plane in conn.gamma for row in plane for f in row)
    report = identity_report(chart, grid_points=3)
    assert report["residuals"] and all(v == 0.0 for v in report["residuals"].values())
    assert report["max_R"] == 0.0


def test_derivative_along_an_unread_coordinate_is_the_zero():
    assert NumericScalar.const(3, 0).is_zero()
    assert not NumericScalar.const(3, 1).is_zero()
    # fields asked for their values only, jets of order 0
    f = NumericScalar(lambda p, key, order: np.sin(p[:, 0:1].T) * p[:, 2], 3,
                      reads=frozenset({0, 2}))
    assert f.diff(1).is_zero()
    assert not f.diff(0).is_zero() and not f.diff(2).is_zero()
    assert f.diff(0).diff(1).is_zero()
    # the zero short cuts return an operand, and a result reads what its operands read
    zero = NumericScalar.const(3, 0)
    g = NumericScalar(lambda p, key, order: p[:, 1:2].T, 3, reads=frozenset({1}))
    assert zero + f is f and f + zero is f and f - zero is f
    assert (zero * f).is_zero() and (f * zero).is_zero() and f.scale(0).is_zero()
    assert (f * g).reads == {0, 1, 2}
    point = [(0.3, 0.4, 0.5)]
    assert (zero - f).values(point).tolist() == (-f.values(point)).tolist()


def test_affine_exp2_flat_curvature_is_a_literal_zero():
    # d_2 of the frame, whose entries read x1 only, is the zero rather than
    # the rounding residue of a stencil over four equal values
    report = identity_report(get_chart("affine-exp2"), grid_points=3)
    assert report["residuals"]["rtilde"] == 0.0


def test_forced_numeric_deformed2_keeps_its_curvature():
    report = identity_report(chart_from_json({"builtin": "deformed2"}, "numeric"), grid_points=5)
    assert abs(report["max_R"] - 2) <= 1e-6
    assert max(report["residuals"].values()) <= 1e-12


# the stress charts of conftest, as chart documents
STRESS_DOCUMENTS = {
    "sl2rational": {"name": "sl2rational", "n": 3,
                    "domain": [["3/4", "5/4"], ["-1/4", "1/4"], ["-1/4", "1/4"]],
                    "frame": [["x1", "0", "x2"], ["-x2", "x1", "0"],
                              ["x3", "0", "(1 + x2*x3)/x1"]]},
    "unipotent4": {"name": "unipotent4", "n": 4, "domain": [[-1, 1]] * 4,
                   "frame": [["1", "0", "0", "0"], ["x1", "1", "0", "0"],
                             ["x2^2", "x3", "1", "0"], ["x3", "x1*x2", "x1", "1"]]},
    "sl2mix4": {"name": "sl2mix4", "n": 4,
                "domain": [["3/4", "5/4"], ["-1/4", "1/4"], ["-1/4", "1/4"], ["-1/4", "1/4"]],
                "frame": [["x1*(1 + x4^2)", "0", "x2", "0"], ["-x2", "x1", "0", "0"],
                          ["x3", "0", "(1 + x2*x3)/x1", "0"], ["0", "0", "0", "1"]]},
}
FORCED = {name: chart_document(name) for name in CHART_FACTS
          if get_chart(name).backend == "exact"} | STRESS_DOCUMENTS


@pytest.mark.parametrize("name", sorted(FORCED))
def test_forced_numeric_agrees_with_exact(name):
    def close(got, want):  # 1e-12 relative, or absolute where the exact value is 0
        return abs(got - want) <= 1e-12 * (abs(want) or 1.0)

    reports = {}
    for backend in ("exact", "numeric"):
        chart = chart_from_json(FORCED[name], backend)
        assert chart.backend == backend
        reports[backend] = (identity_report(chart, grid_points=3),
                            chern_simons_report(chart, grid_points=3))
    (exact, exact_cs), (numeric, numeric_cs) = reports["exact"], reports["numeric"]
    assert numeric["locally_homogeneous"] == exact["locally_homogeneous"]
    assert close(numeric["max_R"], exact["max_R"])
    assert max(numeric["residuals"].values()) <= 1e-12
    assert close(numeric_cs["secondary_class_max_abs"], exact_cs["secondary_class_max_abs"])
    assert numeric_cs["chern_simons_residual"] <= 1e-12


def _loop_first_non_finite(fields, points):
    """The point that a loop over each field's values, field by field and
    point by point, stops at first."""
    for f in fields:
        for p, v in zip(points, f.values(points).tolist()):
            if not math.isfinite(abs(v)):
                return tuple(map(float, p))
    return None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_grid_max_names_the_first_point_that_is_not_finite(bad):
    points = [(0.1 * t, 0.2) for t in range(6)]

    def field(bad_rows):
        def fn(p, key, order):  # asked for values only, a jet of order 0
            out = np.cos(p[:, 0])
            out[bad_rows] = bad
            return out[None]
        return NumericScalar(fn, 2)

    finite = field([])
    assert scalars_residual([finite], points) == max(abs(math.cos(x)) for x, _ in points)
    fields = [finite, field([4, 2]), field([1])]
    at = _loop_first_non_finite(fields, points)
    assert at == points[2]
    with pytest.raises(ChartError, match=rf"not finite at \({at[0]}, {at[1]}\)"):
        scalars_residual(fields, points)


@pytest.mark.parametrize("entry", ["2 + 0/x1", "2 + 0*(1/x1)", "2 + (1/x1)*0"])
def test_a_zero_literal_keeps_the_operand_it_multiplies(entry, tmp_path, monkeypatch, capsys):
    # a literal 0 in an entry is a constant field, not the calculus's
    # literal zero: the numeric backend evaluates 1/x1 and meets its pole
    # at x1 = 0, where the exact backend has simplified the entry to 2
    path = tmp_path / "chart.json"
    path.write_text(json.dumps({"name": "zero-times-pole", "n": 1, "domain": [[-1, 1]],
                                "frame": [[entry]]}))
    for backend, code in (("numeric", 1), ("exact", 0)):
        monkeypatch.setenv("FLATCHECK_BACKEND", backend)
        assert main(["geom", "report", "--chart", str(path), "--grid", "3"]) == code
        err = capsys.readouterr().err
        assert ("is not finite at (0.0,)" in err) is (code == 1)


@pytest.mark.parametrize("entry", ["(1/x1)^0", "2 + (1/x1)^0"])
def test_a_pole_to_the_power_zero_is_one_on_both_backends(entry, tmp_path, monkeypatch, capsys):
    # numpy's pow(NaN, 0) is 1, so the numeric backend reads t^0 as 1 at a
    # pole of t, as the exact backend does
    path = tmp_path / "chart.json"
    path.write_text(json.dumps({"name": "pole-to-the-zero", "n": 1, "domain": [[-1, 1]],
                                "frame": [[entry]]}))
    verdicts = []
    for backend in ("exact", "numeric"):
        monkeypatch.setenv("FLATCHECK_BACKEND", backend)
        assert main(["geom", "report", "--chart", str(path), "--grid", "3"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        verdicts.append(json.loads(out)["locally_homogeneous"])
    assert verdicts == [True, True]


def test_numeric_entries_read_the_variables_they_name():
    chart = chart_from_json({"name": "reads", "n": 2, "domain": [[-1, 1], [1, 2]],
                             "frame": [["x2 - x2 + 1", "0*x1"], ["3", "exp(x1)"]]}, "numeric")
    assert [[e.reads for e in row] for row in chart.entries] == [[{1}, {0}], [set(), {0}]]
    assert not any(e.is_zero() for row in chart.entries for e in row)
