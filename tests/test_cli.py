"""End-to-end CLI checks: exit codes, JSON shapes, determinism, file IO."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from flatcheck.cli import main


def run_cli(args, tmp_path=None):
    """Invoke main() in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_geom_report_heisenberg():
    code, out = run_cli(["geom", "report", "--builtin", "heisenberg3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["locally_homogeneous"] is True
    assert doc["backend"] == "exact"
    assert set(doc["residuals"]) == {"rtilde", "structure", "dtildeR",
                                     "bianchi", "chern_simons", "nabla_torsion"}


def test_geom_report_deformed_not_homogeneous_still_exit_zero():
    code, out = run_cli(["geom", "report", "--builtin", "deformed2"])
    assert code == 0  # the verdict is data, not an error
    doc = json.loads(out)
    assert doc["locally_homogeneous"] is False
    assert doc["max_R"] >= 1.0


def test_geom_report_chart_file(tmp_path):
    chart = {
        "name": "stretch",
        "n": 2,
        "domain": [[-1, 1], [-1, 1]],
        "frame": [["1", "0"], ["0", "1 + x1^2"]],
    }
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(chart))
    code, out = run_cli(["geom", "report", "--chart", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["chart"] == "stretch"
    assert doc["backend"] == "exact"
    assert doc["locally_homogeneous"] is False


def test_geom_report_rational_function_entries(tmp_path):
    # division in entries stays on the exact backend; the reciprocal
    # scaling is NOT a group frame (unlike y d/dx, y d/dy), and the exact
    # arithmetic must both close every identity and detect the curvature
    chart = {
        "name": "recip",
        "n": 2,
        "domain": [[-1, 1], [1, 2]],
        "frame": [["1/x2", "0"], ["0", "1/x2"]],
    }
    path = tmp_path / "recip.json"
    path.write_text(json.dumps(chart))
    code, out = run_cli(["geom", "report", "--chart", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["backend"] == "exact"
    assert doc["locally_homogeneous"] is False
    assert doc["max_R"] > 0
    assert all(v == 0.0 for v in doc["residuals"].values())


def test_geom_report_broken_chart_exits_one(tmp_path):
    chart = {
        "name": "broken",
        "n": 2,
        "domain": [[-1, 1], [-1, 1]],
        "frame": [["x1", "0"], ["0", "1"]],  # singular at x1 = 0
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(chart))
    code, _ = run_cli(["geom", "report", "--chart", str(path)])
    assert code == 1


def test_geom_report_malformed_json_exits_one(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _ = run_cli(["geom", "report", "--chart", str(path)])
    assert code == 1


MALFORMED = {
    "pole-chart": (["geom", "report", "--chart"], {
        "name": "pole", "n": 2, "domain": [[-1, 1], [-1, 1]],
        "frame": [["1/x1", "0"], ["0", "1"]]}),  # det = 1/x1 has a pole on the grid
    "entry-pole": (["geom", "report", "--chart"], {
        "name": "pole", "n": 2, "domain": [[-1, 1], [-1, 1]],
        "frame": [["1/x1", "0"], ["0", "x1"]]}),  # det = 1, but an entry has a pole
    "numeric-entry-pole": (["geom", "report", "--chart"], {
        "name": "pole", "n": 2, "domain": [[-1, 1], [1, 2]],
        "frame": [["sin(x2)/x1", "0"], ["0", "x1"]]}),
    "zero-divisor": (["geom", "report", "--chart"], {
        "name": "zero", "n": 2, "domain": [[1, 2], [1, 2]],
        "frame": [["1/(x1 - x1)", "0"], ["0", "1"]]}),
    # the exponent rules hold on the numeric backend too, also after a call
    "fractional-exponent": (["geom", "report", "--chart"], {
        "name": "root", "n": 2, "domain": [[1, 2], [1, 2]],
        "frame": [["sin(x2) + x1**0.5", "0"], ["0", "1"]]}),
    "variable-exponent": (["geom", "report", "--chart"], {
        "name": "power", "n": 2, "domain": [[1, 2], [1, 2]],
        "frame": [["sin(x2)*x1**x2", "0"], ["0", "1"]]}),
    "unhashable-exponent": (["geom", "report", "--chart"], {
        "name": "power", "n": 2, "domain": [[1, 2], [1, 2]],
        "frame": [["x1**{[]: 1}", "0"], ["0", "1"]]}),
    "huge-exponent": (["geom", "report", "--chart"], {
        "name": "power", "n": 2, "domain": [[1, 2], [1, 2]],
        "frame": [["x1^2000000", "0"], ["0", "1"]]}),
    # overflows to inf on the grid without raising
    "non-finite": (["geom", "report", "--chart"], {
        "name": "overflow", "n": 2, "domain": [[1, 2], [1, 2]],
        "frame": [["1e308*x1*10 + 0*sin(x1)", "0"], ["0", "1"]]}),
    # each exponent is within the cap, but the exact entries would be huge
    "nested-power": (["geom", "report", "--chart"], {
        "name": "nested", "n": 4, "domain": [[-1, 1]] * 4,
        "frame": [["((1 + x1)^64)^64", "0", "0", "0"], ["0", "1", "0", "0"],
                  ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}),
    "wide-power": (["geom", "report", "--chart"], {
        "name": "wide", "n": 4, "domain": [[-1, 1]] * 4,
        "frame": [["(1 + x1 + x2 + x3 + x4)^64", "0", "0", "0"], ["0", "1", "0", "0"],
                  ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}),
    "jet-num": (["jet", "invert"], {
        "n": 1, "k": 2,
        "components": [[{"multiindex": [1], "num": "abc", "den": "1"}]]}),
    "jet-components": (["jet", "invert"], {"n": 1, "k": 2, "components": 5}),
    "jet-component-entries": (["jet", "invert"], {"n": 1, "k": 2, "components": [5]}),
    "pair-coeffs": (["liepair", "order", "--pair"], {
        "dim": 3, "brackets": [{"i": 0, "j": 1}], "subalgebra": []}),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_document_exits_one_with_one_line(tmp_path, name):
    argv, doc = MALFORMED[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "flatcheck.cli", *argv, str(path)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: ")


def test_exponent_cap_is_inclusive_on_both_backends():
    from flatcheck.charts_io import MAX_EXPONENT, parse_exact_expr, parse_numeric_expr
    from flatcheck.frames import ChartError
    assert parse_exact_expr(f"x1^{MAX_EXPONENT}", 1).num.degree() == MAX_EXPONENT
    assert parse_numeric_expr(f"x1^-{MAX_EXPONENT}", 1)((2.0,)) == 2.0 ** -MAX_EXPONENT
    for parse in (parse_exact_expr, parse_numeric_expr):
        with pytest.raises(ChartError):
            parse(f"x1^{MAX_EXPONENT + 1}", 1)


def test_domain_bounds_stay_exact(tmp_path):
    # a bound with a large denominator used to be rounded to 0, a pole of 1/x1
    from fractions import Fraction
    from flatcheck.charts_io import chart_from_json
    doc = {"name": "near-zero", "n": 1, "domain": [["1/3000007", "1"]], "frame": [["1/x1"]]}
    path = tmp_path / "near-zero.json"
    path.write_text(json.dumps(doc))
    code, _ = run_cli(["geom", "report", "--chart", str(path)])
    assert code == 0
    assert chart_from_json(doc).rational_grid(5)[0] == (Fraction(1, 3000007),)


def test_geom_report_numeric_chart_file(tmp_path):
    chart = {
        "name": "expo",
        "n": 2,
        "domain": [[-1, 1], [-1, 1]],
        "frame": [["1", "0"], ["0", "exp(x1)"]],
    }
    path = tmp_path / "expo.json"
    path.write_text(json.dumps(chart))
    code, out = run_cli(["geom", "report", "--chart", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["backend"] == "numeric"
    assert doc["locally_homogeneous"] is True


def test_backend_env_var(tmp_path, monkeypatch):
    chart = {
        "name": "expo",
        "n": 2,
        "domain": [[-1, 1], [-1, 1]],
        "frame": [["1", "0"], ["0", "exp(x1)"]],
    }
    path = tmp_path / "expo.json"
    path.write_text(json.dumps(chart))
    monkeypatch.setenv("FLATCHECK_BACKEND", "exact")
    code, _ = run_cli(["geom", "report", "--chart", str(path)])
    assert code == 1  # exact backend cannot represent exp
    monkeypatch.setenv("FLATCHECK_BACKEND", "numeric")
    code, out = run_cli(["geom", "report", "--chart", str(path)])
    assert code == 0
    assert json.loads(out)["backend"] == "numeric"


def test_forced_numeric_backend_agrees_with_exact(monkeypatch):
    # the same built-in chart through both backends: verdict and witness agree
    code, out = run_cli(["geom", "report", "--builtin", "deformed2"])
    exact = json.loads(out)
    monkeypatch.setenv("FLATCHECK_BACKEND", "numeric")

    # --builtin goes through the catalog; use the chart document instead
    import tempfile, os
    from flatcheck.charts_io import chart_from_json
    chart = chart_from_json({"builtin": "deformed2"})
    assert chart.backend == "numeric"
    from flatcheck.forms import identity_report
    numeric = identity_report(chart)
    assert numeric["backend"] == "numeric"
    assert numeric["locally_homogeneous"] is False
    assert abs(numeric["max_R"] - exact["max_R"]) < 1e-6
    assert numeric["sign"] == exact["sign"]
    assert all(v < 1e-6 for v in numeric["residuals"].values())


def test_jet_compose_and_invert_files(tmp_path):
    from flatcheck.jetcore import TruncatedMap, map_to_json, map_from_json, compose_truncated
    f = TruncatedMap.from_derivatives(1, 3, {(0, (1,)): 1, (0, (2,)): 1})
    g = TruncatedMap.from_derivatives(1, 3, {(0, (1,)): 2, (0, (3,)): 1})
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    fp.write_text(json.dumps(map_to_json(f)))
    gp.write_text(json.dumps(map_to_json(g)))

    code, out = run_cli(["jet", "compose", str(fp), str(gp)])
    assert code == 0
    assert map_from_json(json.loads(out)) == compose_truncated(f, g)

    code, out = run_cli(["jet", "invert", str(fp)])
    assert code == 0
    inv = map_from_json(json.loads(out))
    assert compose_truncated(inv, f) == TruncatedMap.identity(1, 3)

    code, _ = run_cli(["jet", "compose", str(fp), str(tmp_path / "missing.json")])
    assert code == 1


def test_groupoid_g3_calculator():
    code, out = run_cli(["groupoid", "g3", "compose", "1", "1", "0", "2", "0", "1"])
    assert code == 0
    assert json.loads(out)["result"] == ["2/1", "4/1", "1/1"]

    code, out = run_cli(["groupoid", "g3", "split", "2", "1"])
    assert code == 0
    assert json.loads(out)["result"] == ["2/1", "1/1", "3/4"]

    code, out = run_cli(["groupoid", "g3", "schwarzian", "1", "0", "6"])
    assert code == 0
    assert json.loads(out)["result"] == "6/1"

    code, out = run_cli(["groupoid", "g3", "invert", "1", "1", "0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"][0] == "1/1"

    code, _ = run_cli(["groupoid", "g3", "split", "0", "1"])
    assert code == 1


def test_spencer_check_subcommand():
    code, out = run_cli(["spencer", "check", "--seed", "3", "--trials", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["prolongation_homomorphism"]["passed"] == 4


def test_liepair_order_builtin_and_file(tmp_path):
    code, out = run_cli(["liepair", "order", "--builtin", "sl2/borel"])
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 2
    assert doc["filtration_dims"] == [2, 1, 0]
    assert doc["effective"] is True

    from flatcheck.catalog import get_lie_pair
    from flatcheck.liepair import pair_to_json
    g, h = get_lie_pair("so3/so2")
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair_to_json(g, h)))
    code, out = run_cli(["liepair", "order", "--pair", str(path)])
    assert code == 0
    assert json.loads(out)["order"] == 1

    code, _ = run_cli(["liepair", "order", "--builtin", "bogus"])
    assert code == 1


def test_catalog_list_subcommand():
    code, out = run_cli(["catalog", "list"])
    assert code == 0
    doc = json.loads(out)
    names = {e["name"] for e in doc["entries"]}
    assert "heisenberg3" in names and "sl2/borel" in names


def test_chern_simons_subcommand():
    code, out = run_cli(["chern-simons", "--builtin", "heisenberg3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["chern_simons_residual"] == 0.0
    assert doc["secondary_class_closed"] is True

    code, out = run_cli(["chern-simons", "--builtin", "deformed2"])
    assert code == 0
    assert json.loads(out)["secondary_class_closed"] is None


def test_out_flag_writes_file(tmp_path):
    out_path = tmp_path / "report.json"
    code, out = run_cli(["geom", "report", "--builtin", "abelian2", "--out", str(out_path)])
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["chart"] == "abelian2"


def test_reports_are_deterministic():
    first = run_cli(["geom", "report", "--builtin", "deformed2", "--seed", "7"])
    second = run_cli(["geom", "report", "--builtin", "deformed2", "--seed", "7"])
    assert first == second


def test_console_entry_point():
    # the installed script must work as a subprocess as well
    proc = subprocess.run(
        [sys.executable, "-m", "flatcheck.cli", "groupoid", "g3", "compose",
         "1", "0", "0", "1", "0", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == ["1/1", "0/1", "0/1"]


def test_invalid_config_rejected():
    code, _ = run_cli(["geom", "report", "--builtin", "abelian2", "--grid", "1"])
    assert code == 1


def test_calibration_failure_exit_code(monkeypatch):
    from flatcheck import cli as cli_mod
    from flatcheck.forms import CalibrationError

    def boom(chart, tol, grid_points):
        raise CalibrationError(chart.name, {"structure": 1.0}, {"structure": 2.0})

    monkeypatch.setattr(cli_mod, "identity_report", boom)
    code, out = run_cli(["geom", "report", "--builtin", "abelian2"])
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "sign-calibration-failure"
    assert doc["residuals_plus"]["structure"] == 1.0


def test_residual_failure_exit_code(monkeypatch):
    from flatcheck import cli as cli_mod

    real = cli_mod.identity_report

    def tampered(chart, tol, grid_points):
        rep = real(chart, tol=tol, grid_points=grid_points)
        rep["residuals"]["bianchi"] = 1.0
        return rep

    monkeypatch.setattr(cli_mod, "identity_report", tampered)
    code, _ = run_cli(["geom", "report", "--builtin", "abelian2"])
    assert code == 3
