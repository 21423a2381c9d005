"""End-to-end CLI checks: exit codes, JSON shapes, determinism, file IO."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from flatcheck.catalog import get_lie_pair
from flatcheck.catalog import CHART_NAMES, chart_document
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


def test_singularity_test_does_not_depend_on_the_scale_of_the_frame(tmp_path):
    # 1e-5 times a frame far from singular: |det e| = 1e-15 is small, but not
    # against the product of the row norms of e, on either backend
    frame = [["0.00001*exp(x1)", "0", "0"], ["0", "0.00001", "0"], ["0", "0", "0.00001"]]
    for entry in ("0.00001*exp(x1)", "0.00001"):
        frame[0][0] = entry
        path = tmp_path / "small.json"
        path.write_text(json.dumps({"name": "small", "n": 3, "domain": [[0, 1]] * 3,
                                    "frame": frame}))
        code, out = run_cli(["geom", "report", "--chart", str(path)])
        assert code == 0
        assert json.loads(out)["locally_homogeneous"] is True


def test_geom_report_malformed_json_exits_one(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _ = run_cli(["geom", "report", "--chart", str(path)])
    assert code == 1


def dense_gl_pair_doc(n: int) -> dict:
    """gl(n) in the basis b_i = E_i + E_{i+1} + ... + E_{n^2-1}, with E the
    matrix units in row-major order, over the zero subalgebra.  The basis
    change makes nearly every structure constant nonzero."""
    dim = n * n

    def tail_sum(i):
        return [[int(r * n + c >= i) for c in range(n)] for r in range(n)]

    mats = [tail_sum(i) for i in range(dim)]
    brackets = []
    for i in range(dim):
        for j in range(i + 1, dim):
            a, b = mats[i], mats[j]
            x = [sum(a[r][t] * b[t][c] - b[r][t] * a[t][c] for t in range(n))
                 for r in range(n) for c in range(n)]
            # E coordinates x to b coordinates: y_k = x_k - x_{k-1}
            y = [x[k] - (x[k - 1] if k else 0) for k in range(dim)]
            if any(y):
                brackets.append({"i": i, "j": j, "coeffs": [str(v) for v in y]})
    return {"dim": dim, "brackets": brackets, "subalgebra": []}


def identity_jet_doc(n: int, k: int) -> dict:
    return {"n": n, "k": k, "components": [
        [{"multiindex": [int(t == i) for t in range(n)], "num": "1", "den": "1"}]
        for i in range(n)]}


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
    "jet-order": (["jet", "invert"], {"n": 1, "k": "x", "components": [[]]}),
    "pair-coeffs": (["liepair", "order", "--pair"], {
        "dim": 3, "brackets": [{"i": 0, "j": 1}], "subalgebra": []}),
    # an array field given as a string or an object used to be read by its
    # characters or its keys: "001" as the vector (0, 0, 1)
    "pair-coeffs-string": (["liepair", "order", "--pair"], {
        "dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": "001"}], "subalgebra": []}),
    "pair-subalgebra-row-string": (["liepair", "order", "--pair"], {
        "dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": [0, 0, 1]}], "subalgebra": ["001"]}),
    "pair-subalgebra-row-object": (["liepair", "order", "--pair"], {
        "dim": 1, "brackets": [], "subalgebra": [{"1": 0}]}),
    "pair-subalgebra-string": (["liepair", "order", "--pair"], {
        "dim": 1, "brackets": [], "subalgebra": "1"}),
    "pair-brackets-string": (["liepair", "order", "--pair"], {
        "dim": 3, "brackets": "", "subalgebra": []}),
    # a repeated entry used to be accepted, the last one winning
    "jet-repeated-multiindex": (["jet", "invert"], {
        "n": 1, "k": 2, "components": [[{"multiindex": [1], "num": "1", "den": "1"},
                                        {"multiindex": [1], "num": "5", "den": "1"}]]}),
    "pair-repeated-bracket": (["liepair", "order", "--pair"], {
        "dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": [0, 0, 1]},
                               {"i": 0, "j": 1, "coeffs": [0, 0, 2]}], "subalgebra": []}),
    # jet and pair sizes are capped too; the abelian pair of dimension 120
    # used to run for over a minute
    "jet-huge-dim": (["jet", "invert"], identity_jet_doc(7, 2)),
    "jet-huge-order": (["jet", "invert"], identity_jet_doc(1, 13)),
    "pair-huge-dim": (["liepair", "order", "--pair"], {
        "dim": 120, "brackets": [], "subalgebra": []}),
    "pair-negative-dim": (["liepair", "order", "--pair"], {
        "dim": -1, "brackets": [], "subalgebra": []}),
    # a valid Lie algebra of dimension 36 whose Jacobi check would take
    # about 1.2 million products of structure constants
    "pair-jacobi-products": (["liepair", "order", "--pair"], dense_gl_pair_doc(6)),
    # dimension and grid size are capped, so these are refused at once
    "zero-dim": (["geom", "report", "--chart"], {
        "name": "empty", "n": 0, "domain": [], "frame": []}),
    "huge-dim": (["geom", "report", "--chart"], {
        "name": "identity9", "n": 9, "domain": [[-1, 1]] * 9,
        "frame": [["1" if i == j else "0" for j in range(9)] for i in range(9)]}),
    "huge-builtin": (["geom", "report", "--chart"], {"builtin": "abelian40"}),
    "huge-grid": (["geom", "report", "--grid", "3000", "--chart"], {"builtin": "abelian2"}),
    # a float literal that overflows to inf, on the exact and the auto backend
    "inf-literal": (["geom", "report", "--chart"], {
        "name": "inf", "n": 2, "domain": [[1, 2], [1, 2]],
        "frame": [["1e999*x1", "0"], ["0", "1"]]}),
    "inf-literal-auto": (["geom", "report", "--chart"], {
        "name": "inf", "n": 2, "domain": [[1, 2], [1, 2]],
        "frame": [["1e999 + 0*sin(x1)", "0"], ["0", "1"]]}),
    # arrays of the wrong shape: a string is not an array of its characters
    "frame-null": (["geom", "report", "--chart"], {
        "name": "shape", "n": 2, "domain": [[0, 1], [0, 1]], "frame": None}),
    "frame-strings": (["geom", "report", "--chart"], {
        "name": "shape", "n": 2, "domain": [[0, 1], [0, 1]], "frame": ["10", "01"]}),
    "domain-strings": (["geom", "report", "--chart"], {
        "name": "shape", "n": 2, "domain": ["01", "01"], "frame": [["1", "0"], ["0", "1"]]}),
    "domain-zero-denominator": (["geom", "report", "--chart"], {
        "name": "shape", "n": 2, "domain": [["1/0", 1], [0, 1]],
        "frame": [["1", "0"], ["0", "1"]]}),
    "jet-multiindex-string": (["jet", "invert"], {
        "n": 1, "k": 2, "components": [[{"multiindex": "1", "num": "1", "den": "1"}]]}),
    # nested past the interpreter's depth limit, and past the parser's
    "deep-chain": (["geom", "report", "--chart"], {
        "name": "deep", "n": 2, "domain": [[1, 2], [1, 2]],
        "frame": [["+".join(["x1"] * 1200), "0"], ["0", "1"]]}),
    "deep-chain-numeric": (["chern-simons", "--chart"], {
        "name": "deep", "n": 2, "domain": [[1, 2], [1, 2]],
        "frame": [["+".join(["x1"] * 1200) + " + sin(x1)", "0"], ["0", "1"]]}),
    "deep-unary": (["geom", "report", "--chart"], {
        "name": "deep", "n": 2, "domain": [[1, 2], [1, 2]],
        "frame": [["-" * 20000 + "x1", "0"], ["0", "1"]]}),
    # rational literals whose value would take minutes to build
    "domain-huge-literal": (["geom", "report", "--chart"], {
        "name": "huge", "n": 2, "domain": [["0", "1e99999999"], [0, 1]],
        "frame": [["1", "0"], ["0", "1"]]}),
    "pair-huge-coefficient": (["liepair", "order", "--pair"], {
        "dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": [0, 0, "1e99999999"]}],
        "subalgebra": []}),
    "pair-huge-subalgebra": (["liepair", "order", "--pair"], {
        "dim": 1, "brackets": [], "subalgebra": [["1e-99999999"]]}),
}


def _integer_field_cases() -> dict:
    """Valid jet, chart and pair documents with one integer field set to a
    fractional number or to ``true``: name -> (argv, document, field)."""
    def jet(**top):
        entry = {"multiindex": [1], "num": "1", "den": "1"}
        entry.update(top.pop("entry", {}))
        return dict({"n": 1, "k": 2, "components": [[entry]]}, **top)

    def chart(**top):
        return dict({"name": "c", "n": 2, "domain": [[0, 1], [0, 1]],
                     "frame": [["1", "0"], ["0", "1"]]}, **top)

    def pair(dim=3, **bracket):
        return {"dim": dim, "brackets": [dict({"i": 0, "j": 1, "coeffs": [0, 0, 1]}, **bracket)],
                "subalgebra": []}

    jet_argv, chart_argv = ["jet", "invert"], ["geom", "report", "--chart"]
    pair_argv = ["liepair", "order", "--pair"]
    cases = {}
    for label, bad in (("fraction", 1.5), ("true", True)):
        for field, argv, doc in [
                ("num", jet_argv, jet(entry={"num": bad})),
                ("den", jet_argv, jet(entry={"den": bad})),
                ("multiindex", jet_argv, jet(entry={"multiindex": [bad]})),
                ("n", jet_argv, jet(n=bad)),
                ("k", jet_argv, jet(k=bad)),
                ("n", chart_argv, chart(n=bad)),
                ("dim", pair_argv, pair(dim=bad)),
                ("i", pair_argv, pair(i=bad)),
                ("j", pair_argv, pair(j=bad))]:
            cases[f"{argv[0]}-{field}-{label}"] = (argv, doc, field)
    return cases


# an integer field used to be truncated with int(): 1.5 was read as 1, true as 1
INTEGER_FIELD_CASES = _integer_field_cases()
MALFORMED.update({name: (argv, doc) for name, (argv, doc, _) in INTEGER_FIELD_CASES.items()})


@pytest.mark.parametrize("name", INTEGER_FIELD_CASES)
def test_integer_field_that_is_not_an_integer_is_named(name):
    # exit 1 with one line is checked with the rest of MALFORMED; this checks
    # that the document is refused for the field, in process
    from flatcheck.charts_io import chart_from_json
    from flatcheck.frames import ChartError
    from flatcheck.jetcore import JetError, map_from_json
    from flatcheck.liepair import LiePairError, pair_from_json

    argv, doc, field = INTEGER_FIELD_CASES[name]
    load, error = {"jet": (map_from_json, JetError), "geom": (chart_from_json, ChartError),
                   "liepair": (pair_from_json, LiePairError)}[argv[0]]
    with pytest.raises(error, match=f"'{field}' must be an integer, not (1.5|True)"):
        load(doc)


def test_integer_fields_may_be_decimal_strings():
    from flatcheck.charts_io import chart_from_json
    from flatcheck.jetcore import map_from_json, map_to_json
    from flatcheck.liepair import pair_from_json, pair_to_json

    doc = identity_jet_doc(2, 3)
    as_strings = {"n": "2", "k": " 3", "components": [
        [{"multiindex": [str(e) for e in entry["multiindex"]], "num": "+1", "den": "1 "}
         for entry in component] for component in doc["components"]]}
    assert map_to_json(map_from_json(as_strings)) == map_to_json(map_from_json(doc))
    pair = {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": [0, 0, 1]}], "subalgebra": []}
    pair_strings = {"dim": "3", "brackets": [{"i": "0", "j": "1", "coeffs": [0, 0, 1]}],
                    "subalgebra": []}
    assert pair_to_json(*pair_from_json(pair_strings)) == pair_to_json(*pair_from_json(pair))
    chart = chart_from_json({"name": "c", "n": "2", "domain": [[0, 1], [0, 1]],
                             "frame": [["1", "0"], ["0", "1"]]}, backend="exact")
    assert chart.n == 2


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


@pytest.mark.parametrize("name", ["inf-literal", "inf-literal-auto"])
def test_non_finite_literal_is_named(tmp_path, name):
    # exit 1 with one line is checked with the rest of MALFORMED; this checks the line
    argv, doc = MALFORMED[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "flatcheck.cli", *argv, str(path)],
                          capture_output=True, text=True, timeout=30)
    assert "1e999" in proc.stderr or "inf" in proc.stderr
    assert "Fraction" not in proc.stderr  # not the bare ValueError of the parser


# an integer literal past the largest float: the numeric backend refuses it
# in one line where it builds the entry, and the exact backend reads it
_BIG = "1" + "0" * 400


@pytest.mark.parametrize("command", [["geom", "report"], ["chern-simons"]])
@pytest.mark.parametrize("entry, backend, refused", [
    (f"{_BIG}*sin(x1)", "auto", True), (f"{_BIG}*x1", "numeric", True),
    (f"{_BIG}*x1", "auto", False), (f"{_BIG}*x1", "exact", False)],
    ids=["sin-auto", "x1-numeric", "x1-auto", "x1-exact"])
def test_integer_literal_too_large_for_a_float(tmp_path, monkeypatch, capsys, command, entry,
                                               backend, refused):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"name": "big", "n": 2, "domain": [[1, 2], [1, 2]],
                                "frame": [[entry, "0"], ["0", "1"]]}))
    monkeypatch.setenv("FLATCHECK_BACKEND", backend)
    code, out = run_cli([*command, "--chart", str(path)])
    err = capsys.readouterr().err
    if refused:
        assert (code, out) == (1, "")
        assert err == "error: an integer literal overflows a float: numbers must be finite\n"
    else:
        assert code == 0 and err == ""
        assert json.loads(out)["backend"] == "exact"


# exact charts whose report reads a number past the float range: a
# coefficient, a coordinate power, and a denominator that rounds to zero
PAST_THE_FLOAT_RANGE = {
    "coefficient": ([[-1, 1], [1, 2]], [["1", "2.2250738585072014e-308"], ["x1", "x2"]]),
    "power": ([["1e200", "2e200"], [1, 2]], [["1", "0"], ["0", "1 + x1^2"]]),
    "denominator": ([[-1, 1], ["8.4e-264", 2]], [["1", "0"], ["x1", "x2"]]),
}


@pytest.mark.parametrize("name", PAST_THE_FLOAT_RANGE)
def test_value_past_the_float_range_exits_one_with_one_line(tmp_path, capsys, name):
    domain, frame = PAST_THE_FLOAT_RANGE[name]
    path = tmp_path / "chart.json"
    path.write_text(json.dumps({"name": name, "n": 2, "domain": domain, "frame": frame}))
    assert run_cli(["geom", "report", "--chart", str(path), "--grid", "2"]) == (1, "")
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: a field is not finite at"), err


# a domain bound past the float range: the exact report names the point it
# cannot read with the bound as inf, and the numeric backend refuses the chart
BOUND_PAST_THE_FLOAT_RANGE = {"name": "big3", "n": 2, "domain": [["1", "1e400"], ["-1", "1"]],
                              "frame": [["1", "0"], ["0", "1 + x1^2"]]}
_NUMERIC_BOUND_ERROR = "error: the upper domain bound of x1 in chart 'big3' is past the float range\n"


@pytest.mark.parametrize("backend, command, message", [
    ("exact", ["geom", "report"], "error: a field is not finite at (inf, -1.0)\n"),
    ("numeric", ["geom", "report"], _NUMERIC_BOUND_ERROR),
    ("numeric", ["chern-simons"], _NUMERIC_BOUND_ERROR)],
    ids=["exact-report", "numeric-report", "numeric-chern-simons"])
def test_domain_bound_past_the_float_range_exits_one_with_one_line(tmp_path, monkeypatch, capsys,
                                                                   backend, command, message):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(BOUND_PAST_THE_FLOAT_RANGE))
    monkeypatch.setenv("FLATCHECK_BACKEND", backend)
    assert run_cli([*command, "--chart", str(path), "--grid", "2"]) == (1, "")
    assert capsys.readouterr().err == message


def test_exact_reports_read_no_value_past_a_huge_domain_bound(tmp_path, monkeypatch, capsys):
    # big3's transgression residual vanishes exactly, and x1 on [1, 1e400]
    # has a flat frame: neither reads a value at the bound
    monkeypatch.setenv("FLATCHECK_BACKEND", "exact")
    big3, line = tmp_path / "big3.json", tmp_path / "line.json"
    big3.write_text(json.dumps(BOUND_PAST_THE_FLOAT_RANGE))
    line.write_text(json.dumps({"name": "line", "n": 1, "domain": [["1", "1e400"]],
                                "frame": [["x1"]]}))
    code, out = run_cli(["chern-simons", "--chart", str(big3), "--grid", "2"])
    assert code == 0 and json.loads(out)["chern_simons_residual"] == 0.0
    code, out = run_cli(["geom", "report", "--chart", str(line), "--grid", "2"])
    assert code == 0 and json.loads(out)["locally_homogeneous"] is True
    assert capsys.readouterr().err == ""


# finite domain bounds whose width overflows a float: the numeric grid
# still runs from bound to bound, so its first point is the lower bound
WIDE_DOMAIN = {"name": "wide", "n": 1, "domain": [["-1e308", "1e308"]], "frame": [["1 + x1^2"]]}


@pytest.mark.parametrize("command", [["geom", "report"], ["chern-simons"]],
                         ids=["report", "chern-simons"])
def test_numeric_grid_on_a_domain_wider_than_the_float_range(tmp_path, monkeypatch, capsys,
                                                            command):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(WIDE_DOMAIN))
    monkeypatch.setenv("FLATCHECK_BACKEND", "numeric")
    assert run_cli([*command, "--chart", str(path), "--grid", "3"]) == (1, "")
    assert capsys.readouterr().err == "error: frame of chart 'wide' is not finite at (-1e+308,)\n"
    path.write_text(json.dumps(dict(WIDE_DOMAIN, frame=[["2"]])))
    for backend in ("exact", "numeric"):
        monkeypatch.setenv("FLATCHECK_BACKEND", backend)
        code, out = run_cli([*command, "--chart", str(path), "--grid", "3"])
        assert code == 0 and json.loads(out)["locally_homogeneous"] is True
    assert capsys.readouterr().err == ""


def test_grid_points_keep_their_floats_where_the_width_is_finite():
    from flatcheck.charts_io import chart_from_json
    chart = chart_from_json(dict(WIDE_DOMAIN, frame=[["2"]]), "numeric")
    assert chart.grid(3) == [(-1e308,), (0.0,), (1e308,)]
    # lo (1 - s) + hi s would move some of su2-euler's grid floats by an ulp
    su2 = chart_from_json({"builtin": "su2-euler"})
    for r, (lo, hi) in enumerate(map(float, bounds) for bounds in su2.domain):
        axis = sorted({p[r] for p in su2.grid(3)})
        assert axis == [lo + (hi - lo) * t / 2 for t in range(3)]


# rational charts with a pole or a singular frame between the grid points
BETWEEN_GRID_POINTS = {
    "stencil-pole": [["1", "0"], ["0", "1/(x1 - 1/10000)"]],
    "stencil-pole-2h": [["1", "0"], ["0", "1/(x1 - 2/10000)"]],
    "stencil-singular": [["1", "0"], ["0", "x1 - 1/1000"]],
}


@pytest.mark.parametrize("name", sorted(BETWEEN_GRID_POINTS))
def test_numeric_reports_evaluate_the_frame_on_the_grid_only(name):
    # forced numeric, the reports read the frame at grid points only, and
    # they agree with the exact reports
    from flatcheck.charts_io import chart_from_json
    from flatcheck.forms import chern_simons_report, identity_report
    doc = {"name": name, "n": 2, "domain": [[-1, 1], [-1, 1]],
           "frame": BETWEEN_GRID_POINTS[name]}
    chart = chart_from_json(doc, "numeric")
    jets, rows = chart._jets, []

    def spy(points, order):
        rows.extend(map(tuple, points.tolist()))
        return jets(points, order)

    chart._jets = spy
    reports = identity_report(chart), chern_simons_report(chart)
    assert rows and set(rows) <= set(chart.grid(5))
    exact = chart_from_json(doc, "exact")
    for got, want in zip(reports, (identity_report(exact), chern_simons_report(exact))):
        assert got["locally_homogeneous"] is want["locally_homogeneous"] is False
        for key in ("max_R", "secondary_class_max_abs", "chern_simons_residual"):
            if key in want:
                assert abs(got[key] - want[key]) <= 1e-12 * abs(want[key]), key
        assert got.get("residuals", {}) == want.get("residuals", {})


OFF_GRID_POLES = {
    "offgrid": [["1/(x1 + 0.0001)", "0"], ["0", "1 + sin(x2)"]],
    "offgrid2": [["1/(x1 + 0.002)", "x2"], ["0", "1 + sin(x1*x2)"]],
}


@pytest.mark.parametrize("command", [["geom", "report"], ["chern-simons"]])
@pytest.mark.parametrize("name", sorted(OFF_GRID_POLES))
def test_off_grid_pole_is_not_sampled(tmp_path, name, command):
    # the poles x1 = -1e-4 and x1 = -2e-3 lie outside the box [0, 1]^2
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": name, "n": 2, "domain": [[0, 1], [0, 1]],
                                "frame": OFF_GRID_POLES[name]}))
    proc = subprocess.run([sys.executable, "-m", "flatcheck.cli", *command, "--chart", str(path),
                           "--grid", "3"], capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 3), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name", ["domain-huge-literal", "pair-huge-coefficient",
                                  "pair-huge-subalgebra"])
def test_huge_literal_is_refused_at_once(tmp_path, name):
    # exit 1 with one line is checked with the rest of MALFORMED; this checks
    # the line, and the timeout that building the value would run into
    argv, doc = MALFORMED[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "flatcheck.cli", *argv, str(path)],
                          capture_output=True, text=True, timeout=10)
    assert "needs more than 4300 digits" in proc.stderr, proc.stderr


def test_huge_argument_is_refused_at_once():
    # an argument is refused by argparse, with its usage line and exit 2
    proc = subprocess.run([sys.executable, "-m", "flatcheck.cli", "groupoid", "g3", "invert",
                           "1e99999999", "1", "1"], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].endswith(
        "error: argument a: the rational literal '1e99999999' needs more than 4300 digits")


def test_closed_stdout_exits_one_without_a_traceback():
    # the reader of the pipe is gone before the child writes its report
    proc = subprocess.Popen([sys.executable, "-m", "flatcheck.cli", "liepair", "order",
                             "--builtin", "p-subdiag3/b3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=30) == 1
    assert err == b""


def test_degree_past_the_packed_field_exits_one_with_one_line(tmp_path):
    # nested powers stay inside the exponent cap but reach x1^32768
    from flatcheck.rational import MAX_DEGREE
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"name": "deep", "n": 1, "domain": [["1/2", "1"]],
                                "frame": [["((x1^64)^64)^8"]]}))
    assert 64 * 64 * 8 == MAX_DEGREE + 1
    proc = subprocess.run([sys.executable, "-m", "flatcheck.cli", "geom", "report", "--chart",
                           str(path), "--grid", "2"], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: a product passes the largest packed total degree, {MAX_DEGREE}"]


@pytest.mark.parametrize("raw, line", [
    (b"\xff\xfe", "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (b"[" * 100_000, "nested too deeply"),
    (b'{"n": ' + b"1" * 5000 + b"}", "error: Exceeds the limit (4300 digits)")],
    ids=["not-utf8", "too-deep", "long-integer"])
@pytest.mark.parametrize("command", [["jet", "invert"], ["liepair", "order", "--pair"],
                                     ["geom", "report", "--chart"]], ids=["jet", "pair", "chart"])
def test_unreadable_document_exits_one_with_one_line(tmp_path, capsys, command, raw, line):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    assert run_cli([*command, str(path)]) == (1, "")
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and line in err, err


def test_negative_multi_index_exits_one_with_one_line(tmp_path):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"n": 2, "k": 2, "components": [
        [{"multiindex": [1, 0], "num": "1", "den": "1"},
         {"multiindex": [-1, 2], "num": "1", "den": "1"}],
        [{"multiindex": [0, 1], "num": "1", "den": "1"}]]}))
    proc = subprocess.run([sys.executable, "-m", "flatcheck.cli", "jet", "invert", str(path)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["error: multi-index (-1, 2) has a negative entry"]


def _deep_entry(levels: int, calls: int) -> str:
    """``calls`` nested sin calls around a sum of x1s, an entry whose syntax
    tree is ``levels`` deep (the Expression node is one level)."""
    return "sin(" * calls + "+".join(["x1"] * (levels - 1 - calls)) + ")" * calls


@pytest.mark.parametrize("calls", [0, 150, 199])
def test_depth_limit_is_inclusive_on_both_backends(calls):
    # nested calls cost numeric evaluation two frames per level
    from flatcheck.charts_io import MAX_DEPTH, chart_from_json
    from flatcheck.forms import chern_simons_report
    from flatcheck.frames import ChartError
    doc = {"name": "deep", "n": 2, "domain": [[1, 2], [1, 2]],
           "frame": [[_deep_entry(MAX_DEPTH, calls), "0"], ["0", "1"]]}
    for backend in ("auto", "numeric"):
        chart = chart_from_json(doc, backend)
        assert chern_simons_report(chart, grid_points=3)["locally_homogeneous"] is True
    doc["frame"][0][0] = _deep_entry(MAX_DEPTH + 1, calls)
    for backend in ("auto", "numeric"):
        with pytest.raises(ChartError, match=f"more than {MAX_DEPTH} levels deep"):
            chart_from_json(doc, backend)


def _numeric_chart(entry: str):
    """A one-dimensional chart whose frame is ``entry``, on the numeric backend."""
    from flatcheck.charts_io import chart_from_json
    return chart_from_json({"name": "entry", "n": 1, "domain": [[1, 3]], "frame": [[entry]]},
                           backend="numeric")


@pytest.mark.parametrize("name, line", [
    ("jet-repeated-multiindex", "error: multi-index (1,) appears twice"),
    ("pair-repeated-bracket", "error: Lie pair document gives the bracket (0, 1) twice")])
def test_repeated_document_entry_is_named(tmp_path, name, line):
    # exit 1 with one line is checked with the rest of MALFORMED; this checks the line
    argv, doc = MALFORMED[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "flatcheck.cli", *argv, str(path)],
                          capture_output=True, text=True, timeout=30)
    assert proc.stderr.startswith(line), proc.stderr


def test_repeated_entries_are_refused_in_every_jet_document():
    from fractions import Fraction
    from flatcheck.jetcore import JetError, poly_from_json
    entries = [{"multiindex": [0, 1], "num": "1", "den": "2"},
               {"multiindex": [1, 0], "num": "3", "den": "1"},
               {"multiindex": [0, 1], "num": "1", "den": "2"}]
    with pytest.raises(JetError, match=r"\(0, 1\) appears twice"):
        poly_from_json(entries, 2, 2)
    assert poly_from_json(entries[:2], 2, 2).coeffs == {(0, 1): Fraction(1, 2), (1, 0): 3}


def test_non_finite_literal_is_refused_on_both_backends():
    from flatcheck.charts_io import parse_exact_expr
    from flatcheck.frames import ChartError
    for parse in (parse_exact_expr, lambda src, n: _numeric_chart(src)):
        with pytest.raises(ChartError, match="inf"):
            parse("2 * 1e999", 1)


def test_exponent_cap_is_inclusive_on_both_backends():
    import numpy as np
    from flatcheck.charts_io import MAX_EXPONENT, parse_exact_expr
    from flatcheck.frames import ChartError
    assert parse_exact_expr(f"x1^{MAX_EXPONENT}", 1).num.degree() == MAX_EXPONENT
    frame = _numeric_chart(f"x1^-{MAX_EXPONENT}")._jets(np.array([[2.0]]), 0)[0]
    assert frame[0, 0, 0] == 2.0 ** -MAX_EXPONENT
    for parse in (parse_exact_expr, lambda src, n: _numeric_chart(src)):
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


def test_builtin_charts_honour_the_backend_env_var(monkeypatch, capsys):
    monkeypatch.setenv("FLATCHECK_BACKEND", "exact")
    code, out = run_cli(["geom", "report", "--builtin", "su2-euler", "--grid", "2"])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert err == "error: chart 'su2-euler' has no exact form\n"
    monkeypatch.setenv("FLATCHECK_BACKEND", "numeric")
    for command in (["geom", "report"], ["chern-simons"]):
        code, out = run_cli([*command, "--builtin", "deformed2", "--grid", "3"])
        doc = json.loads(out)
        assert code == 0
        assert doc["backend"] == "numeric"
        assert doc["locally_homogeneous"] is False


@pytest.mark.parametrize("name", CHART_NAMES + ["abelian5"])
def test_builtin_runs_as_its_chart_document(tmp_path, monkeypatch, capsys, name):
    # one loader: the document of a catalog chart, written to a file, gives
    # the bytes of the builtin on every backend, refusals included
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(chart_document(name)))
    if name in CHART_NAMES:
        builtin = ["--builtin", name]
    else:  # --builtin offers the listed names only
        (tmp_path / "builtin.json").write_text(json.dumps({"builtin": name}))
        builtin = ["--chart", str(tmp_path / "builtin.json")]
    for backend in ("auto", "exact", "numeric"):
        monkeypatch.setenv("FLATCHECK_BACKEND", backend)
        for command in (["geom", "report"], ["chern-simons"]):
            runs = []
            for source in (builtin, ["--chart", str(path)]):
                code, out = run_cli([*command, *source, "--grid", "2"])
                runs.append((code, out, capsys.readouterr().err))
            assert runs[0] == runs[1], (backend, command)


@pytest.mark.parametrize("chart, grid", [
    # R = 2(1 - x1^2)/(1 + x1^2)^2 vanishes at both grid points x1 = -1, 1
    ({"builtin": "deformed2"}, "2"),
    # R is exactly nonzero, but below the default tolerance on the grid
    ({"name": "stretch-tiny", "n": 2, "domain": [[-1, 1], [-1, 1]],
      "frame": [["1", "0"], ["0", "1 + x1^2/1000000000"]]}, "5"),
])
def test_exact_verdict_does_not_depend_on_the_grid(tmp_path, chart, grid):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(chart))
    code, out = run_cli(["geom", "report", "--chart", str(path), "--grid", grid])
    report = json.loads(out)
    assert code == 0
    assert report["backend"] == "exact"
    assert report["max_R"] <= report["tolerance"]
    assert report["locally_homogeneous"] is False
    code, out = run_cli(["chern-simons", "--chart", str(path), "--grid", grid])
    doc = json.loads(out)
    assert code == 0
    assert doc["locally_homogeneous"] is False
    assert doc["secondary_class_closed"] is None


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


# one light run of each of the eight subcommands; JET is a jet document
EVERY_COMMAND = [
    ["geom", "report", "--builtin", "abelian2", "--grid", "2"],
    ["jet", "compose", "JET", "JET"],
    ["jet", "invert", "JET"],
    ["groupoid", "g3", "invert", "2", "1", "0"],
    ["spencer", "check", "--trials", "1"],
    ["liepair", "order", "--builtin", "sl2/borel"],
    ["catalog", "list"],
    ["chern-simons", "--builtin", "abelian2", "--grid", "2"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND,
                         ids=["-".join(w for w in a[:2] if w[0] != "-") for a in EVERY_COMMAND])
def test_unwritable_out_exits_one_with_one_line(tmp_path, capsys, argv):
    jet = tmp_path / "jet.json"
    jet.write_text(json.dumps(identity_jet_doc(2, 3)))
    argv = [str(jet) if a == "JET" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "missing" / "out.json")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


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


@pytest.mark.parametrize("flag", ["--tol", "--tol2"])
@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_non_finite_or_zero_tolerance_rejected(capsys, flag, value):
    for command in (["geom", "report"], ["chern-simons"]):
        code, out = run_cli([*command, "--builtin", "abelian2", flag, value])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag} ") and len(err.splitlines()) == 1, err


def test_grid_cap_is_inclusive():
    from flatcheck.frames import MAX_GRID_POINTS
    assert MAX_GRID_POINTS == 64 ** 2
    code, _ = run_cli(["geom", "report", "--builtin", "abelian2", "--grid", "64"])
    assert code == 0
    code, _ = run_cli(["geom", "report", "--builtin", "abelian2", "--grid", "65"])
    assert code == 1


def test_jet_caps_are_inclusive(tmp_path, capsys):
    from flatcheck.frames import MAX_DIM
    from flatcheck.jetcore import MAX_ORDER
    for n, k, expected in ((MAX_DIM, MAX_ORDER, 0), (MAX_DIM + 1, MAX_ORDER, 1),
                           (MAX_DIM, MAX_ORDER + 1, 1)):
        doc = identity_jet_doc(n, k)
        path = tmp_path / f"id-{n}-{k}.json"
        path.write_text(json.dumps(doc))
        for command in (["jet", "invert", str(path)], ["jet", "compose", str(path), str(path)]):
            code, out = run_cli(command)
            assert code == expected
            if expected == 0:
                assert json.loads(out) == doc
            else:
                assert len(capsys.readouterr().err.splitlines()) == 1


def test_pair_dimension_cap_is_inclusive(tmp_path):
    from flatcheck.liepair import MAX_PAIR_DIM
    for dim, expected in ((MAX_PAIR_DIM, 0), (MAX_PAIR_DIM + 1, 1)):
        # abelian, with h the first coordinate line: an ideal, so ineffective
        path = tmp_path / f"abelian{dim}.json"
        path.write_text(json.dumps({"dim": dim, "brackets": [],
                                    "subalgebra": [[int(t == 0) for t in range(dim)]]}))
        code, out = run_cli(["liepair", "order", "--pair", str(path)])
        assert code == expected
        if expected == 0:
            assert json.loads(out)["order"] == "ineffective"


def test_jacobi_product_cap_is_inclusive(tmp_path, monkeypatch, capsys):
    from flatcheck import liepair
    g, h = get_lie_pair("sl3/borel")
    products = g.jacobi_products()
    path = tmp_path / "sl3-borel.json"
    path.write_text(json.dumps(liepair.pair_to_json(g, h)))
    monkeypatch.setattr(liepair, "MAX_JACOBI_PRODUCTS", products)
    code, out = run_cli(["liepair", "order", "--pair", str(path)])
    assert (code, json.loads(out)["order"]) == (0, 2)
    monkeypatch.setattr(liepair, "MAX_JACOBI_PRODUCTS", products - 1)
    code, out = run_cli(["liepair", "order", "--pair", str(path)])
    err = capsys.readouterr().err
    assert (code, out) == (1, "")
    assert f"needs up to {products} products" in err and len(err.splitlines()) == 1, err


def test_spencer_trials_cap_is_inclusive(monkeypatch, capsys):
    from flatcheck import spencer_suite
    from flatcheck.cli import MAX_TRIALS
    # the suite itself is not run at the cap: only the bound is under test
    monkeypatch.setattr(spencer_suite, "run_spencer_suite",
                        lambda seed, trials: {"trials": trials, "all_passed": True})
    code, out = run_cli(["spencer", "check", "--trials", str(MAX_TRIALS)])
    assert (code, json.loads(out)["trials"]) == (0, MAX_TRIALS)
    for trials in (MAX_TRIALS + 1, -1):
        code, out = run_cli(["spencer", "check", "--trials", str(trials)])
        err = capsys.readouterr().err
        assert (code, out) == (1, "")
        assert err.startswith("error: --trials ") and len(err.splitlines()) == 1, err


def test_chart_is_validated_on_the_requested_grid(tmp_path, capsys):
    # the pole at x1 = 1/2 lies on the 5-point grid but not on the 3-point one
    path = tmp_path / "half-pole.json"
    path.write_text(json.dumps({
        "name": "half-pole", "n": 2, "domain": [[-1, 1], [-1, 1]],
        "frame": [["1/(x1 - 1/2)", "0"], ["0", "1"]]}))
    for command in (["geom", "report"], ["chern-simons"]):
        code, out = run_cli([*command, "--chart", str(path), "--grid", "3"])
        assert code == 0
        assert json.loads(out)["locally_homogeneous"] is True
        capsys.readouterr()
        code, out = run_cli([*command, "--chart", str(path), "--grid", "5"])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err == (
            "error: frame of chart 'half-pole' has a pole at (1/2, -1)\n")


def test_one_validation_per_command(monkeypatch):
    from flatcheck.frames import FrameChart
    real = FrameChart.validate_invertible
    calls = []

    def counted(chart, points_per_axis=5):
        calls.append(points_per_axis)
        return real(chart, points_per_axis)

    monkeypatch.setattr(FrameChart, "validate_invertible", counted)
    for command in (["geom", "report"], ["chern-simons"]):
        calls.clear()
        code, _ = run_cli([*command, "--builtin", "heisenberg3", "--grid", "3"])
        assert code == 0
        assert calls == [3]


def test_one_exact_frame_inverse_per_command(monkeypatch):
    # the chart inverts its frame when it is built; validation and Gamma
    # read that inverse
    from flatcheck import frames
    real = frames.rf_matrix_inverse
    calls = []

    def counted(matrix):
        calls.append(1)
        return real(matrix)

    monkeypatch.setattr(frames, "rf_matrix_inverse", counted)
    for command in (["geom", "report"], ["chern-simons"]):
        calls.clear()
        code, _ = run_cli([*command, "--builtin", "heisenberg3", "--grid", "3"])
        assert code == 0
        assert len(calls) == 1


def test_liepair_order_computes_the_filtration_once(monkeypatch):
    from flatcheck import liepair
    real = liepair.filtration_of
    calls = []

    def counted(g, h):
        calls.append(1)
        return real(g, h)

    monkeypatch.setattr(liepair, "filtration_of", counted)
    code, out = run_cli(["liepair", "order", "--builtin", "sl2/borel"])
    assert code == 0
    assert json.loads(out)["order"] == 2
    assert len(calls) == 1


def test_calibration_failure_exit_code(monkeypatch):
    from flatcheck import forms
    from flatcheck.forms import CalibrationError

    def boom(chart, tol, grid_points):
        raise CalibrationError(chart.name, {"structure": 1.0}, {"structure": 2.0})

    monkeypatch.setattr(forms, "identity_report", boom)
    code, out = run_cli(["geom", "report", "--builtin", "abelian2"])
    assert code == 3
    doc = json.loads(out)
    assert doc["error"] == "sign-calibration-failure"
    assert doc["residuals_plus"]["structure"] == 1.0


def test_residual_failure_exit_code(monkeypatch):
    from flatcheck import forms

    real = forms.identity_report

    def tampered(chart, tol, grid_points):
        rep = real(chart, tol=tol, grid_points=grid_points)
        rep["residuals"]["bianchi"] = 1.0
        return rep

    monkeypatch.setattr(forms, "identity_report", tampered)
    code, _ = run_cli(["geom", "report", "--builtin", "abelian2"])
    assert code == 3


def test_exact_commands_do_not_import_numpy():
    # numpy is loaded by the numeric backend only, so exact commands do not
    # pay for its import
    code = ("import sys, flatcheck.cli as cli\n"
            "print('numpy' in sys.modules)\n"
            "cli.main(['geom', 'report', '--builtin', 'heisenberg3'])\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "False")


@pytest.mark.parametrize("command", [["geom", "report"], ["chern-simons"]],
                         ids=["geom-report", "chern-simons"])
def test_a_report_builds_one_connection(command):
    # the structure sign is a constant: a fresh process builds the
    # connection of the chart it reports on, and no other
    code = ("import sys, flatcheck.cli as cli, flatcheck.forms as forms\n"
            "built = []\n"
            "real = forms.gamma_from_frame\n"
            "def counted(chart):\n"
            "    built.append(chart.name)\n"
            "    return real(chart)\n"
            "forms.gamma_from_frame = counted\n"
            f"assert cli.main({command + ['--builtin', 'abelian2']!r}) == 0\n"
            "print(built)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['abelian2']"


# the flatcheck modules each command family loads; a cold process pays for
# the import of every one, so a new module-level import shows up here
_CHART_MODULES = {"literals", "rational", "frames", "charts_io", "forms"}
_LOADED_MODULES = [
    (["catalog", "list"], set()),
    (["groupoid", "g3", "invert", "2", "1", "0"], {"literals", "arrows"}),
    (["liepair", "order", "--builtin", "sl2/borel"], {"literals", "rational", "liepair"}),
    (["jet", "invert", "JET"], {"literals", "rational", "jetcore"}),
    (["spencer", "check", "--trials", "1"],
     {"literals", "rational", "jetcore", "spencer", "spencer_suite"}),
    (["geom", "report", "--builtin", "heisenberg3"], _CHART_MODULES),
    (["chern-simons", "--builtin", "heisenberg3"], _CHART_MODULES),
]


@pytest.mark.parametrize("argv, modules", _LOADED_MODULES,
                         ids=["-".join(argv[:2]) for argv, _ in _LOADED_MODULES])
def test_each_command_imports_only_what_it_runs(tmp_path, argv, modules):
    jet = tmp_path / "jet.json"
    jet.write_text(json.dumps(identity_jet_doc(2, 3)))
    argv = [str(jet) if a == "JET" else a for a in argv] + ["--out", str(tmp_path / "out.json")]
    code = ("import sys, flatcheck.cli as cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'flatcheck'))\n"
            "print('dataclasses' in sys.modules, 'numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, heavy = proc.stdout.splitlines()
    expected = {"flatcheck", "cli", "catalog"} | modules
    assert loaded == repr(sorted(m if m == "flatcheck" else f"flatcheck.{m}" for m in expected))
    assert heavy == "False False"
