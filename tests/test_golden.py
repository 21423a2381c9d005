"""CLI output pinned byte for byte.

Each case runs one flatcheck command line in process and compares its
stdout and exit code with ``tests/golden/<case>.out`` and
``tests/golden/exit_codes.json``, which were written by an earlier
version of the CLI.  A refactor that changes any byte of these reports
fails here.  Numeric charts are left out: their last digits depend on the
platform's libm.  Commands run inside ``tests/golden`` with bare file
names, so a report that echoes its document path (``liepair order
--pair``) does not depend on where the repository lives.

After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from flatcheck.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXACT_CHARTS = ["abelian2", "abelian3", "abelian4", "heisenberg3", "hyperbolic2", "deformed2"]
PAIRS = ["so3/so2", "e2/so2", "so21/so2", "sl2/borel", "sl3/borel", "p-subdiag2/b2",
         "p-subdiag3/b3", "p-subdiag4/b4", "heis3/center", "gl2/center-so2"]

CASES = {
    "jet-compose-a-a": ["jet", "compose", "jet-a.json", "jet-a.json"],
    "jet-compose-b-c": ["jet", "compose", "jet-b.json", "jet-c.json"],
    "jet-compose-c-b": ["jet", "compose", "jet-c.json", "jet-b.json"],
    "jet-invert-a": ["jet", "invert", "jet-a.json"],
    "jet-invert-b": ["jet", "invert", "jet-b.json"],
    "jet-invert-c": ["jet", "invert", "jet-c.json"],
    "spencer-check": ["spencer", "check", "--seed", "0", "--trials", "5"],
    "g3-compose": ["groupoid", "g3", "compose", "1", "1", "0", "2", "0", "1"],
    "g3-invert": ["groupoid", "g3", "invert", "1", "1", "0"],
    "g3-split": ["groupoid", "g3", "split", "2", "1"],
    "g3-schwarzian": ["groupoid", "g3", "schwarzian", "1", "0", "6"],
    "catalog-list": ["catalog", "list"],
}
CASES.update({f"liepair-{name.replace('/', '-')}": ["liepair", "order", "--builtin", name]
              for name in PAIRS})
# the heavy algebra inputs: dense n = 3 jets whose inversion needs several
# sweeps, sl(n) over its Borel and filiform pairs whose filtrations are long
for _k in (5, 6):
    _f, _g = f"jet-n3k{_k}-f.json", f"jet-n3k{_k}-g.json"
    CASES[f"jet-compose-n3k{_k}"] = ["jet", "compose", _f, _g]
    CASES[f"jet-invert-n3k{_k}"] = ["jet", "invert", _f]
# sl(3), sl(4) and gl(3) over the Borel in a unimodular basis of conftest,
# whose dense integer constants give stage bases with denominators of 2 and more
for _pair in ("sl4-borel", "sl5-borel", "sl6-borel", "filiform8", "filiform16",
              "sl3-borel-conj", "sl4-borel-conj", "gl3-borel-conj"):
    CASES[f"liepair-doc-{_pair}"] = ["liepair", "order", "--pair", f"pair-{_pair}.json"]
for _chart in EXACT_CHARTS:
    CASES[f"report-{_chart}"] = ["geom", "report", "--builtin", _chart]
    CASES[f"chern-simons-{_chart}"] = ["chern-simons", "--builtin", _chart]
# the conftest stress charts as chart documents; sl2mix4 on a coarser grid,
# which keeps its two cases under a second each
for _chart, _grid in (("sl2rational", "5"), ("unipotent4", "5"), ("sl2mix4", "3")):
    _doc = f"chart-{_chart}.json"
    CASES[f"report-{_chart}"] = ["geom", "report", "--chart", _doc, "--grid", _grid]
    CASES[f"chern-simons-{_chart}"] = ["chern-simons", "--chart", _doc, "--grid", _grid]
# the same charts times one fixed integer unimodular C with no zero entry,
# the heaviest exact charts, whose float max_R depends on term order
for _chart, _grid in (("sl2rational", "5"), ("unipotent4", "5"), ("sl2mix4", "3")):
    _doc = f"chart-{_chart}-rescaled.json"
    CASES[f"report-{_chart}-rescaled"] = ["geom", "report", "--chart", _doc, "--grid", _grid]
    CASES[f"chern-simons-{_chart}-rescaled"] = ["chern-simons", "--chart", _doc, "--grid", _grid]
# floats that are not dyadic, so a change of summation order shows in their
# last bits: the seeded dense charts of conftest, and sl2mix4 on a grid with
# points such as 11/12
for _case, _doc, _grid in (("dense2", "chart-dense2.json", "2"),
                           ("dense3", "chart-dense3.json", "2"),
                           ("sl2mix4-grid4", "chart-sl2mix4.json", "4")):
    CASES[f"report-{_case}"] = ["geom", "report", "--chart", _doc, "--grid", _grid]
    CASES[f"chern-simons-{_case}"] = ["chern-simons", "--chart", _doc, "--grid", _grid]


def run_case(name: str) -> tuple[int, str]:
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with redirect_stdout(buf):
            code = main(CASES[name])
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden(name):
    code, out = run_case(name)
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["sl2rational", "unipotent4", "sl2mix4"])
def test_golden_chart_documents_are_the_conftest_charts(name):
    import conftest
    from flatcheck.charts_io import load_chart_file
    chart = load_chart_file(str(GOLDEN / f"chart-{name}.json"), backend="exact")
    expected = getattr(conftest, f"make_{name}")()
    assert chart.domain == expected.domain
    assert chart.entries == expected.entries


@pytest.mark.parametrize("n", [2, 3])
def test_golden_dense_documents_are_the_seeded_generator(n):
    import conftest
    doc = json.loads((GOLDEN / f"chart-dense{n}.json").read_text())
    assert doc == conftest.dense_chart_document(n)


@pytest.mark.parametrize("name, n, gl", [("sl3", 3, False), ("sl4", 4, False), ("gl3", 3, True)])
def test_golden_borel_pair_documents_are_the_seeded_generator(name, n, gl):
    import conftest
    doc = json.loads((GOLDEN / f"pair-{name}-borel-conj.json").read_text())
    assert doc == conftest.borel_pair_document(n, gl)


if __name__ == "__main__":
    codes = {}
    for case in CASES:
        codes[case], text = run_case(case)
        (GOLDEN / f"{case}.out").write_text(text, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    sys.exit(0)
