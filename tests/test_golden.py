"""CLI output pinned byte for byte.

Each case runs one flatcheck command line in process and compares its
stdout and exit code with ``tests/golden/<case>.out`` and
``tests/golden/exit_codes.json``, which were written by an earlier
version of the CLI.  A refactor that changes any byte of these reports
fails here.  Numeric charts are left out: their last digits depend on the
platform's libm.

After a deliberate change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
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
for _chart in EXACT_CHARTS:
    CASES[f"report-{_chart}"] = ["geom", "report", "--builtin", _chart]
    CASES[f"chern-simons-{_chart}"] = ["chern-simons", "--builtin", _chart]


def run_case(name: str) -> tuple[int, str]:
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in CASES[name]]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden(name):
    code, out = run_case(name)
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    codes = {}
    for case in CASES:
        codes[case], text = run_case(case)
        (GOLDEN / f"{case}.out").write_text(text, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    sys.exit(0)
