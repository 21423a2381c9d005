"""Tests of the benchmark itself: generators, oracles and tiny runs.

    python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from flatcheck import cli  # noqa: E402


def _ops(wl):
    return [vars(op) for op in wl.ops]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    a, b, c = workloads.build(name, 7), workloads.build(name, 7), workloads.build(name, 8)
    assert a.docs == b.docs and _ops(a) == _ops(b)
    assert a.docs != c.docs or _ops(a) != _ops(c)


def test_known_answers_agree_with_the_catalog():
    from flatcheck.catalog import CHART_FACTS, CHART_NAMES, PAIR_FACTS, PAIR_NAMES
    assert list(workloads.CATALOG_CHARTS) == CHART_NAMES
    assert list(workloads.CATALOG_PAIRS) == PAIR_NAMES
    for name, verdict in workloads.CATALOG_CHARTS.items():
        assert CHART_FACTS[name]["locally_homogeneous"][0] is verdict
    for name, order in workloads.CATALOG_PAIRS.items():
        assert PAIR_FACTS[name]["order"][0] == order


def test_rescaling_matrices_are_unimodular_without_zero_entries():
    rng = random.Random(0)
    for n in (2, 3, 4):
        c = workloads.unimodular(n, rng)
        assert all(all(row) for row in c)
        m = [[Fraction(x) for x in row] for row in c]
        det = Fraction(1)
        for col in range(n):  # Gaussian elimination
            piv = next(r for r in range(col, n) if m[r][col])
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = -det
            det *= m[col][col]
            for r in range(col + 1, n):
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
        assert det == 1


# --- each oracle accepts the real answer and rejects a wrong one ----------------

def _run_cli(tmp_path, argv, env=None):
    out = tmp_path / "out.json"
    saved = dict(os.environ)
    os.environ.update(env or {})
    try:
        rc = cli.main(argv + ["--out", str(out)])
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return rc, out.read_text()


def _write_docs(tmp_path, wl):
    wl.write_docs(tmp_path / "in")
    return {name: str(tmp_path / "in" / name) for name in wl.docs}


def _op(wl, op_id):
    return next(op for op in wl.ops if op.op_id == op_id)


def _answer(tmp_path, wl, op_id, paths):
    op = _op(wl, op_id)
    rc, text = _run_cli(tmp_path, [paths.get(a, a) for a in op.argv], op.env)
    return op, rc, text


def _assert_rejects(op, rc, text, mutate, docs, peers=None):
    assert oracles.check_op(op, rc, text, docs, peers or {}) == []
    doc = json.loads(text)
    mutate(doc)
    assert oracles.check_op(op, rc, json.dumps(doc), docs, peers or {}) != []


def test_chart_oracles_reject_wrong_answers(tmp_path):
    wl = workloads.build("exact-charts", 1, "tiny")
    paths = _write_docs(tmp_path, wl)
    op, rc, text = _answer(tmp_path, wl, "report:deformed2", paths)
    _assert_rejects(op, rc, text, lambda d: d["residuals"].update(bianchi=1e-300), wl.docs)
    _assert_rejects(op, rc, text, lambda d: d.update(locally_homogeneous=True), wl.docs)
    _assert_rejects(op, rc, text, lambda d: d.update(max_R=2.0000001), wl.docs)
    assert oracles.check_op(op, 3, text, wl.docs, {}) != []
    op, rc, text = _answer(tmp_path, wl, "cs:abelian2", paths)
    _assert_rejects(op, rc, text, lambda d: d.update(secondary_class_closed=None), wl.docs)
    _assert_rejects(op, rc, text, lambda d: d.update(chern_simons_residual=0), wl.docs)
    op, rc, text = _answer(tmp_path, wl, "report:heisenberg3-rescaled", paths)
    _assert_rejects(op, rc, text, lambda d: d.update(max_R=1e-12), wl.docs)


def test_rescaled_chart_must_keep_max_r(tmp_path):
    wl = workloads.build("exact-charts", 1)
    op = _op(wl, "report:unipotent4-rescaled")
    doc = {"chart": "unipotent4-rescaled", "backend": "exact", "locally_homogeneous": False,
           "residuals": {k: 0.0 for k in oracles.RESIDUAL_KEYS}, "max_R": 4.0}
    text = json.dumps(doc)
    assert oracles.check_op(op, 0, text, wl.docs, {"report:unipotent4": {"max_R": 4.0}}) == []
    assert oracles.check_op(op, 0, text, wl.docs, {"report:unipotent4": {"max_R": 3.5}}) != []


def test_numeric_oracle_rejects_wrong_witness(tmp_path):
    wl = workloads.build("numeric-charts", 1, "tiny")
    paths = _write_docs(tmp_path, wl)
    op, rc, text = _answer(tmp_path, wl, "report:deformed2-numeric", paths)
    _assert_rejects(op, rc, text, lambda d: d.update(max_R=2.00001), wl.docs)
    _assert_rejects(op, rc, text, lambda d: d["residuals"].update(structure=2e-6), wl.docs)


def _bump_a_coefficient(doc):
    entry = doc["components"][0][-1]
    entry["num"] = str(int(entry["num"]) + 1)


def test_algebra_oracles_reject_wrong_answers(tmp_path):
    wl = workloads.build("algebra", 1, "tiny")
    paths = _write_docs(tmp_path, wl)
    for op_id in ("compose:n2k3", "invert:n2k3"):
        op, rc, text = _answer(tmp_path, wl, op_id, paths)
        _assert_rejects(op, rc, text, _bump_a_coefficient, wl.docs)
    op, rc, text = _answer(tmp_path, wl, "pair:filiform3", paths)
    _assert_rejects(op, rc, text, lambda d: d.update(order=2), wl.docs)
    _assert_rejects(op, rc, text, lambda d: d.update(filtration_dims=[3, 1, 0]), wl.docs)
    op, rc, text = _answer(tmp_path, wl, "pair:sl3-borel", paths)
    _assert_rejects(op, rc, text, lambda d: d["filtration_bases"][1][0].reverse(), wl.docs)
    op, rc, text = _answer(tmp_path, wl, "pair:heis3/center", paths)
    _assert_rejects(op, rc, text, lambda d: d.update(order=1, effective=True), wl.docs)
    op, rc, text = _answer(tmp_path, wl, "spencer:0", paths)
    _assert_rejects(op, rc, text, lambda d: d.update(all_passed=False), wl.docs)
    _assert_rejects(op, rc, text, lambda d: d["kernel_jacobi"].update(passed=1), wl.docs)


def test_cli_oracles_reject_wrong_answers(tmp_path):
    wl = workloads.build("cli-cold", 1)
    paths = _write_docs(tmp_path, wl)
    op, rc, text = _answer(tmp_path, wl, "catalog", paths)
    _assert_rejects(op, rc, text,
                    lambda d: d["entries"][-1]["expected"]["order"].update(value="1"), wl.docs)
    for op_id in ("g3:compose", "g3:invert", "g3:split", "g3:schwarzian"):
        op, rc, text = _answer(tmp_path, wl, op_id, paths)
        def wrong(d):
            d["result"] = "0/1" if isinstance(d["result"], str) else d["result"][::-1] + ["1/1"]
        _assert_rejects(op, rc, text, wrong, wl.docs)


def test_g3_oracle_formulas():
    assert oracles.g3_expected("compose", ["1", "1", "0"], ["2", "0", "1"]) == [2, 4, 1]
    assert oracles.g3_expected("split", ["2", "1"]) == [2, 1, Fraction(3, 4)]
    assert oracles.g3_expected("schwarzian", ["1", "0", "6"]) == 6
    a = ["3/2", "1/3", "5/4"]
    inv = [str(x) for x in oracles.g3_expected("invert", a)]
    assert oracles.g3_expected("compose", inv, a) == [1, 0, 0]


def test_refusal_must_be_one_line():
    assert oracles.message_problems(1, "error: chart is singular\n") == []
    assert oracles.message_problems(1, "Traceback (most recent call last):\n  x\nKeyError: 'coeffs'\n")
    assert oracles.message_problems(1, "error: a\nerror: b\n")
    op = workloads.Op("bad", [], ("refused", {}), expect_rc=1, out=False)
    assert oracles.check_op(op, 1, None, {}, {}) == []
    assert oracles.check_op(op, 0, None, {}, {}) != []


def test_compose_oracle_inverts_a_known_jet():
    # f(x) = x + x^2 on the line; its inverse to order 3 is x - x^2 + 2 x^3
    f = {"n": 1, "k": 3, "components": [[{"multiindex": [1], "num": "1", "den": "1"},
                                         {"multiindex": [2], "num": "1", "den": "1"}]]}
    g = copy.deepcopy(f)
    g["components"][0][1]["num"] = "-1"
    g["components"][0].append({"multiindex": [3], "num": "2", "den": "1"})
    assert oracles.check_jet_invert(g, f) == []
    g["components"][0][2]["num"] = "3"
    assert oracles.check_jet_invert(g, f) != []


# --- whole runs at a tiny size --------------------------------------------------

def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py")] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name,trace", [(w, 0) for w in workloads.WORKLOADS]
                         + [("exact-charts", 1), ("cli-cold", 1)])
def test_every_workload_completes_at_tiny_size(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _bench(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                   "--scale", "tiny"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if name != "cli-cold":
        assert result["failed"] == 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _bench(["--workload", "algebra", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
