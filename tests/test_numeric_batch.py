"""The numeric backend evaluates fields on whole batches of points.

A batch gives each point the values that a batch of that point alone
gives, to rounding: the matrix products of the connection may round
differently in the last bit, so the comparison has a tolerance.  A node
caches its jet per batch unless exactly one other node reads it, which
changes no float of a report.  A forced-numeric exact chart runs
through the entry interpreter, not its exact fields one point at a time,
and each distinct sin/cos/exp call of a frame is one node, composed once
per batch (and again only for a higher order) for all of the frame's
entries.
"""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest

from conftest import dense_chart_document
from flatcheck.catalog import get_chart
from flatcheck.charts_io import _interpret, _NumericAlgebra, _parse, chart_from_json
from flatcheck.forms import chern_simons_report, identity_report
from flatcheck.frames import (ChartError, NumericScalar, curvature_components, gamma_from_frame,
                              jet_constant)

# su2-euler's frame times C = [[1, 2, 1], [0, 1, 1], [1, 2, 2]] (det 1)
_SU2 = [["sin(x3)/sin(x2)", "cos(x3)/sin(x2)", "0"],
        ["cos(x3)", "-sin(x3)", "0"],
        ["-sin(x3)*cos(x2)/sin(x2)", "-cos(x3)*cos(x2)/sin(x2)", "1"]]
_C = [[1, 2, 1], [0, 1, 1], [1, 2, 2]]
SU2_RESCALED = {
    "name": "su2-rescaled", "n": 3,
    "domain": [[0.3, 2.8], [0.2, 2.941592653589793], [0.3, 2.8]],
    "frame": [[" + ".join(f"{_C[t][a]}*({_SU2[i][t]})" for t in range(3) if _SU2[i][t] != "0")
               for a in range(3)] for i in range(3)],
}

CASES = {
    "su2-euler": (lambda: get_chart("su2-euler"), 3),
    "affine-exp2": (lambda: get_chart("affine-exp2"), 5),
    "deformed2-numeric": (lambda: chart_from_json({"builtin": "deformed2"}, "numeric"), 5),
    "su2-rescaled": (lambda: chart_from_json(SU2_RESCALED), 3),
}


def close(got, want) -> bool:
    return all(abs(g - w) <= 1e-12 * (1 + abs(w)) for g, w in zip(got, want, strict=True))


@pytest.fixture(params=sorted(CASES))
def case(request):
    make, grid = CASES[request.param]
    chart = make()
    assert chart.backend == "numeric"
    return chart, grid


def test_gamma_and_curvature_match_point_by_point(case):
    chart, grid_points = case
    grid = chart.grid(grid_points)
    batch, point = gamma_from_frame(chart), gamma_from_frame(chart)
    pairs = [(batch.comp(i, j, k), point.comp(i, j, k))
             for i in range(chart.n) for j in range(chart.n) for k in range(chart.n)]
    pairs += zip(curvature_components(batch).values(), curvature_components(point).values())
    for b, p in pairs:
        assert close(b.values(grid).tolist(), [p.eval_float(q) for q in grid])


def test_report_matches_point_by_point(case, monkeypatch):
    chart, grid_points = case
    batched = identity_report(chart, grid_points=grid_points)
    values = NumericScalar.batch_values
    monkeypatch.setattr(NumericScalar, "batch_values", staticmethod(
        lambda fields, points: np.concatenate([values(fields, [p]) for p in points], axis=1)))
    reference = identity_report(chart, grid_points=grid_points)
    keys = sorted(batched["residuals"])
    assert close([batched["residuals"][k] for k in keys] + [batched["max_R"]],
                 [reference["residuals"][k] for k in keys] + [reference["max_R"]])
    assert batched["locally_homogeneous"] == reference["locally_homogeneous"]


def test_cache_keeps_each_batch_apart():
    # one node on two batches and on a row permutation of the first: each
    # batch gets its own values, and a repeated batch is a cache hit
    f = _interpret(_parse("sin(x1) + x1*x2**2"), 2, _NumericAlgebra())
    node = f.diff(0) * f + f.diff(1).diff(0)

    def want(x, y):  # the same tree, differentiated by hand
        return (math.cos(x) + y * y) * (math.sin(x) + x * y * y) + 2 * y

    a = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.6]])
    b = np.array([[-0.7, 0.8], [0.9, 0.1]])
    for batch in (a, b, a[[2, 0, 1]], a, b):
        assert close(node.values(batch).tolist(), [want(x, y) for x, y in batch.tolist()])
    assert len(node._cache) == 3


def test_forced_numeric_builtin_is_evaluated_per_batch(monkeypatch):
    # a forced-numeric exact chart runs through the entry interpreter on
    # whole batches, not through its exact fields one point at a time
    from flatcheck.rational import RationalFunc

    def refuse(self, point):
        raise AssertionError("RationalFunc.eval_float called")

    monkeypatch.setattr(RationalFunc, "eval_float", refuse)
    report = identity_report(chart_from_json({"builtin": "abelian4"}, "numeric"), grid_points=3)
    assert report["backend"] == "numeric"
    assert report["max_R"] == 0.0


SHARED_SIN = {"name": "shared-sin", "n": 2, "domain": [[-1, 1], [0.5, 1.5]],
              "frame": [["1 + sin(x2)", "x1*sin(x2)"],
                        ["sin(x2)*sin(x2)", "2 + sin(x2)*cos(x1)"]]}


def test_each_call_is_evaluated_once_per_batch(monkeypatch):
    # sin(x2) occurs five times in the frame, and numpy's sin runs on the
    # batch's values of x2 once per batch and higher order (and from order
    # 1 on, on those of x1 for the derivatives of cos(x1))
    sin, calls = np.sin, []

    def counted_sin(x):
        calls.append(x.tolist())
        return sin(x)

    monkeypatch.setattr(np, "sin", counted_sin)
    chart = chart_from_json(SHARED_SIN)
    a = np.array(chart.grid(3))
    b = a[:4] + 0.01
    env = {"sin": sin, "cos": np.cos}
    # a batch seen before, at an order no higher, is a cache hit
    for batch, order, fresh in ((a, 0, 1), (b, 0, 1), (a, 0, 0), (a, 2, 1), (a, 2, 0)):
        calls.clear()
        jets = chart._jets(batch, order)
        assert calls.count(batch[:, 1].tolist()) == fresh
        assert len(calls) == fresh * (1 + (order > 0))
        # the values are the entries evaluated by numpy on the batch's columns
        names = {"x1": batch[:, 0], "x2": batch[:, 1]}
        for i, row in enumerate(SHARED_SIN["frame"]):
            for k, entry in enumerate(row):
                want = eval(entry, env, dict(names))
                assert [v.hex() for v in jets[0, :, i, k]] == [v.hex() for v in want]


@pytest.mark.parametrize("entry", ["1/x1", "1/(x1 - x2)", "sin(x2)/(x1*x2 - 0.25)",
                                   "1/(x1 + x2 - 2)", "x2/(x1 - 0.5) + 1/(x2 - 0.5)",
                                   "1/(1/x1)"])
def test_the_first_point_that_cannot_be_evaluated_is_named(entry):
    # a pole reads NaN at its own point only, and the error names the
    # first such grid point, the first where Python's floats divide by
    # zero; the grid is evaluated as one batch
    doc = {"name": "poles", "n": 2, "domain": [[-1, 1], [-1, 1]],
           "frame": [["1", entry], ["0", "1"]]}  # det e = 1 wherever e is finite
    chart = chart_from_json(doc, "numeric")
    grid = chart.grid(5)

    def fails(x1, x2):
        try:
            eval(entry, {"sin": math.sin}, {"x1": x1, "x2": x2})
        except ZeroDivisionError:
            return True
        return False

    first = next(p for p in grid if fails(*p))
    jets, batches = chart._jets, []

    def spy(points, order):
        batches.append(len(points))
        return jets(points, order)

    chart._jets = spy
    with pytest.raises(ChartError, match=re.escape(f"is not finite at {first}")):
        chart.validate_invertible(5)
    assert len(batches) == 1


def _counted_x1(calls: list) -> NumericScalar:
    """The coordinate x1 of a 2-dimensional chart, as a leaf that records
    the order of each evaluation."""
    def fn(points, key, order):
        calls.append(order)
        out = jet_constant(points[:, 0], 2, order, len(points))
        if order:
            out[1] = 1.0
        return out

    return NumericScalar(fn, 2, frozenset({0}))


def test_a_node_read_by_one_node_keeps_no_jet():
    x, y = NumericScalar.var(2, 0), NumericScalar.var(2, 1)
    once = x * y  # read by the exp node only
    shared = x + y  # read twice by one product
    root = once.call("exp") + shared * shared
    assert (x.readers, once.readers, shared.readers, root.readers) == (2, 1, 2, 0)
    a = np.array([[0.1, 0.2], [0.3, -0.4]])
    b = np.array([[0.5, 0.6]])
    for batch in (a, b, a):
        want = [math.exp(p * q) + (p + q) ** 2 for p, q in batch.tolist()]
        assert close(root.values(batch).tolist(), want)
    assert len(once._cache) == 0
    assert len(shared._cache) == len(x._cache) == len(root._cache) == 2
    # a node that gains a second reader caches from then on
    twice = once.scale(3)
    assert once.readers == 2
    root.values(b)
    twice.values(b)
    assert len(once._cache) == 1


def test_a_chain_of_single_readers_is_computed_once_per_batch_and_order():
    calls = []
    root = -_counted_x1(calls).call("sin").scale(2).diff(0).power(3)
    a = np.array([[0.1, 0.2], [0.3, -0.4]])
    b = np.array([[0.5, 0.6]])
    for batch, order in ((a, 0), (a, 0), (a, 1), (a, 0), (a, 1), (b, 1), (b, 0), (a, 2)):
        root._jet(batch, batch.tobytes(), order)
    # diff asks the leaf for one order more than the root is asked
    assert calls == [1, 2, 2, 3]
    assert len(root._cache) == 2


def _cache_at_every_node(self, points, key, order):
    """``NumericScalar._jet`` as if every node had many readers."""
    rows = math.comb(self.n + order, order)
    got = self._cache.get(key)
    if got is None or len(got) < rows:
        got = self._cache[key] = self.fn(points, key, order, *self.operands)
    return got if len(got) == rows else got[:rows]


@pytest.mark.parametrize("make", [
    lambda: get_chart("su2-euler"),
    lambda: get_chart("affine-exp2"),
    lambda: chart_from_json({"builtin": "deformed2"}, "numeric"),
    lambda: chart_from_json(SHARED_SIN)],
    ids=["su2-euler", "affine-exp2", "deformed2-numeric", "shared-sin"])
def test_the_cache_rule_changes_no_float(make, monkeypatch):
    # the same reports, with a node cached only where it is read again and
    # with every node cached; == compares the floats exactly
    def reports():
        return [report(make(), grid_points=grid) for grid in (2, 3, 5)
                for report in (identity_report, chern_simons_report)]

    got = reports()
    monkeypatch.setattr(NumericScalar, "_jet", _cache_at_every_node)
    assert got == reports()


def test_numeric_report_memory_is_bounded():
    # a forced-numeric dense3 report peaks at 1.0 MiB of traced memory; it
    # peaked at 2.4 MiB with every node cached, and at 5.0 MiB with every
    # node a lambda and cached
    chart = chart_from_json(dense_chart_document(3), "numeric")
    tracemalloc.start()
    try:
        identity_report(chart, grid_points=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("name", ["su2-euler", "affine-exp2"])
@pytest.mark.parametrize("report", [identity_report, chern_simons_report])
@pytest.mark.parametrize("grid", [2, 3, 5])
def test_a_report_computes_each_node_once_per_batch_and_order(name, report, grid, monkeypatch):
    # every form of a report is built before its first evaluation, so no
    # node gains a reader after it was computed without a cache; only a
    # frame entry that another entry reads is computed once more, by
    # FrameChart._jets (see NumericScalar)
    computed = {}
    held = []  # keeps every node alive, so that its id stays its own
    jet = NumericScalar._jet

    def spy(self, points, key, order):
        got = self._cache.get(key) if self.readers != 1 else None
        if got is None or len(got) < math.comb(self.n + order, order):
            held.append(self)
            computed[id(self), key, order] = computed.get((id(self), key, order), 0) + 1
        return jet(self, points, key, order)

    monkeypatch.setattr(NumericScalar, "_jet", spy)
    chart = get_chart(name)
    report(chart, grid_points=grid)
    entries = {id(e) for row in chart.entries for e in row}
    repeats = {node: times for (node, _, _), times in computed.items() if times > 1}
    assert set(repeats) <= entries
    assert all(times == 2 for times in repeats.values())
