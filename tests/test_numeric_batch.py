"""The batched numeric backend against a point-by-point reference.

The reference below evaluates one point at a time, as the numeric backend
did before it worked on batches: a scalar node caches its values per
point, a derivative is a five-point stencil around one point, and the
connection is d_j e . e^-1 built from the frame at one point.  Both take
the same zero short cuts on the same read sets: a derivative along a
coordinate that a field does not read is the zero, and so is d_j e^i_a
where entry (i, a) does not read x_j.  Every value the batched backend
computes must equal the reference bit for bit (compared with
``float.hex``): the batch applies the same float operations in the same
order, only to many points at once.

The golden files leave numeric charts out, because their last bits depend
on the platform's libm; this file is the in-suite gate for them.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Dict, Tuple

import numpy as np
import pytest

import flatcheck.charts_io as charts_io
import flatcheck.forms as forms_mod
import flatcheck.frames as frames_mod
from flatcheck.catalog import get_chart
from flatcheck.charts_io import chart_from_json
from flatcheck.forms import identity_report
from flatcheck.frames import (
    FD_STEP,
    FD_STEP2,
    ConnectionField,
    FrameChart,
    NumericScalar,
    curvature_components,
    gamma_from_frame,
)


class PointScalar:
    """A float field evaluated one point at a time, with a per-point cache.
    Its literal zero, read sets and zero short cuts are those of
    ``NumericScalar``."""

    def __init__(self, fn: Callable[[Tuple[float, ...]], float], n: int, depth: int = 0,
                 reads: frozenset | None = None):
        self.fn = fn
        self.n = n
        self.depth = depth
        self.reads = frozenset(range(n)) if reads is None else reads
        self._cache: Dict[Tuple[float, ...], float] = {}

    @staticmethod
    def const(n: int, value: float) -> PointScalar:
        v = float(value)
        return PointScalar(_point_zero if v == 0 else lambda x: v, n, reads=frozenset())

    def is_zero(self) -> bool:
        return self.fn is _point_zero

    def _binary(self, other, op):
        return PointScalar(lambda x: op(self.eval_float(x), other.eval_float(x)), self.n,
                           max(self.depth, other.depth), self.reads | other.reads)

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        if other.is_zero():
            return self
        if self.is_zero():
            return other.scale(-1)
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other):
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        return self._binary(other, lambda a, b: a * b)

    def scale(self, value):
        v = float(value)
        if self.is_zero():
            return self
        if v == 0:
            return PointScalar.const(self.n, 0)
        return PointScalar(lambda x: v * self.eval_float(x), self.n, self.depth, self.reads)

    def diff(self, r: int):
        if r not in self.reads:
            return PointScalar.const(self.n, 0)
        h = FD_STEP if self.depth == 0 else FD_STEP2

        def deriv(x):
            def shifted(t):
                y = list(x)
                y[r] += t
                return self.eval_float(tuple(y))
            return (-shifted(2 * h) + 8 * shifted(h)
                    - 8 * shifted(-h) + shifted(-2 * h)) / (12 * h)

        return PointScalar(deriv, self.n, self.depth + 1, self.reads)

    def eval_float(self, point) -> float:
        key = tuple(float(x) for x in point)
        got = self._cache.get(key)
        if got is None:
            got = self.fn(key)
            self._cache[key] = got
        return got

    def values(self, points) -> list:
        return [self.eval_float(p) for p in points]


def _point_zero(x):
    return 0.0


def point_gamma(frame: Callable[[Tuple[float, ...]], np.ndarray], n: int,
                reads) -> ConnectionField:
    """Gamma^i_{jk} = sum_a d_j e^i_a . (e^-1)^a_k, one point at a time.
    d_j e^i_a is 0.0 where ``reads[i][a]`` lacks j, and Gamma^i_{jk} is the
    zero where every entry of row i does."""
    h = FD_STEP
    memo: Dict[Tuple[float, ...], np.ndarray] = {}

    def tensor(x):
        got = memo.get(x)
        if got is None:
            de = np.empty((n, n, n))
            for j in range(n):
                def e_at(t):
                    y = list(x)
                    y[j] += t
                    return frame(tuple(y))
                de[j] = (-e_at(2 * h) + 8 * e_at(h) - 8 * e_at(-h) + e_at(-2 * h)) / (12 * h)
                for i in range(n):
                    for a in range(n):
                        if j not in reads[i][a]:
                            de[j, i, a] = 0.0
            got = memo[x] = np.einsum("jia,ak->ijk", de, np.linalg.inv(frame(x)))
        return got

    every = frozenset().union(*(s for row in reads for s in row))
    zero = PointScalar.const(n, 0)

    def entry(i, j, k):
        if all(j not in s for s in reads[i]):
            return zero
        return PointScalar(lambda x: float(tensor(x)[i, j, k]), n, 1, every)

    gamma = [[[entry(i, j, k) for k in range(n)] for j in range(n)] for i in range(n)]
    return ConnectionField(n, zero, gamma)


def expression_frame(doc: dict) -> Callable[[Tuple[float, ...]], np.ndarray]:
    """A chart document's frame by Python's own float arithmetic and math."""
    n = doc["n"]
    code = [[compile(ast.parse(e.replace("^", "**"), mode="eval"), "<entry>", "eval")
             for e in row] for row in doc["frame"]]
    env = {"sin": math.sin, "cos": math.cos, "exp": math.exp}

    def frame(x):
        names = {f"x{t + 1}": x[t] for t in range(n)}
        return np.array([[float(eval(c, env, names)) for c in row] for row in code])

    return frame


def one_row_frame(chart) -> Callable[[Tuple[float, ...]], np.ndarray]:
    """A builtin's Python point evaluator, called on one point."""
    return lambda x: chart.frames_at(np.array([x]))[0]


def exact_frame(name: str) -> Callable[[Tuple[float, ...]], np.ndarray]:
    entries = get_chart(name).entries
    return lambda x: np.array([[f.eval_float(x) for f in row] for row in entries])


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
    "su2-euler": (lambda: get_chart("su2-euler"), None, 3),
    "affine-exp2": (lambda: get_chart("affine-exp2"), None, 5),
    "deformed2-numeric": (lambda: chart_from_json({"builtin": "deformed2"}, "numeric"),
                          exact_frame("deformed2"), 5),
    "su2-rescaled": (lambda: chart_from_json(SU2_RESCALED), expression_frame(SU2_RESCALED), 3),
}


def _hexes(values):
    return [float(v).hex() for v in values]


@pytest.fixture(params=sorted(CASES))
def case(request):
    make, frame, grid = CASES[request.param]
    chart = make()
    assert chart.backend == "numeric"
    return chart, frame or one_row_frame(chart), grid


def test_gamma_and_curvature_match_point_by_point(case):
    chart, frame, grid_points = case
    grid = chart.grid(grid_points)
    batch = gamma_from_frame(chart)
    point = point_gamma(frame, chart.n, chart.reads)
    n = chart.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert (_hexes(batch.comp(i, j, k).values(grid))
                        == _hexes(point.comp(i, j, k).eval_float(p) for p in grid)), (i, j, k)
    r_batch = curvature_components(batch)
    r_point = curvature_components(point)
    for key, field in r_batch.items():
        assert _hexes(field.values(grid)) == _hexes(r_point[key].eval_float(p) for p in grid), key


def test_report_matches_point_by_point(case, monkeypatch):
    chart, frame, grid_points = case
    batched = identity_report(chart, grid_points=grid_points)
    monkeypatch.setattr(forms_mod, "gamma_from_frame", lambda c: point_gamma(frame, c.n, c.reads))
    reference = identity_report(chart, grid_points=grid_points)
    assert {k: v.hex() for k, v in batched["residuals"].items()} == \
        {k: v.hex() for k, v in reference["residuals"].items()}
    assert batched["max_R"].hex() == reference["max_R"].hex()
    assert batched["locally_homogeneous"] == reference["locally_homogeneous"]


def test_cache_keeps_each_batch_apart():
    # one node on two batches and on a row permutation of the first: each
    # batch gets its own values, and a repeated batch is a cache hit
    def fn(p):
        return math.sin(p[0]) + p[0] * p[1] ** 2

    def tree(f):
        return f.diff(0) * f + f.diff(1).diff(0)

    node, point = (tree(NumericScalar(lambda p, key: np.array([fn(q) for q in p.tolist()]), 2)),
                   tree(PointScalar(fn, 2)))
    a = np.array([[0.1, 0.2], [0.3, -0.4], [0.5, 0.6]])
    b = np.array([[-0.7, 0.8], [0.9, 0.1]])
    for batch in (a, b, a[[2, 0, 1]], a, b):
        assert _hexes(node.values(batch)) == _hexes(point.eval_float(p) for p in batch)
    assert len(node._cache) == 3


def test_a_stack_evaluates_only_its_uncached_blocks():
    # blocks a and b are cached; a stack of b, c, a, c, d asks fn once, for
    # c and d, and returns every row in the order asked
    def fn(p):
        return math.exp(p[0]) * p[1] - p[1] ** 3

    calls = []

    def batch(p, keys):
        calls.append((p.copy(), keys))
        return np.array([fn(q) for q in p.tolist()])

    node = NumericScalar(batch, 2)
    a, b, c, d = (np.array([[0.1 * s, 0.2], [0.3, -0.4 * s]]) for s in (1, 2, 3, 4))
    node.values(a)
    node.values(b)
    calls.clear()
    blocks = [b, c, a, c, d]
    stack = np.concatenate(blocks)
    got = node._values(stack, tuple(block.tobytes() for block in blocks))
    assert len(calls) == 1
    rows, keys = calls[0]
    assert rows.tobytes() == np.concatenate([c, d]).tobytes()
    assert keys == (c.tobytes(), d.tobytes())
    point = PointScalar(fn, 2)
    assert _hexes(got) == _hexes(point.eval_float(p) for p in stack)
    assert len(node._cache) == 4


def test_a_report_stacks_its_frame_samples(monkeypatch):
    # the nested stencils of su2-euler at grid 3 call the frame on a few
    # stacks, not once per stencil sample (793 calls of 27 rows), and share
    # their blocks, so no row is evaluated twice (21,411 rows)
    calls = rows = 0
    frames_at = FrameChart.frames_at

    def counted(self, points):
        nonlocal calls, rows
        calls += 1
        rows += len(points)
        return frames_at(self, points)

    monkeypatch.setattr(FrameChart, "frames_at", counted)
    identity_report(chart_from_json({"builtin": "su2-euler"}), grid_points=3)
    assert calls <= 40
    assert rows <= 21411


def test_split_stacks_give_the_same_bits_and_rows(monkeypatch):
    # with STACK_ROWS below one stencil of a block, every nested stencil and
    # every frame call is split; the report stays bit for bit the same (and
    # so equal to the point-by-point reference above), and no block is
    # evaluated twice
    rows = []
    frames_at = FrameChart.frames_at
    monkeypatch.setattr(FrameChart, "frames_at",
                        lambda self, points: rows.append(len(points)) or frames_at(self, points))

    def report():
        out = identity_report(get_chart("su2-euler"), grid_points=3)
        return {k: v.hex() for k, v in out["residuals"].items()}, out["max_R"].hex()

    whole, whole_rows = report(), sum(rows)
    rows.clear()
    monkeypatch.setattr(frames_mod, "STACK_ROWS", 64)
    assert report() == whole
    assert max(rows) <= 64 and sum(rows) == whole_rows


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
    # sin(x2) occurs five times in the frame and is computed once per point
    calls = []

    def counted_sin(x):
        calls.append(x)
        return math.sin(x)

    monkeypatch.setattr(charts_io, "_NUMERIC_FUNCS", dict(charts_io._NUMERIC_FUNCS, sin=counted_sin))
    chart = chart_from_json(SHARED_SIN)
    reference = expression_frame(SHARED_SIN)
    a = np.array(chart.grid(3))
    b = a[:4] + 0.01
    expected_calls = 0
    for batch in (a, b, a):
        frames = chart.frames_at(batch)
        expected_calls += len(batch)
        assert len(calls) == expected_calls
        for p, e in zip(batch.tolist(), frames):
            assert _hexes(e.ravel()) == _hexes(reference(tuple(p)).ravel())
