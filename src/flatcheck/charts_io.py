"""Loading and saving chart documents.

A chart document is either {"builtin": name} or

    { "name": str, "n": int, "domain": [[lo, hi], ...],
      "frame": [[expr, ...], ...] }

with entries written in one expression grammar for both backends:
variables x1..xn, integer and decimal literals, + - * /, powers (** or ^)
whose exponent is an integer literal of absolute value at most
MAX_EXPONENT, and sin/cos/exp of one argument.  On the exact backend no
numerator or denominator factor may grow past MAX_TERMS terms, checked as
each product is formed.

One interpreter walks the syntax tree of an entry and builds its value in
a scalar algebra: exact RationalFuncs, or numeric closures of the point.
Entries that stay inside the rational fragment parse onto the exact
backend; sin/cos/exp force the numeric backend.  The FLATCHECK_BACKEND
environment variable (exact | numeric | auto) overrides the choice, where
"exact" refuses charts that need transcendentals.
"""

from __future__ import annotations

import ast
import json
import math
import operator
import os
import re
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .frames import ChartError, FrameChart
from .rational import RationalFunc

_NUMERIC_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}
_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv}
_VAR_RE = re.compile(r"^x([1-9]\d*)$")
# an exact power costs |exponent| multiplications
MAX_EXPONENT = 64
# and an exact product of two factors up to MAX_TERMS**2 coefficient products
MAX_TERMS = 256


class _NeedsNumeric(Exception):
    pass


class _ExactAlgebra:
    """Entries as exact RationalFuncs; a transcendental call cannot be
    represented and raises ``_NeedsNumeric``."""

    @staticmethod
    def const(n: int, value) -> RationalFunc:
        return RationalFunc.const(n, Fraction(str(value)) if isinstance(value, float) else value)

    @staticmethod
    def var(n: int, idx: int) -> RationalFunc:
        return RationalFunc.var(n, idx)

    @staticmethod
    def apply(op, *args) -> RationalFunc:
        f = op(*args)
        if any(len(p.coeffs) > MAX_TERMS for p in (f.num, *f.den)):
            raise ChartError(f"an exact entry has a factor of more than {MAX_TERMS} terms")
        return f

    @staticmethod
    def power(base: RationalFunc, exp: int) -> RationalFunc:
        out = RationalFunc.const(base.n, 1)
        for _ in range(abs(exp)):
            out = _ExactAlgebra.apply(operator.mul, out, base)
        return out.inverse() if exp < 0 else out

    @staticmethod
    def call(name: str, arg):
        raise _NeedsNumeric(name)


class _NumericAlgebra:
    """Entries as closures of the point, built once per entry."""

    @staticmethod
    def const(n: int, value):
        return lambda x: value

    @staticmethod
    def var(n: int, idx: int):
        return lambda x: float(x[idx])

    @staticmethod
    def apply(op, *args):
        if len(args) == 1:
            (a,) = args
            return lambda x: op(a(x))
        a, b = args
        return lambda x: op(a(x), b(x))

    @staticmethod
    def power(base, exp: int):
        return _NumericAlgebra.apply(lambda b: b ** exp, base)

    @staticmethod
    def call(name: str, arg):
        return _NumericAlgebra.apply(_NUMERIC_FUNCS[name], arg)


def _interpret(node, n: int, algebra):
    """Walk an entry's syntax tree, checking the grammar and building its
    value in ``algebra``."""
    if isinstance(node, ast.Expression):
        return _interpret(node.body, n, algebra)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ChartError(f"unsupported literal {node.value!r}")
        return algebra.const(n, node.value)
    if isinstance(node, ast.Name):
        m = _VAR_RE.match(node.id)
        if not m:
            raise ChartError(f"unknown symbol '{node.id}' (variables are x1..x{n})")
        idx = int(m.group(1)) - 1
        if idx >= n:
            raise ChartError(f"variable {node.id} out of range for n={n}")
        return algebra.var(n, idx)
    if isinstance(node, ast.UnaryOp):
        val = _interpret(node.operand, n, algebra)
        if isinstance(node.op, ast.USub):
            return algebra.apply(operator.neg, val)
        if isinstance(node.op, ast.UAdd):
            return val
        raise ChartError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            base = _interpret(node.left, n, algebra)
            sign, lit = 1, node.right
            if isinstance(lit, ast.UnaryOp) and isinstance(lit.op, (ast.UAdd, ast.USub)):
                sign, lit = (-1 if isinstance(lit.op, ast.USub) else 1), lit.operand
            if not (isinstance(lit, ast.Constant) and type(lit.value) is int):
                raise ChartError("exponents must be integer literals")
            exp = sign * lit.value
            if abs(exp) > MAX_EXPONENT:
                raise ChartError(f"exponent {exp} exceeds the limit of {MAX_EXPONENT}")
            return algebra.power(base, exp)
        op = _BINARY_OPS.get(type(node.op))
        if op is None:
            raise ChartError("unsupported binary operator")
        return algebra.apply(op, _interpret(node.left, n, algebra),
                             _interpret(node.right, n, algebra))
    if isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _NUMERIC_FUNCS):
            raise ChartError("only sin, cos, exp calls are allowed")
        if len(node.args) != 1 or node.keywords:
            raise ChartError("transcendental calls take exactly one argument")
        return algebra.call(node.func.id, _interpret(node.args[0], n, algebra))
    raise ChartError(f"unsupported syntax: {type(node).__name__}")


def _parse(src: str) -> ast.Expression:
    try:
        return ast.parse(src.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ChartError(f"cannot parse expression {src!r}: {exc.msg} (offset {exc.offset})") from None


def parse_exact_expr(src: str, n: int) -> RationalFunc:
    try:
        return _interpret(_parse(src), n, _ExactAlgebra)
    except ZeroDivisionError:
        raise ChartError(f"expression {src!r} divides by zero") from None


def parse_numeric_expr(src: str, n: int) -> Callable[[Sequence[float]], float]:
    fn = _interpret(_parse(src), n, _NumericAlgebra)
    return lambda point: float(fn(point))


def _parse_bound(v) -> Fraction:
    if isinstance(v, str):
        return Fraction(v)
    return Fraction(str(v)) if isinstance(v, float) else Fraction(v)


def chart_from_json(doc: dict, backend: str | None = None) -> FrameChart:
    """Build a FrameChart from a chart document.

    ``backend`` of None consults FLATCHECK_BACKEND (default auto: exact
    when every entry is a rational function).
    """
    from .catalog import get_chart  # circular at module load otherwise

    if backend is None:
        backend = os.environ.get("FLATCHECK_BACKEND", "auto")
    if backend not in ("exact", "numeric", "auto"):
        raise ChartError(f"unknown backend '{backend}' (exact | numeric | auto)")

    if "builtin" in doc:
        chart = get_chart(str(doc["builtin"]))
        if backend == "exact" and chart.backend != "exact":
            raise ChartError(f"chart '{chart.name}' has no exact form")
        if backend == "numeric" and chart.backend == "exact":
            return _exact_to_numeric(chart)
        return chart

    try:
        name = str(doc["name"])
        n = int(doc["n"])
        domain = [( _parse_bound(lo), _parse_bound(hi)) for lo, hi in doc["domain"]]
        frame = doc["frame"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ChartError(f"malformed chart document (field: {exc})") from None
    if len(frame) != n or any(len(row) != n for row in frame):
        raise ChartError(f"chart 'frame' must be an {n}x{n} array of expressions")

    if backend in ("exact", "auto"):
        try:
            entries = [[parse_exact_expr(str(e), n) for e in row] for row in frame]
            return FrameChart(name, n, domain, entries=entries)
        except _NeedsNumeric as exc:
            if backend == "exact":
                raise ChartError(
                    f"entry uses '{exc.args[0]}', which the exact backend cannot represent")
            # fall through to numeric

    fns = [[parse_numeric_expr(str(e), n) for e in row] for row in frame]

    def evaluator(point):
        return np.array([[fns[i][a](point) for a in range(n)] for i in range(n)])

    return FrameChart(name, n, domain, evaluator=evaluator)


def _exact_to_numeric(chart: FrameChart) -> FrameChart:
    entries = chart.entries

    def evaluator(point):
        return np.array([[entries[i][a].eval_float(point) for a in range(chart.n)]
                         for i in range(chart.n)])

    return FrameChart(chart.name, chart.n, chart.domain, evaluator=evaluator)


def load_chart_file(path: str, backend: str | None = None) -> FrameChart:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ChartError(f"cannot read chart file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ChartError(f"chart file is not valid JSON: line {exc.lineno}, column {exc.colno}") from None
    if not isinstance(doc, dict):
        raise ChartError("chart document must be a JSON object")
    return chart_from_json(doc, backend)
