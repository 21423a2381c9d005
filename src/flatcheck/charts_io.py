"""Loading and saving chart documents.

A chart document is either {"builtin": name}, which stands for the
catalog's document of that chart, or

    { "name": str, "n": int, "domain": [[lo, hi], ...],
      "frame": [[expr, ...], ...] }

with entries written in one expression grammar for both backends:
variables x1..xn, integer and decimal literals, + - * /, powers (** or ^)
whose exponent is an integer literal of absolute value at most
MAX_EXPONENT, and sin/cos/exp of one argument.  An entry nests at most
MAX_DEPTH levels.  On the exact backend no numerator or denominator factor
may grow past MAX_TERMS terms, checked as each product is formed.  Domain
bounds are rational literals ("3/4", "0.25", 1) of at most
``sys.get_int_max_str_digits()`` digits (``literals.parse_rational``).

One interpreter walks the syntax tree of an entry and builds its value in
a scalar algebra: an exact RationalFunc, or a ``frames.NumericScalar``,
the field type of the numeric calculus, which gives the entry's Taylor
jet on a batch of points and knows which variables the entry reads.  Each
distinct sin/cos/exp call of a frame is one field, whose jet on a batch
is computed once for all of the frame's entries.  Entries that stay inside the
rational fragment parse onto the exact backend; sin/cos/exp force the
numeric backend.  The FLATCHECK_BACKEND environment variable (exact |
numeric | auto) overrides the choice, where "exact" refuses charts that
need transcendentals.
"""

from __future__ import annotations

import ast
import math
import operator
import os
import re
from fractions import Fraction

from .catalog import chart_document
from .frames import NUMERIC_FUNCS, ChartError, FrameChart, NumericScalar, check_dim
from .literals import parse_int, parse_rational, read_json
from .rational import RationalFunc

_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv}
_VAR_RE = re.compile(r"^x([1-9]\d*)$")
# an exact power costs |exponent| multiplications
MAX_EXPONENT = 64
# and an exact product of two factors up to MAX_TERMS**2 coefficient products
MAX_TERMS = 256
# the interpreter recurses once per level of an entry's syntax tree, and a
# numeric entry's evaluation twice per level (a field's ``_jet`` and its
# operation); the parser allows fewer than 200 nested parentheses, and a
# report on an entry MAX_DEPTH deep needs a recursion limit of at least
# 825, 824 and 824 with 0, 150 and 199 nested calls, below Python's
# default of 1000
MAX_DEPTH = 400


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
        if any(len(p.terms) > MAX_TERMS for p in (f.num, *f.den)):
            raise ChartError(f"an exact entry has a factor of more than {MAX_TERMS} terms")
        return f

    @staticmethod
    def power(base: RationalFunc, exp: int) -> RationalFunc:
        out = RationalFunc.const(base.n, 1)
        for _ in range(abs(exp)):
            out = _ExactAlgebra.apply(operator.mul, out, base)
        return out.inverse() if exp < 0 else out

    @staticmethod
    def call(node: ast.Call, arg):
        raise _NeedsNumeric


class _NumericAlgebra:
    """Entries as ``NumericScalar``s (see ``frames.NumericScalar``).  A
    literal is a constant field that is not the calculus's literal zero,
    which would let a product or a sum drop an operand that the entry
    evaluates: ``2 + 0/x1`` is not finite where x1 = 0.

    One instance serves the entries of one frame, and builds each node
    once: a node is keyed by its operation and the ids of its operand
    nodes (a literal by its value, a variable by its index), so a
    subexpression that occurs again, in the same entry or another, is the
    same field, which keeps its jet per batch.  The operands are values
    of the memo, so their ids stay theirs."""

    def __init__(self):
        self._nodes = {}  # (operation, operands) -> its field

    def _node(self, key, build) -> NumericScalar:
        got = self._nodes.get(key)
        if got is None:
            got = self._nodes[key] = build()
        return got

    def const(self, n: int, value) -> NumericScalar:
        try:
            value = float(value)
        except OverflowError:
            raise ChartError("an integer literal overflows a float: "
                             "numbers must be finite") from None
        return self._node(("const", value), lambda: NumericScalar.literal(n, value))

    def var(self, n: int, idx: int) -> NumericScalar:
        return self._node(("var", idx), lambda: NumericScalar.var(n, idx))

    def apply(self, op, *args) -> NumericScalar:
        return self._node((op, *map(id, args)), lambda: op(*args))

    def power(self, base: NumericScalar, exp: int) -> NumericScalar:
        return self._node(("power", id(base), exp), lambda: base.power(exp))

    def call(self, node: ast.Call, arg: NumericScalar) -> NumericScalar:
        name = node.func.id
        return self._node((name, id(arg)), lambda: arg.call(name))


def _interpret(node, n: int, algebra, depth: int = 1):
    """Walk an entry's syntax tree, checking the grammar and building its
    value in ``algebra``."""
    if depth > MAX_DEPTH:
        raise ChartError(f"an entry is nested more than {MAX_DEPTH} levels deep")
    depth += 1
    if isinstance(node, ast.Expression):
        return _interpret(node.body, n, algebra, depth)
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ChartError(f"unsupported literal {node.value!r}")
        if isinstance(node.value, float) and not math.isfinite(node.value):
            raise ChartError(f"a literal overflows to {node.value!r}: numbers must be finite")
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
        val = _interpret(node.operand, n, algebra, depth)
        if isinstance(node.op, ast.USub):
            return algebra.apply(operator.neg, val)
        if isinstance(node.op, ast.UAdd):
            return val
        raise ChartError("unsupported unary operator")
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            base = _interpret(node.left, n, algebra, depth)
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
        return algebra.apply(op, _interpret(node.left, n, algebra, depth),
                             _interpret(node.right, n, algebra, depth))
    if isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in NUMERIC_FUNCS):
            raise ChartError("only sin, cos, exp calls are allowed")
        if len(node.args) != 1 or node.keywords:
            raise ChartError("transcendental calls take exactly one argument")
        return algebra.call(node, _interpret(node.args[0], n, algebra, depth))
    raise ChartError(f"unsupported syntax: {type(node).__name__}")


def _parse(src: str) -> ast.Expression:
    try:
        return ast.parse(src.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise ChartError(f"cannot parse expression {src!r}: {exc.msg} (offset {exc.offset})") from None
    except (RecursionError, MemoryError):  # the parser's own nesting limits
        raise ChartError(f"an entry is nested more than {MAX_DEPTH} levels deep") from None


def parse_exact_expr(src: str, n: int) -> RationalFunc:
    try:
        return _interpret(_parse(src), n, _ExactAlgebra)
    except ZeroDivisionError:
        raise ChartError(f"expression {src!r} divides by zero") from None


def _is_list(value, length: int) -> bool:
    """A JSON array of ``length`` items; a string is not one."""
    return isinstance(value, list) and len(value) == length


def chart_from_json(doc: dict, backend: str | None = None) -> FrameChart:
    """Build a FrameChart from a chart document.

    ``backend`` of None consults FLATCHECK_BACKEND (default auto: exact
    when every entry is a rational function).
    """
    if backend is None:
        backend = os.environ.get("FLATCHECK_BACKEND", "auto")
    if backend not in ("exact", "numeric", "auto"):
        raise ChartError(f"unknown backend '{backend}' (exact | numeric | auto)")

    if "builtin" in doc:
        doc = chart_document(str(doc["builtin"]))
    try:
        name = str(doc["name"])
        n = parse_int(doc["n"], "n")
        domain, frame = doc["domain"], doc["frame"]
        if not (isinstance(domain, list) and all(_is_list(b, 2) for b in domain)):
            raise TypeError("'domain' must be a list of [lo, hi] pairs")
        domain = [(parse_rational(str(lo)), parse_rational(str(hi))) for lo, hi in domain]
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise ChartError(f"malformed chart document (field: {exc})") from None
    check_dim(n)
    if not (_is_list(frame, n) and all(_is_list(row, n) for row in frame)):
        raise ChartError(f"chart 'frame' must be an {n}x{n} array of expressions")

    if backend in ("exact", "auto"):
        try:
            entries = [[parse_exact_expr(str(e), n) for e in row] for row in frame]
            return FrameChart(name, n, domain, entries)
        except _NeedsNumeric:
            if backend == "exact":
                raise ChartError(f"chart '{name}' has no exact form") from None
            # fall through to numeric

    algebra = _NumericAlgebra()
    entries = [[_interpret(_parse(str(e)), n, algebra) for e in row] for row in frame]
    return FrameChart(name, n, domain, entries)


def load_chart_file(path: str) -> FrameChart:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ChartError("chart document must be a JSON object")
    return chart_from_json(doc)
