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
a scalar algebra: exact RationalFuncs, or numeric closures of a batch of
points and an order, which give the entry's Taylor jet there, where each
distinct sin/cos/exp call of a frame is composed once per batch and order
for all of the frame's entries.  A numeric chart also records
which variables each entry reads.  Entries that stay inside the
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
from .frames import ChartError, FrameChart, check_dim, jet_constant, jet_mul
from .literals import parse_int, parse_rational, read_json
from .rational import RationalFunc

# a function's derivatives g, g', g'', ... repeat in a cycle of numpy
# functions with signs
_NUMERIC_FUNCS = {"sin": (("sin", 1), ("cos", 1), ("sin", -1), ("cos", -1)),
                  "cos": (("cos", 1), ("sin", -1), ("cos", -1), ("sin", 1)),
                  "exp": (("exp", 1),)}
_BINARY_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv}
_VAR_RE = re.compile(r"^x([1-9]\d*)$")
# an exact power costs |exponent| multiplications
MAX_EXPONENT = 64
# and an exact product of two factors up to MAX_TERMS**2 coefficient products
MAX_TERMS = 256
# the interpreter recurses once per level of an entry's syntax tree, and a
# numeric entry's closures once (twice at a call, and the parser allows
# fewer than 200 nested parentheses); both stay far below Python's
# recursion limit of 1000
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
    """Entries as closures ``(x, order) -> jet`` of a batch x of points, an
    (m, n) float array: the entry's Taylor coefficients up to ``order`` at
    each point (``frames.jet_monomials``).  + and - act on whole jets, * is
    the truncated product (``frames.jet_mul``), and a quotient multiplies
    by the series of t^-1.  A power composes with the series of t^p, and
    sin/cos/exp with their derivative cycles, by

        g(a) = sum_k g^(k)(a_0)/k! (a - a_0)^k.

    Values come from numpy's float operations; a zero divisor raises
    ZeroDivisionError, as it does for floats.

    One instance serves the entries of one frame: a call that occurs again,
    in the same entry or another, is the same closure, which keeps its jet
    for the last batch and order it was given."""

    def __init__(self, n: int):
        self.n = n
        self._calls = {}  # ast.dump of a call -> its closure

    @staticmethod
    def const(n: int, value):
        try:
            value = float(value)
        except OverflowError:
            raise ChartError("an integer literal overflows a float: "
                             "numbers must be finite") from None
        return lambda x, order: jet_constant(value, n, order, len(x))

    @staticmethod
    def var(n: int, idx: int):
        def jet(x, order):  # the value, and a 1 in the row of x_idx
            out = jet_constant(x[:, idx], n, order, len(x))
            if order:
                out[1 + idx] = 1.0
            return out

        return jet

    def apply(self, op, *args):
        if len(args) == 1:
            (a,) = args
            return lambda x, order: op(a(x, order))
        a, b = args
        n = self.n
        if op is operator.mul:
            return lambda x, order: jet_mul(a(x, order), b(x, order), n, order)
        if op is operator.truediv:
            return lambda x, order: jet_mul(a(x, order), self._power(b(x, order), -1, order),
                                            n, order)
        return lambda x, order: op(a(x, order), b(x, order))

    def power(self, base, exp: int):
        return lambda x, order: self._power(base(x, order), exp, order)

    def _power(self, t, exp: int, order: int):
        """t^p for p = ``exp``: the k-th coefficient is binomial(p, k) t^(p - k),
        and 0 past k = p >= 0, even where t^(p - k) is not finite."""
        if exp < 0 and (t[0] == 0).any():
            raise ZeroDivisionError("float division by zero")
        coeffs, c = [], 1.0
        for k in range(order + 1 if exp < 0 else min(order, exp) + 1):
            coeffs.append(c * t[0] ** (exp - k))
            c = c * (exp - k) / (k + 1)
        return self._compose(t, coeffs, order)

    def call(self, node: ast.Call, arg):
        key = ast.dump(node)
        got = self._calls.get(key)
        if got is None:
            cycle = _NUMERIC_FUNCS[node.func.id]

            def composed(x, order):
                import numpy as np

                a = arg(x, order)
                values = {name: getattr(np, name)(a[0]) for name in dict(cycle[:order + 1])}
                coeffs = [sign / math.factorial(k) * values[name]
                          for k, (name, sign) in zip(range(order + 1), cycle * (order + 1))]
                return self._compose(a, coeffs, order)

            got = self._calls[key] = _on_last_batch(composed)
        return got

    def _compose(self, a, coeffs, order: int):
        """sum_k coeffs[k] (a - a_0)^k, truncated at ``order``, by Horner's
        rule: g(a) from g's Taylor coefficients at a_0 (0 past the list)."""
        u = a - jet_constant(a[0], self.n, order, a.shape[1])
        out = jet_constant(coeffs[-1], self.n, order, a.shape[1])
        for c in reversed(coeffs[:-1]):
            out = jet_mul(u, out, self.n, order)
            out[0] += c
        return out


def _on_last_batch(fn):
    """``fn`` remembering its value on the last batch object and order it
    was given.  The entries of a frame are evaluated on one batch object at
    one order, and nothing writes to a batch after it is evaluated; holding
    the batch keeps its id from being reused by another."""
    batch = order = value = None

    def at(x, o):
        nonlocal batch, order, value
        if x is not batch or o != order:
            value = fn(x, o)
            batch, order = x, o
        return value

    return at


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
        if not (isinstance(node.func, ast.Name) and node.func.id in _NUMERIC_FUNCS):
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


def _variables(tree: ast.Expression) -> frozenset:
    """The index r, counted from 0, of each variable x(r+1) that occurs in
    an entry's syntax tree (which ``_interpret`` has checked)."""
    return frozenset(int(m.group(1)) - 1 for node in ast.walk(tree)
                     if isinstance(node, ast.Name) and (m := _VAR_RE.match(node.id)))


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
            return FrameChart(name, n, domain, entries=entries)
        except _NeedsNumeric:
            if backend == "exact":
                raise ChartError(f"chart '{name}' has no exact form") from None
            # fall through to numeric

    import numpy as np

    algebra = _NumericAlgebra(n)
    trees = [[_parse(str(e)) for e in row] for row in frame]
    fns = [[_interpret(tree, n, algebra) for tree in row] for row in trees]

    def jets(points: np.ndarray, order: int) -> np.ndarray:
        out = np.empty((math.comb(n + order, order), len(points), n, n))
        with np.errstate(all="ignore"):  # overflow gives inf, as in Python floats
            for i in range(n):
                for a in range(n):
                    out[:, :, i, a] = fns[i][a](points, order)
        return out

    reads = [[_variables(tree) for tree in row] for row in trees]
    return FrameChart(name, n, domain, jets=jets, reads=reads)


def load_chart_file(path: str, backend: str | None = None) -> FrameChart:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ChartError("chart document must be a JSON object")
    return chart_from_json(doc, backend)
