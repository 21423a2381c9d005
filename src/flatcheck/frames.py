"""Parallelism charts and their pointwise geometry.

A frame chart is an invertible matrix field e(x) on a box; it encodes the
two-point splitting e(y) e(x)^-1, whose y-derivative on the diagonal is
the connection

    Gamma^i_{jk}(x) = sum_a d_j e^i_a(x) . (e(x)^-1)^a_k,

with j the derivative slot and k the frame slot.  From Gamma come the
torsion, the covariant derivative, and the curvature.  Applied to Gamma
itself the curvature is "flat": it vanishes identically for every
frame-derived connection, and that vanishing pins the index conventions
above.  The same formula applied to the opposite connection Gamma^i_{kj}
gives the obstruction, whose vanishing is equivalent to local homogeneity
of the chart.

Two scalar-field backends implement the same operations:

* exact  - RationalFunc components; identities are literal zeros.
* numeric - truncated Taylor series over floats, for charts with entries
  like exp or sin that have no rational form.  A numeric field is
  evaluated on a whole batch of points at once (the grid), as its jet:
  its Taylor coefficients up to the order asked, one row per monomial.
  A derivative asks its operand for one order more and shifts the
  coefficients, so every field is computed only to the order that the
  derivatives above it need, derivatives are exact up to rounding, and
  the frame is evaluated at the points of the batch and nowhere else.
  The entries of a numeric frame are numeric fields too, built by the
  chart interpreter of ``charts_io``: one field type serves the frame and
  the calculus.  A field is an operation node on its operand fields, and
  every sum, difference, product, scaling and negation is one kind of
  node, a sum of products c * a * b.  A node keeps its jet per batch only
  where it is read again: when no node, or more than one, reads it.  A
  node that one node reads is asked again only when that reader is
  computed again, for a higher order, so a cache there would only hold
  memory.  Numeric evaluation is total, as numpy's is: a value that
  cannot be computed, at a pole or past the float range, is not finite
  at its point, the same failure rule as the exact read-out's, so
  validation names the frame's first such point.

Both backends have a literal zero, and the arithmetic of both takes the
same zero short cuts; numeric negation, quotients, powers and calls take
none.  A numeric field also knows the coordinates it reads: its
derivative along any other one is the zero, and Gamma^i_{jk} is the zero
where no frame entry of row i reads x_j.  So one sparse calculus, which
forms only the products that can be nonzero, serves both.

Charts are bounded: at most ``MAX_DIM`` dimensions, and at most
``MAX_GRID_POINTS`` points on an evaluation grid.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache, partial
from itertools import combinations_with_replacement, product as iproduct, repeat
from math import comb, factorial, isinf
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from . import MAX_DIM
from .rational import Poly, RationalFunc, RationalGrid, float_of, rf_matrix_inverse

if TYPE_CHECKING:  # numpy is imported by the numeric backend only
    import numpy as np


class ChartError(ValueError):
    """Invalid frame chart: wrong shape, singular frame, bad domain."""


MAX_GRID_POINTS = 4096


def check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ChartError(f"chart dimension {n} is outside 1..{MAX_DIM}")


# --- Taylor jets ---------------------------------------------------------------

@cache
def jet_monomials(n: int, order: int) -> Tuple[Tuple[int, ...], ...]:
    """The rows of a jet of ``order`` in n variables: the exponents b of
    total degree at most ``order``, degree after degree (those of degree 1
    are x_1 .. x_n in turn).  Row b of a jet at m points holds the Taylor
    coefficient of x^b, d^b/b!, at each point, and a jet of lower order is
    a prefix of one of higher order."""
    return tuple(tuple(combo.count(r) for r in range(n))
                 for d in range(order + 1) for combo in combinations_with_replacement(range(n), d))


@cache
def _product_table(n: int, order: int):
    """(left, right, to): rows ``left[p]`` and ``right[p]`` are a pair of
    monomials whose product has total degree at most ``order``, and the 0/1
    matrix ``to`` adds each pair's product into the row of that monomial."""
    import numpy as np

    monomials = jet_monomials(n, order)
    row = {b: t for t, b in enumerate(monomials)}
    pairs = [(s, t, row[ab]) for s, a in enumerate(monomials) for t, b in enumerate(monomials)
             if (ab := tuple(map(operator.add, a, b))) in row]
    left, right, target = map(np.array, zip(*pairs))
    to = np.zeros((len(monomials), len(pairs)))
    to[target, np.arange(len(pairs))] = 1.0
    return left, right, to


@cache
def _diff_table(n: int, order: int, r: int):
    """(rows, factors): d/dx_r takes a jet of order + 1 to one of ``order``
    whose row b is row b + e_r times b_r + 1."""
    import numpy as np

    row = {b: t for t, b in enumerate(jet_monomials(n, order + 1))}
    ups = [b[:r] + (b[r] + 1,) + b[r + 1:] for b in jet_monomials(n, order)]
    return np.array([row[b] for b in ups]), np.array([b[r] for b in ups], dtype=float)


def jet_constant(value, n: int, order: int, m: int) -> np.ndarray:
    """The jet of the constant ``value`` at m points."""
    import numpy as np

    out = np.zeros((comb(n + order, order), m))
    out[0] = value
    return out


def jet_mul(a: np.ndarray, b: np.ndarray, n: int, order: int, op=operator.mul) -> np.ndarray:
    """The product of the jets ``a`` and ``b`` of ``order``, truncated there;
    ``op`` multiplies a coefficient row by another (elementwise, or by
    ``np.matmul`` or an ``einsum`` for matrices).  At order 0 it is one op."""
    if order == 0:
        return op(a, b)
    left, right, to = _product_table(n, order)
    prod = op(a.take(left, 0), b.take(right, 0))
    return (to @ prod.reshape(len(left), -1)).reshape(len(to), *prod.shape[1:])


def jet_diff(jet: np.ndarray, n: int, order: int, r: int) -> np.ndarray:
    """d/dx_r of a jet of order + 1, as a jet of ``order``."""
    rows, factors = _diff_table(n, order, r)
    return jet.take(rows, 0) * factors.reshape(-1, *[1] * (jet.ndim - 1))


def _jet_compose(a: np.ndarray, coeffs, n: int, order: int) -> np.ndarray:
    """sum_k coeffs[k] (a - a_0)^k, truncated at ``order``, by Horner's
    rule: g(a) from g's Taylor coefficients at a_0 (0 past the list)."""
    u = a - jet_constant(a[0], n, order, a.shape[1])
    out = jet_constant(coeffs[-1], n, order, a.shape[1])
    for c in reversed(coeffs[:-1]):
        out = jet_mul(u, out, n, order)
        out[0] += c
    return out


def _jet_power(t: np.ndarray, exp: int, n: int, order: int) -> np.ndarray:
    """t^p for p = ``exp``: the k-th coefficient is binomial(p, k) t^(p - k),
    and 0 past k = p >= 0, even where t^(p - k) is not finite.  Where t is
    0 and p < 0, every row is NaN: an infinite value alone would let
    1/(1/t) read 0 there, with a zero derivative."""
    coeffs, c = [], 1.0
    for k in range(order + 1 if exp < 0 else min(order, exp) + 1):
        coeffs.append(c * t[0] ** (exp - k))
        c = c * (exp - k) / (k + 1)
    out = _jet_compose(t, coeffs, n, order)
    if exp < 0:
        out[:, t[0] == 0] = float("nan")
    return out


# a function's derivatives g, g', g'', ... repeat in a cycle of numpy
# functions with signs
NUMERIC_FUNCS = {"sin": (("sin", 1), ("cos", 1), ("sin", -1), ("cos", -1)),
                 "cos": (("cos", 1), ("sin", -1), ("cos", -1), ("sin", 1)),
                 "exp": (("exp", 1),)}


class NumericScalar:
    """A float-valued field known through its truncated Taylor series.

    A field is an operation node: ``fn(points, key, order, *operands)``
    maps a batch of m points, an (m, n) float array, to the field's jet of
    that order there (``jet_monomials``); ``key`` is the batch's
    ``tobytes()``, passed on to the operand fields that ``fn`` evaluates
    on the same batch.  A leaf has no operands.  The operations are the
    module-level functions below.  One of them, ``_dot``, sums c * a * b
    over a row of (c, a, b) triples, b None standing for 1: +, -, *,
    ``scale`` and unary - each build a ``_dot`` node of one or two terms,
    and ``dot`` one for a whole sum of products.  Its terms act on whole
    jets, and a product is truncated at the order asked (``jet_mul``).
    ``diff(r)`` asks its operand for one order more and shifts the
    coefficients (``jet_diff``).  ``values`` is the row of order 0, and
    ``eval_float`` a batch of one row.

    The entries of a numeric frame are fields too, built by the chart
    interpreter from ``var``, ``literal``, the arithmetic above, ``/``,
    ``power`` and ``call``.  A quotient multiplies by the series of
    t^-1, a power composes with the series of t^p, and sin/cos/exp with
    their derivative cycles (``NUMERIC_FUNCS``), by

        g(a) = sum_k g^(k)(a_0)/k! (a - a_0)^k.

    Evaluation never raises: where a divisor (or the base of a negative
    power) is 0, every row of the jet is NaN, and an overflow is inf, so
    a value that cannot be computed is not finite at its point.
    Negation, ``/``, ``power`` and ``call`` take no zero short cuts.

    ``reads`` is the set of coordinates r whose x_r the field can depend
    on (every one unless given).  ``const(n, 0)`` is the literal zero, and
    the arithmetic takes the zero short cuts of ``RationalFunc``: a sum or
    difference with a zero operand is the other operand (negated for
    0 - b), a product with a zero factor, a zero scaled and a scaling by 0
    are the zero, and so is ``diff(r)`` of a field that does not read x_r.
    A result reads what its operands read.

    A node counts its ``readers``, the nodes built with it as an operand,
    once per occurrence (x*x reads x twice).  A node caches its jet per
    batch, keyed by the batch's bytes, at the highest order asked so far,
    and answers a lower order with a prefix of it, unless exactly one
    node reads it.  Operator trees share subexpression nodes (the same
    connection entry feeds many form components), so a shared node is
    computed again only for a higher order, and only to the order that
    the derivatives above it need: a product whose values alone are asked
    is one multiplication.  A node with one reader is asked again only
    when its reader is computed again, which a cached reader is only for
    a higher order, so its cache would never answer and would only hold
    memory.  The roots, which no node reads (frame entries, the
    components of a residual), keep their cache.  The chart is not a
    reader: a frame entry that one node of another entry reads keeps no
    cache, and ``FrameChart._jets`` computes it once more.
    """

    __slots__ = ("fn", "n", "reads", "operands", "readers", "_cache")

    def __init__(self, fn: Callable[..., np.ndarray], n: int, reads: frozenset | None = None,
                 operands: tuple = ()):
        self.fn = fn
        self.n = n
        self.reads = frozenset(range(n)) if reads is None else reads
        self.operands = operands
        self.readers = 0
        for a in operands:
            if isinstance(a, NumericScalar):
                a.readers += 1
        self._cache: Dict[bytes, np.ndarray] = {}

    @staticmethod
    def const(n: int, value: float) -> NumericScalar:
        v = float(value)
        if v == 0:
            return NumericScalar(_zeros, n, reads=frozenset())
        return NumericScalar.literal(n, v)

    @staticmethod
    def literal(n: int, value: float) -> NumericScalar:
        """The constant ``value``, a field that is not the literal zero even
        where ``value`` is 0."""
        return NumericScalar(_constant, n, frozenset(), (float(value),))

    def is_zero(self) -> bool:
        return self.fn is _zeros

    def __add__(self, other: NumericScalar) -> NumericScalar:
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return NumericScalar(_dot, self.n, _union(self.reads, other.reads),
                             (1, self, None, 1, other, None))

    def __sub__(self, other: NumericScalar) -> NumericScalar:
        if other.is_zero():
            return self
        if self.is_zero():
            return other.scale(-1)
        return NumericScalar(_dot, self.n, _union(self.reads, other.reads),
                             (1, self, None, -1, other, None))

    def __mul__(self, other: NumericScalar) -> NumericScalar:
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        return NumericScalar(_dot, self.n, _union(self.reads, other.reads), (1, self, other))

    def scale(self, value) -> NumericScalar:
        v = float(value)
        if self.is_zero():
            return self
        if v == 0:
            return NumericScalar.const(self.n, 0)
        return NumericScalar(_dot, self.n, self.reads, (v, self, None))

    @staticmethod
    def var(n: int, idx: int) -> NumericScalar:
        """The coordinate x_idx, counted from 0."""
        return NumericScalar(_coordinate, n, frozenset({idx}), (idx,))

    def __neg__(self) -> NumericScalar:
        return NumericScalar(_dot, self.n, self.reads, (-1, self, None))

    def __truediv__(self, other: NumericScalar) -> NumericScalar:
        return NumericScalar(_quotient, self.n, _union(self.reads, other.reads), (self, other))

    def power(self, exp: int) -> NumericScalar:
        return NumericScalar(_power, self.n, self.reads, (self, exp))

    def call(self, name: str) -> NumericScalar:
        """sin, cos or exp (``name``) of this field."""
        return NumericScalar(_call, self.n, self.reads, (self, NUMERIC_FUNCS[name]))

    def diff(self, r: int) -> NumericScalar:
        if r not in self.reads:
            return self if self.is_zero() else NumericScalar.const(self.n, 0)
        return NumericScalar(_derivative, self.n, self.reads, (self, r))

    def diff_terms(self, r: int) -> Tuple[Tuple[int, NumericScalar, None]]:
        """``RationalFunc.diff_terms``: here the one term (1, ``diff(r)``, None)."""
        return ((1, self.diff(r), None),)

    def dot(self, terms: Iterable[Tuple[int, NumericScalar, NumericScalar | None]]) -> NumericScalar:
        """self + the sum of c * a * b over the (int c, a, b) triples of
        ``terms``, b None standing for 1, as one node (see
        ``RationalFunc.dot``).  A triple with c = 0 or a zero operand is
        skipped; with none left, self is returned."""
        operands, reads = [], self.reads
        for c, a, b in terms:
            if c and not a.is_zero() and (b is None or not b.is_zero()):
                operands += (c, a, b)
                reads = _union(reads, a.reads if b is None else _union(a.reads, b.reads))
        if not operands:
            return self
        if not self.is_zero():
            operands[:0] = (1, self, None)
        return NumericScalar(_dot, self.n, reads, tuple(operands))

    def _jet(self, points: np.ndarray, key: bytes, order: int) -> np.ndarray:
        if self.readers == 1:
            return self.fn(points, key, order, *self.operands)
        got = self._cache.get(key)
        if got is not None:
            rows = comb(self.n + order, order)
            if len(got) >= rows:
                return got if len(got) == rows else got[:rows]
        got = self._cache[key] = self.fn(points, key, order, *self.operands)
        return got

    @staticmethod
    def batch_values(fields: Sequence[NumericScalar], points) -> np.ndarray:
        """The values of ``fields`` at each of ``points``, one row of floats
        per field.

        A pole, an overflow or an invalid operation gives NaN or inf
        without a warning, where Python floats would raise; callers test
        finiteness.
        """
        import numpy as np

        points = np.asarray(points, dtype=float)
        key = points.tobytes()
        out = np.empty((len(fields), len(points)))
        with np.errstate(all="ignore"):
            for row, f in enumerate(fields):
                out[row] = f._jet(points, key, 0)[0]
        return out

    def values(self, points) -> np.ndarray:
        """The field at each of ``points``, as an array of floats (see
        ``batch_values``)."""
        return NumericScalar.batch_values([self], points)[0]

    def eval_float(self, point) -> float:
        return float(self.values([tuple(point)])[0])


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, reusing an operand's set where it holds the other's."""
    return a if b <= a else b if a <= b else a | b


# --- the operations of numeric nodes: fn(points, key, order, *operands) --------

def _zeros(points: np.ndarray, key: bytes, order: int) -> np.ndarray:
    """The jet function of the numeric literal zero."""
    return jet_constant(0.0, points.shape[1], order, len(points))


def _constant(points: np.ndarray, key: bytes, order: int, value: float) -> np.ndarray:
    return jet_constant(value, points.shape[1], order, len(points))


def _coordinate(points: np.ndarray, key: bytes, order: int, idx: int) -> np.ndarray:
    """x_idx: the value, and a 1 in the row of x_idx."""
    out = jet_constant(points[:, idx], points.shape[1], order, len(points))
    if order:
        out[1 + idx] = 1.0
    return out


def _quotient(points, key, order, a: NumericScalar, b: NumericScalar) -> np.ndarray:
    n = a.n
    return jet_mul(a._jet(points, key, order),
                   _jet_power(b._jet(points, key, order), -1, n, order), n, order)


def _power(points, key, order, a: NumericScalar, exp: int) -> np.ndarray:
    return _jet_power(a._jet(points, key, order), exp, a.n, order)


def _call(points, key, order, a: NumericScalar, cycle) -> np.ndarray:
    import numpy as np

    jet = a._jet(points, key, order)
    values = {g: getattr(np, g)(jet[0]) for g in dict(cycle[:order + 1])}
    coeffs = [sign / factorial(k) * values[g]
              for k, (g, sign) in zip(range(order + 1), cycle * (order + 1))]
    return _jet_compose(jet, coeffs, a.n, order)


def _derivative(points, key, order, a: NumericScalar, r: int) -> np.ndarray:
    return jet_diff(a._jet(points, key, order + 1), a.n, order, r)


def _dot(points, key, order, *triples) -> np.ndarray:
    """The sum of c * a * b over the (c, a, b) triples laid out in a row,
    from the first term on: a c of 1 or -1 adds or subtracts its term, and
    any other c multiplies it first.  Where the first term has c = 1 and b
    None, the sum of one term is that operand's own jet, so no node
    function may write into a jet that an operand returns."""
    n, acc = points.shape[1], None
    for c, a, b in zip(*[iter(triples)] * 3):
        term = a._jet(points, key, order)
        if b is not None:
            term = jet_mul(term, b._jet(points, key, order), n, order)
        if c == -1:
            acc = -term if acc is None else acc - term
        else:
            if c != 1:
                term = c * term
            acc = term if acc is None else acc + term
    return acc


ScalarField = RationalFunc | NumericScalar


class FrameChart:
    """An invertible frame field on a rational box domain, an n x n matrix
    of scalar fields whose type is the chart's backend: RationalFuncs, or
    NumericScalars.  An exact chart holds its exact inverse, which feeds
    Gamma and validation."""

    def __init__(self, name: str, n: int, domain: Sequence[Tuple],
                 entries: Sequence[Sequence[ScalarField]]):
        check_dim(n)
        self.name = name
        self.n = n
        self.domain = [(Fraction(lo), Fraction(hi)) for lo, hi in domain]
        if len(self.domain) != n or any(lo >= hi for lo, hi in self.domain):
            raise ChartError(f"domain must be {n} nonempty intervals")
        self.entries = [list(row) for row in entries]
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ChartError(f"frame must be an {n}x{n} matrix of fields")
        self.backend = "numeric" if isinstance(self.entries[0][0], NumericScalar) else "exact"
        if self.backend == "exact":
            try:
                self.inverse = rf_matrix_inverse(self.entries)
            except ZeroDivisionError:
                raise ChartError(f"frame of chart '{name}' is singular as a matrix "
                                 f"of functions") from None

    def grid(self, points_per_axis: int = 5) -> List[Tuple[float, ...]]:
        axes = []
        for axis, bounds in enumerate(self.domain, 1):
            lo, hi = map(float_of, bounds)
            for side, bound in (("lower", lo), ("upper", hi)):
                if isinf(bound):
                    raise ChartError(f"the {side} domain bound of x{axis} in chart "
                                     f"'{self.name}' is past the float range")
            last = points_per_axis - 1
            if isinf(hi - lo):  # finite bounds whose width overflows
                axes.append([lo * (1 - t / last) + hi * (t / last) for t in range(points_per_axis)])
            else:
                axes.append([lo + (hi - lo) * t / last for t in range(points_per_axis)])
        return [tuple(p) for p in iproduct(*axes)]

    def rational_grid(self, points_per_axis: int = 5) -> List[Tuple[Fraction, ...]]:
        axes = []
        for lo, hi in self.domain:
            axes.append([lo + (hi - lo) * Fraction(t, points_per_axis - 1)
                         for t in range(points_per_axis)])
        return [tuple(p) for p in iproduct(*axes)]

    def validate_invertible(self, points_per_axis: int = 5) -> RationalGrid | np.ndarray:
        """Check the evaluation grid is within bounds, and that e is finite
        and invertible on it; return the grid a report evaluates on, a
        ``RationalGrid`` when exact and one float array when numeric.
        Exactly, when exact: e has a pole where a denominator factor of its
        entries vanishes (``RationalGrid.vanishes``), and, where it has
        none, is singular where one of e^-1 = adj(e) / det e does.  A
        report's fields are built from e, e^-1 and their derivatives, so
        they divide by no exact zero on a valid grid.  Numerically, e is
        evaluated on the whole grid at once, and the first point where it
        is not finite (a pole reads NaN) or is singular is named."""
        if points_per_axis < 2:
            raise ChartError("need at least 2 grid points per axis")
        if points_per_axis ** self.n > MAX_GRID_POINTS:
            raise ChartError(f"a grid of {points_per_axis}^{self.n} points exceeds "
                             f"the limit of {MAX_GRID_POINTS}")
        if self.backend == "exact":
            grid = RationalGrid(self.rational_grid(points_per_axis))
            poles = dict.fromkeys(f for row in self.entries for e in row for f in e.den)
            singular = dict.fromkeys(f for row in self.inverse for e in row for f in e.den
                                     if f not in poles)
            # per kind of fault, whether some factor of that kind vanishes at each point
            masks = [map(any, zip(*map(grid.vanishes, factors))) if factors else repeat(False)
                     for factors in (poles, singular)]
            for p, pole, sing in zip(grid.points, *masks):
                if pole or sing:
                    problem = "has a pole" if pole else "is singular"
                    at = ", ".join(map(str, p))
                    raise ChartError(f"frame of chart '{self.name}' {problem} at ({at})")
            return grid
        import numpy as np

        grid = self.grid(points_per_axis)
        points = np.array(grid)
        e = self._jets(points, 0)[0]
        with np.errstate(all="ignore"):
            # |det e| against Hadamard's bound, the product of the row
            # norms: the ratio lies in [0, 1] whatever the scale of e
            singular = abs(np.linalg.det(e)) <= 1e-12 * np.linalg.norm(e, axis=2).prod(axis=1)
        # the first bad point is named, whatever is wrong there
        for p, finite, sing in zip(grid, np.isfinite(e).all(axis=(1, 2)), singular):
            if not finite:
                raise ChartError(f"frame of chart '{self.name}' is not finite at {p}")
            if sing:
                raise ChartError(f"frame of chart '{self.name}' is singular at {p}")
        return points

    def _jets(self, points: np.ndarray, order: int) -> np.ndarray:
        """The numeric frame's jet of ``order`` at the rows of ``points``, a
        (rows, m, n, n) array (see ``jet_monomials``); a row where an entry
        cannot be computed is not finite."""
        import numpy as np

        n, key = self.n, points.tobytes()
        out = np.empty((comb(n + order, order), len(points), n, n))
        with np.errstate(all="ignore"):  # a pole or an overflow is not finite
            for i, row in enumerate(self.entries):
                for a, e in enumerate(row):
                    out[:, :, i, a] = e._jet(points, key, order)
        return out

    def __repr__(self):
        return f"FrameChart({self.name!r}, n={self.n}, backend={self.backend})"


class ConnectionField:
    """Components Gamma^i_{jk}: j differentiates, k picks the frame column.
    ``zero`` is the zero field of their backend, shared by every form built
    from the connection, so the calculus needs no backend name.

    The support of Gamma is tabled once, in ascending order:
    ``upper[i][r]`` holds the a with Gamma^i_{ra} not a literal zero, and
    ``lower[r][l]`` the a with Gamma^a_{rl} not a literal zero.
    """

    __slots__ = ("n", "zero", "gamma", "upper", "lower")

    def __init__(self, n: int, zero: ScalarField, gamma: List[List[List[ScalarField]]]):
        self.n = n
        self.zero = zero
        self.gamma = gamma
        span = range(n)
        live = [[[not f.is_zero() for f in row] for row in plane] for plane in gamma]
        self.upper = [[tuple(a for a in span if live[i][r][a]) for r in span] for i in span]
        self.lower = [[tuple(a for a in span if live[a][r][l]) for l in span] for r in span]

    def comp(self, i: int, j: int, k: int) -> ScalarField:
        return self.gamma[i][j][k]

    def transposed(self) -> ConnectionField:
        """The opposite connection Gamma^i_{kj}, sharing the scalar objects
        (and so the numeric evaluation caches) of this one."""
        gamma = [[[self.gamma[i][k][j] for k in range(self.n)] for j in range(self.n)]
                 for i in range(self.n)]
        return ConnectionField(self.n, self.zero, gamma)


def gamma_from_frame(chart: FrameChart) -> ConnectionField:
    """The connection of the parallelism: Gamma^i_{jk} = d_j e . e^-1."""
    n = chart.n
    if chart.backend == "exact":
        einv = chart.inverse
        zero = RationalFunc(Poly.zero(n))
        # (a, d_j e^i_a) for the a where it is not a literal zero: a product
        # with a zero factor adds nothing to the sum
        de = [[[(a, d) for a, d in enumerate(e.diff(j) for e in row) if d] for j in range(n)]
              for row in chart.entries]
        gamma = [[[sum((d * einv[a][k] for a, d in de[i][j] if einv[a][k]), zero)
                   for k in range(n)] for j in range(n)] for i in range(n)]
        return ConnectionField(n, zero, gamma)

    import numpy as np

    span = range(n)
    reads = [[e.reads for e in row] for row in chart.entries]
    # d_j e^i_a is exactly 0.0 where entry (i, a) does not read x_j, and
    # Gamma^i_{jk} is the zero where no entry of row i reads x_j
    unread = np.array([[[j not in reads[i][a] for a in span] for i in span] for j in span])
    live = ~unread.all(axis=2)  # [j, i]

    # one node caches the whole tensor per batch, and each live entry reads
    # its slice.  Through e^-1 every live entry reads what the frame reads.
    frame_reads = frozenset().union(*(s for row in reads for s in row))
    tensor = NumericScalar(_gamma_tensor, n, frame_reads, (chart, unread))
    zero = NumericScalar.const(n, 0)

    def gamma_entry(i: int, j: int, k: int) -> NumericScalar:
        if not live[j, i]:
            return zero
        return NumericScalar(_gamma_component, n, frame_reads, (tensor, i, j, k))

    gamma = [[[gamma_entry(i, j, k) for k in span] for j in span] for i in span]
    return ConnectionField(n, zero, gamma)


def _gamma_tensor(points: np.ndarray, key: bytes, order: int, chart: FrameChart,
                  unread: np.ndarray) -> np.ndarray:
    """Gamma's jet of ``order`` from the frame's of one order more, as a
    (rows, n, n, n, m) array; ``unread[j, i, a]`` is true where entry (i, a)
    does not read x_j."""
    import numpy as np

    n = chart.n
    e = chart._jets(points, order + 1)
    e0inv = np.linalg.inv(e[0])  # validate_invertible has refused a singular e
    # e^-1 = sum_{k <= order} (-e0^-1 N)^k e0^-1, with N = e - e0
    step = -(e0inv @ e[:comb(n + order, order)])
    step[0] = 0.0
    term = einv = np.zeros_like(step)
    einv[0] = np.eye(n)  # the term k = 0
    for _ in range(order):
        term = jet_mul(step, term, n, order, np.matmul)
        einv = einv + term
    de = np.stack([jet_diff(e, n, order, j) for j in range(n)], axis=2)  # [p, m, j, i, a]
    de[:, :, unread] = 0.0
    # Gamma[p, i, j, k, m] = sum_a de[p, m, j, i, a] einv[p, m, a, k]
    return jet_mul(de, einv @ e0inv, n, order, partial(np.einsum, "pmjia,pmak->pijkm"))


def _gamma_component(points, key, order, tensor: NumericScalar, i: int, j: int,
                     k: int) -> np.ndarray:
    return tensor._jet(points, key, order)[:, i, j, k]


# --- covariant derivative and curvature components ---------------------------

def fold_terms(terms: Iterable[Tuple[int, ScalarField, ScalarField | None]]) -> ScalarField:
    """The sum of the terms (c, a, b), c = 1 or -1, in order: the first,
    whose b is None, and then each c * a * b added or subtracted in turn."""
    terms = iter(terms)
    _, acc, _ = next(terms)
    for c, a, b in terms:
        acc = acc + a * b if c == 1 else acc - a * b
    return acc


def dt_scalar(conn: ConnectionField, get: Callable[..., ScalarField],
              r: int, i: int, *lower: int) -> ScalarField:
    """Covariant derivative in direction r of a tensor with one upper slot.

    ``get(i, *lower)`` returns the component with upper index i and the
    given lower indices; every lower slot is active:

        (nabla_r t)^i_{l_1..l_m} = d_r t^i_{l_1..l_m}
            - sum_a Gamma^i_{ra} t^a_{l_1..l_m}
            + sum_s sum_a Gamma^a_{r l_s} t^i_{l_1..a..l_m},

    with a in slot s of the last term.  With no lower slot this vanishes
    exactly on the invariant fields of the parallelism (the frame
    columns).  Form indices a caller keeps out of ``lower`` stay inert.

    The terms are those of ``dt_terms``, folded in its order.
    """
    return fold_terms(dt_terms(conn, get, r, i, *lower))


def dt_terms(conn: ConnectionField, get: Callable[..., ScalarField],
             r: int, i: int, *lower: int,
             reduced: bool = True) -> Iterator[Tuple[int, ScalarField, ScalarField | None]]:
    """The terms (c, a, b) of ``dt_scalar``, each standing for c * a * b (b
    None for 1): first (1, d_r t^i_{l_1..l_m}, None) through the memoized
    ``diff``, or, unless ``reduced``, the unreduced terms of ``diff_terms``,
    then (-1, Gamma^i_{ra}, t^a_{..}) and (1, Gamma^a_{r l_s},
    t^i_{..a..}) in the order of the sums, a ascending and for each a the
    upper product before the slots.

    Products are emitted only on the support of Gamma (``conn.upper`` and
    ``conn.lower``), and one whose component of t is a literal zero is
    left out.  A sum or product with a literal-zero operand returns the
    other operand, so the terms that are left, added in order, give the
    same field as the full sum, term for term."""
    t = get(i, *lower)
    if reduced:
        yield 1, t.diff(r), None
    else:
        yield from t.diff_terms(r)
    upper = conn.upper[i][r]
    slots = [(conn.lower[r][l], l, lower[:s], lower[s + 1:]) for s, l in enumerate(lower)]
    for a in range(conn.n):
        if a in upper:
            t = get(a, *lower)
            if not t.is_zero():
                yield -1, conn.comp(i, r, a), t
        for support, l, before, after in slots:
            if a in support:
                t = get(i, *before, a, *after)
                if not t.is_zero():
                    yield 1, conn.comp(a, r, l), t


def dt_reach(conn: ConnectionField, r: int, support) -> set:
    """The values (i, *lower) at which ``dt_scalar`` in direction r can be
    nonzero when ``get`` is a literal zero outside ``support``: the support
    itself, and each value that one term of the covariant derivative
    reaches from it through a Gamma entry that is not a literal zero.

    The tables of ``conn`` read backwards give the reach: ``lower[r][a]``
    holds the i with Gamma^i_{ra} not zero (the upper term moves a to i),
    and ``upper[a][r]`` the l with Gamma^a_{rl} not zero (a lower term
    moves a to l).  A support that holds every value reaches nothing more."""
    out = set(support)
    if len(out) == conn.n ** len(next(iter(out), ())):
        return out
    for a, *rest in support:
        out.update((i, *rest) for i in conn.lower[r][a])
    for value in support:
        for s in range(1, len(value)):
            out.update((*value[:s], l, *value[s + 1:]) for l in conn.upper[value[s]][r])
    return out


def torsion_components(conn: ConnectionField) -> Dict[Tuple[int, int, int], ScalarField]:
    """T^i_{k,j} = Gamma^i_{kj} - Gamma^i_{jk} keyed (i, form k, hom j)."""
    out = {}
    for i in range(conn.n):
        for k in range(conn.n):
            for j in range(conn.n):
                out[(i, k, j)] = conn.comp(i, k, j) - conn.comp(i, j, k)
    return out


def _half_terms(conn: ConnectionField, i: int, rr: int, jj: int,
                k: int) -> Iterator[Tuple[int, ScalarField, ScalarField | None]]:
    """The terms of d_rr Gamma^i_{jj k} + Gamma^a_{rr k} Gamma^i_{jj a}: the
    derivative, then a product for each a with both Gamma entries not a
    literal zero, a ascending."""
    yield 1, conn.comp(i, jj, k).diff(rr), None
    upper = conn.upper[i][jj]
    for a in conn.lower[rr][k]:
        if a in upper:
            yield 1, conn.comp(a, rr, k), conn.comp(i, jj, a)


def curvature_tilde_terms(conn: ConnectionField) -> Dict[Tuple[int, int, int, int], list]:
    """The terms (c, a, b) of each component (i, r, j, k) with r < j of
    ``curvature_tilde_components``: those of its first half, then those of
    its second half negated."""
    n = conn.n
    return {(i, r, j, k): [*_half_terms(conn, i, r, j, k),
                           *((-c, a, b) for c, a, b in _half_terms(conn, i, j, r, k))]
            for i, r, j, k in iproduct(range(n), repeat=4) if r < j}


def curvature_tilde_components(conn: ConnectionField) -> Dict[Tuple[int, int, int, int], ScalarField]:
    """The always-flat curvature, keyed (i, r, j, k) with form pair (r, j).

    Componentwise [d_r Gamma^i_{jk} + Gamma^a_{rk} Gamma^i_{ja}]
    antisymmetrized in (r, j); identically zero for frame-derived
    connections, which is the convention-sensitive sanity anchor.

    Only the pairs r < j are computed, each half folded from the terms of
    ``_half_terms``; (i, j, r, k) is the negative of (i, r, j, k) and
    (i, r, r, k) is zero.  Every key is returned, in the order (i, r, j, k)
    of the loops.
    """
    n = conn.n
    out = {}
    for i, r, j, k in iproduct(range(n), repeat=4):
        if r < j:
            out[(i, r, j, k)] = (fold_terms(_half_terms(conn, i, r, j, k))
                                 - fold_terms(_half_terms(conn, i, j, r, k)))
        elif r > j:
            out[(i, r, j, k)] = out[(i, j, r, k)].scale(-1)
        else:
            out[(i, r, j, k)] = conn.zero
    return out


def curvature_components(conn: ConnectionField) -> Dict[Tuple[int, int, int, int], ScalarField]:
    """The homogeneity obstruction, keyed (i, r, j, k) with form pair (r, j).

    The formula of ``curvature_tilde_components`` (flat on Gamma itself)
    applied to the opposite connection: componentwise
    [d_r Gamma^i_{kj} + Gamma^a_{kr} Gamma^i_{aj}] antisymmetrized in
    (r, j); vanishes exactly when the chart is locally a Lie group.
    """
    return curvature_tilde_components(conn.transposed())
