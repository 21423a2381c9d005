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
* numeric - black-box evaluators differentiated by five-point central
  stencils (step ``fd_step`` at the first level, ``fd_step2`` for nested
  levels), for charts with entries like exp or sin that have no rational
  form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .rational import Poly, RationalFunc, matrix_determinant, rf_matrix_inverse


class ChartError(ValueError):
    """Invalid frame chart: wrong shape, singular frame, bad domain."""


DEFAULT_FD_STEP = 1e-4
DEFAULT_FD_STEP2 = 1e-3


class NumericScalar:
    """A float-valued field known only through evaluation.

    ``depth`` counts how many finite-difference layers sit under the
    value already; the first derivative of a depth-0 field uses the fine
    step, nested derivatives the coarser one, keeping truncation and
    roundoff balanced.

    Every instance memoizes its evaluations by point.  Operator trees
    share subexpression nodes (the same connection entry feeds many form
    components), so the caches turn the naive exponential recomputation
    of nested stencils into one evaluation per distinct point.
    """

    __slots__ = ("fn", "n", "depth", "steps", "_cache")

    def __init__(self, fn: Callable[[Tuple[float, ...]], float], n: int,
                 depth: int = 0, steps: Tuple[float, float] = (DEFAULT_FD_STEP, DEFAULT_FD_STEP2)):
        self.fn = fn
        self.n = n
        self.depth = depth
        self.steps = steps
        self._cache: Dict[Tuple[float, ...], float] = {}

    @staticmethod
    def const(n: int, value: float, steps=(DEFAULT_FD_STEP, DEFAULT_FD_STEP2)) -> NumericScalar:
        v = float(value)
        return NumericScalar(lambda x: v, n, 0, steps)

    def __add__(self, other: NumericScalar) -> NumericScalar:
        return NumericScalar(lambda x: self.eval_float(x) + other.eval_float(x), self.n,
                             max(self.depth, other.depth), self.steps)

    def __sub__(self, other: NumericScalar) -> NumericScalar:
        return NumericScalar(lambda x: self.eval_float(x) - other.eval_float(x), self.n,
                             max(self.depth, other.depth), self.steps)

    def __mul__(self, other: NumericScalar) -> NumericScalar:
        return NumericScalar(lambda x: self.eval_float(x) * other.eval_float(x), self.n,
                             max(self.depth, other.depth), self.steps)

    def scale(self, value) -> NumericScalar:
        v = float(value)
        return NumericScalar(lambda x: v * self.eval_float(x), self.n, self.depth, self.steps)

    def diff(self, r: int) -> NumericScalar:
        h = self.steps[0] if self.depth == 0 else self.steps[1]

        def deriv(x: Tuple[float, ...]) -> float:
            def shifted(t: float) -> float:
                y = list(x)
                y[r] += t
                return self.eval_float(tuple(y))
            return (-shifted(2 * h) + 8 * shifted(h)
                    - 8 * shifted(-h) + shifted(-2 * h)) / (12 * h)

        return NumericScalar(deriv, self.n, self.depth + 1, self.steps)

    def eval_float(self, point) -> float:
        key = tuple(float(x) for x in point)
        got = self._cache.get(key)
        if got is None:
            got = self.fn(key)
            self._cache[key] = got
        return got


ScalarField = RationalFunc | NumericScalar


def field_const(backend: str, n: int, value, steps=None) -> ScalarField:
    if backend == "exact":
        return RationalFunc.const(n, value)
    return NumericScalar.const(n, value, steps or (DEFAULT_FD_STEP, DEFAULT_FD_STEP2))


def field_is_exactly_zero(f: ScalarField) -> bool:
    """Literal-zero test; only decidable on the exact backend."""
    return isinstance(f, RationalFunc) and f.is_zero()


class FrameChart:
    """An invertible frame field on a rational box domain."""

    def __init__(self, name: str, n: int, domain: Sequence[Tuple],
                 entries: Sequence[Sequence[RationalFunc]] | None = None,
                 evaluator: Callable[[Tuple[float, ...]], np.ndarray] | None = None,
                 fd_steps: Tuple[float, float] = (DEFAULT_FD_STEP, DEFAULT_FD_STEP2)):
        if (entries is None) == (evaluator is None):
            raise ChartError("provide exactly one of exact entries or a numeric evaluator")
        self.name = name
        self.n = n
        self.domain = [(Fraction(lo), Fraction(hi)) for lo, hi in domain]
        if len(self.domain) != n or any(lo >= hi for lo, hi in self.domain):
            raise ChartError(f"domain must be {n} nonempty intervals")
        self.fd_steps = fd_steps
        if entries is not None:
            self.backend = "exact"
            self.entries = [list(row) for row in entries]
            if len(self.entries) != n or any(len(r) != n for r in self.entries):
                raise ChartError(f"frame must be an {n}x{n} matrix of fields")
            self._det = matrix_determinant(self.entries)
            if self._det.is_zero():
                raise ChartError(f"frame of chart '{name}' is singular as a matrix of functions")
            # the distinct denominator factors of det e and of the entries:
            # an entry can have a pole where det e has none
            fields = [self._det] + [e for row in self.entries for e in row]
            self._den_factors = list(dict.fromkeys(f for e in fields for f in e.den))
        else:
            self.backend = "numeric"
            raw = evaluator
            memo: Dict[Tuple[float, ...], np.ndarray] = {}

            def cached(x: Tuple[float, ...]) -> np.ndarray:
                got = memo.get(x)
                if got is None:
                    got = np.asarray(raw(x), dtype=float)
                    memo[x] = got
                return got

            self.evaluator = cached

    def grid(self, points_per_axis: int = 5) -> List[Tuple[float, ...]]:
        if points_per_axis < 2:
            raise ChartError("need at least 2 grid points per axis")
        axes = []
        for lo, hi in self.domain:
            lo, hi = float(lo), float(hi)
            axes.append([lo + (hi - lo) * t / (points_per_axis - 1)
                         for t in range(points_per_axis)])
        return [tuple(p) for p in iproduct(*axes)]

    def rational_grid(self, points_per_axis: int = 5) -> List[Tuple[Fraction, ...]]:
        axes = []
        for lo, hi in self.domain:
            axes.append([lo + (hi - lo) * Fraction(t, points_per_axis - 1)
                         for t in range(points_per_axis)])
        return [tuple(p) for p in iproduct(*axes)]

    def validate_invertible(self, points_per_axis: int = 5) -> None:
        """Check e is finite and det e nonzero on the evaluation grid (exactly, when exact)."""
        if self.backend == "exact":
            for p in self.rational_grid(points_per_axis):
                if any(f.eval(p) == 0 for f in self._den_factors):
                    raise ChartError(f"frame of chart '{self.name}' has a pole at {p}")
                if self._det.eval(p) == 0:
                    raise ChartError(f"frame of chart '{self.name}' is singular at {p}")
        else:
            for p in self.grid(points_per_axis):
                try:
                    e = self.evaluator(p)
                except (ZeroDivisionError, OverflowError) as exc:
                    raise ChartError(
                        f"frame of chart '{self.name}' cannot be evaluated at {p}: {exc}") from None
                if not np.isfinite(e).all():
                    raise ChartError(f"frame of chart '{self.name}' is not finite at {p}")
                if abs(np.linalg.det(e)) < 1e-12:
                    raise ChartError(f"frame of chart '{self.name}' is singular at {p}")

    def rescaled_by_constant(self, matrix: Sequence[Sequence]) -> FrameChart:
        """Right-multiply the frame by a constant invertible matrix."""
        if self.backend != "exact":
            raise ChartError("constant rescaling implemented for exact charts")
        const = [[RationalFunc(Poly.const(self.n, v)) for v in row] for row in matrix]
        new_entries = [[sum((self.entries[i][t] * const[t][a] for t in range(self.n)),
                            RationalFunc(Poly.zero(self.n)))
                        for a in range(self.n)] for i in range(self.n)]
        return FrameChart(self.name + "-rescaled", self.n, self.domain, entries=new_entries)

    def __repr__(self):
        return f"FrameChart({self.name!r}, n={self.n}, backend={self.backend})"


@dataclass
class ConnectionField:
    """Components Gamma^i_{jk}: j differentiates, k picks the frame column."""

    n: int
    backend: str
    gamma: List[List[List[ScalarField]]]
    fd_steps: Tuple[float, float] = (DEFAULT_FD_STEP, DEFAULT_FD_STEP2)

    def comp(self, i: int, j: int, k: int) -> ScalarField:
        return self.gamma[i][j][k]

    def transposed(self) -> ConnectionField:
        """The opposite connection Gamma^i_{kj}, sharing the scalar objects
        (and so the numeric evaluation caches) of this one."""
        gamma = [[[self.gamma[i][k][j] for k in range(self.n)] for j in range(self.n)]
                 for i in range(self.n)]
        return ConnectionField(self.n, self.backend, gamma, self.fd_steps)


def gamma_from_frame(chart: FrameChart) -> ConnectionField:
    """The connection of the parallelism: Gamma^i_{jk} = d_j e . e^-1."""
    n = chart.n
    if chart.backend == "exact":
        chart.validate_invertible()
        einv = rf_matrix_inverse(chart.entries)
        gamma = [[[RationalFunc(Poly.zero(n)) for _ in range(n)] for _ in range(n)]
                 for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    acc = RationalFunc(Poly.zero(n))
                    for a in range(n):
                        acc = acc + chart.entries[i][a].diff(j) * einv[a][k]
                    gamma[i][j][k] = acc
        return ConnectionField(n, "exact", gamma, chart.fd_steps)

    chart.validate_invertible()
    ev = chart.evaluator
    h = chart.fd_steps[0]
    tensor_cache: Dict[Tuple[float, ...], np.ndarray] = {}

    def gamma_tensor(x: Tuple[float, ...]) -> np.ndarray:
        got = tensor_cache.get(x)
        if got is None:
            de = np.empty((n, n, n))
            for j in range(n):
                def e_at(t: float) -> np.ndarray:
                    y = list(x)
                    y[j] += t
                    return ev(tuple(y))
                de[j] = (-e_at(2 * h) + 8 * e_at(h) - 8 * e_at(-h) + e_at(-2 * h)) / (12 * h)
            einv = np.linalg.inv(ev(x))
            # Gamma[i, j, k] = sum_a de[j][i, a] einv[a, k]
            got = np.einsum("jia,ak->ijk", de, einv)
            tensor_cache[x] = got
        return got

    def gamma_entry(i: int, j: int, k: int) -> NumericScalar:
        return NumericScalar(lambda x: float(gamma_tensor(x)[i, j, k]), n, 1, chart.fd_steps)

    gamma = [[[gamma_entry(i, j, k) for k in range(n)] for j in range(n)] for i in range(n)]
    return ConnectionField(n, "numeric", gamma, chart.fd_steps)


# --- covariant derivative and curvature components ---------------------------

def dt_scalar(conn: ConnectionField, get: Callable[[int, int], ScalarField],
              r: int, i: int, j: int) -> ScalarField:
    """Covariant derivative in direction r of a Hom(T,T)-valued quantity.

    ``get(i, j)`` returns the (i, j) component; any extra form indices of
    the caller are inert here.
    """
    acc = get(i, j).diff(r)
    for a in range(conn.n):
        acc = acc - conn.comp(i, r, a) * get(a, j)
        acc = acc + conn.comp(a, r, j) * get(i, a)
    return acc


def dl_scalar(conn: ConnectionField, get: Callable[[int, int], ScalarField],
              r: int, i: int, j: int) -> ScalarField:
    """The companion derivative: ``dt_scalar`` of the opposite connection."""
    return dt_scalar(conn.transposed(), get, r, i, j)


def nabla_vector(conn: ConnectionField, xi: Sequence[ScalarField], r: int) -> List[ScalarField]:
    """Covariant derivative of a vector field; zero exactly on the
    invariant fields of the parallelism (the frame columns)."""
    out = []
    for i in range(conn.n):
        acc = xi[i].diff(r)
        for a in range(conn.n):
            acc = acc - conn.comp(i, r, a) * xi[a]
        out.append(acc)
    return out


def nabla_tensor12(conn: ConnectionField, t: Callable[[int, int, int], ScalarField],
                   r: int, i: int, j: int, k: int) -> ScalarField:
    """Covariant derivative of a (1,2)-tensor with both lower slots active.

    This is the honest tensor extension of the vector-field derivative; it
    is the version under which the torsion derivative reproduces the
    curvature exactly (the variant that freezes the form slot provably
    does not).
    """
    acc = t(i, j, k).diff(r)
    for a in range(conn.n):
        acc = acc - conn.comp(i, r, a) * t(a, j, k)
        acc = acc + conn.comp(a, r, j) * t(i, a, k)
        acc = acc + conn.comp(a, r, k) * t(i, j, a)
    return acc


def torsion_components(conn: ConnectionField) -> Dict[Tuple[int, int, int], ScalarField]:
    """T^i_{k,j} = Gamma^i_{kj} - Gamma^i_{jk} keyed (i, form k, hom j)."""
    out = {}
    for i in range(conn.n):
        for k in range(conn.n):
            for j in range(conn.n):
                out[(i, k, j)] = conn.comp(i, k, j) - conn.comp(i, j, k)
    return out


def curvature_tilde_components(conn: ConnectionField) -> Dict[Tuple[int, int, int, int], ScalarField]:
    """The always-flat curvature, keyed (i, r, j, k) with form pair (r, j).

    Componentwise [d_r Gamma^i_{jk} + Gamma^a_{rk} Gamma^i_{ja}]
    antisymmetrized in (r, j); identically zero for frame-derived
    connections, which is the convention-sensitive sanity anchor.
    """
    n = conn.n
    out = {}
    for i in range(n):
        for r in range(n):
            for j in range(n):
                for k in range(n):
                    def half(rr, jj):
                        acc = conn.comp(i, jj, k).diff(rr)
                        for a in range(n):
                            acc = acc + conn.comp(a, rr, k) * conn.comp(i, jj, a)
                        return acc
                    out[(i, r, j, k)] = half(r, j) - half(j, r)
    return out


def curvature_components(conn: ConnectionField) -> Dict[Tuple[int, int, int, int], ScalarField]:
    """The homogeneity obstruction, keyed (i, r, j, k) with form pair (r, j).

    The formula of ``curvature_tilde_components`` (flat on Gamma itself)
    applied to the opposite connection: componentwise
    [d_r Gamma^i_{kj} + Gamma^a_{kr} Gamma^i_{aj}] antisymmetrized in
    (r, j); vanishes exactly when the chart is locally a Lie group.
    """
    return curvature_tilde_components(conn.transposed())
