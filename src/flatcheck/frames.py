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
* numeric - a frame evaluated on batches of points, differentiated by
  five-point central stencils (step ``FD_STEP`` at the first level,
  ``FD_STEP2`` for nested levels), for charts with entries like exp or
  sin that have no rational form.  A numeric field is evaluated on a
  whole batch of points at once: a stack of equal blocks of rows (the
  grid, or the grid shifted by stencil steps), so that a stencil costs
  one call, not four.  Its cache holds one array per block, not one value
  per point, so no block is evaluated twice whatever stacks it comes in.

Both backends have a literal zero, and the arithmetic of both takes the
same zero short cuts.  A numeric field also knows the coordinates it
reads: its derivative along any other one is the zero, and Gamma^i_{jk}
is the zero where no frame entry of row i reads x_j.  So one sparse
calculus, which forms only the products that can be nonzero, serves both.

Charts are bounded: at most ``MAX_DIM`` dimensions, and at most
``MAX_GRID_POINTS`` points on an evaluation grid.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import product as iproduct
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from . import MAX_DIM
from .rational import Poly, RationalFunc, matrix_determinant, rf_matrix_inverse

if TYPE_CHECKING:  # numpy is imported by the numeric backend only
    import numpy as np


class ChartError(ValueError):
    """Invalid frame chart: wrong shape, singular frame, bad domain."""


FD_STEP = 1e-4
FD_STEP2 = 1e-3
MAX_GRID_POINTS = 4096
# the most rows that a stencil, or the numeric connection, passes on in one
# call: past a few thousand rows the arrays leave the CPU caches (on a
# 2-core Xeon, the frame of forced-numeric abelian4 took three times as
# long per row on 42,500 rows as on 2,500)
STACK_ROWS = 2048


def check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ChartError(f"chart dimension {n} is outside 1..{MAX_DIM}")


# (stack, keys) -> the values at the rows of a stack of k blocks of m
# points, a (k*m, n) array; keys[b] is block b's tobytes(), the key of its
# values in the caches of the fields evaluated on it
BatchFn = Callable[["np.ndarray", Tuple[bytes, ...]], "np.ndarray"]


class NumericScalar:
    """A float-valued field known only through evaluation.

    ``fn(stack, keys)`` maps a stack of k blocks of m points, a (k*m, n)
    float array with one point per row, to its k*m values.  Block b is
    rows b*m to (b+1)*m, and ``keys[b]`` is its ``tobytes()``, for passing
    on to the fields that ``fn`` evaluates on the same stack.  Sums,
    differences, products, scalings and derivatives act on whole arrays,
    and the stencil of ``diff(r)`` asks its operand in one call for every
    block shifted in column r (``five_point``).  ``values`` is a stack of
    one block, and ``eval_float`` a block of one row.

    ``reads`` is the set of coordinates r whose x_r the field can depend
    on (every one unless given).  ``const(n, 0)`` is the literal zero, and
    the arithmetic takes the zero short cuts of ``RationalFunc``: a sum or
    difference with a zero operand is the other operand (negated for
    0 - b), a product with a zero factor, a zero scaled and a scaling by 0
    are the zero, and so is ``diff(r)`` of a field that does not read x_r.
    A result reads what its operands read.

    ``depth`` counts how many finite-difference layers sit under the
    value already; the first derivative of a depth-0 field uses the fine
    step, nested derivatives the coarser one, keeping truncation and
    roundoff balanced.

    Every node caches its values per block, keyed by the block's bytes,
    and calls ``fn`` once per stack, on the blocks it has not cached.
    Operator trees share subexpression nodes (the same connection entry
    feeds many form components), and stencils ask their operands for the
    same shifted blocks in different stacks (d_r d_s and d_s d_r), so the
    caches turn the naive exponential recomputation of nested stencils
    into one evaluation per distinct block.  A stack that ``fn`` evaluated
    whole is also kept under the tuple of its keys: its blocks are views
    of that array, and asking for the same stack again returns it without
    copying them together.
    """

    __slots__ = ("fn", "n", "depth", "reads", "_cache")

    def __init__(self, fn: BatchFn, n: int, depth: int = 0, reads: frozenset | None = None):
        self.fn = fn
        self.n = n
        self.depth = depth
        self.reads = frozenset(range(n)) if reads is None else reads
        self._cache: Dict[bytes | Tuple[bytes, ...], np.ndarray] = {}

    @staticmethod
    def const(n: int, value: float) -> NumericScalar:
        v = float(value)
        if v == 0:
            return NumericScalar(_zeros, n, reads=frozenset())
        import numpy as np

        return NumericScalar(lambda p, keys: np.full(len(p), v), n, reads=frozenset())

    def is_zero(self) -> bool:
        return self.fn is _zeros

    def _binary(self, other: NumericScalar, op) -> NumericScalar:
        return NumericScalar(lambda p, keys: op(self._values(p, keys), other._values(p, keys)),
                             self.n, max(self.depth, other.depth), self.reads | other.reads)

    def __add__(self, other: NumericScalar) -> NumericScalar:
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return self._binary(other, operator.add)

    def __sub__(self, other: NumericScalar) -> NumericScalar:
        if other.is_zero():
            return self
        if self.is_zero():
            return other.scale(-1)
        return self._binary(other, operator.sub)

    def __mul__(self, other: NumericScalar) -> NumericScalar:
        if self.is_zero():
            return self
        if other.is_zero():
            return other
        return self._binary(other, operator.mul)

    def scale(self, value) -> NumericScalar:
        v = float(value)
        if self.is_zero():
            return self
        if v == 0:
            return NumericScalar.const(self.n, 0)
        return NumericScalar(lambda p, keys: v * self._values(p, keys), self.n, self.depth,
                             self.reads)

    def diff(self, r: int) -> NumericScalar:
        if r not in self.reads:
            return self if self.is_zero() else NumericScalar.const(self.n, 0)
        h = FD_STEP if self.depth == 0 else FD_STEP2
        return NumericScalar(lambda p, keys: five_point(self._values, p, keys, r, h),
                             self.n, self.depth + 1, self.reads)

    def _values(self, stack: np.ndarray, keys: Tuple[bytes, ...]) -> np.ndarray:
        # every field evaluated on one stack receives the same key objects,
        # so the caches of a tree hold one copy of each
        cache = self._cache
        if len(keys) == 1:
            got = cache.get(keys[0])
            if got is None:
                got = cache[keys[0]] = self.fn(stack, keys)
            return got
        got = cache.get(keys)
        if got is not None:
            return got
        import numpy as np

        m = len(stack) // len(keys)
        # a block can occur twice in a stack: it is evaluated once
        missing = {key: b for b, key in enumerate(keys) if key not in cache}
        whole = len(missing) == len(keys)
        if missing:
            rows = stack if whole else np.concatenate([stack[b * m:(b + 1) * m]
                                                       for b in missing.values()])
            got = self.fn(rows, tuple(missing))
            for b, key in enumerate(missing):
                cache[key] = got[b * m:(b + 1) * m]
            if whole:
                cache[keys] = got
                return got
        return np.concatenate([cache[key] for key in keys])

    def values(self, points) -> np.ndarray:
        """The field at each of ``points``, as an array of floats.

        Overflow and invalid operations give inf and NaN without a
        warning, as Python floats do; callers test finiteness.
        """
        import numpy as np

        points = np.asarray(points, dtype=float)
        with np.errstate(all="ignore"):
            return self._values(points, (points.tobytes(),))

    def eval_float(self, point) -> float:
        return float(self.values([tuple(point)])[0])


def _zeros(stack: np.ndarray, keys: Tuple[bytes, ...]) -> np.ndarray:
    """The batch function of the numeric literal zero."""
    import numpy as np

    return np.zeros(len(stack))


def _shifted(points: np.ndarray, k: int, cols, h: float) -> np.ndarray:
    """Each of the k blocks of the stack ``points`` shifted in column r by
    2h, h, -h and -2h, for each r of ``cols`` in turn: a (k, 4 len(cols),
    m, n) array."""
    import numpy as np

    m, n = len(points) // k, points.shape[1]
    out = points.reshape(k, 1, m, n).repeat(4 * len(cols), axis=1)
    steps = np.array([[2 * h], [h], [-h], [-2 * h]])
    for c, r in enumerate(cols):
        out[:, 4 * c:4 * c + 4, :, r] += steps
    return out


def _difference(values: np.ndarray, h: float) -> np.ndarray:
    """The five-point central difference of the values at the samples of
    ``_shifted`` in one column, a (k, 4, m, ...) array, as (k*m, ...)."""
    d = (-values[:, 0] + 8 * values[:, 1] - 8 * values[:, 2] + values[:, 3]) / (12 * h)
    return d.reshape(d.shape[0] * d.shape[1], *d.shape[2:])


def five_point(f: BatchFn, points: np.ndarray, keys: Tuple[bytes, ...],
               r: int, h: float) -> np.ndarray:
    """The five-point central difference in coordinate r of the batch
    function ``f`` at each row of the stack ``points``, whose blocks have
    the bytes ``keys``.  ``f`` is called on the stack of each block shifted
    by 2h, h, -h and -2h, block after block: once, or once per group of
    blocks when the stack would pass ``STACK_ROWS`` rows."""
    k = len(keys)
    m = len(points) // k
    g = max(1, STACK_ROWS // (4 * m))  # blocks per call
    parts = []
    for s in range(0, k, g):
        kg = min(g, k - s)
        samples = _shifted(points[s * m:(s + kg) * m], kg, (r,), h).reshape(-1, points.shape[1])
        values = f(samples, tuple(samples[b * m:(b + 1) * m].tobytes() for b in range(4 * kg)))
        parts.append(_difference(values.reshape(kg, 4, m, *values.shape[1:]), h))
    if len(parts) == 1:
        return parts[0]
    import numpy as np

    return np.concatenate(parts)


ScalarField = RationalFunc | NumericScalar


def field_is_exactly_zero(f: ScalarField) -> bool:
    """Literal-zero test, one rule for both backends."""
    return f.is_zero()


# what evaluating a numeric frame raises at a pole or an overflow
_FRAME_ERRORS = (ZeroDivisionError, OverflowError, ValueError)


class FrameChart:
    """An invertible frame field on a rational box domain."""

    def __init__(self, name: str, n: int, domain: Sequence[Tuple],
                 entries: Sequence[Sequence[RationalFunc]] | None = None, *,
                 batch_evaluator: Callable[[np.ndarray], np.ndarray] | None = None,
                 reads: Sequence[Sequence[frozenset]] | None = None):
        """Exact ``entries``, or a numeric frame: ``batch_evaluator`` maps
        an (m, n) batch of points to an (m, n, n) array of frames, and
        ``reads[i][a]`` is the set of coordinates r whose x_r entry (i, a)
        can depend on (every coordinate, unless given)."""
        if (entries is None) == (batch_evaluator is None):
            raise ChartError("provide exactly one of exact entries or a numeric evaluator")
        check_dim(n)
        self.name = name
        self.n = n
        self.domain = [(Fraction(lo), Fraction(hi)) for lo, hi in domain]
        if len(self.domain) != n or any(lo >= hi for lo, hi in self.domain):
            raise ChartError(f"domain must be {n} nonempty intervals")
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
            self._frames = batch_evaluator
            self.reads = reads or [[frozenset(range(n))] * n for _ in range(n)]

    def grid(self, points_per_axis: int = 5) -> List[Tuple[float, ...]]:
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
        """Check the evaluation grid is within bounds, and that e is finite
        and det e nonzero on it (exactly, when exact)."""
        if points_per_axis < 2:
            raise ChartError("need at least 2 grid points per axis")
        if points_per_axis ** self.n > MAX_GRID_POINTS:
            raise ChartError(f"a grid of {points_per_axis}^{self.n} points exceeds "
                             f"the limit of {MAX_GRID_POINTS}")
        if self.backend == "exact":
            for p in self.rational_grid(points_per_axis):
                if any(f.eval(p) == 0 for f in self._den_factors):
                    problem = "has a pole"
                elif self._det.eval(p) == 0:
                    problem = "is singular"
                else:
                    continue
                at = ", ".join(map(str, p))
                raise ChartError(f"frame of chart '{self.name}' {problem} at ({at})")
        else:
            import numpy as np

            grid = self.grid(points_per_axis)
            e, error = self._frames_until_error(np.array(grid))
            with np.errstate(all="ignore"):
                singular = abs(np.linalg.det(e)) < 1e-12
            # the first bad point is named, whatever is wrong there
            for p, finite, sing in zip(grid, np.isfinite(e).all(axis=(1, 2)), singular):
                if not finite:
                    raise ChartError(f"frame of chart '{self.name}' is not finite at {p}")
                if sing:
                    raise ChartError(f"frame of chart '{self.name}' is singular at {p}")
            if error:
                raise ChartError(error)

    def _frames_until_error(self, points: np.ndarray) -> Tuple[np.ndarray, str | None]:
        """e at the rows of ``points`` before the first where it cannot be
        evaluated, with the message for that row (None when there is none)."""
        try:
            return self._frames(points), None
        except _FRAME_ERRORS as exc:
            batch_error = exc
        for row in range(len(points)):  # find the first point that fails
            try:
                self._frames(points[row:row + 1])
            except _FRAME_ERRORS as exc:
                at = tuple(points[row].tolist())
                return (self._frames(points[:row]),
                        f"frame of chart '{self.name}' cannot be evaluated at {at}: {exc}")
        raise ChartError(f"frame of chart '{self.name}' cannot be evaluated: {batch_error}")

    def frames_at(self, points: np.ndarray) -> np.ndarray:
        """The numeric frame at each row of ``points``, an (m, n, n) array;
        a point where it cannot be evaluated is a ChartError, also off the
        grid (a finite-difference sample can hit a pole the grid misses)."""
        e, error = self._frames_until_error(points)
        if error:
            raise ChartError(error)
        return e

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
        live = [[[not field_is_exactly_zero(f) for f in row] for row in plane] for plane in gamma]
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
        einv = rf_matrix_inverse(chart.entries)
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
    reads = chart.reads
    # d_j e^i_a is exactly 0.0 where entry (i, a) does not read x_j, and
    # Gamma^i_{jk} is the zero where no entry of row i reads x_j
    unread = np.array([[[j not in reads[i][a] for a in span] for i in span] for j in span])
    live = ~unread.all(axis=2)  # [j, i]
    cols = [j for j in span if live[j].any()]  # the columns that need stencils

    def gamma_tensor(points: np.ndarray, keys: Tuple[bytes, ...]) -> np.ndarray:
        k, m = len(keys), len(points) // len(keys)
        # the frame at every block's stencil samples in each column of
        # ``cols``, then at the block itself, in calls of at most STACK_ROWS rows
        samples = np.concatenate([_shifted(points, k, cols, FD_STEP),
                                  points.reshape(k, 1, m, n)], axis=1)
        samples = samples.reshape(-1, n)
        frames = np.concatenate([chart.frames_at(samples[s:s + STACK_ROWS])
                                 for s in range(0, len(samples), STACK_ROWS)])
        frames = frames.reshape(k, 4 * len(cols) + 1, m, n, n)
        de = np.zeros((len(points), n, n, n))
        for c, j in enumerate(cols):
            de[:, j] = _difference(frames[:, 4 * c:4 * c + 4], FD_STEP)
        de[:, unread] = 0.0
        e = frames[:, -1].reshape(len(points), n, n)
        try:
            einv = np.linalg.inv(e)
        except np.linalg.LinAlgError:
            row = int(np.argmin(abs(np.linalg.det(e))))
            raise ChartError(f"frame of chart '{chart.name}' is singular at "
                             f"{tuple(points[row].tolist())}") from None
        # Gamma[m, i, j, k] = sum_a de[m, j, i, a] einv[m, a, k]
        return np.einsum("mjia,mak->mijk", de, einv)

    # one node caches the whole tensor per block; each live entry copies its
    # slice, so that its cache does not keep alive a tensor that was stacked
    # from cached blocks.  Through e^-1 every live entry reads what the
    # frame reads.
    frame_reads = frozenset().union(*(s for row in reads for s in row))
    tensor = NumericScalar(gamma_tensor, n, 1, frame_reads)
    zero = NumericScalar.const(n, 0)

    def gamma_entry(i: int, j: int, k: int) -> NumericScalar:
        if not live[j, i]:
            return zero
        return NumericScalar(lambda p, keys: tensor._values(p, keys)[:, i, j, k].copy(), n, 1,
                             frame_reads)

    gamma = [[[gamma_entry(i, j, k) for k in span] for j in span] for i in span]
    return ConnectionField(n, zero, gamma)


# --- covariant derivative and curvature components ---------------------------

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

    The sums form products only on the support of Gamma (``conn.upper``
    and ``conn.lower``), and skip a product whose component of t is a
    literal zero.  A sum or product with a literal-zero operand
    returns the other operand, so the terms that are left meet in the
    same order as in the full sum and the result is the same field, term
    for term.
    """
    acc = get(i, *lower).diff(r)
    upper = conn.upper[i][r]
    slots = [(conn.lower[r][l], l, lower[:s], lower[s + 1:]) for s, l in enumerate(lower)]
    for a in range(conn.n):
        if a in upper:
            t = get(a, *lower)
            if not field_is_exactly_zero(t):
                acc = acc - conn.comp(i, r, a) * t
        for support, l, before, after in slots:
            if a in support:
                t = get(i, *before, a, *after)
                if not field_is_exactly_zero(t):
                    acc = acc + conn.comp(a, r, l) * t
    return acc


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


def curvature_tilde_components(conn: ConnectionField) -> Dict[Tuple[int, int, int, int], ScalarField]:
    """The always-flat curvature, keyed (i, r, j, k) with form pair (r, j).

    Componentwise [d_r Gamma^i_{jk} + Gamma^a_{rk} Gamma^i_{ja}]
    antisymmetrized in (r, j); identically zero for frame-derived
    connections, which is the convention-sensitive sanity anchor.

    Only the pairs r < j are computed; (i, j, r, k) is the negative of
    (i, r, j, k) and (i, r, r, k) is zero.  Every key is returned, in the
    order (i, r, j, k) of the loops.
    """
    n = conn.n

    def half(i, rr, jj, k):
        # the a with both Gamma^a_{rr k} and Gamma^i_{jj a} not a literal zero
        acc = conn.comp(i, jj, k).diff(rr)
        upper = conn.upper[i][jj]
        for a in conn.lower[rr][k]:
            if a in upper:
                acc = acc + conn.comp(a, rr, k) * conn.comp(i, jj, a)
        return acc

    out = {}
    for i in range(n):
        for r in range(n):
            for j in range(n):
                for k in range(n):
                    if r < j:
                        out[(i, r, j, k)] = half(i, r, j, k) - half(i, j, r, k)
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
