"""Lie algebra pairs over the rationals: filtrations, order, effectiveness.

Structure constants c^k_{ij}, with [x_i, x_j] = sum_k c^k_{ij} x_k, are
kept as integer numerators over one common denominator, in a table of the
nonzero entries; ``LieAlgebra.c`` is a view of them as Fractions.  The
Jacobi identity is validated at construction, on the numerators, so a
``LieAlgebra`` is trustworthy downstream.  A subalgebra, and each stage of
its filtration, is kept as its reduced row echelon basis with each row
scaled to primitive integers; brackets, membership, closure and the
filtration work on these integer rows, and Fractions are built by the
elimination kernel of ``rational`` only for the bases that a report writes.
All rank decisions are exact, never floating point, because the order of a
pair is a small integer that must not depend on a rank tolerance.

The descending chain attached to a subalgebra h starts at h_0 = h and

    h_{i+1} = { v in h_i : [v, x] in h_i for every x in g }.

It either reaches 0 (the pair is effective; the number of steps is its
order) or stalls at a nonzero subspace, which is then the largest ideal of
g contained in h.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import List, Sequence

from .literals import frac_str, parse_int, parse_rational
from .rational import clear_denominators, nullspace, pivot, row_echelon

# the largest ambient dimension a pair document may declare; sl(6), the
# largest catalog-style input, has dimension 35
MAX_PAIR_DIM = 64
# the most products of two structure constants the Jacobi check may form,
# as bounded by ``LieAlgebra.jacobi_products``; each, a product of two
# integer numerators, costs about 0.12 us (Python 3.11, 2-core Xeon: gl(4)
# in a dense unimodular basis needs 444,091 and checks in 0.055 s), and
# sl(6) over its Borel needs 3,442
MAX_JACOBI_PRODUCTS = 10 ** 6


class LiePairError(ValueError):
    """Invalid structure constants, representation law, or subalgebra."""


def _frac_rows(rows: Sequence[Sequence]) -> List[List[Fraction]]:
    return [[x if type(x) is Fraction else Fraction(x) for x in row] for row in rows]


def _reduce(vector: List[int], rows: List[List[int]], pivots: List[int]) -> List[int]:
    """A nonzero multiple of ``vector`` minus a combination of the integer
    reduced echelon ``rows`` that clears every pivot coordinate.

    Each row is zero at every other row's pivot, so one pass clears them
    all; what is left is zero exactly when ``vector`` lies in their span.
    """
    for row, p in zip(rows, pivots):
        f = vector[p]
        if f:
            g = gcd(row[p], f)
            d, f = row[p] // g, f // g
            vector = [d * a - f * b for a, b in zip(vector, row)]
    return vector


class LieAlgebra:
    """Finite-dimensional Lie algebra given by exact structure constants.

    ``den`` is the least common denominator D of the constants, and
    ``_table[(i, j)]`` lists the nonzero (k, D c^k_{ij}) of [x_i, x_j] by
    increasing k, for both orders of i != j; a pair that commutes has no
    entry.  ``_columns`` holds the same entries by their second index, and
    ``c`` is the table with the Fractions c^k_{ij}.
    """

    def __init__(self, dim: int, brackets: dict[tuple[int, int], Sequence] | None = None):
        """``brackets[(i, j)]`` holds [x_i, x_j] as a coefficient vector, i < j."""
        self.dim = dim
        cleared = {}
        if brackets:
            for (i, j), coeffs in brackets.items():
                if not 0 <= i < j < dim:
                    raise LiePairError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
                nums, den = clear_denominators(coeffs)
                if len(nums) != dim:
                    raise LiePairError(f"bracket ({i}, {j}) has {len(nums)} coefficients, expected {dim}")
                cleared[(i, j)] = nums, den
        self.den = lcm(*[den for _, den in cleared.values()])
        self._table: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        for (i, j), (nums, den) in cleared.items():
            scale = self.den // den
            entries = tuple((k, x * scale) for k, x in enumerate(nums) if x)
            if entries:
                self._table[(i, j)] = entries
                self._table[(j, i)] = tuple((k, -x) for k, x in entries)
        self._columns: List[dict[int, tuple[tuple[int, int], ...]]] = [{} for _ in range(dim)]
        for (i, b), entries in self._table.items():
            self._columns[b][i] = entries
        self._c = None
        self._validate_jacobi()

    @property
    def c(self) -> dict[tuple[int, int], tuple[tuple[int, Fraction], ...]]:
        """The table of constants as (k, c^k_{ij}) with Fraction values,
        built on first read."""
        if self._c is None:
            den = self.den
            self._c = {key: tuple((k, Fraction(x, den)) for k, x in entries)
                       for key, entries in self._table.items()}
        return self._c

    def bracket(self, v: Sequence[Fraction], w: Sequence[Fraction]) -> List[Fraction]:
        (v_nums, v_den), (w_nums, w_den) = clear_denominators(v), clear_denominators(w)
        den = self.den * v_den * w_den
        return [Fraction(x, den) for x in self._integer_bracket(v_nums, w_nums)]

    def _integer_bracket(self, v: List[int], w: List[int]) -> List[int]:
        """D [v, w] for integer coefficient vectors v and w."""
        out = [0] * self.dim
        w_support = [(j, wj) for j, wj in enumerate(w) if wj]
        table = self._table
        for i, vi in enumerate(v):
            if vi:
                for j, wj in w_support:
                    entries = table.get((i, j))
                    if entries:
                        coeff = vi * wj
                        for k, x in entries:
                            out[k] += coeff * x
        return out

    def basis_vector(self, i: int) -> List[Fraction]:
        v = [Fraction(0)] * self.dim
        v[i] = Fraction(1)
        return v

    def _double_bracket(self, i: int, j: int, k: int, total: dict[int, int]) -> None:
        """Add D^2 [[x_i, x_j], x_k] to ``total`` by contracting the table."""
        table = self._table
        for m, x in table.get((i, j), ()):
            for t, y in table.get((m, k), ()):
                total[t] = total.get(t, 0) + x * y

    def jacobi_products(self) -> int:
        """An upper bound on the products ``_validate_jacobi`` forms: the sum
        over stored pairs i < j, and over each entry (m, .) of [x_i, x_j], of
        the number of nonzero constants c[(m, .)]."""
        per_row = [0] * self.dim
        for (m, _), entries in self._table.items():
            per_row[m] += len(entries)
        return sum(per_row[m] for (i, j), entries in self._table.items() if i < j
                   for m, _ in entries)

    def _validate_jacobi(self) -> None:
        products = self.jacobi_products()
        if products > MAX_JACOBI_PRODUCTS:
            raise LiePairError(
                f"the Jacobi check needs up to {products} products of structure constants, "
                f"more than the limit of {MAX_JACOBI_PRODUCTS}")
        # [[x_i, x_j], x_k] is zero unless [x_i, x_j] is, so a triple whose
        # three pairs all commute is skipped
        table = self._table
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                ij = (i, j) in table
                for k in range(j + 1, self.dim):
                    jk, ki = (j, k) in table, (k, i) in table
                    if not (ij or jk or ki):
                        continue
                    total: dict[int, int] = {}
                    if ij:
                        self._double_bracket(i, j, k, total)
                    if jk:
                        self._double_bracket(j, k, i, total)
                    if ki:
                        self._double_bracket(k, i, j, total)
                    if any(total.values()):
                        raise LiePairError(
                            f"Jacobi identity fails on basis triple ({i}, {j}, {k})")


class Subalgebra:
    """A subalgebra presented by a linearly independent basis in coordinates.

    ``basis`` is kept exactly as given, for reports.  Membership, closure
    and the filtration use ``_rows``, the reduced row echelon form of the
    basis with each row scaled to primitive integers with a positive pivot,
    and their pivot columns ``_pivots``.
    """

    def __init__(self, algebra: LieAlgebra, basis: Sequence[Sequence]):
        self.algebra = algebra
        self.basis = _frac_rows(basis)
        for row in self.basis:
            if len(row) != algebra.dim:
                raise LiePairError("subalgebra basis vectors must have ambient dimension")
        echelon = row_echelon(self.basis)
        if len(echelon) != len(self.basis):
            raise LiePairError("subalgebra basis is linearly dependent")
        self._keep_rows(echelon)
        self._validate_closed()

    @classmethod
    def _from_echelon(cls, algebra: LieAlgebra, echelon: List[List[Fraction]]) -> Subalgebra:
        """The subalgebra spanned by reduced row echelon rows, kept as its
        basis; closure is not checked."""
        sub = cls.__new__(cls)
        sub.algebra = algebra
        sub.basis = echelon
        sub._keep_rows(echelon)
        return sub

    def _keep_rows(self, echelon: List[List[Fraction]]) -> None:
        # a reduced row, with pivot 1, times the lcm of its denominators is
        # primitive with a positive pivot
        self._rows = [clear_denominators(row)[0] for row in echelon]
        self._pivots = [pivot(row) for row in self._rows]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence[Fraction]) -> bool:
        return not any(_reduce(clear_denominators(vector)[0], self._rows, self._pivots))

    def _validate_closed(self) -> None:
        # [b, a] = -[a, b] and [a, a] = 0, so the pairs a before b of any
        # basis of the span suffice
        bracket = self.algebra._integer_bracket
        for t, a in enumerate(self._rows):
            for b in self._rows[t + 1:]:
                if not self.contains(bracket(a, b)):
                    raise LiePairError("subalgebra basis is not closed under the bracket")


class Representation:
    """Matrices rho(b) for each basis vector b of a Lie algebra h."""

    def __init__(self, algebra: LieAlgebra, matrices: Sequence[Sequence[Sequence]]):
        self.algebra = algebra
        self.matrices = [_frac_rows(m) for m in matrices]
        if len(self.matrices) != algebra.dim:
            raise LiePairError(
                f"need one matrix per basis vector ({algebra.dim}), got {len(self.matrices)}")
        self.space_dim = len(self.matrices[0]) if self.matrices else 0
        for m in self.matrices:
            if len(m) != self.space_dim or any(len(row) != self.space_dim for row in m):
                raise LiePairError("representation matrices must be square and equally sized")
        self._validate_law()

    def apply(self, v: Sequence[Fraction]) -> List[List[Fraction]]:
        out = [[Fraction(0)] * self.space_dim for _ in range(self.space_dim)]
        for coeff, mat in zip(v, self.matrices):
            if coeff == 0:
                continue
            for r in range(self.space_dim):
                for c in range(self.space_dim):
                    out[r][c] += coeff * mat[r][c]
        return out

    def _validate_law(self) -> None:
        d = self.algebra.dim
        for i in range(d):
            for j in range(i + 1, d):
                lhs = self.apply(self.algebra.bracket(
                    self.algebra.basis_vector(i), self.algebra.basis_vector(j)))
                a, b = self.matrices[i], self.matrices[j]
                comm = _mat_sub(_mat_mul(a, b), _mat_mul(b, a))
                if lhs != comm:
                    raise LiePairError(
                        f"representation law fails on basis pair ({i}, {j})")


def _mat_mul(a, b):
    size = len(a)
    return [[sum(a[i][t] * b[t][j] for t in range(size)) for j in range(size)]
            for i in range(size)]


def _mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


# --- filtration, order, effectiveness ----------------------------------------

def filtration_of(g: LieAlgebra, h: Subalgebra) -> List[Subalgebra]:
    """The descending chain h = h_0 >= h_1 >= ..., stopping when stationary
    or zero.  Each next stage is the kernel of v -> ([v, x_b] mod h_i)_b."""
    if h.algebra is not g:
        raise LiePairError("subalgebra does not belong to the given algebra")
    chain = [h]
    current = h
    while current.dim > 0:
        nxt = _stabilizer_step(g, current)
        if nxt.dim == current.dim:
            break
        chain.append(nxt)
        current = nxt
    return chain


def _stabilizer_step(g: LieAlgebra, stage: Subalgebra) -> Subalgebra:
    """{ v in stage : [v, x] in stage for all x in g }, by exact kernels."""
    # v = sum_t coef_t s_t over the integer rows s_t of the stage.  [v, e_b]
    # lies in the stage iff its residue vanishes: L u minus the multiples
    # u[p_r] (L / d_r) s_r of the rows, which clear each pivot column p_r
    # (d_r = s_r[p_r], L = lcm of the d_r).  The residue is linear in u, and
    # u = D [v, e_b] is linear in coef, so each pair (b, free column f)
    # gives one integer condition sum_t coef_t res(D [s_t, e_b])[f] = 0.
    # The images D [s_t, e_b] are read from the column table of g.
    rows, pivots = stage._rows, stage._pivots
    dim, size = g.dim, len(rows)
    scale = lcm(*[row[p] for row, p in zip(rows, pivots)])
    clearing = {p: (scale // row[p], [(f, x) for f, x in enumerate(row) if x and f != p])
                for row, p in zip(rows, pivots)}
    supports = [[(i, x) for i, x in enumerate(row) if x] for row in rows]
    conditions: List[List[int]] = []
    for column in g._columns:
        if not column:
            continue
        by_free: dict[int, List[int]] = defaultdict(lambda: [0] * size)
        for t, support in enumerate(supports):
            image: dict[int, int] = {}
            for i, x in support:
                for k, y in column.get(i, ()):
                    image[k] = image.get(k, 0) + x * y
            for k, y in image.items():
                if k in clearing:
                    factor, rest = clearing[k]
                    y *= factor
                    for f, x in rest:
                        by_free[f][t] -= y * x
                else:
                    by_free[k][t] += y * scale
        conditions.extend(row for row in by_free.values() if any(row))
    if not conditions:
        return stage
    new_basis = []
    for combo in nullspace(conditions, size):
        vec = [0] * dim
        for coeff, row in zip(clear_denominators(combo)[0], rows):
            if coeff:
                vec = [a + coeff * b for a, b in zip(vec, row)]
        new_basis.append(vec)
    return Subalgebra._from_echelon(g, row_echelon(new_basis))


def order_of(g: LieAlgebra, h: Subalgebra) -> int | str:
    """Number of steps for the filtration to die, or "ineffective"."""
    return order_of_chain(filtration_of(g, h))


def order_of_chain(chain: List[Subalgebra]) -> int | str:
    """``order_of`` read from a chain that ``filtration_of`` returned."""
    if chain[-1].dim == 0:
        return len(chain) - 1
    return "ineffective"


def effective_check(g: LieAlgebra, h: Subalgebra) -> tuple[bool, List[List[Fraction]] | None]:
    """True when no nonzero ideal of g sits inside h.

    The stationary tail of the filtration is exactly the largest such
    ideal; its basis is returned as the witness on failure.
    """
    chain = filtration_of(g, h)
    tail = chain[-1]
    if tail.dim == 0:
        return True, None
    return False, [list(v) for v in tail.basis]


# --- the semidirect construction ----------------------------------------------

def semidirect_from_rep(h: LieAlgebra, rho: Representation) -> tuple[LieAlgebra, Subalgebra]:
    """Extend h by its module W: bracket ([a, b], rho(a) w' - rho(b) w).

    The result is h + W with h embedded as the leading coordinates; the
    Jacobi identity is re-validated, which fails exactly when rho is not a
    representation.
    """
    if rho.algebra is not h:
        raise LiePairError("representation does not act for the given algebra")
    hdim, wdim = h.dim, rho.space_dim
    dim = hdim + wdim
    brackets = {}
    for i in range(hdim):
        for j in range(i + 1, hdim):
            coeffs = [Fraction(0)] * dim
            hv = h.bracket(h.basis_vector(i), h.basis_vector(j))
            for t in range(hdim):
                coeffs[t] = hv[t]
            if any(coeffs):
                brackets[(i, j)] = coeffs
        for w in range(wdim):
            # [h_i, w_j] = rho(h_i) applied to the module vector
            coeffs = [Fraction(0)] * dim
            for t in range(wdim):
                coeffs[hdim + t] = rho.matrices[i][t][w]
            if any(coeffs):
                brackets[(i, hdim + w)] = coeffs
    g = LieAlgebra(dim, brackets)
    embedded = Subalgebra(g, [g.basis_vector(i) for i in range(hdim)])
    return g, embedded


# --- exchange documents -------------------------------------------------------

def pair_to_json(g: LieAlgebra, h: Subalgebra) -> dict:
    brackets = []
    for (i, j), entries in sorted(g.c.items()):
        if i < j:
            coeffs = [Fraction(0)] * g.dim
            for k, x in entries:
                coeffs[k] = x
            brackets.append({"i": i, "j": j, "coeffs": [frac_str(c) for c in coeffs]})
    return {
        "dim": g.dim,
        "brackets": brackets,
        "subalgebra": [[frac_str(x) for x in vec] for vec in h.basis],
    }


def _array(value, field: str) -> list:
    """A field of a pair document that must be a JSON array; a string or an
    object would otherwise be read by its characters or its keys."""
    if not isinstance(value, list):
        raise TypeError(f"{field!r} must be a list")
    return value


def pair_from_json(doc: dict) -> tuple[LieAlgebra, Subalgebra]:
    literals: dict[str, Fraction] = {}  # each distinct literal is parsed once

    def rational(x) -> Fraction:
        text = str(x)
        value = literals.get(text)
        if value is None:
            value = literals[text] = parse_rational(text)
        return value

    try:
        dim = parse_int(doc["dim"], "dim")
        entries = [((parse_int(e["i"], "i"), parse_int(e["j"], "j")),
                    [rational(x) for x in _array(e["coeffs"], "coeffs")])
                   for e in _array(doc["brackets"], "brackets")]
        sub = [[rational(x) for x in _array(vec, "subalgebra row")]
               for vec in _array(doc["subalgebra"], "subalgebra")]
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise LiePairError(f"malformed Lie pair document: {exc}") from None
    brackets = {}
    for (i, j), coeffs in entries:
        if (i, j) in brackets:
            raise LiePairError(f"Lie pair document gives the bracket ({i}, {j}) twice")
        brackets[(i, j)] = coeffs
    if not 0 <= dim <= MAX_PAIR_DIM:
        raise LiePairError(f"Lie pair dimension {dim} is outside 0..{MAX_PAIR_DIM}")
    g = LieAlgebra(dim, brackets)
    h = Subalgebra(g, sub)
    return g, h
