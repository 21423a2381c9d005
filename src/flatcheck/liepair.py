"""Lie algebra pairs over the rationals: filtrations, order, effectiveness.

Structure constants c^k_{ij} are exact Fractions with [x_i, x_j] =
sum_k c^k_{ij} x_k, kept as a table of their nonzero entries; the Jacobi
identity is validated at construction so a ``LieAlgebra`` is trustworthy
downstream.  All rank decisions use exact Gaussian elimination, never
floating point, because the order of a pair is a small integer that must
not depend on a rank tolerance.

The descending chain attached to a subalgebra h starts at h_0 = h and

    h_{i+1} = { v in h_i : [v, x] in h_i for every x in g }.

It either reaches 0 (the pair is effective; the number of steps is its
order) or stalls at a nonzero subspace, which is then the largest ideal of
g contained in h.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .literals import frac_str, parse_int, parse_rational
from .rational import echelon_nullspace, nullspace, pivot, row_echelon

Vector = Tuple[Fraction, ...]

# the largest ambient dimension a pair document may declare; sl(6), the
# largest catalog-style input, has dimension 35
MAX_PAIR_DIM = 64
# the most products of two structure constants the Jacobi check may form,
# as bounded by ``LieAlgebra.jacobi_products``; each costs about 4 us
# (Python 3.11, 2-core Xeon), and sl(6) over its Borel needs 3,442
MAX_JACOBI_PRODUCTS = 10 ** 6


class LiePairError(ValueError):
    """Invalid structure constants, representation law, or subalgebra."""


def _frac_rows(rows: Sequence[Sequence]) -> List[List[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _reduces_to_zero(vector: Sequence[Fraction], echelon: List[List[Fraction]],
                     pivots: List[int]) -> bool:
    """Whether ``vector`` lies in the span of reduced echelon rows.

    Each row is 1 at its own pivot and 0 at every other pivot, so one pass
    clears every pivot coordinate; what is left is zero exactly on the span.
    """
    rest = list(vector)
    for row, p in zip(echelon, pivots):
        f = rest[p]
        if f:
            rest = [a - f * b for a, b in zip(rest, row)]
    return not any(rest)


class LieAlgebra:
    """Finite-dimensional Lie algebra given by exact structure constants.

    ``c[(i, j)]`` lists the nonzero (k, c^k_{ij}) of [x_i, x_j] by
    increasing k, for both orders of i != j; a pair that commutes has no
    entry.
    """

    def __init__(self, dim: int, brackets: dict[tuple[int, int], Sequence] | None = None):
        """``brackets[(i, j)]`` holds [x_i, x_j] as a coefficient vector, i < j."""
        self.dim = dim
        self.c: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        if brackets:
            for (i, j), coeffs in brackets.items():
                if not 0 <= i < j < dim:
                    raise LiePairError(f"bracket key ({i}, {j}) must satisfy 0 <= i < j < dim")
                vec = [Fraction(x) for x in coeffs]
                if len(vec) != dim:
                    raise LiePairError(f"bracket ({i}, {j}) has {len(vec)} coefficients, expected {dim}")
                entries = tuple((k, x) for k, x in enumerate(vec) if x)
                if entries:
                    self.c[(i, j)] = entries
                    self.c[(j, i)] = tuple((k, -x) for k, x in entries)
        self._validate_jacobi()

    def bracket(self, v: Sequence[Fraction], w: Sequence[Fraction]) -> List[Fraction]:
        out = [Fraction(0)] * self.dim
        w_support = [(j, wj) for j, wj in enumerate(w) if wj]
        for i, vi in enumerate(v):
            if vi == 0:
                continue
            for j, wj in w_support:
                entries = self.c.get((i, j))
                if entries:
                    coeff = vi * wj
                    for k, x in entries:
                        out[k] += coeff * x
        return out

    def basis_vector(self, i: int) -> List[Fraction]:
        v = [Fraction(0)] * self.dim
        v[i] = Fraction(1)
        return v

    def _double_bracket(self, i: int, j: int, k: int, total: dict[int, Fraction]) -> None:
        """Add [[x_i, x_j], x_k] to ``total`` by contracting the table."""
        for m, x in self.c.get((i, j), ()):
            for t, y in self.c.get((m, k), ()):
                total[t] = total.get(t, 0) + x * y

    def jacobi_products(self) -> int:
        """An upper bound on the products ``_validate_jacobi`` forms: the sum
        over stored pairs i < j, and over each entry (m, .) of [x_i, x_j], of
        the number of nonzero constants c[(m, .)]."""
        per_row = [0] * self.dim
        for (m, _), entries in self.c.items():
            per_row[m] += len(entries)
        return sum(per_row[m] for (i, j), entries in self.c.items() if i < j
                   for m, _ in entries)

    def _validate_jacobi(self) -> None:
        products = self.jacobi_products()
        if products > MAX_JACOBI_PRODUCTS:
            raise LiePairError(
                f"the Jacobi check needs up to {products} products of structure constants, "
                f"more than the limit of {MAX_JACOBI_PRODUCTS}")
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    total: dict[int, Fraction] = {}
                    self._double_bracket(i, j, k, total)
                    self._double_bracket(j, k, i, total)
                    self._double_bracket(k, i, j, total)
                    if any(total.values()):
                        raise LiePairError(
                            f"Jacobi identity fails on basis triple ({i}, {j}, {k})")


class Subalgebra:
    """A subalgebra presented by a linearly independent basis in coordinates.

    The basis is kept exactly as given; membership is decided against its
    reduced row echelon form, computed once.
    """

    def __init__(self, algebra: LieAlgebra, basis: Sequence[Sequence]):
        self.algebra = algebra
        self.basis = _frac_rows(basis)
        for row in self.basis:
            if len(row) != algebra.dim:
                raise LiePairError("subalgebra basis vectors must have ambient dimension")
        self._echelon = row_echelon(self.basis)
        if len(self._echelon) != len(self.basis):
            raise LiePairError("subalgebra basis is linearly dependent")
        self._pivots = [pivot(row) for row in self._echelon]
        self._validate_closed()

    @classmethod
    def _from_echelon(cls, algebra: LieAlgebra, echelon: List[List[Fraction]]) -> Subalgebra:
        """The subalgebra spanned by reduced row echelon rows, kept as its
        basis; closure is not checked."""
        sub = cls.__new__(cls)
        sub.algebra = algebra
        sub.basis = sub._echelon = echelon
        sub._pivots = [pivot(row) for row in echelon]
        return sub

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vector: Sequence[Fraction]) -> bool:
        return _reduces_to_zero(vector, self._echelon, self._pivots)

    def _validate_closed(self) -> None:
        # [b, a] = -[a, b] and [a, a] = 0, so the pairs a before b suffice
        for t, a in enumerate(self.basis):
            for b in self.basis[t + 1:]:
                if not self.contains(self.algebra.bracket(a, b)):
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
    # u lies in span(stage) iff every w with stage . w = 0 has w . u = 0, so
    # each such w and each e_b give one linear condition on the coefficients
    # of v in stage's basis: sum_t coef_t w . [s_t, e_b] = 0.  The images
    # [s_t, e_b] are kept as their few nonzero entries.
    annihilator = echelon_nullspace(stage._echelon, stage._pivots, g.dim)
    conditions: List[List[Fraction]] = []
    dim = g.dim
    for b in range(dim):
        eb = g.basis_vector(b)
        images = [[(i, y) for i, y in enumerate(g.bracket(vec, eb)) if y] for vec in stage.basis]
        for w in annihilator:
            row = [sum(w[i] * y for i, y in img) for img in images]
            if any(row):
                conditions.append(row)
    if not conditions:
        return stage
    kernel = nullspace(conditions, stage.dim)
    new_basis = []
    for combo in kernel:
        vec = [Fraction(0)] * dim
        for coeff, base_vec in zip(combo, stage.basis):
            if coeff:
                for t in range(dim):
                    vec[t] += coeff * base_vec[t]
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


def pair_from_json(doc: dict) -> tuple[LieAlgebra, Subalgebra]:
    try:
        dim = parse_int(doc["dim"], "dim")
        entries = [((parse_int(e["i"], "i"), parse_int(e["j"], "j")),
                    [parse_rational(str(x)) for x in e["coeffs"]])
                   for e in doc["brackets"]]
        sub = [[parse_rational(str(x)) for x in vec] for vec in doc["subalgebra"]]
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
