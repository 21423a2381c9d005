"""The exact elimination kernel in ``flatcheck.rational`` against sympy.

sympy is a test-only oracle that shares no code with flatcheck.  Every
check runs over both fields the kernel serves: random Fraction matrices
(Q) and random 3x3 matrices of polynomial RationalFuncs (Q(x1, x2, x3)).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from flatcheck.rational import (
    Poly,
    RationalFunc,
    nullspace,
    rf_matrix_inverse,
    row_echelon,
)

NVARS = 3
K = sympy.QQ.frac_field(*sympy.symbols(f"x1:{NVARS + 1}"))  # sympy's own Q(x1, x2, x3)
SEEDS = range(4)


def to_field(value):
    if isinstance(value, Fraction):
        return K(sympy.QQ(value.numerator, value.denominator))

    def poly(p: Poly):
        out = K.zero
        for mono, c in p.coeffs.items():
            term = K(sympy.QQ(c.numerator, c.denominator))
            for g, e in zip(K.gens, mono):
                term *= g ** e
            out += term
        return out

    den = K.one
    for f, e in value.den.items():
        den *= poly(f) ** e
    return poly(value.num) / den


def domain_matrix(rows):
    return DomainMatrix([[to_field(x) for x in row] for row in rows],
                        (len(rows), len(rows[0])), K)


def sympy_det(rows):
    return domain_matrix(rows).det()


def dot(u, v):
    """u . v computed in sympy's field."""
    return sum((to_field(a) * to_field(b) for a, b in zip(u, v)), K.zero)


def rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def rand_rf(rng: random.Random) -> RationalFunc:
    """A random polynomial of degree <= 2 in three variables."""
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        mono = [0] * NVARS
        for _ in range(rng.randint(0, 2)):
            mono[rng.randrange(NVARS)] += 1
        coeffs[tuple(mono)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return RationalFunc(Poly(NVARS, coeffs))


def frac_matrix(rng, nrows, ncols):
    return [[rand_frac(rng) for _ in range(ncols)] for _ in range(nrows)]


def rf_matrix(rng, nrows, ncols):
    return [[rand_rf(rng) for _ in range(ncols)] for _ in range(nrows)]


def combine(coeffs, rows):
    """sum_t coeffs[t] * rows[t], in the field of the entries."""
    out = [coeffs[0] * x for x in rows[0]]
    for c, row in zip(coeffs[1:], rows[1:]):
        out = [a + c * x for a, x in zip(out, row)]
    return out


def low_rank(rng, make, nrows, ncols, r):
    """An nrows x ncols product of random nrows x r and r x ncols factors."""
    left, right = make(rng, nrows, r), make(rng, r, ncols)
    return [combine(row, right) for row in left]


FIELDS = {"Q": frac_matrix, "Q(x)": rf_matrix}


# --- inverse ---------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_times_matrix_is_identity(field, seed):
    rng = random.Random(seed)
    make = FIELDS[field]
    for size in range(1, 6 if field == "Q" else 4):
        m = make(rng, size, size)
        if sympy_det(m) == 0:
            continue
        inv = rf_matrix_inverse(m)
        cols = list(zip(*m))
        for i, row in enumerate(inv):
            assert [dot(row, col) for col in cols] == [K.one if j == i else K.zero
                                                       for j in range(size)]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_singular_inverse_raises(field, seed):
    make = FIELDS[field]
    m = low_rank(random.Random(seed), make, 3, 3, 2)
    with pytest.raises(ZeroDivisionError, match="singular"):
        rf_matrix_inverse(m)


def test_sparse_elimination_multiplies_no_zero(monkeypatch):
    # a zero entry is left as it is, so a sparse frame costs no product
    # with a zero operand; the results still match sympy
    rng = random.Random(7)
    zero = RationalFunc(Poly.zero(NVARS))
    m = [[rand_rf(rng) if j in (i - 1, i) else zero for j in range(4)] for i in range(4)]
    zero_products = []
    original = RationalFunc.__mul__

    def counted(self, other):
        if self.is_zero() or other.is_zero():
            zero_products.append((self, other))
        return original(self, other)

    monkeypatch.setattr(RationalFunc, "__mul__", counted)
    inv = rf_matrix_inverse(m)
    assert zero_products == []
    cols = list(zip(*m))
    for i, row in enumerate(inv):
        assert [dot(row, col) for col in cols] == [K.one if j == i else K.zero for j in range(4)]


# --- rank and nullspace ------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_nullspace_dimension_and_annihilation(field, seed):
    rng = random.Random(seed)
    make = FIELDS[field]
    shape = (4, 5) if field == "Q" else (3, 3)
    for r in range(1, shape[0] + 1):
        m = low_rank(rng, make, shape[0], shape[1], r)
        rk = len(row_echelon(m))
        if field == "Q":
            assert rk == domain_matrix(m).rank()
        kernel = nullspace(m, shape[1])
        assert len(kernel) == shape[1] - rk
        for vec in kernel:
            assert all(dot(row, vec) == 0 for row in m)
