"""The sparse and incremental algebra kernels against references.

Each kernel is compared with a plainer computation of the same thing:

* the Jacobi check on the sparse bracket table with a dense copy that
  brackets basis vectors through the full cube of structure constants;
* ``Subalgebra.contains``, which reduces against one stored echelon basis,
  with a sympy rank test;
* ``invert_truncated``, whose sweeps grow in order, with the sweep that
  composes at the full order every time, under ``map_to_json``;
* ``TruncatedPoly.__mul__``, which stops at the first right-hand term of
  too high a degree, with a sympy product truncated by total degree.

The references are copied here, so they share no code with the kernels.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy

from flatcheck.jetcore import (
    TruncatedMap,
    TruncatedPoly,
    compose_truncated,
    invert_truncated,
    map_to_json,
)
from flatcheck.liepair import LieAlgebra, LiePairError, Subalgebra
from flatcheck.rational import rf_matrix_inverse
from test_jet_oracle import rand_frac, rand_mono

SEEDS = range(8)


# --- Jacobi ---------------------------------------------------------------------

def dense_first_jacobi_failure(dim: int, brackets: dict) -> tuple | None:
    """The first basis triple i < j < k, in lexicographic order, on which
    the Jacobi identity fails, from the dense cube c[i][j][k]."""
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in brackets.items():
        for k in range(dim):
            c[i][j][k] = Fraction(vec[k])
            c[j][i][k] = -Fraction(vec[k])

    def bracket(v, w):
        out = [Fraction(0)] * dim
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    out[k] += v[i] * w[j] * c[i][j][k]
        return out

    def e(t):
        return [Fraction(int(s == t)) for s in range(dim)]

    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                total = [a + b + d for a, b, d in zip(bracket(bracket(e(i), e(j)), e(k)),
                                                      bracket(bracket(e(j), e(k)), e(i)),
                                                      bracket(bracket(e(k), e(i)), e(j)))]
                if any(total):
                    return (i, j, k)
    return None


def rand_brackets(rng: random.Random, dim: int) -> dict:
    """Sparse random constants; some satisfy Jacobi, most do not."""
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.random() < 0.3:
                vec = [0] * dim
                vec[rng.randrange(dim)] = rand_frac(rng)
                if rng.random() < 0.3:
                    vec[rng.randrange(dim)] = rand_frac(rng)
                brackets[(i, j)] = vec
    return brackets


@pytest.mark.parametrize("seed", SEEDS)
def test_jacobi_reports_the_dense_first_failure(seed):
    rng = random.Random(seed)
    outcomes = set()
    for _ in range(25):
        dim = rng.randint(3, 6)
        brackets = rand_brackets(rng, dim)
        expected = dense_first_jacobi_failure(dim, brackets)
        outcomes.add(expected is None)
        if expected is None:
            LieAlgebra(dim, brackets)
        else:
            with pytest.raises(LiePairError) as err:
                LieAlgebra(dim, brackets)
            assert str(err.value) == f"Jacobi identity fails on basis triple {expected}"
    assert outcomes == {True, False}  # both verdicts were exercised


# --- subalgebra membership ---------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_contains_agrees_with_a_sympy_rank_test(seed):
    rng = random.Random(seed)
    dim = rng.randint(2, 7)
    g = LieAlgebra(dim)  # abelian: every subspace is a subalgebra
    while True:
        rows = [[rand_frac(rng) if rng.random() < 0.5 else 0 for _ in range(dim)]
                for _ in range(rng.randint(1, dim - 1))]
        if sympy.Matrix(rows).rank() == len(rows):
            break
    h = Subalgebra(g, rows)
    inside = outside = 0
    for _ in range(40):
        if rng.random() < 0.5:
            combo = [rng.randint(-2, 2) for _ in rows]
            vec = [sum(x * row[t] for x, row in zip(combo, rows)) for t in range(dim)]
        else:
            vec = [rand_frac(rng) if rng.random() < 0.5 else Fraction(0) for _ in range(dim)]
        expected = sympy.Matrix(rows + [vec]).rank() == len(rows)
        assert h.contains(vec) == expected
        inside += expected
        outside += not expected
    assert inside and outside


# --- jet products and inversion ------------------------------------------------------

def rand_tpoly(rng: random.Random, n: int, k: int, terms: int) -> TruncatedPoly:
    coeffs = {}
    for _ in range(terms):
        mono = rand_mono(rng, n, 0, k)
        coeffs[mono] = coeffs.get(mono, 0) + rand_frac(rng)
    return TruncatedPoly(n, k, coeffs)


@pytest.mark.parametrize("seed", SEEDS)
def test_truncated_product_matches_sympy(seed):
    rng = random.Random(seed)
    for _ in range(10):
        n, k = rng.randint(1, 3), rng.randint(0, 6)
        a, b = rand_tpoly(rng, n, k, 8), rand_tpoly(rng, n, k, 8)
        xs = sympy.symbols(f"x0:{n}")

        def expr(p):
            return sum((sympy.Rational(c.numerator, c.denominator)
                        * sympy.prod(x ** e for x, e in zip(xs, m))
                        for m, c in p.coeffs.items()), sympy.Integer(0))

        full = sympy.Poly(sympy.expand(expr(a) * expr(b)), *xs).as_dict()
        expected = {m: Fraction(int(c.p), int(c.q)) for m, c in full.items()
                    if sum(m) <= k and c != 0}
        assert (a * b).coeffs == expected


def full_order_inverse(f: TruncatedMap) -> TruncatedMap:
    """The inverse by k - 1 fixed-point sweeps that each compose at order k."""
    n, k = f.n, f.k
    lin_inv = rf_matrix_inverse(f.linear_part())
    higher = TruncatedMap([TruncatedPoly(n, k, {m: c for m, c in p.coeffs.items() if sum(m) >= 2})
                           for p in f.components])

    def apply_lin_inv(comps):
        out = []
        for i in range(n):
            acc = TruncatedPoly(n, k)
            for j in range(n):
                if lin_inv[i][j]:
                    acc = acc + comps[j].scale(lin_inv[i][j])
            out.append(acc)
        return TruncatedMap(out)

    ident = TruncatedMap.identity(n, k).components
    g = apply_lin_inv(ident)
    for _ in range(max(k - 1, 0)):
        h_of_g = compose_truncated(higher, g)
        g = apply_lin_inv([a - b for a, b in zip(ident, h_of_g.components)])
    return g


def rand_invertible_map(rng: random.Random, n: int, k: int) -> TruncatedMap:
    """Random terms, plus 3 * identity so the linear part is rarely singular."""
    while True:
        comps = [rand_tpoly(rng, n, k, 6) + TruncatedPoly(n, k, {unit: 3})
                 for unit in (tuple(int(t == i) for t in range(n)) for i in range(n))]
        f = TruncatedMap(comps)
        if sympy.Matrix(f.linear_part()).det() != 0:
            return f


@pytest.mark.parametrize("seed", SEEDS)
def test_growing_order_inverse_matches_the_full_order_sweep(seed):
    rng = random.Random(seed)
    for _ in range(3):
        n, k = rng.randint(1, 3), rng.randint(1, 6)
        f = rand_invertible_map(rng, n, k)
        assert map_to_json(invert_truncated(f)) == map_to_json(full_order_inverse(f))
