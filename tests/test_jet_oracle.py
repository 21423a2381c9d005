"""Jet composition and inversion against sympy.

sympy is a test-only oracle that shares no code with flatcheck: maps are
rebuilt as elements of sympy's own polynomial ring over QQ, composed with
``PolyElement.compose`` (full expansion), and truncated by total degree
once at the end.  Random maps have n <= 3 and k <= 4; they are sparse, so
the untruncated expansions stay small.  Dense maps carry every monomial,
with a denominator of 1 to 4 chosen term by term; their shapes are the
largest whose full expansion stays cheap (n=2, k=4 and n=3, k=3).
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.rings import ring

from flatcheck.jetcore import (
    TruncatedMap,
    TruncatedPoly,
    compose_truncated,
    invert_truncated,
    multi_indices,
)

QQ = sympy.QQ
SEEDS = range(6)


def rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def rand_mono(rng: random.Random, n: int, lo: int, hi: int) -> tuple:
    mono = [0] * n
    for _ in range(rng.randint(lo, hi)):
        mono[rng.randrange(n)] += 1
    return tuple(mono)


def rand_map(rng, n, k, constant=True, terms=4):
    """A sparse order-k map whose linear part is 3 * identity plus noise."""
    while True:
        comps = []
        for i in range(n):
            coeffs = {}
            for _ in range(terms):
                mono = rand_mono(rng, n, 0 if constant else 1, k)
                coeffs[mono] = coeffs.get(mono, 0) + rand_frac(rng)
            unit = tuple(int(t == i) for t in range(n))
            coeffs[unit] = coeffs.get(unit, 0) + 3
            comps.append(coeffs)
        lin = sympy.Matrix(n, n, lambda i, j: comps[i].get(tuple(int(t == j) for t in range(n)), 0))
        if lin.det() != 0:
            return TruncatedMap([TruncatedPoly(n, k, c) for c in comps])


def dense_map(rng, n, k, constant=True):
    """An order-k map with every monomial present (the constant one only
    if ``constant``), each with its own denominator in 1..4, and a linear
    part of 5 * identity plus noise."""
    while True:
        comps = []
        for i in range(n):
            coeffs = {m: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                      for m in multi_indices(n, k) if constant or any(m)}
            coeffs[tuple(int(t == i) for t in range(n))] += 5
            comps.append(coeffs)
        lin = sympy.Matrix(n, n, lambda i, j: comps[i][tuple(int(t == j) for t in range(n))])
        if lin.det() != 0:
            return TruncatedMap([TruncatedPoly(n, k, c) for c in comps])


def to_ring(R, p) -> object:
    return R.from_dict({m: QQ(c.numerator, c.denominator) for m, c in p.coeffs.items()})


def truncate(R, elem, k):
    return R.from_dict({m: c for m, c in elem.items() if sum(m) <= k})


def displacement(R, elem):
    return R.from_dict({m: c for m, c in elem.items() if any(m)})


def sympy_compose(R, outer, inner, k):
    """outer o (inner minus its constant term), expanded, then truncated."""
    subs = list(zip(R.gens, [displacement(R, g) for g in inner]))
    return [truncate(R, f.compose(subs), k) for f in outer]


def shape(rng):
    n = rng.choice((1, 2, 3))
    return n, rng.choice((1, 2, 3, 4))


@pytest.mark.parametrize("seed", SEEDS)
def test_compose_matches_sympy_substitution(seed):
    rng = random.Random(seed)
    for _ in range(4):
        n, k = shape(rng)
        R, *_ = ring(",".join(f"x{i + 1}" for i in range(n)), QQ)
        f, g = rand_map(rng, n, k), rand_map(rng, n, k)
        got = [to_ring(R, c) for c in compose_truncated(f, g).components]
        assert got == sympy_compose(R, [to_ring(R, c) for c in f.components],
                                    [to_ring(R, c) for c in g.components], k)


@pytest.mark.parametrize("seed", SEEDS)
def test_inverse_composes_to_identity_in_sympy(seed):
    rng = random.Random(100 + seed)
    for _ in range(3):
        n, k = shape(rng)
        R, *_ = ring(",".join(f"x{i + 1}" for i in range(n)), QQ)
        f = rand_map(rng, n, k, constant=False)
        inv = invert_truncated(f)
        assert compose_truncated(inv, f) == TruncatedMap.identity(n, k)
        back = sympy_compose(R, [to_ring(R, c) for c in inv.components],
                             [to_ring(R, c) for c in f.components], k)
        assert back == list(R.gens)


@pytest.mark.parametrize("n, k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_dense_fractional_maps_match_sympy(n, k):
    # the denominators differ from term to term in both maps, so the
    # substitution's common denominator and gcd are exercised
    rng = random.Random(f"dense:{n}:{k}")
    R, *_ = ring(",".join(f"x{i + 1}" for i in range(n)), QQ)
    f, g = dense_map(rng, n, k), dense_map(rng, n, k)
    for m in (f, g):
        assert len({c.denominator for comp in m.components for c in comp.coeffs.values()}) > 1
    got = [to_ring(R, c) for c in compose_truncated(f, g).components]
    assert got == sympy_compose(R, [to_ring(R, c) for c in f.components],
                                [to_ring(R, c) for c in g.components], k)
    h = dense_map(rng, n, k, constant=False)
    inv = invert_truncated(h)
    assert compose_truncated(inv, h) == TruncatedMap.identity(n, k)
    assert sympy_compose(R, [to_ring(R, c) for c in inv.components],
                         [to_ring(R, c) for c in h.components], k) == list(R.gens)
