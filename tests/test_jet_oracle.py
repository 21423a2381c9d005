"""Jet composition, inversion and pushforward against sympy.

sympy is a test-only oracle that shares no code with flatcheck: maps are
rebuilt as elements of sympy's own polynomial ring over QQ, composed with
``PolyElement.compose`` (full expansion), and truncated by total degree
once at the end.  The inverse used by the pushforward oracle is solved in
sympy by its own fixed-point iteration.  Random maps have n <= 3 and
k <= 4; they are sparse, so the untruncated expansions stay small.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest
import sympy
from sympy.polys.rings import ring

from flatcheck.arrows import Arrow
from flatcheck.jetcore import TruncatedMap, TruncatedPoly, compose_truncated, invert_truncated
from flatcheck.spencer import PointJet, jet_pushforward

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


def sympy_inverse(R, f, k):
    """Inverse of the centered map f through order k: g = L^-1 (x - H o g)."""
    n = len(f)
    unit = [tuple(int(t == j) for t in range(n)) for j in range(n)]
    lin = sympy.Matrix(n, n, lambda i, j: dict(f[i].items()).get(unit[j], 0))
    lin_inv = lin.inv()
    higher = [R.from_dict({m: c for m, c in fi.items() if sum(m) >= 2}) for fi in f]

    def apply_inv(vec):
        return [sum((R(QQ(lin_inv[i, j].p, lin_inv[i, j].q)) * vec[j] for j in range(n)), R.zero)
                for i in range(n)]

    g = apply_inv(list(R.gens))
    for _ in range(k):
        h_of_g = sympy_compose(R, higher, g, k)
        g = apply_inv([x - h for x, h in zip(R.gens, h_of_g)])
    return g


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


@pytest.mark.parametrize("seed", SEEDS)
def test_pushforward_matches_sympy(seed):
    rng = random.Random(200 + seed)
    for _ in range(3):
        n = rng.choice((1, 2, 3))
        k = rng.choice((0, 1, 2, 3))  # the arrow has order k + 1 <= 4
        R, *_ = ring(",".join(f"x{i + 1}" for i in range(n)), QQ)
        jet = rand_map(rng, n, k + 1, constant=False)
        source = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        target = tuple(Fraction(rng.randint(-2, 2), 2) for _ in range(n))
        coeffs = {}
        for _ in range(4):
            coeffs[(rng.randrange(n), rand_mono(rng, n, 0, k))] = rand_frac(rng)
        v = PointJet(n, k, source, coeffs)
        pushed = jet_pushforward(Arrow(source, target, jet), v)

        f = [to_ring(R, c) for c in jet.components]
        g = sympy_inverse(R, f, k)
        subs = list(zip(R.gens, g))
        v_polys = [R.zero] * n
        for (a, alpha), c in coeffs.items():
            mono_fact = 1
            for e in alpha:
                mono_fact *= factorial(e)
            v_polys[a] += R.from_dict({alpha: QQ(c.numerator, c.denominator * mono_fact)})
        assert pushed.point == target
        for i in range(n):
            w = sum((f[i].diff(R.gens[a]).compose(subs) * v_polys[a].compose(subs)
                     for a in range(n)), R.zero)
            w = truncate(R, w, k)
            expect = {}
            for alpha, c in w.items():
                mono_fact = 1
                for e in alpha:
                    mono_fact *= factorial(e)
                expect[(i, alpha)] = Fraction(int(c.numerator) * mono_fact, int(c.denominator))
            got = {key: c for key, c in pushed.coeffs.items() if key[0] == i}
            assert got == expect
