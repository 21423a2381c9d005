"""Shared test charts and random generators.

Charts beyond the built-in catalog:

* unipotent4 - generic polynomial lower-triangular frame, det = 1; every
  curvature identity is non-vacuous (nonzero 3- and 4-forms) on it.
* sl2rational - the group SL(2, R) in the coordinates (a, b, c) with
  d = (1 + b c)/a, frame = left-invariant columns; an exact chart of a
  nonabelian noncompact group, with zero curvature and a genuinely
  nonzero odd trace form.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from flatcheck.frames import FrameChart
from flatcheck.jetcore import multi_indices
from flatcheck.rational import Poly, RationalFunc


def rf(p: Poly) -> RationalFunc:
    return RationalFunc(p)


def make_unipotent4() -> FrameChart:
    n = 4
    x1, x2, x3 = (Poly.var(n, i) for i in range(3))
    one = Poly.const(n, 1)
    zero = Poly.zero(n)
    rows = [
        [one, zero, zero, zero],
        [x1, one, zero, zero],
        [x2 * x2, x3, one, zero],
        [x3, x1 * x2, x1, one],
    ]
    return FrameChart("unipotent4", n, [(-1, 1)] * 4,
                      entries=[[rf(p) for p in row] for row in rows])


def make_sl2rational() -> FrameChart:
    n = 3
    a, b, c = (Poly.var(n, i) for i in range(3))
    one = Poly.const(n, 1)
    zero = Poly.zero(n)
    d = rf(one + b * c) * rf(a).inverse()
    entries = [
        [rf(a), rf(zero), rf(b)],
        [rf(b).scale(-1), rf(a), rf(zero)],
        [rf(c), rf(zero), d],
    ]
    return FrameChart("sl2rational", n,
                      [(Fraction(3, 4), Fraction(5, 4)),
                       (Fraction(-1, 4), Fraction(1, 4)),
                       (Fraction(-1, 4), Fraction(1, 4))],
                      entries=entries)


def make_sl2mix4() -> FrameChart:
    """sl2rational with its first column coupled to a fourth coordinate.

    Curved (nonzero homogeneity obstruction), with non-nilpotent Hom
    values: the squared-curvature trace is genuinely nonzero, so the
    transgression identity is checked with both sides alive.
    """
    n = 4
    a, b, c, w = (Poly.var(n, i) for i in range(4))
    one = Poly.const(n, 1)
    zero = Poly.zero(n)
    d = rf(one + b * c) * rf(a).inverse()
    coupling = rf(one + w * w)
    entries = [
        [rf(a) * coupling, rf(zero), rf(b), rf(zero)],
        [rf(b).scale(-1), rf(a), rf(zero), rf(zero)],
        [rf(c), rf(zero), d, rf(zero)],
        [rf(zero), rf(zero), rf(zero), rf(one)],
    ]
    quarter = Fraction(1, 4)
    return FrameChart("sl2mix4", n,
                      [(Fraction(3, 4), Fraction(5, 4)),
                       (-quarter, quarter), (-quarter, quarter), (-quarter, quarter)],
                      entries=entries)


def dense_chart_document(n: int, quadratic: bool = False) -> dict:
    """The seeded "dense" chart document on [-1/10, 1/10]^n: identity plus
    two terms (k/7)*x_a per entry, and with ``quadratic`` one more term
    (k/7)*x_a*x_b, k in {1, 2, 3}.  Its structure functions are not
    constant and its floats are not dyadic, so a report on it sees a
    change of summation order in its last bits.  Named dense<n>, or
    dense<n>q with ``quadratic``."""
    rng = random.Random(1)

    def term(factors: int) -> str:
        k = rng.choice([1, 2, 3])
        return f"({k}/7)" + "".join(f"*x{rng.randrange(n) + 1}" for _ in range(factors))

    def entry(i: int, a: int) -> str:
        terms = ["1"] if i == a else []
        terms += [term(1), term(1)] + ([term(2)] if quadratic else [])
        return " + ".join(terms)

    return {"name": f"dense{n}" + "q" * quadratic, "n": n, "domain": [["-1/10", "1/10"]] * n,
            "frame": [[entry(i, a) for a in range(n)] for i in range(n)]}


def borel_pair_document(n: int, gl: bool = False) -> dict:
    """The pair document of sl(n), or gl(n) with ``gl``, over its Borel
    subalgebra of upper-triangular matrices, written in a seeded unimodular
    basis.

    The matrix basis e is the diagonal part (E_ii for gl(n), H_i = E_ii -
    E_{i+1,i+1} for sl(n)), then E_ij for i < j, then E_ji; the Borel
    subalgebra is spanned by all but the last n(n-1)/2.  The document uses
    f = C e, with C a seeded product of 3 dim integer row operations
    x_i += k x_j, k in {-2, -1, 1, 2}, so det C = 1 and both C and its
    inverse are integral: the structure constants stay integers.  C is
    redrawn until the highest-root vector E_1n has a first nonzero
    coordinate other than +-1 in the basis f, so that the reduced basis of
    the line it spans, a filtration stage of sl(n) and part of one of gl(n),
    has a denominator of 2 or more.
    """
    rng = random.Random(f"borel:{n}:{gl}")
    uppers = [(i, j) for i in range(n) for j in range(n) if i < j]
    units = uppers + [(j, i) for i, j in uppers]
    diag = n if gl else n - 1
    dim = diag + len(units)
    index = {u: diag + t for t, u in enumerate(units)}

    def coords(mat: dict) -> list:
        vec = [0] * dim
        running = 0
        for i in range(diag):
            running += mat.get((i, i), 0)
            vec[i] = mat.get((i, i), 0) if gl else running
        for key, v in mat.items():
            if key[0] != key[1]:
                vec[index[key]] = v
        return vec

    def commutator(a: dict, b: dict) -> dict:
        out = {}
        for (i, j), x in a.items():
            for (k, m), y in b.items():
                if j == k:
                    out[(i, m)] = out.get((i, m), 0) + x * y
                if m == i:
                    out[(k, j)] = out.get((k, j), 0) - x * y
        return out

    diagonal = [{(i, i): 1} if gl else {(i, i): 1, (i + 1, i + 1): -1} for i in range(diag)]
    basis = diagonal + [{u: 1} for u in units]
    theta = index[(0, n - 1)]
    while True:
        c = [[int(i == j) for j in range(dim)] for i in range(dim)]
        c_inv = [row[:] for row in c]
        for _ in range(3 * dim):
            i, j = rng.sample(range(dim), 2)
            k = rng.choice((-2, -1, 1, 2))
            c[i] = [a + k * b for a, b in zip(c[i], c[j])]
            for row in c_inv:
                row[j] -= k * row[i]
        if abs(next(x for x in c_inv[theta] if x)) > 1:
            break

    def in_f(vec: list) -> list:
        return [sum(vec[t] * c_inv[t][s] for t in range(dim)) for s in range(dim)]

    def f(a: int) -> dict:
        out = {}
        for t, x in enumerate(c[a]):
            for key, y in basis[t].items():
                out[key] = out.get(key, 0) + x * y
        return out

    brackets = []
    for a in range(dim):
        for b in range(a + 1, dim):
            vec = in_f(coords(commutator(f(a), f(b))))
            if any(vec):
                brackets.append({"i": a, "j": b, "coeffs": [f"{x}/1" for x in vec]})
    return {"dim": dim, "brackets": brackets,
            "subalgebra": [[f"{x}/1" for x in c_inv[s]] for s in range(diag + len(uppers))]}


def random_poly(n: int, deg: int, rng: random.Random, span: int = 3) -> Poly:
    coeffs = {}
    for mono in multi_indices(n, deg):
        c = rng.randint(-span, span)
        if c:
            coeffs[mono] = Fraction(c)
    return Poly(n, coeffs)


@pytest.fixture
def unipotent4():
    return make_unipotent4()


@pytest.fixture
def sl2rational():
    return make_sl2rational()
