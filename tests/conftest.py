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


# Nilpotent Lie algebras, 1-based: (i, j) -> {k: c} for [X_i, X_j] = sum of c X_k
NILPOTENT_ALGEBRAS = {
    "heisenberg": (3, {(1, 2): {3: 1}}),
    "nil5": (5, {(1, 2): {3: 1}, (1, 3): {4: 1}, (2, 3): {5: 1}}),
    "filiform4": (4, {(1, 2): {3: 1}, (1, 3): {4: 1}}),
    "filiform5": (5, {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 4): {5: 1}}),
}


def nilpotent_chart_document(name: str) -> dict:
    """The chart document, on [-1, 1]^n, of the nilpotent Lie group of
    ``NILPOTENT_ALGEBRAS[name]`` in coordinates of the second kind,
    g(x) = exp(x_1 X_1) ... exp(x_n X_n), in the given basis.

    Column k of the Maurer-Cartan coframe g^-1 dg is
    Ad(exp(-x_n X_n)) ... Ad(exp(-x_(k+1) X_(k+1))) X_k, with
    Ad(exp(-t X)) = sum over j of (-t)^j ad_X^j / j!, and the frame, whose
    columns are the left-invariant fields, is the inverse of the coframe.
    The coframe is I + N with N nilpotent, so the inverse is the finite
    sum of the (-N)^j.  Polynomials are dicts from exponent tuples to
    Fractions: nothing here uses flatcheck, so the chart is an independent
    witness of a Lie group.
    """
    n, table = NILPOTENT_ALGEBRAS[name]
    bracket = [[{} for _ in range(n)] for _ in range(n)]  # 0-based, antisymmetric
    for (i, j), out in table.items():
        bracket[i - 1][j - 1] = {k - 1: Fraction(c) for k, c in out.items()}
        bracket[j - 1][i - 1] = {k - 1: -Fraction(c) for k, c in out.items()}

    def add(p: dict, q: dict) -> dict:
        out = dict(p)
        for m, c in q.items():
            out[m] = out.get(m, 0) + c
            if not out[m]:
                del out[m]
        return out

    def mul(p: dict, q: dict) -> dict:
        out: dict = {}
        for ma, a in p.items():
            for mb, b in q.items():
                out = add(out, {tuple(map(sum, zip(ma, mb))): a * b})
        return out

    def ad(a: int, vec: list) -> list:
        out = [{} for _ in range(n)]
        for b, p in enumerate(vec):
            for k, c in bracket[a][b].items():
                out[k] = add(out[k], {m: c * v for m, v in p.items()})
        return out

    def ad_exp(a: int, vec: list) -> list:
        """Ad(exp(-x_(a+1) X_(a+1))) applied to ``vec``."""
        total, term, j = vec, vec, 0
        while any(term):
            j += 1
            step = {tuple(int(t == a) for t in range(n)): Fraction(-1, j)}
            term = [mul(step, p) for p in ad(a, term)]
            total = [add(p, q) for p, q in zip(total, term)]
        return total

    one = {(0,) * n: Fraction(1)}
    coframe_cols = []
    for k in range(n):
        col = [one if t == k else {} for t in range(n)]
        for a in range(k + 1, n):
            col = ad_exp(a, col)
        coframe_cols.append(col)
    minus_n = [[{m: -c for m, c in coframe_cols[k][i].items()} if i != k else {}
                for k in range(n)] for i in range(n)]

    def matmul(x: list, y: list) -> list:
        out = [[{} for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for k in range(n):
                for t in range(n):
                    out[i][k] = add(out[i][k], mul(x[i][t], y[t][k]))
        return out

    frame = [[one if i == k else {} for k in range(n)] for i in range(n)]
    power = frame
    for _ in range(n):
        power = matmul(power, minus_n)
        frame = [[add(p, q) for p, q in zip(r, s)] for r, s in zip(frame, power)]
    assert not any(any(row) for row in matmul(power, minus_n)), "the coframe is not unipotent"

    def text(p: dict) -> str:
        terms = [f"({c.numerator}/{c.denominator})"
                 + "".join(f"*x{t + 1}" * e for t, e in enumerate(m)) for m, c in p.items()]
        return " + ".join(terms) or "0"

    return {"name": f"{name}-second-kind", "n": n, "domain": [["-1", "1"]] * n,
            "frame": [[text(p) for p in row] for row in frame]}


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
