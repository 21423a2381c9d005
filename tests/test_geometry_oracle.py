"""Connection, torsion, curvature and the covariant derivative against sympy.

sympy is a test-only oracle that shares no code with flatcheck.  Each
random frame (n <= 3, rational function entries) is rebuilt as a sympy
matrix, and the formulas of the ``frames`` docstrings are transcribed
onto it with sympy's own inverse and derivatives:

    Gamma^i_{jk} = sum_a d_j e^i_a . (e^-1)^a_k
    T^i_{k,j}    = Gamma^i_{kj} - Gamma^i_{jk}
    R^i_{r,j,k}  = [d_r Gamma^i_{kj} + sum_a Gamma^a_{kr} Gamma^i_{aj}] - (r <-> j)
    Rtilde       = [d_r Gamma^i_{jk} + sum_a Gamma^a_{rk} Gamma^i_{ja}] - (r <-> j)
    (nabla_r t)^i_{l_1..l_m} = d_r t^i_{l..} - sum_a Gamma^i_{ra} t^a_{l..}
                               + sum_s sum_a Gamma^a_{r l_s} t^i_{l_1..a..l_m}

The oracle values are exact rationals at random rational points, compared
with ``RationalFunc.eval`` of flatcheck's normal forms at the same points.
``dt_scalar`` is checked on the torsion with 0, 1 and 2 lower slots.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import product as iproduct

import pytest
import sympy

from flatcheck.frames import (
    FrameChart,
    curvature_components,
    curvature_tilde_components,
    dt_scalar,
    gamma_from_frame,
    torsion_components,
)
from flatcheck.rational import Poly, RationalFunc

from test_jet_oracle import rand_frac, rand_mono

SEEDS = range(6)
POINTS_PER_FRAME = 2


def rand_poly_coeffs(rng: random.Random, n: int, terms: int) -> dict:
    coeffs: dict = {}
    for _ in range(terms):
        mono = rand_mono(rng, n, 0, 2)
        coeffs[mono] = coeffs.get(mono, 0) + rand_frac(rng)
    return coeffs


def rand_frame(rng: random.Random, n: int):
    """Entries (numerator coefficients, optional denominator coefficients):
    2 * identity plus at most one random term of degree <= 2 per entry, and
    one entry plus x_u divided by 1 + x_t^2, so that the frame is a
    genuinely rational function."""
    entries = []
    for i in range(n):
        row = []
        for a in range(n):
            num = rand_poly_coeffs(rng, n, rng.randint(0, 1))
            if i == a:
                zero = (0,) * n
                num[zero] = num.get(zero, 0) + 2
            row.append([num, None])
        entries.append(row)
    t, u = rng.randrange(n), rng.randrange(n)
    entry = entries[rng.randrange(n)][rng.randrange(n)]
    x_u = tuple(int(s == u) for s in range(n))
    entry[0][x_u] = entry[0].get(x_u, 0) + 1
    entry[1] = {(0,) * n: 1, tuple(2 * int(s == t) for s in range(n)): 1}
    return entries


def to_flatcheck(n: int, entries) -> FrameChart:
    def field(num, den):
        f = RationalFunc(Poly(n, num))
        return f if den is None else f * RationalFunc(Poly(n, den)).inverse()
    return FrameChart("oracle", n, [(-1, 1)] * n,
                      entries=[[field(num, den) for num, den in row] for row in entries])


def to_sympy(xs, entries) -> sympy.Matrix:
    def poly(coeffs):
        return sum((sympy.Rational(c.numerator, c.denominator)
                    * sympy.Mul(*(x ** e for x, e in zip(xs, mono)))
                    for mono, c in coeffs.items()), sympy.Integer(0))
    return sympy.Matrix([[poly(num) if den is None else poly(num) / poly(den)
                          for num, den in row] for row in entries])


class Oracle:
    """The docstring formulas at one point p, in exact sympy rationals.

    sympy differentiates the entries of e symbolically and inverts e(p);
    the derivative of the inverse is -e^-1 (d_r e) e^-1.  So Gamma and its
    first derivatives at p are exact, and so is everything built on them.
    """

    def __init__(self, xs, e: sympy.Matrix, point):
        n = len(xs)
        self.n = n
        at = dict(zip(xs, map(sympy.Rational, point)))
        einv = e.xreplace(at).inv()
        de = [e.diff(x) for x in xs]
        de_at = [m.xreplace(at) for m in de]
        # Gamma_j[i, k] = sum_a d_j e^i_a (e^-1)^a_k, and d_r Gamma_j
        self.gamma = [de_at[j] * einv for j in range(n)]
        self.dgamma = [[de[j].diff(xs[r]).xreplace(at) * einv
                        - de_at[j] * einv * de_at[r] * einv for j in range(n)]
                       for r in range(n)]

    def g(self, i, j, k):
        return self.gamma[j][i, k]

    def dg(self, r, i, j, k):
        return self.dgamma[r][j][i, k]

    def torsion(self, i, k, j):
        return self.g(i, k, j) - self.g(i, j, k)

    def dtorsion(self, r, i, k, j):
        return self.dg(r, i, k, j) - self.dg(r, i, j, k)

    def curvature(self, i, r, j, k):
        def half(rr, jj):
            return self.dg(rr, i, k, jj) + sum(self.g(a, k, rr) * self.g(i, a, jj)
                                               for a in range(self.n))
        return half(r, j) - half(j, r)

    def curvature_tilde(self, i, r, j, k):
        def half(rr, jj):
            return self.dg(rr, i, jj, k) + sum(self.g(a, rr, k) * self.g(i, jj, a)
                                               for a in range(self.n))
        return half(r, j) - half(j, r)

    def nabla(self, t, dt, r, i, lower):
        """``t(i, *lower)`` is the tensor at p, ``dt(r, i, *lower)`` its d_r."""
        out = dt(r, i, *lower)
        out -= sum(self.g(i, r, a) * t(a, *lower) for a in range(self.n))
        for s, l in enumerate(lower):
            out += sum(self.g(a, r, l) * t(i, *lower[:s], a, *lower[s + 1:])
                       for a in range(self.n))
        return out


def frac(v) -> Fraction:
    v = sympy.Rational(v)
    return Fraction(int(v.p), int(v.q))


@cache
def build(seed: int):
    """The flatcheck chart of one random frame, its connection, and an
    oracle at each random point where the frame is defined and invertible."""
    rng = random.Random(seed)
    n = 2 + seed % 2
    entries = rand_frame(rng, n)
    points = [tuple(rand_frac(rng) for _ in range(n)) for _ in range(POINTS_PER_FRAME)]
    xs = sympy.symbols(f"x0:{n}")
    e = to_sympy(xs, entries)
    oracles = []
    for p in points:
        # the denominators 1 + x_t^2 never vanish; e(p) may be singular
        if e.xreplace(dict(zip(xs, map(sympy.Rational, p)))).det() != 0:
            oracles.append((p, Oracle(xs, e, p)))
    assert oracles, "no usable point; pick another seed"
    return n, gamma_from_frame(to_flatcheck(n, entries)), oracles


@pytest.mark.parametrize("seed", SEEDS)
def test_connection_torsion_curvature_match_sympy(seed):
    n, conn, oracles = build(seed)
    tor = torsion_components(conn)
    curv = curvature_components(conn)
    flat = curvature_tilde_components(conn)
    for p, oracle in oracles:
        for i, j, k in iproduct(range(n), repeat=3):
            assert conn.comp(i, j, k).eval(p) == frac(oracle.g(i, j, k)), (i, j, k)
            assert tor[(i, k, j)].eval(p) == frac(oracle.torsion(i, k, j)), (i, k, j)
        for key in iproduct(range(n), repeat=4):
            assert curv[key].eval(p) == frac(oracle.curvature(*key)), key
            assert flat[key].eval(p) == frac(oracle.curvature_tilde(*key)), key
        # not vacuous: the random frames are curved
        assert any(curv[key].eval(p) for key in iproduct(range(n), repeat=4))


@pytest.mark.parametrize("slots", [0, 1, 2])
@pytest.mark.parametrize("seed", SEEDS)
def test_covariant_derivative_of_torsion_matches_sympy(seed, slots):
    n, conn, oracles = build(seed)
    tor = torsion_components(conn)
    # T^i_{k,j} with its last 2 - slots lower indices held at (0, 1)[slots:]
    fixed = (0, 1)[slots:]
    get = lambda i, *lower: tor[(i, *lower, *fixed)]
    for p, oracle in oracles:
        t = lambda i, *lower: oracle.torsion(i, *lower, *fixed)
        dt = lambda r, i, *lower: oracle.dtorsion(r, i, *lower, *fixed)
        values = []
        for r, i, *lower in iproduct(range(n), repeat=2 + slots):
            got = dt_scalar(conn, get, r, i, *lower).eval(p)
            assert got == frac(oracle.nabla(t, dt, r, i, lower)), (r, i, lower)
            values.append(got)
        assert any(values)
