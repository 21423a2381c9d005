"""Spencer operator, brackets, prolongation, pushforward.

Two implementations of the algebraic bracket exist on purpose: the point
version goes through honest polynomial representatives, the field version
through the Leibniz-expanded bilinear formula.  Their agreement on random
jets is itself one of the checks.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from flatcheck.arrows import Arrow, arrow_compose
from flatcheck.jetcore import JetError, multi_indices
from flatcheck.rational import Poly, RationalFunc
from flatcheck.spencer import (
    JetField,
    PointJet,
    algebraic_bracket,
    algebraic_bracket_fields,
    jet_field_from_json,
    jet_field_to_json,
    jet_pushforward,
    kernel_bracket,
    lift_with_top,
    prolong,
    spencer_bracket,
    spencer_operator,
    zero_pad_lift,
)

from conftest import random_poly
from test_arrows import random_arrow


def rf(p):
    return RationalFunc(p)


def random_vector_field(n, deg, rng):
    return [rf(random_poly(n, deg, rng)) for _ in range(n)]


def random_jet_field(n, k, rng, deg=2):
    comps = {}
    for i in range(n):
        for alpha in multi_indices(n, k):
            comps[(i, alpha)] = rf(random_poly(n, deg, rng))
    return JetField(n, k, comps)


def random_point_jet(n, k, rng, kernel=False):
    coeffs = {}
    for i in range(n):
        for alpha in multi_indices(n, k):
            if kernel and sum(alpha) == 0:
                continue
            coeffs[(i, alpha)] = Fraction(rng.randint(-3, 3))
    return PointJet(n, k, (0,) * n, coeffs)


def classical_bracket(v, w):
    n = len(v)
    out = []
    for i in range(n):
        acc = rf(Poly.zero(n))
        for c in range(n):
            acc = acc + v[c] * w[i].diff(c) - w[c] * v[i].diff(c)
        out.append(acc)
    return out


# --- prolongation ------------------------------------------------------------

def test_prolong_constant_field():
    n = 2
    v = [rf(Poly.const(n, 3)), rf(Poly.const(n, -1))]
    xi = prolong(v, 3)
    for (i, alpha), f in xi.components.items():
        if sum(alpha) > 0:
            assert f.is_zero()


def test_prolong_quadratic_example():
    n = 2
    x, y = Poly.var(n, 0), Poly.var(n, 1)
    xi = prolong([rf(x * x), rf(x * y)], 1)
    assert xi.comp(0, (1, 0)) == rf(x.scale(2))
    assert xi.comp(1, (1, 0)) == rf(y)
    assert xi.comp(1, (0, 1)) == rf(x)
    assert xi.comp(0, (0, 1)).is_zero()


def test_prolong_commutes_with_projection():
    rng = random.Random(3)
    for _ in range(10):
        v = random_vector_field(2, 3, rng)
        for k in (1, 2, 3):
            for r in range(k + 1):
                assert prolong(v, k).project(r) == prolong(v, r)


# --- Spencer operator ---------------------------------------------------------

def test_spencer_kills_prolongations():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.choice((1, 2))
        v = random_vector_field(n, 4, rng)
        for k in (1, 2, 3, 4):
            assert spencer_operator(prolong(v, k)).is_zero()


def test_spencer_on_constant_delta_field():
    n = 2
    comps = {}
    for i in range(n):
        e = [0] * n
        e[i] = 1
        comps[(i, tuple(e))] = rf(Poly.const(n, 1))
    xi = JetField(n, 1, comps)
    d = spencer_operator(xi)
    for r in range(n):
        for i in range(n):
            expect = Fraction(-1) if r == i else Fraction(0)
            assert d.comp(r, i, (0, 0)).eval((0, 0)) == expect


def test_spencer_linearity():
    rng = random.Random(7)
    for _ in range(10):
        a = random_jet_field(2, 2, rng)
        b = random_jet_field(2, 2, rng)
        ca, cb = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        combo = a.scale(ca) + b.scale(cb)
        lhs = spencer_operator(combo)
        for (r, i, alpha) in set(lhs.components) | set(spencer_operator(a).components):
            want = spencer_operator(a).comp(r, i, alpha).scale(ca) \
                + spencer_operator(b).comp(r, i, alpha).scale(cb)
            assert (lhs.comp(r, i, alpha) - want).is_zero()


def test_spencer_rejects_order_zero():
    xi = JetField(2, 0, {(0, (0, 0)): rf(Poly.const(2, 1))})
    with pytest.raises(JetError, match="k >= 1"):
        spencer_operator(xi)


# --- algebraic bracket ---------------------------------------------------------

def test_kernel_bracket_linear_matrices():
    rng = random.Random(11)
    n = 2
    for _ in range(20):
        A = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        B = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]

        def linear_jet(m):
            coeffs = {}
            for i in range(n):
                for j in range(n):
                    e = [0] * n
                    e[j] = 1
                    coeffs[(i, tuple(e))] = m[i][j]
            return PointJet(n, 1, (0, 0), coeffs)

        got = kernel_bracket(linear_jet(A), linear_jet(B))
        for i in range(n):
            for j in range(n):
                e = [0] * n
                e[j] = 1
                expect = sum(B[i][t] * A[t][j] - A[i][t] * B[t][j] for t in range(n))
                assert got.coeff(i, tuple(e)) == expect


def test_bracket_of_holonomic_jets():
    rng = random.Random(13)
    n = 2
    for _ in range(10):
        v = random_vector_field(n, 3, rng)
        w = random_vector_field(n, 3, rng)
        k = 3
        a = prolong(v, k).at_point((0, 0))
        b = prolong(w, k).at_point((0, 0))
        got = algebraic_bracket(a, b)
        expect = prolong(classical_bracket(v, w), k - 1).at_point((0, 0))
        assert got == expect


def test_bracket_antisymmetry():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2, 3))
        a = random_point_jet(n, k, rng)
        b = random_point_jet(n, k, rng)
        ab = algebraic_bracket(a, b)
        ba = algebraic_bracket(b, a)
        assert all(ab.coeff(i, al) == -ba.coeff(i, al)
                   for i in range(n) for al in multi_indices(n, k - 1))


def test_bracket_point_mismatch():
    a = PointJet(1, 1, (0,), {})
    b = PointJet(1, 1, (1,), {})
    with pytest.raises(JetError, match="different points"):
        algebraic_bracket(a, b)


def test_kernel_bracket_jacobi():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2, 3))
        a, b, c = (random_point_jet(n, k, rng, kernel=True) for _ in range(3))
        total = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            term = kernel_bracket(kernel_bracket(x, y), z)
            for key, val in term.coeffs.items():
                total[key] = total.get(key, Fraction(0)) + val
        assert all(v == 0 for v in total.values())


def test_field_bracket_matches_point_bracket():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2))
        a = random_jet_field(n, k, rng)
        b = random_jet_field(n, k, rng)
        field_result = algebraic_bracket_fields(a, b)
        pt = tuple(Fraction(rng.randint(-1, 1), 2) for _ in range(n))
        assert field_result.at_point(pt) == algebraic_bracket(a.at_point(pt), b.at_point(pt))


# --- Spencer bracket -----------------------------------------------------------

def test_spencer_bracket_classical_instance():
    # [x d/dx, d/dx] = -d/dx
    x = Poly.var(1, 0)
    xi = JetField(1, 0, {(0, (0,)): rf(x)})
    eta = JetField(1, 0, {(0, (0,)): rf(Poly.const(1, 1))})
    got = spencer_bracket(xi, eta)
    assert got.comp(0, (0,)) == rf(Poly.const(1, -1))


def test_spencer_bracket_prolongation_instance():
    n = 2
    x, y = Poly.var(n, 0), Poly.var(n, 1)
    v = [rf(x * x), rf(Poly.zero(n))]
    w = [rf(Poly.zero(n)), rf(y)]
    lhs = spencer_bracket(prolong(v, 2), prolong(w, 2))
    rhs = prolong(classical_bracket(v, w), 2)
    assert lhs == rhs


def test_spencer_bracket_prolongation_random():
    rng = random.Random(29)
    for _ in range(50):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2))
        v = random_vector_field(n, 2, rng)
        w = random_vector_field(n, 2, rng)
        assert spencer_bracket(prolong(v, k), prolong(w, k)) == \
            prolong(classical_bracket(v, w), k)


def test_spencer_bracket_lift_independence():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2))
        a = random_jet_field(n, k, rng)
        b = random_jet_field(n, k, rng)
        top = {}
        for i in range(n):
            for alpha in multi_indices(n, k + 1):
                if sum(alpha) == k + 1:
                    top[(i, alpha)] = rf(random_poly(n, 2, rng))
        assert spencer_bracket(a, b, lift=zero_pad_lift) == \
            spencer_bracket(a, b, lift=lambda f: lift_with_top(f, top))


def test_spencer_bracket_antisymmetry_and_jacobi():
    rng = random.Random(37)
    for _ in range(8):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2))
        a, b, c = (random_jet_field(n, k, rng, deg=1) for _ in range(3))
        assert (spencer_bracket(a, b) + spencer_bracket(b, a)).is_zero()
        jac = spencer_bracket(a, spencer_bracket(b, c)) \
            + spencer_bracket(b, spencer_bracket(c, a)) \
            + spencer_bracket(c, spencer_bracket(a, b))
        assert jac.is_zero()


def test_spencer_bracket_commutes_with_projection():
    rng = random.Random(41)
    for _ in range(10):
        a = random_jet_field(2, 2, rng)
        b = random_jet_field(2, 2, rng)
        whole = spencer_bracket(a, b)
        for r in (0, 1, 2):
            assert whole.project(r) == spencer_bracket(a.project(r), b.project(r))


# --- pushforward ----------------------------------------------------------------

def test_pushforward_identity_arrow():
    rng = random.Random(43)
    for _ in range(10):
        v = random_point_jet(2, 2, rng)
        ident = Arrow.identity((0, 0), 2, 3)
        assert jet_pushforward(ident, v) == v


def test_pushforward_linear_is_tangent_map():
    m = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(1)]]
    from flatcheck.jetcore import TruncatedMap
    jet = TruncatedMap.from_derivatives(2, 1, {
        (i, tuple(1 if t == j else 0 for t in range(2))): m[i][j]
        for i in range(2) for j in range(2)})
    a = Arrow((0, 0), (5, 5), jet)
    v = PointJet(2, 0, (0, 0), {(0, (0, 0)): Fraction(3), (1, (0, 0)): Fraction(5)})
    pushed = jet_pushforward(a, v)
    assert pushed.point == (5, 5)
    assert pushed.order_zero() == [11, 5]


def test_pushforward_functorial():
    rng = random.Random(47)
    for _ in range(50):
        p, q, r = (0, 0), (1, -1), (2, 1)
        a1 = random_arrow(2, 3, rng, source=p, target=q)
        a2 = random_arrow(2, 3, rng, source=q, target=r)
        v = random_point_jet(2, 2, rng)
        assert jet_pushforward(arrow_compose(a2, a1), v) == \
            jet_pushforward(a2, jet_pushforward(a1, v))


def test_pushforward_inverse_round_trip():
    from flatcheck.arrows import arrow_invert
    rng = random.Random(51)
    for _ in range(20):
        a = random_arrow(2, 3, rng, source=(0, 0), target=(1, 1))
        v = random_point_jet(2, 2, rng)
        assert jet_pushforward(arrow_invert(a), jet_pushforward(a, v)) == v


def test_pushforward_is_linear_iso():
    rng = random.Random(53)
    a = random_arrow(2, 2, rng, source=(0, 0), target=(1, 1))
    v = random_point_jet(2, 1, rng)
    w = random_point_jet(2, 1, rng)
    pv, pw = jet_pushforward(a, v), jet_pushforward(a, w)
    summed = PointJet(2, 1, (0, 0), {
        key: v.coeffs.get(key, Fraction(0)) + w.coeffs.get(key, Fraction(0))
        for key in set(v.coeffs) | set(w.coeffs)})
    psum = jet_pushforward(a, summed)
    for key in set(pv.coeffs) | set(pw.coeffs) | set(psum.coeffs):
        assert psum.coeffs.get(key, Fraction(0)) == \
            pv.coeffs.get(key, Fraction(0)) + pw.coeffs.get(key, Fraction(0))


def test_pushforward_order_mismatch():
    rng = random.Random(59)
    a = random_arrow(2, 2, rng)
    v = random_point_jet(2, 2, rng)
    with pytest.raises(JetError, match="exceed"):
        jet_pushforward(a, v)


# --- exchange format -------------------------------------------------------------

def test_jet_field_json_round_trip():
    rng = random.Random(61)
    for _ in range(5):
        xi = random_jet_field(2, 2, rng)
        doc = jet_field_to_json(xi)
        assert jet_field_from_json(doc) == xi


def test_jet_field_json_with_denominators():
    n = 2
    x = Poly.var(n, 0)
    den = Poly.const(n, 1) + x * x
    f = RationalFunc(Poly.const(n, 1), {den: 1})
    xi = JetField(n, 1, {(0, (1, 0)): f})
    assert jet_field_from_json(jet_field_to_json(xi)) == xi


@pytest.mark.parametrize("doc", [
    {"n": 1, "k": 1},  # no components
    {"n": 1, "k": 1, "components": {"0": [{"den": []}]}},  # no numerator
    {"n": 1, "k": 1, "components": {"a": [{"num": []}]}},  # bad multi-index key
    {"n": 1, "k": 1, "components": {"0": [{"num": [{"multiindex": [0], "num": "x", "den": "1"}]}]}},
    {"n": 1, "k": 1, "components": {"0": [{"num": [{"multiindex": [0, 0], "num": "1", "den": "1"}]}]}},
    {"n": 1, "k": 1, "components": {"0": [{"num": [], "den": [{"power": "two", "poly": []}]}]}},
    {"n": 1, "k": 1, "components": {"0": [{"num": [{"multiindex": [0], "num": "1", "den": "1"}],
                                           "den": [{"power": 1, "poly": []}]}]}},  # zero factor
    {"n": 1, "k": 1, "components": {"2": [{"num": [{"multiindex": [0], "num": "1", "den": "1"}]}]}},
    {"n": 1, "k": 1, "components": []},
    {"n": 1, "k": 1, "components": {"0": [{"num": [{"multiindex": [1], "num": "1", "den": "1"}],
                                           "den": [{"power": -1, "poly": [
                                               {"multiindex": [0], "num": "1", "den": "1"},
                                               {"multiindex": [1], "num": "1", "den": "1"}]}]}]}},
])
def test_jet_field_json_malformed(doc):
    with pytest.raises(JetError, match="malformed jet field document"):
        jet_field_from_json(doc)
