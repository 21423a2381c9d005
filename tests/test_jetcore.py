"""Truncated map arithmetic: composition, inversion, projection.

The independent oracle for composition expands outer o inner with full
(untruncated) polynomial products and truncates once at the end; the
production path truncates at every step, so agreement is meaningful.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from flatcheck.jetcore import (
    JetError,
    TruncatedMap,
    TruncatedPoly,
    compose_truncated,
    invert_truncated,
    map_from_json,
    map_to_json,
    multi_indices,
    project_order,
)
from flatcheck.rational import Poly, rf_matrix_inverse, unit_mono


def random_map(n, k, rng, lin_boost=4):
    """A random centered order-k map (no constant term) with invertible
    linear part."""
    while True:
        derivs = {}
        for i in range(n):
            for mono in multi_indices(n, k):
                if sum(mono) == 0:
                    continue
                derivs[(i, mono)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        # shift the diagonal away from the generic singular locus, then check
        for i in range(n):
            derivs[(i, unit_mono(n, i))] += lin_boost
        m = TruncatedMap.from_derivatives(n, k, derivs)
        try:
            rf_matrix_inverse(m.linear_part())
        except ZeroDivisionError:
            continue
        return m


def oracle_compose(outer, inner):
    """Full polynomial substitution, truncated once at the end."""
    n, k = outer.n, outer.k
    disp = []
    for comp in inner.components:
        coeffs = dict(comp.coeffs)
        coeffs.pop((0,) * n, None)
        disp.append(Poly(n, coeffs))
    out = []
    for comp in outer.components:
        acc = Poly.zero(n)
        for mono, c in comp.coeffs.items():
            term = Poly.const(n, c)
            for j, e in enumerate(mono):
                for _ in range(e):
                    term = term * disp[j]
            acc = acc + term
        out.append(TruncatedPoly(n, k, {m: c for m, c in acc.coeffs.items() if sum(m) <= k}))
    return TruncatedMap(out)


def test_chain_rule_triple_from_group_law():
    # order-3 jets on the line compose by the cubic chain rule; the
    # classic instance (1,1,0) after (2,0,1) lands on (2, 4, 1)
    outer = TruncatedMap.from_derivatives(1, 3, {(0, (1,)): 1, (0, (2,)): 1})
    inner = TruncatedMap.from_derivatives(1, 3, {(0, (1,)): 2, (0, (3,)): 1})
    composed = compose_truncated(outer, inner)
    assert composed.derivative_triple() == (2, 4, 1)
    # and with the roles flipped the chain rule gives (2, 2, 1)
    assert compose_truncated(inner, outer).derivative_triple() == (2, 2, 1)


def test_chain_rule_closed_form_random():
    rng = random.Random(7)
    for _ in range(100):
        a = [Fraction(rng.randint(1, 5)), Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))]
        b = [Fraction(rng.randint(1, 5)), Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))]
        fa = TruncatedMap.from_derivatives(1, 3, {(0, (r + 1,)): a[r] for r in range(3)})
        fb = TruncatedMap.from_derivatives(1, 3, {(0, (r + 1,)): b[r] for r in range(3)})
        got = compose_truncated(fa, fb).derivative_triple()
        expect = (a[0] * b[0],
                  a[0] * b[1] + a[1] * b[0] ** 2,
                  a[0] * b[2] + 3 * a[1] * b[0] * b[1] + a[2] * b[0] ** 3)
        assert got == expect


def test_identity_composition():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.choice((1, 2, 3))
        k = rng.choice((1, 2, 3))
        f = random_map(n, k, rng)
        ident = TruncatedMap.identity(n, k)
        assert compose_truncated(ident, f) == f
        assert compose_truncated(f, ident) == f


def test_two_dim_hand_example():
    # outer (u + v^2, v), inner (x + y, y^2) at order 2: the quartic dies
    outer = TruncatedMap([
        TruncatedPoly(2, 2, {(1, 0): 1, (0, 2): 1}),
        TruncatedPoly(2, 2, {(0, 1): 1}),
    ])
    inner = TruncatedMap([
        TruncatedPoly(2, 2, {(1, 0): 1, (0, 1): 1}),
        TruncatedPoly(2, 2, {(0, 2): 1}),
    ])
    got = compose_truncated(outer, inner)
    assert got.components[0].coeffs == {(1, 0): 1, (0, 1): 1}
    assert got.components[1].coeffs == {(0, 2): 1}
    assert got == oracle_compose(outer, inner)


def test_compose_matches_full_expansion_oracle():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.choice((1, 2, 3))
        k = rng.choice((2, 3, 4)) if n < 3 else rng.choice((2, 3))
        f, g = random_map(n, k, rng), random_map(n, k, rng)
        assert compose_truncated(f, g) == oracle_compose(f, g)


def test_compose_makes_one_product_per_monomial_of_the_outer_map(monkeypatch):
    # a dense n=3, k=6 map: each monomial of degree 2..k is one product of
    # its parent with a displacement component, shared by all components
    n, k = 3, 6
    rng = random.Random(11)
    f, g = (TruncatedMap([TruncatedPoly(n, k, {m: rng.choice((-2, -1, 1, 2))
                                               for m in multi_indices(n, k)})
                          for _ in range(n)]) for _ in range(2))
    monos = {m for comp in f.components for m in comp.coeffs if sum(m) >= 2}
    assert len(monos) == len(multi_indices(n, k)) - 1 - n
    calls = 0
    product = TruncatedPoly.__mul__

    def counted(a, b):
        nonlocal calls
        calls += 1
        return product(a, b)

    monkeypatch.setattr(TruncatedPoly, "__mul__", counted)
    compose_truncated(f, g)
    assert 0 < calls <= len(monos)


def test_compose_dimension_mismatch():
    f = random_map(2, 2, random.Random(0))
    g = random_map(3, 2, random.Random(0))
    with pytest.raises(JetError, match="n=2.*n=3"):
        compose_truncated(f, g)
    h = random_map(2, 3, random.Random(0))
    with pytest.raises(JetError, match="k=2.*k=3"):
        compose_truncated(f, h)


def test_invert_linear_map():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    f = TruncatedMap.from_derivatives(2, 2, {
        (i, tuple(1 if t == j else 0 for t in range(2))): m[i][j]
        for i in range(2) for j in range(2)})
    inv = invert_truncated(f)
    # inverse matrix of [[2,1],[1,1]] is [[1,-1],[-1,2]]
    assert inv.linear_part() == [[1, -1], [-1, 2]]


def test_invert_quadratic_line():
    f = TruncatedMap([TruncatedPoly(1, 2, {(1,): 1, (2,): 1})])  # x + x^2
    g = invert_truncated(f)
    assert g.components[0].coeffs == {(1,): Fraction(1), (2,): Fraction(-1)}
    assert compose_truncated(g, f) == TruncatedMap.identity(1, 2)


def test_invert_round_trips():
    rng = random.Random(11)
    for _ in range(50):
        ident = TruncatedMap.identity(2, 3)
        # the terms of order 2 and 3 of a random map over a unit linear part
        f = random_map(2, 3, rng, lin_boost=0)
        f = TruncatedMap([TruncatedPoly(2, 3, {m: c for m, c in comp.coeffs.items() if sum(m) > 1}) + e
                          for comp, e in zip(f.components, ident.components)])
        g = invert_truncated(f)
        assert compose_truncated(g, f) == ident
        assert compose_truncated(f, g) == ident


def test_invert_is_involution():
    rng = random.Random(13)
    for _ in range(25):
        f = random_map(2, 3, rng)  # centered: inversion works on the displacement part
        assert invert_truncated(invert_truncated(f)) == f


def test_invert_singular_linear_part():
    f = TruncatedMap([
        TruncatedPoly(2, 2, {(1, 0): 1, (0, 1): 1}),
        TruncatedPoly(2, 2, {(1, 0): 1, (0, 1): 1}),
    ])
    with pytest.raises(JetError, match="singular"):
        invert_truncated(f)


def test_project_order_basics():
    rng = random.Random(17)
    f = random_map(1, 3, rng)
    assert project_order(f, f.k) == f
    triple = f.derivative_triple()
    projected = project_order(f, 2)
    assert projected.k == 2
    assert projected.derivative_triple() == triple[:2]
    with pytest.raises(JetError):
        project_order(f, 4)
    with pytest.raises(JetError):
        project_order(f, -1)


def test_project_is_composition_homomorphism():
    rng = random.Random(19)
    for _ in range(50):
        n = rng.choice((1, 2))
        f, g = random_map(n, 3, rng), random_map(n, 3, rng)
        for r in (1, 2):
            lhs = project_order(compose_truncated(f, g), r)
            rhs = compose_truncated(project_order(f, r), project_order(g, r))
            assert lhs == rhs


def test_project_commutes_with_inversion():
    rng = random.Random(23)
    for _ in range(25):
        f = random_map(2, 3, rng)  # centered, so inversion applies
        for r in (1, 2):
            assert project_order(invert_truncated(f), r) == invert_truncated(project_order(f, r))


def test_associativity_exact():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.choice((1, 2, 3))
        k = rng.choice((2, 3, 4))
        f, g, h = (random_map(n, k, rng) for _ in range(3))
        assert compose_truncated(f, compose_truncated(g, h)) == \
            compose_truncated(compose_truncated(f, g), h)


def test_taylor_vs_derivative_bookkeeping():
    # stored values are Taylor coefficients; accessors convert by the
    # multi-index factorial
    p = TruncatedPoly(2, 3, {(2, 1): Fraction(5)})
    assert p.derivative_component((2, 1)) == 5 * 2  # 2! * 1!
    f = TruncatedMap.from_derivatives(2, 3, {(0, (2, 1)): Fraction(12)})
    assert f.components[0].coeff((2, 1)) == Fraction(6)  # 12 / (2! 1!)


def test_from_derivatives_refuses_a_component_above_its_order_and_drops_zeros():
    with pytest.raises(JetError, match=r"\(1, 2\) exceeds order 2"):
        TruncatedMap.from_derivatives(2, 2, {(0, (1, 0)): 1, (1, (1, 2)): 1})
    f = TruncatedMap.from_derivatives(2, 2, {(0, (1, 0)): 1, (0, (0, 2)): 0, (1, (0, 1)): Fraction(0)})
    assert f.components[0].coeffs == {(1, 0): 1}
    assert f.components[1].coeffs == {}
    assert f == TruncatedMap([TruncatedPoly(2, 2, {(1, 0): 1}), TruncatedPoly(2, 2)])


def test_jet_json_round_trip():
    rng = random.Random(31)
    for _ in range(10):
        f = random_map(2, 3, rng)
        doc = map_to_json(f)
        assert map_from_json(doc) == f


def test_jet_json_malformed():
    with pytest.raises(JetError, match="missing field"):
        map_from_json({"n": 2})
    with pytest.raises(JetError, match="announces n=2"):
        map_from_json({"n": 2, "k": 1, "components": [[]]})
    bad = {"n": 1, "k": 1, "components": [[{"multiindex": [2], "num": "1", "den": "1"}]]}
    with pytest.raises(JetError, match="exceeds order"):
        map_from_json(bad)
