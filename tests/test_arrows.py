"""Arrow groupoid laws and the order-3 one-variable group.

The closed-form group law, the Mobius splitting, and the Schwarzian
defect are checked against two independent oracles: the generic
truncated-map composer, and the classical Schwarzian formula
f'''/f' - (3/2)(f''/f')^2.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from flatcheck.arrows import (
    Arrow,
    ArrowError,
    G3_IDENTITY,
    G3Jet,
    arrow_compose,
    arrow_from_json,
    arrow_invert,
    arrow_to_json,
    g3_compose,
    g3_invert,
    mobius_split,
    schwarzian_defect,
)
from flatcheck.jetcore import JetError, TruncatedMap, compose_truncated

from test_jetcore import random_map


def random_arrow(n, k, rng, source=None, target=None):
    source = source if source is not None else tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
    target = target if target is not None else tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
    jet = random_map(n, k, rng)
    for c in jet.components:
        c.coeffs.pop((0,) * n, None)
    return Arrow(source, target, jet)


def random_g3(rng):
    return G3Jet(Fraction(rng.randint(1, 6)),
                 Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                 Fraction(rng.randint(-5, 5), rng.randint(1, 3)))


def test_identity_arrow_neutral():
    rng = random.Random(3)
    for _ in range(20):
        a = random_arrow(2, 3, rng)
        left = arrow_compose(Arrow.identity(a.target, 2, 3), a)
        right = arrow_compose(a, Arrow.identity(a.source, 2, 3))
        assert left == a
        assert right == a


def test_arrow_group_law_matches_closed_form():
    # (2,0,1) applied first, then (1,1,0): the chain rule gives (2,4,1)
    first = Arrow((0,), (0,), G3Jet(2, 0, 1).to_map())
    second = Arrow((0,), (0,), G3Jet(1, 1, 0).to_map())
    combined = arrow_compose(second, first)
    assert G3Jet.from_map(combined.jet).as_tuple() == (2, 4, 1)


def test_arrow_associativity_when_endpoints_chain():
    rng = random.Random(4)
    for _ in range(20):
        p, q, r, s = (0, 0), (1, 0), (1, 1), (0, 1)
        a = random_arrow(2, 3, rng, source=p, target=q)
        b = random_arrow(2, 3, rng, source=q, target=r)
        c = random_arrow(2, 3, rng, source=r, target=s)
        assert arrow_compose(c, arrow_compose(b, a)) == \
            arrow_compose(arrow_compose(c, b), a)


def test_arrow_compose_then_cancel():
    rng = random.Random(5)
    for _ in range(50):
        a = random_arrow(2, 2, rng)
        b = random_arrow(2, 2, rng, source=a.source, target=a.source)
        binv = arrow_invert(b)
        assert arrow_compose(arrow_compose(a, b), binv) == a


def test_arrow_endpoint_mismatch():
    a = Arrow((0, 0), (1, 0), TruncatedMap.identity(2, 2))
    b = Arrow((2, 2), (3, 3), TruncatedMap.identity(2, 2))
    with pytest.raises(ArrowError, match=r"\(1, 0\).*\(2, 2\)"):
        arrow_compose(b, a)


def test_arrow_invert_round_trips():
    rng = random.Random(7)
    for _ in range(100):
        a = random_arrow(2, 3, rng)
        inv = arrow_invert(a)
        assert inv.source == a.target and inv.target == a.source
        assert arrow_compose(inv, a) == Arrow.identity(a.source, 2, 3)
        assert arrow_compose(a, inv) == Arrow.identity(a.target, 2, 3)


def test_identity_arrow_self_inverse():
    ident = Arrow.identity((1, 2), 2, 3)
    assert arrow_invert(ident) == ident


def test_g3_inverse_instance():
    a = G3Jet(1, 1, 0)
    assert g3_compose(g3_invert(a), a).as_tuple() == (1, 0, 0)
    assert g3_compose(a, g3_invert(a)).as_tuple() == (1, 0, 0)


def test_g3_neutral_element():
    rng = random.Random(11)
    for _ in range(30):
        b = random_g3(rng)
        assert g3_compose(G3_IDENTITY, b) == b
        assert g3_compose(b, G3_IDENTITY) == b


def test_g3_law_instance():
    assert g3_compose(G3Jet(1, 1, 0), G3Jet(2, 0, 1)).as_tuple() == (2, 4, 1)


def test_g3_matches_generic_composer():
    rng = random.Random(13)
    for _ in range(200):
        a, b = random_g3(rng), random_g3(rng)
        via_group = g3_compose(a, b)
        via_maps = G3Jet.from_map(compose_truncated(a.to_map(), b.to_map()))
        assert via_group == via_maps


def test_g3_associativity():
    rng = random.Random(17)
    for _ in range(100):
        a, b, c = (random_g3(rng) for _ in range(3))
        assert g3_compose(a, g3_compose(b, c)) == g3_compose(g3_compose(a, b), c)


def test_mobius_split_values():
    assert mobius_split(2, 1).as_tuple() == (2, 1, Fraction(3, 4))
    assert mobius_split(1, 0).as_tuple() == (1, 0, 0)
    with pytest.raises(ArrowError):
        mobius_split(0, 1)


def test_mobius_split_homomorphism_instance():
    # eps(1,1)^2 = eps(1,2) = (1, 2, 6)
    e = mobius_split(1, 1)
    assert e.as_tuple() == (1, 1, Fraction(3, 2))
    squared = g3_compose(e, e)
    assert squared.as_tuple() == (1, 2, 6)
    assert squared == mobius_split(1, 2)


def test_mobius_split_homomorphism_random():
    rng = random.Random(19)
    for _ in range(200):
        a1, a2 = Fraction(rng.randint(1, 6)), Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b1, b2 = Fraction(rng.randint(1, 6)), Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        # 2-jet composition: (a1 b1, a1 b2 + a2 b1^2)
        prod = (a1 * b1, a1 * b2 + a2 * b1 ** 2)
        lhs = mobius_split(*prod)
        rhs = g3_compose(mobius_split(a1, a2), mobius_split(b1, b2))
        assert lhs == rhs


def test_schwarzian_kills_split_jets():
    rng = random.Random(23)
    for _ in range(50):
        a1, a2 = Fraction(rng.randint(1, 6)), Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert schwarzian_defect(mobius_split(a1, a2)) == 0


def test_schwarzian_of_inversion_jet():
    # f(z) = -1/z at z = 1 has jet (1, -2, 6); fractional-linear, so defect 0
    assert schwarzian_defect(G3Jet(1, -2, 6)) == 0


def test_schwarzian_of_cubic_jet():
    # f(z) = z + z^3 at 0 has jet (1, 0, 6); defect equals the classical value 6
    assert schwarzian_defect(G3Jet(1, 0, 6)) == 6


def test_schwarzian_matches_classical_formula():
    rng = random.Random(29)
    for _ in range(100):
        a = random_g3(rng)
        classical = a.a3 / a.a1 - Fraction(3, 2) * (a.a2 / a.a1) ** 2
        assert schwarzian_defect(a) == classical


def test_schwarzian_zero_iff_split_image():
    rng = random.Random(31)
    for _ in range(50):
        a = random_g3(rng)
        s = schwarzian_defect(a)
        if s == 0:
            assert a == mobius_split(a.a1, a.a2)
        else:
            assert a != mobius_split(a.a1, a.a2)


def test_arrow_jet_must_be_centered():
    jet = TruncatedMap.from_derivatives(1, 2, {(0, (0,)): 1, (0, (1,)): 1})
    with pytest.raises(ArrowError, match="centered"):
        Arrow((0,), (0,), jet)


def test_arrow_json_round_trip():
    rng = random.Random(37)
    for _ in range(10):
        a = random_arrow(2, 3, rng)
        assert arrow_from_json(arrow_to_json(a)) == a


@pytest.mark.parametrize("field, value", [("source", ["abc"]), ("target", ["1/0"])])
def test_arrow_json_bad_endpoint_is_jet_error(field, value):
    doc = arrow_to_json(random_arrow(1, 2, random.Random(3)))
    doc[field] = value
    with pytest.raises(JetError, match="malformed arrow document"):
        arrow_from_json(doc)


def test_schwarzian_defect_checks_its_quotient(monkeypatch):
    # the invariant must hold under python -O too, so it is not an assert
    import flatcheck.arrows as arrows_mod
    monkeypatch.setattr(arrows_mod, "g3_compose", lambda a, b: G3Jet(1, 1, 0))
    with pytest.raises(ArrowError, match="not \\(1, 0, S\\)"):
        schwarzian_defect(G3Jet(1, 0, 6))
