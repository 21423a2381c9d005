"""The order-3 one-variable jet group.

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
    ArrowError,
    G3_IDENTITY,
    G3Jet,
    g3_compose,
    g3_invert,
    mobius_split,
    schwarzian_defect,
)
from flatcheck.jetcore import compose_truncated


def random_g3(rng):
    return G3Jet(Fraction(rng.randint(1, 6)),
                 Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                 Fraction(rng.randint(-5, 5), rng.randint(1, 3)))


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


def test_g3_jet_is_an_immutable_value():
    a = G3Jet(2, Fraction(1, 2), 0)
    same = G3Jet(Fraction(4, 2), Fraction(1, 2), Fraction(0))
    assert a == same and hash(a) == hash(same) and len({a, same, G3_IDENTITY}) == 2
    assert a != G3Jet(2, Fraction(1, 2), 1) and a != a.as_tuple()
    for name in ("a1", "a2", "a3", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    with pytest.raises(AttributeError):
        del a.a1
    assert a.as_tuple() == (2, Fraction(1, 2), 0)


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


def test_schwarzian_defect_checks_its_quotient(monkeypatch):
    # the invariant must hold under python -O too, so it is not an assert
    import flatcheck.arrows as arrows_mod
    monkeypatch.setattr(arrows_mod, "g3_compose", lambda a, b: G3Jet(1, 1, 0))
    with pytest.raises(ArrowError, match="not \\(1, 0, S\\)"):
        schwarzian_defect(G3Jet(1, 0, 6))
