"""The order-3 one-variable jet group, its Mobius splitting and the
Schwarzian defect.

A 3-jet on the line is kept in closed form as its derivative triple
(a1, a2, a3), a1 != 0, with the group law

    (a1, a2, a3)(b1, b2, b3)
        = (a1 b1, a1 b2 + a2 b1^2, a1 b3 + 3 a2 b1 b2 + a3 b1^3),

the jet of the composition "a after b".  ``G3Jet.to_map`` and
``G3Jet.from_map`` convert to and from the generic ``TruncatedMap``, which
is how the closed form is checked against the truncated composer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # the group law runs without the generic jet code
    from .jetcore import TruncatedMap


class ArrowError(ValueError):
    """Not an invertible one-variable 3-jet, or a broken invariant of the group."""


class G3Jet:
    """Derivative triple (a1, a2, a3) of a 3-jet on the line, a1 != 0.

    An immutable value: equal triples are equal jets with equal hashes.
    """

    __slots__ = ("a1", "a2", "a3")

    def __init__(self, a1, a2, a3):
        a1 = Fraction(a1)
        if a1 == 0:
            raise ArrowError("first derivative of a 3-jet must be nonzero")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", Fraction(a2))
        object.__setattr__(self, "a3", Fraction(a3))

    def __setattr__(self, name, value):
        raise AttributeError(f"G3Jet is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"G3Jet is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, G3Jet):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        return f"G3Jet(a1={self.a1!r}, a2={self.a2!r}, a3={self.a3!r})"

    def as_tuple(self) -> Tuple[Fraction, Fraction, Fraction]:
        return (self.a1, self.a2, self.a3)

    def to_map(self) -> TruncatedMap:
        """The centered order-3 map with these derivative components."""
        from .jetcore import TruncatedMap

        return TruncatedMap.from_derivatives(1, 3, {
            (0, (1,)): self.a1, (0, (2,)): self.a2, (0, (3,)): self.a3})

    @staticmethod
    def from_map(f: TruncatedMap) -> G3Jet:
        if f.n != 1 or f.k != 3:
            raise ArrowError("expected a one-variable order-3 map")
        d1, d2, d3 = f.derivative_triple()
        return G3Jet(d1, d2, d3)


G3_IDENTITY = G3Jet(1, 0, 0)


def g3_compose(a: G3Jet, b: G3Jet) -> G3Jet:
    """Chain-rule product: the 3-jet of the composition a after b."""
    return G3Jet(
        a.a1 * b.a1,
        a.a1 * b.a2 + a.a2 * b.a1 ** 2,
        a.a1 * b.a3 + 3 * a.a2 * b.a1 * b.a2 + a.a3 * b.a1 ** 3,
    )


def g3_invert(a: G3Jet) -> G3Jet:
    """Two-sided inverse for g3_compose, solved order by order."""
    b1 = 1 / a.a1
    b2 = -a.a2 / a.a1 ** 3
    b3 = -(3 * a.a2 * b1 * b2 + a.a3 * b1 ** 3) / a.a1
    return G3Jet(b1, b2, b3)


def mobius_split(a1, a2) -> G3Jet:
    """Lift a 2-jet (a1, a2) to the unique Mobius-flavored 3-jet.

    The third derivative 3 a2^2 / (2 a1) is exactly the one that makes the
    lift a group homomorphism and kills the Schwarzian of fractional-linear
    maps.
    """
    a1 = Fraction(a1)
    a2 = Fraction(a2)
    if a1 == 0:
        raise ArrowError("cannot split a 2-jet with vanishing first derivative")
    return G3Jet(a1, a2, Fraction(3) * a2 ** 2 / (2 * a1))


def schwarzian_defect(a: G3Jet) -> Fraction:
    """How far a 3-jet is from the Mobius lift of its own 2-jet.

    Quotienting by the split part leaves (1, 0, S); the scalar S coincides
    with the classical Schwarzian derivative a3/a1 - (3/2)(a2/a1)^2 and
    vanishes exactly on the image of mobius_split.
    """
    quotient = g3_compose(g3_invert(mobius_split(a.a1, a.a2)), a)
    if quotient.a1 != 1 or quotient.a2 != 0:
        raise ArrowError(f"quotient by the Mobius lift is {quotient.as_tuple()}, not (1, 0, S)")
    return quotient.a3
