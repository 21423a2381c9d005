"""Finite jets of local diffeomorphisms as a groupoid, plus the order-3
one-variable jet group with its Mobius splitting and Schwarzian defect.

An ``Arrow`` is a jet with a source and a target point; its map data is
stored centered (displacements at the source to displacements at the
target, zero constant term), so composing arrows never re-expands base
points.  The one-variable order-3 group is also provided in closed form
on derivative triples (a1, a2, a3), a1 != 0, with the group law

    (a1, a2, a3)(b1, b2, b3)
        = (a1 b1, a1 b2 + a2 b1^2, a1 b3 + 3 a2 b1 b2 + a3 b1^3),

the jet of the composition "a after b".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .jetcore import (
    JetError,
    TruncatedMap,
    compose_truncated,
    invert_truncated,
    map_from_json,
    map_to_json,
)
from .rational import frac_str, matrix_determinant


class ArrowError(ValueError):
    """Endpoints or orders of arrows do not chain."""


def _fmt_point(point: Tuple[Fraction, ...]) -> str:
    return "(" + ", ".join(str(x) for x in point) + ")"


class Arrow:
    """A k-jet of a local diffeomorphism from ``source`` to ``target``."""

    __slots__ = ("source", "target", "jet")

    def __init__(self, source: Sequence, target: Sequence, jet: TruncatedMap):
        self.source = tuple(Fraction(x) for x in source)
        self.target = tuple(Fraction(x) for x in target)
        self.jet = jet
        if len(self.source) != jet.n or len(self.target) != jet.n:
            raise ArrowError(
                f"endpoint dimension mismatch: source {len(self.source)}, "
                f"target {len(self.target)}, jet n={jet.n}")
        if any(c for c in jet.constant_term()):
            raise ArrowError("arrow jets must be centered (zero constant term)")
        if matrix_determinant(jet.linear_part()) == 0:
            raise ArrowError("arrow jets must have invertible linear part")

    @property
    def n(self) -> int:
        return self.jet.n

    @property
    def k(self) -> int:
        return self.jet.k

    @staticmethod
    def identity(point: Sequence, n: int, k: int) -> Arrow:
        return Arrow(point, point, TruncatedMap.identity(n, k))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Arrow) and self.source == other.source
                and self.target == other.target and self.jet == other.jet)

    def __repr__(self):
        return f"Arrow({self.source} -> {self.target}, k={self.k})"


def arrow_compose(second: Arrow, first: Arrow) -> Arrow:
    """The arrow of ``second after first``; first.target must equal second.source."""
    if first.n != second.n or first.k != second.k:
        raise ArrowError(
            f"arrow orders do not match: (n={first.n}, k={first.k}) vs "
            f"(n={second.n}, k={second.k})")
    if first.target != second.source:
        raise ArrowError(
            f"arrows do not chain: first ends at {_fmt_point(first.target)}, "
            f"second starts at {_fmt_point(second.source)}")
    return Arrow(first.source, second.target,
                 compose_truncated(second.jet, first.jet))


def arrow_invert(a: Arrow) -> Arrow:
    """Swap endpoints and invert the centered jet."""
    return Arrow(a.target, a.source, invert_truncated(a.jet))


# --- the order-3 one-variable jet group -------------------------------------

@dataclass(frozen=True)
class G3Jet:
    """Derivative triple (a1, a2, a3) of a 3-jet on the line, a1 != 0."""

    a1: Fraction
    a2: Fraction
    a3: Fraction

    def __init__(self, a1, a2, a3):
        a1 = Fraction(a1)
        if a1 == 0:
            raise ArrowError("first derivative of a 3-jet must be nonzero")
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", Fraction(a2))
        object.__setattr__(self, "a3", Fraction(a3))

    def as_tuple(self) -> Tuple[Fraction, Fraction, Fraction]:
        return (self.a1, self.a2, self.a3)

    def to_map(self) -> TruncatedMap:
        """The centered order-3 map with these derivative components."""
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


# --- arrow exchange documents ------------------------------------------------

def arrow_to_json(a: Arrow) -> dict:
    return {
        "source": [frac_str(x) for x in a.source],
        "target": [frac_str(x) for x in a.target],
        "jet": map_to_json(a.jet),
    }


def arrow_from_json(doc: dict) -> Arrow:
    try:
        source = [Fraction(s) for s in doc["source"]]
        target = [Fraction(s) for s in doc["target"]]
        jet_doc = doc["jet"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise JetError(f"malformed arrow document: {exc}") from None
    return Arrow(source, target, map_from_json(jet_doc))
