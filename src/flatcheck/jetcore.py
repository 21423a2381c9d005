"""Truncated multivariate polynomial maps with exact rational coefficients.

A ``TruncatedPoly`` is a ``Poly`` of Taylor coefficients (not derivative
components) keyed by multi-index that drops every term above a fixed order
``k``; a ``TruncatedMap`` bundles ``n`` of them into a polynomial map of
R^n.  Products, composition, inversion and projection re-truncate at every
step, so the classes model finite jets rather than honest polynomials: two
maps that agree through order ``k`` are equal objects.

Conversion between Taylor coefficients and derivative components is the
multi-index factorial; ``derivative_component`` / ``from_derivatives`` fix
that bookkeeping in one place.

The exchange documents hold one {"multiindex", "num", "den"} entry per
nonzero Taylor coefficient, in grlex order.  Their codec works on
integers and builds no ``Fraction``: ``poly_from_json`` reduces each
num/den by its gcd and packs the terms over the least common denominator
(``Poly._from_reduced``, the packing of ``Poly``'s own constructor), and
``poly_to_json`` writes the packed terms in packed-key order, which is
grlex order, each reduced by its gcd with the denominator.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import factorial, gcd, lcm
from operator import add
from typing import Dict, List, Sequence, Tuple

from . import MAX_DIM
from .literals import parse_int
from .rational import MAX_DEGREE, Poly, grlex_key, rf_matrix_inverse, unit_mono

MultiIndex = Tuple[int, ...]

# the largest truncation order a jet document may declare
MAX_ORDER = 12


class JetError(ValueError):
    """Structural error in jet arithmetic (dimension/order mismatch, etc.)."""


@cache
def multi_indices(n: int, max_order: int) -> Tuple[MultiIndex, ...]:
    """All multi-indices of order <= max_order in graded-lex order, built
    once per (n, max_order): one per multiset of at most max_order of the
    n variables, which counts how often each variable was picked."""
    return tuple(sorted((tuple(map(picked.count, range(n)))
                         for order in range(max_order + 1)
                         for picked in combinations_with_replacement(range(n), order)),
                        key=grlex_key))


def mi_factorial(mono: MultiIndex) -> int:
    out = 1
    for e in mono:
        out *= factorial(e)
    return out


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(map(add, a, b))


class TruncatedPoly(Poly):
    """One scalar component of a jet: a Poly of Taylor coefficients up to
    order k, whose products and derivatives re-truncate."""

    __slots__ = ("k",)

    def __init__(self, n: int, k: int, coeffs: Dict[MultiIndex, Fraction] | None = None):
        if n < 1:
            raise JetError(f"dimension must be >= 1, got {n}")
        if k < 0:
            raise JetError(f"truncation order must be >= 0, got {k}")
        if k > MAX_DEGREE:  # no packed monomial has a higher degree
            raise JetError(f"truncation order must be <= {MAX_DEGREE}, got {k}")
        kept = {}
        for mono, c in (coeffs or {}).items():
            mono = tuple(mono)
            if len(mono) != n:
                raise JetError(f"multi-index {mono} has wrong length for n={n}")
            if min(mono) < 0:
                raise JetError(f"multi-index {mono} has a negative entry")
            if sum(mono) <= k:
                kept[mono] = c
        super().__init__(n, kept)
        self.k = k

    def _like(self, terms: Dict[int, int], den: int) -> TruncatedPoly:
        res = super()._like(terms, den)
        res.k = self.k
        return res

    def derivative_component(self, mono: MultiIndex) -> Fraction:
        """The value of the |mono|-th partial derivative at the base point."""
        return self.coeff(mono) * mi_factorial(tuple(mono))

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedPoly) and self.k == other.k and super().__eq__(other)

    def __add__(self, other: TruncatedPoly) -> TruncatedPoly:
        self._check_compatible(other)
        return super().__add__(other)

    def __sub__(self, other: TruncatedPoly) -> TruncatedPoly:
        self._check_compatible(other)
        return super().__sub__(other)

    def __mul__(self, other: TruncatedPoly) -> TruncatedPoly:
        self._check_compatible(other)
        return self._product(other, self.k)

    def diff(self, idx: int) -> TruncatedPoly:
        """Formal partial derivative; the order drops by one."""
        out = super().diff(idx)
        out.k = max(self.k - 1, 0)
        return out

    def truncate(self, r: int) -> TruncatedPoly:
        if r < 0:
            raise JetError(f"truncation order must be >= 0, got {r}")
        out = self.degree_part(0, r)
        out.k = r
        return out

    def _check_compatible(self, other: TruncatedPoly) -> None:
        if self.n != other.n or self.k != other.k:
            raise JetError(
                f"incompatible truncated polynomials: (n={self.n}, k={self.k}) "
                f"vs (n={other.n}, k={other.k})")


class TruncatedMap:
    """Order-k polynomial map R^n -> R^n; the constant terms are the offset."""

    __slots__ = ("n", "k", "components")

    def __init__(self, components: Sequence[TruncatedPoly]):
        comps = list(components)
        if not comps:
            raise JetError("a truncated map needs at least one component")
        n, k = comps[0].n, comps[0].k
        for c in comps:
            if c.n != n or c.k != k:
                raise JetError("all components must share n and k")
        if len(comps) != n:
            raise JetError(f"need {n} components for a self-map of R^{n}, got {len(comps)}")
        self.n = n
        self.k = k
        self.components = comps

    @staticmethod
    def identity(n: int, k: int) -> TruncatedMap:
        return TruncatedMap([TruncatedPoly(n, k, {unit_mono(n, i): 1}) for i in range(n)])

    @staticmethod
    def from_derivatives(n: int, k: int, derivs: Dict[Tuple[int, MultiIndex], Fraction]) -> TruncatedMap:
        """Build from derivative components f^i_alpha (not Taylor coefficients).

        A component above order k is refused; zero values are dropped."""
        coeffs: List[Dict[MultiIndex, Fraction]] = [{} for _ in range(n)]
        for (i, mono), value in derivs.items():
            mono = tuple(mono)
            if sum(mono) > k:
                raise JetError(f"multi-index {mono} exceeds order {k}")
            coeffs[i][mono] = Fraction(value) / mi_factorial(mono)
        return TruncatedMap([TruncatedPoly(n, k, c) for c in coeffs])

    def derivative_triple(self) -> Tuple[Fraction, ...]:
        """For n=1 maps: the tuple (f', f'', ..., f^(k)) at the base point."""
        if self.n != 1:
            raise JetError("derivative_triple is defined for one-variable maps")
        return tuple(self.components[0].derivative_component((r,)) for r in range(1, self.k + 1))

    def linear_part(self) -> List[List[Fraction]]:
        return [[comp.coeff(unit_mono(self.n, j)) for j in range(self.n)]
                for comp in self.components]

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedMap) and self.n == other.n
                and self.k == other.k and self.components == other.components)

    def __repr__(self):
        return f"TruncatedMap(n={self.n}, k={self.k}, {self.components})"


def substitute(polys: Sequence[Poly], g: TruncatedMap) -> List[TruncatedPoly]:
    """The order-``g.k`` truncation of p o g for each polynomial p.

    Each p is read as an expansion about g's constant term, so only the
    displacement part of g is substituted.  Each monomial of the
    displacement is built once and shared by all of ``polys``: it is its
    parent (one power fewer of its last variable) times that variable's
    component, one truncated product.  Each p o g is then an integer
    combination of those monomials over one common denominator.
    """
    n, k = g.n, g.k
    disp = [comp.degree_part(1, k) for comp in g.components]
    table: Dict[MultiIndex, TruncatedPoly] = {}

    def monomial(mono: MultiIndex) -> TruncatedPoly:
        got = table.get(mono)
        if got is None:
            j = max(i for i, e in enumerate(mono) if e)
            parent = mono[:j] + (mono[j] - 1,) + mono[j + 1:]
            got = table[mono] = monomial(parent) * disp[j] if any(parent) else disp[j]
        return got

    zero = TruncatedPoly(n, k)
    out = []
    for p in polys:
        terms = [(monomial(mono), v) for mono, v in zip(p.monomials(), p.terms.values())
                 if 0 < sum(mono) <= k]
        den = lcm(*[t.denom for t, _ in terms])
        const = p.terms.get(0)  # the constant monomial packs to 0 and needs no product
        acc = {0: const * den} if const else {}
        get = acc.get
        for t, v in terms:
            f = v * (den // t.denom)
            for m, c in t.terms.items():
                s = get(m, 0) + f * c
                if s:
                    acc[m] = s
                else:
                    del acc[m]
        out.append(zero._from_ints(acc, den * p.denom))
    return out


def compose_truncated(outer: TruncatedMap, inner: TruncatedMap) -> TruncatedMap:
    """Order-k truncation of outer o inner (inner applied first), with
    ``outer`` read as an expansion about ``inner``'s constant term."""
    if outer.n != inner.n or outer.k != inner.k:
        raise JetError(
            f"cannot compose maps with (n={outer.n}, k={outer.k}) and "
            f"(n={inner.n}, k={inner.k})")
    return TruncatedMap(substitute(outer.components, inner))


def invert_truncated(f: TruncatedMap) -> TruncatedMap:
    """Compositional inverse of the displacement part of ``f``.

    Fixed-point iteration on g = L^-1 (id - H o g) where f = L + H splits
    off the linear part; sweep r = 2..k fixes order r and composes at
    order r only, so k-1 sweeps terminate exactly (the first step of Brent
    & Kung's power-series reversion, J. ACM 25, 1978).  The result has
    zero constant term, and compose_truncated(result, f) is the identity
    through order k.
    """
    n, k = f.n, f.k
    try:
        lin_inv = rf_matrix_inverse(f.linear_part())
    except ZeroDivisionError:
        raise JetError("linear part is singular (determinant 0)") from None
    higher = TruncatedMap([p.degree_part(2, k) for p in f.components])

    def apply_lin_inv(comps: List[TruncatedPoly]) -> TruncatedMap:
        out = []
        for i in range(n):
            acc = TruncatedPoly(n, k)
            for j in range(n):
                if lin_inv[i][j]:
                    acc = acc + comps[j].scale(lin_inv[i][j])
            out.append(acc)
        return TruncatedMap(out)

    ident = TruncatedMap.identity(n, k).components
    g = apply_lin_inv(ident)
    for r in range(2, k + 1):
        # the order-r terms of H o g need only the terms of g below order r,
        # which earlier sweeps have fixed, so this sweep works at order r
        h_of_g = compose_truncated(project_order(higher, r), project_order(g, r))
        g = apply_lin_inv([a - b.truncate(k) for a, b in zip(ident, h_of_g.components)])
    return g


def project_order(f: TruncatedMap, r: int) -> TruncatedMap:
    """Drop all coefficients of order > r; the result lives at order r."""
    if not 0 <= r <= f.k:
        raise JetError(f"projection order {r} outside [0, {f.k}]")
    return TruncatedMap([c.truncate(r) for c in f.components])


# --- jet exchange documents -------------------------------------------------

def poly_to_json(p: Poly) -> list:
    """A polynomial as the grlex-sorted {"multiindex", "num", "den"} entries
    of the exchange documents, each num/den in lowest terms.  Packed-key
    order is grlex order (the degree field comes first)."""
    den = p.denom
    out = []
    for (_, v), mono in sorted(zip(p.terms.items(), p.monomials())):
        g = gcd(v, den)
        out.append({"multiindex": list(mono), "num": str(v // g), "den": str(den // g)})
    return out


def poly_from_json(entries, n: int, k: int) -> TruncatedPoly:
    """Read ``poly_to_json`` entries back into a TruncatedPoly of order
    ``k``, the one that ``TruncatedPoly(n, k, {mono: Fraction(num, den)})``
    builds, without a Fraction: each num/den is reduced by its gcd, and
    zeros are dropped.  JetError on a malformed entry; the checks here are
    all that the packing needs, since k is at most ``MAX_DEGREE``."""
    zero = TruncatedPoly(n, k)  # a bad n or k is reported before any entry
    if not isinstance(entries, list):
        raise JetError(f"malformed jet document: expected a list of entries, got {entries!r}")
    seen = set()
    coeffs = []
    negative = None
    for entry in entries:
        try:
            if not isinstance(entry["multiindex"], list):
                raise TypeError("'multiindex' must be a list of integers")
            mono = tuple([parse_int(e, "multiindex") for e in entry["multiindex"]])
            num = parse_int(entry["num"], "num")
            den = parse_int(entry["den"], "den")
            if not den:
                raise ZeroDivisionError(f"Fraction({num}, 0)")  # Fraction's own message
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise JetError(f"malformed jet document entry: {exc}") from None
        if len(mono) != n:
            raise JetError(f"multi-index {mono} has wrong length in jet document")
        if mono in seen:
            raise JetError(f"multi-index {mono} appears twice in one polynomial of the "
                           "jet document")
        if sum(mono) > k:
            raise JetError(f"multi-index {mono} exceeds order k={k} in jet document")
        seen.add(mono)
        if negative is None and min(mono) < 0:
            negative = mono
        if num:
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            coeffs.append((mono, num // g, den // g))
    if negative is not None:
        raise JetError(f"multi-index {negative} has a negative entry")
    return zero._from_reduced(coeffs)


def map_to_json(f: TruncatedMap) -> dict:
    """The exchange document of ``f``; JetError if a numerator or
    denominator has more digits than ``str`` writes."""
    try:
        return {"n": f.n, "k": f.k, "components": [poly_to_json(c) for c in f.components]}
    except ValueError:
        raise JetError("a coefficient of the jet has more than "
                       f"{sys.get_int_max_str_digits()} digits") from None


def map_from_json(doc: dict) -> TruncatedMap:
    try:
        n = parse_int(doc["n"], "n")
        k = parse_int(doc["k"], "k")
        raw_components = doc["components"]
    except (KeyError, TypeError, ValueError) as exc:
        raise JetError("malformed jet document: missing field or a field that is not "
                       f"an integer ({exc})") from None
    if n > MAX_DIM or k > MAX_ORDER:
        raise JetError(f"jet document has n={n}, k={k}; the caps are n <= {MAX_DIM} "
                       f"and k <= {MAX_ORDER}")
    if not isinstance(raw_components, list):
        raise JetError("malformed jet document: 'components' must be a list")
    if len(raw_components) != n:
        raise JetError(f"jet document announces n={n} but has {len(raw_components)} components")
    return TruncatedMap([poly_from_json(entries, n, k) for entries in raw_components])
