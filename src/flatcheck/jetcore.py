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
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Dict, List, Sequence, Tuple

from .rational import matrix_determinant  # noqa: F401 - re-exported for the tests
from .rational import Poly, grlex_key, rf_matrix_inverse, unit_mono

MultiIndex = Tuple[int, ...]


class JetError(ValueError):
    """Structural error in jet arithmetic (dimension/order mismatch, etc.)."""


def multi_indices(n: int, max_order: int) -> List[MultiIndex]:
    """All multi-indices of order <= max_order in graded-lex order."""
    out: List[MultiIndex] = []
    for total in range(max_order + 1):
        out.extend(compositions(n, total))
    return out


def compositions(n: int, total: int) -> List[MultiIndex]:
    """Multi-indices of exact order ``total``, lexicographically sorted."""
    if n == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in compositions(n - 1, total - first):
            out.append((first,) + rest)
    return sorted(out)


def mi_factorial(mono: MultiIndex) -> int:
    out = 1
    for e in mono:
        out *= factorial(e)
    return out


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


class TruncatedPoly(Poly):
    """One scalar component of a jet: a Poly of Taylor coefficients up to
    order k, whose products and derivatives re-truncate."""

    __slots__ = ("k",)

    def __init__(self, n: int, k: int, coeffs: Dict[MultiIndex, Fraction] | None = None):
        if n < 1:
            raise JetError(f"dimension must be >= 1, got {n}")
        if k < 0:
            raise JetError(f"truncation order must be >= 0, got {k}")
        kept = {}
        for mono, c in (coeffs or {}).items():
            mono = tuple(mono)
            if len(mono) != n:
                raise JetError(f"multi-index {mono} has wrong length for n={n}")
            if sum(mono) <= k:
                kept[mono] = c
        super().__init__(n, kept)
        self.k = k

    def _like(self, coeffs: Dict[MultiIndex, Fraction]) -> TruncatedPoly:
        res = super()._like(coeffs)
        res.k = self.k
        return res

    def derivative_component(self, mono: MultiIndex) -> Fraction:
        """The value of the |mono|-th partial derivative at the base point."""
        return self.coeff(mono) * mi_factorial(tuple(mono))

    def set_coeff(self, mono: MultiIndex, value) -> None:
        mono = tuple(mono)
        if sum(mono) > self.k:
            raise JetError(f"multi-index {mono} exceeds order {self.k}")
        c = Fraction(value)
        if c:
            self.coeffs[mono] = c
        else:
            self.coeffs.pop(mono, None)

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncatedPoly) and self.k == other.k and super().__eq__(other)

    def __add__(self, other: TruncatedPoly) -> TruncatedPoly:
        self._check_compatible(other)
        return super().__add__(other)

    def __mul__(self, other: TruncatedPoly) -> TruncatedPoly:
        self._check_compatible(other)
        out: Dict[MultiIndex, Fraction] = {}
        for ma, ca in self.coeffs.items():
            da = sum(ma)
            for mb, cb in other.coeffs.items():
                if da + sum(mb) > self.k:
                    continue
                mono = mi_add(ma, mb)
                s = out.get(mono, Fraction(0)) + ca * cb
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        return self._like(out)

    def diff(self, idx: int) -> TruncatedPoly:
        """Formal partial derivative; the order drops by one."""
        out = super().diff(idx)
        out.k = max(self.k - 1, 0)
        return out

    def truncate(self, r: int) -> TruncatedPoly:
        return TruncatedPoly(self.n, r, self.coeffs)

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
        """Build from derivative components f^i_alpha (not Taylor coefficients)."""
        comps = [TruncatedPoly(n, k) for _ in range(n)]
        for (i, mono), value in derivs.items():
            comps[i].set_coeff(mono, Fraction(value) / mi_factorial(tuple(mono)))
        return TruncatedMap(comps)

    def derivative_triple(self) -> Tuple[Fraction, ...]:
        """For n=1 maps: the tuple (f', f'', ..., f^(k)) at the base point."""
        if self.n != 1:
            raise JetError("derivative_triple is defined for one-variable maps")
        return tuple(self.components[0].derivative_component((r,)) for r in range(1, self.k + 1))

    def constant_term(self) -> List[Fraction]:
        return [c.const_value() for c in self.components]

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
    displacement part of g is substituted.  Powers of its components are
    cached across all of ``polys``, and every product truncates.
    """
    n, k = g.n, g.k
    one = TruncatedPoly(n, k, {(0,) * n: 1})
    disp = [TruncatedPoly(n, k, {m: c for m, c in comp.coeffs.items() if any(m)})
            for comp in g.components]
    power_cache: Dict[Tuple[int, int], TruncatedPoly] = {}

    def var_power(j: int, e: int) -> TruncatedPoly:
        if e == 0:
            return one
        got = power_cache.get((j, e))
        if got is None:
            got = var_power(j, e - 1) * disp[j]
            power_cache[(j, e)] = got
        return got

    out = []
    for p in polys:
        acc = TruncatedPoly(n, k)
        for mono, c in p.coeffs.items():
            if sum(mono) > k:
                continue
            term = one
            for j, e in enumerate(mono):
                if e:
                    term = term * var_power(j, e)
            acc = acc + term.scale(c)
        out.append(acc)
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
    off the linear part; each sweep fixes one more order, so k-1 sweeps
    terminate exactly.  The result has zero constant term, and
    compose_truncated(result, f) is the identity through order k.
    """
    n, k = f.n, f.k
    try:
        lin_inv = rf_matrix_inverse(f.linear_part())
    except ZeroDivisionError:
        raise JetError("linear part is singular (determinant 0)") from None
    higher = TruncatedMap([TruncatedPoly(n, k, {m: c for m, c in p.coeffs.items() if sum(m) >= 2})
                           for p in f.components])

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
    for _ in range(max(k - 1, 0)):
        h_of_g = compose_truncated(higher, g)
        g = apply_lin_inv([a - b for a, b in zip(ident, h_of_g.components)])
    return g


def project_order(f: TruncatedMap, r: int) -> TruncatedMap:
    """Drop all coefficients of order > r; the result lives at order r."""
    if not 0 <= r <= f.k:
        raise JetError(f"projection order {r} outside [0, {f.k}]")
    return TruncatedMap([c.truncate(r) for c in f.components])


# --- jet exchange documents -------------------------------------------------

def poly_to_json(p: Poly) -> list:
    """A polynomial as the grlex-sorted {"multiindex", "num", "den"} entries
    of the exchange documents."""
    return [{"multiindex": list(mono), "num": str(c.numerator), "den": str(c.denominator)}
            for mono, c in sorted(p.coeffs.items(), key=lambda t: grlex_key(t[0]))]


def poly_from_json(entries, n: int, k: int | None = None) -> Poly:
    """Read ``poly_to_json`` entries back into a Poly, or into a
    TruncatedPoly of order ``k``; JetError on a malformed entry."""
    out = Poly(n) if k is None else TruncatedPoly(n, k)
    if not isinstance(entries, list):
        raise JetError(f"malformed jet document: expected a list of entries, got {entries!r}")
    coeffs = {}
    for entry in entries:
        try:
            mono = tuple(int(e) for e in entry["multiindex"])
            coeffs[mono] = Fraction(int(entry["num"]), int(entry["den"]))
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise JetError(f"malformed jet document entry: {exc}") from None
        if len(mono) != n:
            raise JetError(f"multi-index {mono} has wrong length in jet document")
        if k is not None and sum(mono) > k:
            raise JetError(f"multi-index {mono} exceeds order k={k} in jet document")
    out.coeffs = {mono: c for mono, c in coeffs.items() if c}
    return out


def map_to_json(f: TruncatedMap) -> dict:
    return {"n": f.n, "k": f.k, "components": [poly_to_json(c) for c in f.components]}


def map_from_json(doc: dict) -> TruncatedMap:
    try:
        n = int(doc["n"])
        k = int(doc["k"])
        raw_components = doc["components"]
    except (KeyError, TypeError) as exc:
        raise JetError(f"malformed jet document: missing field {exc}") from None
    if not isinstance(raw_components, list):
        raise JetError("malformed jet document: 'components' must be a list")
    if len(raw_components) != n:
        raise JetError(f"jet document announces n={n} but has {len(raw_components)} components")
    return TruncatedMap([poly_from_json(entries, n, k) for entries in raw_components])
