"""Jet fields over a chart and the operators that make them an algebroid:
the Spencer operator, the pointwise algebraic bracket, the full bracket on
sections, prolongation, and pushforward along an arrow.

Components are stored as derivative components xi^i_alpha (the alpha-th
partial of the representative at the base point), not Taylor coefficients;
that convention makes the Spencer operator the literal difference

    (D xi)^i_{r, alpha} = d/dx^r xi^i_alpha - xi^i_{alpha + e_r}.

Point jets hold exact rational coefficients; jet fields hold exact
rational-function coefficients over the chart, so every identity test in
this module is an equality of normal forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, Dict, List, Sequence, Tuple

from .arrows import Arrow
from .jetcore import (
    JetError,
    MultiIndex,
    TruncatedPoly,
    invert_truncated,
    mi_add,
    mi_factorial,
    multi_indices,
    poly_from_json,
    poly_to_json,
    project_order,
    substitute,
)
from .rational import Poly, RationalFunc, frac_str, unit_mono


def _binom(alpha: MultiIndex, beta: MultiIndex) -> int:
    out = 1
    for a, b in zip(alpha, beta):
        out *= comb(a, b)
    return out


def _sub_indices(alpha: MultiIndex):
    """All beta <= alpha componentwise."""
    ranges = [range(a + 1) for a in alpha]
    out = [()]
    for r in ranges:
        out = [prefix + (v,) for prefix in out for v in r]
    return [tuple(b) for b in out]


class PointJet:
    """A k-jet of a vector field at a single point, in derivative components."""

    __slots__ = ("n", "k", "point", "coeffs")

    def __init__(self, n: int, k: int, point: Sequence,
                 coeffs: Dict[Tuple[int, MultiIndex], Fraction] | None = None):
        self.n = n
        self.k = k
        self.point = tuple(Fraction(x) for x in point)
        if len(self.point) != n:
            raise JetError(f"base point has length {len(self.point)}, expected {n}")
        self.coeffs: Dict[Tuple[int, MultiIndex], Fraction] = {}
        if coeffs:
            for (i, alpha), c in coeffs.items():
                alpha = tuple(alpha)
                if sum(alpha) > k:
                    raise JetError(f"component ({i}, {alpha}) exceeds jet order {k}")
                c = Fraction(c)
                if c:
                    self.coeffs[(i, alpha)] = c

    def coeff(self, i: int, alpha: MultiIndex) -> Fraction:
        return self.coeffs.get((i, tuple(alpha)), Fraction(0))

    def order_zero(self) -> List[Fraction]:
        zero = (0,) * self.n
        return [self.coeff(i, zero) for i in range(self.n)]

    def is_kernel_jet(self) -> bool:
        return all(c == 0 for c in self.order_zero())

    def taylor_polys(self) -> List[Poly]:
        """Degree <= k polynomial representatives in displacement coordinates."""
        polys = []
        for i in range(self.n):
            coeffs = {}
            for alpha in multi_indices(self.n, self.k):
                c = self.coeff(i, alpha)
                if c:
                    coeffs[alpha] = c / mi_factorial(alpha)
            polys.append(Poly(self.n, coeffs))
        return polys

    def __eq__(self, other) -> bool:
        return (isinstance(other, PointJet) and self.n == other.n and self.k == other.k
                and self.point == other.point and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"PointJet(n={self.n}, k={self.k}, at {self.point})"


def point_jet_from_polys(polys: Sequence[Poly], k: int, point: Sequence) -> PointJet:
    """The k-jet at 0 (displacement coords) of polynomial components."""
    n = polys[0].n
    coeffs = {}
    for i, p in enumerate(polys):
        for alpha, c in p.coeffs.items():
            if sum(alpha) <= k:
                coeffs[(i, alpha)] = c * mi_factorial(alpha)
    return PointJet(n, k, point, coeffs)


def algebraic_bracket(a: PointJet, b: PointJet) -> PointJet:
    """Pointwise bracket of k-jets, landing one order lower.

    Realized through the degree <= k polynomial representatives: bracket the
    representatives as honest vector fields, then take the (k-1)-jet.
    """
    if a.point != b.point:
        raise JetError(f"jets live at different points: {a.point} vs {b.point}")
    if a.n != b.n or a.k != b.k:
        raise JetError("jets must share dimension and order")
    if a.k < 1:
        raise JetError("the algebraic bracket needs order k >= 1")
    bracket = vector_field_bracket(a.taylor_polys(), b.taylor_polys())
    return point_jet_from_polys(bracket, a.k - 1, a.point)


def kernel_bracket(a: PointJet, b: PointJet) -> PointJet:
    """The bracket restricted to jets that vanish at the point.

    On such jets the k-jet of the bracket of representatives depends only
    on the two k-jets, so the order does not drop and the fibers form a
    Lie algebra (the vertex algebra of the jet groupoid).
    """
    if not (a.is_kernel_jet() and b.is_kernel_jet()):
        raise JetError("kernel_bracket requires jets with vanishing order-0 part")
    if a.point != b.point or a.n != b.n or a.k != b.k:
        raise JetError("jets must share base point, dimension and order")
    bracket = vector_field_bracket(a.taylor_polys(), b.taylor_polys())
    return point_jet_from_polys(bracket, a.k, a.point)


def vector_field_bracket(v: Sequence[Poly | RationalFunc],
                         w: Sequence[Poly | RationalFunc]) -> list:
    """[v, w]^i = v^c d_c w^i - w^c d_c v^i, over Poly or RationalFunc components."""
    out = []
    for i in range(len(v)):
        acc = v[i].scale(0)
        for c in range(len(v)):
            acc = acc + v[c] * w[i].diff(c) - w[c] * v[i].diff(c)
        out.append(acc)
    return out


class JetField:
    """A section of the order-k jet bundle over a box chart.

    Every component xi^i_alpha, |alpha| <= k, is an exact rational
    function; missing entries are zero.
    """

    __slots__ = ("n", "k", "domain", "components")

    def __init__(self, n: int, k: int,
                 components: Dict[Tuple[int, MultiIndex], RationalFunc] | None = None,
                 domain: Sequence[Tuple] | None = None):
        self.n = n
        self.k = k
        self.domain = [(Fraction(lo), Fraction(hi)) for lo, hi in domain] if domain \
            else [(Fraction(-1), Fraction(1))] * n
        self.components: Dict[Tuple[int, MultiIndex], RationalFunc] = {}
        if components:
            for (i, alpha), f in components.items():
                alpha = tuple(alpha)
                if sum(alpha) > k:
                    raise JetError(f"component ({i}, {alpha}) exceeds jet order {k}")
                if not f.is_zero():
                    self.components[(i, alpha)] = f

    def comp(self, i: int, alpha: MultiIndex) -> RationalFunc:
        return self.components.get((i, tuple(alpha)), RationalFunc(Poly.zero(self.n)))

    def order_zero(self) -> List[RationalFunc]:
        zero = (0,) * self.n
        return [self.comp(i, zero) for i in range(self.n)]

    def at_point(self, point: Sequence) -> PointJet:
        coeffs = {}
        for (i, alpha), f in self.components.items():
            coeffs[(i, alpha)] = f.eval(point)
        return PointJet(self.n, self.k, point, coeffs)

    def scale(self, value) -> JetField:
        return JetField(self.n, self.k,
                        {key: f.scale(value) for key, f in self.components.items()},
                        self.domain)

    def __add__(self, other: JetField) -> JetField:
        if self.n != other.n or self.k != other.k:
            raise JetError("jet fields must share dimension and order")
        out = dict(self.components)
        for key, f in other.components.items():
            s = out.get(key)
            out[key] = f if s is None else s + f
        return JetField(self.n, self.k, out, self.domain)

    def __sub__(self, other: JetField) -> JetField:
        return self + other.scale(-1)

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.components.values())

    def project(self, r: int) -> JetField:
        if not 0 <= r <= self.k:
            raise JetError(f"projection order {r} outside [0, {self.k}]")
        comps = {key: f for key, f in self.components.items() if sum(key[1]) <= r}
        return JetField(self.n, r, comps, self.domain)

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetField) or self.n != other.n or self.k != other.k:
            return False
        keys = set(self.components) | set(other.components)
        return all((self.comp(i, a) - other.comp(i, a)).is_zero() for i, a in keys)

    def __repr__(self):
        return f"JetField(n={self.n}, k={self.k}, {len(self.components)} nonzero components)"


def prolong(v: Sequence[RationalFunc | Poly], k: int,
            domain: Sequence[Tuple] | None = None) -> JetField:
    """Holonomic lift: xi^i_alpha = the alpha-th partial of v^i."""
    fields = [f if isinstance(f, RationalFunc) else RationalFunc(f) for f in v]
    n = fields[0].n
    comps: Dict[Tuple[int, MultiIndex], RationalFunc] = {}
    for i, f in enumerate(fields):
        derivs: Dict[MultiIndex, RationalFunc] = {(0,) * n: f}
        for alpha in multi_indices(n, k):
            if alpha in derivs:
                continue
            r = next(t for t, e in enumerate(alpha) if e > 0)
            prev = tuple(e - (1 if t == r else 0) for t, e in enumerate(alpha))
            derivs[alpha] = derivs[prev].diff(r)
        for alpha, g in derivs.items():
            comps[(i, alpha)] = g
    return JetField(n, k, comps, domain)


class JetOneForm:
    """One-form with jet-field values: components indexed (r, i, alpha)."""

    __slots__ = ("n", "k", "components")

    def __init__(self, n: int, k: int,
                 components: Dict[Tuple[int, int, MultiIndex], RationalFunc]):
        self.n = n
        self.k = k
        self.components = {key: f for key, f in components.items() if not f.is_zero()}

    def comp(self, r: int, i: int, alpha: MultiIndex) -> RationalFunc:
        return self.components.get((r, i, tuple(alpha)), RationalFunc(Poly.zero(self.n)))

    def is_zero(self) -> bool:
        return not self.components

    def contract(self, vector: Sequence[RationalFunc]) -> JetField:
        """i(v): plug a vector field into the one-form slot."""
        comps: Dict[Tuple[int, MultiIndex], RationalFunc] = {}
        for (r, i, alpha), f in self.components.items():
            term = vector[r] * f
            key = (i, alpha)
            comps[key] = term if key not in comps else comps[key] + term
        return JetField(self.n, self.k, comps)


def spencer_operator(xi: JetField) -> JetOneForm:
    """Failure of a jet field to be holonomic, one order down."""
    if xi.k < 1:
        raise JetError("the Spencer operator needs order k >= 1")
    n = xi.n
    comps: Dict[Tuple[int, int, MultiIndex], RationalFunc] = {}
    for alpha in multi_indices(n, xi.k - 1):
        for i in range(n):
            for r in range(n):
                val = xi.comp(i, alpha).diff(r) - xi.comp(i, mi_add(alpha, unit_mono(n, r)))
                if not val.is_zero():
                    comps[(r, i, alpha)] = val
    return JetOneForm(n, xi.k - 1, comps)


def algebraic_bracket_fields(a: JetField, b: JetField) -> JetField:
    """The pointwise algebraic bracket applied fiberwise to two sections.

    Expanding the bracket of representatives by the Leibniz rule gives the
    closed bilinear formula used here; it agrees with the representative
    route at every point (tested, not assumed).
    """
    if a.n != b.n or a.k != b.k:
        raise JetError("jet fields must share dimension and order")
    if a.k < 1:
        raise JetError("the algebraic bracket needs order k >= 1")
    n, k = a.n, a.k
    comps: Dict[Tuple[int, MultiIndex], RationalFunc] = {}
    for gamma in multi_indices(n, k - 1):
        for i in range(n):
            acc = RationalFunc(Poly.zero(n))
            for beta in _sub_indices(gamma):
                cg = _binom(gamma, beta)
                rest = tuple(g - bt for g, bt in zip(gamma, beta))
                for c in range(n):
                    shifted = mi_add(rest, unit_mono(n, c))
                    term = a.comp(c, beta) * b.comp(i, shifted) \
                        - b.comp(c, beta) * a.comp(i, shifted)
                    if cg != 1:
                        term = term.scale(cg)
                    acc = acc + term
            if not acc.is_zero():
                comps[(i, gamma)] = acc
    return JetField(n, k - 1, comps, a.domain)


def zero_pad_lift(xi: JetField) -> JetField:
    """Lift to order k+1 by appending zero top components."""
    return JetField(xi.n, xi.k + 1, dict(xi.components), xi.domain)


def lift_with_top(xi: JetField, top: Dict[Tuple[int, MultiIndex], RationalFunc]) -> JetField:
    """Lift to order k+1 with prescribed top-order components."""
    comps = dict(xi.components)
    for (i, alpha), f in top.items():
        if sum(alpha) != xi.k + 1:
            raise JetError(f"top component ({i}, {alpha}) must have order {xi.k + 1}")
        comps[(i, alpha)] = f
    return JetField(xi.n, xi.k + 1, comps, xi.domain)


def spencer_bracket(xi: JetField, eta: JetField,
                    lift: Callable[[JetField], JetField] = zero_pad_lift) -> JetField:
    """Bracket on sections of the order-k jet bundle.

    Lift both fields one order up (any smooth lift gives the same answer;
    the default appends zeros), combine the algebraic bracket of the lifts
    with the Spencer operator contracted against the order-0 parts, and
    land back at order k.  At k = 0 this is the usual vector-field bracket.
    """
    if xi.n != eta.n or xi.k != eta.k:
        raise JetError("jet fields must share dimension and order")
    xi1 = lift(xi)
    eta1 = lift(eta)
    algebraic = algebraic_bracket_fields(xi1, eta1)
    d_eta = spencer_operator(eta1)
    d_xi = spencer_operator(xi1)
    corr = d_eta.contract(xi.order_zero()) - d_xi.contract(eta.order_zero())
    return algebraic + corr


def jet_pushforward(arrow: Arrow, v: PointJet) -> PointJet:
    """Transport a k-jet of a vector field along a (k+1)-arrow.

    Differentiating the transformation rule of a vector field gives the
    k-jet at the target of (Df o f^-1) . (v o f^-1), all computed in
    truncated arithmetic from the arrow's centered jet.
    """
    if arrow.k != v.k + 1:
        raise JetError(
            f"arrow order must exceed jet order by one: arrow k={arrow.k}, jet k={v.k}")
    if arrow.n != v.n:
        raise JetError("arrow and jet dimensions differ")
    if tuple(v.point) != arrow.source:
        raise JetError(f"jet at {v.point} but arrow starts at {arrow.source}")
    n, k = v.n, v.k
    f = arrow.jet
    g = project_order(invert_truncated(f), k)
    # Df has order f.k - 1 = k; pull Df and v back along g in one pass
    pulled = substitute([f.components[i].diff(a) for i in range(n) for a in range(n)]
                        + v.taylor_polys(), g)
    dfg, vg = pulled[:n * n], pulled[n * n:]
    out = [sum((dfg[i * n + a] * vg[a] for a in range(n)), TruncatedPoly(n, k))
           for i in range(n)]
    return point_jet_from_polys(out, k, arrow.target)


# --- exchange documents -------------------------------------------------------

def _rf_to_json(f: RationalFunc) -> dict:
    return {"num": poly_to_json(f.num),
            "den": [{"power": e, "poly": poly_to_json(factor)} for factor, e in f.den.items()]}


def _rf_from_json(doc: dict, n: int) -> RationalFunc:
    den = {poly_from_json(fac["poly"], n): int(fac["power"]) for fac in doc.get("den", [])}
    if any(e < 1 for e in den.values()):
        raise JetError("denominator powers must be positive")
    return RationalFunc(poly_from_json(doc["num"], n), den)


def jet_field_to_json(xi: JetField) -> dict:
    components: Dict[str, list] = {}
    for alpha in multi_indices(xi.n, xi.k):
        entries = [_rf_to_json(xi.comp(i, alpha)) for i in range(xi.n)]
        if any(e["num"] for e in entries):
            components[",".join(map(str, alpha))] = entries
    return {
        "n": xi.n, "k": xi.k,
        "domain": [[frac_str(lo), frac_str(hi)] for lo, hi in xi.domain],
        "components": components,
    }


def jet_field_from_json(doc: dict) -> JetField:
    try:
        n = int(doc["n"])
        domain = [(Fraction(lo), Fraction(hi)) for lo, hi in doc.get("domain", [])] or None
        comps = {}
        for key, entries in doc["components"].items():
            alpha = tuple(int(x) for x in key.split(","))
            for i, entry in enumerate(entries):
                comps[(i, alpha)] = _rf_from_json(entry, n)
        return JetField(n, int(doc["k"]), comps, domain)
    except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise JetError(f"malformed jet field document: {exc}") from None
