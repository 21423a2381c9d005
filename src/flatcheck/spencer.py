"""Jet fields over a chart and the operators that make them an algebroid:
the Spencer operator, the pointwise algebraic bracket, the full bracket on
sections, and prolongation.

Jet field components are derivative components xi^i_alpha (the alpha-th
partial of the representative at the base point), not Taylor coefficients;
that convention makes the Spencer operator the literal difference

    (D_r xi)^i_alpha = d/dx^r xi^i_alpha - xi^i_{alpha + e_r},

one jet field of order k - 1 for each direction r.  The bracket on
sections lifts its arguments one order up; the lift is given by its top
components, which default to zero.

Every bracket here builds each output component in one pass: one
``Poly.dot`` over all the products that the component sums, with no
polynomial per product or per partial sum.  In the bracket on sections
that sum holds the Leibniz terms of the algebraic bracket of the lifts and
the terms of the two Spencer-operator contractions; the top components of
the lifts enter it and cancel inside it, so a lift-independence check
still tests that they cancel.

Jet fields hold exact polynomial coefficients over the chart (Q[x]:
nothing in this module divides), so every identity test here compares
normal forms literally.  A k-jet at a point is its Taylor polynomials: one
``Poly`` per component, in displacement coordinates, of which the terms
of degree <= k count.  The point bracket (``algebraic_bracket``) brackets
them as honest vector fields and is the reference that the field bracket
is checked against at points (``JetField.at_point``).
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import comb, prod
from typing import Dict, List, Sequence, Tuple

from .jetcore import JetError, MultiIndex, mi_add, mi_factorial, multi_indices
from .rational import Poly, unit_mono


@cache
def _leibniz(gamma: MultiIndex) -> tuple:
    """(C(gamma, beta), c, beta, gamma - beta + e_c) for every beta <= gamma
    componentwise and every direction c: where component gamma of the
    algebraic bracket reads its operands."""
    n = len(gamma)
    out = []
    for beta in product(*(range(g + 1) for g in gamma)):
        cg = prod(map(comb, gamma, beta))
        rest = tuple(g - bt for g, bt in zip(gamma, beta))
        out += [(cg, c, beta, mi_add(rest, unit_mono(n, c))) for c in range(n)]
    return tuple(out)


def _leibniz_terms(a: JetField, b: JetField, i: int, gamma: MultiIndex) -> list:
    """The ``Poly.dot`` terms of component (i, gamma) of the algebraic
    bracket of a and b: C(gamma, beta) (a^c_beta b^i_shifted - b^c_beta a^i_shifted)."""
    get_a, get_b, zero = a.components.get, b.components.get, a._zero
    terms = []
    for cg, c, beta, shifted in _leibniz(gamma):
        terms += ((cg, get_a((c, beta), zero), get_b((i, shifted), zero)),
                  (-cg, get_b((c, beta), zero), get_a((i, shifted), zero)))
    return terms


def algebraic_bracket(a: Sequence[Poly], b: Sequence[Poly], k: int) -> List[Poly]:
    """Pointwise bracket of k-jets, landing one order lower.

    Bracket the Taylor polynomials as honest vector fields, then take the
    (k-1)-jet; terms of degree above k cannot reach it.
    """
    if k < 1:
        raise JetError("the algebraic bracket needs order k >= 1")
    return [p.degree_part(0, k - 1) for p in vector_field_bracket(a, b)]


def kernel_bracket(a: Sequence[Poly], b: Sequence[Poly], k: int) -> List[Poly]:
    """The bracket restricted to jets that vanish at the point.

    On such jets the k-jet of the bracket of representatives depends only
    on the two k-jets, so the order does not drop and the fibers form a
    Lie algebra (the vertex algebra of the jet groupoid).
    """
    if not all(p.degree_part(0, 0).is_zero() for p in (*a, *b)):
        raise JetError("kernel_bracket requires jets with vanishing order-0 part")
    return [p.degree_part(0, k) for p in vector_field_bracket(a, b)]


def vector_field_bracket(v: Sequence[Poly], w: Sequence[Poly]) -> List[Poly]:
    """[v, w]^i = v^c d_c w^i - w^c d_c v^i, over exact polynomial components,
    one ``Poly.dot`` per component."""
    if len(w) != len(v) or any(p.n != len(v) for p in (*v, *w)):
        raise JetError("vector fields must share dimension")
    n = len(v)
    return [v[i].scale(0).dot([t for c in range(n)
                               for t in ((1, v[c], w[i].diff(c)), (-1, w[c], v[i].diff(c)))])
            for i in range(n)]


class JetField:
    """A section of the order-k jet bundle over a chart.

    Every component xi^i_alpha, |alpha| <= k, is an exact polynomial
    with rational coefficients; the constructor drops zeros, and missing
    entries are one zero shared by the field, since fields are never
    changed after they are built.
    """

    __slots__ = ("n", "k", "components", "_zero")

    def __init__(self, n: int, k: int,
                 components: Dict[Tuple[int, MultiIndex], Poly] | None = None):
        self.n = n
        self.k = k
        self.components: Dict[Tuple[int, MultiIndex], Poly] = {}
        if components:
            for (i, alpha), f in components.items():
                alpha = tuple(alpha)
                if sum(alpha) > k:
                    raise JetError(f"component ({i}, {alpha}) exceeds jet order {k}")
                if not f.is_zero():
                    self.components[(i, alpha)] = f
        self._zero = Poly.zero(n)

    def comp(self, i: int, alpha: MultiIndex) -> Poly:
        return self.components.get((i, tuple(alpha)), self._zero)

    def order_zero(self) -> List[Poly]:
        zero = (0,) * self.n
        return [self.comp(i, zero) for i in range(self.n)]

    def at_point(self, point: Sequence) -> List[Poly]:
        """The k-jet at ``point``: its Taylor polynomials, xi^i_alpha(point) / alpha!
        the coefficient of y^alpha in component i."""
        coeffs = [{} for _ in range(self.n)]
        for (i, alpha), f in self.components.items():
            coeffs[i][alpha] = f.eval(point) / mi_factorial(alpha)
        return [Poly(self.n, c) for c in coeffs]

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other) -> bool:
        return (isinstance(other, JetField) and self.n == other.n and self.k == other.k
                and self.components == other.components)

    def __repr__(self):
        return f"JetField(n={self.n}, k={self.k}, {len(self.components)} nonzero components)"


def prolong(v: Sequence[Poly], k: int) -> JetField:
    """Holonomic lift: xi^i_alpha = the alpha-th partial of v^i."""
    n = v[0].n
    comps: Dict[Tuple[int, MultiIndex], Poly] = {}
    for i, f in enumerate(v):
        derivs: Dict[MultiIndex, Poly] = {(0,) * n: f}
        for alpha in multi_indices(n, k):
            if alpha in derivs:
                continue
            r = next(t for t, e in enumerate(alpha) if e > 0)
            prev = tuple(e - (1 if t == r else 0) for t, e in enumerate(alpha))
            derivs[alpha] = derivs[prev].diff(r)
        for alpha, g in derivs.items():
            comps[(i, alpha)] = g
    return JetField(n, k, comps)


def spencer_operator(xi: JetField) -> List[JetField]:
    """D xi, the failure of a jet field to be holonomic, one order down: the
    jet fields D_r xi, one per direction r, of the module docstring."""
    if xi.k < 1:
        raise JetError("the Spencer operator needs order k >= 1")
    n = xi.n
    return [JetField(n, xi.k - 1,
                     {(i, alpha): xi.comp(i, alpha).diff(r)
                      - xi.comp(i, mi_add(alpha, unit_mono(n, r)))
                      for alpha in multi_indices(n, xi.k - 1) for i in range(n)})
            for r in range(n)]


def algebraic_bracket_fields(a: JetField, b: JetField) -> JetField:
    """The pointwise algebraic bracket applied fiberwise to two sections.

    Expanding the bracket of representatives by the Leibniz rule gives the
    closed bilinear formula used here, one ``Poly.dot`` per component; it
    agrees with the representative route at every point (tested, not
    assumed).
    """
    if a.n != b.n or a.k != b.k:
        raise JetError("jet fields must share dimension and order")
    if a.k < 1:
        raise JetError("the algebraic bracket needs order k >= 1")
    n, zero = a.n, a._zero
    return JetField(n, a.k - 1, {(i, gamma): zero.dot(_leibniz_terms(a, b, i, gamma))
                                 for gamma in multi_indices(n, a.k - 1) for i in range(n)})


def lift_with_top(xi: JetField, top: Dict[Tuple[int, MultiIndex], Poly]) -> JetField:
    """Lift to order k+1 with prescribed top-order components."""
    comps = dict(xi.components)
    for (i, alpha), f in top.items():
        if sum(alpha) != xi.k + 1:
            raise JetError(f"top component ({i}, {alpha}) must have order {xi.k + 1}")
        comps[(i, alpha)] = f
    return JetField(xi.n, xi.k + 1, comps)


def spencer_bracket(xi: JetField, eta: JetField,
                    top: Dict[Tuple[int, MultiIndex], Poly] | None = None) -> JetField:
    """Bracket on sections of the order-k jet bundle.

    Lift both fields one order up with the top components ``top`` (missing
    ones are zero; any smooth lift gives the same answer), and land back at
    order k with the algebraic bracket of the lifts plus the Spencer
    operator contracted against the order-0 parts:

        [xi, eta]^i_g = {xi1, eta1}^i_g
                        + sum_r xi^r_0 (D_r eta1)^i_g - eta^r_0 (D_r xi1)^i_g.

    Each component is one ``Poly.dot`` over the Leibniz terms of the
    algebraic bracket and the 4n terms of the two contractions.  The top
    components enter that sum and cancel there.  At k = 0 this is the
    usual vector-field bracket.
    """
    if xi.n != eta.n or xi.k != eta.k:
        raise JetError("jet fields must share dimension and order")
    xi1 = lift_with_top(xi, top or {})
    eta1 = lift_with_top(eta, top or {})
    n, zero = xi.n, xi._zero
    xi0, eta0 = xi.order_zero(), eta.order_zero()
    comps = {}
    for gamma in multi_indices(n, xi.k):
        for i in range(n):
            terms = _leibniz_terms(xi1, eta1, i, gamma)
            x, e = xi.comp(i, gamma), eta.comp(i, gamma)
            for r in range(n):
                up = mi_add(gamma, unit_mono(n, r))
                terms += ((1, xi0[r], e.diff(r)), (-1, xi0[r], eta1.comp(i, up)),
                          (-1, eta0[r], x.diff(r)), (1, eta0[r], xi1.comp(i, up)))
            comps[(i, gamma)] = zero.dot(terms)
    return JetField(n, xi.k, comps)
