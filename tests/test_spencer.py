"""Spencer operator, brackets, prolongation.

Two implementations of the algebraic bracket exist on purpose: the point
version goes through honest polynomial representatives, the field version
through the Leibniz-expanded bilinear formula.  Their agreement on random
jets is itself one of the checks.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from flatcheck.jetcore import JetError, mi_factorial, multi_indices
from flatcheck.rational import Poly, unit_mono
from flatcheck.spencer import (
    JetField,
    algebraic_bracket,
    algebraic_bracket_fields,
    kernel_bracket,
    lift_with_top,
    prolong,
    spencer_bracket,
    spencer_operator,
)

from conftest import random_poly


def project(jet, r):
    """The r-jet under ``jet``: its components of order at most r."""
    return JetField(jet.n, r, {key: f for key, f in jet.components.items() if sum(key[1]) <= r})


def combination(*terms):
    """The jet field sum of c * field over the (c, field) pairs of ``terms``,
    which share n and k: each component scaled by c, and the components
    of one key added in the order of ``terms``."""
    n, k = terms[0][1].n, terms[0][1].k
    out = {}
    for c, field in terms:
        assert (field.n, field.k) == (n, k)
        for key, f in field.components.items():
            s = out.get(key)
            out[key] = f.scale(c) if s is None else s + f.scale(c)
    return JetField(n, k, out)


def random_vector_field(n, deg, rng):
    return [random_poly(n, deg, rng) for _ in range(n)]


def random_jet_field(n, k, rng, deg=2):
    comps = {}
    for i in range(n):
        for alpha in multi_indices(n, k):
            comps[(i, alpha)] = random_poly(n, deg, rng)
    return JetField(n, k, comps)


def random_point_jet(n, k, rng, kernel=False):
    """Taylor polynomials of a k-jet with integer derivative components."""
    return [Poly(n, {alpha: Fraction(rng.randint(-3, 3), mi_factorial(alpha))
                     for alpha in multi_indices(n, k) if not (kernel and sum(alpha) == 0)})
            for _ in range(n)]


def classical_bracket(v, w):
    n = len(v)
    out = []
    for i in range(n):
        acc = Poly.zero(n)
        for c in range(n):
            acc = acc + v[c] * w[i].diff(c) - w[c] * v[i].diff(c)
        out.append(acc)
    return out


# --- prolongation ------------------------------------------------------------

def test_prolong_constant_field():
    n = 2
    v = [Poly.const(n, 3), Poly.const(n, -1)]
    xi = prolong(v, 3)
    for (i, alpha), f in xi.components.items():
        if sum(alpha) > 0:
            assert f.is_zero()


def test_prolong_quadratic_example():
    n = 2
    x, y = Poly.var(n, 0), Poly.var(n, 1)
    xi = prolong([x * x, x * y], 1)
    assert xi.comp(0, (1, 0)) == x.scale(2)
    assert xi.comp(1, (1, 0)) == y
    assert xi.comp(1, (0, 1)) == x
    assert xi.comp(0, (0, 1)).is_zero()


def test_prolong_commutes_with_projection():
    rng = random.Random(3)
    for _ in range(10):
        v = random_vector_field(2, 3, rng)
        for k in (1, 2, 3):
            for r in range(k + 1):
                assert project(prolong(v, k), r) == prolong(v, r)


# --- Spencer operator ---------------------------------------------------------

def test_spencer_kills_prolongations():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.choice((1, 2))
        v = random_vector_field(n, 4, rng)
        for k in (1, 2, 3, 4):
            assert all(d.is_zero() for d in spencer_operator(prolong(v, k)))


def test_spencer_on_constant_delta_field():
    n = 2
    comps = {}
    for i in range(n):
        e = [0] * n
        e[i] = 1
        comps[(i, tuple(e))] = Poly.const(n, 1)
    xi = JetField(n, 1, comps)
    d = spencer_operator(xi)
    for r in range(n):
        for i in range(n):
            expect = Fraction(-1) if r == i else Fraction(0)
            assert d[r].comp(i, (0, 0)).eval((0, 0)) == expect


def test_spencer_linearity():
    rng = random.Random(7)
    for _ in range(10):
        a = random_jet_field(2, 2, rng)
        b = random_jet_field(2, 2, rng)
        ca, cb = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        combo = combination((ca, a), (cb, b))
        da, db = spencer_operator(a), spencer_operator(b)
        for r, d in enumerate(spencer_operator(combo)):
            assert d == combination((ca, da[r]), (cb, db[r]))


def test_missing_components_share_one_zero():
    xi = JetField(2, 1, {(0, (1, 0)): Poly.var(2, 0)})
    zero = xi.comp(1, (0, 0))
    assert zero.is_zero() and xi.comp(0, (0, 1)) is zero and xi.comp(1, [1, 0]) is zero
    d = spencer_operator(xi)  # only D_0 xi^0_(0, 0) = -x1 is nonzero
    assert d[1].comp(0, (0, 0)) is d[1].comp(1, [0, 0]) and d[1].is_zero()
    assert d[0].comp(1, (0, 0)).is_zero() and d[0].comp(0, (0, 0)) == Poly.var(2, 0).scale(-1)


def test_spencer_rejects_order_zero():
    xi = JetField(2, 0, {(0, (0, 0)): Poly.const(2, 1)})
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
            return [Poly(n, {unit_mono(n, j): m[i][j] for j in range(n)}) for i in range(n)]

        got = kernel_bracket(linear_jet(A), linear_jet(B), 1)
        for i in range(n):
            for j in range(n):
                expect = sum(B[i][t] * A[t][j] - A[i][t] * B[t][j] for t in range(n))
                assert got[i].coeff(unit_mono(n, j)) == expect


def test_bracket_of_holonomic_jets():
    rng = random.Random(13)
    n = 2
    for _ in range(10):
        v = random_vector_field(n, 3, rng)
        w = random_vector_field(n, 3, rng)
        k = 3
        a = prolong(v, k).at_point((0, 0))
        b = prolong(w, k).at_point((0, 0))
        got = algebraic_bracket(a, b, k)
        expect = prolong(classical_bracket(v, w), k - 1).at_point((0, 0))
        assert got == expect


def test_bracket_antisymmetry():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2, 3))
        a = random_point_jet(n, k, rng)
        b = random_point_jet(n, k, rng)
        ab = algebraic_bracket(a, b, k)
        ba = algebraic_bracket(b, a, k)
        assert ab == [-p for p in ba]
        assert all(p.degree() <= k - 1 for p in ab)


def test_at_point_gives_taylor_polynomials():
    rng = random.Random(43)
    for _ in range(10):
        n = rng.choice((1, 2))
        v = random_vector_field(n, 3, rng)
        for k in (0, 1, 2, 3, 4):
            assert prolong(v, k).at_point((0,) * n) == [p.degree_part(0, k) for p in v]


def test_algebraic_bracket_refuses_order_zero():
    x = Poly.var(1, 0)
    with pytest.raises(JetError, match="k >= 1"):
        algebraic_bracket([x], [x], 0)


def test_kernel_bracket_refuses_constant_term():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    kernel = [x, x * y]
    for shifted in ([x + Poly.const(2, 1), y], [x, y - Poly.const(2, Fraction(1, 3))]):
        for a, b in ((shifted, kernel), (kernel, shifted)):
            with pytest.raises(JetError, match="vanishing order-0 part"):
                kernel_bracket(a, b, 2)
    assert kernel_bracket(kernel, [y, x], 2) == [x * y - y, x - y * y - x * x]


def test_brackets_refuse_mixed_dimensions():
    one = [Poly.var(1, 0)]
    two = [Poly.var(2, 0), Poly.var(2, 1)]
    narrow = [Poly.var(1, 0), Poly.var(1, 0)]  # two components over one variable
    for a, b in ((one, two), (two, one), (two, narrow), (narrow, two)):
        for bracket in (algebraic_bracket, kernel_bracket):
            with pytest.raises(JetError, match="share dimension"):
                bracket(a, b, 2)


def test_kernel_bracket_jacobi():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2, 3))
        a, b, c = (random_point_jet(n, k, rng, kernel=True) for _ in range(3))
        total = [Poly.zero(n)] * n
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            term = kernel_bracket(kernel_bracket(x, y, k), z, k)
            total = [p + q for p, q in zip(total, term)]
        assert all(p.is_zero() for p in total)


def test_kernel_jacobi_check_fails_on_a_one_sided_bracket(monkeypatch):
    # v^c d_c w alone is not antisymmetric and breaks Jacobi: the suite must see it
    import flatcheck.spencer
    from flatcheck.spencer_suite import run_spencer_suite

    def one_sided(v, w):
        n = len(v)
        out = []
        for i in range(n):
            acc = Poly.zero(n)
            for c in range(n):
                acc = acc + v[c] * w[i].diff(c)
            out.append(acc)
        return out

    monkeypatch.setattr(flatcheck.spencer, "vector_field_bracket", one_sided)
    for seed in (0, 1, 2):
        assert run_spencer_suite(seed=seed, trials=5)["kernel_jacobi"]["passed"] < 5


def test_field_bracket_matches_point_bracket():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2))
        a = random_jet_field(n, k, rng)
        b = random_jet_field(n, k, rng)
        field_result = algebraic_bracket_fields(a, b)
        pt = tuple(Fraction(rng.randint(-1, 1), 2) for _ in range(n))
        assert field_result.at_point(pt) == algebraic_bracket(a.at_point(pt), b.at_point(pt), k)


# --- Spencer bracket -----------------------------------------------------------

def test_spencer_bracket_classical_instance():
    # [x d/dx, d/dx] = -d/dx
    x = Poly.var(1, 0)
    xi = JetField(1, 0, {(0, (0,)): x})
    eta = JetField(1, 0, {(0, (0,)): Poly.const(1, 1)})
    got = spencer_bracket(xi, eta)
    assert got.comp(0, (0,)) == Poly.const(1, -1)


def test_spencer_bracket_prolongation_instance():
    n = 2
    x, y = Poly.var(n, 0), Poly.var(n, 1)
    v = [x * x, Poly.zero(n)]
    w = [Poly.zero(n), y]
    lhs = spencer_bracket(prolong(v, 2), prolong(w, 2))
    rhs = prolong(classical_bracket(v, w), 2)
    assert lhs == rhs


def composed_bracket(xi, eta, top=None, signs=(1, -1)):
    """The bracket on sections as composed operators: the algebraic bracket
    of the two lifts plus sum_r xi^r_0 D_r eta1 - eta^r_0 D_r xi1, with
    each product and sum built on its own.  ``signs`` are the signs of the
    two contractions."""
    xi1, eta1 = lift_with_top(xi, top or {}), lift_with_top(eta, top or {})
    comps = dict(algebraic_bracket_fields(xi1, eta1).components)
    for sign, v, field in ((signs[0], xi.order_zero(), eta1), (signs[1], eta.order_zero(), xi1)):
        for r, d in enumerate(spencer_operator(field)):
            for key, f in d.components.items():
                term = (v[r] * f).scale(sign)
                comps[key] = comps[key] + term if key in comps else term
    return JetField(xi.n, xi.k, comps)


def random_top(n, k, rng, deg=2):
    return {(i, alpha): random_poly(n, deg, rng)
            for i in range(n) for alpha in multi_indices(n, k + 1) if sum(alpha) == k + 1}


@pytest.mark.parametrize("n", (1, 2))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_spencer_bracket_matches_the_composed_formula(n, k):
    rng = random.Random(100 * n + k)
    for _ in range(4):
        a = random_jet_field(n, k, rng)
        b = random_jet_field(n, k, rng)
        top = random_top(n, k, rng)
        assert spencer_bracket(a, b) == composed_bracket(a, b)
        assert spencer_bracket(a, b, top) == composed_bracket(a, b, top)


def test_lift_independence_check_fails_on_a_flipped_correction_sign(monkeypatch):
    # + eta_0 D xi1 in place of - eta_0 D xi1: the top components no longer cancel
    import flatcheck.spencer_suite
    from flatcheck.spencer_suite import run_spencer_suite

    def flipped(xi, eta, top=None):
        return composed_bracket(xi, eta, top, signs=(1, 1))

    monkeypatch.setattr(flatcheck.spencer_suite, "spencer_bracket", flipped)
    for seed in (0, 1, 2):
        result = run_spencer_suite(seed=seed, trials=5)["lift_independence"]
        assert result["passed"] < result["trials"]


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
                    top[(i, alpha)] = random_poly(n, 2, rng)
        assert spencer_bracket(a, b) == spencer_bracket(a, b, top)


def test_spencer_bracket_antisymmetry_and_jacobi():
    rng = random.Random(37)
    for _ in range(8):
        n = rng.choice((1, 2))
        k = rng.choice((1, 2))
        a, b, c = (random_jet_field(n, k, rng, deg=1) for _ in range(3))
        assert combination((1, spencer_bracket(a, b)), (1, spencer_bracket(b, a))).is_zero()
        jac = combination((1, spencer_bracket(a, spencer_bracket(b, c))),
                          (1, spencer_bracket(b, spencer_bracket(c, a))),
                          (1, spencer_bracket(c, spencer_bracket(a, b))))
        assert jac.is_zero()


def test_spencer_bracket_commutes_with_projection():
    rng = random.Random(41)
    for _ in range(10):
        a = random_jet_field(2, 2, rng)
        b = random_jet_field(2, 2, rng)
        whole = spencer_bracket(a, b)
        for r in (0, 1, 2):
            assert project(whole, r) == spencer_bracket(project(a, r), project(b, r))


# --- layer boundary ------------------------------------------------------------

def test_spencer_suite_builds_no_rational_function(monkeypatch):
    # jet fields live in Q[x]: the suite must run without a single RationalFunc
    from flatcheck.rational import RationalFunc
    from flatcheck.spencer_suite import run_spencer_suite

    def refuse(self, *args, **kwargs):
        raise AssertionError("RationalFunc built in the Spencer layer")

    monkeypatch.setattr(RationalFunc, "__init__", refuse)
    assert run_spencer_suite(seed=0, trials=3)["all_passed"]
