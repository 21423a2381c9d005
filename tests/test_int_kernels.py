"""The integer-numerator kernels of ``Poly`` against plain-Fraction references.

``Poly`` arithmetic runs on integer numerators over one common denominator
and builds the Fraction coefficients once per output term.  The references
below are the schoolbook Fraction loops: each result must equal them in
value, hold only Fraction coefficients, and list its terms in the same
order, because ``RationalGrid`` sums float terms in that order.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from math import lcm

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatcheck.jetcore import JetError, TruncatedPoly, multi_indices
from flatcheck.rational import MAX_DEGREE, Poly, _fraction
from test_rational import check_division, reference_divides


def rand_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6) or 1, rng.choice((1, 1, 1, 2, 3, 4, 6, 9)))


def rand_coeffs(rng: random.Random, n: int, max_deg: int, terms: int) -> dict:
    monos = multi_indices(n, max_deg)
    return {rng.choice(monos): rand_frac(rng) for _ in range(terms)}


def ref_product(a: Poly, b: Poly, k: int | None = None) -> list:
    """Terms of a * b by the Fraction loop; with ``k`` the right terms are
    visited by degree and each left term stops at the first one over k."""
    right = list(b.coeffs.items())
    if k is not None:
        right.sort(key=lambda t: sum(t[0]))
    out: dict = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in right:
            if k is not None and sum(ma) + sum(mb) > k:
                break
            mono = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(mono, Fraction(0)) + ca * cb
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return list(out.items())


def ref_combine(a: Poly, b: Poly, sign: int) -> list:
    out = dict(a.coeffs)
    for mono, c in b.coeffs.items():
        s = out.get(mono, Fraction(0)) + sign * c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return list(out.items())


def ref_diff(a: Poly, idx: int) -> list:
    out = []
    for mono, c in a.coeffs.items():
        if mono[idx]:
            m = list(mono)
            m[idx] -= 1
            out.append((tuple(m), c * mono[idx]))
    return out


def ref_eval(a: Poly, point) -> Fraction:
    """The value at ``point`` by the Fraction loop."""
    pt = [Fraction(x) for x in point]
    total = Fraction(0)
    for mono, c in a.coeffs.items():
        term = c
        for x, e in zip(pt, mono):
            if e:
                term *= x ** e
        total += term
    return total


def assert_terms(p: Poly, expected: list) -> None:
    """Same terms, same values, same order, and every value a Fraction."""
    got = list(p.coeffs.items())
    assert got == expected
    assert all(type(c) is Fraction for _, c in got)
    nums, den = p.int_form()
    assert den > 0 and list(nums) == list(p.coeffs)
    assert all(Fraction(v, den) == c for v, c in zip(nums.values(), p.coeffs.values()))


def random_pairs(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 3)
        k = rng.randint(0, 6)
        yield (rng, n, k, rand_coeffs(rng, n, k, rng.randint(0, 8)),
               rand_coeffs(rng, n, k, rng.randint(0, 8)))


@pytest.mark.parametrize("seed", range(4))
def test_poly_product_matches_the_fraction_loop(seed):
    for _, n, _, ca, cb in random_pairs(seed, 60):
        a, b = Poly(n, ca), Poly(n, cb)
        assert_terms(a * b, ref_product(a, b))
        # an operand that already holds its integer form gives the same terms
        assert_terms(a * (a * b), ref_product(a, Poly(n, (a * b).coeffs)))


@pytest.mark.parametrize("seed", range(4))
def test_truncated_product_matches_the_fraction_loop(seed):
    for _, n, k, ca, cb in random_pairs(100 + seed, 60):
        a, b = TruncatedPoly(n, k, ca), TruncatedPoly(n, k, cb)
        product = a * b
        assert type(product) is TruncatedPoly and product.k == k
        assert_terms(product, ref_product(a, b, k))
        assert all(sum(m) <= k for m in product.coeffs)


@pytest.mark.parametrize("seed", range(4))
def test_sum_difference_scale_and_derivative_match_fractions(seed):
    for rng, n, _, ca, cb in random_pairs(200 + seed, 60):
        a, b = Poly(n, ca), Poly(n, cb)
        assert_terms(a + b, ref_combine(a, b, 1))
        assert_terms(a - b, ref_combine(a, b, -1))
        assert_terms(a - a, [])
        assert_terms(-a, [(m, -c) for m, c in a.coeffs.items()])
        c = rand_frac(rng)
        assert_terms(a.scale(c), [(m, c * v) for m, v in a.coeffs.items()])
        assert_terms(a.scale(0), [])
        idx = rng.randrange(n)
        assert_terms(a.diff(idx), ref_diff(a, idx))


def test_truncated_arithmetic_refuses_mismatched_orders():
    a, b = TruncatedPoly(2, 2, {(1, 0): 1}), TruncatedPoly(2, 3, {(0, 1): 1})
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(JetError, match="k=2.*k=3"):
            op(a, b)


def test_cancelling_products_keep_the_order_of_the_fraction_loop():
    # in (x + y + 1)(y - x + xy) the x*y term cancels after y*(-x), and 1*xy
    # brings it back: it is listed last, where the Fraction loop puts it
    x, y, one = Poly.var(2, 0), Poly.var(2, 1), Poly.const(2, 1)
    assert_terms((x + y + one) * (y - x + x * y),
                 [((2, 0), -1), ((2, 1), 1), ((0, 2), 1), ((1, 2), 1), ((0, 1), 1),
                  ((1, 0), -1), ((1, 1), 1)])
    a, b = x.scale(Fraction(1, 2)) + y, y.scale(Fraction(-1, 2)) + x.scale(Fraction(1, 4))
    assert_terms(a * b, ref_product(a, b))
    assert_terms((x + y) * (x - y), [((2, 0), 1), ((0, 2), -1)])
    cancelled = 0
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 2)
        ca = {m: Fraction(rng.choice((-1, 1)), rng.choice((1, 2))) for m in multi_indices(n, 2)}
        cb = {m: Fraction(rng.choice((-1, 1)), rng.choice((1, 2))) for m in multi_indices(n, 2)}
        a, b = Poly(n, ca), Poly(n, cb)
        expected = ref_product(a, b)
        cancelled += len(expected) < len({tuple(p + q for p, q in zip(ma, mb))
                                          for ma in ca for mb in cb})
        assert_terms(a * b, expected)
        ta, tb = TruncatedPoly(n, 3, ca), TruncatedPoly(n, 3, cb)
        assert_terms(ta * tb, ref_product(ta, tb, 3))
    assert cancelled > 20  # the loop above really exercises cancellation


def test_integer_form_of_a_truncated_product_and_of_a_fresh_poly():
    a = TruncatedPoly(2, 3, {(1, 0): Fraction(1, 2), (0, 1): 3})
    b = TruncatedPoly(2, 3, {(0, 0): 1, (1, 1): Fraction(-2, 3)})
    p = a * b
    assert p.int_form() == ({(1, 0): 3, (0, 1): 18, (2, 1): -2, (1, 2): -12}, 6)
    q = TruncatedPoly(2, 3, {**p.coeffs, (0, 0): Fraction(5, 4)})
    assert q.int_form() == ({(1, 0): 6, (0, 1): 36, (2, 1): -4, (1, 2): -24, (0, 0): 15}, 12)
    assert_terms(q * b, ref_product(q, b, 3))
    assert_terms(q + b, ref_combine(q, b, 1))
    assert (1, 0) not in TruncatedPoly(2, 3, {**q.coeffs, (1, 0): 0}).int_form()[0]


def test_integer_form_uses_the_least_common_denominator():
    p = Poly(2, {(1, 0): Fraction(1, 4), (0, 1): Fraction(5, 6), (0, 0): 2})
    assert p.int_form() == ({(1, 0): 3, (0, 1): 10, (0, 0): 24}, 12)
    # a product whose terms share a factor with the denominator is reduced
    q = p.scale(12) * Poly.const(2, Fraction(1, 12))
    assert q.int_form() == p.int_form() and q == p
    assert Poly.zero(3).int_form() == ({}, 1)
    assert (Poly.var(1, 0).scale(Fraction(1, 3)) * Poly.const(1, 3)).int_form() == ({(1,): 1}, 1)
    for r in (p, q, p * p, p - q.scale(Fraction(1, 2))):
        assert r.int_form()[1] == lcm(*(c.denominator for c in r.coeffs.values()))


@pytest.mark.parametrize("num, den", [(0, 1), (7, 1), (-7, 1), (6, 4), (-6, 4), (5, 35),
                                      (10 ** 30, 3 * 10 ** 20), (0, 12)])
def test_fast_fraction_is_a_normal_fraction(num, den):
    f, ref = _fraction(num, den), Fraction(num, den)
    assert type(f) is Fraction
    assert (f.numerator, f.denominator) == (ref.numerator, ref.denominator)
    assert f == ref and hash(f) == hash(ref) and repr(f) == repr(ref) and str(f) == str(ref)
    assert float(f) == float(ref) and f + 1 == ref + 1


def unreduced(num: int, den: int) -> Fraction:
    """A Fraction whose numerator and denominator share a factor."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = num, den
    return f


def rand_coordinate(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-3, 3)  # an int, maybe zero or negative
    if kind == 2:
        return Fraction(rng.randint(-3, 3))  # an integral Fraction
    if kind == 3:
        k = rng.randint(2, 3)
        return unreduced(k * rng.randint(-4, 4), k * rng.randint(1, 5))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


@pytest.mark.parametrize("seed", range(4))
def test_eval_matches_the_fraction_loop(seed):
    assert (unreduced(4, 6).numerator, unreduced(4, 6).denominator) == (4, 6)
    rng = random.Random(300 + seed)
    for _, n, _, ca, _ in random_pairs(300 + seed, 60):
        a = Poly(n, ca)
        for _ in range(4):
            point = [rand_coordinate(rng) for _ in range(n)]
            got, ref = a.eval(point), ref_eval(a, point)
            assert type(got) is Fraction
            # the Fraction loop keeps a coordinate's common factor; compare values
            assert got.numerator * ref.denominator == ref.numerator * got.denominator
            normal = Fraction(got.numerator, got.denominator)
            assert (got.numerator, got.denominator) == (normal.numerator, normal.denominator)


def test_eval_reads_other_coordinates_and_short_points():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    p = (x * x * y).scale(Fraction(3, 4)) - y.scale(Fraction(1, 6)) + Poly.const(2, 5)
    for point in ([0.5, "-2/3"], (Fraction(1, 2), Fraction(-2, 3)), iter([0.5, -0.25])):
        point = list(point)
        assert p.eval(iter(point)) == ref_eval(p, point)
    # a point shorter than n leaves the missing variables at 1, as zip does
    assert p.eval([Fraction(1, 3)]) == ref_eval(p, [Fraction(1, 3)]) == p.eval([Fraction(1, 3), 1])
    assert Poly.zero(2).eval([1, 2]) == 0 and Poly.const(0, 7).eval([]) == 7


small_fraction = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def poly_triples(draw):
    """(f, g, r): f nonzero, in n <= 3 variables of degree <= 3."""
    n = draw(st.integers(1, 3))
    mono = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    polys = st.dictionaries(mono, small_fraction, max_size=4).map(lambda c: Poly(n, c))
    f = draw(polys.filter(lambda p: not p.is_zero()))
    return f, draw(polys), draw(polys)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(poly_triples())
def test_division_property(triple):
    f, g, r = triple
    assert f.divides(f * g) == g
    h = f * g + r
    if not h.is_zero():
        check_division(f, h)


@st.composite
def kernel_cases(draw):
    """Two polynomials in n <= 6 variables of degree <= 6 per variable, a
    truncation order, a rational point and a scalar."""
    n = draw(st.integers(1, 6))
    mono = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    coeffs = st.dictionaries(mono, small_fraction, max_size=6)
    return (n, draw(coeffs), draw(coeffs), draw(st.integers(0, 8)),
            draw(st.lists(small_fraction, min_size=n, max_size=n)), draw(small_fraction),
            draw(mono))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kernel_cases())
def test_packed_kernels_match_the_fraction_loops(case):
    n, ca, cb, k, point, c, extra = case
    a, b = Poly(n, ca), Poly(n, cb)
    assert_terms(a * b, ref_product(a, b))
    ta, tb = TruncatedPoly(n, k, ca), TruncatedPoly(n, k, cb)
    assert_terms(ta * tb, ref_product(ta, tb, k))
    assert_terms(a + b, ref_combine(a, b, 1))
    assert_terms(a - b, ref_combine(a, b, -1))
    assert_terms(a.scale(c), [(m, c * v) for m, v in a.coeffs.items()] if c else [])
    for idx in range(n):
        assert_terms(a.diff(idx), ref_diff(a, idx))
    assert a.eval(point) == ref_eval(a, point)
    if a.is_zero():
        return
    # an exact quotient, then a multiple disturbed by one term, and by a term
    # that vanishes at the probe point, which only the long division refuses
    term = Poly(n, {extra: 1})
    for h in (a * b, a * b + term, a * b + term * (Poly.var(n, 0) - Poly.const(n, 2))):
        q, ref = a.divides(h), reference_divides(a, h)
        assert (q is None) == (ref is None)
        if q is not None:
            assert_terms(q, list(ref.coeffs.items()))
    assert a.divides(a * b) == b


def test_a_product_past_the_packed_degree_raises():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    top = Poly(2, {(0, MAX_DEGREE - 1): 3}) * y  # the largest degree, in the lowest field
    assert list(top.coeffs.items()) == [((0, MAX_DEGREE), 3)] and top.degree() == MAX_DEGREE
    assert list(top.diff(1).coeffs.items()) == [((0, MAX_DEGREE - 1), 3 * MAX_DEGREE)]
    assert top.divides(top * Poly.const(2, 5)) == Poly.const(2, 5)
    for product in (lambda: top * x, lambda: x * top, lambda: top * top):
        with pytest.raises(ValueError, match=f"largest packed total degree, {MAX_DEGREE}"):
            product()
    for mono in ((MAX_DEGREE, 1), (-1, 2), (1,)):
        with pytest.raises(ValueError, match="is not an exponent vector"):
            Poly(2, {mono: 1})
    with pytest.raises(JetError, match="negative entry"):
        TruncatedPoly(2, 3, {(-1, 2): 1})
