"""Exact trial division and the normal forms of ``flatcheck.rational``.

``Poly.divides`` is checked two ways on random sparse polynomials in at
most three variables, and on fixed divisors that reach each early refusal
and each path of the integer long division: against ``reference_divides``
below, a copy of the plain Fraction long division (one new Poly per step),
which pins the order of the quotient's terms; and against sympy's ``div``,
a test-only oracle that shares no code with flatcheck.  The normal-form
pins use the connection components of the conftest charts: polynomial on
unipotent4, with one to three denominator factors on sl2rational and
sl2mix4.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from conftest import make_sl2mix4, make_sl2rational, make_unipotent4
from flatcheck import rational
from flatcheck.charts_io import load_chart_file
from flatcheck.forms import scalars_residual
from flatcheck.frames import ChartError, curvature_components, gamma_from_frame
from flatcheck.jetcore import TruncatedMap, TruncatedPoly, substitute
from flatcheck.literals import parse_rational
from flatcheck.rational import Poly, RationalFunc, RationalGrid, grlex_key, unit_mono

SEEDS = range(8)
CASES_PER_SEED = 40
GOLDEN = Path(__file__).parent / "golden"


def reference_divides(f: Poly, h: Poly) -> Poly | None:
    """h / f by long division on whole polynomials, or None."""
    if f.is_const():
        return h.scale(1 / f.coeff((0,) * f.n))
    lead_m = max(f.coeffs, key=grlex_key)
    lead_c = f.coeffs[lead_m]
    rem, quot = h, {}
    while not rem.is_zero():
        rm = max(rem.coeffs, key=grlex_key)
        qm = tuple(a - b for a, b in zip(rm, lead_m))
        if any(e < 0 for e in qm):
            return None
        qc = rem.coeffs[rm] / lead_c
        quot[qm] = qc
        rem = rem - f * Poly(f.n, {qm: qc})
    return Poly(h.n, quot)


def rand_poly(rng: random.Random, n: int, terms: int, max_deg: int = 3) -> Poly:
    coeffs = {}
    for _ in range(terms):
        mono = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(n)] += 1
        coeffs[tuple(mono)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return Poly(n, coeffs)


def rand_nonzero(rng: random.Random, n: int, terms: int) -> Poly:
    while True:
        p = rand_poly(rng, n, terms)
        if not p.is_zero():
            return p


def sympy_divisible(f: Poly, h: Poly) -> bool:
    gens = sympy.symbols(f"x1:{f.n + 1}")

    def to_sympy(p: Poly):
        return sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator)
                                     for m, c in p.coeffs.items()}, *gens, domain=sympy.QQ)

    _, r = sympy.div(to_sympy(h), to_sympy(f))
    return r.is_zero


def division_cases(seed: int):
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        n = rng.randint(1, 3)
        f = rand_nonzero(rng, n, rng.randint(1, 4))
        if rng.random() < 0.5:
            f = f.monic()[0]  # denominator factors are monic
        g = rand_nonzero(rng, n, rng.randint(1, 4))
        yield n, f, g, rng


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_quotient_matches_reference_division(seed):
    for _, f, g, _ in division_cases(seed):
        h = f * g
        q = f.divides(h)
        assert q == g
        assert list(q.coeffs.items()) == list(reference_divides(f, h).coeffs.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_divisibility_agrees_with_sympy(seed):
    refused = 0
    for n, f, g, rng in division_cases(seed):
        # a multiple of f disturbed by one term, often still passing the early tests
        h = f * g + rand_poly(rng, n, 1)
        if h.is_zero():
            continue
        q = f.divides(h)
        assert (q is not None) == sympy_divisible(f, h)
        ref = reference_divides(f, h)
        assert (q is None) == (ref is None)
        if q is not None:
            assert list(q.coeffs.items()) == list(ref.coeffs.items())
        refused += q is None
    assert refused > CASES_PER_SEED // 2


def _no_long_division(monkeypatch):
    def fail(heap):
        raise AssertionError("long division ran")
    monkeypatch.setattr(rational, "heapify", fail)


def test_least_monomial_rejects_before_dividing(monkeypatch):
    f = Poly(1, {(2,): 1, (1,): 1})  # x1^2 + x1: least monomial x1
    h = Poly(1, {(3,): 1, (0,): 1})  # x1^3 + 1: least monomial 1, degree 3 >= 2
    assert reference_divides(f, h) is None
    _no_long_division(monkeypatch)
    assert f.divides(h) is None


def test_variable_degree_rejects_before_dividing(monkeypatch):
    f = Poly(2, {(0, 2): 1, (1, 0): 1})  # x2^2 + x1: least monomial x1, degrees (1, 2)
    h = Poly(2, {(2, 1): 1, (1, 0): 1})  # x1^2 x2 + x1: least monomial x1, degrees (2, 1)
    assert reference_divides(f, h) is None
    _no_long_division(monkeypatch)
    assert f.divides(h) is None


def test_probe_rejects_before_dividing(monkeypatch):
    # 1 + x4^2 + x2 x3 x4^2, the factor behind the failing divisions of sl2mix4;
    # h = f (x1 + 2) + 1 passes both shape tests, and f(2,3,5,7) = 785 does not
    # divide h(2,3,5,7) = 785 * 4 + 1
    f = Poly(4, {(0, 0, 0, 0): 1, (0, 0, 0, 2): 1, (0, 1, 1, 2): 1})
    h = f * Poly(4, {(1, 0, 0, 0): 1, (0, 0, 0, 0): 2}) + Poly.const(4, 1)
    assert (f.probe_value(), h.probe_value()) == (785, 785 * 4 + 1)
    assert reference_divides(f, h) is None
    _no_long_division(monkeypatch)
    assert f.divides(h) is None
    # the content of the numerators is divided out: 3 f still refuses h
    assert f.scale(3).probe_value() == 785 and f.scale(3).divides(h) is None
    # a divisor that vanishes at the probe point refuses what does not vanish there
    x1_minus_2, h = Poly(2, {(1, 0): 1, (0, 0): -2}), Poly(2, {(1, 1): 1, (0, 0): 1})
    assert x1_minus_2.probe_value() == 0 and h.probe_value() == 7
    assert reference_divides(x1_minus_2, h) is None and x1_minus_2.divides(h) is None


def check_division(f: Poly, h: Poly) -> Poly | None:
    """f.divides(h), checked against sympy and, term for term, against the
    reference long division."""
    q = f.divides(h)
    assert (q is not None) == sympy_divisible(f, h)
    ref = reference_divides(f, h)
    assert (q is None) == (ref is None)
    if q is not None:
        assert list(q.coeffs.items()) == list(ref.coeffs.items())
    return q


def divisor_cases(f: Poly, seed: int, extra: list):
    """(multiple, g) and (near-multiple, None) pairs for the divisor f: f
    times random g, then each disturbed by one random term and by each of
    ``extra``."""
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        g = rand_nonzero(rng, f.n, rng.randint(1, 4))
        yield f * g, g
        for r in [rand_poly(rng, f.n, 1)] + extra:
            h = f * g + r
            if not h.is_zero():
                yield h, None


@pytest.mark.parametrize("seed", range(3))
def test_divisor_whose_probe_value_is_zero(seed):
    # x1 - 2 vanishes at the probe point: it must still divide its multiples,
    # and a non-multiple that also vanishes there (x2 - 3) needs long division
    x1, x2 = Poly.var(3, 0), Poly.var(3, 1)
    f = x1 - Poly.const(3, 2)
    vanishing = [x2 - Poly.const(3, 3), x1 * x2 - Poly.const(3, 6)]
    assert f.probe_value() == 0 and all(r.probe_value() == 0 for r in vanishing)
    refused = 0
    for h, g in divisor_cases(f, seed, vanishing):
        q = check_division(f, h)
        if g is not None:
            assert q == g
        refused += q is None
    assert refused > CASES_PER_SEED


@pytest.mark.parametrize("seed", range(3))
def test_negative_fractional_leading_coefficient(seed):
    # -3/2 x1^2 x2 + 1/3 x2 + 5/7 has the leading numerator -63 over 42, so
    # most steps of its long division do not divide evenly
    f = Poly(2, {(2, 1): Fraction(-3, 2), (0, 1): Fraction(1, 3), (0, 0): Fraction(5, 7)})
    assert f.shape()[1] < 0 and f.int_form()[0][(2, 1)] == -63
    for h, g in divisor_cases(f, seed, []):
        q = check_division(f, h)
        if g is not None:
            assert q == g
            assert all(type(c) is Fraction and c.denominator > 0 for c in q.coeffs.values())


@pytest.mark.parametrize("seed", range(3))
def test_more_variables_than_the_probe_point(seed):
    # variables past the end of the probe point are evaluated at 1
    n = len(rational.PROBE_POINT) + 2
    last, past = unit_mono(n, n - 1), unit_mono(n, n - 2)
    f = Poly(n, {tuple(map(sum, zip(last, last))): 1, past: Fraction(-1, 2),
                 unit_mono(n, 0): 3})  # x8^2 - 1/2 x7 + 3 x1
    assert f.probe_value() == 2 * (1 - Fraction(1, 2) + 6)
    rng = random.Random(seed)
    extra = [Poly(n, {(rng.randrange(2),) * n: 1}) for _ in range(3)]
    for h, g in divisor_cases(f, seed, extra):
        q = check_division(f, h)
        if g is not None:
            assert q == g


def test_a_truncated_poly_divides_like_a_poly():
    p = TruncatedPoly(2, 4, {(1, 0): 1, (0, 0): 1})  # x1 + 1
    h = Poly(2, {(2, 0): 1, (1, 0): 2, (0, 0): 1})  # (x1 + 1)^2
    assert p.divides(h) == Poly(2, {(1, 0): 1, (0, 0): 1})
    assert p.shape()[0] == (1, 0)
    q = TruncatedPoly(2, 4, {(1, 0): 1, (0, 0): 1, (1, 1): 5})  # x1 + 1 + 5 x1 x2
    assert q.divides(h) is None
    assert q.divides(h * Poly(2, {(1, 1): 5, (1, 0): 1, (0, 0): 1})) == h


# --- probe values carried through the arithmetic ---------------------------------

def fresh_probe(p: Poly) -> int:
    """The probe value of p computed from its terms, by a copy that holds none."""
    return Poly(p.n, p.coeffs).probe_value()


def carry_case(rng: random.Random, pool: list) -> tuple:
    """(operation, a, b, result) of one random operation on the pool: +,
    -, *, negation, scaling by a factor of either sign, or the exact
    quotient (a * b) / a, whose operands are a and a * b."""
    a, b = rng.choice(pool), rng.choice(pool)
    op = rng.choice(["+", "-", "*", "neg", "scale", "quotient"])
    if op == "+":
        return op, a, b, a + b
    if op == "-":
        return op, a, b, a - b
    if op == "*":
        return op, a, b, a * b
    if op == "neg":
        return op, a, a, -a
    if op == "scale":
        return op, a, a, a.scale(Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)))
    ab = a * b
    q = a.divides(ab)
    assert q == b
    return op, a, ab, q


@pytest.mark.parametrize("seed", range(4))
def test_carried_probe_values_match_fresh_ones(seed):
    rng = random.Random(seed)
    carried = 0
    for n in (1, 2, 3, len(rational.PROBE_POINT) + 2):
        # x1 - 2 has the probe value 0: a quotient by it carries nothing
        x1_minus_2 = Poly.var(n, 0) - Poly.const(n, 2)
        pool = [rand_nonzero(rng, n, rng.randint(1, 4)) for _ in range(4)] + [x1_minus_2]
        for p in pool:
            p.probe_value()
        assert x1_minus_2.probe_value() == 0
        for _ in range(80):
            op, a, b, r = carry_case(rng, pool)
            if not r.terms:
                assert r._probe is None
                continue
            both = a._probe is not None and b._probe is not None
            if r._probe is None:
                # held by both operands, a probe is dropped only by a
                # quotient by a divisor whose probe value is 0
                assert not both or (op == "quotient" and a.probe_value() == 0)
            else:
                assert both
                carried += 1
                assert r._probe == fresh_probe(r)
            if rng.random() < 0.3:
                r.probe_value()  # computed on read, then carried onwards
            if r.degree() <= 6 and len(r.terms) <= 12:
                pool.append(r)
    assert carried > 200


def test_a_probe_is_carried_only_when_both_operands_hold_one():
    a, b = Poly(2, {(1, 0): 1, (0, 1): 2}), Poly(2, {(2, 0): Fraction(1, 3), (0, 0): -1})
    a.probe_value()
    assert (a * b)._probe is None and (a + b)._probe is None and (b - a)._probe is None
    b.probe_value()
    assert (a * b)._probe == fresh_probe(a * b) and (a + b)._probe == fresh_probe(a + b)
    # a - a is the zero, which holds no probe
    assert (a - a)._probe is None and not (a - a).terms


def test_truncated_products_derivatives_and_degree_parts_carry_nothing():
    a = Poly(2, {(1, 0): 1, (0, 2): 3, (0, 0): 1})
    b = Poly(2, {(1, 1): -2, (0, 1): 1, (0, 0): 5})
    ta, tb = TruncatedPoly(2, 3, a.coeffs), TruncatedPoly(2, 3, b.coeffs)
    for p in (a, b, ta, tb):
        p.probe_value()
    assert (a * b)._probe is not None
    for got in (a._product(b, 2), ta * tb, a.diff(0), ta.diff(1), a.degree_part(0, 1),
                ta.truncate(1)):
        assert got._probe is None
        assert got.probe_value() == fresh_probe(got)


def test_a_truncated_product_sorts_its_right_operand_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(rational, "sorted", counted, raising=False)
    # a jet substitution multiplies by the same n displacement components throughout
    n, k = 3, 5
    rng = random.Random(0)
    g = TruncatedMap([TruncatedPoly(n, k, rand_nonzero(rng, n, 4).coeffs) for _ in range(n)])
    outer = [TruncatedPoly(n, k, rand_nonzero(rng, n, 4).coeffs) for _ in range(n)]
    got = substitute(outer, g)
    assert 0 < len(calls) <= n
    # the cache keeps the order of a fresh sort, so every product keeps its terms
    monkeypatch.undo()
    fresh = TruncatedMap([TruncatedPoly(n, k, c.coeffs) for c in g.components])
    assert [list(p.terms.items()) for p in got] == \
        [list(p.terms.items()) for p in substitute(outer, fresh)]


# --- normal forms of connection components --------------------------------------

CHARTS = {"sl2rational": make_sl2rational, "unipotent4": make_unipotent4,
          "sl2mix4": make_sl2mix4}


@pytest.fixture(scope="module", params=sorted(CHARTS))
def chart_and_gamma(request):
    chart = CHARTS[request.param]()
    conn = gamma_from_frame(chart)
    fields = [f for plane in conn.gamma for row in plane for f in row]
    assert any(fields)
    return chart, fields


@pytest.mark.parametrize("c", [Fraction(-1), Fraction(3, 7), 2, Fraction(-5, 2)])
def test_scale_is_the_reduced_normal_form(chart_and_gamma, c):
    _, fields = chart_and_gamma
    for f in fields:
        got = f.scale(c)
        ref = RationalFunc(f.num.scale(c), f.den)
        assert list(got.num.coeffs.items()) == list(ref.num.coeffs.items())
        assert list(got.den.items()) == list(ref.den.items())
    assert all(f.scale(0).is_zero() and not f.scale(0).den for f in fields)


def test_zero_products_do_not_reduce(chart_and_gamma, monkeypatch):
    _, fields = chart_and_gamma
    zero = RationalFunc(Poly.zero(fields[0].n))
    calls = []
    original = RationalFunc._reduce

    def counted(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(RationalFunc, "_reduce", counted)
    for f in fields:
        assert (zero * f).is_zero() and (f * zero).is_zero()
    assert calls == []


def test_a_product_with_a_zero_operand_builds_no_terms(monkeypatch):
    def fail(self, nums, den):
        raise AssertionError("Poly._from_ints called")

    monkeypatch.setattr(Poly, "_from_ints", fail)
    cases = [(Poly.zero(2), Poly(2, {(1, 0): 1, (0, 2): Fraction(1, 3)})),
             (TruncatedPoly(2, 3, {}), TruncatedPoly(2, 3, {(1, 0): 1, (0, 2): 2}))]
    for zero, f in cases:
        for got in (zero * f, f * zero):
            assert not got.terms and got.denom == 1 and type(got) is type(f)
            assert getattr(got, "k", None) == getattr(f, "k", None)


# --- the fused multiply-accumulate ------------------------------------------------

def reference_dot(acc: Poly, terms) -> Poly:
    """acc + c * (a * b) for each triple, summed left to right."""
    for c, a, b in terms:
        acc = acc + (a * b).scale(c)
    return acc


@pytest.mark.parametrize("seed", SEEDS)
def test_dot_matches_the_sum_of_its_products(seed):
    rng = random.Random(seed)
    for _ in range(CASES_PER_SEED):
        n = rng.randint(1, 3)
        # denominators 1..3 differ from operand to operand; a zero operand now and then
        pool = [rand_poly(rng, n, rng.randint(0, 4)) for _ in range(4)]
        terms = [(rng.randint(-3, 3), rng.choice(pool), rng.choice(pool))
                 for _ in range(rng.randint(0, 5))]
        if terms and rng.random() < 0.5:  # a triple that cancels one already there
            c, a, b = rng.choice(terms)
            terms.append((-c, b, a))
        acc = Poly.zero(n) if rng.random() < 0.5 else rand_poly(rng, n, 3)
        assert acc.dot(terms) == reference_dot(acc, terms)


def test_dot_cancels_to_normal_forms():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    a = Poly(2, {(1, 0): Fraction(1, 3), (0, 0): Fraction(-1, 2)})
    b = Poly(2, {(0, 1): Fraction(2, 5), (1, 1): 1})
    zero = Poly.zero(2)
    assert zero.dot([(1, a, b), (-1, b, a)]) == zero
    assert zero.dot([(2, a, b), (1, a, b.scale(-2))]).denom == 1
    # three thirds of x * x: the common denominator 3 reduces away
    third = x.scale(Fraction(1, 3))
    got = zero.dot([(1, third, x), (1, x, third), (1, third, x)])
    assert got == x * x and got.denom == 1
    # a sum that cancels in the middle and comes back
    assert zero.dot([(1, x, y), (-1, y, x), (3, x, y)]) == (x * y).scale(3)
    assert a.dot([(1, a, zero), (-1, a, Poly.const(2, 1))]) == zero


def test_dot_skips_zero_operands_and_zero_coefficients():
    a = Poly(2, {(1, 0): Fraction(1, 3), (0, 2): 2})
    zero = Poly.zero(2)
    for terms in ([], [(0, a, a)], [(3, zero, a)], [(-2, a, zero)], [(0, zero, zero)]):
        got = zero.dot(terms)
        assert got == zero and got.denom == 1 and type(got) is Poly
        assert a.dot(terms) == a


def test_dot_keeps_the_kind_of_its_accumulator():
    ta = TruncatedPoly(2, 4, {(1, 0): Fraction(1, 2), (0, 1): 3, (0, 0): 1})
    tb = TruncatedPoly(2, 4, {(1, 1): -2, (0, 0): Fraction(5, 3)})
    terms = [(2, ta, tb), (-1, tb, tb), (1, tb, ta)]
    for acc in (ta, TruncatedPoly(2, 4)):
        got = acc.dot(terms)
        assert type(got) is TruncatedPoly and got.k == 4
        assert got == reference_dot(acc, terms)
    empty = TruncatedPoly(2, 4).dot([])
    assert type(empty) is TruncatedPoly and empty.k == 4 and empty.is_zero()


def test_dot_refuses_a_product_past_the_largest_degree():
    x = Poly.var(1, 0)
    top = Poly(1, {(rational.MAX_DEGREE,): 1})
    with pytest.raises(ValueError, match="largest packed total degree"):
        top * x
    for terms in ([(1, top, x)], [(1, x, x), (-2, x, top)]):
        with pytest.raises(ValueError, match="largest packed total degree"):
            Poly.zero(1).dot(terms)
    # a triple that contributes nothing is not multiplied, as a zero operand is not
    assert Poly.zero(1).dot([(0, top, x), (1, top, Poly.zero(1))]).is_zero()
    assert Poly.zero(1).dot([(1, top, Poly.const(1, 2))]) == top.scale(2)


# --- the fused sum of rational functions ------------------------------------------

def reference_rf_dot(acc: RationalFunc, terms) -> RationalFunc:
    """acc + c * a * b (c * a where b is None) for each triple, one normal
    form per product and per partial sum, summed left to right."""
    for c, a, b in terms:
        acc = acc + (a if b is None else a * b).scale(c)
    return acc


def sl2mix4_like_fields() -> list:
    """Fields over the denominators of sl2mix4's Gamma: x1, the factor
    x1 (1 + x4^2), which shares x1 with the first, and 1 + x4^2 + x2 x3 x4^2,
    alone, squared and together."""
    n = 4
    x1, x2, x3, x4 = (RationalFunc.var(n, t) for t in range(n))
    one = RationalFunc.const(n, 1)
    q = one + x4 * x4
    wide = (x1 * q).inverse()
    assert list(wide.den) == [(x1 * q).num]  # one factor, not coprime to x1
    third = (q + x2 * x3 * x4 * x4).inverse()
    return [(x2 + x3.scale(3)) / x1, (x1 * x4 - one) * wide, x2.scale(Fraction(2, 3)) * third,
            (x3 - x4) * wide * third, (x1 * x1 + x2).scale(Fraction(-5, 7)) * wide * wide,
            x4 * x4 / (x1 * x1), one + x2 * x3]


def test_rf_dot_denominators_are_shared_and_not_coprime():
    fields = sl2mix4_like_fields()
    factors = {f for g in fields for f in g.den}
    x1 = Poly.var(4, 0)
    assert x1 in factors and any(f != x1 and x1.divides(f) is not None for f in factors)


@pytest.mark.parametrize("seed", SEEDS)
def test_rf_dot_matches_sequential_arithmetic_by_value(seed):
    rng = random.Random(seed)
    pool = sl2mix4_like_fields() + [RationalFunc(Poly.zero(4))]
    for _ in range(CASES_PER_SEED // 2):
        terms = [(rng.randint(-3, 3), rng.choice(pool), rng.choice(pool + [None]))
                 for _ in range(rng.randint(0, 6))]
        if terms and rng.random() < 0.5:  # a triple that cancels one already there
            c, a, b = rng.choice(terms)
            terms.append((-c, a, b) if b is None else (-c, b, a))
        acc = pool[-1] if rng.random() < 0.5 else rng.choice(pool)
        got, want = acc.dot(terms), reference_rf_dot(acc, terms)
        assert (got - want).is_zero() and got.is_zero() == want.is_zero()
        assert not got.is_zero() or not got.den


def test_rf_dot_cancels_to_the_literal_zero():
    a, b, c, d, e, f, g = sl2mix4_like_fields()
    zero = RationalFunc(Poly.zero(4))
    cases = [
        [(1, a, b), (-1, b, a)],
        # a product entered once as its operands and once as its normal form,
        # whose denominator has lost a factor to the reduction
        [(1, b, d), (-1, b * d, None)],
        [(2, e, None), (-1, e, None), (-1, e, None)],
        [(3, a, c), (1, f, g), (-3, c, a), (-1, f * g, None)],
        [(1, d, e), (1, a, None), (-1, e * d, None), (-1, a, None)],
    ]
    for terms in cases:
        got = zero.dot(terms)
        assert got.is_zero() and not got.den and reference_rf_dot(zero, terms).is_zero()
    assert a.dot([(-1, a, None)]).is_zero()


def test_rf_dot_skips_zero_operands_and_zero_coefficients():
    a, b, *_ = sl2mix4_like_fields()
    zero = RationalFunc(Poly.zero(4))
    for terms in ([], [(0, a, b)], [(3, zero, a)], [(-2, a, zero)], [(0, a, None)],
                  [(5, zero, None)]):
        assert zero.dot(terms).is_zero()
        got = a.dot(terms)
        assert got.num == a.num and got.den == a.den
    # b None stands for 1
    assert (zero.dot([(2, b, None)]) - b.scale(2)).is_zero()


def per_point_float(f: RationalFunc, point) -> float:
    """The float rule of ``RationalGrid`` at one point, as a plain loop:
    each term's rounded coefficient times the float powers of its
    variables in turn, the terms summed in order from 0.0, then divided by
    each denominator factor's value to its exponent."""
    def poly(p: Poly) -> float:
        total = 0.0
        for mono, v in zip(p.monomials(), p.terms.values()):
            term = rational._quotient(v, p.denom)
            for x, e in zip(point, mono):
                if e:
                    term *= rational._power(x, e)
            total += term
        return total

    v = poly(f.num)
    for g, e in f.den.items():
        d = poly(g)
        try:
            v /= d ** e
        except (OverflowError, ZeroDivisionError):
            v = rational._quotient(v, rational._power(d, e))
    return v


def assert_grid_matches_points(grid: RationalGrid, fields) -> None:
    """Every value of the column-wise grid, bit for bit, against
    ``eval_float`` and the plain per-point loop at each point."""
    for f in fields:  # one grid for all fields: shared factors come from its cache
        got = [v.hex() for v in grid.values(f)]
        assert got == [f.eval_float(p).hex() for p in grid.points]
        assert got == [per_point_float(f, p).hex() for p in grid.points]


def test_grid_values_are_bit_identical_to_eval_float(chart_and_gamma):
    chart, fields = chart_and_gamma
    # grid 5 puts 625 points on unipotent4, each coordinate shared by 125
    for grid_points in (3, 5) if chart.name == "unipotent4" else (3,):
        assert_grid_matches_points(RationalGrid(chart.rational_grid(grid_points)), fields)


@pytest.mark.parametrize("name", ["dense2", "dense3"])
def test_grid_values_are_bit_identical_on_the_dense_golden_charts(name):
    # non-dyadic coefficients and coordinates: another order of the float
    # operations would show in the last bits
    chart = load_chart_file(str(GOLDEN / f"chart-{name}.json"))
    conn = gamma_from_frame(chart)
    fields = ([f for plane in conn.gamma for row in plane for f in row]
              + list(curvature_components(conn).values()))
    assert any(f.den for f in fields)
    for grid_points in (2, 3):
        assert_grid_matches_points(RationalGrid(chart.rational_grid(grid_points)), fields)


def overflowing_field() -> RationalFunc:
    """1 / x1^2: the square of its factor overflows at x1 = 10^200 and
    rounds to zero at x1 = 10^-200."""
    return RationalFunc(Poly.const(1, 1), {Poly.var(1, 0): 2})


OVERFLOW_POINTS = [(Fraction(3),), (Fraction(1, 10 ** 200),), (Fraction(10 ** 200),),
                   (Fraction(-7, 5),)]


def test_a_column_that_overflows_falls_back_point_by_point():
    f = overflowing_field()
    grid = RationalGrid(OVERFLOW_POINTS)
    got = grid.values(f)
    assert got[1] == float("inf") and got[2] == 0.0
    assert_grid_matches_points(grid, [f, f.scale(-3), RationalFunc(Poly.var(1, 0)) * f])


def test_grid_max_names_the_first_point_that_is_not_finite():
    with pytest.raises(ChartError, match=r"not finite at \(1e-200,\)"):
        scalars_residual([overflowing_field()], RationalGrid(OVERFLOW_POINTS))
    assert (scalars_residual([overflowing_field()], RationalGrid(OVERFLOW_POINTS[2:]))
            == 1 / 1.4 ** 2)


def test_scaling_or_differentiating_a_zero_field_returns_it():
    zero = RationalFunc(Poly.zero(2))
    assert all(zero.scale(c) is zero for c in (-1, 0, Fraction(3, 7)))
    assert zero.diff(0) is zero and zero.diff(1) is zero


# --- rational literals --------------------------------------------------------

@pytest.mark.parametrize("text", ["3/4", " -7/21 ", "0.25", "-1.5e-3", "2E+5", "1_000e2",
                                  "1e4299", "1e-4299", "0.5e-4298", "7"])
def test_parse_rational_is_fraction(text):
    got = parse_rational(text)
    assert type(got) is Fraction and got == Fraction(text)


@pytest.mark.parametrize("text", ["1e4300", "1e-4300", "0.5e-4299", "12e4299", "1e99999999",
                                  "1_0e99999999", "-1.5E-99999999"])
def test_parse_rational_refuses_more_digits_than_int_accepts(text):
    # before the value is built: "1e99999999" would take minutes
    with pytest.raises(OverflowError, match="needs more than 4300 digits"):
        parse_rational(text)


@pytest.mark.parametrize("text, error", [("abc", ValueError), ("1e", ValueError),
                                         ("1/0", ZeroDivisionError), ("", ValueError)])
def test_parse_rational_passes_on_fraction_errors(text, error):
    with pytest.raises(error):
        parse_rational(text)
