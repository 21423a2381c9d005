"""Exact zero tests that build no normal form.

A chart is valid where no denominator factor of e or of e^-1 vanishes, and
``RationalGrid.vanishes`` decides that on integer columns, with no
Fraction.  It is compared, on seeded random factors with rational
coefficients over product grids, with ``Poly.eval(p) == 0``; and the
refusals of ``FrameChart.validate_invertible`` are compared, line for
line, with those of the plain loop over points and factors that it
replaces (``reference_refusal`` below).

The derivative of a field that is only tested for zero enters a fused sum
as the unreduced quotient-rule terms of ``diff_terms``; their sum must be
the reduced ``diff`` by value.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from flatcheck.charts_io import chart_from_json
from flatcheck.frames import ChartError, NumericScalar
from flatcheck.rational import Poly, RationalFunc, RationalGrid

from test_validity_oracle import SEEDS as ORACLE_SEEDS, random_document

SEEDS = range(12)


def random_poly(rng: random.Random, n: int, terms: int = 3, degree: int = 3) -> Poly:
    coeffs = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, degree) for _ in range(n))
        coeffs[mono] = coeffs.get(mono, 0) + Fraction(rng.choice([-3, -2, -1, 1, 2, 5]),
                                                      rng.randint(1, 7))
    return Poly(n, coeffs)


def coordinate(n: int, t: int, c: Fraction) -> Poly:
    """x_t - c."""
    return Poly.var(n, t) - Poly.const(n, c)


def product_grid(rng: random.Random, n: int) -> tuple[list, list]:
    """(axes, points) of a product grid on a box with rational bounds,
    some of them negative."""
    axes = []
    for _ in range(n):
        lo = Fraction(rng.randint(-9, 3), rng.randint(1, 5))
        hi = lo + Fraction(rng.randint(1, 9), rng.randint(1, 4))
        size = rng.randint(2, 4)
        axes.append([lo + (hi - lo) * Fraction(t, size - 1) for t in range(size)])
    return axes, [tuple(p) for p in iproduct(*axes)]


def assert_columns_match_eval(factors, points) -> None:
    grid = RationalGrid(points)
    for f in factors:
        assert grid.vanishes(f) == [f.eval(p) == 0 for p in points], f


# --- the integer columns against Poly.eval ---------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_columns_match_poly_eval_on_random_factors(seed):
    rng = random.Random(seed)
    n = 1 + seed % 3
    axes, points = product_grid(rng, n)
    factors = [random_poly(rng, n) for _ in range(4)]
    # factors that vanish on a line or a hyperplane of grid points, and one
    # that vanishes on one grid point only
    for f in list(factors):
        t = rng.randrange(n)
        factors.append(f * coordinate(n, t, rng.choice(axes[t])))
    corner = [rng.choice(axis) for axis in axes]
    single = Poly.zero(n)
    for t, c in enumerate(corner):
        single = single + coordinate(n, t, c) * coordinate(n, t, c)
    factors.append(single)
    assert_columns_match_eval(factors, points)
    assert RationalGrid(points).vanishes(single) == [list(p) == corner for p in points]
    assert any(any(RationalGrid(points).vanishes(f)) for f in factors[4:8])


def test_columns_match_poly_eval_next_to_a_tiny_bound():
    # the domain of tests/test_cli.py whose lower bound once rounded to 0
    doc = {"name": "near-zero", "n": 1, "domain": [["1/3000007", "1"]], "frame": [["1/x1"]]}
    chart = chart_from_json(doc)
    points = chart.rational_grid(5)
    rng = random.Random(7)
    tiny = Fraction(1, 3000007)
    factors = [random_poly(rng, 1, degree=4) for _ in range(6)]
    factors += [coordinate(1, 0, tiny), coordinate(1, 0, tiny) * factors[0],
                coordinate(1, 0, Fraction(0)), coordinate(1, 0, tiny / 2)]
    assert_columns_match_eval(factors, points)
    grid = chart.validate_invertible(5)
    assert grid.vanishes(factors[6]) == [True, False, False, False, False]
    assert not any(grid.vanishes(factors[8])) and not any(grid.vanishes(factors[9]))


def test_the_zero_polynomial_vanishes_everywhere():
    points = [(Fraction(-1), Fraction(1, 2)), (Fraction(3), Fraction(-2, 7))]
    assert RationalGrid(points).vanishes(Poly.zero(2)) == [True, True]
    assert RationalGrid(points).vanishes(Poly.const(2, 3)) == [False, False]


# --- validation against the loop it replaces ---------------------------------------

def reference_refusal(chart, points_per_axis: int) -> str | None:
    """The refusal line of the plain loop: each point in grid order, each
    pole factor and then each singular factor evaluated by ``Poly.eval``."""
    poles = dict.fromkeys(f for row in chart.entries for e in row for f in e.den)
    singular = dict.fromkeys(f for row in chart.inverse for e in row for f in e.den
                             if f not in poles)
    for p in chart.rational_grid(points_per_axis):
        if any(f.eval(p) == 0 for f in poles):
            problem = "has a pole"
        elif any(f.eval(p) == 0 for f in singular):
            problem = "is singular"
        else:
            continue
        return f"frame of chart '{chart.name}' {problem} at ({', '.join(map(str, p))})"
    return None


def refusal(chart, points_per_axis: int) -> str | None:
    try:
        chart.validate_invertible(points_per_axis)
    except ChartError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("points_per_axis", [3, 5])
def test_refusals_are_those_of_the_plain_loop(points_per_axis):
    kinds = set()
    for seed in ORACLE_SEEDS:
        try:
            chart = chart_from_json(random_document(seed), backend="exact")
        except ChartError:  # singular as a matrix of functions
            continue
        want = reference_refusal(chart, points_per_axis)
        assert refusal(chart, points_per_axis) == want, seed
        kinds.add(want and want.split("' ")[1].split(" at ")[0])
    assert kinds == {None, "has a pole", "is singular"}


def test_a_pole_is_named_before_a_singularity_at_the_same_point():
    # at (0, 0) the entry 1/x1 has a pole and e^-1 has the pole 1/(x1 + x2)
    doc = {"name": "both", "n": 2, "domain": [["0", "1"], ["0", "1"]],
           "frame": [["1/x1", "0"], ["0", "x1 + x2"]]}
    chart = chart_from_json(doc, backend="exact")
    grid = RationalGrid(chart.rational_grid(3))
    (pole,), (singular,) = ([f for row in rows for e in row for f in e.den]
                            for rows in (chart.entries, chart.inverse))
    assert grid.vanishes(pole)[0] and grid.vanishes(singular)[0]
    assert refusal(chart, 3) == reference_refusal(chart, 3) == (
        "frame of chart 'both' has a pole at (0, 0)")


# --- quotient-rule terms ------------------------------------------------------------

def random_field(rng: random.Random, n: int) -> RationalFunc:
    """A numerator over one to three random factors, one of them often to
    a power of 2 or 3."""
    f = RationalFunc(random_poly(rng, n, terms=rng.randint(1, 3)))
    for _ in range(rng.randint(1, 3)):
        den = RationalFunc(random_poly(rng, n, terms=rng.randint(1, 3), degree=2))
        if den.is_zero() or den.num.is_const():
            continue
        for _ in range(rng.choice([1, 1, 2, 3])):
            f = f / den
    return f


def assert_terms_sum_to_diff(f: RationalFunc, r: int) -> list:
    terms = list(f.diff_terms(r))
    live = [g for g in f.den if not g.diff(r).is_zero()]
    assert len(terms) == 1 + len(live)
    assert RationalFunc(Poly.zero(f.n)).dot(terms) == f.diff(r)
    return terms


@pytest.mark.parametrize("seed", SEEDS)
def test_quotient_rule_terms_sum_to_the_derivative(seed):
    rng = random.Random(seed)
    n = 2 + seed % 2
    fields = [random_field(rng, n) for _ in range(6)]
    assert any(e >= 2 for f in fields for e in f.den.values())
    for f in fields:
        for r in range(n):
            assert_terms_sum_to_diff(f, r)


def test_quotient_rule_terms_whose_sum_cancels_a_factor():
    # g / g^2 with g = x1 + x2: trial division keeps the factor g^2, and the
    # derivative -1 / g^2 has it to the power 1, not 2
    g = Poly.var(2, 0) + Poly.var(2, 1)
    f = RationalFunc(g, {g * g: 1})
    assert f.den == {g * g: 1}
    for r in range(2):
        terms = assert_terms_sum_to_diff(f, r)
        assert terms[1][1].den == {g * g: 2}
        assert RationalFunc(Poly.zero(2)).dot(terms).den == {g * g: 1}
        assert f.diff(r) == RationalFunc(Poly.const(2, -1), {g * g: 1})


def test_quotient_rule_terms_skip_a_factor_constant_in_the_direction():
    x1, x2 = (RationalFunc.var(2, t) for t in range(2))
    f = x1 * x1 / (x2 + RationalFunc.const(2, 1))
    terms = assert_terms_sum_to_diff(f, 0)
    assert len(terms) == 1 and terms[0][2] is None
    assert len(assert_terms_sum_to_diff(f, 1)) == 2


def test_quotient_rule_terms_of_the_zero_field():
    zero = RationalFunc(Poly.zero(3))
    for r in range(3):
        assert zero.dot(zero.diff_terms(r)).is_zero()


def test_a_numeric_field_gives_its_derivative_as_one_term():
    x = NumericScalar.var(2, 0)
    f = x * x
    ((c, a, b),) = f.diff_terms(0)
    assert (c, b) == (1, None)
    assert a.values([(3.0, 1.0)])[0] == 6.0
    assert NumericScalar.const(2, 0).diff_terms(1)[0][1].is_zero()
