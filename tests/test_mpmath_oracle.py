"""The numeric connection and its derivatives against mpmath.

mpmath is a test-only oracle that shares no code with flatcheck.  Each
chart document's entries are evaluated in mpmath at 30 digits, and

    Gamma^i_{jk} = sum_a d_j e^i_a . (e^-1)^a_k

is built from ``mpmath.diff`` of the entries and mpmath's own matrix
inverse.  Its derivatives, d_r Gamma in coordinate r = (j + 1) mod n and
every d_r d_s Gamma (which hold third derivatives of the frame), are
``mpmath.diff`` of that.  flatcheck's Taylor jets are exact up to
rounding: they must agree on the grid within 1e-13 for Gamma and 1e-12
for its derivatives.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product

import mpmath
import pytest

from flatcheck.catalog import chart_document, get_chart
from flatcheck.frames import gamma_from_frame

GRID = 3
DIGITS = 30


def mp_gamma(doc: dict):
    """Gamma at a point as an n x n x n nested list of mpf, memoized by point."""
    n = doc["n"]
    env = {"sin": mpmath.sin, "cos": mpmath.cos, "exp": mpmath.exp}
    code = [[compile(e.replace("^", "**"), "<entry>", "eval") for e in row] for row in doc["frame"]]

    def entry(i, a):
        return lambda *x: eval(code[i][a], dict(env), {f"x{t + 1}": x[t] for t in range(n)})

    entries = [[entry(i, a) for a in range(n)] for i in range(n)]
    memo = {}

    def gamma(x):
        got = memo.get(x)
        if got is None:
            e = mpmath.matrix([[f(*x) for f in row] for row in entries])
            einv = e ** -1
            de = [[[mpmath.diff(entries[i][a], x, tuple(int(t == j) for t in range(n)))
                    for a in range(n)] for i in range(n)] for j in range(n)]
            got = memo[x] = [[[mpmath.fsum(de[j][i][a] * einv[a, k] for a in range(n))
                               for k in range(n)] for j in range(n)] for i in range(n)]
        return got

    return gamma


@pytest.mark.parametrize("name", ["su2-euler", "affine-exp2"])
def test_gamma_and_its_derivative_match_mpmath(name):
    chart = get_chart(name)
    assert chart.backend == "numeric"
    n = chart.n
    grid = chart.grid(GRID)
    conn = gamma_from_frame(chart)
    worst_gamma = worst_dgamma = 0.0
    with mpmath.workdps(DIGITS):
        gamma = mp_gamma(chart_document(name))
        for i in range(n):
            for j in range(n):
                r = (j + 1) % n
                direction = tuple(int(t == r) for t in range(n))
                for k in range(n):
                    values = conn.comp(i, j, k).values(grid).tolist()
                    derivs = conn.comp(i, j, k).diff(r).values(grid).tolist()
                    for p, v, dv in zip(grid, values, derivs):
                        x = tuple(mpmath.mpf(c) for c in p)
                        want = gamma(x)[i][j][k]
                        dwant = mpmath.diff(lambda *y: gamma(y)[i][j][k], x, direction)
                        worst_gamma = max(worst_gamma, abs(float(v - want)))
                        worst_dgamma = max(worst_dgamma, abs(float(dv - dwant)))
    assert worst_gamma <= 1e-13, worst_gamma
    assert worst_dgamma <= 1e-12, worst_dgamma


@pytest.mark.parametrize("name", ["su2-euler", "affine-exp2"])
def test_second_derivatives_of_gamma_match_mpmath(name):
    chart = get_chart(name)
    n = chart.n
    points = chart.grid(GRID)[::4]  # every fourth point keeps mpmath's nested diffs cheap
    conn = gamma_from_frame(chart)
    worst = 0.0
    with mpmath.workdps(DIGITS):
        gamma = mp_gamma(chart_document(name))
        for (i, j, k), (r, s) in product(product(range(n), repeat=3),
                                         combinations_with_replacement(range(n), 2)):
            orders = tuple((t == r) + (t == s) for t in range(n))
            got = conn.comp(i, j, k).diff(r).diff(s).values(points).tolist()
            for p, v in zip(points, got):
                x = tuple(mpmath.mpf(c) for c in p)
                want = mpmath.diff(lambda *y: gamma(y)[i][j][k], x, orders)
                worst = max(worst, abs(float(v - want)))
    assert worst <= 1e-12, worst
