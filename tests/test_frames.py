"""Connection, torsion and curvature of frame charts, on both backends.

The flat-curvature vanishing is the convention anchor: it must be a
literal zero rational function on every exact chart.  The homogeneity
obstruction is cross-checked against central finite differences, an
oracle that shares no code with the exact backend.
"""

from __future__ import annotations

import pytest

from flatcheck.catalog import get_chart
from flatcheck.frames import (
    ChartError,
    FrameChart,
    NumericScalar,
    ConnectionField,
    curvature_components,
    curvature_tilde_components,
    dt_scalar,
    gamma_from_frame,
    torsion_components,
)
from flatcheck.rational import Poly, RationalFunc

from conftest import make_sl2rational, make_unipotent4, rf


def test_gamma_constant_frame_vanishes():
    conn = gamma_from_frame(get_chart("abelian3"))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert conn.comp(i, j, k).is_zero()


def test_gamma_deformed_chart():
    conn = gamma_from_frame(get_chart("deformed2"))
    n = 2
    x = Poly.var(n, 0)
    expect = RationalFunc(x.scale(2), {Poly.const(n, 1) + x * x: 1})
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (i, j, k) == (1, 0, 1):
                    assert conn.comp(i, j, k) == expect
                else:
                    assert conn.comp(i, j, k).is_zero()


def test_gamma_heisenberg_chart():
    conn = gamma_from_frame(get_chart("heisenberg3"))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if (i, j, k) == (2, 0, 1):
                    assert conn.comp(i, j, k) == rf(Poly.const(3, 1))
                else:
                    assert conn.comp(i, j, k).is_zero()


def test_singular_frame_rejected():
    n = 2
    x = Poly.var(n, 0)
    with pytest.raises(ChartError, match="singular"):
        FrameChart("bad", n, [(-1, 1), (-1, 1)],
                   entries=[[rf(x), rf(Poly.zero(n))],
                            [rf(Poly.zero(n)), rf(Poly.zero(n))]])
    # frame singular at an interior grid point only
    chart = FrameChart("edge", n, [(-1, 1), (-1, 1)],
                       entries=[[rf(x), rf(Poly.zero(n))],
                                [rf(Poly.zero(n)), rf(Poly.const(n, 1))]])
    with pytest.raises(ChartError, match="singular at"):
        chart.validate_invertible(5)


def test_torsion_symmetric_connection_vanishes():
    n = 2
    x = Poly.var(n, 0)
    sym = [[[rf(x) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    conn = ConnectionField(n, rf(Poly.zero(n)), sym)
    for val in torsion_components(conn).values():
        assert val.is_zero()


def test_torsion_deformed_chart():
    conn = gamma_from_frame(get_chart("deformed2"))
    tor = torsion_components(conn)
    n = 2
    x = Poly.var(n, 0)
    f = RationalFunc(x.scale(2), {Poly.const(n, 1) + x * x: 1})
    assert tor[(1, 0, 1)] == f
    assert tor[(1, 1, 0)] == f.scale(-1)
    assert tor[(0, 0, 1)].is_zero()


def test_torsion_heisenberg_chart():
    conn = gamma_from_frame(get_chart("heisenberg3"))
    tor = torsion_components(conn)
    assert tor[(2, 0, 1)] == rf(Poly.const(3, 1))
    assert tor[(2, 1, 0)] == rf(Poly.const(3, -1))


def test_frame_columns_are_invariant_fields():
    # each frame column solves the invariance equation: nabla e_a = 0
    for name in ("deformed2", "heisenberg3", "hyperbolic2"):
        chart = get_chart(name)
        conn = gamma_from_frame(chart)
        for a in range(chart.n):
            column = [chart.entries[i][a] for i in range(chart.n)]
            for r in range(chart.n):
                for i in range(chart.n):
                    val = dt_scalar(conn, lambda b: column[b], r, i)
                    assert val.is_zero(), (name, a, r)


def test_nabla_with_zero_connection_is_derivative():
    n = 2
    zero = [[[rf(Poly.zero(n)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    conn = ConnectionField(n, rf(Poly.zero(n)), zero)
    x, y = Poly.var(n, 0), Poly.var(n, 1)
    field = [rf(x * y), rf(y)]
    out = [dt_scalar(conn, lambda b: field[b], 0, i) for i in range(n)]
    assert out[0] == rf(y)
    assert out[1].is_zero()


def test_nabla_torsion_reproduces_curvature():
    # the (1,2)-tensor derivative of the torsion equals the curvature with
    # value slot r and form pair (torsion slots), exactly
    for chart in (get_chart("deformed2"), make_unipotent4()):
        conn = gamma_from_frame(chart)
        tor = torsion_components(conn)
        curv = curvature_components(conn)
        n = conn.n
        for r in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        lhs = dt_scalar(conn, lambda a, b, c: tor[(a, b, c)], r, i, j, k)
                        assert (lhs - curv[(i, j, k, r)]).is_zero(), (chart.name, r, i, j, k)


def test_curvature_tilde_zero_connection():
    n = 2
    zero = [[[rf(Poly.zero(n)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    conn = ConnectionField(n, rf(Poly.zero(n)), zero)
    for val in curvature_tilde_components(conn).values():
        assert val.is_zero()


def test_curvature_tilde_vanishes_on_frame_charts():
    for maker in ("abelian2", "deformed2", "heisenberg3", "hyperbolic2"):
        conn = gamma_from_frame(get_chart(maker))
        for val in curvature_tilde_components(conn).values():
            assert val.is_zero(), maker
    for chart in (make_unipotent4(), make_sl2rational()):
        conn = gamma_from_frame(chart)
        for val in curvature_tilde_components(conn).values():
            assert val.is_zero(), chart.name


def test_curvature_tilde_nonzero_for_non_frame_connection():
    # a hand-set connection with a single entry that varies transversally
    # to its derivative slot is not produced by any frame: the plain
    # d Gamma term survives the alternation as a 1-valued component
    n = 2
    x = Poly.var(n, 0)
    gamma = [[[rf(Poly.zero(n)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    gamma[1][1][0] = rf(x)  # Gamma^2_{21} = x, others 0
    conn = ConnectionField(n, rf(Poly.zero(n)), gamma)
    vals = curvature_tilde_components(conn)
    assert vals[(1, 0, 1, 0)] == rf(Poly.const(n, 1))
    assert vals[(1, 1, 0, 0)] == rf(Poly.const(n, -1))


def test_curvature_zero_on_group_charts():
    for name in ("abelian2", "heisenberg3", "hyperbolic2"):
        conn = gamma_from_frame(get_chart(name))
        for val in curvature_components(conn).values():
            assert val.is_zero(), name
    conn = gamma_from_frame(make_sl2rational())
    for val in curvature_components(conn).values():
        assert val.is_zero()


def test_curvature_deformed_chart_witness():
    conn = gamma_from_frame(get_chart("deformed2"))
    curv = curvature_components(conn)
    n = 2
    x = Poly.var(n, 0)
    f = RationalFunc(x.scale(2), {Poly.const(n, 1) + x * x: 1})
    witness = curv[(1, 0, 1, 0)]
    assert witness == f.diff(0)
    assert witness.eval((0, 0)) == 2
    for key, val in curv.items():
        if key not in ((1, 0, 1, 0), (1, 1, 0, 0)):
            assert val.is_zero()


def test_curvature_finite_difference_cross_check():
    """Recompute the deformed-chart witness by central differences only."""
    chart = get_chart("deformed2")
    conn = gamma_from_frame(chart)
    curv = curvature_components(conn)

    def gamma_num(i, j, k, pt):
        return conn.comp(i, j, k).eval_float(pt)

    h = 1e-5
    for pt in ((0.0, 0.0), (0.25, -0.5), (-0.75, 0.25)):
        for (i, r, j, k), val in curv.items():
            def half(rr, jj):
                up = list(pt)
                dn = list(pt)
                up[rr] += h
                dn[rr] -= h
                d = (gamma_num(i, jj, k, tuple(up)) - gamma_num(i, jj, k, tuple(dn))) / (2 * h)
                for a in range(2):
                    d += gamma_num(a, k, rr, pt) * gamma_num(i, a, jj, pt)
                return d
            # note: derivative slot of the quadratic term differs from the
            # derivative of the k-slot entry; transcribe independently
            fd = half_value = None
            def half2(rr, jj):
                up = list(pt); dn = list(pt)
                up[rr] += h; dn[rr] -= h
                d = (gamma_num(i, k, jj, tuple(up)) - gamma_num(i, k, jj, tuple(dn))) / (2 * h)
                for a in range(2):
                    d += gamma_num(a, k, rr, pt) * gamma_num(i, a, jj, pt)
                return d
            fd = half2(r, j) - half2(j, r)
            assert abs(fd - val.eval_float(pt)) < 1e-7, (i, r, j, k, pt)


def test_gamma_invariant_under_constant_right_factor():
    chart = get_chart("deformed2")
    const = [[2, 1], [1, 1]]
    entries = [[chart.entries[i][0].scale(const[0][a]) + chart.entries[i][1].scale(const[1][a])
                for a in range(2)] for i in range(2)]
    rescaled = FrameChart("deformed2-rescaled", 2, chart.domain, entries=entries)
    conn = gamma_from_frame(chart)
    conn2 = gamma_from_frame(rescaled)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert (conn.comp(i, j, k) - conn2.comp(i, j, k)).is_zero()


def test_numeric_backend_matches_exact_on_deformed():
    from flatcheck.frames import jet_constant, jet_monomials
    exact_chart = get_chart("deformed2")

    def bump(points, key, order):
        # 1 + x1^2; (x + h)^2 has the coefficients x^2, 2x and 1
        rows = jet_monomials(2, order)
        x = points[:, 0]
        out = jet_constant(1 + x * x, 2, order, len(points))
        for b, coeff in (((1, 0), 2 * x), ((2, 0), 1.0)):
            if b in rows:
                out[rows.index(b)] = coeff
        return out

    one, zero = NumericScalar.const(2, 1), NumericScalar.const(2, 0)
    entries = [[one, zero], [zero, NumericScalar(bump, 2, frozenset({0}))]]
    numeric_chart = FrameChart("deformed2-num", 2, [(-1, 1), (-1, 1)], entries)
    conn_e = gamma_from_frame(exact_chart)
    conn_n = gamma_from_frame(numeric_chart)
    for pt in ((0.0, 0.0), (0.5, -0.5)):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert abs(conn_e.comp(i, j, k).eval_float(pt)
                               - conn_n.comp(i, j, k).eval_float(pt)) < 1e-9


def test_numeric_curvature_tilde_small():
    for name in ("affine-exp2", "su2-euler"):
        chart = get_chart(name)
        conn = gamma_from_frame(chart)
        vals = curvature_tilde_components(conn)
        worst = 0.0
        for val in vals.values():
            for pt in chart.grid(3):
                worst = max(worst, abs(val.eval_float(pt)))
        assert worst < 1e-7, (name, worst)


def test_numeric_scalar_derivative_accuracy():
    import math
    from flatcheck.charts_io import _interpret, _NumericAlgebra, _parse
    f = _interpret(_parse("sin(x1)*cos(x2)"), 2, _NumericAlgebra())
    df = f.diff(0)
    assert abs(df.eval_float((0.3, 0.7)) - math.cos(0.3) * math.cos(0.7)) < 1e-10
    d2f = df.diff(1)
    assert abs(d2f.eval_float((0.3, 0.7)) + math.cos(0.3) * math.sin(0.7)) < 1e-7


def test_transposed_connection_swaps_lower_slots_and_shares_fields():
    # the same scalar objects, so numeric evaluation caches stay shared
    for conn in (gamma_from_frame(make_unipotent4()),
                 gamma_from_frame(get_chart("su2-euler"))):
        opp = conn.transposed()
        n = conn.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert opp.comp(i, j, k) is conn.comp(i, k, j)
