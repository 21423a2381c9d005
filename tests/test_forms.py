"""The Hom-valued exterior calculus and the identity suite.

The generic n=4 charts from conftest make the degree-3 and degree-4
identities non-vacuous: curvature, its covariant differential, the
transgression form and its target are all nonzero there, and every
identity still closes to a literal zero rational function.
"""

from __future__ import annotations

import random

from flatcheck.catalog import get_chart
from flatcheck.forms import (
    CalibrationError,
    HomForm,
    curvature_form,
    d_lower,
    d_tilde,
    de_rham,
    global_structure_sign,
    identity_hom_form,
    identity_report,
    identity_residuals_pass,
    secondary_class_check,
    torsion_form,
    trace_form,
    trace_powers,
    wedge,
    wedge_power,
)
from flatcheck.frames import ConnectionField, gamma_from_frame, dl_scalar, dt_scalar, torsion_components
from flatcheck.rational import Poly

from conftest import make_sl2rational, make_unipotent4, random_poly, rf


def random_hom_form(n, degree, rng, deg=1):
    comps = {}
    from itertools import combinations
    for idx in combinations(range(n), degree):
        for i in range(n):
            for j in range(n):
                comps[(idx, i, j)] = rf(random_poly(n, deg, rng, span=2))
    return HomForm(n, degree, "exact", None, comps)


# --- form plumbing ------------------------------------------------------------

def test_component_access_antisymmetry():
    rng = random.Random(1)
    w = random_hom_form(3, 2, rng)
    assert (w.comp((0, 1), 0, 0) + w.comp((1, 0), 0, 0)).is_zero()
    assert w.comp((1, 1), 0, 0).is_zero()
    # canonicalizing twice is the same as once: storage already canonical
    again = HomForm(w.n, w.degree, w.backend, None, w.components)
    for key, f in w.components.items():
        assert (again.components[key] - f).is_zero()


def test_wedge_with_identity_is_identity():
    rng = random.Random(2)
    ident = identity_hom_form(3)
    w = random_hom_form(3, 2, rng)
    left = wedge(ident, w)
    right = wedge(w, ident)
    for key in w.components:
        assert (left.components[key] - w.components[key]).is_zero()
        assert (right.components[key] - w.components[key]).is_zero()


def test_wedge_degree_one_formula():
    rng = random.Random(3)
    n = 3
    a = random_hom_form(n, 1, rng)
    b = random_hom_form(n, 1, rng)
    w = wedge(a, b)
    for r in range(n):
        for h in range(n):
            if r == h:
                continue
            for i in range(n):
                for j in range(n):
                    direct = None
                    for t in range(n):
                        term = a.comp((r,), i, t) * b.comp((h,), t, j) \
                            - a.comp((h,), i, t) * b.comp((r,), t, j)
                        direct = term if direct is None else direct + term
                    assert (w.comp((r, h), i, j) - direct).is_zero()


def test_wedge_beyond_top_degree_is_zero():
    rng = random.Random(4)
    a = random_hom_form(2, 1, rng)
    b = random_hom_form(2, 2, rng)
    assert wedge(a, b).degree == 3
    assert wedge(a, b).is_exactly_zero()


def test_trace_of_identity_form():
    ident = identity_hom_form(4)
    tr = trace_form(ident)
    assert tr.comp(()) == rf(Poly.const(4, 4))


def test_trace_of_torsion_squared_vanishes():
    # Tr(T^T) = 0: the shuffle wedge pairs each product with its negative
    for chart in (get_chart("deformed2"), get_chart("heisenberg3"),
                  get_chart("hyperbolic2"), make_unipotent4(), make_sl2rational()):
        conn = gamma_from_frame(chart)
        t = torsion_form(conn)
        assert trace_form(wedge(t, t)).is_exactly_zero(), chart.name


def test_trace_heisenberg_torsion():
    conn = gamma_from_frame(get_chart("heisenberg3"))
    assert trace_form(torsion_form(conn)).is_exactly_zero()


# --- differentials -------------------------------------------------------------

def test_nabla_tilde_zero_connection_is_partial():
    n = 2
    zero = [[[rf(Poly.zero(n)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    conn = ConnectionField(n, "exact", zero)
    rng = random.Random(14)
    w = random_hom_form(n, 1, rng, deg=2)
    from flatcheck.forms import nabla_tilde
    for r in range(n):
        out = nabla_tilde(conn, w, r)
        for idx in ((0,), (1,)):
            for i in range(n):
                for j in range(n):
                    assert (out.comp(idx, i, j) - w.comp(idx, i, j).diff(r)).is_zero()


def test_nabla_tilde_inert_form_indices():
    # the form slot is NOT contracted: on the torsion this differs from the
    # full tensor derivative exactly by the form-slot connection term
    from flatcheck.forms import nabla_tilde
    from flatcheck.frames import nabla_tensor12, torsion_components
    chart = get_chart("deformed2")
    conn = gamma_from_frame(chart)
    t = torsion_form(conn)
    tor = torsion_components(conn)
    n = 2
    for r in range(n):
        inert = nabla_tilde(conn, t, r)
        for j in range(n):
            for i in range(n):
                for k in range(n):
                    full = nabla_tensor12(conn, lambda a, b, c: tor[(a, b, c)], r, i, j, k)
                    correction = None
                    for a in range(n):
                        term = conn.comp(a, r, j) * tor[(i, a, k)]
                        correction = term if correction is None else correction + term
                    assert (full - inert.comp((j,), i, k) - correction).is_zero()


def test_d_tilde_zero_connection_is_gradient():
    n = 2
    zero = [[[rf(Poly.zero(n)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    conn = ConnectionField(n, "exact", zero)
    rng = random.Random(5)
    w = random_hom_form(n, 0, rng, deg=2)
    d = d_tilde(conn, w)
    for r in range(n):
        for i in range(n):
            for j in range(n):
                assert (d.comp((r,), i, j) - w.comp((), i, j).diff(r)).is_zero()


def test_d_tilde_squares_to_zero_on_frame_connections():
    rng = random.Random(6)
    for chart in (get_chart("deformed2"), get_chart("heisenberg3"), make_unipotent4()):
        conn = gamma_from_frame(chart)
        for degree in (0, 1):
            w = random_hom_form(chart.n, degree, rng)
            assert d_tilde(conn, d_tilde(conn, w)).is_exactly_zero(), (chart.name, degree)


def test_d_tilde_leibniz_rule():
    rng = random.Random(7)
    chart = make_unipotent4()
    conn = gamma_from_frame(chart)
    for p, q in ((0, 0), (0, 1), (1, 1), (1, 2), (0, 2)):
        a = random_hom_form(4, p, rng)
        b = random_hom_form(4, q, rng)
        lhs = d_tilde(conn, wedge(a, b))
        rhs = wedge(d_tilde(conn, a), b) + wedge(a, d_tilde(conn, b)).scale((-1) ** p)
        assert (lhs - rhs).is_exactly_zero(), (p, q)


def test_d_lower_with_zero_connection_matches_d_tilde():
    n = 2
    zero = [[[rf(Poly.zero(n)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    conn = ConnectionField(n, "exact", zero)
    rng = random.Random(8)
    w = random_hom_form(n, 1, rng)
    assert (d_lower(conn, w) - d_tilde(conn, w)).is_exactly_zero()


def test_d_lower_minus_d_tilde_is_torsion_contraction():
    # per direction r:  d_r w - d~_r w = -T^i_{a,r} w^a_j + T^a_{j,r} w^i_a
    rng = random.Random(9)
    chart = make_unipotent4()
    conn = gamma_from_frame(chart)
    tor = torsion_components(conn)
    n = 4
    w = random_hom_form(n, 1, rng)
    for r in range(n):
        for hidx in range(n):
            get = lambda a, b: w.comp((hidx,), a, b)
            for i in range(n):
                for j in range(n):
                    diff = dl_scalar(conn, get, r, i, j) - dt_scalar(conn, get, r, i, j)
                    expect = None
                    for a in range(n):
                        term = tor[(i, a, r)] * get(a, j)
                        term = term.scale(-1)
                        term2 = tor[(a, j, r)] * get(i, a)
                        term = term + term2
                        expect = term if expect is None else expect + term
                    assert (diff - expect).is_zero(), (r, hidx, i, j)


def test_bianchi_on_catalog_and_generic_charts():
    sign = global_structure_sign()
    for chart in (get_chart("abelian2"), get_chart("deformed2"),
                  get_chart("heisenberg3"), get_chart("hyperbolic2"),
                  make_unipotent4(), make_sl2rational()):
        conn = gamma_from_frame(chart)
        sr = curvature_form(conn).scale(sign)
        assert d_lower(conn, sr).is_exactly_zero(), chart.name


def test_trace_intertwines_both_differentials():
    rng = random.Random(10)
    chart = make_unipotent4()
    conn = gamma_from_frame(chart)
    for degree in (0, 1, 2, 3):
        for _ in range(3):
            w = random_hom_form(4, degree, rng)
            lhs = de_rham(trace_form(w))
            rhs_t = trace_form(d_tilde(conn, w))
            rhs_l = trace_form(d_lower(conn, w))
            assert (lhs - rhs_t).is_exactly_zero(), degree
            assert (lhs - rhs_l).is_exactly_zero(), degree


# --- the report ----------------------------------------------------------------

def test_global_sign_is_stable():
    assert global_structure_sign() in (-1, 1)
    assert global_structure_sign() == global_structure_sign()


def test_report_abelian():
    rep = identity_report(get_chart("abelian2"))
    assert rep["locally_homogeneous"] is True
    assert rep["max_R"] == 0.0
    assert all(v == 0.0 for v in rep["residuals"].values())


def test_report_heisenberg():
    rep = identity_report(get_chart("heisenberg3"))
    assert rep["locally_homogeneous"] is True
    assert all(v == 0.0 for v in rep["residuals"].values())
    assert rep["backend"] == "exact"


def test_report_deformed():
    rep = identity_report(get_chart("deformed2"))
    assert rep["locally_homogeneous"] is False
    assert all(v == 0.0 for v in rep["residuals"].values())
    assert rep["max_R"] >= 1.0
    # witness: |R^2_{12,1}| = 2 at the origin
    conn = gamma_from_frame(get_chart("deformed2"))
    from flatcheck.frames import curvature_components
    assert abs(curvature_components(conn)[(1, 0, 1, 0)].eval((0, 0))) == 2


def test_report_generic_charts_close_identities():
    for chart in (make_unipotent4(), make_sl2rational()):
        rep = identity_report(chart)
        assert all(v == 0.0 for v in rep["residuals"].values()), chart.name
        assert identity_residuals_pass(rep, 1e-6, 1e-4)
    assert identity_report(make_unipotent4())["locally_homogeneous"] is False
    assert identity_report(make_sl2rational())["locally_homogeneous"] is True


def test_transgression_with_nonzero_target():
    # on the coupled chart Tr(sR ^ sR) is a nonzero 4-form, and the
    # transgression identity still closes to a literal zero
    from conftest import make_sl2mix4
    chart = make_sl2mix4()
    conn = gamma_from_frame(chart)
    sign = global_structure_sign()
    sr = curvature_form(conn).scale(sign)
    t = torsion_form(conn)
    target = trace_form(wedge(sr, sr))
    assert not target.is_exactly_zero()
    from fractions import Fraction
    primitive = trace_form(wedge(sr, t) - wedge_power(t, 3).scale(Fraction(1, 3)))
    assert (de_rham(primitive) - target).is_exactly_zero()
    rep = identity_report(chart, grid_points=2)
    assert all(v == 0.0 for v in rep["residuals"].values())
    assert rep["locally_homogeneous"] is False


def test_report_same_sign_everywhere():
    signs = set()
    for name in ("abelian2", "deformed2", "heisenberg3", "hyperbolic2"):
        signs.add(identity_report(get_chart(name))["sign"])
    signs.add(identity_report(make_unipotent4())["sign"])
    assert len(signs) == 1


def test_report_numeric_charts():
    rep = identity_report(get_chart("affine-exp2"))
    assert rep["backend"] == "numeric"
    assert rep["locally_homogeneous"] is True
    assert identity_residuals_pass(rep, 1e-6, 1e-4)
    assert rep["residuals"]["rtilde"] < 1e-7


def test_calibration_failure_is_reported():
    # feed the calibrator a connection that is not frame-derived: the
    # structure equation then closes for neither sign
    n = 2
    x = Poly.var(n, 0)
    gamma = [[[rf(Poly.zero(n)) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    gamma[1][1][0] = rf(x)
    conn = ConnectionField(n, "exact", gamma)
    t = torsion_form(conn)
    r = curvature_form(conn)
    lhs = d_tilde(conn, t) + wedge(t, t)
    assert not (lhs - r).is_exactly_zero()
    assert not (lhs + r).is_exactly_zero()
    # the report surfaces this as a calibration failure on a fake chart;
    # simulate by checking the error type carries both tables
    err = CalibrationError("fake", {"structure": 1.0}, {"structure": 2.0})
    assert err.residual_plus["structure"] == 1.0
    assert err.residual_minus["structure"] == 2.0


# --- trace powers and secondary classes ------------------------------------------

def test_trace_powers_even_torsion_traces_vanish():
    for chart in (get_chart("abelian4"), get_chart("deformed2"),
                  get_chart("heisenberg3"), make_unipotent4(), make_sl2rational()):
        powers = trace_powers(chart, max_i=min(chart.n, 4))
        for i, tr in enumerate(powers["T"], start=1):
            if i % 2 == 0:
                assert tr.is_exactly_zero(), (chart.name, i)


def test_trace_powers_flat_chart():
    powers = trace_powers(get_chart("abelian4"), max_i=2)
    for tr in powers["R"]:
        assert tr.is_exactly_zero()


def test_trace_powers_closed_curvature_traces():
    # d Tr(R^i) = 0: curvature traces are closed even off homogeneity
    for chart in (make_unipotent4(), get_chart("deformed2")):
        powers = trace_powers(chart, max_i=2)
        for tr in powers["R"]:
            assert de_rham(tr).is_exactly_zero(), chart.name


def test_secondary_class_heisenberg():
    form, closed = secondary_class_check(get_chart("heisenberg3"), 1)
    assert closed is True
    assert form.degree == 3


def test_secondary_class_hyperbolic_degenerate():
    form, closed = secondary_class_check(get_chart("hyperbolic2"), 1)
    assert closed is True
    assert form.is_exactly_zero()  # a 3-form on a 2-dim chart


def test_secondary_class_deformed_flag_unset():
    form, closed = secondary_class_check(get_chart("deformed2"), 1)
    assert closed is None
    assert form.degree == 3


def test_secondary_class_sl2_nontrivial():
    chart = make_sl2rational()
    form, closed = secondary_class_check(chart, 1)
    assert closed is True
    assert not form.is_exactly_zero()
    # the torsion cube traces to a nonzero multiple of the volume form
    assert form.comp((0, 1, 2)).eval((1, 0, 0)) != 0


def test_residual_of_non_finite_field_raises():
    # max() drops a NaN, so a NaN residual used to read as 0.0
    import pytest
    from flatcheck.forms import form_residual
    from flatcheck.frames import ChartError, NumericScalar
    form = HomForm(2, 0, "numeric", None, {((), 0, 0): NumericScalar(lambda x: float("nan"), 2)})
    with pytest.raises(ChartError, match="not finite"):
        form_residual(form, [(0.0, 0.0)])
