"""The sparse calculus builds every form exactly as the full loops did.

Forms store only their nonzero components, and the wedge, the
differentials, the trace and the curvature visit only the support.  The
dense loops they replace are kept here as the reference: on every chart
below, each form that the report pipeline builds must have the same
components, term for term (the same monomials and numerators in the same
order, the same denominator, the same denominator factors in the same
order), as the dense loops give on the same inputs.  The fused sums of
nabla T - sR keep no term order, and are compared by value.  A second
test counts the products with a literal-zero operand: once the frame is
inverted, a report forms none.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as iproduct

import pytest

from flatcheck import forms
from flatcheck.catalog import CHART_FACTS, get_chart
from flatcheck.forms import (
    STRUCTURE_SIGN,
    HomForm,
    _sort_with_sign,
    curvature_form,
    curvature_tilde_form,
    d_lower,
    d_tilde,
    de_rham,
    torsion_form,
    trace_form,
    wedge,
)
from flatcheck.frames import (
    curvature_components,
    curvature_tilde_components,
    gamma_from_frame,
)
from flatcheck.rational import Poly, RationalFunc, rf_matrix_inverse

from conftest import make_sl2mix4, make_sl2rational, make_unipotent4
from test_geometry_oracle import SEEDS, build


# --- the dense loops, as they were before the forms became sparse ----------------

def dense_dt_scalar(conn, get, r, i, *lower):
    acc = get(i, *lower).diff(r)
    slots = [(l, lower[:s], lower[s + 1:]) for s, l in enumerate(lower)]
    for a in range(conn.n):
        acc = acc - conn.comp(i, r, a) * get(a, *lower)
        for l, before, after in slots:
            acc = acc + conn.comp(a, r, l) * get(i, *before, a, *after)
    return acc


def dense_alternated_differential(conn, omega, scalar_op) -> dict:
    n, p = omega.n, omega.degree
    comps = {}
    if p >= n:
        return comps
    for out_idx in combinations(range(n), p + 1):
        for value in iproduct(range(n), repeat=omega.value_slots):
            acc = None
            for m, r in enumerate(out_idx):
                rest = out_idx[:m] + out_idx[m + 1:]
                term = scalar_op(conn, lambda *v, rest=rest: omega.comp(rest, *v), r, *value)
                if m % 2 == 1:
                    term = term.scale(-1)
                acc = term if acc is None else acc + term
            comps[(tuple(out_idx), *value)] = acc
    return comps


def dense_d_tilde(conn, omega) -> dict:
    return dense_alternated_differential(conn, omega, dense_dt_scalar)


def dense_d_lower(conn, omega) -> dict:
    return dense_alternated_differential(conn.transposed(), omega, dense_dt_scalar)


def dense_de_rham(phi) -> dict:
    return dense_alternated_differential(None, phi, lambda conn, get, r: get().diff(r))


def dense_wedge(a, b) -> dict:
    n = a.n
    p, q = a.degree, b.degree
    comps = {}
    if p + q > n:
        return comps
    for out_idx in combinations(range(n), p + q):
        for i in range(n):
            for j in range(n):
                acc = None
                for a_pos in combinations(range(p + q), p):
                    a_idx = tuple(out_idx[t] for t in a_pos)
                    b_idx = tuple(out_idx[t] for t in range(p + q) if t not in a_pos)
                    sign = _sort_with_sign(a_idx + b_idx)[1]
                    term = None
                    for t in range(n):
                        piece = a.comp(a_idx, i, t) * b.comp(b_idx, t, j)
                        term = piece if term is None else term + piece
                    if sign == -1:
                        term = term.scale(-1)
                    acc = term if acc is None else acc + term
                comps[(tuple(out_idx), i, j)] = acc
    return comps


def dense_trace(omega) -> dict:
    comps = {}
    for idx in combinations(range(omega.n), omega.degree):
        acc = None
        for a in range(omega.n):
            term = omega.comp(tuple(idx), a, a)
            acc = term if acc is None else acc + term
        comps[(tuple(idx),)] = acc
    return comps


def dense_curvature_tilde(conn) -> dict:
    n = conn.n

    def half(i, rr, jj, k):
        acc = conn.comp(i, jj, k).diff(rr)
        for a in range(n):
            acc = acc + conn.comp(a, rr, k) * conn.comp(i, jj, a)
        return acc

    out = {}
    for i, r, j, k in iproduct(range(n), repeat=4):
        if r < j:
            out[(i, r, j, k)] = half(i, r, j, k) - half(i, j, r, k)
        elif r > j:
            out[(i, r, j, k)] = out[(i, j, r, k)].scale(-1)
        else:
            out[(i, r, j, k)] = conn.zero
    return out


def dense_nabla_torsion(conn, sign, t, r) -> dict:
    n = conn.n
    out = {}
    for d, i, j, k in iproduct(range(n), repeat=4):
        lhs = dense_dt_scalar(conn, lambda i, j, k: t.comp((j,), i, k), d, i, j, k)
        rhs = r.comp((k, j), i, d)
        out[d, i, j, k] = lhs - (rhs if sign == 1 else rhs.scale(-1))
    return out


def fused_nabla_torsion(conn, sign, t, r) -> dict:
    """(d, i, j, k) -> the fused field of nabla T - sR that the report reads."""
    geometry = forms.Geometry(conn)
    geometry.t, geometry.r = t, r  # only T and R enter
    return dict(zip(geometry.sums("nabla_torsion", sign),
                    geometry.fields("nabla_torsion", sign)))


def dense_gamma(chart) -> list:
    n = chart.n
    einv = rf_matrix_inverse(chart.entries)
    zero = RationalFunc(Poly.zero(n))
    return [[[sum((chart.entries[i][a].diff(j) * einv[a][k] for a in range(n)), zero)
              for k in range(n)] for j in range(n)] for i in range(n)]


# --- comparison -----------------------------------------------------------------

def layout(f: RationalFunc) -> tuple:
    """Everything about an exact field that term order can move."""
    return (list(f.num.terms.items()), f.num.denom,
            [(list(g.terms.items()), g.denom, e) for g, e in f.den.items()])


def assert_same_field(got, want, key):
    assert layout(got) == layout(want), key


def assert_same_values(fused: dict, dense: dict, zero):
    """Each fused field equals the dense one of its key by value; a key the
    fused sums leave out is a zero of the dense loops.  A fused sum keeps no
    term order (``RationalFunc.dot``), so only values are compared."""
    assert set(fused) <= set(dense)
    for key, want in dense.items():
        assert (fused.get(key, zero) - want).is_zero(), key


def assert_same_form(form: HomForm, dense: dict):
    """The stored components are the nonzero ones of ``dense``, in
    canonical key order, each with the dense field's layout."""
    assert list(form.components) == sorted(form.components)
    nonzero = {key: f for key, f in dense.items() if not f.is_zero()}
    assert list(form.components) == sorted(nonzero)
    for key, f in nonzero.items():
        assert_same_field(form.components[key], f, key)


def check_chart(chart):
    conn = gamma_from_frame(chart)
    want = dense_gamma(chart)
    for i, j, k in iproduct(range(chart.n), repeat=3):
        assert_same_field(conn.comp(i, j, k), want[i][j][k], (i, j, k))
    check_geometry(conn)


def check_geometry(conn):
    """Every form of the report pipeline against the dense loops."""
    n = conn.n
    for formula, dense in ((curvature_tilde_components, dense_curvature_tilde),
                           (curvature_components,
                            lambda c: dense_curvature_tilde(c.transposed()))):
        got, want = formula(conn), dense(conn)
        assert list(got) == list(want)
        for key in want:
            assert_same_field(got[key], want[key], key)

    t = torsion_form(conn)
    r = curvature_form(conn)
    rt = curvature_tilde_form(conn)
    want_t = {((k,), i, j): conn.comp(i, k, j) - conn.comp(i, j, k)
              for k, i, j in iproduct(range(n), repeat=3)}
    assert_same_form(t, want_t)
    for form, raw in ((r, curvature_components(conn)), (rt, curvature_tilde_components(conn))):
        assert_same_form(form, {((a, b), i, k): f for (i, a, b, k), f in raw.items() if a < b})

    sr = r if STRUCTURE_SIGN == 1 else r.scale(-1)
    tt = wedge(t, t)
    assert_same_form(tt, dense_wedge(t, t))
    assert_same_form(d_tilde(conn, t), dense_d_tilde(conn, t))
    sr_t = wedge(sr, t)
    assert_same_form(sr_t, dense_wedge(sr, t))
    assert_same_form(wedge(t, sr), dense_wedge(t, sr))
    t3 = wedge(tt, t)
    assert_same_form(t3, dense_wedge(tt, t))
    assert_same_form(d_tilde(conn, sr), dense_d_tilde(conn, sr))
    assert_same_form(d_lower(conn, sr), dense_d_lower(conn, sr))

    primitive = sr_t - t3.scale(Fraction(1, 3))
    cs = trace_form(primitive)
    assert_same_form(cs, dense_trace(primitive))
    assert_same_form(de_rham(cs), dense_de_rham(cs))
    srsr = wedge(sr, sr)
    assert_same_form(srsr, dense_wedge(sr, sr))
    assert_same_form(trace_form(srsr), dense_trace(srsr))
    assert_same_form(trace_form(t3), dense_trace(t3))
    assert_same_form(de_rham(trace_form(t3)), dense_de_rham(trace_form(t3)))

    # nabla T - sR, and the same with the other sign, which does not close
    for sign in (1, -1):
        assert_same_values(fused_nabla_torsion(conn, sign, t, r),
                           dense_nabla_torsion(conn, sign, t, r), conn.zero)


EXACT_CATALOG = [name for name in CHART_FACTS if get_chart(name).backend == "exact"]
STRESS = {"sl2rational": make_sl2rational, "unipotent4": make_unipotent4,
          "sl2mix4": make_sl2mix4}


@pytest.mark.parametrize("name", EXACT_CATALOG)
def test_sparse_forms_match_the_dense_loops_on_the_catalog(name):
    check_chart(get_chart(name))


@pytest.mark.parametrize("name", STRESS)
def test_sparse_forms_match_the_dense_loops_on_the_stress_charts(name):
    check_chart(STRESS[name]())


@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_forms_match_the_dense_loops_on_random_frames(seed):
    _, conn, _ = build(seed)
    check_geometry(conn)


def test_a_sum_keeps_canonical_order_and_drops_cancelled_components():
    conn = gamma_from_frame(make_sl2mix4())
    r = curvature_form(conn)
    t = torsion_form(conn)
    dt, tt = d_tilde(conn, t), wedge(t, t)
    assert set(tt.components) - set(dt.components)  # the sum must insert, not append
    lhs = dt + tt
    assert list(lhs.components) == sorted(lhs.components)
    assert (lhs + r.scale(-STRUCTURE_SIGN)).is_exactly_zero()


def test_the_nabla_torsion_residual_keeps_curvature_outside_the_torsion_support():
    # with no torsion, the residual is -sR: a broken identity must still show
    conn = gamma_from_frame(make_sl2mix4())
    r = curvature_form(conn)
    t = HomForm(conn.n, 1, conn.zero)
    for sign in (1, -1):
        got = fused_nabla_torsion(conn, sign, t, r)
        assert_same_values(got, dense_nabla_torsion(conn, sign, t, r), conn.zero)
        assert sum(not f.is_zero() for f in got.values()) == 2 * len(r.components)


def test_only_the_support_is_stored():
    r = curvature_form(gamma_from_frame(make_unipotent4()))
    # 6 of the 96 components of unipotent4's curvature are nonzero
    assert len(r.components) == 6
    assert all(not f.is_zero() for f in r.components.values())


# --- the diagonal wedge, for readers of the trace ---------------------------------

def trace_only_pairs(conn) -> list:
    """The operands of the wedges the reports read only through the trace
    (sR^sR, T^T^T and, in chern-simons, sR^T), and T^sR and T^T besides."""
    t, r = torsion_form(conn), curvature_form(conn)
    sr = r if STRUCTURE_SIGN == 1 else r.scale(-1)
    return [(sr, sr), (wedge(t, t), t), (sr, t), (t, sr), (t, t)]


def diagonal_of(form: HomForm) -> dict:
    return {key: f for key, f in form.components.items() if key[1] == key[2]}


@pytest.mark.parametrize("name", STRESS)
def test_a_diagonal_wedge_is_the_diagonal_of_the_full_wedge(name):
    conn = gamma_from_frame(STRESS[name]())
    formed = 0
    for a, b in trace_only_pairs(conn):
        full, diag = wedge(a, b), wedge(a, b, diagonal=True)
        want = diagonal_of(full)
        assert list(diag.components) == list(want)
        for key, f in want.items():
            assert_same_field(diag.components[key], f, key)
        assert_same_form(trace_form(diag), trace_form(full).components)
        formed += len(want)
    # unipotent4's torsion and curvature take nilpotent values: no diagonal
    assert bool(formed) is (name != "unipotent4")


def test_a_diagonal_wedge_is_bit_identical_on_a_numeric_chart():
    import numpy as np

    chart = get_chart("su2-euler")
    assert chart.backend == "numeric"
    points = np.array(chart.grid(3))
    for a, b in trace_only_pairs(gamma_from_frame(chart)):
        full, diag = wedge(a, b), wedge(a, b, diagonal=True)
        want = diagonal_of(full)
        assert list(diag.components) == list(want)
        for key, f in want.items():
            assert diag.components[key].values(points).tobytes() == f.values(points).tobytes()


# --- no product with a literal-zero operand --------------------------------------

@pytest.mark.parametrize("name", ["unipotent4", "sl2mix4"])
def test_a_report_forms_no_product_with_a_zero_operand(name, monkeypatch):
    """Once the chart and its inverse frame are built: Gamma, the forms,
    the residuals."""
    chart = STRESS[name]()
    zero_products, products = [], []
    original_mul = RationalFunc.__mul__

    def counted(self, other):
        products.append(1)
        if self.is_zero() or other.is_zero():
            zero_products.append((self, other))
        return original_mul(self, other)

    monkeypatch.setattr(RationalFunc, "__mul__", counted)
    report = forms.identity_report(chart, grid_points=3)
    assert products
    assert zero_products == []
    assert report["locally_homogeneous"] is False
