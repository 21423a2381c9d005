"""Each command builds only what it prints.

``chern-simons`` runs the part of the identity pipeline that its answer
needs, the curvature formulas compute one component per form pair, and a
field differentiates in each direction once.  A report reads each
identity around R from its fused sums, never from the eager
differentials, which stay here as the reference the sums are compared
with component by component.  None of this may move a value: the
reports are compared with the full pipeline and with fresh computations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as iproduct
from math import comb

import pytest

import numpy as np

from flatcheck import forms
from flatcheck.catalog import CHART_FACTS, get_chart
from flatcheck.charts_io import chart_from_json
from flatcheck.frames import (
    FrameChart,
    NumericScalar,
    curvature_components,
    curvature_tilde_components,
    dt_scalar,
    gamma_from_frame,
)
from flatcheck.rational import Poly, RationalFunc

from conftest import make_sl2mix4, make_sl2rational, make_unipotent4
from test_geometry_oracle import SEEDS, build

# the eager differentials: tests and the tracer use them, a report does not
REFERENCES = ("d_tilde", "d_lower")

BOTH_BACKENDS = {"sl2rational": make_sl2rational, "sl2mix4": make_sl2mix4,
                 "affine-exp2": lambda: get_chart("affine-exp2"),
                 "su2-euler": lambda: get_chart("su2-euler")}


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the report called {name}")
    return refuse


def spy_on_sums(monkeypatch, forced=None) -> list:
    """Record the name of each identity whose sums are gathered; the sums
    of ``forced`` gain one more component, the constant 2^-30, which is
    below every tolerance and above every residual of a valid chart."""
    reached = []
    original = forms.Geometry.sums

    def sums(self, name, sign):
        reached.append(name)
        out = original(self, name, sign)
        if name == forced:
            zero = self.conn.zero
            tiny = (RationalFunc.const(zero.n, Fraction(1, 2**30)) if isinstance(zero, RationalFunc)
                    else NumericScalar.const(zero.n, 2.0**-30))
            out["forced"] = [(1, tiny, None)]
        return out

    monkeypatch.setattr(forms.Geometry, "sums", sums)
    return reached


# --- chern-simons builds only what it prints ------------------------------------

@pytest.mark.parametrize("chart", [make_sl2rational, lambda: get_chart("affine-exp2")],
                         ids=["sl2rational", "affine-exp2"])
def test_chern_simons_skips_the_identities_it_does_not_print(chart, monkeypatch):
    expected = forms.chern_simons_report(chart(), grid_points=3)
    reached = spy_on_sums(monkeypatch)
    for name in ("curvature_tilde_form", *REFERENCES):
        monkeypatch.setattr(forms, name, _refuse(name))
    assert forms.chern_simons_report(chart(), grid_points=3) == expected
    assert reached == ["structure", "chern_simons"]
    # the secondary class needs no more than the report does
    _, closed = forms.secondary_class_check(chart(), 1, grid_points=3)
    assert closed == expected["secondary_class_closed"]
    assert reached == ["structure", "chern_simons"] * 2


@pytest.mark.parametrize("report", [forms.identity_report, forms.chern_simons_report],
                         ids=["identity_report", "chern_simons_report"])
def test_a_calibration_failure_gathers_the_torsion_terms_once(report, monkeypatch):
    # with the structure sign flipped the structure equation fails on the
    # curved deformed2; the residual of the other sign reads the terms of
    # d~T and T^T that the failing sign's sums gathered
    gathered = []
    original = forms._differential_sums

    def spy(conn, omega, *args):
        gathered.append(omega.degree)
        return original(conn, omega, *args)

    monkeypatch.setattr(forms, "_differential_sums", spy)
    monkeypatch.setattr(forms, "STRUCTURE_SIGN", -forms.STRUCTURE_SIGN)
    with pytest.raises(forms.CalibrationError) as info:
        report(get_chart("deformed2"), grid_points=3)
    residuals = (info.value.residual_plus["structure"], info.value.residual_minus["structure"])
    assert 0.0 in residuals and max(residuals) > 0.0
    # d~T; d~(sR) and d(sR) are 2-forms, the transgression primitive a 3-form
    assert gathered.count(1) == 1


# --- a report reads each identity from its fused sums -----------------------------

@pytest.mark.parametrize("forced", [None, *forms.IDENTITIES])
@pytest.mark.parametrize("name", BOTH_BACKENDS)
def test_a_report_reads_each_identity_from_its_sums(name, forced, monkeypatch):
    """Each identity's sums are gathered once, in the order of the table,
    and never through the eager differentials; a sum forced nonzero moves
    that identity's residual, and nothing else."""
    chart = BOTH_BACKENDS[name]
    expected = forms.identity_report(chart(), grid_points=3)
    reached = spy_on_sums(monkeypatch, forced)
    for ref in REFERENCES:
        monkeypatch.setattr(forms, ref, _refuse(ref))
    report = forms.identity_report(chart(), grid_points=3)
    assert reached == list(forms.IDENTITIES)
    assert list(report["residuals"]) == ["rtilde", "structure", "dtildeR", "bianchi",
                                         "chern_simons", "nabla_torsion"]
    assert "max_R" in report
    if forced is None:
        assert report == expected
        if report["backend"] == "exact":
            assert all(report["residuals"][identity] == 0.0 for identity in forms.IDENTITIES)
        return
    assert expected["residuals"][forced] < 2.0**-30
    want = {**expected, "residuals": {**expected["residuals"], forced: 2.0**-30}}
    assert report == want


# --- the fused sums agree with the eager forms, component by component --------------

def eager_identities(conn, sign: int) -> dict:
    """identity -> {component key: field}: each identity of ``forms.IDENTITIES``
    built by the eager calculus, the reference for the fused sums."""
    n = conn.n
    t, r = forms.torsion_form(conn), forms.curvature_form(conn)
    sr = r if sign == 1 else r.scale(-1)
    primitive = forms.trace_form(forms.wedge(sr, t) - forms.wedge_power(t, 3).scale(Fraction(1, 3)))
    nabla = {}
    for d, i, j, k in iproduct(range(n), repeat=4):
        rhs = r.comp((k, j), i, d)
        nabla[d, i, j, k] = (dt_scalar(conn, lambda i, j, k: t.comp((j,), i, k), d, i, j, k)
                             - (rhs if sign == 1 else rhs.scale(-1)))
    return {"rtilde": forms.curvature_tilde_form(conn).components,
            "structure": (forms.d_tilde(conn, t) + forms.wedge(t, t) - sr).components,
            "dtildeR": (forms.d_tilde(conn, sr)
                        - (forms.wedge(sr, t) - forms.wedge(t, sr))).components,
            "bianchi": forms.d_lower(conn, sr).components,
            "chern_simons": (forms.de_rham(primitive)
                             - forms.trace_form(forms.wedge(sr, sr))).components,
            "nabla_torsion": nabla}


def fused_identities(conn, sign: int) -> dict:
    """identity -> {component key: field} from a ``forms.Geometry`` whose
    sR is built with ``sign``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forms, "STRUCTURE_SIGN", sign)
        geometry = forms.Geometry(conn)
    return {name: dict(zip(geometry.sums(name, sign), geometry.fields(name, sign)))
            for name in forms.IDENTITIES}


def component_pairs(fused: dict, eager: dict, zero):
    """(key, fused field, eager field) over the keys of either, a missing
    component being the zero."""
    for key in sorted(fused.keys() | eager.keys()):
        yield key, fused.get(key, zero), eager.get(key, zero)


EXACT_CHARTS = {**{name: (lambda name=name: gamma_from_frame(get_chart(name)))
                   for name in CHART_FACTS if get_chart(name).backend == "exact"},
                **{name: (lambda make=make: gamma_from_frame(make()))
                   for name, make in (("sl2rational", make_sl2rational),
                                      ("unipotent4", make_unipotent4), ("sl2mix4", make_sl2mix4))},
                **{f"seed{seed}": (lambda seed=seed: build(seed)[1]) for seed in SEEDS}}


@pytest.mark.parametrize("name", EXACT_CHARTS)
def test_fused_verdicts_agree_with_the_eager_forms(name):
    conn = EXACT_CHARTS[name]()
    curved = not forms.curvature_form(conn).is_exactly_zero()
    for sign in (forms.STRUCTURE_SIGN, -forms.STRUCTURE_SIGN):
        fused, eager = fused_identities(conn, sign), eager_identities(conn, sign)
        verdicts = {}
        for identity in forms.IDENTITIES:
            for key, got, want in component_pairs(fused[identity], eager[identity], conn.zero):
                assert (got - want).is_zero(), (sign, identity, key)
            verdicts[identity] = all(f.is_zero() for f in fused[identity].values())
        if sign == forms.STRUCTURE_SIGN:
            assert all(verdicts.values())
        elif curved:
            # the wrong sign on R: the fused sums see the failure
            assert not verdicts["structure"] and not verdicts["nabla_torsion"]


NUMERIC_CHARTS = {"affine-exp2": (lambda: get_chart("affine-exp2"), 5),
                  "su2-euler": (lambda: get_chart("su2-euler"), 3),
                  "deformed2-numeric": (lambda: chart_from_json({"builtin": "deformed2"},
                                                                "numeric"), 5)}


@pytest.mark.parametrize("name", NUMERIC_CHARTS)
def test_numeric_fused_sums_agree_with_the_eager_forms(name):
    make, grid_points = NUMERIC_CHARTS[name]
    chart = make()
    conn = gamma_from_frame(chart)
    points = chart.grid(grid_points)
    for sign in (forms.STRUCTURE_SIGN, -forms.STRUCTURE_SIGN):
        fused, eager = fused_identities(conn, sign), eager_identities(conn, sign)
        for identity in forms.IDENTITIES:
            for key, got, want in component_pairs(fused[identity], eager[identity], conn.zero):
                assert got.is_zero() is want.is_zero(), (sign, identity, key)
                assert np.allclose(got.values(points), want.values(points),
                                   rtol=1e-12, atol=1e-12), (sign, identity, key)
    if name == "deformed2-numeric":  # curved: the wrong sign on R is seen
        assert any(abs(f.values(points)).max() > 1e-3 for f in fused["structure"].values())


def test_chern_simons_agrees_with_the_full_pipeline():
    chart = make_sl2mix4()
    full = forms.identity_report(chart, grid_points=3)
    lean = forms.chern_simons_report(chart, grid_points=3)
    assert lean["chern_simons_residual"] == full["residuals"]["chern_simons"]
    assert lean["sign"] == full["sign"]
    assert lean["locally_homogeneous"] is full["locally_homogeneous"] is False


# --- a wedge read only through its trace forms only its diagonal -------------------

def pieces(a: forms.HomForm, b: forms.HomForm, diagonal: bool) -> int:
    """The products a^i_t b^t_j of stored components that the wedge of a
    and b forms, over every shuffle block; with ``diagonal`` only j = i."""
    p, q = a.degree, b.degree
    count = 0
    for out_idx in combinations(range(a.n), p + q):
        for a_pos in combinations(range(p + q), p):
            a_idx = tuple(out_idx[t] for t in a_pos)
            b_idx = tuple(out_idx[t] for t in range(p + q) if t not in a_pos)
            for idx, i, t in a.components:
                if idx == a_idx:
                    count += sum(1 for idx_b, t_b, j in b.components
                                 if idx_b == b_idx and t_b == t and (j == i or not diagonal))
    return count


@pytest.mark.parametrize("report, trace_only", [(forms.chern_simons_report, 2),
                                                (forms.identity_report, 2)])
def test_a_trace_only_wedge_forms_no_off_diagonal_piece(report, trace_only, monkeypatch):
    products = []
    original_mul = RationalFunc.__mul__

    def counted(self, other):
        products.append(1)
        return original_mul(self, other)

    calls = []
    original_wedge = forms.wedge

    def spy(a, b, diagonal=False):
        before = len(products)
        out = original_wedge(a, b, diagonal=diagonal)
        calls.append((diagonal, len(products) - before, pieces(a, b, diagonal),
                      pieces(a, b, False)))
        if diagonal:
            assert all(i == j for _, i, j in out.components)
        return out

    monkeypatch.setattr(RationalFunc, "__mul__", counted)
    monkeypatch.setattr(forms, "wedge", spy)
    report(make_sl2mix4(), grid_points=3)
    diagonal = [c for c in calls if c[0]]
    # T^T^T and sR^T; the transgression reads sR^sR as products
    assert len(diagonal) == trace_only
    assert all(formed == want for _, formed, want, _ in calls)
    assert sum(formed for _, formed, _, _ in diagonal) < sum(full for *_, full in diagonal)


# --- one curvature per form pair ------------------------------------------------

def _dense_gamma_chart() -> FrameChart:
    n = 3
    x = [RationalFunc.var(n, t) for t in range(n)]
    one = RationalFunc.const(n, 1)
    # every variable once in each row, so each row of d_j e is a unit row
    # and Gamma^i_{j.} is a row of the (dense) inverse frame
    entries = [[one + x[0], x[1], x[2]],
               [x[2], one + x[1], x[0]],
               [x[1], x[2], one + x[0]]]
    return FrameChart("dense", n, [(Fraction(-1, 4), Fraction(1, 4))] * n, entries=entries)


@pytest.mark.parametrize("formula", [curvature_tilde_components, curvature_components])
def test_curvature_multiplies_once_per_form_pair(formula, monkeypatch):
    conn = gamma_from_frame(_dense_gamma_chart())
    n = conn.n
    assert all(f for plane in conn.gamma for row in plane for f in row)
    calls = []
    original = RationalFunc.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(RationalFunc, "__mul__", counted)
    out = formula(conn)
    assert len(calls) <= n * comb(n, 2) * n * 2 * n < n ** 4 * 2 * n
    assert list(out) == list(iproduct(range(n), repeat=4))


@pytest.mark.parametrize("seed", SEEDS)
def test_curvature_is_antisymmetric_in_its_form_pair(seed):
    n, conn, _ = build(seed)
    for formula in (curvature_tilde_components, curvature_components):
        comps = formula(conn)
        assert list(comps) == list(iproduct(range(n), repeat=4))
        for i, r, j, k in comps:
            if r == j:
                assert comps[(i, r, j, k)].is_zero()
            else:
                assert (comps[(i, r, j, k)] + comps[(i, j, r, k)]).is_zero()


# --- one derivative per field ---------------------------------------------------

def _fields():
    conn = gamma_from_frame(make_sl2mix4())
    return [f for plane in conn.gamma for row in plane for f in row if f]


def test_diff_is_memoized_and_matches_a_fresh_derivative():
    fields = _fields()
    assert fields
    for f in fields:
        for derived in (f, -f, f.scale(Fraction(-3, 2))):
            for r in range(f.n):
                got = derived.diff(r)
                assert derived.diff(r) is got
                fresh = RationalFunc(derived.num, derived.den).diff(r)
                assert repr(got) == repr(fresh)


def test_report_differentiates_each_field_once_per_direction(monkeypatch):
    seen = []  # the fields are held here, so their ids stay unique
    original = RationalFunc._quotient_rule

    def counted(self, idx):
        seen.append((self, idx))
        return original(self, idx)

    diffs = []
    original_diff = RationalFunc.diff

    def counted_diff(self, idx):
        diffs.append(1)
        return original_diff(self, idx)

    monkeypatch.setattr(RationalFunc, "_quotient_rule", counted)
    monkeypatch.setattr(RationalFunc, "diff", counted_diff)
    forms.identity_report(make_sl2mix4(), grid_points=3)
    pairs = [(id(f), idx) for f, idx in seen]
    assert pairs and len(pairs) == len(set(pairs))
    assert len(diffs) > len(pairs)


def test_a_report_reduces_no_derivative_of_sr_or_the_transgression_primitive(monkeypatch):
    # they are only tested for zero: their derivatives enter the sums as the
    # unreduced terms of diff_terms
    differentiated = []  # the fields are held here, so their ids stay unique
    original = RationalFunc._quotient_rule

    def counted(self, idx):
        differentiated.append(self)
        return original(self, idx)

    geometries, primitives = [], []
    original_init, original_trace = forms.Geometry.__init__, forms.trace_form

    def init(self, conn):
        original_init(self, conn)
        geometries.append(self)

    def trace(omega):
        out = original_trace(omega)
        primitives.append(out)
        return out

    monkeypatch.setattr(RationalFunc, "_quotient_rule", counted)
    monkeypatch.setattr(forms.Geometry, "__init__", init)
    monkeypatch.setattr(forms, "trace_form", trace)
    forms.identity_report(make_sl2mix4(), grid_points=3)
    (geo,), (primitive,) = geometries, primitives
    assert geo.sr.components and primitive.components and differentiated
    watched = {id(f) for form in (geo.sr, primitive) for f in form.components.values()}
    assert not watched & {id(f) for f in differentiated}


def test_zero_field_derivative_is_memoized():
    zero = RationalFunc(Poly.zero(2))
    assert zero.diff(0) is zero.diff(0)
    assert zero.diff(0).is_zero()
