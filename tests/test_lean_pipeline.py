"""Each command builds only what it prints.

``chern-simons`` runs the part of the identity pipeline that its answer
needs, the curvature formulas compute one component per form pair, and a
field differentiates in each direction once.  None of this may move a
value: the reports are compared with the full pipeline and with fresh
computations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as iproduct
from math import comb

import pytest

from flatcheck import forms
from flatcheck.catalog import get_chart
from flatcheck.frames import (
    FrameChart,
    curvature_components,
    curvature_tilde_components,
    gamma_from_frame,
)
from flatcheck.rational import Poly, RationalFunc

from conftest import make_sl2mix4, make_sl2rational
from test_geometry_oracle import SEEDS, build

SKIPPED = ("d_lower", "nabla_torsion_minus_curvature", "curvature_tilde_form")


# --- chern-simons builds only what it prints ------------------------------------

def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"chern_simons_report called {name}")
    return refuse


@pytest.mark.parametrize("chart", [make_sl2rational, lambda: get_chart("affine-exp2")],
                         ids=["sl2rational", "affine-exp2"])
def test_chern_simons_skips_the_identities_it_does_not_print(chart, monkeypatch):
    expected = forms.chern_simons_report(chart(), grid_points=3)
    for name in SKIPPED:
        monkeypatch.setattr(forms, name, _refuse(name))
    assert forms.chern_simons_report(chart(), grid_points=3) == expected
    # the secondary class needs no more than the report does
    _, closed = forms.secondary_class_check(chart(), 1, grid_points=3)
    assert closed == expected["secondary_class_closed"]


@pytest.mark.parametrize("chart", [make_sl2rational, lambda: get_chart("affine-exp2")],
                         ids=["sl2rational", "affine-exp2"])
def test_identity_report_still_builds_every_identity(chart, monkeypatch):
    calls = []
    for name in SKIPPED:
        original = getattr(forms, name)

        def spy(*args, name=name, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(forms, name, spy)
    report = forms.identity_report(chart(), grid_points=3)
    assert sorted(set(calls)) == sorted(SKIPPED)
    assert list(report["residuals"]) == ["rtilde", "structure", "dtildeR", "bianchi",
                                         "chern_simons", "nabla_torsion"]
    assert "max_R" in report


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


@pytest.mark.parametrize("report, trace_only", [(forms.chern_simons_report, 3),
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
    # sR^sR, T^T^T, and in chern-simons sR^T
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


def test_zero_field_derivative_is_memoized():
    zero = RationalFunc(Poly.zero(2))
    assert zero.diff(0) is zero.diff(0)
    assert zero.diff(0).is_zero()
