"""Catalog entries: construction, validation, and expected-fact recomputation."""

from __future__ import annotations

import pytest

from flatcheck.catalog import (
    CHART_FACTS,
    CHART_NAMES,
    NUMERIC_CHARTS,
    PAIR_FACTS,
    PAIR_NAMES,
    catalog_entries,
    get_chart,
    get_lie_pair,
)
from flatcheck.frames import ChartError, gamma_from_frame
from flatcheck.liepair import order_of
from flatcheck.rational import Poly


def test_every_chart_builds_and_is_invertible():
    for name in CHART_NAMES:
        chart = get_chart(name)
        chart.validate_invertible(5)
        assert chart.name == name
        assert (chart.backend == "numeric") == (name in NUMERIC_CHARTS)


def test_abelian_charts_are_identity_frames():
    chart = get_chart("abelian2")
    assert chart.domain == [(-1.0, 1.0), (-1.0, 1.0)]
    for i in range(2):
        for a in range(2):
            entry = chart.entries[i][a]
            if i == a:
                assert entry.num == Poly.const(2, 1)
            else:
                assert entry.is_zero()
    assert get_chart("abelian5").n == 5


def test_heisenberg_off_diagonal_entry():
    chart = get_chart("heisenberg3")
    x = Poly.var(3, 0)
    assert chart.entries[2][1].num == x
    count = sum(0 if chart.entries[i][a].is_zero() else 1
                for i in range(3) for a in range(3))
    assert count == 4  # three diagonal ones plus the single x


def test_unknown_chart_lists_names():
    with pytest.raises(ChartError, match="abelian2.*su2-euler"):
        get_chart("nope")


def test_every_pair_builds_and_validates():
    for name in PAIR_NAMES:
        g, h = get_lie_pair(name)  # Jacobi + closure run at construction
        assert h.dim <= g.dim


def test_sl2_borel_entry():
    g, h = get_lie_pair("sl2/borel")
    assert g.dim == 3
    assert h.dim == 2
    # standard constants: [H, E] = 2E, [E, F] = H
    assert g.bracket([1, 0, 0], [0, 1, 0]) == [0, 2, 0]
    assert g.bracket([0, 1, 0], [0, 0, 1]) == [1, 0, 0]


# the matrix pairs of the catalog: n, and the lower matrix units added to
# the traceless upper-triangular matrices
MATRIX_PAIRS = {"sl3/borel": (3, [(1, 0), (2, 0), (2, 1)]),
                **{f"p-subdiag{n}/b{n}": (n, [(1, 0)]) for n in (2, 3, 4)}}


def matrix_basis(n, extra):
    """H_1, ..., H_{n-1}, the upper matrix units row by row, then the units
    at ``extra``, as explicit integer matrices."""
    def unit(a, b):
        return [[int((r, c) == (a, b)) for c in range(n)] for r in range(n)]

    hs = [[[int(r == c == i) - int(r == c == i + 1) for c in range(n)] for r in range(n)]
          for i in range(n - 1)]
    uppers = [unit(a, b) for a in range(n) for b in range(a + 1, n)]
    return hs + uppers + [unit(a, b) for a, b in extra]


@pytest.mark.parametrize("name", MATRIX_PAIRS)
def test_matrix_pair_constants_match_the_matrix_commutators(name):
    n, extra = MATRIX_PAIRS[name]
    basis = matrix_basis(n, extra)
    g, h = get_lie_pair(name)
    assert g.dim == len(basis) and h.dim == len(basis) - len(extra)

    def product(a, b):
        return [[sum(a[r][t] * b[t][c] for t in range(n)) for c in range(n)] for r in range(n)]

    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            ab, ba = product(basis[i], basis[j]), product(basis[j], basis[i])
            combo = [[sum(x * basis[k][r][c] for k, x in g.c.get((i, j), ())) for c in range(n)]
                     for r in range(n)]
            assert combo == [[x - y for x, y in zip(p, q)] for p, q in zip(ab, ba)], (i, j)


def test_so3_so2_entry():
    g, h = get_lie_pair("so3/so2")
    assert g.bracket([1, 0, 0], [0, 1, 0]) == [0, 0, 1]
    assert h.dim == 1


def test_expected_homogeneity_facts_recompute():
    from flatcheck.forms import identity_report
    for name in ("abelian2", "heisenberg3", "hyperbolic2", "deformed2"):
        expected, _tag = CHART_FACTS[name]["locally_homogeneous"]
        assert identity_report(get_chart(name))["locally_homogeneous"] == expected


def test_expected_witness_facts_recompute():
    from flatcheck.frames import curvature_components
    expected, _tag = CHART_FACTS["deformed2"]["curvature_witness_origin"]
    conn = gamma_from_frame(get_chart("deformed2"))
    assert abs(curvature_components(conn)[(1, 0, 1, 0)].eval((0, 0))) == expected
    expected, _tag = CHART_FACTS["heisenberg3"]["gamma_312"]
    conn = gamma_from_frame(get_chart("heisenberg3"))
    assert conn.comp(2, 0, 1).eval((0, 0, 0)) == expected


def test_expected_order_facts_recompute():
    for name in PAIR_NAMES:
        expected, _tag = PAIR_FACTS[name]["order"]
        g, h = get_lie_pair(name)
        assert order_of(g, h) == expected, name


def test_catalog_entries_cover_everything():
    entries = catalog_entries()
    names = {e["name"] for e in entries}
    assert set(CHART_NAMES) <= names
    assert set(PAIR_NAMES) <= names
    for e in entries:
        assert e["kind"] in ("chart", "liepair")
        for fact in e["expected"].values():
            assert "value" in fact and "provenance" in fact
