"""Lie pair filtrations, orders, effectiveness, and the semidirect
construction that realizes any representation as a relative adjoint."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from flatcheck.catalog import PAIR_NAMES, get_lie_pair
from flatcheck.liepair import (
    LieAlgebra,
    LiePairError,
    Representation,
    Subalgebra,
    effective_check,
    filtration_of,
    order_of,
    pair_from_json,
    pair_to_json,
    semidirect_from_rep,
)
from flatcheck.rational import nullspace


def is_faithful(rho):
    """Whether h -> gl(W) is injective: the flattened matrices rho(b), one
    column per basis vector b of h, have no common kernel."""
    columns = [[x for row in mat for x in row] for mat in rho.matrices]
    return not nullspace([list(r) for r in zip(*columns)], rho.algebra.dim)


def so2_rotation_rep():
    h = LieAlgebra(1)
    rho = Representation(h, [[[0, -1], [1, 0]]])
    return h, rho


def test_jacobi_validation_rejects_bad_constants():
    with pytest.raises(LiePairError, match="Jacobi"):
        LieAlgebra(3, {(0, 1): [0, 0, 1], (0, 2): [0, 1, 0], (1, 2): [1, 1, 1]})


def test_subalgebra_closure_validation():
    g, _ = get_lie_pair("sl2/borel")
    with pytest.raises(LiePairError, match="not closed"):
        Subalgebra(g, [[0, 1, 0], [0, 0, 1]])  # span{E, F} brackets to H


def test_subalgebra_dependent_basis():
    g, _ = get_lie_pair("sl2/borel")
    with pytest.raises(LiePairError, match="dependent"):
        Subalgebra(g, [[1, 0, 0], [2, 0, 0]])


def test_filtration_zero_subalgebra():
    g, _ = get_lie_pair("so3/so2")
    chain = filtration_of(g, Subalgebra(g, []))
    assert [s.dim for s in chain] == [0]


def test_filtration_sl2_borel():
    g, h = get_lie_pair("sl2/borel")
    chain = filtration_of(g, h)
    assert [s.dim for s in chain] == [2, 1, 0]
    # middle stage is exactly span{E}
    assert chain[1].contains([0, 1, 0])
    assert not chain[1].contains([1, 0, 0])


def test_filtration_so3_so2():
    g, h = get_lie_pair("so3/so2")
    chain = filtration_of(g, h)
    assert [s.dim for s in chain] == [1, 0]


def test_catalog_orders():
    expected = {
        "so3/so2": 1,
        "e2/so2": 1,
        "so21/so2": 1,
        "sl2/borel": 2,
        "sl3/borel": 2,
        "p-subdiag2/b2": 2,
        "p-subdiag3/b3": "ineffective",
        "p-subdiag4/b4": "ineffective",
        "heis3/center": "ineffective",
        "gl2/center-so2": "ineffective",
    }
    for name, want in expected.items():
        g, h = get_lie_pair(name)
        assert order_of(g, h) == want, name


def test_filtration_decreasing_and_graded():
    for name in PAIR_NAMES:
        g, h = get_lie_pair(name)
        chain = filtration_of(g, h)
        dims = [s.dim for s in chain]
        assert dims == sorted(dims, reverse=True)
        assert len(set(dims)) == len(dims)  # strict until the chain stops
        # [h_i, h_j] inside h_{i+j} for the computed stages
        for i, si in enumerate(chain):
            for j, sj in enumerate(chain):
                target = chain[min(i + j, len(chain) - 1)] if i + j < len(chain) else None
                for a in si.basis:
                    for b in sj.basis:
                        br = g.bracket(a, b)
                        if target is not None:
                            assert target.contains(br)


def test_first_stage_is_nilpotent_ideal_of_h():
    for name in PAIR_NAMES:
        g, h = get_lie_pair(name)
        chain = filtration_of(g, h)
        if len(chain) < 2:
            continue
        h1 = chain[1]
        # ideal in h
        for a in h.basis:
            for b in h1.basis:
                assert h1.contains(g.bracket(a, b))
        # nilpotent: the lower central series dies
        if name in ("p-subdiag3/b3", "p-subdiag4/b4", "heis3/center", "gl2/center-so2"):
            continue  # stationary chains: h1 here is not the nil radical story
        series = [list(v) for v in h1.basis]
        for _ in range(h1.dim + 1):
            nxt = []
            for a in h1.basis:
                for b in series:
                    br = g.bracket(a, b)
                    if any(br):
                        nxt.append(br)
            from flatcheck.liepair import row_echelon
            series = row_echelon(nxt)
            if not series:
                break
        assert not series, name


def test_order_drop_along_filtration():
    # the order of (g, h_i) is the original order minus i, on effective pairs
    for name in PAIR_NAMES:
        g, h = get_lie_pair(name)
        k = order_of(g, h)
        if k == "ineffective":
            continue
        chain = filtration_of(g, h)
        assert len(chain) == k + 1
        for i, stage in enumerate(chain):
            assert order_of(g, stage) == k - i, (name, i)


def test_jacobi_products_bound_the_check(monkeypatch):
    # every product of two structure constants that the Jacobi check forms
    # is counted by the bound that caps it
    formed = [0]
    real = LieAlgebra._double_bracket

    def counted(self, i, j, k, total):
        formed[0] += sum(len(self.c.get((m, k), ())) for m, _ in self.c.get((i, j), ()))
        return real(self, i, j, k, total)

    monkeypatch.setattr(LieAlgebra, "_double_bracket", counted)
    nonzero = 0
    for name in PAIR_NAMES:
        g, _ = get_lie_pair(name)
        formed[0] = 0
        g._validate_jacobi()
        assert formed[0] <= g.jacobi_products(), name
        nonzero += formed[0] > 0
    assert nonzero >= 3


def test_effective_check_trivial_cases():
    g, _ = get_lie_pair("so3/so2")
    ok, witness = effective_check(g, Subalgebra(g, []))
    assert ok and witness is None
    full = Subalgebra(g, [g.basis_vector(i) for i in range(3)])
    ok, witness = effective_check(g, full)
    assert not ok
    assert len(witness) == 3  # so(3) itself is the offending ideal


def test_effective_check_gl2_center():
    g, h = get_lie_pair("gl2/center-so2")
    ok, witness = effective_check(g, h)
    assert not ok
    # witness spans the center (the identity matrix direction)
    assert len(witness) == 1
    assert Subalgebra(g, witness).contains([1, 0, 0, 0])


def test_gl2_brackets_are_matrix_commutators():
    # the documented basis (I, J, D, S) of gl(2) as 2 x 2 matrices
    basis = [((1, 0), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (0, -1)), ((0, 1), (1, 0))]

    def mul(a, b):
        return [[sum(a[r][t] * b[t][c] for t in range(2)) for c in range(2)] for r in range(2)]

    def flat(m):  # the coordinates of a matrix in that basis
        a, b, c, d = m[0][0], m[0][1], m[1][0], m[1][1]
        return [Fraction(a + d, 2), Fraction(c - b, 2), Fraction(a - d, 2), Fraction(b + c, 2)]

    g, _ = get_lie_pair("gl2/center-so2")
    for i in range(4):
        for j in range(4):
            ab, ba = mul(basis[i], basis[j]), mul(basis[j], basis[i])
            want = flat([[ab[r][c] - ba[r][c] for c in range(2)] for r in range(2)])
            assert g.bracket(g.basis_vector(i), g.basis_vector(j)) == want, (i, j)


def test_witness_is_an_ideal_inside_h():
    for name in ("p-subdiag3/b3", "p-subdiag4/b4", "heis3/center", "gl2/center-so2"):
        g, h = get_lie_pair(name)
        ok, witness = effective_check(g, h)
        assert not ok, name
        assert witness, name
        for w in witness:
            assert h.contains(w)
            for b in range(g.dim):
                assert Subalgebra(g, witness).contains(
                    g.bracket(w, g.basis_vector(b))), name


def test_semidirect_trivial_rep():
    h = LieAlgebra(1)
    rho = Representation(h, [[[0]]])
    g, hemb = semidirect_from_rep(h, rho)
    assert g.dim == 2
    for i in range(2):
        for j in range(2):
            assert all(x == 0 for x in g.bracket(g.basis_vector(i), g.basis_vector(j)))


def test_semidirect_rotation_gives_euclidean_pair():
    h, rho = so2_rotation_rep()
    g, hemb = semidirect_from_rep(h, rho)
    assert g.dim == 3
    assert order_of(g, hemb) == 1
    # matches e2/so2 structure constants: [r, t1] = t2, [r, t2] = -t1
    assert g.bracket([1, 0, 0], [0, 1, 0]) == [0, 0, 1]
    assert g.bracket([1, 0, 0], [0, 0, 1]) == [0, -1, 0]


def test_faithful_iff_effective():
    h = LieAlgebra(1)
    faithful = Representation(h, [[[0, -1], [1, 0]]])
    g, hemb = semidirect_from_rep(h, faithful)
    assert effective_check(g, hemb)[0]
    assert is_faithful(faithful)

    zero = Representation(h, [[[0, 0], [0, 0]]])
    g2, hemb2 = semidirect_from_rep(h, zero)
    assert not effective_check(g2, hemb2)[0]
    assert not is_faithful(zero)

    # two-dimensional h acting through its first coordinate only
    h2 = LieAlgebra(2)
    partial = Representation(h2, [[[0, -1], [1, 0]], [[0, 0], [0, 0]]])
    g3, hemb3 = semidirect_from_rep(h2, partial)
    assert not is_faithful(partial)
    assert not effective_check(g3, hemb3)[0]


def test_faithful_iff_effective_random_abelian_family():
    # random diagonal actions of an abelian h: the kernel of the action is
    # visible in both the matrices and the extended pair, and they agree
    rng = random.Random(7)
    for _ in range(20):
        hdim, wdim = rng.choice(((1, 2), (2, 2), (2, 3)))
        h = LieAlgebra(hdim)
        mats = []
        for _ in range(hdim):
            diag = [rng.randint(-2, 2) for _ in range(wdim)]
            mats.append([[Fraction(diag[r]) if r == c else Fraction(0)
                          for c in range(wdim)] for r in range(wdim)])
        rho = Representation(h, mats)
        g, hemb = semidirect_from_rep(h, rho)
        assert effective_check(g, hemb)[0] == is_faithful(rho)


def test_representation_law_validation():
    h = LieAlgebra(2, {(0, 1): [0, 1]})  # [a, b] = b (affine line)
    with pytest.raises(LiePairError, match="representation law"):
        Representation(h, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]])


def test_pair_json_round_trip():
    for name in ("sl2/borel", "so3/so2", "gl2/center-so2"):
        g, h = get_lie_pair(name)
        doc = pair_to_json(g, h)
        g2, h2 = pair_from_json(doc)
        assert g2.dim == g.dim
        assert g2.c == g.c
        assert h2.basis == h.basis
        assert order_of(g2, h2) == order_of(g, h)


def test_pair_json_malformed():
    with pytest.raises(LiePairError, match="malformed"):
        pair_from_json({"dim": 3})


def test_unknown_pair_name():
    with pytest.raises(LiePairError, match="available"):
        get_lie_pair("nope")
