"""Hom(T,T)-valued exterior calculus on a chart, and the residual report
that decides local homogeneity.

Forms of degree p store one scalar field per strictly increasing index
tuple and value entry; access with an arbitrary tuple resolves the sign.
One form type carries both Hom(T,T) values and the plain values of a
trace, on either backend: a form holds the zero field of its connection
and knows no backend name.  The wedge is the shuffle sum

    (w ^ s)(X_1 .. X_{p+q}) = sum over (p,q)-shuffles of
        sgn . w(block 1) o s(block 2),

composition taken in Hom(T,T), which matches the 1/(p!q!)-normalized
alternation of the componentwise product.  The differential d~ extends
the covariant derivative of ``frames`` by the alternation "leading term
minus single transpositions"; d is d~ of the opposite connection, and the
de Rham differential is the same alternation of partial derivatives.

A form stores only its support: a component that is a literal zero is
dropped when the form is built, and the others stay in canonical key
order.  The wedge, the differentials, the trace and the covariant
derivative of ``frames`` walk the support of their operands and of the
connection instead of every index combination.  They skip exactly the
operations whose result the zero short cuts of the scalar fields (in
``+``, ``-``, ``*``, ``scale`` and ``diff``, the same on both backends)
would have made the other operand, so every component is built by the
same nonzero operations in the same order as by the full loops: the same
terms in the same order, and the same floats on a grid.

Every report reads one ``Geometry`` of its chart's connection: T, R, sR
and the wedges built once, the residual identities as fused sums of the
terms above, and the transgression form.  A report validates its chart,
builds every field it prints, and only then evaluates them on the grid:
build every field before the first grid evaluation, so that a numeric
node knows all its readers when it is first computed.

The structure sign: the curvature, torsion and wedge conventions as
transcribed here fix the sign s in the structure equation d~T + T^T = s.R
once and for all; no chart changes it.  It is ``STRUCTURE_SIGN``, and
every report checks that it closes the structure equation on its chart; a
chart where it does not raises ``CalibrationError`` carrying the residuals
of both signs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from typing import Dict, List, Tuple

from .frames import (
    ChartError,
    ConnectionField,
    FrameChart,
    NumericScalar,
    ScalarField,
    curvature_components,
    curvature_tilde_components,
    dt_reach,
    dt_scalar,
    dt_terms,
    gamma_from_frame,
    torsion_components,
)
from .rational import RationalGrid, float_of

IndexTuple = Tuple[int, ...]

# The s of d~T + T^T = s.R, set by this code's index conventions; on
# deformed2 it is the one sign that closes the equation as a literal zero
# (tests/test_forms.py::test_structure_sign_closes_deformed2).
STRUCTURE_SIGN = -1


class CalibrationError(RuntimeError):
    """``STRUCTURE_SIGN`` does not close the structure equation on this chart.

    A reportable finding rather than a crash: both residual tables ride
    along for inspection.
    """

    def __init__(self, chart_name: str, residual_plus: dict, residual_minus: dict):
        self.chart_name = chart_name
        self.residual_plus = residual_plus
        self.residual_minus = residual_minus
        super().__init__(
            f"no consistent structure-equation sign on chart '{chart_name}': "
            f"+1 -> {residual_plus}, -1 -> {residual_minus}")


@cache
def _sort_with_sign(idx: IndexTuple) -> Tuple[IndexTuple, int]:
    if len(set(idx)) != len(idx):
        return tuple(sorted(idx)), 0
    perm = sorted(range(len(idx)), key=lambda t: idx[t])
    sign = 1
    seen = [False] * len(idx)
    for start in range(len(idx)):
        if seen[start]:
            continue
        length = 0
        t = start
        while not seen[t]:
            seen[t] = True
            t = perm[t]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return tuple(sorted(idx)), sign


class HomForm:
    """Alternating p-form over an n-dim chart with Hom(T,T) or plain values.

    A component is keyed ``(idx, *value)``: ``value`` is the Hom(T,T) entry
    (i, j) when ``value_slots`` is 2, and empty for a plain form (the image
    of the trace), which has ``value_slots`` 0.  ``zero`` is the zero field
    of the connection the form is built from, and the value of every
    component that is not stored: a literal-zero component is dropped.
    ``components`` is in canonical key order, the order of the index
    tuples and then of the value entries.
    """

    __slots__ = ("n", "degree", "zero", "value_slots", "components")

    def __init__(self, n: int, degree: int, zero: ScalarField,
                 components: Dict[tuple, ScalarField] | None = None, value_slots: int = 2):
        self.n = n
        self.degree = degree
        self.zero = zero
        self.value_slots = value_slots
        stored = {}
        if components:
            for (idx, *value), f in components.items():
                idx = tuple(idx)
                if len(idx) != degree or list(idx) != sorted(idx) or len(set(idx)) != len(idx):
                    raise ChartError(f"component key {idx} is not a canonical {degree}-tuple")
                if not f.is_zero():
                    stored[(idx, *value)] = f
        self.components: Dict[tuple, ScalarField] = {key: stored[key] for key in sorted(stored)}

    def comp(self, idx: IndexTuple, *value: int) -> ScalarField:
        canon, sign = _sort_with_sign(tuple(idx))
        f = self.components.get((canon, *value)) if sign else None
        if f is None:
            return self.zero
        return f if sign == 1 else f.scale(-1)

    def _like(self, degree: int, components=None) -> HomForm:
        """A form on the same chart, backend and value type."""
        return HomForm(self.n, degree, self.zero, components, self.value_slots)

    def __add__(self, other: HomForm) -> HomForm:
        self._check(other)
        out = dict(self.components)
        for key, f in other.components.items():
            out[key] = f if key not in out else out[key] + f
        return self._like(self.degree, out)

    def __sub__(self, other: HomForm) -> HomForm:
        return self + other.scale(-1)

    def scale(self, value) -> HomForm:
        return self._like(self.degree, {k: f.scale(value) for k, f in self.components.items()})

    def _check(self, other: HomForm) -> None:
        if (self.n != other.n or self.degree != other.degree
                or type(self.zero) is not type(other.zero)
                or self.value_slots != other.value_slots):
            raise ChartError("forms must share dimension, degree, backend and value type")

    def is_exactly_zero(self) -> bool:
        return not self.components

    def __repr__(self):
        return f"HomForm(n={self.n}, degree={self.degree})"


def scalars_residual(fields, points) -> float:
    """Max |f| over the grid: float points, or a ``RationalGrid`` for exact
    fields (plain points are wrapped in one); numeric fields are evaluated
    on the whole grid at once, and reduced together.  A value that is not
    finite is a ChartError naming the first point where it occurs, in
    field order and then point order: max() would drop a NaN and a
    residual of inf says nothing.  A literal-zero field is skipped, so
    fields that are all literal zeros give 0.0 with no grid."""
    live = [f for f in fields if not f.is_zero()]
    if live and isinstance(live[0], NumericScalar):
        import numpy as np

        values = np.abs(NumericScalar.batch_values(live, points))
        finite = np.isfinite(values)
        if not finite.all():
            raise _not_finite(points[int(finite.argmin()) % len(points)])
        return float(values.max())
    worst = 0.0
    for f in live:
        if not isinstance(points, RationalGrid):
            points = RationalGrid(points)
        values = list(map(abs, points.values(f)))
        finite = list(map(math.isfinite, values))
        if not all(finite):
            raise _not_finite(map(float_of, points.points[finite.index(False)]))
        worst = max(worst, max(values, default=0.0))
    return worst


def _not_finite(p) -> ChartError:
    return ChartError(f"a field is not finite at {tuple(map(float, p))}")


# --- basic constructions ------------------------------------------------------

def torsion_form(conn: ConnectionField) -> HomForm:
    comps = {((k,), i, j): f for (i, k, j), f in torsion_components(conn).items()}
    return HomForm(conn.n, 1, conn.zero, comps)


def _curvature_like_form(conn: ConnectionField, raw) -> HomForm:
    comps = {}
    for (i, r, j, k), f in raw.items():
        if r < j:
            comps[((r, j), i, k)] = f
    return HomForm(conn.n, 2, conn.zero, comps)


def curvature_form(conn: ConnectionField) -> HomForm:
    return _curvature_like_form(conn, curvature_components(conn))


def curvature_tilde_form(conn: ConnectionField) -> HomForm:
    return _curvature_like_form(conn, curvature_tilde_components(conn))


# --- the calculus -------------------------------------------------------------

def d_tilde(conn: ConnectionField, omega: HomForm) -> HomForm:
    """Alternated covariant differential; squares to zero exactly because
    the flat curvature of a frame-derived connection vanishes."""
    return _alternated_differential(conn, omega, dt_scalar, dt_reach)


def d_lower(conn: ConnectionField, omega: HomForm) -> HomForm:
    """The companion differential: d~ of the opposite connection; does not
    square to zero in general."""
    return _alternated_differential(conn.transposed(), omega, dt_scalar, dt_reach)


def _by_index(form: HomForm) -> Dict[IndexTuple, Dict[tuple, ScalarField]]:
    """The stored components as index tuple -> {value: field}."""
    out: Dict[IndexTuple, Dict[tuple, ScalarField]] = {}
    for (idx, *value), f in form.components.items():
        out.setdefault(idx, {})[tuple(value)] = f
    return out


def _alternated_differential(conn, omega: HomForm, scalar_op, reach) -> HomForm:
    """Sum over the out positions m of (-1)^m ``scalar_op`` in direction r_m
    of omega with r_m left out; the value slots of omega pass through.
    The positions of each component are those of ``_alternated_positions``,
    added in its order."""
    comps = {}
    for key, positions in _alternated_positions(conn, omega, reach):
        acc = None
        for m, r, get in positions:
            term = scalar_op(conn, get, r, *key[1:])
            if m % 2 == 1:
                term = term.scale(-1)
            acc = term if acc is None else acc + term
        comps[key] = acc
    return omega._like(omega.degree + 1, comps)


def _alternated_positions(conn, omega: HomForm, reach):
    """Yield (key, positions) for each component (out index tuple, *value)
    of the alternated differential that can be nonzero, in canonical key
    order; ``positions`` lists (m, r_m, get) in ascending m, ``get`` reading
    omega at the index tuple with r_m left out.

    ``reach(conn, r, support)`` is the set of values at which ``scalar_op``
    in direction r can be nonzero when omega at the left-out index is a
    literal zero outside ``support``.  Only the values some position
    reaches are yielded, each with only the positions that reach it."""
    n, p = omega.n, omega.degree
    by_index = _by_index(omega)
    zero = omega.zero
    for out_idx in combinations(range(n), p + 1):
        positions = []
        for m, r in enumerate(out_idx):
            part = by_index.get(out_idx[:m] + out_idx[m + 1:])
            if part:
                positions.append((m, r, lambda *v, part=part: part.get(v, zero),
                                  reach(conn, r, part)))
        for value in sorted(set().union(*[reached for *_, reached in positions])):
            yield (out_idx, *value), [(m, r, get) for m, r, get, reached in positions
                                      if value in reached]


def _differential_sums(conn, omega: HomForm) -> Dict[tuple, list]:
    """The terms (c, a, b) of each component of ``d_tilde(conn, omega)``:
    those of ``dt_terms`` at each position m, times (-1)^m."""
    return {key: [(-c if m % 2 else c, a, b) for m, r, get in positions
                  for c, a, b in dt_terms(conn, get, r, *key[1:])]
            for key, positions in _alternated_positions(conn, omega, dt_reach)}


def de_rham(phi: HomForm) -> HomForm:
    """Exterior derivative on plain forms, same alternation convention."""
    return _alternated_differential(None, phi, lambda conn, get, r: get().diff(r),
                                    lambda conn, r, support: support.keys())


def _rows(form: HomForm) -> Dict[IndexTuple, Dict[int, list]]:
    """The stored components as index tuple -> {i: [(j, field)]}, j ascending."""
    out: Dict[IndexTuple, Dict[int, list]] = {}
    for (idx, i, j), f in form.components.items():
        out.setdefault(idx, {}).setdefault(i, []).append((j, f))
    return out


def wedge(a: HomForm, b: HomForm, diagonal: bool = False) -> HomForm:
    """Shuffle wedge with Hom(T,T) composition on the value slots.

    The products are those of ``_wedge_blocks``: each shuffle block sums
    its products a^i_t b^t_j per (i, j), in its order, and negates the sum
    when the shuffle is odd; the blocks are added in shuffle order.

    With ``diagonal`` only the components (idx, i, i) are formed, each from
    the same pieces in the same order as in the full wedge, and the others
    are left out although they need not be zero: the result is only for
    readers of ``trace_form``."""
    if a.n != b.n or type(a.zero) is not type(b.zero):
        raise ChartError("wedge operands must live on the same chart backend")
    n, degree = a.n, a.degree + b.degree
    comps = {}
    for out_idx, blocks in _wedge_blocks(a, b, diagonal):
        acc = {}
        for sign, pieces in blocks:
            block = {}
            for i, j, fa, fb in pieces:
                piece = fa * fb
                block[i, j] = piece if (i, j) not in block else block[i, j] + piece
            for key, term in block.items():
                if sign == -1:
                    term = term.scale(-1)
                acc[key] = term if key not in acc else acc[key] + term
        for i, j in sorted(acc):
            comps[(out_idx, i, j)] = acc[i, j]
    return HomForm(n, degree, a.zero, comps)


def _wedge_blocks(a: HomForm, b: HomForm, diagonal: bool = False):
    """Yield (out index tuple, blocks) for each out index tuple of a ^ b, in
    order; ``blocks`` holds (sign, pieces) for each (p, q)-shuffle whose
    two index tuples both carry stored components, in shuffle order, and
    ``pieces`` yields (i, j, a^i_t, b^t_j) for the pairs that are both
    stored: i and then t ascending, j ascending (only j = i with
    ``diagonal``)."""
    n, p, q = a.n, a.degree, b.degree
    rows_a, rows_b = _rows(a), _rows(b)
    for out_idx in combinations(range(n), p + q):
        blocks = []
        for a_pos in combinations(range(p + q), p):
            a_idx = tuple(out_idx[t] for t in a_pos)
            b_idx = tuple(out_idx[t] for t in range(p + q) if t not in a_pos)
            a_rows, b_rows = rows_a.get(a_idx), rows_b.get(b_idx)
            if a_rows and b_rows:
                blocks.append((_sort_with_sign(a_idx + b_idx)[1],
                               _pieces(a_rows, b_rows, diagonal)))
        yield out_idx, blocks


def _pieces(a_rows, b_rows, diagonal: bool):
    """The pieces of one shuffle block of ``_wedge_blocks``."""
    for i, row in a_rows.items():
        for t, fa in row:
            for j, fb in b_rows.get(t, ()):
                if not diagonal or j == i:
                    yield i, j, fa, fb


def _wedge_sums(a: HomForm, b: HomForm) -> Dict[tuple, list]:
    """The terms (c, a^i_t, b^t_j) of each component of ``wedge(a, b)``, c
    the sign of the shuffle."""
    out: Dict[tuple, list] = {}
    for out_idx, blocks in _wedge_blocks(a, b):
        for sign, pieces in blocks:
            for i, j, fa, fb in pieces:
                out.setdefault((out_idx, i, j), []).append((sign, fa, fb))
    return out


def trace_form(omega: HomForm) -> HomForm:
    """Contract the Hom value: (Tr w)_I = w^a_{I,a}, summed over a ascending."""
    comps = {}
    for (idx, i, j), f in omega.components.items():
        if i == j:
            comps[(idx,)] = f if (idx,) not in comps else comps[(idx,)] + f
    return HomForm(omega.n, omega.degree, omega.zero, comps, value_slots=0)


def wedge_power(omega: HomForm, i: int) -> HomForm:
    out = omega
    for _ in range(i - 1):
        out = wedge(out, omega)
    return out


# --- residual machinery -------------------------------------------------------

def form_residual(form: HomForm, points) -> float:
    """The grid max-abs of the form's components, 0.0 for a literal zero."""
    return scalars_residual(form.components.values(), points)


def _nabla_torsion_positions(conn: ConnectionField, t: HomForm, r: HomForm):
    """Yield (d, (i, j, k), t_get, R^i_{d,(k,j)}) for each component of
    nabla T - sR that the support of T, Gamma and R can reach: d
    ascending, then (i, j, k) ascending; ``t_get(i, j, k)`` reads the
    torsion tensor T^i_{jk}, differentiated as a full (1,2)-tensor.  The
    curvature paired with direction d and torsion slots (j, k) has form
    pair (k, j) and value slot d, the arrangement that ``STRUCTURE_SIGN``
    closes exactly; the opposite pairing agrees up to the sign instead."""
    # the support of the torsion tensor, keyed (i, j, k) as t_get reads it
    support = {(i, j, k) for (j,), i, k in t.components}

    def t_get(i, j, k):
        return t.comp((j,), i, k)

    for d in range(conn.n):
        reached = dt_reach(conn, d, support)
        for (a, b), i, value in r.components:
            if value == d:
                reached.update(((i, a, b), (i, b, a)))
        for i, j, k in sorted(reached):
            yield d, (i, j, k), t_get, r.comp((k, j), i, d)


# the identities around R in the report, in the order of its residual table
IDENTITIES = ("structure", "dtildeR", "bianchi", "nabla_torsion")


class Geometry:
    """The forms of one connection that every report reads, each built once.

    T, R, sR with s = ``STRUCTURE_SIGN`` (held as ``sign``), T^T and the
    diagonal of T^T^T are built with the object, and sR^T on first read; a
    reader of the trace of sR^T alone hands its diagonal to ``transgression``.

    The identities of ``IDENTITIES`` are term lists.  ``sums(name, sign)``
    maps each component's key, in canonical order, to its terms (c, a, b)
    (see ``RationalFunc.dot``), gathered from the term emitters of the
    calculus without forming a product or a sum; a component with no key
    is a literal zero.  ``sign`` is the s on R in the structure equation
    and in nabla T = sR; the terms of d~T and T^T are gathered once for
    either sign.  ``fields`` folds each list into one field with
    ``conn.zero.dot``, on either backend.

    The rule for every reader: build every field before the first grid
    evaluation.  A numeric node then knows all its readers when it is
    first computed, and one that several fields read keeps its jet (see
    ``NumericScalar``).
    """

    def __init__(self, conn: ConnectionField):
        self.conn = conn
        self.sign = STRUCTURE_SIGN
        self.t = torsion_form(conn)
        self.r = curvature_form(conn)
        self.tt = wedge(self.t, self.t)
        self.sr = self.r if self.sign == 1 else self.r.scale(-1)
        self.t3 = wedge(self.tt, self.t, diagonal=True)

    @cached_property
    def sr_t(self) -> HomForm:
        return wedge(self.sr, self.t)

    @cached_property
    def _torsion_terms(self) -> Dict[tuple, list]:
        """The terms of d~T + T^T, which the structure sums of both signs share."""
        out = _differential_sums(self.conn, self.t)
        _add_terms(out, self.tt, 1)
        return out

    def sums(self, name: str, sign: int) -> Dict[tuple, list]:
        conn, t, sr = self.conn, self.t, self.sr
        if name == "structure":  # d~T, T^T and -sign.R
            out = {key: [*terms] for key, terms in self._torsion_terms.items()}
            _add_terms(out, self.r, -sign)
        elif name == "dtildeR":  # d~(sR) = (sR)^T - T^(sR), T^(sR) as products
            out = _differential_sums(conn, sr)
            _add_terms(out, self.sr_t, -1)
            for key, terms in _wedge_sums(t, sr).items():
                out.setdefault(key, []).extend(terms)
        elif name == "bianchi":  # d_lower(sR), the exterior-covariant closure of R
            out = _differential_sums(conn.transposed(), sr)
        else:  # nabla T - sign.R, keyed (d, i, j, k)
            return {(d, *value): [*dt_terms(conn, t_get, d, *value), (-sign, rhs, None)]
                    for d, value, t_get, rhs in _nabla_torsion_positions(conn, t, self.r)}
        return {key: out[key] for key in sorted(out)}

    def fields(self, name: str, sign: int) -> List[ScalarField]:
        zero = self.conn.zero
        return [zero.dot(terms) for terms in self.sums(name, sign).values()]

    def transgression(self, sr_t: HomForm) -> HomForm:
        """d Tr(sR ^ T - T^3/3) - Tr(sR ^ sR), zero by the secondary
        transgression; ``sr_t`` is sR^T or its diagonal, all the trace reads."""
        primitive = trace_form(sr_t - self.t3.scale(Fraction(1, 3)))
        return de_rham(primitive) - trace_form(wedge(self.sr, self.sr, diagonal=True))

    def structure_residual(self, fields: List[ScalarField], points, tol: float,
                           chart_name: str) -> float:
        """The residual of ``fields``, the structure fields of ``sign``.  Past
        ``tol`` that sign fails on this chart: ``CalibrationError`` carries
        the residual of each sign, the other one read from the same terms."""
        res = scalars_residual(fields, points)
        if res > tol:
            other = scalars_residual(self.fields("structure", -self.sign), points)
            plus, minus = (res, other) if self.sign == 1 else (other, res)
            raise CalibrationError(chart_name, {"structure": plus}, {"structure": minus})
        return res


def _add_terms(sums: Dict[tuple, list], form: HomForm, c: int) -> None:
    """Enter each stored component f of ``form`` as the term (c, f, None)."""
    for key, f in form.components.items():
        sums.setdefault(key, []).append((c, f, None))


def _grid(chart: FrameChart, grid_points: int):
    """Validate the chart on its grid and return the points every residual
    of a report is evaluated on: a ``RationalGrid`` on the exact backend,
    one array on the numeric one (each evaluation would convert a list)."""
    chart.validate_invertible(grid_points)
    if chart.backend == "exact":
        return RationalGrid(chart.rational_grid(grid_points))
    import numpy as np

    return np.array(chart.grid(grid_points))


def identity_report(chart: FrameChart, tol: float = 1e-6, grid_points: int = 5) -> dict:
    """Compute the full residual table for one chart.

    Returns the report dictionary, whose ``sign`` is ``STRUCTURE_SIGN``;
    raises CalibrationError when that sign does not close the structure
    equation on this chart, that is when its structure residual exceeds
    ``tol``.
    The homogeneity verdict is data, never an error: on the exact backend
    it is "every R component is the zero normal form", on the numeric
    backend "max |R| on the grid is at most ``tol``".
    ``identity_residuals_pass`` gates the residuals.
    """
    points = _grid(chart, grid_points)
    geo = Geometry(gamma_from_frame(chart))
    fields = {name: geo.fields(name, geo.sign) for name in IDENTITIES}
    transgression = geo.transgression(geo.sr_t)
    rtilde = curvature_tilde_form(geo.conn)

    residuals = {
        "rtilde": form_residual(rtilde, points),
        "structure": geo.structure_residual(fields["structure"], points, tol, chart.name),
        "dtildeR": scalars_residual(fields["dtildeR"], points),
        "bianchi": scalars_residual(fields["bianchi"], points),
        "chern_simons": form_residual(transgression, points),
        "nabla_torsion": scalars_residual(fields["nabla_torsion"], points),
    }
    max_r = form_residual(geo.r, points)
    # exact: R is a normal form, so the verdict needs no grid and no tol
    homogeneous = geo.r.is_exactly_zero() if chart.backend == "exact" else max_r <= tol
    return {"chart": chart.name, "backend": chart.backend, "sign": geo.sign,
            "residuals": residuals, "max_R": max_r, "locally_homogeneous": homogeneous,
            "tolerance": tol, "grid": [grid_points] * chart.n}


def identity_residuals_pass(report: dict, tol: float, tol2: float) -> bool:
    res = report["residuals"]
    first_order = ("rtilde", "structure", "nabla_torsion")
    second_order = ("dtildeR", "bianchi", "chern_simons")
    return (all(res[k] <= tol for k in first_order)
            and all(res[k] <= tol2 for k in second_order))


def trace_powers(chart: FrameChart, max_i: int) -> dict:
    """Tr(R^i) (degree 2i) and Tr(T^i) (degree i) for 1 <= i <= max_i.

    Powers whose degree exceeds the chart dimension come back as zero
    forms.  The curvature is taken with ``STRUCTURE_SIGN`` so that the
    traces are the ones whose closures the report verifies.
    """
    geo = Geometry(gamma_from_frame(chart))
    out = {"R": [], "T": []}
    for i in range(1, max_i + 1):
        out["R"].append(trace_form(wedge_power(geo.sr, i)))
        out["T"].append(trace_form(wedge_power(geo.t, i)))
    return out


def _secondary_report(chart: FrameChart, i: int, tol: float, tol2: float,
                      grid_points: int) -> tuple[dict, HomForm]:
    """The ``chern_simons_report`` of the secondary form Tr(T^{2i+1}), and
    that form.  The structure residual is evaluated because it checks
    ``STRUCTURE_SIGN`` on this chart; ``max_R`` only on the numeric
    backend, whose verdict needs it."""
    points = _grid(chart, grid_points)
    geo = Geometry(gamma_from_frame(chart))
    structure = geo.fields("structure", geo.sign)
    transgression = geo.transgression(wedge(geo.sr, geo.t, diagonal=True))
    form = trace_form(geo.t3 if i == 1 else wedge_power(geo.t, 2 * i + 1))
    closure = de_rham(form)

    geo.structure_residual(structure, points, tol, chart.name)
    residual = form_residual(transgression, points)
    exact = chart.backend == "exact"
    homogeneous = geo.r.is_exactly_zero() if exact else form_residual(geo.r, points) <= tol
    # the secondary forms are classes only where the curvature vanishes
    closed = (None if not homogeneous else closure.is_exactly_zero() if exact
              else form_residual(closure, points) <= tol2)
    return {"chart": chart.name, "backend": chart.backend, "sign": geo.sign,
            "chern_simons_residual": residual, "secondary_class_degree": form.degree,
            "secondary_class_max_abs": form_residual(form, points),
            "secondary_class_closed": closed, "locally_homogeneous": homogeneous}, form


def secondary_class_check(chart: FrameChart, i: int, tol: float = 1e-6,
                          tol2: float = 1e-4, grid_points: int = 5) -> tuple[HomForm, bool | None]:
    """Tr(T^{2i+1}) and, on homogeneous charts, whether it is closed:
    exactly on the exact backend, within ``tol2`` on the numeric one.

    On charts that are not locally homogeneous the form is still returned
    but the closedness flag stays unset (None): the secondary classes are
    only classes when the curvature vanishes.  This runs the
    ``chern_simons_report`` pipeline for this form (validation, the
    structure residual, the transgression, the verdict): it raises what
    that pipeline raises, ``CalibrationError`` included.
    """
    report, form = _secondary_report(chart, i, tol, tol2, grid_points)
    return form, report["secondary_class_closed"]


def chern_simons_report(chart: FrameChart, tol: float = 1e-6, tol2: float = 1e-4,
                        grid_points: int = 5) -> dict:
    """The transgression residual and the first secondary class Tr(T^3).

    Builds only what it returns: the residuals of R~, d~(sR), the Bianchi
    identity and nabla T are never computed, so a value that is not
    finite in them alone raises nothing here.  The structure residual is
    still evaluated, because it checks ``STRUCTURE_SIGN`` on this chart:
    ``CalibrationError`` is raised as in ``identity_report``."""
    return _secondary_report(chart, 1, tol, tol2, grid_points)[0]
