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
from functools import cache
from itertools import combinations
from typing import Dict, List, NamedTuple, Sequence, Tuple

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

    def max_abs(self, points: Sequence[Tuple[float, ...]]) -> float:
        return _grid_max(self.components.values(), points)

    def __repr__(self):
        return f"HomForm(n={self.n}, degree={self.degree})"


def _grid_max(fields, points) -> float:
    """Max |f| over the grid: float points, or a ``RationalGrid`` for exact
    fields (plain points are wrapped in one); numeric fields are evaluated
    on the whole grid at once, and reduced together.  A value that is not
    finite is a ChartError naming the first point where it occurs, in
    field order and then point order: max() would drop a NaN and a
    residual of inf says nothing.  A literal-zero field is skipped."""
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

    ``reach(conn, r, support)`` is the set of values at which ``scalar_op``
    in direction r can be nonzero when omega at the left-out index is a
    literal zero outside ``support``.  Only the values some position
    reaches are computed, and each sums only the positions that reach it."""
    n, p = omega.n, omega.degree
    if p >= n:
        return omega._like(p + 1)
    by_index = _by_index(omega)
    zero = omega.zero
    comps = {}
    for out_idx in combinations(range(n), p + 1):
        positions = []
        for m, r in enumerate(out_idx):
            part = by_index.get(out_idx[:m] + out_idx[m + 1:])
            if part:
                positions.append((m, r, part, reach(conn, r, part)))
        for value in sorted(set().union(*[reached for *_, reached in positions])):
            acc = None
            for m, r, part, reached in positions:
                if value not in reached:
                    continue
                term = scalar_op(conn, lambda *v, part=part: part.get(v, zero), r, *value)
                if m % 2 == 1:
                    term = term.scale(-1)
                acc = term if acc is None else acc + term
            comps[(out_idx, *value)] = acc
    return omega._like(p + 1, comps)


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

    Each shuffle block multiplies only the pairs a^i_t, b^t_j that are both
    stored, summed over t ascending; the blocks are added in shuffle order.

    With ``diagonal`` only the components (idx, i, i) are formed, each from
    the same pieces in the same order as in the full wedge, and the others
    are left out although they need not be zero: the result is only for
    readers of ``trace_form``."""
    if a.n != b.n or type(a.zero) is not type(b.zero):
        raise ChartError("wedge operands must live on the same chart backend")
    n = a.n
    p, q = a.degree, b.degree
    if p + q > n:
        return HomForm(n, p + q, a.zero)
    rows_a, rows_b = _rows(a), _rows(b)
    comps = {}
    for out_idx in combinations(range(n), p + q):
        acc = {}
        for a_pos in combinations(range(p + q), p):
            a_idx = tuple(out_idx[t] for t in a_pos)
            b_idx = tuple(out_idx[t] for t in range(p + q) if t not in a_pos)
            a_rows, b_rows = rows_a.get(a_idx), rows_b.get(b_idx)
            if not (a_rows and b_rows):
                continue
            block = {}
            for i, row in a_rows.items():
                for t, fa in row:
                    for j, fb in b_rows.get(t, ()):
                        if diagonal and j != i:
                            continue
                        piece = fa * fb
                        block[i, j] = piece if (i, j) not in block else block[i, j] + piece
            negate = _sort_with_sign(a_idx + b_idx)[1] == -1
            for key, term in block.items():
                if negate:
                    term = term.scale(-1)
                acc[key] = term if key not in acc else acc[key] + term
        for i, j in sorted(acc):
            comps[(out_idx, i, j)] = acc[i, j]
    return HomForm(n, p + q, a.zero, comps)


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
    """0.0 for a literal zero, else a grid max-abs."""
    return 0.0 if form.is_exactly_zero() else form.max_abs(points)


def nabla_torsion_minus_curvature(conn: ConnectionField, sign: int,
                                  t: HomForm, r: HomForm) -> List[ScalarField]:
    """Components of (covariant derivative of torsion) - sign * curvature,
    read from the torsion form ``t`` and curvature form ``r`` of ``conn``.

    The torsion is differentiated as a full (1,2)-tensor.  The curvature
    component paired with direction d and torsion slots (j, k) is the one
    with form pair (k, j) and value slot d, which is the arrangement that
    ``STRUCTURE_SIGN`` closes exactly; with the opposite pairing the two
    sides agree up to the sign instead.

    Only the (d, i, j, k) that the support of T, Gamma and R can reach are
    computed, in loop order; every other component is a literal zero and
    is left out.
    """
    # the support of the torsion tensor, keyed (i, j, k) as t_get reads it
    support = {(i, j, k) for (j,), i, k in t.components}

    def t_get(i, j, k):
        return t.comp((j,), i, k)

    out = []
    for d in range(conn.n):
        reached = dt_reach(conn, d, support)
        for (a, b), i, value in r.components:
            if value == d:
                reached.update(((i, a, b), (i, b, a)))
        for i, j, k in sorted(reached):
            lhs = dt_scalar(conn, t_get, d, i, j, k)
            rhs = r.comp((k, j), i, d)
            out.append(lhs - (rhs if sign == 1 else rhs.scale(-1)))
    return out


def scalars_residual(fields: Sequence[ScalarField], points) -> float:
    return 0.0 if all(f.is_zero() for f in fields) else _grid_max(fields, points)


class _Geometry(NamedTuple):
    report: dict
    torsion: HomForm
    torsion_cube_trace: HomForm | None  # Tr(T^3), built for the secondary class alone
    points: Sequence


def _geometry(chart: FrameChart, tol: float, grid_points: int, full: bool = True) -> _Geometry:
    """The one pipeline behind every report: the connection, torsion and
    curvature of the chart, each wedge built once, and the residual table.

    Every form is built before the first grid evaluation, so that a
    numeric node knows all its readers when it is first computed and one
    that several forms read keeps its jet (see ``NumericScalar``).

    With ``full`` false it builds only what ``chern_simons_report`` prints:
    the structure residual (for ``STRUCTURE_SIGN``, which may raise
    ``CalibrationError``), the transgression residual, the verdict and
    Tr(T^3).  The residuals of R~, d~(sR), the Bianchi identity and nabla T
    are then left out of the table, and so is ``max_R`` on the exact
    backend, whose verdict needs no grid."""
    chart.validate_invertible(grid_points)
    conn = gamma_from_frame(chart)
    exact = chart.backend == "exact"
    if exact:
        points = RationalGrid(chart.rational_grid(grid_points))
    else:
        import numpy as np

        # one array for every grid evaluation, which would convert a list again
        points = np.array(chart.grid(grid_points))

    sign = STRUCTURE_SIGN
    t = torsion_form(conn)
    r = curvature_form(conn)
    tt = wedge(t, t)
    lhs = d_tilde(conn, t) + tt
    structure = lhs - r if sign == 1 else lhs + r
    sr = r if sign == 1 else r.scale(-1)
    # chern-simons reads only the trace of sR^T; the report's d~(sR) reads all of it
    sr_t = wedge(sr, t, diagonal=not full)
    t3 = wedge(tt, t, diagonal=True)  # read only through trace_form
    # secondary transgression: d Tr(sR ^ T - T^3/3) = Tr(sR ^ sR)
    cs_primitive = trace_form(sr_t - t3.scale(Fraction(1, 3)))
    cs_identity = de_rham(cs_primitive) - trace_form(wedge(sr, sr, diagonal=True))
    if full:
        rtilde = curvature_tilde_form(conn)
        # d~(sR) = (sR)^T - T^(sR)
        dtr_identity = d_tilde(conn, sr) - (sr_t - wedge(t, sr))
        # exterior-covariant closure of the curvature
        bianchi = d_lower(conn, sr)
        nabla_res = nabla_torsion_minus_curvature(conn, sign, t, r)
        cube_trace = None
    else:
        cube_trace = trace_form(t3)

    residuals = {}
    if full:
        residuals["rtilde"] = form_residual(rtilde, points)
    res_structure = residuals["structure"] = form_residual(structure, points)
    if res_structure > tol:
        # the structure sign fails here; the other one only fills the report
        res_other = form_residual(lhs - r if sign == -1 else lhs + r, points)
        plus, minus = (res_structure, res_other) if sign == 1 else (res_other, res_structure)
        raise CalibrationError(chart.name, {"structure": plus}, {"structure": minus})
    if full:
        residuals["dtildeR"] = form_residual(dtr_identity, points)
        residuals["bianchi"] = form_residual(bianchi, points)
    residuals["chern_simons"] = form_residual(cs_identity, points)
    if full:
        residuals["nabla_torsion"] = scalars_residual(nabla_res, points)

    report = {"chart": chart.name, "backend": chart.backend, "sign": sign,
              "residuals": residuals}
    if full or not exact:
        report["max_R"] = form_residual(r, points)
    # exact: R is a normal form, so the verdict needs no grid and no tol
    report["locally_homogeneous"] = r.is_exactly_zero() if exact else report["max_R"] <= tol
    report["tolerance"] = tol
    report["grid"] = [grid_points] * chart.n
    return _Geometry(report, t, cube_trace, points)


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
    return _geometry(chart, tol, grid_points).report


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
    conn = gamma_from_frame(chart)
    t = torsion_form(conn)
    r = curvature_form(conn)
    if STRUCTURE_SIGN == -1:
        r = r.scale(-1)
    out = {"R": [], "T": []}
    for i in range(1, max_i + 1):
        out["R"].append(trace_form(wedge_power(r, i)))
        out["T"].append(trace_form(wedge_power(t, i)))
    return out


def _secondary_class(geo: _Geometry, i: int, tol2: float) -> tuple[HomForm, bool | None]:
    form = geo.torsion_cube_trace if i == 1 else trace_form(wedge_power(geo.torsion, 2 * i + 1))
    if not geo.report["locally_homogeneous"]:
        return form, None
    if geo.report["backend"] == "exact":
        return form, de_rham(form).is_exactly_zero()
    return form, form_residual(de_rham(form), geo.points) <= tol2


def secondary_class_check(chart: FrameChart, i: int, tol: float = 1e-6,
                          tol2: float = 1e-4, grid_points: int = 5) -> tuple[HomForm, bool | None]:
    """Tr(T^{2i+1}) and, on homogeneous charts, whether it is closed:
    exactly on the exact backend, within ``tol2`` on the numeric one.

    On charts that are not locally homogeneous the form is still returned
    but the closedness flag stays unset (None): the secondary classes are
    only classes when the curvature vanishes.  This runs the part of the
    ``identity_report`` pipeline that the verdict and the closedness need
    (validation, the structure residual, the transgression):
    it raises what that part raises, ``CalibrationError`` included.
    """
    return _secondary_class(_geometry(chart, tol, grid_points, full=False), i, tol2)


def chern_simons_report(chart: FrameChart, tol: float = 1e-6, tol2: float = 1e-4,
                        grid_points: int = 5) -> dict:
    """The transgression residual and the first secondary class Tr(T^3).

    Builds only what it returns: the residuals of R~, d~(sR), the Bianchi
    identity and nabla T are never computed, so a value that is not
    finite in them alone raises nothing here.  The structure residual is
    still evaluated, because it checks ``STRUCTURE_SIGN`` on this chart:
    ``CalibrationError`` is raised as in ``identity_report``."""
    geo = _geometry(chart, tol, grid_points, full=False)
    form, closed = _secondary_class(geo, 1, tol2)
    report = geo.report
    return {
        "chart": chart.name,
        "backend": report["backend"],
        "sign": report["sign"],
        "chern_simons_residual": report["residuals"]["chern_simons"],
        "secondary_class_degree": form.degree,
        "secondary_class_max_abs": form_residual(form, geo.points),
        "secondary_class_closed": closed,
        "locally_homogeneous": report["locally_homogeneous"],
    }
