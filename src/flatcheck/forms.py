"""Hom(T,T)-valued exterior calculus on a chart, and the residual report
that decides local homogeneity.

Forms of degree p store one scalar field per strictly increasing index
tuple and value entry; access with an arbitrary tuple resolves the sign.
One form type carries both Hom(T,T) values and the plain values of a
trace.  The wedge is the shuffle sum

    (w ^ s)(X_1 .. X_{p+q}) = sum over (p,q)-shuffles of
        sgn . w(block 1) o s(block 2),

composition taken in Hom(T,T), which matches the 1/(p!q!)-normalized
alternation of the componentwise product.  The differential d~ extends
the covariant derivative of ``frames`` by the alternation "leading term
minus single transpositions"; d is d~ of the opposite connection, and the
de Rham differential is the same alternation of partial derivatives.

Sign calibration: transcribing the curvature, torsion and wedge
conventions by hand leaves one global sign ambiguous in the structure
equation d~T + T^T = s.R.  The module determines s once, on the deformed
reference chart with exact arithmetic, and every report asserts that the
same s closes the whole identity suite on its chart; a chart where no
sign works raises ``CalibrationError`` carrying both residual tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product as iproduct
from typing import Dict, List, Sequence, Tuple

from .catalog import get_chart
from .frames import (
    ChartError,
    ConnectionField,
    FrameChart,
    ScalarField,
    curvature_components,
    curvature_tilde_components,
    dt_scalar,
    field_const,
    field_is_exactly_zero,
    gamma_from_frame,
    nabla_tensor12,
    torsion_components,
)

IndexTuple = Tuple[int, ...]


class CalibrationError(RuntimeError):
    """No single sign closes the structure equation on this chart.

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


def _merge_sign(a: IndexTuple, b: IndexTuple) -> int:
    """Parity of sorting the concatenation (a, b), both blocks increasing."""
    inversions = sum(1 for x in a for y in b if x > y)
    return -1 if inversions % 2 else 1


class HomForm:
    """Alternating p-form over an n-dim chart with Hom(T,T) or plain values.

    A component is keyed ``(idx, *value)``: ``value`` is the Hom(T,T) entry
    (i, j) when ``value_slots`` is 2, and empty for a plain form (the image
    of the trace), which has ``value_slots`` 0.
    """

    __slots__ = ("n", "degree", "backend", "steps", "value_slots", "components")

    def __init__(self, n: int, degree: int, backend: str, steps=None,
                 components: Dict[tuple, ScalarField] | None = None, value_slots: int = 2):
        self.n = n
        self.degree = degree
        self.backend = backend
        self.steps = steps
        self.value_slots = value_slots
        self.components: Dict[tuple, ScalarField] = {}
        if components:
            for (idx, *value), f in components.items():
                idx = tuple(idx)
                if len(idx) != degree or list(idx) != sorted(idx) or len(set(idx)) != len(idx):
                    raise ChartError(f"component key {idx} is not a canonical {degree}-tuple")
                self.components[(idx, *value)] = f

    def comp(self, idx: IndexTuple, *value: int) -> ScalarField:
        canon, sign = _sort_with_sign(tuple(idx))
        f = self.components.get((canon, *value)) if sign else None
        if f is None:
            return field_const(self.backend, self.n, 0, self.steps)
        return f if sign == 1 else f.scale(-1)

    def _like(self, degree: int, components=None) -> HomForm:
        """A form on the same chart, backend and value type."""
        return HomForm(self.n, degree, self.backend, self.steps, components, self.value_slots)

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
        if (self.n != other.n or self.degree != other.degree or self.backend != other.backend
                or self.value_slots != other.value_slots):
            raise ChartError("forms must share dimension, degree, backend and value type")

    def is_exactly_zero(self) -> bool:
        return all(field_is_exactly_zero(f) for f in self.components.values())

    def max_abs(self, points: Sequence[Tuple[float, ...]]) -> float:
        return _grid_max(self.components.values(), points)

    def __repr__(self):
        return f"HomForm(n={self.n}, degree={self.degree}, backend={self.backend})"


def _grid_max(fields, points) -> float:
    """Max |f| over the grid.  A value that is not finite is a ChartError:
    max() would drop a NaN and a residual of inf says nothing."""
    worst = 0.0
    for f in fields:
        for p in points:
            v = abs(f.eval_float(p))
            if not math.isfinite(v):
                raise ChartError(f"a field is not finite at {tuple(map(float, p))}")
            worst = max(worst, v)
    return worst


# --- basic constructions ------------------------------------------------------

def identity_hom_form(n: int, backend: str = "exact", steps=None) -> HomForm:
    one = field_const(backend, n, 1, steps)
    return HomForm(n, 0, backend, steps, {((), i, i): one for i in range(n)})


def torsion_form(conn: ConnectionField) -> HomForm:
    return _torsion_form_from(conn, torsion_components(conn))


def _torsion_form_from(conn: ConnectionField, raw) -> HomForm:
    comps = {}
    for (i, k, j), f in raw.items():
        comps[((k,), i, j)] = f
    return HomForm(conn.n, 1, conn.backend, conn.fd_steps, comps)


def _curvature_like_form(conn: ConnectionField, raw) -> HomForm:
    comps = {}
    for (i, r, j, k), f in raw.items():
        if r < j:
            comps[((r, j), i, k)] = f
    return HomForm(conn.n, 2, conn.backend, conn.fd_steps, comps)


def curvature_form(conn: ConnectionField) -> HomForm:
    return _curvature_like_form(conn, curvature_components(conn))


def curvature_tilde_form(conn: ConnectionField) -> HomForm:
    return _curvature_like_form(conn, curvature_tilde_components(conn))


# --- the calculus -------------------------------------------------------------

def nabla_tilde(conn: ConnectionField, omega: HomForm, r: int) -> HomForm:
    """Directional covariant derivative of a Hom-valued form.

    Only the value slots are contracted with the connection; the form
    indices ride along inert, so this is the per-direction building block
    of the alternated differential.  For the honest tensor derivative of
    the torsion (all slots active) see ``frames.nabla_tensor12``.
    """
    comps = {}
    for idx in combinations(range(omega.n), omega.degree):
        for i in range(omega.n):
            for j in range(omega.n):
                comps[(tuple(idx), i, j)] = dt_scalar(
                    conn, lambda a, b, idx=idx: omega.comp(idx, a, b), r, i, j)
    return HomForm(omega.n, omega.degree, omega.backend, omega.steps, comps)


def d_tilde(conn: ConnectionField, omega: HomForm) -> HomForm:
    """Alternated covariant differential; squares to zero exactly because
    the flat curvature of a frame-derived connection vanishes."""
    return _alternated_differential(conn, omega, dt_scalar)


def d_lower(conn: ConnectionField, omega: HomForm) -> HomForm:
    """The companion differential: d~ of the opposite connection; does not
    square to zero in general."""
    return _alternated_differential(conn.transposed(), omega, dt_scalar)


def _alternated_differential(conn, omega: HomForm, scalar_op) -> HomForm:
    """Sum over the out positions m of (-1)^m ``scalar_op`` in direction r_m
    of omega with r_m left out; the value slots of omega pass through."""
    n, p = omega.n, omega.degree
    if p >= n:
        return omega._like(p + 1)
    comps = {}
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
    return omega._like(p + 1, comps)


def de_rham(phi: HomForm) -> HomForm:
    """Exterior derivative on plain forms, same alternation convention."""
    return _alternated_differential(None, phi, lambda conn, get, r: get().diff(r))


def wedge(a: HomForm, b: HomForm) -> HomForm:
    """Shuffle wedge with Hom(T,T) composition on the value slots."""
    if a.n != b.n or a.backend != b.backend:
        raise ChartError("wedge operands must live on the same chart backend")
    n = a.n
    p, q = a.degree, b.degree
    if p + q > n:
        return HomForm(n, p + q, a.backend, a.steps or b.steps)
    comps = {}
    for out_idx in combinations(range(n), p + q):
        for i in range(n):
            for j in range(n):
                acc = None
                for a_pos in combinations(range(p + q), p):
                    a_idx = tuple(out_idx[t] for t in a_pos)
                    b_idx = tuple(out_idx[t] for t in range(p + q) if t not in a_pos)
                    sign = _merge_sign(a_idx, b_idx)
                    term = None
                    for t in range(n):
                        piece = a.comp(a_idx, i, t) * b.comp(b_idx, t, j)
                        term = piece if term is None else term + piece
                    if sign == -1:
                        term = term.scale(-1)
                    acc = term if acc is None else acc + term
                comps[(tuple(out_idx), i, j)] = acc
    return HomForm(n, p + q, a.backend, a.steps or b.steps, comps)


def trace_form(omega: HomForm) -> HomForm:
    """Contract the Hom value: (Tr w)_I = w^a_{I,a}."""
    comps = {}
    for idx in combinations(range(omega.n), omega.degree):
        acc = None
        for a in range(omega.n):
            term = omega.comp(tuple(idx), a, a)
            acc = term if acc is None else acc + term
        comps[(tuple(idx),)] = acc
    return HomForm(omega.n, omega.degree, omega.backend, omega.steps, comps, value_slots=0)


def wedge_power(omega: HomForm, i: int) -> HomForm:
    out = omega
    for _ in range(i - 1):
        out = wedge(out, omega)
    return out


# --- residual machinery -------------------------------------------------------

def form_residual(form: HomForm, points) -> float:
    """0.0 for literal zero on the exact backend, else a grid max-abs."""
    if form.backend == "exact" and form.is_exactly_zero():
        return 0.0
    return form.max_abs(points)


def nabla_torsion_minus_curvature(conn: ConnectionField, sign: int,
                                  tor=None, curv=None) -> List[ScalarField]:
    """Components of (covariant derivative of torsion) - sign * curvature.

    The torsion is differentiated as a full (1,2)-tensor.  The curvature
    component paired with direction r and torsion slots (j, k) is the one
    with form pair (k, j) and value slot r, which is the arrangement that
    the calibrated sign closes exactly; with the opposite pairing the two
    sides agree up to the global sign instead.
    """
    n = conn.n
    if tor is None:
        tor = torsion_components(conn)
    if curv is None:
        curv = curvature_components(conn)

    def t_get(i, j, k):
        return tor[(i, j, k)]

    out = []
    for r in range(n):
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = nabla_tensor12(conn, t_get, r, i, j, k)
                    rhs = curv[(i, k, j, r)]
                    out.append(lhs - (rhs if sign == 1 else rhs.scale(-1)))
    return out


def scalars_residual(fields: Sequence[ScalarField], backend: str, points) -> float:
    if backend == "exact" and all(field_is_exactly_zero(f) for f in fields):
        return 0.0
    return _grid_max(fields, points)


_GLOBAL_SIGN: int | None = None


def global_structure_sign() -> int:
    """The sign s with d~T + T^T = s.R, fixed once on the reference chart."""
    global _GLOBAL_SIGN
    if _GLOBAL_SIGN is None:
        chart = get_chart("deformed2")
        conn = gamma_from_frame(chart)
        t = torsion_form(conn)
        r = curvature_form(conn)
        lhs = d_tilde(conn, t) + wedge(t, t)
        plus = (lhs - r).is_exactly_zero()
        minus = (lhs + r).is_exactly_zero()
        if plus == minus:
            raise CalibrationError("deformed2", {"structure": float(not plus)},
                                   {"structure": float(not minus)})
        _GLOBAL_SIGN = 1 if plus else -1
    return _GLOBAL_SIGN


def identity_report(chart: FrameChart, tol: float = 1e-6, grid_points: int = 5) -> dict:
    """Compute the full residual table for one chart.

    Returns the report dictionary; raises CalibrationError when the
    structure equation fails for both signs (a reportable finding), where
    a sign passes when its structure residual is at most ``tol``.  The
    homogeneity verdict compares max |R| against ``tol`` and is data,
    never an error; ``identity_residuals_pass`` gates the residuals.
    """
    chart.validate_invertible(grid_points)
    conn = gamma_from_frame(chart)
    exact = conn.backend == "exact"
    points = chart.rational_grid(grid_points) if exact else chart.grid(grid_points)

    tor_raw = torsion_components(conn)
    curv_raw = curvature_components(conn)
    t = _torsion_form_from(conn, tor_raw)
    r = _curvature_like_form(conn, curv_raw)
    rt = curvature_tilde_form(conn)

    res_rtilde = form_residual(rt, points)

    lhs = d_tilde(conn, t) + wedge(t, t)
    res_plus = form_residual(lhs - r, points)
    res_minus = form_residual(lhs + r, points)
    sign = global_structure_sign()
    candidates = {1: res_plus, -1: res_minus}
    passing = {s for s, res in candidates.items() if res <= tol}
    if sign not in passing:
        # no sign works here, or only the one the global calibration rejects
        raise CalibrationError(chart.name, {"structure": res_plus}, {"structure": res_minus})
    res_structure = candidates[sign]

    sr = r if sign == 1 else r.scale(-1)

    # d~(sR) = (sR)^T - T^(sR)
    dtr_identity = d_tilde(conn, sr) - (wedge(sr, t) - wedge(t, sr))
    res_dtilde_r = form_residual(dtr_identity, points)

    # exterior-covariant closure of the curvature
    res_bianchi = form_residual(d_lower(conn, sr), points)

    # secondary transgression: d Tr(sR ^ T - T^3/3) = Tr(sR ^ sR)
    cs_primitive = trace_form(wedge(sr, t) - wedge_power(t, 3).scale(Fraction(1, 3)))
    cs_lhs = de_rham(cs_primitive)
    cs_rhs = trace_form(wedge(sr, sr))
    res_cs = form_residual(cs_lhs - cs_rhs, points)

    nabla_res = nabla_torsion_minus_curvature(conn, sign, tor=tor_raw, curv=curv_raw)
    res_nabla = scalars_residual(nabla_res, conn.backend, points)

    max_r = form_residual(r, points)
    homogeneous = max_r <= tol

    return {
        "chart": chart.name,
        "backend": conn.backend,
        "sign": sign,
        "residuals": {
            "rtilde": res_rtilde,
            "structure": res_structure,
            "dtildeR": res_dtilde_r,
            "bianchi": res_bianchi,
            "chern_simons": res_cs,
            "nabla_torsion": res_nabla,
        },
        "max_R": max_r,
        "locally_homogeneous": homogeneous,
        "tolerance": tol,
        "grid": [grid_points] * chart.n,
    }


def identity_residuals_pass(report: dict, tol: float, tol2: float) -> bool:
    res = report["residuals"]
    first_order = ("rtilde", "structure", "nabla_torsion")
    second_order = ("dtildeR", "bianchi", "chern_simons")
    return (all(res[k] <= tol for k in first_order)
            and all(res[k] <= tol2 for k in second_order))


def trace_powers(chart: FrameChart, max_i: int, sign: int | None = None) -> dict:
    """Tr(R^i) (degree 2i) and Tr(T^i) (degree i) for 1 <= i <= max_i.

    Powers whose degree exceeds the chart dimension come back as zero
    forms.  The curvature is taken with the calibrated sign so that the
    traces are the ones whose closures the report verifies.
    """
    conn = gamma_from_frame(chart)
    t = torsion_form(conn)
    r = curvature_form(conn)
    if sign is None:
        sign = global_structure_sign()
    if sign == -1:
        r = r.scale(-1)
    out = {"R": [], "T": []}
    for i in range(1, max_i + 1):
        out["R"].append(trace_form(wedge_power(r, i)))
        out["T"].append(trace_form(wedge_power(t, i)))
    return out


def secondary_class_check(chart: FrameChart, i: int, tol: float = 1e-6,
                          tol2: float = 1e-4, grid_points: int = 5) -> tuple[HomForm, bool | None]:
    """Tr(T^{2i+1}) and, on homogeneous charts, whether it is closed.

    On charts that are not locally homogeneous the form is still returned
    but the closedness flag stays unset (None): the secondary classes are
    only classes when the curvature vanishes.
    """
    conn = gamma_from_frame(chart)
    points = chart.rational_grid(grid_points) if conn.backend == "exact" else chart.grid(grid_points)
    t = torsion_form(conn)
    form = trace_form(wedge_power(t, 2 * i + 1))
    homogeneous = form_residual(curvature_form(conn), points) <= tol
    if not homogeneous:
        return form, None
    d = de_rham(form)
    return form, form_residual(d, points) <= tol2
