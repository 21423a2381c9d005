"""Per-layer tracing by wrapping flatcheck's public functions from outside.

The program is not edited.  ``Tracer.install`` replaces each traced
function or method with a timing wrapper, in its defining module or class
and in every flatcheck module namespace that imported the name, and
``remove`` puts the originals back.

Two kinds of wrapper:

* span: the entry points of a layer (``identity_report``,
  ``gamma_from_frame``, ``compose_truncated``, ``filtration_of``,
  ``pair_from_json``, ...).  Each call records one span: name, start, end,
  parent span and op id.
* hot: inner methods called up to millions of times per op
  (``Poly.__mul__``, the ``eval_float`` methods, ``TruncatedPoly.__mul__``,
  ...).  Calls only add to a (enclosing span, metric) aggregate, so memory
  stays bounded.

Both kinds add to ``calls`` and ``self_s`` of their metric, where self time
is the wrapper's duration minus that of the wrapped calls inside it.
Spans stay in memory until ``dump`` writes them out.

Run as a script, this module is the traced child of the cli-cold
workload: ``python tracer.py OUT.json ARGV...`` runs
``flatcheck.cli.main(ARGV)`` under a tracer and writes the trace to OUT.json.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute or Class.method, metric, kind)
TARGETS = [
    ("flatcheck.rational", "Poly.__mul__", "rational.poly_mul", "hot"),
    ("flatcheck.rational", "Poly.eval_float", "rational.eval_float", "hot"),
    ("flatcheck.rational", "RationalFunc.eval_float", "rational.eval_float", "hot"),
    ("flatcheck.rational", "Poly.eval", "rational.eval_exact", "hot"),
    ("flatcheck.rational", "RationalFunc.eval", "rational.eval_exact", "hot"),
    ("flatcheck.rational", "RationalFunc.__add__", "rational.rf_addsub", "hot"),
    ("flatcheck.rational", "RationalFunc.__sub__", "rational.rf_addsub", "hot"),
    ("flatcheck.rational", "RationalFunc.__mul__", "rational.rf_mul", "hot"),
    ("flatcheck.rational", "RationalFunc.diff", "rational.rf_diff", "hot"),
    ("flatcheck.rational", "RationalFunc._reduce", "rational.rf_reduce", "hot"),
    ("flatcheck.rational", "rf_matrix_inverse", "rational.matrix_inverse", "span"),
    ("flatcheck.frames", "FrameChart.__init__", "frames.chart_init", "span"),
    ("flatcheck.frames", "FrameChart.validate_invertible", "frames.validate", "span"),
    ("flatcheck.frames", "gamma_from_frame", "frames.gamma", "span"),
    ("flatcheck.frames", "torsion_components", "frames.torsion", "span"),
    ("flatcheck.frames", "curvature_components", "frames.curvature", "span"),
    ("flatcheck.frames", "curvature_tilde_components", "frames.curvature", "span"),
    ("flatcheck.frames", "NumericScalar.eval_float", "frames.numeric_eval", "hot"),
    ("flatcheck.forms", "identity_report", "forms.identity_report", "span"),
    ("flatcheck.forms", "d_tilde", "forms.d_tilde", "span"),
    ("flatcheck.forms", "d_lower", "forms.d_tilde", "span"),
    ("flatcheck.forms", "wedge", "forms.wedge", "span"),
    ("flatcheck.forms", "wedge_power", "forms.wedge", "span"),
    ("flatcheck.forms", "de_rham", "forms.de_rham", "span"),
    ("flatcheck.forms", "trace_form", "forms.trace", "span"),
    ("flatcheck.forms", "form_residual", "forms.residual", "span"),
    ("flatcheck.forms", "scalars_residual", "forms.residual", "span"),
    ("flatcheck.forms", "secondary_class_check", "forms.secondary", "span"),
    ("flatcheck.charts_io", "load_chart_file", "charts_io.load", "span"),
    ("flatcheck.catalog", "get_chart", "catalog.build", "span"),
    ("flatcheck.catalog", "get_lie_pair", "catalog.build", "span"),
    ("flatcheck.catalog", "catalog_entries", "catalog.build", "span"),
    ("flatcheck.jetcore", "compose_truncated", "jetcore.compose", "span"),
    ("flatcheck.jetcore", "invert_truncated", "jetcore.invert", "span"),
    ("flatcheck.jetcore", "TruncatedPoly.__mul__", "jetcore.tpoly_mul", "hot"),
    ("flatcheck.jetcore", "map_from_json", "jetcore.json", "span"),
    ("flatcheck.jetcore", "map_to_json", "jetcore.json", "span"),
    ("flatcheck.spencer", "spencer_bracket", "spencer.bracket", "hot"),
    ("flatcheck.spencer", "algebraic_bracket_fields", "spencer.bracket", "hot"),
    ("flatcheck.spencer", "algebraic_bracket", "spencer.bracket", "hot"),
    ("flatcheck.spencer", "kernel_bracket", "spencer.bracket", "hot"),
    ("flatcheck.spencer", "spencer_operator", "spencer.operator", "hot"),
    ("flatcheck.spencer", "prolong", "spencer.prolong", "hot"),
    ("flatcheck.spencer_suite", "run_spencer_suite", "spencer_suite", "span"),
    ("flatcheck.liepair", "pair_from_json", "liepair.load", "span"),
    ("flatcheck.liepair", "filtration_of", "liepair.filtration", "span"),
    ("flatcheck.liepair", "order_of", "liepair.order", "span"),
    ("flatcheck.liepair", "row_echelon", "liepair.row_echelon", "hot"),
    ("flatcheck.cli", "emit", "cli.emit", "span"),
]
for _cmd in ("geom_report", "jet_compose", "jet_invert", "groupoid_g3", "spencer_check",
             "liepair_order", "catalog_list", "chern_simons"):
    TARGETS.append(("flatcheck.cli", f"cmd_{_cmd}", f"cli.cmd_{_cmd}", "span"))

# extra counters, added by shims inside the timed wrapper
TERMS_OUT = "rational.poly_mul.terms_out"
CACHE_HITS = "frames.numeric_cache_hits"


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent span or -1, op id]
        self.agg: dict = {}  # (enclosing span, metric) -> [calls, self seconds]
        self.counts = {TERMS_OUT: 0, CACHE_HITS: 0}
        self.op = None
        self._stack = [[-1, 0.0]]  # frames: [enclosing span, time of wrapped children]
        self._undo: list = []

    # --- wrappers -------------------------------------------------------------
    def _wrap(self, fn, metric: str, is_span: bool):
        spans, agg, stack = self.spans, self.agg, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            if is_span:
                sid = len(spans)
                spans.append(None)
            else:
                sid = parent[0]
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                if is_span:
                    spans[sid] = [metric, start, end, parent[0], self.op]
                key = (parent[0], metric)
                rec = agg.get(key)
                if rec is None:
                    agg[key] = [1, elapsed - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += elapsed - frame[1]

        traced.__wrapped__ = fn
        return traced

    def _shim(self, metric: str, fn):
        counts = self.counts
        if metric == "rational.poly_mul":
            def poly_mul(a, b):
                out = fn(a, b)
                counts[TERMS_OUT] += len(out.coeffs)
                return out
            return poly_mul
        if metric == "frames.numeric_eval":
            # a miss stores exactly one new point in this node's cache
            def numeric_eval(node, point):
                before = len(node._cache)
                value = fn(node, point)
                if len(node._cache) == before:
                    counts[CACHE_HITS] += 1
                return value
            return numeric_eval
        return fn

    # --- patching -------------------------------------------------------------
    def install(self) -> None:
        for name in {t[0] for t in TARGETS}:
            importlib.import_module(name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "flatcheck" or n.startswith("flatcheck."))]
        for module_name, attr, metric, kind in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(self._shim(metric, original), metric, kind == "span"))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, metric, kind == "span")
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, obj, key, value) -> None:
        self._undo.append((obj, key, getattr(obj, "__dict__")[key]))
        setattr(obj, key, value)

    def remove(self) -> None:
        while self._undo:
            obj, key, original = self._undo.pop()
            setattr(obj, key, original)

    def call(self, name: str, fn, *args):
        """Run fn(*args) as a root span of op ``name``."""
        self.op = name
        return self._wrap(fn, "op", True)(*args)

    # --- results --------------------------------------------------------------
    def totals(self) -> dict:
        """metric -> [calls, self seconds], summed over enclosing spans."""
        out: dict = {}
        for (_, metric), (calls, self_s) in self.agg.items():
            rec = out.setdefault(metric, [0, 0.0])
            rec[0] += calls
            rec[1] += self_s
        return out

    def dump(self, path: str) -> None:
        doc = {"spans": self.spans, "totals": self.totals(), "counts": self.counts}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _child_main(argv: list) -> int:
    """Traced cli-cold child: run one flatcheck command line under a tracer."""
    import traceback

    out_path, cli_argv = argv[0], argv[1:]
    import flatcheck.cli as cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.call(" ".join(cli_argv[:2]), cli.main, cli_argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the untraced CLI would end in this traceback too
        traceback.print_exc()
        rc = 1
    finally:
        tracer.remove()
        tracer.dump(out_path)
    return rc


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
