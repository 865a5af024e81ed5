"""Which finetrop functions the traced run wraps, and the per-layer metrics.

Spans go around the public functions of ``solve``, ``series``, ``poly``,
``tropgeo`` and the phase arithmetic of ``hyperfields``.  The arithmetic
underneath them (``fields``, ``ordgroup``, ``extension``) is counted only.
"""

from __future__ import annotations

from tracing import Tracer

FIELD_OPS = ("add", "neg", "mul", "inv", "sub", "div", "from_int", "is_zero",
             "sqrt")


def _roots(counts, args, out):
    counts["solve.roots_out"] += len(out)


def _terms(counts, args, out):
    counts["series.terms_out"] += len(out.terms)


def _cells(counts, args, out):
    counts["tropgeo.cells_out"] += len(out.cells)


def _meet(counts, args, out):
    C1, C2 = args[:2]
    counts["tropgeo.cell_pairs"] += len(C1.cells) * len(C2.cells)
    counts["tropgeo.points_out"] += len(out[0])
    counts["tropgeo.components_out"] += len(out[1])


# (module, function, span name, result hook or None)
SPANS = (
    ("solve", "roots_univariate", "solve.roots_univariate", _roots),
    ("solve", "multiplicity", "solve.multiplicity", None),
    ("solve", "newton_cells", "solve.newton_cells", None),
    ("solve", "base_roots", "solve.base_roots", None),
    ("solve", "solve_linear_2x2", "solve.solve_linear_2x2", None),
    ("series", "series_inv", "series.series_inv", _terms),
    ("series", "series_mul", "series.series_mul", _terms),
    ("tropgeo", "fine_hypersurface", "tropgeo.fine_hypersurface", _cells),
    ("tropgeo", "fine_intersect", "tropgeo.fine_intersect", _meet),
    ("poly", "pushforward", "poly.pushforward", None),
    ("poly", "product_of_linear_factors", "poly.product_of_linear_factors", None),
    ("poly", "eval_poly", "poly.eval_poly", None),
    ("hyperfields", "phase_add_sets", "hyperfields.phase_add_sets", None),
    ("hyperfields", "check_axioms", "hyperfields.check_axioms", None),
)


def install(ft) -> Tracer:
    """Wrap finetrop's layers in spans and counters; returns the tracer."""
    tracer = Tracer(ft.modules)
    for key in ("solve.roots_out", "series.terms_out", "tropgeo.cells_out",
                "tropgeo.cell_pairs", "tropgeo.points_out",
                "tropgeo.components_out"):
        tracer.add_counter(key)
    for mod, fn, name, hook in SPANS:
        tracer.span(getattr(ft, mod), fn, name, hook)
    ext, og, fields = ft.extension, ft.ordgroup, ft.fields
    tracer.count_method(ext.TropicalExtension, "add_set_elem", "extension.add_calls")
    tracer.count_method(ext.TropicalExtension, "mul", "extension.mul_calls")
    tracer.count_function(og, "group_add", "ordgroup.group_add_calls")
    tracer.count_function(og, "lex_compare", "ordgroup.compare_calls")
    tracer.count_method(og.GroupElem, "__lt__", "ordgroup.compare_calls")
    tracer.count_method(og.GroupElem, "__le__", "ordgroup.compare_calls")
    for cls in (fields.BaseField, fields.RationalField,
                fields.GaussianRationalField, fields.PrimeField):
        for op in FIELD_OPS:
            if op in cls.__dict__:
                tracer.count_method(cls, op, "fields.ops")
    return tracer


# Per-layer metrics: name -> kind.  A "count" must repeat exactly between
# traced passes of one seed; a "time" is the median over passes.  Units
# and directions are in BENCHMARK.json.
PER_LAYER = {
    "solve.mult_calls": "count",
    "solve.mult_s": "time",
    "solve.mult_calls_per_root": "count",
    "solve.roots_s": "time",
    "solve.newton_cells_s": "time",
    "solve.base_roots_calls": "count",
    "solve.base_roots_s": "time",
    "solve.linear2x2_s": "time",
    "series.inv_calls": "count",
    "series.inv_s": "time",
    "series.mul_calls": "count",
    "series.mul_s": "time",
    "series.terms_out": "count",
    "tropgeo.hypersurface_calls": "count",
    "tropgeo.hypersurface_s": "time",
    "tropgeo.cells_out": "count",
    "tropgeo.intersect_s": "time",
    "tropgeo.cell_pairs": "count",
    "tropgeo.points_out": "count",
    "tropgeo.components_out": "count",
    "poly.pushforward_s": "time",
    "poly.product_s": "time",
    "poly.eval_calls": "count",
    "poly.eval_s": "time",
    "extension.add_calls": "count",
    "extension.mul_calls": "count",
    "ordgroup.group_add_calls": "count",
    "ordgroup.compare_calls": "count",
    "fields.ops": "count",
    "hyperfields.phase_add_calls": "count",
    "hyperfields.phase_add_s": "time",
    "hyperfields.axioms_s": "time",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The PER_LAYER values of one traced pass."""
    stats = tracer.span_stats()
    c = tracer.counts

    def calls(name):
        return stats[name][0]

    def busy(name):
        return stats[name][1]

    roots = c["solve.roots_out"]
    return {
        "solve.mult_calls": calls("solve.multiplicity"),
        "solve.mult_s": busy("solve.multiplicity"),
        "solve.mult_calls_per_root":
            calls("solve.multiplicity") / roots if roots else 0.0,
        "solve.roots_s": busy("solve.roots_univariate"),
        "solve.newton_cells_s": busy("solve.newton_cells"),
        "solve.base_roots_calls": calls("solve.base_roots"),
        "solve.base_roots_s": busy("solve.base_roots"),
        "solve.linear2x2_s": busy("solve.solve_linear_2x2"),
        "series.inv_calls": calls("series.series_inv"),
        "series.inv_s": busy("series.series_inv"),
        "series.mul_calls": calls("series.series_mul"),
        "series.mul_s": busy("series.series_mul"),
        "series.terms_out": c["series.terms_out"],
        "tropgeo.hypersurface_calls": calls("tropgeo.fine_hypersurface"),
        "tropgeo.hypersurface_s": busy("tropgeo.fine_hypersurface"),
        "tropgeo.cells_out": c["tropgeo.cells_out"],
        "tropgeo.intersect_s": busy("tropgeo.fine_intersect"),
        "tropgeo.cell_pairs": c["tropgeo.cell_pairs"],
        "tropgeo.points_out": c["tropgeo.points_out"],
        "tropgeo.components_out": c["tropgeo.components_out"],
        "poly.pushforward_s": busy("poly.pushforward"),
        "poly.product_s": busy("poly.product_of_linear_factors"),
        "poly.eval_calls": calls("poly.eval_poly"),
        "poly.eval_s": busy("poly.eval_poly"),
        "extension.add_calls": c["extension.add_calls"],
        "extension.mul_calls": c["extension.mul_calls"],
        "ordgroup.group_add_calls": c["ordgroup.group_add_calls"],
        "ordgroup.compare_calls": c["ordgroup.compare_calls"],
        "fields.ops": c["fields.ops"],
        "hyperfields.phase_add_calls": calls("hyperfields.phase_add_sets"),
        "hyperfields.phase_add_s": busy("hyperfields.phase_add_sets"),
        "hyperfields.axioms_s": busy("hyperfields.check_axioms"),
    }
