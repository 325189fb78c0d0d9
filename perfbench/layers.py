"""Per-layer metrics from the spans of one traced pass.

Every metric named here is listed under `per_layer` in BENCHMARK.json;
the smoke test keeps the two in step.  A `self_s` metric is a sum of span
self times.  The `share.*` metrics split the traced wall time
(`trace.wall_s`, their base) into disjoint buckets that add up to 1.
"""

from tracer import LAYERS

# metric prefix -> span names whose calls and self time it sums
NAMED = {
    "exactlin.permute_factors": ("exactlin.permute_factors",),
    "exactlin.tensor": ("exactlin.LinMap.tensor",),
    "exactlin.matmul": ("exactlin.LinMap.__matmul__",),
    "exactlin.linmap_init": ("exactlin.LinMap.__init__",),
    "exactlin.descend": ("exactlin.descend",),
    "exactlin.rref": ("exactlin.rref",),
    "exactlin.solve": ("exactlin.solve",),
    "exactlin.kernel": ("exactlin.kernel",),
    "exactlin.invert": ("exactlin.invert",),
    "exactlin.quotient_by": ("exactlin.quotient_by",),
    "algcore.balanced_tensor": ("algcore.balanced_tensor",),
    "algcore.action_on_last_slot": ("algcore.action_on_last_slot",),
    "hopfalgebroid.tower": ("hopfalgebroid.LeftBialgebroidData.ltower",
                            "hopfalgebroid.LeftBialgebroidData.rtower"),
}
_PRIMS = ("exactlin.permute_factors", "exactlin.tensor", "exactlin.matmul",
          "exactlin.linmap_init")
_ELIM = ("exactlin.rref", "exactlin.solve", "exactlin.kernel",
         "exactlin.invert", "exactlin.quotient_by")
_TOWERS = ("algcore.balanced_tensor", "algcore.action_on_last_slot",
           "hopfalgebroid.tower")
SHARES = ("operator_prims", "elimination", "towers", "builders", "homology",
          "scenario_checkers", "other")

# (metric, unit, better); the order is the order of the printout
METRICS = []
for _m in ("permute_factors", "tensor", "matmul", "linmap_init", "descend",
           "rref"):
    METRICS += [("exactlin.%s.calls" % _m, "count", "lower"),
                ("exactlin.%s.self_s" % _m, "s", "lower")]
METRICS += [
    ("exactlin.permute_factors.entries", "count", "lower"),
    ("exactlin.tensor.nnz", "count", "lower"),
    ("exactlin.descend.lift_cols", "count", "lower"),
    ("exactlin.descend.useful_ratio", "ratio", "higher"),
    ("exactlin.rref.cells", "count", "lower"),
    ("exactlin.rref.q.self_s", "s", "lower"),
    ("exactlin.rref.fp.self_s", "s", "lower"),
    ("exactlin.solve.self_s", "s", "lower"),
    ("exactlin.kernel.self_s", "s", "lower"),
    ("exactlin.invert.self_s", "s", "lower"),
    ("exactlin.quotient_by.self_s", "s", "lower"),
    ("exactlin.elim.q.self_s", "s", "lower"),
    ("exactlin.elim.fp.self_s", "s", "lower"),
    ("algcore.balanced_tensor.calls", "count", "lower"),
    ("algcore.balanced_tensor.self_s", "s", "lower"),
    ("algcore.action_on_last_slot.self_s", "s", "lower"),
    ("hopfalgebroid.tower.calls", "count", "lower"),
    ("hopfalgebroid.tower.self_s", "s", "lower"),
    ("hopfalgebroid.tower.hit_ratio", "ratio", "higher"),
    ("hopfalgebroid.tower.ambient_dim", "count", "lower"),
    ("hopfalgebroid.tower.quotient_dim", "count", "lower"),
    ("hopfalgebroid.check.self_s", "s", "lower"),
    ("cyclichom.build.self_s", "s", "lower"),
    ("cyclichom.homology.self_s", "s", "lower"),
    ("cyclichom.check.self_s", "s", "lower"),
    ("cyclichom.hopf_galois.self_s", "s", "lower"),
    ("operadcyc.build.self_s", "s", "lower"),
    ("operadcyc.check.self_s", "s", "lower"),
    ("measuring.check.self_s", "s", "lower"),
    ("measuring.induced.self_s", "s", "lower"),
    ("scenario.parse.self_s", "s", "lower"),
    ("scenario.run.self_s", "s", "lower"),
    ("scenario.emit.self_s", "s", "lower"),
]
METRICS += [("%s.self_s" % layer, "s", "lower") for layer in LAYERS]
METRICS += [
    ("perfbench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.absent_targets", "count", "lower"),
]
METRICS += [("share.%s" % b, "ratio", "lower") for b in SHARES]


def _group(layer, fn, rest):
    """The function-group metric prefix of a span, or None."""
    if layer == "cyclichom":
        if "hopf_galois" in fn:
            return "cyclichom.hopf_galois"
        if fn.startswith("build_") or fn.endswith("_tower"):
            return "cyclichom.build"
        if "homology" in fn:
            return "cyclichom.homology"
    elif layer == "operadcyc":
        if fn.startswith("build_") or fn == "comp_cyclic_module":
            return "operadcyc.build"
    elif layer == "measuring":
        if "induced" in fn or fn == "mixed_free":
            return "measuring.induced"
    elif layer == "scenario":
        if fn in ("run", "emit"):
            return "scenario." + fn
        if "parse" in fn or rest.startswith("ScenarioDocument."):
            return "scenario.parse"
    if fn.startswith("check_") and layer in (
            "hopfalgebroid", "cyclichom", "operadcyc", "measuring"):
        return layer + ".check"
    return None


def _share(named, group, layer, fn):
    if named in _PRIMS:
        return "operator_prims"
    if named in _ELIM:
        return "elimination"
    if named in _TOWERS:
        return "towers"
    if fn.startswith("check_") or layer == "scenario":
        return "scenario_checkers"
    if group in ("cyclichom.build", "operadcyc.build", "measuring.induced",
                 "cyclichom.hopf_galois"):
        return "builders"
    if group == "cyclichom.homology":
        return "homology"
    return "other"


def per_layer(tracer, untraced_wall):
    """Metric name -> value for a traced pass whose root span is span 0."""
    spans = tracer.spans
    selfs = tracer.self_times()
    by_name = {n: m for m, names in NAMED.items() for n in names}
    out = {name: 0.0 for name, _, _ in METRICS}
    towers = {}
    descend_amb = descend_q = 0
    for idx, (span, st) in enumerate(zip(spans, selfs)):
        name, _, _, parent, attrs = span
        attrs = attrs or {}
        layer, _, rest = name.partition(".")
        fn = rest.rsplit(".", 1)[-1]
        out["%s.self_s" % layer] += st
        group = _group(layer, fn, rest)
        if group:
            out[group + ".self_s"] += st
        named = by_name.get(name)
        out["share." + _share(named, group, layer, fn)] += st
        if named is None:
            continue
        if named + ".calls" in out:
            out[named + ".calls"] += 1
        if named + ".self_s" in out:
            out[named + ".self_s"] += st
        if named in _ELIM and "char" in attrs:
            out["exactlin.elim.%s.self_s"
                % ("q" if attrs["char"] == 0 else "fp")] += st
        if named == "exactlin.rref":
            out["exactlin.rref.cells"] += attrs.get("cells", 0)
            if "char" in attrs:
                out["exactlin.rref.%s.self_s"
                    % ("q" if attrs["char"] == 0 else "fp")] += st
        elif named == "exactlin.permute_factors":
            out["exactlin.permute_factors.entries"] += attrs.get("entries", 0)
        elif named == "exactlin.tensor":
            out["exactlin.tensor.nnz"] += attrs.get("nnz", 0)
        elif named == "exactlin.descend":
            out["exactlin.descend.lift_cols"] += attrs.get("lift_cols", 0)
            descend_amb += attrs.get("src_ambient", 0)
            descend_q += attrs.get("src_quotient", 0)
        elif named == "hopfalgebroid.tower":
            towers[idx] = True
            out["hopfalgebroid.tower.ambient_dim"] += attrs.get("ambient", 0)
            out["hopfalgebroid.tower.quotient_dim"] += attrs.get(
                "quotient", 0)
        elif named == "algcore.balanced_tensor":
            # a tower call that built a level is a miss
            up = parent
            while up >= 0 and up not in towers:
                up = spans[up][3]
            if up >= 0:
                towers[up] = False
    if towers:
        out["hopfalgebroid.tower.hit_ratio"] = \
            sum(towers.values()) / len(towers)
    if descend_amb:
        out["exactlin.descend.useful_ratio"] = descend_q / descend_amb
    wall = spans[0][2] - spans[0][1]
    for b in SHARES:
        out["share." + b] /= wall
    out["trace.wall_s"] = wall
    out["trace.overhead_s"] = wall - untraced_wall
    out["trace.spans"] = len(spans)
    out["trace.absent_targets"] = len(absent(tracer))
    return out


def absent(tracer):
    """Span names of NAMED that the program no longer defines."""
    wanted = {n for names in NAMED.values() for n in names}
    return sorted(wanted - tracer.wrapped)
