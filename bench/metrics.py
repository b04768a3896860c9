"""Per-layer metrics from traced spans, named ``<module>.<function>.<measure>``.

``self_s`` is the mean self time per call, ``calls`` the number of calls in
the traced run, and a work count (assignments, candidates, nodes, ...) is the
mean per call.  A layer the workload never calls reads 0.
"""

from __future__ import annotations

CLI_COMMANDS = ("validate", "analyze", "select", "compile", "tree", "lookup", "proto")

_EMPTY = {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "counts": {}}


def _get(agg, name):
    return agg.get(name, _EMPTY)


def _calls(name):
    return lambda agg, extra: _get(agg, name)["calls"]


def _self(name):
    def value(agg, extra):
        entry = _get(agg, name)
        return entry["self_s"] / entry["calls"] if entry["calls"] else 0.0
    return value


def _mean(name, key):
    def value(agg, extra):
        entry = _get(agg, name)
        return entry["counts"].get(key, 0) / entry["calls"] if entry["calls"] else 0.0
    return value


def _per_unit(name, key, scale):
    """Self time per unit of work, in 1/scale seconds."""
    def value(agg, extra):
        entry = _get(agg, name)
        work = entry["counts"].get(key, 0)
        return entry["self_s"] * scale / work if work else 0.0
    return value


def _ratio(name, num, den):
    def value(agg, extra):
        counts = _get(agg, name)["counts"]
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    return value


def _refused(prefix):
    return lambda agg, extra: sum(
        entry["counts"].get("raised.CapExceededError", 0)
        for name, entry in agg.items() if name.startswith(prefix))


def _extra(key):
    return lambda agg, extra: extra.get(key, 0.0)


def _op_layer_share(agg, extra):
    """Share of op time covered by the op's child spans (layer calls)."""
    op = _get(agg, "op")
    return (op["wall_s"] - op["self_s"]) / op["wall_s"] if op["wall_s"] else 0.0


def _op_wall(agg, extra):
    op = _get(agg, "op")
    return op["wall_s"] / op["calls"] if op["calls"] else 0.0


def _layer(name, *, assignments=False, subsets=False, items=False):
    rows = [(f"{name}.calls", "count", "higher", _calls(name)),
            (f"{name}.self_s", "s", "lower", _self(name))]
    if assignments:
        rows += [(f"{name}.assignments", "count", "lower", _mean(name, "assignments")),
                 (f"{name}.ns_per_assignment", "ns", "lower", _per_unit(name, "assignments", 1e9))]
    if subsets:
        rows += [(f"{name}.subsets", "count", "lower", _mean(name, "subsets")),
                 (f"{name}.us_per_subset", "us", "lower", _per_unit(name, "subsets", 1e6))]
    if items:
        rows += [(f"{name}.items", "count", "lower", _mean(name, "items"))]
    return rows


# (name, unit, better, value(aggregate, extra))
PER_LAYER = [
    *_layer("exact.ev_compute", assignments=True),
    *_layer("exact.ev_subset", assignments=True),
    *_layer("exact.exhaustive", subsets=True),
    ("exact.refused", "count", "lower", _refused("exact.")),
    *_layer("gaussian.ev_subset", items=True),
    *_layer("table.greedy"),
    ("table.greedy.candidates", "count", "lower", _mean("table.greedy", "candidates")),
    ("table.greedy.steps", "count", "lower", _mean("table.greedy", "steps")),
    ("table.greedy.kept_ratio", "ratio", "higher", _ratio("table.greedy", "kept", "steps")),
    ("table.greedy.us_per_candidate", "us", "lower", _per_unit("table.greedy", "candidates", 1e6)),
    ("table.compile.self_s", "s", "lower", _self("table.compile")),
    ("table.compile.entries", "count", "lower", _mean("table.compile", "entries")),
    ("table.write.self_s", "s", "lower", _self("table.write")),
    ("table.read.self_s", "s", "lower", _self("table.read")),
    ("table.bytes", "B", "lower", _mean("table.write", "bytes")),
    *_layer("table.lookup"),
    ("table.lookup.ns_per_call", "ns", "lower", lambda agg, extra: _self("table.lookup")(agg, extra) * 1e9),
    ("table.refused", "count", "lower", _refused("table.")),
    *_layer("tree.build"),
    ("tree.build.nodes", "count", "lower", _mean("tree.build", "nodes")),
    ("tree.build.candidates", "count", "lower", _mean("tree.build", "candidates")),
    ("tree.build.expanded_ratio", "ratio", "higher", _ratio("tree.build", "internal", "nodes")),
    ("tree.build.us_per_candidate", "us", "lower", _per_unit("tree.build", "candidates", 1e6)),
    ("tree.ev.self_s", "s", "lower", _self("tree.ev")),
    ("tree.export.self_s", "s", "lower", _self("tree.export")),
    ("tree.parse.self_s", "s", "lower", _self("tree.parse")),
    ("tree.bytes", "B", "lower", _mean("tree.export", "bytes")),
    *_layer("tree.lookup"),
    ("tree.lookup.ns_per_call", "ns", "lower", lambda agg, extra: _self("tree.lookup")(agg, extra) * 1e9),
    ("tree.lookup.mean_depth", "count", "lower", _mean("tree.lookup", "depth")),
    ("tree.refused", "count", "lower", _refused("tree.")),
    *_layer("niv"),
    *_layer("profiles.loss_curve"),
    ("profiles.loss_curve.rows", "count", "lower", _mean("profiles.loss_curve", "rows")),
    ("profiles.export.self_s", "s", "lower", _self("profiles.export")),
    ("model.parse.self_s", "s", "lower", _self("model.parse")),
    ("model.validate.self_s", "s", "lower", _self("model.validate")),
    ("model.digest.self_s", "s", "lower", _self("model.digest")),
    ("cli.interpreter_s", "s", "lower", _extra("cli.interpreter_s")),
    ("cli.import_s", "s", "lower", _extra("cli.import_s")),
    *[(f"cli.main.{c}.self_s", "s", "lower", _self(f"cli.main.{c}")) for c in CLI_COMMANDS],
    ("cli.exit_unexpected", "count", "lower", _extra("cli.exit_unexpected")),
    ("op.wall_s", "s", "lower", _op_wall),
    ("op.layer_share", "ratio", "higher", _op_layer_share),
    ("trace.overhead_ratio", "ratio", "lower", _extra("trace.overhead_ratio")),
]


def per_layer(agg: dict, extra: dict) -> dict[str, dict]:
    return {name: {"value": float(fn(agg, extra)), "unit": unit} for name, unit, _, fn in PER_LAYER}
