"""The benchmark's three workloads.

Each workload is a closed loop with one client in one process: an op starts
when the previous one has finished, and there are no threads or process
pools.  Inputs come only from the seed.  The ops form a fixed cycle that the
loop repeats; a run measures whole cycles, so every run does the same mix of
work.  Each model in a cycle is parsed from its JSON text on every op, so no
object is reused between ops.

An op's result is a plain value.  The first result of each slot in the cycle
is checked against :mod:`reference` after the timed loop; every later result
of the slot must equal the first one exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np
import sact
import sact.cli
from sact import (
    PRESETS,
    ComputePolicy,
    TablePolicy,
    TreePolicy,
    UtilityTable,
    build_tree,
    compare_policies,
    compile_table,
    exact_ev_compute,
    exact_ev_subset,
    exhaustive_subset_search,
    export_analysis,
    export_moments,
    export_tree,
    gaussian_ev_subset,
    greedy_select,
    loss_curve,
    model_digest,
    model_from_json,
    niv,
    read_table,
    table_lookup,
    tree_ev,
    tree_from_json,
    tree_lookup,
    validate_model,
    write_table,
)
from sact.tree import Internal

import reference as ref
from paths import ROOT, child_env
from spans import Tracer, call, count

# The profile presets as documented (intercept, slope, w_max, count); the
# reference realizes them on its own.
PRESET_PARAMS = {
    "high": (1.0, 1.0 / 3.5, 3.5, 60),
    "moderate": (1.0, 1.0 / 4.5, 4.5, 60),
    "low": (1.0, 1.0 / 5.0, 5.0, 60),
}
LOSS_HEADER = "profile,n,ev_compile,ev_compute,fractional_loss"
MOMENT_HEADER = "profile,n,mean_h,var_h"

# Seed of each workload's fixed artifact corpus (see Workload.corpus_bytes).
CORPUS_SEED = 0


def make_model(rng: random.Random, m: int, *, alpha, beta, k5: float, k6: float,
               k34: float = 1e-5, gap: tuple[float, float] | None = None) -> dict:
    """A model whose threshold p* lies within 0.02 of the prior p(H), or
    ``gap`` from it on either side.

    With the prior this close to the threshold, single items move the
    decision, so selection and tree growth go deep.
    """
    p_h = rng.uniform(0.3, 0.7)
    if gap is None:
        p_star = p_h + rng.uniform(-0.02, 0.02)
    else:
        p_star = p_h + rng.choice((-1.0, 1.0)) * rng.uniform(*gap)
    scale = rng.uniform(1.0, 10.0)
    u_h_nd = rng.uniform(-5.0, 5.0)
    u_nh_d = rng.uniform(-5.0, 5.0)
    return {
        "p_h": p_h,
        "evidence": [
            {"id": f"e{i:03d}", "alpha": rng.uniform(*alpha), "beta": rng.uniform(*beta)}
            for i in range(m)
        ],
        "utilities": {
            "u_h_d": u_h_nd + scale * (1.0 - p_star),
            "u_h_nd": u_h_nd,
            "u_nh_d": u_nh_d,
            "u_nh_nd": u_nh_d + scale * p_star,
        },
        "costs": {
            "k1": rng.uniform(0.0, 0.01),
            "k2": rng.uniform(0.0, 0.01),
            "k3": rng.uniform(0.0, k34),
            "k4": rng.uniform(0.0, k34),
            "k5": k5,
            "k6": k6,
            "r": rng.uniform(0.5, 2.0),
        },
    }


def with_memory_cost(model: dict, per_value: float) -> dict:
    """Set k5 to ``per_value`` times the model's value scale, r * (gain_act + gain_wait).

    Memory cost then stops selection and tree growth at a depth set by the
    evidence, not by the utility scale the seed drew.
    """
    u = model["utilities"]
    model["costs"]["k5"] = per_value * model["costs"]["r"] * (
        (u["u_h_d"] - u["u_h_nd"]) + (u["u_nh_nd"] - u["u_nh_d"]))
    return model


def sample_observation(rng: random.Random, model: dict) -> dict[str, bool]:
    """An observation of every item, drawn from the model under H or not-H."""
    h = rng.random() < model["p_h"]
    return {e["id"]: rng.random() < (e["alpha"] if h else e["beta"]) for e in model["evidence"]}


def sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode("utf-8")).hexdigest()


def close(a: float, b: float, model: dict) -> bool:
    return abs(a - b) <= ref.tolerance(model)


def greedy_candidates(m: int, trace) -> int:
    """Subsets greedy selection valued: the empty one, then every remaining
    item at each accepted step and at the step that stopped it."""
    steps = len(trace.steps)
    total = 1 + sum(m - k for k in range(steps))
    if trace.stopped_reason == "no-improvement":
        total += m - steps
    return total


def tree_shape(node, m: int, depth: int = 0) -> tuple[int, int]:
    """(internal nodes, candidates) of a tree; a leaf or test at depth d tried m - d ids."""
    if not isinstance(node, Internal):
        return 0, m - depth
    t_int, t_cand = tree_shape(node.if_true, m, depth + 1)
    f_int, f_cand = tree_shape(node.if_false, m, depth + 1)
    return 1 + t_int + f_int, m - depth + t_cand + f_cand


def trace_tree_build(t, tree, m: int) -> None:
    if t is not None:
        internal, candidates = tree_shape(tree.root, m)
        count(t, "nodes", tree.node_count)
        count(t, "internal", internal)
        count(t, "candidates", candidates)


def steps_of(trace) -> tuple:
    return tuple((s.evidence_id, s.niv_before, s.niv_after) for s in trace.steps)


def check_greedy(model: dict, subset, steps, kept: int, table_ev: float, table_niv: float,
                 ref_ev: float, method: str) -> list[str]:
    """Soundness of a greedy result against reference values for its subset."""
    problems = []
    if not close(table_ev, ref_ev, model):
        problems.append(f"{method} table EV {table_ev!r} != reference {ref_ev!r}")
    want_niv = ref.table_niv(model, len(subset), ref_ev)
    if not close(table_niv, want_niv, model):
        problems.append(f"table NIV {table_niv!r} != reference {want_niv!r}")
    if tuple(s[0] for s in steps[:kept]) != tuple(subset):
        problems.append("greedy subset is not its kept steps")
    if kept and not close(steps[kept - 1][2], want_niv, model):
        problems.append("greedy trace NIV of the kept prefix differs from the reference")
    if any(a[2] != b[1] for a, b in zip(steps, steps[1:])):
        problems.append("greedy trace steps do not chain")
    return problems


class Workload:
    name = ""
    # The latency percentile reported as latency_tail_ms.
    tail_percentile: float
    # peak_rss_mb is read for the workload's process, or for its largest child.
    rss_of_children = False

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.inputs = self.generate(random.Random(f"{self.name}:{seed}"))
        self.input_digest = sha(json.dumps(self.inputs, sort_keys=True))

    # Subclasses: generate(rng) -> inputs; setup(); slots; run_op(slot, tracer);
    # check(first_results) -> {slot: [problems]}; corpus_bytes().

    def setup(self) -> None:
        pass

    def timed_loop(self, seconds: float, tracer: Tracer | None, min_cycles: int | None = None):
        """Run whole cycles until ``seconds`` have passed and at least
        ``min_cycles`` have run (by default, as many as the latency summary
        needs).  Returns the latencies, per-op status (0 ok,
        1 raised, 2 differs from the slot's first result) and the first
        result of each slot."""
        latencies = Latencies(len(self.slots), self.tail_percentile)
        status = bytearray()
        first: dict[int, object] = {}
        slots = len(self.slots)
        run_op = self.run_op
        start = perf_counter()
        op = 0
        while True:
            for slot in range(slots):
                t0 = perf_counter()
                span = None
                if tracer is not None:
                    tracer.op = op
                    span = tracer.span("op").start()
                try:
                    result = run_op(slot, tracer)
                    code = 0
                except Exception:  # an op that raises is counted failed, the loop goes on
                    result = ("raised", traceback.format_exc())
                    code = 1
                if span is not None:
                    span.stop()
                t1 = perf_counter()
                latencies.add(t1 - t0)
                if slot not in first:
                    first[slot] = result
                    if code:
                        print(f"{self.name} slot {slot} raised:\n{result[1]}", file=sys.stderr)
                elif result != first[slot]:
                    code = code or 2
                status.append(code)
                op += 1
            cycles = op // slots
            if cycles >= (min_cycles or latencies.min_cycles) and perf_counter() - start >= seconds:
                break
            if tracer is not None and tracer.full:
                break
        return latencies, status, first

    def slot_problems(self, first: dict) -> dict[int, list[str]]:
        problems = {}
        for slot, result in first.items():
            if isinstance(result, tuple) and result and result[0] == "raised":
                problems[slot] = ["raised: " + result[1].strip().splitlines()[-1]]
        checked = self.check({s: r for s, r in first.items() if s not in problems})
        for slot, found in checked.items():
            if found:
                problems[slot] = found
        return problems

    def known_defect(self, slot: int) -> str | None:
        return None

    def after_loop(self) -> None:
        """Work done after the timed loop, before peak memory is read."""

    def trace_extra(self, tracer: Tracer) -> dict:
        """Per-layer values a traced run measures after its timed loop."""
        return {}

    def tally(self, status, first) -> tuple[dict[int, int], dict[int, list[str]]]:
        """Failed ops per slot, and the problems found in each slot.

        An op fails if it raised, if its result differs from its slot's first
        result, or if that first result disagrees with the reference.
        """
        problems = self.slot_problems(first)
        slots = len(self.slots)
        failed: dict[int, int] = {}
        for op, code in enumerate(status):
            slot = op % slots
            if code or slot in problems:
                failed[slot] = failed.get(slot, 0) + 1
        return failed, problems


# ---------------------------------------------------------------------------
# design_exact
# ---------------------------------------------------------------------------


class DesignExact(Workload):
    name = "design_exact"
    # Sizes repeat so that the median falls in the middle of the six m=17
    # ops (seven of the cycle's slots are faster, seven slower) and the tail
    # inside the m=20 ops, not on a boundary between sizes.
    M_CYCLE = (14, 16, 16, 17, 17, 17, 20, 20)
    EXHAUSTIVE_M = (10, 11)
    # One Gaussian analyze op and one three-preset loss-curve export ride
    # along in each cycle, about a tenth of its time, so the gaussian and
    # profiles layers are measured too.
    GAUSSIAN_M = 150
    LOOKAHEAD = 1
    # At p85 each slot keeps its four fastest times.
    tail_percentile = 85.0

    def generate(self, rng):
        design = [
            make_model(rng, m, alpha=(0.55, 0.8), beta=(0.2, 0.45),
                       k5=10 ** rng.uniform(-11, -10), k6=10 ** rng.uniform(7, 8))
            for _ in range(2) for m in self.M_CYCLE
        ]
        exhaustive = [
            make_model(rng, m, alpha=(0.05, 0.95), beta=(0.05, 0.95),
                       k5=10 ** rng.uniform(-4, -3), k6=1.0)
            for m in self.EXHAUSTIVE_M
        ]
        # The memory cost is relative to the model's value scale, so the
        # Gaussian greedy stops at the same depth (14) whatever the seed.
        gaussian = with_memory_cost(make_model(rng, self.GAUSSIAN_M, alpha=(0.3, 0.7), beta=(0.3, 0.7),
                                               k5=0.0, k6=1.0, k34=1e-3), 3e-7)
        proto = {"p_h": rng.uniform(0.3, 0.7), "scale": rng.uniform(1.0, 5.0)}
        return {"design": design, "exhaustive": exhaustive, "gaussian": gaussian, "proto": proto}

    def setup(self):
        half = len(self.M_CYCLE)
        design, exhaustive = self.inputs["design"], self.inputs["exhaustive"]
        riders = [("gaussian", self.inputs["gaussian"]), ("proto", self.inputs["proto"])]
        self.slots = []
        for i, extra in enumerate(exhaustive):
            self.slots += [("design", m) for m in design[i * half : (i + 1) * half]]
            self.slots += [("exhaustive", extra), riders[i]]
        self.texts = [json.dumps(spec) for _, spec in self.slots]
        self.artifacts: dict[int, tuple[bytes, str]] = {}

    def run_op(self, slot, t):
        kind, spec = self.slots[slot]
        if kind == "proto":
            return proto_op(spec, t)
        model = call(t, "model.parse", model_from_json, self.texts[slot])
        if call(t, "model.validate", validate_model, model):
            raise ValueError("generated model fails validation")
        if kind == "exhaustive":
            subset, report = call(t, "exact.exhaustive", exhaustive_subset_search, model)
            count(t, "subsets", 1 << len(model.evidence))
            return (subset, report.ev, report.niv)
        if kind == "gaussian":
            return gaussian_op(model, t)
        return design_op(self, slot, model, t, self.LOOKAHEAD)

    def check(self, first):
        out = {}
        for slot, result in first.items():
            kind, model = self.slots[slot]
            if kind == "exhaustive":
                subset, ev, value = result
                ref_ev = ref.subset_eval(model, subset)[0]
                problems = []
                if not close(ev, ref_ev, model):
                    problems.append(f"exhaustive EV {ev!r} != reference {ref_ev!r}")
                if not close(value, ref.table_niv(model, len(subset), ref_ev), model):
                    problems.append("exhaustive NIV differs from the reference")
                if ref.best_subset_niv(model) > value + ref.tolerance(model):
                    problems.append("a subset with a higher reference NIV exists")
                out[slot] = problems
            elif kind == "gaussian":
                out[slot] = check_gaussian(model, result)
            elif kind == "proto":
                out[slot] = check_proto(model, result)
            else:
                out[slot] = check_design(model, result, *self.artifacts[slot])
        return out

    def corpus_bytes(self):
        corpus = type(self)(CORPUS_SEED, self.workdir)
        total = 0
        for model in corpus.inputs["design"][: len(self.M_CYCLE)]:
            parsed = model_from_json(json.dumps(model))
            subset, _ = greedy_select(parsed, lookahead=self.LOOKAHEAD)
            tree, _ = build_tree(parsed, lookahead=self.LOOKAHEAD)
            total += len(write_table(compile_table(parsed, subset)))
            total += len(export_tree(tree).encode("utf-8"))
        return total


def design_op(workload, slot, model, t, lookahead):
    """What ``sact analyze`` computes, as library calls, then an artifact round trip."""
    ids = [item.id for item in model.evidence]
    compute = call(t, "exact.ev_compute", exact_ev_compute, model)
    count(t, "assignments", compute.enumerated_count)
    compute_report = call(t, "niv", niv, model, ComputePolicy(len(ids)), compute.ev, method="exact")
    subset, trace = call(t, "table.greedy", greedy_select, model, lookahead=lookahead)
    count(t, "candidates", greedy_candidates(len(ids), trace))
    count(t, "steps", len(trace.steps))
    count(t, "kept", trace.kept)
    table_eval = call(t, "exact.ev_subset", exact_ev_subset, model, subset)
    count(t, "assignments", table_eval.enumerated_count)
    table_report = call(t, "niv", niv, model, TablePolicy(subset), table_eval.ev, method="exact")
    tree, _ = call(t, "tree.build", build_tree, model, lookahead=lookahead)
    trace_tree_build(t, tree, len(ids))
    tree_value = call(t, "tree.ev", tree_ev, model, tree)
    tree_report = call(t, "niv", niv, model, TreePolicy(tree.node_count), tree_value, method="exact")
    best = tree_report if tree_report.niv > table_report.niv else table_report
    choice = call(t, "niv", compare_policies, model, best, compute_report)
    table = call(t, "table.compile", compile_table, model, subset)
    count(t, "entries", table.entries)
    blob = call(t, "table.write", write_table, table)
    count(t, "bytes", len(blob))
    table_back = call(t, "table.read", read_table, blob)
    text = call(t, "tree.export", export_tree, tree)
    count(t, "bytes", len(text))
    tree_back = call(t, "tree.parse", tree_from_json, text)
    workload.artifacts.setdefault(slot, (blob, text))
    return (
        compute.ev, compute_report.niv, subset, steps_of(trace), trace.kept, table_eval.ev,
        table_report.niv, tree_value, tree_report.niv, tree.node_count, choice.decision,
        choice.margin, sha(blob), sha(text), table_back == table and tree_back == tree,
    )


def check_design(model: dict, result, blob: bytes, text: str) -> list[str]:
    (compute_ev, compute_niv, subset, steps, kept, table_ev, table_niv, tree_value, tree_niv,
     nodes, decision, margin, _, _, round_trip) = result
    ids = [e["id"] for e in model["evidence"]]
    ref_compute, acts = ref.subset_eval(model, ids)
    if list(subset) != ids:
        ref_table, acts = ref.subset_eval(model, subset)
    else:
        ref_table = ref_compute
    problems = []
    if not close(compute_ev, ref_compute, model):
        problems.append(f"compute EV {compute_ev!r} != reference {ref_compute!r}")
    if not close(compute_niv, ref.compute_niv(model, ref_compute), model):
        problems.append("compute NIV differs from the reference")
    problems += check_greedy(model, subset, steps, kept, table_ev, table_niv, ref_table, "exact")
    problems += ref.check_table(model, blob, subset, acts)
    ref_tree, ref_nodes, tree_problems = ref.walk_tree(model, json.loads(text))
    problems += tree_problems
    if nodes != ref_nodes or not close(tree_value, ref_tree, model):
        problems.append(f"tree EV {tree_value!r} != reference walk {ref_tree!r}")
    if not close(tree_niv, ref.tree_niv(model, ref_nodes, ref_tree), model):
        problems.append("tree NIV differs from the reference")
    ref_margin = ref.compute_niv(model, ref_compute) - max(
        ref.table_niv(model, len(subset), ref_table), ref.tree_niv(model, ref_nodes, ref_tree))
    if not close(margin, ref_margin, model):
        problems.append(f"decision margin {margin!r} != reference {ref_margin!r}")
    elif abs(ref_margin) > ref.tolerance(model) and decision != ("compute" if ref_margin >= 0 else "compile"):
        problems.append(f"decision {decision} contradicts the reference margin")
    if not round_trip:
        problems.append("table or tree did not survive its serialization round trip")
    return problems


def gaussian_op(model, t):
    """What ``sact analyze --method gaussian`` computes, as library calls."""
    ids = [item.id for item in model.evidence]
    compute = call(t, "gaussian.ev_subset", gaussian_ev_subset, model, ids)
    count(t, "items", len(ids))
    compute_report = call(t, "niv", niv, model, ComputePolicy(len(ids)), compute.ev, method="gaussian")
    subset, trace = call(t, "table.greedy", greedy_select, model, method="gaussian")
    count(t, "candidates", greedy_candidates(len(ids), trace))
    count(t, "steps", len(trace.steps))
    count(t, "kept", trace.kept)
    table = call(t, "gaussian.ev_subset", gaussian_ev_subset, model, subset)
    count(t, "items", len(subset))
    table_report = call(t, "niv", niv, model, TablePolicy(subset), table.ev, method="gaussian")
    choice = call(t, "niv", compare_policies, model, table_report, compute_report)
    return (compute.ev, compute_report.niv, subset, steps_of(trace), trace.kept, table.ev,
            table_report.niv, choice.decision, choice.margin)


def check_gaussian(model: dict, result) -> list[str]:
    compute_ev, compute_niv, subset, steps, kept, table_ev, table_niv, decision, margin = result
    ref_compute = ref.gaussian_ev(model, [e["id"] for e in model["evidence"]])
    problems = []
    if not close(compute_ev, ref_compute, model):
        problems.append(f"Gaussian compute EV {compute_ev!r} != reference {ref_compute!r}")
    ref_compute_niv = ref.compute_niv(model, ref_compute)
    if not close(compute_niv, ref_compute_niv, model):
        problems.append("compute NIV differs from the reference")
    ref_table = ref.gaussian_ev(model, subset)
    problems += check_greedy(model, subset, steps, kept, table_ev, table_niv, ref_table, "gaussian")
    ref_margin = ref_compute_niv - ref.table_niv(model, len(subset), ref_table)
    if not close(margin, ref_margin, model):
        problems.append("decision margin differs from the reference")
    elif abs(ref_margin) > ref.tolerance(model) and decision != ("compute" if ref_margin >= 0 else "compile"):
        problems.append(f"decision {decision} contradicts the reference margin")
    return problems


def proto_utilities(spec: dict) -> dict:
    s = spec["scale"]
    return {"u_h_d": s, "u_h_nd": 0.0, "u_nh_d": 0.0, "u_nh_nd": s}


def proto_op(spec: dict, t):
    u = proto_utilities(spec)
    utilities = UtilityTable(u["u_h_d"], u["u_h_nd"], u["u_nh_d"], u["u_nh_nd"])
    curves = []
    for name in PRESET_PARAMS:
        curves.append(call(t, "profiles.loss_curve", loss_curve, PRESETS[name], spec["p_h"], utilities))
        count(t, "rows", len(curves[-1].rows))
    presets = [PRESETS[name] for name in PRESET_PARAMS]
    if t is None:
        analysis, moments = export_analysis(curves), export_moments(presets)
    else:
        with t.span("profiles.export"):
            analysis, moments = export_analysis(curves), export_moments(presets)
    rows = tuple((c.profile, r.n, r.ev_compile, r.ev_compute, r.fractional_loss)
                 for c in curves for r in c.rows)
    return (rows, analysis, moments)


def check_proto(spec: dict, result) -> list[str]:
    rows, analysis, moments = result
    want = reference_loss_rows(spec)
    model = {"utilities": proto_utilities(spec), "costs": {"r": 1.0}}
    problems = []
    if len(rows) != len(want):
        problems.append(f"{len(rows)} loss rows, reference has {len(want)}")
    for got, row in zip(rows, want):
        if got[:2] != row[:2] or not all(close(x, y, model) for x, y in zip(got[2:], row[2:])):
            problems.append(f"loss row {got} != reference {row}")
            break
    return problems + check_proto_csv(spec, analysis, moments)


def reference_loss_rows(spec: dict) -> list[tuple]:
    rows = []
    for name, params in PRESET_PARAMS.items():
        profile = dict(zip(("intercept", "slope", "w_max", "count"), params))
        rows += [(name, *row) for row in ref.loss_rows(profile, spec["p_h"], proto_utilities(spec))]
    return rows


def check_proto_csv(spec: dict, analysis: str, moments: str) -> list[str]:
    want_moments = []
    for name, params in PRESET_PARAMS.items():
        profile = dict(zip(("intercept", "slope", "w_max", "count"), params))
        want_moments += [(name, *row) for row in ref.moment_rows(profile)]
    return (ref.check_csv(analysis, LOSS_HEADER, reference_loss_rows(spec))
            + ref.check_csv(moments, MOMENT_HEADER, want_moments))


# ---------------------------------------------------------------------------
# artifact_lookup
# ---------------------------------------------------------------------------


class ArtifactLookup(Workload):
    name = "artifact_lookup"
    TABLE_N = tuple(range(4, 21))
    TREE_M = tuple(range(12, 21))
    STREAM = 4096
    LOOKAHEAD = 1
    # p99 is the highest percentile with ten samples beyond it in one cycle
    # (4096 ops), so one kept time per slot is enough.
    tail_percentile = 99.0

    def generate(self, rng):
        tables = []
        for n in self.TABLE_N:
            model = make_model(rng, n, alpha=(0.55, 0.8), beta=(0.2, 0.45), k5=1e-9, k6=1.0)
            order = [e["id"] for e in model["evidence"]]
            rng.shuffle(order)
            tables.append({"model": model, "subset": order})
        trees = [make_model(rng, m, alpha=(0.5, 0.95), beta=(0.05, 0.5), k5=1e-7, k6=1.0)
                 for m in self.TREE_M]
        # Every artifact gets an equal share of the stream, so a third of the
        # ops are (the fastest) tree lookups.  The median then falls among
        # table lookups, where neighbouring sizes overlap in time, not on the
        # boundary between tree and table lookups.
        artifacts = [(0, k) for k in range(len(tables))] + [(1, k) for k in range(len(trees))]
        stream = []
        for i in range(self.STREAM):
            kind, k = artifacts[i % len(artifacts)]
            observation = sample_observation(rng, tables[k]["model"] if kind == 0 else trees[k])
            stream.append([kind, k, observation])
        return {"tables": tables, "trees": trees, "stream": stream}

    def setup(self):
        """Compile, serialize and load back every artifact; lookups use the loaded ones."""
        self.tables = []
        for spec in self.inputs["tables"]:
            model = model_from_json(json.dumps(spec["model"]))
            self.tables.append(read_table(write_table(compile_table(model, spec["subset"]))))
        self.trees = []
        for spec in self.inputs["trees"]:
            tree, _ = build_tree(model_from_json(json.dumps(spec)), lookahead=self.LOOKAHEAD)
            self.trees.append(tree_from_json(export_tree(tree)))
        self.slots = [(kind, (self.tables if kind == 0 else self.trees)[k], obs)
                      for kind, k, obs in self.inputs["stream"]]

    def run_op(self, slot, t):
        kind, artifact, observation = self.slots[slot]
        if kind == 0:
            return call(t, "table.lookup", table_lookup, artifact, observation)
        result = call(t, "tree.lookup", tree_lookup, artifact, observation)
        count(t, "depth", len(result[1]))
        return result

    def check(self, first):
        """Every loaded artifact against the reference (each table bit, each
        tree leaf), then every lookup against the threshold rule."""
        documents = [json.loads(export_tree(tree)) for tree in self.trees]
        broken = {(0, k): ref.check_table(spec["model"], write_table(table), spec["subset"])
                  for k, (spec, table) in enumerate(zip(self.inputs["tables"], self.tables))}
        broken.update({(1, k): ref.walk_tree(spec, documents[k])[2]
                       for k, spec in enumerate(self.inputs["trees"])})
        out = {}
        for j, result in first.items():
            kind, k, observation = self.inputs["stream"][j]
            if kind == 0:
                spec = self.inputs["tables"][k]
                want = ref.table_action(spec["model"], spec["subset"], observation)
                got = result.value
            else:
                want = ref.tree_action(self.inputs["trees"][k], documents[k], observation)
                got = (result[0].value, result[1])
            out[j] = list(broken[kind, k]) + ([] if got == want else [f"lookup gave {got}, reference {want}"])
        return out

    def corpus_bytes(self):
        corpus = type(self)(CORPUS_SEED, self.workdir)
        corpus.setup()
        return sum(len(write_table(t)) for t in corpus.tables) + sum(
            len(export_tree(t).encode("utf-8")) for t in corpus.trees)


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------


def deep_tree_json(digest_hex: str, evidence_id: str, depth: int) -> str:
    node = '{"action": "D"}'
    for _ in range(depth):
        node = f'{{"test": "{evidence_id}", "if_true": {node}, "if_false": {{"action": "notD"}}}}'
    return (f'{{"format": "sact-tree", "version": 1, "model_digest": "{digest_hex}", '
            f'"node_count": {2 * depth + 1}, "root": {node}}}')


class CliSession(Workload):
    """Every ``sact`` command on small models (m <= 12), with bad inputs and
    their exit codes 1-4 and the two documented crash inputs.

    An op runs one command through ``sact.cli.main(argv)`` in this process,
    stdout and stderr captured: argument handling, reading and parsing the
    inputs, the command's work and writing its output.  Ops are not timed as
    ``python -m sact`` processes: about 170 of a process's 200 ms is
    interpreter start and ``import numpy``, and on a shared host ten runs of
    such ops spread by up to 0.30, beyond the largest bound allowed.  Process
    start stays measured: ``setup_s`` of every workload starts a Python
    process and imports sact, and a traced run reports ``cli.interpreter_s``
    and ``cli.import_s``.  After the timed loop every command also runs once
    as a ``python -m sact`` process, and the checks hold the process to its
    expected exit code, no traceback and the same stdout and files as the
    ops."""

    name = "cli_session"
    # At p75 each slot keeps its three fastest times, and the tail falls on
    # the fastest of the select and analyze ops, below only the exhaustive
    # select and proto ops.  At p90 it would fall on proto's fourth fastest
    # time, which spreads between runs about twice as much as a fastest time.
    tail_percentile = 75.0
    rss_of_children = True
    DEEP = 3000
    MODEL_PASSES = 3

    def generate(self, rng):
        a = make_model(rng, 12, alpha=(0.6, 0.7), beta=(0.3, 0.4),
                       k5=10 ** rng.uniform(-11, -10), k6=10 ** rng.uniform(5, 6), gap=(0.08, 0.12))
        b = make_model(rng, 9, alpha=(0.05, 0.95), beta=(0.05, 0.95),
                       k5=10 ** rng.uniform(-4, -3), k6=1.0)
        # The threshold p* lies 0.08-0.12 from the prior: within 0.02,
        # greedy stops after one item on about half of the seeds and takes
        # all 12 on the rest, so the work of a run would depend on the seed.
        # compile gets an explicit subset, so the table lookup's observation
        # (which must cover exactly the table's subset) is known in advance.
        table_subset = rng.sample([e["id"] for e in a["evidence"]], 8)
        return {"a": a, "b": b, "observation": sample_observation(rng, a), "table_subset": table_subset,
                "proto": {"p_h": rng.uniform(0.3, 0.7), "scale": rng.uniform(1.0, 5.0)}}

    def setup(self):
        w, a = self.workdir, self.inputs["a"]
        bad = json.loads(json.dumps(a))
        bad["evidence"][0]["alpha"] = 1.0
        huge = json.loads(json.dumps(a))
        huge["utilities"] = {"u_h_d": 1e308, "u_h_nd": 0.0, "u_nh_d": 0.0, "u_nh_nd": 1e308}
        files = {
            "a.json": json.dumps(a), "b.json": json.dumps(self.inputs["b"]),
            "bad.json": json.dumps(bad), "huge.json": json.dumps(huge),
            "notjson.json": "{not json",
            "obs.json": json.dumps(self.inputs["observation"]),
            "obs_table.json": json.dumps({k: self.inputs["observation"][k] for k in self.inputs["table_subset"]}),
            "deep.json": deep_tree_json(ref.digest(a).hex(), a["evidence"][0]["id"], self.DEEP),
        }
        for name, text in files.items():
            (w / name).write_text(text, encoding="utf-8")
        self.model_files = [w / name for name in files if name not in ("obs.json", "obs_table.json", "deep.json")]
        p = self.inputs["proto"]
        u = proto_utilities(p)
        f = lambda name: str(w / name)  # noqa: E731
        # (command, argv, expected exit code, file it writes, known defect)
        self.slots = [
            ("validate", ["validate", f("a.json")], 0, None, None),
            ("analyze", ["analyze", f("a.json")], 0, None, None),
            ("select", ["select", f("a.json")], 0, None, None),
            ("select", ["select", f("b.json"), "--exhaustive"], 0, None, None),
            ("compile", ["compile", f("a.json"), "--subset", ",".join(self.inputs["table_subset"]),
                         "--out", f("a.sact")], 0, "a.sact", None),
            ("tree", ["tree", f("a.json"), "--out", f("a.tree.json")], 0, "a.tree.json", None),
            ("lookup", ["lookup", f("a.json"), "--table", f("a.sact"), "--obs", f("obs_table.json")], 0, None, None),
            ("lookup", ["lookup", f("a.json"), "--tree", f("a.tree.json"), "--obs", f("obs.json")], 0, None, None),
            ("proto", ["proto", "--p-h", repr(p["p_h"]),
                       "--utilities", ",".join(repr(u[k]) for k in ("u_h_d", "u_h_nd", "u_nh_d", "u_nh_nd")),
                       "--moments-out", f("moments.csv")], 0, "moments.csv", None),
            ("validate", ["validate", f("bad.json")], 1, None, None),
            ("analyze", ["analyze", f("notjson.json")], 2, None, None),
            ("analyze", ["analyze", f("a.json"), "--cap-enum", "4"], 3, None, None),
            ("lookup", ["lookup", f("b.json"), "--table", f("a.sact"), "--obs", f("obs.json")], 4, None, None),
            ("analyze", ["analyze", f("huge.json")], 1, None,
             "validate accepts utilities of 1e308; analyze then fails in threshold() with a traceback"),
            ("lookup", ["lookup", f("a.json"), "--tree", f("deep.json"), "--obs", f("obs.json")], 2, None,
             "a tree JSON nested 3000 deep raises an uncaught RecursionError (exit 1, not 2)"),
        ]
        self.env = child_env()
        self.processes: dict[int, tuple] = {}

    def known_defect(self, slot):
        return self.slots[slot][4]

    def run_op(self, slot, t):
        command, argv, _, writes, _ = self.slots[slot]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = call(t, "cli.main." + command, sact.cli.main, argv)
        written = (self.workdir / writes).read_bytes() if writes else None
        return (code, out.getvalue().encode("utf-8"), written)

    def after_loop(self):
        """Run every command once as a ``python -m sact`` process, in cycle order."""
        for slot, (_, argv, _, writes, _) in enumerate(self.slots):
            done = subprocess.run([sys.executable, "-m", "sact", *argv], cwd=self.workdir,
                                  env=self.env, capture_output=True, timeout=120)
            written = (self.workdir / writes).read_bytes() if writes else None
            self.processes[slot] = (done.returncode, b"Traceback" in done.stderr, done.stdout, written)

    def trace_extra(self, tracer):
        """Median wall time of a bare interpreter and of ``import sact`` beyond
        it, the model layer's steps on every model file (in spans outside any
        op), and the processes' count of unexpected exit codes."""
        tracer.op = -1
        for _ in range(self.MODEL_PASSES):
            for path in self.model_files:
                text = path.read_text(encoding="utf-8")
                with contextlib.suppress(sact.SactError):
                    model = call(tracer, "model.parse", model_from_json, text)
                    call(tracer, "model.validate", validate_model, model)
                    call(tracer, "model.digest", model_digest, model)

        def median_run(code):
            times = []
            for _ in range(5):
                t0 = perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.workdir,
                               check=True, timeout=60)
                times.append(perf_counter() - t0)
            return sorted(times)[2]

        bare = median_run("pass")
        unexpected = sum(self.processes[s][0] != expected for s, (_, _, expected, _, _) in enumerate(self.slots))
        return {"cli.interpreter_s": bare, "cli.import_s": median_run("import sact") - bare,
                "cli.exit_unexpected": unexpected}

    def check(self, first):
        """Each command's process against its expected exit code, and the ops'
        first results against the process; then the good inputs' outputs
        against the reference."""
        done = self.processes
        out = {slot: [] for slot in first}
        for slot, (code, stdout, written) in first.items():
            rc, tb, process_stdout, process_written = done[slot]
            expected = self.slots[slot][2]
            if rc != expected:
                out[slot].append(f"exit code {rc}, expected {expected}")
            if tb:
                out[slot].append("printed a traceback")
            if (code, stdout, written) != (rc, process_stdout, process_written):
                out[slot].append("sact.cli.main and the process gave different exit codes, stdout or files")
        if any(s not in out or out[s] for s in range(9)):
            return out  # the good-input checks below need every command's output
        out_of = lambda slot: json.loads(done[slot][2])  # noqa: E731
        a, b, obs = self.inputs["a"], self.inputs["b"], self.inputs["observation"]
        ids = [e["id"] for e in a["evidence"]]
        if str(ROOT) not in sys.path:
            sys.path.insert(0, str(ROOT))
        from tests.helpers import brute_force_evaluation

        def brute(model, subset):
            return brute_force_evaluation(sact.model_from_dict(model), list(subset))[0]

        if out_of(0) != []:
            out[0].append("validate reported violations for a valid model")
        analysis, selection = out_of(1), out_of(2)
        subset = selection["subset"]
        tree_doc = json.loads(done[5][3])
        ref_tree, ref_nodes, tree_problems = ref.walk_tree(a, tree_doc)
        out[5] += tree_problems
        ref_compute, ref_table = brute(a, ids), brute(a, subset)
        if not close(analysis["compute"]["ev"], ref_compute, a):
            out[1].append("analyze compute EV differs from the brute-force oracle")
        if analysis["compile_table"]["policy"]["subset"] != subset:
            out[1].append("analyze and select chose different subsets")
        if not close(analysis["compile_table"]["ev"], ref_table, a):
            out[1].append("analyze table EV differs from the brute-force oracle")
        if not close(analysis["compile_tree"]["ev"], ref_tree, a) or \
                analysis["compile_tree"]["policy"]["node_count"] != ref_nodes:
            out[1].append("analyze tree EV differs from the reference walk of the tree")
        steps = tuple((s["id"], s["niv_before"], s["niv_after"]) for s in selection["steps"])
        out[2] += check_greedy(a, subset, steps, selection["kept"], ref_table,
                               analysis["compile_table"]["niv"], ref_table, "exact")
        exhaustive = out_of(3)
        best = max(ref.table_niv(b, len(s), brute(b, s)) for s in (
            [e["id"] for i, e in enumerate(b["evidence"]) if (mask >> i) & 1]
            for mask in range(1 << len(b["evidence"]))))
        got = exhaustive["report"]["niv"]
        want = ref.table_niv(b, len(exhaustive["subset"]), brute(b, exhaustive["subset"]))
        if not close(got, want, b) or best > got + ref.tolerance(b):
            out[3].append("exhaustive selection is not an optimum of the brute-force oracle")
        table_subset = self.inputs["table_subset"]
        out[4] += ref.check_table(a, done[4][3], table_subset)
        table_want = {"action": ref.table_action(a, table_subset, obs), "consulted": table_subset}
        if out_of(6) != table_want:
            out[6].append(f"table lookup {out_of(6)} != reference {table_want}")
        action, consulted = ref.tree_action(a, tree_doc, obs)
        if out_of(7) != {"action": action, "consulted": consulted}:
            out[7].append(f"tree lookup {out_of(7)} != reference {action} via {consulted}")
        out[8] += check_proto_csv(self.inputs["proto"], done[8][2].decode("utf-8"),
                                  done[8][3].decode("utf-8"))
        return out

    def corpus_bytes(self):
        corpus = type(self)(CORPUS_SEED, self.workdir)
        model = model_from_json(json.dumps(corpus.inputs["a"]))
        table = compile_table(model, corpus.inputs["table_subset"])
        tree, _ = build_tree(model)
        return len(write_table(table)) + len(export_tree(tree).encode("utf-8"))



WORKLOADS = {w.name: w for w in (DesignExact, ArtifactLookup, CliSession)}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


class Latencies:
    """Per-op latencies, kept per slot of the cycle at their fastest.

    The shared 2-vCPU host this was sized on runs the same code up to 1.7
    times slower for stretches of seconds to minutes (a pure-Python loop read
    12-13 ms in one stretch and 20-21 ms in another), and how much of a run
    falls in a slow stretch is chance.  An op's fastest times over the run
    depend on that far less than its mean or median does, and a change that
    slows the program slows them as much.  So each slot keeps its ``keep``
    fastest op times over the run's cycles, ``keep`` being the fewest that put
    ten kept samples beyond the tail percentile; the first cycle is a warm-up
    and is not counted.  The run reports:

    * throughput: the slots over the sum of each slot's fastest time, the
      rate of a cycle in which every op ran at its best;
    * p50: the median over slots of each slot's fastest time;
    * tail: the tail percentile of every kept time.
    """

    def __init__(self, slots: int, percentile: float):
        self.slots = slots
        self.percentile = percentile
        self.keep = math.ceil(10.0 / (slots * (1.0 - percentile / 100.0)))
        self.kept = np.full((self.keep, slots), np.inf)
        self.cycle = array("d")
        self.cycles = 0
        self.busy = 0.0
        self.warm_up = True

    @property
    def min_cycles(self) -> int:
        """Cycles a run needs: the warm-up, then ``keep`` measured ones."""
        return self.keep + 1

    def add(self, seconds: float) -> None:
        self.cycle.append(seconds)
        if len(self.cycle) == self.slots:
            if self.warm_up:
                self.warm_up = False
            else:
                values = np.frombuffer(self.cycle, dtype=np.float64)
                self.kept = np.sort(np.vstack((self.kept, values)), axis=0)[: self.keep]
                self.busy += float(values.sum())
                self.cycles += 1
            self.cycle = array("d")

    def summary(self) -> dict:
        fastest = self.kept[0]
        return {
            "samples": self.cycles * self.slots,
            "kept_per_slot": self.keep,
            "throughput_ops_s": self.slots / float(fastest.sum()),
            "p50_ms": float(np.median(fastest)) * 1e3,
            "mean_ms": self.busy / (self.cycles * self.slots) * 1e3,
            "tail_ms": float(np.percentile(self.kept, self.percentile)) * 1e3,
            "tail_percentile": self.percentile,
        }
