"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2 checks that the Gaussian approximation's expected value converges
to the exact one for twenty (0.7, 0.3) items.  It compares windows of one odd
and one even size, the mean gap over n in {19, 20} against the mean over n in
{5, 6}, not one size against another.  With these symmetric items an even n
puts a weight-sum atom exactly on the decision threshold, where the two
actions have the same utility, so the exact EV equals that at n - 1 while
the continuous approximation moves on.  An odd n puts the threshold
midway between atoms, an implicit continuity correction.  So the gap falls
along each parity (even n: 0.031, 0.025, ... 0.0071 at n = 20) but not at
every n: at n = 5 the Gaussian crosses the exact value and the gap dips to
0.0015.  A pointwise comparison across parities, such as gap(20) < gap(5),
fails on a converging approximation; the windowed means (0.0055 vs 0.0110)
do not, and still fail on one that does not converge.
"""

import itertools
import json
import math
import random
import time

from sact import (
    Action,
    ComputePolicy,
    SituationActionTree,
    TablePolicy,
    compare_policies,
    compile_table,
    exact_ev_compute,
    exact_ev_subset,
    exhaustive_subset_search,
    export_tree,
    gaussian_ev_subset,
    greedy_select,
    loss_curve,
    model_digest,
    niv,
    optimal_action,
    read_table,
    table_lookup,
    threshold,
    tree_ev,
    tree_from_json,
    tree_lookup,
    write_table,
    PRESETS,
)

from helpers import (
    SYMMETRIC_UTILITIES,
    complete_tree,
    example_action_tree,
    item_formulas,
    make_model,
    random_model,
    run_sact,
)


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {number} {name}: {status}{suffix}")


def test_criterion_1_full_subset_identity():
    started = time.perf_counter()
    rng = random.Random(1001)
    worst = 0.0
    for _ in range(100):
        model = random_model(rng, rng.randint(0, 12))
        full = exact_ev_subset(model, [item.id for item in model.evidence])
        committed = exact_ev_compute(model)
        worst = max(worst, abs(full.ev - committed.ev))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    report(1, "full-subset identity", ok, f"max gap {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_2_gaussian_convergence():
    started = time.perf_counter()
    model = make_model([(0.7, 0.3)] * 20)
    ids = [item.id for item in model.evidence]

    def gap(n):
        return abs(gaussian_ev_subset(model, ids[:n]).ev - exact_ev_subset(model, ids[:n]).ev)

    def window_gap(sizes):
        # One odd and one even size, so the threshold atom of the even size
        # counts in both windows alike (see module docstring).
        return sum(gap(n) for n in sizes) / len(sizes)

    gap_20 = gap(20)
    late = window_gap((19, 20))
    early = window_gap((5, 6))
    elapsed = time.perf_counter() - started
    within_band = gap_20 <= 0.03
    shrinking = late < early
    report(
        2,
        "gaussian-vs-oracle convergence",
        within_band and shrinking and elapsed < 10.0,
        f"gap(20) {gap_20:.6f}, mean gap n=19,20 {late:.6f}, n=5,6 {early:.6f}, "
        f"{elapsed:.2f}s",
    )
    assert within_band
    assert elapsed < 10.0
    assert shrinking, (
        f"mean gap over n=19,20 ({late:.6f}) is not smaller than over n=5,6 ({early:.6f})"
    )


def test_criterion_3_example_tree_fidelity():
    model = make_model([(0.5, 0.5)] * 3, ids=["e3", "e6", "e7"])
    tree = SituationActionTree(example_action_tree(), model_digest(model))

    nodes_ok = tree.node_count == 7
    lookups_ok = True
    for e3, e6, e7 in itertools.product([False, True], repeat=3):
        action, consulted = tree_lookup(tree, {"e3": e3, "e6": e6, "e7": e7})
        expected = Action.ACT if (e7 or (e3 and e6)) else Action.NO_ACT
        lookups_ok &= action is expected
        if e7:
            lookups_ok &= consulted == ["e7"]
        elif e3:
            lookups_ok &= consulted == ["e7", "e3", "e6"]
        else:
            lookups_ok &= consulted == ["e7", "e3"]
    value = tree_ev(model, tree)
    value_ok = abs(value - 0.5) <= 1e-12
    ok = nodes_ok and lookups_ok and value_ok
    report(3, "worked-example tree fidelity", ok,
           f"nodes {tree.node_count}, ev {value:.12f}")
    assert nodes_ok
    assert lookups_ok
    assert value_ok


def test_criterion_4_symmetric_tree_table_equivalence():
    rng = random.Random(1004)
    worst = 0.0
    for _ in range(50):
        model = random_model(rng, rng.randint(1, 8))
        ids = [item.id for item in model.evidence]
        subset = [evidence_id for evidence_id in ids if rng.random() < 0.7]
        tree = complete_tree(model, subset)
        worst = max(worst, abs(tree_ev(model, tree) - exact_ev_subset(model, subset).ev))
    ok = worst <= 1e-12
    report(4, "symmetric-tree/table equivalence", ok, f"max gap {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_5_greedy_soundness():
    rng = random.Random(1005)
    sound = True
    increasing = True
    for _ in range(200):
        model = random_model(rng, rng.randint(0, 6))
        _, best = exhaustive_subset_search(model)
        for lookahead in (0, 1, 2):
            subset, trace = greedy_select(model, lookahead=lookahead)
            achieved = niv(
                model, TablePolicy(subset), exact_ev_subset(model, subset).ev, method="exact"
            ).niv
            sound &= achieved <= best.niv + 1e-12
            if lookahead == 0:
                for step in trace.steps:
                    increasing &= step.niv_after > step.niv_before
    ok = sound and increasing
    report(5, "greedy soundness", ok)
    assert sound
    assert increasing


def test_criterion_6_expanded_inequality_agreement():
    rng = random.Random(1006)
    agreements = 0
    for _ in range(1000):
        model = random_model(rng, rng.randint(0, 8))
        ids = [item.id for item in model.evidence]
        subset = tuple(evidence_id for evidence_id in ids if rng.random() < 0.5)
        ev_compute = exact_ev_compute(model).ev
        ev_compile = exact_ev_subset(model, subset).ev
        choice = compare_policies(
            model,
            niv(model, TablePolicy(subset), ev_compile, method="exact"),
            niv(model, ComputePolicy(len(ids)), ev_compute, method="exact"),
        )
        c = model.costs
        p = model.p_h
        m = len(ids)
        n = len(subset)
        lhs = c.r * (ev_compute - (c.k1 * p + c.k2 * (1 - p)) * m) - c.k5 * m
        rhs = c.r * (ev_compile - (c.k3 * p + c.k4 * (1 - p)) * n) - c.k5 * (2**n)
        agreements += choice.decision == ("compute" if lhs >= rhs else "compile")
    ok = agreements == 1000
    report(6, "expanded-inequality agreement", ok, f"{agreements}/1000")
    assert agreements == 1000


def test_criterion_7_preset_loss_curves():
    started = time.perf_counter()
    order = ["high", "moderate", "low"]
    monotone = True
    zero_at_full = True
    ordered = True
    for normalization in ("relative-to-compute", "range-normalized"):
        losses = {}
        for name in order:
            curve = loss_curve(
                PRESETS[name], 0.5, SYMMETRIC_UTILITIES,
                method="gaussian", normalization=normalization,
            )
            losses[name] = [row.fractional_loss for row in curve.rows]
            for left, right in zip(losses[name], losses[name][1:]):
                monotone &= right <= left
            zero_at_full &= losses[name][-1] == 0.0
        for n in range(len(losses["high"])):
            ordered &= losses["high"][n] >= losses["moderate"][n] - 1e-9
            ordered &= losses["moderate"][n] >= losses["low"][n] - 1e-9
    elapsed = time.perf_counter() - started
    ok = monotone and zero_at_full and ordered and elapsed < 30.0
    report(7, "prototype loss-curve shape", ok, f"{elapsed:.2f}s")
    assert monotone
    assert zero_at_full
    assert ordered
    assert elapsed < 30.0


def test_criterion_8_artifact_round_trips():
    rng = random.Random(1008)
    tables_ok = True
    lookups_ok = True
    trees_ok = True
    for m in (0, 3, 8, 12):
        model = random_model(rng, m)
        subset = [item.id for item in model.evidence]
        table = compile_table(model, subset)
        blob = write_table(table)
        tables_ok &= read_table(blob) == table and write_table(read_table(blob)) == blob
        thr = threshold(model.utilities, model.p_h)
        lookup = model.evidence_map()
        for index in range(table.entries):
            observation = {}
            w = 0.0
            for i, evidence_id in enumerate(subset):
                truth = bool((index >> i) & 1)
                observation[evidence_id] = truth
                pair = item_formulas(lookup[evidence_id].alpha, lookup[evidence_id].beta)
                w += pair.w_pos if truth else pair.w_neg
            lookups_ok &= table_lookup(table, observation) is optimal_action(w, thr)
    for m in (0, 2, 5):
        model = random_model(rng, m)
        tree = complete_tree(model, [item.id for item in model.evidence])
        text = export_tree(tree, format="json")
        trees_ok &= tree_from_json(text) == tree and export_tree(tree_from_json(text)) == text
    ok = tables_ok and lookups_ok and trees_ok
    report(8, "artifact round-trips", ok)
    assert tables_ok
    assert lookups_ok
    assert trees_ok


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    model = {
        "p_h": 0.5,
        "evidence": [
            {"id": "e1", "alpha": 0.8, "beta": 0.2},
            {"id": "e2", "alpha": 0.7, "beta": 0.3},
        ],
        "utilities": {"u_h_d": 1, "u_h_nd": 0, "u_nh_d": 0, "u_nh_nd": 1},
        "costs": {"k1": 0, "k2": 0, "k3": 0, "k4": 0, "k5": 0.01, "k6": 1, "r": 1},
    }
    (tmp_path / "model.json").write_text(json.dumps(model))
    bad = json.loads(json.dumps(model))
    bad["p_h"] = 0.0
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    other = json.loads(json.dumps(model))
    other["p_h"] = 0.6
    (tmp_path / "other.json").write_text(json.dumps(other))
    (tmp_path / "obs.json").write_text(json.dumps({"e1": True, "e2": False}))
    (tmp_path / "profile.json").write_text(
        json.dumps({"name": "unit", "kind": "explicit", "weights": [math.log(4.0)]})
    )

    def run(*args):
        return run_sact(*args, cwd=tmp_path)

    assert run("compile", "model.json", "--subset", "e1,e2", "--out", "t.sact").returncode == 0
    assert run("tree", "model.json", "--out", "t.tree.json").returncode == 0

    commands = [
        ("validate", "model.json"),
        ("analyze", "model.json"),
        ("analyze", "model.json", "--method", "gaussian"),
        ("select", "model.json"),
        ("select", "model.json", "--exhaustive"),
        ("tree", "model.json"),
        ("tree", "model.json", "--format", "dot"),
        ("lookup", "model.json", "--table", "t.sact", "--obs", "obs.json"),
        ("lookup", "model.json", "--tree", "t.tree.json", "--obs", "obs.json"),
        ("proto", "--profile-file", "profile.json", "--method", "exact"),
        ("proto",),
    ]
    deterministic = True
    for command in commands:
        first = run(*command)
        second = run(*command)
        deterministic &= first.returncode == 0 and first.stdout == second.stdout
    run("compile", "model.json", "--subset", "e1,e2", "--out", "again.sact")
    deterministic &= (tmp_path / "again.sact").read_bytes() == (tmp_path / "t.sact").read_bytes()

    codes_ok = True
    codes_ok &= run("validate", "model.json").returncode == 0
    codes_ok &= run("validate", "bad.json").returncode == 1
    codes_ok &= run("validate", "nonexistent.json").returncode == 2
    codes_ok &= run("analyze", "model.json", "--cap-enum", "1").returncode == 3
    codes_ok &= (
        run("lookup", "other.json", "--table", "t.sact", "--obs", "obs.json").returncode == 4
    )
    ok = deterministic and codes_ok
    report(9, "CLI determinism and exit codes", ok)
    assert deterministic
    assert codes_ok
