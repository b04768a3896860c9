import dataclasses
import itertools
import random

import pytest

from sact import (
    Action,
    CapExceededError,
    CostModel,
    DomainError,
    FormatError,
    Internal,
    Leaf,
    MethodError,
    ObservationError,
    SituationActionTree,
    UnknownEvidenceError,
    UtilityTable,
    build_tree,
    exact_ev_subset,
    export_tree,
    model_digest,
    optimal_action,
    threshold,
    tree_ev,
    tree_from_json,
    tree_lookup,
    tree_niv,
)
from sact.tree import count_nodes

from helpers import (
    UNIT_COSTS,
    complete_tree,
    design_model,
    example_action_tree,
    item_formulas,
    m1,
    make_model,
    optimal_tree,
    random_costs,
    random_model,
    small_models,
)


def uniform_three_test_model(**kwargs):
    return make_model([(0.5, 0.5)] * 3, ids=["e3", "e6", "e7"], **kwargs)


def example_tree(model):
    return SituationActionTree(example_action_tree(), model_digest(model))


class TestTreeEv:
    def test_null_tree_equals_prior_action_value(self):
        model = m1()
        tree = SituationActionTree(Leaf(Action.ACT), model_digest(model))
        assert tree_ev(model, tree) == pytest.approx(0.5, abs=1e-15)

    def test_example_tree_on_uninformative_evidence(self):
        # Act-region probability is 0.5 + 0.5*0.5*0.5 = 0.625 under both
        # hypotheses, so ev = 0.5*0.625*1 + 0.5*0.375*1 = 0.5.
        model = uniform_three_test_model()
        assert tree_ev(model, example_tree(model)) == pytest.approx(0.5, abs=1e-12)

    def test_depth_one_tree_matches_subset_oracle(self):
        model = m1()
        tree = complete_tree(model, ["e1"])
        value = tree_ev(model, tree)
        assert value == pytest.approx(0.8, abs=1e-12)
        assert value == pytest.approx(exact_ev_subset(model, ["e1"]).ev, abs=1e-12)

    def test_repeated_test_on_a_path_rejected(self):
        model = m1()
        bad = SituationActionTree(
            Internal("e1", Internal("e1", Leaf(Action.ACT), Leaf(Action.ACT)), Leaf(Action.NO_ACT)),
            model_digest(model),
        )
        with pytest.raises(DomainError, match="repeats"):
            tree_ev(model, bad)

    def test_unknown_test_rejected(self):
        model = m1()
        bad = SituationActionTree(
            Internal("zz", Leaf(Action.ACT), Leaf(Action.NO_ACT)), model_digest(model)
        )
        with pytest.raises(UnknownEvidenceError):
            tree_ev(model, bad)

    def test_complete_trees_match_the_subset_oracle(self):
        rng = random.Random(149)
        for _ in range(25):
            model = random_model(rng, rng.randint(1, 7))
            ids = [item.id for item in model.evidence]
            subset = [evidence_id for evidence_id in ids if rng.random() < 0.7]
            tree = complete_tree(model, subset)
            assert tree_ev(model, tree) == pytest.approx(
                exact_ev_subset(model, subset).ev, abs=1e-12
            )


class TestTreeNiv:
    def test_example_tree_with_unit_costs(self):
        model = uniform_three_test_model(costs=UNIT_COSTS)
        report = tree_niv(model, example_tree(model))
        assert report.niv == pytest.approx(0.5 - 7.0, abs=1e-12)
        assert report.mc == 7.0
        assert report.pc_h == report.pc_nh == 0.0

    def test_null_tree_with_free_memory(self):
        model = m1()
        tree = SituationActionTree(Leaf(Action.ACT), model_digest(model))
        assert tree_niv(model, tree).niv == pytest.approx(0.5, abs=1e-15)

    def test_depth_one_tree_with_unit_costs(self):
        model = m1(costs=UNIT_COSTS)
        tree = complete_tree(model, ["e1"])
        assert tree_niv(model, tree).niv == pytest.approx(0.8 - 3.0, abs=1e-12)


class TestBuildTree:
    def test_worthless_splits_leave_the_null_tree(self):
        costs = CostModel(0, 0, 0, 0, 1.0, 1.0, 1.0)
        model = make_model([(0.6, 0.6), (0.4, 0.4)], costs=costs)
        tree, trace = build_tree(model)
        assert tree.node_count == 1
        assert isinstance(tree.root, Leaf)
        assert trace.steps == ()

    def test_a_negative_lookahead_is_refused(self):
        with pytest.raises(MethodError) as excinfo:
            build_tree(m1(), lookahead=-1)
        assert str(excinfo.value) == "lookahead depth must be >= 0"

    def test_free_useful_split_is_taken(self):
        tree, trace = build_tree(m1())
        assert tree.node_count == 3
        assert tree.root.evidence_id == "e1"
        assert isinstance(tree.root.if_true, Leaf)
        assert [s.evidence_id for s in trace.steps] == ["e1"]
        assert trace.steps[0].niv_before == pytest.approx(0.5, abs=1e-12)
        assert trace.steps[0].niv_after == pytest.approx(0.8, abs=1e-12)

    def test_a_grown_tree_whose_niv_overflows_is_refused(self):
        # The null tree is worth r * 0.5e300 = 1.5e308 and the split gains a finite
        # r * 0.3e300, but their sum overflows.
        model = m1(utilities=UtilityTable(1e300, 0.0, 0.0, 1e300),
                   costs=CostModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3e8))
        with pytest.raises(DomainError, match="value of the grown tree is inf"):
            build_tree(model)

    def test_an_expansion_gain_that_is_nan_is_refused(self):
        # The null tree is worth 0 - 1e308, but the split's gain is r * dev = inf
        # less 2 * 1e308 = inf: NaN, which would otherwise read as no gain.
        u = 1e300
        model = make_model([(0.99, 0.01)], utilities=UtilityTable(u, -u, -u, u),
                           costs=CostModel(0.0, 0.0, 0.0, 0.0, 1e308, 1.0, 1e9))
        with pytest.raises(DomainError, match="gain of the best expansion is nan"):
            build_tree(model)

    def test_zero_evidence_model_prescribes_prior_action(self):
        tree, _ = build_tree(make_model([]))
        assert tree.node_count == 1
        assert tree.root.action is Action.ACT

    def test_cap_refusal(self):
        model = make_model([(0.6, 0.4)] * 4)
        with pytest.raises(CapExceededError):
            build_tree(model, cap=3)

    def test_trace_strictly_increases(self):
        rng = random.Random(151)
        for _ in range(30):
            model = random_model(rng, rng.randint(0, 6))
            tree, trace = build_tree(model)
            running = trace.initial_niv
            for step in trace.steps:
                assert step.niv_before == running
                assert step.niv_after > step.niv_before
                running = step.niv_after
            assert running == trace.final_niv
            assert tree_niv(model, tree).niv == pytest.approx(trace.final_niv, abs=1e-9)

    def test_node_count_matches_traversal(self):
        rng = random.Random(157)
        for _ in range(20):
            model = random_model(rng, rng.randint(0, 6))
            tree, _ = build_tree(model)
            assert tree.node_count == count_nodes(tree.root)

    def test_directly_built_tree_counts_its_root(self):
        root = Internal("e1", Internal("e2", Leaf(Action.ACT), Leaf(Action.NO_ACT)),
                        Leaf(Action.NO_ACT))
        tree = SituationActionTree(root, bytes(32))
        assert tree.node_count == count_nodes(root) == 5

    def test_leaf_actions_agree_with_rule_recomputation(self):
        rng = random.Random(163)
        for _ in range(20):
            model = random_model(rng, rng.randint(1, 6))
            tree, _ = build_tree(model)
            thr = threshold(model.utilities, model.p_h)
            lookup = model.evidence_map()

            def walk(node, w_path):
                if isinstance(node, Leaf):
                    assert node.action is optimal_action(w_path, thr)
                    return
                item = lookup[node.evidence_id]
                pair = item_formulas(item.alpha, item.beta)
                walk(node.if_true, w_path + pair.w_pos)
                walk(node.if_false, w_path + pair.w_neg)

            walk(tree.root, 0.0)

    def test_lookahead_tolerates_a_dip_per_branch(self):
        # Single items cannot reach the threshold, so the first split never
        # pays for itself alone; with one tolerated dip the builder reaches
        # the profitable two-test region.
        costs = CostModel(0, 0, 0, 0, 0.001, 1.0, 1.0)
        model = make_model([(0.7, 0.3), (0.7, 0.3)], p_h=0.25, costs=costs)
        flat, _ = build_tree(model, lookahead=0)
        assert flat.node_count == 1
        deep, trace = build_tree(model, lookahead=1)
        assert deep.node_count > 1
        for step in trace.steps:
            assert step.niv_after > step.niv_before

    def test_node_cost_only_chooses_where_growth_stops(self):
        # For r > 0 each node tests the split of greatest EV gain (ties to the
        # smaller id) whatever the costs, so at lookahead 0 a priced tree is
        # the top of the tree grown at k5 = 0.
        def assert_within(node, reference):
            if isinstance(node, Internal):
                assert isinstance(reference, Internal)
                assert node.evidence_id == reference.evidence_id
                assert_within(node.if_true, reference.if_true)
                assert_within(node.if_false, reference.if_false)

        rng = random.Random(223)
        for model in small_models(rng, 120):
            for _ in range(3):
                costs = random_costs(rng)
                tree, _ = build_tree(dataclasses.replace(model, costs=costs))
                free = dataclasses.replace(model, costs=dataclasses.replace(costs, k5=0.0))
                reference, _ = build_tree(free)
                assert_within(tree.root, reference.root)


class TestOptimalTree:
    """Hill-climbing against the dynamic-programming optimum of ``helpers.optimal_tree``."""

    @staticmethod
    def models():
        rng = random.Random(401)
        designed = [
            design_model(rng, m, alpha=(0.55, 0.8), beta=(0.2, 0.45),
                         k5=10.0 ** rng.uniform(-3.0, -1.0), k6=1.0)
            for m in (5, 6, 7, 8) * 4
        ]
        return designed + [random_model(rng, m) for m in range(9) for _ in range(2)]

    def test_hill_climbing_never_beats_the_optimum(self):
        below = 0
        for model in self.models():
            tree, value = optimal_tree(model)
            optimum = tree_niv(model, tree).niv
            slack = 1e-12 * max(1.0, abs(optimum))
            # The search's own sum agrees with the tree's valuation up to rounding.
            assert abs(value - optimum) <= slack
            for lookahead in (0, 1, 2):
                grown = tree_niv(model, build_tree(model, lookahead=lookahead)[0]).niv
                assert grown <= optimum + slack, (lookahead, grown, optimum)
                below += grown < optimum - slack
        # The oracle can tell the two apart: hill-climbing falls short on
        # some of these models.
        assert below > 0

    def test_the_optimum_of_one_free_split_is_that_split(self):
        costs = CostModel(0, 0, 0, 0, 0.0, 1.0, 1.0)
        tree, _ = optimal_tree(m1(costs=costs))
        assert tree.root == Internal("e1", Leaf(Action.ACT), Leaf(Action.NO_ACT))


class TestTreeLookup:
    def test_short_circuit_on_first_test(self):
        model = uniform_three_test_model()
        tree = example_tree(model)
        for e3, e6 in itertools.product([True, False], repeat=2):
            action, consulted = tree_lookup(tree, {"e7": True, "e3": e3, "e6": e6})
            assert action is Action.ACT
            assert consulted == ["e7"]

    def test_deep_paths_act_iff_last_test_true(self):
        model = uniform_three_test_model()
        tree = example_tree(model)
        action, consulted = tree_lookup(tree, {"e7": False, "e3": True, "e6": False})
        assert action is Action.NO_ACT
        assert consulted == ["e7", "e3", "e6"]
        action, consulted = tree_lookup(tree, {"e7": False, "e3": True, "e6": True})
        assert action is Action.ACT
        assert consulted == ["e7", "e3", "e6"]
        action, consulted = tree_lookup(tree, {"e7": False, "e3": False})
        assert action is Action.NO_ACT
        assert consulted == ["e7", "e3"]

    def test_null_tree_consults_nothing(self):
        tree = SituationActionTree(Leaf(Action.ACT), bytes(32))
        action, consulted = tree_lookup(tree, {})
        assert action is Action.ACT
        assert consulted == []

    def test_missing_id_on_path_is_named(self):
        model = uniform_three_test_model()
        tree = example_tree(model)
        with pytest.raises(ObservationError, match="e3"):
            tree_lookup(tree, {"e7": False})


class TestExport:
    def test_null_tree_dot_has_one_node(self):
        tree = SituationActionTree(Leaf(Action.ACT), bytes(32))
        dot = export_tree(tree, format="dot")
        assert dot.count("label=") == 1
        assert "->" not in dot

    def test_example_tree_dot_shape(self):
        model = uniform_three_test_model()
        dot = export_tree(example_tree(model), format="dot")
        assert dot.count("label=") == 7 + 6  # 7 nodes, 6 labelled edges
        assert dot.count("->") == 6
        assert '"¬D"' in dot

    def test_dot_escapes_quotes_and_backslashes_in_labels(self):
        model = make_model([(0.8, 0.2)], ids=['a"b\\'])
        tree, _ = build_tree(model)
        dot = export_tree(tree, format="dot")
        assert '  n0 [label="a\\"b\\\\" shape=ellipse];\n' in dot

    def test_json_round_trip_is_byte_identical(self):
        rng = random.Random(167)
        for _ in range(10):
            model = random_model(rng, rng.randint(0, 5))
            tree, _ = build_tree(model)
            text = export_tree(tree, format="json")
            again = tree_from_json(text)
            assert export_tree(again, format="json") == text
            assert again == tree

    def test_version_and_structure_rejections(self):
        model = m1()
        tree, _ = build_tree(model)
        text = export_tree(tree, format="json")
        with pytest.raises(FormatError, match="version"):
            tree_from_json(text.replace('"version": 1', '"version": 9'))
        with pytest.raises(FormatError, match="node_count"):
            tree_from_json(text.replace('"node_count": 3', '"node_count": 5'))
        with pytest.raises(FormatError):
            tree_from_json("{}")
        with pytest.raises(FormatError):
            tree_from_json("not json")

    def test_unknown_format_rejected(self):
        tree = SituationActionTree(Leaf(Action.ACT), bytes(32))
        with pytest.raises(FormatError):
            export_tree(tree, format="yaml")
