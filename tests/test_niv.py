import math
import random

import pytest

from sact import (
    CapExceededError,
    ComputePolicy,
    CostModel,
    DomainError,
    MethodError,
    TablePolicy,
    TreePolicy,
    UnknownEvidenceError,
    compare_policies,
    exact_ev_compute,
    exact_ev_subset,
    greedy_select,
    niv,
)

from sact.niv import outranks, policy_costs, table_niv

from helpers import m1, make_model, random_model

COSTS = CostModel(k1=2.0, k2=1.0, k3=0.5, k4=0.5, k5=2.0, k6=1.5, r=1.0)


class TestProcessingCosts:
    def test_compute_with_no_evidence_is_free(self):
        assert policy_costs(COSTS, ComputePolicy(0))[:2] == (0.0, 0.0)

    def test_compute_is_linear_in_m(self):
        assert policy_costs(COSTS, ComputePolicy(10))[:2] == (20.0, 10.0)

    def test_table_is_linear_in_n(self):
        assert policy_costs(COSTS, TablePolicy(("a", "b", "c")))[:2] == (1.5, 1.5)

    def test_tree_lookups_are_costed_at_zero(self):
        assert policy_costs(COSTS, TreePolicy(7))[:2] == (0.0, 0.0)


class TestMemoryCosts:
    def test_table_is_exponential(self):
        assert policy_costs(COSTS, TablePolicy(("a", "b", "c")))[2] == 16.0

    def test_compute_is_linear(self):
        assert policy_costs(COSTS, ComputePolicy(10))[2] == 20.0

    def test_tree_counts_nodes(self):
        costs = CostModel(0, 0, 0, 0, 1.0, 1.0, 1.0)
        assert policy_costs(costs, TreePolicy(7))[2] == 7.0

    def test_oversized_table_refused(self):
        subset = tuple(f"e{i}" for i in range(63))
        with pytest.raises(CapExceededError):
            policy_costs(COSTS, TablePolicy(subset))
        assert policy_costs(COSTS, TablePolicy(subset[:62]))[2] == 2.0 * 2**62


class TestNiv:
    def test_costless_compute_is_pure_value(self):
        report = niv(m1(), ComputePolicy(1), 0.8, method="exact")
        assert report.niv == pytest.approx(0.8, abs=1e-15)
        assert report.pc_h == report.pc_nh == report.mc == 0.0

    def test_empty_table_still_pays_one_cell(self):
        costs = CostModel(0, 0, 0, 0, 1.0, 0, 1.0)
        report = niv(m1(costs=costs), TablePolicy(()), 0.5, method="exact")
        assert report.niv == pytest.approx(-0.5, abs=1e-15)

    def test_null_tree_pays_one_node(self):
        costs = CostModel(0, 0, 0, 0, 1.0, 1.0, 1.0)
        report = niv(m1(costs=costs), TreePolicy(1), 0.5, method="exact")
        assert report.niv == pytest.approx(-0.5, abs=1e-15)

    def test_policy_model_mismatches_rejected(self):
        with pytest.raises(DomainError):
            niv(m1(), ComputePolicy(3), 0.8, method="exact")
        with pytest.raises(UnknownEvidenceError):
            niv(m1(), TablePolicy(("nope",)), 0.8, method="exact")
        with pytest.raises(DomainError):
            niv(m1(), TablePolicy(("e1", "e1")), 0.8, method="exact")
        with pytest.raises(DomainError):
            niv(m1(), TreePolicy(0), 0.8, method="exact")
        with pytest.raises(MethodError):
            niv(m1(), TreePolicy(1), 0.8, method="gaussian")
        with pytest.raises(MethodError):
            niv(m1(), ComputePolicy(1), 0.8, method="sampled")

    def test_an_unknown_policy_is_refused(self):
        policy = object()
        with pytest.raises(DomainError) as excinfo:
            niv(m1(), policy, 0.5, method="exact")
        assert str(excinfo.value) == f"unknown policy {policy!r}"

    def test_report_reconstructs_from_its_fields(self):
        rng = random.Random(101)
        for _ in range(100):
            model = random_model(rng, rng.randint(1, 6))
            subset = tuple(item.id for item in model.evidence if rng.random() < 0.5)
            policy = rng.choice(
                [
                    ComputePolicy(len(model.evidence)),
                    TablePolicy(subset),
                    TreePolicy(rng.randint(1, 15)),
                ]
            )
            ev = rng.uniform(-5.0, 5.0)
            report = niv(model, policy, ev, method="exact")
            rebuilt = (
                model.costs.r
                * (report.ev - report.pc_h * model.p_h - report.pc_nh * (1.0 - model.p_h))
                - report.mc
            )
            assert report.niv == rebuilt

    def test_table_niv_equals_the_report_bit_for_bit(self):
        rng = random.Random(102)
        for _ in range(200):
            model = random_model(rng, rng.randint(0, 8))
            subset = tuple(item.id for item in model.evidence if rng.random() < 0.5)
            ev = rng.uniform(-5.0, 5.0)
            for method in ("exact", "gaussian"):
                report = niv(model, TablePolicy(subset), ev, method=method)
                assert table_niv(model, len(subset), ev).hex() == report.niv.hex()

    def test_table_niv_keeps_the_62_bit_refusal(self):
        model = m1(costs=COSTS)
        # k5 = 2 per cell: 2^62 cells are admitted, 2^63 refused.
        assert table_niv(model, 62, 0.5) < -(2.0**62)
        with pytest.raises(CapExceededError, match="^a table over 63 items needs 2\\^63 cells"):
            table_niv(model, 63, 0.5)

    def test_greedy_selection_is_refused_at_the_63rd_item(self):
        # Free compilation of 70 informative items: the Gaussian hill-climb
        # would take all of them.
        model = make_model([(0.6 + 0.003 * i, 0.4 - 0.002 * i) for i in range(70)])
        with pytest.raises(CapExceededError) as excinfo:
            greedy_select(model, method="gaussian", table_cap=100)
        assert str(excinfo.value) == (
            "a table over 63 items needs 2^63 cells, beyond the 62-bit memory-cost budget"
        )

    def test_value_strictly_decreases_in_each_active_cost(self):
        model = make_model(
            [(0.8, 0.2), (0.7, 0.3)],
            p_h=0.4,
            costs=CostModel(1, 1, 1, 1, 1, 1, 2.0),
        )
        cases = [
            (ComputePolicy(2), ("k1", "k2", "k5")),
            (TablePolicy(("e1",)), ("k3", "k4", "k5")),
            (TreePolicy(3), ("k5", "k6")),
        ]
        for policy, active in cases:
            base = niv(model, policy, 0.7, method="exact").niv
            for name in active:
                bumped = model.costs.__class__(
                    **{
                        field: getattr(model.costs, field) + (1.0 if field == name else 0.0)
                        for field in ("k1", "k2", "k3", "k4", "k5", "k6", "r")
                    }
                )
                worse = niv(
                    model.__class__(model.p_h, model.evidence, model.utilities, bumped),
                    policy,
                    0.7,
                    method="exact",
                ).niv
                assert worse < base

    def test_serializes_stably(self):
        report = niv(m1(), TablePolicy(("e1",)), 0.8, method="exact")
        data = report.to_dict()
        assert data["policy"] == {"kind": "compile_table", "subset": ["e1"]}
        assert set(data) == {"policy", "ev", "pc_h", "pc_nh", "mc", "niv", "method"}


class TestOutranks:
    """The candidate order greedy selection and tree growth share."""

    def test_anything_beats_no_best(self):
        assert outranks(-math.inf, "z", None)
        assert outranks(math.nan, "z", None)

    def test_a_higher_ev_wins(self):
        assert outranks(0.75, "z", (0.5, "a"))
        assert not outranks(0.5, "a", (0.75, "z"))

    def test_an_equal_ev_falls_to_the_smaller_id(self):
        assert outranks(0.5, "e1", (0.5, "e2"))
        assert not outranks(0.5, "e2", (0.5, "e1"))
        assert not outranks(0.5, "e1", (0.5, "e1"))

    def test_zero_and_negative_zero_tie(self):
        assert outranks(0.0, "a", (-0.0, "b")) and outranks(-0.0, "a", (0.0, "b"))
        assert not outranks(0.0, "b", (-0.0, "a"))
        assert not outranks(-0.0, "b", (0.0, "a"))

    def test_a_nan_never_displaces_the_best(self):
        for best in ((0.5, "z"), (-math.inf, "z"), (math.inf, "z")):
            assert not outranks(math.nan, "a", best)

    def test_a_nan_best_is_never_displaced(self):
        for ev in (math.inf, 0.5, -math.inf, math.nan):
            assert not outranks(ev, "a", (math.nan, "z"))


class TestComparePolicies:
    def test_tie_goes_to_compute(self):
        compute = niv(m1(), ComputePolicy(1), 0.8, method="exact")
        table = niv(m1(), TablePolicy(("e1",)), 0.8, method="exact")
        choice = compare_policies(m1(), table, compute)
        assert choice.decision == "compute"
        assert choice.margin == 0.0

    def test_better_compute_wins_by_its_margin(self):
        compute = niv(m1(), ComputePolicy(1), 0.8, method="exact")
        empty_table = niv(m1(), TablePolicy(()), 0.5, method="exact")
        choice = compare_policies(m1(), empty_table, compute)
        assert choice.decision == "compute"
        assert choice.margin == pytest.approx(0.3, abs=1e-12)

    def test_heavy_processing_cost_flips_to_compile(self):
        costs = CostModel(10.0, 10.0, 0, 0, 0, 0, 1.0)
        model = m1(costs=costs)
        compute = niv(model, ComputePolicy(1), 0.8, method="exact")
        table = niv(model, TablePolicy(("e1",)), 0.8, method="exact")
        assert compute.niv == pytest.approx(-9.2, abs=1e-12)
        choice = compare_policies(model, table, compute)
        assert choice.decision == "compile"
        assert choice.margin == pytest.approx(-10.0, abs=1e-12)

    def test_agrees_with_expanded_cost_inequality(self):
        rng = random.Random(103)
        for _ in range(200):
            model = random_model(rng, rng.randint(0, 6))
            ids = [item.id for item in model.evidence]
            subset = tuple(evidence_id for evidence_id in ids if rng.random() < 0.5)
            ev_compute = exact_ev_compute(model).ev
            ev_compile = exact_ev_subset(model, subset).ev
            compute = niv(model, ComputePolicy(len(ids)), ev_compute, method="exact")
            table = niv(model, TablePolicy(subset), ev_compile, method="exact")
            choice = compare_policies(model, table, compute)
            c = model.costs
            p = model.p_h
            lhs = c.r * (ev_compute - (c.k1 * p + c.k2 * (1 - p)) * len(ids)) - c.k5 * len(ids)
            rhs = c.r * (ev_compile - (c.k3 * p + c.k4 * (1 - p)) * len(subset)) - c.k5 * (
                2 ** len(subset)
            )
            assert choice.decision == ("compute" if lhs >= rhs else "compile")

    def test_costless_comparison_reduces_to_expected_value(self):
        rng = random.Random(107)
        zero = CostModel(0, 0, 0, 0, 0, 0, 1.0)
        for _ in range(60):
            model = random_model(rng, rng.randint(1, 7), costs=zero)
            ids = [item.id for item in model.evidence]
            subset = tuple(evidence_id for evidence_id in ids if rng.random() < 0.5)
            compute = niv(model, ComputePolicy(len(ids)), exact_ev_compute(model).ev,
                          method="exact")
            table = niv(model, TablePolicy(subset), exact_ev_subset(model, subset).ev,
                        method="exact")
            choice = compare_policies(model, table, compute)
            assert choice.margin >= -1e-12
            assert choice.decision == ("compute" if choice.margin >= 0 else "compile")
