import ast
import gc
import random
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest

from sact import (
    CapExceededError,
    CostModel,
    DomainError,
    UnknownEvidenceError,
    UtilityTable,
    compile_table,
    exact_ev_compute,
    exact_ev_subset,
    exhaustive_subset_search,
    greedy_select,
    niv,
    TablePolicy,
    threshold,
)
from sact.niv import compose_ev, table_niv

import sact.exact
import sact.gaussian
from sact.exact import (
    act_probabilities,
    child_probabilities,
    empty_prefix,
    extend,
    pairwise_sum,
    subtree_probabilities,
)
from sact.table import DEFAULT_ENUMERATION_CAP, DEFAULT_TABLE_CAP, _evaluator

from helpers import (
    ZERO_COSTS,
    brute_force_evaluation,
    concatenated_arrays,
    from_scratch_evaluation,
    gathered_act_probabilities,
    identity_models,
    m1,
    make_model,
    random_model,
    tie_models,
)


def counted_calls(monkeypatch, *names) -> list:
    """The names of the given ``sact.exact`` functions, in the order of
    their calls from now on."""
    calls = []
    for name in names:
        def call(*args, kernel=getattr(sact.exact, name), name=name):
            calls.append(name)
            return kernel(*args)

        monkeypatch.setattr(sact.exact, name, call)
    return calls


def set_block(monkeypatch, block):
    """Set ``sact.exact.BLOCK`` to ``block``; with ``block`` 0, make
    ``sact.exact.fits`` refuse every size, so nothing is valued at once."""
    if not block:
        monkeypatch.setattr(sact.exact, "fits", lambda entries: False)
    else:
        monkeypatch.setattr(sact.exact, "BLOCK", block)


class TestExactEvSubset:
    def test_single_strong_item(self):
        # Hand enumeration: act iff e1 true, which happens with probability
        # 0.8 given H and 0.2 given not-H, so
        # ev = 0.5*(0.8*1 + 0.2*0) + 0.5*(0.2*0 + 0.8*1) = 0.8.
        result = exact_ev_subset(m1(), ["e1"])
        assert result.ev == pytest.approx(0.8, abs=1e-12)
        assert result.p_act_given_h == pytest.approx(0.8, abs=1e-12)
        assert result.p_act_given_nh == pytest.approx(0.2, abs=1e-12)
        assert result.enumerated_count == 2

    def test_empty_subset_uses_prior_action(self):
        # The empty weight sum is 0, which meets w_star = 0, so always act:
        # ev = 0.5*1 + 0.5*0 = 0.5.
        result = exact_ev_subset(m1(), [])
        assert result.ev == pytest.approx(0.5, abs=1e-15)
        assert result.p_act_given_h == 1.0
        assert result.enumerated_count == 1

    def test_weaker_second_item_never_flips_the_decision(self):
        model = make_model([(0.8, 0.2), (0.7, 0.3)])
        result = exact_ev_subset(model, ["e1", "e2"])
        assert result.ev == pytest.approx(0.8, abs=1e-12)

    def test_matches_independent_brute_force(self):
        rng = random.Random(71)
        for _ in range(40):
            model = random_model(rng, rng.randint(0, 7))
            subset = [item.id for item in model.evidence if rng.random() < 0.7]
            result = exact_ev_subset(model, subset)
            ev, p_h, p_nh = brute_force_evaluation(model, subset)
            assert result.ev == pytest.approx(ev, abs=1e-12)
            assert result.p_act_given_h == pytest.approx(p_h, abs=1e-12)
            assert result.p_act_given_nh == pytest.approx(p_nh, abs=1e-12)

    def test_reported_fields_recompose_to_ev(self):
        rng = random.Random(73)
        for _ in range(50):
            model = random_model(rng, rng.randint(0, 8))
            result = exact_ev_compute(model)
            u = model.utilities
            recomposed = model.p_h * (
                result.p_act_given_h * u.u_h_d + (1 - result.p_act_given_h) * u.u_h_nd
            ) + (1 - model.p_h) * (
                result.p_act_given_nh * u.u_nh_d + (1 - result.p_act_given_nh) * u.u_nh_nd
            )
            assert result.ev == pytest.approx(recomposed, abs=1e-12)

    def test_more_compiled_evidence_never_lowers_value(self):
        rng = random.Random(79)
        for _ in range(60):
            model = random_model(rng, rng.randint(1, 8))
            ids = [item.id for item in model.evidence]
            big = [evidence_id for evidence_id in ids if rng.random() < 0.8]
            small = [evidence_id for evidence_id in big if rng.random() < 0.6]
            assert (
                exact_ev_subset(model, big).ev
                >= exact_ev_subset(model, small).ev - 1e-12
            )

    def test_unknown_and_duplicate_ids_rejected(self):
        with pytest.raises(UnknownEvidenceError):
            exact_ev_subset(m1(), ["nope"])
        model = make_model([(0.8, 0.2), (0.7, 0.3)])
        with pytest.raises(UnknownEvidenceError):
            exact_ev_subset(model, ["e1", "e1"])

    def test_cap_refusal_names_the_cap(self):
        model = make_model([(0.6, 0.4)] * 5)
        with pytest.raises(CapExceededError, match="cap of 3"):
            exact_ev_subset(model, [item.id for item in model.evidence], cap=3)


class TestExactEvCompute:
    def test_equals_full_subset_bitwise(self):
        rng = random.Random(83)
        for _ in range(30):
            model = random_model(rng, rng.randint(0, 9))
            full = exact_ev_subset(model, [item.id for item in model.evidence])
            committed = exact_ev_compute(model)
            assert committed == full  # identical accumulation path, exact equality

    def test_zero_evidence_model(self):
        assert exact_ev_compute(make_model([])).ev == pytest.approx(0.5, abs=1e-15)


class TestExhaustiveSearch:
    def test_information_free_evidence_stays_uncompiled(self):
        costs = CostModel(0, 0, 0, 0, 0.5, 0, 1.0)
        model = make_model([(0.6, 0.6), (0.3, 0.3)], costs=costs)
        subset, report = exhaustive_subset_search(model)
        assert subset == ()
        assert report.policy == TablePolicy(())

    def test_free_compilation_takes_everything_useful(self):
        subset, report = exhaustive_subset_search(m1())
        assert subset == ("e1",)
        assert report.ev == pytest.approx(0.8, abs=1e-12)
        assert report.niv == pytest.approx(0.8, abs=1e-12)

    def test_zero_evidence_model(self):
        subset, _ = exhaustive_subset_search(make_model([]))
        assert subset == ()

    def test_cap_refusal(self):
        model = make_model([(0.6, 0.4)] * 4)
        with pytest.raises(CapExceededError):
            exhaustive_subset_search(model, cap=3)

    def test_matches_naive_maximization(self):
        rng = random.Random(97)
        for _ in range(20):
            model = random_model(rng, rng.randint(0, 5))
            subset, report = exhaustive_subset_search(model)
            ids = [item.id for item in model.evidence]
            best = None
            for mask in range(1 << len(ids)):
                candidate = tuple(ids[i] for i in range(len(ids)) if (mask >> i) & 1)
                value = niv(
                    model,
                    TablePolicy(candidate),
                    exact_ev_subset(model, candidate).ev,
                    method="exact",
                ).niv
                if best is None or value > best:
                    best = value
            assert report.niv == best

    def test_ties_prefer_smaller_then_lexicographic(self):
        # Two identical items, zero costs: {e1} and {e2} tie with {e1,e2};
        # the singleton wins on size and e1 wins on id order.
        model = make_model([(0.8, 0.2), (0.8, 0.2)])
        subset, _ = exhaustive_subset_search(model)
        assert subset == ("e1",)


class TestPrefixKernelBitIdentity:
    """The prefix-extension kernel against full arrays enumerated from scratch,
    compared with ``==``: the kernel must not change a single rounding."""

    def test_tie_models_have_atoms_on_the_threshold(self):
        for model in tie_models():
            weights, _, _ = concatenated_arrays(model, [item.id for item in model.evidence])
            w_star = threshold(model.utilities, model.p_h).w_star
            assert np.count_nonzero(np.abs(weights - w_star) < 1e-12) > 0

    def test_act_probabilities_equal_the_extended_arrays(self):
        rng = random.Random(223)
        for model in identity_models(211):
            subset = [item.id for item in model.evidence]
            rng.shuffle(subset)
            w_star = threshold(model.utilities, model.p_h).w_star
            prefix = empty_prefix(len(subset))
            for k, item in enumerate(model.evidence_map()[i] for i in subset):
                _, p_h, p_nh = from_scratch_evaluation(model, subset[: k + 1])
                assert act_probabilities(prefix, item, w_star) == (p_h, p_nh)
                extend(prefix, item)

    def test_exact_ev_subset_equals_from_scratch(self):
        rng = random.Random(227)
        for model in identity_models(211):
            ids = [item.id for item in model.evidence]
            for subset in (ids, ids[::-1], [i for i in ids if rng.random() < 0.6], []):
                result = exact_ev_subset(model, subset)
                assert (result.ev, result.p_act_given_h, result.p_act_given_nh) == (
                    from_scratch_evaluation(model, subset)
                )
                assert result.enumerated_count == 1 << len(subset)

    def test_exhaustive_equals_a_from_scratch_search_in_mask_order(self):
        for model in identity_models(211):
            ids = [item.id for item in model.evidence]
            best = None
            for mask in range(1 << len(ids)):
                subset = tuple(ids[i] for i in range(len(ids)) if (mask >> i) & 1)
                ev = from_scratch_evaluation(model, subset)[0]
                report = niv(model, TablePolicy(subset), ev, method="exact")
                if (
                    best is None
                    or report.niv > best[1].niv
                    or (report.niv == best[1].niv
                        and (len(subset), subset) < (len(best[0]), best[0]))
                ):
                    best = (subset, report)
            assert exhaustive_subset_search(model) == best


def leaf_tree_sum(values: np.ndarray) -> float:
    """``pairwise_sum`` of ``values``, each leaf summed by ``np.add.reduce``."""
    taken = 0

    def leaf(count):
        nonlocal taken
        taken += count
        return np.add.reduce(values[taken - count : taken])

    total = pairwise_sum(leaf, len(values))
    assert taken == len(values)
    return float(total)


class TestStreamedValuation:
    """The valuation gathers and sums its acting probabilities leaf by leaf,
    along numpy's pairwise tree; the floats must be those of one numpy sum
    over the whole gathered sequence."""

    @pytest.mark.parametrize("leaf", [128, 256, sact.exact.LEAF])
    def test_the_leaf_tree_sum_is_numpys_sum(self, leaf, monkeypatch):
        monkeypatch.setattr(sact.exact, "LEAF", leaf)
        rng = np.random.default_rng(241)
        values = 10.0 ** rng.uniform(-300, 0, 3 * leaf + 17)
        for n in [0, 7, 8, 127, 128, 129, *range(leaf - 1, 3 * leaf + 18)]:
            assert leaf_tree_sum(values[:n]) == float(np.add.reduce(values[:n])), n

    @staticmethod
    def cases():
        """(model, w_star) pairs: the tie models at their own threshold, and
        random models at theirs and at minus and plus infinity (every and no
        assignment acts)."""
        rng = random.Random(251)
        cases = [(model, threshold(model.utilities, model.p_h).w_star) for model in tie_models()]
        for m in (3, 9, 12):
            model = random_model(rng, m)
            for w_star in (threshold(model.utilities, model.p_h).w_star, -np.inf, np.inf):
                cases.append((model, w_star))
        return cases

    @pytest.mark.parametrize("block, leaf", [(16, 128), (64, 256), (1 << 10, 128)])
    def test_small_blocks_equal_the_gathered_sum(self, block, leaf, monkeypatch):
        # Prefixes of up to 2^11 entries: many blocks, and up to 2^12
        # acting entries over many leaves.
        monkeypatch.setattr(sact.exact, "BLOCK", block)
        monkeypatch.setattr(sact.exact, "LEAF", leaf)
        for model, w_star in self.cases():
            prefix = empty_prefix(len(model.evidence))
            for item in model.evidence:
                expected = gathered_act_probabilities(prefix.arrays, item.record.branches, w_star)
                assert act_probabilities(prefix, item, w_star) == expected
                extend(prefix, item)

    def test_prefixes_that_straddle_a_block_equal_the_gathered_sum(self):
        # Prefixes of BLOCK / 2 to 2 * BLOCK entries at the default sizes.
        size = sact.exact.BLOCK.bit_length() - 1
        model = make_model([(0.7, 0.3)] * (size + 1) + [(0.6, 0.45)], p_h=0.45)
        w_star = threshold(model.utilities, model.p_h).w_star
        prefix = empty_prefix(size + 1)
        for k, item in enumerate(model.evidence):
            if k >= size - 1:
                for w in (w_star, -np.inf):
                    expected = gathered_act_probabilities(prefix.arrays, item.record.branches, w)
                    assert act_probabilities(prefix, item, w) == expected
            if k <= size:
                extend(prefix, item)


class TestExhaustiveLevels:
    """Exhaustive search walks large subtrees and values small ones level by
    level, below ``sact.exact.BLOCK`` entries: every split between the two
    gives the same subset and the same floats."""

    @staticmethod
    def models():
        rng = random.Random(233)
        return identity_models(239) + [random_model(rng, m) for m in range(11)]

    @pytest.mark.parametrize("block", [64, sact.exact.BLOCK, 1 << 30])
    def test_levels_equal_the_walk(self, block, monkeypatch):
        def searched():
            out = []
            for model in self.models():
                subset, report = exhaustive_subset_search(model)
                out.append((subset, report.ev.hex(), report.niv.hex()))
            return out

        with monkeypatch.context() as refusing:
            set_block(refusing, 0)
            walked = searched()
        set_block(monkeypatch, block)
        assert searched() == walked

    @staticmethod
    def priced_models():
        """Tie, identity and random models up to m = 11, the random ones at
        random and at zero costs, the two golden models whose NIVs
        overflow (every NIV inf; one-item tables worth -inf or NaN), and a
        model whose one-item tables are worth NaN or -inf, the empty
        table's NIV: a level whose best rows tie the best beside a NaN."""
        rng = random.Random(263)
        overflow = m1(utilities=UtilityTable(1e300, 0.0, 0.0, 1e300),
                      costs=CostModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e308))
        overflow_mixed = make_model([(0.55, 0.45), (0.95, 0.05)],
                                    utilities=UtilityTable(2.0, 0.0, 0.0, 2.0),
                                    costs=CostModel(0.0, 0.0, 0.0, 0.0, 1e308, 1.0, 1.5e308))
        tied_beside_nan = make_model([(0.99, 0.01), (0.55, 0.45)],
                                     utilities=UtilityTable(2.0, -6.0, -6.0, 2.0),
                                     costs=CostModel(0.0, 0.0, 0.0, 0.0, 1e308, 1.0, 1.5e308))
        return identity_models(269) + [
            random_model(rng, m, costs=costs) for m in range(12) for costs in (None, ZERO_COSTS)
        ] + [overflow, overflow_mixed, tied_beside_nan]

    @staticmethod
    def priced_one_by_one(model):
        """The winner of exhaustive search, each subset valued and priced on
        its own: the largest NIV, then the smaller size, then the smaller
        ids; a NaN NIV never wins.  Returns (subset, ev, niv)."""
        ids = [item.id for item in model.evidence]
        best = None
        for mask in range(1 << len(ids)):
            subset = tuple(ids[i] for i in range(len(ids)) if mask >> i & 1)
            result = exact_ev_subset(model, subset)
            ev = compose_ev(model, result.p_act_given_h, result.p_act_given_nh)
            value = table_niv(model, len(subset), ev)
            if value != value:
                continue
            key = (-value, len(subset), subset)
            if best is None or key < best[0]:
                best = (key, ev, value)
        (_, _, subset), ev, value = best
        return subset, ev, value

    @pytest.fixture(scope="class")
    def priced(self):
        """Each priced model with its winner, valued at the default block size."""
        return [(model, self.priced_one_by_one(model)) for model in self.priced_models()]

    @pytest.mark.parametrize("block", [0, 64, sact.exact.BLOCK, 1 << 30])
    def test_the_search_equals_pricing_each_subset(self, block, priced, monkeypatch):
        set_block(monkeypatch, block)
        for model, (subset, ev, value) in priced:
            if not np.isfinite(value):
                with pytest.raises(DomainError, match="best table"):
                    exhaustive_subset_search(model)
                continue
            found, report = exhaustive_subset_search(model)
            assert (found, report.ev.hex(), report.niv.hex()) == (subset, ev.hex(), value.hex())

    @pytest.mark.parametrize("block", [0, 64, sact.exact.BLOCK, 1 << 30])
    @pytest.mark.parametrize("eval_cap", [3, 5])
    def test_evaluation_cap_is_refused_before_any_subset_is_valued(
        self, block, eval_cap, monkeypatch
    ):
        valued = []
        set_block(monkeypatch, block)
        monkeypatch.setattr(sact.exact, "act_probabilities", lambda *args: valued.append(args))
        monkeypatch.setattr(sact.exact, "child_probabilities", lambda *args: valued.append(args))
        monkeypatch.setattr(sact.exact, "subtree_probabilities", lambda *args: valued.append(args))
        with pytest.raises(CapExceededError) as excinfo:
            exhaustive_subset_search(make_model([(0.6, 0.4)] * 8), eval_cap=eval_cap)
        n = eval_cap + 1
        assert str(excinfo.value) == (
            f"subset of {n} items exceeds the enumeration cap of {eval_cap} "
            f"(would require 2^{n} assignments)"
        )
        assert valued == []

    @staticmethod
    def counted_search(monkeypatch) -> list:
        """The exact kernel's calls in one exhaustive search at m = 11."""
        calls = counted_calls(
            monkeypatch, "act_probabilities", "child_probabilities", "subtree_probabilities"
        )
        exhaustive_subset_search(make_model([(0.7, 0.3)] * 10 + [(0.6, 0.45)]))
        return calls

    def test_a_walked_node_values_its_children_with_one_call(self, monkeypatch):
        # Every walked node's children fit: one call for each of the 6
        # walked nodes, and no subset valued on its own.
        calls = self.counted_search(monkeypatch)
        assert calls.count("child_probabilities") == 6
        assert "act_probabilities" not in calls

    def test_with_no_subtree_every_subset_is_valued_on_its_own(self, monkeypatch):
        set_block(monkeypatch, 0)
        calls = self.counted_search(monkeypatch)
        assert calls.count("act_probabilities") == (1 << 11) - 1
        assert "subtree_probabilities" not in calls

    def test_no_items_have_no_children(self, monkeypatch):
        prefix = empty_prefix(3)
        for item in make_model([(0.7, 0.3)] * 3).evidence:
            extend(prefix, item)
            assert list(child_probabilities(prefix, [], 0.0)) == []
        assert list(sact.gaussian.child_probabilities(sact.gaussian.empty_prefix(), [], 0.0)) == []
        # The root of an empty model is walked and has no children.
        set_block(monkeypatch, 0)
        assert exhaustive_subset_search(make_model([]))[0] == ()


def hexed(pairs) -> list:
    """(P(act | H), P(act | not-H)) pairs by ``float.hex``."""
    return [(p_h.hex(), p_nh.hex()) for p_h, p_nh in pairs]


class TestGreedySteps:
    """A greedy step values its candidates with one ``child_probabilities``
    call, all at once on the shared prefix when their arrays fit
    (``sact.exact.fits``, up to ``sact.exact.BLOCK`` entries), and one by
    one above: both give the floats of ``act_probabilities``, bit for bit."""

    def test_a_step_equals_act_probabilities(self):
        rng = random.Random(257)
        models = tie_models() + [random_model(rng, m) for m in (1, 3, 9, 12, 14)]
        for model in models:
            items = list(model.evidence)
            rng.shuffle(items)
            for w_star in (threshold(model.utilities, model.p_h).w_star, -np.inf, np.inf):
                prefix = empty_prefix(len(items))
                for k, item in enumerate(items):
                    candidates = items[k:]
                    rng.shuffle(candidates)
                    expected = [act_probabilities(prefix, c, w_star) for c in candidates]
                    assert hexed(child_probabilities(prefix, candidates, w_star)) == hexed(expected)
                    extend(prefix, item)

    @pytest.mark.parametrize(
        "size, count", [(10, 8), (10, 9), (12, 2), (13, 1), (13, 2), (0, 1 << 13), (0, 1 + (1 << 13))]
    )
    def test_steps_up_to_the_bound_are_valued_at_once(self, size, count, monkeypatch):
        # count * 2^(size + 1) entries: at BLOCK, or one step over.
        m = size + count
        model = make_model([(0.55 + 0.4 * i / m, 0.45 - 0.3 * i / m) for i in range(m)], p_h=0.45)
        ids = [item.id for item in model.evidence]
        batched = count << size + 1 <= sact.exact.BLOCK
        assert sact.exact.fits(count << size + 1) == batched
        w_star = threshold(model.utilities, model.p_h).w_star
        prefix = empty_prefix(size)
        for item in model.evidence[:size]:
            extend(prefix, item)
        expected = [act_probabilities(prefix, c, w_star) for c in model.evidence[size:]]
        calls = counted_calls(monkeypatch, "act_probabilities", "child_probabilities")
        _, step = _evaluator(model, "exact", size + 1)
        assert hexed(step(ids, size, ids[size:])) == hexed(expected)
        assert calls == ["child_probabilities"] + ([] if batched else ["act_probabilities"] * count)

    @staticmethod
    def models():
        rng = random.Random(263)
        free = [(0.9 - 0.05 * i, 0.2 + 0.03 * i) for i in range(15)]
        return (identity_models(239) + [random_model(rng, m) for m in range(11)]
                + [make_model(free[:m], p_h=0.45) for m in (12, 15)])

    @pytest.mark.parametrize("lookahead", [0, 1, 2])
    @pytest.mark.parametrize("block", [64, sact.exact.BLOCK, 1 << 30])
    def test_greedy_steps_at_once_equal_one_by_one(self, block, lookahead, monkeypatch):
        def selected():
            out = []
            for model in self.models():
                subset, trace = greedy_select(model, lookahead=lookahead)
                steps = [(s.evidence_id, s.niv_before.hex(), s.niv_after.hex()) for s in trace.steps]
                record = {key: hexed([p_act]) for key, p_act in model.valuation_record.items()}
                out.append((subset, steps, trace.stopped_reason, trace.kept, record))
            return out

        with monkeypatch.context() as refusing:
            set_block(refusing, 0)
            one_by_one = selected()
        assert max(len(steps) for _, steps, *_ in one_by_one) == 15
        set_block(monkeypatch, block)
        assert selected() == one_by_one

    @pytest.mark.parametrize("block", [0, sact.exact.BLOCK])
    def test_a_step_over_the_enumeration_cap_values_nothing(self, block, monkeypatch):
        valued = []
        set_block(monkeypatch, block)
        monkeypatch.setattr(sact.exact, "act_probabilities", lambda *args: valued.append(args))
        monkeypatch.setattr(sact.exact, "child_probabilities", lambda *args: valued.append(args))
        model = make_model([(0.6, 0.4)] * 6)
        ids = [item.id for item in model.evidence]
        _, step = _evaluator(model, "exact", 6, enum_cap=3)
        with pytest.raises(CapExceededError) as excinfo:
            step(ids, 3, ids[3:])
        assert str(excinfo.value) == (
            "exact evaluation of 4 items exceeds the enumeration cap of 3; "
            "switch to method='gaussian'"
        )
        assert valued == []


class TestCapMessages:
    def test_enumeration_cap_message(self):
        model = make_model([(0.6, 0.4)] * 5)
        with pytest.raises(CapExceededError) as excinfo:
            exact_ev_subset(model, [item.id for item in model.evidence], cap=3)
        assert str(excinfo.value) == (
            "subset of 5 items exceeds the enumeration cap of 3 (would require 2^5 assignments)"
        )

    def test_exhaustive_search_cap_message(self):
        model = make_model([(0.6, 0.4)] * 4)
        with pytest.raises(CapExceededError) as excinfo:
            exhaustive_subset_search(model, cap=3)
        assert str(excinfo.value) == (
            "model has 4 evidence items, above the exhaustive search cap of 3"
        )

    @pytest.mark.parametrize("eval_cap", [-1, 0, 2])
    def test_exhaustive_evaluation_cap_names_the_first_subset_too_large(self, eval_cap):
        model = make_model([(0.6, 0.4)] * 4)
        with pytest.raises(CapExceededError) as excinfo:
            exhaustive_subset_search(model, eval_cap=eval_cap)
        n = eval_cap + 1
        assert str(excinfo.value) == (
            f"subset of {n} items exceeds the enumeration cap of {eval_cap} "
            f"(would require 2^{n} assignments)"
        )

    def test_unknown_and_duplicate_messages(self):
        model = make_model([(0.8, 0.2), (0.7, 0.3)])
        with pytest.raises(UnknownEvidenceError, match="^unknown evidence id 'zz'$"):
            exact_ev_subset(model, ["e1", "zz"])
        with pytest.raises(UnknownEvidenceError, match="^duplicate evidence id 'e2' in subset$"):
            exact_ev_subset(model, ["e2", "e1", "e2"])


def traced_peak(call) -> int:
    """Peak bytes allocated through Python's allocators while ``call`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    # One unit is a float64 array over 2^17 assignments, half the n = 18
    # subset.
    UNIT = 8 * (1 << 17)

    @pytest.mark.parametrize("p_h", [0.5, 0.999])
    def test_exact_ev_subset_peak_at_n_18(self, p_h):
        # At p_h = 0.5 about half the assignments act; at 0.999 all of them
        # do.  The kernel holds the three arrays of the first 17 items (3
        # units) and two boolean masks over them (1/4), and gathers and sums
        # the acting probabilities one leaf at a time: 3.48 and 3.51 units
        # measured.  Gathering them whole took 4.75 and 6.18.
        model = make_model([(0.7, 0.3)] * 17 + [(0.6, 0.45)], p_h=p_h)
        subset = [item.id for item in model.evidence]
        assert traced_peak(lambda: exact_ev_subset(model, subset)) <= 4.5 * self.UNIT

    def test_compile_table_peak_at_n_18(self):
        # The weight sums of the first 14 items and of 1 to 4 more, five
        # arrays of 2^14 entries (5/8 of a unit), one block's decisions and
        # the 2^18 packed bits: 0.72 units measured.  Building all 2^18
        # weight sums took 2.29.
        model = make_model([(0.7, 0.3)] * 17 + [(0.6, 0.45)])
        subset = [item.id for item in model.evidence]
        assert traced_peak(lambda: compile_table(model, subset)) <= 0.79 * self.UNIT

    def test_exhaustive_peak_at_m_15(self):
        # 1 023 424 B measured: the prefixes of one path, depths 0 .. 14, one
        # (3, 2^depth) array each (0.75 MiB together), plus the valuation of
        # the one 15-item subset: its masks, one leaf per hypothesis and one
        # block's acting positions.  A prefix of all 15 items would add
        # 0.75 MiB that no subset uses.  Next highest, about 16 KB lower, a
        # node of 13 items values its one child at once, 2^14 entries, beside
        # the prefixes of depths 0 .. 13.  Each walked node frees its child
        # prefix when it returns, so a node's children and a subtree valued
        # level by level coexist only with the prefixes of their own path.
        model = make_model([(0.7, 0.3)] * 14 + [(0.6, 0.45)])
        # A first search leaves allocations behind that a repeated one does
        # not make: the model's per-item records and id map, built on first
        # read, and the small arrays numpy keeps in its cache for reuse.  Run
        # it untraced, so the bound holds whatever ran earlier in the process.
        exhaustive_subset_search(model)
        assert traced_peak(lambda: exhaustive_subset_search(model)) <= 1 << 20

    def test_exhaustive_search_frees_its_buffers_on_return(self):
        # With the cyclic collector off, nothing of the search outlives it:
        # its prefixes alone are about 196 KB at m = 13.
        model = make_model([(0.7, 0.3)] * 12 + [(0.6, 0.45)])
        exhaustive_subset_search(model)  # as above, untraced first
        collecting = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            exhaustive_subset_search(model)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            if collecting:
                gc.enable()
        assert held <= 8 << 10

    def test_valuation_and_compile_free_their_buffers_on_return(self):
        # With the cyclic collector off, nothing these calls allocated
        # outlives them: a reference cycle through the working arrays (a
        # recursive closure, say, or one that refers to the owner of greedy
        # selection's 1.5 MB prefix) would hold them until the next
        # collection.  A repeated greedy run only replaces the valuations
        # the model records for its accepted steps.
        model = make_model([(0.7, 0.3)] * 16 + [(0.6, 0.45)])
        ids = [item.id for item in model.evidence]
        exact_ev_subset(model, ids)  # untraced first, as above
        greedy_select(model)
        compile_table(model, ids)
        collecting = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            exact_ev_subset(model, ids)
            greedy_select(model)
            compile_table(model, ids)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            if collecting:
                gc.enable()
        assert held <= 8 << 10

    @pytest.mark.parametrize("size", [0, 5, 13])
    def test_a_prefix_is_one_reservation(self, size):
        buffers = empty_prefix(size).buffers
        assert buffers.shape == (3, 1 << size)
        assert buffers.dtype == np.float64 and buffers.flags.c_contiguous

    def test_extend_writes_into_the_one_reservation(self):
        model = make_model([(0.7, 0.3), (0.6, 0.45), (0.9, 0.2), (0.55, 0.5), (0.8, 0.1)])
        ids = [item.id for item in model.evidence]
        prefix, child = empty_prefix(len(ids)), empty_prefix(len(ids))
        for n, item in enumerate(model.evidence, 1):
            extend(prefix, item, out=child)
            extend(prefix, item)
            expected = np.array(concatenated_arrays(model, ids[:n]))
            for extended in (prefix, child):
                assert extended.arrays.shape == (3, 1 << n)
                assert np.shares_memory(extended.arrays, extended.buffers)
                assert extended.arrays.tobytes() == expected.tobytes()

    def test_an_extend_allocates_no_arrays(self):
        # The 2^13 entries an extension writes are 192 KiB; only the view
        # of the extended prefix is allocated.
        model = make_model([(0.7, 0.3)] * 13)
        prefix = empty_prefix(13)
        for item in model.evidence[:12]:
            extend(prefix, item)
        last = model.evidence[12]
        last.record  # built on first read, so built untraced
        assert traced_peak(lambda: extend(prefix, last)) <= 1 << 10

    @pytest.mark.parametrize("size, items", [(0, 8), (4, 6), (7, 4), (9, 1), (11, 1), (11, 2)])
    def test_subtree_peak_per_entry(self, size, items):
        # Every assignment acts (w_star = -inf), the largest gathers.
        model = make_model([(0.7, 0.3)] * (size + items))
        prefix = empty_prefix(size)
        for item in model.evidence[:size]:
            extend(prefix, item)

        def value_all():
            for _ in subtree_probabilities(prefix, model.evidence[size:], range(items), -np.inf):
                pass

        value_all()
        entries = 3**items << size
        assert traced_peak(value_all) <= sact.exact.SUBTREE_BYTES * entries

    def test_the_largest_pass_peak_per_entry(self):
        # The largest pass the rule admits: the subtree of 9 items at depth
        # 0, whose largest adjacent levels, 7 and 6 items, hold
        # C(9, 7) * 2^7 + C(9, 6) * 2^6 = 9984 entries; at 10 items they hold
        # 28 800.  Every assignment acts (w_star = -inf), the largest gathers.
        model = make_model([(0.7, 0.3)] * 9)
        entries = max((comb(9, s) << s) + (comb(9, s - 1) << s - 1) for s in range(1, 10))
        assert entries == 9984 and sact.exact.run_fits(1, 1, 8)
        assert not sact.exact.run_fits(1, 1, 9)

        def value_all():
            sact.exact.walk(model.evidence, empty_prefix(0), -np.inf, (), 0, lambda *level: None)

        value_all()
        assert traced_peak(value_all) <= sact.exact.SUBTREE_BYTES * entries

    @pytest.mark.parametrize("size, count", [(13, 1), (10, 8), (6, 128), (2, 1 << 11), (0, 1 << 13)])
    def test_a_step_at_the_bound_peak_per_entry(self, size, count):
        # count * 2^(size + 1) = BLOCK entries, and every
        # assignment acts (w_star = -inf), the largest gathers.
        model = make_model([(0.7, 0.3)] * (size + count))
        prefix = empty_prefix(size)
        for item in model.evidence[:size]:
            extend(prefix, item)
        candidates = model.evidence[size:]
        entries = count << size + 1
        assert entries == sact.exact.BLOCK

        def value_all():
            for _ in child_probabilities(prefix, candidates, -np.inf):
                pass

        value_all()
        assert traced_peak(value_all) <= sact.exact.SUBTREE_BYTES * entries


class TestMemoryBudget:
    # One (3, 2^4) float64 array: the exact prefix of a 5-item subset
    # fits, that of a 6-item subset (768 bytes) does not.
    BUDGET = 3 * 8 << 4

    @pytest.fixture
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(sact.exact, "MEMORY_BUDGET", self.BUDGET)

    def test_a_prefix_at_the_budget_is_reserved(self, small_budget):
        assert len(empty_prefix(4).buffers[0]) == 16
        model = make_model([(0.7, 0.3)] * 5)
        ids = [item.id for item in model.evidence]
        result = exact_ev_subset(model, ids)
        assert (result.ev, result.p_act_given_h, result.p_act_given_nh) == (
            from_scratch_evaluation(model, ids)
        )

    def test_a_table_over_the_budget_is_refused_before_it_is_reserved(self, small_budget):
        model = make_model([(0.7, 0.3)] * 6)
        with pytest.raises(CapExceededError) as excinfo:
            compile_table(model, [item.id for item in model.evidence])
        assert str(excinfo.value) == (
            "a table of 6 items would reserve 528 bytes, above the memory budget of 384 bytes"
        )

    def test_a_table_over_the_budget_is_refused_before_the_threshold(self, small_budget):
        # Flat utilities have no threshold, but the budget is checked first.
        model = make_model([(0.7, 0.3)] * 6, utilities=UtilityTable(0.0, 0.0, 0.0, 0.0))
        with pytest.raises(CapExceededError, match="memory budget"):
            compile_table(model, [item.id for item in model.evidence])
        with pytest.raises(DomainError, match="degenerate utilities"):
            compile_table(model, ["e1"])

    def test_a_table_counts_its_sums_bits_and_bytes(self, monkeypatch):
        # 2^5 weight sums of 8 bytes, 4 bytes of bits and their 4-byte copy.
        model = make_model([(0.7, 0.3)] * 5)
        ids = [item.id for item in model.evidence]
        expected = compile_table(model, ids)
        monkeypatch.setattr(sact.exact, "MEMORY_BUDGET", 264)
        assert compile_table(model, ids) == expected
        monkeypatch.setattr(sact.exact, "MEMORY_BUDGET", 263)
        with pytest.raises(CapExceededError) as excinfo:
            compile_table(model, ids)
        assert str(excinfo.value) == (
            "a table of 5 items would reserve 264 bytes, above the memory budget of 263 bytes"
        )

    def test_a_prefix_over_the_budget_is_refused_before_it_is_reserved(self, small_budget):
        with pytest.raises(CapExceededError) as excinfo:
            empty_prefix(5)
        assert str(excinfo.value) == (
            "a prefix of 5 items would reserve 768 bytes, above the memory budget of 384 bytes"
        )

    def test_every_reservation_honours_the_budget(self, small_budget):
        model = make_model([(0.7, 0.3)] * 6)
        ids = [item.id for item in model.evidence]
        for call in (
            lambda: exact_ev_subset(model, ids),
            lambda: exact_ev_compute(model),
            lambda: exhaustive_subset_search(model),
            lambda: greedy_select(model),
            # One block of 2^6 weight sums, 512 bytes, 8 bytes of bits and
            # their 8-byte copy.
            lambda: compile_table(model, ids),
        ):
            with pytest.raises(CapExceededError, match="memory budget"):
                call()

    def test_an_over_budget_search_values_no_subset(self, small_budget, monkeypatch):
        valued = []
        monkeypatch.setattr(sact.exact, "act_probabilities", lambda *args: valued.append(args))
        monkeypatch.setattr(sact.exact, "child_probabilities", lambda *args: valued.append(args))
        monkeypatch.setattr(sact.exact, "subtree_probabilities", lambda *args: valued.append(args))
        with pytest.raises(CapExceededError) as excinfo:
            exhaustive_subset_search(make_model([(0.7, 0.3)] * 6))
        assert str(excinfo.value) == (
            "a prefix of 5 items would reserve 768 bytes, above the memory budget of 384 bytes"
        )
        assert valued == []

    def test_a_subtree_over_the_budget_is_walked(self, monkeypatch):
        # Every prefix of a 5-item search fits the budget; the level arrays
        # of its larger subtrees would not, so those are walked instead.
        model = make_model([(0.7, 0.3)] * 4 + [(0.6, 0.45)])
        expected = exhaustive_subset_search(model)
        monkeypatch.setattr(sact.exact, "MEMORY_BUDGET", self.BUDGET)
        assert not sact.exact.fits(3**5)
        assert exhaustive_subset_search(model) == expected

    def test_the_default_caps_fit_the_budget(self):
        # Valuing a subset at the enumeration cap reserves the three arrays
        # of its first cap - 1 items; compiling at the table cap reserves
        # less than the weight sums of all its items: the sums of its first
        # log2 BLOCK items and of one branch of each later one, the bits and
        # their copy as bytes.
        assert 3 * 8 << (DEFAULT_ENUMERATION_CAP - 1) <= sact.exact.MEMORY_BUDGET
        assert 8 << DEFAULT_TABLE_CAP <= sact.exact.MEMORY_BUDGET
        k = sact.exact.BLOCK.bit_length() - 1
        blocks = (DEFAULT_TABLE_CAP - k + 1) * 8 << k
        assert blocks + 2 * (1 << DEFAULT_TABLE_CAP - 3) <= 8 << DEFAULT_TABLE_CAP


def imported(path: Path) -> set[str]:
    """The modules a source file imports, and each name it imports from one
    as ``module.name``: ``from . import exact`` in ``sact`` gives
    ``sact.exact``, and ``from .exact import walk`` gives ``sact.exact`` and
    ``sact.exact.walk``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["sact" if node.level else "", node.module]))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


class TestOneKernelLayer:
    """The kernels sit behind one evaluator: read from the source of every
    module of the package."""

    SOURCES = sorted(Path(sact.exact.__file__).parent.glob("*.py"))

    def importers(self, module: str) -> list[str]:
        return [
            path.name for path in self.SOURCES
            if any(name == module or name.startswith(module + ".") for name in imported(path))
        ]

    def test_only_the_exact_kernel_imports_numpy(self):
        assert self.importers("numpy") == ["exact.py"]

    def test_only_the_table_module_imports_the_exact_kernel(self):
        # Its evaluator picks the kernel, and nothing else reaches past it.
        assert self.importers("sact.exact") == ["table.py"]

    def test_no_module_imports_the_gaussian_prefix_functions(self):
        names = ("empty_prefix", "extend", "child_probabilities")
        functions = {f"sact.gaussian.{name}" for name in names}
        assert [path.name for path in self.SOURCES if imported(path) & functions] == []
