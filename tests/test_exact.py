import gc
import random
import tracemalloc

import numpy as np
import pytest

from sact import (
    CapExceededError,
    CostModel,
    UnknownEvidenceError,
    compile_table,
    exact_ev_compute,
    exact_ev_subset,
    exhaustive_subset_search,
    greedy_select,
    niv,
    TablePolicy,
    threshold,
)

import sact.exact
from sact.exact import (
    act_probabilities,
    empty_prefix,
    extend,
    subtree_probabilities,
    weight_sums,
)
from sact.table import DEFAULT_TABLE_CAP

from helpers import (
    brute_force_evaluation,
    concatenated_arrays,
    from_scratch_evaluation,
    identity_models,
    m1,
    make_model,
    random_model,
    tie_models,
)


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


class TestExhaustiveLevels:
    """Exhaustive search walks large subtrees and values small ones level by
    level, below ``sact.exact.SUBTREE_ENTRIES``: every split between the two
    gives the same subset and the same floats."""

    @staticmethod
    def models():
        rng = random.Random(233)
        return identity_models(239) + [random_model(rng, m) for m in range(11)]

    @pytest.mark.parametrize("entries", [64, sact.exact.SUBTREE_ENTRIES, 1 << 30])
    def test_levels_equal_the_walk(self, entries, monkeypatch):
        def searched():
            out = []
            for model in self.models():
                subset, report = exhaustive_subset_search(model)
                out.append((subset, report.ev.hex(), report.niv.hex()))
            return out

        monkeypatch.setattr(sact.exact, "SUBTREE_ENTRIES", 0)
        walked = searched()
        monkeypatch.setattr(sact.exact, "SUBTREE_ENTRIES", entries)
        assert searched() == walked

    @pytest.mark.parametrize("entries", [0, 64, sact.exact.SUBTREE_ENTRIES, 1 << 30])
    @pytest.mark.parametrize("eval_cap", [3, 5])
    def test_evaluation_cap_is_refused_before_any_subset_is_valued(
        self, entries, eval_cap, monkeypatch
    ):
        valued = []
        monkeypatch.setattr(sact.exact, "SUBTREE_ENTRIES", entries)
        monkeypatch.setattr(sact.exact, "act_probabilities", lambda *args: valued.append(args))
        monkeypatch.setattr(sact.exact, "subtree_probabilities", lambda *args: valued.append(args))
        with pytest.raises(CapExceededError) as excinfo:
            exhaustive_subset_search(make_model([(0.6, 0.4)] * 8), eval_cap=eval_cap)
        n = eval_cap + 1
        assert str(excinfo.value) == (
            f"subset of {n} items exceeds the enumeration cap of {eval_cap} "
            f"(would require 2^{n} assignments)"
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
    # subset.  The kernel builds the three arrays of the first 17 items and
    # gathers the acting probabilities of the last item into one array;
    # enumerating all 18 items' arrays took about 9 units.
    UNIT = 8 * (1 << 17)
    # A float64 array over all 2^18 assignments of the n = 18 subset.
    FULL = 8 * (1 << 18)

    @pytest.mark.parametrize("p_h", [0.5, 0.999])
    def test_exact_ev_subset_peak_at_n_18(self, p_h):
        # At p_h = 0.5 about half the assignments act; at 0.999 all of them
        # do, the largest gather.
        model = make_model([(0.7, 0.3)] * 17 + [(0.6, 0.45)], p_h=p_h)
        subset = [item.id for item in model.evidence]
        assert traced_peak(lambda: exact_ev_subset(model, subset)) <= 7 * self.UNIT

    def test_weight_sums_peak_at_n_18(self):
        # The weight sums are extended in place in the one array returned;
        # building each step's array anew took 2.5 arrays.
        model = make_model([(0.7, 0.3)] * 17 + [(0.6, 0.45)])
        subset = [item.id for item in model.evidence]
        assert traced_peak(lambda: weight_sums(model, subset)) <= 1.25 * self.FULL

    def test_compile_table_peak_at_n_18(self):
        # The weight sums plus the boolean decisions (1/8 of an array) and
        # the packed bits (1/64).
        model = make_model([(0.7, 0.3)] * 17 + [(0.6, 0.45)])
        subset = [item.id for item in model.evidence]
        assert traced_peak(lambda: compile_table(model, subset)) <= 1.25 * self.FULL

    def test_exhaustive_peak_at_m_15(self):
        # One prefix per depth 0 .. 14, three arrays of 2^depth entries each
        # (0.75 MiB together), plus the gather of the one 15-item subset.
        # A prefix of all 15 items would add 0.75 MiB that no subset uses.
        # The walk reaches the deepest prefixes last, after every subtree
        # valued level by level has freed its arrays.
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

    @pytest.mark.parametrize("size, items", [(0, 8), (4, 6), (7, 4), (9, 1), (11, 1), (11, 2)])
    def test_subtree_peak_per_entry(self, size, items):
        # Every assignment acts (w_star = -inf), the largest gathers.
        model = make_model([(0.7, 0.3)] * (size + items))
        prefix = empty_prefix(size)
        for item in model.evidence[:size]:
            extend(prefix, item)

        def value_all():
            for _ in subtree_probabilities(prefix, (), model.evidence[size:], -np.inf):
                pass

        value_all()
        entries = 3**items << size
        assert traced_peak(value_all) <= sact.exact.SUBTREE_BYTES * entries


class TestMemoryBudget:
    # Three float64 buffers of 2^4 entries: the exact prefix of a 5-item
    # subset fits, that of a 6-item subset (768 bytes) does not.
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
            # The weight sums alone: one buffer of 2^6 entries, 512 bytes.
            lambda: compile_table(model, ids),
        ):
            with pytest.raises(CapExceededError, match="memory budget"):
                call()

    def test_an_over_budget_search_values_no_subset(self, small_budget, monkeypatch):
        valued = []
        monkeypatch.setattr(sact.exact, "act_probabilities", lambda *args: valued.append(args))
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
        assert not sact.exact.subtree_fits(0, 5)
        assert exhaustive_subset_search(model) == expected

    def test_the_default_caps_fit_the_budget(self):
        # Valuing a subset at the enumeration cap reserves the three arrays
        # of its first cap - 1 items; compiling at the table cap reserves
        # the weight sums of all its items.
        assert 3 * 8 << (sact.exact.DEFAULT_ENUMERATION_CAP - 1) <= sact.exact.MEMORY_BUDGET
        assert 8 << DEFAULT_TABLE_CAP <= sact.exact.MEMORY_BUDGET
