import dataclasses
import pickle
import random
from collections import OrderedDict
from types import MappingProxyType

import numpy as np
import pytest

import sact.cli
import sact.exact
import sact.table
from sact import (
    Action,
    CapExceededError,
    CostModel,
    DomainError,
    FormatError,
    MethodError,
    ObservationError,
    UnknownEvidenceError,
    compile_table,
    exact_ev_subset,
    exhaustive_subset_search,
    gaussian_ev_subset,
    greedy_select,
    model_from_json,
    model_to_json,
    niv,
    optimal_action,
    read_table,
    table_lookup,
    TablePolicy,
    UtilityTable,
    threshold,
    write_table,
)

from helpers import (
    ZERO_COSTS,
    concatenated_arrays,
    from_scratch_evaluation,
    from_scratch_gaussian,
    identity_models,
    item_formulas,
    m1,
    make_model,
    random_costs,
    random_model,
    small_models,
    tie_models,
)


class TestGreedySelect:
    def test_information_free_candidates_are_never_added(self):
        costs = CostModel(0, 0, 0, 0, 0.5, 0, 1.0)
        model = make_model([(0.6, 0.6), (0.3, 0.3)], costs=costs)
        subset, trace = greedy_select(model)
        assert subset == ()
        assert trace.stopped_reason == "no-improvement"
        assert trace.kept == 0

    def test_a_best_table_whose_niv_overflows_is_refused(self):
        # The empty table is worth r * 0.5e300 = 1.5e308; the table over e1, r * 0.8e300.
        model = m1(utilities=UtilityTable(1e300, 0.0, 0.0, 1e300),
                   costs=CostModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3e8))
        with pytest.raises(DomainError, match="value of the best next table is inf"):
            greedy_select(model)

    def test_a_negative_lookahead_is_refused(self):
        with pytest.raises(MethodError) as excinfo:
            greedy_select(m1(), lookahead=-1)
        assert str(excinfo.value) == "lookahead depth must be >= 0"

    def test_an_unknown_method_is_refused(self):
        with pytest.raises(MethodError) as excinfo:
            greedy_select(m1(), method="sampled")
        assert str(excinfo.value) == "unknown method 'sampled'"

    def test_free_useful_item_is_taken(self):
        subset, trace = greedy_select(m1())
        assert subset == ("e1",)
        assert trace.stopped_reason == "all-selected"
        assert len(trace.steps) == 1
        step = trace.steps[0]
        assert step.evidence_id == "e1"
        assert step.niv_before == pytest.approx(0.5, abs=1e-12)
        assert step.niv_after == pytest.approx(0.8, abs=1e-12)

    def test_zero_evidence_model(self):
        subset, trace = greedy_select(make_model([]))
        assert subset == ()
        assert trace.stopped_reason == "all-selected"

    def test_table_cap_stops_selection(self):
        model = make_model([(0.8, 0.2), (0.7, 0.3)])
        subset, trace = greedy_select(model, table_cap=1)
        assert subset == ("e1",)
        assert trace.stopped_reason == "cap"

    def test_exact_beyond_enumeration_cap_recommends_gaussian(self):
        model = make_model([(0.8, 0.2), (0.7, 0.3)])
        with pytest.raises(CapExceededError, match="gaussian"):
            greedy_select(model, enum_cap=1)

    def test_gaussian_method_runs_without_enumeration(self):
        model = make_model([(0.7, 0.3)] * 30)
        subset, _ = greedy_select(model, method="gaussian", enum_cap=5, table_cap=30)
        assert len(subset) <= 30

    def test_trace_strictly_increases_without_lookahead(self):
        rng = random.Random(113)
        for _ in range(40):
            model = random_model(rng, rng.randint(0, 6))
            _, trace = greedy_select(model)
            for step in trace.steps:
                assert step.niv_after > step.niv_before
            assert trace.kept == len(trace.steps)

    def test_never_beats_exhaustive_search(self):
        rng = random.Random(127)
        for _ in range(30):
            model = random_model(rng, rng.randint(0, 6))
            _, best = exhaustive_subset_search(model)
            for lookahead in (0, 1, 2):
                subset, _ = greedy_select(model, lookahead=lookahead)
                achieved = niv(
                    model,
                    TablePolicy(subset),
                    exact_ev_subset(model, subset).ev,
                    method="exact",
                ).niv
                assert achieved <= best.niv + 1e-12

    def test_lookahead_escapes_a_local_maximum(self):
        # One item alone cannot reach the threshold (w = ln(7/3) < ln 3), so
        # singletons only add memory cost; the pair acts on double-positive
        # cases and is worth the four cells.
        costs = CostModel(0, 0, 0, 0, 0.01, 0, 1.0)
        model = make_model([(0.7, 0.3), (0.7, 0.3)], p_h=0.25, costs=costs)
        flat, flat_trace = greedy_select(model, lookahead=0)
        assert flat == ()
        assert flat_trace.stopped_reason == "no-improvement"
        subset, trace = greedy_select(model, lookahead=1)
        assert subset == ("e1", "e2")
        assert trace.kept == 2
        final = trace.steps[-1]
        assert final.niv_after == pytest.approx(0.805 - 0.04, abs=1e-12)

    def test_failed_exploration_rewinds_to_best_prefix(self):
        costs = CostModel(0, 0, 0, 0, 0.1, 0, 1.0)
        model = make_model([(0.7, 0.3), (0.7, 0.3)], p_h=0.25, costs=costs)
        subset, trace = greedy_select(model, lookahead=1)
        assert subset == ()
        assert trace.kept == 0
        assert len(trace.steps) == 1  # the abandoned exploration remains visible

    @pytest.mark.parametrize("method", ["exact", "gaussian"])
    def test_costs_only_choose_where_the_zero_cost_ranking_stops(self, method):
        # For r > 0 each step keeps the candidate of greatest EV (ties to the
        # smaller id) whatever the costs, so every trace walks one ranking.
        rng = random.Random(211)
        for model in small_models(rng, 80):
            m = len(model.evidence)
            free = dataclasses.replace(model, costs=ZERO_COSTS)
            _, full = greedy_select(free, method=method, lookahead=m, table_cap=m)
            ranking = [step.evidence_id for step in full.steps]
            assert sorted(ranking) == sorted(item.id for item in model.evidence)
            for _ in range(3):
                priced = dataclasses.replace(model, costs=random_costs(rng))
                for lookahead in (0, 1, 2):
                    subset, trace = greedy_select(priced, method=method, lookahead=lookahead)
                    ids = [step.evidence_id for step in trace.steps]
                    assert ids == ranking[: len(ids)], (model, priced.costs, lookahead)
                    assert subset == tuple(ranking[: trace.kept])


class TestExhaustiveSearch:
    def test_a_best_table_whose_niv_overflows_is_refused(self):
        # Every subset is worth inf, so the smallest, (), would win unchecked.
        model = m1(utilities=UtilityTable(1e300, 0.0, 0.0, 1e300),
                   costs=CostModel(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e308))
        with pytest.raises(DomainError) as excinfo:
            exhaustive_subset_search(model)
        assert str(excinfo.value) == (
            "the net inferential value of the best table is inf, not a finite number: "
            "the model's utilities, costs or r overflow a float"
        )


class TestCompileTable:
    def test_single_item_table(self):
        table = compile_table(m1(), ["e1"])
        assert table.action_at(0) is Action.NO_ACT
        assert table.action_at(1) is Action.ACT
        assert table.w_star_used == 0.0
        assert table.entries == 2

    def test_empty_subset_boundary_acts(self):
        table = compile_table(m1(), [])
        assert table.entries == 1
        assert table.action_at(0) is Action.ACT

    def test_two_item_table_bit_layout(self):
        # Hand weight sums with w1 = ln 4, w2 = ln(7/3):
        # 0b00: -w1 - w2 < 0, 0b01: +w1 - w2 > 0, 0b10: -w1 + w2 < 0,
        # 0b11: +w1 + w2 > 0; bit 0 is the first listed id.
        model = make_model([(0.8, 0.2), (0.7, 0.3)])
        table = compile_table(model, ["e1", "e2"])
        assert [table.action_at(i) for i in range(4)] == [
            Action.NO_ACT,
            Action.ACT,
            Action.NO_ACT,
            Action.ACT,
        ]

    @pytest.mark.parametrize("index", [-1, 2])
    def test_an_index_out_of_range_is_refused(self, index):
        table = compile_table(m1(), ["e1"])
        with pytest.raises(IndexError) as excinfo:
            table.action_at(index)
        assert str(excinfo.value) == f"assignment index {index} out of range for 2 entries"

    def test_cap_refusal(self):
        model = make_model([(0.6, 0.4)] * 4)
        with pytest.raises(CapExceededError):
            compile_table(model, [item.id for item in model.evidence], cap=3)

    @pytest.mark.parametrize("block", [8, 16, 64])
    def test_small_blocks_write_the_same_bits(self, block, monkeypatch):
        # Blocks of one, two and eight bytes of bits, over subsets of fewer,
        # as many and more items than log2 BLOCK.
        rng = random.Random(269)
        models = tie_models() + [random_model(rng, m) for m in range(15)]
        subsets = [[item.id for item in model.evidence] for model in models]
        expected = [compile_table(model, subset) for model, subset in zip(models, subsets)]
        monkeypatch.setattr(sact.exact, "BLOCK", block)
        assert [compile_table(model, subset) for model, subset in zip(models, subsets)] == expected

    def test_every_entry_matches_the_threshold_rule(self):
        rng = random.Random(131)
        for m in (1, 5, 12):
            model = random_model(rng, m)
            subset = [item.id for item in model.evidence]
            table = compile_table(model, subset)
            thr = threshold(model.utilities, model.p_h)
            lookup = model.evidence_map()
            for index in range(table.entries):
                w = 0.0
                for i, evidence_id in enumerate(subset):
                    item = lookup[evidence_id]
                    pair = item_formulas(item.alpha, item.beta)
                    w += pair.w_pos if (index >> i) & 1 else pair.w_neg
                assert table.action_at(index) is optimal_action(w, thr)


class TestTableLookup:
    def test_positive_and_negative_cases(self):
        table = compile_table(m1(), ["e1"])
        assert table_lookup(table, {"e1": True}) is Action.ACT
        assert table_lookup(table, {"e1": False}) is Action.NO_ACT

    def test_empty_table_lookup(self):
        table = compile_table(m1(), [])
        assert table_lookup(table, {}) is Action.ACT

    def test_partial_or_padded_observations_rejected(self):
        model = make_model([(0.8, 0.2), (0.7, 0.3)])
        table = compile_table(model, ["e1", "e2"])
        with pytest.raises(ObservationError, match="missing"):
            table_lookup(table, {"e1": True})
        with pytest.raises(ObservationError, match="unexpected"):
            table_lookup(table, {"e1": True, "e2": False, "e9": True})

    def test_round_trips_against_observation_indexing(self):
        rng = random.Random(137)
        model = random_model(rng, 6)
        subset = [item.id for item in model.evidence]
        table = compile_table(model, subset)
        for index in range(table.entries):
            observation = {
                evidence_id: bool((index >> i) & 1) for i, evidence_id in enumerate(subset)
            }
            assert table_lookup(table, observation) is table.action_at(index)

    @pytest.mark.parametrize("observation, message", [
        ({"e1": True, "e3": False}, "missing ids ['e2']"),
        ({"e3": True}, "missing ids ['e1', 'e2']"),
        ({"e1": True, "e2": True, "e3": True, "e9": False, "e0": True},
         "unexpected ids ['e0', 'e9']"),
        ({"e3": True, "e9": False, "e1": True}, "missing ids ['e2'], unexpected ids ['e9']"),
        ({}, "missing ids ['e1', 'e2', 'e3']"),
    ])
    def test_observation_error_messages_are_verbatim(self, observation, message):
        table = compile_table(make_model([(0.8, 0.2), (0.7, 0.3), (0.6, 0.4)]), ["e1", "e2", "e3"])
        with pytest.raises(ObservationError) as caught:
            table_lookup(table, observation)
        assert str(caught.value) == "observation must cover exactly the compiled subset: " + message

    def test_read_only_and_ordered_mappings_look_up_as_a_dict(self):
        model = random_model(random.Random(149), 4)
        subset = [item.id for item in model.evidence]
        table = compile_table(model, subset)
        for index in range(table.entries):
            observation = {
                evidence_id: bool((index >> i) & 1) for i, evidence_id in enumerate(subset)
            }
            action = table_lookup(table, observation)
            assert table_lookup(table, MappingProxyType(observation)) is action
            assert table_lookup(table, OrderedDict(reversed(observation.items()))) is action

    def test_zero_and_one_select_the_bits_of_false_and_true(self):
        model = random_model(random.Random(151), 3)
        subset = [item.id for item in model.evidence]
        table = compile_table(model, subset)
        for index in range(table.entries):
            flags = [(index >> i) & 1 for i in range(len(subset))]
            as_ints = dict(zip(subset, flags))
            as_bools = {evidence_id: bool(flag) for evidence_id, flag in as_ints.items()}
            assert table_lookup(table, as_ints) is table_lookup(table, as_bools)
            assert table_lookup(table, as_ints) is table.action_at(index)

    def test_a_repeated_id_sets_both_of_its_bits(self):
        # Only entry 0b11 acts, so a lookup that set one of the two bits
        # would not act.
        table = sact.table.CompiledTable(("a", "a"), bytes([0b1000]), 0.0, bytes(32))
        assert table_lookup(table, {"a": True}) is Action.ACT
        assert table_lookup(table, {"a": False}) is Action.NO_ACT

    def test_a_short_bit_array_raises_index_error(self):
        # Four ids index 16 entries, two bytes of bits; one byte is given.
        table = sact.table.CompiledTable(("a", "b", "c", "d"), bytes([0xFF]), 0.0, bytes(32))
        assert table_lookup(table, dict.fromkeys("abcd", False)) is Action.ACT
        with pytest.raises(IndexError):
            table_lookup(table, {"a": False, "b": False, "c": False, "d": True})

    def test_every_lookup_matches_the_bits_and_the_threshold_rule(self):
        rng = random.Random(157)
        models = tie_models() + [random_model(rng, n) for n in range(11)]
        for model in models:
            subset = [item.id for item in model.evidence]
            rng.shuffle(subset)
            table = compile_table(model, subset)
            blob = write_table(table)
            copy = read_table(blob)
            thr = threshold(model.utilities, model.p_h)
            lookup = model.evidence_map()
            pairs = [item_formulas(lookup[i].alpha, lookup[i].beta) for i in subset]
            keys = subset[:]
            for index in range(table.entries):
                w = 0.0
                for i, pair in enumerate(pairs):
                    w += pair.w_pos if (index >> i) & 1 else pair.w_neg
                rng.shuffle(keys)
                observation = {
                    evidence_id: bool((index >> subset.index(evidence_id)) & 1)
                    for evidence_id in keys
                }
                expected = optimal_action(w, thr)
                assert table.action_at(index) is expected
                # The first lookup of a table is its cold one.
                assert table_lookup(table, observation) is expected
                assert table_lookup(table, observation) is expected
                assert table_lookup(copy, observation) is expected
            assert table == copy and hash(table) == hash(copy)
            assert repr(table) == repr(copy)
            assert write_table(table) == blob == write_table(copy)
            assert pickle.loads(pickle.dumps(table)) == copy


class TestSerialization:
    def test_byte_round_trip_is_identical(self):
        rng = random.Random(139)
        for m in (0, 1, 3, 9):
            model = random_model(rng, m)
            table = compile_table(model, [item.id for item in model.evidence])
            blob = write_table(table)
            again = read_table(blob)
            assert again == table
            assert write_table(again) == blob

    def test_header_layout(self):
        table = compile_table(m1(), ["e1"])
        blob = write_table(table)
        assert blob[:4] == b"SACT"
        assert blob[4] == 1
        assert int.from_bytes(blob[5:7], "little") == 1

    def test_bad_magic_rejected(self):
        with pytest.raises(FormatError, match="magic"):
            read_table(b"NOPE" + bytes(64))

    def test_unknown_version_rejected(self):
        blob = bytearray(write_table(compile_table(m1(), ["e1"])))
        blob[4] = 2
        with pytest.raises(FormatError, match="version"):
            read_table(bytes(blob))

    def test_truncation_rejected(self):
        blob = write_table(compile_table(m1(), ["e1"]))
        with pytest.raises(FormatError, match="truncated"):
            read_table(blob[:-1])

    def test_trailing_garbage_rejected(self):
        blob = write_table(compile_table(m1(), ["e1"]))
        with pytest.raises(FormatError, match="trailing"):
            read_table(blob + b"\x00")

    def test_non_utf8_id_rejected(self):
        blob = bytearray(write_table(compile_table(m1(), ["e1"])))
        blob[9] = 0xFF  # corrupt the id byte
        with pytest.raises(FormatError, match="UTF-8"):
            read_table(bytes(blob))

    def test_empty_subset_blob_layout_is_frozen(self):
        # magic(4) + version(1) + n(2) + w_star(8) + digest(32) + bits(1)
        table = compile_table(m1(), [])
        blob = write_table(table)
        assert len(blob) == 48
        assert blob[:7] == b"SACT\x01\x00\x00"
        assert blob[47] & 1 == 1  # the single entry acts

    @pytest.mark.parametrize("change,message", [
        ({"model_digest": bytes(31)}, "model digest must be exactly 32 bytes"),
        ({"subset": ("x" * 0x10000,)}, "evidence id too long to serialize: 'xxx"),
        ({"action_bits": b"\x00\x00"}, "action bit array has 2 bytes, expected 1"),
    ], ids=["digest", "long-id", "bits"])
    def test_writer_refuses_a_table_it_cannot_frame(self, change, message):
        table = dataclasses.replace(compile_table(m1(), ["e1"]), **change)
        with pytest.raises(FormatError) as excinfo:
            write_table(table)
        assert str(excinfo.value).startswith(message)

    def test_an_id_of_the_largest_length_is_written(self):
        table = dataclasses.replace(compile_table(m1(), ["e1"]), subset=("x" * 0xFFFF,))
        assert read_table(write_table(table)) == table

    def test_reader_survives_random_corruption(self):
        rng = random.Random(181)
        model = make_model([(0.8, 0.2), (0.7, 0.3), (0.6, 0.35)])
        blob = write_table(compile_table(model, ["e1", "e2", "e3"]))
        for _ in range(300):
            mutated = bytearray(blob)
            for _ in range(rng.randint(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            if rng.random() < 0.3:
                mutated = mutated[: rng.randrange(len(mutated))]
            try:
                read_table(bytes(mutated))
            except FormatError:
                pass  # rejection is the expected failure mode


class TestPrefixKernelBitIdentity:
    """Greedy selection and table bits against full arrays enumerated from
    scratch, compared with ``==``."""

    @pytest.mark.parametrize("method", ["exact", "gaussian"])
    @pytest.mark.parametrize("lookahead", [0, 1, 2])
    def test_greedy_equals_from_scratch_valuation(self, monkeypatch, lookahead, method):
        models = list(identity_models(229))
        kept = [greedy_select(model, method=method, lookahead=lookahead) for model in models]
        # The same hill-climb with every candidate valued from scratch: on
        # the full 2^n arrays, or on the moments summed over the subset.
        def from_scratch(model, method, largest, enum_cap):
            reference = from_scratch_evaluation if method == "exact" else from_scratch_gaussian

            def step(subset, n, lasts):
                return [reference(model, [*subset[:n], last])[1:] for last in lasts]

            return (lambda subset: reference(model, subset)[1:]), step

        monkeypatch.setattr(sact.table, "_evaluator", from_scratch)
        again = [greedy_select(model, method=method, lookahead=lookahead) for model in models]
        assert kept == again
        assert any(len(trace.steps) >= 5 for _, trace in kept)

    def test_table_bits_equal_from_scratch(self):
        for model in identity_models(229):
            subset = [item.id for item in model.evidence]
            weights, _, _ = concatenated_arrays(model, subset)
            acts = weights >= threshold(model.utilities, model.p_h).w_star
            bits = np.packbits(acts, bitorder="little").tobytes()
            assert compile_table(model, subset).action_bits == bits


def hexed(evaluation) -> tuple:
    """An evaluation's fields, floats by ``float.hex``."""
    return tuple(v.hex() if isinstance(v, float) else v for v in vars(evaluation).values())


def record_models() -> list:
    """The identity models (random and tie models) and more random models."""
    rng = random.Random(17)
    return identity_models(211) + [random_model(rng, rng.randint(2, 9)) for _ in range(8)]


# Free compilation of eight informative items: greedy selection keeps several.
EIGHT_ITEMS = [(0.9 - 0.05 * i, 0.2 + 0.03 * i) for i in range(8)]


class TestValuationRecord:
    """Greedy selection records each accepted step's valuation on the model,
    and the ``*_ev_subset`` valuations read it."""

    @pytest.mark.parametrize("table_cap", [1, -1, sact.table.DEFAULT_TABLE_CAP])
    @pytest.mark.parametrize("lookahead", [0, 1, 2])
    @pytest.mark.parametrize("method", ["exact", "gaussian"])
    def test_valuations_after_greedy_equal_a_fresh_model(self, method, lookahead, table_cap):
        for model in record_models():
            text = model_to_json(model)
            subset, trace = greedy_select(model, method=method, lookahead=lookahead,
                                          table_cap=table_cap)
            ids = [item.id for item in model.evidence]
            accepted = [step.evidence_id for step in trace.steps]
            for probe in {tuple(subset), tuple(accepted), tuple(accepted[:-1]), tuple(ids)}:
                fresh = model_from_json(text)
                assert hexed(exact_ev_subset(model, probe)) == hexed(exact_ev_subset(fresh, probe))
                assert hexed(gaussian_ev_subset(model, probe)) == hexed(
                    gaussian_ev_subset(fresh, probe))

    def test_the_record_is_read_not_valued_again(self, monkeypatch):
        model = make_model(EIGHT_ITEMS)
        subset, _ = greedy_select(model)
        assert len(subset) >= 2
        expected = exact_ev_subset(model_from_json(model_to_json(model)), subset)

        def refuse(*args):
            raise AssertionError("valued a recorded subset again")

        monkeypatch.setattr(sact.table, "_evaluator", refuse)
        assert exact_ev_subset(model, subset) == expected
        assert expected.enumerated_count == 1 << len(subset)

    def test_record_holds_the_accepted_steps_only(self):
        # Runs with other caps or lookahead accept prefixes of the same steps.
        model = make_model(EIGHT_ITEMS)
        expected = set()
        for method in ("exact", "gaussian"):
            for lookahead, table_cap in ((2, 25), (0, 25), (1, 3)):
                _, trace = greedy_select(model, method=method, lookahead=lookahead,
                                         table_cap=table_cap)
                steps = [step.evidence_id for step in trace.steps]
                expected |= {(method, tuple(steps[:k])) for k in range(1, len(steps) + 1)}
        assert set(model.valuation_record) == expected
        assert len(expected) <= 2 * len(model.evidence)

    def test_exhaustive_search_writes_no_record(self):
        model = make_model([(0.8, 0.2), (0.7, 0.35), (0.6, 0.3)])
        exhaustive_subset_search(model)
        assert model.valuation_record == {}

    def test_errors_unchanged_on_a_model_with_a_record(self):
        model = make_model(EIGHT_ITEMS)
        subset, _ = greedy_select(model)
        assert len(subset) >= 2 and (("exact", subset) in model.valuation_record)
        with pytest.raises(CapExceededError) as excinfo:
            exact_ev_subset(model, subset, cap=len(subset) - 1)
        assert str(excinfo.value) == (
            f"subset of {len(subset)} items exceeds the enumeration cap of "
            f"{len(subset) - 1} (would require 2^{len(subset)} assignments)"
        )
        for valuation in (exact_ev_subset, gaussian_ev_subset):
            with pytest.raises(UnknownEvidenceError, match="unknown evidence id 'nope'"):
                valuation(model, list(subset) + ["nope"])
            with pytest.raises(UnknownEvidenceError, match="duplicate evidence id"):
                valuation(model, list(subset) + [subset[0]])

    def test_a_model_with_a_record_pickles_and_compares_equal(self):
        model = make_model(EIGHT_ITEMS)
        greedy_select(model)
        assert model.valuation_record
        again = pickle.loads(pickle.dumps(model))
        assert again == model
        assert hash(again) == hash(model)
        assert again.valuation_record == model.valuation_record
        assert model == model_from_json(model_to_json(model))


class TestCapMessages:
    def test_greedy_enumeration_cap_message(self):
        model = make_model([(0.8, 0.2), (0.7, 0.3)])
        with pytest.raises(CapExceededError) as excinfo:
            greedy_select(model, enum_cap=1)
        assert str(excinfo.value) == (
            "exact evaluation of 2 items exceeds the enumeration cap of 1; "
            "switch to method='gaussian'"
        )

    def test_cli_cap_enum_4_exits_three(self, tmp_path, capsys):
        # Free compilation: greedy takes a fifth item, which the cap refuses.
        model = make_model([(0.9 - 0.02 * i, 0.3 + 0.01 * i) for i in range(12)])
        assert len(greedy_select(model)[0]) > 4
        path = tmp_path / "model.json"
        path.write_text(sact.model_to_json(model))
        for command, message in (
            ("analyze", "subset of 12 items exceeds the enumeration cap of 4 "
                        "(would require 2^12 assignments)"),
            ("select", "exact evaluation of 5 items exceeds the enumeration cap of 4; "
                       "switch to method='gaussian'"),
        ):
            assert sact.cli.main([command, str(path), "--cap-enum", "4"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"refused: {message}\n"
