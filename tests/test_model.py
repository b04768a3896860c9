import copy
import hashlib
import json
import math
import pickle
import random

import pytest

import sact.model
from sact import (
    Action,
    DomainError,
    FormatError,
    Threshold,
    UnknownEvidenceError,
    UtilityTable,
    Violation,
    build_tree,
    compile_table,
    exact_ev_subset,
    gaussian_ev_subset,
    model_digest,
    model_from_dict,
    model_from_json,
    model_to_dict,
    model_to_json,
    optimal_action,
    posterior_odds,
    threshold,
    tree_ev,
    validate_model,
    write_table,
)
from sact.model import item_record

from helpers import ZERO_COSTS, identity_models, item_formulas, m1, make_model, random_model


def weights(alpha, beta):
    """(w_pos, w_neg) of an item, from its record."""
    (_, _, w_pos), (_, _, w_neg) = item_record(alpha, beta).branches
    return w_pos, w_neg


class TestWeightPair:
    def test_uninformative_evidence_has_zero_weights(self):
        w_pos, w_neg = weights(0.5, 0.5)
        assert w_pos == 0.0
        assert w_neg == 0.0

    def test_strong_symmetric_evidence(self):
        w_pos, w_neg = weights(0.8, 0.2)
        assert w_pos == pytest.approx(math.log(4.0), abs=1e-12)
        assert w_neg == pytest.approx(-math.log(4.0), abs=1e-12)

    def test_asymmetric_evidence(self):
        w_pos, w_neg = weights(0.9, 0.3)
        assert w_pos == pytest.approx(math.log(3.0), abs=1e-12)
        assert w_neg == pytest.approx(math.log(1.0 / 7.0), abs=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0),
                                            (-0.1, 0.5), (0.5, 1.1)])
    def test_rejects_probabilities_outside_open_interval(self, alpha, beta):
        with pytest.raises(DomainError):
            item_record(alpha, beta)

    def test_exp_recovers_likelihood_ratios(self):
        grid = [i / 20 for i in range(1, 20)]
        for alpha in grid:
            for beta in grid:
                w_pos, w_neg = weights(alpha, beta)
                assert math.exp(w_pos) == pytest.approx(alpha / beta, rel=1e-12)
                assert math.exp(w_neg) == pytest.approx(
                    (1 - alpha) / (1 - beta), rel=1e-12
                )

    def test_signs_are_opposite_or_both_zero(self):
        rng = random.Random(11)
        for _ in range(200):
            alpha = rng.uniform(0.05, 0.95)
            beta = rng.uniform(0.05, 0.95)
            w_pos, w_neg = weights(alpha, beta)
            if alpha == beta:
                assert w_pos == w_neg == 0.0
            else:
                assert (w_pos > 0) == (w_neg < 0)


class TestItemWeights:
    def test_equal_weight_pair(self):
        for item in random_model(random.Random(3), 30).evidence:
            assert item.record == item_record(item.alpha, item.beta)

    def test_record_equals_a_fresh_computation(self):
        rng = random.Random(29)
        # identity_models ends with the tie_models.
        models = identity_models(211) + [random_model(rng, 12) for _ in range(30)]
        for model in models:
            for item in model.evidence:
                a, b = item.alpha, item.beta
                f = item_formulas(a, b)
                fresh = (
                    (a, b, f.w_pos, 1.0 - a, 1.0 - b, f.w_neg),
                    (f.mean_h, f.var_h, f.mean_nh, f.var_nh),
                )
                branches, moments = item.record
                assert [x.hex() for x in sum(branches, ())] == [x.hex() for x in fresh[0]]
                assert [x.hex() for x in moments] == [x.hex() for x in fresh[1]]

    def test_record_is_computed_on_first_read_and_once(self, monkeypatch):
        calls = []

        def counted(alpha, beta):
            calls.append((alpha, beta))
            return item_record(alpha, beta)

        monkeypatch.setattr(sact.model, "item_record", counted)
        model = model_from_json(json.dumps(model_to_dict(random_model(random.Random(5), 4))))
        assert validate_model(model) == []
        assert calls == []
        item = model.evidence[2]
        assert item.record is item.record
        assert calls == [(item.alpha, item.beta)]

    @pytest.mark.parametrize("alpha,beta", [(1.0, 0.5), (0.5, 0.0), (0.3, 1.5)])
    def test_a_bad_item_parses_and_raises_where_its_weights_are_read(self, alpha, beta):
        model = model_from_dict(model_to_dict(make_model([(0.8, 0.2), (alpha, beta)])))
        assert validate_model(model)
        with pytest.raises(DomainError) as expected:
            item_record(alpha, beta)
        for use in (
            lambda: model.evidence[1].record,
            lambda: exact_ev_subset(model, ["e1", "e2"]),
            lambda: exact_ev_subset(model, ["e2", "e1"]),
            lambda: gaussian_ev_subset(model, ["e2"]),
            lambda: gaussian_ev_subset(model, ["e1", "e2"]),
            lambda: build_tree(model),
            lambda: tree_ev(model, build_tree(m1())[0]),
            lambda: posterior_odds(model, {"e1": True, "e2": True}),
            lambda: posterior_odds(model, {"e2": False}),
        ):
            with pytest.raises(DomainError) as excinfo:
                use()
            assert str(excinfo.value) == str(expected.value)


class TestThreshold:
    def test_full_symmetry(self):
        thr = threshold(UtilityTable(1, 0, 0, 1), 0.5)
        assert thr.p_star == 0.5
        assert thr.w_star == 0.0

    def test_asymmetric_utilities(self):
        # Indifference by hand: p*(100) + (1-p*)(-50) = 0  =>  p* = 50/150.
        thr = threshold(UtilityTable(100.0, 0.0, -50.0, 0.0), 0.5)
        assert thr.p_star == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert thr.w_star == pytest.approx(math.log(0.5), abs=1e-12)

    def test_prior_shifts_weight_threshold(self):
        thr = threshold(UtilityTable(1, 0, 0, 1), 0.25)
        assert thr.p_star == 0.5
        assert thr.w_star == pytest.approx(math.log(3.0), abs=1e-12)

    def test_degenerate_utilities_rejected(self):
        with pytest.raises(DomainError):
            threshold(UtilityTable(1, 1, 0, 1), 0.5)
        with pytest.raises(DomainError):
            threshold(UtilityTable(1, 0, 1, 1), 0.5)

    def test_prior_bounds_rejected(self):
        for p_h in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                threshold(UtilityTable(1, 0, 0, 1), p_h)

    def test_overflowing_utility_differences_rejected(self):
        # The differences sum to infinity, so p_star rounds to 0 and its
        # log-odds would not exist.
        with pytest.raises(DomainError, match="outside"):
            threshold(UtilityTable(1e308, 0.0, 0.0, 1e308), 0.5)
        with pytest.raises(DomainError, match="outside"):
            threshold(UtilityTable(math.inf, 0.0, 0.0, math.inf), 0.5)

    def test_indifference_equation_balances(self):
        rng = random.Random(23)
        for _ in range(300):
            model = random_model(rng, 0)
            thr = threshold(model.utilities, model.p_h)
            u = model.utilities
            act_side = thr.p_star * u.u_h_d + (1 - thr.p_star) * u.u_nh_d
            wait_side = thr.p_star * u.u_h_nd + (1 - thr.p_star) * u.u_nh_nd
            assert act_side == pytest.approx(wait_side, abs=1e-12)


class TestPosteriorOdds:
    def test_empty_observation_returns_prior_odds(self):
        assert posterior_odds(m1(), {}) == 1.0

    def test_positive_observation_multiplies_ratio(self):
        assert posterior_odds(m1(), {"e1": True}) == pytest.approx(4.0, rel=1e-12)

    def test_negative_observation_divides_ratio(self):
        assert posterior_odds(m1(), {"e1": False}) == pytest.approx(0.25, rel=1e-12)

    def test_unknown_id_rejected(self):
        with pytest.raises(UnknownEvidenceError):
            posterior_odds(m1(), {"nope": True})

    def test_matches_weight_sum_in_log_space(self):
        rng = random.Random(37)
        for _ in range(100):
            model = random_model(rng, rng.randint(1, 8))
            observation = {item.id: rng.random() < 0.5 for item in model.evidence}
            direct = posterior_odds(model, observation)
            total = 0.0
            for item in model.evidence:
                (_, _, w_pos), (_, _, w_neg) = item.record.branches
                total += w_pos if observation[item.id] else w_neg
            via_logs = math.exp(total) * model.p_h / (1 - model.p_h)
            assert direct == pytest.approx(via_logs, rel=1e-10)


class TestOptimalAction:
    def test_an_action_prints_as_its_value(self):
        assert str(Action.ACT) == "D"
        assert str(Action.NO_ACT) == "notD"

    def test_above_threshold_acts(self):
        assert optimal_action(1.0, Threshold(0.5, 0.0)) is Action.ACT

    def test_below_threshold_waits(self):
        assert optimal_action(-1.0, Threshold(0.5, 0.0)) is Action.NO_ACT

    def test_boundary_acts(self):
        assert optimal_action(0.0, Threshold(0.5, 0.0)) is Action.ACT

    def test_invariant_under_positive_affine_utility_transform(self):
        rng = random.Random(41)
        for _ in range(100):
            model = random_model(rng, 0)
            scale = rng.uniform(0.1, 10.0)
            shift = rng.uniform(-20.0, 20.0)
            u = model.utilities
            transformed = UtilityTable(
                scale * u.u_h_d + shift,
                scale * u.u_h_nd + shift,
                scale * u.u_nh_d + shift,
                scale * u.u_nh_nd + shift,
            )
            thr = threshold(u, model.p_h)
            thr2 = threshold(transformed, model.p_h)
            for w in [x / 4 - 5 for x in range(41)]:
                assert optimal_action(w, thr) is optimal_action(w, thr2)


class TestValidateModel:
    def test_well_formed_model_is_clean(self):
        assert validate_model(make_model([(0.8, 0.2), (0.7, 0.3)])) == []

    def test_alpha_at_boundary_is_one_violation(self):
        report = validate_model(make_model([(1.0, 0.2)]))
        assert len(report) == 1
        assert report[0].code == "alpha_out_of_range"
        assert report[0].field == "evidence[0].alpha"

    def test_flat_utility_is_degenerate(self):
        model = make_model([(0.8, 0.2)], utilities=UtilityTable(1, 1, 0, 1))
        report = validate_model(model)
        assert [v.code for v in report] == ["degenerate_utility_ordering"]

    def test_duplicate_ids_flagged(self):
        model = make_model([(0.8, 0.2), (0.7, 0.3)], ids=["a", "a"])
        assert any(v.code == "duplicate_evidence_id" for v in validate_model(model))

    def test_empty_id_flagged(self):
        model = make_model([(0.8, 0.2)], ids=[""])
        assert any(v.code == "empty_evidence_id" for v in validate_model(model))

    def test_ids_none_empty_and_braced(self):
        # None, as a library call may pass, is empty too; empty ids are not
        # duplicates of each other; braces in an id are printed as they are.
        model = make_model([(0.8, 0.2)] * 5, ids=[None, "", "", "{x}", "{x}"])
        assert [v.to_dict() for v in validate_model(model)] == [
            {"code": "empty_evidence_id", "field": f"evidence[{i}].id",
             "message": "evidence id must be nonempty"} for i in range(3)
        ] + [{"code": "duplicate_evidence_id", "field": "evidence[4].id",
              "message": "evidence id '{x}' appears more than once"}]

    def test_prior_and_costs_checked(self):
        bad = make_model([(0.8, 0.2)], p_h=1.0)
        assert any(v.code == "prior_out_of_range" for v in validate_model(bad))
        costs = ZERO_COSTS.__class__(-1.0, 0, 0, 0, 0, 0, 1.0)
        assert any(
            v.code == "negative_cost" and v.field == "costs.k1"
            for v in validate_model(make_model([(0.8, 0.2)], costs=costs))
        )
        costs = ZERO_COSTS.__class__(0, 0, 0, 0, 0, 0, 0.0)
        assert any(
            v.code == "nonpositive_rate" for v in validate_model(make_model([], costs=costs))
        )

    def test_nan_prior_is_out_of_range(self):
        assert any(
            v.code == "prior_out_of_range"
            for v in validate_model(make_model([(0.8, 0.2)], p_h=float("nan")))
        )

    def test_unsolvable_threshold_flagged(self):
        model = make_model([(0.8, 0.2)], utilities=UtilityTable(1e308, 0.0, 0.0, 1e308))
        report = validate_model(model)
        assert [(v.code, v.field) for v in report] == [("degenerate_threshold", "utilities")]

    def test_prior_fault_not_reported_again_as_threshold(self):
        report = validate_model(make_model([(0.8, 0.2)], p_h=1.0))
        assert [v.code for v in report] == ["prior_out_of_range"]

    def test_violations_serialize(self):
        violation = Violation("x", "y", "z")
        assert violation.to_dict() == {"code": "x", "field": "y", "message": "z"}


class TestEvidenceMap:
    def test_read_only_and_the_model_still_pickles(self):
        model = make_model([(0.8, 0.2), (0.7, 0.3)])
        lookup = model.evidence_map()
        assert dict(lookup) == {item.id: item for item in model.evidence}
        with pytest.raises(TypeError):
            lookup["e3"] = model.evidence[0]
        assert pickle.loads(pickle.dumps(model)) == model
        assert copy.deepcopy(model).evidence_map() == lookup


class TestModelJson:
    def test_round_trip(self):
        model = random_model(random.Random(5), 4)
        again = model_from_dict(model_to_dict(model))
        assert again == model

    def test_unknown_keys_rejected(self):
        data = model_to_dict(m1())
        data["extra"] = 1
        with pytest.raises(FormatError, match="unknown keys"):
            model_from_dict(data)

    def test_missing_keys_rejected(self):
        data = model_to_dict(m1())
        del data["costs"]
        with pytest.raises(FormatError, match="missing keys"):
            model_from_dict(data)

    def test_nested_unknown_keys_rejected(self):
        data = model_to_dict(m1())
        data["evidence"][0]["weight"] = 2.0
        with pytest.raises(FormatError, match="unknown keys"):
            model_from_dict(data)

    @pytest.mark.parametrize("key, value, message", [
        ("evidence", {}, "model.evidence: expected an array"),
        ("utilities", [], "utilities: expected an object, got list"),
    ])
    def test_a_part_of_the_wrong_type_is_refused(self, key, value, message):
        data = model_to_dict(m1())
        data[key] = value
        with pytest.raises(FormatError) as excinfo:
            model_from_dict(data)
        assert str(excinfo.value) == message

    def test_booleans_are_not_numbers(self):
        data = model_to_dict(m1())
        data["p_h"] = True
        with pytest.raises(FormatError, match="expected a number"):
            model_from_dict(data)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    def test_non_finite_numbers_rejected(self, literal):
        # json.loads accepts NaN and Infinity, turns 1e400 into inf and keeps
        # a long integer exact; none of them is a finite float.
        text = json.dumps(model_to_dict(m1())).replace('"r": 1.0', f'"r": {literal}')
        assert literal in text
        with pytest.raises(FormatError, match=r"^costs\.r: "):
            model_from_json(text)

    def test_malformed_json_rejected(self):
        with pytest.raises(FormatError):
            model_from_json("{not json")

    def test_integer_fields_parse_as_floats(self):
        data = model_to_dict(m1())
        data["utilities"]["u_h_d"] = 1  # integer in the file
        model = model_from_dict(data)
        assert model.utilities.u_h_d == 1.0

    def test_digest_is_stable_and_discriminating(self):
        a = model_digest(m1())
        assert len(a) == 32
        assert a == model_digest(m1())
        assert a != model_digest(make_model([(0.8, 0.3)]))

    def test_digest_is_computed_once_per_model(self, monkeypatch):
        # The model is frozen, so its digest is hashed on the first call and
        # read back after: compile_table and build_tree on one model, as
        # analyze runs them, hash it once, and the stored digest is a fresh
        # digest of the same model.
        model = make_model([(0.8, 0.2), (0.7, 0.35), (0.6, 0.45)])
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(data) or sha256(data))
        table = compile_table(model, ["e1", "e2"])
        tree, _ = build_tree(model)
        assert len(hashed) == 1
        assert table.model_digest is tree.model_digest is model_digest(model)
        canonical = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
        assert model_digest(model) == sha256(canonical.encode("utf-8")).digest()
        assert model_digest(model) == model_digest(model_from_json(model_to_json(model)))
        assert len(hashed) == 2

    def test_canonical_form_is_pinned(self):
        # Every table and tree embeds this digest, so a change to the canonical
        # JSON layout would make every existing artifact stale.
        assert model_digest(m1()).hex() == (
            "6bfc6a2cc15b0d4efb02c514fe29e87235a1ae0deeb1fd5e1d408bcc8a99835b"
        )
        table = write_table(compile_table(m1(), ["e1"]))
        assert hashlib.sha256(table).hexdigest() == (
            "20b010d025d3cffcf7f402e9e61b8ce81f464687b2602b58f4260ef5784295ea"
        )

    def test_digest_ignores_textual_number_spelling(self):
        text = json.dumps(model_to_dict(m1())).replace("1.0", "1")
        assert model_digest(model_from_json(text)) == model_digest(m1())
