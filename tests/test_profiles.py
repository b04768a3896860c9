import csv
import io
import math
import random

import pytest

import sact.profiles
from sact import (
    CapExceededError,
    DiagnosisModel,
    DomainError,
    FormatError,
    PRESETS,
    UtilityTable,
    WeightProfile,
    export_analysis,
    export_moments,
    loss_curve,
    realize_profile,
)
from sact.profiles import LossRow, profile_from_dict, topn_subset

from helpers import (
    SYMMETRIC_UTILITIES,
    ZERO_COSTS,
    from_scratch_evaluation,
    from_scratch_gaussian,
    item_formulas,
)


class TestRealizeProfile:
    def test_single_log4_weight_gives_four_to_one_item(self):
        items = realize_profile(WeightProfile.explicit("unit", [math.log(4.0)]))
        assert len(items) == 1
        assert items[0].alpha == pytest.approx(0.8, abs=1e-12)
        assert items[0].beta == pytest.approx(0.2, abs=1e-12)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(DomainError):
            realize_profile(WeightProfile.explicit("zero", [0.0]))
        with pytest.raises(DomainError):
            realize_profile(WeightProfile.explicit("neg", [0.5, -0.1]))
        with pytest.raises(DomainError):
            realize_profile(WeightProfile.explicit("inf", [float("inf")]))
        with pytest.raises(DomainError):
            realize_profile(WeightProfile.explicit("empty", []))

    def test_saturated_weight_rejected(self):
        with pytest.raises(DomainError, match="too large"):
            realize_profile(WeightProfile.explicit("hot", [50.0]))

    def test_tiny_weight_approaches_half(self):
        items = realize_profile(WeightProfile.explicit("cold", [1e-9]))
        assert items[0].alpha == pytest.approx(0.5, abs=1e-9)
        assert items[0].alpha > 0.5

    def test_symmetry_invariants(self):
        profile = WeightProfile.explicit("mix", [0.1, 0.5, 1.0, 2.5, 3.5])
        for item, w in zip(realize_profile(profile), profile.weights):
            assert item.alpha + item.beta == pytest.approx(1.0, abs=1e-12)
            pair = item_formulas(item.alpha, item.beta)
            assert pair.w_pos == pytest.approx(w, abs=1e-12)
            assert pair.w_neg == pytest.approx(-w, abs=1e-12)

    def test_triangle_quantiles_match_closed_form(self):
        # Density 1 - w/c on (0, c] has CDF 1 - (1 - w/c)^2, so the q-quantile
        # is c*(1 - sqrt(1 - q)).
        c, m = 3.5, 8
        profile = WeightProfile.linear_decay("tri", intercept=1.0, slope=1.0 / c, w_max=c, count=m)
        items = realize_profile(profile)
        for i, item in enumerate(items, start=1):
            q = (i - 0.5) / m
            expected = c * (1.0 - math.sqrt(1.0 - q))
            assert item_formulas(item.alpha, item.beta).w_pos == pytest.approx(expected, abs=1e-9)

    def test_zero_slope_is_uniform_sampling(self):
        profile = WeightProfile.linear_decay("flat", intercept=2.0, slope=0.0, w_max=1.0, count=4)
        weights = [item_formulas(i.alpha, i.beta).w_pos for i in realize_profile(profile)]
        assert weights == pytest.approx([0.125, 0.375, 0.625, 0.875], abs=1e-9)

    def test_empty_density_rejected(self):
        with pytest.raises(DomainError, match="integrates to zero"):
            realize_profile(
                WeightProfile.linear_decay("void", intercept=0.0, slope=0.0, w_max=1.0, count=3)
            )

    def test_ids_sort_with_index_order(self):
        items = realize_profile(PRESETS["high"])
        assert len(items) == 60
        assert [item.id for item in items] == sorted(item.id for item in items)

    def test_profile_cap_admits_its_size_and_refuses_one_more(self, monkeypatch):
        monkeypatch.setattr(sact.profiles, "PROFILE_CAP", 3)
        flat = dict(intercept=2.0, slope=0.0, w_max=1.0)
        assert len(realize_profile(WeightProfile.linear_decay("flat", count=3, **flat))) == 3
        assert len(realize_profile(WeightProfile.explicit("w", [0.5, 1.0, 1.5]))) == 3
        # A linear-decay profile refuses when it is made, an explicit one when
        # it is realized.
        refusals = [
            ("flat", lambda: WeightProfile.linear_decay("flat", count=4, **flat)),
            ("w", lambda: realize_profile(WeightProfile.explicit("w", [0.5, 1.0, 1.5, 2.0]))),
        ]
        for name, refuse in refusals:
            with pytest.raises(CapExceededError) as excinfo:
                refuse()
            assert str(excinfo.value) == f"profile {name!r} has 4 items, above the profile cap of 3"

    def test_linear_decay_over_the_cap_refuses_before_sampling(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("sampled a profile above the cap")

        monkeypatch.setattr(sact.profiles, "_decay_weights", unreachable)
        with pytest.raises(CapExceededError):
            WeightProfile.linear_decay("big", intercept=1.0, slope=0.0, w_max=1.0,
                                       count=sact.profiles.PROFILE_CAP + 1)

    def test_profile_cap_admits_the_presets(self):
        assert all(
            len(profile.weights) <= sact.profiles.PROFILE_CAP for profile in PRESETS.values()
        )


class TestTopnSubset:
    def test_boundaries(self):
        items = realize_profile(WeightProfile.explicit("w", [1.0, 2.0, 0.5]))
        assert topn_subset(items, 0) == []
        assert set(topn_subset(items, 3)) == {i.id for i in items}

    def test_ranks_by_weight_descending(self):
        items = realize_profile(WeightProfile.explicit("w", [1.0, 2.0, 0.5]))
        assert topn_subset(items, 2) == ["e2", "e1"]

    def test_ties_break_by_id(self):
        items = realize_profile(WeightProfile.explicit("w", [1.0, 1.0]))
        assert topn_subset(items, 1) == ["e1"]

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            topn_subset([], 1)


class TestLossCurve:
    def test_single_item_exact_losses(self):
        profile = WeightProfile.explicit("unit", [math.log(4.0)])
        curve = loss_curve(profile, 0.5, SYMMETRIC_UTILITIES, method="exact")
        assert [row.n for row in curve.rows] == [0, 1]
        assert curve.rows[0].ev_compile == pytest.approx(0.5, abs=1e-12)
        assert curve.rows[0].fractional_loss == pytest.approx((0.8 - 0.5) / 0.8, abs=1e-12)
        assert curve.rows[1].fractional_loss == 0.0

    def test_full_compilation_loss_is_exactly_zero(self):
        for method in ("exact", "gaussian"):
            profile = WeightProfile.explicit("w", [0.4, 0.9, 1.7])
            curve = loss_curve(profile, 0.3, SYMMETRIC_UTILITIES, method=method)
            assert curve.rows[-1].fractional_loss == 0.0

    def test_range_normalization_starts_at_one(self):
        profile = WeightProfile.explicit("w", [math.log(4.0)])
        curve = loss_curve(
            profile, 0.5, SYMMETRIC_UTILITIES, method="exact", normalization="range-normalized"
        )
        assert curve.rows[0].fractional_loss == 1.0
        assert curve.rows[-1].fractional_loss == 0.0

    def test_nonpositive_compute_value_rejected_by_name(self):
        utilities = UtilityTable(1.0, -10.0, -10.0, 1.0)
        profile = WeightProfile.explicit("w", [math.log(4.0)])
        with pytest.raises(DomainError, match="relative-to-compute"):
            loss_curve(profile, 0.5, utilities, method="exact")

    def test_zero_range_rejected_by_name(self):
        # With p_h = 0.25 a single weak item never reaches the threshold, so
        # compiling changes nothing and the normalizing range is zero.
        profile = WeightProfile.explicit("w", [0.5])
        with pytest.raises(DomainError, match="range-normalized"):
            loss_curve(
                profile, 0.25, SYMMETRIC_UTILITIES, method="exact",
                normalization="range-normalized",
            )

    def test_exact_above_cap_recommends_gaussian(self):
        with pytest.raises(CapExceededError, match="gaussian"):
            loss_curve(PRESETS["high"], 0.5, SYMMETRIC_UTILITIES, method="exact")

    def test_loss_nonincreasing_under_exact_evaluation(self):
        rng = random.Random(173)
        for _ in range(10):
            weights = sorted((rng.uniform(0.05, 2.5) for _ in range(rng.randint(1, 9))),
                             reverse=True)
            profile = WeightProfile.explicit("rand", weights)
            for normalization in ("relative-to-compute", "range-normalized"):
                curve = loss_curve(
                    profile, rng.uniform(0.2, 0.8), SYMMETRIC_UTILITIES,
                    method="exact", normalization=normalization,
                )
                losses = [row.fractional_loss for row in curve.rows]
                for left, right in zip(losses, losses[1:]):
                    assert right <= left + 1e-12

    def test_pointwise_weaker_profile_loses_at_least_as_much(self):
        base = [0.8, 0.6, 0.5, 0.4, 0.3, 0.2]
        weaker = WeightProfile.explicit("weaker", base)
        stronger = WeightProfile.explicit("stronger", [w * 1.3 for w in base])
        curves = {
            name: loss_curve(
                profile, 0.5, SYMMETRIC_UTILITIES, method="exact",
                normalization="range-normalized",
            )
            for name, profile in (("weaker", weaker), ("stronger", stronger))
        }
        for low, high in zip(curves["weaker"].rows, curves["stronger"].rows):
            assert low.fractional_loss >= high.fractional_loss - 1e-9

    @pytest.mark.parametrize(
        "method, profile",
        [
            ("exact", WeightProfile.explicit("small", [0.3, 1.2, 0.7, 2.0, 0.7, 1.5, 0.1, 0.7])),
            ("gaussian", PRESETS["high"]),
            ("gaussian", PRESETS["moderate"]),
            ("gaussian", PRESETS["low"]),
        ],
        ids=["exact-small", "gaussian-high", "gaussian-moderate", "gaussian-low"],
    )
    def test_rows_equal_per_row_valuation(self, method, profile):
        items = realize_profile(profile)
        ranking = topn_subset(items, len(items))
        valuation = from_scratch_evaluation if method == "exact" else from_scratch_gaussian
        for p_h in (0.5, 0.35):
            model = DiagnosisModel(p_h, tuple(items), SYMMETRIC_UTILITIES, ZERO_COSTS)
            values = [valuation(model, ranking[:n])[0] for n in range(len(ranking) + 1)]
            compute = values[-1]
            expected = tuple(
                LossRow(n, value, compute, (compute - value) / compute)
                for n, value in enumerate(values)
            )
            assert loss_curve(profile, p_h, SYMMETRIC_UTILITIES, method=method).rows == expected

    def test_moments_grow_strictly_along_the_ranking(self):
        items = realize_profile(PRESETS["moderate"])
        ranking = topn_subset(items, len(items))
        lookup = {item.id: item for item in items}
        mean_h = var_h = 0.0
        for evidence_id in ranking:
            item = lookup[evidence_id]
            moments = item_formulas(item.alpha, item.beta)
            assert moments.mean_h > 0.0
            assert moments.var_h > 0.0
            mean_h += moments.mean_h
            var_h += moments.var_h
        assert mean_h > 0.0 and var_h > 0.0


class TestExport:
    def test_csv_layout_and_round_trip(self):
        profile = WeightProfile.explicit("unit", [math.log(4.0)])
        curve = loss_curve(profile, 0.5, SYMMETRIC_UTILITIES, method="exact")
        text = export_analysis([curve])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["profile", "n", "ev_compile", "ev_compute", "fractional_loss"]
        assert len(rows) == 3  # header + n = 0, 1
        assert rows[1][0] == "unit"
        for parsed_row, original in zip(rows[1:], curve.rows):
            assert int(parsed_row[1]) == original.n
            assert float(parsed_row[2]) == pytest.approx(original.ev_compile, rel=1e-11)
            assert float(parsed_row[4]) == pytest.approx(original.fractional_loss, rel=1e-11,
                                                         abs=1e-11)

    def test_export_is_deterministic(self):
        curves = [
            loss_curve(PRESETS[name], 0.5, SYMMETRIC_UTILITIES, method="gaussian")
            for name in ("high", "moderate", "low")
        ]
        assert export_analysis(curves) == export_analysis(curves)

    def test_empty_export_rejected(self):
        with pytest.raises(DomainError):
            export_analysis([])
        with pytest.raises(DomainError, match=r"^no profiles to export$"):
            export_moments([])

    def test_unknown_normalization_rejected(self):
        profile = WeightProfile.explicit("unit", [math.log(4.0)])
        with pytest.raises(DomainError, match=r"^unknown normalization 'bogus'$"):
            loss_curve(profile, 0.5, SYMMETRIC_UTILITIES, normalization="bogus")

    def test_moments_companion_layout(self):
        text = export_moments([PRESETS["high"]])
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["profile", "n", "mean_h", "var_h"]
        assert len(rows) == 62  # header + n = 0 .. 60
        assert rows[1] == ["high", "0", "0", "0"]
        means = [float(r[2]) for r in rows[1:]]
        assert means == sorted(means)


class TestProfileFromDict:
    def test_linear_decay_round_trip(self):
        data = {
            "name": "tri",
            "kind": "linear-decay",
            "intercept": 1.0,
            "slope": 0.25,
            "w_max": 4.0,
            "count": 12,
        }
        profile = profile_from_dict(data)
        assert profile == WeightProfile.linear_decay(
            "tri", intercept=1.0, slope=0.25, w_max=4.0, count=12
        )

    def test_explicit_round_trip(self):
        profile = profile_from_dict({"name": "w", "kind": "explicit", "weights": [1.0, 2]})
        assert profile.weights == (1.0, 2.0)

    def test_rejections(self):
        with pytest.raises(FormatError):
            profile_from_dict({"name": "x", "kind": "spline"})
        with pytest.raises(FormatError):
            profile_from_dict({"name": "x", "kind": "explicit"})
        with pytest.raises(FormatError):
            profile_from_dict({"name": "x", "kind": "explicit", "weights": [True]})
        with pytest.raises(FormatError):
            profile_from_dict([1, 2])

    def test_a_kind_that_is_a_list_is_named_not_looked_up(self):
        with pytest.raises(FormatError) as excinfo:
            profile_from_dict({"name": "x", "kind": [1], "weights": [1.0]})
        assert str(excinfo.value) == (
            "profile.kind must be 'linear-decay' or 'explicit', got [1]"
        )

    def test_integer_too_large_for_a_float_rejected(self):
        huge = 10**400
        with pytest.raises(FormatError, match=r"^profile.weights\[1\]: integer too large"):
            profile_from_dict({"name": "x", "kind": "explicit", "weights": [1.0, huge]})
        decay = {"name": "x", "kind": "linear-decay", "intercept": huge, "slope": 0.25,
                 "w_max": 4.0, "count": 12}
        with pytest.raises(FormatError, match=r"^profile.intercept: integer too large"):
            profile_from_dict(decay)


class TestPresets:
    def test_three_uncertainty_levels_ship(self):
        assert set(PRESETS) == {"high", "moderate", "low"}
        for profile in PRESETS.values():
            items = realize_profile(profile)
            assert len(items) == 60

    def test_uncertainty_orders_the_weight_scales(self):
        def top_weight(name):
            items = realize_profile(PRESETS[name])
            return max(item_formulas(i.alpha, i.beta).w_pos for i in items)

        assert top_weight("high") < top_weight("moderate") < top_weight("low")
