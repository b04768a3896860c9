import math
import random

import pytest

from sact import (
    DomainError,
    MomentSummary,
    evidence_moments,
    exact_ev_subset,
    gaussian_ev_subset,
    gaussian_tail,
    sum_moments,
    weight_pair,
)
from sact.gaussian import normal_cdf

from helpers import (
    concatenated_arrays,
    from_scratch_gaussian,
    identity_models,
    m1,
    make_model,
    random_model,
)


def quadrature_cdf(x: float) -> float:
    """Independent oracle: Simpson integration of the standard normal density."""
    if x < 0:
        return 1.0 - quadrature_cdf(-x)
    steps = 4000
    h = x / steps if steps else 0.0
    total = 0.0
    for i in range(steps):
        a = i * h
        mid = a + h / 2
        b = a + h
        total += (h / 6) * (_density(a) + 4 * _density(mid) + _density(b))
    return 0.5 + total


def _density(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)


class TestEvidenceMoments:
    def test_uninformative_item_has_zero_moments(self):
        moments = evidence_moments(0.5, 0.5)
        assert moments == MomentSummary(0.0, 0.0, 0.0, 0.0, 1)

    def test_strong_symmetric_item_given_h(self):
        # By hand: mean = 0.8*ln4 + 0.2*(-ln4) = 0.6*ln4,
        # var = 0.8*0.2*ln(16)^2 = 0.16*ln(16)^2.
        moments = evidence_moments(0.8, 0.2)
        assert moments.mean_h == pytest.approx(0.6 * math.log(4.0), abs=1e-12)
        assert moments.var_h == pytest.approx(0.16 * math.log(16.0) ** 2, abs=1e-12)

    def test_strong_symmetric_item_given_not_h(self):
        moments = evidence_moments(0.8, 0.2)
        assert moments.mean_nh == pytest.approx(-0.6 * math.log(4.0), abs=1e-12)
        assert moments.var_nh == pytest.approx(0.16 * math.log(16.0) ** 2, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            evidence_moments(0.0, 0.5)
        with pytest.raises(DomainError):
            evidence_moments(0.5, 1.0)

    def test_matches_two_point_distribution(self):
        # Independent route: mean and variance of the weight as a plain
        # two-point random variable, E[w^2] - E[w]^2 form.
        grid = [0.05 + 0.1 * i for i in range(10)]
        for alpha in grid:
            for beta in grid:
                pair = weight_pair(alpha, beta)
                moments = evidence_moments(alpha, beta)
                mean_h = alpha * pair.w_pos + (1 - alpha) * pair.w_neg
                var_h = alpha * pair.w_pos**2 + (1 - alpha) * pair.w_neg**2 - mean_h**2
                mean_nh = beta * pair.w_pos + (1 - beta) * pair.w_neg
                var_nh = beta * pair.w_pos**2 + (1 - beta) * pair.w_neg**2 - mean_nh**2
                assert moments.mean_h == pytest.approx(mean_h, abs=1e-12)
                assert moments.var_h == pytest.approx(var_h, abs=1e-12)
                assert moments.mean_nh == pytest.approx(mean_nh, abs=1e-12)
                assert moments.var_nh == pytest.approx(var_nh, abs=1e-12)


class TestSumMoments:
    def test_empty_sum(self):
        assert sum_moments(m1(), []) == MomentSummary(0.0, 0.0, 0.0, 0.0, 0)

    def test_two_identical_items_double(self):
        model = make_model([(0.8, 0.2), (0.8, 0.2)])
        single = evidence_moments(0.8, 0.2)
        total = sum_moments(model, ["e1", "e2"])
        assert total.mean_h == pytest.approx(2 * single.mean_h, abs=1e-12)
        assert total.var_h == pytest.approx(2 * single.var_h, abs=1e-12)
        assert total.n == 2

    def test_equals_a_left_to_right_sum_of_item_moments(self):
        rng = random.Random(233)
        for m in (1, 2, 7, 40):
            model = random_model(rng, m)
            ids = [item.id for item in model.evidence]
            rng.shuffle(ids)
            lookup = model.evidence_map()
            mean_h = var_h = mean_nh = var_nh = 0.0
            for evidence_id in ids:
                item = evidence_moments(lookup[evidence_id].alpha, lookup[evidence_id].beta)
                mean_h += item.mean_h
                var_h += item.var_h
                mean_nh += item.mean_nh
                var_nh += item.var_nh
            expected = MomentSummary(mean_h, var_h, mean_nh, var_nh, m)
            assert sum_moments(model, ids) == expected

    def test_zero_moment_item_adds_nothing(self):
        model = make_model([(0.8, 0.2), (0.5, 0.5)])
        total = sum_moments(model, ["e1", "e2"])
        single = evidence_moments(0.8, 0.2)
        assert total.mean_h == single.mean_h
        assert total.var_h == single.var_h
        assert total.n == 2


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_familiar_two_sided_quantile(self):
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_deep_tail_is_tiny_but_positive(self):
        value = normal_cdf(-8.0)
        assert 0.0 < value < 1e-14

    def test_against_quadrature_oracle(self):
        for x in [-6, -4, -2.5, -1, -0.3, 0.2, 0.5, 1, 1.7, 3, 4.5, 6]:
            assert normal_cdf(x) == pytest.approx(quadrature_cdf(x), abs=1e-9)

    def test_nondecreasing_and_reflective(self):
        previous = 0.0
        for i in range(-600, 601):
            x = i / 50
            value = normal_cdf(x)
            assert value >= previous
            previous = value
            assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-9)


class TestGaussianTail:
    def test_median(self):
        moments = MomentSummary(1.0, 2.0, -1.0, 2.0, 5)
        assert gaussian_tail(moments, 1.0, "H") == 0.5

    def test_single_strong_item(self):
        # z = (0 - 0.6*ln4) / (0.4*ln16) = -0.75 exactly, so the tail is
        # Phi(0.75) ~= 0.7734.
        moments = evidence_moments(0.8, 0.2)
        tail = gaussian_tail(moments, 0.0, "H")
        assert tail == pytest.approx(0.773, abs=1e-3)
        assert tail == pytest.approx(quadrature_cdf(0.75), abs=1e-9)

    def test_degenerate_step_honours_boundary(self):
        moments = MomentSummary(0.0, 0.0, 0.0, 0.0, 0)
        assert gaussian_tail(moments, 0.0, "H") == 1.0
        assert gaussian_tail(moments, 1e-12, "H") == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            gaussian_tail(MomentSummary(0.0, -1.0, 0.0, 1.0, 1), 0.0, "H")

    def test_invalid_side_rejected(self):
        with pytest.raises(DomainError):
            gaussian_tail(MomentSummary(0.0, 1.0, 0.0, 1.0, 1), 0.0, "both")


class TestGaussianEvSubset:
    def test_empty_subset_equals_exact(self):
        result = gaussian_ev_subset(m1(), [])
        assert result.ev == pytest.approx(0.5, abs=1e-15)
        assert result.p_act_given_h == 1.0

    def test_twenty_iid_items_close_to_oracle(self):
        model = make_model([(0.7, 0.3)] * 20)
        ids = [item.id for item in model.evidence]
        approximate = gaussian_ev_subset(model, ids)
        exact = exact_ev_subset(model, ids)
        assert abs(approximate.ev - exact.ev) <= 0.03
        assert not approximate.low_n

    def test_equals_from_scratch(self):
        rng = random.Random(233)
        for model in identity_models(211):
            ids = [item.id for item in model.evidence]
            for subset in (ids, ids[::-1], [i for i in ids if rng.random() < 0.6], []):
                result = gaussian_ev_subset(model, subset)
                assert (result.ev, result.p_act_given_h, result.p_act_given_nh) == (
                    from_scratch_gaussian(model, subset)
                )
                assert (result.n, result.low_n) == (len(subset), len(subset) < 10)

    def test_small_subset_is_flagged(self):
        result = gaussian_ev_subset(m1(), ["e1"])
        assert result.low_n
        assert 0.0 <= result.ev <= 1.0

    @pytest.mark.parametrize("alpha,beta", [(0.7, 0.3), (0.8, 0.2), (0.6, 0.4), (0.75, 0.4)])
    def test_tail_gap_shrinks_on_average(self, alpha, beta):
        # Parity matters pointwise (even n put a weight-sum atom exactly at
        # the threshold), so convergence is averaged over adjacent sizes.
        model = make_model([(alpha, beta)] * 20)
        ids = [item.id for item in model.evidence]

        def gap(n):
            approximate = gaussian_tail(sum_moments(model, ids[:n]), 0.0, "H")
            weights, p_given_h, _ = concatenated_arrays(model, ids[:n])
            return abs(approximate - float(p_given_h[weights >= 0.0].sum()))

        early = sum(gap(n) for n in (3, 4, 5)) / 3
        late = sum(gap(n) for n in (18, 19, 20)) / 3
        assert late < early
        if (alpha, beta) == (0.7, 0.3):
            assert gap(20) <= 0.03
