import math
import random

import pytest

from sact import DomainError, exact_ev_subset, gaussian, gaussian_ev_subset
from sact.exact import resolve_subset
from sact.gaussian import gaussian_tail, normal_cdf
from sact.model import item_record

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


def moment_sums(model, subset):
    """The Gaussian kernel's prefix of a subset: its four moment sums
    (mean and variance under H, then under not-H)."""
    prefix = gaussian.empty_prefix()
    for item in resolve_subset(model, subset):
        gaussian.extend(prefix, item)
    return prefix


class TestEvidenceMoments:
    def test_uninformative_item_has_zero_moments(self):
        moments = item_record(0.5, 0.5).moments
        assert moments == (0.0, 0.0, 0.0, 0.0)

    def test_strong_symmetric_item_given_h(self):
        # By hand: mean = 0.8*ln4 + 0.2*(-ln4) = 0.6*ln4,
        # var = 0.8*0.2*ln(16)^2 = 0.16*ln(16)^2.
        mean_h, var_h, _, _ = item_record(0.8, 0.2).moments
        assert mean_h == pytest.approx(0.6 * math.log(4.0), abs=1e-12)
        assert var_h == pytest.approx(0.16 * math.log(16.0) ** 2, abs=1e-12)

    def test_strong_symmetric_item_given_not_h(self):
        _, _, mean_nh, var_nh = item_record(0.8, 0.2).moments
        assert mean_nh == pytest.approx(-0.6 * math.log(4.0), abs=1e-12)
        assert var_nh == pytest.approx(0.16 * math.log(16.0) ** 2, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            item_record(0.0, 0.5)
        with pytest.raises(DomainError):
            item_record(0.5, 1.0)

    def test_matches_two_point_distribution(self):
        # Independent route: mean and variance of the weight as a plain
        # two-point random variable, E[w^2] - E[w]^2 form.
        grid = [0.05 + 0.1 * i for i in range(10)]
        for alpha in grid:
            for beta in grid:
                record = item_record(alpha, beta)
                (_, _, w_pos), (_, _, w_neg) = record.branches
                mean_h = alpha * w_pos + (1 - alpha) * w_neg
                var_h = alpha * w_pos**2 + (1 - alpha) * w_neg**2 - mean_h**2
                mean_nh = beta * w_pos + (1 - beta) * w_neg
                var_nh = beta * w_pos**2 + (1 - beta) * w_neg**2 - mean_nh**2
                assert record.moments == pytest.approx((mean_h, var_h, mean_nh, var_nh), abs=1e-12)


class TestSumMoments:
    def test_empty_sum(self):
        assert moment_sums(m1(), []) == [0.0, 0.0, 0.0, 0.0]

    def test_two_identical_items_double(self):
        model = make_model([(0.8, 0.2), (0.8, 0.2)])
        single = item_record(0.8, 0.2).moments
        total = moment_sums(model, ["e1", "e2"])
        assert total[0] == pytest.approx(2 * single[0], abs=1e-12)
        assert total[1] == pytest.approx(2 * single[1], abs=1e-12)

    def test_equals_a_left_to_right_sum_of_item_moments(self):
        rng = random.Random(233)
        for m in (1, 2, 7, 40):
            model = random_model(rng, m)
            ids = [item.id for item in model.evidence]
            rng.shuffle(ids)
            lookup = model.evidence_map()
            mean_h = var_h = mean_nh = var_nh = 0.0
            for evidence_id in ids:
                item = lookup[evidence_id].record.moments
                mean_h += item[0]
                var_h += item[1]
                mean_nh += item[2]
                var_nh += item[3]
            assert moment_sums(model, ids) == [mean_h, var_h, mean_nh, var_nh]

    def test_zero_moment_item_adds_nothing(self):
        model = make_model([(0.8, 0.2), (0.5, 0.5)])
        total = moment_sums(model, ["e1", "e2"])
        single = item_record(0.8, 0.2).moments
        assert total[0] == single[0]
        assert total[1] == single[1]


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
        assert gaussian_tail(1.0, 2.0, 1.0) == 0.5

    def test_single_strong_item(self):
        # z = (0 - 0.6*ln4) / (0.4*ln16) = -0.75 exactly, so the tail is
        # Phi(0.75) ~= 0.7734.
        mean_h, var_h, _, _ = item_record(0.8, 0.2).moments
        tail = gaussian_tail(mean_h, var_h, 0.0)
        assert tail == pytest.approx(0.773, abs=1e-3)
        assert tail == pytest.approx(quadrature_cdf(0.75), abs=1e-9)

    def test_degenerate_step_honours_boundary(self):
        assert gaussian_tail(0.0, 0.0, 0.0) == 1.0
        assert gaussian_tail(0.0, 0.0, 1e-12) == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            gaussian_tail(0.0, -1.0, 0.0)


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
            mean_h, var_h, _, _ = moment_sums(model, ids[:n])
            approximate = gaussian_tail(mean_h, var_h, 0.0)
            weights, p_given_h, _ = concatenated_arrays(model, ids[:n])
            return abs(approximate - float(p_given_h[weights >= 0.0].sum()))

        early = sum(gap(n) for n in (3, 4, 5)) / 3
        late = sum(gap(n) for n in (18, 19, 20)) / 3
        assert late < early
        if (alpha, beta) == (0.7, 0.3):
            assert gap(20) <= 0.03
