import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridrd import stats
from gridrd.special import t_quantile
from gridrd.stats import (
    EmptySample,
    InsufficientData,
    InvalidAlpha,
    StatsError,
    Verdict,
    mean,
    stddev,
    test_from_summary,
    unpaired_t_test,
)
from tests.conftest import engineered_sample

_samples = st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40)


def exact_mean(values):
    return sum(Fraction(v) for v in values) / len(values)


def exact_stddev(values):
    """Eq.-form (sum of squares minus n * mean^2) in exact rational arithmetic."""
    n = len(values)
    sq = sum(Fraction(v) ** 2 for v in values)
    m = exact_mean(values)
    return math.sqrt(float((sq - n * m * m) / (n - 1)))


class TestMoments:
    def test_mean_basic(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_mean_constant(self):
        assert mean([4.2] * 17) == 4.2

    def test_mean_matches_exact_oracle(self):
        rng = random.Random(31)
        values = [rng.uniform(-1000, 1000) for _ in range(100)]
        assert mean(values) == pytest.approx(float(exact_mean(values)), rel=1e-12)

    def test_mean_empty_rejected(self):
        with pytest.raises(EmptySample):
            mean([])

    def test_stddev_two_points(self):
        assert stddev([2.0, 4.0]) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_stddev_constant_is_zero(self):
        assert stddev([3.3] * 9) == 0.0

    def test_stddev_matches_sum_of_squares_form(self):
        rng = random.Random(5150)
        for _ in range(30):
            center = rng.uniform(-100, 100)
            values = [center + rng.gauss(0, 3) for _ in range(rng.randint(2, 50))]
            assert stddev(values) == pytest.approx(exact_stddev(values), rel=1e-10)

    def test_stddev_needs_two(self):
        with pytest.raises(InsufficientData):
            stddev([1.0])

    def test_overflowing_spread_rejected(self):
        with pytest.raises(StatsError, match="spread of the sample overflows"):
            stddev([1e200, 3e200, 2e200])

    def test_overflowing_sum_rejected(self):
        with pytest.raises(StatsError, match="sum of the sample overflows"):
            mean([1.7e308, 1.7e308])


class TestDifferenceStats:
    def test_identical_samples_zero_difference(self):
        a = [1.0, 5.0, 9.0]
        assert unpaired_t_test(a, a).mean_diff == 0.0

    def test_reference_difference(self):
        a = engineered_sample(13.902, 1.0)
        b = engineered_sample(12.012, 1.0)
        assert unpaired_t_test(a, b).mean_diff == pytest.approx(1.890, abs=1e-12)

    def test_se_of_constant_samples_is_zero(self):
        assert unpaired_t_test([2.0] * 5, [7.0] * 5).se == 0.0

    def test_se_symmetric_closed_form(self):
        a = engineered_sample(0.0, 3.0, n=10)
        b = engineered_sample(5.0, 3.0, n=10)
        assert unpaired_t_test(a, b).se == pytest.approx(3.0 * math.sqrt(1 / 5), rel=1e-12)

    def test_se_matches_exact_oracle(self):
        rng = random.Random(88)
        a = [rng.uniform(0, 50) for _ in range(12)]
        b = [rng.uniform(0, 50) for _ in range(7)]
        expected = math.sqrt(exact_stddev(a) ** 2 / 12 + exact_stddev(b) ** 2 / 7)
        assert unpaired_t_test(a, b).se == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "na,nb,expected", [(10, 10, 18), (2, 2, 2), (3, 7, 8)]
    )
    def test_pooled_df(self, na, nb, expected):
        assert unpaired_t_test([0.0] * na, [0.0] * nb).df == expected


class TestUnpairedTTest:
    def test_identical_samples(self):
        a = [1.0, 2.0, 3.0, 4.0]
        t = unpaired_t_test(a, list(a), alpha=0.05)
        assert t.mean_diff == 0.0
        assert t.t_score == 0.0
        assert t.p_value == pytest.approx(1.0, abs=1e-12)
        assert t.verdict is Verdict.INSIGNIFICANT

    def test_reference_row_p_value(self):
        # mean difference 1.227 with se 0.478 on 10+10 observations
        se_each = 0.478 * math.sqrt(5)
        a = engineered_sample(1.227, se_each, n=10)
        b = engineered_sample(0.0, se_each, n=10)
        t = unpaired_t_test(a, b, alpha=0.05)
        assert t.df == 18
        assert t.se == pytest.approx(0.478, rel=1e-9)
        assert t.p_value == pytest.approx(0.0196, abs=5e-4)
        assert t.verdict is Verdict.DIFFERENT

    def test_matches_tail_oracle_on_random_samples(self):
        import mpmath as mp

        rng = random.Random(404)
        for _ in range(20):
            a = [rng.gauss(0, 1) for _ in range(rng.randint(3, 12))]
            b = [rng.gauss(0.5, 2) for _ in range(rng.randint(3, 12))]
            t = unpaired_t_test(a, b, alpha=0.05)
            df = len(a) + len(b) - 2
            x = df / (df + t.t_score * t.t_score)
            oracle_p = float(mp.betainc(df / 2, mp.mpf(1) / 2, 0, x, regularized=True))
            assert t.p_value == pytest.approx(oracle_p, abs=1e-10)

    def test_degenerate_zero_variance_equal_means(self):
        t = unpaired_t_test([5.0] * 4, [5.0] * 4)
        assert t.degenerate
        assert t.p_value == 1.0
        assert t.verdict is Verdict.INSIGNIFICANT

    def test_degenerate_zero_variance_different_means(self):
        t = unpaired_t_test([6.0] * 4, [5.0] * 4)
        assert t.degenerate
        assert t.p_value == 0.0
        assert t.verdict is Verdict.DIFFERENT
        assert (t.ci_low, t.ci_high) == (1.0, 1.0)

    def test_alpha_validated(self):
        with pytest.raises(InvalidAlpha):
            unpaired_t_test([1.0, 2.0], [3.0, 4.0], alpha=1.5)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            unpaired_t_test([1.0], [2.0, 3.0])

    @given(
        a=_samples,
        b=_samples,
    )
    def test_swapping_samples_mirrors_everything(self, a, b):
        fwd = unpaired_t_test(a, b, alpha=0.05)
        rev = unpaired_t_test(b, a, alpha=0.05)
        assert rev.mean_diff == pytest.approx(-fwd.mean_diff, rel=1e-12, abs=1e-12)
        assert rev.se == fwd.se
        assert rev.p_value == pytest.approx(fwd.p_value, rel=1e-9, abs=1e-12)
        assert rev.ci_low == pytest.approx(-fwd.ci_high, rel=1e-9, abs=1e-9)
        assert rev.ci_high == pytest.approx(-fwd.ci_low, rel=1e-9, abs=1e-9)
        assert rev.verdict is fwd.verdict

    @given(
        a=_samples,
        b=_samples,
        k=st.floats(0.001, 1000),
    )
    def test_scale_equivariance(self, a, b, k):
        base = unpaired_t_test(a, b, alpha=0.05)
        scaled = unpaired_t_test([k * x for x in a], [k * x for x in b], alpha=0.05)
        assert scaled.mean_diff == pytest.approx(k * base.mean_diff, rel=1e-9, abs=1e-9)
        assert scaled.se == pytest.approx(k * base.se, rel=1e-9, abs=1e-12)
        if not base.degenerate:
            assert scaled.t_score == pytest.approx(base.t_score, rel=1e-6, abs=1e-9)
            assert scaled.p_value == pytest.approx(base.p_value, rel=1e-6, abs=1e-9)
        assert scaled.verdict is base.verdict

    def test_ci_and_p_verdicts_agree(self):
        rng = random.Random(606)
        for _ in range(200):
            a = [rng.gauss(0, 1) for _ in range(rng.randint(2, 8))]
            b = [rng.gauss(rng.uniform(-1, 1), 1) for _ in range(rng.randint(2, 8))]
            t = unpaired_t_test(a, b, alpha=0.05)
            if t.se == 0.0:
                continue
            assert (t.ci_low <= 0.0 <= t.ci_high) == (t.p_value > t.alpha)

    def test_ci_brackets_the_mean_difference(self):
        rng = random.Random(9)
        for _ in range(50):
            a = [rng.gauss(3, 2) for _ in range(6)]
            b = [rng.gauss(0, 2) for _ in range(6)]
            t = unpaired_t_test(a, b)
            assert t.ci_low <= t.mean_diff <= t.ci_high


class TestFromSummary:
    def test_strong_difference_row(self):
        t = test_from_summary(1.573, 0.118, 18, alpha=0.05)
        assert t.ci_low == pytest.approx(1.326, abs=2e-3)
        assert t.ci_high == pytest.approx(1.820, abs=2e-3)
        assert t.p_value < 0.0001
        assert t.verdict is Verdict.DIFFERENT

    def test_moderate_difference_row(self):
        t = test_from_summary(3.462, 0.977, 18, alpha=0.05)
        assert t.ci_low == pytest.approx(1.410, abs=2e-3)
        assert t.ci_high == pytest.approx(5.513, abs=2e-3)
        assert t.p_value == pytest.approx(0.0023, abs=5e-4)
        assert t.verdict is Verdict.DIFFERENT

    def test_washed_out_row(self):
        t = test_from_summary(1.890, 3.721, 18, alpha=0.05)
        assert t.ci_low == pytest.approx(-5.927, abs=2e-3)
        assert t.ci_high == pytest.approx(9.707, abs=2e-3)
        assert t.p_value == pytest.approx(0.6176, abs=5e-4)
        assert t.verdict is Verdict.INSIGNIFICANT

    def test_agrees_with_full_test_on_engineered_samples(self):
        a = engineered_sample(10.0, 2.0, n=10)
        b = engineered_sample(8.5, 2.0, n=10)
        full = unpaired_t_test(a, b, alpha=0.05)
        summary = test_from_summary(full.mean_diff, full.se, full.df, alpha=0.05)
        assert summary.p_value == pytest.approx(full.p_value, rel=1e-12)
        assert summary.ci_low == pytest.approx(full.ci_low, rel=1e-12)
        assert summary.verdict is full.verdict

    def test_rejects_nonpositive_se(self):
        with pytest.raises(InsufficientData):
            test_from_summary(1.0, 0.0, 18)

    @pytest.mark.parametrize("mean_diff, se, df", [
        (1.0, math.nan, 18), (1.0, math.inf, 18), (math.nan, 1.0, 18), (math.inf, 1.0, 18),
        (-math.inf, 1.0, 18), (1.0, 1.0, math.nan), (1.0, 1.0, math.inf),
    ])
    def test_rejects_non_finite(self, mean_diff, se, df):
        with pytest.raises(StatsError, match="finite"):
            test_from_summary(mean_diff, se, df)

    def test_rejects_bad_alpha(self):
        with pytest.raises(InvalidAlpha):
            test_from_summary(1.0, 1.0, 18, alpha=0.0)

    def test_one_degree_of_freedom_is_the_least_accepted(self):
        # t with df = 1 is the Cauchy distribution: P(|T| >= 1) = 1/2
        assert test_from_summary(1.0, 1.0, 1).p_value == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(InsufficientData, match="degrees of freedom must be >= 1"):
            test_from_summary(1.0, 1.0, math.nextafter(1.0, 0.0))


class TestCriticalValue:
    # Pooled dfs are integers; test_from_summary also takes fractional dfs.
    _dfs = st.one_of(st.integers(1, 200).map(float), st.floats(1.0, 300.0))
    _alphas = st.one_of(st.sampled_from([0.05, 0.01, 0.2]), st.floats(1e-6, 0.999))

    @given(calls=st.lists(st.tuples(_alphas, _dfs), min_size=1, max_size=12).flatmap(
        lambda pairs: st.lists(st.sampled_from(pairs), min_size=len(pairs),
                               max_size=2 * len(pairs))))
    def test_cached_value_is_a_fresh_quantile_bit_for_bit(self, calls):
        for alpha, df in calls:
            assert stats._critical_value(alpha, df).hex() == t_quantile(1.0 - alpha / 2.0, df).hex()

    def test_cache_is_bounded(self):
        maxsize = stats._critical_value.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    @pytest.mark.parametrize("alpha", [1e-300, 5e-324, 2.0 ** -53])
    def test_alpha_too_small_for_a_quantile_rejected(self, alpha):
        with pytest.raises(InvalidAlpha, match=f"alpha {alpha} is too small"):
            unpaired_t_test([1.0, 2.0], [3.0, 5.0], alpha=alpha)
        with pytest.raises(InvalidAlpha, match="too small"):
            test_from_summary(1.0, 1.0, 18, alpha=alpha)

    def test_smallest_alpha_accepted(self):
        alpha = math.nextafter(2.0 ** -53, 1.0)
        t = test_from_summary(1.0, 1.0, 18, alpha=alpha)
        assert t.ci_low < 0.0 < t.ci_high
