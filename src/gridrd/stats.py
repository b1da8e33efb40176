"""Two-sample mean-difference testing for discovery-time experiments.

The test combines an unequal-variance standard error,

    se = sqrt(s_a^2/n_a + s_b^2/n_b),

with POOLED degrees of freedom df = n_a + n_b - 2.  That hybrid is not the
textbook Welch test (whose Satterthwaite df would differ); it is the
combination the toolkit's built-in comparison series are calibrated
against, so it is the rule on purpose.  The verdict rule is: a difference
is insignificant iff the confidence interval contains 0 or the p-value
exceeds alpha.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple, Sequence

from .special import t_cdf, t_quantile

__all__ = [
    "EmptySample",
    "InsufficientData",
    "InvalidAlpha",
    "MeanDifferenceTest",
    "StatsError",
    "Verdict",
    "mean",
    "stddev",
    "t_cdf",
    "t_quantile",
    "test_from_summary",
    "unpaired_t_test",
]


class StatsError(Exception):
    pass


class EmptySample(StatsError):
    pass


class InsufficientData(StatsError):
    pass


class InvalidAlpha(StatsError):
    pass


class Verdict(str, Enum):
    """Outcome labels: DIFFERENT marks a statistically significant difference."""

    DIFFERENT = "Different"
    INSIGNIFICANT = "Insignificant"


class MeanDifferenceTest(NamedTuple):
    """Full output of one two-sample comparison.

    ``degenerate`` flags a zero standard error (all observations on both
    sides identical up to a constant), where the tail probability is taken
    as 0 or 1 depending on whether the means differ at all.
    """

    mean_diff: float
    se: float
    df: float
    t_score: float
    p_value: float
    alpha: float
    ci_low: float
    ci_high: float
    verdict: Verdict
    degenerate: bool = False


def mean(sample: Sequence[float]) -> float:
    """Arithmetic mean, accumulated with compensated summation."""
    if len(sample) == 0:
        raise EmptySample("mean of an empty sample")
    try:
        return math.fsum(sample) / len(sample)
    except OverflowError:
        raise StatsError("the sum of the sample overflows") from None


def stddev(sample: Sequence[float]) -> float:
    """Sample standard deviation (n-1 divisor), two-pass for stability."""
    n = len(sample)
    if n < 2:
        raise InsufficientData(f"standard deviation needs n >= 2, got {n}")
    center = mean(sample)
    try:
        ss = math.fsum((x - center) ** 2 for x in sample)
    except OverflowError:
        raise StatsError("the spread of the sample overflows") from None
    return math.sqrt(ss / (n - 1))


@functools.lru_cache(maxsize=64)
def _critical_value(alpha: float, df: float) -> float:
    """The two-sided critical value t_{1-alpha/2, df}.

    Every point of an analysis shares (alpha, df), so it is cached;
    t_quantile is pure, so a cached value is the float a fresh call gives.
    """
    return t_quantile(1.0 - alpha / 2.0, df)


def _assemble(mean_diff: float, se: float, df: float, alpha: float) -> MeanDifferenceTest:
    if not (math.isfinite(mean_diff) and math.isfinite(se) and math.isfinite(df)):
        raise StatsError(f"mean difference {mean_diff}, standard error {se} and degrees of "
                         f"freedom {df} must be finite")
    degenerate = se == 0.0
    if degenerate:
        if mean_diff == 0.0:
            t_score, p_value = 0.0, 1.0
        else:
            t_score = math.copysign(math.inf, mean_diff)
            p_value = 0.0
        ci_low = ci_high = mean_diff
    else:
        t_score = mean_diff / se
        p_value = 2.0 * (1.0 - t_cdf(abs(t_score), df))
        half_width = _critical_value(alpha, df) * se
        ci_low, ci_high = mean_diff - half_width, mean_diff + half_width
    insignificant = (ci_low <= 0.0 <= ci_high) or p_value > alpha
    return MeanDifferenceTest(
        mean_diff=mean_diff,
        se=se,
        df=df,
        t_score=t_score,
        p_value=p_value,
        alpha=alpha,
        ci_low=ci_low,
        ci_high=ci_high,
        verdict=Verdict.INSIGNIFICANT if insignificant else Verdict.DIFFERENT,
        degenerate=degenerate,
    )


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidAlpha(f"alpha must be in (0, 1), got {alpha}")
    if 1.0 - alpha / 2.0 == 1.0:
        raise InvalidAlpha(f"alpha {alpha} is too small: 1 - alpha/2 rounds to 1.0")


def unpaired_t_test(a: Sequence[float], b: Sequence[float], alpha: float = 0.05) -> MeanDifferenceTest:
    """Two-independent-sample test of the mean difference mean(a) - mean(b)."""
    _check_alpha(alpha)
    if len(a) < 2 or len(b) < 2:
        raise InsufficientData("both samples need n >= 2")
    diff = mean(a) - mean(b)
    sa, sb = stddev(a), stddev(b)
    se = math.sqrt(sa * sa / len(a) + sb * sb / len(b))
    return _assemble(diff, se, float(len(a) + len(b) - 2), alpha)


def test_from_summary(mean_diff: float, se: float, df: float,
                      alpha: float = 0.05) -> MeanDifferenceTest:
    """Same tail computation as unpaired_t_test, from published summaries."""
    _check_alpha(alpha)
    if se <= 0.0:
        raise InsufficientData(f"summary standard error must be positive, got {se}")
    if df < 1:
        raise InsufficientData(f"degrees of freedom must be >= 1, got {df}")
    return _assemble(mean_diff, se, df, alpha)


test_from_summary.__test__ = False  # a library function, not a pytest case
