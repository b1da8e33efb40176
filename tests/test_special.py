import math

import mpmath as mp
import pytest

from gridrd.special import betainc, t_cdf, t_quantile

mp.mp.dps = 40


def t_pdf_mp(x, df):
    df = mp.mpf(df)
    return (
        mp.gamma((df + 1) / 2)
        / (mp.sqrt(df * mp.pi) * mp.gamma(df / 2))
        * (1 + x * x / df) ** (-(df + 1) / 2)
    )


def oracle_t_cdf(t, df):
    """High-precision quadrature of the density; independent of betainc."""
    if t <= 0:
        return float(mp.quad(lambda x: t_pdf_mp(x, df), [mp.mpf("-inf"), t]))
    return float(1 - mp.quad(lambda x: t_pdf_mp(x, df), [t, mp.mpf("inf")]))


class TestBetainc:
    def test_endpoints(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0

    def test_symmetric_half(self):
        assert betainc(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_uniform_case(self):
        # I_x(1, 1) is the identity
        for x in (0.1, 0.37, 0.9):
            assert betainc(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)

    def test_against_mpmath(self):
        for a in (0.5, 1.5, 9.0, 250.0):
            for b in (0.5, 2.0, 40.0):
                for x in (0.01, 0.3, 0.5, 0.77, 0.99):
                    expected = float(mp.betainc(a, b, 0, x, regularized=True))
                    assert betainc(a, b, x) == pytest.approx(expected, abs=1e-12)

    def test_rejects_nonpositive_shapes(self):
        with pytest.raises(ValueError):
            betainc(0.0, 1.0, 0.5)

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0), (1.0, -0.5)])
    def test_rejects_one_nonpositive_shape(self, a, b):
        with pytest.raises(ValueError, match="betainc needs a, b > 0"):
            betainc(a, b, 0.5)


class TestTCdf:
    def test_zero_is_half(self):
        for df in (1, 2, 18, 1000):
            assert t_cdf(0.0, df) == 0.5

    def test_symmetry(self):
        for df in (1, 5, 18, 100):
            for t in (0.3, 1.7, 4.0, 30.0):
                assert t_cdf(-t, df) == pytest.approx(1.0 - t_cdf(t, df), abs=1e-13)

    def test_df_one_is_cauchy(self):
        for t in (-10.0, -1.0, 0.5, 25.0):
            expected = 0.5 + math.atan(t) / math.pi
            assert t_cdf(t, 1) == pytest.approx(expected, abs=1e-12)

    def test_critical_value_consistency(self):
        assert t_cdf(2.101, 18) == pytest.approx(0.975, abs=5e-4)

    def test_large_t_small_tail(self):
        p = 2.0 * (1.0 - t_cdf(13.33, 18))
        assert p < 0.0001

    def test_against_quadrature_oracle(self):
        for df in (1, 2, 3, 7, 18, 30, 100, 1000):
            for t in (-50.0, -5.0, -1.0, -0.2, 0.4, 2.0, 8.0, 50.0):
                assert abs(t_cdf(t, df) - oracle_t_cdf(t, df)) <= 1e-10

    def test_rejects_df_below_one(self):
        with pytest.raises(ValueError):
            t_cdf(1.0, 0)


class TestTQuantile:
    def test_median_is_zero(self):
        for df in (1, 18, 300):
            assert t_quantile(0.5, df) == 0.0

    def test_known_critical_value(self):
        assert t_quantile(0.975, 18) == pytest.approx(2.101, abs=1e-3)

    def test_roundtrip_over_grid(self):
        for df in (1, 2, 5, 18, 30, 100, 1000):
            for p in (0.005, 0.05, 0.25, 0.6, 0.9, 0.975, 0.995):
                t = t_quantile(p, df)
                assert abs(t_cdf(t, df) - p) <= 1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            t_quantile(1.0, 5)
