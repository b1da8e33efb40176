import hashlib
import math
import re
import sys
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gridrd.simkern import _BLOCK, LatencyModel, jitter_relative_sd, jitter_vector, mix64

# The scalar reference the lane-packed kernel must match bit for bit: the
# published splitmix64 stream, one draw at a time.
MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_finalize(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class Rng:
    """splitmix64 stream: identical seed, identical draws, any platform."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return splitmix64_finalize(self._state)

    def random(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes exactly two uniforms."""
        u1 = self.random()
        u2 = self.random()
        if u1 <= 0.0:
            u1 = 2.0**-53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def lognormal_unit_mean(self, rel_sd: float) -> float:
        """Positive draw with mean exactly 1 and relative std dev ``rel_sd``."""
        if rel_sd <= 0.0:
            return 1.0
        s2 = math.log(1.0 + rel_sd * rel_sd)
        return math.exp(-0.5 * s2 + math.sqrt(s2) * self.normal())


def sample_jitter(rng: Rng, model: LatencyModel, n_users: int, n_resources: int) -> float:
    """One multiplicative jitter draw: positive, mean 1; exactly 1 when disabled."""
    if n_users < 1 or n_resources < 1:
        raise ValueError("jitter needs at least one user and one resource")
    if not model.jitter_enabled:
        return 1.0
    return rng.lognormal_unit_mean(jitter_relative_sd(model, n_users, n_resources))


def reference_vector(stream: int, model: LatencyModel, n_users: int, n_resources: int):
    """``jitter_vector`` by its definition: user u's seed finalizes stream + golden + u."""
    return [sample_jitter(Rng(splitmix64_finalize(stream + GOLDEN + user)), model, n_users,
                          n_resources)
            for user in range(n_users)]


def hexes(draws: list[float]) -> list[str]:
    return [x.hex() for x in draws]


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

    def test_mix64_folds_with_the_reference_finalizer(self):
        assert mix64(7) == splitmix64_finalize(GOLDEN + 7)
        assert mix64(7, 3) == splitmix64_finalize(mix64(7) + GOLDEN + 3)
        assert mix64(3, -1, prefix=mix64(7, 2)) == mix64(7, 2, 3, -1)  # the fold goes on from a prefix


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

    @pytest.mark.parametrize("kwargs", [
        {"jitter_enabled": "no"}, {"jitter_enabled": ""}, {"jitter_enabled": 1},
        {"jitter_enabled": None}, {"t_hop": True}, {"t_hop": "1"}, {"t_reg": None},
        {"jitter_gamma": 1j}, {"t_base": False},
    ])
    def test_a_field_of_the_wrong_type_is_named(self, kwargs):
        # "no" is truthy and would leave jitter on; math.isfinite("1") is a TypeError
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
            LatencyModel(**kwargs)

    def test_integers_and_booleans_of_the_right_fields_accepted(self):
        model = LatencyModel(t_hop=2, t_base=0, jitter_enabled=False)
        assert (model.t_hop, model.t_base, model.jitter_enabled) == (2, 0, False)


class TestJitterVector:
    """The lane-packed per-run kernel against the one-draw-at-a-time definition."""

    STREAM = 0x4A49_5454
    WRAPS_MID_BLOCK = 2**64 - GOLDEN - _BLOCK // 2  # user _BLOCK // 2 sums to 2**64

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
        assert hexes(fused) == hexes(reference)

    @given(
        n_users=st.one_of(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]),
                          st.integers(min_value=1, max_value=3000)),
        stream=st.one_of(
            st.integers(min_value=0, max_value=2**64 - 1),
            # stream + golden + u wraps at 2**64 inside or near a block
            st.integers(min_value=-3 * _BLOCK, max_value=3 * _BLOCK).map(
                lambda d: 2**64 - GOLDEN + d),
            st.integers(min_value=2**64 - 3 * _BLOCK, max_value=2**64 - 1),
        ),
        sigma0=st.sampled_from([0.0, 0.5, 4.0]),
        enabled=st.booleans(),
    )
    @example(n_users=_BLOCK - 1, stream=WRAPS_MID_BLOCK, sigma0=0.5, enabled=True)
    @example(n_users=_BLOCK, stream=WRAPS_MID_BLOCK, sigma0=0.5, enabled=True)
    @example(n_users=_BLOCK + 1, stream=WRAPS_MID_BLOCK, sigma0=0.5, enabled=True)
    @example(n_users=2 * _BLOCK + 3, stream=WRAPS_MID_BLOCK, sigma0=0.5, enabled=True)
    def test_equals_reference_across_blocks(self, n_users, stream, sigma0, enabled):
        model = LatencyModel(jitter_sigma0=sigma0, jitter_enabled=enabled)
        assert hexes(jitter_vector(stream, model, n_users, 50)) == \
            hexes(reference_vector(stream, model, n_users, 50))

    def test_scratch_memory_stays_below_a_quarter_of_the_result(self):
        # blocks bound the packed integers and unpacked tuples to a few
        # hundred kilobytes; one pass over all users would need about 6x
        model, n_users = LatencyModel(), 200_000
        tracemalloc.start()
        try:
            draws = jitter_vector(mix64(11), model, n_users, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        result_bytes = sys.getsizeof(draws) + sum(map(sys.getsizeof, draws))
        assert peak < 1.25 * result_bytes

    def test_disabled_is_all_ones(self):
        model = LatencyModel(jitter_enabled=False)
        assert jitter_vector(mix64(1), model, 5, 5) == [1.0] * 5

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            jitter_vector(mix64(1), LatencyModel(), 3, 0)


    def test_draw_bytes_match_the_frozen_digest(self):
        # The integer half of a draw is exact on any platform; the float step
        # calls libm log, cos and exp, which need not be correctly rounded.
        # This digest was frozen on x86-64 with glibc 2.36 using its FMA
        # variants; under GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA it differs.
        digest = hashlib.sha256()
        for run in range(200):
            draws = jitter_vector(mix64(run), LatencyModel(), 1000, 100)
            digest.update(" ".join(map(float.hex, draws)).encode())
        assert digest.hexdigest() == "d87772c2b73d11493e947043e2d8175ecb976b758b91109cd4389e036445f1fc"


# (function, input.hex(), output.hex()): inputs of the draws' float step at which glibc 2.36's FMA
# and non-FMA paths round differently, found by evaluating the float step of 40,000 draws once
# plainly and once under GLIBC_TUNABLES=glibc.cpu.hwcaps=-FMA. The outputs are the FMA path's,
# correctly rounded in 6 of the 12 rows (mpmath at 200 bits): neither path is always right.
_LIBM_CANARY = [
    ("log", "0x1.705d7949ca140p-1", "-0x1.5126e79e0e7fap-2"),
    ("log", "0x1.9fa4c44cb4512p-1", "-0x1.ab002af91950cp-3"),
    ("log", "0x1.67d365149ebb0p-1", "-0x1.692b6c420903bp-2"),
    ("log", "0x1.a820e7b986601p-1", "-0x1.819d2c519c638p-3"),
    ("cos", "0x1.515ff0ff2bae8p+0", "0x1.003e67be8d24dp-2"),
    ("cos", "0x1.67d8492e3c6dep+2", "0x1.9448e1659ed1ap-1"),
    ("cos", "0x1.eb9e52f216b20p+0", "-0x1.5ebb33ed38c51p-2"),
    ("cos", "0x1.4a67075cf317ap+0", "0x1.1b25b864f70d2p-2"),
    ("exp", "-0x1.6d6d20d040ca6p+2", "0x1.b24aac73e2571p-9"),
    ("exp", "-0x1.4438f3f99cccap+1", "0x1.454f52052e96dp-4"),
    ("exp", "-0x1.4395506eca6e5p+3", "0x1.547f683341dafp-15"),
    ("exp", "-0x1.d988b18010460p+0", "0x1.421ad43a2a105p-3"),
]


@pytest.mark.parametrize("name", ["log", "cos", "exp"])
def test_libm_rounds_as_the_frozen_draw_bytes_assume(name):
    # A canary for the digest above and the benchmark pins: when it fails, so do they, for this reason.
    rows = [(x, y) for function, x, y in _LIBM_CANARY if function == name]
    got = [getattr(math, name)(float.fromhex(x)).hex() for x, _ in rows]
    assert got == [y for _, y in rows], (
        f"libm {name} rounds differently here: the frozen draw bytes assume glibc 2.36 with its FMA code paths")
