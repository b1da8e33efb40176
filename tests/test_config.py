import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gridrd.config import Config, ConfigError, load_config, parse_config
from gridrd.registry import MalformedTopology, ResolutionPolicy, TopologySpec
from gridrd.simkern import LatencyModel
from tests.test_cli import CONFIG_PAIRS


class TestParse:
    def test_empty_text_gives_calibrated_defaults(self):
        cfg = parse_config("")
        assert cfg == Config()
        assert cfg.latency.t_reg == 0.06006
        assert cfg.latency.t_user == 0.06006
        assert cfg.latency.t_ws == 1.890
        assert cfg.latency.t_registry == 1.716
        assert cfg.latency.t_hop == 0.5
        assert cfg.policy.cache_capacity is None
        assert cfg.latency.jitter_enabled

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nt_ws = 2.0  # trailing\n")
        assert cfg.latency.t_ws == 2.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("t_ws = -1")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("t_sw = 1.0")

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_summary_pruning_is_an_unknown_key(self, value):
        # resolution has no summary pruning, so the key would be a knob that does nothing
        with pytest.raises(ConfigError, match="^line 2: unknown key 'summary_pruning'$"):
            parse_config(f"cache_capacity = 3\nsummary_pruning = {value}\n")

    def test_unparseable_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("t_ws = fast")
        with pytest.raises(ConfigError):
            parse_config("jitter_enabled = maybe")
        with pytest.raises(ConfigError):
            parse_config("just some words")

    def test_ttl_is_an_unknown_key(self):
        # a run resolves every query at one instant, so no cache entry can expire
        with pytest.raises(ConfigError, match="^line 2: unknown key 'ttl'$"):
            parse_config("cache_capacity = 3\nttl = 60\n")

    @pytest.mark.parametrize("key", ["t_reg", "t_ws", "jitter_sigma0", "t_hop"])
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_numbers_rejected(self, key, raw):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(f"{key} = {raw}")

    def test_oversized_topology_rejected(self):
        with pytest.raises(ConfigError, match="repositories"):
            parse_config("topology.depth = 30\ntopology.branching = 2\n")
        with pytest.raises(ConfigError, match="repositories"):
            parse_config("topology.depth = 1000001\n")

    def test_topology_shapes(self):
        cfg = parse_config("topology.depth = 3\ntopology.branching = 2\n")
        assert cfg.topology == TopologySpec(depth=3, branching=2)
        cfg = parse_config("topology.zones = grid, ca.grid, us.grid\n")
        assert cfg.topology == TopologySpec(zones=("grid", "ca.grid", "us.grid"))
        with pytest.raises(ConfigError):
            parse_config("topology.depth = 2\ntopology.zones = a\n")

    @pytest.mark.parametrize("text", [
        "topology.branching = 2", "topology.zones = a.b", "topology.zones = A",
        "topology.zones = a, a",
    ], ids=["branching-alone", "orphan-zone", "bad-label", "duplicate-zone"])
    def test_malformed_tree_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config(text + "\n")

    def test_cache_capacity(self):
        assert parse_config("cache_capacity = none").policy.cache_capacity is None
        assert parse_config("cache_capacity = 5").policy.cache_capacity == 5
        with pytest.raises(ConfigError):
            parse_config("cache_capacity = -1")

    def test_policy_view(self):
        cfg = parse_config("cache_capacity = 0\n")
        assert cfg.policy == ResolutionPolicy(cache_capacity=0)

    @pytest.mark.parametrize(
        "text, cfg",
        [
            ("t_reg = 0.06006\nt_user = 0.06006\nt_ws = 1.89\nt_registry = 1.716\n"
             "t_hop = 0.5\nt_base = 0.0\njitter_sigma0 = 0.5\njitter_gamma = 1.07\n"
             "jitter_enabled = true\ncache_capacity = none\n",
             Config()),
            ("t_ws = 2.25\njitter_enabled = false\ncache_capacity = 0\n",
             Config(latency=LatencyModel(t_ws=2.25, jitter_enabled=False),
                    policy=ResolutionPolicy(cache_capacity=0))),
            ("cache_capacity = 7\ntopology.depth = 4\ntopology.branching = 3\n",
             Config(topology=TopologySpec(depth=4, branching=3),
                    policy=ResolutionPolicy(cache_capacity=7))),
            ("topology.zones = grid, ca.grid\n",
             Config(topology=TopologySpec(zones=("grid", "ca.grid")))),
        ],
        ids=["defaults", "latency-and-capacity", "uniform-tree", "zone-list"],
    )
    def test_literal_text_parses_to_config(self, text, cfg):
        assert parse_config(text) == cfg


def test_config_values_validate_themselves():
    with pytest.raises(ValueError):
        Config(policy=ResolutionPolicy(cache_capacity=-3))
    with pytest.raises(ValueError):
        Config(latency=LatencyModel(t_ws=-1.0))
    with pytest.raises(MalformedTopology):
        Config(topology=TopologySpec(branching=2))


_LATENCY_KEYS = ("t_reg", "t_user", "t_ws", "t_registry", "t_hop", "t_base",
                 "jitter_sigma0", "jitter_gamma", "jitter_enabled")
_POLICY_KEYS = ("cache_capacity",)


def _typed(key: str, raw: str) -> object:
    """What a config value means, written apart from the parser; ValueError if nothing."""
    if key == "jitter_enabled":
        if raw not in ("true", "false"):
            raise ValueError(raw)
        return raw == "true"
    if key == "topology.zones":
        return tuple(zone.strip() for zone in raw.split(",") if zone.strip())
    if key == "cache_capacity" and raw == "none":
        return None
    if key in ("cache_capacity", "topology.depth", "topology.branching"):
        return int(raw)
    return float(raw)


@settings(max_examples=500)  # most texts are rejected; this many accept about 70
@given(pairs=st.lists(CONFIG_PAIRS, max_size=6))
def test_parser_agrees_with_the_value_types(pairs):
    text = "".join(f"{key} = {raw}\n" for key, raw in pairs)
    latency, policy, topology = {}, {}, {}
    try:
        for key, raw in pairs:
            if key in _LATENCY_KEYS:
                latency[key] = _typed(key, raw)
            elif key in _POLICY_KEYS:
                policy[key] = _typed(key, raw)
            elif key.startswith("topology."):
                topology[key.removeprefix("topology.")] = _typed(key, raw)
            else:
                raise ValueError(f"unknown key {key!r}")
        expected = Config(LatencyModel(**latency), ResolutionPolicy(**policy),
                          TopologySpec(**topology) if topology else None)
    except (ValueError, MalformedTopology):
        event("rejected")
        with pytest.raises(ConfigError):
            parse_config(text)
    else:
        event("accepted")
        assert parse_config(text) == expected


class TestRoundTrip:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("t_hop = 0.25\n", encoding="utf-8")
        assert load_config(path).latency.t_hop == 0.25

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")
