
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridrd import scenarios, stats
from gridrd.domain import ResourceQuery
from gridrd.registry import ResolutionPolicy, Topology, TopologySpec, UnknownNode, build_topology
from gridrd.scenarios import (
    MAX_USERS,
    ConfigMismatch,
    RunResult,
    ScenarioConfig,
    ScenarioError,
    ScenarioKind,
    run_scenario,
)
from gridrd.simkern import LatencyModel
from tests.test_domain import MetadataCatalog, ResourceSpec, summarize

QUIET = LatencyModel(jitter_enabled=False)
GRID = [(u, r) for u in (20, 40, 60, 80, 100) for r in (20, 40, 60, 80, 100)]


def _cfg(kind, users=100, resources=100, latency=QUIET, seed=0, **kwargs):
    return ScenarioConfig(kind=kind, n_users=users, n_resources=resources,
                          latency=latency, seed=seed, **kwargs)


class TestCalibrationAnchors:
    def test_baseline_anchor(self):
        r = run_scenario(_cfg(ScenarioKind.BASELINE))
        assert r.mean_time == pytest.approx(12.012, abs=0.02)

    def test_direct_anchor(self):
        r = run_scenario(_cfg(ScenarioKind.DIRECT))
        assert r.mean_time == pytest.approx(13.902, abs=0.02)

    def test_centralized_anchor(self):
        r = run_scenario(_cfg(ScenarioKind.CENTRALIZED))
        assert r.mean_time == pytest.approx(15.618, abs=0.02)

    def test_anchor_differences_are_exact(self):
        base = run_scenario(_cfg(ScenarioKind.BASELINE)).mean_time
        direct = run_scenario(_cfg(ScenarioKind.DIRECT)).mean_time
        central = run_scenario(_cfg(ScenarioKind.CENTRALIZED)).mean_time
        assert direct - base == pytest.approx(1.890, abs=1e-12)
        assert central - base == pytest.approx(3.606, abs=1e-12)

    def test_zero_model_zero_time(self):
        lat = LatencyModel(t_reg=0, t_user=0, t_ws=0, t_registry=0, t_hop=0,
                           jitter_enabled=False)
        r = run_scenario(_cfg(ScenarioKind.BASELINE, users=1, resources=1, latency=lat))
        assert r.mean_time == 0.0


class TestAdditivityAndMonotonicity:
    def test_direct_minus_baseline_is_t_ws_everywhere(self):
        for u, r in GRID:
            base = run_scenario(_cfg(ScenarioKind.BASELINE, u, r)).mean_time
            direct = run_scenario(_cfg(ScenarioKind.DIRECT, u, r)).mean_time
            assert direct - base == pytest.approx(QUIET.t_ws, abs=1e-12)

    def test_centralized_minus_direct_is_t_registry_everywhere(self):
        for u, r in GRID:
            direct = run_scenario(_cfg(ScenarioKind.DIRECT, u, r)).mean_time
            central = run_scenario(_cfg(ScenarioKind.CENTRALIZED, u, r)).mean_time
            assert central - direct == pytest.approx(QUIET.t_registry, abs=1e-12)

    def test_means_strictly_increase_along_both_axes(self):
        for kind in (ScenarioKind.BASELINE, ScenarioKind.DIRECT, ScenarioKind.CENTRALIZED):
            means = {(u, r): run_scenario(_cfg(kind, u, r)).mean_time for u, r in GRID}
            for u, r in GRID:
                if (u + 20, r) in means:
                    assert means[(u + 20, r)] > means[(u, r)]
                if (u, r + 20) in means:
                    assert means[(u, r + 20)] > means[(u, r)]

    def test_scenario_ordering_with_shared_seed_and_jitter(self):
        lat = LatencyModel()  # jitter on
        for seed in (1, 2, 3):
            base = run_scenario(_cfg(ScenarioKind.BASELINE, 30, 30, lat, seed))
            direct = run_scenario(_cfg(ScenarioKind.DIRECT, 30, 30, lat, seed))
            central = run_scenario(_cfg(ScenarioKind.CENTRALIZED, 30, 30, lat, seed))
            assert central.mean_time >= direct.mean_time >= base.mean_time
            # equal seeds share the per-user jitter stream, so paired
            # differences are the configured constants exactly
            for tb, td, tc in zip(base.per_user_times, direct.per_user_times,
                                  central.per_user_times):
                assert td - tb == pytest.approx(lat.t_ws, abs=1e-12)
                assert tc - td == pytest.approx(lat.t_registry, abs=1e-12)


class TestRunResultShape:
    def test_mean_equals_stats_mean_exactly(self):
        r = run_scenario(_cfg(ScenarioKind.DIRECT, 17, 5, LatencyModel(), seed=9))
        assert r.mean_time == stats.mean(r.per_user_times)

    def test_trace_counts(self):
        tree = {"topology": TopologySpec(depth=2, branching=2), "query": ResourceQuery()}
        expected = {
            ScenarioKind.BASELINE: {"resource_register": 11, "user_query": 7},
            ScenarioKind.DIRECT: {"resource_register": 11, "service_call": 7, "user_query": 7},
            ScenarioKind.CENTRALIZED: {
                "registry_lookup": 7,
                "resource_register": 11,
                "service_call": 7,
                "user_query": 7,
            },
            ScenarioKind.DISTRIBUTED: {
                "registry_lookup": 7,
                "resource_register": 11,
                "service_call": 7,
                "user_query": 7,
            },
        }
        for kind, counts in expected.items():
            extra = tree if kind is ScenarioKind.DISTRIBUTED else {}
            r = run_scenario(_cfg(kind, 7, 11, **extra))
            assert r.trace_summary == counts
            # keys come out sorted, as the events.* lines of `gridrd run` print them
            assert list(r.trace_summary) == sorted(counts)

    def test_determinism(self):
        a = run_scenario(_cfg(ScenarioKind.DIRECT, 13, 29, LatencyModel(), seed=31))
        b = run_scenario(_cfg(ScenarioKind.DIRECT, 13, 29, LatencyModel(), seed=31))
        assert a == b

    def test_kind_is_checked(self):
        # a plain string would hash like its enum member and quietly run the
        # wrong overheads, so only ScenarioKind members are accepted
        with pytest.raises(ConfigMismatch):
            _cfg("distributed")

    def test_counts_validated(self):
        with pytest.raises(ConfigMismatch):
            _cfg(ScenarioKind.BASELINE, users=0)

    @pytest.mark.parametrize("field, value", [
        ("n_users", True), ("n_users", 2.5), ("n_users", "3"), ("n_resources", False),
        ("n_resources", 4.0), ("seed", True), ("seed", 1.5), ("seed", None),
    ])
    def test_non_integer_count_or_seed_rejected(self, field, value):
        fields = {"kind": ScenarioKind.BASELINE, "n_users": 3, "n_resources": 3, field: value}
        with pytest.raises(ConfigMismatch, match=f"^{field} must be an integer, got {value!r}$"):
            ScenarioConfig(**fields)

    @pytest.mark.parametrize("kind", [ScenarioKind.BASELINE, ScenarioKind.DISTRIBUTED])
    @pytest.mark.parametrize("field", ["n_users", "n_resources"])
    def test_a_count_too_large_for_a_float_is_named(self, field, kind):
        # a run's times are floats of both counts; 10**310 has none
        fields = {"kind": kind, "n_users": 3, "n_resources": 3, "topology": TopologySpec(depth=2)}
        with pytest.raises(ConfigMismatch, match=f"^{field} is too large to convert to a float$"):
            ScenarioConfig(**{**fields, field: 10**310})
        # the largest float's count is accepted as a resource count; a user count is bounded
        if field == "n_resources":
            assert ScenarioConfig(**{**fields, field: int(sys.float_info.max)})
        else:
            with pytest.raises(ConfigMismatch, match=f"^n_users must be at most {MAX_USERS}, got "):
                ScenarioConfig(**{**fields, field: int(sys.float_info.max)})

    @pytest.mark.parametrize("kind", [ScenarioKind.BASELINE, ScenarioKind.DISTRIBUTED])
    def test_user_count_is_bounded(self, kind):
        # each user costs a jitter draw and a resolve: a count a float holds, such as
        # 10**20, would otherwise reach those per-user loops and never end
        fields = {"kind": kind, "n_resources": 3, "topology": TopologySpec(depth=2)}
        assert ScenarioConfig(**fields, n_users=MAX_USERS).n_users == MAX_USERS
        for n_users in (MAX_USERS + 1, 10**20):
            with pytest.raises(ConfigMismatch, match=f"^n_users must be at most {MAX_USERS}, got {n_users}$"):
                ScenarioConfig(**fields, n_users=n_users)

    def test_dispatcher(self):
        r = run_scenario(_cfg(ScenarioKind.BASELINE, 3, 3))
        assert isinstance(r, RunResult)

    # a time that overflows to inf, and finite times whose sum overflows
    @pytest.mark.parametrize("latency, resources", [
        (LatencyModel(t_reg=1e307), 30),
        (LatencyModel(t_reg=1e307, jitter_enabled=False), 10),
    ], ids=["inf-time", "sum-overflow"])
    def test_latency_overflow_rejected(self, latency, resources):
        with pytest.raises(ScenarioError, match="latency overflows"):
            run_scenario(_cfg(ScenarioKind.BASELINE, 3, resources, latency))


class TestDistributed:
    TREE = TopologySpec(depth=3, branching=2)

    def test_requires_topology_and_query(self):
        with pytest.raises(ConfigMismatch):
            run_scenario(_cfg(ScenarioKind.DISTRIBUTED, 4, 4))
        # the query defaults to ResourceQuery(), which every finder satisfies
        assert run_scenario(_cfg(ScenarioKind.DISTRIBUTED, 4, 4, topology=self.TREE)).failed_users == ()

    def test_best_case_equals_centralized(self):
        # a finder at every leaf answers locally: no extra hops anywhere
        for seed in (0, 5):
            dist = run_scenario(
                _cfg(ScenarioKind.DISTRIBUTED, 8, 8, QUIET, seed,
                     topology=self.TREE, query=ResourceQuery())
            )
            central = run_scenario(_cfg(ScenarioKind.CENTRALIZED, 8, 8, QUIET, seed))
            assert dist.per_user_times == central.per_user_times
            assert dist.mean_time == central.mean_time
            assert dist.trace_summary == central.trace_summary
            assert dist.failed_users == ()

    def test_best_case_equality_holds_with_jitter(self):
        lat = LatencyModel()
        dist = run_scenario(
            _cfg(ScenarioKind.DISTRIBUTED, 8, 8, lat, 3,
                 topology=self.TREE, query=ResourceQuery())
        )
        central = run_scenario(_cfg(ScenarioKind.CENTRALIZED, 8, 8, lat, 3))
        assert dist.per_user_times == central.per_user_times

    def test_remote_finder_first_user_pays_then_cache_takes_over(self):
        # root; region a; region b with the only finder at svc.b;
        # users 0 and 2 sit at leaf a, user 1 at leaf svc.b
        tree = TopologySpec(zones=("a", "b", "svc.b"))
        dist = run_scenario(
            _cfg(ScenarioKind.DISTRIBUTED, 3, 4, QUIET, 0,
                 topology=tree, query=ResourceQuery(), finder_zones=("svc.b",))
        )
        central = run_scenario(_cfg(ScenarioKind.CENTRALIZED, 3, 4, QUIET, 0))
        extras = [d - c for d, c in zip(dist.per_user_times, central.per_user_times)]
        # user 0 walks a -> root -> b -> svc.b (4 contacts, 3 extra hops)
        assert extras[0] == pytest.approx(3 * QUIET.t_hop, abs=1e-12)
        assert extras[1] == 0.0  # authoritative at the user's own leaf
        assert extras[2] == 0.0  # cache warmed by user 0

    def test_zero_hop_cost_collapses_to_centralized(self):
        lat = LatencyModel(t_hop=0.0, jitter_enabled=False)
        tree = TopologySpec(zones=("a", "b", "svc.b"))
        dist = run_scenario(
            _cfg(ScenarioKind.DISTRIBUTED, 6, 6, lat, 0,
                 topology=tree, query=ResourceQuery(), finder_zones=("svc.b",))
        )
        central = run_scenario(_cfg(ScenarioKind.CENTRALIZED, 6, 6, lat, 0))
        assert dist.per_user_times == central.per_user_times

    def test_unsatisfiable_query_flags_every_user(self):
        dist = run_scenario(
            _cfg(ScenarioKind.DISTRIBUTED, 5, 5, QUIET, 0,
                 topology=self.TREE,
                 query=ResourceQuery(numeric_mins={"pe_count": 1e9}))
        )
        assert dist.failed_users == (0, 1, 2, 3, 4)
        # failed lookups still cost the registry round-trip, never a service call
        assert dist.trace_summary["registry_lookup"] == 5
        assert "service_call" not in dist.trace_summary


def pooled_summaries(topology, cfg) -> dict:
    """Each finder site's summary from its full catalog: the synthetic pool
    dealt round-robin over the sites, one ResourceSpec per resource."""
    sites = list(cfg.finder_zones) if cfg.finder_zones is not None else topology.leaves()
    pools = {site: [] for site in sites}
    for i in range(cfg.n_resources):
        site = sites[i % len(sites)]
        pools[site].append(ResourceSpec(
            resource_id=f"res-{i:04d}",
            numeric_attrs={"pe_count": 4.0, "mips_per_pe": 1000.0},
            tag_attrs={"arch": "x86", "os": "linux"},
            home_zone=site,
        ))
    return {site: summarize(MetadataCatalog(f"fnd-{site}", tuple(pool)))
            for site, pool in pools.items()}


class TestFinderSummaries:
    TREE = TopologySpec(depth=3, branching=3)  # nine leaves

    @pytest.mark.parametrize("resources", [1, 4, 9, 10, 23])
    @pytest.mark.parametrize("sites", [None, ("z00", "z01.z02", "z02.z02", "z01"),
                                       ("z00.z00", "z01", "z02.z01")])
    def test_summaries_equal_those_of_the_full_catalogs(self, resources, sites):
        cfg = _cfg(ScenarioKind.DISTRIBUTED, 3, resources, topology=self.TREE,
                   query=ResourceQuery(), finder_zones=sites)
        topology = build_topology(self.TREE)
        scenarios._populate_finders(topology, cfg)
        expected = pooled_summaries(build_topology(self.TREE), cfg)
        registered = {node_id: records for node_id, records in topology.records.items() if records}
        assert sorted(registered) == sorted(expected)
        for site, summary in expected.items():
            record = registered[site][f"fnd-{site}"]
            assert record.summary == summary
            assert repr(record.summary) == repr(summary)
            assert record.endpoint == f"svc://{site}/finder"
            assert record.home_zone == site

    @pytest.mark.parametrize("sites, resources", [(("nowhere",), 4), (("z00", "nowhere"), 1),
                                                  (("z00", "nowhere"), 5)])
    def test_unknown_site_rejected(self, sites, resources):
        with pytest.raises(UnknownNode, match="nowhere"):
            run_scenario(_cfg(ScenarioKind.DISTRIBUTED, 3, resources, topology=self.TREE,
                              query=ResourceQuery(), finder_zones=sites))

    @pytest.mark.parametrize("zones", ["ab", "a", ""])
    def test_finder_zones_may_not_be_a_string(self, zones):
        # a tree with zones a and b: the string "ab" would be read as those two sites
        message = f"^finder_zones must be a list of zone names, not the string {zones!r}$"
        with pytest.raises(ConfigMismatch, match=message):
            _cfg(ScenarioKind.DISTRIBUTED, 3, 3, topology=TopologySpec(zones=("a", "b")),
                 finder_zones=zones)

    @pytest.mark.parametrize("zones", [5, 2.5, True])
    def test_finder_zones_must_be_iterable(self, zones):
        message = f"^finder_zones must be a list of zone names, not {zones!r}$"
        with pytest.raises(ConfigMismatch, match=message):
            _cfg(ScenarioKind.BASELINE, 3, 3, finder_zones=zones)

    def test_finder_zones_are_stored_as_a_tuple(self):
        cfg = _cfg(ScenarioKind.DISTRIBUTED, 3, 3, topology=self.TREE, finder_zones=["z01", "z00.z02"])
        assert cfg.finder_zones == ("z01", "z00.z02")
        assert run_scenario(cfg) == run_scenario(_cfg(ScenarioKind.DISTRIBUTED, 3, 3, topology=self.TREE,
                                                      finder_zones=("z01", "z00.z02")))

    @pytest.mark.parametrize("kind", [ScenarioKind.BASELINE, ScenarioKind.DISTRIBUTED])
    def test_a_duplicate_finder_zone_is_rejected(self, kind):
        # one finder per site: a repeated site would take a second turn in the deal, and
        # this run would read 4.71636 where its sites without the repeat read 4.59136
        tree, sites = TopologySpec(depth=3, branching=2), ("z00.z00", "z00.z00", "z01.z00")
        with pytest.raises(ConfigMismatch, match="^duplicate zone in finder_zones$"):
            _cfg(kind, 4, 2, QUIET, topology=tree, finder_zones=sites)
        distinct = _cfg(kind, 4, 2, QUIET, topology=tree, finder_zones=sites[1:])
        if kind is ScenarioKind.DISTRIBUTED:
            assert run_scenario(distinct).mean_time == 4.59136
        with pytest.raises(ConfigMismatch, match="^duplicate zone in finder_zones$"):
            distinct._replace(finder_zones=list(sites))


# Distributed runs whose exact bytes are frozen in golden/distributed_runs.json:
# cache capacities 0, 1, 2 and none, default and explicit
# finder sites, and a query no finder satisfies.  Within one run every user
# searches the same authoritative records, so a query fails for all users or
# for none.
_TREE = TopologySpec(depth=4, branching=3)
_REGIONS = TopologySpec(zones=("eu", "us", "de.eu", "fr.eu", "east.us", "west.us", "ny.east.us"))
_FAR_LEAVES = ("z00.z01.z02", "z02.z02.z00")
GOLDEN_RUNS = {
    "cap-none": _cfg(ScenarioKind.DISTRIBUTED, 48, 40, LatencyModel(), 11, topology=_TREE,
                     query=ResourceQuery(), finder_zones=_FAR_LEAVES),
    "cap-0": _cfg(ScenarioKind.DISTRIBUTED, 48, 40, LatencyModel(), 11, topology=_TREE,
                  query=ResourceQuery(), finder_zones=_FAR_LEAVES,
                  policy=ResolutionPolicy(cache_capacity=0)),
    "cap-1-unpruned": _cfg(ScenarioKind.DISTRIBUTED, 30, 17, LatencyModel(), 5, topology=_TREE,
                           query=ResourceQuery(numeric_mins={"pe_count": 2.0}),
                           finder_zones=("z01.z00.z00", "z02", "z00.z02.z01"),
                           policy=ResolutionPolicy(cache_capacity=1)),
    "cap-2-regions": _cfg(ScenarioKind.DISTRIBUTED, 25, 9, QUIET, 3, topology=_REGIONS,
                          query=ResourceQuery(required_tags={"os": "linux"}),
                          finder_zones=("fr.eu", "ny.east.us", "us"),
                          policy=ResolutionPolicy(cache_capacity=2)),
    "every-leaf-unpruned": _cfg(ScenarioKind.DISTRIBUTED, 20, 6, LatencyModel(), 8,
                                topology=_REGIONS, query=ResourceQuery(),
                                policy=ResolutionPolicy()),
    "unsatisfiable": _cfg(ScenarioKind.DISTRIBUTED, 12, 10, LatencyModel(), 2, topology=_TREE,
                          query=ResourceQuery(numeric_mins={"pe_count": 1e9}),
                          finder_zones=_FAR_LEAVES, policy=ResolutionPolicy(cache_capacity=1)),
}


def golden_record(result: RunResult) -> dict:
    """A run's outputs as JSON-ready values, floats as float.hex."""
    return {
        "per_user_times": [t.hex() for t in result.per_user_times],
        "mean_time": result.mean_time.hex(),
        "failed_users": list(result.failed_users),
        "trace_summary": dict(result.trace_summary),
    }


class TestDistributedGolden:
    def test_repeated_runs_are_equal_across_other_specs(self):
        configs = [GOLDEN_RUNS["cap-none"], GOLDEN_RUNS["cap-2-regions"], GOLDEN_RUNS["cap-0"]]
        first = [run_scenario(cfg) for cfg in configs]
        assert [run_scenario(cfg) for cfg in reversed(configs)] == first[::-1]
        # four more tree shapes, as many as build_topology keeps, so the
        # shapes above are evicted and rebuilt before the last repeat
        for depth in (1, 2, 3, 5):
            run_scenario(_cfg(ScenarioKind.DISTRIBUTED, 6, 6, QUIET, 0, query=ResourceQuery(),
                              topology=TopologySpec(depth=depth, branching=3)))
        assert [run_scenario(cfg) for cfg in configs] == first


    @pytest.mark.parametrize("name", sorted(name for name, cfg in GOLDEN_RUNS.items() if cfg.finder_zones))
    def test_resolution_does_not_depend_on_the_seed(self, name):
        # every user resolves at one instant, so a point's hop costs are the same
        # in every replication: the premise of resolving once per sweep point
        cfg = GOLDEN_RUNS[name]
        other = cfg._replace(seed=cfg.seed + 1000)
        hops, failed = scenarios._resolve_users(cfg)
        assert (hops, failed) == scenarios._resolve_users(other)
        assert len(hops) == cfg.n_users
        assert any(hops) if not failed else failed == tuple(range(cfg.n_users))
        if cfg.latency.jitter_enabled:  # the seed still moves the jitter
            assert run_scenario(cfg).per_user_times != run_scenario(other).per_user_times

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_run_matches_golden(self, name):
        golden = json.loads((Path(__file__).parent / "golden" / "distributed_runs.json").read_text())
        assert golden_record(run_scenario(GOLDEN_RUNS[name])) == golden[name]


class TestSearchesPerRun:
    """A run's users share one query, so some searches tell what others would find."""

    @pytest.fixture
    def searched(self, monkeypatch):
        origins, search = [], Topology._search
        monkeypatch.setattr(Topology, "_search",
                            lambda self, origin, *args: origins.append(origin) or search(self, origin, *args))
        return origins

    def test_a_run_nothing_satisfies_searches_nothing(self, searched):
        cfg = GOLDEN_RUNS["unsatisfiable"]
        assert run_scenario(cfg).failed_users == tuple(range(cfg.n_users))
        assert searched == []

    @pytest.mark.parametrize("users", [12, 48, 100])
    def test_a_capacity_zero_run_searches_each_distinct_leaf_once(self, searched, users):
        # 27 leaves, two of them finder sites, which answer themselves with no search
        cfg = GOLDEN_RUNS["cap-0"]._replace(n_users=users)
        run_scenario(cfg)
        origins = set(build_topology(cfg.topology).leaves()[:users])  # min(users, 27) of them
        assert sorted(searched) == sorted(origins - set(cfg.finder_zones))

    @pytest.mark.parametrize("cfg", [GOLDEN_RUNS["every-leaf-unpruned"],  # 20 users on 4 leaves
                                     GOLDEN_RUNS["cap-none"]._replace(finder_zones=None, n_users=100),
                                     GOLDEN_RUNS["cap-0"]._replace(finder_zones=None, n_users=100)],
                             ids=["regions", "cap-none", "cap-0"])
    def test_a_run_with_a_finder_at_every_leaf_searches_nothing(self, searched, cfg):
        # every leaf's own finder has a non-empty pool and answers, so every user counts 1
        assert cfg.n_users > len(build_topology(cfg.topology).leaves()) and cfg.finder_zones is None
        hops, failed = scenarios._resolve_users(cfg)
        assert searched == [] and not failed and set(hops) == {0.0}


# -- the resolution knobs a run can feel ----------------------------------------
# Every user of a run asks one query at one instant, and a cache only ever holds
# answers to it, so the first repository holding a cache that a search reaches
# answers it.  So a run feels cache_capacity only as 0 or not.


@st.composite
def _knob_runs(draw):
    """A distributed run over a uniform tree, with its finder sites and users drawn."""
    tree = TopologySpec(depth=draw(st.integers(1, 5)), branching=draw(st.integers(1, 4)))
    shape = build_topology(tree).shape
    sites = draw(st.none() | st.lists(st.sampled_from(shape.order), min_size=1, max_size=4, unique=True))
    return _cfg(ScenarioKind.DISTRIBUTED, draw(st.integers(1, 3 * len(shape.leaves) + 5)),
                draw(st.integers(1, 40)), LatencyModel(), draw(st.integers(0, 99)),
                topology=tree, query=ResourceQuery(), finder_zones=None if sites is None else tuple(sites))


@settings(max_examples=100)
@given(cfg=_knob_runs(), zero_cap=st.booleans())
def test_a_run_feels_only_whether_the_cache_capacity_is_zero(cfg, zero_cap):
    caps = (0,) if zero_cap else (None, 1, 2, 5)
    times = {run_scenario(cfg._replace(policy=ResolutionPolicy(cap))).per_user_times for cap in caps}
    assert len(times) == 1
