"""Whole runs and sweeps against a reference model built from the layer oracles.

``reference_run`` composes ``reference_vector`` (the scalar jitter draw) and
``reference_resolve`` (the recursive search) as the scenarios docstrings
describe a run: users dealt round-robin onto the leaves, one resolve per user
in user order, each overhead added in its own pass in the documented order,
and a failed user paying no hop and making no service call.  ``run_scenario``
and ``run_sweep`` must match it bit for bit.
"""

import math

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from gridrd import scenarios
from gridrd.config import Config
from gridrd.domain import FinderRecord, ResourceQuery
from gridrd.harness import SweepSpec, run_sweep
from gridrd.registry import ResolutionPolicy, TopologySpec, build_topology
from gridrd.scenarios import ScenarioConfig, ScenarioKind, run_scenario
from gridrd.simkern import LatencyModel, mix64
from tests.test_registry import children_of, name_of, reference_resolve, zone_trees
from tests.test_scenarios import pooled_summaries
from tests.test_simkern import reference_vector

# Each kind's per-user overheads, in the order they are added.
OVERHEADS = {
    ScenarioKind.BASELINE: (),
    ScenarioKind.DIRECT: ("t_ws",),
    ScenarioKind.CENTRALIZED: ("t_ws", "t_registry"),
    ScenarioKind.DISTRIBUTED: ("t_ws", "t_registry", "hop"),
}


def reference_run(cfg: ScenarioConfig):
    """(per_user_times, mean_time, failed_users, trace_summary) of one run, step by step."""
    lat, kind = cfg.latency, cfg.kind
    base = lat.t_base + lat.t_reg * cfg.n_resources + lat.t_user * cfg.n_users
    jitter = reference_vector(mix64(cfg.seed, scenarios._JITTER_STREAM), lat, cfg.n_users, cfg.n_resources)
    times = [base * j for j in jitter]
    hops, failed = {}, []
    if kind is ScenarioKind.DISTRIBUTED:
        topo = build_topology(cfg.topology)
        for site, summary in pooled_summaries(topo, cfg).items():
            topo.register_finder(FinderRecord(f"fnd-{site}", f"svc://{site}/finder", site, summary))
        leaves = sorted(node for node, below in children_of(topo.shape).items() if not below)
        for user in range(cfg.n_users):
            found = reference_resolve(topo, leaves[user % len(leaves)], cfg.query, cfg.policy)
            if found is None:
                failed.append(user)
            else:
                hops[user] = lat.t_hop * (len(found[1]) - 1)
    for name in OVERHEADS[kind]:
        if name == "hop":
            times = [t + hops[user] if user in hops else t for user, t in enumerate(times)]
        else:
            times = [t + getattr(lat, name) for t in times]
    counts = {"resource_register": cfg.n_resources, "user_query": cfg.n_users}
    if "t_ws" in OVERHEADS[kind]:
        counts["service_call"] = cfg.n_users - len(failed)
    if "t_registry" in OVERHEADS[kind]:
        counts["registry_lookup"] = cfg.n_users
    trace = [(name, n) for name, n in sorted(counts.items()) if n]
    return tuple(times), math.fsum(times) / len(times), tuple(failed), trace


def assert_matches_reference(cfg: ScenarioConfig) -> None:
    result = run_scenario(cfg)
    times, mean, failed, trace = reference_run(cfg)
    assert [t.hex() for t in result.per_user_times] == [t.hex() for t in times]
    assert result.mean_time.hex() == mean.hex()
    assert result.failed_users == failed
    assert list(result.trace_summary.items()) == trace
    if cfg.kind is ScenarioKind.DISTRIBUTED:
        hopped = times != reference_run(cfg._replace(kind=ScenarioKind.CENTRALIZED))[0]
        event("all failed" if failed else "some hop" if hopped else "no hop")


# Overhead terms whose sums round differently when added in another order, and -0.0,
# which a sum keeps only if every term it adds is -0.0.
TERMS = st.floats(0.0, 50.0) | st.sampled_from((1.890, 1.716, 0.5, 1e-9, 3e5, -0.0))


@st.composite
def latencies(draw):
    return LatencyModel(t_ws=draw(TERMS), t_registry=draw(TERMS), t_hop=draw(TERMS),
                        t_base=draw(st.sampled_from((0.0, 0.25, -0.0))),
                        t_reg=draw(st.sampled_from((0.06006, -0.0))), t_user=draw(st.sampled_from((0.06006, -0.0))),
                        jitter_enabled=draw(st.booleans()))


@st.composite
def trees(draw):
    """A uniform tree or a zone-list one."""
    if draw(st.booleans()):
        return TopologySpec(depth=draw(st.integers(1, 4)), branching=draw(st.integers(1, 3)))
    return TopologySpec(zones=tuple(name_of(zone) for zone in draw(zone_trees())[1:]))


# a query every pooled finder may satisfy, a tag it has, and one that nothing satisfies
QUERIES = (ResourceQuery(), ResourceQuery(required_tags={"os": "linux"}),
           ResourceQuery(numeric_mins={"pe_count": 1e9}))


@st.composite
def runs(draw):
    kind = draw(st.sampled_from((*ScenarioKind, ScenarioKind.DISTRIBUTED, ScenarioKind.DISTRIBUTED)))
    n_resources = draw(st.integers(1, 30))
    latency, seed = draw(latencies()), draw(st.integers(-2**63, 2**64))
    if kind is not ScenarioKind.DISTRIBUTED:
        return ScenarioConfig(kind, draw(st.integers(1, 40)), n_resources, latency, seed)
    tree = draw(trees())
    shape = build_topology(tree).shape
    sites = draw(st.none() | st.lists(st.sampled_from(shape.order), min_size=1, max_size=4, unique=True))
    return ScenarioConfig(kind, draw(st.integers(1, 3 * len(shape.leaves) + 5)), n_resources, latency,
                          seed, topology=tree, query=draw(st.sampled_from(QUERIES)),
                          finder_zones=sites, policy=ResolutionPolicy(draw(st.sampled_from((None, 0, 1, 2)))))


# every latency -0.0: both users fail, and a failed user's time stays -0.0
ZEROS = LatencyModel(**dict.fromkeys(("t_reg", "t_user", "t_ws", "t_registry", "t_hop", "t_base"), -0.0),
                     jitter_enabled=False)


@settings(max_examples=300)
@given(cfg=runs())
@example(cfg=ScenarioConfig(ScenarioKind.DISTRIBUTED, 2, 2, ZEROS, topology=TopologySpec(depth=2, branching=2),
                            query=ResourceQuery(numeric_mins={"pe_count": 8.0})))
def test_a_run_matches_the_reference_model(cfg):
    assert_matches_reference(cfg)


@settings(max_examples=40)
@given(scenarios_=st.lists(st.sampled_from(ScenarioKind), min_size=1, max_size=5),
       points=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=4),
       replications=st.integers(1, 3), base_seed=st.integers(0, 2**64), latency=latencies(),
       tree=trees(), cap=st.sampled_from((None, 0, 1, 2)))
def test_a_sweep_matches_a_loop_of_reference_runs(scenarios_, points, replications, base_seed, latency,
                                                  tree, cap):
    spec = SweepSpec(points=points, replications=replications, base_seed=base_seed, scenarios=scenarios_)
    policy = ResolutionPolicy(cap)
    expected = []
    for kind in sorted(set(scenarios_), key=list(ScenarioKind).index):
        for users, resources in sorted(set(points)):
            for rep in range(replications):
                seed = mix64(base_seed, list(ScenarioKind).index(kind), users, resources, rep)
                mean = reference_run(ScenarioConfig(kind, users, resources, latency, seed, topology=tree,
                                                    policy=policy))[1]
                expected.append((kind, users, resources, rep, seed, mean.hex()))
    rows = run_sweep(spec, Config(latency=latency, policy=policy, topology=tree))
    assert [(*row[:5], row.discovery_time_s.hex()) for row in rows] == expected
