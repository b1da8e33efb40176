import contextlib
import copy
import gc
import math
import random
import re
import sys
import time
import tracemalloc

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from gridrd import domain, registry
from gridrd.domain import FinderRecord, MetadataSummary, ResourceQuery, summary_may_satisfy
from gridrd.registry import (
    MAX_REPOSITORIES,
    DuplicateFinder,
    MalformedTopology,
    NotFound,
    ResolutionPolicy,
    ResolutionResult,
    Topology,
    TopologySpec,
    UnknownNode,
    build_topology,
    check_tree_size,
)
from tests.test_domain import MetadataCatalog, ResourceSpec, is_ancestor_of, labels, summarize

_TAGS = ("x86", "arm", "linux", "bsd")


def name_of(zone: tuple[str, ...]) -> str:
    """The dotted name of a zone's labels, most specific first; the root is ``"."``."""
    return ".".join(zone) or "."


def _record(finder_id: str, zone: str, rng: random.Random) -> FinderRecord:
    entries = tuple(
        ResourceSpec(
            f"{finder_id}-r{i}",
            {"pe_count": rng.uniform(0, 32), "mips_per_pe": rng.uniform(0, 5000)},
            {"os": rng.choice(_TAGS)},
            zone,
        )
        for i in range(rng.randint(0, 4))
    )
    catalog = MetadataCatalog(finder_id, entries)
    return FinderRecord(finder_id, f"svc://{finder_id}", zone, summarize(catalog))


def random_topology(rng: random.Random, max_nodes: int = 50):
    """A random tree plus randomly homed finders; returns (topology, records)."""
    n_nodes = rng.randint(1, max_nodes)
    zones = ["."]
    while len(zones) < n_nodes:
        parent = rng.choice(zones)
        label = f"z{len(zones):03d}"
        child = label if parent == "." else f"{label}.{parent}"
        zones.append(child)
    topo = build_topology(TopologySpec(zones=tuple(zones[1:])))
    records = []
    for i in range(rng.randint(0, 8)):
        zone = rng.choice(zones)
        record = _record(f"fnd-{i:02d}", zone, rng)
        topo.register_finder(record)
        records.append(record)
    return topo, records


def random_query(rng: random.Random) -> ResourceQuery:
    numeric = {}
    if rng.random() < 0.8:
        numeric["pe_count"] = rng.uniform(0, 40)
    if rng.random() < 0.3:
        numeric["mips_per_pe"] = rng.uniform(0, 6000)
    tags = {"os": rng.choice(_TAGS)} if rng.random() < 0.4 else {}
    return ResourceQuery(numeric, tags)


def brute_force_candidates(records, query) -> list[str]:
    return sorted(r.finder_id for r in records if summary_may_satisfy(query, r.summary))


def cache_at(topo: Topology, node_id: str, record: FinderRecord) -> None:
    """Write the record into one repository's cache, through the search's write routine,
    under the tree's cap, which is not 0."""
    start = topo.shape.span[node_id][0]
    topo._write(((start, start + 1),), record)


def contacted(topo: Topology, origin: str, hops: int) -> list[str]:
    """The first ``hops`` repositories a search from origin contacts, in order."""
    order = topo.shape.order
    return [node_id for start, stop in topo._contacted(origin, hops) for node_id in order[start:stop]]


def cache_snapshot(topo: Topology):
    return {nid: list(cache.items()) for nid, cache in topo.caches.items() if cache}


def local_lookup(topo: Topology, node_id: str, query: ResourceQuery) -> list[FinderRecord]:
    """The search's lookup at one repository: its first hit, or nothing."""
    first = topo._first_hit(node_id, query)
    return [] if first is None else [first]


def children_of(shape) -> dict[str, list[str]]:
    """Each node id's child ids in label order, rebuilt from ``shape.parent``."""
    children = {node_id: [] for node_id in shape.parent}
    for node_id, parent in shape.parent.items():
        if parent is not None:
            children[parent].append(node_id)
    return {node_id: sorted(below, key=lambda child: labels(child)[0]) for node_id, below in children.items()}


def reference_order(zones: set[tuple[str, ...]], origin: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The module docstring's search order over label tuples (the root is ``()``).

    The origin's own subtree depth-first, then each ancestor in turn: the
    ancestor itself, then its child subtrees other than the one just left,
    children in label order.
    """
    def subtree(zone, skip=None):
        children = sorted(c for c in zones if len(c) == len(zone) + 1 and c[1:] == zone)
        return [zone] + [z for child in children if child != skip for z in subtree(child)]

    order, came_from = [], None
    for k in range(len(origin) + 1):
        order += subtree(origin[k:], came_from)
        came_from = origin[k:]
    return order


def reference_lookup(topo: Topology, node_id: str, query: ResourceQuery) -> list[FinderRecord]:
    """A repository's lookup as documented: satisfying authoritative records by
    id, then cached ones by id; a finder with an authoritative record is never
    taken from the cache."""
    authoritative = topo.records.get(node_id, {})
    cached = {finder_id: record for finder_id, record in topo.caches.get(node_id, {}).items()
              if finder_id not in authoritative}
    return [record
            for group in (authoritative, cached)
            for _, record in sorted(group.items())
            if summary_may_satisfy(query, record.summary)]


def reference_resolve(topo: Topology, origin: str, query: ResourceQuery, policy: ResolutionPolicy):
    """resolve as the module and method docstrings describe it, searched recursively.

    Returns (record, path, cache_hit, caches_populated), or None where
    resolve raises NotFound, and applies the cache updates to ``topo``'s
    caches: unless ``cache_capacity`` is 0, which caches nothing, every
    populated repository drops its entry for the finder, adds the record as
    its newest and keeps its newest ``cache_capacity``.
    """
    shape, path = topo.shape, []
    children = children_of(shape)

    def visit(node_id, skip):
        path.append(node_id)
        hits = reference_lookup(topo, node_id, query)
        if hits:
            return hits[0], hits[0].finder_id not in topo.records.get(node_id, {})
        for child_id in children[node_id]:
            if child_id != skip and (found := visit(child_id, None)) is not None:
                return found
        return None

    came_from, current, found = None, origin, None
    while found is None and current is not None:
        found = visit(current, came_from)
        came_from, current = current, shape.parent[current]
    if found is None:
        return None
    record, cache_hit = found
    populated = [n for n in path if record.finder_id not in topo.records.get(n, {})]
    cap = policy.cache_capacity
    for node_id in populated if cap != 0 else ():
        entries = [(f, e) for f, e in topo.caches.get(node_id, {}).items() if f != record.finder_id]
        entries.append((record.finder_id, record))
        topo.caches[node_id] = dict(entries if cap is None else entries[len(entries) - cap:])
    return record, tuple(path), cache_hit, tuple(populated)


@st.composite
def summaries(draw):
    """Summaries that some queries fail: small pe_count ranges, one tag, maybe empty."""
    return MetadataSummary(
        numeric_ranges={"pe_count": (0.0, draw(st.sampled_from((1.0, 4.0, 16.0))))},
        tag_values={"os": frozenset({draw(st.sampled_from(("linux", "bsd")))})},
        entry_count=draw(st.sampled_from((0, 1, 3))),
    )


@st.composite
def zone_trees(draw):
    """Label tuples of a random tree, root first, every parent before its children."""
    zones = [()]
    for pick, label in draw(st.lists(st.tuples(st.integers(0, 999),
                                               st.sampled_from(("a", "ab", "b", "b-2", "z9"))),
                                     max_size=25)):
        child = (label,) + zones[pick % len(zones)]
        if child not in zones:
            zones.append(child)
    return zones


# -- build_topology -----------------------------------------------------------


class TestBuildTopology:
    def test_depth_one_is_a_lone_root(self):
        topo = build_topology(TopologySpec(depth=1))
        assert list(topo.shape.parent) == ["."]
        assert topo.shape.parent["."] is None

    def test_depth_three_branching_two(self):
        topo = build_topology(TopologySpec(depth=3, branching=2))
        assert len(topo.shape.parent) == 7
        leaves = topo.leaves()
        assert len(leaves) == 4
        for leaf in leaves:
            assert len(labels(leaf)) == 2

    @pytest.mark.parametrize("branching, first, last", [(1, "z00", "z00"), (11, "z00", "z10"),
                                                        (100, "z00", "z99"), (101, "z000", "z100")])
    def test_uniform_zones_are_numbered_labels_most_specific_first(self, branching, first, last):
        # labels are z and the child's index, zero-padded to max(2, digits of branching - 1)
        leaves = build_topology(TopologySpec(depth=2, branching=branching)).leaves()
        assert (len(leaves), leaves[0], leaves[-1]) == (branching, first, last)
        assert build_topology(TopologySpec(depth=3, branching=2)).shape.order == (
            ".", "z00", "z00.z00", "z01.z00", "z01", "z00.z01", "z01.z01")

    def test_every_edge_satisfies_the_suffix_property(self):
        rng = random.Random(5)
        for _ in range(25):
            topo, _ = random_topology(rng)
            shape = topo.shape
            roots = [n for n, parent in shape.parent.items() if parent is None]
            assert len(roots) == 1
            children = children_of(shape)
            for node_id, below in children.items():
                for child_id in below:
                    assert labels(child_id)[1:] == labels(node_id)
                    assert shape.parent[child_id] == node_id
            assert topo.leaves() == tuple(sorted(n for n, below in children.items() if not below))

    @given(zones=zone_trees())
    def test_order_is_the_preorder_and_each_span_its_subtree(self, zones):
        shape = build_topology(TopologySpec(zones=tuple(name_of(z) for z in zones[1:]))).shape
        preorder = reference_order(set(zones), ())  # the root's subtree, children by label
        assert shape.order == tuple(name_of(z) for z in preorder)
        assert shape.span.keys() == shape.parent.keys()
        for zone in zones:
            start, end = shape.span[name_of(zone)]
            assert shape.order[start:end] == tuple(name_of(z) for z in preorder if is_ancestor_of(zone, z))

    @pytest.mark.parametrize("depth, branching", [(1, 1), (4, 1), (2, 4), (3, 3), (4, 2), (3, 11)])
    def test_uniform_spec_equals_its_zone_list(self, depth, branching):
        labels = [f"z{i:02d}" for i in range(branching)]
        level, zones = ["."], []
        for _ in range(depth - 1):
            level = [label if parent == "." else f"{label}.{parent}"
                     for parent in level for label in labels]
            zones += level
        uniform = build_topology(TopologySpec(depth=depth, branching=branching))
        explicit = build_topology(TopologySpec(zones=tuple(zones)))
        assert list(uniform.shape.parent) == ["."] + zones
        for table in ("parent", "span"):
            assert (list(getattr(explicit.shape, table).items())
                    == list(getattr(uniform.shape, table).items()))
        assert explicit.shape.order == uniform.shape.order
        assert explicit.leaves() == uniform.leaves()
        assert explicit.shape.order[0] == uniform.shape.order[0] == "."

    def test_zone_list_requires_ancestors(self):
        with pytest.raises(MalformedTopology):
            build_topology(TopologySpec(zones=("ca.grid",)))

    def test_duplicate_zone_rejected(self):
        with pytest.raises(MalformedTopology):
            build_topology(TopologySpec(zones=("grid", "grid")))

    def test_bad_shape_parameters(self):
        with pytest.raises(MalformedTopology):
            build_topology(TopologySpec(depth=0))
        with pytest.raises(MalformedTopology):
            build_topology(TopologySpec(depth=2, branching=0))
        with pytest.raises(MalformedTopology):
            build_topology(TopologySpec())
        with pytest.raises(MalformedTopology):
            build_topology(TopologySpec(depth=2, zones=("a",)))

    @pytest.mark.parametrize("kwargs", [
        {"depth": 2.5}, {"depth": 3.0}, {"depth": True}, {"depth": "3"},
        {"depth": 2, "branching": 1.5}, {"depth": 2, "branching": False},
    ])
    def test_non_integer_shape_rejected(self, kwargs):
        with pytest.raises(MalformedTopology, match="must be an integer"):
            build_topology(TopologySpec(**kwargs))

    def test_zone_list_may_be_a_list(self):
        spec = TopologySpec(zones=["a", "b.a"])
        assert spec == TopologySpec(zones=("a", "b.a"))
        assert hash(spec) == hash(TopologySpec(zones=("a", "b.a")))
        assert list(build_topology(spec).shape.parent) == [".", "a", "b.a"]

    def test_builds_share_no_state(self):
        spec = TopologySpec(depth=3, branching=2)
        first, second = build_topology(spec), build_topology(spec)
        shape = first.shape
        assert second.shape is shape and copy.deepcopy(first).shape is shape
        # every field of the shape is checked below
        assert shape.__slots__ == ("parent", "leaves", "order", "span")
        assert first.records is not second.records and first.caches is not second.caches
        tables = (shape.parent, shape.span)
        clean = [dict(table) for table in tables] + [shape.leaves, shape.order]

        # the shape cannot be written to
        for table in tables:
            with pytest.raises(TypeError):
                table["extra"] = None
            with pytest.raises(TypeError):
                del table["z00"]
        with pytest.raises(TypeError):
            shape.leaves[0] = "nowhere"
        with pytest.raises(TypeError):
            shape.order[0] = "nowhere"
        with pytest.raises(TypeError):
            shape.span["."][1] = 0

        # a run's worth of state on both earlier trees
        for topo in (first, second):
            zone = "z01.z01"
            cat = MetadataCatalog("f1", (ResourceSpec("r", {"pe_count": 8.0}, {}, zone),))
            topo.register_finder(FinderRecord("f1", "svc://1", zone, summarize(cat)))
            assert topo.resolve("z00.z00", ResourceQuery()).caches_populated
            assert topo.records and topo.caches

        third = build_topology(spec)
        assert third.shape is shape
        assert [dict(table) for table in tables] + [shape.leaves, shape.order] == clean
        assert third.records == {} and third.caches == {}
        with pytest.raises(NotFound):
            third.resolve("z00.z00", ResourceQuery())

    def test_a_build_allocates_one_byte_per_repository(self):
        # the tracemalloc peak of a build of a warmed spec: 85 vs 1365 repositories;
        # the run's marks hold one byte per repository, and nothing else grows with the tree
        def peak(spec):
            build_topology(spec)
            peaks = []
            for _ in range(3):
                tracemalloc.start()
                try:
                    build_topology(spec)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return min(peaks)

        small = peak(TopologySpec(depth=4, branching=4))
        large = peak(TopologySpec(depth=6, branching=4))
        assert large <= small + (1365 - 85) + 512, (small, large)

    @pytest.mark.parametrize("spec", [  # the fields of a spec
        {"depth": 0}, {"depth": 2.5}, {"zones": ("ca.grid",)},
        {"zones": ("grid", "grid")}, {"depth": 30, "branching": 2}, {"zones": "grid"},
    ])
    def test_malformed_spec_raises_on_every_call(self, spec):
        for _ in range(3):
            with pytest.raises(MalformedTopology):
                build_topology(TopologySpec(**spec))

    def test_a_label_may_not_end_in_a_newline(self):
        with pytest.raises(ValueError, match=r"invalid zone label 'a\\n'"):
            TopologySpec(zones=("b", "a\n.b"))

    @pytest.mark.parametrize("zones", ["grid", "a", ""])
    def test_a_string_is_not_a_zone_list(self, zones):
        # tuple("grid") would be the four zones g, r, i and d
        with pytest.raises(MalformedTopology, match=f"not the string {zones!r}"):
            TopologySpec(zones=zones)

    @pytest.mark.parametrize("zones", [5, 2.5, True])
    def test_a_non_iterable_is_not_a_zone_list(self, zones):
        with pytest.raises(MalformedTopology, match=f"^zones must be a list of zone names, not {zones!r}$"):
            TopologySpec(zones=zones)

    @pytest.mark.parametrize("zones, item", [([(20, 20)], "(20, 20)"), ([[3, 4]], "[3, 4]"), ([5], "5"),
                                             (["a", None], "None"), (("a", b"b"), "b'b'")])
    def test_a_zone_that_is_not_a_string_is_named(self, zones, item):
        # checked before the spec is hashed, which a list item would break
        with pytest.raises(MalformedTopology) as info:
            TopologySpec(zones=zones)
        assert type(info.value) is MalformedTopology
        assert str(info.value) == f"zones must be a list of zone names, got the item {item}"

    def test_a_build_checks_each_label_of_a_zone_list_once(self, monkeypatch):
        # a uniform tree's generated labels are valid by construction
        label_re, checked = domain._LABEL_RE, []

        class CountingPattern:
            def fullmatch(self, text):
                checked.append(text)
                return label_re.fullmatch(text)

        monkeypatch.setattr(domain, "_LABEL_RE", CountingPattern())
        registry._tree_shape.cache_clear()
        assert len(build_topology(TopologySpec(depth=6, branching=4)).shape.parent) == 1365
        assert checked == []
        zones = (" a ", "b.a", "c.b.a", "x", "y.x", ".")
        build_topology(TopologySpec(zones=zones))
        assert sorted(checked) == ["a", "a", "a", "b", "b", "c", "x", "x", "y"]

    def test_oversized_tree_rejected_before_building(self):
        # ~1e9 and 2**1000 nodes: only an arithmetic check can answer quickly
        start = time.perf_counter()
        for kwargs in ({"depth": 30, "branching": 2}, {"depth": 1000, "branching": 2},
                       {"depth": 10**9, "branching": 1}):
            with pytest.raises(MalformedTopology, match="repositories"):
                build_topology(TopologySpec(**kwargs))
        assert time.perf_counter() - start < 1.0

    def test_tree_size_limit_is_exact(self):
        check_tree_size(MAX_REPOSITORIES, 1)
        check_tree_size(2, MAX_REPOSITORIES - 1)  # root plus its children
        with pytest.raises(MalformedTopology):
            check_tree_size(MAX_REPOSITORIES + 1, 1)
        with pytest.raises(MalformedTopology):
            check_tree_size(2, MAX_REPOSITORIES)
        with pytest.raises(MalformedTopology):
            check_tree_size(20, 2)  # 2**20 - 1 = 1048575 nodes
        check_tree_size(19, 2)


# -- register / local_lookup -------------------------------------------------


class TestNodeOperations:
    def _one_node(self):
        return build_topology(TopologySpec(depth=1))

    def test_register_then_lookup(self):
        topo = self._one_node()
        rec = _record("f1", ".", random.Random(0))
        topo.register_finder(rec)
        hits = local_lookup(topo, ".", ResourceQuery())
        assert [h.finder_id for h in hits] == (["f1"] if rec.summary.entry_count else [])

    def test_reregistration_raises(self):
        # a finder registers once: a second record of the id, at the same home, changes nothing
        topo = self._one_node()
        zone = "."
        cat1 = MetadataCatalog("f1", (ResourceSpec("a", {"pe_count": 2.0}, {}, zone),))
        cat2 = MetadataCatalog("f1", (ResourceSpec("a", {"pe_count": 16.0}, {}, zone),))
        first = FinderRecord("f1", "svc://1", zone, summarize(cat1))
        topo.register_finder(first)
        with pytest.raises(DuplicateFinder, match=r"^finder 'f1' is already authoritative at '\.'$"):
            topo.register_finder(FinderRecord("f1", "svc://1", zone, summarize(cat2)))
        assert topo.records == {".": {"f1": first}} and topo.home_of == {"f1": "."}
        assert local_lookup(topo, ".", ResourceQuery(numeric_mins={"pe_count": 8})) == []

    def test_unknown_node(self):
        topo = self._one_node()
        with pytest.raises(UnknownNode, match=r"^no repository named 'nowhere'$"):
            topo.register_finder(_record("f1", "nowhere", random.Random(0)))
        with pytest.raises(UnknownNode, match=r"^no repository named 'nowhere'$"):
            topo.resolve("nowhere", ResourceQuery())
        assert topo.records == {} and not any(topo.marks)

    def test_lookup_equals_brute_force_over_auth_and_fresh_cache(self):
        rng = random.Random(23)
        for _ in range(50):
            topo, _ = random_topology(rng, max_nodes=5)
            node_id = rng.choice(sorted(topo.shape.parent))
            authoritative, cache = topo.records.get(node_id, {}), {}
            for i in range(rng.randint(0, 5)):
                rec = _record(f"cached-{i}", "far.away", rng)
                cache[rec.finder_id] = rec
            if cache:
                topo.caches[node_id] = cache
            query = random_query(rng)
            # the empty query pins the documented order: the smallest satisfying
            # authoritative id, else the smallest cached one
            for query in (query, ResourceQuery()):
                hits = local_lookup(topo, node_id, query)
                expected_auth = sorted(
                    fid for fid, r in authoritative.items()
                    if summary_may_satisfy(query, r.summary)
                )
                expected_cached = sorted(
                    r.finder_id
                    for r in cache.values()
                    if r.finder_id not in authoritative and summary_may_satisfy(query, r.summary)
                )
                expected = (expected_auth + expected_cached)[:1]
                assert [h.finder_id for h in hits] == expected


class TestFirstHit:
    @given(zones=zone_trees(), data=st.data())
    def test_search_stops_at_the_first_local_hit(self, zones, data):
        # at every node: the search's lookup is the lookup oracle's first record
        # (or nothing), and a resolve from there answers with it in one hop
        topo = build_topology(TopologySpec(zones=tuple(name_of(z) for z in zones[1:])))
        ids = ("f0", "f1", "f2", "f3", "f4")
        for fid in data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=4), label="auth"):
            zone = name_of(data.draw(st.sampled_from(zones)))
            topo.register_finder(FinderRecord(fid, "svc://a", zone, data.draw(summaries())))
        # records cached through the write path: a later one of a finder replacing
        # the earlier, possibly shadowed by the node's authoritative record
        for _ in range(data.draw(st.integers(0, 10), label="cached")):
            node_id = name_of(data.draw(st.sampled_from(zones)))
            record = FinderRecord(data.draw(st.sampled_from(ids)), "svc://c", "far",
                                  data.draw(summaries()))
            cache_at(topo, node_id, record)
        tags = data.draw(st.sampled_from(({}, {"os": "linux"})))
        query = ResourceQuery({"pe_count": data.draw(st.sampled_from((0.0, 2.0, 8.0)))}, tags)
        for node_id in topo.shape.parent:
            expected = reference_lookup(topo, node_id, query)
            first = expected[0] if expected else None
            assert topo._first_hit(node_id, query) is first
            try:
                result = copy.deepcopy(topo).resolve(node_id, query)
            except NotFound:
                assert first is None
                continue
            if first is None:
                assert result.path[0] == node_id and len(result.path) > 1
            else:
                assert result.path == (node_id,) and result.record == first
                assert result.cache_hit == (first.finder_id not in topo.records.get(node_id, {}))


@st.composite
def oracle_cases(draw):
    """(zones, authoritative, cached, policy, steps) for the search oracle.

    Authoritative records and pre-filled caches about any subtree (siblings
    too), so that a search passes caches that cannot answer; none under a cap
    of 0, whose tree never holds a cache.
    """
    zones = draw(zone_trees())
    policy = ResolutionPolicy(cache_capacity=draw(st.sampled_from((None, 0, 1, 2))))
    ids = ("f0", "f1", "f2", "f3", "f4")
    authoritative = []
    for fid in draw(st.lists(st.sampled_from(ids), unique=True, max_size=5), label="auth"):
        zone = name_of(draw(st.sampled_from(zones)))
        authoritative.append(FinderRecord(fid, "svc://a", zone, draw(summaries())))
    cached = []
    for _ in range(draw(st.integers(0, 0 if policy.cache_capacity == 0 else 12), label="cached")):
        home = draw(st.sampled_from(zones))
        # at an ancestor of the record's home, or at any repository
        at = draw(st.one_of(st.integers(0, len(home)).map(lambda k: home[k:]), st.sampled_from(zones)))
        record = FinderRecord(draw(st.sampled_from(ids + ("c0", "c1"))), "svc://c", name_of(home),
                              draw(summaries()))
        cached.append((name_of(at), record))
    steps = draw(st.lists(st.tuples(st.sampled_from(zones),
                                    st.sampled_from((0.0, 2.0, 8.0)),
                                    st.sampled_from(({}, {"os": "linux"}))),
                          min_size=1, max_size=4), label="steps")
    return zones, authoritative, cached, policy, steps


def _summary(pe_max: float) -> MetadataSummary:
    return MetadataSummary({"pe_count": (0.0, pe_max)}, {"os": frozenset({"linux"})}, 1)


class TestSearchOracle:
    @given(case=oracle_cases())
    # From origin a, the root scans b, c and d around a; its cache knows only c0, too
    # small, so the scan jumps over the unmarked b, x.b, c and x.c to d's record.
    @example(case=(
        [(), ("a",), ("b",), ("c",), ("d",), ("x", "b"), ("x", "c")],
        [FinderRecord("f0", "svc://a", "d", _summary(16.0))],
        [(".", FinderRecord("c0", "svc://c", "x.c", _summary(4.0)))],
        ResolutionPolicy(),
        [(("a",), 8.0, {})],
    ))
    # The origin answers from its own data, as the first repository of its range:
    # its own authoritative record, which populates nothing;
    @example(case=(
        [(), ("a",)], [FinderRecord("f0", "svc://a", "a", _summary(16.0))], [], ResolutionPolicy(),
        [(("a",), 8.0, {})],
    ))
    # a cached answer behind records that fail the query;
    @example(case=(
        [(), ("a",)], [FinderRecord("f0", "svc://a", "a", _summary(4.0))],
        [("a", FinderRecord("c0", "svc://c", ".", _summary(16.0)))], ResolutionPolicy(),
        [(("a",), 8.0, {})],
    ))
    # a cached answer that is not its cache's newest entry, so it moves to the end;
    @example(case=(
        [(), ("a",)], [],
        [("a", FinderRecord("c0", "svc://c", ".", _summary(16.0))),
         ("a", FinderRecord("c1", "svc://c", ".", _summary(4.0)))], ResolutionPolicy(),
        [(("a",), 8.0, {})],
    ))
    # an answer written into a full cache, which evicts its oldest entry;
    @example(case=(
        [(), ("a",)], [FinderRecord("f0", "svc://a", ".", _summary(16.0))],
        [("a", FinderRecord("c0", "svc://c", ".", _summary(4.0)))], ResolutionPolicy(cache_capacity=1),
        [(("a",), 8.0, {})],
    ))
    # and a cap of 0, under which the same search runs again, as nothing is cached.
    @example(case=(
        [(), ("a",)], [FinderRecord("f0", "svc://a", ".", _summary(16.0))], [],
        ResolutionPolicy(cache_capacity=0), [(("a",), 8.0, {}), (("a",), 8.0, {})],
    ))
    def test_resolve_matches_a_recursive_reference(self, case):
        zones, authoritative, cached, policy, steps = case
        topo = build_topology(TopologySpec(zones=tuple(name_of(z) for z in zones[1:])), policy)
        for record in authoritative:
            topo.register_finder(record)
        for at, record in cached:
            cache_at(topo, at, record)
        reference = copy.deepcopy(topo)
        for origin, need, tags in steps:
            origin = name_of(origin)
            query = ResourceQuery({"pe_count": need}, tags)
            expected = reference_resolve(reference, origin, query, policy)
            if expected is None:
                with pytest.raises(NotFound):
                    topo.resolve(origin, query)
                event("not found")
            else:
                result = topo.resolve(origin, query)
                record, path, cache_hit, populated = expected
                assert result.record == record
                assert (result.path, result.cache_hit, result.caches_populated) == (
                    path, cache_hit, populated)
                assert result.hop_count == len(path)
                assert len(set(result.path)) == len(result.path)  # a repository is contacted once
                event("found")
            # the same entries in the same eviction order, and no empty cache held
            assert cache_snapshot(topo) == cache_snapshot(reference)
            assert topo.caches.keys() == reference.caches.keys() and all(topo.caches.values())


def assert_marks_cover_the_search(topo: Topology) -> None:
    """The marked repositories are exactly those holding records or a cache, the
    only ones where a search can find anything; and no cache is empty or over the cap."""
    marked = {n for n in topo.shape.order if topo.marks[topo.shape.span[n][0]]}
    assert marked == set(topo.records) | set(topo.caches) and all(topo.caches.values())
    assert topo.cap is None or all(len(cache) <= topo.cap for cache in topo.caches.values())


@st.composite
def mark_cases(draw):
    """(zones, policy, steps): registrations, resolves and hop_counts calls in any order."""
    zones = draw(zone_trees())
    policy = ResolutionPolicy(cache_capacity=draw(st.sampled_from((None, 1, 0)), label="cap"))
    registers = st.tuples(st.just("register"), st.sampled_from(("f0", "f1", "f2", "f3")),
                          st.sampled_from(zones), summaries())
    needs = st.sampled_from((0.0, 2.0, 8.0))
    resolves = st.tuples(st.just("resolve"), st.sampled_from(zones), needs)
    batches = st.tuples(st.just("hop_counts"), st.lists(st.sampled_from(zones), max_size=4), needs)
    return zones, policy, draw(st.lists(st.one_of(registers, resolves, batches), max_size=12), label="steps")


class TestMarks:
    @given(case=mark_cases())
    # a's cache takes f0, then f1, which evicts f0 under the cap of 1
    @example(case=([(), ("a",), ("b",)], ResolutionPolicy(cache_capacity=1), [
        ("register", "f0", (), _summary(4.0)), ("register", "f1", ("b",), _summary(16.0)),
        ("resolve", ("a",), 2.0), ("hop_counts", [("a",), ("a",)], 8.0)]))
    def test_marks_cover_the_search_as_capacity_changes(self, case):
        # one topology per cap, written only through register_finder, resolve and hop_counts
        zones, policy, steps = case
        topo = build_topology(TopologySpec(zones=tuple(name_of(z) for z in zones[1:])), policy)
        reference = copy.deepcopy(topo)
        for step in steps:
            if step[0] == "register":
                _, fid, home, summary = step
                record = FinderRecord(fid, "svc://a", name_of(home), summary)
                if fid in topo.home_of:  # a finder registers once
                    with pytest.raises(DuplicateFinder):
                        topo.register_finder(record)
                    continue
                for tree in (topo, reference):
                    tree.register_finder(record)
            elif step[0] == "resolve":
                _, origin, need = step
                query = ResourceQuery({"pe_count": need})
                expected = reference_resolve(reference, name_of(origin), query, policy)
                if expected is None:
                    with pytest.raises(NotFound):
                        topo.resolve(name_of(origin), query)
                else:
                    result = topo.resolve(name_of(origin), query)
                    record, path, cache_hit, populated = expected
                    assert (result.record, result.path, result.cache_hit, result.caches_populated) == (
                        record, path, cache_hit, populated)
            else:
                # the counts a resolve loop on a copy gives, and neither tree changes
                _, origins, need = step
                query, origins = ResourceQuery({"pe_count": need}), [name_of(origin) for origin in origins]
                loop, before = copy.deepcopy(topo), (cache_snapshot(topo), bytes(topo.marks))
                assert topo.hop_counts(origins, query) == resolve_loop(loop, origins, query)
                assert (cache_snapshot(topo), bytes(topo.marks)) == before
            assert_marks_cover_the_search(topo)
            assert cache_snapshot(topo) == cache_snapshot(reference)

    @pytest.mark.parametrize("origin", ["z00.z01", "z02", "."])
    def test_a_search_of_an_unwritten_tree_contacts_every_repository(self, origin):
        topo = build_topology(TopologySpec(depth=3, branching=3))
        with pytest.raises(NotFound, match=r"\(searched 13 repositories\)"):
            topo.resolve(origin, ResourceQuery())
        zones = {labels(node_id) for node_id in topo.shape.order}
        record, hops, ranges = topo._search(origin, topo.marks, ResourceQuery())
        assert record is None and hops == 13 and ranges == ()
        expected = [name_of(zone) for zone in reference_order(zones, labels(origin))]
        assert contacted(topo, origin, hops) == expected
        assert topo.records == {} and topo.caches == {}

    @given(zones=zone_trees())
    @example(zones=[(), ("a",), ("b",)])  # from b, the hits at the root and at a come before b's subtree
    def test_a_write_covers_the_path_in_at_most_two_ranges(self, zones):
        # a finder homed at the path's last repository: the search writes the rest of the path
        spec, query = TopologySpec(zones=tuple(name_of(z) for z in zones[1:])), ResourceQuery({"pe_count": 2.0})
        for origin in zones:
            path = [name_of(zone) for zone in reference_order(set(zones), origin)]
            for hops in range(1, len(path) + 1):
                topo, writes = build_topology(spec), []
                assert contacted(topo, name_of(origin), hops) == path[:hops]
                topo.register_finder(FinderRecord("f0", "svc://f0", path[hops - 1], _summary(4.0)))
                topo._write = lambda ranges, record: writes.append(ranges) or Topology._write(topo, ranges, record)
                assert topo.resolve(name_of(origin), query).hop_count == hops
                assert set(topo.caches) == set(path[:hops]) - {path[hops - 1]}
                assert len(writes) == 1 and len(writes[0]) <= 2
                assert_marks_cover_the_search(topo)


# -- resolve --------------------------------------------------------------------


class TestResolutionPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"cache_capacity": -1}, {"cache_capacity": math.inf}, {"cache_capacity": math.nan},
        {"cache_capacity": -1.0}, {"cache_capacity": -3}, {"cache_capacity": [1]},
        {"cache_capacity": 2.5}, {"cache_capacity": 2.0}, {"cache_capacity": True},
        {"cache_capacity": False}, {"cache_capacity": "3"},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResolutionPolicy(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"cache_capacity": ""}, {"cache_capacity": 1.0}, {"cache_capacity": False}, {"cache_capacity": b"1"},
        {"cache_capacity": "3"}, {"cache_capacity": 2.0}, {"cache_capacity": True}, {"cache_capacity": 1j},
    ])
    def test_a_field_of_the_wrong_type_is_named(self, kwargs):
        # True would pass as a capacity of 1
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
            ResolutionPolicy(**kwargs)

    def test_boundary_values_accepted(self):
        assert ResolutionPolicy(cache_capacity=0).cache_capacity == 0
        assert ResolutionPolicy(cache_capacity=None).cache_capacity is None
        assert ResolutionPolicy(5).cache_capacity == 5
        assert ResolutionPolicy.__slots__ == ("cache_capacity",)


class TestResolveValues:
    """ResolutionResult is an immutable named tuple; a cache holds the frozen record itself."""

    def _resolved(self):
        # the only finder lives at b, so a resolve from a caches it at a and the root
        topo = build_topology(TopologySpec(zones=("a", "b")))
        cat = MetadataCatalog("f1", (ResourceSpec("r", {"pe_count": 8.0}, {}, "b"),))
        topo.register_finder(FinderRecord("f1", "svc://1", "b", summarize(cat)))
        return topo, topo.resolve("a", ResourceQuery(numeric_mins={"pe_count": 4}))

    @pytest.mark.parametrize("name", ["record", "path", "hop_count", "cache_hit", "caches_populated"])
    def test_a_result_field_cannot_be_assigned(self, name):
        _, result = self._resolved()
        with pytest.raises(AttributeError):
            setattr(result, name, getattr(result, name))

    @pytest.mark.parametrize("name", ["finder_id", "endpoint", "home_zone", "summary"])
    def test_a_cached_record_field_cannot_be_assigned(self, name):
        # every repository the answer populated holds this one object
        topo, _ = self._resolved()
        record = topo.caches["a"]["f1"]
        assert topo.caches["."]["f1"] is record is topo.records["b"]["f1"]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))

    def test_a_result_unpacks_into_its_fields_in_order(self):
        topo, result = self._resolved()
        record, path, hop_count, cache_hit, populated = result
        assert record is topo.records["b"]["f1"]
        assert (path, hop_count, cache_hit, populated) == (("a", ".", "b"), 3, False, ("a", "."))
        assert result == (record, path, hop_count, cache_hit, populated)

    def test_a_deep_copy_copies_the_cache_entries(self):
        topo, _ = self._resolved()
        clone = copy.deepcopy(topo)
        entry, copied = topo.caches["a"]["f1"], clone.caches["a"]["f1"]
        assert type(copied) is FinderRecord and copied == entry and copied is not entry
        # one copy per record, shared as in the original
        assert clone.caches["."]["f1"] is copied is clone.records["b"]["f1"]
        clone.caches["a"].clear()
        assert topo.caches["a"] == {"f1": entry}


class TestResolve:
    @given(zones=zone_trees(), data=st.data())
    def test_path_follows_the_documented_search_order(self, zones, data):
        # one finder, empty caches: nothing can be pruned, so the path is
        # exactly the search order up to the finder's home repository
        origin = data.draw(st.sampled_from(zones))
        home = data.draw(st.sampled_from(zones))
        texts = data.draw(st.permutations([name_of(z) for z in zones[1:]]))
        topo = build_topology(TopologySpec(zones=tuple(texts)))
        cat = MetadataCatalog("f1", (ResourceSpec("r", {"pe_count": 8.0}, {}, name_of(home)),))
        topo.register_finder(FinderRecord("f1", "svc://1", name_of(home), summarize(cat)))
        order = reference_order(set(zones), origin)
        expected = tuple(name_of(z) for z in order[:order.index(home) + 1])
        assert topo.resolve(name_of(origin), ResourceQuery()).path == expected

    def test_search_leaves_no_reference_cycles(self):
        # found twice, and not found
        topo = build_topology(TopologySpec(zones=("a", "b", "x.b", "y.b")))
        for node_id, pe in (("x.b", 2.0), ("y.b", 32.0)):
            zone = node_id
            cat = MetadataCatalog(f"f-{node_id}", (ResourceSpec("r", {"pe_count": pe}, {}, zone),))
            topo.register_finder(FinderRecord(f"f-{node_id}", "svc://x", zone, summarize(cat)))
        topo.resolve("a", ResourceQuery(numeric_mins={"pe_count": 1}))
        gc.collect()
        gc.disable()
        try:
            for need in (1, 16, 64):
                try:
                    topo.resolve("a", ResourceQuery(numeric_mins={"pe_count": need}))
                except NotFound:
                    pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_chain_deeper_than_the_recursion_limit_resolves(self):
        # the origin z has nothing, so the search goes down the whole chain
        depth = sys.getrecursionlimit() + 200
        chain = tuple(".".join(["a"] * k) for k in range(1, depth + 1))
        topo = build_topology(TopologySpec(zones=("z",) + chain))
        zone = chain[-1]
        cat = MetadataCatalog("f1", (ResourceSpec("r", {"pe_count": 8.0}, {}, zone),))
        topo.register_finder(FinderRecord("f1", "svc://1", zone, summarize(cat)))
        result = topo.resolve("z", ResourceQuery())
        assert result.path == ("z", ".") + chain
        assert result.caches_populated == ("z", ".") + chain[:-1]
        # the frozen record itself, shared by every repository it populated
        assert {id(topo.caches[n]["f1"]) for n in result.caches_populated} == {id(result.record)}
        assert topo.resolve("a", ResourceQuery()).path == ("a",)
        with pytest.raises(NotFound):
            topo.resolve("z", ResourceQuery(numeric_mins={"pe_count": 99}))

    def test_authoritative_at_origin_is_one_hop(self):
        topo = build_topology(TopologySpec(depth=2, branching=2))
        zone = "z00"
        cat = MetadataCatalog("f1", (ResourceSpec("r", {"pe_count": 8.0}, {}, zone),))
        topo.register_finder(FinderRecord("f1", "svc://1", zone, summarize(cat)))
        res = topo.resolve("z00", ResourceQuery(numeric_mins={"pe_count": 4}))
        assert res.hop_count == 1
        assert res.path == ("z00",)
        assert not res.cache_hit
        assert res.caches_populated == ()

    def test_cross_region_resolution_caches_the_path(self):
        # root with regional children a and b; the only finder lives at b
        topo = build_topology(TopologySpec(zones=("a", "b")))
        zone_b = "b"
        cat = MetadataCatalog("f1", (ResourceSpec("r", {"pe_count": 8.0}, {}, zone_b),))
        topo.register_finder(FinderRecord("f1", "svc://1", zone_b, summarize(cat)))
        query = ResourceQuery(numeric_mins={"pe_count": 4})

        first = topo.resolve("a", query)
        assert first.path == ("a", ".", "b")
        assert first.hop_count == 3
        assert not first.cache_hit
        assert first.caches_populated == ("a", ".")

        again = topo.resolve("a", query)
        assert again.hop_count == 1
        assert again.cache_hit
        assert again.record.finder_id == "f1"

    def test_failure_leaves_no_state(self):
        topo = build_topology(TopologySpec(depth=3, branching=2))
        zone = "z00.z00"
        cat = MetadataCatalog("f1", (ResourceSpec("r", {"pe_count": 8.0}, {}, zone),))
        topo.register_finder(FinderRecord("f1", "svc://1", zone, summarize(cat)))
        before = cache_snapshot(topo)
        with pytest.raises(NotFound):
            topo.resolve("z01.z01", ResourceQuery(numeric_mins={"pe_count": 99}))
        assert cache_snapshot(topo) == before

    def test_answer_prefers_authoritative_then_smallest_id(self):
        topo = build_topology(TopologySpec(depth=1))
        zone = "."
        for fid in ("f-b", "f-a"):
            cat = MetadataCatalog(fid, (ResourceSpec(f"{fid}-r", {"pe_count": 8.0}, {}, zone),))
            topo.register_finder(FinderRecord(fid, "svc://x", zone, summarize(cat)))
        res = topo.resolve(".", ResourceQuery(numeric_mins={"pe_count": 4}))
        assert res.record.finder_id == "f-a"

    def test_agrees_with_brute_force_on_random_trees(self):
        rng = random.Random(2024)
        found = notfound = 0
        for _ in range(300):
            topo, records = random_topology(rng)
            query = random_query(rng)
            origin = rng.choice(sorted(topo.shape.parent))
            candidates = brute_force_candidates(records, query)
            before = cache_snapshot(topo)
            try:
                res = topo.resolve(origin, query)
            except NotFound:
                notfound += 1
                assert candidates == []
                assert cache_snapshot(topo) == before
                continue
            found += 1
            assert res.record.finder_id in candidates
            assert res.path[0] == origin
            assert res.hop_count == len(res.path)

            # a repeat is answered locally, from cache unless
            # the origin itself is authoritative for the record
            again = topo.resolve(origin, query)
            assert again.hop_count == 1
            if res.record.finder_id not in topo.records.get(origin, {}):
                assert again.cache_hit
        assert found and notfound  # both branches exercised

    def test_resolution_is_deterministic(self):
        rng = random.Random(77)
        for _ in range(20):
            topo, records = random_topology(rng)
            query = random_query(rng)
            origin = rng.choice(sorted(topo.shape.parent))
            t1, t2 = copy.deepcopy(topo), copy.deepcopy(topo)
            try:
                r1 = t1.resolve(origin, query)
            except NotFound:
                with pytest.raises(NotFound):
                    t2.resolve(origin, query)
                continue
            r2 = t2.resolve(origin, query)
            assert r1 == r2

    def test_internal_origin_searches_its_own_subtree(self):
        # finder lives BELOW the origin; the search must find it without
        # bouncing off the root
        topo = build_topology(TopologySpec(zones=("a", "deep.a", "b")))
        zone = "deep.a"
        cat = MetadataCatalog("f1", (ResourceSpec("r", {"pe_count": 8.0}, {}, zone),))
        topo.register_finder(FinderRecord("f1", "svc://1", zone, summarize(cat)))
        res = topo.resolve("a", ResourceQuery(numeric_mins={"pe_count": 4}))
        assert res.path == ("a", "deep.a")

    def test_each_repository_is_looked_up_once(self, monkeypatch):
        # a's cache knows only a finder under b that cannot satisfy, and the
        # search passes it, the root's and b's caches on the way to f-strong
        topo = build_topology(TopologySpec(zones=("a", "b", "x.b", "y.b")))
        weak = MetadataCatalog("f-weak", (ResourceSpec("r1", {"pe_count": 2.0}, {}, "x.b"),))
        strong = MetadataCatalog("f-strong", (ResourceSpec("r2", {"pe_count": 32.0}, {}, "y.b"),))
        topo.register_finder(FinderRecord("f-weak", "svc://w", "x.b", summarize(weak)))
        topo.register_finder(FinderRecord("f-strong", "svc://s", "y.b", summarize(strong)))
        looked_up, first_hit = [], Topology._first_hit

        def recording(self, node_id, query):
            looked_up.append(node_id)
            return first_hit(self, node_id, query)

        monkeypatch.setattr(Topology, "_first_hit", recording)
        topo.resolve("a", ResourceQuery(numeric_mins={"pe_count": 1}))
        assert list(topo.caches["a"]) == ["f-weak"] and looked_up == ["x.b"]  # only x.b held anything

        looked_up.clear()
        res = topo.resolve("a", ResourceQuery(numeric_mins={"pe_count": 16}))
        assert res.record.finder_id == "f-strong" and res.hop_count == 5
        assert res.path == ("a", ".", "b", "x.b", "y.b") == tuple(looked_up)

        looked_up.clear()
        with pytest.raises(NotFound, match=r"\(searched 5 repositories\)"):
            topo.resolve("a", ResourceQuery(numeric_mins={"pe_count": 64}))
        assert looked_up == ["a", ".", "b", "x.b", "y.b"]

    def test_notfound_counts_repositories_not_contacts(self):
        # the root learns of z01's small finder; a query for more passes its
        # cache and every other repository, each contacted once
        topo = build_topology(TopologySpec(depth=3, branching=2))
        zone = "z00.z01"
        cat = MetadataCatalog("f1", (ResourceSpec("r", {"pe_count": 2.0}, {}, zone),))
        topo.register_finder(FinderRecord("f1", "svc://1", zone, summarize(cat)))
        assert "." in topo.resolve("z00.z00", ResourceQuery()).caches_populated
        with pytest.raises(NotFound, match=r"\(searched 7 repositories\)"):
            topo.resolve("z00.z00", ResourceQuery(numeric_mins={"pe_count": 64}))

    def test_cache_capacity_evicts_oldest_first(self):
        topo = build_topology(TopologySpec(zones=("a", "b", "c")), ResolutionPolicy(cache_capacity=1))
        for node_id, pe in (("b", 2.0), ("c", 32.0)):
            zone = node_id
            cat = MetadataCatalog(
                f"f-{node_id}", (ResourceSpec(f"r-{node_id}", {"pe_count": pe}, {}, zone),)
            )
            topo.register_finder(FinderRecord(f"f-{node_id}", "svc://x", zone, summarize(cat)))
        topo.resolve("a", ResourceQuery(required_tags={}))
        assert list(topo.caches["a"]) == ["f-b"]
        # f-b was cached; a query only f-c satisfies passes it, re-resolves and evicts it
        topo.resolve("a", ResourceQuery(numeric_mins={"pe_count": 16}))
        assert list(topo.caches["a"]) == ["f-c"]


class TestCachesPopulated:
    """caches_populated is the path minus the home of the answer's finder id."""

    def _register(self, topo, finder_id, zone, pe):
        cat = MetadataCatalog(finder_id, (ResourceSpec("r", {"pe_count": pe}, {}, zone),))
        topo.register_finder(FinderRecord(finder_id, f"svc://{finder_id}", zone, summarize(cat)))

    def _check(self, topo, result, populated):
        assert type(result) is ResolutionResult
        assert result.caches_populated == populated
        for node_id in populated:
            assert topo.caches[node_id][result.record.finder_id] is result.record

    def test_an_authoritative_hit_populates_all_but_the_home(self):
        topo = build_topology(TopologySpec(zones=("a", "b", "c")))
        self._register(topo, "f-c", "c", 8.0)
        result = topo.resolve("a", ResourceQuery(numeric_mins={"pe_count": 4}))
        assert result.path == ("a", ".", "b", "c") and not result.cache_hit
        self._check(topo, result, result.path[:-1])

    def test_a_cache_hit_populates_the_whole_path(self):
        # c holds a record, but of another finder than the answer's
        topo = build_topology(TopologySpec(zones=("a", "b", "c")))
        self._register(topo, "f-b", "b", 8.0)
        self._register(topo, "f-c", "c", 2.0)
        query = ResourceQuery(numeric_mins={"pe_count": 4})
        assert topo.resolve("a", query).caches_populated == ("a", ".")
        result = topo.resolve("c", query)
        assert result.path == ("c", ".") and result.cache_hit
        self._check(topo, result, result.path)
        assert result.caches_populated is result.path

    def test_the_home_is_left_out_when_a_cached_copy_answers(self):
        # the root's cache holds a copy of f that b's record is not (a finder registers
        # once, so only the write routine can put it there): from b the root's copy answers
        topo = build_topology(TopologySpec(zones=("a", "b", "c")))
        self._register(topo, "f", "b", 2.0)
        query = ResourceQuery(numeric_mins={"pe_count": 16})
        cat = MetadataCatalog("f", (ResourceSpec("r", {"pe_count": 32.0}, {}, "b"),))
        cache_at(topo, ".", FinderRecord("f", "svc://f", "b", summarize(cat)))
        result = topo.resolve("b", query)
        assert result.path == ("b", ".") and result.cache_hit
        self._check(topo, result, (".",))
        assert "b" not in topo.caches


class TestOneHome:
    """A finder id is authoritative at one repository."""

    def test_a_second_home_is_rejected_and_changes_nothing(self):
        topo = build_topology(TopologySpec(zones=("a", "b", "c")))
        first = FinderRecord("f", "svc://a", "a", _summary(2.0))
        topo.register_finder(first)
        before = (copy.deepcopy(topo.records), dict(topo.home_of), bytes(topo.marks))
        with pytest.raises(DuplicateFinder, match="^finder 'f' is already authoritative at 'a'$"):
            topo.register_finder(FinderRecord("f", "svc://c", "c", _summary(32.0)))
        assert (topo.records, topo.home_of, bytes(topo.marks)) == before
        assert topo.records["a"]["f"] is first

    def test_registering_at_the_same_home_raises(self):
        # a and the root cache f's record; a new record of f at b would leave those copies
        # answering a query it fails (from a, b, b a resolve loop counts 1, 2, 2 and the
        # answer set 1, 2, 1), so a second registration raises and changes nothing
        topo = build_topology(TopologySpec(zones=("a", "b")))
        first = FinderRecord("f", "svc://b", "b", _summary(8.0))
        topo.register_finder(first)
        topo.resolve("a", _linux(2.0))
        before = (copy.deepcopy(topo.records), cache_snapshot(topo), dict(topo.home_of), bytes(topo.marks))
        for again in (first, FinderRecord("f", "svc://b", "b", _summary(1.0))):
            with pytest.raises(DuplicateFinder, match="^finder 'f' is already authoritative at 'b'$"):
                topo.register_finder(again)
        assert (topo.records, cache_snapshot(topo), topo.home_of, bytes(topo.marks)) == before
        assert topo.hop_counts(["a", "b", "b"], _linux(2.0)) == [1, 1, 1]

    def test_an_unknown_home_is_rejected_before_the_finder_is_homed(self):
        topo = build_topology(TopologySpec(zones=("a",)))
        with pytest.raises(UnknownNode):
            topo.register_finder(FinderRecord("f", "svc://x", "x", _summary(2.0)))
        topo.register_finder(FinderRecord("f", "svc://a", "a", _summary(2.0)))
        assert topo.home_of == {"f": "a"}

    @settings(max_examples=150)
    @given(case=st.deferred(lambda: batch_cases()))
    def test_no_repository_caches_a_finder_homed_there(self, case):
        # registrations, resolves and hop_counts in any order: a finder's home holds its
        # record, and no write copies it into that home's cache
        spec, finders, warm, late, query, policy, origins = case
        topo = build_topology(spec, policy)

        def check():
            for node_id, cache in topo.caches.items():
                assert not [finder_id for finder_id in cache if topo.home_of[finder_id] == node_id]
            assert {f: n for n, held in topo.records.items() for f in held} == topo.home_of

        for record in finders:
            topo.register_finder(record)
        for origin, warm_query in warm:
            with contextlib.suppress(NotFound):
                topo.resolve(origin, warm_query)
            check()
        for record in late:
            topo.register_finder(record)
            check()
        with contextlib.suppress(UnknownNode):
            topo.hop_counts(origins, query)
        check()


class TestCacheCapacity:
    @given(zones=zone_trees(), data=st.data())
    def test_cache_keeps_the_newest_insertions(self, zones, data):
        # a model of every node's cache, replayed from caches_populated:
        # a re-insert moves the finder to the newest end, the oldest go first
        cap = data.draw(st.sampled_from((0, 1, 2, None)), label="cap")
        topo = build_topology(TopologySpec(zones=tuple(name_of(z) for z in zones[1:])), ResolutionPolicy(cap))
        homes = data.draw(st.lists(st.sampled_from(zones), min_size=1, max_size=4), label="homes")
        for i, home in enumerate(homes):
            zone = name_of(home)
            cat = MetadataCatalog(f"f{i}", (ResourceSpec("r", {"pe_count": 2.0 ** (2 * i + 1)},
                                                         {}, zone),))
            topo.register_finder(FinderRecord(f"f{i}", "svc://x", zone, summarize(cat)))
        model = {node_id: [] for node_id in topo.shape.parent}
        steps = data.draw(st.lists(st.tuples(st.sampled_from(zones), st.sampled_from((0, 4, 16, 64))),
                                   min_size=1, max_size=12), label="steps")
        for origin, need in steps:
            try:
                result = topo.resolve(name_of(origin), ResourceQuery(numeric_mins={"pe_count": need}))
            except NotFound:
                pass
            else:
                assert list(result.caches_populated) == [
                    nid for nid in result.path
                    if result.record.finder_id not in topo.records.get(nid, {})]
                for node_id in result.caches_populated:
                    entries = [f for f in model[node_id] if f != result.record.finder_id]
                    entries.append(result.record.finder_id)
                    model[node_id] = entries if cap is None else entries[len(entries) - cap:]
            for node_id in topo.shape.parent:
                cache = topo.caches.get(node_id, {})
                ids = [record.finder_id for record in cache.values()]
                assert cap is None or len(ids) <= cap
                assert ids == list(cache) == model[node_id]
                assert node_id not in topo.caches or cache


class TestCacheRefresh:
    """Re-inserting a finder replaces its one entry, which becomes the newest."""

    def _two_finders(self):
        # f-b at b satisfies pe_count >= 1, f-c at c also pe_count >= 16
        topo = build_topology(TopologySpec(zones=("a", "b", "c")))
        for node_id, pe in (("b", 2.0), ("c", 32.0)):
            zone = node_id
            cat = MetadataCatalog(f"f-{node_id}", (ResourceSpec("r", {"pe_count": pe}, {}, zone),))
            topo.register_finder(FinderRecord(f"f-{node_id}", "svc://x", zone, summarize(cat)))
        return topo

    def test_a_repeat_origin_hit_with_an_identical_entry_writes_nothing(self):
        topo = self._two_finders()
        query = ResourceQuery(numeric_mins={"pe_count": 1})
        topo.resolve("a", query)
        cache = topo.caches["a"]
        entry = cache["f-b"]
        result = topo.resolve("a", query)
        assert result.path == ("a",) and result.hop_count == 1 and result.cache_hit
        assert result.caches_populated == ("a",) and result.record is entry
        assert topo.caches["a"] is cache and list(cache) == ["f-b"] and cache["f-b"] is entry

    def test_an_identical_entry_that_is_not_the_newest_moves_to_the_newest_end(self):
        topo = self._two_finders()
        topo.resolve("a", ResourceQuery(numeric_mins={"pe_count": 1}))
        topo.resolve("a", ResourceQuery(numeric_mins={"pe_count": 16}))
        assert list(topo.caches["a"]) == ["f-b", "f-c"]
        result = topo.resolve("a", ResourceQuery(numeric_mins={"pe_count": 1}))
        assert result.path == ("a",) and result.record.finder_id == "f-b"
        assert list(topo.caches["a"]) == ["f-c", "f-b"]

    def test_equal_but_distinct_record_replaces_the_stored_one(self):
        topo = self._two_finders()
        stored = topo.records["b"]["f-b"]
        cache_at(topo, "a", stored)
        twin = stored._replace()
        assert twin == stored and twin is not stored
        cache_at(topo, "a", twin)
        assert len(topo.caches["a"]) == 1 and topo.caches["a"]["f-b"] is twin
        cache_at(topo, "a", twin)
        assert len(topo.caches["a"]) == 1 and topo.caches["a"]["f-b"] is twin


# -- hop_counts: a distributed run's users in one call --------------------------


_QUERY_NEEDS = (0.0, 2.0, 8.0, 100.0)  # no summary's pe_count reaches 100


@st.composite
def batch_cases(draw):
    """(spec, finders, warm-up, late finders, query, policy, origins) for hop_counts
    against a resolve loop, on trees built with the policy.

    Finders sit at any zone, inner ones too, and some summaries fail the query.  The
    warm-up resolves under other queries, so caches hold several entries and
    a lone entry may fail the query; late finders, of ids never registered before,
    are registered after it, where caches are warm.  The origins repeat, may outnumber
    the leaves, come in any order and may name a repository that is not in the tree.
    """
    if draw(st.booleans(), label="uniform"):
        spec = TopologySpec(depth=draw(st.integers(1, 4)), branching=draw(st.integers(1, 3)))
    else:
        spec = TopologySpec(zones=tuple(name_of(z) for z in draw(zone_trees())[1:]))
    shape = build_topology(spec).shape
    zones = st.sampled_from(shape.order)
    finders = [FinderRecord(f"f{i}", "svc://f", draw(zones), draw(summaries()))
               for i in range(draw(st.integers(0, 4), label="finders"))]
    late = draw(st.lists(st.builds(FinderRecord, st.sampled_from(("f7", "f8", "f9")), st.just("svc://l"),
                                   zones, summaries()),
                         max_size=2, unique_by=lambda record: record.finder_id), label="late")
    queries = st.builds(lambda need, tags: ResourceQuery({"pe_count": need}, tags),
                        st.sampled_from(_QUERY_NEEDS), st.sampled_from(({}, {"os": "linux"})))
    warm = draw(st.lists(st.tuples(zones, queries), max_size=6), label="warm")
    origins = list(shape.leaves) * draw(st.integers(0, 3)) + draw(st.lists(zones, max_size=6))
    origins = draw(st.permutations(origins))
    if draw(st.booleans(), label="unknown origin"):
        origins.insert(draw(st.integers(0, len(origins))), "nowhere")
    policy = draw(st.one_of(st.none(), st.sampled_from((None, 0, 1, 2, 5)).map(ResolutionPolicy)), label="policy")
    return spec, finders, warm, late, draw(queries), policy, origins


def resolve_loop(topo: Topology, origins, query: ResourceQuery) -> list[int]:
    """A ``resolve`` per origin in turn on ``topo``: each hop count, 0 for NotFound;
    an unknown origin raises UnknownNode."""
    counts = []
    for origin in origins:
        try:
            counts.append(topo.resolve(origin, query).hop_count)
        except NotFound:
            counts.append(0)
    return counts


def _linux(need: float) -> ResourceQuery:
    return ResourceQuery({"pe_count": need}, {"os": "linux"})


class TestHopCounts:
    @settings(max_examples=300)
    @given(case=batch_cases())
    # a's lone entry f-b fails pe_count >= 16, so a resolves, then holds f-b and f-c
    @example(case=(TopologySpec(zones=("a", "b", "c")),
                   [FinderRecord("f-b", "svc://b", "b", _summary(2.0)),
                    FinderRecord("f-c", "svc://c", "c", _summary(32.0))],
                   [("a", _linux(1.0))], [], _linux(16.0), ResolutionPolicy(), ["a", "a", "b", "a", "c"]))
    # a holds f-b then f-c; its oldest entry f-b answers, and the hit moves it to the newest end
    @example(case=(TopologySpec(zones=("a", "b", "c")),
                   [FinderRecord("f-b", "svc://b", "b", _summary(2.0)),
                    FinderRecord("f-c", "svc://c", "c", _summary(32.0))],
                   [("a", _linux(1.0)), ("a", _linux(16.0))], [], _linux(1.0), ResolutionPolicy(),
                   ["a", "a"]))
    # an unknown origin mid-list, after writes and in-loop answers, under a cap of 1
    @example(case=(TopologySpec(depth=3, branching=2),
                   [FinderRecord("f", "svc://f", "z01.z00", _summary(8.0))], [], [],
                   _linux(2.0), ResolutionPolicy(1), ["z00.z01", "z00.z00", "z01.z00", "nowhere", "z00.z01"]))
    # a query nothing satisfies, from an inner zone and the leaves, with no cap
    @example(case=(TopologySpec(depth=2, branching=3),
                   [FinderRecord("f", "svc://f", ".", _summary(8.0))], [("z01", _linux(2.0))], [],
                   _linux(100.0), None, ["z00", ".", "z01", "z02", "z01"]))
    # a cap of 0: two rounds of leaves and the root, each origin but the home searched each time
    @example(case=(TopologySpec(depth=3, branching=2),
                   [FinderRecord("f", "svc://f", "z01.z01", _summary(8.0))], [("z00.z00", _linux(2.0))], [],
                   _linux(2.0), ResolutionPolicy(0),
                   ["z00.z00", "z00.z01", "z01.z00", "z01.z01", ".", "z00.z00", "z00.z01", "z01.z00", "z01.z01"]))
    def test_hop_counts_match_a_resolve_loop(self, case):
        spec, finders, warm, late, query, policy, origins = case
        batch = build_topology(spec, policy)
        for record in finders:
            batch.register_finder(record)
        for origin, warm_query in warm:
            with contextlib.suppress(NotFound):
                batch.resolve(origin, warm_query)
        for record in late:
            batch.register_finder(record)
        loop = copy.deepcopy(batch)
        before = (copy.deepcopy(batch.records), cache_snapshot(batch), bytes(batch.marks), dict(batch.home_of))
        unknown = "nowhere" in origins
        known = origins[:origins.index("nowhere")] if unknown else origins
        expected = resolve_loop(loop, known, query)
        searched = []
        batch._search = lambda *args: searched.append(args[0]) or Topology._search(batch, *args)
        if unknown:
            with pytest.raises(UnknownNode, match="^no repository named 'nowhere'$"):
                batch.hop_counts(origins, query)
            event("unknown origin")
        else:
            assert batch.hop_counts(origins, query) == expected
            event("not found" if 0 in expected else "every origin answered")
        if 0 in expected:  # nothing answers, so every origin fails and none is searched
            assert set(expected) == {0} and searched == []
        elif batch.cap == 0:
            # the answer set never changes, so exactly the origins outside it are searched,
            # in order, each time they come; an origin is in it iff its own lookup answers
            assert searched == [origin for origin in known if batch._first_hit(origin, query) is None]
            event("cap 0 searched an origin again" if len(searched) > len(set(searched)) else "cap 0")
        else:
            assert len(searched) == len(set(searched))  # at most one search per origin
        event("answered without a search" if len(searched) < len(known) else "each origin searched")
        # the call leaves the tree as it found it
        assert (batch.records, cache_snapshot(batch), bytes(batch.marks), batch.home_of) == before

    def test_an_origin_holding_the_answer_costs_no_search_and_one_verdict(self, monkeypatch):
        topo = build_topology(TopologySpec(depth=3, branching=3), ResolutionPolicy(1))
        leaves, query = topo.leaves(), ResourceQuery()
        home = leaves[4]
        topo.register_finder(FinderRecord("f", "svc://f", home, _summary(8.0)))
        # warm: each resolve caches the answer at every repository it contacts but the
        # home, so every leaf but the home then holds one cache entry, the answer
        assert resolve_loop(topo, leaves, query) == [8, 1, 5, 1, 1, 1, 1, 2, 1]
        assert all(list(topo.caches[leaf]) == ["f"] for leaf in leaves if leaf != home)
        verdicts, searched = [], []
        monkeypatch.setattr(registry, "summary_may_satisfy",
                            lambda q, s: verdicts.append(s) or summary_may_satisfy(q, s))
        topo._search = lambda *args: searched.append(args[0]) or Topology._search(topo, *args)
        before = cache_snapshot(topo)
        for calls in (1, 2):
            assert topo.hop_counts(leaves * 3, query) == [1] * 27
            # every leaf is in the answer set, so none is searched; and each marked
            # repository, whose one record answers, is looked up once per call
            assert searched == [] and len(verdicts) == calls * topo.marks.count(1)
        assert cache_snapshot(topo) == before

    def test_a_cap_of_zero_searches_a_repeated_origin_again_to_the_same_count(self):
        topo = build_topology(TopologySpec(depth=3, branching=2), ResolutionPolicy(0))
        topo.register_finder(FinderRecord("f", "svc://f", "z01.z01", _summary(8.0)))
        searched = []
        topo._search = lambda *args: searched.append(args[0]) or Topology._search(topo, *args)
        leaves = topo.leaves()
        assert topo.hop_counts(leaves * 3, ResourceQuery()) == [7, 3, 7, 1] * 3
        # nothing is written, so each round searches the same origins again; the home
        # z01.z01 answers itself, with no search
        assert searched == list(leaves[:3]) * 3 and not topo.caches

    def test_nothing_answers_so_nothing_is_searched(self):
        # an empty answer set: a search would contact the whole tree and fail
        topo = build_topology(TopologySpec(depth=3, branching=2))
        topo.register_finder(FinderRecord("f", "svc://f", "z01.z01", _summary(8.0)))
        searched = []
        topo._search = lambda *args: searched.append(args[0]) or Topology._search(topo, *args)
        origins = ["z00.z00", ".", "z01.z01", "z00.z00"]
        assert topo.hop_counts(origins, _linux(100.0)) == [0] * 4
        assert searched == [] and not topo.caches
        # an unknown origin still raises where it stands, ahead of the origins after it
        got = []
        with pytest.raises(UnknownNode, match="'nowhere'"):
            topo.hop_counts((got.append(origin) or origin for origin in origins[:2] + ["nowhere", "x"]),
                            _linux(100.0))
        assert got == origins[:2] + ["nowhere"]
