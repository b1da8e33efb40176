"""Hierarchical repository tree with DNS-style resolution and caching.

Repositories form a rooted tree of zones.  A finder record is authoritative
at exactly one repository (its home zone); every other repository can only
learn it through resolution, which caches the answer at each repository it
crossed.  Resolution is recursive in the DNS sense: the answer propagates back
along the contact path, so the whole path learns it, as the frozen record
itself, which every repository it populates shares; like an RRSet (RFC 2181
§5.4.1) it replaces the finder's entry there, so a cache holds one.  A run
resolves every query at one instant, so no entry expires and a cache has no
TTL.  A repository's lookup returns its first hit.

The search order is fixed so that identical inputs always produce identical
results: from the origin, search the origin's own subtree depth-first, then
ascend one level at a time, at each ancestor doing a local lookup and then
searching its remaining child subtrees (children in lexicographic label
order, never re-entering the subtree just ascended from).  Exhausting the
root means the whole tree has been searched.  Every subtree is one range of
the tree's preorder (Tarjan & Vishkin 1985), so the search is one loop over
index ranges: the origin's own, then each ancestor's around the subtree just
ascended from; no tree is too deep for Python's recursion limit.  As in DNS,
a search skips no repository: it ends at the first answer or the end of the
tree.  A run marks the only repositories where a search can find anything,
and the scan jumps over each run of unmarked ones in one ``bytearray.find``,
counting every repository contacted.  As a DNS resolver answers from local
information first (RFC 1034 §5.3.3), the search's first repository is the
origin itself, the first index of its own range, so every answer takes the
one path.  As a name's data sits in one zone (RFC 1034 §4.2; RFC 2181 §6), a
finder id is authoritative at one repository and registers once (again, it
raises DuplicateFinder), so every cached copy is its finder's one record.  The
answer populates every repository on the path but that home.  At the hit the
search holds the path as at most two preorder ranges, the child subtree it
ascended from and its current range through the hit, and ``resolve`` writes
those; it derives the path in search order from the count.

A tree's cache cap is set when it is built, as a DNS cache's size is set on
the resolver that holds it, and ``resolve`` caches its answer along the path
unless the cap is 0, so such a tree never holds a cache.  A distributed run
counts all its users' hops in one ``hop_counts`` call, which changes nothing.
Its query is fixed, so a repository that answers keeps answering, and a write
only makes the repositories of its path answer: the call takes each marked
repository's lookup once, into an answer set, and adds each search's path to
it.  An origin in the set counts 1, and every origin 0 if the set is empty,
with no search; under a cap of 0 the set never changes, so each other
distinct origin is searched once.

A repository is its zone: its id is the zone's name (``"ca.grid"``, the root
``"."``), and a finder registers at the repository named by its home zone.
Delegations are zone data that resolution never changes (RFC 1034 §4.2).  So
a tree's shape (each id's parent, the preorder and each subtree's span in it)
is built once per spec as read-only tables that every run shares, and a run
owns only its authoritative records and caches.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .domain import (FinderRecord, Frozen, ResourceQuery, as_zone_names, check_field, check_zone,
                     summary_may_satisfy)


class RegistryError(Exception):
    """Base class for repository-tree errors."""


class UnknownNode(RegistryError):
    pass


class NotFound(RegistryError):
    """No finder in the whole tree can satisfy the query."""


class MalformedTopology(RegistryError):
    pass


class DuplicateFinder(RegistryError):
    """A finder id registered a second time: a finder registers once, at its one home."""


class ResolutionPolicy(Frozen):
    """A tree's cache cap, fixed when ``build_topology`` makes the tree.

    ``cache_capacity`` of None means unbounded; otherwise the entries least
    recently inserted or replaced are evicted first once a node's cache
    exceeds the cap, and a cap of 0 stores nothing.  A field of the wrong
    type or out of range raises ValueError.
    """

    __slots__ = ("cache_capacity",)

    def __init__(self, cache_capacity: int | None = None) -> None:
        check_field("cache_capacity", cache_capacity, "None or an integer >= 0")
        self._bind(cache_capacity)


class ResolutionResult(NamedTuple):
    record: FinderRecord
    path: tuple[str, ...]
    hop_count: int
    cache_hit: bool
    caches_populated: tuple[str, ...]


class TopologySpec(Frozen):
    """How to build a repository tree.

    Either a uniform tree (``depth`` levels, ``branching`` children per
    node; depth 1 is a lone root) or an explicit list of zone names whose
    parents must all be present (the root is always implicit).  A zone
    list given as any iterable but a string is stored as a tuple, so specs
    hash.  A spec that describes no valid tree raises MalformedTopology
    (ValueError for a bad zone label) when it is made: a uniform tree's size
    is checked by arithmetic, a zone list by building its shape, which
    build_topology then reuses.
    """

    __slots__ = ("depth", "branching", "zones")

    def __init__(self, depth: int | None = None, branching: int | None = None,
                 zones: tuple[str, ...] | None = None) -> None:
        if zones is not None:
            zones = as_zone_names("zones", zones, MalformedTopology)
            if depth is not None or branching is not None:
                raise MalformedTopology("give either depth/branching or an explicit zone list, not both")
            self._bind(None, None, zones)
            _tree_shape(self)
            return
        if depth is None:
            raise MalformedTopology("topology spec needs a depth or a zone list")
        fanout = 1 if branching is None else branching
        for name, value in (("depth", depth), ("branching", fanout)):
            check_field(name, value, "an integer", MalformedTopology)
            if value < 1:
                raise MalformedTopology(f"{name} must be >= 1, got {value}")
        check_tree_size(depth, fanout)
        self._bind(depth, branching, None)


class TreeShape(Frozen):
    """A tree's frozen shape, shared by every Topology built from one spec.

    ``parent`` maps each node id to its parent's (None at the root), parents
    before children.  ``order`` is the preorder of the ids, children by
    label, and ``span`` maps an id to the ``(start, end)`` of its subtree in
    ``order``; an id is a repository of the tree iff it is in ``span``.
    ``leaves`` holds the ids whose span holds only themselves, sorted.
    Nothing in it changes, so a deep copy is the shape itself.
    """

    __slots__ = ("parent", "leaves", "order", "span")

    def __init__(self, parent: Mapping[str, str | None], leaves: tuple[str, ...], order: tuple[str, ...],
                 span: Mapping[str, tuple[int, int]]) -> None:
        self._bind(parent, leaves, order, span)

    def __deepcopy__(self, memo: dict) -> TreeShape:
        return self


class Topology:
    """One run's repository tree: a shared shape plus the run's own state.

    ``records`` maps a node id to its authoritative records by finder id,
    and ``caches`` maps it to its cached records by finder id, oldest first.
    A node gets an entry on its first write and never holds an empty one;
    ``home_of`` maps a finder id to the node of its record.  ``marks`` holds a
    byte per index of ``shape.order``: 1 exactly at every repository that
    holds records or a cache.  ``cap`` is the policy's ``cache_capacity``
    (None: unbounded).  The search looks only at marked ones, so records and
    caches are written only through ``register_finder`` and ``_write``, which
    only ``resolve`` calls, with the ranges its search holds at the hit.
    Driven single-threaded.
    """

    def __init__(self, shape: TreeShape, policy: ResolutionPolicy | None = None):
        self.shape = shape
        self.cap = None if policy is None else policy.cache_capacity
        self.records: dict[str, dict[str, FinderRecord]] = {}
        self.caches: dict[str, dict[str, FinderRecord]] = {}
        self.home_of: dict[str, str] = {}
        self.marks = bytearray(len(shape.order))

    def leaves(self) -> tuple[str, ...]:
        """Node ids of childless repositories, in sorted order."""
        return self.shape.leaves

    def register_finder(self, record: FinderRecord) -> None:
        """Install an authoritative record at the repository of its home zone; a finder id
        already registered raises DuplicateFinder, so every cached copy is its finder's record."""
        node_id = record.home_zone
        if node_id not in self.shape.span:
            raise UnknownNode(f"no repository named {node_id!r}")
        if (home := self.home_of.get(record.finder_id)) is not None:
            raise DuplicateFinder(f"finder {record.finder_id!r} is already authoritative at {home!r}")
        self.home_of[record.finder_id] = node_id
        self.records.setdefault(node_id, {})[record.finder_id] = record
        self.marks[self.shape.span[node_id][0]] = 1

    def resolve(self, origin_node_id: str, query: ResourceQuery) -> ResolutionResult:
        """Find a finder for the query, caching the answer along the path.

        Raises NotFound only when no repository in the whole tree holds a
        record (authoritative or cached) whose summary may satisfy the
        query; the search has then contacted every repository once.  A failed
        resolution never touches any cache.
        """
        if origin_node_id not in self.shape.span:
            raise UnknownNode(f"no repository named {origin_node_id!r}")
        record, hops, ranges = self._search(origin_node_id, self.marks, query)
        if record is None:
            raise NotFound(f"no finder satisfies the query (searched {hops} repositories)")
        if self.cap != 0:
            self._write(ranges, record)
        order = self.shape.order
        path = tuple(node_id for start, stop in self._contacted(origin_node_id, hops)
                     for node_id in order[start:stop])
        from_cache = record.finder_id not in self.records.get(path[-1], ())
        home = self.home_of.get(record.finder_id)  # populated are the path but the finder's home
        populated = tuple(node_id for node_id in path if node_id != home) if home in path else path
        return tuple.__new__(ResolutionResult, (record, path, hops, from_cache, populated))

    def hop_counts(self, origins: Iterable[str], query: ResourceQuery) -> list[int]:
        """Each origin's ``hop_count`` in turn, 0 for NotFound, as a ``resolve`` per origin
        on a copy of the tree gives; an unknown origin raises UnknownNode at the same point.

        The tree is left unchanged: the call counts on an answer set, a byte per index of
        ``shape.order``, set at each marked repository whose lookup finds a record and,
        unless the cap is 0, at the ranges each search holds at its hit, which a
        ``resolve`` would populate.  The module docstring says which origins cost no search.
        """
        order, span = self.shape.order, self.shape.span
        answers, marks, i = bytearray(len(order)), self.marks, 0
        while (j := marks.find(1, i)) >= 0:
            if self._first_hit(order[j], query) is not None:
                answers[j] = 1
            i = j + 1
        found = 1 in answers  # else every search covers the tree and fails
        known: dict[str, int] = {}  # origin -> count of its search
        counts: list[int] = []
        for origin in origins:
            where = span.get(origin)
            if where is None:
                raise UnknownNode(f"no repository named {origin!r}")
            hops = answers[where[0]] or (known.get(origin) if found else 0)  # 1: the origin answers
            if hops is None:
                _, hops, ranges = self._search(origin, answers)
                known[origin] = hops  # read only under a cap of 0, as a search sets its origin
                if self.cap != 0:
                    for start, stop in ranges:
                        answers[start:stop] = b"\x01" * (stop - start)
            counts.append(hops)
        return counts

    # -- internals ---------------------------------------------------------

    def _write(self, ranges: Iterable[tuple[int, int]], record: FinderRecord) -> None:
        """At each repository of the search's preorder index ranges but the home of the record's
        finder, make the record its finder's only entry and the newest, keeping the
        newest ``cap`` (None: all), which is not 0.  A repository's first cache marks
        it for the search.
        """
        caches, order, finder_id, cap = self.caches, self.shape.order, record.finder_id, self.cap
        home = self.home_of.get(finder_id)
        for start, stop in ranges:
            self.marks[start:stop] = b"\x01" * (stop - start)  # the home holds records, so is marked
            for node_id in order[start:stop]:
                if node_id == home:
                    continue
                cache = caches.get(node_id)
                if cache is None:
                    cache = caches[node_id] = {}
                cache.pop(finder_id, None)
                cache[finder_id] = record
                if cap is not None and len(cache) > cap:  # it was within the cap before this entry
                    del cache[next(iter(cache))]

    def _first_hit(self, node_id: str, query: ResourceQuery) -> FinderRecord | None:
        """A repository's first record that may satisfy the query, or None.

        Authoritative records, then cached ones, each by finder_id.
        """
        authoritative = self.records.get(node_id, ())
        for finder_id in sorted(authoritative) if len(authoritative) > 1 else authoritative:
            record = authoritative[finder_id]
            if summary_may_satisfy(query, record.summary):
                return record
        cache = self.caches.get(node_id, ())
        for finder_id in sorted(cache) if len(cache) > 1 else cache:
            record = cache[finder_id]
            if summary_may_satisfy(query, record.summary):
                return record
        return None

    def _search(self, origin: str, marked: bytearray, query: ResourceQuery | None = None) -> tuple:
        """(hit or None, hops, ranges): a search's first hit among the repositories ``marked``
        sets, the count it contacted, and the at most two preorder index ranges holding them.

        With a query, a hit is a repository's first record that may satisfy it; with none,
        its index.  A hit at index j of ``current``'s range has contacted ``came_from``'s
        subtree and the range from ``first`` through j, which holds it unless j comes before it.
        """
        order, span, parent_of = self.shape.order, self.shape.span, self.shape.parent
        hops, came_from, current = 0, None, origin
        while current is not None:
            first, last = span[current]
            ranges = ((first, last),) if came_from is None else (
                (first, span[came_from][0]), (span[came_from][1], last))
            for start, stop in ranges:
                i = start
                while (j := marked.find(1, i, stop)) >= 0:
                    hit = j if query is None else self._first_hit(order[j], query)
                    if hit is not None:
                        return hit, hops + j + 1 - start, (((first, j + 1), span[came_from])
                                                           if came_from is not None and j < span[came_from][0]
                                                           else ((first, j + 1),))
                    i = j + 1
                hops += stop - start
            came_from, current = current, parent_of[current]
        return None, hops, ()

    def _contacted(self, origin: str, hops: int) -> list[tuple[int, int]]:
        """The preorder index ranges of the first ``hops`` repositories a search from
        origin contacts, in order: the path, from the search's count."""
        span, parent_of = self.shape.span, self.shape.parent
        ranges, came_from, current = [], None, origin
        while hops:
            first, last = span[current]
            for start, stop in ((first, last),) if came_from is None else (
                    (first, span[came_from][0]), (span[came_from][1], last)):
                ranges.append((start, min(stop, start + hops)))
                hops -= ranges[-1][1] - start
            came_from, current = current, parent_of[current]
        return ranges


# Largest uniform tree build_topology will allocate.
MAX_REPOSITORIES = 1_000_000


def check_tree_size(depth: int, branching: int) -> None:
    """Reject a uniform tree of more than MAX_REPOSITORIES nodes.

    The count ``(b^d - 1)/(b - 1)`` is summed level by level and stops as
    soon as it passes the limit, so a huge depth costs nothing to check.
    """
    if branching == 1:
        total = depth
    else:
        total, level = 0, 1
        for _ in range(depth):
            total += level
            if total > MAX_REPOSITORIES:
                break
            level *= branching
    if total > MAX_REPOSITORIES:
        raise MalformedTopology(
            f"a tree of depth {depth} and branching {branching} has more than "
            f"{MAX_REPOSITORIES} repositories"
        )


def build_topology(spec: TopologySpec, policy: ResolutionPolicy | None = None) -> Topology:
    """Construct a repository tree from a TopologySpec, with the policy's cache cap.

    Node ids are the zone names themselves (the root is ``"."``), so a
    given spec always yields the same ids.  Every tree of one spec shares
    the shape from ``_tree_shape``; its records and caches start empty, so
    no state passes from one tree to the next.
    """
    return Topology(_tree_shape(spec), policy)


@functools.lru_cache(maxsize=4)
def _tree_shape(spec: TopologySpec) -> TreeShape:
    """The frozen shape of a spec's tree.

    A uniform spec is expanded level by level into its zone list, from
    labels that are valid by construction, and built like an explicit one,
    whose names are each checked once; a duplicate or orphaned zone shows
    up while building.  A spec always has the same shape, so it is built
    once per process; the cache is small because a shape holds tables the
    size of its tree.
    """
    if spec.zones is not None:
        zones = [check_zone(text) for text in spec.zones]
    else:
        branching = 1 if spec.branching is None else spec.branching
        width = max(2, len(str(branching - 1)))
        labels = [f"z{i:0{width}d}" for i in range(branching)]
        zones, level = [], ["."]
        for _ in range(spec.depth - 1):
            level = [label if zone == "." else f"{label}.{zone}" for zone in level for label in labels]
            zones += level

    distinct = dict.fromkeys(zones)
    if len(distinct) < len(zones):
        raise MalformedTopology("duplicate zone in topology spec")
    distinct.pop(".", None)
    ids = ["."] + sorted(distinct, key=lambda node_id: node_id.count("."))  # parents first
    # labels hold no dots, so a parent's id is the id after its first label
    parent_of = {node_id: (node_id.partition(".")[2] or ".") if node_id != "." else None for node_id in ids}
    children: dict[str, list[tuple[str, str]]] = {node_id: [] for node_id in ids}
    for node_id in ids[1:]:
        siblings = children.get(parent_of[node_id])
        if siblings is None:
            raise MalformedTopology(
                f"zone {node_id} has no parent {parent_of[node_id]} in the spec; list every ancestor")
        siblings.append((node_id.partition(".")[0], node_id))
    order, stack = [], ["."]
    while stack:  # children pushed in reverse, so they come off the stack in label order
        node_id = stack.pop()
        order.append(node_id)
        stack += [child for _, child in sorted(children[node_id], reverse=True)]
    span: dict[str, tuple[int, int]] = {}
    for start in range(len(order) - 1, -1, -1):  # descendants first; a subtree ends where its last child's does
        below = children[order[start]]
        span[order[start]] = (start, span[max(below)[1]][1] if below else start + 1)
    return TreeShape(MappingProxyType(parent_of),
                     tuple(sorted(node_id for node_id, (start, end) in span.items() if end == start + 1)),
                     tuple(order), MappingProxyType(span))
