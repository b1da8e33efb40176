"""Discovery-architecture drivers producing per-user discovery times.

Four scenarios share one timing core.  A discovery's base cost grows with
the number of registered resources and active users; each architecture
stacks its own constant overhead on top:

  baseline      raw simulated grid, no service layer in front
  direct        the client already knows the finder endpoint (+t_ws)
  centralized   the endpoint is first looked up in a regional registry
                (+t_ws +t_registry)
  distributed   the regional registry may have to resolve through the
                repository tree (+t_hop per extra repository contacted);
                answers get cached, so repeat queries collapse to the
                centralized cost

Per-user jitter draws are keyed by (run seed, user index) only, so two
scenarios run with the same seed see identical jitter and their per-user
differences are exactly the configured overheads.  A run is computed in
closed form: the overhead table below is the list above, and the trace
summary counts what each discovery would contact.  Only the jitter reads
the seed: ``mean_times`` runs one config under many seeds, a sweep point's
replications, and resolves once for all of them.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import stats
from .domain import (
    ATTR_ARCH,
    ATTR_MIPS_PER_PE,
    ATTR_OS,
    ATTR_PE_COUNT,
    FinderRecord,
    Frozen,
    MetadataSummary,
    ResourceQuery,
    as_zone_names,
    check_field,
)
from .registry import ResolutionPolicy, Topology, TopologySpec, build_topology
from .simkern import LatencyModel, jitter_vector, mix64

_JITTER_STREAM = 0x4A49_5454  # tags the per-user jitter substream

# Most users one run simulates: every user costs a jitter draw and, in a distributed run, a resolution.
MAX_USERS = 1_000_000


class ScenarioError(Exception):
    pass


class ConfigMismatch(ScenarioError):
    pass


class ScenarioKind(str, Enum):
    BASELINE = "baseline"
    DIRECT = "direct"
    CENTRALIZED = "centralized"
    DISTRIBUTED = "distributed"

    @property
    def ordinal(self) -> int:
        return _ORDINALS[self]


_ORDINALS = {kind: ordinal for ordinal, kind in enumerate(ScenarioKind)}  # the definition order


class ScenarioConfig(Frozen):
    """One run's settings; ``finder_zones`` given as any iterable but a string is stored as a tuple."""

    __slots__ = ("kind", "n_users", "n_resources", "latency", "seed", "topology", "query", "finder_zones",
                 "policy")

    def __init__(self, kind: ScenarioKind, n_users: int, n_resources: int,
                 latency: LatencyModel = LatencyModel(), seed: int = 0, topology: TopologySpec | None = None,
                 query: ResourceQuery = ResourceQuery(), finder_zones: tuple[str, ...] | None = None,
                 policy: ResolutionPolicy = ResolutionPolicy()) -> None:
        if not isinstance(kind, ScenarioKind):
            raise ConfigMismatch(f"unknown scenario kind {kind!r}")
        for name, value in (("n_users", n_users), ("n_resources", n_resources), ("seed", seed)):
            check_field(name, value, "an integer", ConfigMismatch)
        if n_users < 1 or n_resources < 1:
            raise ConfigMismatch("a run needs at least one user and one resource")
        for name, value in (("n_users", n_users), ("n_resources", n_resources)):  # times are floats of both
            try:
                float(value)
            except OverflowError:
                raise ConfigMismatch(f"{name} is too large to convert to a float") from None
        if n_users > MAX_USERS:
            raise ConfigMismatch(f"n_users must be at most {MAX_USERS}, got {n_users}")
        if finder_zones is not None:
            finder_zones = as_zone_names("finder_zones", finder_zones, ConfigMismatch)
            if len(set(finder_zones)) < len(finder_zones):  # one finder per site
                raise ConfigMismatch("duplicate zone in finder_zones")
        self._bind(kind, n_users, n_resources, latency, seed, topology, query, finder_zones, policy)


class RunResult(NamedTuple):
    config: ScenarioConfig
    per_user_times: tuple[float, ...]
    mean_time: float
    trace_summary: Mapping[str, int]
    failed_users: tuple[int, ...] = ()


# The overheads each user pays on top of the jittered base time, which
# ``_times`` adds in this order (float addition is not associative); each
# overhead is one traced event per discovery.
_OVERHEADS: dict[ScenarioKind, tuple[str, ...]] = {
    ScenarioKind.BASELINE: (),
    ScenarioKind.DIRECT: ("t_ws",),
    ScenarioKind.CENTRALIZED: ("t_ws", "t_registry"),
    ScenarioKind.DISTRIBUTED: ("t_ws", "t_registry"),
}
_EVENT_OF = {"t_ws": "service_call", "t_registry": "registry_lookup"}


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    """One run: per user, base time x jitter, plus the kind's overheads.

    ``distributed`` adds ``t_hop`` per repository contacted beyond the
    first; see ``_resolve_users``.  Every user query fires once all
    resources are registered, so the trace counts are arithmetic:
    ``n_resources`` registrations, ``n_users`` queries, and per user one
    event for each overhead, except that a user whose resolution failed
    makes no service call.  Event kinds with a zero count are left out.
    Latencies so large that the times overflow raise ScenarioError.
    """
    hops, failed = (_resolve_users(cfg) if cfg.kind is ScenarioKind.DISTRIBUTED
                    else (None, ()))
    times = tuple(_times(cfg, cfg.seed, hops))
    counts = {"resource_register": cfg.n_resources, "user_query": cfg.n_users}
    for name in _OVERHEADS[cfg.kind]:
        counts[_EVENT_OF[name]] = cfg.n_users - len(failed) if name == "t_ws" else cfg.n_users
    return RunResult(
        config=cfg,
        per_user_times=times,
        mean_time=_mean_time(cfg, times),
        trace_summary={kind: n for kind, n in sorted(counts.items()) if n},
        failed_users=failed,
    )


def mean_times(cfg: ScenarioConfig, seeds: Iterable[int]) -> list[float]:
    """The ``mean_time`` of ``cfg``'s run under each seed in turn, ``cfg.seed`` unread.

    A distributed run's resolution reads no seed, so it is done once for all
    of them; each seed costs a jitter draw and the mean.
    """
    hops = _resolve_users(cfg)[0] if cfg.kind is ScenarioKind.DISTRIBUTED else None
    return [_mean_time(cfg, _times(cfg, seed, hops)) for seed in seeds]


def _times(cfg: ScenarioConfig, seed: int, hops: list[float] | None) -> list[float]:
    """Each user's time under ``seed``: ``((base*j + t_ws) + t_registry) + hop``.

    A term the kind does not pay, and every hop of a run that resolves
    nothing, is ``-0.0``, the identity of float addition: ``x + -0.0`` is
    ``x`` for every ``x``, ``-0.0`` included, where ``+ 0.0`` would turn
    ``-0.0`` into ``0.0``.
    """
    lat = cfg.latency
    base = lat.t_base + lat.t_reg * cfg.n_resources + lat.t_user * cfg.n_users
    jitter = jitter_vector(mix64(seed, _JITTER_STREAM), lat, cfg.n_users, cfg.n_resources)
    t_ws, t_registry = (getattr(lat, name) if name in _OVERHEADS[cfg.kind] else -0.0
                        for name in ("t_ws", "t_registry"))
    return [((base * j + t_ws) + t_registry) + hop
            for j, hop in zip(jitter, itertools.repeat(-0.0) if hops is None else hops)]


def _mean_time(cfg: ScenarioConfig, times: Sequence[float]) -> float:
    try:
        mean_time = stats.mean(times)
    except stats.StatsError:  # the sum overflowed
        mean_time = math.inf
    if not math.isfinite(mean_time):
        raise ScenarioError(f"latency overflows: the discovery times of {cfg.n_users} users "
                            f"over {cfg.n_resources} resources are not finite")
    return mean_time


def _resolve_users(cfg: ScenarioConfig) -> tuple[list[float], tuple[int, ...]]:
    """Tree-wide resolution for a distributed run: each user's hop cost.

    Users are dealt round-robin onto leaf repositories; their hops are
    counted in user order, in one ``Topology.hop_counts`` call, at the
    instant all resources are registered, as a ``resolve`` per user would
    count them: an earlier user's path answers later users, though the call
    writes no cache.  A user's hop cost is ``t_hop`` per repository
    contacted beyond the first.  A user whose query nothing in the tree
    satisfies is listed as failed and pays no hop cost, only the centralized
    one.
    """
    if cfg.topology is None:
        raise ConfigMismatch("distributed runs need a topology spec")
    topology = build_topology(cfg.topology, cfg.policy)
    _populate_finders(topology, cfg)
    origins = itertools.islice(itertools.cycle(topology.leaves()), cfg.n_users)
    counts, t_hop = topology.hop_counts(origins, cfg.query), cfg.latency.t_hop
    # a failed user's count is 0, and its hop -0.0 leaves its time unchanged, -0.0 included
    hops = [t_hop * (count - 1) if count else -0.0 for count in counts]
    return hops, tuple(user for user, count in enumerate(counts) if not count)


# The summary of one pool resource: 4 PEs of 1000 MIPS, x86, linux.
_POOL_SUMMARY = MetadataSummary(
    numeric_ranges={ATTR_PE_COUNT: (4.0, 4.0), ATTR_MIPS_PER_PE: (1000.0, 1000.0)},
    tag_values={ATTR_ARCH: frozenset({"x86"}), ATTR_OS: frozenset({"linux"})},
    entry_count=1,
)


def _populate_finders(topology: Topology, cfg: ScenarioConfig) -> None:
    """Deal the synthetic resource pool round-robin over finder sites.

    One finder per site; by default every leaf repository hosts one, which
    is the architecture's best case.  ``finder_zones`` narrows the sites to
    model regions without local finders.  Every resource of the pool has
    the same attributes, so a site's summary is that of one resource with
    the site's pool size as its entry count; an empty pool's is empty.
    """
    sites = cfg.finder_zones if cfg.finder_zones is not None else topology.leaves()
    if not sites:
        raise ConfigMismatch("distributed runs need at least one finder site")
    rounds, extra = divmod(cfg.n_resources, len(sites))
    for i, site in enumerate(sites):
        size = rounds + (i < extra)
        summary = _POOL_SUMMARY._replace(entry_count=size) if size else MetadataSummary()
        topology.register_finder(FinderRecord(f"fnd-{site}", f"svc://{site}/finder", site, summary))
