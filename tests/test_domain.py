import copy
import math
import os
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass, field, is_dataclass
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridrd import cli, config, domain, harness, registry, scenarios, simkern, special, stats
from gridrd.config import ConfigError
from gridrd.domain import (
    MetadataSummary,
    ResourceQuery,
    check_zone,
    summary_may_satisfy,
)
from gridrd.harness import SweepSpec
from gridrd.registry import MalformedTopology, ResolutionPolicy, TopologySpec, build_topology
from gridrd.scenarios import ConfigMismatch, ScenarioConfig, ScenarioKind
from gridrd.simkern import LatencyModel

# -- catalogs: the full metadata that finder summaries stand for ---------------


@dataclass(frozen=True)
class ResourceSpec:
    """One grid resource: identity, attributes, and the zone it lives in."""

    resource_id: str
    numeric_attrs: Mapping[str, float] = field(default_factory=dict)
    tag_attrs: Mapping[str, str] = field(default_factory=dict)
    home_zone: str = "."

    def __post_init__(self) -> None:
        for name, value in self.numeric_attrs.items():
            if value < 0:
                raise ValueError(f"numeric attribute {name!r} must be >= 0, got {value}")


@dataclass(frozen=True)
class MetadataCatalog:
    """The full per-resource metadata held by one resource finder."""

    finder_id: str
    entries: tuple[ResourceSpec, ...] = ()

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for entry in self.entries:
            if entry.resource_id in seen:
                raise ValueError(f"duplicate resource_id {entry.resource_id!r} in catalog")
            seen.add(entry.resource_id)


def summarize(catalog: MetadataCatalog) -> MetadataSummary:
    """Collapse a catalog to per-attribute min/max ranges and tag-value sets.

    The oracle of the soundness test of ``summary_may_satisfy`` and of the
    finder summaries a distributed run computes from pool sizes.
    """
    ranges: dict[str, tuple[float, float]] = {}
    tags: dict[str, set[str]] = {}
    for entry in catalog.entries:
        for name, value in entry.numeric_attrs.items():
            lo, hi = ranges.get(name, (value, value))
            ranges[name] = (min(lo, value), max(hi, value))
        for name, value in entry.tag_attrs.items():
            tags.setdefault(name, set()).add(value)
    return MetadataSummary(
        numeric_ranges=ranges,
        tag_values={name: frozenset(vals) for name, vals in tags.items()},
        entry_count=len(catalog.entries),
    )


# -- strategies ---------------------------------------------------------------

_NUMERIC_NAMES = ("pe_count", "mips_per_pe", "disk_gb")
_TAG_NAMES = ("arch", "os")
_TAG_VALUES = ("x86", "arm", "linux", "bsd")


def _spec_strategy(ids=st.integers(0, 10_000)):
    return st.builds(
        ResourceSpec,
        resource_id=ids.map(lambda i: f"res-{i:05d}"),
        numeric_attrs=st.dictionaries(
            st.sampled_from(_NUMERIC_NAMES), st.floats(0, 100), max_size=3
        ),
        tag_attrs=st.dictionaries(
            st.sampled_from(_TAG_NAMES), st.sampled_from(_TAG_VALUES), max_size=2
        ),
    )


def _catalog_strategy():
    return st.lists(_spec_strategy(), max_size=12, unique_by=lambda s: s.resource_id).map(
        lambda entries: MetadataCatalog(finder_id="f", entries=tuple(entries))
    )


def _query_strategy():
    return st.builds(
        ResourceQuery,
        numeric_mins=st.dictionaries(
            st.sampled_from(_NUMERIC_NAMES), st.floats(0, 100), max_size=2
        ),
        required_tags=st.dictionaries(
            st.sampled_from(_TAG_NAMES), st.sampled_from(_TAG_VALUES), max_size=2
        ),
    )


# -- zone names ---------------------------------------------------------------


def labels(name: str) -> tuple[str, ...]:
    """A zone name's labels, most specific first; the root ``"."`` has none."""
    return () if name == "." else tuple(name.split("."))


def is_ancestor_of(zone: tuple[str, ...], other: tuple[str, ...]) -> bool:
    """True iff ``zone``'s labels are a suffix of ``other``'s: ``other`` lies in ``zone``."""
    n = len(zone)
    return n <= len(other) and other[len(other) - n:] == zone


_LABEL_MESSAGE = "labels must be non-empty lowercase alphanumerics or hyphens"


class TestZoneName:
    def test_parse_and_str_roundtrip(self):
        assert check_zone("ca.north-america.grid") == "ca.north-america.grid"
        assert check_zone(" ca.grid\t") == "ca.grid"
        assert check_zone(".") == "."
        assert check_zone("") == check_zone(" . ") == "."

    def test_child_prepends_label(self):
        shape = build_topology(TopologySpec(zones=("grid", "ca.grid"))).shape
        below = [(labels(n)[0], n) for n, parent in shape.parent.items() if parent == "grid"]
        assert below == [("ca", "ca.grid")]

    @pytest.mark.parametrize("label", ["", "UPPER", "sp ace", "dot.", "a\n"])
    def test_rejects_bad_labels(self, label):
        with pytest.raises(ValueError, match=_LABEL_MESSAGE):
            check_zone(f"ca.{label}.grid")

    @pytest.mark.parametrize("text, label", [
        ("A", "A"), ("a..b", ""), ("a.", ""), (".a", ""), ("ca.Grid", "Grid"), ("a.b c", "b c"),
    ])
    def test_error_names_the_first_bad_label(self, text, label):
        with pytest.raises(ValueError) as caught:
            check_zone(text)
        assert str(caught.value) == f"invalid zone label {label!r}: {_LABEL_MESSAGE}"


# -- matches ------------------------------------------------------------------


def matches(query: ResourceQuery, spec: ResourceSpec) -> bool:
    """True iff ``spec`` satisfies every predicate in ``query``.

    Missing attributes fail the predicate; an empty query matches anything.
    The oracle of the soundness test of ``summary_may_satisfy``.
    """
    for name, minimum in query.numeric_mins.items():
        value = spec.numeric_attrs.get(name)
        if value is None or value < minimum:
            return False
    for name, required in query.required_tags.items():
        if spec.tag_attrs.get(name) != required:
            return False
    return True


class TestMatches:
    def test_numeric_lower_bound(self):
        q = ResourceQuery(numeric_mins={"pe_count": 4})
        assert matches(q, ResourceSpec("r", {"pe_count": 8.0}))
        assert not matches(q, ResourceSpec("r", {"pe_count": 2.0}))

    def test_empty_query_matches_everything(self):
        assert matches(ResourceQuery(), ResourceSpec("r"))

    def test_missing_attribute_fails(self):
        q = ResourceQuery(numeric_mins={"pe_count": 4}, required_tags={"os": "linux"})
        assert not matches(q, ResourceSpec("r", {"pe_count": 8.0}))

    def test_tag_must_equal(self):
        q = ResourceQuery(required_tags={"os": "linux"})
        assert matches(q, ResourceSpec("r", tag_attrs={"os": "linux"}))
        assert not matches(q, ResourceSpec("r", tag_attrs={"os": "bsd"}))

    @given(query=_query_strategy(), spec=_spec_strategy())
    def test_relaxing_the_query_is_monotone(self, query, spec):
        if not matches(query, spec):
            return
        for name in list(query.numeric_mins):
            lowered = dict(query.numeric_mins)
            lowered[name] = lowered[name] / 2
            assert matches(ResourceQuery(lowered, query.required_tags), spec)
            dropped = {k: v for k, v in query.numeric_mins.items() if k != name}
            assert matches(ResourceQuery(dropped, query.required_tags), spec)
        for name in list(query.required_tags):
            dropped_tags = {k: v for k, v in query.required_tags.items() if k != name}
            assert matches(ResourceQuery(query.numeric_mins, dropped_tags), spec)


# -- summarize ----------------------------------------------------------------


def _random_catalog(rng: random.Random, n: int) -> MetadataCatalog:
    entries = []
    for i in range(n):
        numeric = {
            name: rng.uniform(0, 50)
            for name in _NUMERIC_NAMES
            if rng.random() < 0.8
        }
        tags = {name: rng.choice(_TAG_VALUES) for name in _TAG_NAMES if rng.random() < 0.8}
        entries.append(ResourceSpec(f"res-{i:04d}", numeric, tags))
    return MetadataCatalog("f", tuple(entries))


class TestSummarize:
    def test_two_entry_range(self):
        cat = MetadataCatalog(
            "f",
            (
                ResourceSpec("a", {"pe_count": 2.0}),
                ResourceSpec("b", {"pe_count": 8.0}),
            ),
        )
        s = summarize(cat)
        assert s.numeric_ranges["pe_count"] == (2.0, 8.0)
        assert s.entry_count == 2

    def test_empty_catalog(self):
        s = summarize(MetadataCatalog("f"))
        assert s == MetadataSummary()

    def test_matches_full_scan_on_random_catalogs(self):
        rng = random.Random(1234)
        for _ in range(30):
            cat = _random_catalog(rng, 50)
            s = summarize(cat)
            names = {n for e in cat.entries for n in e.numeric_attrs}
            for name in names:
                values = [e.numeric_attrs[name] for e in cat.entries if name in e.numeric_attrs]
                assert s.numeric_ranges[name] == (min(values), max(values))
            tag_names = {n for e in cat.entries for n in e.tag_attrs}
            for name in tag_names:
                assert s.tag_values[name] == {
                    e.tag_attrs[name] for e in cat.entries if name in e.tag_attrs
                }
            assert s.entry_count == len(cat.entries)

    def test_duplicate_resource_ids_rejected(self):
        with pytest.raises(ValueError):
            MetadataCatalog("f", (ResourceSpec("a"), ResourceSpec("a")))


# -- summary_may_satisfy --------------------------------------------------------


class TestSummaryMaySatisfy:
    def test_bound_within_range(self):
        s = MetadataSummary({"pe_count": (2.0, 8.0)}, {}, 2)
        assert summary_may_satisfy(ResourceQuery(numeric_mins={"pe_count": 4}), s)

    def test_bound_above_max(self):
        s = MetadataSummary({"pe_count": (2.0, 8.0)}, {}, 2)
        assert not summary_may_satisfy(ResourceQuery(numeric_mins={"pe_count": 16}), s)

    def test_empty_summary_never_satisfies(self):
        assert not summary_may_satisfy(ResourceQuery(), MetadataSummary())

    def test_missing_attribute_prunes(self):
        s = MetadataSummary({"pe_count": (2.0, 8.0)}, {}, 2)
        assert not summary_may_satisfy(ResourceQuery(numeric_mins={"disk_gb": 1}), s)
        assert not summary_may_satisfy(ResourceQuery(required_tags={"os": "linux"}), s)

    def test_no_false_negatives_on_random_catalogs(self):
        rng = random.Random(99)
        for _ in range(200):
            cat = _random_catalog(rng, rng.randint(0, 10))
            query = ResourceQuery(
                numeric_mins={
                    name: rng.uniform(0, 60)
                    for name in _NUMERIC_NAMES
                    if rng.random() < 0.5
                },
                required_tags={
                    name: rng.choice(_TAG_VALUES) for name in _TAG_NAMES if rng.random() < 0.3
                },
            )
            if any(matches(query, e) for e in cat.entries):
                assert summary_may_satisfy(query, summarize(cat))


# -- field checks: the exact message of every value type's field test ----------

_K = ScenarioKind.BASELINE
_FIELD_MESSAGES = [
    *[(LatencyModel, {name: value}, ValueError, f"{name} must be a finite number >= 0, got {value!r}")
      for name in ("t_reg", "t_user", "t_ws", "t_registry", "t_hop", "t_base",
                   "jitter_sigma0", "jitter_gamma")
      for value in (-1.0, math.nan, math.inf, True, "1", None, 1j)],
    *[(LatencyModel, {"jitter_enabled": value}, ValueError,
       f"jitter_enabled must be True or False, got {value!r}") for value in ("no", "", 1, 0.0, None)],
    *[(ResolutionPolicy, {"cache_capacity": value}, ValueError,
       f"cache_capacity must be None or an integer >= 0, got {value!r}")
      for value in (0.0, 1.0, -2, -1.5, "", "none", b"1", [1], (),
                    -1, math.nan, math.inf, 1j, -3, 2.5, 2.0, True, False, "3")],
    *[(TopologySpec, {"depth": 2, name: value} if name == "branching" else {name: value},
       MalformedTopology, f"{name} must be an integer, got {value!r}")
      for name in ("depth", "branching") for value in (2.5, 3.0, True, False, "3")],
    (TopologySpec, {"depth": 0}, MalformedTopology, "depth must be >= 1, got 0"),
    (TopologySpec, {"depth": 2, "branching": -1}, MalformedTopology, "branching must be >= 1, got -1"),
    (TopologySpec, {"zones": "a"}, MalformedTopology, "zones must be a list of zone names, not the string 'a'"),
    (TopologySpec, {"zones": 5}, MalformedTopology, "zones must be a list of zone names, not 5"),
    *[(ScenarioConfig, {"kind": _K, "n_users": 3, "n_resources": 3, name: value}, ConfigMismatch,
       f"{name} must be an integer, got {value!r}")
      for name in ("n_users", "n_resources", "seed") for value in (True, 2.5, "3", None)],
    (ScenarioConfig, {"kind": _K, "n_users": 3, "n_resources": 3, "finder_zones": "a"}, ConfigMismatch,
     "finder_zones must be a list of zone names, not the string 'a'"),
    (ScenarioConfig, {"kind": _K, "n_users": 3, "n_resources": 3, "finder_zones": 5}, ConfigMismatch,
     "finder_zones must be a list of zone names, not 5"),
    *[(SweepSpec, {name: value}, ConfigError, f"{name} must be an integer, got {value!r}")
      for name in ("replications", "base_seed") for value in (2.5, True, False, "7", 7.0, None)],
    (SweepSpec, {"points": 5}, ConfigError, "points must be (users, resources) pairs, not 5"),
    (SweepSpec, {"scenarios": 5}, ConfigError, "scenarios must be a list of scenarios, not 5"),
    (SweepSpec, {"scenarios": None}, ConfigError, "scenarios must be a list of scenarios, not None"),
    # an integer too large for a float is not finite
    pytest.param(LatencyModel, {"t_hop": 10**400}, ValueError,
                 f"t_hop must be a finite number >= 0, got {10**400!r}", id="t_hop-10**400"),
    pytest.param(LatencyModel, {"jitter_sigma0": -10**400}, ValueError,
                 f"jitter_sigma0 must be a finite number >= 0, got {-10**400!r}", id="jitter_sigma0--10**400"),
    # a finder zone that is not a string fails where the config is made, not at run time
    pytest.param(ScenarioConfig, {"kind": _K, "n_users": 3, "n_resources": 3, "finder_zones": [5]}, ConfigMismatch,
                 "finder_zones must be a list of zone names, got the item 5", id="finder_zones-[5]"),
    pytest.param(ScenarioConfig, {"kind": _K, "n_users": 3, "n_resources": 3, "finder_zones": [[3]]}, ConfigMismatch,
                 "finder_zones must be a list of zone names, got the item [3]", id="finder_zones-[[3]]"),
]


@pytest.mark.parametrize("make, kwargs, error, message", _FIELD_MESSAGES)
def test_every_field_check_has_its_exact_message(make, kwargs, error, message):
    with pytest.raises(error) as info:
        make(**kwargs)
    assert type(info.value) is error
    assert str(info.value) == message


# -- the checked value types that resolve never reads --------------------------

_CHECKED_CHANGES = [
    (LatencyModel(), {"t_ws": -1.0}, ValueError, "t_ws must be a finite number >= 0, got -1.0"),
    (ScenarioConfig(_K, 3, 3), {"n_users": 0}, ConfigMismatch,
     "a run needs at least one user and one resource"),
    (SweepSpec(), {"replications": 0}, ConfigError, "replications must be >= 1"),
    (TopologySpec(depth=2), {"depth": 0}, MalformedTopology, "depth must be >= 1, got 0"),
]
_CHECKED = [value for value, *_ in _CHECKED_CHANGES]
_NAMES = [type(value).__name__ for value in _CHECKED]


@pytest.mark.parametrize("value, changes, error, message", _CHECKED_CHANGES, ids=_NAMES)
def test_replace_checks_again(value, changes, error, message):
    with pytest.raises(error) as info:
        value._replace(**changes)
    assert type(info.value) is error
    assert str(info.value) == message


# a field value each type's check rejects
_BAD_FIELD = {LatencyModel: ("t_hop", -0.5), ScenarioConfig: ("seed", 1.5),
              SweepSpec: ("base_seed", "7"), TopologySpec: ("branching", True)}


@pytest.mark.parametrize("value", _CHECKED, ids=_NAMES)
def test_pickle_and_deepcopy_give_an_equal_value_and_check_again(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value
    name, bad = _BAD_FIELD[type(value)]
    unchecked = object.__new__(type(value))  # a value with a field its check rejects, made without the check
    domain.Frozen._bind(unchecked, *(bad if key == name else getattr(value, key) for key in value.__slots__))
    for round_trip in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        with pytest.raises((ValueError, ConfigMismatch, ConfigError, MalformedTopology), match=name):
            round_trip(unchecked)


@pytest.mark.parametrize("value", _CHECKED, ids=_NAMES)
def test_a_field_cannot_be_set(value):
    for name in value.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.other = 1


def test_a_list_is_stored_as_the_tuple_form():
    zones = ["ca", "us", "west.ca"]
    spec = TopologySpec(zones=zones)
    assert spec == TopologySpec(zones=tuple(zones)) and hash(spec) == hash(TopologySpec(zones=tuple(zones)))
    before = registry._tree_shape.cache_info()
    build_topology(TopologySpec(zones=list(zones)))  # checking it and building it both hit
    after = registry._tree_shape.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
    sweep = SweepSpec(points=[[20, 40], (60, 60)], scenarios=[ScenarioKind.DIRECT])
    assert sweep == SweepSpec(points=((20, 40), (60, 60)), scenarios=(ScenarioKind.DIRECT,))
    assert hash(sweep) == hash(SweepSpec(points=((20, 40), (60, 60)), scenarios=(ScenarioKind.DIRECT,)))
    run = ScenarioConfig(_K, 3, 3, finder_zones=["ca", "us"])
    assert run.finder_zones == ("ca", "us") and run == ScenarioConfig(_K, 3, 3, finder_zones=("ca", "us"))
    assert TopologySpec(depth=2)._replace(depth=None, zones=zones).zones == tuple(zones)


def test_no_gridrd_class_is_a_dataclass():
    # Making a frozen dataclass generates and compiles its methods at import, about 0.9 ms per
    # class (Python 3.11), and importing dataclasses pulls in inspect, ast and tokenize. A Frozen
    # class costs only its own body. Every type that checks its fields is Frozen; a named tuple is
    # a plain record that checks nothing.
    modules = (cli, config, domain, harness, registry, scenarios, simkern, special, stats)
    classes = {cls for module in modules for name, cls in vars(module).items()
               if isinstance(cls, type) and cls.__module__ == module.__name__ and not name.startswith("_")}
    assert [cls.__name__ for cls in classes if is_dataclass(cls)] == []
    assert {cls.__name__ for cls in classes if issubclass(cls, domain.Frozen) and cls.__slots__} == {
        "FinderRecord", "MetadataSummary", "ResourceQuery", "ResolutionPolicy", "TreeShape",
        "LatencyModel", "TopologySpec", "ScenarioConfig", "SweepSpec"}
    assert {cls.__name__ for cls in classes if issubclass(cls, tuple) and hasattr(cls, "_fields")} == {
        "Config", "RunResult", "ResolutionResult", "ObservationRow", "AnalysisRow", "MeanDifferenceTest"}
    src = str(Path(domain.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, gridrd.cli; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
