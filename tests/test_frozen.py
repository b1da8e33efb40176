"""The Frozen value types against the declarations they replaced.

Each reference below is the type's old declaration, with the same name and
fields, so a repr made by either must be the same bytes.  Five types were
frozen dataclasses: the Frozen type must behave as its reference does, in
equality, hash, repr, no assignment or deletion, and fresh default dicts.
Unlike a dataclass it also checks again on ``_replace``, pickle and deepcopy.
Four were checked named tuples: the Frozen type keeps their repr and hash,
but equals only a value of its own class, never a plain tuple.
"""

import copy
import pickle
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridrd import domain, harness, registry, scenarios, simkern


@dataclass(frozen=True)
class ResourceQuery:
    numeric_mins: Mapping[str, float] = field(default_factory=dict)
    required_tags: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class MetadataSummary:
    numeric_ranges: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    tag_values: Mapping[str, frozenset[str]] = field(default_factory=dict)
    entry_count: int = 0


@dataclass(frozen=True)
class FinderRecord:
    finder_id: str
    endpoint: str
    home_zone: str
    summary: MetadataSummary

    def __post_init__(self) -> None:
        if not self.endpoint:
            raise ValueError("finder endpoint must be non-empty")


@dataclass(frozen=True)
class ResolutionPolicy:
    cache_capacity: int | None = None

    def __post_init__(self) -> None:
        domain.check_field("cache_capacity", self.cache_capacity, "None or an integer >= 0")


@dataclass(frozen=True)
class TreeShape:
    parent: Mapping[str, str | None]
    leaves: tuple[str, ...]
    order: tuple[str, ...]
    span: Mapping[str, tuple[int, int]]


# (Frozen type, its reference, the fields it requires)
_PAIRS = [
    (domain.ResourceQuery, ResourceQuery, 0),
    (domain.MetadataSummary, MetadataSummary, 0),
    (domain.FinderRecord, FinderRecord, 4),
    (registry.ResolutionPolicy, ResolutionPolicy, 0),
    (registry.TreeShape, TreeShape, 4),
]
_IDS = [new.__name__ for new, _, _ in _PAIRS]

# Few distinct values, so that two drawn values are often equal; a dict makes a value unhashable.
_TRUE = st.sampled_from([2, "a", ("a", 1), frozenset({"x"})]) | st.dictionaries(
    st.sampled_from("ab"), st.integers(0, 1), min_size=1, max_size=2)
_ANY = st.sampled_from([None, 0, "", (), {}]) | _TRUE
_FIELD = {"endpoint": _TRUE, "cache_capacity": st.none() | st.integers(0, 2)}


@st.composite
def _args(draw, new, required):
    """The arguments of one value: every required field, then each later one or its default,
    by position or by keyword."""
    names = new.__slots__
    values = [draw(_FIELD.get(name, _ANY)) for name in names]
    given_count = draw(st.integers(required, len(names)))
    by_position = draw(st.integers(0, given_count))
    return tuple(values[:by_position]), dict(zip(names[by_position:given_count], values[by_position:given_count]))


def _hash(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("new, old, required", _PAIRS, ids=_IDS)
@given(data=st.data())
def test_a_frozen_type_behaves_as_its_dataclass_did(new, old, required, data):
    (args_a, kwargs_a), (args_b, kwargs_b) = (data.draw(_args(new, required)) for _ in range(2))
    a, b = new(*args_a, **kwargs_a), new(*args_b, **kwargs_b)
    old_a, old_b = old(*args_a, **kwargs_a), old(*args_b, **kwargs_b)
    assert repr(a) == repr(old_a) and repr(b) == repr(old_b)
    assert (a == b, a != b) == (old_a == old_b, old_a != old_b)
    assert (a == a._replace(), a != a._replace()) == (True, False)
    another_type = domain.MetadataSummary() if new is domain.ResourceQuery else domain.ResourceQuery()
    twin = type(new.__name__, (domain.Frozen,), {"__slots__": new.__slots__, "__init__": new.__init__})
    same_fields = [twin(*args_a, **kwargs_a), type(old.__name__, (old,), {})(*args_a, **kwargs_a)]
    for other, old_other in [((), ()), (0, 0), (another_type, another_type), same_fields]:
        assert (a == other, a != other) == (old_a == old_other, old_a != old_other) == (False, True)
    assert _hash(a) == _hash(old_a)
    for name in (*new.__slots__, "other"):
        for change in (lambda v: setattr(v, name, 1), lambda v: delattr(v, name)):
            for value in (a, old_a):
                with pytest.raises(AttributeError):
                    change(value)
    assert not hasattr(a, "__dict__")
    for clone in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
        assert type(clone) is new and clone == a
    changes = {name: getattr(b, name) for name in data.draw(st.sets(st.sampled_from(new.__slots__)))}
    assert repr(a._replace(**changes)) == repr(replace(old_a, **changes))


@pytest.mark.parametrize("new, change, message", [
    (domain.FinderRecord("f", "svc://f", "ca", domain.MetadataSummary()), {"endpoint": ""},
     "finder endpoint must be non-empty"),
    (registry.ResolutionPolicy(3), {"cache_capacity": -1},
     "cache_capacity must be None or an integer >= 0, got -1"),
], ids=["FinderRecord", "ResolutionPolicy"])
def test_replace_pickle_and_deepcopy_check_again(new, change, message):
    with pytest.raises(ValueError) as info:
        new._replace(**change)
    assert str(info.value) == message
    (name, bad), = change.items()
    unchecked = object.__new__(type(new))  # a value with a field its check rejects, made without the check
    unchecked._bind(*(bad if key == name else getattr(new, key) for key in new.__slots__))
    for round_trip in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        with pytest.raises(ValueError, match=message):
            round_trip(unchecked)


@pytest.mark.parametrize("new, old", [(domain.ResourceQuery, ResourceQuery), (domain.MetadataSummary, MetadataSummary)],
                         ids=["ResourceQuery", "MetadataSummary"])
def test_each_value_gets_its_own_default_dicts(new, old):
    # the first two fields of both are dicts by default; an explicit None is kept
    first, second = new(), new()
    for name in new.__slots__[:2]:
        assert getattr(first, name) == {} and getattr(first, name) is not getattr(second, name)
        assert getattr(old(), name) == {} and getattr(old(), name) is not getattr(old(), name)
    explicit = new(None, None)
    assert repr(explicit) == repr(old(None, None))
    assert [getattr(explicit, name) for name in new.__slots__[:2]] == [None, None]


_Kind = scenarios.ScenarioKind


class LatencyModel(NamedTuple):
    t_reg: float = 0.06006
    t_user: float = 0.06006
    t_ws: float = 1.890
    t_registry: float = 1.716
    t_hop: float = 0.5
    t_base: float = 0.0
    jitter_sigma0: float = 0.5
    jitter_gamma: float = 1.07
    jitter_enabled: bool = True


class TopologySpec(NamedTuple):
    depth: int | None = None
    branching: int | None = None
    zones: tuple[str, ...] | None = None


class ScenarioConfig(NamedTuple):
    kind: _Kind
    n_users: int
    n_resources: int
    latency: simkern.LatencyModel = simkern.LatencyModel()
    seed: int = 0
    topology: registry.TopologySpec | None = None
    query: domain.ResourceQuery = domain.ResourceQuery()
    finder_zones: tuple[str, ...] | None = None
    policy: registry.ResolutionPolicy = registry.ResolutionPolicy()


class SweepSpec(NamedTuple):
    points: tuple[tuple[int, int], ...] = tuple((d, d) for d in range(20, 101, 20))
    replications: int = 10
    base_seed: int = 0
    scenarios: tuple[_Kind, ...] = (_Kind.BASELINE, _Kind.DIRECT, _Kind.CENTRALIZED)


def _or_default(old, name, values):
    """A field's value: its default, the very object, or one of ``values``."""
    return st.just(old._field_defaults[name]) | values


# Few distinct values, so that two drawn values are often equal.
_NUMBER = st.sampled_from([0, 0.0, 0.5, 1.89, 3]) | st.floats(0, 1e6)
_ZONES = st.sampled_from([(), ("ca",), ("west.ca", "ca"), ("ca", "us", "west.ca")])
_KIND = st.sampled_from(list(_Kind))
_LATENCY_VALUES = st.tuples(*(_or_default(LatencyModel, name, _NUMBER) for name in LatencyModel._fields[:8]),
                            _or_default(LatencyModel, "jitter_enabled", st.booleans()))
# every field's value of a valid value, the defaults among them
_VALUES = {
    LatencyModel: _LATENCY_VALUES,
    TopologySpec: st.tuples(st.integers(1, 3), st.none() | st.integers(1, 3), st.none())
    | st.tuples(st.none(), st.none(), _ZONES),
    ScenarioConfig: st.tuples(
        _KIND, st.integers(1, 3), st.integers(1, 3),
        _or_default(ScenarioConfig, "latency", _LATENCY_VALUES.map(lambda v: simkern.LatencyModel(*v))),
        _or_default(ScenarioConfig, "seed", st.integers(-2, 2) | st.integers(-2**70, 2**70)),
        _or_default(ScenarioConfig, "topology", st.just(registry.TopologySpec(depth=2))),
        _or_default(ScenarioConfig, "query", st.just(domain.ResourceQuery({"pe_count": 2}))),
        _or_default(ScenarioConfig, "finder_zones", _ZONES),
        _or_default(ScenarioConfig, "policy", st.integers(0, 2).map(registry.ResolutionPolicy))),
    SweepSpec: st.tuples(
        _or_default(SweepSpec, "points", st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2)),
                                                  min_size=1, max_size=2).map(tuple)),
        _or_default(SweepSpec, "replications", st.integers(1, 2)),
        _or_default(SweepSpec, "base_seed", st.integers(-1, 1)),
        _or_default(SweepSpec, "scenarios", st.lists(_KIND, min_size=1, max_size=2).map(tuple))),
}
_REQUIRED = object()  # the default of a field that has none
# (Frozen type, the named tuple it was)
_CHECKED = [(simkern.LatencyModel, LatencyModel), (registry.TopologySpec, TopologySpec),
            (scenarios.ScenarioConfig, ScenarioConfig), (harness.SweepSpec, SweepSpec)]


@pytest.mark.parametrize("new, old", _CHECKED, ids=[new.__name__ for new, _ in _CHECKED])
@given(data=st.data())
def test_a_checked_type_keeps_its_named_tuple_repr_and_hash_and_equals_only_its_class(new, old, data):
    assert new.__slots__ == old._fields
    made = []
    for _ in range(2):
        values = data.draw(_VALUES[old])
        by_position = data.draw(st.integers(0, len(values)))
        # a field whose value is its default object is left out, so the default is used
        kwargs = {name: value for name, value in zip(old._fields[by_position:], values[by_position:])
                  if value is not old._field_defaults.get(name, _REQUIRED)}
        made.append((new(*values[:by_position], **kwargs), old(*values[:by_position], **kwargs)))
    (a, old_a), (b, old_b) = made
    assert repr(a) == repr(old_a) and repr(b) == repr(old_b)
    assert _hash(a) == _hash(old_a) and _hash(b) == _hash(old_b)
    assert (a == b, a != b) == (old_a == old_b, old_a != old_b)
    # the change: a named tuple equals a plain tuple of its values, a Frozen value only its own class
    assert old_a == tuple(old_a)
    for other in (tuple(old_a), old_a):
        assert (a == other, a != other) == (False, True)
