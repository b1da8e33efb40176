"""The five Frozen value types against the frozen dataclasses they replaced.

Each reference below is the type's old declaration, with the same name and
fields, so a repr made by either must be the same bytes.  The Frozen type
must behave as its reference does: equality, hash, repr, no assignment or
deletion, and fresh default dicts.  Unlike a dataclass it also checks again
on ``_replace``, pickle and deepcopy.
"""

import copy
import pickle
from dataclasses import dataclass, field, replace
from typing import Mapping

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridrd import domain, registry


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
