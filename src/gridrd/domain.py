"""Core vocabulary for grid resource discovery.

Clients express conjunctive queries over resource attributes (numeric
lower bounds plus exact-match tags); resource finders publish their
catalogs to registries only as coarse summaries, and each finder is homed
in one zone.  A zone is its dotted name, most-specific label first, as in
DNS (RFC 1034 §3.1): ``"ca.north-america.grid"``, with ``"."`` for the
root.  Everything here is an immutable value or a pure function, so
instances can be shared freely across simulation runs.
"""

from __future__ import annotations

import math
import numbers
import re
from typing import Mapping

_LABEL_RE = re.compile(r"[a-z0-9-]+")
# What a field may be -> the test of a value that is not a bool; a bool is only ever True or False.
_KINDS = {
    "an integer": lambda v: isinstance(v, int),
    "True or False": lambda v: False,
    "a finite number >= 0": lambda v: isinstance(v, numbers.Real) and _finite(v) and v >= 0,
    "None or an integer >= 0": lambda v: v is None or isinstance(v, int) and v >= 0,
}


def _finite(value: numbers.Real) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


# Canonical attribute keys used by the synthetic resource pools. The maps
# are open: any attribute name works, these are just the conventional ones.
ATTR_PE_COUNT = "pe_count"
ATTR_MIPS_PER_PE = "mips_per_pe"
ATTR_ARCH = "arch"
ATTR_OS = "os"


def check_zone(text: str) -> str:
    """Validate and normalise a zone name: ``"ca.grid"``, or ``"."``/``""`` for the root."""
    text = text.strip()
    if text in (".", ""):
        return "."
    for label in text.split("."):
        if not label or not _LABEL_RE.fullmatch(label):
            raise ValueError(
                f"invalid zone label {label!r}: labels must be non-empty "
                "lowercase alphanumerics or hyphens"
            )
    return text


def as_tuple(name: str, items, what: str, error: type[Exception]) -> tuple:
    """The field ``name``'s items, given as any iterable but a string, as a tuple.

    Anything else, a str enum member too, raises ``error`` saying the field must be
    ``what``: ``tuple("ab")`` would be the items a and b, ``tuple(5)`` a bare TypeError.
    """
    if isinstance(items, str):
        raise error(f"{name} must be {what}, not the string {items!r}")
    try:
        iterator = iter(items)
    except TypeError:  # not iterable
        raise error(f"{name} must be {what}, not {items!r}") from None
    return tuple(iterator)


def as_zone_names(name: str, items, error: type[Exception]) -> tuple[str, ...]:
    """The field ``name``'s zone names as a tuple, by ``as_tuple``; an item that is not a str raises ``error``."""
    names = as_tuple(name, items, "a list of zone names", error)
    for item in names:
        if not isinstance(item, str):
            raise error(f"{name} must be a list of zone names, got the item {item!r}")
    return names


def check_field(name: str, value, what: str, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming the field ``name`` unless ``value`` is ``what``, one of the four ``_KINDS``."""
    if not (what == "True or False" if isinstance(value, bool) else _KINDS[what](value)):
        raise error(f"{name} must be {what}, got {value!r}")


_NEW = object()  # a dict field's default: _bind gives each value made without one its own {}


class Frozen:
    """Base of a slotted value ``class T(Frozen)``, whose fields are ``T.__slots__`` in order.

    ``T.__init__`` checks, then binds the fields; none can be set or deleted after.  Equality,
    hash and repr are a frozen dataclass's.  ``_replace``, pickle and deepcopy go through
    ``T.__init__``, so they check again.  A field read is a slot read: about 17 ns, a named
    tuple's 33.  Every gridrd value whose constructor checks its fields is a ``Frozen``; a
    named tuple is a plain record that checks nothing.
    """

    __slots__ = ()

    def _bind(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, {} if value is _NEW else value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={getattr(self, k)!r}' for k in self.__slots__)})"

    def _replace(self, **changes):
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class ResourceQuery(Frozen):
    """A client's conjunctive search criteria.

    Numeric attributes are constrained from below (``pe_count >= 4``), tags
    must match exactly (``os == "linux"``).  A resource missing a queried
    attribute never matches.
    """

    __slots__ = ("numeric_mins", "required_tags")

    def __init__(self, numeric_mins: Mapping[str, float] = _NEW, required_tags: Mapping[str, str] = _NEW) -> None:
        self._bind(numeric_mins, required_tags)


class MetadataSummary(Frozen):
    """What a registry knows about a finder's catalog: ranges, tag sets, size."""

    __slots__ = ("numeric_ranges", "tag_values", "entry_count")

    def __init__(self, numeric_ranges: Mapping[str, tuple[float, float]] = _NEW,
                 tag_values: Mapping[str, frozenset[str]] = _NEW, entry_count: int = 0) -> None:
        self._bind(numeric_ranges, tag_values, entry_count)


class FinderRecord(Frozen):
    """A resource finder's registry entry: identity, endpoint, home zone, and summary."""

    __slots__ = ("finder_id", "endpoint", "home_zone", "summary")

    def __init__(self, finder_id: str, endpoint: str, home_zone: str, summary: MetadataSummary) -> None:
        if not endpoint:
            raise ValueError("finder endpoint must be non-empty")
        self._bind(finder_id, endpoint, home_zone, summary)


def summary_may_satisfy(query: ResourceQuery, summary: MetadataSummary) -> bool:
    """Lookup test: can ANY catalog with this summary contain a match?

    Over-approximates (may say yes when the real catalog has no match) but
    never under-approximates: if some entry of the summarized catalog
    matches the query, this returns True.
    """
    if summary.entry_count < 1:
        return False
    for name, minimum in query.numeric_mins.items():
        bounds = summary.numeric_ranges.get(name)
        if bounds is None or bounds[1] < minimum:
            return False
    for name, required in query.required_tags.items():
        values = summary.tag_values.get(name)
        if values is None or required not in values:
            return False
    return True
