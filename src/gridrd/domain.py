"""Core vocabulary for grid resource discovery.

Resources carry numeric and tag attributes; clients express conjunctive
queries over them (numeric lower bounds plus exact-match tags); resource
finders publish catalogs that registries see only through coarse summaries.
Everything here is an immutable value, and every operation is a pure
function, so instances can be shared freely across simulation runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

_LABEL_RE = re.compile(r"^[a-z0-9-]+$")

# Canonical attribute keys used by the synthetic resource pools. The maps
# are open: any attribute name works, these are just the conventional ones.
ATTR_PE_COUNT = "pe_count"
ATTR_MIPS_PER_PE = "mips_per_pe"
ATTR_ARCH = "arch"
ATTR_OS = "os"


@dataclass(frozen=True)
class ZoneName:
    """A node of the hierarchical namespace, most-specific label first.

    ``ZoneName(("ca", "north-america", "grid"))`` reads like the DNS name
    ``ca.north-america.grid``; the root zone has no labels and prints as
    ``"."``.  A zone is an ancestor of another iff its labels are a suffix
    of the other's.
    """

    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for label in self.labels:
            if not label or not _LABEL_RE.match(label):
                raise ValueError(
                    f"invalid zone label {label!r}: labels must be non-empty "
                    "lowercase alphanumerics or hyphens"
                )

    @classmethod
    def parse(cls, text: str) -> "ZoneName":
        """Parse ``"ca.grid"`` (or ``"."``/``""`` for the root)."""
        text = text.strip()
        if text in (".", ""):
            return cls(())
        return cls(tuple(text.split(".")))

    @property
    def is_root(self) -> bool:
        return not self.labels

    def parent(self) -> "ZoneName":
        if self.is_root:
            raise ValueError("the root zone has no parent")
        return ZoneName(self.labels[1:])

    def child(self, label: str) -> "ZoneName":
        return ZoneName((label,) + self.labels)

    def is_ancestor_of(self, other: "ZoneName") -> bool:
        """True iff this zone's labels are a suffix of ``other``'s.

        Every zone is an ancestor of itself; the root is an ancestor of all.
        """
        n = len(self.labels)
        return n <= len(other.labels) and (other.labels[len(other.labels) - n:] == self.labels)

    def __str__(self) -> str:
        return ".".join(self.labels) if self.labels else "."


@dataclass(frozen=True)
class ResourceSpec:
    """One grid resource: identity, attributes, and the zone it lives in."""

    resource_id: str
    numeric_attrs: Mapping[str, float] = field(default_factory=dict)
    tag_attrs: Mapping[str, str] = field(default_factory=dict)
    home_zone: ZoneName = ZoneName()

    def __post_init__(self) -> None:
        for name, value in self.numeric_attrs.items():
            if value < 0:
                raise ValueError(f"numeric attribute {name!r} must be >= 0, got {value}")


@dataclass(frozen=True)
class ResourceQuery:
    """A client's conjunctive search criteria.

    Numeric attributes are constrained from below (``pe_count >= 4``), tags
    must match exactly (``os == "linux"``).  A spec missing a queried
    attribute never matches.  ``count`` is how many resources the user
    ultimately needs; matching itself is per-resource.
    """

    numeric_mins: Mapping[str, float] = field(default_factory=dict)
    required_tags: Mapping[str, str] = field(default_factory=dict)
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"query count must be >= 1, got {self.count}")


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


@dataclass(frozen=True)
class MetadataSummary:
    """What a registry knows about a finder's catalog: ranges, tag sets, size."""

    numeric_ranges: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    tag_values: Mapping[str, frozenset[str]] = field(default_factory=dict)
    entry_count: int = 0


@dataclass(frozen=True)
class FinderRecord:
    """A resource finder's registry entry: identity, endpoint, and summary."""

    finder_id: str
    endpoint: str
    home_zone: ZoneName
    summary: MetadataSummary

    def __post_init__(self) -> None:
        if not self.endpoint:
            raise ValueError("finder endpoint must be non-empty")


def summarize(catalog: MetadataCatalog) -> MetadataSummary:
    """Collapse a catalog to per-attribute min/max ranges and tag-value sets."""
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


def summary_may_satisfy(query: ResourceQuery, summary: MetadataSummary) -> bool:
    """Pruning test: can ANY catalog with this summary contain a match?

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
