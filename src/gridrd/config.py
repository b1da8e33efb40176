"""Plain-text experiment configuration.

Format: UTF-8 ``key = value`` lines, ``#`` comments, blank lines ignored.
Every key is optional and defaults to the calibrated values below; unknown
keys are hard errors so typos cannot silently fall back to defaults.  The
parser only turns text into values; ``LatencyModel``, ``ResolutionPolicy``
and ``TopologySpec`` enforce the limits, and their errors become
ConfigError.  A run or sweep feels ``cache_capacity`` only as 0 or not (see the
README); other capacities matter to API callers.

Keys::

    t_reg, t_user, t_ws, t_registry, t_hop, t_base   latency params [s]
    jitter_sigma0, jitter_gamma                      jitter calibration
    jitter_enabled                                   true/false
    cache_capacity                                   integer or "none"
    topology.depth, topology.branching               uniform tree shape
    topology.zones                                   comma-separated zones
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .registry import MalformedTopology, ResolutionPolicy, TopologySpec
from .simkern import LatencyModel


class ConfigError(Exception):
    pass


class Config(NamedTuple):
    """The settings of a run; each value type checks its own limits."""

    latency: LatencyModel = LatencyModel()
    policy: ResolutionPolicy = ResolutionPolicy()
    topology: TopologySpec | None = None


def _boolean(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


def _integer_or_none(raw: str) -> int | None:
    return None if raw.lower() == "none" else int(raw)


def _zone_list(raw: str) -> tuple[str, ...]:
    return tuple(z.strip() for z in raw.split(",") if z.strip())


# key -> (the value type it feeds, text to value, what the value must be)
_KEYS = {
    **dict.fromkeys(("t_reg", "t_user", "t_ws", "t_registry", "t_hop", "t_base",
                     "jitter_sigma0", "jitter_gamma"), ("latency", float, "a number")),
    "jitter_enabled": ("latency", _boolean, "a boolean"),
    "cache_capacity": ("policy", _integer_or_none, "an integer or none"),
    "topology.depth": ("topology", int, "an integer"),
    "topology.branching": ("topology", int, "an integer"),
    "topology.zones": ("topology", _zone_list, "a zone list"),
}


def parse_config(text: str) -> Config:
    fields: dict[str, dict[str, object]] = {"latency": {}, "policy": {}, "topology": {}}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        group, convert, kind = _KEYS[key]
        try:
            fields[group][key.removeprefix("topology.")] = convert(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: {raw!r} is not {kind}") from None
    try:
        return Config(
            latency=LatencyModel(**fields["latency"]),
            policy=ResolutionPolicy(**fields["policy"]),
            topology=TopologySpec(**fields["topology"]) if fields["topology"] else None,
        )
    except (ValueError, MalformedTopology) as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str | Path) -> Config:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)
