"""Plain-text experiment configuration.

Format: UTF-8 ``key = value`` lines, ``#`` comments, blank lines ignored.
Every key is optional and defaults to the calibrated values below; unknown
keys are hard errors so typos cannot silently fall back to defaults.

Keys::

    t_reg, t_user, t_ws, t_registry, t_hop, t_base   latency params [s]
    jitter_sigma0, jitter_gamma                      jitter calibration
    jitter_enabled                                   true/false
    ttl                                              cache TTL [s]
    summary_pruning                                  true/false
    cache_capacity                                   integer or "none"
    topology.depth, topology.branching               uniform tree shape
    topology.zones                                   comma-separated zones
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .registry import MalformedTopology, ResolutionPolicy, TopologySpec, check_tree_size
from .simkern import LatencyModel


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Config:
    latency: LatencyModel = LatencyModel()
    ttl: float = 3600.0
    summary_pruning: bool = True
    cache_capacity: int | None = None
    topology: TopologySpec | None = None

    @property
    def policy(self) -> ResolutionPolicy:
        return ResolutionPolicy(
            ttl=self.ttl,
            summary_pruning=self.summary_pruning,
            cache_capacity=self.cache_capacity,
        )


_LATENCY_KEYS = ("t_reg", "t_user", "t_ws", "t_registry", "t_hop", "t_base",
                 "jitter_sigma0", "jitter_gamma")


def _parse_float(key: str, raw: str, minimum: float | None = None) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: {raw!r} is not a finite number")
    if minimum is not None and value < minimum:
        raise ConfigError(f"key {key!r}: {value} is out of range (must be >= {minimum})")
    return value


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"key {key!r}: {raw!r} is not a boolean")


def _parse_int(key: str, raw: str, minimum: int) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: {raw!r} is not an integer") from None
    if value < minimum:
        raise ConfigError(f"key {key!r}: {value} is out of range (must be >= {minimum})")
    return value


def parse_config(text: str) -> Config:
    latency_kwargs: dict[str, object] = {}
    cfg_kwargs: dict[str, object] = {}
    topo_kwargs: dict[str, object] = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))

        if key in _LATENCY_KEYS:
            latency_kwargs[key] = _parse_float(key, raw, minimum=0.0)
        elif key == "jitter_enabled":
            latency_kwargs[key] = _parse_bool(key, raw)
        elif key == "ttl":
            value = _parse_float(key, raw)
            if value <= 0:
                raise ConfigError(f"key 'ttl': {value} is out of range (must be > 0)")
            cfg_kwargs["ttl"] = value
        elif key == "summary_pruning":
            cfg_kwargs["summary_pruning"] = _parse_bool(key, raw)
        elif key == "cache_capacity":
            cfg_kwargs["cache_capacity"] = None if raw.lower() == "none" else _parse_int(key, raw, 0)
        elif key == "topology.depth":
            topo_kwargs["depth"] = _parse_int(key, raw, 1)
        elif key == "topology.branching":
            topo_kwargs["branching"] = _parse_int(key, raw, 1)
        elif key == "topology.zones":
            topo_kwargs["zones"] = tuple(z.strip() for z in raw.split(",") if z.strip())
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    cfg = Config(latency=LatencyModel(**latency_kwargs), **cfg_kwargs)
    if topo_kwargs:
        if "zones" in topo_kwargs and ("depth" in topo_kwargs or "branching" in topo_kwargs):
            raise ConfigError("give either topology.depth/branching or topology.zones, not both")
        spec = TopologySpec(**topo_kwargs)
        if spec.depth is not None:
            try:
                check_tree_size(spec.depth, spec.branching if spec.branching is not None else 1)
            except MalformedTopology as exc:
                raise ConfigError(str(exc)) from None
        cfg = replace(cfg, topology=spec)
    return cfg


def load_config(path: str | Path) -> Config:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)
