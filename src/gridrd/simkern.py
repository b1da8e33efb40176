"""Deterministic randomness and the parametric latency model.

Randomness comes from splitmix64 (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014): a 64-bit counter-based
generator whose integer stream is reproducible on any platform.  The same
finalizer doubles as the seed-mixing hash used everywhere a derived seed is
needed, so every random draw in the system traces back to one base seed.

``jitter_vector`` draws a whole run's per-user jitter in one loop.  ``Rng``
and ``sample_jitter`` are the one-draw-at-a-time definition it must match
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT53 = 2.0**-53


def _splitmix64_finalize(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def mix64(*parts: int) -> int:
    """Fold integers into one 64-bit seed via splitmix64 finalization.

    Used to derive per-cell and per-stream seeds: mix64(base, a, b, ...) is
    order-sensitive, deterministic, and documented here as THE seed hash.
    """
    h = 0
    for part in parts:
        h = _splitmix64_finalize((h + _GOLDEN + (part & _MASK64)) & _MASK64)
    return h


class Rng:
    """splitmix64 stream: identical seed, identical draws, any platform."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _splitmix64_finalize(self._state)

    def random(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * _UNIT53

    def normal(self) -> float:
        """Standard normal via Box-Muller; consumes exactly two uniforms."""
        u1 = self.random()
        u2 = self.random()
        if u1 <= 0.0:
            u1 = _UNIT53
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def lognormal_unit_mean(self, rel_sd: float) -> float:
        """Positive draw with mean exactly 1 and relative std dev ``rel_sd``."""
        if rel_sd <= 0.0:
            return 1.0
        s2 = math.log(1.0 + rel_sd * rel_sd)
        return math.exp(-0.5 * s2 + math.sqrt(s2) * self.normal())


@dataclass(frozen=True)
class LatencyModel:
    """Per-entity timing parameters, all in virtual seconds.

    A discovery takes ``t_base + t_reg*n_resources + t_user*n_users``
    before architecture-specific overheads: ``t_ws`` per web-service call,
    ``t_registry`` per registry lookup, ``t_hop`` per extra repository hop
    in a distributed resolution.  The multiplicative jitter has unit mean
    and a relative spread that grows with total load.
    """

    t_reg: float = 0.06006
    t_user: float = 0.06006
    t_ws: float = 1.890
    t_registry: float = 1.716
    t_hop: float = 0.5
    t_base: float = 0.0
    jitter_sigma0: float = 0.5
    jitter_gamma: float = 1.07
    jitter_enabled: bool = True

    def __post_init__(self) -> None:
        for name in ("t_reg", "t_user", "t_ws", "t_registry", "t_hop", "t_base",
                     "jitter_sigma0", "jitter_gamma"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be a finite number >= 0, got {value}")

    def without_jitter(self) -> "LatencyModel":
        return replace(self, jitter_enabled=False)


# Load of 20 users x 20 resources anchors the jitter scale: there the
# relative spread is jitter_sigma0 itself.
JITTER_ANCHOR_LOAD = 400.0


def jitter_relative_sd(model: LatencyModel, n_users: int, n_resources: int) -> float:
    """The load-dependent relative std dev of the jitter factor.

    Raises ValueError when the spread is too large for a float draw: the
    log-normal draw needs ``rel_sd**2`` finite, or every time is NaN.
    """
    load = (n_users * n_resources) / JITTER_ANCHOR_LOAD
    try:
        rel_sd = model.jitter_sigma0 * load**model.jitter_gamma
    except OverflowError:
        rel_sd = math.inf
    if not math.isfinite(rel_sd * rel_sd):
        raise ValueError(
            f"jitter spread overflows at {n_users} users x {n_resources} resources "
            f"(jitter_sigma0 = {model.jitter_sigma0!r}, jitter_gamma = {model.jitter_gamma!r})"
        )
    return rel_sd


def sample_jitter(rng: Rng, model: LatencyModel, n_users: int, n_resources: int) -> float:
    """One multiplicative jitter draw: positive, mean 1; exactly 1 when disabled."""
    if n_users < 1 or n_resources < 1:
        raise ValueError("jitter needs at least one user and one resource")
    if not model.jitter_enabled:
        return 1.0
    return rng.lognormal_unit_mean(jitter_relative_sd(model, n_users, n_resources))



def jitter_vector(stream: int, model: LatencyModel, n_users: int, n_resources: int) -> list[float]:
    """Every user's jitter draw for one run, in user order.

    ``stream`` is ``mix64(*parts)`` for the run's jitter substream; element
    ``u`` equals ``sample_jitter(Rng(mix64(*parts, u)), model, n_users,
    n_resources)`` bit for bit.  The three splitmix64 finalizations per user
    (seed derivation, then two uniforms for Box-Muller) are inlined, and
    everything that depends only on the run is computed once.
    """
    if n_users < 1 or n_resources < 1:
        raise ValueError("jitter needs at least one user and one resource")
    if not model.jitter_enabled:
        return [1.0] * n_users
    rel_sd = jitter_relative_sd(model, n_users, n_resources)
    if rel_sd <= 0.0:
        return [1.0] * n_users
    s2 = math.log(1.0 + rel_sd * rel_sd)
    shift, scale = -0.5 * s2, math.sqrt(s2)
    two_pi = 2.0 * math.pi
    log, sqrt, cos, exp = math.log, math.sqrt, math.cos, math.exp
    mask, golden, mix1, mix2, unit = _MASK64, _GOLDEN, _MIX1, _MIX2, _UNIT53
    start, twice = stream + golden, 2 * golden
    draws = []
    for user in range(n_users):
        z = (start + user) & mask
        z = ((z ^ (z >> 30)) * mix1) & mask
        z = ((z ^ (z >> 27)) * mix2) & mask
        seed = z ^ (z >> 31)
        z = (seed + golden) & mask
        z = ((z ^ (z >> 30)) * mix1) & mask
        z = ((z ^ (z >> 27)) * mix2) & mask
        u1 = ((z ^ (z >> 31)) >> 11) * unit
        z = (seed + twice) & mask
        z = ((z ^ (z >> 30)) * mix1) & mask
        z = ((z ^ (z >> 27)) * mix2) & mask
        u2 = ((z ^ (z >> 31)) >> 11) * unit
        if u1 <= 0.0:
            u1 = unit
        draws.append(exp(shift + scale * (sqrt(-2.0 * log(u1)) * cos(two_pi * u2))))
    return draws
