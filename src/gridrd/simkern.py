"""Deterministic randomness and the parametric latency model.

Randomness comes from splitmix64 (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014): a 64-bit counter-based
generator whose integer stream is reproducible on any platform.  The same
finalizer doubles as the seed-mixing hash used everywhere a derived seed is
needed, so every random draw in the system traces back to one base seed.

``jitter_vector`` draws a whole run's per-user jitter.  Its integer half is
lane-packed: a block of users' 64-bit states shares one Python int, 128 bits
per user, so each splitmix64 step runs once per block.  The bytes are
unpacked little-endian, so the integers are the same on every platform; the
float step's last bit is libm's (pinned on x86-64 glibc 2.36 with FMA).
"""

from __future__ import annotations

import functools
import math
import struct

from .domain import Frozen, check_field

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT53 = 2.0**-53


def _finalize(z: int, m64: int = _MASK64) -> int:
    """The splitmix64 finalizer of ``z < 2**64``, or of every lane of a lane-packed
    ``z`` when ``m64`` masks each lane to 64 bits (see ``_uniform_pairs``)."""
    z = ((z ^ (z >> 30)) & m64) * _MIX1 & m64
    z = ((z ^ (z >> 27)) & m64) * _MIX2 & m64
    return z ^ ((z >> 31) & m64)


def mix64(*parts: int, prefix: int = 0) -> int:
    """Fold integers into one 64-bit seed via splitmix64 finalization.

    Used to derive per-cell and per-stream seeds: mix64(base, a, b, ...) is
    order-sensitive, deterministic, and documented here as THE seed hash.
    The fold goes on from ``prefix``: ``mix64(*more, prefix=mix64(*parts))``
    is ``mix64(*parts, *more)``.
    """
    h = prefix
    for part in parts:
        h = _finalize((h + _GOLDEN + (part & _MASK64)) & _MASK64)
    return h


class LatencyModel(Frozen):
    """Per-entity timing parameters, all in virtual seconds.

    A discovery takes ``t_base + t_reg*n_resources + t_user*n_users``
    before architecture-specific overheads: ``t_ws`` per web-service call,
    ``t_registry`` per registry lookup, ``t_hop`` per extra repository hop
    in a distributed resolution.  The multiplicative jitter has unit mean
    and a relative spread that grows with total load.  A field of the wrong
    type or out of range raises ValueError naming it.
    """

    __slots__ = ("t_reg", "t_user", "t_ws", "t_registry", "t_hop", "t_base", "jitter_sigma0", "jitter_gamma",
                 "jitter_enabled")

    def __init__(self, t_reg: float = 0.06006, t_user: float = 0.06006, t_ws: float = 1.890,
                 t_registry: float = 1.716, t_hop: float = 0.5, t_base: float = 0.0,
                 jitter_sigma0: float = 0.5, jitter_gamma: float = 1.07, jitter_enabled: bool = True) -> None:
        numbers = (t_reg, t_user, t_ws, t_registry, t_hop, t_base, jitter_sigma0, jitter_gamma)
        for name, value in zip(self.__slots__, numbers):
            check_field(name, value, "a finite number >= 0")
        check_field("jitter_enabled", jitter_enabled, "True or False")
        self._bind(*numbers, jitter_enabled)

    def without_jitter(self) -> "LatencyModel":
        return self._replace(jitter_enabled=False)


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


# Users per lane-packed pass: bounds the kernel's scratch memory to a few
# hundred kilobytes whatever the run's size.
_BLOCK = 1024


@functools.lru_cache(maxsize=8)
def _lanes(n: int) -> tuple[int, int, int, int, struct.Struct]:
    """For ``n`` 128-bit lanes: 1, the lane index, the 64- and 53-bit masks in
    every lane, and the unpacker of each lane's two little-endian halves."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * n, "little")
    index = int.from_bytes(b"".join(u.to_bytes(16, "little") for u in range(n)), "little")
    return ones, index, ones * _MASK64, ones * ((1 << 53) - 1), struct.Struct(f"<{2 * n}Q")


def _uniform_pairs(start: int, n: int) -> tuple[int, ...]:
    """``(a0, b0, a1, b1, ...)``: the two 53-bit uniforms of each of the ``n``
    users whose seeds finalize ``start``, ``start + 1``, ... (mod 2**64).

    User ``u``'s 64-bit state sits at bit ``128*u`` of one int, so each
    splitmix64 step runs once per block (SIMD within a register).  A lane
    holds a full 64x64-bit product, and masking every lane to 64 bits after
    a right shift drops the bits pulled in from the next lane: each lane's
    arithmetic is exact.
    """
    ones, index, m64, m53, unpack = _lanes(n)
    seeds = _finalize((ones * (start & _MASK64) + index) & m64, m64)
    first = _finalize((seeds + ones * _GOLDEN) & m64, m64) >> 11 & m53
    second = _finalize((seeds + ones * (2 * _GOLDEN)) & m64, m64) >> 11 & m53
    return unpack.unpack((first | second << 64).to_bytes(16 * n, "little"))


def jitter_vector(stream: int, model: LatencyModel, n_users: int, n_resources: int) -> list[float]:
    """Every user's jitter draw for one run, in user order.

    ``stream`` is ``mix64(*parts)`` for the run's jitter substream.  With
    ``f`` the splitmix64 finalizer and every sum taken mod 2**64, user ``u``
    has the seed ``s = f(stream + golden + u)``, which is ``mix64(*parts,
    u)``, and the uniforms ``u1 = (f(s + golden) >> 11) * 2**-53`` (2**-53
    if that is 0) and ``u2 = (f(s + 2*golden) >> 11) * 2**-53``.  Its draw is
    ``exp(-s2/2 + sqrt(s2) * (sqrt(-2*log(u1)) * cos(2*pi*u2)))`` with
    ``s2 = log(1 + rel_sd**2)``: Box-Muller, then a log-normal of mean 1.
    Disabled jitter or a zero spread gives exactly 1.0 for every user.

    The integers are drawn lane-packed, a block of users at a time (see
    ``_uniform_pairs``); the float step runs per user in the order above.
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
    log, sqrt, cos, exp, unit = math.log, math.sqrt, math.cos, math.exp, _UNIT53
    draws = []
    for lo in range(0, n_users, _BLOCK):
        pairs = iter(_uniform_pairs(stream + _GOLDEN + lo, min(_BLOCK, n_users - lo)))
        draws += [exp(shift + scale * (sqrt(-2.0 * log((a or 1) * unit)) * cos(two_pi * (b * unit))))
                  for a, b in zip(pairs, pairs)]
    return draws
