"""Segmented sieve of Eratosthenes: primes and twin-prime pairs up to large limits.

Only odd candidates are sieved; base primes up to sqrt(limit) are kept
resident, so memory stays O(sqrt(limit) + segment) and limits of 1e8-1e9
are practical on a desktop. All outputs are plain Python ints.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

PRIME_CAP = 2**63 - 1  # prime carrier is a 64-bit signed integer
DEFAULT_SEGMENT_SIZE = 1 << 20  # odd candidates per segment


class CapacityError(ValueError):
    """Requested limit exceeds the supported integer width."""


class TwinPair(NamedTuple):
    lesser: int
    greater: int


@dataclass(frozen=True)
class SieveConfig:
    """Bounds for a segmented sieve run.

    `limit` is inclusive; `segment_size` counts odd candidates per segment.
    """

    limit: int
    segment_size: int = DEFAULT_SEGMENT_SIZE

    def __post_init__(self) -> None:
        limit = operator.index(self.limit)
        if limit < 0:
            raise ValueError("limit must be nonnegative")
        if limit > PRIME_CAP:
            raise CapacityError(f"limit {limit} exceeds supported cap {PRIME_CAP}")
        if operator.index(self.segment_size) < 64:
            raise ValueError("segment_size must be at least 64")


def _basic_prime_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def _odd_base_primes(limit: int) -> list[int]:
    """Odd primes up to sqrt(limit), as Python ints (index math must not wrap)."""
    root = math.isqrt(limit)
    if root < 3:
        return []
    flags = _basic_prime_flags(root)
    return np.flatnonzero(flags).tolist()[1:]  # drop 2


def _odd_segment_masks(
    limit: int, segment_size: int, low: int = 3
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (low, mask) per segment; mask[i] is True iff low + 2*i is prime.

    Covers odd values in [low, limit], ascending. `low` must be odd.
    """
    if limit < low:
        return
    base = _odd_base_primes(limit)
    span = 2 * segment_size
    while low <= limit:
        hi = min(low + span, limit + 1)  # exclusive
        n_odd = (hi - low + 1) // 2
        mask = np.ones(n_odd, dtype=bool)
        if low == 1:
            mask[0] = False
        for p in base:
            start = p * p
            if start >= hi:
                break
            if start < low:
                start = ((low + p - 1) // p) * p
                if start % 2 == 0:
                    start += p
            if start >= hi:
                continue
            mask[(start - low) // 2 :: p] = False
        yield low, mask
        low += span


def iter_prime_arrays(config: SieveConfig) -> Iterator[np.ndarray]:
    """Yield ascending int64 arrays of primes, one array per segment."""
    if config.limit >= 2:
        yield np.array([2], dtype=np.int64)
    for low, mask in _odd_segment_masks(config.limit, config.segment_size):
        yield low + 2 * np.flatnonzero(mask)


def iter_twin_lesser_arrays(config: SieveConfig) -> Iterator[np.ndarray]:
    """Yield ascending int64 arrays of lesser twin members, per segment.

    A pair (p, p+2) is reported only when p+2 <= limit. Pairs straddling a
    segment boundary are attributed to the later segment.
    """
    prev_val = -1
    prev_prime = False
    for low, mask in _odd_segment_masks(config.limit, config.segment_size):
        adjacent = mask[:-1] & mask[1:]
        lessers = low + 2 * np.flatnonzero(adjacent)
        if prev_prime and mask.size and mask[0] and low == prev_val + 2:
            lessers = np.concatenate([np.array([prev_val], dtype=np.int64), lessers])
        yield lessers
        if mask.size:
            prev_val = low + 2 * (mask.size - 1)
            prev_prime = bool(mask[-1])


def primes_up_to(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> list[int]:
    """All primes p <= limit, ascending."""
    config = SieveConfig(limit, segment_size)
    out: list[int] = []
    for arr in iter_prime_arrays(config):
        out.extend(arr.tolist())
    return out


def nth_primes(n: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> list[int]:
    """The first n primes."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n < 6:
        limit = 13
    else:
        # Rosser's bound keeps a single sieve pass sufficient in practice.
        limit = int(n * (math.log(n) + math.log(math.log(n)))) + 10
    while True:
        primes = primes_up_to(limit, segment_size)
        if len(primes) >= n:
            return primes[:n]
        limit = min(limit * 2, PRIME_CAP)


def iter_primes(segment_size: int = DEFAULT_SEGMENT_SIZE) -> Iterator[int]:
    """Unbounded ascending prime generator (sieves in growing windows)."""
    yield 2
    low = 3
    limit = 1 << 16
    while True:
        for seg_low, mask in _odd_segment_masks(limit, segment_size, low=low):
            for p in (seg_low + 2 * np.flatnonzero(mask)).tolist():
                yield p
        if limit >= PRIME_CAP:
            raise CapacityError("prime generator exhausted the supported range")
        low = limit + 1 + (limit % 2)
        limit = min(limit * 4, PRIME_CAP)


def twin_pairs_up_to(
    limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> list[TwinPair]:
    """All twin pairs (p, p+2) with p+2 <= limit, ascending by lesser member."""
    config = SieveConfig(limit, segment_size)
    pairs: list[TwinPair] = []
    for arr in iter_twin_lesser_arrays(config):
        pairs.extend(TwinPair(p, p + 2) for p in arr.tolist())
    return pairs


def twin_sequence_up_to(
    limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> list[int]:
    """Consecutive twin pairs flattened into one list, pair order preserved.

    A prime shared by two pairs (only 5: from (3,5) and (5,7)) appears twice.
    """
    config = SieveConfig(limit, segment_size)
    out: list[int] = []
    for arr in iter_twin_lesser_arrays(config):
        if arr.size == 0:
            continue
        flat = np.empty(2 * arr.size, dtype=np.int64)
        flat[0::2] = arr
        flat[1::2] = arr + 2
        out.extend(flat.tolist())
    return out


def nth_twin_values(n: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> list[int]:
    """First n values of the flattened twin sequence."""
    if n < 1:
        raise ValueError("n must be at least 1")
    limit = 1 << 14
    while True:
        seq = twin_sequence_up_to(limit, segment_size)
        if len(seq) >= n:
            return seq[:n]
        limit = min(limit * 4, PRIME_CAP)

