"""Segmented sieve of Eratosthenes: primes and twin-prime pairs up to large limits.

Only odd candidates are sieved, one bytearray per segment; base primes up to
sqrt(limit) are kept resident, so memory stays O(sqrt(limit) + segment) and
limits of 1e8-1e9 are practical on a desktop. Each segment starts as a slice
of a pattern with the multiples of 3, 5, 7, 11 and 13 already crossed off
(a pre-sieve, as in Oliveira e Silva, Herzog & Pardi, Math. Comp. 83, 2014),
so only larger base primes are struck segment by segment. The functions that
return Python ints do without numpy; only the generators of arrays,
iter_prime_arrays and iter_twin_lesser_arrays, import it. Every function
reads SEGMENT_SIZE when it is called, and its results do not depend on it.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, compress, islice
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:
    import numpy as np

PRIME_CAP = 2**63 - 1  # prime carrier is a 64-bit signed integer
SEGMENT_SIZE = 1 << 20  # odd candidates per segment
# The pre-sieve primes; their pattern on the odd candidates repeats every
# _PERIOD = 3 * 5 * 7 * 11 * 13 of them.
_SMALL_PRIMES = (3, 5, 7, 11, 13)
_PERIOD = 15015


class CapacityError(ValueError):
    """Requested limit exceeds the supported integer width."""


class TwinPair(NamedTuple):
    lesser: int
    greater: int


def _presieve_pattern() -> bytes:
    """Byte j is 1 iff the odd number 2j + 1 has no factor in _SMALL_PRIMES
    (so the small primes themselves are 0 too)."""
    flags = bytearray(b"\x01") * _PERIOD
    for p in _SMALL_PRIMES:
        flags[p // 2 :: p] = bytes(len(range(p // 2, _PERIOD, p)))
    return bytes(flags)


_PATTERN = _presieve_pattern()


def _odd_base_primes(limit: int) -> list[int]:
    """Odd primes up to sqrt(limit), as Python ints (index math must not wrap)."""
    root = math.isqrt(limit)
    return [
        p
        for low, mask in _odd_segment_masks(root, SEGMENT_SIZE)
        for p in _segment_primes(low, mask)
    ]


def _odd_segment_masks(
    limit: int, segment_size: int, low: int = 3
) -> Iterator[tuple[int, bytearray]]:
    """Yield (low, mask) per segment; mask[i] is 1 iff low + 2*i is prime,
    else 0.

    Covers odd values in [low, limit], ascending, in nonempty segments of at
    most `segment_size` values. `low` must be odd.
    """
    if limit < low:
        return
    base = [p for p in _odd_base_primes(limit) if p > _SMALL_PRIMES[-1]]
    # long enough to hold the longest segment at any offset into the pattern
    longest = min(segment_size, (limit - low) // 2 + 1)
    tiled = memoryview(_PATTERN * (longest // _PERIOD + 2))
    span = 2 * segment_size
    while low <= limit:
        hi = min(low + span, limit + 1)  # exclusive
        n_odd = (hi - low + 1) // 2
        offset = (low // 2) % _PERIOD
        mask = bytearray(tiled[offset : offset + n_odd])
        if low == 1:
            mask[0] = 0
        for p in _SMALL_PRIMES:
            if low <= p < hi:
                mask[(p - low) // 2] = 1
        for p in base:
            start = p * p
            if start >= hi:
                break
            if start < low:
                start = ((low + p - 1) // p) * p
                if start % 2 == 0:
                    start += p
            i = (start - low) // 2  # < p if start was < low: the count is >= 0
            mask[i::p] = bytes((n_odd - 1 - i) // p + 1)
        yield low, mask
        low += span


def _segment_primes(low: int, mask: bytearray) -> Iterator[int]:
    """The primes a (low, mask) segment marks, ascending."""
    return compress(range(low, low + 2 * len(mask), 2), mask)


def _unbounded_masks() -> Iterator[tuple[int, bytearray]]:
    """_odd_segment_masks from 3 on, without end, in windows growing fourfold."""
    low = 3
    limit = 1 << 16
    while True:
        yield from _odd_segment_masks(limit, SEGMENT_SIZE, low=low)
        if limit >= PRIME_CAP:
            raise CapacityError("prime generator exhausted the supported range")
        low = limit + 1 + (limit % 2)
        limit = min(limit * 4, PRIME_CAP)


def _masks(limit: int) -> Iterator[tuple[int, bytearray]]:
    """_odd_segment_masks over every odd candidate up to the inclusive
    `limit`, once it is checked to be an int in [0, PRIME_CAP]."""
    limit = operator.index(limit)
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit > PRIME_CAP:
        raise CapacityError(f"limit {limit} exceeds supported cap {PRIME_CAP}")
    return _odd_segment_masks(limit, SEGMENT_SIZE)


def _twin_lessers(masks: Iterable[tuple[int, bytearray]]) -> Iterator[list[int]]:
    """Per segment of the contiguous `masks`, the lesser members p of the twin
    pairs (p, p + 2) whose p + 2 it covers, ascending. A pair straddling a
    segment boundary is attributed to the later segment."""
    carry = False  # the value just below the segment is prime
    for low, mask in masks:
        lessers = [low - 2] if carry and mask[0] else []
        i = mask.find(b"\x01\x01")
        while i >= 0:
            lessers.append(low + 2 * i)
            i = mask.find(b"\x01\x01", i + 1)
        yield lessers
        carry = mask[-1]


def prime_lists(limit: int) -> Iterator[list[int]]:
    """The primes p <= limit, ascending, as one list per sieve segment."""
    masks = _masks(limit)
    if limit >= 2:
        yield [2]
    for low, mask in masks:
        yield list(_segment_primes(low, mask))


def twin_lesser_lists(limit: int) -> Iterator[list[int]]:
    """The lesser members p of the twin pairs (p, p + 2) with p + 2 <= limit,
    ascending, as one list per sieve segment (see _twin_lessers)."""
    yield from _twin_lessers(_masks(limit))


def iter_prime_arrays(limit: int) -> Iterator[np.ndarray]:
    """Yield ascending int64 arrays of primes p <= limit, one array per segment."""
    import numpy as np

    masks = _masks(limit)
    if limit >= 2:
        yield np.array([2], dtype=np.int64)
    for low, mask in masks:
        yield low + 2 * np.flatnonzero(np.frombuffer(mask, dtype=bool))


def iter_twin_lesser_arrays(limit: int) -> Iterator[np.ndarray]:
    """Yield ascending int64 arrays of lesser twin members, per segment.

    A pair (p, p+2) is reported only when p+2 <= limit. Pairs straddling a
    segment boundary are attributed to the later segment.
    """
    import numpy as np

    carry = False  # the value just below the segment is prime
    for low, mask in _masks(limit):
        flags = np.frombuffer(mask, dtype=bool)
        lessers = low + 2 * np.flatnonzero(flags[:-1] & flags[1:])
        if carry and mask[0]:
            lessers = np.concatenate([np.array([low - 2], dtype=np.int64), lessers])
        yield lessers
        carry = mask[-1]


def primes_up_to(limit: int) -> list[int]:
    """All primes p <= limit, ascending."""
    return list(chain.from_iterable(prime_lists(limit)))


def nth_primes(n: int) -> list[int]:
    """The first n primes."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return list(islice(iter_primes(), n))


def iter_primes() -> Iterator[int]:
    """Unbounded ascending prime generator (sieves in growing windows)."""
    yield 2
    for low, mask in _unbounded_masks():
        yield from _segment_primes(low, mask)


def twin_pairs_up_to(limit: int) -> list[TwinPair]:
    """All twin pairs (p, p+2) with p+2 <= limit, ascending by lesser member."""
    return [TwinPair(p, p + 2) for lessers in _twin_lessers(_masks(limit)) for p in lessers]


def twin_sequence_up_to(limit: int) -> list[int]:
    """Consecutive twin pairs flattened into one list, pair order preserved.

    A prime shared by two pairs (only 5: from (3,5) and (5,7)) appears twice.
    """
    out: list[int] = []
    for lessers in _twin_lessers(_masks(limit)):
        out.extend(v for p in lessers for v in (p, p + 2))
    return out


def nth_twin_values(n: int) -> list[int]:
    """First n values of the flattened twin sequence."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out: list[int] = []
    for lessers in _twin_lessers(_unbounded_masks()):
        out.extend(v for p in lessers for v in (p, p + 2))
        if len(out) >= n:
            return out[:n]
