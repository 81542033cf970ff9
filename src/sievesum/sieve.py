"""Segmented sieve of Eratosthenes: primes and twin-prime pairs up to large limits.

Primes are sieved over the odd candidates, twin pairs over the candidate
pairs (6k - 1, 6k + 1), which hold every twin pair but (3, 5): byte k of a
twin mask is 1 iff both members are prime, so no pair straddles two
segments. Each kind of candidate is a wheel (see _Wheel), which also names
its lone candidate, the one prime candidate it leaves out: 2, or the pair
(3, 5). One segment loop serves both wheels, and two sweeps turn its masks
into values for either: _lists, one list of Python ints per segment, and
_arrays, one int64 array per segment, each after the lone candidate's
first number where the limit reaches it. Base primes up to sqrt(limit) are
kept resident, so memory stays O(sqrt(limit) + segment) and limits of
1e8-1e9 are practical on a desktop. Each segment starts as one period of a
pattern with the multiples of the wheel's small primes already crossed off
(a pre-sieve, as in Oliveira e Silva, Herzog & Pardi, Math. Comp. 83,
2014), rotated to the segment's offset and repeated to its length, so only
larger base primes are struck segment by segment, and a sweep holds no
more than one segment's mask. The lists are read from the lengths of the
gaps between a mask's marks (see _marked) without numpy; only _arrays, and
so iter_prime_arrays and iter_twin_lesser_arrays, import it. Every
function reads SEGMENT_SIZE when it is called, and its results do not
depend on it.
"""

from __future__ import annotations

import math
import operator
import os
from itertools import accumulate, chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, NoReturn

if TYPE_CHECKING:
    import numpy as np

PRIME_CAP = 2**63 - 1  # prime carrier is a 64-bit signed integer
SEGMENT_SIZE = 1 << 20  # candidates (odd numbers or 6k +- 1 pairs) per segment
_RUN_BLOCK = 1 << 16  # candidates of a mask that _marked splits at a time


class CapacityError(ValueError):
    """Requested limit exceeds the supported integer width."""


class TwinPair(NamedTuple):
    lesser: int
    greater: int


class _Wheel(NamedTuple):
    """Candidates i >= 0 that stand for the numbers stride * i + c, one per
    offset c: candidate i is prime iff all of its numbers are. `pattern` is
    one period of flags over i, 1 iff no number of i has a factor in the
    pre-sieve `primes`, and `head` holds the true flags of the candidates
    with a number up to max(primes), which the pattern gets wrong. `lone`
    holds the numbers of the one prime candidate that no i stands for."""

    stride: int
    offsets: tuple[int, ...]
    primes: tuple[int, ...]
    lone: tuple[int, ...]
    pattern: bytes
    head: bytes


def _is_prime(n: int) -> bool:
    """Whether n is prime, by trial division (for the few small n of a head)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _wheel(
    stride: int, offsets: tuple[int, ...], primes: tuple[int, ...], lone: tuple[int, ...]
) -> _Wheel:
    pattern = bytearray(b"\x01") * math.prod(primes)
    for p in primes:
        for r in _residues(stride, offsets, p):
            pattern[r::p] = bytes(len(range(r, len(pattern), p)))
    # a candidate's other numbers may lie above max(primes), so each is tested
    head = bytes(
        all(_is_prime(stride * i + c) for c in offsets)
        for i in range((primes[-1] - offsets[0]) // stride + 1)
    )
    return _Wheel(stride, offsets, primes, lone, bytes(pattern), head)


def _residues(stride: int, offsets: tuple[int, ...], p: int) -> list[int]:
    """For each offset c, the residue mod p of the candidates i with
    p | stride * i + c."""
    inverse = pow(stride, -1, p)
    return [-c * inverse % p for c in offsets]


_ODD = _wheel(2, (1,), (3, 5, 7, 11, 13), (2,))  # the odd number 2i + 1
_TWIN = _wheel(6, (-1, 1), (5, 7, 11, 13), (3, 5))  # the pair (6i - 1, 6i + 1); 3 divides neither


def _segments(
    wheel: _Wheel, first: int, last: int, segment_size: int
) -> Iterator[tuple[int, bytearray]]:
    """Yield (low, mask) per segment; mask[j] is 1 iff the candidate low + j
    of `wheel` is prime, else 0.

    Covers the candidates first..last, ascending, in nonempty segments of
    at most `segment_size` candidates. Each base prime p above the pre-sieve
    strikes one class (start, p) per offset, from the first candidate whose
    number is at least p * p.
    """
    if last < first:
        return
    stride, offsets = wheel.stride, wheel.offsets
    classes = sorted(
        (bound + (r - bound) % p, p)
        for p in chain.from_iterable(_lists(_ODD, math.isqrt(stride * last + offsets[-1])))
        if p > wheel.primes[-1]
        for c, r in zip(offsets, _residues(stride, offsets, p))
        for bound in [-((c - p * p) // stride)]  # ceil((p*p - c) / stride)
    )
    pattern, head = wheel.pattern, wheel.head
    period = len(pattern)
    low = first
    while low <= last:
        n = min(segment_size, last + 1 - low)
        hi = low + n  # exclusive
        # one period rotated to the segment's offset, repeated and trimmed
        offset = low % period
        mask = bytearray(pattern[offset:] + pattern[:offset])
        mask *= -(-n // period)
        del mask[n:]
        if low < len(head):
            fixed = min(n, len(head) - low)
            mask[:fixed] = head[low : low + fixed]
        for start, p in classes:
            if start >= hi:
                break
            i = start - low if start >= low else (start - low) % p
            # slice assignment copies a value that is not a bytearray into one first
            mask[i::p] = bytearray((n - 1 - i) // p + 1)  # i < p if start < low: >= 0
        yield low, mask
        low = hi


def _marked(wheel: _Wheel, low: int, mask: bytearray) -> Iterator[int]:
    """The first numbers, stride * i + offsets[0], of the candidates i that
    a (low, mask) segment of `wheel` marks, ascending: the primes of the odd
    wheel, the lesser members of the twin wheel's pairs.

    Split on its marks, the mask gives the runs of unmarked candidates
    between them, and each number is the one before it plus
    stride * (len(run) + 1) for the run between them. Only the runs are
    objects, not every candidate as with compress over a range of them.
    The mask is split in blocks of _RUN_BLOCK candidates, read one at a
    time, so that only one block's runs are held: the number before a
    block is that of its candidate before, whether marked or not.
    """
    stride, first = wheel.stride, wheel.offsets[0]
    view = memoryview(mask)

    def block(start: int) -> Iterator[int]:
        runs = bytes(view[start : start + _RUN_BLOCK]).split(b"\x01")
        runs.pop()  # after the last mark
        numbers = accumulate([stride * len(run) + stride for run in runs],
                             initial=stride * (low + start - 1) + first)
        next(numbers)  # the candidate before the block
        return numbers

    return chain.from_iterable(map(block, range(0, len(mask), _RUN_BLOCK)))


def _unbounded(wheel: _Wheel) -> Iterator[tuple[int, bytearray]]:
    """_segments of `wheel` from candidate 1 on, without end, in windows
    whose largest number grows fourfold."""
    first, limit = 1, 1 << 16
    while True:
        last = (limit - wheel.offsets[-1]) // wheel.stride
        yield from _segments(wheel, first, last, SEGMENT_SIZE)
        if limit >= PRIME_CAP:
            raise CapacityError("prime generator exhausted the supported range")
        first, limit = last + 1, min(limit * 4, PRIME_CAP)


def _last(wheel: _Wheel, limit: int) -> int:
    """The last candidate of `wheel` whose numbers are at most the inclusive
    `limit`, once it is checked to be an int in [0, PRIME_CAP]."""
    limit = operator.index(limit)
    if limit < 0:
        raise ValueError("limit must be nonnegative")
    if limit > PRIME_CAP:
        raise CapacityError(f"limit {limit} exceeds supported cap {PRIME_CAP}")
    return (limit - wheel.offsets[-1]) // wheel.stride


def _lists(wheel: _Wheel, limit: int) -> Iterator[list[int]]:
    """The first numbers of the prime candidates of `wheel` whose numbers
    are at most `limit`, ascending: [lone[0]] (if limit >= lone[-1]), then
    one list per segment (see _marked)."""
    masks = _segments(wheel, 1, _last(wheel, limit), SEGMENT_SIZE)
    if limit >= wheel.lone[-1]:
        yield [wheel.lone[0]]
    for low, mask in masks:
        values = list(_marked(wheel, low, mask))
        del mask  # so that the next mask is built once this one is freed
        yield values


def _arrays(wheel: _Wheel, first: int, limit: int) -> Iterator[np.ndarray]:
    """The values of _lists(wheel, limit) as int64 arrays, one per segment,
    without those of the candidates below `first` ([lone[0]] with them if
    `first` > 1). limit is checked by this call, not by the first next()."""
    import numpy as np

    masks = _segments(wheel, first, _last(wheel, limit), SEGMENT_SIZE)

    def arrays() -> Iterator[np.ndarray]:
        if first == 1 and limit >= wheel.lone[-1]:
            yield np.array(wheel.lone[:1], dtype=np.int64)
        for low, mask in masks:
            marks = np.frombuffer(mask, dtype=bool)
            values = wheel.stride * (low + np.flatnonzero(marks)) + wheel.offsets[0]
            del mask, marks  # so that the next mask is built once this one is freed
            yield values

    return arrays()


def prime_lists(limit: int) -> Iterator[list[int]]:
    """The primes p <= limit, ascending, as one list per sieve segment."""
    yield from _lists(_ODD, limit)


def twin_lesser_lists(limit: int) -> Iterator[list[int]]:
    """The lesser members p of the twin pairs (p, p + 2) with p + 2 <= limit,
    ascending: [3] (if limit >= 5), then one list per twin sieve segment."""
    yield from _lists(_TWIN, limit)


def iter_prime_arrays(limit: int) -> Iterator[np.ndarray]:
    """Yield ascending int64 arrays of primes p <= limit, one array per segment."""
    yield from _arrays(_ODD, 1, limit)


def iter_twin_lesser_arrays(limit: int) -> Iterator[np.ndarray]:
    """Yield ascending int64 arrays of the lesser members p of the twin pairs
    (p, p + 2) with p + 2 <= limit: [3] (if limit >= 5), then one array per
    twin sieve segment."""
    yield from _arrays(_TWIN, 1, limit)


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
    yield from _ODD.lone
    for low, mask in _unbounded(_ODD):
        primes = _marked(_ODD, low, mask)
        del mask  # freed once `primes` is exhausted, before the next mask is built
        yield from primes


def twin_pairs_up_to(limit: int) -> list[TwinPair]:
    """All twin pairs (p, p+2) with p+2 <= limit, ascending by lesser member."""
    return [TwinPair(p, p + 2) for lessers in _lists(_TWIN, limit) for p in lessers]


def _flattened(lessers: list[int]) -> Iterator[int]:
    """The pairs (p, p + 2) of `lessers`, flattened."""
    return chain.from_iterable(zip(lessers, [p + 2 for p in lessers]))


def twin_sequence_up_to(limit: int) -> list[int]:
    """Consecutive twin pairs flattened into one list, pair order preserved.

    A prime shared by two pairs (only 5: from (3,5) and (5,7)) appears twice.
    """
    return list(chain.from_iterable(map(_flattened, _lists(_TWIN, limit))))


def nth_twin_values(n: int) -> list[int]:
    """First n values of the flattened twin sequence."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out = list(_TWIN.lone)
    masks = _unbounded(_TWIN)
    while len(out) < n:
        out += _flattened(list(_marked(_TWIN, *next(masks))))
    return out[:n]


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on macOS or Windows
        return os.cpu_count() or 1


def _spare_cpus() -> int:
    """The number of child processes (see _Child) a command may run beside
    itself: one for each usable CPU but its own, at most two, and none
    where fork is missing."""
    return min(2, _usable_cpus() - 1) if hasattr(os, "fork") else 0


class _Child:
    """A forked child process that answers each value sent to it with
    serve(value), both pickled over pipes of its own, until this process
    closes its ends or dies; stop() it however the caller ends.

    The child ignores SIGINT, which the terminal sends to the whole process
    group, and closes its copies of the ends of `siblings`, this process's
    other _Childs, so that each child sees its requests end once this
    process closes its ends. It leaves through os._exit: it runs no exit
    handler, flushes no stdio buffer it inherited and never returns into
    the caller. A child that ends before it answers raises
    ChildProcessError here. It may be forked from a process that runs
    numpy's BLAS threads, so serve must call no BLAS routine.
    """

    def __init__(self, serve, siblings: Iterable[_Child] = ()) -> None:
        import pickle
        import signal
        import warnings

        ends: list[int] = []
        try:
            ends += os.pipe()
            ends += os.pipe()
            with warnings.catch_warnings():
                # Python 3.12 warns of fork in a process with threads
                warnings.filterwarnings("ignore", ".* use of fork", DeprecationWarning)
                pid = os.fork()
        except BaseException:
            for end in ends:
                os.close(end)
            raise
        request_reader, request_writer, answer_reader, answer_writer = ends
        if pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                for end in (request_writer, answer_reader, *(e for c in siblings for e in c.ends)):
                    os.close(end)
                requests, answers = open(request_reader, "rb"), open(answer_writer, "wb")
                while True:
                    pickle.dump(serve(pickle.load(requests)), answers)
                    answers.flush()
            except EOFError:  # the requests ended: this process closed its ends or died
                os._exit(0)
            finally:
                os._exit(1)
        os.close(request_reader)
        os.close(answer_writer)
        self.pid, self.ends = pid, (request_writer, answer_reader)
        self._requests, self._answers = open(request_writer, "wb"), open(answer_reader, "rb")

    def send(self, value) -> None:
        import pickle

        try:
            pickle.dump(value, self._requests)
            self._requests.flush()
        except BrokenPipeError:
            self._ended()

    def ready(self) -> bool:
        """Whether receive() returns at once: an answer, or the child's end, waits."""
        import select

        return bool(select.select([self._answers], [], [], 0)[0])

    def receive(self):
        """The answer to the oldest value sent and not yet answered."""
        import pickle

        try:
            return pickle.load(self._answers)
        except (EOFError, pickle.UnpicklingError):  # no answer, or part of one
            self._ended()

    def _ended(self) -> NoReturn:
        _, status = os.waitpid(self.pid, 0)
        self.pid = 0
        code = os.waitstatus_to_exitcode(status)
        raise ChildProcessError(f"a child process ended with exit code {code} before it answered")

    def stop(self) -> None:
        """Kill the child and reap it, and close this process's ends."""
        import signal

        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0
        self._answers.close()
        try:
            self._requests.close()
        except BrokenPipeError:  # the rest of a request the child did not read
            pass
