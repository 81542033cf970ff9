import math
import os
import signal
import time
from itertools import chain, compress, islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sievesum.sieve
from conftest import assert_no_child_left, patched_segment_size, trial_division_primes
from sievesum.sieve import (
    _ODD,
    _TWIN,
    PRIME_CAP,
    CapacityError,
    _arrays,
    _Child,
    _marked,
    _last,
    _segments,
    _wheel,
    iter_prime_arrays,
    iter_primes,
    iter_twin_lesser_arrays,
    nth_primes,
    nth_twin_values,
    prime_lists,
    primes_up_to,
    twin_lesser_lists,
    twin_pairs_up_to,
    twin_sequence_up_to,
)


def odd_segment_masks(limit: int, segment_size: int, low: int):
    """(low, mask) per segment of the odd wheel over the odd values from
    `low` to `limit`; mask[i] is 1 iff low + 2*i is prime."""
    masks = _segments(_ODD, low // 2, (limit - 1) // 2, segment_size)
    return [(2 * i + 1, mask) for i, mask in masks]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


class TestPrimesUpTo:
    def test_empty_below_two(self):
        assert primes_up_to(0) == []
        assert primes_up_to(1) == []

    def test_textbook(self):
        assert primes_up_to(2) == [2]
        assert primes_up_to(10) == [2, 3, 5, 7]

    def test_limit_30(self):
        primes = primes_up_to(30)
        assert len(primes) == 10
        assert primes[-1] == 29
        assert primes == [n for n in range(2, 31) if is_prime(n)]

    def test_every_small_limit_matches_trial_division(self):
        full = [n for n in range(2, 301) if is_prime(n)]
        for limit in range(0, 301):
            assert primes_up_to(limit) == [p for p in full if p <= limit]

    def test_matches_trial_division_at_1e4(self):
        assert primes_up_to(10**4) == [n for n in range(2, 10**4 + 1) if is_prime(n)]

    def test_counting_property_1e6(self):
        assert len(primes_up_to(10**6)) == 78498

    def test_segment_size_independence(self):
        reference = primes_up_to(10**5)
        for segment_size in (64, 101, 1 << 12, 1 << 20):
            with patched_segment_size(segment_size):
                assert primes_up_to(10**5) == reference


class TestNthPrimes:
    def test_first(self):
        assert nth_primes(1) == [2]

    def test_first_five(self):
        assert nth_primes(5) == [2, 3, 5, 7, 11]

    def test_third_prime_is_five(self):
        assert nth_primes(5)[2] == 5

    def test_twenty_five(self):
        primes = nth_primes(25)
        assert len(primes) == 25
        assert primes[-1] == 97

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            nth_primes(0)


class TestIterPrimes:
    def test_matches_nth_primes_across_window_growth(self):
        from itertools import islice

        # the 10000th prime, 104729, lies beyond the first window (2**16);
        # primes_up_to sieves one bounded range, without windows
        assert list(islice(iter_primes(), 10000)) == nth_primes(10000) == primes_up_to(104729)


class TestTwinPairs:
    def test_pairs_up_to_20(self):
        assert twin_pairs_up_to(20) == [(3, 5), (5, 7), (11, 13), (17, 19)]

    def test_empty_below_first_pair(self):
        assert twin_pairs_up_to(4) == []

    def test_pairs_up_to_100(self):
        pairs = twin_pairs_up_to(100)
        assert len(pairs) == 8
        assert pairs[-1] == (71, 73)

    def test_greater_member_bounds_inclusion(self):
        assert twin_pairs_up_to(5) == [(3, 5)]
        assert twin_pairs_up_to(6) == [(3, 5)]
        assert twin_pairs_up_to(7) == [(3, 5), (5, 7)]

    def test_pair_invariants(self):
        for pair in twin_pairs_up_to(10**4):
            assert pair.greater == pair.lesser + 2
            assert is_prime(pair.lesser) and is_prime(pair.greater)

    def test_matches_brute_force_at_100(self):
        brute = [
            (p, p + 2)
            for p in range(2, 99)
            if is_prime(p) and is_prime(p + 2)
        ]
        assert twin_pairs_up_to(100) == brute

    def test_segment_size_independence_catches_boundary_pairs(self):
        reference = twin_pairs_up_to(10**4)
        for segment_size in (64, 65, 997, 1 << 20):
            with patched_segment_size(segment_size):
                assert twin_pairs_up_to(10**4) == reference


class TestTwinSequence:
    def test_sequence_up_to_20(self):
        assert twin_sequence_up_to(20) == [3, 5, 5, 7, 11, 13, 17, 19]

    def test_empty_below_first_pair(self):
        assert twin_sequence_up_to(4) == []

    def test_sequence_up_to_40(self):
        assert twin_sequence_up_to(40) == [3, 5, 5, 7, 11, 13, 17, 19, 29, 31]

    def test_five_repeats_once_limit_allows_both_pairs(self):
        assert twin_sequence_up_to(6).count(5) == 1
        assert twin_sequence_up_to(7).count(5) == 2

    def test_length_is_twice_pair_count(self):
        for limit in (4, 7, 100, 10**4):
            assert len(twin_sequence_up_to(limit)) == 2 * len(twin_pairs_up_to(limit))

    def test_nondecreasing_with_bounded_repetition(self):
        seq = twin_sequence_up_to(10**4)
        pairs = set(twin_pairs_up_to(10**4))
        for a, b in zip(seq, seq[1:]):
            assert a <= b
        for v in set(seq):
            reps = seq.count(v)
            assert reps <= 2
            if reps == 2:
                assert (v - 2, v) in pairs and (v, v + 2) in pairs

    def test_nth_twin_values(self):
        assert nth_twin_values(3) == [3, 5, 5]
        values = nth_twin_values(1000)
        assert len(values) == 1000
        assert values == twin_sequence_up_to(10**6)[:1000]


ODD_PERIOD = len(_ODD.pattern)  # 15015 odd candidates
TWIN_PERIOD = len(_TWIN.pattern)  # 5005 candidate pairs
SEGMENT_SIZES = st.sampled_from([64, 101, ODD_PERIOD, 1 << 20])


# primes to 2e5 + 2 by trial division, as a set
ORACLE_LIMIT = 200_002
ORACLE = set(trial_division_primes(ORACLE_LIMIT))


class TestSegmentKernel:
    """The bytearray kernel with its pre-sieve against the numpy kernel it
    replaced and against trial division."""

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(0, 12),
        delta=st.integers(-3, 3),
        segment_size=SEGMENT_SIZES,
        low=st.sampled_from([1, 3, 5, 7, 9, 11, 13, 15]),
    )
    @example(k=1, delta=-2, segment_size=64, low=3)
    @example(k=2, delta=3, segment_size=ODD_PERIOD, low=13)
    def test_masks_match_numpy_kernel_near_pattern_periods(
        self, numpy_segment_masks, k, delta, segment_size, low
    ):
        limit = max(k * ODD_PERIOD + delta, 0)
        got = [
            (seg_low, list(mask)) for seg_low, mask in odd_segment_masks(limit, segment_size, low)
        ]
        want = [
            (seg_low, mask.astype(int).tolist())
            for seg_low, mask in numpy_segment_masks(limit, segment_size, low)
        ]
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, 13), delta=st.integers(-3, 3), segment_size=SEGMENT_SIZES)
    def test_primes_match_trial_division(self, k, delta, segment_size):
        limit = max(k * ODD_PERIOD + delta, 0)
        with patched_segment_size(segment_size):
            assert primes_up_to(limit) == sorted(p for p in ORACLE if p <= limit)

    @pytest.mark.parametrize("low", [3, 5, 7, 9, 11, 13])
    @pytest.mark.parametrize("segment_size", [64, 101, ODD_PERIOD])
    def test_windows_from_each_small_low(self, low, segment_size):
        limit = 3 * ODD_PERIOD + 3
        got = list(
            chain.from_iterable(
                (seg_low + 2 * i for i, flag in enumerate(mask) if flag)
                for seg_low, mask in odd_segment_masks(limit, segment_size, low)
            )
        )
        assert got == [n for n in range(low, limit + 1, 2) if n in ORACLE]

    def test_iter_primes_across_windows_and_segments(self):
        expected = primes_up_to(300_000)
        for segment_size in (64, 101, ODD_PERIOD):
            with patched_segment_size(segment_size):
                assert list(islice(iter_primes(), len(expected))) == expected


TWIN_SEGMENT_SIZES = [1, 2, 3, 64, 65, TWIN_PERIOD]


# the list and the array view of each wheel
VIEWS = {
    "odd": (_ODD, prime_lists, iter_prime_arrays),
    "twin": (_TWIN, twin_lesser_lists, iter_twin_lesser_arrays),
}


@pytest.fixture(scope="session")
def numpy_values(numpy_segment_masks, numpy_twin_masks):
    """numpy_values(kind, limit): the first numbers of the prime candidates
    of the `kind` wheel up to `limit`, read from the numpy kernels, ascending."""

    def values(kind: str, limit: int) -> list[int]:
        if kind == "twin":
            return (6 * np.flatnonzero(numpy_twin_masks(limit)) - 1).tolist()
        masks = numpy_segment_masks(limit, 1 << 20, 1)
        return [low + 2 * i for low, mask in masks for i in np.flatnonzero(mask).tolist()]

    return values


def check_views(kind: str, limit: int, segment_size: int, numpy_values) -> None:
    """Every view of the `kind` wheel's sweep to `limit` under `segment_size`
    against trial division and the numpy kernels: the lone candidate's first
    number (if limit reaches the lone candidate), then one list or array per
    segment, each inside its own segment, the views all alike."""
    wheel, lists_of, arrays_of = VIEWS[kind]
    with patched_segment_size(segment_size):
        lists = list(lists_of(limit))
        arrays = [a.tolist() for a in arrays_of(limit)]
        if kind == "odd":
            flat = primes_up_to(limit)
        else:
            flat = [p.lesser for p in twin_pairs_up_to(limit)]
            assert twin_sequence_up_to(limit) == [v for p in flat for v in (p, p + 2)]
    assert lists == arrays
    # a candidate's numbers are its first number plus these
    spans = [c - wheel.offsets[0] for c in wheel.offsets]
    assert flat == [v for v in range(limit + 1)
                    if all(v + d <= limit and v + d in ORACLE for d in spans)]
    lone = limit >= wheel.lone[-1]
    last = (limit - wheel.offsets[-1]) // wheel.stride
    assert len(lists) == lone + len(range(1, last + 1, segment_size))
    assert list(chain.from_iterable(lists)) == flat
    if lone:
        assert lists.pop(0) == [wheel.lone[0]]
    for j, values in enumerate(lists):
        assert all(1 + j * segment_size <= (v - wheel.offsets[0]) // wheel.stride
                   < 1 + (j + 1) * segment_size for v in values)
    assert list(chain.from_iterable(lists)) == numpy_values(kind, limit)


class TestTwinKernel:
    """The 6k +- 1 twin kernel against an unsegmented numpy sieve and trial
    division."""

    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(0, 2),
        k_delta=st.integers(-2, 2),
        delta=st.sampled_from([-1, 0, 1]),
        segment_size=st.sampled_from(TWIN_SEGMENT_SIZES),
    )
    @example(m=1, k_delta=0, delta=-1, segment_size=1)
    @example(m=2, k_delta=1, delta=1, segment_size=TWIN_PERIOD)
    def test_masks_match_numpy_near_pattern_periods(
        self, numpy_twin_masks, m, k_delta, delta, segment_size
    ):
        # the limits 6k - 1, 6k and 6k + 1 for k near a multiple of the period
        limit = max(6 * (m * TWIN_PERIOD + k_delta) + delta, 0)
        with patched_segment_size(segment_size):
            segments = list(_segments(_TWIN, 1, _last(_TWIN, limit), segment_size))
        assert [low for low, _ in segments] == list(range(1, (limit - 1) // 6 + 1, segment_size))
        assert all(0 < len(mask) <= segment_size for _, mask in segments)
        got = list(chain.from_iterable(mask for _, mask in segments))
        assert got == numpy_twin_masks(limit)[1:].astype(int).tolist()

    @pytest.mark.parametrize("segment_size", TWIN_SEGMENT_SIZES)
    @pytest.mark.parametrize("kind", VIEWS)
    def test_every_limit_to_200(self, numpy_values, kind, segment_size):
        for limit in range(201):
            check_views(kind, limit, segment_size, numpy_values)

    @pytest.mark.parametrize("segment_size", TWIN_SEGMENT_SIZES)
    @pytest.mark.parametrize("kind", VIEWS)
    def test_every_limit_from_201_to_400(self, numpy_values, kind, segment_size):
        for limit in range(201, 401):
            check_views(kind, limit, segment_size, numpy_values)

    # (segments of 1 to 3 candidates: the masks above, at these limits)
    @pytest.mark.parametrize("segment_size", [64, 65, TWIN_PERIOD])
    @pytest.mark.parametrize("m", [1, 2])
    def test_views_near_pattern_periods(self, numpy_values, segment_size, m):
        for k in (m * TWIN_PERIOD - 1, m * TWIN_PERIOD, m * TWIN_PERIOD + 1):
            for limit in (6 * k - 1, 6 * k, 6 * k + 1):
                check_views("twin", limit, segment_size, numpy_values)

    @pytest.mark.parametrize("segment_size", [64, TWIN_PERIOD, 1 << 20])
    def test_nth_twin_values_across_windows(self, numpy_twin_masks, segment_size):
        # the windows end at the pairs (6k - 1, 6k + 1) with 6k + 1 <= 2**16, 2**18
        reference = [3, 5] + [
            v for k in np.flatnonzero(numpy_twin_masks(2**18 + 100)).tolist()
            for v in (6 * k - 1, 6 * k + 1)
        ]
        edges = [len(twin_sequence_up_to(2**16)), len(twin_sequence_up_to(2**18))]
        with patched_segment_size(segment_size):
            for edge in edges:
                for n in range(edge - 2, edge + 3):
                    assert nth_twin_values(n) == reference[:n]


PRESIEVE_PRIMES = [3, 5, 7, 11, 13, 17, 19]


class TestWheelHead:
    """Every wheel, built on any prefix of the odd primes as its pre-sieve,
    marks the first 10**4 candidates as trial division does, its head
    included: a candidate whose number is a pre-sieve prime, or has a
    number above the largest of them, as (17, 19) on (5, 7, 11, 13, 17)."""

    @pytest.mark.parametrize("stride, offsets, first, lone",
                             [(6, (-1, 1), 5, (3, 5)), (2, (1,), 3, (2,))], ids=["twin", "odd"])
    @pytest.mark.parametrize("count", range(1, 7))
    def test_masks_match_trial_division(self, stride, offsets, first, lone, count):
        start = PRESIEVE_PRIMES.index(first)
        wheel = _wheel(stride, offsets, tuple(PRESIEVE_PRIMES[start : start + count]), lone)
        got = list(chain.from_iterable(mask for _, mask in _segments(wheel, 0, 9999, 1 << 20)))
        expected = [int(all(is_prime(stride * i + c) for c in offsets)) for i in range(10**4)]
        assert got == expected


class TestTwinBoundaries:
    @settings(max_examples=40, deadline=None)
    @given(
        segment_size=st.sampled_from([*TWIN_SEGMENT_SIZES, 101, 1 << 10]),
        limit=st.integers(1_000, ORACLE_LIMIT),
    )
    @example(segment_size=64, limit=6 * 65 + 1)  # the second segment's first pair
    def test_three_twin_views_agree(self, numpy_values, segment_size, limit):
        # segments of 1 to 3 candidates only up to 2e4, where they stay quick
        limit = limit if segment_size > 3 else limit // 10
        check_views("twin", limit, segment_size, numpy_values)


class TestPrimeViews:
    @settings(max_examples=40, deadline=None)
    @given(segment_size=st.sampled_from([64, 65, 101, ODD_PERIOD]), limit=st.integers(0, 20_000))
    def test_lists_and_arrays_agree_per_segment(self, numpy_values, segment_size, limit):
        check_views("odd", limit, segment_size, numpy_values)

    @settings(max_examples=40, deadline=None)
    @given(segment_size=st.sampled_from([1, 2, 64, 65, 101, 105]), limit=st.integers(0, 20_000))
    @example(segment_size=64, limit=643)  # (641, 643) straddled an odd segment boundary
    def test_twin_lists_and_arrays_agree_per_segment(self, numpy_values, segment_size, limit):
        check_views("twin", limit, segment_size, numpy_values)


def compressed(wheel, low: int, mask) -> list[int]:
    """The first numbers of the candidates `mask` marks, read with compress."""
    c = wheel.offsets[0]
    return list(compress(range(wheel.stride * low + c, wheel.stride * (low + len(mask)) + c,
                               wheel.stride), mask))


def marked_by_trial_division(wheel, low: int, size: int) -> list[int]:
    """The first numbers of the candidates low..low+size-1 of `wheel` whose
    numbers are all prime."""
    return [
        wheel.stride * i + wheel.offsets[0]
        for i in range(low, low + size)
        if all(wheel.stride * i + c in ORACLE for c in wheel.offsets)
    ]


class TestGapExtractor:
    """_marked, which reads the marks of a mask from the gap lengths between
    them, against compress and trial division, for both wheels."""

    @settings(max_examples=300, deadline=None)
    @given(
        wheel=st.sampled_from([_ODD, _TWIN]),
        low=st.integers(0, 10**6),
        mask=st.lists(st.sampled_from([0, 1]), max_size=80).map(bytearray),
        block=st.sampled_from([1, 2, 3, 7, 64, 1 << 16]),
    )
    @example(wheel=_ODD, low=0, mask=bytearray(), block=1 << 16)
    @example(wheel=_ODD, low=5, mask=bytearray(7), block=3)  # no mark
    # marks at both ends, and runs across blocks
    @example(wheel=_TWIN, low=1, mask=bytearray(b"\x01\x00\x00\x00\x00\x01"), block=2)
    @example(wheel=_TWIN, low=2, mask=bytearray(b"\x01\x01\x01"), block=1)
    def test_matches_compress(self, wheel, low, mask, block):
        with mock.patch.object(sievesum.sieve, "_RUN_BLOCK", block):
            assert list(_marked(wheel, low, mask)) == compressed(wheel, low, mask)

    @pytest.mark.parametrize("segment_size", TWIN_SEGMENT_SIZES)
    @pytest.mark.parametrize("wheel", [_ODD, _TWIN], ids=["odd", "twin"])
    def test_segments_match_trial_division(self, wheel, segment_size):
        limit = 30_000 if segment_size > 3 else 3_000
        with patched_segment_size(segment_size):
            segments = list(_segments(wheel, 1, _last(wheel, limit), segment_size))
        assert all(0 < len(mask) <= segment_size for _, mask in segments)
        for low, mask in segments:
            numbers = list(_marked(wheel, low, mask))
            assert numbers == compressed(wheel, low, mask)
            assert numbers == marked_by_trial_division(wheel, low, len(mask))
        if segment_size <= 3:  # segments that start or end with a mark, and ones with none
            assert any(mask[0] for _, mask in segments)
            assert any(mask[-1] for _, mask in segments)
            assert any(not any(mask) for _, mask in segments)


class TestArraysFrom:
    """_arrays(wheel, first, limit), the sweep the split kconst sweep runs
    in its child: the whole sweep's values from candidate `first` on."""

    @pytest.mark.parametrize("kind", VIEWS)
    def test_is_the_tail_of_the_whole_sweep(self, kind):
        wheel = VIEWS[kind][0]
        limit, size = 6001, 64
        last = (limit - wheel.offsets[-1]) // wheel.stride
        with patched_segment_size(size):
            whole = [a.tolist() for a in _arrays(wheel, 1, limit)]
            assert whole.pop(0) == [wheel.lone[0]]
            # segment edges at 1 + 64j, with a candidate either side
            for first in (2, 3 * size, 3 * size + 1, 3 * size + 2, last, last + 1):
                arrays = list(_arrays(wheel, first, limit))
                assert all(a.dtype == np.int64 for a in arrays)
                tail = [a.tolist() for a in arrays]
                assert list(chain.from_iterable(tail)) == [
                    v for v in chain.from_iterable(whole)
                    if (v - wheel.offsets[0]) // wheel.stride >= first
                ]
                if (first - 1) % size == 0:
                    assert tail == whole[(first - 1) // size :]

    @pytest.mark.parametrize("kind", VIEWS)
    def test_limit_is_checked_by_the_call(self, kind):
        with pytest.raises(ValueError, match="limit must be nonnegative"):
            _arrays(VIEWS[kind][0], 2, -1)


# every public function that takes a limit, each run to its end
LIMIT_TAKERS = [
    primes_up_to,
    twin_pairs_up_to,
    twin_sequence_up_to,
    lambda limit: list(prime_lists(limit)),
    lambda limit: list(twin_lesser_lists(limit)),
    lambda limit: list(iter_prime_arrays(limit)),
    lambda limit: list(iter_twin_lesser_arrays(limit)),
]


class TestLimitChecks:
    @pytest.mark.parametrize("take", LIMIT_TAKERS)
    def test_rejects_negative_limit(self, take):
        with pytest.raises(ValueError, match="limit must be nonnegative"):
            take(-1)

    @pytest.mark.parametrize("take", LIMIT_TAKERS)
    def test_rejects_limit_beyond_carrier(self, take):
        with pytest.raises(CapacityError, match=f"limit {2**63} exceeds supported cap"):
            take(2**63)

    @pytest.mark.parametrize("take", LIMIT_TAKERS)
    def test_rejects_a_float_limit(self, take):
        with pytest.raises(TypeError):
            take(100.0)

    def test_accepts_carrier_cap(self):
        # the check comes before the first segment, which is never sieved here
        assert next(prime_lists(PRIME_CAP)) == [2]
        assert next(iter_prime_arrays(PRIME_CAP)).tolist() == [2]
        assert next(twin_lesser_lists(PRIME_CAP)) == [3]
        assert next(iter_twin_lesser_arrays(PRIME_CAP)).tolist() == [3]


def open_descriptors(fds: list[int]) -> list[int]:
    """Those of `fds` that are open in this process; opens none itself."""
    out = []
    for fd in fds:
        try:
            os.fstat(fd)
        except OSError:
            continue
        out.append(fd)
    return out


def test_a_child_holds_no_end_of_its_siblings():
    first = _Child(open_descriptors)
    children = [first, _Child(open_descriptors, [first]), _Child(open_descriptors)]
    try:
        answers = []
        for child in children[1:]:
            child.send(list(first.ends))
            answers.append(child.receive())
    finally:
        for child in children:
            child.stop()
    # a child told of `first` closed its copies; one that was not kept them
    assert answers == [[], list(first.ends)]
    assert_no_child_left()


def test_a_child_killed_mid_answer_is_an_error():
    child = _Child(bytes)
    try:
        child.send(1 << 20)  # an answer far larger than a pipe holds: the child blocks in it
        deadline = time.monotonic() + 60
        while not child.ready() and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(child.pid, signal.SIGKILL)
        error = f"exit code {-signal.SIGKILL} before it answered$"
        with pytest.raises(ChildProcessError, match=error):
            child.receive()  # part of an answer
    finally:
        child.stop()
    assert_no_child_left()
