import math
from itertools import chain, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import patched_segment_size, trial_division_primes
from sievesum.sieve import (
    _PERIOD,
    PRIME_CAP,
    CapacityError,
    _odd_segment_masks,
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


SEGMENT_SIZES = st.sampled_from([64, 101, _PERIOD, 1 << 20])


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
    @example(k=2, delta=3, segment_size=_PERIOD, low=13)
    def test_masks_match_numpy_kernel_near_pattern_periods(
        self, numpy_segment_masks, k, delta, segment_size, low
    ):
        limit = max(k * _PERIOD + delta, 0)
        got = [
            (seg_low, list(mask)) for seg_low, mask in _odd_segment_masks(limit, segment_size, low)
        ]
        want = [
            (seg_low, mask.astype(int).tolist())
            for seg_low, mask in numpy_segment_masks(limit, segment_size, low)
        ]
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, 13), delta=st.integers(-3, 3), segment_size=SEGMENT_SIZES)
    def test_primes_match_trial_division(self, k, delta, segment_size):
        limit = max(k * _PERIOD + delta, 0)
        with patched_segment_size(segment_size):
            assert primes_up_to(limit) == sorted(p for p in ORACLE if p <= limit)

    @pytest.mark.parametrize("low", [3, 5, 7, 9, 11, 13])
    @pytest.mark.parametrize("segment_size", [64, 101, _PERIOD])
    def test_windows_from_each_small_low(self, low, segment_size):
        limit = 3 * _PERIOD + 3
        got = list(
            chain.from_iterable(
                (seg_low + 2 * i for i, flag in enumerate(mask) if flag)
                for seg_low, mask in _odd_segment_masks(limit, segment_size, low)
            )
        )
        assert got == [n for n in range(low, limit + 1, 2) if n in ORACLE]

    def test_iter_primes_across_windows_and_segments(self):
        expected = primes_up_to(300_000)
        for segment_size in (64, 101, _PERIOD):
            with patched_segment_size(segment_size):
                assert list(islice(iter_primes(), len(expected))) == expected


def _straddling_pairs(limit: int, segment_size: int) -> list[int]:
    """Lesser members p <= limit - 2 of twin pairs whose p is the last value
    of a segment of the sieve from 3 and p + 2 the first of the next."""
    span = 2 * segment_size
    return [p for p in range(1 + span, limit - 1, span) if p in ORACLE and p + 2 in ORACLE]


class TestTwinBoundaries:
    # A pair straddles a boundary when p = 2 * segment_size * j + 1, j >= 1;
    # never for a segment_size divisible by 3, since 3 then divides p + 2.
    @settings(max_examples=40, deadline=None)
    @given(
        segment_size=st.sampled_from([64, 65, 101, 105, 1 << 10, _PERIOD]),
        limit=st.integers(1_000, ORACLE_LIMIT),
    )
    @example(segment_size=105, limit=213)
    def test_three_twin_views_agree(self, segment_size, limit):
        with patched_segment_size(segment_size):
            pairs = twin_pairs_up_to(limit)
            arrays = [a.tolist() for a in iter_twin_lesser_arrays(limit)]
            sequence = twin_sequence_up_to(limit)
        lessers = [p.lesser for p in pairs]
        assert list(chain.from_iterable(arrays)) == lessers
        assert sequence == [v for p in lessers for v in (p, p + 2)]
        assert lessers == [p for p in range(3, limit - 1, 2) if p in ORACLE and p + 2 in ORACLE]
        for p in _straddling_pairs(limit, segment_size):
            # attributed to the segment holding p + 2
            segment = (p + 2 - 3) // (2 * segment_size)
            assert p in arrays[segment]

    @pytest.mark.parametrize("segment_size", [64, 65, 101, 1 << 10])
    def test_some_pair_straddles(self, segment_size):
        assert _straddling_pairs(ORACLE_LIMIT, segment_size)


class TestPrimeViews:
    @settings(max_examples=40, deadline=None)
    @given(segment_size=st.sampled_from([64, 65, 101, _PERIOD]), limit=st.integers(0, 20_000))
    def test_lists_and_arrays_agree_per_segment(self, segment_size, limit):
        with patched_segment_size(segment_size):
            lists = list(prime_lists(limit))
            arrays = [a.tolist() for a in iter_prime_arrays(limit)]
            flat = primes_up_to(limit)
        # [2], then one list per segment of the patched size
        assert len(lists) == (limit >= 2) + len(range(3, limit + 1, 2 * segment_size))
        assert lists == arrays
        assert list(chain.from_iterable(lists)) == flat == sorted(p for p in ORACLE if p <= limit)

    @settings(max_examples=40, deadline=None)
    @given(segment_size=st.sampled_from([64, 65, 101, 105]), limit=st.integers(0, 20_000))
    @example(segment_size=64, limit=643)  # (641, 643) straddles the fifth boundary
    def test_twin_lists_and_arrays_agree_per_segment(self, segment_size, limit):
        with patched_segment_size(segment_size):
            lists = list(twin_lesser_lists(limit))
            arrays = [a.tolist() for a in iter_twin_lesser_arrays(limit)]
            pairs = twin_pairs_up_to(limit)
        assert len(lists) == len(range(3, limit + 1, 2 * segment_size))
        assert lists == arrays
        assert list(chain.from_iterable(lists)) == [p.lesser for p in pairs]


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
