import math

import pytest

from sievesum.sieve import (
    CapacityError,
    SieveConfig,
    iter_primes,
    nth_primes,
    nth_twin_values,
    primes_up_to,
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
            assert primes_up_to(10**5, segment_size) == reference


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

        assert list(islice(iter_primes(), 10000)) == nth_primes(10000)


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
            assert twin_pairs_up_to(10**4, segment_size) == reference


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


class TestSieveConfig:
    def test_rejects_small_segment(self):
        with pytest.raises(ValueError):
            SieveConfig(100, segment_size=63)

    def test_rejects_negative_limit(self):
        with pytest.raises(ValueError):
            SieveConfig(-1)

    def test_rejects_limit_beyond_carrier(self):
        with pytest.raises(CapacityError):
            SieveConfig(2**63)

    def test_accepts_carrier_cap(self):
        SieveConfig(2**63 - 1)

