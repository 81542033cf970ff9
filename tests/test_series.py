import math
from decimal import Decimal
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievesum.series
from sievesum.engine import report_rows
from sievesum.series import (
    EULER_GAMMA,
    _reciprocal_sum,
    brun_dominance_check,
    brun_partial,
    mertens_residual,
    prime_series,
    primorial,
    square_free_definition,
    square_free_sum_float,
    totient_primorial,
    twin_prime_series,
    twin_residual_float,
)
from sievesum.sieve import nth_primes, nth_twin_values, primes_up_to, twin_sequence_up_to

PRIMES_15 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def euler_phi(m: int) -> int:
    """Direct totient via trial-division factorisation."""
    result = m
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


class TestPrimorial:
    def test_values(self):
        assert primorial(3).value == 30
        assert primorial(1).value == 2
        assert primorial(5).value == 2310
        assert primorial(0).value == 1

    def test_each_prime_divides_exactly_once(self):
        value = primorial(10).value
        for p in nth_primes(10):
            assert value % p == 0
            assert (value // p) % p != 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            primorial(-1)


class TestTotientPrimorial:
    def test_values(self):
        assert totient_primorial(2).value == 2
        assert totient_primorial(1).value == 1
        assert totient_primorial(4).value == 48

    def test_matches_direct_totient_up_to_15(self):
        for n in range(1, 16):
            assert totient_primorial(n).value == euler_phi(primorial(n).value)


class TestPrimeSeries:
    def test_first_terms_match_displayed_fractions(self):
        rows = prime_series(4)
        assert [r.T for r in rows] == [
            Fraction(1, 2),
            Fraction(1, 6),
            Fraction(2, 30),
            Fraction(8, 210),
        ]

    def test_partial_sum_after_two_terms(self):
        assert prime_series(2)[-1].S == Fraction(2, 3)

    def test_residual_after_four_terms_is_product(self):
        rows = prime_series(4)
        assert 1 - rows[-1].S == (
            Fraction(1, 2) * Fraction(2, 3) * Fraction(4, 5) * Fraction(6, 7)
        )
        assert 1 - rows[-1].S == Fraction(8, 35)

    def test_terms_are_totient_over_primorial(self):
        rows = prime_series(50)
        for n, row in enumerate(rows, 1):
            expected = Fraction(totient_primorial(n - 1).value, primorial(n).value)
            assert row.T == expected

    def test_residual_product_identity_to_200(self):
        rows = prime_series(200)
        product = Fraction(1)
        for p, row in zip(nth_primes(200), rows):
            product *= Fraction(p - 1, p)
            assert 1 - row.S == product

    def test_term_recursion_to_200(self):
        rows = prime_series(200)
        for p, row in zip(nth_primes(200), rows):
            assert row.T == (1 - row.S) / (p - 1)

    def test_partial_sums_count_sieved_integers(self):
        # S_k * pk# equals the count of x in [2, pk#+1] hit by the first k primes
        rows = prime_series(6)
        expected_counts = [1, 4, 22, 162, 1830, 24270]
        for k, row in enumerate(rows, 1):
            pk = primorial(k).value
            count = row.S * pk
            assert count.denominator == 1
            assert count.numerator == expected_counts[k - 1]
            if k <= 5:
                brute = sum(
                    1
                    for x in range(2, pk + 2)
                    if any(x % p == 0 for p in nth_primes(k))
                )
                assert count.numerator == brute


class TestSquareFreeSeries:
    def test_first_term_counts_multiples_of_four(self):
        assert report_rows(square_free_definition(), 1)[0].T == Fraction(1, 4)
        brute = sum(1 for x in range(1, 5) if x % 4 == 0)
        assert report_rows(square_free_definition(), 1)[0].T == Fraction(brute, 4)

    def test_second_term_counts_nine_not_four(self):
        rows = report_rows(square_free_definition(), 2)
        brute = sum(1 for x in range(1, 37) if x % 9 == 0 and x % 4 != 0)
        assert brute == 3
        assert rows[1].T == Fraction(3, 36)

    def test_residual_after_two_terms(self):
        rows = report_rows(square_free_definition(), 2)
        assert 1 - rows[-1].S == (1 - Fraction(1, 4)) * (1 - Fraction(1, 9))
        assert 1 - rows[-1].S == Fraction(2, 3)

    def test_residual_product_identity_to_100(self):
        rows = report_rows(square_free_definition(), 100)
        product = Fraction(1)
        for p, row in zip(nth_primes(100), rows):
            product *= Fraction(p * p - 1, p * p)
            assert 1 - row.S == product

    def test_float_sum_approaches_square_free_density_gap(self):
        target = 1 - 6 / math.pi**2
        closer = abs(square_free_sum_float(10**5) - target)
        farther = abs(square_free_sum_float(10**3) - target)
        assert closer < farther < 1e-3

    def test_float_sum_equals_fsum_reference(self):
        primes = np.array(primes_up_to(10**5), dtype=np.float64)
        log_r = math.fsum(np.log1p(-1.0 / (primes * primes)).tolist())
        assert square_free_sum_float(10**5) == 1.0 - math.exp(log_r)


class TestTwinPrimeSeries:
    def test_first_terms_match_displayed_fractions(self):
        rows = twin_prime_series(4)
        assert [r.T for r in rows] == [
            Fraction(1, 3),
            Fraction(1, 15),
            Fraction(3, 105),
            Fraction(15, 1155),
        ]

    def test_residual_after_first_term(self):
        rows = twin_prime_series(1)
        assert Fraction(1, 2) - rows[0].S == Fraction(1, 2) * Fraction(1, 3)

    def test_fourth_partial_sum_and_residual_product(self):
        rows = twin_prime_series(4)
        term_sum = (
            Fraction(1, 3) + Fraction(1, 15) + Fraction(3, 105) + Fraction(15, 1155)
        )
        assert rows[-1].S == term_sum == Fraction(34, 77)
        product = (
            Fraction(1, 2)
            * Fraction(1, 3)
            * Fraction(3, 5)
            * Fraction(5, 7)
            * Fraction(9, 11)
        )
        assert product == Fraction(9, 154)
        assert Fraction(1, 2) - rows[-1].S == product

    def test_residual_product_identity_to_200(self):
        rows = twin_prime_series(200)
        product = Fraction(1, 2)
        for p, row in zip(nth_primes(201)[1:], rows):
            product *= Fraction(p - 2, p)
            assert Fraction(1, 2) - row.S == product

    def test_float_residual_small_at_1e5(self):
        assert twin_residual_float(10**5) < 0.02

    def test_float_residual_equals_fsum_reference(self):
        odd_primes = np.array(primes_up_to(10**5)[1:], dtype=np.float64)
        log_r = math.fsum(np.log1p(-2.0 / odd_primes).tolist())
        assert twin_residual_float(10**5) == 0.5 * math.exp(log_r)

    def test_removed_pair_census_matches_terms(self):
        """Census of odd pairs (x, x+2) per period: surviving every prime
        below p_n and hit by p_n. Matches T_n exactly. The single-member
        predicate gcd(x, p_n#) = p_n with both neighbours coprime does NOT
        (counts 1, 0, 0): both tallies are asserted here so the discrepancy
        stays on record.
        """
        rows = twin_prime_series(3)
        primes = nth_primes(4)  # 2, 3, 5, 7
        literal_counts = []
        pair_counts = []
        for n in range(2, 5):
            p_n = primes[n - 1]
            period = 1
            for p in primes[:n]:
                period *= p
            prev_period = period // p_n
            literal_counts.append(
                sum(
                    1
                    for x in range(1, period + 1)
                    if gcd(x, period) == p_n
                    and gcd(x - 2, period) == 1
                    and gcd(x + 2, period) == 1
                )
            )
            pairs = sum(
                1
                for x in range(1, period + 1)
                if gcd(x * (x + 2), prev_period) == 1
                and (gcd(x, period) == p_n or gcd(x + 2, period) == p_n)
            )
            pair_counts.append(pairs)
            assert rows[n - 2].T == Fraction(pairs, period)
        assert pair_counts == [2, 2, 6]
        assert literal_counts == [1, 0, 0]


class TestBrunPartial:
    @staticmethod
    def value(limit):
        result = brun_partial(limit)
        return Fraction(int(result.num), int(result.den))

    def test_limit_7_repeats_one_fifth(self):
        expected = Fraction(1, 3) + Fraction(1, 5) + Fraction(1, 5) + Fraction(1, 7)
        assert self.value(7) == expected == Fraction(92, 105)

    def test_limit_4_is_zero(self):
        result = brun_partial(4)
        assert (result.num, result.den, result.terms) == (0, 1, 0)
        assert self.value(4) == 0

    def test_limit_20(self):
        expected = sum((Fraction(1, v) for v in [3, 5, 5, 7, 11, 13, 17, 19]), Fraction(0))
        assert self.value(20) == expected

    def test_nondecreasing_in_limit(self):
        limits = [0, 4, 5, 7, 12, 20, 100, 1000, 10**4]
        sums = [self.value(limit) for limit in limits]
        for a, b in zip(sums, sums[1:]):
            assert a <= b

    def test_five_contributes_twice(self):
        assert self.value(7) - self.value(5) == Fraction(1, 5) + Fraction(1, 7)

    @staticmethod
    def naive(limit):
        values = twin_sequence_up_to(limit)
        total = Fraction(0)
        for v in values:
            total += Fraction(1, v)
        return total, len(values)

    @settings(max_examples=100, deadline=None)
    @given(limit=st.integers(0, 3000))
    def test_matches_naive_loop(self, limit):
        assert (self.value(limit), brun_partial(limit).terms) == self.naive(limit)

    def test_matches_naive_loop_at_1e5(self):
        assert (self.value(10**5), brun_partial(10**5).terms) == self.naive(10**5)

    @staticmethod
    def assert_reduced_as_reference(limit, reference):
        result = brun_partial(limit)
        expected = reference(twin_sequence_up_to(limit))
        num, den = int(result.num), int(result.den)
        assert (num, den) == (expected.numerator, expected.denominator)
        assert gcd(num, den) == 1

    @settings(max_examples=100, deadline=None)
    @given(limit=st.integers(0, 3000))
    def test_root_is_reduced_as_reference(self, normalising_reciprocal_sum, limit):
        self.assert_reduced_as_reference(limit, normalising_reciprocal_sum)

    @pytest.mark.parametrize("limit", [5, 7, 10**5, 10**6])
    def test_root_is_reduced_as_reference_at(self, normalising_reciprocal_sum, limit):
        self.assert_reduced_as_reference(limit, normalising_reciprocal_sum)

    @pytest.mark.parametrize("limit", [7, 100, 10**5])
    def test_only_five_repeats(self, limit):
        # the leaf merge meets one repeated value: 5, shared by (3, 5) and (5, 7)
        values = twin_sequence_up_to(limit)
        assert [v for v, w in zip(values, values[1:]) if v == w] == [5]
        assert values == sorted(values)

    def test_repeated_value_merges_into_one_leaf(self):
        # one leaf per value would leave the root 460/525, gcd 5
        for values, expected in [([3, 5, 5, 7], ("92", "105")), ([5, 5], ("2", "5"))]:
            assert tuple(map(str, _reciprocal_sum(values))) == expected

    @pytest.mark.parametrize("leaf_bits", [0, 64, 2048, 10**9])
    def test_the_sum_does_not_depend_on_where_decimal_takes_over(
        self, monkeypatch, normalising_reciprocal_sum, leaf_bits
    ):
        # 0: Decimal leaves; 10**9: an int tree converted at its root
        monkeypatch.setattr(sievesum.series, "_LEAF_BITS", leaf_bits)
        values = twin_sequence_up_to(3 * 10**4)
        for n in (1, 2, 3, 4, 5, 255, 256, 257, len(values)):
            total = _reciprocal_sum(values[:n])
            assert all(type(x) is Decimal and x.as_tuple().exponent == 0 for x in total)
            expected = normalising_reciprocal_sum(values[:n])
            assert tuple(map(str, total)) == (str(expected.numerator), str(expected.denominator))


class TestBrunDominance:
    def test_first_term_is_equality(self):
        values = nth_twin_values(2)
        assert values[0] == 3  # empty product prefactor makes T_1 = 1/3 exactly

    def test_second_term_strictly_below(self):
        # T_2 = (2/3) * (1/5) = 2/15 < 1/5
        seq = twin_sequence_up_to(10)
        term = Fraction(seq[0] - 1, seq[0]) / seq[1]
        assert term == Fraction(2, 15) < Fraction(1, 5)

    def test_first_100_terms(self):
        assert brun_dominance_check(100)

    def test_exact_fraction_sweep(self):
        values = nth_twin_values(100)
        product = Fraction(1)
        for k, v in enumerate(values, 1):
            term = product / v
            if k == 1:
                assert term == Fraction(1, v)
            else:
                assert term < Fraction(1, v)
            product *= Fraction(v - 1, v)


class TestMertensResidual:
    def test_gamma_constant(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        assert EULER_GAMMA == 0.5772156649015329
        assert EULER_GAMMA == float(mpmath.euler)

    def test_first_ratio(self):
        rows = mertens_residual(1)
        expected = 0.5 * math.log(2) * math.exp(EULER_GAMMA)
        assert rows[0][0] == 2
        assert rows[0][1] == pytest.approx(expected, rel=1e-12)
        assert rows[0][1] == pytest.approx(0.6172, abs=2e-4)

    def test_ratio_tends_to_one(self):
        rows = mertens_residual(1000)
        assert rows[-1][0] == 7919
        assert 0.97 < rows[-1][1] < 1.03
        # drift shrinks with n
        assert abs(rows[-1][1] - 1) < abs(rows[99][1] - 1) < abs(rows[9][1] - 1)

    def test_primes_are_the_nth_primes_ints(self):
        rows = mertens_residual(1000)
        assert [p for p, _ in rows] == nth_primes(1000)
        assert all(type(p) is int for p, _ in rows)

    def test_rejects_zero_terms(self):
        with pytest.raises(ValueError):
            mertens_residual(0)
        with pytest.raises(ValueError):
            mertens_residual(0, last=True)

    @pytest.mark.parametrize("window", [1, 3, 4099, 1 << 16])
    def test_windows_do_not_change_a_bit(self, monkeypatch, window):
        # the reference: one cumsum over all the terms
        n = 10_000
        primes = nth_primes(n)
        ps = np.array(primes, dtype=np.float64)
        log_residual = np.cumsum(np.log1p(-1.0 / ps))
        ratios = np.exp(log_residual) * np.log(ps) * math.exp(EULER_GAMMA)
        rows = list(zip(primes, ratios.tolist()))
        monkeypatch.setattr(sievesum.series, "_MERTENS_WINDOW", window)
        assert mertens_residual(n) == rows
        assert mertens_residual(n, last=True) == rows[-1:]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20_000))
    def test_last_is_the_last_row_to_the_bit(self, n):
        assert mertens_residual(n, last=True) == mertens_residual(n)[-1:]
