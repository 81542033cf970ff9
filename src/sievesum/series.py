"""Concrete series over primes: the prime, square-free and twin-prime sums,
primorial/totient helpers, reciprocal sums over the twin sequence, and the
floating companions used once exact denominators become impractical.

Brun's sum comes out as an exact integer-valued Decimal numerator and
denominator (see _reciprocal_sum), whose str() costs their length, where
str() of an int costs its square.

The exact engine is imported only by the functions that build on it, and
decimal only where it computes, so that `brun` and `mertens` run without
the engine and without fractions.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .sieve import (
    iter_prime_arrays,
    iter_primes,
    nth_primes,
    nth_twin_values,
    twin_sequence_up_to,
)

if TYPE_CHECKING:
    from decimal import Context, Decimal

    from .engine import ReportRow, SeriesDefinition

#: Euler-Mascheroni constant, the double nearest to it (numpy's euler_gamma).
EULER_GAMMA = 0.5772156649015329
# primes per window of mertens_rows; a window's ints, arrays and ratios are
# held at once (windows of 2**16 held about 6 MiB more at 1e6 terms)
_MERTENS_WINDOW = 1 << 14
# Brun's tree merges ints until its denominators reach this many bits, and
# Decimals above: int -> Decimal is quadratic, but only a few values this
# small are converted, and Decimal products are faster than int products
# from here on
_LEAF_BITS = 2048


class PrimorialValue(NamedTuple):
    n: int
    value: int


class TotientOfPrimorial(NamedTuple):
    n: int
    value: int


class BrunPartial(NamedTuple):
    limit: int
    num: Decimal
    den: Decimal
    terms: int


def primorial(n: int) -> PrimorialValue:
    """Product of the first n primes; n = 0 gives the empty product 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    value = 1
    for p in nth_primes(n) if n else []:
        value *= p
    return PrimorialValue(n, value)


def totient_primorial(n: int) -> TotientOfPrimorial:
    """prod(p_i - 1) over the first n primes, i.e. the Euler totient of the
    n-th primorial; n = 0 gives 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    value = 1
    for p in nth_primes(n) if n else []:
        value *= p - 1
    return TotientOfPrimorial(n, value)


def prime_definition() -> SeriesDefinition:
    """F_i = p_i with a = 1: term n is totient(p_{n-1}#) / p_n#."""
    from .engine import SeriesDefinition

    return SeriesDefinition(iter_primes, offset_a=1)


def square_free_definition() -> SeriesDefinition:
    """F_i = p_i^2 with a = 1: term n is the fraction of integers whose first
    squared-prime divisor is p_n^2."""
    from .engine import SeriesDefinition

    return SeriesDefinition(lambda: (p * p for p in iter_primes()), offset_a=1)


def twin_prime_definition() -> SeriesDefinition:
    """F = odd primes (3, 5, 7, ...) with a = 2: term n is the fraction of
    odd pairs (x, x+2) first hit when sieving by the n-th odd prime."""
    from .engine import SeriesDefinition

    def odd_primes() -> Iterator[int]:
        return islice(iter_primes(), 1, None)

    return SeriesDefinition(odd_primes, offset_a=2)


def prime_series(n_terms: int) -> list[ReportRow]:
    from .engine import report_rows

    return report_rows(prime_definition(), n_terms)


def twin_prime_series(n_terms: int) -> list[ReportRow]:
    from .engine import report_rows

    return report_rows(twin_prime_definition(), n_terms)


def brun_partial(limit: int) -> BrunPartial:
    """Exact sum of 1/v over the flattened twin sequence up to `limit`, as
    its numerator and denominator in lowest terms, each an exact
    integer-valued Decimal (0 and 1 for the empty sum).

    The shared member 5 contributes twice, matching the pairwise convention
    (1/3 + 1/5) + (1/5 + 1/7) + ... of the reciprocal twin sum. `terms` is
    the number of values summed.
    """
    values = twin_sequence_up_to(limit)
    return BrunPartial(limit, *_reciprocal_sum(values), len(values))


def _exact_context() -> Context:
    """Exact integer arithmetic in decimal: no operation may round, and one
    that would raises (an inexact division at this precision runs out of
    memory before it could round)."""
    import decimal

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    exact.traps[decimal.Inexact] = exact.traps[decimal.Rounded] = True
    return exact


def _reciprocal_sum(values: list[int]) -> tuple[Decimal, Decimal]:
    """sum(1/v) over ascending primes v > 2, each at most twice, as its
    reduced numerator and denominator, exact integer-valued Decimals.

    Equal neighbours merge into one leaf count/v. The leaves are merged
    pairwise up a balanced tree as unreduced fractions, held as a list of
    numerators and a list of denominators, by
    (p1*q2 + p2*q1, q1*q2) (binary splitting), so no step pays a gcd on the
    growing sum: as ints while the denominators are below _LEAF_BITS, then
    as Decimals in one exact context. The root N/D needs no final gcd
    either: D is the product of the distinct primes v, and for each of them
    N = count_v * D/v (mod v), which is nonzero since count_v <= 2 < v and
    D/v is a product of other primes. So gcd(N, D) = 1 by construction.
    """
    from decimal import Decimal, localcontext

    nums: list = []  # the counts
    dens: list = []  # the distinct values v
    for v in values:
        if dens and dens[-1] == v:
            nums[-1] += 1
        else:
            nums.append(1)
            dens.append(v)
    if not dens:
        return Decimal(0), Decimal(1)

    def merge(nums: list, dens: list) -> None:
        """One level up the tree, in place, so that the level's numerators
        are freed before its denominators are merged."""
        paired = len(dens) // 2 * 2  # an odd last leaf goes up as it is
        nums[:paired] = [
            p1 * q2 + p2 * q1
            for p1, q1, p2, q2 in zip(nums[0::2], dens[0::2], nums[1::2], dens[1::2])
        ]
        dens[:paired] = [q1 * q2 for q1, q2 in zip(dens[0::2], dens[1::2])]

    # dens[-2] is a product of as many values as any and of nearly the largest
    while len(dens) > 1 and dens[-2].bit_length() < _LEAF_BITS:
        merge(nums, dens)
    with localcontext(_exact_context()):
        nums, dens = [Decimal(n) for n in nums], [Decimal(d) for d in dens]
        while len(dens) > 1:
            merge(nums, dens)
    return nums[0], dens[0]


def brun_dominance_check(n_terms: int) -> bool:
    """True iff every term of the a=1 series over the twin sequence is
    bounded by the matching reciprocal 1/p2_k (strictly for k >= 2).

    Term k is prod_{i<k}(p2_i - 1) / (prod_{i<k} p2_i * p2_k), so the
    comparison against 1/p2_k reduces to comparing the two running integer
    products; no rational reduction is needed. It holds by construction for
    k >= 2, where the products differ by factors p2_i - 1 < p2_i.
    """
    num = 1  # prod (p2_i - 1), i < k
    den = 1  # prod p2_i, i < k
    for k, v in enumerate(nth_twin_values(n_terms), 1):
        if num > den or (k >= 2 and num == den):
            return False
        num *= v - 1
        den *= v
    return True


def mertens_rows(n_terms: int, last: bool = False) -> Iterator[tuple[int, float]]:
    """(p_n, ratio) for n = 1..n_terms, or for n = n_terms alone if `last`,
    where ratio = (1 - S_n) ln(p_n) e^gamma, as a stream: the primes are
    drawn and their rows made _MERTENS_WINDOW at a time.

    The residual 1 - S_n = prod(1 - 1/p_i) is evaluated in log space, a
    running sum carried from window to window ahead of the next window's
    terms; np.cumsum adds in order, so each sum is the float one cumsum
    over all the terms gives. The ratio tends to 1. The last ratio alone is
    the same float as the last of all of them: the same running sum, the
    same element-wise steps after it.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    import numpy as np

    def ratios(log_residual: np.ndarray, ps: np.ndarray) -> list[float]:
        return (np.exp(log_residual) * np.log(ps) * math.exp(EULER_GAMMA)).tolist()

    primes = iter_primes()
    log_residual = np.zeros(1)  # its last element is the sum before the window
    for start in range(0, n_terms, _MERTENS_WINDOW):
        window = np.fromiter(primes, np.int64, min(_MERTENS_WINDOW, n_terms - start))
        ps = window.astype(np.float64)
        log_residual = np.cumsum(np.concatenate((log_residual[-1:], np.log1p(-1.0 / ps))))[1:]
        if not last:
            yield from zip(window.tolist(), ratios(log_residual, ps))
    if last:
        yield from zip(window[-1:].tolist(), ratios(log_residual[-1:], ps[-1:]))


def mertens_residual(n_terms: int, last: bool = False) -> list[tuple[int, float]]:
    """The rows of mertens_rows as a list."""
    return list(mertens_rows(n_terms, last))


def square_free_sum_float(limit: int) -> float:
    """Floating S^SF using all primes <= limit: 1 - prod(1 - 1/p^2)."""
    import numpy as np

    from .kconst import _log_sums

    [(log_r, _)] = _log_sums(
        iter_prime_arrays(limit),
        lambda x: np.log1p(-1.0 / (x * x)),
        [limit],
    )
    return 1.0 - math.exp(log_r)


def twin_residual_float(limit: int) -> float:
    """Floating 1/2 - S^TP using odd primes <= limit: (1/2) prod(1 - 2/p)."""
    import numpy as np

    from .kconst import _log_sums

    [(log_r, _)] = _log_sums(
        (arr[arr > 2] for arr in iter_prime_arrays(limit)),
        lambda x: np.log1p(-2.0 / x),
        [limit],
    )
    return 0.5 * math.exp(log_r)
