import contextlib
import decimal
import math
import os
from unittest import mock

import numpy as np
import pytest

import sievesum.sieve


def outcome(check, *args):
    """check(*args), or the type and text of the exception it raises: what
    an optimised check and the plain form it replaces must agree on."""
    try:
        return check(*args)
    except Exception as exc:
        return type(exc), str(exc)


def trial_division_primes(limit: int) -> list[int]:
    """Independent oracle: keep n iff no prime divisor <= sqrt(n) divides it.

    Pure divisibility tests (vectorised remainders), no index striding, so
    it shares no mechanics with the segmented sieve under test.
    """
    if limit < 2:
        return []
    divisors: list[int] = []
    for c in range(2, math.isqrt(limit) + 1):
        if all(c % p for p in divisors if p * p <= c):
            divisors.append(c)
    n = np.arange(2, limit + 1, dtype=np.int64)
    composite = np.zeros(n.shape, dtype=bool)
    for p in divisors:
        composite |= (n % p == 0) & (n != p)
    return n[~composite].tolist()


@pytest.fixture(scope="session")
def oracle_primes_1m() -> list[int]:
    return trial_division_primes(10**6)


@pytest.fixture
def forked(monkeypatch) -> list[int]:
    """The pids of the child processes that os.fork starts in the test."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def assert_no_child_left() -> None:
    """This process has no child process, neither running nor a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def patched_segment_size(size: int) -> contextlib.AbstractContextManager:
    """sievesum.sieve.SEGMENT_SIZE set to `size` (odd candidates per segment)
    for the body of a with statement; the sieve reads it at each call."""
    return mock.patch.object(sievesum.sieve, "SEGMENT_SIZE", size)


def _numpy_segment_masks(limit: int, segment_size: int, low: int = 3):
    """(low, mask) per segment, mask[i] True iff low + 2*i is prime, as the
    numpy sieve kernel made them before the bytearray one: every segment
    starts all True, and each odd base prime up to sqrt(limit), from an
    unsegmented sieve, strikes its odd multiples from p*p on."""
    if limit < low:
        return []
    root = math.isqrt(limit)
    flags = np.ones(root + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    base = np.flatnonzero(flags).tolist()[1:]
    out = []
    span = 2 * segment_size
    while low <= limit:
        hi = min(low + span, limit + 1)
        mask = np.ones((hi - low + 1) // 2, dtype=bool)
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
            mask[(start - low) // 2 :: p] = False
        out.append((low, mask))
        low += span
    return out


@pytest.fixture(scope="session")
def numpy_segment_masks():
    """Reference for sieve._segments of sieve._ODD, in odd values."""
    return _numpy_segment_masks


def _numpy_twin_masks(limit: int) -> np.ndarray:
    """flags[k] True iff 6k - 1 and 6k + 1 are both prime, for k = 0, 1, ...,
    (limit - 1) // 6 (False at k = 0): the twin kernel's masks, unsegmented,
    read from one unsegmented numpy sieve of every integer up to 6k + 1."""
    last = (limit - 1) // 6
    if last < 1:
        return np.zeros(max(last + 1, 0), dtype=bool)
    prime = np.ones(6 * last + 2, dtype=bool)
    prime[:2] = False
    for p in range(2, math.isqrt(6 * last + 1) + 1):
        if prime[p]:
            prime[p * p :: p] = False
    k = np.arange(1, last + 1)
    return np.concatenate([[False], prime[6 * k - 1] & prime[6 * k + 1]])


@pytest.fixture(scope="session")
def numpy_twin_masks():
    """Reference for the twin kernel, sieve._segments of sieve._TWIN."""
    return _numpy_twin_masks


def _decimal_division(x, digits: int) -> str:
    """x rounded half-even to `digits` significant digits by dividing the
    full numerator by the full denominator in `decimal`: slow for huge
    operands, but plainly correct."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = decimal.ROUND_HALF_EVEN
        return str(decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator))


@pytest.fixture(scope="session")
def decimal_division():
    """Reference for the decimal of the `brun` command."""
    return _decimal_division


def _running_fraction_states(values, a: int) -> list[tuple]:
    """(T_k, S_k, R_k) for k = 1.., by the running-sum recurrence
    T_k = R_{k-1} / F_k, S_k = S_{k-1} + T_k, R_k = R_{k-1} (F_k - a) / F_k
    in reduced Fractions: a gcd of two huge denominators per step, but
    plainly correct."""
    from fractions import Fraction

    R, S = Fraction(1), Fraction(0)
    out = []
    for f in values:
        T = R / f
        S = S + T
        R = R * Fraction(f - a, f)
        out.append((T, S, R))
    return out


@pytest.fixture(scope="session")
def running_fraction_states():
    """Reference for engine.iter_states."""
    return _running_fraction_states


def _normalising_reciprocal_sum(values):
    """sum(1/v) by binary splitting over one (1, v) leaf per value, the
    root reduced by Fraction's gcd: the sum as series._reciprocal_sum made
    it before its root came out reduced by construction."""
    from fractions import Fraction

    pairs = [(1, v) for v in values]
    if not pairs:
        return Fraction(0)
    while len(pairs) > 1:
        merged = [
            (p1 * q2 + p2 * q1, q1 * q2)
            for (p1, q1), (p2, q2) in zip(pairs[0::2], pairs[1::2])
        ]
        if len(pairs) % 2:
            merged.append(pairs[-1])
        pairs = merged
    return Fraction(*pairs[0])


@pytest.fixture(scope="session")
def normalising_reciprocal_sum():
    """Reference for series.brun_partial."""
    return _normalising_reciprocal_sum
