"""Estimate the limit K of the product prod(1 - 1/p2_i) over the flattened
twin-pair sequence.

A finite partial product is still far from the limit (about 15% high at
1e8), so two independent extrapolations are provided:

* ``hl-tail``: analytic tail under the pair-density model 2*C2/ln^2(t),
  where C2 is the twin-pair density constant prod_{p>2}(1 - 1/(p-1)^2),
  itself computed here rather than quoted: the product over the primes up
  to a small cut-off times a tail from the prime zeta function, with zeta
  summed by Borwein's convergent series for eta (see _zeta), at two
  cut-offs that must agree (see twin_constant). Each pair near t contributes
  about -2/t to the log product, so the missing tail integrates to
  -4*C2/ln(x) (plus a second-order 1/v^2 correction).
* ``aitken``: iterated pairwise linear extrapolation of the log partial
  products against h = 1/ln(limit), which assumes nothing about pair
  density and serves as the cross-check.

Estimates are conditional on the sieved data plus the density model and
carry an explicit error estimate; they are not proof-grade bounds.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from . import sieve
from .sieve import _TWIN, _arrays, _Child, _spare_cpus, iter_twin_lesser_arrays, primes_up_to

if TYPE_CHECKING:
    from decimal import Decimal

    import numpy as np

_C2_CUTOFFS = (64, 128)  # prime cut-offs of the two C2 computations
_C2_DIGITS = 50
_ZETA_TERMS = math.ceil((_C2_DIGITS + 6) / math.log10(3 + math.sqrt(8)))  # of Borwein's series
_LOG_BLOCK = 1 << 13  # values per block of _exact_log_sums
_UNITS = 2**1126  # an exact log sum counts units of 1 / _UNITS
# pairs (6k - 1, 6k + 1) from which a twin sweep is split between two processes
_SPLIT_MIN_CANDIDATES = 1 << 22
HL_ASSUMPTIONS = (
    "conditional on sieved twin pairs up to the stated limit plus the "
    "2*C2/ln^2(t) pair-density tail model; error estimate is heuristic"
)
AITKEN_ASSUMPTIONS = (
    "conditional on sieved twin pairs up to the stated limits; assumes the "
    "log partial product is asymptotically linear in 1/ln(limit)"
)


class ExtrapolationError(ValueError):
    """The partial product cannot support the requested extrapolation."""


class DegenerateDataError(ExtrapolationError):
    """Differences underlying the extrapolation vanish (e.g. repeated limits)."""


class PartialProduct(NamedTuple):
    """log(prod(1 - 1/v)) over twin-sequence values v with pair member <= limit."""

    limit: int
    log_value: float
    pair_count: int


class TwinConstant(NamedTuple):
    """Computed twin-pair density constant with its self-consistency record."""

    c2: float
    limit: int  # the largest prime cut-off of the explicit product
    self_check_delta: float  # |C2 at the largest cut-off - C2 at the smallest|


class ProductEstimate(NamedTuple):
    method: str
    k_estimate: float
    tail_correction: float
    error_estimate: float
    c2_used: float | None = None
    assumptions: str = HL_ASSUMPTIONS


def _log_sums(
    arrays: Iterable[np.ndarray],
    transform: Callable[[np.ndarray], np.ndarray],
    limits: list[int],
) -> list[tuple[float, int]]:
    """For each ascending limit, the sum and count of transform(v) over the
    values v <= limit of the ascending `arrays` (one sieve sweep): the exact
    sums of _exact_log_sums, each rounded once by true division, so that it
    equals math.fsum of the same terms bit for bit, whatever the
    segmentation."""
    return [(total / _UNITS, count) for total, count in _exact_log_sums(arrays, transform, limits)]


def _exact_log_sums(
    arrays: Iterable[np.ndarray],
    transform: Callable[[np.ndarray], np.ndarray],
    limits: list[int],
) -> list[tuple[int, int]]:
    """_log_sums with each sum exact: an int in units of 1 / _UNITS.

    The values are taken in blocks of _LOG_BLOCK, so that every float and
    int temporary has the size of a block, not of an array. `transform`
    maps a float64 array elementwise to finite float64 terms. Each term is
    q * 2**(e - 53) with int64 |q| < 2**53 and np.frexp exponent
    e >= -1073, so it is an integer number of units of 2**-1126. Runs of
    equal e are summed in int64 with q split into 26-bit halves, so no sum
    overflows (every caller's terms are monotone, so runs are few). Exact
    sums of disjoint runs of values add up to the exact sum of all of them.
    """
    import numpy as np

    out: list[tuple[int, int]] = []
    total = count = 0
    blocks = (arr[i : i + _LOG_BLOCK] for arr in arrays for i in range(0, arr.size, _LOG_BLOCK))
    for block in blocks:
        terms = transform(block.astype(np.float64))
        if not np.isfinite(terms).all():
            raise ValueError("sieve sum term is not finite")
        cuts = np.searchsorted(block, limits[len(out):], side="right").tolist()
        start = 0
        for stop in [cut for cut in cuts if cut < block.size] + [block.size]:
            if stop > start:
                mantissas, exps = np.frexp(terms[start:stop])
                q = (mantissas * 2.0**53).astype(np.int64)
                runs = np.flatnonzero(np.diff(exps, prepend=exps[0] - 1))
                his = np.add.reduceat(q >> 26, runs).tolist()
                los = np.add.reduceat(q & (2**26 - 1), runs).tolist()
                for hi, lo, e in zip(his, los, exps[runs].tolist()):
                    total += ((hi << 26) + lo) << (e + 1073)
                count += stop - start
                start = stop
            if stop < block.size:
                out.append((total, count))
    return out + [(total, count)] * (len(limits) - len(out))


def partial_product(limit: int) -> PartialProduct:
    """Accumulate log1p(-1/v) over both members of every twin pair with
    greater member <= limit (the repeated 5 contributes twice).

    Per-pair contributions are computed vectorised and reduced exactly
    (see _exact_log_sums), so the result is bit-identical for any
    segmentation of the same limit. Limits below the first pair yield the
    empty product (log_value 0.0). From _SPLIT_MIN_CANDIDATES pairs
    (6k - 1, 6k + 1) on, where a CPU is spare (see sieve._spare_cpus), the
    sweep is split at the segment edge nearest its middle, and its halves
    are summed at once (see _split_sums); their exact sums add up to that
    of the whole, which is rounded once.
    """
    last = (limit - 1) // 6  # the last k with 6k + 1 <= limit
    if last < _SPLIT_MIN_CANDIDATES or _spare_cpus() < 1:
        [(total, pair_count)] = _exact_log_sums(
            iter_twin_lesser_arrays(limit), _pair_log_terms, [limit]
        )
    else:
        size = sieve.SEGMENT_SIZE
        total, pair_count = _split_sums(limit, 1 + (last + size) // (2 * size) * size)
    return PartialProduct(limit=limit, log_value=total / _UNITS, pair_count=pair_count)


def _pair_log_terms(v: np.ndarray) -> np.ndarray:
    """log1p(-1/v) + log1p(-1/(v + 2)): a twin pair's term, from its lesser member."""
    import numpy as np

    return np.log1p(-1.0 / v) + np.log1p(-1.0 / (v + 2.0))


def _split_sums(limit: int, mid: int) -> tuple[int, int]:
    """The exact sum and count of the _pair_log_terms of the twin pairs up
    to `limit`, in two sweeps run at once: the pairs (6k - 1, 6k + 1) with
    k >= `mid` in a forked child (see sieve._Child), the others here. (3, 5)
    is the child's only if `mid` is 1, as _arrays takes it."""
    upper = _arrays(_TWIN, mid, limit)  # which checks limit before the fork
    child = _Child(lambda _: _exact_log_sums(upper, _pair_log_terms, [limit])[0])
    try:
        child.send(None)
        lower = iter_twin_lesser_arrays(6 * (mid - 1) + 1)  # the pairs with k < mid
        [(total, count)] = _exact_log_sums(lower, _pair_log_terms, [limit])
        upper_total, upper_count = child.receive()
        return total + upper_total, count + upper_count
    finally:
        child.stop()


def _mobius(n: int) -> int:
    """The Moebius function of n >= 1."""
    mu = 1
    for p in range(2, n + 1):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
    return mu


@lru_cache(maxsize=None)
def _zeta(s: int) -> Decimal:
    """zeta(s) = eta(s) / (1 - 2^(1-s)) for an integer s >= 2, to about
    _C2_DIGITS + 5 digits, with eta(s) = sum_{k>=0} (-1)^k (k+1)^-s summed
    by Borwein's alternating series (P. Borwein, CMS Conf. Proc. 27, 2000,
    algorithm 2): sum_{k<n} (-1)^k (1 - d_k/d_n) (k+1)^-s, whose error is
    below 3/(3+sqrt 8)^n, under 10^-(_C2_DIGITS + 6) at n = _ZETA_TERMS.
    Cached, so that both C2 cut-offs share it."""
    import decimal

    d = _borwein_weights(_ZETA_TERMS)
    with decimal.localcontext() as ctx:
        ctx.prec = _C2_DIGITS + 5
        eta = sum(decimal.Decimal((-1) ** k * (d[-1] - d[k])) / (k + 1) ** s
                  for k in range(_ZETA_TERMS)) / d[-1]
        return eta * 2 ** (s - 1) / (2 ** (s - 1) - 1)


def _borwein_weights(n: int) -> list[int]:
    """The integers d_k = sum_{i<=k} n (n+i-1)! 4^i / ((n-i)! (2i)!) of
    Borwein's series of n terms, k = 0..n. Each summand is an integer, the
    one before it times 4 (n+i-1)(n-i+1) / ((2i-1) 2i): an exact division."""
    weights, term = [1], 1
    for i in range(1, n + 1):
        term = term * 4 * (n + i - 1) * (n - i + 1) // ((2 * i - 1) * 2 * i)
        weights.append(weights[-1] + term)
    return weights


def _c2_at(cutoff: int, primes: list[int]) -> Decimal:
    """C2 to about _C2_DIGITS digits from the product over the primes
    2 < p <= cutoff (`primes` are all the primes up to cutoff) and the
    prime zeta tail of the rest.

    For p > 2, log(1 - 1/(p-1)^2) = log(1 - 2/p) - 2 log(1 - 1/p)
    = -sum_{k>=2} (2^k - 2)/k * p^-k, so the primes above the cut-off N add
    -sum_k (2^k - 2)/k * P_N(k), with P_N(k) = sum_{p>N} p^-k
    = sum_{n>=1} mu(n)/n * log zeta_N(nk), where zeta_N is zeta without its
    Euler factors for p <= N. Since 0 < log zeta_N(s) <= N^(1-s), a term
    is kept while 2^k * N^(1-nk) >= 10^-_C2_DIGITS.
    """
    import decimal

    num = math.prod(p * (p - 2) for p in primes[1:])
    den = math.prod((p - 1) ** 2 for p in primes[1:])
    scale = 10**_C2_DIGITS
    with decimal.localcontext() as ctx:
        ctx.prec = _C2_DIGITS + 5
        log_zeta: dict[int, decimal.Decimal] = {}
        tail = decimal.Decimal(0)
        k = 2
        while 2**k * scale >= cutoff ** (k - 1):
            prime_zeta = decimal.Decimal(0)
            n = 1
            while 2**k * scale >= cutoff ** (n * k - 1):
                mu, s = _mobius(n), n * k
                if mu:
                    if s not in log_zeta:
                        zeta = _zeta(s)
                        for p in primes:
                            zeta *= 1 - decimal.Decimal(p) ** -s
                        log_zeta[s] = zeta.ln()
                    prime_zeta += mu * log_zeta[s] / n
                n += 1
            tail += (2**k - 2) * prime_zeta / k
            k += 1
        return decimal.Decimal(num) / den * (-tail).exp()


@lru_cache(maxsize=None)
def twin_constant() -> TwinConstant:
    """The pair-density constant C2 = prod_{p>2}(1 - 1/(p-1)^2) as a double.

    Computed as in Wrench (Math. Comp. 15, 1961) and Cohen ("High precision
    computation of Hardy-Littlewood constants", 1998): the product over the
    primes up to a cut-off, from one short sieve sweep, and the prime zeta
    tail of the rest (see _c2_at), in `decimal` at about 50 digits, with
    zeta from Borwein's alternating series (see _zeta). Each cut-off agrees
    with mpmath.twinprime to within 1.7e-46 (64) and 9.9e-48 (128).
    Accepted only if the cut-offs 64 and 128 give values within 1e-15 of
    each other, else ArithmeticError; `limit` is the largest cut-off.
    Cached.
    """
    primes = primes_up_to(_C2_CUTOFFS[-1])
    values = [_c2_at(n, [p for p in primes if p <= n]) for n in _C2_CUTOFFS]
    delta = float(abs(values[-1] - values[0]))
    if delta > 1e-15:
        raise ArithmeticError(
            f"pair-density constant failed self-consistency: cut-offs "
            f"{_C2_CUTOFFS[0]} and {_C2_CUTOFFS[-1]} differ by {delta:.3e}"
        )
    return TwinConstant(c2=float(values[-1]), limit=_C2_CUTOFFS[-1], self_check_delta=delta)


def hl_tail_correction(limit: int, c2: float) -> float:
    """Log-space tail below 1/ln(limit) under the 2*C2/ln^2(t) pair density.

    Leading term: each pair near t adds ~ -2/t to the log, so the tail is
    -integral_x^inf 4*C2/(t ln^2 t) dt = -4*C2/ln(x). The second-order term
    is -(1/2) sum_{v>x} 1/v^2 under the same density, ~ -2*C2/(x ln^2 x).
    """
    ln = math.log(limit)
    return -4.0 * c2 / ln - 2.0 * c2 / (limit * ln * ln)


def extrapolate_hl(pp: PartialProduct) -> ProductEstimate:
    """Tail-correct a single partial product using the pair-density model
    with the computed twin_constant()."""
    if pp.limit < 10**4:
        raise ExtrapolationError(
            f"limit {pp.limit} too small for the density tail model (need >= 1e4)"
        )
    c2 = twin_constant().c2
    tail = hl_tail_correction(pp.limit, c2)
    k = math.exp(pp.log_value + tail)
    ln = math.log(pp.limit)
    # first neglected tail order is ~ 1/ln(x) relative to the leading term
    error = abs(tail) / ln * k
    return ProductEstimate(
        method="hl-tail",
        k_estimate=k,
        tail_correction=tail,
        error_estimate=error,
        c2_used=c2,
        assumptions=HL_ASSUMPTIONS,
    )


def extrapolate_aitken(partials: list[PartialProduct]) -> ProductEstimate:
    """Accelerate partial products from increasing limits (geometric spacing
    such as 1e6/1e7/1e8 works well) without any density input.

    The log partials are extrapolated to h = 0 in the variable
    h = 1/ln(limit) by iterated pairwise linear elimination; the estimate
    comes from the latest pair and the spread of the pairwise extrapolants
    supplies the error estimate.
    """
    if len(partials) < 3:
        raise ValueError("need at least 3 partial products")
    pps = sorted(partials, key=lambda p: p.limit)
    hs = [1.0 / math.log(p.limit) for p in pps]
    ys = [p.log_value for p in pps]
    h_scale = max(hs)
    estimates: list[float] = []
    for j in range(len(pps) - 1):
        dh = hs[j + 1] - hs[j]
        if abs(dh) < 1e-12 * h_scale:
            raise DegenerateDataError(
                f"limits {pps[j].limit} and {pps[j + 1].limit} give a "
                f"near-zero difference in 1/ln(limit) ({dh:.3e}); "
                "extrapolation is ill-conditioned"
            )
        slope = (ys[j + 1] - ys[j]) / dh
        estimates.append(math.exp(ys[j + 1] - slope * hs[j + 1]))
    k = estimates[-1]
    spread = max(
        abs(b - a) for a, b in zip(estimates, estimates[1:])
    )
    error = max(spread, 4.0 * math.ulp(k))
    return ProductEstimate(
        method="aitken",
        k_estimate=k,
        tail_correction=math.log(k) - ys[-1],
        error_estimate=error,
        c2_used=None,
        assumptions=AITKEN_ASSUMPTIONS,
    )


def estimate_K(limit: int, method: str = "both") -> ProductEstimate:
    """Dispatch to one or both estimators at the given sieve limit.

    ``aitken`` uses partial products at limit/100, limit/10 and limit.
    ``both`` runs both and returns the hl-tail estimate with its error
    inflated to cover the spread between the two methods.
    """
    if method not in ("hl-tail", "aitken", "both"):
        raise ValueError(f"unknown method {method!r}")
    if method == "hl-tail":
        return extrapolate_hl(partial_product(limit))
    if limit < 10**6:
        raise ExtrapolationError(
            f"limit {limit} too small for aitken sub-limits (need >= 1e6)"
        )
    partials = [
        partial_product(limit // 100),
        partial_product(limit // 10),
        partial_product(limit),
    ]
    aitken = extrapolate_aitken(partials)
    if method == "aitken":
        return aitken
    hl = extrapolate_hl(partials[-1])
    return hl._replace(
        error_estimate=max(hl.error_estimate, abs(hl.k_estimate - aitken.k_estimate)),
        assumptions=HL_ASSUMPTIONS + "; error covers the inter-method spread",
    )
