"""Estimate the limit K of the product prod(1 - 1/p2_i) over the flattened
twin-pair sequence.

A finite partial product is still far from the limit (about 15% high at
1e8), so two independent extrapolations are provided:

* ``hl-tail``: analytic tail under the pair-density model 2*C2/ln^2(t),
  where C2 is the twin-pair density constant prod_{p>2}(1 - 1/(p-1)^2),
  itself computed here rather than quoted. Each pair near t contributes
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
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable

from .sieve import iter_prime_arrays, iter_twin_lesser_arrays

if TYPE_CHECKING:
    import numpy as np

PAIR_DENSITY_PRIME_LIMIT = 10**8
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


@dataclass(frozen=True)
class PartialProduct:
    """log(prod(1 - 1/v)) over twin-sequence values v with pair member <= limit."""

    limit: int
    log_value: float
    pair_count: int


@dataclass(frozen=True)
class TwinConstant:
    """Computed twin-pair density constant with its self-consistency record."""

    c2: float
    limit: int
    self_check_delta: float


@dataclass(frozen=True)
class ProductEstimate:
    method: str
    k_estimate: float
    tail_correction: float
    error_estimate: float
    c2_used: float | None = None
    assumptions: str = field(default=HL_ASSUMPTIONS)


def _log_sums(
    arrays: Iterable[np.ndarray],
    transform: Callable[[np.ndarray], np.ndarray],
    limits: list[int],
) -> list[tuple[float, int]]:
    """For each ascending limit, the sum and count of transform(v) over the
    values v <= limit of the ascending `arrays` (one sieve sweep).

    `transform` maps a float64 array elementwise to finite float64 terms.
    Each term is q * 2**(e - 53) with int64 |q| < 2**53 and np.frexp
    exponent e >= -1073, so the exact sum is a Python int in units of
    2**-1126. Runs of equal e are summed in int64 with q split into 26-bit
    halves, so no sum overflows (every caller's terms are monotone, so runs
    are few). Each sum is rounded once by true division: it equals
    math.fsum of the same terms bit for bit, whatever the segmentation.
    """
    import numpy as np

    out: list[tuple[float, int]] = []
    total = count = 0
    for arr in arrays:
        terms = transform(arr.astype(np.float64))
        if not np.isfinite(terms).all():
            raise ValueError("sieve sum term is not finite")
        cuts = np.searchsorted(arr, limits[len(out):], side="right").tolist()
        start = 0
        for stop in [cut for cut in cuts if cut < arr.size] + [arr.size]:
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
            if stop < arr.size:
                out.append((total / 2**1126, count))
    return out + [(total / 2**1126, count)] * (len(limits) - len(out))


def partial_product(limit: int) -> PartialProduct:
    """Accumulate log1p(-1/v) over both members of every twin pair with
    greater member <= limit (the repeated 5 contributes twice).

    Per-pair contributions are computed vectorised and reduced exactly
    (see _log_sums), so the result is bit-identical for any segmentation
    of the same limit. Limits below the first pair yield the empty product
    (log_value 0.0).
    """
    import numpy as np

    [(log_value, pair_count)] = _log_sums(
        iter_twin_lesser_arrays(limit),
        lambda v: np.log1p(-1.0 / v) + np.log1p(-1.0 / (v + 2.0)),
        [limit],
    )
    return PartialProduct(limit=limit, log_value=log_value, pair_count=pair_count)


def _c2_density_tail(limit: int) -> float:
    # sum_{p>limit} 1/(p-1)^2 under prime density 1/ln(t):
    # integral of 1/(t^2 ln t) ~ (1/(x ln x)) (1 - 1/ln x), error O(1/(x ln^3 x)).
    ln = math.log(limit)
    return (1.0 / (limit * ln)) * (1.0 - 1.0 / ln)


@lru_cache(maxsize=None)
def twin_constant(prime_limit: int = PAIR_DENSITY_PRIME_LIMIT) -> TwinConstant:
    """The pair-density constant prod_{p>2}(1 - 1/(p-1)^2) to >= 10 digits.

    Computed from the defining product over primes up to `prime_limit` plus a
    density-model tail bound; accepted only if the tail-corrected truncations
    at prime_limit/2 and prime_limit agree to 1e-10. They differ by more at
    least up to 3.8e6, so limits below 1e7 are rejected. Cached per limit.
    """
    if prime_limit < 10**7:
        raise ValueError(
            f"prime_limit {prime_limit} too small for a 10-digit result "
            "(need >= 10**7)"
        )
    import numpy as np

    half = prime_limit // 2
    (log_half, _), (log_full, _) = _log_sums(
        (arr[arr > 2] for arr in iter_prime_arrays(prime_limit)),
        lambda x: np.log1p(-1.0 / ((x - 1.0) ** 2)),
        [half, prime_limit],
    )
    at_half = math.exp(log_half - _c2_density_tail(half))
    at_full = math.exp(log_full - _c2_density_tail(prime_limit))
    delta = abs(at_full - at_half)
    if delta > 1e-10:
        raise ArithmeticError(
            f"pair-density constant failed self-consistency: truncations at "
            f"{half} and {prime_limit} differ by {delta:.3e}"
        )
    return TwinConstant(c2=at_full, limit=prime_limit, self_check_delta=delta)


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
    return replace(
        hl,
        error_estimate=max(hl.error_estimate, abs(hl.k_estimate - aitken.k_estimate)),
        assumptions=HL_ASSUMPTIONS + "; error covers the inter-method spread",
    )
