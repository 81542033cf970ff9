"""Exact sieve-based prime and twin-prime series, plus a tail-extrapolated
estimate of the twin-pair product constant.
"""

from .engine import (
    DepthGuardError,
    ReportRow,
    SeriesDefinition,
    SeriesDomainError,
    SeriesState,
    advance,
    check_residual_identity,
    check_term_recursion,
    float_rows,
    iter_states,
    report_rows,
)
from .kconst import (
    DegenerateDataError,
    ExtrapolationError,
    PartialProduct,
    ProductEstimate,
    TwinConstant,
    estimate_K,
    extrapolate_aitken,
    extrapolate_hl,
    hl_tail_correction,
    partial_product,
    twin_constant,
)
from .series import (
    EULER_GAMMA,
    BrunPartial,
    PrimorialValue,
    TotientOfPrimorial,
    brun_dominance_check,
    brun_partial,
    mertens_residual,
    mertens_rows,
    prime_definition,
    prime_series,
    primorial,
    square_free_definition,
    square_free_sum_float,
    totient_primorial,
    twin_prime_definition,
    twin_prime_series,
    twin_residual_float,
)
from .sieve import (
    CapacityError,
    TwinPair,
    iter_primes,
    nth_primes,
    nth_twin_values,
    primes_up_to,
    twin_pairs_up_to,
    twin_sequence_up_to,
)

__version__ = "0.1.0"
