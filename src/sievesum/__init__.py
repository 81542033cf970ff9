"""Exact sieve-based prime and twin-prime series, plus a tail-extrapolated
estimate of the twin-pair product constant.

Each exported name is imported from its submodule on first access (PEP 562),
so `import sievesum` loads none of them, and a command loads only the
submodules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the exported names of each submodule
_EXPORTS = {
    "engine": (
        "DepthGuardError ReportRow SeriesDefinition SeriesDomainError SeriesState advance "
        "check_residual_identity check_term_recursion float_rows iter_states report_rows"
    ).split(),
    "kconst": (
        "DegenerateDataError ExtrapolationError PartialProduct ProductEstimate TwinConstant "
        "estimate_K extrapolate_aitken extrapolate_hl hl_tail_correction partial_product "
        "twin_constant"
    ).split(),
    "series": (
        "EULER_GAMMA BrunPartial PrimorialValue TotientOfPrimorial brun_dominance_check "
        "brun_partial mertens_residual mertens_rows prime_definition prime_series primorial "
        "square_free_definition square_free_sum_float totient_primorial twin_prime_definition "
        "twin_prime_series twin_residual_float"
    ).split(),
    "sieve": (
        "CapacityError TwinPair iter_primes nth_primes nth_twin_values primes_up_to "
        "twin_pairs_up_to twin_sequence_up_to"
    ).split(),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """An exported name, imported from its submodule and kept here, or one
    of those submodules itself."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNER})
