"""The identity checks of `verify`, on exact states as the engine yields
them: the engine's residual and recursion checks and an integer sum that
does not come from R, the totient-primorial identity of the prime series
and the dominance bound of the twin series, and a suite of random series.
Only `verify` imports this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator

from .engine import _one_minus_a_times, _recursion_holds, _residual_holds

if TYPE_CHECKING:
    from .engine import SeriesDefinition, SeriesState


def _totient_holds(previous: SeriesState | None, state: SeriesState) -> bool:
    """T_k == prod_{i<k} (p_i - 1) / prod_{i<=k} p_i, by induction:
    T_1 == 1/p_1 and T_k p_k == T_{k-1} (p_{k-1} - 1). Each product of a
    reduced n/d and an int f is reduced by gcd(f, d), which is small, and
    the reduced forms are compared."""
    if previous is None:
        return state.T_k == Fraction(1, state.F_k)
    t, f = state.T_k, state.F_k
    t_prev, f_prev = previous.T_k, previous.F_k - 1
    g, g_prev = math.gcd(f, t.denominator), math.gcd(f_prev, t_prev.denominator)
    return (t.denominator // g == t_prev.denominator // g_prev
            and t.numerator * (f // g) == t_prev.numerator * (f_prev // g_prev))


def _dominance_holds(previous: SeriesState | None, state: SeriesState) -> bool:
    """T_k F_k <= 1, and < 1 for k >= 2: the term is bounded by 1/F_k.

    T_k F_k = R_{k-1}, a product of k - 1 factors 1 - a/F_i, each in (0, 1),
    so this holds by construction for k >= 2 and catches tampered states.
    Cross-multiplied, as T_k's numerator times F_k against its positive
    denominator, so that no product is reduced.
    """
    bound, one = state.T_k.numerator * state.F_k, state.T_k.denominator
    return bound < one if state.k >= 2 else bound <= one


def _check_states(states: Iterable[SeriesState], extra: tuple = (), **context) -> dict | None:
    """The failure report, with `context`, for the first state that breaks
    an identity; None if all hold. Only the previous state is kept. Each
    state is checked for, in order:

    - residual: check_residual_identity, and an unreduced integer sum that
      does not come from R. With N_k = prod(F_i - a), D_k = prod F_i and
      Sh_k = Sh_{k-1} F_k + N_{k-1}, S_k = Sh_k / D_k; a Sh_k == D_k - N_k
      is checked at every k, and S_k == Sh_k / D_k, cross-multiplied, at
      every power of two k and, after the last state, at the last one;
    - recursion: check_term_recursion;
    - each (identity, check) of `extra`: check(previous state or None, state).

    1 - a S_k, which both engine checks read, is computed once per state.
    """
    s_hat, n_prod, d_prod = 0, 1, 1
    previous = None
    for state in states:
        k, f, a, s = state.k, state.F_k, state.a, state.S_k
        s_hat, n_prod, d_prod = s_hat * f + n_prod, n_prod * (f - a), d_prod * f
        sum_holds = a * s_hat == d_prod - n_prod and (
            k & (k - 1) or s.numerator * d_prod == s_hat * s.denominator
        )
        one_minus_as = _one_minus_a_times(a, s)
        if not (_residual_holds(state, one_minus_as) and sum_holds):
            failed = "residual"
        elif not _recursion_holds(state, one_minus_as):
            failed = "recursion"
        else:
            failed = next((name for name, check in extra if not check(previous, state)), None)
        if failed:
            return {"status": "fail", "identity": failed, "index": k, **context}
        previous = state
    if (
        previous is not None
        and previous.k & (previous.k - 1)
        and previous.S_k.numerator * d_prod != s_hat * previous.S_k.denominator
    ):
        return {"status": "fail", "identity": "residual", "index": previous.k, **context}
    return None


def _tamper(states: Iterable[SeriesState], index: int) -> Iterator[SeriesState]:
    """`states` with the low bit of T_k's numerator flipped at k = index."""
    for state in states:
        if state.k == index:
            bad = state.T_k
            state = state._replace(T_k=Fraction(bad.numerator ^ 1, bad.denominator))
        yield state


def _run_identity_checks(defn: SeriesDefinition, kind: str, terms: int,
                         tamper_index: int | None) -> dict:
    """The report of `verify` on the first `terms` states of `defn`, a
    series of `kind`, with T's numerator tampered at k = `tamper_index`."""
    from .engine import DepthGuardError, iter_states

    states = iter_states(defn, terms)
    if tamper_index is not None:
        if tamper_index > terms:
            raise ValueError("tamper index out of range")
        states = _tamper(states, tamper_index)
    extra = {
        "prime": (("totient-primorial", _totient_holds),),
        "twin": (("dominance", _dominance_holds),),
    }.get(kind, ())
    try:
        failure = _check_states(states, extra)
    except DepthGuardError as exc:
        raise ValueError(str(exc)) from None
    if failure:
        return failure
    checks = ["residual", "recursion", *(name for name, _ in extra)]
    return {"status": "pass", "kind": kind, "terms": terms, "checks": checks}


def _run_random_suite(instances: int, seed: int) -> dict:
    """The report of `verify --random`: the identity checks on `instances`
    series, each with its own offset a and values, drawn from `seed`."""
    import random

    from .engine import SeriesDefinition, iter_states

    rng = random.Random(seed)
    for instance in range(1, instances + 1):
        a = rng.randint(1, 50)
        length = rng.randint(1, 200)
        values = sorted(rng.sample(range(a + 1, 10**6), length))
        defn = SeriesDefinition(tuple(values), offset_a=a)
        failure = _check_states(iter_states(defn, length), instance=instance, a=a, seed=seed)
        if failure:
            return failure
    return {"status": "pass", "random_instances": instances, "seed": seed,
            "checks": ["residual", "recursion"]}
