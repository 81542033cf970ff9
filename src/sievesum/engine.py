"""Incremental exact evaluation of sums T_n = prod(F_i - a) / ((F_n - a) prod F_i).

Every state carries the term T, partial sum S and residual product
R = prod(1 - a/F_i) as reduced big rationals, updated in O(1) rational
operations per step:

    T_{k+1} = R_k / F_{k+1}
    R_{k+1} = R_k * (F_{k+1} - a) / F_{k+1}
    S_{k+1} = 1/a - R_{k+1} / a = (1 - R_{k+1}) / a

S comes from the telescoping identity 1/a - S_k = R_k / a rather than from
S_k + T_{k+1}: adding two reduced fractions with huge denominators costs a
gcd of two huge integers, while every gcd above has one small operand,
F_{k+1}, its reduced (F_{k+1} - a)/F_{k+1} parts, or a. The identity and
the per-term recursion are exposed as explicit checks.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

DEFAULT_DEPTH_GUARD = 5000
_OUT_OF_DOMAIN = "sequence value {} makes the term undefined or nonpositive (requires F > a = {})"
_TOO_LARGE = "sequence value {} is too large for a float"
# the least int that float() cannot convert: it would round to 2**1024
_FLOAT_OVERFLOW = 2**1024 - 2**970


class SeriesDomainError(ValueError):
    """A sequence value makes a term undefined or nonpositive (F <= a)."""


class DepthGuardError(RuntimeError):
    """Exact evaluation was asked for more terms than the configured guard.

    Denominators grow to primorial scale (tens of thousands of digits);
    raising the guard is deliberate, not automatic.
    """


class _SeriesFields(NamedTuple):
    sequence: Sequence[int] | Callable[[], Iterable[int]]
    offset_a: int = 1
    depth_guard: int = DEFAULT_DEPTH_GUARD


class SeriesDefinition(_SeriesFields):
    """A sequence F_1, F_2, ... of integers together with the offset a.

    `sequence` is either a concrete sequence or a zero-argument callable
    returning a fresh iterator, so evaluation can restart from scratch; a
    bare iterator is rejected, since it could be read only once.
    Every value must be an integer greater than `offset_a` (see `terms`).
    The fields are checked whenever a definition is made, by `_replace` too.
    """

    __slots__ = ()

    def __new__(cls, sequence: Sequence[int] | Callable[[], Iterable[int]],
                offset_a: int = 1, depth_guard: int = DEFAULT_DEPTH_GUARD) -> SeriesDefinition:
        if operator.index(offset_a) < 1:
            raise ValueError("offset_a must be a positive integer")
        if depth_guard < 1:
            raise ValueError("depth_guard must be positive")
        if not callable(sequence) and iter(sequence) is sequence:
            # `terms` reads a concrete sequence twice: to check it, then to yield it
            raise TypeError(
                "sequence must be a sequence or a zero-argument callable, not an iterator"
            )
        return super().__new__(cls, sequence, offset_a, depth_guard)

    @classmethod
    def _make(cls, iterable: Iterable) -> SeriesDefinition:
        return cls(*iterable)  # through the checks of __new__; _replace calls _make

    def terms(self, n: int) -> Iterator[int]:
        """The first n values, as ints. A value not greater than offset_a, or
        a sequence of fewer than n values, raises SeriesDomainError: a
        concrete sequence is checked whole before its first value is
        returned, a callable's values as they are drawn."""
        if n < 1:
            raise ValueError("n_terms must be at least 1")
        a, source = self.offset_a, self.sequence
        concrete = not callable(source)
        k = 0
        for k, value in enumerate(islice(source if concrete else source(), n), 1):
            f = operator.index(value)
            if f <= a:
                raise SeriesDomainError(_OUT_OF_DOMAIN.format(f, a))
            if not concrete:
                yield f
        if k < n:
            raise SeriesDomainError(f"sequence ended after {k} values, {n} requested")
        if concrete:  # checked whole above; now read again
            yield from map(operator.index, islice(source, n))


class SeriesState(NamedTuple):
    """Snapshot after consuming k sequence values. Immutable; advancing
    returns a new state, so snapshots can be kept or handed to other threads.
    """

    k: int
    F_k: int
    a: int
    T_k: Fraction
    S_k: Fraction
    R_k: Fraction


class ReportRow(NamedTuple):
    """One emitted record; residual is 1/a - S_n (exact or floating). A
    tuple, so a row is cheap to make and formats with one `%`."""

    n: int
    F_n: int
    T: Fraction | float
    S: Fraction | float
    residual: Fraction | float


def advance(state: SeriesState, F_next: int) -> SeriesState:
    """Consume one more sequence value; all arithmetic exact and reduced."""
    f = operator.index(F_next)
    a = state.a
    if f <= a:
        raise SeriesDomainError(_OUT_OF_DOMAIN.format(f, a))
    R = state.R_k * Fraction(f - a, f)
    return SeriesState(
        k=state.k + 1, F_k=f, a=a, T_k=state.R_k / f, S_k=(1 - R) / a, R_k=R
    )


def iter_states(defn: SeriesDefinition, n_terms: int) -> Iterator[SeriesState]:
    """Yield the states for k = 1..n_terms, enforcing the depth guard."""
    if n_terms > defn.depth_guard:
        raise DepthGuardError(
            f"{n_terms} exact terms exceed the depth guard {defn.depth_guard}; "
            "raise SeriesDefinition.depth_guard to override"
        )
    # The empty state (empty sum, empty product); advance takes every step.
    state = SeriesState(
        k=0, F_k=0, a=defn.offset_a, T_k=Fraction(0), S_k=Fraction(0), R_k=Fraction(1)
    )
    for f in defn.terms(n_terms):
        state = advance(state, f)
        yield state


def _one_minus_a_times(a: int, s: Fraction) -> tuple[int, int]:
    """1 - a*s as a reduced numerator and denominator. With s = n/d reduced,
    1 - a*s = (d - a*n)/d, and gcd(d - a*n, d) = gcd(a*n, d) = gcd(a, d):
    one gcd with a small operand, where Fraction arithmetic would take the
    gcd of huge ones."""
    n, d = s.numerator, s.denominator
    g = math.gcd(a, d)
    return (d - a * n) // g, d // g


def check_residual_identity(state: SeriesState) -> bool:
    """True iff 1/a - S_k equals R_k / a as reduced rationals, that is iff
    1 - a*S_k equals R_k (a = 0 raises ZeroDivisionError, as 1/a does).

    True by construction for a state the engine made, since `advance`
    derives S_k from R_k through this identity; it still catches a state
    whose S_k or R_k was altered afterwards. The independent check of the
    sum, an unreduced integer sum built term by term, lives in the CLI's
    `verify`.
    """
    return _residual_holds(state, _one_minus_a_times(state.a, state.S_k))


def _residual_holds(state: SeriesState, one_minus_as: tuple[int, int]) -> bool:
    """check_residual_identity(state), given 1 - a*S_k as
    _one_minus_a_times(state.a, state.S_k) returns it."""
    if not state.a:
        raise ZeroDivisionError("Fraction(1, 0)")
    r = state.R_k
    return one_minus_as == (r.numerator, r.denominator)


def check_term_recursion(state: SeriesState) -> bool:
    """True iff T_k = a*(1/a - S_k)/(F_k - a) exactly.

    Equivalently T_k = (1 - a*S_k)/(F_k - a); the prefactor a is required
    for any a != 1 (for a = 1 this reduces to the familiar
    T_k = (1 - S_k)/(F_k - 1) form). With 1 - a*S_k = x/d reduced and
    m = F_k - a, x/(d*m) is reduced by h = gcd(x, m), signed as m, since
    gcd(x, d) = 1; F_k = a raises ZeroDivisionError, as the division does.
    """
    return _recursion_holds(state, _one_minus_a_times(state.a, state.S_k))


def _recursion_holds(state: SeriesState, one_minus_as: tuple[int, int]) -> bool:
    """check_term_recursion(state), given 1 - a*S_k as
    _one_minus_a_times(state.a, state.S_k) returns it."""
    a, t = state.a, state.T_k
    m = state.F_k - a
    if not m:
        return t == (1 - a * state.S_k) / m  # raises
    x, d = one_minus_as
    h = math.gcd(x, m) if m > 0 else -math.gcd(x, m)
    return t.numerator == x // h and t.denominator == d * (m // h)


def report_rows(defn: SeriesDefinition, n_terms: int) -> list[ReportRow]:
    """Exact report rows for the first n_terms terms."""
    a = defn.offset_a
    return [
        ReportRow(s.k, s.F_k, s.T_k, s.S_k, Fraction(1, a) - s.S_k)
        for s in iter_states(defn, n_terms)
    ]


def float_rows(defn: SeriesDefinition, n_terms: int) -> Iterator[ReportRow]:
    """Floating-point rows; the residual product is tracked in log space with
    compensated accumulation, so arbitrarily many terms are cheap. A value
    too large for a float raises OverflowError naming it: as it is drawn
    from a callable, and before the first row for a concrete sequence,
    whose float range is checked whole after the checks of `terms`.
    """
    a = defn.offset_a
    values = defn.terms(n_terms)
    if not callable(defn.sequence):
        values = chain([next(values)], values)  # the checks of terms(n) run here
        checked = map(operator.index, islice(defn.sequence, n_terms))
        huge = next((f for f in checked if f >= _FLOAT_OVERFLOW), None)
        if huge is not None:
            raise OverflowError(_TOO_LARGE.format(huge))
    new = tuple.__new__  # a ReportRow without the frame of its Python __new__
    log_r = 0.0
    comp = 0.0  # Kahan carry
    r = 1.0  # exp(log_r), the previous row's residual product
    for k, f in enumerate(values, 1):
        try:
            t = r / f
        except OverflowError:
            raise OverflowError(_TOO_LARGE.format(f)) from None
        y = math.log1p(-a / f) - comp
        total = log_r + y
        comp = (total - log_r) - y
        log_r = total
        r = math.exp(log_r)
        yield new(ReportRow, (k, f, t, (1.0 - r) / a, r / a))
