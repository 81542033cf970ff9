"""Incremental exact evaluation of sums T_n = prod(F_i - a) / ((F_n - a) prod F_i).

Every state carries the term T, partial sum S and residual product
R = prod(1 - a/F_i) as reduced big rationals, updated in O(1) rational
operations per step:

    T_{k+1} = R_k / F_{k+1}
    S_{k+1} = S_k + T_{k+1}
    R_{k+1} = R_k * (F_{k+1} - a) / F_{k+1}

The defining identities (1/a - S_k = R_k / a, and the per-term recursion)
then hold exactly at every step and are exposed as explicit checks.
"""

from __future__ import annotations

import decimal
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

DEFAULT_DEPTH_GUARD = 5000


class SeriesDomainError(ValueError):
    """A sequence value makes a term undefined or nonpositive (F <= a)."""


class DepthGuardError(RuntimeError):
    """Exact evaluation was asked for more terms than the configured guard.

    Denominators grow to primorial scale (tens of thousands of digits);
    raising the guard is deliberate, not automatic.
    """


@dataclass(frozen=True)
class SeriesDefinition:
    """A sequence F_1, F_2, ... of integers together with the offset a.

    `sequence` is either a concrete sequence or a zero-argument callable
    returning a fresh iterator, so evaluation can restart from scratch.
    Every value must be an integer greater than `offset_a`; this is
    enforced as values are drawn.
    """

    sequence: Sequence[int] | Callable[[], Iterable[int]]
    offset_a: int = 1
    label: str = ""
    depth_guard: int = DEFAULT_DEPTH_GUARD

    def __post_init__(self) -> None:
        if operator.index(self.offset_a) < 1:
            raise ValueError("offset_a must be a positive integer")
        if self.depth_guard < 1:
            raise ValueError("depth_guard must be positive")

    def terms(self) -> Iterator[int]:
        """Fresh validated iterator over the sequence values."""
        raw = self.sequence() if callable(self.sequence) else iter(self.sequence)
        a = self.offset_a
        for value in raw:
            f = operator.index(value)
            if f <= a:
                raise SeriesDomainError(
                    f"sequence value {f} makes the term undefined or nonpositive "
                    f"(requires F > a = {a})"
                )
            yield f


@dataclass(frozen=True)
class SeriesState:
    """Snapshot after consuming k sequence values. Immutable; advancing
    returns a new state, so snapshots can be kept or handed to other threads.
    """

    k: int
    F_k: int
    a: int
    T_k: Fraction
    S_k: Fraction
    R_k: Fraction


@dataclass(frozen=True)
class ReportRow:
    """One emitted record; residual is 1/a - S_n (exact or floating)."""

    n: int
    F_n: int
    T: Fraction | float
    S: Fraction | float
    residual: Fraction | float


def init(defn: SeriesDefinition) -> SeriesState:
    """State after the first term: T_1 = 1/F_1, R_1 = (F_1 - a)/F_1."""
    return next(iter_states(defn, 1))


def advance(state: SeriesState, F_next: int) -> SeriesState:
    """Consume one more sequence value; all arithmetic exact and reduced."""
    f = operator.index(F_next)
    a = state.a
    if f <= a:
        raise SeriesDomainError(
            f"sequence value {f} makes the term undefined or nonpositive "
            f"(requires F > a = {a})"
        )
    T = state.R_k / f
    return SeriesState(
        k=state.k + 1,
        F_k=f,
        a=a,
        T_k=T,
        S_k=state.S_k + T,
        R_k=state.R_k * Fraction(f - a, f),
    )


def iter_states(defn: SeriesDefinition, n_terms: int) -> Iterator[SeriesState]:
    """Yield the states for k = 1..n_terms, enforcing the depth guard."""
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    if n_terms > defn.depth_guard:
        raise DepthGuardError(
            f"{n_terms} exact terms exceed the depth guard {defn.depth_guard}; "
            "raise SeriesDefinition.depth_guard to override"
        )
    # The empty state (empty sum, empty product); advance takes every step.
    state = SeriesState(
        k=0, F_k=0, a=defn.offset_a, T_k=Fraction(0), S_k=Fraction(0), R_k=Fraction(1)
    )
    for f in islice(defn.terms(), n_terms):
        state = advance(state, f)
        yield state
    if state.k == 0:
        raise SeriesDomainError("sequence is empty")
    if state.k < n_terms:
        raise SeriesDomainError(
            f"sequence ended after {state.k} values, {n_terms} requested"
        )


def final_state(defn: SeriesDefinition, n_terms: int) -> SeriesState:
    state = None
    for state in iter_states(defn, n_terms):
        pass
    assert state is not None
    return state


def check_residual_identity(state: SeriesState) -> bool:
    """True iff 1/a - S_k equals R_k / a as reduced rationals.

    Always true for an untampered state; exposed so harnesses can verify the
    sum-side and product-side arithmetic against each other.
    """
    return Fraction(1, state.a) - state.S_k == state.R_k / state.a


def check_term_recursion(state: SeriesState) -> bool:
    """True iff T_k = a*(1/a - S_k)/(F_k - a) exactly.

    Equivalently T_k = (1 - a*S_k)/(F_k - a); the prefactor a is required
    for any a != 1 (for a = 1 this reduces to the familiar
    T_k = (1 - S_k)/(F_k - 1) form).
    """
    return state.T_k == (1 - state.a * state.S_k) / (state.F_k - state.a)


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
    too large for a float raises OverflowError naming it.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    a = defn.offset_a
    log_r = 0.0
    comp = 0.0  # Kahan carry
    produced = 0
    for k, f in enumerate(islice(defn.terms(), n_terms), 1):
        try:
            t = math.exp(log_r) / f
        except OverflowError:
            raise OverflowError(f"sequence value {f} is too large for a float") from None
        y = math.log1p(-a / f) - comp
        total = log_r + y
        comp = (total - log_r) - y
        log_r = total
        r = math.exp(log_r)
        yield ReportRow(k, f, t, (1.0 - r) / a, r / a)
        produced = k
    if produced < n_terms:
        raise SeriesDomainError(
            f"sequence ended after {produced} values, {n_terms} requested"
        )


def to_decimal(x: Fraction, digits: int) -> str:
    """Decimal expansion of x, correctly rounded half-even to `digits`
    significant digits.

    The text is that of `Decimal(num) / Decimal(den)` at precision `digits`,
    but only a `digits`-long quotient is divided out, so the cost does not
    grow with the square of the operands' length.
    """
    if digits < 1:
        raise ValueError("digits must be at least 1")
    num, den = x.numerator, x.denominator
    if num == 0:
        return "0"
    sign, num = (1, -num) if num < 0 else (0, num)
    low, high = 10 ** (digits - 1), 10**digits
    # first guess at the exponent putting `digits` digits before the point;
    # the bit lengths fix log10(num/den) to within one
    exp = math.floor((num.bit_length() - den.bit_length()) * math.log10(2)) - digits + 1
    while True:
        if exp < 0:
            scaled_num, scaled_den = num * 10**-exp, den
        else:
            scaled_num, scaled_den = num, den * 10**exp
        q, r = divmod(scaled_num, scaled_den)
        if q >= high:
            exp += 1
        elif q < low:
            exp -= 1
        else:
            break
    if r:
        if 2 * r > scaled_den or (2 * r == scaled_den and q & 1):
            q += 1
            if q == high:
                q, exp = low, exp + 1
    else:
        # an exact quotient keeps the exponent nearest to Decimal's ideal, 0
        while exp < 0 and q % 10 == 0:
            q, exp = q // 10, exp + 1
    coefficient = decimal.Decimal(q).as_tuple().digits
    return str(decimal.Decimal((sign, coefficient, exp)))
