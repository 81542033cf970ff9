import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sievesum.engine import (
    DepthGuardError,
    ReportRow,
    SeriesDefinition,
    SeriesDomainError,
    advance,
    check_residual_identity,
    check_term_recursion,
    float_rows,
    iter_states,
    report_rows,
)
from sievesum.series import prime_definition, twin_prime_definition
from conftest import outcome

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def first_state(defn):
    """The state after the first term: the first that iter_states yields."""
    return next(iter_states(defn, 1))


def last_state(defn, n_terms):
    """The state after n_terms terms: the last that iter_states yields."""
    *_, state = iter_states(defn, n_terms)
    return state


def direct_products(values, a):
    """Closed-form re-evaluation through unreduced running integer products.

    Returns (T_j, S_j, R_j) triples; arithmetic route is independent of the
    engine's eagerly reduced incremental updates.
    """
    num = 1
    den = 1
    S = Fraction(0)
    out = []
    for f in values:
        num *= f - a
        den *= f
        T = Fraction(num, (f - a) * den)
        S += T
        out.append((T, S, Fraction(num, den)))
    return out


class TestFirstState:
    def test_prime_first_term(self):
        assert first_state(prime_definition()).T_k == Fraction(1, 2)

    def test_twin_first_term(self):
        state = first_state(twin_prime_definition())
        assert state.T_k == Fraction(1, 3)
        assert state.F_k == 3 and state.a == 2

    def test_successors_first_term(self):
        defn = SeriesDefinition(lambda: iter(range(2, 100)), offset_a=1)
        assert first_state(defn).T_k == Fraction(1, 2)

    def test_first_value_at_most_a_rejected(self):
        defn = SeriesDefinition((3, 5, 7), offset_a=3)
        with pytest.raises(SeriesDomainError, match="undefined or nonpositive"):
            first_state(defn)


class TestAdvance:
    def test_prime_second_term(self):
        state = advance(first_state(prime_definition()), 3)
        assert state.T_k == Fraction(1, 6)
        assert state.S_k == Fraction(2, 3)

    def test_prime_five_terms_match_term_list(self):
        state = last_state(prime_definition(), 5)
        expected = (
            Fraction(1, 2)
            + Fraction(1, 6)
            + Fraction(2, 30)
            + Fraction(8, 210)
            + Fraction(48, 2310)
        )
        assert state.S_k == expected

    def test_telescoping_successors(self):
        # F = 2, 3, ..., k+1 with a = 1 collapses to S_k = 1 - 1/(k+1)
        defn = SeriesDefinition(lambda: iter(range(2, 1000)), offset_a=1)
        for state in iter_states(defn, 60):
            assert state.S_k == 1 - Fraction(1, state.F_k)

    def test_rejects_value_at_most_a(self):
        state = first_state(SeriesDefinition((5, 9), offset_a=4))
        with pytest.raises(SeriesDomainError):
            advance(state, 4)

    def test_states_are_immutable_snapshots(self):
        base = first_state(prime_definition())
        one = advance(base, 3)
        two = advance(base, 3)
        assert one == two
        assert base.k == 1  # branching from a snapshot leaves it untouched
        with pytest.raises(AttributeError):
            base.S_k = Fraction(0)


class TestIdentityChecks:
    def test_residual_at_prime_k2(self):
        state = advance(first_state(prime_definition()), 3)
        assert 1 - state.S_k == Fraction(1, 3)
        assert state.R_k == Fraction(1, 2) * Fraction(2, 3)
        assert check_residual_identity(state)

    def test_fresh_state_passes(self):
        assert check_residual_identity(first_state(prime_definition()))
        assert check_term_recursion(first_state(twin_prime_definition()))

    def test_recursion_at_prime_k2(self):
        state = advance(first_state(prime_definition()), 3)
        assert state.T_k == (1 - state.S_k) / (3 - 1)
        assert check_term_recursion(state)

    def test_recursion_at_twin_k2_needs_offset_prefactor(self):
        state = advance(first_state(twin_prime_definition()), 5)
        assert state.T_k == Fraction(1, 15)
        # the bare (1/a - S)/(F - a) quotient is off by the factor a = 2
        assert (Fraction(1, 2) - state.S_k) / (5 - 2) == Fraction(1, 30)
        assert state.T_k == 2 * (Fraction(1, 2) - state.S_k) / (5 - 2)
        assert check_term_recursion(state)

    def test_tampered_state_fails_checks(self):
        state = last_state(prime_definition(), 6)
        bad_T = state._replace(T_k=state.T_k + Fraction(1, state.F_k**3))
        assert not check_term_recursion(bad_T)
        bad_S = state._replace(S_k=state.S_k + Fraction(1, 10**9))
        assert not check_residual_identity(bad_S)

    def test_random_instances_pass_and_match_direct_evaluation(self):
        rng = random.Random(91)
        for _ in range(40):
            a = rng.randint(1, 50)
            length = rng.randint(1, 60)
            values = sorted(rng.sample(range(a + 1, 10**6), length))
            defn = SeriesDefinition(tuple(values), offset_a=a)
            direct = direct_products(values, a)
            for state, (T, S, R) in zip(iter_states(defn, length), direct):
                assert check_residual_identity(state)
                assert check_term_recursion(state)
                assert (state.T_k, state.S_k, state.R_k) == (T, S, R)


@st.composite
def offset_and_values(draw):
    """a <= 50 and values F > a, some sharing a factor with a."""
    a = draw(st.integers(1, 50))
    value = st.one_of(
        st.integers(a + 1, 10**6),
        st.integers(1, 10**4).map(lambda m: a * m + a),  # a multiple of a
        st.integers(1, 10**4).map(lambda m: 2 * (a + m)),  # even, as half of the a are
    )
    return a, draw(st.lists(value, min_size=1, max_size=60))


def residual_by_fractions(state):
    return Fraction(1, state.a) - state.S_k == state.R_k / state.a


def recursion_by_fractions(state):
    return state.T_k == (1 - state.a * state.S_k) / (state.F_k - state.a)


def changed_states(state):
    """Copies of `state` with a field changed: T_k, S_k or R_k nudged,
    negated or zero, a moved, zero or F_k, and F_k a + 1, zero or negated,
    the last two also with the T_k that the recursion gives for them."""
    for field in ("T_k", "S_k", "R_k"):
        value = getattr(state, field)
        for changed in (value + Fraction(1, 7), value - Fraction(1, 10**9), -value, 0):
            yield state._replace(**{field: changed})
    for a in (state.a + 1, state.a - 1, -state.a, 0, state.F_k):
        yield state._replace(a=a)
    yield state._replace(F_k=state.a + 1)
    for f in (0, -state.F_k):  # F_k - a < 0
        yield state._replace(F_k=f)
        yield state._replace(F_k=f, T_k=(1 - state.a * state.S_k) / (f - state.a))


class TestChecksOnIntegers:
    """The identity checks compare reduced integers; they must agree with
    the rational forms they stand for, exceptions included."""

    @settings(max_examples=100, deadline=None)
    @given(offset_and_values())
    @example((1, [2, 3, 5, 7, 11]))
    @example((6, [8, 9, 12, 18, 7, 30]))
    def test_checks_match_the_fraction_forms(self, case):
        a, values = case
        for state in iter_states(SeriesDefinition(tuple(values), offset_a=a), len(values)):
            for probe in (state, *changed_states(state)):
                assert outcome(check_residual_identity, probe) == outcome(residual_by_fractions, probe)
                assert outcome(check_term_recursion, probe) == outcome(recursion_by_fractions, probe)


class TestRunningSumReference:
    @settings(max_examples=150, deadline=None)
    @given(offset_and_values())
    @example((1, [2, 3, 5, 7, 11]))
    @example((6, [8, 9, 12, 18, 7, 30]))
    def test_states_match_running_fraction_sum(self, running_fraction_states, case):
        a, values = case
        defn = SeriesDefinition(tuple(values), offset_a=a)
        states = list(iter_states(defn, len(values)))
        assert [(s.T_k, s.S_k, s.R_k) for s in states] == running_fraction_states(values, a)
        assert [s.F_k for s in states] == values


class TestInvariants:
    def test_monotonicity_and_bounds(self):
        rng = random.Random(17)
        a = rng.randint(1, 20)
        values = sorted(rng.sample(range(a + 1, 10**5), 80))
        prev = None
        for state in iter_states(SeriesDefinition(tuple(values), offset_a=a), 80):
            assert 0 < state.T_k
            assert 0 < state.S_k < Fraction(1, a)
            assert 0 < state.R_k < 1
            if prev is not None:
                assert state.S_k > prev.S_k
                assert state.R_k < prev.R_k
            prev = state

    def test_reduction_discipline(self):
        import math

        for state in iter_states(prime_definition(), 30):
            for x in (state.T_k, state.S_k, state.R_k):
                assert math.gcd(x.numerator, x.denominator) == 1
                assert x.denominator > 0

    def test_incremental_matches_direct_for_primes(self):
        from sievesum.sieve import nth_primes

        primes = nth_primes(50)
        direct = direct_products(primes, 1)
        for state, (T, S, R) in zip(iter_states(prime_definition(), 50), direct):
            assert (state.T_k, state.S_k, state.R_k) == (T, S, R)


class TestDepthGuard:
    def test_guard_triggers_before_computation(self):
        defn = SeriesDefinition(lambda: iter(range(2, 10**6)), offset_a=1, depth_guard=10)
        with pytest.raises(DepthGuardError, match="depth guard"):
            list(iter_states(defn, 11))

    def test_guard_override(self):
        defn = SeriesDefinition(
            lambda: iter(range(2, 10**6)), offset_a=1, depth_guard=6000
        )
        assert last_state(defn, 5500).k == 5500

    def test_default_guard_is_5000(self):
        assert SeriesDefinition((3, 4, 5)).depth_guard == 5000

    def test_short_sequence_detected(self):
        with pytest.raises(SeriesDomainError, match="ended after"):
            report_rows(SeriesDefinition((2, 3, 4), offset_a=1), 5)


BOTH_ENGINES = pytest.mark.parametrize("engine", [iter_states, float_rows])


class TestSequenceChecks:
    """`SeriesDefinition.terms` checks a concrete sequence whole before its
    first value, and a callable's values as they are drawn."""

    @BOTH_ENGINES
    @pytest.mark.parametrize(
        "values, n, message",
        [
            ((4, 5, 3, 7), 4, "sequence value 3 makes the term undefined"),
            ((4, 5, 7, 9, 11, 2), 6, "sequence value 2 makes the term undefined"),
            ((4, 5), 4, "sequence ended after 2 values, 4 requested"),
            (range(4, 9), 6, "sequence ended after 5 values, 6 requested"),
        ],
    )
    def test_concrete_sequence_fails_on_first_next(self, engine, values, n, message):
        with pytest.raises(SeriesDomainError, match=message):
            next(engine(SeriesDefinition(values, offset_a=3), n))

    @BOTH_ENGINES
    def test_callable_fails_as_the_bad_value_is_drawn(self, engine):
        rows = engine(SeriesDefinition(lambda: iter((4, 5, 3, 7)), offset_a=3), 4)
        assert len(list(islice(rows, 2))) == 2
        with pytest.raises(SeriesDomainError, match="sequence value 3 makes"):
            next(rows)

    @BOTH_ENGINES
    def test_callable_that_ends_early_fails_after_its_last_value(self, engine):
        rows = engine(SeriesDefinition(lambda: iter((4, 5)), offset_a=3), 3)
        assert len(list(islice(rows, 2))) == 2
        with pytest.raises(SeriesDomainError, match="ended after 2 values, 3 requested"):
            next(rows)

    @BOTH_ENGINES
    @pytest.mark.parametrize("sequence", [(), lambda: iter(())], ids=["tuple", "callable"])
    def test_empty_sequence_ended_after_zero_values(self, engine, sequence):
        with pytest.raises(SeriesDomainError) as info:
            next(engine(SeriesDefinition(sequence), 3))
        assert str(info.value) == "sequence ended after 0 values, 3 requested"

    @BOTH_ENGINES
    def test_rejects_fewer_than_one_term(self, engine):
        with pytest.raises(ValueError, match="at least 1"):
            next(engine(SeriesDefinition((2, 3)), 0))

    @pytest.mark.parametrize(
        "sequence", [iter((4, 5)), (v for v in (4, 5))], ids=["iterator", "generator"]
    )
    def test_one_shot_iterator_rejected(self, sequence):
        # a concrete sequence is read twice, so an iterator would yield no rows
        with pytest.raises(TypeError, match="sequence or a zero-argument callable"):
            SeriesDefinition(sequence, offset_a=3)

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            ({"sequence": iter((4, 5))}, TypeError, "not an iterator"),
            ({"offset_a": 0}, ValueError, "offset_a must be a positive integer"),
            ({"depth_guard": 0}, ValueError, "depth_guard must be positive"),
        ],
        ids=["iterator", "offset_a", "depth_guard"],
    )
    def test_definition_is_checked_when_made_and_when_replaced(self, fields, error, message):
        with pytest.raises(error, match=message):
            SeriesDefinition(**{"sequence": (4, 5), **fields})
        defn = SeriesDefinition((4, 5), offset_a=3)
        with pytest.raises(error, match=message):
            defn._replace(**fields)
        assert defn._replace(offset_a=2) == SeriesDefinition((4, 5), offset_a=2)

    def test_definition_is_a_record(self):
        defn = SeriesDefinition((4, 5), offset_a=3)
        assert repr(defn) == "SeriesDefinition(sequence=(4, 5), offset_a=3, depth_guard=5000)"
        with pytest.raises(AttributeError):
            defn.offset_a = 1
        with pytest.raises(AttributeError):
            defn.extra = 1

    def test_terms_takes_only_n_values(self):
        # the bad value past n is never drawn, even from a concrete sequence
        assert list(SeriesDefinition((2, 3, 1), offset_a=1).terms(2)) == [2, 3]


class TestReportRows:
    def test_residual_column(self):
        for row in report_rows(prime_definition(), 10):
            assert row.residual == 1 - row.S

    def test_twin_residual_uses_half(self):
        rows = report_rows(twin_prime_definition(), 4)
        assert rows[0].residual == Fraction(1, 6)
        assert rows[3].residual == Fraction(1, 2) - rows[3].S


class TestFloatRows:
    def test_tracks_exact_values_closely(self):
        exact = report_rows(prime_definition(), 50)
        approx = list(float_rows(prime_definition(), 50))
        for e, f in zip(exact, approx):
            assert f.F_n == e.F_n
            assert f.T == pytest.approx(float(e.T), rel=1e-12)
            assert f.S == pytest.approx(float(e.S), rel=1e-12)
            assert f.residual == pytest.approx(float(e.residual), rel=1e-12)

    @pytest.mark.parametrize(
        "defn", [prime_definition(), twin_prime_definition()], ids=["a=1", "a=2"]
    )
    def test_term_is_previous_residual_product_over_f(self, defn):
        # T_k = R_{k-1} / F_k to the bit, R_0 = 1; a is 1 or 2, so
        # residual * a gives back R_k exactly
        a = defn.offset_a
        rows = list(float_rows(defn, 2000))
        previous = [1.0] + [row.residual * a for row in rows[:-1]]
        assert [row.T for row in rows] == [r / row.F_n for r, row in zip(previous, rows)]

    def test_no_depth_guard_in_float_mode(self):
        rows = list(float_rows(prime_definition(), 6000))
        assert len(rows) == 6000

    def test_rows_are_report_rows(self):
        row = next(float_rows(SeriesDefinition((3, 5)), 2))
        assert type(row) is ReportRow
        assert (row.n, row.F_n, row.T) == (1, 3, 1 / 3)
        assert (row.n, row.F_n, row.T, row.S, row.residual) == tuple(row)


# the least int that float() cannot convert
FLOAT_OVERFLOW = 2**1024 - 2**970


class TestFloatRange:
    """float_rows names the first value too large for a float: a concrete
    sequence's before its first row, a callable's as it is drawn."""

    def test_limit_is_that_of_float(self):
        assert float(FLOAT_OVERFLOW - 1) == 1.7976931348623157e308
        assert [row.F_n for row in float_rows(SeriesDefinition((3, FLOAT_OVERFLOW - 1)), 2)] == [
            3,
            FLOAT_OVERFLOW - 1,
        ]
        with pytest.raises(OverflowError):
            float(FLOAT_OVERFLOW)
        with pytest.raises(OverflowError, match=f"sequence value {FLOAT_OVERFLOW} is too large"):
            next(float_rows(SeriesDefinition((3, FLOAT_OVERFLOW)), 2))

    @pytest.mark.parametrize(
        "sequence",
        [(3, 5, 10**400, 10**401), range(3, 10**400 * 3, 10**400)],
        ids=["tuple", "range"],
    )
    def test_concrete_sequence_fails_before_the_first_row(self, sequence):
        huge = [v for v in sequence if v >= FLOAT_OVERFLOW][0]
        with pytest.raises(OverflowError) as info:
            next(float_rows(SeriesDefinition(sequence), len(sequence)))
        assert str(info.value) == f"sequence value {huge} is too large for a float"

    def test_values_past_n_are_not_read(self):
        assert len(list(float_rows(SeriesDefinition((3, 5, 10**400)), 2))) == 2

    def test_domain_and_length_checks_come_first(self):
        with pytest.raises(SeriesDomainError, match="sequence value 2 makes"):
            next(float_rows(SeriesDefinition((5, 10**400, 2), offset_a=3), 3))
        with pytest.raises(SeriesDomainError, match="ended after 2 values"):
            next(float_rows(SeriesDefinition((5, 10**400), offset_a=3), 3))

    def test_callable_fails_as_the_value_is_drawn(self):
        rows = float_rows(SeriesDefinition(lambda: iter((3, 5, 10**400))), 3)
        assert len(list(islice(rows, 2))) == 2
        with pytest.raises(OverflowError, match=r"sequence value 1000+ is too large"):
            next(rows)
