import contextlib
import decimal
import errno
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sievesum.cli
import sievesum.kconst
import sievesum.sieve
from conftest import assert_no_child_left, patched_segment_size
from sievesum.kconst import (
    _C2_CUTOFFS,
    DegenerateDataError,
    ExtrapolationError,
    PartialProduct,
    _borwein_weights,
    _c2_at,
    _exact_log_sums,
    _log_sums,
    _pair_log_terms,
    _split_sums,
    _zeta,
    estimate_K,
    extrapolate_aitken,
    extrapolate_hl,
    hl_tail_correction,
    partial_product,
    twin_constant,
)
from sievesum.sieve import (
    iter_twin_lesser_arrays,
    primes_up_to,
    twin_pairs_up_to,
    twin_sequence_up_to,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def exact_partial(limit: int) -> Fraction:
    product = Fraction(1)
    for v in twin_sequence_up_to(limit):
        product *= Fraction(v - 1, v)
    return product


class TestPartialProduct:
    def test_limit_7(self):
        pp = partial_product(7)
        assert pp.pair_count == 2
        assert exact_partial(7) == Fraction(64, 175)
        assert pp.log_value == pytest.approx(math.log(64 / 175), rel=1e-15)

    def test_empty_product_below_first_pair(self):
        pp = partial_product(4)
        assert pp.log_value == 0.0
        assert pp.pair_count == 0

    def test_pair_count_1e6(self):
        assert partial_product(10**6).pair_count == 8169

    def test_exact_cross_check_to_1e4(self):
        for limit in (100, 1000, 10**4):
            pp = partial_product(limit)
            exact = float(exact_partial(limit))
            assert abs(math.exp(pp.log_value) - exact) / exact < 1e-12

    def test_strictly_decreasing_log_value(self):
        logs = [partial_product(limit).log_value for limit in (10, 100, 1000, 10**4)]
        for a, b in zip(logs, logs[1:]):
            assert b < a

    def test_bit_identical_across_runs_and_segmentations(self):
        reference = partial_product(10**5)
        assert partial_product(10**5) == reference
        for segment_size in (64, 999, 1 << 14):
            with patched_segment_size(segment_size):
                again = partial_product(10**5)
            assert again.log_value == reference.log_value  # bit-for-bit
            assert again.pair_count == reference.pair_count

    def test_sweep_holds_about_one_segment(self):
        partial_product(10**5)  # numpy and the lazy imports loaded first
        tracemalloc.start()
        try:
            partial_product(10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a 2**20-byte mask, a segment's lessers and a block's temporaries
        # (1.9 MiB), not a tiled pattern or a segment's float temporaries
        assert sievesum.sieve.SEGMENT_SIZE == 1 << 20
        assert peak < 2.5 * 2**20


    @pytest.mark.parametrize("limit", [5, 1000, 10**5])
    def test_equals_fsum_of_per_pair_terms(self, limit):
        lessers = np.array([p.lesser for p in twin_pairs_up_to(limit)], dtype=np.float64)
        terms = np.log1p(-1.0 / lessers) + np.log1p(-1.0 / (lessers + 2.0))
        assert partial_product(limit).log_value == math.fsum(terms.tolist())


def serial_sums(limit: int) -> tuple[int, int]:
    """The exact sum and count of one unsplit sweep to `limit`."""
    [sums] = _exact_log_sums(iter_twin_lesser_arrays(limit), _pair_log_terms, [limit])
    return sums


def split_every_sweep(monkeypatch) -> list[int]:
    """Split every sweep of partial_product, as on a host with two usable
    CPUs. Returns the list of the split points taken."""
    monkeypatch.setattr(sievesum.kconst, "_SPLIT_MIN_CANDIDATES", 1)
    monkeypatch.setattr(sievesum.sieve, "_usable_cpus", lambda: 2)
    mids = []
    split = sievesum.kconst._split_sums

    def recording(limit, mid):
        mids.append(mid)
        return split(limit, mid)

    monkeypatch.setattr(sievesum.kconst, "_split_sums", recording)
    return mids


class TestSplitSweep:
    @pytest.mark.parametrize("segment_size, limit", [
        (1, 20_000), (64, 10**6), (5005, 10**6), (sievesum.sieve.SEGMENT_SIZE, 10**7),
    ])
    def test_equals_the_unsplit_sweep(self, monkeypatch, forked, segment_size, limit):
        with patched_segment_size(segment_size):
            whole = partial_product(limit)
            mids = split_every_sweep(monkeypatch)
            split = partial_product(limit)
        assert split == whole  # log_value bit for bit, and pair_count
        last = (limit - 1) // 6
        # the segment edge nearest the middle, with candidates on both sides
        [mid] = mids
        assert (mid - 1) % segment_size == 0 and 1 < mid <= last
        assert abs(mid - 1 - last / 2) <= segment_size / 2
        assert len(forked) == 1
        assert_no_child_left()

    # segments of 64 candidates start at 1 + 64 j; the last candidate of 1e6
    # is 166666, so the child may also sweep all, one or no candidate
    @pytest.mark.parametrize("mid", [1, 2, 64 * 1000, 64 * 1000 + 1, 64 * 1000 + 2, 166666, 166667])
    def test_any_split_point_gives_the_same_sums(self, mid):
        with patched_segment_size(64):
            assert _split_sums(10**6, mid) == serial_sums(10**6)

    @pytest.mark.parametrize("cpus, above_gate, fork, split",
                             [(2, 0, True, True), (2, 1, True, False), (1, 0, True, False),
                              (2, 0, False, False)],
                             ids=["2-0-True", "2-1-False", "1-0-False", "no-fork"])
    def test_split_from_the_gate_on_and_with_two_cpus(self, monkeypatch, forked, cpus, above_gate,
                                                      fork, split):
        whole = partial_product(10**6)
        mids = split_every_sweep(monkeypatch)
        monkeypatch.setattr(sievesum.sieve, "_usable_cpus", lambda: cpus)
        if not fork:
            monkeypatch.delattr(os, "fork")
        last = (10**6 - 1) // 6
        monkeypatch.setattr(sievesum.kconst, "_SPLIT_MIN_CANDIDATES", last + above_gate)
        assert partial_product(10**6) == whole
        assert (bool(mids), len(forked)) == (split, split)

    @pytest.mark.parametrize("limit, error", [
        (10.0**6, TypeError), (sievesum.sieve.PRIME_CAP + 1, sievesum.sieve.CapacityError),
        (-7, ValueError),
    ])
    def test_a_bad_limit_is_refused_before_any_fork(self, monkeypatch, forked, limit, error):
        split_every_sweep(monkeypatch)
        with pytest.raises(error):
            partial_product(limit)
        assert forked == []

    @pytest.mark.parametrize("end, code", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
        (lambda: 1 / 0, 1),
    ], ids=["killed", "failed"])
    def test_a_child_that_ends_early_is_an_error(self, monkeypatch, forked, end, code):
        def ending(wheel, first, limit):
            end()
            yield

        monkeypatch.setattr(sievesum.kconst, "_arrays", ending)
        with pytest.raises(ChildProcessError, match=f"exit code {code} before it answered$"):
            _split_sums(10**6, 1 + 10**5)
        assert len(forked) == 1
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_failed_fork_raises_and_closes_the_pipe(self, monkeypatch):
        def failed_fork():
            raise BlockingIOError(errno.EAGAIN, "fork failed")

        monkeypatch.setattr(os, "fork", failed_fork)
        open_fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError, match="fork failed"):
            _split_sums(10**6, 1 + 10**5)
        assert sorted(os.listdir("/proc/self/fd")) == open_fds

    def test_an_error_here_kills_the_child(self, monkeypatch, forked):
        def stalled(wheel, first, limit):
            time.sleep(600)
            yield

        def interrupted(limit):
            raise KeyboardInterrupt
            yield

        monkeypatch.setattr(sievesum.kconst, "_arrays", stalled)
        monkeypatch.setattr(sievesum.kconst, "iter_twin_lesser_arrays", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _split_sums(10**6, 1 + 10**5)
        assert time.monotonic() - start < 60
        assert len(forked) == 1
        assert_no_child_left()

    def test_fork_warning_of_a_threaded_process_is_not_shown(self, monkeypatch):
        # Python 3.12 warns so on fork in a process with threads, numpy's BLAS pool
        fork = os.fork

        def warning_fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _split_sums(10**6, 1 + 10**5) == serial_sums(10**6)


# Runs sievesum.cli.main(argv) in a fresh interpreter with every twin sweep
# split and 4096 candidates per segment, then writes to stderr its exit code
# and whether a child process of it is left. With SLOW_CHILD=1 the child's
# half of a sweep stalls; with INTERRUPT=1 the command's half sends SIGINT
# to the process group, as Ctrl-C does, at its third array; with
# KILL_CHILD=1 the child kills itself.
SPLIT_SCRIPT = textwrap.dedent("""
    import os, signal, sys, time
    import sievesum.cli as cli, sievesum.kconst as kconst, sievesum.sieve as sieve

    kconst._SPLIT_MIN_CANDIDATES, sieve._usable_cpus, sieve.SEGMENT_SIZE = 1, lambda: 2, 4096
    lower, upper = kconst.iter_twin_lesser_arrays, kconst._arrays

    def lower_half(limit):
        for i, array in enumerate(lower(limit)):
            if i == 2 and os.environ.get("INTERRUPT"):
                os.killpg(0, signal.SIGINT)
            yield array

    def upper_half(wheel, first, limit):
        if os.environ.get("SLOW_CHILD"):
            time.sleep(600)
        if os.environ.get("KILL_CHILD"):
            os.kill(os.getpid(), signal.SIGKILL)
        yield from upper(wheel, first, limit)

    kconst.iter_twin_lesser_arrays, kconst._arrays = lower_half, upper_half
    code = cli.main(sys.argv[1:])
    try:
        os.waitpid(-1, os.WNOHANG)
        left = "child left"
    except ChildProcessError:
        left = "no child"
    print(code, left, file=sys.stderr)
""")


def run_split_script(*argv: str, **env: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of SPLIT_SCRIPT on argv, run with
    warnings as errors in a process group of its own. stderr is read to
    its end, which comes only when every process holding it has exited."""
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-c", SPLIT_SCRIPT, *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        with contextlib.suppress(ProcessLookupError):  # whatever is left of the group
            os.killpg(proc.pid, signal.SIGKILL)
    return proc.returncode, out, err


class TestSplitSweepCommand:
    def test_output_is_that_of_the_unsplit_sweeps(self, capsys):
        argv = ("kconst", "--limit", "1e6", "--method", "both")
        assert sievesum.cli.main(list(argv)) == 0
        unsplit = capsys.readouterr().out
        assert run_split_script(*argv) == (0, unsplit, "0 no child\n")

    def test_ctrl_c_is_exit_130_and_leaves_no_child(self):
        result = run_split_script("kconst", "--limit", "1e6", SLOW_CHILD="1", INTERRUPT="1")
        assert result == (0, "", "error: interrupted\n130 no child\n")

    def test_a_killed_child_is_an_error(self):
        result = run_split_script("kconst", "--limit", "1e6", KILL_CHILD="1")
        error = "error: a child process ended with exit code -9 before it answered"
        assert result == (0, "", f"{error}\n1 no child\n")

    def test_no_warning_at_a_split_size(self):
        assert (10**8 - 1) // 6 >= sievesum.kconst._SPLIT_MIN_CANDIDATES
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "sievesum", "kconst", "--limit", "1e8"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (result.returncode, result.stderr) == (0, "")
        assert json.loads(result.stdout)["pair_count"] == 440312


# Finite doubles across the whole exponent range, subnormals and both zeros
# included, kept below 1e300 so that no partial sum of math.fsum overflows.
_finite = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 996)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
)


@st.composite
def _terms(draw):
    """Random terms, optionally with heavy cancellation: each value joined
    by its negation and a few small perturbations, all shuffled."""
    values = draw(st.lists(_finite, max_size=60))
    if draw(st.booleans()):
        values = values + [-x for x in values] + draw(st.lists(_finite, max_size=3))
        values = draw(st.permutations(values))
    return np.array(values, dtype=np.float64)


def _by_position(terms: np.ndarray):
    """A _log_sums transform that maps sieve value i to terms[i]."""
    return lambda x: terms[x.astype(np.int64)]


class TestLogSums:
    @settings(max_examples=300, deadline=None)
    @given(terms=_terms())
    @example(terms=np.array([], dtype=np.float64))
    @example(terms=np.array([-0.0, -0.0]))
    @example(terms=np.array([1e300, 1.0, -1e300, 5e-324]))
    def test_equals_fsum_bit_for_bit(self, terms):
        values = np.arange(terms.size, dtype=np.int64)
        [(total, count)] = _log_sums([values], _by_position(terms), [terms.size])
        expected = math.fsum(terms.tolist())
        assert total.hex() == expected.hex()
        assert count == terms.size

    @settings(max_examples=300, deadline=None)
    @given(terms=_terms(), data=st.data())
    def test_splits_and_limits_do_not_change_the_sums(self, terms, data):
        n = terms.size
        values = np.arange(n, dtype=np.int64)
        splits = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
        arrays = np.split(values, splits)
        limits = sorted(data.draw(st.lists(st.integers(-1, n + 1), min_size=1, max_size=5)))
        block = data.draw(st.sampled_from([1, 2, 3, 7, 1 << 13]))
        with mock.patch.object(sievesum.kconst, "_LOG_BLOCK", block):
            got = _log_sums(arrays, _by_position(terms), limits)
        for limit, (total, count) in zip(limits, got):
            upto = min(max(limit + 1, 0), n)
            assert total.hex() == math.fsum(terms[:upto].tolist()).hex()
            assert count == upto

    def test_rejects_non_finite_terms(self):
        with pytest.raises(ValueError, match="not finite"):
            _log_sums([np.array([2], dtype=np.int64)], lambda x: x * np.inf, [2])


class TestTwinConstant:
    def test_equals_mpmath_as_a_double(self):
        assert twin_constant().c2 == float(mpmath.twinprime)

    def test_cutoffs_agree(self):
        tc = twin_constant()
        assert tc.limit == _C2_CUTOFFS[-1]
        assert tc.self_check_delta < 1e-15

    @pytest.mark.parametrize("cutoff", _C2_CUTOFFS)
    def test_each_cutoff_matches_mpmath_to_40_digits(self, cutoff):
        with mpmath.workdps(60):
            reference = Decimal(mpmath.nstr(mpmath.twinprime, 60))
        value = _c2_at(cutoff, primes_up_to(cutoff))
        assert abs(value - reference) < Decimal("1e-40")

    def test_cached(self):
        assert twin_constant() is twin_constant()

    def test_sieves_only_up_to_the_largest_cutoff(self, monkeypatch):
        asked = []

        def spy(name):
            real = getattr(sievesum.sieve, name)

            def call(*args):
                asked.append((name, args[-1]))
                return real(*args)

            monkeypatch.setattr(sievesum.sieve, name, call)

        # every bounded sieve reader checks its limit through _last
        spy("prime_lists")
        spy("_last")
        twin_constant.cache_clear()
        try:
            tc = twin_constant()
        finally:
            twin_constant.cache_clear()
        assert [name for name, _ in asked].count("prime_lists") == 1
        assert max(limit for _, limit in asked) <= tc.limit


class TestZeta:
    @pytest.mark.parametrize("s", [2, 3, 7, 30, 60])
    def test_matches_mpmath(self, s):
        with mpmath.workdps(60):
            reference = Decimal(mpmath.nstr(mpmath.zeta(s), 60))
        assert abs(_zeta(s) - reference) < Decimal("1e-50")

    def test_does_not_depend_on_the_callers_context(self):
        _zeta.cache_clear()
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            low = _zeta(3)
        _zeta.cache_clear()
        assert low == _zeta(3)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 74, 120])
    def test_weights_divide_exactly(self, n):
        """Every integer division of _borwein_weights is exact: the weights
        equal Borwein's d_k summed as fractions."""
        expected, total = [], Fraction(0)
        for i in range(n + 1):
            total += Fraction(n * math.factorial(n + i - 1) * 4**i,
                              math.factorial(n - i) * math.factorial(2 * i))
            expected.append(total)
        assert _borwein_weights(n) == expected
        assert all(d.denominator == 1 for d in expected)


class TestExtrapolateHL:
    def test_tail_formula(self):
        c2 = twin_constant().c2
        assert hl_tail_correction(10**3, c2) == pytest.approx(-0.382, abs=1e-3)
        lead = -4 * c2 / math.log(10**4)
        assert hl_tail_correction(10**4, c2) == pytest.approx(lead, abs=1e-5)

    def test_estimate_fields(self):
        pp = partial_product(10**4)
        est = extrapolate_hl(pp)
        assert est.method == "hl-tail"
        assert est.k_estimate == pytest.approx(
            math.exp(pp.log_value + est.tail_correction), rel=1e-15
        )
        assert est.tail_correction < 0
        assert math.exp(pp.log_value) > est.k_estimate
        assert est.error_estimate > 0
        assert est.c2_used == twin_constant().c2

    def test_rejects_small_limit(self):
        with pytest.raises(ExtrapolationError):
            extrapolate_hl(partial_product(5000))


class TestExtrapolateAitken:
    def test_constant_sequence_returns_constant(self):
        log_c = math.log(0.25)
        partials = [
            PartialProduct(limit, log_c, 1) for limit in (10**6, 10**7, 10**8)
        ]
        est = extrapolate_aitken(partials)
        assert est.k_estimate == pytest.approx(0.25, rel=1e-15)
        assert est.error_estimate > 0

    def test_recovers_log_linear_model(self):
        K, c = 0.1293, 0.37
        partials = [
            PartialProduct(limit, math.log(K) + c / math.log(limit), 1)
            for limit in (10**6, 10**7, 10**8)
        ]
        est = extrapolate_aitken(partials)
        assert abs(est.k_estimate - K) < 1e-12
        assert est.c2_used is None

    def test_input_order_does_not_matter(self):
        K, c = 0.2, -0.8
        partials = [
            PartialProduct(limit, math.log(K) + c / math.log(limit), 1)
            for limit in (10**8, 10**6, 10**7)
        ]
        assert extrapolate_aitken(partials).k_estimate == pytest.approx(K, abs=1e-12)

    def test_needs_three_points(self):
        partials = [PartialProduct(10**6, -1.0, 1), PartialProduct(10**7, -1.1, 1)]
        with pytest.raises(ValueError, match="at least 3"):
            extrapolate_aitken(partials)

    def test_repeated_limit_is_degenerate(self):
        partials = [
            PartialProduct(10**6, -1.0, 1),
            PartialProduct(10**6, -1.0, 1),
            PartialProduct(10**7, -1.1, 1),
        ]
        with pytest.raises(DegenerateDataError, match="ill-conditioned"):
            extrapolate_aitken(partials)


class TestEstimateK:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            estimate_K(10**6, "shanks")

    def test_aitken_needs_room_for_sublimits(self):
        with pytest.raises(ExtrapolationError):
            estimate_K(10**5, "aitken")

    def test_both_covers_inter_method_spread(self):
        hl = estimate_K(10**6, "hl-tail")
        aitken = estimate_K(10**6, "aitken")
        both = estimate_K(10**6, "both")
        assert both.method == "hl-tail"
        assert both.k_estimate == hl.k_estimate
        spread = abs(hl.k_estimate - aitken.k_estimate)
        assert both.error_estimate >= max(hl.error_estimate, spread)

    def test_hl_estimates_tighten_with_limit(self):
        estimates = [
            estimate_K(limit, "hl-tail").k_estimate for limit in (10**5, 10**6)
        ]
        # successive estimates stay inside a narrowing band around ~0.129
        assert all(0.125 < k < 0.134 for k in estimates)
