import argparse
import contextlib
import csv
import decimal
import errno
import os
import io
import itertools
import json
import math
import random
import re
import shlex
import signal
import struct
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sievesum.checks
import sievesum.cli
import sievesum.engine
import sievesum.kconst
import sievesum.render
import sievesum.series
import sievesum.sieve
from sievesum import __version__
from sievesum.cli import (
    DEFAULT_SEED,
    _emit,
    _integer,
    _JSON_SEP,
    build_parser,
    main,
    parse_limit,
)
from sievesum.render import _decimal_json_int, _exact_cells, _exact_decimals, _float_renderer
from sievesum.engine import SeriesDefinition, float_rows, iter_states, report_rows
from sievesum.kconst import _C2_CUTOFFS, estimate_K, partial_product
from sievesum.series import (
    mertens_residual,
    prime_definition,
    square_free_definition,
    twin_prime_definition,
)
from conftest import assert_no_child_left, outcome, patched_segment_size, trial_division_primes
from sievesum.sieve import nth_primes, primes_up_to, twin_pairs_up_to, twin_sequence_up_to

ROOT = Path(__file__).resolve().parents[1]


# every command's compute entry, in the module the command reads it from
COMPUTE_ENTRIES = (
    (sievesum.engine, "iter_states"),
    (sievesum.engine, "float_rows"),
    (sievesum.cli, "prime_lists"),
    (sievesum.cli, "twin_lesser_lists"),
    (sievesum.cli, "iter_primes"),
    (sievesum.kconst, "estimate_K"),
    (sievesum.series, "brun_partial"),
    (sievesum.series, "mertens_rows"),
)


def must_not_compute(monkeypatch, reason):
    """Make every compute entry of the CLI fail with `reason`."""

    def must_not_run(*args, **kwargs):
        raise AssertionError(reason)

    for module, name in COMPUTE_ENTRIES:
        monkeypatch.setattr(module, name, must_not_run)


@pytest.mark.parametrize(
    "argv",
    [
        ("series", "--kind", "prime", "--terms", "3"),
        ("series", "--kind", "custom", "--seq", "2,3", "--terms", "2"),
        ("series", "--kind", "twin", "--terms", "3", "--mode", "float"),
        ("verify", "--terms", "3"),
        ("verify", "--random", "1"),
        ("kconst", "--limit", "1e4"),
        ("brun", "--limit", "100"),
        ("mertens", "--terms", "3"),
        ("primes", "--limit", "100"),
        ("primes", "--limit", "100", "--twins"),
        ("primes", "--count", "5"),
    ],
)
def test_must_not_compute_stops_every_valid_command(monkeypatch, argv):
    """The control of the tests that a command computes nothing: with
    must_not_compute, each valid command reaches an entry it replaced."""
    must_not_compute(monkeypatch, "computed")
    with pytest.raises(AssertionError, match="^computed$"):
        main(list(argv))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


@contextlib.contextmanager
def unlimited_int_str():
    """Lift the interpreter's cap on str() of long ints, as main() does."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def reference_json_int(value):
    return value if -(2**63) <= value < 2**63 else str(value)


def reference_series(kind, defn, terms, fmt):
    """Exact `series` output rendered with plain f-strings and str()."""
    a = defn.offset_a
    rows = report_rows(defn, terms)
    if fmt == "csv":
        lines = ["n,F_n,T_num,T_den,S_num,S_den,R_num,R_den\n"]
        for row in rows:
            r = row.residual * a
            lines.append(
                f"{row.n},{row.F_n},{row.T.numerator},{row.T.denominator},"
                f"{row.S.numerator},{row.S.denominator},{r.numerator},{r.denominator}\n"
            )
        return "".join(lines)

    def fraction(x):
        return {"num": reference_json_int(x.numerator), "den": reference_json_int(x.denominator)}

    doc = {
        "meta": {"kind": kind, "a": a, "terms": terms, "mode": "exact", "version": __version__},
        "rows": [
            {
                "n": row.n,
                "F_n": row.F_n,
                "T": fraction(row.T),
                "S": fraction(row.S),
                "R": fraction(row.residual * a),
            }
            for row in rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def expected_output(fmt, header, lines, doc):
    """A command's output: the CSV header and lines, or the JSON document."""
    if fmt == "csv":
        return header + "".join(lines)
    return json.dumps(doc, indent=2) + "\n"


def sig(x, digits):
    return float(f"{x:.{digits}g}")


def reference_float_series(fmt, kind, defn, terms, digits):
    rows = list(float_rows(defn, terms))
    cells = [(r.n, r.F_n, sig(r.T, digits), sig(r.S, digits), sig(r.residual, digits)) for r in rows]
    meta = {"kind": kind, "a": defn.offset_a, "terms": terms, "mode": "float", "version": __version__}
    return expected_output(
        fmt,
        "n,F_n,T,S,residual\n",
        [f"{n},{f},{t},{s},{r}\n" for n, f, t, s, r in cells],
        {
            "meta": meta,
            "rows": [
                {"n": n, "F_n": f, "T": t, "S": s, "residual": r} for n, f, t, s, r in cells
            ],
        },
    )


def reference_mertens(fmt, terms, last, digits=15):
    rows = [(n, p, sig(ratio, digits)) for n, (p, ratio) in enumerate(mertens_residual(terms), 1)]
    if last:
        rows = rows[-1:]
    return expected_output(
        fmt,
        "n,p_n,ratio\n",
        [f"{n},{p},{ratio}\n" for n, p, ratio in rows],
        {
            "meta": {"terms": terms, "version": __version__},
            "rows": [{"n": n, "p_n": p, "ratio": ratio} for n, p, ratio in rows],
        },
    )


def reference_primes(fmt, key, value, primes):
    meta = {key: value, "version": __version__}
    return expected_output(
        fmt, "p\n", [f"{p}\n" for p in primes], {"meta": meta, "primes": primes}
    )


def reference_twins(fmt, limit):
    pairs = [[p.lesser, p.greater] for p in twin_pairs_up_to(limit)]
    return expected_output(
        fmt,
        "lesser,greater\n",
        [f"{lo},{hi}\n" for lo, hi in pairs],
        {"meta": {"limit": limit, "version": __version__}, "pairs": pairs},
    )


def reference_kconst(limit):
    estimate = estimate_K(limit, "hl-tail")
    pp = partial_product(limit)
    return {
        "method": "hl-tail",
        "limit": limit,
        "partial": math.exp(pp.log_value),
        "tail_correction": estimate.tail_correction,
        "k_estimate": estimate.k_estimate,
        "error_estimate": estimate.error_estimate,
        "c2_used": estimate.c2_used,
        "pair_count": pp.pair_count,
        "log_partial": pp.log_value,
        "assumptions": estimate.assumptions,
    }


# argv of a command with --format, and its expected output for a format
FORMATTED_OUTPUTS = {
    "series-float": (
        ("series", "--kind", "twin", "--terms", "300", "--mode", "float"),
        lambda fmt: reference_float_series(fmt, "twin", twin_prime_definition(), 300, 15),
    ),
    "series-float-digits": (
        ("series", "--kind", "prime", "--terms", "300", "--mode", "float", "--digits", "7"),
        lambda fmt: reference_float_series(fmt, "prime", prime_definition(), 300, 7),
    ),
    # R halves to subnormals and then 0.0, and S rounds to 1.0
    "series-float-subnormal": (
        ("series", "--kind", "custom", "--seq", ",".join(["2"] * 1100), "--terms", "1100",
         "--mode", "float"),
        lambda fmt: reference_float_series(
            fmt, "custom", SeriesDefinition((2,) * 1100), 1100, 15
        ),
    ),
    # S is 0.0 and the residual 1.0
    "series-float-zero-sum": (
        ("series", "--kind", "custom", "--seq", "20000000000000000001,20000000000000000002",
         "--terms", "2", "--mode", "float"),
        lambda fmt: reference_float_series(
            fmt, "custom", SeriesDefinition((20000000000000000001, 20000000000000000002)), 2, 15
        ),
    ),
    "mertens": (
        ("mertens", "--terms", "200"),
        lambda fmt: reference_mertens(fmt, 200, last=False),
    ),
    "mertens-last": (
        ("mertens", "--terms", "200", "--last"),
        lambda fmt: reference_mertens(fmt, 200, last=True),
    ),
    "mertens-digits": (
        ("mertens", "--terms", "200", "--digits", "2"),
        lambda fmt: reference_mertens(fmt, 200, last=False, digits=2),
    ),
    "mertens-last-digits": (
        ("mertens", "--terms", "200", "--last", "--digits", "17"),
        lambda fmt: reference_mertens(fmt, 200, last=True, digits=17),
    ),
    "primes-limit": (
        ("primes", "--limit", "1000"),
        lambda fmt: reference_primes(fmt, "limit", 1000, primes_up_to(1000)),
    ),
    "primes-count": (
        ("primes", "--count", "100"),
        lambda fmt: reference_primes(fmt, "count", 100, nth_primes(100)),
    ),
    "primes-twins": (
        ("primes", "--limit", "1000", "--twins"),
        lambda fmt: reference_twins(fmt, 1000),
    ),
    # empty lists, which JSON writes as []
    "primes-limit-empty": (
        ("primes", "--limit", "1"),
        lambda fmt: reference_primes(fmt, "limit", 1, []),
    ),
    "primes-twins-empty": (
        ("primes", "--limit", "4", "--twins"),
        lambda fmt: reference_twins(fmt, 4),
    ),
}

# the float series at the ends of the --digits range, and at 15, the most
# digits every double shows unchanged
for _kind, _defn in (("prime", prime_definition()), ("twin", twin_prime_definition())):
    for _digits in (1, 15, 16, 17):
        FORMATTED_OUTPUTS[f"series-float-{_kind}-digits-{_digits}"] = (
            ("series", "--kind", _kind, "--terms", "300", "--mode", "float",
             "--digits", str(_digits)),
            lambda fmt, kind=_kind, defn=_defn, digits=_digits: reference_float_series(
                fmt, kind, defn, 300, digits
            ),
        )

# argv of a JSON-only command, its exit code and its expected document
JSON_OUTPUTS = {
    "verify-pass": (
        ("verify", "--kind", "prime", "--terms", "200"),
        0,
        lambda: {
            "status": "pass",
            "kind": "prime",
            "terms": 200,
            "checks": ["residual", "recursion", "totient-primorial"],
        },
    ),
    "verify-tamper": (
        ("verify", "--kind", "prime", "--terms", "200", "--tamper-index", "7"),
        1,
        # a tampered T_k leaves S_k and R_k, so the recursion breaks first
        lambda: {"status": "fail", "identity": "recursion", "index": 7},
    ),
    "verify-random": (
        ("verify", "--random", "5", "--seed", "99"),
        0,
        lambda: {
            "status": "pass",
            "random_instances": 5,
            "seed": 99,
            "checks": ["residual", "recursion"],
        },
    ),
    "kconst": (("kconst", "--limit", "1e5"), 0, lambda: reference_kconst(10**5)),
}


class TestParseLimit:
    def test_plain_and_scientific(self):
        assert parse_limit("100") == 100
        assert parse_limit("1e8") == 10**8
        assert parse_limit("2.5e3") == 2500

    def test_rejects_fractional_and_negative(self):
        import argparse

        for bad in ("2.5", "-3", "1e200", "abc"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_limit(bad)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1e400", "exceeds supported cap"),
            ("inf", "exceeds supported cap"),
            ("-1e400", "must be nonnegative"),
            ("-inf", "must be nonnegative"),
            ("nan", "invalid limit 'nan'"),
            ("-NaN", "invalid limit '-NaN'"),
        ],
    )
    def test_non_finite_float_values(self, capsys, text, message):
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            parse_limit(text)
        code, out, err = run_cli(capsys, "primes", f"--limit={text}")
        assert (code, out) == (2, "")
        assert message in err


class TestIntegerFlags:
    """The integer flags (--terms, --count, --a, --digits, --random,
    --tamper-index) read text as --limit does."""

    def test_scientific_terms_and_count(self, capsys):
        args = build_parser().parse_args(["series", "--kind", "twin", "--terms", "2e5"])
        assert args.terms == 200_000
        code, out, _ = run_cli(capsys, "primes", "--count", "1e1")
        assert (code, out) == run_cli(capsys, "primes", "--count", "10")[:2]
        code, out, err = run_cli(capsys, "series", "--kind", "prime", "--terms", "2e5")
        assert (code, out) == (2, "")
        assert "200000 exact terms exceed the depth guard" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("abc", "invalid integer 'abc'"),
            ("2.5", "invalid integer '2.5'"),
            ("nan", "invalid integer 'nan'"),
            ("0", "value must be at least 1"),
            ("-1e3", "value must be at least 1"),
        ],
    )
    def test_rejected_text_keeps_its_message(self, capsys, text, message):
        code, out, err = run_cli(capsys, "series", "--kind", "prime", f"--terms={text}")
        assert (code, out) == (2, "")
        assert f"argument --terms: {message}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("brun", "--limit", "10"),
            ("series", "--kind", "prime", "--terms", "3", "--mode", "float"),
            ("mertens", "--terms", "3"),
        ],
    )
    @pytest.mark.parametrize("text", ["1e30", str(decimal.MAX_PREC + 1)])
    def test_digits_above_max_prec_rejected_before_computing(
        self, capsys, monkeypatch, argv, text
    ):
        must_not_compute(monkeypatch, "computed with an unusable --digits")
        code, out, err = run_cli(capsys, *argv, "--digits", text)
        assert (code, out) == (2, "")
        assert f"argument --digits: digits exceed the maximum {decimal.MAX_PREC}" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("primes", "--count"), "count"),
            (("series", "--kind", "twin", "--mode", "float", "--terms"), "terms"),
            (("series", "--kind", "prime", "--terms"), "terms"),
            (("verify", "--terms"), "terms"),
            (("mertens", "--terms"), "terms"),
        ],
    )
    @pytest.mark.parametrize("text", ["1e19", "inf", str(sys.maxsize + 1)])
    def test_counts_above_maxsize_rejected_before_computing(
        self, capsys, monkeypatch, argv, flag, text
    ):
        must_not_compute(monkeypatch, "computed with an unusable count")
        code, out, err = run_cli(capsys, *argv, text)
        assert (code, out) == (2, "")
        assert f"argument --{flag}: count exceeds the maximum {sys.maxsize}" in err

    @settings(max_examples=300, deadline=None)
    @given(
        digits=st.integers(0, 10**40),
        point=st.integers(0, 25),
        exponent=st.integers(-60, 60),
        sign=st.sampled_from(["", "+", "-"]),
        marker=st.sampled_from(["e", "E", "e+"]),
    )
    @example(digits=50000000000000000001, point=0, exponent=-16, sign="", marker="e")
    @example(digits=10000000000000001, point=0, exponent=0, sign="", marker="e")
    @example(digits=1, point=0, exponent=30, sign="", marker="e")
    def test_scientific_notation_is_read_exactly(self, digits, point, exponent, sign, marker):
        """m.de±k is read as the exact m.d * 10**k, and refused unless
        that is an integer: --limit refuses it as --limit refuses the
        integer's digits, and an integer argument takes it as the integer."""
        if marker == "e+" and exponent < 0:
            marker = "e"
        whole = str(digits).rjust(point + 1, "0")
        mantissa = f"{whole[: len(whole) - point]}.{whole[len(whole) - point:]}" if point else whole
        text = f"{sign}{mantissa}{marker}{exponent}"
        value = Fraction(-digits if sign == "-" else digits) * Fraction(10) ** (exponent - point)
        if value.denominator != 1:
            assert outcome(parse_limit, text) == (
                argparse.ArgumentTypeError, f"limit {text!r} is not an integer")
            assert outcome(_integer, text) == (argparse.ArgumentTypeError,
                                               f"invalid integer {text!r}")
        else:
            assert outcome(parse_limit, text) == outcome(parse_limit, str(value.numerator))
            assert _integer(text) == value.numerator

    def test_non_integer_scientific_terms_are_refused(self, capsys, monkeypatch):
        must_not_compute(monkeypatch, "computed with a fraction of a term")
        text = "50000000000000000001e-16"  # 5000.0000000000000001
        code, out, err = run_cli(capsys, "series", "--kind", "prime", "--terms", text)
        assert (code, out) == (2, "")
        assert f"argument --terms: invalid integer {text!r}" in err

    def test_scientific_terms_are_not_rounded(self, capsys):
        code, out, err = run_cli(capsys, "series", "--kind", "prime", "--terms",
                                 "10000000000000001e0")
        assert (code, out) == (2, "")
        assert "10000000000000001 exact terms exceed the depth guard" in err

    @pytest.mark.parametrize(
        "text, limit, seed",
        [
            ("1e999999999999", "limit exceeds supported cap", "invalid integer"),
            ("-1e999999999999", "limit must be nonnegative", "invalid integer"),
            ("0e999999999999", 0, 0),
            ("-0e-999999999999", 0, 0),
            ("1e-999999999999", "is not an integer", "invalid integer"),
            ("inf", "limit exceeds supported cap", "invalid integer"),
            ("1e9999999999999999999", "invalid limit", "invalid integer"),
        ],
    )
    def test_huge_exponents_build_no_huge_number(self, text, limit, seed):
        """A number of more than a few thousand digits is beyond every
        bound of --limit, and refused where no bound applies, as an
        infinity is; an exponent beyond decimal's is no number."""
        for parse, expected in ((parse_limit, limit), (_integer, seed)):
            if isinstance(expected, int):
                assert parse(text) == expected
            else:
                with pytest.raises(argparse.ArgumentTypeError, match=expected):
                    parse(text)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("verify", "--random", "1", "--seed"), "seed"),
            (("verify", "--random"), "random"),
            (("series", "--kind", "custom", "--seq", "2,3", "--terms", "2", "--a"), "a"),
        ],
    )
    @pytest.mark.parametrize("text", ["1" + "0" * 4300, "-" + "9" * 4301, "1_" + "0" * 4300],
                             ids=["10^4300", "-(10^4301-1)", "1_0...0"])
    def test_plain_integers_of_more_than_4300_digits_are_refused(
        self, capsys, monkeypatch, argv, flag, text
    ):
        """The digit rule holds for plain digits as for 1e4301, although
        main lifts the interpreter's own limit on int() of long texts."""
        must_not_compute(monkeypatch, "computed with a number of more than 4300 digits")
        code, out, err = run_cli(capsys, *argv, text)
        assert (code, out) == (2, "")
        assert f"argument --{flag}: invalid integer" in err

    @pytest.mark.parametrize("text, seed", [("9" * 4300, 10**4300 - 1), ("0" * 5000 + "7", 7)],
                             ids=["10^4300-1", "0...07"])
    def test_seeds_of_4300_digits_are_taken(self, capsys, text, seed):
        code, out, _ = run_cli(capsys, "verify", "--random", "1", "--seed", text)
        with unlimited_int_str():
            assert (code, json.loads(out)["seed"]) == (0, seed)

    def test_counts_accept_maxsize(self):
        parse = build_parser().parse_args
        assert parse(["primes", "--count", str(sys.maxsize)]).count == sys.maxsize
        assert parse(["mertens", "--terms", str(sys.maxsize)]).terms == sys.maxsize

    @pytest.mark.parametrize(
        "argv",
        [
            ("series", "--kind", "twin", "--terms", "60", "--mode", "float"),
            ("mertens", "--terms", "60"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("digits", ["18", "40", "1000", "1e5", str(decimal.MAX_PREC)])
    def test_float_cells_past_17_digits_are_those_of_17(self, capsys, argv, fmt, digits):
        # a double has at most 17 significant digits
        reference = run_cli(capsys, *argv, "--format", fmt, "--digits", "17")
        assert reference[0] == 0
        assert run_cli(capsys, *argv, "--format", fmt, "--digits", digits) == reference

    def test_digits_accepts_max_prec(self):
        argv = ["brun", "--limit", "10", "--digits", str(decimal.MAX_PREC)]
        assert build_parser().parse_args(argv).digits == decimal.MAX_PREC


PRIMES_ORACLE_LIMIT = 3000
PRIMES_ORACLE = trial_division_primes(PRIMES_ORACLE_LIMIT)


class TestPrimesCommand:
    def test_csv_limit(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--limit", "30", "--format", "csv")
        assert code == 0
        rows = [int(r["p"]) for r in parse_csv(out)]
        assert rows == primes_up_to(30)

    def test_scientific_limit_equals_plain(self, capsys):
        _, out_sci, _ = run_cli(capsys, "primes", "--limit", "1e2")
        _, out_plain, _ = run_cli(capsys, "primes", "--limit", "100")
        assert out_sci == out_plain

    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--count", "5", "--format", "json")
        assert code == 0
        assert json.loads(out)["primes"] == [2, 3, 5, 7, 11]

    def test_twin_pairs(self, capsys):
        code, out, _ = run_cli(
            capsys, "primes", "--limit", "20", "--twins", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["pairs"] == [[3, 5], [5, 7], [11, 13], [17, 19]]

    def test_limit_and_count_conflict(self, capsys):
        code, _, _ = run_cli(capsys, "primes", "--limit", "10", "--count", "3")
        assert code == 2

    @settings(max_examples=60, deadline=None)
    @given(
        limit=st.integers(0, PRIMES_ORACLE_LIMIT),
        segment_size=st.sampled_from([64, 65, 101]),
        twins=st.booleans(),
    )
    @example(limit=643, segment_size=64, twins=True)  # (641, 643) straddles a boundary
    @example(limit=523, segment_size=65, twins=True)  # (521, 523) too
    def test_csv_chunks_across_segments_match_reference(self, limit, segment_size, twins):
        primes = [p for p in PRIMES_ORACLE if p <= limit]
        if twins:
            twin = set(primes)
            expected = "lesser,greater\n" + "".join(
                f"{p},{p + 2}\n" for p in primes if p + 2 in twin
            )
        else:
            expected = "p\n" + "".join(f"{p}\n" for p in primes)
        argv = ["primes", "--limit", str(limit), *(["--twins"] if twins else [])]
        with patched_segment_size(segment_size), contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_twins_with_count_is_usage_error(self, capsys, fmt):
        code, out, err = run_cli(capsys, "primes", "--count", "5", "--twins", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "--limit" in err


class TestSeriesCommand:
    def test_prime_terms_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--kind", "prime", "--terms", "3", "--format", "csv"
        )
        assert code == 0
        rows = parse_csv(out)
        terms = [Fraction(int(r["T_num"]), int(r["T_den"])) for r in rows]
        assert terms == [Fraction(1, 2), Fraction(1, 6), Fraction(1, 15)]

    def test_twin_terms(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--kind", "twin", "--terms", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["a"] == 2
        terms = [Fraction(r["T"]["num"], r["T"]["den"]) for r in doc["rows"]]
        assert terms == [Fraction(1, 3), Fraction(1, 15)]

    def test_custom_comma_list_telescopes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "series",
            "--kind",
            "custom",
            "--a",
            "1",
            "--seq",
            "2,3,4,5",
            "--terms",
            "4",
            "--format",
            "json",
        )
        assert code == 0
        last = json.loads(out)["rows"][-1]
        assert Fraction(last["S"]["num"], last["S"]["den"]) == Fraction(4, 5)

    def test_custom_rule_matches_comma_list(self, capsys):
        _, out_rule, _ = run_cli(
            capsys, "series", "--kind", "custom", "--seq", "2:1", "--terms", "4"
        )
        _, out_list, _ = run_cli(
            capsys, "series", "--kind", "custom", "--seq", "2,3,4,5", "--terms", "4"
        )
        assert out_rule == out_list

    def test_csv_json_round_trip_exact(self, capsys):
        args = ("series", "--kind", "prime", "--terms", "6")
        _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        doc = json.loads(out_json)
        for csv_row, json_row in zip(parse_csv(out_csv), doc["rows"]):
            for column, key in (("T", "T"), ("S", "S"), ("R", "R")):
                from_csv = Fraction(
                    int(csv_row[f"{column}_num"]), int(csv_row[f"{column}_den"])
                )
                from_json = Fraction(json_row[key]["num"], json_row[key]["den"])
                assert from_csv == from_json

    def test_csv_json_round_trip_float(self, capsys):
        args = ("series", "--kind", "twin", "--terms", "8", "--mode", "float")
        _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        doc = json.loads(out_json)
        for csv_row, json_row in zip(parse_csv(out_csv), doc["rows"]):
            for key in ("T", "S", "residual"):
                assert float(csv_row[key]) == json_row[key]

    def test_float_mode_matches_exact(self, capsys):
        _, out_float, _ = run_cli(
            capsys, "series", "--kind", "prime", "--terms", "12", "--mode", "float"
        )
        _, out_exact, _ = run_cli(
            capsys, "series", "--kind", "prime", "--terms", "12"
        )
        float_rows = parse_csv(out_float)
        exact_rows = parse_csv(out_exact)
        for f_row, e_row in zip(float_rows, exact_rows):
            exact_S = Fraction(int(e_row["S_num"]), int(e_row["S_den"]))
            assert float(f_row["S"]) == pytest.approx(float(exact_S), rel=1e-12)

    def test_digits_control_float_rendering(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "series",
            "--kind",
            "prime",
            "--terms",
            "3",
            "--mode",
            "float",
            "--digits",
            "3",
        )
        row = parse_csv(out)[1]
        assert row["T"] == "0.167"

    def test_custom_requires_seq(self, capsys):
        code, _, err = run_cli(capsys, "series", "--kind", "custom", "--terms", "3")
        assert code == 2
        assert "--seq" in err

    @pytest.mark.parametrize("seq, item", [("2,,3", "''"), ("3:1e2", "'1e2'"), ("", "''")])
    def test_bad_seq_item_is_named(self, capsys, seq, item):
        code, out, err = run_cli(capsys, "series", "--kind", "custom", "--seq", seq, "--terms", "2")
        assert code == 2
        assert out == ""
        assert f"--seq item {item} is not a decimal integer" in err
        assert "invalid literal" not in err

    def test_sequence_shorter_than_terms(self, capsys):
        code, _, _ = run_cli(
            capsys, "series", "--kind", "custom", "--seq", "2,3", "--terms", "5"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("verify", "--seq", "4,6,8", "--terms", "3"), "--seq"),
            (("verify", "--kind", "twin", "--a", "2"), "--a"),
            (("series", "--kind", "twin", "--a", "5", "--terms", "3"), "--a"),
            (("series", "--kind", "prime", "--seq", "2,3", "--terms", "2", "--mode", "float"),
             "--seq"),
            (("series", "--kind", "square-free", "--a", "1", "--seq", "5,6", "--terms", "2"),
             "--seq"),
        ],
    )
    def test_seq_and_a_need_the_custom_kind(self, capsys, monkeypatch, argv, flag):
        must_not_compute(monkeypatch, "computed with an ignored --seq or --a")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {flag} needs --kind custom\n")

    @pytest.mark.parametrize("mode", [(), ("--mode", "exact")])
    def test_digits_needs_float_mode(self, capsys, monkeypatch, mode):
        must_not_compute(monkeypatch, "computed with an ignored --digits")
        code, out, err = run_cli(capsys, "series", "--kind", "prime", "--terms", "3", *mode,
                                 "--digits", "5")
        assert (code, out, err) == (2, "", "error: --digits needs --mode float\n")

    def test_custom_a_defaults_to_1(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--kind", "custom", "--seq", "2,3", "--terms", "2",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["a"] == 1

    def test_depth_guard_suggests_float_mode(self, capsys):
        code, _, err = run_cli(
            capsys, "series", "--kind", "prime", "--terms", "6000"
        )
        assert code == 2
        assert "--mode float" in err

    def test_value_beyond_float_range_suggests_exact_mode(self, capsys):
        huge = "1" * 401
        args = ("series", "--kind", "custom", "--seq", f"2,{huge}", "--terms", "2")
        code, out, err = run_cli(capsys, *args, "--mode", "float")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert huge in err
        assert "--mode exact" in err
        assert run_cli(capsys, *args, "--mode", "exact")[0] == 0

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys,
            "series",
            "--kind",
            "prime",
            "--terms",
            "2",
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("n,F_n,")


# n of exactly `bits` bits, random below the top bit
WIDE_INTS = st.builds(
    lambda bits, seed: random.Random(seed).getrandbits(bits) | 1 << (bits - 1),
    st.integers(200, 300_000),
    st.integers(0, 2**32),
)


class TestStreaming:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "entry, argv",
        [
            ("iter_states", ("--kind", "prime")),
            ("iter_states", ("--kind", "custom", "--a", "2", "--seq", "3,5,7,9")),
            ("float_rows", ("--kind", "twin", "--mode", "float")),
        ],
    )
    def test_each_row_is_written_before_the_next_is_drawn(self, monkeypatch, fmt, entry, argv):
        stdout = io.StringIO()
        written = []  # the output so far, as each row is drawn
        compute = getattr(sievesum.engine, entry)

        def watched(defn, n_terms):
            for row in compute(defn, n_terms):
                written.append(stdout.getvalue())
                yield row

        monkeypatch.setattr(sievesum.engine, entry, watched)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["series", *argv, "--terms", "4", "--format", fmt]) == 0
        assert written[0] == ""
        marker = "\n{}," if fmt == "csv" else '"n": {},'
        for k in (1, 2, 3):
            assert stdout.getvalue().startswith(written[k])
            assert marker.format(k) in written[k] and marker.format(k + 1) not in written[k]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--kind", "prime", "--terms", "6000"), "exceed the depth guard"),
            (("--kind", "custom", "--a", "3", "--seq", "3:1", "--terms", "3"),
             "sequence value 3 makes the term undefined"),
            (("--kind", "custom", "--a", "3", "--seq", "3:1", "--terms", "3", "--mode", "float"),
             "sequence value 3 makes the term undefined"),
            (("--kind", "custom", "--a", "3", "--seq", "5,7,3", "--terms", "3"),
             "sequence value 3 makes the term undefined"),
        ],
    )
    def test_error_in_the_first_row_writes_nothing(self, capsys, fmt, argv, message):
        code, out, err = run_cli(capsys, "series", *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("seq", ["3:2", "3,5,7,9"])
    def test_custom_float_rows_stream(self, monkeypatch, seq):
        stdout = io.StringIO()
        written = []  # the output so far, as each row is drawn
        compute = sievesum.engine.float_rows

        def watched(defn, n_terms):
            for row in compute(defn, n_terms):
                written.append(stdout.getvalue())
                yield row

        monkeypatch.setattr(sievesum.engine, "float_rows", watched)
        monkeypatch.setattr(sys, "stdout", stdout)
        argv = ["series", "--kind", "custom", "--a", "2", "--seq", seq, "--terms", "4",
                "--mode", "float"]
        assert main(argv) == 0
        assert [text.count("\n") for text in written] == [0, 2, 3, 4]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    # the value on row 2: the huge one, or the rule's start plus its huge step
    @pytest.mark.parametrize("seq, row_2", [("2,{},3", 0), ("2:{}", 2)], ids=["list", "rule"])
    def test_value_beyond_float_range_on_row_2_writes_nothing(self, capsys, tmp_path, fmt, seq,
                                                               row_2):
        step = "1" * 401
        huge = int(step) + row_2
        target = tmp_path / "rows"
        target.write_text("keep me\n")
        argv = ("series", "--kind", "custom", "--seq", seq.format(step), "--terms", "3",
                "--mode", "float", "--format", fmt)
        for output in ((), ("--output", str(target))):
            code, out, err = run_cli(capsys, *argv, *output)
            assert (code, out) == (2, "")
            assert err == f"error: sequence value {huge} is too large for a float; use --mode exact\n"
        assert target.read_text() == "keep me\n"
        assert os.listdir(tmp_path) == ["rows"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_primes_count_writes_each_list_before_the_next_is_drawn(self, monkeypatch, fmt):
        stdout = io.StringIO()
        written = []  # the length of the output so far, as each prime is drawn
        compute = sievesum.cli.iter_primes

        def watched():
            for p in compute():
                written.append(stdout.tell())
                yield p

        monkeypatch.setattr(sievesum.cli, "iter_primes", watched)
        monkeypatch.setattr(sys, "stdout", stdout)
        block = 1 << 16  # the primes of one list
        assert main(["primes", "--count", str(2 * block + 1), "--format", fmt]) == 0
        primes = nth_primes(2 * block)
        out = stdout.getvalue()
        assert written[block - 1] == 0
        for k in (1, 2):  # the output ends in the last prime of list k
            assert out[: written[k * block]].split()[-1] == str(primes[k * block - 1])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_mertens_writes_each_window_before_the_next_is_drawn(self, monkeypatch, fmt):
        stdout = io.StringIO()
        written = []  # the output so far, as each prime is drawn
        compute = sievesum.series.iter_primes

        def watched():
            for p in compute():
                written.append(stdout.getvalue())
                yield p

        window = 64
        monkeypatch.setattr(sievesum.series, "iter_primes", watched)
        monkeypatch.setattr(sievesum.series, "_MERTENS_WINDOW", window)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["mertens", "--terms", str(2 * window + 1), "--format", fmt]) == 0
        assert written[window - 1] == ""
        marker = "\n{}," if fmt == "csv" else '"n": {},'
        for k in (1, 2):  # as window k + 1 is drawn, the rows of window k are out
            assert stdout.getvalue().startswith(written[k * window])
            assert marker.format(k * window) in written[k * window]
            assert marker.format(k * window + 1) not in written[k * window]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_renders_the_first_chunk_before_any_byte(self, monkeypatch, fmt):
        def failing_first():
            raise RuntimeError("row 1 failed")
            yield

        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        args = argparse.Namespace(output=None, format=fmt)
        with pytest.raises(RuntimeError, match="row 1 failed"):
            _emit(args, {}, "rows", "a,b\n", failing_first())
        assert stdout.getvalue() == ""


# float-row commands over several chunks of POOL_TEST_CHUNK rows; the
# custom one ends in subnormal residuals, 0.0 and 1.0, which take the
# slow template at every --digits
POOL_TEST_CHUNK = 64
POOLED_CASES = {
    "twin": ("series", "--kind", "twin", "--mode", "float", "--terms", "700"),
    "prime": ("series", "--kind", "prime", "--mode", "float", "--terms", "700"),
    "custom": ("series", "--kind", "custom", "--seq", ",".join(["2"] * 1100), "--mode", "float",
               "--terms", "1100"),
    "mertens": ("mertens", "--terms", "700"),
}


def use_pool(monkeypatch, chunk_rows):
    """Render float rows in chunks of `chunk_rows` on a worker process and
    the command's own from two chunks on, as on a host with two usable
    CPUs. The `forked` fixture records the workers started."""
    monkeypatch.setattr(sievesum.render, "_CHUNK_ROWS", chunk_rows)
    monkeypatch.setattr(sievesum.render, "_POOL_MIN_CHUNKS", 2)
    monkeypatch.setattr(sievesum.sieve, "_usable_cpus", lambda: 2)


class TestPooledFloatRows:
    @pytest.mark.parametrize("digits", [1, 15, 16, 17])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", POOLED_CASES)
    def test_output_is_the_serial_output(self, capsys, monkeypatch, forked, case, fmt, digits):
        argv = (*POOLED_CASES[case], "--format", fmt, "--digits", str(digits))
        serial = run_cli(capsys, *argv)
        use_pool(monkeypatch, POOL_TEST_CHUNK)
        assert run_cli(capsys, *argv) == serial
        assert len(forked) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_file_is_the_serial_one(self, capsys, monkeypatch, forked, tmp_path, fmt):
        argv = (*POOLED_CASES["twin"], "--format", fmt)
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        pooled.write_text("replaced\n")
        assert run_cli(capsys, *argv, "--output", str(serial)) == (0, "", "")
        use_pool(monkeypatch, POOL_TEST_CHUNK)
        assert run_cli(capsys, *argv, "--output", str(pooled)) == (0, "", "")
        assert len(forked) == 1
        assert pooled.read_bytes() == serial.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["pooled", "serial"]

    def test_rows_drawn_ahead_of_the_output_are_bounded(self, monkeypatch, forked):
        chunk = 16
        use_pool(monkeypatch, chunk)
        stdout = io.StringIO()
        ahead = []  # rows drawn and not yet written, as each row is drawn
        compute = sievesum.engine.float_rows

        def watched(defn, n_terms):
            for row in compute(defn, n_terms):
                written = max(stdout.getvalue().count("\n") - 1, 0)  # less the header
                ahead.append(row.n - 1 - written)
                yield row

        monkeypatch.setattr(sievesum.engine, "float_rows", watched)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["series", "--kind", "twin", "--mode", "float", "--terms", "500"]) == 0
        assert len(forked) == 1
        assert stdout.getvalue().count("\n") == 501
        # the command draws a chunk only while fewer than _DRAWN_AHEAD = 12
        # are out, and it draws 11 more before the worker's first text is back
        assert 11 * chunk < max(ahead) < 12 * chunk

    @pytest.mark.parametrize("cpus, terms, fork", [(1, 500, True), (2, 2 * 16 - 1, True),
                                                   (2, 500, False)],
                             ids=["one-cpu", "below-two-chunks", "no-fork"])
    def test_no_pool_with_one_cpu_or_few_rows(self, capsys, monkeypatch, forked, cpus, terms,
                                              fork):
        use_pool(monkeypatch, 16)
        monkeypatch.setattr(sievesum.sieve, "_usable_cpus", lambda: cpus)
        if not fork:
            monkeypatch.delattr(os, "fork")
        code, out, _ = run_cli(capsys, "series", "--kind", "twin", "--mode", "float",
                               "--terms", str(terms))
        assert (code, forked) == (0, [])
        assert out == reference_float_series("csv", "twin", twin_prime_definition(), terms, 15)

    def test_workers_ignore_ctrl_c(self, forked):
        chunks = [[k] for k in range(64)]
        drawn = []  # the chunks drawn so far

        def render(chunk):  # by the command or a worker, as its pid tells
            return f"{os.getpid()} {chunk}"

        def counted():
            for chunk in chunks:
                drawn.append(chunk)
                yield chunk

        texts = map(lambda text: text.split(" ", 1), sievesum.render._pooled(render, counted(), 2))
        rendered = [next(texts)]
        # until each worker started has answered, and so ignores SIGINT
        while not {int(pid) for pid, _ in rendered} >= set(forked):
            rendered.append(next(texts))
        signalled, after = list(forked), len(drawn)
        for pid in signalled:
            os.kill(pid, signal.SIGINT)
        rendered += texts
        assert [chunk for _, chunk in rendered] == [repr(chunk) for chunk in chunks]
        # a worker answered a chunk drawn after the signal: it lived on
        assert {int(pid) for pid, _ in rendered[after:]} & set(signalled)
        assert_no_child_left()

    def test_a_killed_worker_is_an_error_not_a_hang(self, forked):
        def chunks():
            yield [0]  # the worker is started and sent it
            os.kill(forked[0], signal.SIGKILL)
            yield from ([k] for k in range(1, 8))

        texts = sievesum.render._pooled(repr, chunks(), 1)
        error = f"a child process ended with exit code {-signal.SIGKILL} before it answered$"
        with pytest.raises(ChildProcessError, match=error):
            list(texts)
        assert_no_child_left()

    def test_never_more_than_two_workers(self, capsys, monkeypatch, forked):
        use_pool(monkeypatch, 16)
        monkeypatch.setattr(sievesum.sieve, "_usable_cpus", lambda: 64)
        assert run_cli(capsys, *POOLED_CASES["twin"])[0] == 0
        assert len(forked) == 2

    @pytest.mark.parametrize("cpus, workers", [(2, 1), (3, 2)])
    def test_a_worker_for_each_cpu_but_the_commands(self, capsys, monkeypatch, forked, cpus,
                                                     workers):
        use_pool(monkeypatch, 16)
        monkeypatch.setattr(sievesum.sieve, "_usable_cpus", lambda: cpus)
        assert run_cli(capsys, *POOLED_CASES["twin"])[0] == 0
        assert len(forked) == workers


# Runs sievesum.cli.main(argv) in a fresh interpreter, as on a host with
# CPUS usable CPUs (default two), and then writes to stderr the exit code
# (or "interrupted", should main let KeyboardInterrupt through), the number
# of pools made and whether a child process is left (1) or not (0). With
# FAIL_AT=k, drawing float row k raises FAIL_WITH, ValueError or
# KeyboardInterrupt, or, with FAIL_WITH=SIGKILL, kills the first worker.
POOL_SCRIPT = textwrap.dedent("""
    import builtins, os, signal, sys
    import sievesum.cli as cli, sievesum.engine as engine, sievesum.render as render
    import sievesum.sieve as sieve

    sieve._usable_cpus = lambda: int(os.environ.get("CPUS", "2"))
    pools, pooled, compute, fork, workers = [], render._pooled, engine.float_rows, os.fork, []
    fail_at = int(os.environ.get("FAIL_AT", "0"))

    def counted(*args):
        pools.append(args)
        return pooled(*args)

    def recorded():
        pid = fork()
        workers.append(pid)
        return pid

    def failing(defn, n_terms):
        for row in compute(defn, n_terms):
            if row.n == fail_at and os.environ["FAIL_WITH"] == "SIGKILL":
                os.kill(workers[0], signal.SIGKILL)
            elif row.n == fail_at:
                raise getattr(builtins, os.environ["FAIL_WITH"])(f"row {fail_at} failed")
            yield row

    render._pooled, engine.float_rows, os.fork = counted, failing, recorded
    try:
        code = cli.main(sys.argv[1:])
    except KeyboardInterrupt:
        code = "interrupted"
    try:
        os.waitpid(-1, os.WNOHANG)
        left = 1
    except ChildProcessError:
        left = 0
    print(code, len(pools), left, file=sys.stderr)
""")

# above the row count from which the pool renders
POOLED_ARGV = ("series", "--kind", "twin", "--mode", "float", "--terms", "40000")


def run_pool_script(argv, after_first=None, **env):
    """The exit code and stderr of POOL_SCRIPT on argv, run in a process
    group of its own with warnings as errors (so a warning about fork in a
    threaded process fails). With after_first, stdout is read up to its
    first bytes, after_first(pid) is called, and stdout is closed. stderr
    is read to its end, which comes only when every process holding it has
    exited, workers included."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **env)
    read_fd, write_fd = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-c", POOL_SCRIPT, *argv],
        stdout=write_fd if after_first else subprocess.DEVNULL, stderr=subprocess.PIPE,
        env=env, text=True, start_new_session=True,
    )
    os.close(write_fd)
    try:
        if after_first:
            assert os.read(read_fd, 100)
            after_first(proc.pid)
        os.close(read_fd)
        _, err = proc.communicate(timeout=120)
    finally:
        with contextlib.suppress(ProcessLookupError):  # whatever is left of the group
            os.killpg(proc.pid, signal.SIGKILL)
    return proc.returncode, err


class TestNoWorkerOutlivesTheCommand:
    @pytest.mark.parametrize("after_first, result", [
        (lambda pid: None, (0, "0 1 0\n")),
        (lambda pid: os.kill(pid, signal.SIGKILL), (-signal.SIGKILL, "")),
        # Ctrl-C signals the whole process group: no worker may print a
        # traceback, and the command writes one line and exits 130
        (lambda pid: os.killpg(pid, signal.SIGINT), (0, "error: interrupted\n130 1 0\n")),
    ], ids=["stdout-closed", "killed", "ctrl-c"])
    def test_mid_stream(self, after_first, result):
        argv = (*POOLED_ARGV[:-1], "1000000")
        assert run_pool_script(argv, after_first) == result

    def test_two_workers_end_with_a_killed_command(self):
        argv = (*POOLED_ARGV[:-1], "1000000")
        result = run_pool_script(argv, lambda pid: os.kill(pid, signal.SIGKILL), CPUS="3")
        assert result == (-signal.SIGKILL, "")

    @pytest.mark.parametrize("fail_with, report", [
        ("ValueError", "error: row 20000 failed\n2 1 0\n"),
        ("KeyboardInterrupt", "error: interrupted\n130 1 0\n"),
        ("SIGKILL", "error: a child process ended with exit code -9 before it answered\n1 1 0\n"),
    ])
    def test_error_mid_stream(self, fail_with, report):
        assert run_pool_script(POOLED_ARGV, FAIL_AT="20000", FAIL_WITH=fail_with) == (0, report)

    def test_output_file_replaced(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "rows.csv"
        target.write_text("replaced\n")
        assert run_pool_script((*POOLED_ARGV, "--output", str(target))) == (0, "0 1 0\n")
        monkeypatch.setattr(sievesum.sieve, "_usable_cpus", lambda: 1)
        assert run_cli(capsys, *POOLED_ARGV)[1] == target.read_text()
        assert os.listdir(tmp_path) == ["rows.csv"]

    def test_output_file_kept_after_an_error_mid_stream(self, tmp_path):
        target = tmp_path / "rows.csv"
        target.write_text("keep me\n")
        argv = (*POOLED_ARGV, "--output", str(target))
        report = "error: row 20000 failed\n2 1 0\n"
        assert run_pool_script(argv, FAIL_AT="20000", FAIL_WITH="ValueError") == (0, report)
        assert target.read_text() == "keep me\n"
        assert os.listdir(tmp_path) == ["rows.csv"]

    def test_output_file_kept_after_ctrl_c(self, tmp_path):
        target = tmp_path / "rows.csv"
        target.write_text("keep me\n")
        argv = (*POOLED_ARGV, "--output", str(target))
        report = "error: interrupted\n130 1 0\n"
        assert run_pool_script(argv, FAIL_AT="20000", FAIL_WITH="KeyboardInterrupt") == (0, report)
        assert target.read_text() == "keep me\n"
        assert os.listdir(tmp_path) == ["rows.csv"]

    def test_ctrl_c_without_workers(self, capsys, monkeypatch):
        def interrupted(*args):
            raise KeyboardInterrupt
            yield

        monkeypatch.setattr(sievesum.engine, "float_rows", interrupted)
        assert run_cli(capsys, "series", "--kind", "twin", "--mode", "float", "--terms", "5") == (
            130, "", "error: interrupted\n"
        )


# the commands of the README's CLI example block, each without "sievesum"
README_COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for line in re.search(
        r"^## CLI\n.*?^```\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
    ).group(1).splitlines()
    if line.startswith("sievesum ")
]


class TestReadmeExamples:
    def test_the_block_has_every_subcommand(self):
        subcommands = {"primes", "series", "verify", "kconst", "brun", "mertens"}
        assert {argv[0] for argv in README_COMMANDS} == subcommands

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_example_runs(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out


class TestExactDecimal:
    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.integers(0, 2**260), WIDE_INTS))
    @example(n=0)
    @example(n=2**128 - 1)
    @example(n=2**128)
    @example(n=2**128 + 1)
    @example(n=2**2048 - 1)
    @example(n=2**2048)
    @example(n=2**2048 + 1)
    @example(n=2**300_000 - 1)
    def test_str_matches_str_of_the_int(self, n):
        with unlimited_int_str():
            assert str(*_exact_decimals(n)) == str(n)

    @settings(max_examples=20, deadline=None)
    @given(ns=st.lists(st.one_of(st.integers(0, 2**5000), WIDE_INTS), max_size=4))
    @example(ns=[2**300_000 - 1, 3**180_000, 2**4097 + 1, 0])
    def test_values_sharing_the_powers_of_two_each_match(self, ns):
        with unlimited_int_str():
            assert list(map(str, _exact_decimals(*ns))) == list(map(str, ns))


def json_int_cells(state):
    """reference_json_int of a state's T, S and R numerators and
    denominators, from its own Fractions."""
    values = (state.T_k, state.S_k, state.R_k)
    return [reference_json_int(v) for x in values for v in (x.numerator, x.denominator)]


# where JSON switches from int to string, and the decimal lengths around it
THRESHOLDS = (2**63 - 1, 10**18, 10**19)


class TestDecimalJsonInt:
    @pytest.mark.parametrize("delta", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_matches_reference_at_the_int64_edge(self, threshold, delta):
        n = threshold + delta
        cell = _decimal_json_int(*_exact_decimals(n))
        assert cell == reference_json_int(n) and type(cell) is type(reference_json_int(n))


def exact_cells_of(values, a):
    """The cells _exact_cells gives for the states of `values`, and the
    states, after checking that it gives each state's k and F_k with them."""
    states = list(iter_states(SeriesDefinition(tuple(values), offset_a=a), len(values)))
    rows = list(_exact_cells(states, a))
    assert [(k, f) for k, f, _ in rows] == [(state.k, state.F_k) for state in states]
    return [cells for _, _, cells in rows], states


class TestExactCells:
    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("delta", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_matches_json_int_at_the_int64_edge(self, threshold, delta, a):
        f = threshold + delta
        # one value, F itself in T_den; then small factors split off, so
        # products of several values land on the edge too
        for values in ((f,), (6, f // 6), (7, 5, f // 35 + 1)):
            cells, states = exact_cells_of(values, a)
            assert cells == [json_int_cells(state) for state in states]

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.integers(1, 50),
        values=st.lists(st.integers(0, 10**20), min_size=1, max_size=40),
    )
    def test_matches_json_int(self, a, values):
        cells, states = exact_cells_of([a + 1 + v for v in values], a)
        assert cells == [json_int_cells(state) for state in states]

    def test_leaves_the_consumers_decimal_context_between_rows(self):
        # a Decimal division in the exact context would not round but fail
        with decimal.localcontext() as mine:
            for _ in _exact_cells(iter_states(prime_definition(), 3), 1):
                assert decimal.getcontext() is mine


def reference_float_line(row, digits):
    """A CSV line of two ints and float cells, each float rounded by sig."""
    n, f, *floats = row
    return f"{n},{f}" + "".join(f",{sig(x, digits)}" for x in floats) + "\n"


# any double, from its bits: every exponent, subnormals, +-0.0, nan, inf
ANY_DOUBLE = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]
)


@st.composite
def near_power_of_ten(draw):
    """A few ulps from a power of ten, or from where rounding to `digits`
    digits reaches one: 10**e (1 - 10**-digits / 2)."""
    x = 10.0 ** draw(st.integers(-320, 308))
    if draw(st.booleans()):
        x *= 1 - 10.0 ** -draw(st.integers(1, 17)) / 2
    for _ in range(draw(st.integers(0, 3))):
        x = math.nextafter(x, draw(st.sampled_from([0.0, math.inf])))
    return x if draw(st.booleans()) else -x


FLOAT_CELLS = st.one_of(
    ANY_DOUBLE,
    st.floats(),  # weighted towards edge cases
    near_power_of_ten(),
    st.floats(1e15, 1e17, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(0, 1, exclude_max=True),
)


# the keys of a record of two int cells and one to three float cells
FLOAT_KEYS = ("n", "F_n", "T", "S", "residual")


def float_rows_of(cells, floats):
    """Rows of two ints and `floats` of `cells` each, as many as fit."""
    return [
        (n, 2 * n + 1, *cells[i : i + floats])
        for n, i in enumerate(range(0, len(cells) - floats + 1, floats), 1)
    ]


def reference_float_element(row, digits):
    """The text json.dumps(indent=2) writes for `row`'s record, each float
    rounded by sig, as an element of a list under a top-level key."""
    n, f, *floats = row
    record = dict(zip(FLOAT_KEYS, (n, f, *(sig(x, digits) for x in floats))))
    text = json.dumps({"rows": [record]}, indent=2)
    prefix, suffix = '{\n  "rows": [\n    ', "\n  ]\n}"
    assert text.startswith(prefix) and text.endswith(suffix)
    return text[len(prefix) : -len(suffix)]


# cells that fail the gate at some or every --digits: nan, +-inf, +-0,
# subnormals, 'e+' and 'e-3' exponents, integral values, and a one-digit
# mantissa in e-notation (which still passes it, on its 'e-')
GATE_FAILING = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.5e-310, -1e-300, 1e15, -1.5e15,
    -1.5e300, 12345.5, 1.0, 3.0, 2e-09, -7e-05,
])
# cells that print with one '.' and no exponent at every --digits up to 15
GATE_PASSING = st.floats(0.11, 0.89)


def render_float_rows(rows, keys, fmt, digits):
    """_float_renderer's text of `rows` as one flat run of cells, after
    checking that it renders each row alone as the reference does, and the
    run as those rows joined as _emit joins them."""
    render = _float_renderer(keys, fmt, digits)
    reference = reference_float_line if fmt == "csv" else reference_float_element
    alone = [render(row) for row in rows]
    assert alone == [reference(row, digits) for row in rows]
    text = render(list(itertools.chain.from_iterable(rows)))
    assert text == ("" if fmt == "csv" else _JSON_SEP).join(alone)
    return text


class TestFloatRenderer:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @settings(max_examples=600, deadline=None)
    @given(
        digits=st.integers(1, 17),
        floats=st.integers(1, 3),
        cells=st.lists(FLOAT_CELLS, min_size=3, max_size=30),
    )
    @example(digits=15, floats=3, cells=[5e-324, -0.0, 0.0, 1e15, math.nan, math.inf])
    @example(digits=15, floats=3, cells=[math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324])
    @example(digits=15, floats=1, cells=[2.2250738585072014e-308, 1.7976931348623157e308, 1.0])
    @example(digits=1, floats=1, cells=[1.7976931348623157e308, -math.inf, 0.96])
    @example(digits=1, floats=3, cells=[2e-09, 0.3, 0.2, -7.4e-05, 1.5e-100, 9.96e-30, 3e-300])
    @example(digits=2, floats=3, cells=[2e-09, 1.5e-09, 0.25, 1e-05, -1.04e-19, 9.99e-05, 1e-29])
    @example(digits=17, floats=3, cells=[-5e-324, 2.225073858507201e-308, -2.2250738585072014e-308])
    # 16 digits, where "%.16g" prints 0.09385958677423489
    @example(digits=16, floats=1, cells=[0.0938595867742349, 0.5, 0.25])
    @example(digits=16, floats=1, cells=[1.7976931348623157e308, 1e16, 0.0938595867742349])
    def test_matches_reference(self, fmt, digits, floats, cells):
        render_float_rows(float_rows_of(cells, floats), FLOAT_KEYS[: 2 + floats], fmt, digits)

    @settings(max_examples=300, deadline=None)
    @given(
        digits=st.integers(1, 17),
        floats=st.integers(1, 3),
        fmt=st.sampled_from(["csv", "json"]),
        data=st.data(),
    )
    def test_one_record_failing_the_gate(self, digits, floats, fmt, data):
        cells = data.draw(st.lists(GATE_PASSING, min_size=floats, max_size=20 * floats))
        rows = float_rows_of(cells, floats)
        row = list(rows.pop(data.draw(st.integers(0, len(rows) - 1))))
        row[data.draw(st.integers(2, 1 + floats))] = data.draw(GATE_FAILING)
        rows.insert(data.draw(st.integers(0, len(rows))), tuple(row))
        render_float_rows(rows, FLOAT_KEYS[: 2 + floats], fmt, digits)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_only_the_failing_record_takes_the_reference(self, monkeypatch, fmt):
        rows = [(1, 3, 0.5, 0.25, 0.75), (2, 5, 0.2, 0.3, math.nan), (3, 7, 0.4, 0.6, 0.8)]
        expected = render_float_rows(rows, FLOAT_KEYS, fmt, 15)
        parsed = []  # the cells the reference text parses back

        def recording(text):
            parsed.append(text)
            return float(text)

        monkeypatch.setattr(sievesum.render, "float", recording, raising=False)
        render = _float_renderer(FLOAT_KEYS, fmt, 15)
        assert render(list(itertools.chain.from_iterable(rows))) == expected
        assert parsed == ["0.2", "0.3", "nan"]

    @pytest.mark.parametrize(
        "digits, row",
        [
            (1, (7, 19, 2e-09, 0.3, 0.2)),
            (1, (8, 23, -7.4e-05, 1.5e-100, 0.5)),
            (2, (9, 29, 1.5e-09, 2.04e-12, 0.25)),
        ],
    )
    def test_one_digit_exponent_cells_take_one_format(self, monkeypatch, digits, row):
        rows = [row, (10, 31, 0.5, 0.25, 0.125), row]
        expected = {
            "csv": [reference_float_line(r, digits) for r in rows],
            "json": [reference_float_element(r, digits) for r in rows],
        }
        # the reference text parses the rounded cell back with float();
        # the one-% text does not
        monkeypatch.setattr(sievesum.render, "float", None, raising=False)
        for fmt, texts in expected.items():
            render = _float_renderer(FLOAT_KEYS, fmt, digits)
            assert render(row) == texts[0]
            sep = "" if fmt == "csv" else _JSON_SEP
            assert render(list(itertools.chain.from_iterable(rows))) == sep.join(texts)
            assert any("." not in cell for cell in texts[0].split(",")[2:])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_nan_row_and_huge_int_cells(self, fmt):
        rows = [(1, 3, 0.5, 0.25, 0.75), (2, 5, 0.2, 0.3, math.nan), (3, 7, 0.4, 0.6, 0.8)]
        render_float_rows(rows, FLOAT_KEYS, fmt, 15)
        rows = [(1, 3, 0.5, 0.25, 0.75), (2, 10**40 + 7, 0.125, 0.5, 0.375)]
        render_float_rows(rows, FLOAT_KEYS, fmt, 15)
        with unlimited_int_str():
            render_float_rows([(1, 10**5000 + 1, 0.5, 0.25, 0.75)], FLOAT_KEYS, fmt, 15)
            render_float_rows([(1, 10**40 + 7, 0.125)], FLOAT_KEYS[:3], fmt, 15)

    @pytest.mark.parametrize("digits", [1, 15])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_twin_series_chunks_pass_the_gate(self, monkeypatch, fmt, digits):
        # printed whole: a chunk fails the gate only if one of its records
        # does, and that record takes the reference text, so a gate that
        # would lose the one-% speed of the pooled float series shows here
        rows = list(float_rows(twin_prime_definition(), 10 * sievesum.render._CHUNK_ROWS))
        reference = reference_float_line if fmt == "csv" else reference_float_element
        expected = [reference(row, digits) for row in rows]

        def must_not_parse(text):
            raise AssertionError("a record of the twin series took the reference text")

        monkeypatch.setattr(sievesum.render, "float", must_not_parse, raising=False)
        render = _float_renderer(FLOAT_KEYS, fmt, digits)
        sep = "" if fmt == "csv" else _JSON_SEP
        for start in range(0, len(rows), sievesum.render._CHUNK_ROWS):
            chunk = rows[start : start + sievesum.render._CHUNK_ROWS]
            text = render(list(itertools.chain.from_iterable(chunk)))
            assert text == sep.join(expected[start : start + len(chunk)])


SERIES_KINDS = {
    "prime": ((), prime_definition()),
    "square-free": ((), square_free_definition()),
    "twin": ((), twin_prime_definition()),
    "custom": (
        ("--a", "3", "--seq", "4:3"),
        SeriesDefinition(lambda: itertools.count(4, 3), offset_a=3),
    ),
}


class TestExactOutputBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind", sorted(SERIES_KINDS))
    def test_series_matches_reference(self, capsys, kind, fmt):
        extra, defn = SERIES_KINDS[kind]
        code, out, _ = run_cli(
            capsys, "series", "--kind", kind, *extra, "--terms", "200", "--format", fmt
        )
        assert code == 0
        assert out == reference_series(kind, defn, 200, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("delta", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_exact_record_matches_reference_at_the_int64_edge(
        self, capsys, threshold, delta, a, fmt
    ):
        # cells on both sides of the int/string switch fill one record template
        f = threshold + delta
        for values in ((f,), (6, f // 6), (7, 5, f // 35 + 1)):
            seq = ",".join(map(str, values))
            code, out, _ = run_cli(
                capsys, "series", "--kind", "custom", "--a", str(a), "--seq", seq,
                "--terms", str(len(values)), "--format", fmt,
            )
            assert code == 0
            defn = SeriesDefinition(values, offset_a=a)
            assert out == reference_series("custom", defn, len(values), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("case", sorted(FORMATTED_OUTPUTS))
    def test_formatted_output_matches_reference(self, capsys, case, fmt):
        argv, reference = FORMATTED_OUTPUTS[case]
        code, out, _ = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0
        assert out == reference(fmt)

    @pytest.mark.parametrize("case", sorted(JSON_OUTPUTS))
    def test_json_output_matches_reference(self, capsys, case):
        argv, expected_code, doc = JSON_OUTPUTS[case]
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected_code
        assert out == json.dumps(doc(), indent=2) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_float_series_output_file_matches_reference(self, capsys, tmp_path, fmt):
        target = tmp_path / f"rows.{fmt}"
        code, out, _ = run_cli(
            capsys, "series", "--kind", "twin", "--terms", "300", "--mode", "float",
            "--format", fmt, "--output", str(target),
        )
        assert code == 0
        assert out == ""
        expected = reference_float_series(fmt, "twin", twin_prime_definition(), 300, 15)
        assert target.read_text() == expected

    @pytest.mark.parametrize("digits", [1, 12, 15, 40])
    @pytest.mark.parametrize("limit", [0, 4, 5, 7, 10**5, 10**6])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_brun_matches_reference(
        self, capsys, decimal_division, normalising_reciprocal_sum, fmt, limit, digits
    ):
        code, out, _ = run_cli(
            capsys, "brun", "--limit", str(limit), "--format", fmt, "--digits", str(digits)
        )
        assert code == 0
        values = twin_sequence_up_to(limit)
        total = normalising_reciprocal_sum(values)
        num, den = total.numerator, total.denominator
        decimal_text = decimal_division(total, digits)
        with unlimited_int_str():
            if fmt == "csv":
                expected = (
                    "limit,terms,sum_num,sum_den,decimal\n"
                    f"{limit},{len(values)},{num},{den},{decimal_text}\n"
                )
            else:
                doc = {
                    "limit": limit,
                    "terms": len(values),
                    "sum": {"num": reference_json_int(num), "den": reference_json_int(den)},
                    "decimal": decimal_text,
                }
                expected = json.dumps(doc, indent=2) + "\n"
        assert out == expected


class TestVerifyCommand:
    def test_prime_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--kind", "prime", "--terms", "500")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert "totient-primorial" in doc["checks"]

    def test_twin_pass_runs_dominance(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--kind", "twin", "--terms", "500")
        assert code == 0
        assert "dominance" in json.loads(out)["checks"]

    def test_square_free_and_custom_pass(self, capsys):
        assert run_cli(capsys, "verify", "--kind", "square-free", "--terms", "100")[0] == 0
        assert (
            run_cli(
                capsys, "verify", "--kind", "custom", "--a", "3", "--seq", "4:3",
                "--terms", "50",
            )[0]
            == 0
        )

    @pytest.mark.parametrize("index", [1, 5, 100])
    def test_tamper_never_passes(self, capsys, index):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--kind",
            "prime",
            "--terms",
            "100",
            "--tamper-index",
            str(index),
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"
        assert doc["index"] == index
        assert doc["identity"] in ("residual", "recursion", "totient-primorial")

    @pytest.mark.parametrize("kind", ["prime", "twin"])
    def test_tamper_fails_at_every_index(self, capsys, kind):
        for index in range(1, 61):
            code, out, _ = run_cli(
                capsys, "verify", "--kind", kind, "--terms", "60",
                "--tamper-index", str(index),
            )
            assert code == 1, index
            assert json.loads(out)["index"] == index

    def test_tamper_out_of_range_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--terms", "10", "--tamper-index", "11"
        )
        assert code == 2

    def test_tamper_out_of_range_computes_nothing(self, capsys, monkeypatch):
        def must_not_run(defn, n_terms):
            raise AssertionError("computed before checking --tamper-index")
            yield

        monkeypatch.setattr(sievesum.engine, "iter_states", must_not_run)
        code, out, err = run_cli(capsys, "verify", "--terms", "5000", "--tamper-index", "5001")
        assert code == 2
        assert out == ""
        assert err == "error: tamper index out of range\n"

    def test_short_sequence_is_usage_error_despite_tamper(self, capsys):
        # the tampered state fails first, but the sequence is too short
        code, out, err = run_cli(
            capsys, "verify", "--kind", "custom", "--seq", "2,3", "--terms", "5",
            "--tamper-index", "1",
        )
        assert code == 2
        assert out == ""
        assert "sequence ended after 2 values" in err

    @pytest.mark.parametrize("tamper", [(), ("--tamper-index", "40")])
    def test_checks_keep_only_the_previous_state(self, capsys, monkeypatch, tamper):
        class Probe(Fraction):
            """A T_k that can be weakly referenced, as a state, a tuple, cannot."""

        alive = []

        def watched(defn, n_terms):
            refs = []
            for state in iter_states(defn, n_terms):
                # the probes of the state being checked and of the previous one
                alive.append(sum(ref() is not None for ref in refs))
                probe = Probe(state.T_k)
                refs.append(weakref.ref(probe))
                yield state._replace(T_k=probe)

        monkeypatch.setattr(sievesum.engine, "iter_states", watched)
        code, _, _ = run_cli(capsys, "verify", "--kind", "prime", "--terms", "40", *tamper)
        assert code == (1 if tamper else 0)
        assert len(alive) == 40
        assert max(alive) <= 2

    def test_random_suite_prints_seed(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--random", "10")
        assert code == 0
        assert f"seed: {DEFAULT_SEED}" in err
        doc = json.loads(out)
        assert doc["seed"] == DEFAULT_SEED
        assert doc["random_instances"] == 10

    def test_random_suite_custom_seed(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--random", "5", "--seed", "99")
        assert code == 0
        assert "seed: 99" in err

    @pytest.mark.parametrize("seed, same_as", [("1e3", "1000"), ("-5", "-5"), ("2.5e1", "25"),
                                               ("1e30", str(10**30))])
    def test_seed_takes_e_notation_and_negatives(self, capsys, seed, same_as):
        code, out, err = run_cli(capsys, "verify", "--random", "2", "--seed", seed)
        assert code == 0
        assert (code, out, err) == run_cli(capsys, "verify", "--random", "2", "--seed", same_as)
        assert json.loads(out)["seed"] == int(same_as)

    @pytest.mark.parametrize("extra", [(), ("--kind", "twin", "--terms", "40")])
    @pytest.mark.parametrize("seed", [str(DEFAULT_SEED), "7"])
    def test_seed_needs_random(self, capsys, monkeypatch, extra, seed):
        must_not_compute(monkeypatch, "computed with an ignored --seed")
        code, out, err = run_cli(capsys, "verify", *extra, "--seed", seed)
        assert (code, out, err) == (2, "", "error: --seed needs --random\n")

    def test_tamper_with_random_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--random", "3", "--tamper-index", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "flag", [("--kind", "twin"), ("--terms", "40"), ("--a", "2"), ("--seq", "3,4"),
                 ("--kind", "prime"), ("--terms", "100")]
    )
    def test_series_options_with_random_are_usage_errors(self, capsys, flag):
        # the random suite draws its own series; even a default value is refused
        code, out, err = run_cli(capsys, "verify", "--random", "3", *flag)
        assert code == 2
        assert out == ""
        assert err == f"error: {flag[0]} cannot be combined with --random\n"

    @pytest.mark.parametrize(
        "kind, extra, index, identity",
        [
            ("prime", (), 3, "totient-primorial"),
            ("twin", (), 3, "dominance"),
            # a power of two: only the integer sum sees it
            ("custom", ("--a", "3", "--seq", "4:3"), 8, "residual"),
            ("custom", ("--a", "3", "--seq", "4:3"), 20, "residual"),
        ],
    )
    def test_consistent_wrong_state_is_caught(self, capsys, monkeypatch, kind, extra, index,
                                              identity):
        """A state whose R_k is wrong but whose S_k and T_k follow from it
        passes the residual identity and the term recursion, so only the
        independent routes can catch it."""

        def wrong_at_index(defn, n_terms):
            for state in iter_states(defn, n_terms):
                if state.k == index:
                    a, R = state.a, Fraction(1)  # as if no factor had been taken
                    state = state._replace(R_k=R, S_k=(1 - R) / a, T_k=R / (state.F_k - a))
                yield state

        monkeypatch.setattr(sievesum.engine, "iter_states", wrong_at_index)
        code, out, _ = run_cli(capsys, "verify", "--kind", kind, *extra, "--terms", "20")
        assert code == 1
        assert json.loads(out) == {"status": "fail", "identity": identity, "index": index}

    def test_state_with_another_offset_fails_residual(self, capsys, monkeypatch):
        """A state of offset a + 1, self-consistent: only the integer sum's
        a Sh_k == D_k - N_k sees it at an index that is no power of two."""

        def other_offset(defn, n_terms):
            for state in iter_states(defn, n_terms):
                if state.k == 3:
                    a, R = state.a + 1, state.R_k
                    state = state._replace(a=a, S_k=(1 - R) / a, T_k=R / (state.F_k - a))
                yield state

        monkeypatch.setattr(sievesum.engine, "iter_states", other_offset)
        code, out, _ = run_cli(
            capsys, "verify", "--kind", "custom", "--a", "3", "--seq", "4:3", "--terms", "20"
        )
        assert code == 1
        assert json.loads(out) == {"status": "fail", "identity": "residual", "index": 3}

    @pytest.mark.parametrize("index", [1, 6, 20])
    def test_state_with_wrong_sum_alone_fails_residual(self, capsys, monkeypatch, index):
        def wrong_sum(defn, n_terms):
            for state in iter_states(defn, n_terms):
                if state.k == index:
                    state = state._replace(S_k=state.S_k + Fraction(1, 10**9))
                yield state

        monkeypatch.setattr(sievesum.engine, "iter_states", wrong_sum)
        code, out, _ = run_cli(capsys, "verify", "--kind", "prime", "--terms", "20")
        assert code == 1
        assert json.loads(out) == {"status": "fail", "identity": "residual", "index": index}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(2, 10**6), min_size=1, max_size=40).map(sorted))
    @example([2, 3, 5, 7, 11, 13])
    def test_totient_check_matches_its_fraction_form(self, values):
        def by_fractions(previous, state):
            if previous is None:
                return state.T_k == Fraction(1, state.F_k)
            return state.T_k * state.F_k == previous.T_k * (previous.F_k - 1)

        def changed(state):  # T_k nudged, negated or zero, F_k 1, 0 or negated
            t, f = state.T_k, state.F_k
            return [state, *(state._replace(T_k=v) for v in (t + Fraction(1, 7), -t, 0)),
                    *(state._replace(F_k=v) for v in (1, 0, -f))]

        previous = None
        for state in iter_states(SeriesDefinition(tuple(values)), len(values)):
            pairs = [(previous, probe) for probe in changed(state)]
            if previous is not None:
                pairs += [(probe, state) for probe in changed(previous)]
            for pair in pairs:
                assert outcome(sievesum.checks._totient_holds, *pair) == outcome(by_fractions, *pair)
            previous = state

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(3, 10**6), min_size=1, max_size=40, unique=True).map(sorted),
           st.integers(1, 2))
    @example([3, 5, 7, 11, 13], 2)
    def test_dominance_check_matches_its_fraction_form(self, values, a):
        def by_fractions(previous, state):
            bound = state.T_k * state.F_k
            return bound < 1 if state.k >= 2 else bound <= 1

        def changed(state):  # T_k tampered, nudged, negated, 0 or 1/F_k; F_k 1, 0 or negated
            t, f = state.T_k, state.F_k
            tampered = Fraction(t.numerator ^ 1, t.denominator)
            return [state,
                    *(state._replace(T_k=v) for v in (tampered, t + Fraction(1, 7), -t, 0,
                                                      Fraction(1, f))),
                    *(state._replace(F_k=v) for v in (1, 0, -f))]

        states = iter_states(SeriesDefinition(tuple(values), offset_a=a), len(values))
        for state in states:
            for probe in changed(state):
                assert (outcome(sievesum.checks._dominance_holds, None, probe)
                        == outcome(by_fractions, None, probe))

    def test_depth_guard_has_no_mode_hint(self, capsys):
        # verify has no --mode flag to suggest
        code, out, err = run_cli(capsys, "verify", "--terms", "5001")
        assert code == 2
        assert out == ""
        assert "depth guard" in err
        assert "--mode" not in err


@pytest.fixture
def perturbed_c2_cutoff(monkeypatch):
    """kconst._c2_at off by 1e-14 at the smallest cut-off, with twin_constant's
    cache emptied around the test."""
    real = sievesum.kconst._c2_at

    def off(cutoff, primes):
        value = real(cutoff, primes)
        return value + decimal.Decimal("1e-14") if cutoff == min(_C2_CUTOFFS) else value

    monkeypatch.setattr(sievesum.kconst, "_c2_at", off)
    sievesum.kconst.twin_constant.cache_clear()
    yield
    sievesum.kconst.twin_constant.cache_clear()


class TestKconstCommand:
    def test_failed_self_check_is_exit_1(self, capsys, perturbed_c2_cutoff, tmp_path):
        message = (
            "error: pair-density constant failed self-consistency: cut-offs "
            f"{min(_C2_CUTOFFS)} and {max(_C2_CUTOFFS)} differ by 1.000e-14\n"
        )
        assert run_cli(capsys, "kconst", "--limit", "1e4") == (1, "", message)
        target = tmp_path / "k.json"
        target.write_text("before\n")
        code, out, err = run_cli(capsys, "kconst", "--limit", "1e4", "--output", str(target))
        assert (code, out, err) == (1, "", message)
        assert target.read_text() == "before\n"
        assert [p.name for p in tmp_path.iterdir()] == ["k.json"]

    def test_small_limit_rejected(self, capsys):
        code, _, err = run_cli(capsys, "kconst", "--limit", "100")
        assert code == 2
        assert "1e4" in err

    def test_default_method_works_at_minimum_limit(self, capsys):
        code, out, _ = run_cli(capsys, "kconst", "--limit", "1e4")
        assert code == 0
        assert json.loads(out)["method"] == "hl-tail"

    def test_aitken_below_1e6_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "kconst", "--limit", "1e4", "--method", "aitken"
        )
        assert code == 2
        assert "1e6" in err

    def test_hl_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "kconst", "--limit", "1e4", "--method", "hl-tail"
        )
        assert code == 0
        doc = json.loads(out)
        for key in (
            "method",
            "limit",
            "partial",
            "tail_correction",
            "k_estimate",
            "error_estimate",
            "c2_used",
        ):
            assert key in doc
        assert doc["method"] == "hl-tail"
        assert doc["k_estimate"] == pytest.approx(
            doc["partial"] * math.exp(doc["tail_correction"]), rel=1e-12
        )


class TestBrunCommand:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "brun", "--limit", "20", "--digits", "12")
        assert code == 0
        doc = json.loads(out)
        assert Fraction(doc["sum"]["num"], doc["sum"]["den"]) == Fraction(
            5603888, 4849845
        )
        assert doc["terms"] == 8
        assert doc["decimal"].startswith("1.155")

    def test_csv_matches_json(self, capsys):
        _, out_csv, _ = run_cli(capsys, "brun", "--limit", "20", "--format", "csv")
        _, out_json, _ = run_cli(capsys, "brun", "--limit", "20", "--format", "json")
        row = parse_csv(out_csv)[0]
        doc = json.loads(out_json)
        assert int(row["sum_num"]) == doc["sum"]["num"]
        assert int(row["sum_den"]) == doc["sum"]["den"]


class TestMertensCommand:
    def test_rows(self, capsys):
        code, out, _ = run_cli(capsys, "mertens", "--terms", "5")
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["p_n"]) for r in rows] == [2, 3, 5, 7, 11]
        expected = mertens_residual(5)
        for row, (_, ratio) in zip(rows, expected):
            assert float(row["ratio"]) == pytest.approx(ratio, rel=1e-12)

    def test_last_row_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "mertens", "--terms", "100", "--last", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["n"] == 100
        assert doc["rows"][0]["p_n"] == 541

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_last_is_the_last_row_of_the_full_output(self, capsys, monkeypatch, fmt):
        monkeypatch.setattr(sievesum.series, "_MERTENS_WINDOW", 64)
        for terms in (1, 63, 64, 65, 129):
            argv = ("mertens", "--terms", str(terms), "--format", fmt)
            full, last = run_cli(capsys, *argv)[1], run_cli(capsys, *argv, "--last")[1]
            if fmt == "csv":
                lines = full.splitlines()
                assert last.splitlines() == [lines[0], lines[-1]]  # the header and the row
            else:
                doc = json.loads(full)
                assert json.loads(last) == {**doc, "rows": doc["rows"][-1:]}


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("series", "--kind", "prime", "--terms", "5"),
            ("verify", "--kind", "prime", "--terms", "5"),
            ("primes", "--limit", "100"),
            ("primes", "--limit", "100", "--twins"),
            ("primes", "--count", "5"),
            ("kconst", "--limit", "1e4"),
            ("brun", "--limit", "100"),
            ("mertens", "--terms", "5"),
        ],
    )
    def test_missing_directory_is_exit_2_before_computing(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        must_not_compute(monkeypatch, "computed before checking --output")
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, *argv, "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")
        assert str(target) in err

    def test_directory_is_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "verify", "--terms", "5", "--output", str(tmp_path)
        )
        assert code == 2
        assert err.startswith("error: cannot write")

    def test_failed_run_leaves_files_as_they_were(self, capsys, tmp_path):
        existing = tmp_path / "old.csv"
        existing.write_text("keep me\n")
        fresh = tmp_path / "new.csv"
        for target in (existing, fresh):
            code, _, _ = run_cli(
                capsys, "series", "--kind", "prime", "--terms", "6000",
                "--output", str(target),
            )
            assert code == 2  # depth guard, after the output check
        assert existing.read_text() == "keep me\n"
        assert not fresh.exists()


class TestAtomicOutput:
    @staticmethod
    def failing_lines():
        yield "1,2\n"
        raise RuntimeError("row 2 failed")

    def test_failed_run_leaves_existing_file_and_no_temp(self, tmp_path):
        target = tmp_path / "rows.csv"
        target.write_text("keep me\n")
        for fmt in ("csv", "json"):
            args = argparse.Namespace(output=str(target), format=fmt)
            with pytest.raises(RuntimeError, match="row 2 failed"):
                _emit(args, {}, "rows", "a,b\n", self.failing_lines())
            assert target.read_text() == "keep me\n"
            assert os.listdir(tmp_path) == ["rows.csv"]

    def test_failed_run_creates_no_file(self, tmp_path):
        for fmt in ("csv", "json"):
            args = argparse.Namespace(output=str(tmp_path / "rows.csv"), format=fmt)
            with pytest.raises(RuntimeError):
                _emit(args, {}, "rows", "a,b\n", self.failing_lines())
            assert os.listdir(tmp_path) == []

    def test_replacement_keeps_permissions(self, tmp_path):
        existing, fresh = tmp_path / "old.csv", tmp_path / "new.csv"
        existing.write_text("old\n")
        existing.chmod(0o640)
        umask = os.umask(0o022)
        try:
            for target in (existing, fresh):
                _emit(argparse.Namespace(output=str(target), format="csv"), {}, "rows", "a,b\n",
                      ["1,2\n"])
        finally:
            os.umask(umask)
        assert existing.read_text() == fresh.read_text() == "a,b\n1,2\n"
        assert existing.stat().st_mode & 0o777 == 0o640
        assert fresh.stat().st_mode & 0o777 == 0o644
        assert sorted(os.listdir(tmp_path)) == ["new.csv", "old.csv"]

    def test_writes_through_a_symlink(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old\n")
        link.symlink_to(real)
        _emit(argparse.Namespace(output=str(link), format="csv"), {}, "rows", "a\n", ["1\n"])
        assert link.is_symlink()
        assert real.read_text() == "a\n1\n"


class FullStream(io.StringIO):
    """A stdout on a full disk: each write raises ENOSPC, or, if `failing`
    is "flush", each flush of the text written so far."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(text)

    def flush(self):
        if self.getvalue():
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# a CSV command, a JSON command and a float series long enough to pool
# (with use_pool)
WRITE_CASES = {
    "csv": ("primes", "--limit", "100"),
    "json": ("kconst", "--limit", "1e4"),
    "pooled": POOLED_CASES["twin"],
}
NO_SPACE = f"error: cannot write {{}}: {os.strerror(errno.ENOSPC)}\n"


def cli_env(unbuffered):
    """The environment of a subprocess run of the CLI, with its stdout
    unbuffered or buffered."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=str(ROOT / "src"), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))


def run_module(argv, env, **kwargs):
    return subprocess.run([sys.executable, "-m", "sievesum", *argv], env=env,
                          stderr=subprocess.PIPE, text=True, timeout=120, **kwargs)


class TestFailedWrite:
    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("case", WRITE_CASES)
    def test_one_error_line_and_exit_2(self, capsys, monkeypatch, forked, case, failing):
        if case == "pooled":
            use_pool(monkeypatch, POOL_TEST_CHUNK)
        monkeypatch.setattr(sys, "stdout", FullStream(failing))
        code, _, err = run_cli(capsys, *WRITE_CASES[case])
        assert (code, err) == (2, NO_SPACE.format("stdout"))
        assert len(forked) == (case == "pooled")
        assert_no_child_left()

    def test_an_os_error_from_drawing_a_row_is_not_an_output_error(self, capsys, monkeypatch):
        compute = sievesum.engine.float_rows
        message = "a child process ended with exit code -9 before it answered"

        def failing(defn, n_terms):
            for row in compute(defn, n_terms):
                if row.n == 3:  # rows 1 and 2 are written by now
                    raise ChildProcessError(message)
                yield row

        monkeypatch.setattr(sievesum.engine, "float_rows", failing)
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert main(["series", "--kind", "twin", "--mode", "float", "--terms", "5"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_a_failed_fork_raises_its_own_error(self, monkeypatch):
        def failed_fork():
            raise BlockingIOError(errno.EAGAIN, "fork failed")

        use_pool(monkeypatch, POOL_TEST_CHUNK)
        monkeypatch.setattr(os, "fork", failed_fork)
        with pytest.raises(BlockingIOError, match="fork failed"):
            main(list(WRITE_CASES["pooled"]))

    def test_broken_pipe_still_exits_0(self, capsys, monkeypatch):
        class GoneReader(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        monkeypatch.setattr(sys, "stdout", GoneReader())
        assert run_cli(capsys, *WRITE_CASES["json"]) == (0, "", "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("case", ["csv", "json"])
    def test_dev_full(self, case, unbuffered):
        env = cli_env(unbuffered)
        with open("/dev/full", "w") as full:
            result = run_module(WRITE_CASES[case], env, stdout=full)
        assert (result.returncode, result.stderr) == (2, NO_SPACE.format("stdout"))
        result = run_module((*WRITE_CASES[case], "--output", "/dev/full"), env,
                            stdout=subprocess.DEVNULL)
        assert (result.returncode, result.stderr) == (2, NO_SPACE.format("/dev/full"))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_dev_full_pooled(self):
        argv = (*POOLED_ARGV, "--output", "/dev/full")
        report = NO_SPACE.format("/dev/full") + "2 1 0\n"
        assert run_pool_script(argv) == (0, report)

    @pytest.mark.parametrize("case", ["csv", "json"])
    def test_full_disk_keeps_the_output_file(self, tmp_path, case):
        resource = pytest.importorskip("resource")

        def capped():  # files of this process may not grow past 100 bytes
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (100, 100))

        target = tmp_path / "out"
        target.write_text("keep me\n")
        argv = ("series", "--kind", "prime", "--terms", "30", "--format", case,
                "--output", str(target))
        result = run_module(argv, cli_env(False), preexec_fn=capped)
        too_large = os.strerror(errno.EFBIG)
        assert (result.returncode, result.stderr) == (2, f"error: cannot write {target}: {too_large}\n")
        assert target.read_text() == "keep me\n"
        assert os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [("primes", "--limit", "1e4"), WRITE_CASES["json"]],
                             ids=["csv", "json"])
    def test_short_write_to_stdout_is_an_error(self, tmp_path, argv, unbuffered):
        resource = pytest.importorskip("resource")

        def capped():  # files of this process may not grow past 100 bytes
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (100, 100))

        target = tmp_path / "out"
        with open(target, "w") as out:
            result = run_module(argv, cli_env(unbuffered), stdout=out, preexec_fn=capped)
        too_large = os.strerror(errno.EFBIG)
        assert (result.returncode, result.stderr) == (2, f"error: cannot write stdout: {too_large}\n")
        assert target.stat().st_size == 100

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_a_reader_gone_before_the_first_byte_is_exit_0(self, unbuffered):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            result = run_module(WRITE_CASES["json"], cli_env(unbuffered), stdout=write_fd)
        finally:
            os.close(write_fd)
        assert (result.returncode, result.stderr) == (0, "")

    def test_text_printed_before_main_is_not_flushed_again_at_exit(self):
        # "first" waits in sys.stdout's buffer, and its flush fails on the
        # closed pipe; the interpreter must not fail on it again at exit
        # (exit 120 and "Exception ignored")
        script = "import sys, sievesum.cli as c; print('first'); sys.exit(c.main(sys.argv[1:]))"
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            result = subprocess.run(
                [sys.executable, "-c", script, *WRITE_CASES["csv"]], env=cli_env(False),
                stdout=write_fd, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write_fd)
        assert (result.returncode, result.stderr) == (0, "")


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "primes", "--limit", "10", "--purple")[0] == 2

    def test_bad_terms(self, capsys):
        assert run_cli(capsys, "series", "--kind", "prime", "--terms", "0")[0] == 2
