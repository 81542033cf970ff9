import contextlib
import csv
import io
import itertools
import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sievesum.cli
from sievesum import __version__
from sievesum.cli import _STR_BITS, DEFAULT_SEED, _int_str, main, parse_limit
from sievesum.engine import SeriesDefinition, float_rows, report_rows
from sievesum.kconst import estimate_K, partial_product
from sievesum.series import (
    brun_partial,
    mertens_residual,
    prime_definition,
    square_free_definition,
    twin_prime_definition,
)
from sievesum.sieve import nth_primes, primes_up_to, twin_pairs_up_to


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


def reference_float_series(fmt, kind, terms, digits):
    _, defn = SERIES_KINDS[kind]
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


def reference_mertens(fmt, terms, last):
    rows = [(n, p, sig(ratio, 15)) for n, (p, ratio) in enumerate(mertens_residual(terms), 1)]
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
        lambda fmt: reference_float_series(fmt, "twin", 300, 15),
    ),
    "series-float-digits": (
        ("series", "--kind", "prime", "--terms", "300", "--mode", "float", "--digits", "7"),
        lambda fmt: reference_float_series(fmt, "prime", 300, 7),
    ),
    "mertens": (
        ("mertens", "--terms", "200"),
        lambda fmt: reference_mertens(fmt, 200, last=False),
    ),
    "mertens-last": (
        ("mertens", "--terms", "200", "--last"),
        lambda fmt: reference_mertens(fmt, 200, last=True),
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
}

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

    def test_sequence_shorter_than_terms(self, capsys):
        code, _, _ = run_cli(
            capsys, "series", "--kind", "custom", "--seq", "2,3", "--terms", "5"
        )
        assert code == 2

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


class TestIntStr:
    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.one_of(
            st.integers(0, 200),
            st.integers(_STR_BITS - 2, _STR_BITS + 2),
            st.integers(_STR_BITS, 4 * _STR_BITS),
        ),
        seed=st.integers(0, 2**32),
        negative=st.booleans(),
    )
    @example(bits=0, seed=0, negative=False)
    @example(bits=_STR_BITS, seed=0, negative=True)
    @example(bits=_STR_BITS + 1, seed=0, negative=True)
    def test_matches_str(self, bits, seed, negative):
        n = random.Random(seed).getrandbits(bits)
        if bits:
            n |= 1 << (bits - 1)  # exactly `bits` bits
        if negative:
            n = -n
        with unlimited_int_str():
            assert _int_str(n) == str(n)


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
    def test_brun_matches_reference(self, capsys, decimal_division, fmt):
        limit = 10**5
        code, out, _ = run_cli(capsys, "brun", "--limit", str(limit), "--format", fmt)
        assert code == 0
        result = brun_partial(limit)
        num, den = result.sum.numerator, result.sum.denominator
        assert den.bit_length() > _STR_BITS  # the divide-and-conquer path runs
        decimal_text = decimal_division(result.sum, 15)
        with unlimited_int_str():
            if fmt == "csv":
                expected = (
                    "limit,terms,sum_num,sum_den,decimal\n"
                    f"{limit},{result.terms},{num},{den},{decimal_text}\n"
                )
            else:
                doc = {
                    "limit": limit,
                    "terms": result.terms,
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

    def test_tamper_with_random_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--random", "3", "--tamper-index", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_depth_guard_has_no_mode_hint(self, capsys):
        # verify has no --mode flag to suggest
        code, out, err = run_cli(capsys, "verify", "--terms", "5001")
        assert code == 2
        assert out == ""
        assert "depth guard" in err
        assert "--mode" not in err


class TestKconstCommand:
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


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("series", "--kind", "prime", "--terms", "5"),
            ("verify", "--kind", "prime", "--terms", "5"),
            ("primes", "--limit", "100"),
            ("kconst", "--limit", "1e4"),
            ("brun", "--limit", "100"),
            ("mertens", "--terms", "5"),
        ],
    )
    def test_missing_directory_is_exit_2_before_computing(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("computed before checking --output")

        # every command's compute entry
        for name in (
            "iter_states",
            "report_rows",
            "iter_prime_arrays",
            "estimate_K",
            "brun_partial",
            "mertens_residual",
        ):
            monkeypatch.setattr(sievesum.cli, name, must_not_run)
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


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "primes", "--limit", "10", "--purple")[0] == 2

    def test_bad_terms(self, capsys):
        assert run_cli(capsys, "series", "--kind", "prime", "--terms", "0")[0] == 2
