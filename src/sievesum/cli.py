"""Command-line surface: every computation with machine-readable output.

Subcommands: primes, series, verify, kconst, brun, mertens. Output is CSV
or JSON; exact fractions are never rounded (num/den columns in CSV,
{num, den} objects in JSON, integers beyond 64 bits rendered as strings).
`verify` exits 0 only if every identity check passed, 1 with a JSON report
naming the first violation, 2 on usage errors. Every command exits 2 when
--output cannot be written, before it computes anything.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import count as _count
from typing import Iterable, Iterator, TextIO

from . import __version__
from .engine import (
    DepthGuardError,
    ReportRow,
    SeriesDefinition,
    SeriesDomainError,
    check_residual_identity,
    check_term_recursion,
    float_rows,
    iter_states,
    report_rows,
    to_decimal,
)
from .kconst import ExtrapolationError, estimate_K, partial_product
from .series import (
    _dominance_violation,
    brun_partial,
    mertens_residual,
    prime_definition,
    square_free_definition,
    twin_prime_definition,
)
from .sieve import (
    PRIME_CAP,
    CapacityError,
    SieveConfig,
    iter_prime_arrays,
    iter_twin_lesser_arrays,
    nth_primes,
    primes_up_to,
    twin_pairs_up_to,
)

DEFAULT_SEED = 1000003
_INT64_MAX = 2**63 - 1
# Above this many bits, _int_str's divide-and-conquer conversion beats str(),
# whose cost grows with the square of the length (measured crossover: about
# 34k bits, 10k digits, on Python 3.11).
_STR_BITS = 34_000
# Below this many bits, int -> Decimal is converted directly.
_LEAF_BITS = 128


class OutputError(Exception):
    """--output names a file that cannot be opened for writing."""


@dataclass(frozen=True)
class RunConfig:
    """Validated flag set for one invocation."""

    subcommand: str
    kind: str = "prime"
    a: int = 1
    terms: int = 0
    limit: int = 0
    format: str = "csv"
    output: str | None = None
    method: str = "hl-tail"
    digits: int = 15
    mode: str = "exact"
    seq: str | None = None
    seed: int = DEFAULT_SEED
    random_instances: int = 0
    tamper_index: int | None = None
    count: int | None = None
    twins: bool = False
    last: bool = False


def _use_color() -> bool:
    return sys.stderr.isatty() and not os.environ.get("NO_COLOR")


def _error(message: str) -> None:
    prefix = "\x1b[31merror:\x1b[0m" if _use_color() else "error:"
    print(f"{prefix} {message}", file=sys.stderr)


def parse_limit(text: str) -> int:
    """Integer limit; scientific notation such as 1e8 is accepted."""
    try:
        value = int(text, 10)
    except ValueError:
        try:
            as_float = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid limit {text!r}") from None
        if not as_float.is_integer():
            raise argparse.ArgumentTypeError(f"limit {text!r} is not an integer")
        value = int(as_float)
    if value < 0:
        raise argparse.ArgumentTypeError("limit must be nonnegative")
    if value > PRIME_CAP:
        raise argparse.ArgumentTypeError(f"limit exceeds supported cap {PRIME_CAP}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("value must be at least 1")
    return value


def _int_str(n: int) -> str:
    """str(n), in time below quadratic for huge n.

    Huge n is split in halves by bits, recursively, and rebuilt as a
    Decimal, whose multiplication is fast at this size, from the exact
    halves and powers of two: hi * 2**w + lo. This is the algorithm of
    CPython 3.12's _pylong.int_to_decimal_string.
    """
    if n.bit_length() <= _STR_BITS:
        return str(n)
    two_powers: dict[int, decimal.Decimal] = {}

    def two_to(w: int) -> decimal.Decimal:
        power = two_powers.get(w)
        if power is None:
            if w <= _LEAF_BITS:
                power = decimal.Decimal(2) ** w
            elif w - 1 in two_powers:
                power = two_powers[w - 1] * 2
            else:
                # smaller half first, so the larger one is often w - 1 above
                half = w >> 1
                power = two_to(half) * two_to(w - half)
            two_powers[w] = power
        return power

    def convert(m: int, w: int) -> decimal.Decimal:
        if w <= _LEAF_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * two_to(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        text = str(convert(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


def _json_int(value: int):
    return value if -_INT64_MAX - 1 <= value <= _INT64_MAX else _int_str(value)


def _json_fraction(x: Fraction) -> dict:
    return {"num": _json_int(x.numerator), "den": _json_int(x.denominator)}


def _round_sig(x: float, digits: int) -> float:
    # shared by CSV and JSON so both formats parse back to identical values
    return float(format(x, f".{digits}g"))


def _open_output(config: RunConfig, mode: str = "w"):
    if config.output in (None, "-"):
        return sys.stdout, False
    try:
        return open(config.output, mode, encoding="utf-8"), True
    except OSError as exc:
        raise OutputError(f"cannot write {config.output}: {exc.strerror or exc}") from None


def _check_output(config: RunConfig) -> None:
    """Raise OutputError now, before any computation, if --output cannot be
    opened for writing. The probe neither truncates an existing file nor
    leaves a new one behind, so a run that fails later changes nothing.
    """
    if config.output in (None, "-"):
        return
    existed = os.path.lexists(config.output)
    stream, _ = _open_output(config, "a")
    stream.close()
    if not existed:
        os.remove(config.output)


def _emit(config: RunConfig, write_fn) -> None:
    stream, owned = _open_output(config)
    try:
        write_fn(stream)
    finally:
        if owned:
            stream.close()


def _write_json(out: TextIO, doc) -> None:
    json.dump(doc, out, indent=2)
    out.write("\n")


def _parse_seq(spec: str):
    """Inline sequence: a comma list ('2,3,4,5') or 'start:step' rule."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 2:
            raise ValueError("arithmetic rule must be start:step")
        start, step = (int(p, 10) for p in parts)
        if step < 1:
            raise ValueError("step must be a positive integer")
        return lambda: _count(start, step)
    values = tuple(int(p, 10) for p in spec.split(","))
    if not values:
        raise ValueError("empty sequence")
    return values


def _definition_for(config: RunConfig) -> SeriesDefinition:
    if config.kind == "prime":
        return prime_definition()
    if config.kind == "square-free":
        return square_free_definition()
    if config.kind == "twin":
        return twin_prime_definition()
    seq = _parse_seq(config.seq)
    return SeriesDefinition(seq, offset_a=config.a, label="custom")


def _series_meta(config: RunConfig) -> dict:
    a = {"prime": 1, "square-free": 1, "twin": 2}.get(config.kind, config.a)
    return {
        "kind": config.kind,
        "a": a,
        "terms": config.terms,
        "mode": config.mode,
        "version": __version__,
    }


def _exact_cells(rows: Iterable[ReportRow], a: int, render) -> Iterator[tuple[ReportRow, list]]:
    """Each exact row with render() of its T, S and R = a * residual
    numerators and denominators, in that order.

    Neighbouring rows share integers (in the prime series S_den == R_den in
    every row, and T_den usually equals both), so a value equal to one of
    the same or the previous row reuses that rendering.
    """
    previous: dict[int, object] = {}
    for row in rows:
        residual_product = row.residual * a
        current: dict[int, object] = {}
        cells = []
        for value in (
            row.T.numerator,
            row.T.denominator,
            row.S.numerator,
            row.S.denominator,
            residual_product.numerator,
            residual_product.denominator,
        ):
            if value not in current:
                current[value] = previous[value] if value in previous else render(value)
            cells.append(current[value])
        previous = current
        yield row, cells


def _write_series_csv(rows: Iterable[ReportRow], a: int, config: RunConfig, out: TextIO) -> None:
    if config.mode == "exact":
        out.write("n,F_n,T_num,T_den,S_num,S_den,R_num,R_den\n")
        for row, cells in _exact_cells(rows, a, _int_str):
            out.write(f"{row.n},{row.F_n},{','.join(cells)}\n")
    else:
        d = config.digits
        out.write("n,F_n,T,S,residual\n")
        for row in rows:
            out.write(
                f"{row.n},{row.F_n},{_round_sig(row.T, d)},"
                f"{_round_sig(row.S, d)},{_round_sig(row.residual, d)}\n"
            )


def _series_rows_json(rows: Iterable[ReportRow], a: int, config: RunConfig) -> list[dict]:
    out = []
    if config.mode == "exact":
        for row, (t_num, t_den, s_num, s_den, r_num, r_den) in _exact_cells(rows, a, _json_int):
            out.append(
                {
                    "n": row.n,
                    "F_n": row.F_n,
                    "T": {"num": t_num, "den": t_den},
                    "S": {"num": s_num, "den": s_den},
                    "R": {"num": r_num, "den": r_den},
                }
            )
    else:
        d = config.digits
        for row in rows:
            out.append(
                {
                    "n": row.n,
                    "F_n": row.F_n,
                    "T": _round_sig(row.T, d),
                    "S": _round_sig(row.S, d),
                    "residual": _round_sig(row.residual, d),
                }
            )
    return out


def cmd_series(config: RunConfig) -> int:
    defn = _definition_for(config)
    if config.mode == "exact":
        rows: Iterable[ReportRow] = report_rows(defn, config.terms)
    else:
        rows = list(float_rows(defn, config.terms))

    def write(out: TextIO) -> None:
        if config.format == "csv":
            _write_series_csv(rows, defn.offset_a, config, out)
        else:
            doc = {
                "meta": _series_meta(config),
                "rows": _series_rows_json(rows, defn.offset_a, config),
            }
            _write_json(out, doc)

    _emit(config, write)
    return 0


def _verify_failure(identity: str, index: int, extra: dict | None = None) -> dict:
    report = {"status": "fail", "identity": identity, "index": index}
    if extra:
        report.update(extra)
    return report


def _run_identity_checks(config: RunConfig) -> dict:
    defn = _definition_for(config)
    states = list(iter_states(defn, config.terms))
    if config.tamper_index is not None:
        i = config.tamper_index - 1
        if not 0 <= i < len(states):
            raise ValueError("tamper index out of range")
        bad = states[i].T_k
        states[i] = dataclasses.replace(
            states[i], T_k=Fraction(bad.numerator ^ 1, bad.denominator)
        )
    checks = ["residual", "recursion"]
    for state in states:
        if not check_residual_identity(state):
            return _verify_failure("residual", state.k)
        if not check_term_recursion(state):
            return _verify_failure("recursion", state.k)
    if config.kind == "prime":
        checks.append("totient-primorial")
        tot, prim = 1, 1  # running prod(p_i - 1) and prod(p_i), independent route
        for state in states:
            prim *= state.F_k
            # T_k == tot/prim, cross-multiplied: no gcd to reduce tot/prim
            if state.T_k.numerator * prim != tot * state.T_k.denominator:
                return _verify_failure("totient-primorial", state.k)
            tot *= state.F_k - 1
    if config.kind == "twin":
        checks.append("dominance")
        bad_index = _dominance_violation(config.terms)
        if bad_index is not None:
            return _verify_failure("dominance", bad_index)
    return {
        "status": "pass",
        "kind": config.kind,
        "terms": config.terms,
        "checks": checks,
    }


def _run_random_suite(config: RunConfig) -> dict:
    rng = random.Random(config.seed)
    for instance in range(1, config.random_instances + 1):
        a = rng.randint(1, 50)
        length = rng.randint(1, 200)
        values = sorted(rng.sample(range(a + 1, 10**6), length))
        defn = SeriesDefinition(tuple(values), offset_a=a, label="random")
        for state in iter_states(defn, length):
            if not check_residual_identity(state):
                return _verify_failure(
                    "residual", state.k, {"instance": instance, "a": a}
                )
            if not check_term_recursion(state):
                return _verify_failure(
                    "recursion", state.k, {"instance": instance, "a": a}
                )
    return {
        "status": "pass",
        "random_instances": config.random_instances,
        "seed": config.seed,
        "checks": ["residual", "recursion"],
    }


def cmd_verify(config: RunConfig) -> int:
    if config.random_instances:
        print(f"seed: {config.seed}", file=sys.stderr)
        report = _run_random_suite(config)
        report.setdefault("seed", config.seed)
    else:
        report = _run_identity_checks(config)

    _emit(config, lambda out: _write_json(out, report))
    return 0 if report["status"] == "pass" else 1


def cmd_kconst(config: RunConfig) -> int:
    if config.limit < 10**4:
        raise ExtrapolationError("kconst needs --limit at least 1e4")
    estimate = estimate_K(config.limit, config.method)
    pp = partial_product(config.limit)
    doc = {
        "method": estimate.method,
        "limit": config.limit,
        "partial": math.exp(pp.log_value),
        "tail_correction": estimate.tail_correction,
        "k_estimate": estimate.k_estimate,
        "error_estimate": estimate.error_estimate,
        "c2_used": estimate.c2_used,
        "pair_count": pp.pair_count,
        "log_partial": pp.log_value,
        "assumptions": estimate.assumptions,
    }

    _emit(config, lambda out: _write_json(out, doc))
    return 0


def cmd_brun(config: RunConfig) -> int:
    result = brun_partial(config.limit)
    decimal_text = to_decimal(result.sum, config.digits)

    def write(out: TextIO) -> None:
        if config.format == "csv":
            out.write("limit,terms,sum_num,sum_den,decimal\n")
            out.write(
                f"{config.limit},{result.terms},{_int_str(result.sum.numerator)},"
                f"{_int_str(result.sum.denominator)},{decimal_text}\n"
            )
        else:
            doc = {
                "limit": config.limit,
                "terms": result.terms,
                "sum": _json_fraction(result.sum),
                "decimal": decimal_text,
            }
            _write_json(out, doc)

    _emit(config, write)
    return 0


def cmd_mertens(config: RunConfig) -> int:
    rows = mertens_residual(config.terms)
    if config.last:
        rows = rows[-1:]
    d = config.digits
    offset = config.terms - len(rows)

    def write(out: TextIO) -> None:
        if config.format == "csv":
            out.write("n,p_n,ratio\n")
            for i, (p, ratio) in enumerate(rows, 1):
                out.write(f"{offset + i},{p},{_round_sig(ratio, d)}\n")
        else:
            doc = {
                "meta": {"terms": config.terms, "version": __version__},
                "rows": [
                    {"n": offset + i, "p_n": p, "ratio": _round_sig(ratio, d)}
                    for i, (p, ratio) in enumerate(rows, 1)
                ],
            }
            _write_json(out, doc)

    _emit(config, write)
    return 0


def cmd_primes(config: RunConfig) -> int:
    if config.twins:

        def write(out: TextIO) -> None:
            if config.format == "csv":
                # stream per segment; large limits never materialise in full
                out.write("lesser,greater\n")
                for arr in iter_twin_lesser_arrays(SieveConfig(config.limit)):
                    for p in arr.tolist():
                        out.write(f"{p},{p + 2}\n")
            else:
                doc = {
                    "meta": {"limit": config.limit, "version": __version__},
                    "pairs": [[p.lesser, p.greater] for p in twin_pairs_up_to(config.limit)],
                }
                _write_json(out, doc)

        _emit(config, write)
        return 0

    def write(out: TextIO) -> None:
        if config.count is not None:
            primes = nth_primes(config.count)
            meta = {"count": config.count, "version": __version__}
            if config.format == "csv":
                out.write("p\n")
                out.writelines(f"{p}\n" for p in primes)
                return
            _write_json(out, {"meta": meta, "primes": primes})
            return
        if config.format == "csv":
            out.write("p\n")
            for arr in iter_prime_arrays(SieveConfig(config.limit)):
                out.writelines(f"{p}\n" for p in arr.tolist())
            return
        doc = {
            "meta": {"limit": config.limit, "version": __version__},
            "primes": primes_up_to(config.limit),
        }
        _write_json(out, doc)

    _emit(config, write)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievesum",
        description="Exact sieve-based series over primes and twin primes, "
        "and estimation of the twin-pair product constant.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_output(p: argparse.ArgumentParser) -> None:
        p.add_argument("--output", default=None, help="output path (default stdout)")

    def add_format(p: argparse.ArgumentParser, default: str = "csv") -> None:
        p.add_argument("--format", choices=("csv", "json"), default=default)

    def add_digits(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--digits",
            type=_positive_int,
            default=15,
            help="significant digits for decimal rendering (default 15)",
        )

    p = sub.add_parser("primes", help="list primes or twin pairs")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--limit", type=parse_limit, help="inclusive bound, 1e8 style accepted")
    group.add_argument("--count", type=_positive_int, help="first N primes")
    p.add_argument("--twins", action="store_true", help="emit twin pairs instead")
    add_format(p)
    add_output(p)

    p = sub.add_parser("series", help="emit term/sum/residual rows for a series")
    p.add_argument("--kind", choices=("prime", "square-free", "twin", "custom"), required=True)
    p.add_argument("--terms", type=_positive_int, required=True)
    p.add_argument("--a", type=_positive_int, default=1, help="offset a (custom kind)")
    p.add_argument("--seq", help="custom sequence: comma list or start:step rule")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    add_format(p)
    add_digits(p)
    add_output(p)

    p = sub.add_parser("verify", help="run exact identity checks; exit 0 iff all pass")
    p.add_argument("--kind", choices=("prime", "square-free", "twin", "custom"), default="prime")
    p.add_argument("--terms", type=_positive_int, default=100)
    p.add_argument("--a", type=_positive_int, default=1)
    p.add_argument("--seq")
    p.add_argument("--random", type=_positive_int, default=0, dest="random_instances",
                   metavar="N", help="run N randomized (F, a) identity instances")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"seed for --random (default {DEFAULT_SEED})")
    p.add_argument("--tamper-index", type=_positive_int, default=None,
                   help=argparse.SUPPRESS)
    add_output(p)

    p = sub.add_parser("kconst", help="estimate the twin-pair product constant")
    p.add_argument("--limit", type=parse_limit, required=True)
    p.add_argument(
        "--method",
        choices=("hl-tail", "aitken", "both"),
        default="hl-tail",
        help="aitken and both need --limit >= 1e6 for the sub-limits",
    )
    add_output(p)

    p = sub.add_parser("brun", help="exact reciprocal sum over the twin sequence")
    p.add_argument("--limit", type=parse_limit, required=True)
    add_format(p, default="json")
    add_digits(p)
    add_output(p)

    p = sub.add_parser("mertens", help="residual-product ratios against e^-gamma/ln p")
    p.add_argument("--terms", type=_positive_int, required=True)
    p.add_argument("--last", action="store_true", help="only the final row")
    add_format(p)
    add_digits(p)
    add_output(p)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    values = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    config = RunConfig(**values)
    if config.subcommand in ("series", "verify") and config.kind == "custom":
        if not config.seq and not config.random_instances:
            raise ValueError("custom kind requires --seq")
    return config


_COMMANDS = {
    "primes": cmd_primes,
    "series": cmd_series,
    "verify": cmd_verify,
    "kconst": cmd_kconst,
    "brun": cmd_brun,
    "mertens": cmd_mertens,
}


def main(argv: list[str] | None = None) -> int:
    # exact denominators reach tens of thousands of digits; rendering them
    # must not trip the interpreter's int-to-str conversion cap
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
        _check_output(config)
        return _COMMANDS[config.subcommand](config)
    except BrokenPipeError:
        return 0
    except DepthGuardError as exc:
        _error(f"{exc} (or use --mode float)")
        return 2
    except (
        SeriesDomainError,
        ExtrapolationError,
        CapacityError,
        OutputError,
        ValueError,
    ) as exc:
        _error(str(exc))
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
