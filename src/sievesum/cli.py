"""Command-line surface: every computation with machine-readable output.

Subcommands: primes, series, verify, kconst, brun, mertens. Output is CSV
or JSON; exact fractions are never rounded (num/den columns in CSV,
{num, den} objects in JSON, integers beyond 64 bits rendered as strings).
`verify` exits 0 only if every identity check passed, 1 with a JSON report
naming the first violation, 2 on usage errors. Every command exits 2 when
--output cannot be written, before it computes anything, 2 with one
"error: cannot write ..." line when a write of the output fails (a full
disk or /dev/full), 1 with one "error: ..." line when a child process
ends early, and 130 with one "error: interrupted" line on Ctrl-C.

This module reads the arguments, runs a command and writes its output.
Each command imports what it runs when it runs: the library modules, the
text of its rows from `render` and, for `verify`, the checks from
`checks`, so that start-up compiles none of them.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable

from . import __version__
from .sieve import PRIME_CAP, iter_primes, prime_lists, twin_lesser_lists

if TYPE_CHECKING:
    from .engine import SeriesDefinition

DEFAULT_SEED = 1000003
DEFAULT_DIGITS = 15
# between two elements of a list in a top-level object, as json.dumps(indent=2) writes it
_JSON_SEP = ",\n    "
# the most digits an integer argument is built with: a text such as 1e999999999
# would build far more from a few characters
_MAX_DIGITS = 4300


class OutputError(Exception):
    """The output, --output or stdout, cannot be opened or written."""


def _use_color() -> bool:
    return sys.stderr.isatty() and not os.environ.get("NO_COLOR")


def _error(message: str) -> None:
    prefix = "\x1b[31merror:\x1b[0m" if _use_color() else "error:"
    print(f"{prefix} {message}", file=sys.stderr)


def _parse_int(text: str, invalid: str, fractional: str, beyond: int | None = None) -> int:
    """The integer `text` writes in decimal or in scientific notation such
    as 1e8, read exactly: 1.5e1 is 15, and 10000000000000001e0 is not
    rounded. Text that is no number (nor a decimal.Decimal, whose exponents
    reach about 10**18), or a number with a fraction, raises
    ArgumentTypeError with `invalid` or `fractional` formatted with text.

    An infinity, or a number of more than _MAX_DIGITS digits, is +-`beyond`,
    a magnitude past every bound of the caller, which then refuses it as it
    refuses any value out of its range; with no `beyond` it is `invalid`.
    That holds for plain digits too, whatever the interpreter's own limit
    on them: a text longer than _MAX_DIGITS is read through decimal.
    """
    if len(text) <= _MAX_DIGITS:
        try:
            return int(text, 10)
        except ValueError:
            pass
    import decimal

    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        raise argparse.ArgumentTypeError(invalid.format(text)) from None
    if value.is_nan():
        raise argparse.ArgumentTypeError(invalid.format(text))
    if value.is_finite():
        _, digits, exponent = value.as_tuple()
        if exponent < 0 and any(digits[exponent:]):
            raise argparse.ArgumentTypeError(fractional.format(text))
        if value.is_zero():
            return 0
        if value.adjusted() < _MAX_DIGITS:
            return int(value)
    if beyond is None:
        raise argparse.ArgumentTypeError(invalid.format(text))
    return -beyond if value.is_signed() else beyond


def parse_limit(text: str) -> int:
    """Integer limit; scientific notation such as 1e8 is accepted."""
    value = _parse_int(text, "invalid limit {!r}", "limit {!r} is not an integer", PRIME_CAP + 1)
    if value < 0:
        raise argparse.ArgumentTypeError("limit must be nonnegative")
    if value > PRIME_CAP:
        raise argparse.ArgumentTypeError(f"limit exceeds supported cap {PRIME_CAP}")
    return value


def _integer(text: str, beyond: int | None = None) -> int:
    """Integer; scientific notation such as 1e3 is accepted."""
    return _parse_int(text, "invalid integer {!r}", "invalid integer {!r}", beyond)


def _positive_int(text: str, beyond: int | None = None) -> int:
    """Integer of at least 1; scientific notation such as 2e5 is accepted."""
    value = _integer(text, beyond)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be at least 1")
    return value


def _up_to(maximum: int, exceeds: str):
    """The argparse type of integers from 1 to `maximum`, scientific notation
    such as 1e3 accepted; a larger value is refused as `exceeds` the maximum."""

    def parse(text: str) -> int:
        value = _positive_int(text, maximum + 1)
        if value > maximum:
            raise argparse.ArgumentTypeError(f"{exceeds} the maximum {maximum}")
        return value

    return parse


# counts of terms or primes, which islice takes up to sys.maxsize
_count_arg = _up_to(sys.maxsize, "count exceeds")


def _digits(text: str) -> int:
    """Significant digits, from 1 to decimal.MAX_PREC."""
    import decimal

    return _up_to(decimal.MAX_PREC, "digits exceed")(text)


def _output_error(args: argparse.Namespace, exc: OSError) -> OutputError:
    """The OutputError of `exc`, an OSError from opening or writing the output."""
    target = "stdout" if args.output in (None, "-") else args.output
    return OutputError(f"cannot write {target}: {exc.strerror or exc}")


def _written(args: argparse.Namespace, call, *values) -> None:
    """call(*values), a call that writes the output: a write, flush or
    close of its stream, or the move of the temporary file into its place.
    An OSError from it is raised as its _output_error, but for a broken
    pipe, which main takes for a reader that has gone."""
    try:
        call(*values)
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise _output_error(args, exc) from None


def _open_output(args: argparse.Namespace, mode: str = "w"):
    """The output stream, and whether it is ours to close. stdout, where it
    has a file descriptor, is written through a stream of its own with a
    buffered binary layer, which writes the rest of a short write or raises,
    even where sys.stdout is unbuffered (PYTHONUNBUFFERED, python -u) and
    would drop the rest; closing it leaves the descriptor open."""
    if args.output in (None, "-"):
        stdout = sys.stdout
        try:
            fd = stdout.fileno()
        except (AttributeError, ValueError):  # no descriptor, as for io.StringIO
            return stdout, False
        return open(fd, mode, encoding=stdout.encoding, errors=stdout.errors, closefd=False), True
    try:
        return open(args.output, mode, encoding="utf-8"), True
    except OSError as exc:
        raise _output_error(args, exc) from None


def _temp_beside(args: argparse.Namespace) -> tuple[int, str]:
    """A new temporary file in the directory of the --output file, as
    tempfile.mkstemp returns it."""
    import tempfile

    target = os.path.realpath(args.output)
    try:
        return tempfile.mkstemp(
            prefix=f".{os.path.basename(target)}.", suffix=".tmp", dir=os.path.dirname(target)
        )
    except OSError as exc:
        raise _output_error(args, exc) from None


def _replaceable(args: argparse.Namespace) -> bool:
    """--output names a file (or nothing yet), which _emit replaces whole;
    a device or a pipe is written in place."""
    return args.output not in (None, "-") and (
        not os.path.exists(args.output) or os.path.isfile(args.output)
    )


def _check_output(args: argparse.Namespace) -> None:
    """Raise OutputError now, before any computation, if --output cannot be
    written: it must open for appending, and its directory must take the
    temporary file _emit writes first. The probes neither truncate an
    existing file nor leave a new one behind.
    """
    if args.output in (None, "-"):
        return
    existed = os.path.lexists(args.output)
    stream, _ = _open_output(args, "a")
    stream.close()
    if not existed:
        os.remove(args.output)
    if _replaceable(args):
        fd, temp = _temp_beside(args)
        os.close(fd)
        os.remove(temp)


def _emit(args: argparse.Namespace, doc: dict, key: str | None = None,
          header: str | None = None, chunks: Iterable[str] = ()) -> None:
    """Write `header` and then the text chunks `chunks` to --output if the
    command has --format and it is csv, else the JSON document `doc`, with
    the list whose elements `chunks` hold (see _row_template) added last,
    under `key`. Chunks are rendered one at a time, as they are written, the
    first before the output is opened, so that an error in the first row
    writes nothing.

    An --output file is written whole or not at all: the text goes to a
    temporary file beside it, which replaces it only once complete and
    keeps its permissions (a new file gets those open() would give it).
    An OSError from writing, flushing or closing the output (stdout, a
    device or the temporary file) is raised as an OutputError; only those
    calls are wrapped, so an OSError from drawing or rendering a chunk,
    such as a failed fork or a render worker that ended, stays what it is.
    """
    csv = getattr(args, "format", None) == "csv"
    parts = filter(None, chunks if csv or key else ())
    first = next(parts, None)
    if csv:
        texts = chain([header + (first or "")], parts)
    else:
        import json

        if first is None:
            texts = [json.dumps({**doc, key: []} if key else doc, indent=2) + "\n"]
        else:
            head, _, tail = json.dumps({**doc, key: [0]}, indent=2).rpartition("0")
            texts = chain([head + first], (_JSON_SEP + part for part in parts), [tail + "\n"])
    temp = None
    if _replaceable(args):
        target = os.path.realpath(args.output)
        if os.path.exists(target):
            mode = os.stat(target).st_mode & 0o7777
        else:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, temp = _temp_beside(args)
        stream, owned = os.fdopen(fd, "w", encoding="utf-8"), True
    else:
        stream, owned = _open_output(args)
    on_stdout = owned and args.output in (None, "-")  # a stream of ours on stdout's descriptor
    try:
        if on_stdout:  # what sys.stdout holds was printed first
            _written(args, sys.stdout.flush)
        for text in texts:  # each chunk is rendered here, before its write
            _written(args, stream.write, text)
            del text  # freed before the next chunk is rendered
        # the text still buffered is written here
        _written(args, stream.close if owned else stream.flush)
        if temp is not None:
            _written(args, os.chmod, temp, mode)
            _written(args, os.replace, temp, target)
    except BaseException as exc:
        if owned:
            with contextlib.suppress(OSError):  # the text it holds cannot be written
                stream.close()
        if temp is not None:
            os.remove(temp)
        if isinstance(exc, (OutputError, BrokenPipeError)) and on_stdout:
            # the interpreter flushes sys.stdout again at exit: what it holds goes nowhere
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise


def _parse_seq(spec: str, terms: int):
    """Inline sequence: a comma list ('2,3,4,5') or 'start:step' rule, of
    exact decimal integers (no 1e2: through a float, 1e30 would round). A
    rule is the range of its first `terms` values."""
    rule = ":" in spec
    values = []
    for item in spec.split(":" if rule else ","):
        try:
            values.append(int(item, 10))
        except ValueError:
            raise ValueError(f"--seq item {item.strip()!r} is not a decimal integer") from None
    if not rule:
        return tuple(values)
    if len(values) != 2 or values[1] < 1:
        raise ValueError("--seq rule must be start:step with a step of at least 1")
    start, step = values
    return range(start, start + step * terms, step)


def _definition_for(args: argparse.Namespace) -> SeriesDefinition:
    if args.kind == "custom":
        from .engine import SeriesDefinition

        if args.seq is None:
            raise ValueError("custom kind requires --seq")
        return SeriesDefinition(_parse_seq(args.seq, args.terms), offset_a=args.a or 1)
    for flag, value in (("--seq", args.seq), ("--a", args.a)):
        if value is not None:
            raise ValueError(f"{flag} needs --kind custom")
    from .series import prime_definition, square_free_definition, twin_prime_definition

    definitions = {"prime": prime_definition, "square-free": square_free_definition,
                   "twin": twin_prime_definition}
    return definitions[args.kind]()


def cmd_series(args: argparse.Namespace) -> int:
    from .engine import DepthGuardError, float_rows, iter_states
    from .render import _emit_float_rows, _exact_rows

    if args.mode == "exact" and args.digits is not None:
        raise ValueError("--digits needs --mode float")
    args.digits = args.digits or DEFAULT_DIGITS
    defn = _definition_for(args)
    a = defn.offset_a
    meta = {"kind": args.kind, "a": a, "terms": args.terms, "mode": args.mode,
            "version": __version__}
    if args.mode == "exact":
        header = "n,F_n,T_num,T_den,S_num,S_den,R_num,R_den\n"
        rows = _exact_rows(iter_states(defn, args.terms), a, args.format)
        try:
            _emit(args, {"meta": meta}, "rows", header, rows)
        except DepthGuardError as exc:
            raise ValueError(f"{exc} (or use --mode float)") from None
        return 0
    keys = ("n", "F_n", "T", "S", "residual")
    try:
        _emit_float_rows(args, meta, keys, float_rows(defn, args.terms), args.terms)
    except OverflowError as exc:
        raise ValueError(f"{exc}; use --mode exact") from None
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .checks import _run_identity_checks, _run_random_suite

    if args.random_instances:
        # the random suite draws its own series, and a tamper must never pass
        for flag, value in (
            ("--tamper-index", args.tamper_index),
            ("--kind", args.kind),
            ("--terms", args.terms),
            ("--a", args.a),
            ("--seq", args.seq),
        ):
            if value is not None:
                raise ValueError(f"{flag} cannot be combined with --random")
        seed = DEFAULT_SEED if args.seed is None else args.seed
        print(f"seed: {seed}", file=sys.stderr)
        report = _run_random_suite(args.random_instances, seed)
    elif args.seed is not None:
        raise ValueError("--seed needs --random")
    else:
        # argparse leaves these None, so that --random can tell a given value from a default
        args.kind, args.terms = args.kind or "prime", args.terms or 100
        report = _run_identity_checks(_definition_for(args), args.kind, args.terms,
                                      args.tamper_index)
    _emit(args, report)
    return 0 if report["status"] == "pass" else 1


def cmd_kconst(args: argparse.Namespace) -> int:
    from .kconst import ExtrapolationError, estimate_K, partial_product

    if args.limit < 10**4:
        raise ExtrapolationError("kconst needs --limit at least 1e4")
    estimate = estimate_K(args.limit, args.method)
    pp = partial_product(args.limit)
    doc = {
        "method": estimate.method,
        "limit": args.limit,
        "partial": math.exp(pp.log_value),
        "tail_correction": estimate.tail_correction,
        "k_estimate": estimate.k_estimate,
        "error_estimate": estimate.error_estimate,
        "c2_used": estimate.c2_used,
        "pair_count": pp.pair_count,
        "log_partial": pp.log_value,
        "assumptions": estimate.assumptions,
    }
    _emit(args, doc)
    return 0


def cmd_brun(args: argparse.Namespace) -> int:
    import decimal

    from .render import _decimal_json_int
    from .series import brun_partial

    result = brun_partial(args.limit)
    context = decimal.Context(prec=args.digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    decimal_text = str(context.divide(result.num, result.den))
    num, den = _decimal_json_int(result.num), _decimal_json_int(result.den)
    doc = {
        "limit": args.limit,
        "terms": result.terms,
        "sum": {"num": num, "den": den},
        "decimal": decimal_text,
    }
    line = f"{args.limit},{result.terms},{num},{den},{decimal_text}\n"
    _emit(args, doc, None, "limit,terms,sum_num,sum_den,decimal\n", [line])
    return 0


def cmd_mertens(args: argparse.Namespace) -> int:
    from .render import _emit_float_rows
    from .series import mertens_rows

    rows = mertens_rows(args.terms, last=args.last)  # streamed
    first = args.terms if args.last else 1
    meta = {"terms": args.terms, "version": __version__}
    _emit_float_rows(args, meta, ("n", "p_n", "ratio"),
                     ((n, p, ratio) for n, (p, ratio) in enumerate(rows, first)),
                     args.terms - first + 1)
    return 0


def cmd_primes(args: argparse.Namespace) -> int:
    from .render import _row_template

    if args.count is not None:
        if args.twins:
            raise ValueError("--twins needs --limit, not --count")
        meta = {"count": args.count, "version": __version__}
        primes = islice(iter_primes(), args.count)  # streamed in lists of 65536
        lists = iter(lambda: list(islice(primes, 1 << 16)), [])
    else:
        meta = {"limit": args.limit, "version": __version__}
        # one list per sieve segment; CSV never holds more than one
        lists = (twin_lesser_lists if args.twins else prime_lists)(args.limit)
    if args.twins:
        key, header, shape = "pairs", "lesser,greater\n", ["%d", "%d"]
        lists = ([v for p in lesser for v in (p, p + 2)] for lesser in lists)
    else:
        key, header, shape = "primes", "p\n", "%d"
    template = _row_template(args.format, shape)
    sep, width = "" if args.format == "csv" else _JSON_SEP, template.count("%")
    # one `%` per list: the template of each element, joined
    chunks = (sep.join([template] * (len(values) // width)) % tuple(values) for values in lists)
    _emit(args, {"meta": meta}, key, header, chunks)
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

    def add_digits(p: argparse.ArgumentParser, default: int | None = DEFAULT_DIGITS) -> None:
        p.add_argument(
            "--digits",
            type=_digits,
            default=default,
            help=f"significant digits for decimal rendering (default {DEFAULT_DIGITS})",
        )

    p = sub.add_parser("primes", help="list primes or twin pairs")
    p.set_defaults(run=cmd_primes)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--limit", type=parse_limit, help="inclusive bound, 1e8 style accepted")
    group.add_argument("--count", type=_count_arg, help="first N primes")
    p.add_argument("--twins", action="store_true", help="emit twin pairs instead (needs --limit)")
    add_format(p)
    add_output(p)

    p = sub.add_parser("series", help="emit term/sum/residual rows for a series")
    p.set_defaults(run=cmd_series)
    p.add_argument("--kind", choices=("prime", "square-free", "twin", "custom"), required=True)
    p.add_argument("--terms", type=_count_arg, required=True)
    p.add_argument("--a", type=_positive_int, help="offset a (custom kind, default 1)")
    p.add_argument("--seq", help="custom sequence: comma list or start:step rule")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    add_format(p)
    add_digits(p, None)  # so that cmd_series can tell a given --digits from the default
    add_output(p)

    p = sub.add_parser("verify", help="run exact identity checks; exit 0 iff all pass")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--kind", choices=("prime", "square-free", "twin", "custom"))
    p.add_argument("--terms", type=_count_arg)
    p.add_argument("--a", type=_positive_int)
    p.add_argument("--seq")
    p.add_argument("--random", type=_positive_int, default=0, dest="random_instances",
                   metavar="N", help="run N randomized (F, a) identity instances")
    p.add_argument("--seed", type=_integer,
                   help=f"seed for --random (default {DEFAULT_SEED})")
    p.add_argument("--tamper-index", type=_positive_int, default=None,
                   help=argparse.SUPPRESS)
    add_output(p)

    p = sub.add_parser("kconst", help="estimate the twin-pair product constant")
    p.set_defaults(run=cmd_kconst)
    p.add_argument("--limit", type=parse_limit, required=True)
    p.add_argument(
        "--method",
        choices=("hl-tail", "aitken", "both"),
        default="hl-tail",
        help="aitken and both need --limit >= 1e6 for the sub-limits",
    )
    add_output(p)

    p = sub.add_parser("brun", help="exact reciprocal sum over the twin sequence")
    p.set_defaults(run=cmd_brun)
    p.add_argument("--limit", type=parse_limit, required=True)
    add_format(p, default="json")
    add_digits(p)
    add_output(p)

    p = sub.add_parser("mertens", help="residual-product ratios against e^-gamma/ln p")
    p.set_defaults(run=cmd_mertens)
    p.add_argument("--terms", type=_count_arg, required=True)
    p.add_argument("--last", action="store_true", help="only the final row")
    add_format(p)
    add_digits(p)
    add_output(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    # --seq items and F_n cells may have more than 4300 digits (exact
    # fractions are printed through decimal), so the interpreter's cap on
    # int <-> str conversion is lifted while the command runs, and restored
    # for an in-process caller
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        _check_output(args)
        return args.run(args)
    except SystemExit as exc:  # from argparse: --help, --version or a usage error
        return int(exc.code or 0)
    except BrokenPipeError:
        return 0
    # Ctrl-C: the child processes are stopped and an --output file is left
    # as it was on the way here
    except KeyboardInterrupt:
        _error("interrupted")
        return 130
    # the library's input errors (SeriesDomainError, ExtrapolationError,
    # CapacityError) are ValueErrors; series and verify raise the depth
    # guard's DepthGuardError as one
    except (OutputError, ValueError) as exc:
        _error(str(exc))
        return 2
    # an internal failure: a self-check, such as twin_constant's, or a
    # child process that ended before it answered
    except (ArithmeticError, ChildProcessError) as exc:
        _error(str(exc))
        return 1
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
