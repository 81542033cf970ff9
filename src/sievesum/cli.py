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
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import decimal
import json
import math
import os
import random
import re
import sys
import tempfile
from fractions import Fraction
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator

from . import __version__
from .sieve import PRIME_CAP, _Child, _spare_cpus, iter_primes, prime_lists, twin_lesser_lists

if TYPE_CHECKING:
    from .engine import SeriesDefinition, SeriesState

DEFAULT_SEED = 1000003
_INT64_MAX = 2**63 - 1
# between two elements of a list in a top-level object, as json.dumps(indent=2) writes it
_JSON_SEP = ",\n    "
# float rows per chunk, rendered in one `%`, and the fewest chunks worth
# starting render workers for (some 50 ms); fewer rows are rendered in the
# command's own process, which, with workers, draws at most _DRAWN_AHEAD
# chunks ahead of the output and sends a worker at most _TASK_CHUNKS at once
_CHUNK_ROWS = 1024
_POOL_MIN_CHUNKS = 32
_DRAWN_AHEAD = 12
_TASK_CHUNKS = 4
# Below this many bits, int -> Decimal is converted directly.
_LEAF_BITS = 128
# Exact integer arithmetic in decimal: no operation may round, and one that
# would raises (an inexact division at this precision runs out of memory
# before it could round).
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
_EXACT.traps[decimal.Inexact] = _EXACT.traps[decimal.Rounded] = True


class OutputError(Exception):
    """The output, --output or stdout, cannot be opened or written."""


def _use_color() -> bool:
    return sys.stderr.isatty() and not os.environ.get("NO_COLOR")


def _error(message: str) -> None:
    prefix = "\x1b[31merror:\x1b[0m" if _use_color() else "error:"
    print(f"{prefix} {message}", file=sys.stderr)


def _parse_int(text: str, invalid: str, fractional: str) -> int:
    """The integer `text` writes in decimal or in scientific notation such
    as 1e8; an infinity stands for +-2**63, beyond every bound. Text that is
    no number, or a number with a fraction, raises ArgumentTypeError with
    `invalid` or `fractional` formatted with text."""
    try:
        return int(text, 10)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise argparse.ArgumentTypeError(invalid.format(text))
    if math.isinf(value):
        value = math.copysign(2.0**63, value)
    if not value.is_integer():
        raise argparse.ArgumentTypeError(fractional.format(text))
    return int(value)


def parse_limit(text: str) -> int:
    """Integer limit; scientific notation such as 1e8 is accepted."""
    value = _parse_int(text, "invalid limit {!r}", "limit {!r} is not an integer")
    if value < 0:
        raise argparse.ArgumentTypeError("limit must be nonnegative")
    if value > PRIME_CAP:
        raise argparse.ArgumentTypeError(f"limit exceeds supported cap {PRIME_CAP}")
    return value


def _integer(text: str) -> int:
    """Integer; scientific notation such as 1e3 is accepted."""
    return _parse_int(text, "invalid integer {!r}", "invalid integer {!r}")


def _positive_int(text: str) -> int:
    """Integer of at least 1; scientific notation such as 2e5 is accepted."""
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("value must be at least 1")
    return value


def _up_to(maximum: int, exceeds: str):
    """The argparse type of integers from 1 to `maximum`, scientific notation
    such as 1e3 accepted; a larger value is refused as `exceeds` the maximum."""

    def parse(text: str) -> int:
        value = _positive_int(text)
        if value > maximum:
            raise argparse.ArgumentTypeError(f"{exceeds} the maximum {maximum}")
        return value

    return parse


# significant digits; counts of terms or primes, which islice takes up to sys.maxsize
_digits = _up_to(decimal.MAX_PREC, "digits exceed")
_count_arg = _up_to(sys.maxsize, "count exceeds")


def _exact_decimal(n: int) -> decimal.Decimal:
    """n >= 0 as an exact Decimal, in time below quadratic for huge n (and
    str() of a Decimal costs only its length, str() of an int its square).

    n is split in halves by bits, recursively, and rebuilt as a Decimal,
    whose multiplication is fast at this size, from the exact halves and
    powers of two: hi * 2**w + lo. This is the algorithm of CPython 3.12's
    _pylong.int_to_decimal_string.
    """
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

    with decimal.localcontext(_EXACT):
        return convert(n, n.bit_length())


def _decimal_json_int(value: decimal.Decimal) -> int | str:
    """A nonnegative integer held as an exact Decimal: the int itself up to
    the int64 maximum, its decimal text beyond it; str() of either is the
    CSV cell."""
    if value.adjusted() < 19 and (n := int(value)) <= _INT64_MAX:
        return n
    return str(value)


def _row_template(fmt: str, shape) -> str:
    """A `%` template of one output row: the fields of `shape` (a `%` field,
    or a list or dict of them, nested) as a CSV line, or the text that
    json.dumps(doc, indent=2) writes for `shape` as an element of a list in
    the top-level object doc, its fields bare. _emit joins such elements
    with _JSON_SEP."""
    text = json.dumps(shape, indent=2).replace("\n", "\n    ")
    if fmt == "csv":
        return ",".join(re.findall(r'"(%[^"]*)"', text)) + "\n"
    return re.sub(r'"(%[^"]*)"', r"\1", text)


def _float_renderer(keys: tuple[str, ...], fmt: str, digits: int):
    """render(cells): the CSV lines, or the JSON list elements joined as
    _emit joins them, of the records with `keys` whose cells, in order, are
    `cells` (one record, or many flat). A record has two int cells and then
    float cells x, each rounded to `digits` significant digits and shown as
    str() (CSV) or json.dumps() (JSON) of the rounded float, the same text
    but for nan and the infinities.

    For digits <= 15 that text is the one "%.{digits}g" % x prints, so the
    records are printed with one `%` and gated once: the text has no 'e+'
    and no 'e-3', and each float cell a '.' or, with a one-digit mantissa
    such as 2e-09, an 'e-' after that lone digit. A decimal of at most 15
    significant digits (DBL_DIG) in the normal float range survives the
    round trip through a double, so repr prints the same shortest digits in
    the same notation. A cell prints at most one of the two, and the ints,
    the keys (which may hold no '.', 'e+' or 'e-') and the separators print
    neither, so the counts reach the number of float cells only if each
    cell has one.
    Records that fail the gate (cells that print as integers, +-0, nan,
    inf, large or near-subnormal exponents) are rendered again one at a
    time, and those that fail alone, or have more digits, take the
    reference text.
    """
    width = len(keys)
    spec = f"%.{min(digits, 17)}g"  # 17 digits give back every double
    fast, slow = (
        _row_template(fmt, dict(zip(keys, ["%d", "%d", *[field] * (width - 2)])))
        for field in (spec, "%s")
    )
    sep = "" if fmt == "csv" else _JSON_SEP
    show = str if fmt == "csv" else json.dumps

    def render(cells) -> str:
        rows = len(cells) // width
        if digits <= 15:
            text = sep.join([fast] * rows) % tuple(cells)
            floats = (width - 2) * rows
            if "e+" not in text and "e-3" not in text and (
                (dots := text.count(".")) == floats
                or dots + len(re.findall(r"(?<![\d.])\de-", text)) == floats
            ):
                return text
        if rows > 1:
            return sep.join(render(cells[i : i + width]) for i in range(0, len(cells), width))
        return slow % (cells[0], cells[1], *(show(float(spec % x)) for x in cells[2:]))

    return render


def _pooled(render, chunks: Iterable, workers: int) -> Iterator[str]:
    """render(chunk) of each of `chunks`, in order, rendered by up to
    `workers` forked processes (see sieve._Child) and by this one, which
    draws the chunks.

    A worker that holds no task is sent the oldest chunks neither rendered
    nor sent, up to _TASK_CHUNKS of them, so that no pipe ever holds more
    than one task or its texts, whatever its size. This process draws a
    chunk at a time until _DRAWN_AHEAD chunks are out (drawn and not yet
    yielded); then it renders the newest chunk neither rendered nor sent,
    or, if there is none, waits for the oldest task out. Between two of
    these steps it takes in what the workers have rendered and sends them
    more, so that neither side waits on the other for long. The workers are
    stopped however the generator ends: exhausted, by an error, or closed
    by its consumer.
    """
    children: list[_Child] = []
    idle = collections.deque()  # the idle workers
    tasks = collections.deque()  # (worker, entries of its chunks) per task out, oldest first
    out = collections.deque()  # [chunk, text] per chunk out, oldest first; chunk None once taken

    def receive(task) -> None:
        child, entries = task
        for entry, text in zip(entries, child.receive()):
            entry[1] = text
        idle.append(child)

    chunks = iter(chunks)
    drawing = True
    try:
        while drawing or out:
            if drawing and len(out) < _DRAWN_AHEAD:
                chunk = next(chunks, None)
                drawing = chunk is not None
                if drawing:
                    out.append([chunk, None])
            for task in [task for task in tasks if task[0].ready()]:
                tasks.remove(task)
                receive(task)
            waiting = [entry for entry in out if entry[0] is not None]
            while waiting and (idle or len(children) < workers):
                if not idle:
                    children.append(_Child(lambda task: list(map(render, task)), children))
                    idle.append(children[-1])
                child = idle.popleft()
                entries, waiting = waiting[:_TASK_CHUNKS], waiting[_TASK_CHUNKS:]
                child.send([entry[0] for entry in entries])
                for entry in entries:
                    entry[0] = None
                tasks.append((child, entries))
            while out and out[0][1] is not None:
                yield out.popleft()[1]
            if drawing and len(out) < _DRAWN_AHEAD or not out:
                continue
            if waiting:
                newest = waiting[-1]
                newest[1], newest[0] = render(newest[0]), None
            else:  # the oldest chunk is in the oldest task
                receive(tasks.popleft())
    finally:
        for child in children:
            child.stop()


def _emit_float_rows(args: argparse.Namespace, meta: dict, keys: tuple[str, ...],
                     rows: Iterable[tuple], n_rows: int) -> None:
    """_emit the `n_rows` float records `rows` under "rows", rendered with
    `keys` and the --format and --digits of `args`.

    Rows are drawn in this process, in order, and rendered by one
    _float_renderer, so the text is the same either way: each row here as
    it is drawn, or, from _POOL_MIN_CHUNKS chunks of _CHUNK_ROWS rows on,
    where a CPU is spare, each chunk by this process or by one of the
    forked workers that sieve._spare_cpus allows (see _pooled). A chunk is
    one flat list of its rows' cells (which pickles several times faster
    than ReportRows, and faster than tuples), printed whole in one `%`
    where it passes the gate.
    """
    render = _float_renderer(keys, args.format, args.digits)
    workers = _spare_cpus()
    if n_rows < _POOL_MIN_CHUNKS * _CHUNK_ROWS or workers < 1:
        chunks = (render(row) for row in rows)
    else:
        flat = iter(lambda: list(chain.from_iterable(islice(rows, _CHUNK_ROWS))), [])
        chunks = _pooled(render, flat, workers)
    with contextlib.closing(chunks):
        _emit(args, {"meta": meta}, "rows", ",".join(keys) + "\n", chunks)


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
    elif first is None:
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


def _exact_cells(states: Iterable[SeriesState], a: int) -> Iterator[tuple[int, int, list]]:
    """For each exact state, (k, F_k, cells): the numerators and
    denominators of T_k, S_k and R_k, in that order, as _decimal_json_int
    cells.

    str() of a huge int costs the square of its length, str() of a Decimal
    only its length. So R's numerator rn and denominator rd are mirrored as
    exact Decimals and T and S are derived from them, every step a huge
    number times, divided by or added to a small one or another huge one:
    with R = R_prev (F - a) / F and g0 = gcd(F, a), u = (F - a) / g0 and
    v = F / g0,

        T = rn_prev / gcd(rn_prev, F) over rd_prev F / gcd(rn_prev, F)
        R = (rn_prev / g1)(u / g2) over (rd_prev / g2)(v / g1),
            g1 = gcd(rn_prev, v), g2 = gcd(rd_prev, u)
        S = (1 - R) / a = (rd - rn) / g over rd a / g, g = gcd(rd - rn, a)

    which are the reduced fractions, since gcd(rn, rd) = 1. The gcds are
    taken on the rows' own integers, each with one small operand.
    """
    rn_int = rd_int = 1
    with decimal.localcontext(_EXACT):
        rn = rd = decimal.Decimal(1)
        for state in states:
            f = state.F_k
            g = math.gcd(rn_int, f)
            t_num, t_den = rn / g, rd * (f // g)
            g0 = math.gcd(f, a)
            u, v = (f - a) // g0, f // g0
            g1, g2 = math.gcd(rn_int, v), math.gcd(rd_int, u)
            rn, rd = rn / g1 * (u // g2), rd / g2 * (v // g1)
            rn_int, rd_int = state.R_k.numerator, state.R_k.denominator
            g = math.gcd(rd_int - rn_int, a)
            s_num, s_den = (rd - rn) / g, rd * (a // g)
            yield state.k, f, [_decimal_json_int(x) for x in (t_num, t_den, s_num, s_den, rn, rd)]


def cmd_series(args: argparse.Namespace) -> int:
    from .engine import DepthGuardError, float_rows, iter_states

    defn = _definition_for(args)
    a = defn.offset_a
    meta = {"kind": args.kind, "a": a, "terms": args.terms, "mode": args.mode,
            "version": __version__}
    if args.mode == "exact":
        header = "n,F_n,T_num,T_den,S_num,S_den,R_num,R_den\n"
        fraction = {"num": "%s", "den": "%s"}
        shape = {"n": "%d", "F_n": "%d", "T": fraction, "S": fraction, "R": fraction}
        template = _row_template(args.format, shape)
        show = str if args.format == "csv" else json.dumps
        chunks = (
            template % (k, f, *map(show, cells))
            for k, f, cells in _exact_cells(iter_states(defn, args.terms), a)
        )
        try:
            _emit(args, {"meta": meta}, "rows", header, chunks)
        except DepthGuardError as exc:
            raise ValueError(f"{exc} (or use --mode float)") from None
        return 0
    keys = ("n", "F_n", "T", "S", "residual")
    try:
        _emit_float_rows(args, meta, keys, float_rows(defn, args.terms), args.terms)
    except OverflowError as exc:
        raise ValueError(f"{exc}; use --mode exact") from None
    return 0


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
    from .engine import _one_minus_a_times, _recursion_holds, _residual_holds

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


def _run_identity_checks(args: argparse.Namespace) -> dict:
    from .engine import DepthGuardError, iter_states

    states = iter_states(_definition_for(args), args.terms)
    if args.tamper_index is not None:
        if args.tamper_index > args.terms:
            raise ValueError("tamper index out of range")
        states = _tamper(states, args.tamper_index)
    extra = {
        "prime": (("totient-primorial", _totient_holds),),
        "twin": (("dominance", _dominance_holds),),
    }.get(args.kind, ())
    try:
        failure = _check_states(states, extra)
    except DepthGuardError as exc:
        raise ValueError(str(exc)) from None
    if failure:
        return failure
    checks = ["residual", "recursion", *(name for name, _ in extra)]
    return {"status": "pass", "kind": args.kind, "terms": args.terms, "checks": checks}


def _run_random_suite(args: argparse.Namespace) -> dict:
    from .engine import SeriesDefinition, iter_states

    rng = random.Random(args.seed)
    for instance in range(1, args.random_instances + 1):
        a = rng.randint(1, 50)
        length = rng.randint(1, 200)
        values = sorted(rng.sample(range(a + 1, 10**6), length))
        defn = SeriesDefinition(tuple(values), offset_a=a)
        failure = _check_states(iter_states(defn, length), instance=instance, a=a)
        if failure:
            return failure
    return {"status": "pass", "random_instances": args.random_instances, "seed": args.seed,
            "checks": ["residual", "recursion"]}


def cmd_verify(args: argparse.Namespace) -> int:
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
        print(f"seed: {args.seed}", file=sys.stderr)
        report = _run_random_suite(args)
        report.setdefault("seed", args.seed)
    else:
        # argparse leaves these None, so that --random can tell a given value from a default
        args.kind, args.terms = args.kind or "prime", args.terms or 100
        report = _run_identity_checks(args)
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
    from .series import brun_partial

    result = brun_partial(args.limit)
    num, den = _exact_decimal(result.sum.numerator), _exact_decimal(result.sum.denominator)
    context = decimal.Context(prec=args.digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    decimal_text = str(context.divide(num, den))
    num, den = _decimal_json_int(num), _decimal_json_int(den)
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
    from .series import mertens_rows

    rows = mertens_rows(args.terms, last=args.last)  # streamed
    first = args.terms if args.last else 1
    meta = {"terms": args.terms, "version": __version__}
    _emit_float_rows(args, meta, ("n", "p_n", "ratio"),
                     ((n, p, ratio) for n, (p, ratio) in enumerate(rows, first)),
                     args.terms - first + 1)
    return 0


def cmd_primes(args: argparse.Namespace) -> int:
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

    def add_digits(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--digits",
            type=_digits,
            default=15,
            help="significant digits for decimal rendering (default 15)",
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
    add_digits(p)
    add_output(p)

    p = sub.add_parser("verify", help="run exact identity checks; exit 0 iff all pass")
    p.set_defaults(run=cmd_verify)
    p.add_argument("--kind", choices=("prime", "square-free", "twin", "custom"))
    p.add_argument("--terms", type=_count_arg)
    p.add_argument("--a", type=_positive_int)
    p.add_argument("--seq")
    p.add_argument("--random", type=_positive_int, default=0, dest="random_instances",
                   metavar="N", help="run N randomized (F, a) identity instances")
    p.add_argument("--seed", type=_integer, default=DEFAULT_SEED,
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
        _check_output(args)
        return args.run(args)
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


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
