"""The text of the commands' rows, which cli's _emit writes: `%` templates
of CSV and JSON rows; float rows printed with one `%` per chunk of rows, by
forked workers too where a long output leaves a CPU spare; and the exact
series rows, their fractions mirrored in exact `decimal` arithmetic, whose
str() is linear where str() of an int is quadratic.

Only the commands that write rows import this module, and it imports json
and decimal only in the functions that use them, so that `primes` in CSV
loads neither.
"""

from __future__ import annotations

import collections
import contextlib
import math
import re
from itertools import chain, islice
from typing import TYPE_CHECKING, Iterable, Iterator

from .cli import _JSON_SEP, _emit
from .sieve import _Child, _spare_cpus

if TYPE_CHECKING:
    import argparse
    from decimal import Decimal

    from .engine import SeriesState

_INT64_MAX = 2**63 - 1
# float rows per chunk, rendered in one `%`, and the fewest chunks worth
# starting render workers for (some 50 ms); fewer rows are rendered in the
# command's own process, which, with workers, draws at most _DRAWN_AHEAD
# chunks ahead of the output and sends a worker at most _TASK_CHUNKS at once
_CHUNK_ROWS = 1024
_POOL_MIN_CHUNKS = 32
_DRAWN_AHEAD = 12
_TASK_CHUNKS = 4


def _row_template(fmt: str, shape) -> str:
    """A `%` template of one output row: the fields of `shape` (a `%` field,
    or a list or dict of them, nested) as a CSV line, or the text that
    json.dumps(doc, indent=2) writes for `shape` as an element of a list in
    the top-level object doc, its fields bare. _emit joins such elements
    with _JSON_SEP."""
    if fmt == "csv":

        def fields(node) -> Iterator[str]:
            if isinstance(node, str):
                yield node
            else:
                for child in node.values() if isinstance(node, dict) else node:
                    yield from fields(child)

        return ",".join(fields(shape)) + "\n"
    import json

    text = json.dumps(shape, indent=2).replace("\n", "\n    ")
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
    if fmt == "csv":
        show = str
    else:
        import json

        show = json.dumps

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

    Rows are drawn in this process, in order, _CHUNK_ROWS at a time, as one
    flat list of their cells (which pickles several times faster than
    ReportRows, and faster than tuples), and each chunk is rendered by one
    _float_renderer, printed whole in one `%` where it passes the gate. So
    the text is the same whoever renders a chunk: this process, or, from
    _POOL_MIN_CHUNKS chunks on, where a CPU is spare, this process or one
    of the forked workers that sieve._spare_cpus allows (see _pooled).
    """
    render = _float_renderer(keys, args.format, args.digits)
    rows = iter(rows)
    flat = iter(lambda: list(chain.from_iterable(islice(rows, _CHUNK_ROWS))), [])
    workers = _spare_cpus()
    if n_rows < _POOL_MIN_CHUNKS * _CHUNK_ROWS or workers < 1:
        chunks = (render(chunk) for chunk in flat)
    else:
        chunks = _pooled(render, flat, workers)
    with contextlib.closing(chunks):
        _emit(args, {"meta": meta}, "rows", ",".join(keys) + "\n", chunks)


def _decimal_json_int(value: Decimal) -> int | str:
    """A nonnegative integer held as an exact Decimal: the int itself up to
    the int64 maximum, its decimal text beyond it; str() of either is the
    CSV cell."""
    if value.adjusted() < 19 and (n := int(value)) <= _INT64_MAX:
        return n
    return str(value)


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
    taken on the rows' own integers, each with one small operand. Where
    g = a, S's denominator is R's, and its cell is R's.
    """
    from decimal import Decimal, localcontext

    from .series import _exact_context

    exact = _exact_context()
    rn_int = rd_int = 1
    rn = rd = Decimal(1)
    for state in states:
        # the exact context is set only here, not while the consumer holds a row
        with localcontext(exact):
            f = state.F_k
            g = math.gcd(rn_int, f)
            t_num, t_den = rn / g, rd * (f // g)
            g0 = math.gcd(f, a)
            u, v = (f - a) // g0, f // g0
            g1, g2 = math.gcd(rn_int, v), math.gcd(rd_int, u)
            rn, rd = rn / g1 * (u // g2), rd / g2 * (v // g1)
            rn_int, rd_int = state.R_k.numerator, state.R_k.denominator
            g = math.gcd(rd_int - rn_int, a)
            cells = [_decimal_json_int(x) for x in (t_num, t_den, (rd - rn) / g, rn, rd)]
            # S's denominator rd a / g is R's where g = a, as for every a = 1 row
            s_den = cells[-1] if g == a else _decimal_json_int(rd * (a // g))
            cells.insert(3, s_den)
        yield state.k, f, cells


def _exact_rows(states: Iterable[SeriesState], a: int, fmt: str) -> Iterator[str]:
    """The rows of the exact series whose states are `states`, with offset
    `a`, as CSV lines or JSON list elements (see _row_template): n, F_n
    and T, S and R, each as its numerator and denominator."""
    fraction = {"num": "%s", "den": "%s"}
    shape = {"n": "%d", "F_n": "%d", "T": fraction, "S": fraction, "R": fraction}
    template = _row_template(fmt, shape)
    if fmt == "csv":
        show = str
    else:
        import json

        show = json.dumps
    for k, f, cells in _exact_cells(states, a):
        yield template % (k, f, *map(show, cells))
