"""Run one sievesum CLI command with a span around every call into its modules.

Usage: python3 tracer.py SPANS.npz ARG...

Every public function of sievesum's modules (sieve, kconst, engine, series,
cli) is replaced, in each module that holds a reference to it, by a wrapper
that records a span. The modules import each other with `from ... import`,
so the name must be replaced in the calling module, not only where the
function is defined. Calling a generator function records a span for the
call, and every `next()` on the generator records one more, so the time a
generator spends producing values is charged to it and not to its consumer.

Spans are kept in memory and written to SPANS.npz when the command returns.
The exit code is the command's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

import sievesum.cli
import sievesum.engine
import sievesum.kconst
import sievesum.series
import sievesum.sieve

MODULES = (sievesum.sieve, sievesum.kconst, sievesum.engine, sievesum.series, sievesum.cli)
CALL, NEXT = 0, 1


class Recorder:
    """Spans as parallel arrays; span i was opened inside span parent[i]."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.generators: list[bool] = []
        self.name = array("i")
        self.kind = array("b")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.stack = [-1]

    def register(self, name: str, generator: bool) -> int:
        self.names.append(name)
        self.generators.append(generator)
        return len(self.names) - 1

    def open(self, name_id: int, kind: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.kind.append(kind)
        self.parent.append(self.stack[-1])
        self.end.append(0)
        self.count.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, count: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.count[idx] = count
        self.stack.pop()

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(json.dumps({"names": self.names, "generators": self.generators})),
            name=np.frombuffer(self.name, dtype=np.int32),
            kind=np.frombuffer(self.kind, dtype=np.int8),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            count=np.frombuffer(self.count, dtype=np.int64),
        )


class TracedIterator:
    __slots__ = ("it", "name_id", "rec")

    def __init__(self, it, name_id: int, rec: Recorder) -> None:
        self.it, self.name_id, self.rec = it, name_id, rec

    def __iter__(self):
        return self

    def __next__(self):
        idx = self.rec.open(self.name_id, NEXT)
        try:
            value = next(self.it)
        except BaseException:
            self.rec.close(idx, 0)
            raise
        # an array yielded by a sieve generator carries one value per element
        self.rec.close(idx, value.size if isinstance(value, np.ndarray) else 1)
        return value


def _wrap(fn, name_id: int, rec: Recorder, generator: bool):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name_id, CALL)
        count = 0
        try:
            result = fn(*args, **kwargs)
            if generator:
                result = TracedIterator(result, name_id, rec)
            elif isinstance(result, list):
                count = len(result)
            return result
        finally:
            rec.close(idx, count)

    return traced


def install(rec: Recorder) -> None:
    """Replace every public sievesum function in every module that names it."""
    owners = {m.__name__ for m in MODULES}
    wrappers: dict[int, object] = {}
    for module in MODULES:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            owner = getattr(obj, "__module__", None)
            if owner not in owners:
                continue
            if id(obj) not in wrappers:
                generator = inspect.isgeneratorfunction(obj)
                name = f"{owner.rsplit('.', 1)[1]}.{obj.__name__}"
                wrappers[id(obj)] = _wrap(obj, rec.register(name, generator), rec, generator)
            setattr(module, attr, wrappers[id(obj)])


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    install(rec)
    code = sievesum.cli.main(argv)
    sys.stdout.flush()
    rec.save(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
