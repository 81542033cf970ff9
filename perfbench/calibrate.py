"""Measure the host's current speed with a fixed miniature of a workload.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes, and a command's CPU time drifts with its wall time, so
neither is steady on its own. How much a slowdown costs depends on the kind
of work: numpy sweeps, pure-Python float loops and big-integer arithmetic
slow by different amounts, and a generic loop does not follow the commands.
So each workload has here a yardstick made of the same kinds of work in
about the same proportions as its commands, and run.py times it between
the workload's runs and scales the run's times by REFERENCE_S over the
yardstick's time (see run.measure). It does not import sievesum, so no
change to the program moves it.

It runs in a separate warm process, apart from spawner.py, so that
spawner.py, which forks every timed command, stays small (see there).

Usage: python3 calibrate.py WORKLOAD OUTPUT
Each line read on stdin runs the workload's yardstick once, writing its
text to OUTPUT as the commands do, and answers one line on stdout: the
yardstick's wall time in seconds. Exits when stdin closes.
"""

import math
import sys
import time
from fractions import Fraction

import numpy as np

# the yardstick's time on the host the benchmark was tuned on, in seconds
REFERENCE_S = {"float": 0.3, "exact": 0.45}

# Set-up (a fresh interpreter importing sievesum.cli) is interpreter start
# and imports, which follow neither yardstick, so it has its own: a fresh
# interpreter importing what sievesum.cli imports apart from sievesum. run.py
# starts it through spawner.py right after each set-up sample.
SETUP_YARDSTICK = "import argparse, dataclasses, fractions, json, random, numpy"
SETUP_REFERENCE_S = 0.2


def odd_sieve(limit: int) -> np.ndarray:
    """flags[i] is True iff 2*i + 1 is an odd prime, for 2*i + 1 < limit."""
    flags = np.ones(limit // 2, dtype=bool)
    flags[0] = False
    for i in range(1, math.isqrt(limit) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    return flags


def float_work(out) -> None:
    """kconst: a sieve sweep, log1p over the twins, tolist + fsum; then a twin
    series in float mode: one float row per term, rendered with f-strings."""
    flags = odd_sieve(30_000_000)
    twins = 2 * np.flatnonzero(flags[:-1] & flags[1:]) + 1
    x = twins.astype(np.float64)
    log_k = math.fsum(np.log1p(-1.0 / (x - 1.0) ** 2).tolist())
    log_r = 0.0
    for k, f in enumerate(twins[:60_000].tolist(), 1):
        t = math.exp(log_r) / f
        log_r += math.log1p(-1.0 / f)
        r = math.exp(log_r)
        out.write(f"{k},{f},{t:.15g},{1.0 - r:.15g},{r:.15g}\n")
    out.write(f"{log_k:.15g}\n")


def exact_work(out) -> None:
    """A prime series as reduced fractions rendered in full, then Brun's sum
    over twin pairs as one Fraction."""
    flags = odd_sieve(500_000)
    primes = (2 * np.flatnonzero(flags) + 1).tolist()
    s, r = Fraction(0), Fraction(1)
    for k, p in enumerate(primes[:700], 1):
        t = r / p
        s += t
        r *= Fraction(p - 1, p)
        out.write(f"{k},{p},{t.numerator},{t.denominator},{s.numerator},{s.denominator}\n")
    brun = Fraction(0)
    for p in (2 * np.flatnonzero(flags[:-1] & flags[1:]) + 1).tolist()[:4000]:
        brun += Fraction(1, p) + Fraction(1, p + 2)
    out.write(f"{brun.numerator}/{brun.denominator}\n")


WORK = {"float": float_work, "exact": exact_work}


def main() -> None:
    sys.set_int_max_str_digits(0)
    work, path = WORK[sys.argv[1]], sys.argv[2]
    for _ in sys.stdin:
        start = time.perf_counter()
        with open(path, "w") as out:
            work(out)
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    main()
