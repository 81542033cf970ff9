"""Output checks for the benchmark workloads, independent of the timed code.

Nothing here imports sievesum. Primes come from a plain whole-range numpy
sieve, exact rows are checked against running primorial and totient
products kept by this module, and floating results are compared with
references computed in higher precision (decimal, mpmath).

Each check takes the raw bytes a command wrote and raises `OutputError`
naming the first mismatch.
"""

from __future__ import annotations

import decimal
import json
import math
import sys

import mpmath
import numpy as np

#: Reference value of K used by the repository's acceptance gates.
K_REFERENCE = 0.12933717
#: Twin-prime constant C2 = prod_{p>2} (1 - 1/(p-1)^2), published value.
C2_REFERENCE = 0.66016181584686957392


class OutputError(ValueError):
    """A command's output is malformed or disagrees with the reference."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


def odd_prime_flags(limit: int) -> np.ndarray:
    """flags[i] is True iff 2*i + 1 is prime, for odd values up to `limit`."""
    flags = np.ones((limit + 1) // 2, dtype=bool)
    if flags.size:
        flags[0] = False
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    return flags


def primes_upto(limit: int) -> np.ndarray:
    odd = 2 * np.flatnonzero(odd_prime_flags(limit)) + 1
    return np.concatenate([[2], odd]) if limit >= 2 else odd


def first_primes(n: int) -> list[int]:
    limit = 64
    while True:
        primes = primes_upto(limit)
        if primes.size >= n:
            return primes[:n].tolist()
        limit *= 4


def twin_lessers(limit: int) -> np.ndarray:
    """Lesser members p of twin pairs with p + 2 <= limit."""
    flags = odd_prime_flags(limit)
    return 2 * np.flatnonzero(flags[:-1] & flags[1:]) + 1


def _prime_factors(n: int, primes: list[int]) -> set[int]:
    out = set()
    for p in primes:
        if p * p > n:
            break
        while n % p == 0:
            out.add(p)
            n //= p
    if n > 1:
        out.add(n)
    return out


def _csv_rows(out: bytes, header: str, rows: int) -> list[list[str]]:
    lines = out.decode("ascii").split("\n")
    _require(lines[0] == header, f"header {lines[0][:80]!r}")
    _require(lines[-1] == "", "output does not end with a newline")
    body = lines[1:-1]
    _require(len(body) == rows, f"{len(body)} rows, expected {rows}")
    return [line.split(",") for line in body]


def check_kconst(out: bytes, limit: int) -> dict:
    """Check `kconst --method both` JSON; return k_abs_err and k_err_bar.

    The pair count and log partial product are recomputed from an own twin
    list. The estimate's error bar must cover its distance to K_REFERENCE.
    """
    doc = json.loads(out)
    _require(doc["limit"] == limit, f"limit {doc['limit']}")
    lessers = twin_lessers(limit)
    _require(doc["pair_count"] == lessers.size, f"pair_count {doc['pair_count']}, own count {lessers.size}")
    v = lessers.astype(np.float64)
    own_log = math.fsum(np.log1p(-1.0 / v).tolist() + np.log1p(-1.0 / (v + 2.0)).tolist())
    _require(math.isclose(doc["log_partial"], own_log, rel_tol=1e-12), f"log_partial {doc['log_partial']}, own {own_log}")
    _require(math.isclose(doc["partial"], math.exp(own_log), rel_tol=1e-12), f"partial {doc['partial']}")
    _require(abs(doc["c2_used"] - C2_REFERENCE) < 1e-10, f"c2_used {doc['c2_used']}")
    k_abs_err = abs(doc["k_estimate"] - K_REFERENCE)
    k_err_bar = doc["error_estimate"]
    _require(k_err_bar >= k_abs_err, f"error bar {k_err_bar} does not cover |K - ref| = {k_abs_err}")
    return {"k_abs_err": k_abs_err, "k_err_bar": k_err_bar}


def check_series_exact(out: bytes, terms: int) -> dict:
    """Check `series --kind prime` exact CSV row by row.

    With P_n the n-th primorial and Phi_n = prod (p_i - 1), row n must hold
    T = Phi_{n-1}/P_n, R = Phi_n/P_n and S = 1 - R as reduced fractions.
    A reduced denominator is the product of the first n primes that divide
    no p_j - 1 counted so far, so reduction is checked without a gcd. The
    big integers are parsed and multiplied as exact decimals (libmpdec),
    which is linear to parse where int() is quadratic.
    """
    rows = _csv_rows(out, "n,F_n,T_num,T_den,S_num,S_den,R_num,R_den", terms)
    primes = first_primes(terms)
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        ctx.traps[decimal.Rounded] = True
        primorial, phi, den_r = D(1), D(1), D(1)
        divisors: set[int] = set()
        for n, (p, row) in enumerate(zip(primes, rows), 1):
            _require(len(row) == 8, f"row {n}: {len(row)} fields")
            _require(row[0] == str(n) and row[1] == str(p), f"row {n}: n, F_n = {row[0]}, {row[1]}")
            t_num, t_den, s_num, s_den, r_num, r_den = (D(x) for x in row[2:])
            primorial *= p
            den_t = den_r * p
            _require(t_den == den_t and t_num * primorial == phi * t_den, f"row {n}: T")
            new = _prime_factors(p - 1, primes) - divisors
            divisors |= new
            den_r = den_t // math.prod(new)
            phi *= p - 1
            _require(r_den == den_r and r_num * primorial == phi * r_den, f"row {n}: R")
            _require(s_den == r_den and s_num == r_den - r_num, f"row {n}: S")
    return {}


def check_series_float(out: bytes, terms: int) -> dict:
    """Check `series --kind twin --mode float` CSV (a = 2, F = odd primes).

    Each residual is compared with the product (1/2) prod (1 - 2/p) carried
    in 34-digit decimal arithmetic, the last one included; T and S must
    follow from it (T_n = 2 R_{n-1} / F_n, S_n = 1/2 - R_n).
    """
    rows = _csv_rows(out, "n,F_n,T,S,residual", terms)
    primes = first_primes(terms + 1)[1:]
    n_col, f_col, t, s, r = zip(*rows)
    _require(list(n_col) == [str(n) for n in range(1, terms + 1)], "column n")
    _require(list(f_col) == [str(p) for p in primes], "column F_n")
    t, s, r = (np.array(col, dtype=np.float64) for col in (t, s, r))
    ref = []
    with decimal.localcontext() as ctx:
        ctx.prec = 34
        product = decimal.Decimal(1) / 2
        for p in primes:
            product *= 1 - decimal.Decimal(2) / p
            ref.append(float(product))
    ref = np.array(ref)
    prev = np.concatenate([[0.5], r[:-1]])
    for name, bad in (
        ("residual", ~(np.abs(r - ref) <= 1e-12 * ref)),
        ("T", ~(np.abs(t - 2.0 * prev / np.array(primes)) <= 1e-12 * t)),
        ("S", ~(np.abs(s + r - 0.5) <= 1e-13)),
    ):
        _require(not bad.any(), f"row {int(np.argmax(bad)) + 1}: {name}")
    return {}


def _exact_reciprocal_sum(values: list[tuple[int, int]]) -> tuple[int, int]:
    """Reduced (num, den) of sum(c / p) over distinct primes p with
    multiplicity c < p, by binary splitting.

    The denominator is the product of the primes: no p divides the numerator,
    because its term c * prod_{q != p} q is the only one p does not divide.
    """

    def split(lo: int, hi: int) -> tuple[int, int]:
        if hi - lo == 1:
            p, c = values[lo]
            return c, p
        mid = (lo + hi) // 2
        n1, d1 = split(lo, mid)
        n2, d2 = split(mid, hi)
        return n1 * d2 + n2 * d1, d1 * d2

    return split(0, len(values))


def check_exact_deep(verify_out: bytes, brun_out: bytes, terms: int, limit: int) -> dict:
    """Check `verify --kind prime` (must pass) and `brun` JSON.

    The brun fraction must equal an own exact sum over an own twin list, and
    its decimal must be the correctly rounded 15-digit value of an mpmath
    sum of the same reciprocals.
    """
    report = json.loads(verify_out)
    expected = {
        "status": "pass",
        "kind": "prime",
        "terms": terms,
        "checks": ["residual", "recursion", "totient-primorial"],
    }
    _require(report == expected, f"verify report {report}")

    doc = json.loads(brun_out)
    lessers = twin_lessers(limit).tolist()
    members = sorted(set(lessers) | {p + 2 for p in lessers})
    _require(doc["limit"] == limit, f"limit {doc['limit']}")
    _require(doc["terms"] == 2 * len(lessers), f"terms {doc['terms']}, own {2 * len(lessers)}")
    counted = [(p, 2 if p == 5 else 1) for p in members]
    num, den = _exact_reciprocal_sum(counted)
    old_cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _require(str(doc["sum"]["num"]) == str(num), "sum numerator")
        _require(str(doc["sum"]["den"]) == str(den), "sum denominator")
    finally:
        sys.set_int_max_str_digits(old_cap)
    with mpmath.workdps(40):
        ref = mpmath.fsum(c / mpmath.mpf(p) for p, c in counted)
        got = mpmath.mpf(doc["decimal"])
        ulp = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(ref)) - 14)
        _require(abs(got - ref) <= ulp / 2, f"decimal {doc['decimal']}, reference {mpmath.nstr(ref, 20)}")
    return {}
