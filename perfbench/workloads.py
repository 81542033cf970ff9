"""The two benchmark workloads: CLI commands, their sizes and their checks.

A workload run is one or more `sievesum` commands run one after another,
each in a fresh process. Sizes are drawn from a band of +-1% around the
base size, from the seed alone, so a result can be rechecked on a seed it
was not tuned on. Smoke sizes are small enough for the benchmark's tests.

`float` is the float pipeline: `kconst` (sieve sweeps, `log1p` transform,
`tolist` + `fsum`, extrapolation), then a twin series in float mode (per-term
float rows, one-at-a-time prime streaming, many small rows rendered with
f-strings); no rationals. `exact` is exact rational arithmetic: a prime
series (reduced `Fraction` rows, CSV of ten-thousand-digit integers), the
identity checks of `verify`, and Brun's partial sum as one `Fraction`; the
sieve costs almost nothing there. Each workload joins several commands, so
that one run is about five seconds and every module is reached with only
two workloads, which leaves time for long runs on a noisy host.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import verify

BAND = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict[str, int]
    smoke: dict[str, int]
    commands: Callable[[dict[str, int]], list[list[str]]]
    check: Callable[[list[bytes], dict[str, int]], dict]

    def sizes(self, seed: int, smoke: bool = False) -> dict[str, int]:
        rng = random.Random(f"{self.name}/{seed}")
        base = self.smoke if smoke else self.base
        return {k: round(v * (1 + BAND * rng.uniform(-1, 1))) for k, v in base.items()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "float",
            base={"limit": 10**8, "terms": 200_000},
            smoke={"limit": 2 * 10**6, "terms": 3000},
            commands=lambda s: [
                ["kconst", "--limit", str(s["limit"]), "--method", "both"],
                ["series", "--kind", "twin", "--terms", str(s["terms"]), "--mode", "float"],
            ],
            check=lambda outs, s: {
                **verify.check_kconst(outs[0], s["limit"]),
                **verify.check_series_float(outs[1], s["terms"]),
            },
        ),
        Workload(
            "exact",
            base={"terms": 1500, "limit": 10**6},
            smoke={"terms": 40, "limit": 20_000},
            commands=lambda s: [
                ["series", "--kind", "prime", "--terms", str(s["terms"])],
                ["verify", "--kind", "prime", "--terms", str(s["terms"])],
                ["brun", "--limit", str(s["limit"])],
            ],
            check=lambda outs, s: {
                **verify.check_series_exact(outs[0], s["terms"]),
                **verify.check_exact_deep(outs[1], outs[2], s["terms"], s["limit"]),
            },
        ),
    )
}
