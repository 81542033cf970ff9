"""Per-layer metrics from the spans a traced run wrote (see tracer.py).

A span's self time is its duration minus the durations of the spans opened
directly inside it. A layer's time is the self time of the spans of the
functions it names, so time spent in a callee of another module is charged
to the callee.
"""

from __future__ import annotations

import json

import numpy as np

SECONDS = 1e-9

# Self-time metrics, each the sum over the listed functions' spans. A
# module name alone stands for every function of that module.
_SELF_TIMES = {
    "sieve.busy_s": ("sieve",),
    "kconst.twin_constant_s": ("kconst.twin_constant",),
    "kconst.partial_product_s": ("kconst.partial_product",),
    "kconst.extrapolate_s": ("kconst.extrapolate_hl", "kconst.extrapolate_aitken"),
    "engine.exact_s": ("engine",),
    "engine.float_rows_s": ("engine.float_rows",),
    "engine.to_decimal_s": ("engine.to_decimal",),
    "series.brun_partial_s": ("series.brun_partial",),
    "cli.self_s": ("cli",),
}
_ENGINE_NOT_EXACT = ("engine.float_rows", "engine.to_decimal")


def span_metrics(path) -> dict[str, float]:
    """Self times (s) and counts of one traced command."""
    with np.load(path) as data:
        meta = json.loads(str(data["names"]))
        name, kind, parent = data["name"], data["kind"], data["parent"]
        dur = data["end"] - data["start"]
        count = data["count"]
    names, generator = meta["names"], np.array(meta["generators"], dtype=bool)
    nested = parent >= 0
    self_ns = dur.copy()
    np.subtract.at(self_ns, parent[nested], dur[nested])
    is_call, is_next = kind == 0, kind == 1  # tracer.CALL, tracer.NEXT

    def of(*targets: str) -> np.ndarray:
        """Spans of the named functions ("module.function" or "module")."""
        ids = [i for i, n in enumerate(names) if n in targets or n.split(".")[0] in targets]
        return np.isin(name, ids)

    out = {}
    for metric, targets in _SELF_TIMES.items():
        sel = of(*targets)
        if metric == "engine.exact_s":
            sel &= ~of(*_ENGINE_NOT_EXACT)
        out[metric] = float(self_ns[sel].sum()) * SECONDS
    out["sieve.sweeps"] = int((is_call & of("sieve") & generator[name]).sum())
    out["sieve.values"] = int(count[is_next & of("sieve")].sum())
    out["kconst.partial_product_calls"] = int((is_call & of("kconst.partial_product")).sum())
    out["engine.states"] = int(count[is_next & of("engine.iter_states", "engine.float_rows")].sum())
    in_brun = is_call & of("sieve.twin_sequence_up_to") & nested
    in_brun[in_brun] = of("series.brun_partial")[parent[in_brun]]
    out["series.brun_terms"] = int(count[in_brun].sum())
    return out
