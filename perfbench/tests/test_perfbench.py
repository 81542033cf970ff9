"""Tests of the benchmark itself, on the tiny smoke sizes."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERFBENCH))

import run as bench  # noqa: E402
import verify  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
SELF_TIMES = {
    m["name"] for m in SPEC["per_layer"]
    if m["unit"] == "s" and not m["name"].startswith(("process.", "host.", "trace."))
}
SEED = 7


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Traced smoke run of every workload, through the command-line entry."""
    out = tmp_path_factory.mktemp("perfbench")
    argv = ["--workload", "all", "--seed", str(SEED), "--seconds", "0", "--trace", "1", "--smoke", "--out", str(out)]
    code = bench.main(argv)
    results = {
        name: json.loads((out / "results" / f"{name}-seed{SEED}-trace1.json").read_text())
        for name in WORKLOADS
    }
    return code, results


def test_every_metric_is_emitted_for_every_workload(smoke):
    code, results = smoke
    assert code == 0
    for name, result in results.items():
        assert result["failed"] == 0, result["errors"]
        assert set(result["end_to_end"]) == END_TO_END, name
        assert set(result["per_layer"]) == PER_LAYER, name
        assert all(v > 0 for v in result["end_to_end"].values()), name


def test_end_to_end_line_lists_the_end_to_end_metrics(tmp_path, capsys):
    argv = ["--workload", "exact", "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke", "--out", str(tmp_path)]
    assert bench.main(argv) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == 1 and line["failed"] == 0
    assert set(line["metrics"]) == END_TO_END


def test_traced_counts_match_the_commands(smoke):
    _, results = smoke
    layer = {name: r["per_layer"] for name, r in results.items()}
    sizes = {name: r["sizes"] for name, r in results.items()}
    # kconst: one prime sweep for C2 and four twin sweeps; the float series: one
    assert layer["float"]["sieve.sweeps"] == 5 + 1
    assert layer["float"]["kconst.partial_product_calls"] == 4
    assert layer["float"]["engine.states"] == sizes["float"]["terms"]
    # the series and verify commands each step through `terms` states
    assert layer["exact"]["engine.states"] == 2 * sizes["exact"]["terms"]
    pairs = verify.twin_lessers(sizes["exact"]["limit"]).size
    assert layer["exact"]["series.brun_terms"] == 2 * pairs


def test_traced_self_times_fit_in_the_traced_wall_time(smoke):
    _, results = smoke
    for name, result in results.items():
        layer = result["per_layer"]
        self_times = [layer[k] for k in SELF_TIMES]
        assert all(t >= 0 for t in self_times), name
        assert sum(self_times) <= layer["trace.wall_s"], name


def _flip_digit(path: Path, pattern: bytes) -> None:
    """Replace one digit inside the first match of `pattern` by another."""
    data = path.read_bytes()
    match = re.search(pattern, data)
    pos = match.end() - 1
    digit = data[pos] - ord("0")
    path.write_bytes(data[:pos] + str((digit + 1) % 10).encode() + data[pos + 1 :])


class TamperingBench(bench.Bench):
    """Flips a digit in the first command's output of the n-th timed run."""

    def __init__(self, root, out_dir, tamper_at: int) -> None:
        super().__init__(root, out_dir, "exact")
        self.tamper_at = tamper_at
        self.timed = 0

    def spawn(self, argv, stdout_path):
        result = super().spawn(argv, stdout_path)
        if stdout_path.name in ("ref.0.out", "last.0.out"):
            self.timed += 1
            if self.timed == self.tamper_at:
                _flip_digit(stdout_path, rb"\n\d+,\d+,\d+")
        return result


@pytest.mark.parametrize("tamper_at, failed", [(1, 2), (2, 1)])
def test_tampered_output_counts_in_fail_ratio(tmp_path, tamper_at, failed):
    # run 1 is verified in full and run 2 (traced) is compared with run 1's
    # digest, so a tampered run 1 fails both
    with TamperingBench(bench.ROOT, tmp_path, tamper_at) as b:
        result = bench.measure(b, WORKLOADS["exact"], SEED, seconds=0, trace=True, smoke=True)
    assert result["attempted"] == 2
    assert result["failed"] == failed
    assert result["fail_ratio"] == failed / 2


# A digit each verifier checks exactly, in each command's output: the
# workload, the command's index in it, and where the digit ends.
FLIPS = [
    ("float", 0, rb'"pair_count": \d'),
    ("float", 1, rb"\n\d+,\d+,0\.\d+,0\.\d+,0\.\d"),
    ("exact", 0, rb"\n\d+,\d+,\d+,\d+,\d+"),
    ("exact", 1, rb'"terms": \d'),
    ("exact", 2, rb'"num": "\d+'),
]


@pytest.mark.parametrize("name, index, pattern", FLIPS)
def test_verifier_rejects_a_flipped_digit(tmp_path, name, index, pattern):
    workload = WORKLOADS[name]
    sizes = workload.sizes(SEED, smoke=True)
    with bench.Bench(bench.ROOT, tmp_path, name) as b:
        assert b.run(workload, sizes, "ref", traced=False).error is None
    commands = len(workload.commands(sizes))
    workload.check(b.outputs("ref", commands), sizes)
    _flip_digit(tmp_path / f"ref.{index}.out", pattern)
    with pytest.raises(verify.OutputError):
        workload.check(b.outputs("ref", commands), sizes)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "float", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
