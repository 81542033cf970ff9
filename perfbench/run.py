"""Benchmark of the sievesum command line, end to end and layer by layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

Run from the root of a source tree; the program is run from `src/` there.
Every timed run is a fresh `python -m sievesum` process, started only after
the previous one exited: a closed loop with one client. Users pay
interpreter start-up and imports on every call, and `twin_constant` is
cached per process, so repeating a command inside one process would time a
cache hit.

One run of the benchmark:
1. runs the workload once at its smoke sizes and discards it (bytecode,
   page cache);
2. repeats the workload for `--seconds` (with `--trace 1`, the first half
   untraced and the second half under tracer.py), timing after each run one
   fresh interpreter that imports `sievesum.cli`, so set-up samples span the
   same stretch of time as the runs, then the set-up yardstick and the
   workload's yardstick from calibrate.py, which give the host's speed;
3. checks the first run's output with verify.py, and every later run's
   output against the first one's digest;
4. prints each metric with its unit, writes every raw sample to
   `.perfbench_out/results/`, and prints one JSON line last: the end-to-end
   metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

Exit code: 0 when every run was correct, 1 when one was not, 2 when the
program's source is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import layers
from calibrate import REFERENCE_S, SETUP_REFERENCE_S, SETUP_YARDSTICK
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150


@dataclass
class Run:
    """One workload run: its commands in sequence, each a fresh process."""

    traced: bool
    wall_s: float = 0.0
    command_wall_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    output_bytes: int = 0
    digest: str = ""
    error: str | None = None
    layers: dict[str, float] = field(default_factory=dict)


class Bench:
    """Runs commands of the program under `root` and keeps their outputs in
    `out_dir`. Commands are started by spawner.py, so that their peak RSS
    does not include this process's, and calibrate.py times the yardstick
    of `workload`; close() stops both."""

    def __init__(self, root: Path, out_dir: Path, workload: str) -> None:
        self.root = root
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py"), str(CHILD_TIMEOUT_S)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=root,
        )
        self.calibrator = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py"), workload, str(out_dir / "calibrate.out")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=root,
        )

    def close(self) -> None:
        for proc in (self.spawner, self.calibrator):
            proc.stdin.close()
            proc.wait()

    def __enter__(self) -> Bench:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def spawn(self, argv: list[str], stdout_path: Path) -> tuple[dict, str]:
        """Run argv to completion; return the spawner's reply (wall_s,
        maxrss_kb, cpu_s, code) and the tail of the command's stderr."""
        err_path = stdout_path.with_suffix(".err")
        request = {"argv": argv, "stdout": str(stdout_path), "stderr": str(err_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited")
        return json.loads(reply), err_path.read_bytes()[-500:].decode(errors="replace")

    def calibrate(self) -> float:
        """Wall time of one pass of the workload's yardstick."""
        self.calibrator.stdin.write("\n")
        self.calibrator.stdin.flush()
        reply = self.calibrator.stdout.readline()
        if not reply:
            raise RuntimeError("calibrate.py exited")
        return float(reply)

    def run(self, workload: Workload, sizes: dict[str, int], tag: str, traced: bool) -> Run:
        run = Run(traced=traced)
        digest = hashlib.sha256()
        for i, args in enumerate(workload.commands(sizes)):
            out = self.out_dir / f"{tag}.{i}.out"
            spans = self.out_dir / f"{tag}.{i}.npz"
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *args]
            else:
                argv = [sys.executable, "-m", "sievesum", *args]
            child, err = self.spawn(argv, out)
            code = child["code"]
            run.wall_s += child["wall_s"]
            run.command_wall_s.append(child["wall_s"])
            run.peak_rss_mb = max(run.peak_rss_mb, child["maxrss_kb"] / 1024)
            run.cpu_s += child["cpu_s"]
            run.output_bytes += out.stat().st_size
            digest.update(hashlib.sha256(out.read_bytes()).digest())
            if code != 0 and run.error is None:
                run.error = f"`sievesum {' '.join(args)}` exited {code}: {err.strip()}"
            if traced and code == 0:
                for name, value in layers.span_metrics(spans).items():
                    run.layers[name] = run.layers.get(name, 0) + value
                spans.unlink()
        run.digest = digest.hexdigest()
        return run

    def outputs(self, tag: str, commands: int) -> list[bytes]:
        return [(self.out_dir / f"{tag}.{i}.out").read_bytes() for i in range(commands)]

    def setup_s(self, code: str = "import sievesum.cli") -> float:
        argv = [sys.executable, "-c", code]
        return self.spawn(argv, self.out_dir / "setup.out")[0]["wall_s"]


def judge(bench: Bench, workload: Workload, sizes: dict[str, int], runs: list[Run]) -> dict:
    """Fully check the first run that exited cleanly; later runs must match
    its output digest. Marks failing runs and returns the checker's extras."""
    ref, extras = None, {}
    for run in runs:
        if run.error:
            continue
        if ref is None:
            ref = run
            try:
                outputs = bench.outputs("ref", len(workload.commands(sizes)))
                extras = workload.check(outputs, sizes)
            except Exception as exc:  # any malformed output is a failed run
                run.error = f"rejected by the verifier: {type(exc).__name__}: {exc}"
        elif run.digest != ref.digest:
            run.error = "output differs from the first run's"
        elif ref.error:
            run.error = "same output as a rejected run"
    return extras


def machine() -> dict:
    commit = None
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


def trimmed_mean(values) -> float:
    """Mean without the lowest and the highest value, if there are three or more."""
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) > 2 else values)


def measure(bench: Bench, workload: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    sizes = workload.sizes(seed, smoke)
    bench.run(workload, workload.sizes(seed, smoke=True), "warmup", traced=False)
    runs: list[Run] = []
    setup: list[float] = []
    setup_calib: list[float] = []
    calib = [bench.calibrate()]

    def timed(traced: bool) -> None:
        # the first clean run's outputs stay under "ref" for the verifier
        clean = any(not r.error for r in runs)
        runs.append(bench.run(workload, sizes, "last" if clean else "ref", traced))
        setup.append(bench.setup_s())
        setup_calib.append(bench.setup_s(SETUP_YARDSTICK))
        calib.append(bench.calibrate())

    start = time.perf_counter()
    untraced_until = start + (seconds / 2 if trace else seconds)
    while not runs or time.perf_counter() < untraced_until:
        timed(traced=False)
    while trace and (not runs[-1].traced or time.perf_counter() < start + seconds):
        timed(traced=True)
    extras = judge(bench, workload, sizes, runs)

    plain = [r for r in runs if not r.traced]
    traced = [r for r in runs if r.traced and not r.error]
    wall = [r.wall_s for r in plain]
    # The host's speed changes from one second to the next, so a single
    # yardstick time says little about the run beside it; over a whole
    # benchmark run the yardstick and the commands see the same mix of fast
    # and slow stretches. Means weigh that mix, and trimming one sample at
    # each end keeps one stalled run from moving the result.
    speed = REFERENCE_S[workload.name] / trimmed_mean(calib)
    end_to_end = {
        "wall_s": speed * trimmed_mean(wall),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
        "setup_s": SETUP_REFERENCE_S * trimmed_mean(setup) / trimmed_mean(setup_calib),
    }
    raw_wall = statistics.median(wall)
    per_layer = {}
    if traced:
        for name in traced[0].layers:
            per_layer[name] = statistics.median(r.layers[name] for r in traced)
        per_layer["cli.output_bytes"] = statistics.median(r.output_bytes for r in traced)
        per_layer["cli.bytes_per_s"] = per_layer["cli.output_bytes"] / per_layer["cli.self_s"]
        per_layer["process.cpu_s"] = statistics.median(r.cpu_s for r in plain)
        per_layer["process.wall_s"] = raw_wall
        per_layer["host.calib_s"] = trimmed_mean(calib)
        per_layer["trace.wall_s"] = statistics.median(r.wall_s for r in traced)
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - raw_wall
    failed = sum(1 for r in runs if r.error)
    q1, _, q3 = statistics.quantiles(wall, n=4) if len(wall) > 1 else wall * 3
    return {
        "workload": workload.name,
        "seed": seed,
        "sizes": sizes,
        "commands": workload.commands(sizes),
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "attempted": len(runs),
        "failed": failed,
        "errors": sorted({r.error for r in runs if r.error}),
        "end_to_end": end_to_end,
        "wall_s_quartiles": [q1, q3],
        "wall_s_samples": len(wall),
        "raw_wall_s": raw_wall,
        "calib_s": trimmed_mean(calib),
        "reference_s": REFERENCE_S[workload.name],
        "fail_ratio": failed / len(runs),
        "checks": extras,
        "per_layer": per_layer,
        "setup_s_samples": setup,
        "setup_calib_s_samples": setup_calib,
        "calib_s_samples": calib,
        "runs": [asdict(r) for r in runs],
    }


def report(result: dict, units: dict[str, str]) -> list[str]:
    """Human-readable lines: every metric by name, value and unit."""
    e2e, lines = result["end_to_end"], []
    sizes = " ".join(f"{k}={v}" for k, v in result["sizes"].items())
    lines.append(f"workload {result['workload']}  seed {result['seed']}  {sizes}")
    q1, q3 = result["wall_s_quartiles"]
    lines.append(
        f"  {'wall_s':28} {e2e['wall_s']:12.4f} s      "
        f"scaled: yardstick {result['calib_s']:.4f} s, reference {result['reference_s']} s"
    )
    lines.append(
        f"  {'':28} {result['raw_wall_s']:12.4f} s      unscaled median of "
        f"{result['wall_s_samples']} runs, quartiles {q1:.4f} .. {q3:.4f}"
    )
    for name in ("peak_rss_mb", "setup_s"):
        lines.append(f"  {name:28} {e2e[name]:12.4f} {units[name]}")
    lines.append(
        f"  {'fail_ratio':28} {result['fail_ratio']:12.4f} 1        "
        f"{result['failed']} of {result['attempted']} runs failed"
    )
    for name, value in result["checks"].items():
        lines.append(f"  {name:28} {value:12.4g} 1")
    for error in result["errors"]:
        lines.append(f"  error: {error}")
    for name, unit in units.items():
        if name in result["per_layer"]:
            lines.append(f"  {name:28} {result['per_layer'][name]:12.6g} {unit}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sievesum" / "cli.py").is_file():
        print(f"error: no sievesum source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shown = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    (args.out / "results").mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        with Bench(ROOT, args.out / "runs", name) as bench:
            result = measure(bench, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.smoke)
        path = args.out / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        print("\n".join(report(result, units)), flush=True)
        attempted += result["attempted"]
        failed += result["failed"]
        values = {**result["end_to_end"], **result["per_layer"]}
        prefix = f"{name}/" if args.workload == "all" else ""
        for metric in shown:
            if metric in values:  # a failed run may leave a layer unmeasured
                metrics[prefix + metric] = {"value": values[metric], "unit": units[metric]}
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
