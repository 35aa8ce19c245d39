#!/usr/bin/env python3
"""assocsort benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense_one_pass --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src/`` and from nowhere
else.  Inputs are generated from ``--seed`` through
``assocsort.generators`` and pinned by ``fingerprints.json``.  Load is a
closed loop with one caller: each call starts after the previous one
returned, and at most one child process runs at a time.  Every output is
checked against ``sorted()`` outside the clock.

The report ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The exit status is 0 only when every check passed.
See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    from assocsort import engine
    from assocsort.generators import DatasetSpec, generate
except ImportError as exc:
    sys.exit(f"perfbench: cannot import assocsort from {SRC}: {exc}")
if not Path(engine.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"perfbench: assocsort was imported from {engine.__file__}, not from {SRC}")

from tracing import EngineTrace, engine_metrics  # noqa: E402

W = 64
# The tail percentile needs at least ten samples beyond it.
MIN_SAMPLES = 11
SETUP_REPEATS = 3
TRACE_MIN_PAIRS = 3
CHILD_TIMEOUT_S = 60
# A sorted() sample covers enough calls to sort this many values, so that
# short baselines (1 ms at n=2^12) are not lost in timer and cache noise.
BASELINE_VALUES = 1 << 18
FINGERPRINTS = HERE / "fingerprints.json"


@dataclass(frozen=True)
class Workload:
    family: str
    n: int
    beta: int
    cli: bool


# Why each workload is here is written in BENCHMARK.json and README.md.
WORKLOADS = {
    # One pass, all four phases at full length, no deferral or split.
    "dense_one_pass": Workload("best_case", 1 << 18, 1, False),
    # About 65 short passes over a shrinking suffix: the same phases, used
    # differently, so a change that helps one and costs the other shows.
    "spread_multi_pass": Workload("uniform", 1 << 16, 8, False),
    # Tag-boundary split, then one pass per value: practice-bound.
    "sparse_universe": Workload("full_universe", 1 << 12, 1, False),
    # One CLI process on a 2 MiB binary file: the only data_io path.
    "cli_binary_file": Workload("best_case", 1 << 18, 1, True),
}

# Declared in BENCHMARK.json and written to the JSON line.  Sort times are
# declared only as ratios to sorted() timed in the same run: on a shared
# machine the host's speed drifts between runs, and the ratio cancels it.
END_TO_END = {
    "slowdown_vs_sorted": "ratio",
    "peak_rss_growth_mb": "MB",
    "setup_s": "s",
}
# Printed in the readable report only: absolute times carry that drift.
REPORTED = {
    "values_per_s": "values/s",
    "latency_ms_tail": "ms",
}

PER_LAYER = {
    "engine.sort.ms": "ms",
    "engine.practice.ms": "ms",
    "engine.store.ms": "ms",
    "engine.partition.ms": "ms",
    "engine.retrieve.ms": "ms",
    "engine.presort.ms": "ms",
    "engine.passes": "count",
    "engine.pass_yield": "ratio",
    "engine.practice.words_scanned": "words",
    "engine.practice.rescan_ratio": "ratio",
    "engine.practice.words_written": "words",
    "engine.store.words_written": "words",
    "engine.partition.words_written": "words",
    "engine.retrieve.words_written": "words",
    "engine.presort.words_scanned": "words",
    "engine.presort.words_written": "words",
    "engine.words_scanned": "words",
    "engine.words_written": "words",
    "trace.overhead_ms": "ms",
    "data_io.read_list.ms": "ms",
    "data_io.write_list.ms": "ms",
    "cli.sort_ms": "ms",
    "cli.non_sort_ms": "ms",
}


class Checks:
    """Every checked execution of the program under test, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return not self.failures and not self.problems


@dataclass
class Input:
    n: int
    values: list[int]
    oracle: list[int]
    packed_oracle: bytes
    oracle_sha256: str
    sha256: str
    path: Path


@dataclass
class Result:
    name: str
    checks: Checks
    metrics: dict[str, float] = field(default_factory=dict)


def pack(values: list[int]) -> bytes:
    """Little-endian u64 records, the CLI's binary format."""
    return struct.pack(f"<{len(values)}Q", *values)


def generate_values(wl: Workload, n: int, seed: int) -> list[int]:
    return generate(DatasetSpec(wl.family, n, W, beta=wl.beta, seed=seed))


def make_input(wl: Workload, n: int, seed: int, workdir: Path) -> Input:
    values = generate_values(wl, n, seed)
    oracle = sorted(values)
    packed = pack(values)
    path = workdir / "input.bin"
    path.write_bytes(packed)
    packed_oracle = pack(oracle)
    return Input(
        n,
        values,
        oracle,
        packed_oracle,
        hashlib.sha256(packed_oracle).hexdigest(),
        hashlib.sha256(packed).hexdigest(),
        path,
    )


def time_sort(inp: Input, checks: Checks) -> tuple[int, engine.SortReport] | None:
    """One ``engine.sort`` call on a fresh copy; the copy is made off the clock.

    Returns None when the call raised; that counts as a failed sample.
    """
    data = list(inp.values)
    gc.collect()
    started = time.perf_counter_ns()
    try:
        report = engine.sort(data)
    except Exception as exc:  # any exception from the package is a failed sample
        checks.record(False, f"sort() raised {exc!r}")
        return None
    elapsed = time.perf_counter_ns() - started
    checks.record(
        data == inp.oracle and report.total_sorted == inp.n,
        "sort() output differs from sorted() or total_sorted != n",
    )
    return elapsed, report


def time_sorted(inp: Input) -> float:
    """Mean ``sorted()`` time per call over a batch of fresh copies of the input."""
    batch = max(1, BASELINE_VALUES // inp.n)
    copies = [list(inp.values) for _ in range(batch)]
    gc.collect()
    started = time.perf_counter_ns()
    for data in copies:
        sorted(data)
    return (time.perf_counter_ns() - started) / batch


def _child(args: list[str]) -> tuple[subprocess.CompletedProcess | None, int]:
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), *args]
    started = time.perf_counter_ns()
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter_ns() - started
    return proc, time.perf_counter_ns() - started


def _last_json(text: bytes) -> dict | None:
    lines = text.decode(errors="replace").splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def _nanos(stderr: bytes) -> int | None:
    """``nanos=`` from the CLI's ``n=... passes=... nanos=...`` summary line."""
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith("n="):
            fields_ = dict(part.split("=", 1) for part in line.split())
            return int(fields_["nanos"])
    return None


def growth_mb(stats: dict) -> float:
    """Peak resident growth in MB (10**6 bytes): VmHWM after minus VmRSS before."""
    return (stats["hwm_after_kb"] - stats["rss_before_kb"]) * 1024 / 1e6


def run_cli_child(inp: Input, workdir: Path, trace: bool, checks: Checks) -> dict | None:
    """One ``assocsort sort --format binary`` process; returns its stats or None."""
    out = workdir / "sorted.bin"
    out.unlink(missing_ok=True)
    argv = ["cli", *(["--trace"] if trace else []), "--", "sort", "--format", "binary",
            "--input", str(inp.path), "--output", str(out)]
    proc, wall = _child(argv)
    stats = _last_json(proc.stderr) if proc is not None else None
    nanos = _nanos(proc.stderr) if proc is not None else None
    ok = (
        proc is not None
        and proc.returncode == 0
        and stats is not None
        and nanos is not None
        and out.exists()
        and out.read_bytes() == inp.packed_oracle
    )
    if not checks.record(ok, "CLI child failed or wrote bytes that differ from the oracle"):
        return None
    stats.update(wall_ns=wall, sort_ns=nanos)
    return stats


def run_lib_probe(inp: Input, checks: Checks) -> float | None:
    """Peak resident growth of ``engine.sort`` in a fresh process, in MB."""
    proc, _ = _child(["lib", str(inp.path)])
    stats = _last_json(proc.stdout) if proc is not None and proc.returncode == 0 else None
    ok = (
        stats is not None
        and stats["sha256"] == inp.oracle_sha256
        and stats["total_sorted"] == inp.n
    )
    if not checks.record(ok, "memory probe failed or its output differs from the oracle"):
        return None
    return growth_mb(stats)


def set_up(wl: Workload, n: int, seed: int, workdir: Path, checks: Checks) -> tuple[Input, float]:
    """Input generation, oracle, input file and warm-up, timed together.

    The warm-up runs the workload's own path once, checked like a sample:
    one in-process ``engine.sort`` for the library workloads, one CLI child
    for ``cli_binary_file`` (which also brings the input file into the page
    cache).  One ``sorted()`` sample warms the baseline.
    """
    started = time.perf_counter()
    inp = make_input(wl, n, seed, workdir)
    if wl.cli:
        run_cli_child(inp, workdir, False, checks)
    else:
        time_sort(inp, checks)
    time_sorted(inp)
    return inp, time.perf_counter() - started


def check_fingerprint(wl: Workload, pinned: list[dict]) -> tuple[bool, str]:
    """Regenerate the workload's input at its pinned seed and compare the sha256.

    Every run makes this one check, whatever its own seed and n, so a change
    to ``assocsort.generators`` cannot silently change a workload.
    """
    for entry in pinned:
        if (entry["family"], entry["n"], entry["w"], entry["beta"]) == (wl.family, wl.n, W, wl.beta):
            values = generate_values(wl, wl.n, entry["seed"])
            same = hashlib.sha256(pack(values)).hexdigest() == entry["sha256"]
            return same, f"pinned seed {entry['seed']} {'matches' if same else 'DIFFERS'}"
    return False, f"{wl} is not pinned in {FINGERPRINTS.name}"


def tail_percentile(samples: list[int]) -> tuple[int, int]:
    """Highest whole percentile (nearest rank) with at least ten samples above it."""
    ordered = sorted(samples)
    count = len(ordered)
    if count < MIN_SAMPLES:
        raise ValueError(f"{count} samples leave no percentile with ten beyond it")
    pct = 100 * (count - 10) // count
    rank = max(1, -(-pct * count // 100))
    return pct, ordered[rank - 1]


def measure(wl: Workload, inp: Input, seconds: float, workdir: Path, checks: Checks,
            notes: list[str]) -> dict[str, float]:
    """Timed closed loop; ``sort()`` and ``sorted()`` samples alternate in order.

    Peak RSS growth comes from every timed CLI child, or for the library
    workloads from one memory probe run before the loop: its growth moves
    by a few percent at most between processes and seeds.
    """
    latency: list[int] = []
    baseline: list[float] = []
    rss: list[float] = []
    if not wl.cli and (growth := run_lib_probe(inp, checks)) is not None:
        rss.append(growth)

    def sample() -> None:
        if wl.cli:
            stats = run_cli_child(inp, workdir, False, checks)
            if stats is not None:
                latency.append(stats["wall_ns"])
                rss.append(growth_mb(stats))
        elif (timed := time_sort(inp, checks)) is not None:
            latency.append(timed[0])

    def base() -> None:
        baseline.append(time_sorted(inp))

    deadline = time.perf_counter() + seconds
    rounds = 0
    while (time.perf_counter() < deadline or rounds < MIN_SAMPLES) and not checks.failures:
        for step in (sample, base) if rounds % 2 == 0 else (base, sample):
            step()
        rounds += 1
    if checks.failures:
        return {}

    median_ns = statistics.median(latency)
    baseline_ns = statistics.median(baseline)
    pct, tail_ns = tail_percentile(latency)
    notes.append(
        f"{len(latency)} timed samples, {len(baseline)} sorted() samples; "
        f"latency median {median_ns / 1e6:.3f} ms, tail is p{pct}, "
        f"sorted() median {baseline_ns / 1e6:.3f} ms"
    )
    notes.append(f"peak_rss_growth_mb from {len(rss)} {'CLI' if wl.cli else 'probe'} processes")
    return {
        "slowdown_vs_sorted": median_ns / baseline_ns,
        "peak_rss_growth_mb": statistics.median(rss),
        "values_per_s": inp.n / (median_ns / 1e9),
        "latency_ms_tail": tail_ns / 1e6,
    }


def measure_traced(wl: Workload, inp: Input, seconds: float, workdir: Path, checks: Checks,
                   notes: list[str]) -> dict[str, float]:
    """Per-layer run: untraced and traced calls alternate on the workload's own path.

    Library workloads trace ``engine.sort`` in this process for two thirds of
    the time, then send the same input through CLI children for the
    ``data_io``/``cli`` figures.  ``cli_binary_file`` runs only children.
    Untraced children give ``cli.*``, traced ones ``data_io.*``.
    """
    records: list[dict] = []
    plain: list[int] = []
    traced: list[int] = []
    plain_children: list[dict] = []
    traced_children: list[dict] = []
    started = time.perf_counter()

    def traced_sort() -> None:
        with EngineTrace(engine) as tracer:
            timed = time_sort(inp, checks)
            if timed is not None:
                records.append(tracer.take(timed[1]))
                traced.append(timed[0])

    def traced_child() -> None:
        if (stats := run_cli_child(inp, workdir, True, checks)) is not None:
            traced_children.append(stats)

    def plain_child() -> None:
        if (stats := run_cli_child(inp, workdir, False, checks)) is not None:
            plain_children.append(stats)

    def plain_sort() -> None:
        if (timed := time_sort(inp, checks)) is not None:
            plain.append(timed[0])

    children = ((plain_child, traced_child), seconds)
    stages = [children] if wl.cli else [((plain_sort, traced_sort), seconds * 2 / 3), children]
    for steps, until in stages:
        rounds = 0
        while (time.perf_counter() - started < until or rounds < TRACE_MIN_PAIRS) \
                and not checks.failures:
            for step in steps if rounds % 2 == 0 else steps[::-1]:
                step()
            rounds += 1
    if checks.failures:
        return {}
    if wl.cli:
        records = [c["engine"] for c in traced_children]
        traced = [c["wall_ns"] for c in traced_children]
        plain = [c["wall_ns"] for c in plain_children]

    metrics, repeat = engine_metrics(records, inp.n)
    if not repeat:
        checks.problems.append("engine counts differ between sorts of the same input")
    notes.append(
        f"{len(records)} traced sorts, {len(plain)} untraced; "
        f"{len(traced_children)} traced and {len(plain_children)} untraced CLI children"
    )
    metrics["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(plain)) / 1e6
    for call in ("read_list", "write_list"):
        metrics[f"data_io.{call}.ms"] = statistics.median(
            c["calls_ns"][call] for c in traced_children) / 1e6
    metrics["cli.sort_ms"] = statistics.median(c["sort_ns"] for c in plain_children) / 1e6
    metrics["cli.non_sort_ms"] = statistics.median(
        c["wall_ns"] - c["sort_ns"] for c in plain_children) / 1e6
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 n: int | None = None) -> Result:
    """Set up, check the fingerprint, measure, and print a readable report."""
    wl = WORKLOADS[name]
    n = wl.n if n is None else n
    checks = Checks()
    result = Result(name, checks)
    notes: list[str] = []
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        inp, setup_s = set_up(wl, n, seed, workdir, checks)
        setups.append(setup_s)
    same, status = check_fingerprint(wl, json.loads(FINGERPRINTS.read_text()))
    if not same:
        checks.problems.append(f"fingerprint: {status}")
    print(f"== {name}: {wl.family} n={n} w={W} beta={wl.beta} seed={seed} "
          f"{'traced' if trace else 'untraced'}", flush=True)
    print(f"   input sha256 {inp.sha256}; fingerprint: {status}", flush=True)
    if not checks.failures:
        if trace:
            result.metrics = measure_traced(wl, inp, seconds, workdir, checks, notes)
        else:
            result.metrics = measure(wl, inp, seconds, workdir, checks, notes)
            if result.metrics:
                result.metrics["setup_s"] = statistics.median(setups)
    units = PER_LAYER if trace else END_TO_END
    for metric, value in result.metrics.items():
        unit = units.get(metric) or f"{REPORTED[metric]} (report only)"
        print(f"   {metric:32s} {value:16.6f} {unit}")
    for note in notes:
        print(f"   {note}")
    failed = len(checks.failures)
    print(f"   error_rate {failed / max(checks.attempted, 1):.4f} "
          f"({failed} failed of {checks.attempted} attempted)")
    for what in checks.failures[:5] + checks.problems:
        print(f"   FAILED: {what}")
    return result


def summary(results: list[Result], trace: bool) -> dict:
    """The last line of the report, in the form BENCHMARK.json declares."""
    units = PER_LAYER if trace else END_TO_END
    prefix = len(results) > 1

    def metric_name(r: Result, m: str) -> str:
        return f"{r.name}.{m}" if prefix else m

    return {
        "correct": all(r.checks.correct for r in results),
        "attempted": sum(r.checks.attempted for r in results),
        "failed": sum(len(r.checks.failures) for r in results),
        "metrics": {
            metric_name(r, m): {"value": v, "unit": units[m]}
            for r in results
            for m, v in r.metrics.items()
            if m in units
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        results = [
            run_workload(name, args.seed, args.seconds, bool(args.trace), Path(tmp))
            for name in names
        ]
    line = summary(results, bool(args.trace))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
