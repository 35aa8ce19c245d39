"""Self-test of the benchmark: every workload once per mode at tiny n.

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

Checks that every metric BENCHMARK.json names is reported with its unit,
that the traced phase times plus ``engine.presort.ms`` add up to the sort's
elapsed time, that traced counts repeat exactly at a fixed seed, and that
the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from tracing import PHASES, EngineTrace, presort_ns

TINY_N = {
    "dense_one_pass": 64,
    "spread_multi_pass": 64,
    "sparse_universe": 32,
    "cli_binary_file": 64,
}
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "words", "ratio")


def _run(name: str, trace: bool, seed: int = 5) -> run.Result:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        return run.run_workload(name, seed, 0.05, trace, Path(tmp), n=TINY_N[name])


def _units(result: run.Result, trace: bool) -> dict[str, str]:
    metrics = run.summary([result], trace)["metrics"]
    for entry in metrics.values():
        assert math.isfinite(entry["value"])
    return {name: entry["unit"] for name, entry in metrics.items()}


def test_declaration_matches_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER


def test_end_to_end_metrics_present_and_nonzero():
    for name in run.WORKLOADS:
        result = _run(name, trace=False)
        assert result.checks.correct, (name, result.checks.failures, result.checks.problems)
        assert _units(result, False) == run.END_TO_END
        # a tiny input may not grow the resident set by a single page
        assert result.metrics.pop("peak_rss_growth_mb") >= 0
        assert all(value > 0 for value in result.metrics.values()), (name, result.metrics)


def test_traced_metrics_present_add_up_and_repeat():
    for name in run.WORKLOADS:
        first, second = _run(name, trace=True), _run(name, trace=True)
        assert first.checks.correct and second.checks.correct, name
        assert _units(first, True) == run.PER_LAYER
        m = first.metrics
        phases = sum(m[f"engine.{p}.ms"] for p in PHASES)
        assert m["engine.presort.ms"] >= 0
        assert math.isclose(phases + m["engine.presort.ms"], m["engine.sort.ms"], abs_tol=1e-6)
        counts = {k for k, unit in run.PER_LAYER.items() if unit in COUNT_UNITS}
        assert {k: m[k] for k in counts} == {k: second.metrics[k] for k in counts}, name


def test_trace_covers_every_pass_and_restores_the_engine():
    originals = {name: getattr(run.engine, name) for name in
                 ("practice_pass", "store_records", "partition_idles", "retrieve_sorted")}
    values = run.generate_values(run.WORKLOADS["spread_multi_pass"], 256, seed=3)
    with EngineTrace(run.engine) as tracer:
        report = run.engine.sort(values)
        record = tracer.take(report)
    assert values == sorted(values)
    assert {name: getattr(run.engine, name) for name in originals} == originals
    assert all(record["phases"][p]["calls"] == record["phases"]["practice"]["calls"]
               for p in PHASES)
    assert 0 <= presort_ns(record) <= record["elapsed_ns"]
    assert sum(st["scanned"] for st in record["phases"].values()) <= report.words_scanned
    assert sum(st["written"] for st in record["phases"].values()) <= report.words_written


def test_tail_percentile_leaves_ten_samples_beyond():
    for count in range(run.MIN_SAMPLES, 300):
        samples = list(range(count))
        pct, value = run.tail_percentile(samples)
        assert sum(s > value for s in samples) >= 10
        # one percentile higher would leave fewer than ten beyond it
        rank = -(-(pct + 1) * count // 100)
        assert pct == 99 or count - rank < 10


def test_fingerprint_pins_every_workload():
    pinned = json.loads(run.FINGERPRINTS.read_text())
    for name, wl in run.WORKLOADS.items():
        assert run.check_fingerprint(wl, pinned)[0], name
    wl = run.WORKLOADS["sparse_universe"]
    changed = [dict(entry, sha256="0" * 64) for entry in pinned]
    assert not run.check_fingerprint(wl, changed)[0]
    assert not run.check_fingerprint(run.Workload(wl.family, wl.n, 2, False), pinned)[0]


def test_refuses_to_run_without_the_package():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "dense_one_pass",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, timeout=120,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout.decode()


if __name__ == "__main__":
    for test_name, test in list(globals().items()):
        if test_name.startswith("test_") and callable(test):
            test()
            print(f"ok {test_name}", flush=True)
