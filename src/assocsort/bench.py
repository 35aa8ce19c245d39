"""Timing and work-count experiments across dataset families and algorithms.

Every benchmarked run is verified against ``sorted()`` before its
record is kept, so a benchmark can never report a time for a wrong result.
Records go to CSV with the fixed header
``algorithm,family,n,m,w,passes,words_scanned,nanos,seed``.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, fields
from typing import Iterable

from .data_io import Source, opened
from .engine import DuplicateDetected, WordSpec, sort
from .generators import DatasetSpec, generate

__all__ = [
    "ALGORITHMS",
    "DEFAULT_COUNTING_CAP",
    "BenchRecord",
    "VerificationFailed",
    "counting_sort",
    "run_suite",
    "emit_csv",
    "load_csv",
]

ALGORITHMS = ("assoc", "oracle_comparison", "counting_baseline")

# Counting sort allocates one byte per value of range; skip it beyond this.
DEFAULT_COUNTING_CAP = 1 << 26


class VerificationFailed(RuntimeError):
    """An algorithm under benchmark produced output differing from the oracle."""


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark measurement (one CSV row)."""

    algorithm: str
    family: str
    n: int
    m: int
    w: int
    passes: int
    words_scanned: int
    nanos: int
    seed: int


def counting_sort(values: list[int]) -> list[int]:
    """Textbook distribution baseline: presence table over the value range.

    Uses O(m) auxiliary memory; included only to contextualize the in-place
    engine.  Requires distinct values.
    """
    if not values:
        return []
    lo = min(values)
    hi = max(values)
    present = bytearray(hi - lo + 1)
    for v in values:
        if present[v - lo]:
            raise DuplicateDetected(v)
        present[v - lo] = 1
    out = []
    pos = present.find(1)
    while pos != -1:
        out.append(lo + pos)
        pos = present.find(1, pos + 1)
    return out


def _value_range(values: list[int]) -> int:
    return max(values) - min(values) + 1 if values else 0


def run_suite(suite: list[DatasetSpec], repetitions: int = 1) -> list[BenchRecord]:
    """Generate, time and verify every (dataset, algorithm, repetition) cell.

    Each dataset runs under every algorithm in ``ALGORITHMS``, in that
    order.  One clock wraps only the sort call, the same for every
    algorithm; generation and verification are outside it.  Passes and
    words scanned come from the in-place sorter's report and are 0 for the
    baselines.  ``counting_baseline`` is skipped when the dataset's
    value range exceeds ``DEFAULT_COUNTING_CAP``.  Raises ValueError when
    ``repetitions`` is below 1, and VerificationFailed (reporting the
    offending seed) the moment any run disagrees with the oracle.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")

    records: list[BenchRecord] = []
    for ds in suite:
        data = generate(ds)
        expected = sorted(data)
        m = _value_range(data)
        word = WordSpec(ds.w)
        for name in ALGORITHMS:
            if name == "counting_baseline" and m > DEFAULT_COUNTING_CAP:
                continue
            for _ in range(repetitions):
                buf = list(data)
                t0 = time.perf_counter_ns()
                if name == "assoc":
                    report = sort(buf, word)
                    result = buf
                elif name == "oracle_comparison":
                    result = sorted(buf)
                else:
                    result = counting_sort(buf)
                nanos = time.perf_counter_ns() - t0
                if result != expected:
                    raise VerificationFailed(
                        f"{name} produced wrong output for family={ds.family} "
                        f"n={ds.n} w={ds.w} beta={ds.beta} seed={ds.seed}"
                    )
                records.append(
                    BenchRecord(
                        algorithm=name,
                        family=ds.family,
                        n=ds.n,
                        m=m,
                        w=ds.w,
                        passes=report.pass_count if name == "assoc" else 0,
                        words_scanned=report.words_scanned if name == "assoc" else 0,
                        nanos=max(nanos, 1),
                        seed=ds.seed,
                    )
                )
    return records


_COLUMNS = [f.name for f in fields(BenchRecord)]


def emit_csv(records: Iterable[BenchRecord], destination: Source) -> None:
    """Write records as CSV: fixed header then one decimal-integer row each."""
    with opened(destination, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_COLUMNS)
        for rec in records:
            writer.writerow([getattr(rec, col) for col in _COLUMNS])


def load_csv(source: Source) -> list[BenchRecord]:
    """Parse a CSV produced by emit_csv back into records (round-trip inverse)."""
    with opened(source, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _COLUMNS:
            raise ValueError(f"unexpected CSV header {header!r}")
        out = []
        for row in reader:
            vals = dict(zip(_COLUMNS, row))
            out.append(
                BenchRecord(
                    algorithm=vals["algorithm"],
                    family=vals["family"],
                    **{k: int(vals[k]) for k in _COLUMNS[2:]},
                )
            )
        return out
