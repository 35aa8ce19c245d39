"""Work counts of the in-place sorter against the paper's bound.

Each dataset is sorted once with ``sort()`` and verified against
``sorted()`` before its record is kept, so the table never reports the
work of a wrong result.  Records go to CSV with the fixed header
``family,n,m,w,passes,words_scanned,bound,seed``, where
``bound = n + ceil(m/(w-1))`` is the paper's O(n + m/(w-1)) work bound.
Every column is a count, so the CSV is byte-identical across runs at
fixed seeds.  Timing a sort is the benchmark's (``perfbench/``) job.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import Iterable

from .data_io import Source, opened
from .engine import WordSpec, sort
from .generators import DatasetSpec, generate

__all__ = [
    "BenchRecord",
    "VerificationFailed",
    "run_suite",
    "emit_csv",
    "load_csv",
]


class VerificationFailed(RuntimeError):
    """The sorter produced output differing from the oracle."""


@dataclass(frozen=True)
class BenchRecord:
    """One dataset's work counts and the paper's bound (one CSV row)."""

    family: str
    n: int
    m: int
    w: int
    passes: int
    words_scanned: int
    bound: int
    seed: int


def run_suite(suite: list[DatasetSpec]) -> list[BenchRecord]:
    """Generate, sort and verify every dataset: one record each, in order.

    ``m`` is the dataset's actual value range, ``max - min + 1``.  Passes
    and words scanned come from the sorter's report.  Raises
    VerificationFailed, reporting the offending seed, the moment a result
    disagrees with the oracle.
    """
    records: list[BenchRecord] = []
    for ds in suite:
        data = generate(ds)
        expected = sorted(data)
        m = expected[-1] - expected[0] + 1 if expected else 0
        report = sort(data, WordSpec(ds.w))
        if data != expected:
            raise VerificationFailed(
                f"sort produced wrong output for family={ds.family} "
                f"n={ds.n} w={ds.w} beta={ds.beta} seed={ds.seed}"
            )
        records.append(
            BenchRecord(
                family=ds.family,
                n=ds.n,
                m=m,
                w=ds.w,
                passes=report.pass_count,
                words_scanned=report.words_scanned,
                bound=ds.n + -(-m // (ds.w - 1)),
                seed=ds.seed,
            )
        )
    return records


_COLUMNS = [f.name for f in fields(BenchRecord)]


def emit_csv(records: Iterable[BenchRecord], destination: Source) -> None:
    """Write records as CSV: fixed header then one row each."""
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
        return [BenchRecord(row[0], *map(int, row[1:])) for row in reader]
