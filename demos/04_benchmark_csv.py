#!/usr/bin/env python3
"""Run a small benchmark suite and emit the CSV report.

Every timed run is checked against the comparison oracle first; the CSV
then carries one row per (dataset, algorithm, repetition) with pass and
scan counters for the in-place sorter and wall times for all contenders.
"""

import io
import sys
from pathlib import Path

try:
    import assocsort
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from assocsort import DatasetSpec, emit_csv, run_suite

suite = [
    DatasetSpec("best_case", 1024, 32, seed=1),
    DatasetSpec("uniform", 1024, 32, beta=4, seed=2),
    DatasetSpec("adversarial", 64, 32, seed=3),
    DatasetSpec("full_universe", 128, 16, seed=4),
]

records = run_suite(suite, repetitions=3)

buf = io.StringIO()
emit_csv(records, buf)
print(buf.getvalue())

# The same writer accepts a path:
#     emit_csv(records, "bench.csv")
# and the CLI wraps the whole flow:
#     assocsort bench --families uniform,best_case --n 1024 --beta 2,4 \
#         --word-bits 32 --reps 3 --csv bench.csv

slowdowns = {}
for rec in records:
    if rec.algorithm == "assoc":
        base = min(
            r.nanos for r in records
            if r.algorithm == "oracle_comparison" and r.seed == rec.seed
        )
        slowdowns.setdefault(rec.family, rec.nanos / base)
print("pure-Python in-place sorter vs the C-backed oracle (first rep):")
for family, ratio in slowdowns.items():
    print(f"  {family:<14} {ratio:6.1f}x slower")
