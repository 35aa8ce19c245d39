#!/usr/bin/env python3
"""Pass counts and scan work across the three canonical input shapes.

Best-case inputs (range under (w-1)*n) sort in one pass.  Adversarial
spacing forces one pass per value on ``sort_region``, the paper's loop,
which runs every pass over the whole unsorted rest, about n**2/2 words,
within the paper's 2*(n + m/(w-1)).  ``sort`` hands the rest back to its
range splitter once it is too wide for its length, and insertion-sorts
each bucket of at most 8 words that one pass cannot sort, so it takes a
pass or two and scans linear work.  Uniform inputs with
range multiplier beta shed a 1/beta fraction per pass, so total scan work
stays within 2*beta*n.
"""

import sys
from pathlib import Path

try:
    import assocsort
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from assocsort import (
    DatasetSpec,
    WordSpec,
    gen_adversarial,
    gen_best_case,
    generate,
    predict_worst_pass_bound,
    sort,
    sort_region,
)

print("== best case: one pass regardless of size ==")
word = WordSpec(32)
for n in (16, 256, 4096):
    data = gen_best_case(n, word, seed=n)
    report = sort(data, word)
    print(f"  n={n:<5} passes={report.pass_count}")

print("\n== adversarial: sort_region's pass per value and scan work vs sort's ==")
for n in (8, 64, 256):
    data = gen_adversarial(n, word)
    m = max(data) + 1
    paper = sort_region(list(data), word)
    report = sort(data, word)
    bound = predict_worst_pass_bound(n, m, word)
    work_cap = 2 * (n + m / (word.w - 1))
    print(
        f"  n={n:<4} bound={bound:<4} cap={work_cap:<6.0f} "
        f"sort_region: passes={paper.pass_count:<4} scanned={paper.words_scanned:<6} "
        f"sort: passes={report.pass_count:<4} scanned={report.words_scanned}"
    )

print("\n== uniform: geometric shrink, work within 2*beta*n ==")
n = 4096
word = WordSpec(64)
for beta in (2, 4, 8):
    data = generate(DatasetSpec("uniform", n, 64, beta=beta, seed=1))
    report = sort(data, word)
    gate = 2 * beta * n
    print(
        f"  beta={beta}: passes={report.pass_count:<3} "
        f"scanned={report.words_scanned:<7} gate={gate} "
        f"ratio={report.words_scanned / gate:.2f}"
    )
