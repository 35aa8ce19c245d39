#!/usr/bin/env python3
"""First contact: sort a list in place and read the report.

The sorter works on plain Python lists of distinct unsigned integers.  A
word width w picks the universe [0, 2**w): one bit is reserved for tagging,
the rest carry values or records.  Each sort returns a report of running
totals; a hook sees every phase of every pass, including each pass's tally.
"""

import sys
from pathlib import Path

try:
    import assocsort
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from assocsort import WordSpec, sort

# A 16-bit universe holds values up to 65535.  sort() first splits the
# value range in place until each bucket is narrow enough for the passes.
# Because of the tag bit, the first bucket holding values at or above 2**15
# shifts the unsorted rest down once, and the sort shifts it back at the end.
# A bucket of at most 8 words too spread out for one pass is insertion-sorted
# instead: it runs no pass, so the hook below does not see it.  Here that is
# 40200 and 40260, which the pass over the 40xxx run defers.
word = WordSpec(16)
data = [
    62_001, 61, 40_066, 40_000, 33_000, 9_999, 40_017, 40_042, 0, 40_200, 3,
    40_260, 90, 40_008, 101, 40_100, 40_130, 12, 130, 7, 5_000, 25,
]



# Each pass covers one value interval; its tally, handed to the hook with
# the pass's retrieve event, says how many values became nodes (n_d), how
# many were absorbed as idle duplicates of a node's interval (n_c), and how
# many waited for a later pass (n_d_prime).  Passes after the shift run on
# shifted values; the event's bias adds the shift back.
def show_pass(event):
    if event.phase == "retrieve":
        tally = event.tally
        next_min = None if tally.delta_prime is None else tally.delta_prime + event.bias
        print(
            f"pass {event.pass_index + 1}: n_d={tally.n_d} n_c={tally.n_c} "
            f"deferred={tally.n_d_prime} next_min={next_min}"
        )


print("before:", data)
report = sort(data, word, hook=show_pass)
print("after: ", data)
print()
print(f"passes:        {report.pass_count}")
print(f"values sorted: {report.total_sorted}")
print(f"words scanned: {report.words_scanned}")
print(f"words written: {report.words_written}")
print(f"elapsed:       {report.elapsed_ns} ns")

# The sort is on-line: after each pass, a fully sorted prefix is in place.
# Sorting is strict about its contract -- duplicates abort loudly, and the
# list keeps its values, in some order.
from assocsort import DuplicateDetected

data = [40_000, 7, 3, 40_000, 12, 9]
try:
    sort(data, word)
except DuplicateDetected as exc:
    print(f"\nduplicates are rejected: {exc}")
    print("the list keeps its values:", data)
