#!/usr/bin/env python3
"""Watch the four phases rearrange words, bit by bit.

The example list is [9, 2, 0, 11] at w=8: the hash divisor is w-1 = 7, so
9 -> (node 1, bit 2), 2 -> (node 0, bit 2), 0 -> (node 0, bit 0),
11 -> (node 1, bit 4).  Two nodes absorb all four values; the tag bit is
128.  Every intermediate state lives inside the original four words.
"""

import sys
from pathlib import Path

try:
    import assocsort
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from assocsort import Region, WordSpec, partition_idles, practice_pass, retrieve_sorted, store_records

word = WordSpec(8)
data = [9, 2, 0, 11]
region = Region(offset=0, length=len(data), delta=min(data))


def show(label):
    cells = []
    for v in data:
        tag = "T" if v & word.tag_mask else " "
        cells.append(f"[{tag}{v & word.value_mask:>3} = {v & word.value_mask:07b}]")
    print(f"{label:<12} {' '.join(cells)}")


show("input")

# Practicing: each in-range value v maps to node j = (v - delta) // 7 and
# bit k = (v - delta) % 7.  The node word gets the tag plus bit k; displaced
# plain words are parked at the cursor.
tally = practice_pass(data, region, word)
show("practiced")
print(f"             -> {tally.n_d} nodes, {tally.n_c} idle words, {tally.n_d_prime} deferred")

# Storing: node records compact, order preserving, into the first n_d low-bit
# slots.  Tags do not move, which keeps the node<->record pairing implicit.
store_records(data, region, tally.n_d, word)
show("stored")

# Partitioning: idle payloads cluster right behind the records so retrieval
# can expand over a contiguous area.  Nothing was deferred here, so every
# payload is in range already and the phase returns without a write.
partition_idles(data, region, tally, word)
show("partitioned")

# Retrieval: scan tags right to left; each consumes the rightmost unread
# record, decodes base = index*7 + delta, and writes base+k for every set
# bit k, highest first, falling leftward through the output area.
retrieve_sorted(data, region, tally, word)
show("retrieved")

print("\nsorted:", data)
assert data == [0, 2, 9, 11]
