#!/usr/bin/env python3
"""Rewrite fingerprints.json: the sha256 of each distinct workload input at one seed.

    python3 perfbench/pin_fingerprints.py

Run it only when a workload is meant to change.  Every run of run.py
regenerates the input of its workload at REFERENCE_SEED and fails when
the sha256 differs from the one pinned here.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import FINGERPRINTS, W, WORKLOADS, generate_values, pack

REFERENCE_SEED = 0


def main() -> int:
    table = []
    for wl in {(wl.family, wl.n, wl.beta): wl for wl in WORKLOADS.values()}.values():
        values = generate_values(wl, wl.n, REFERENCE_SEED)
        table.append({
            "family": wl.family,
            "n": wl.n,
            "w": W,
            "beta": wl.beta,
            "seed": REFERENCE_SEED,
            "sha256": hashlib.sha256(pack(values)).hexdigest(),
        })
    FINGERPRINTS.write_text(json.dumps(table, indent=1) + "\n")
    print(f"pinned {len(table)} inputs at seed {REFERENCE_SEED} in {FINGERPRINTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
