"""Independent reference computations used to cross-check the engine.

Everything here is allowed to use auxiliary memory and the standard library;
none of it shares code with the in-place phases it verifies.
"""

from __future__ import annotations

from .engine import PassTally, WordSpec

__all__ = ["verify_pass_tally"]


def verify_pass_tally(
    values: list[int], delta: int, n: int, spec: WordSpec
) -> PassTally:
    """Recompute one pass's counters directly from the value set.

    Counts distinct hash quotients among in-range values (nodes), the
    leftover in-range values (idles), and the out-of-range values with their
    minimum, using plain sets, independent of the in-place practicing code.
    """
    wm1 = spec.w - 1
    quotients: set[int] = set()
    in_range = 0
    deferred: list[int] = []
    for v in values:
        q = (v - delta) // wm1
        if q < n:
            quotients.add(q)
            in_range += 1
        else:
            deferred.append(v)
    return PassTally(
        n_d=len(quotients),
        n_c=in_range - len(quotients),
        n_d_prime=len(deferred),
        delta_prime=min(deferred) if deferred else None,
    )
