"""Dataset generators and closed-form work predictors.

Families:

* ``uniform``: n distinct values sampled from ``[0, beta*n*(w-1))``; with
  beta > 1 roughly a 1/beta fraction of the remainder sorts per pass.
* ``adversarial``: values spaced ``(w-1)*n`` apart so every pass covers
  exactly one value: the one-per-pass worst case.
* ``best_case``: n distinct values inside one pass interval; sorts in a
  single pass.
* ``full_universe``: n distinct values from the whole ``[0, 2**w)`` range,
  exercising the range splitter in :func:`assocsort.engine.sort`.

All generators are deterministic functions of their parameters and seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .engine import WordSpec

__all__ = [
    "FAMILIES",
    "InfeasibleRange",
    "DatasetSpec",
    "gen_uniform",
    "gen_adversarial",
    "max_adversarial_n",
    "gen_best_case",
    "gen_full_universe",
    "generate",
    "predict_worst_pass_bound",
]

FAMILIES = ("uniform", "adversarial", "best_case", "full_universe")

_BEST_CASE_SEED = 0x5EED


class InfeasibleRange(ValueError):
    """The requested interval cannot hold the requested number of distinct values."""


@dataclass(frozen=True)
class DatasetSpec:
    """One benchmark input: family, size, range multiplier, word width, seed."""

    family: str
    n: int
    w: int
    beta: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 0:
            raise ValueError("n must be non-negative")
        if self.beta < 1:
            raise ValueError("beta must be at least 1")
        WordSpec(self.w)  # validates the width


_MATERIALIZE_CAP = 1 << 22


def _sample_distinct(rng: random.Random, bound: int, n: int) -> list[int]:
    """n distinct values from [0, bound), uniform, in random order.

    Small ranges go through ``random.sample`` (partial shuffle of the
    materialized range); large ones, up to 2**64, use rejection with a
    seen-set, which costs O(n) when n is far below the bound.  Both paths
    are deterministic per rng state.
    """
    if n > bound:
        raise InfeasibleRange(f"cannot draw {n} distinct values from [0, {bound})")
    if bound <= _MATERIALIZE_CAP:
        return rng.sample(range(bound), n)
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < n:
        v = rng.randrange(bound)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def gen_uniform(spec: DatasetSpec) -> list[int]:
    """n distinct values uniform over ``[0, beta*n*(w-1))``, seeded."""
    word = WordSpec(spec.w)
    bound = spec.beta * spec.n * (spec.w - 1)
    if bound > word.tag_mask:
        raise InfeasibleRange(
            f"uniform range {bound} exceeds the {spec.w}-bit value space "
            f"{word.tag_mask}"
        )
    return _sample_distinct(random.Random(spec.seed), bound, spec.n)


def _adversarial_top(n: int, spec: WordSpec) -> int:
    """Largest value of :func:`gen_adversarial`'s n values; it must stay below the tag."""
    return (n - 1) * (spec.w - 1) * n


def max_adversarial_n(spec: WordSpec, cap: int) -> int:
    """Largest ``n <= cap`` that :func:`gen_adversarial` accepts at this width.

    ``(n-1)**2 <= (n-1)*n``, so the start ``isqrt(2**(w-1) // (w-1)) + 1``
    is at least the answer, and the walk down from it is short.
    """
    n = min(cap, math.isqrt(spec.tag_mask // (spec.w - 1)) + 1)
    while n > 1 and _adversarial_top(n, spec) >= spec.tag_mask:
        n -= 1
    return n


def gen_adversarial(n: int, spec: WordSpec) -> list[int]:
    """Values ``t*(w-1)*n`` for ``t < n``: one lands in each pass interval.

    The spacing uses the original n in every gap, so later (smaller) passes
    still cover exactly one value each.
    """
    top = _adversarial_top(n, spec)
    if top >= spec.tag_mask:
        raise InfeasibleRange(
            f"adversarial spread {top} does not fit below 2^{spec.w - 1}"
        )
    step = (spec.w - 1) * n
    return [t * step for t in range(n)]


def gen_best_case(
    n: int, spec: WordSpec, delta: int = 0, seed: int = _BEST_CASE_SEED
) -> list[int]:
    """n distinct values inside one pass interval starting at ``delta``, shuffled.

    The interval is clamped to the value space, so small widths still work as
    long as they hold n distinct values.
    """
    if n == 0:
        return []
    if n == 1:
        return [delta]
    upper = min(delta + (spec.w - 1) * n, spec.tag_mask)
    if upper - delta < n:
        raise InfeasibleRange(
            f"interval [{delta}, {upper}) cannot hold {n} distinct values"
        )
    rng = random.Random(seed)
    return [delta + v for v in _sample_distinct(rng, upper - delta, n)]


def gen_full_universe(spec: DatasetSpec) -> list[int]:
    """n distinct values uniform over the whole ``[0, 2**w)`` universe."""
    word = WordSpec(spec.w)
    return _sample_distinct(random.Random(spec.seed), word.universe, spec.n)


def generate(spec: DatasetSpec) -> list[int]:
    """Materialize the dataset a DatasetSpec describes."""
    word = WordSpec(spec.w)
    if spec.family == "uniform":
        return gen_uniform(spec)
    if spec.family == "adversarial":
        return gen_adversarial(spec.n, word)
    if spec.family == "best_case":
        return gen_best_case(spec.n, word, seed=spec.seed)
    return gen_full_universe(spec)


def predict_worst_pass_bound(n: int, m: int, spec: WordSpec) -> int:
    """Upper bound on pass count for the one-value-per-pass adversary.

    ``ceil((m-1) / ((w-1)*n - 1))`` with the degenerate single-value case
    pinned to one pass.
    """
    if n <= 1:
        return 1
    denom = (spec.w - 1) * n - 1
    return max(1, -(-(m - 1) // denom))
