"""Self-check suites: differential trials, pass-count laws, tally oracle, clobber,
duplicate restoration.

These back the ``verify`` CLI subcommand.  Each suite returns a SuiteResult
with pass/fail counts and a reproduction hint for the first failure.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass

from .engine import (
    DuplicateDetected,
    Region,
    WordSpec,
    practice_pass,
    run_pass,
    sort,
    sort_region,
)
from .generators import DatasetSpec, generate, max_adversarial_n
from .oracles import verify_pass_tally

__all__ = [
    "SuiteResult",
    "sample_case",
    "clobber_cases",
    "check_oracle_equivalence",
    "check_pass_counts",
    "check_tally_oracle",
    "check_clobber",
    "check_duplicates",
    "run_all",
]

VERIFY_WIDTHS = (4, 8, 16, 64)
MAX_SAMPLE_N = 4096  # largest input sample_case draws


@dataclass
class SuiteResult:
    name: str
    passed: int
    failed: int
    first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, ok: bool, note: str) -> None:
        """Count one check; ``note`` is kept when it is the first failure."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = note


def _log_uniform(rng: random.Random, cap: int) -> int:
    if cap <= 1:
        return cap
    if rng.random() < 0.01:  # make the cap itself reachable
        return cap
    return min(cap, int(cap ** rng.random()))


def sample_case(trial_seed: int) -> tuple[WordSpec, DatasetSpec]:
    """Deterministic mixed-family trial: width, family and size drawn per seed.

    Sizes are log-uniform up to family-specific feasibility caps (small
    widths only fit a handful of distinct values; adversarial input costs
    ``sort_region`` a pass per value, so its size stays modest, and
    full-universe sizes are capped at 256).
    """
    rng = random.Random(trial_seed * 0x9E3779B1 + 7)
    w = rng.choice(VERIFY_WIDTHS)
    word = WordSpec(w)
    family = rng.choices(
        ("uniform", "best_case", "full_universe", "adversarial"),
        weights=(45, 20, 20, 15),
    )[0]
    beta = 1
    if family == "uniform":
        beta = rng.choice((1, 2, 4, 8))
        cap = min(MAX_SAMPLE_N, word.tag_mask // (beta * (w - 1)))
    elif family == "best_case":
        cap = min(MAX_SAMPLE_N, word.tag_mask)
    elif family == "full_universe":
        cap = min(256, word.universe)
    else:
        cap = max_adversarial_n(word, 256)
    n = _log_uniform(rng, cap) if rng.random() > 0.02 else 0
    return word, DatasetSpec(family, n, w, beta=beta, seed=trial_seed)


def clobber_cases() -> list[tuple[int, list[int]]]:
    """(width, values) pairs whose retrieval writes cross another node's tag.

    Shape: an anchor at 0 keeps the pass minimum low, a lone value at
    ``q*(w-1)`` owns the node at index q, and a run at ``Q*(w-1)+k`` for
    ``k < c`` owns the node at Q; expanding node Q writes down across index
    q, which only survives because expansion writes preserve the
    destination tag.
    """
    cases = []
    for w, q, Q, c in [
        (8, 5, 6, 6),  # anchored [35, 42..47]
        (8, 2, 3, 3),
        (8, 3, 6, 6),
        (16, 2, 3, 3),
        (16, 7, 9, 12),
        (5, 2, 3, 3),
        (64, 30, 40, 45),
    ]:
        wm1 = w - 1
        values = [0, q * wm1] + [Q * wm1 + k for k in range(c)]
        cases.append((w, values))
    return cases


def check_oracle_equivalence(trials: int, seed: int) -> SuiteResult:
    """Sorted output must equal the comparison oracle on every mixed trial."""
    result = SuiteResult("oracle_equivalence", 0, 0)
    for t in range(trials):
        word, ds = sample_case(seed * 1_000_003 + t)
        data = generate(ds)
        buf = list(data)
        sort(buf, word)
        result.record(buf == sorted(data), f"trial={t} w={word.w} dataset={ds}")
    return result


def check_pass_counts(seed: int) -> SuiteResult:
    """Best-case inputs take one pass; adversarial inputs take one per value.

    The second law is the paper's and holds on ``sort_region``.  ``sort``
    splits and finishes such input instead, and must scan it in at most
    ``(2*w + 4)*n`` words; running every pass over the whole unsorted rest
    scans about ``n**2/2``.
    """
    result = SuiteResult("pass_counts", 0, 0)
    rng = random.Random(seed)
    for w in VERIFY_WIDTHS:
        word = WordSpec(w)
        for n in (1, 2, 7, 64, 512):
            if n > word.tag_mask:
                continue
            data = list(generate(DatasetSpec("best_case", n, w, seed=rng.getrandbits(32))))
            report = sort(data, word)
            note = f"best_case n={n} w={w} passes={report.pass_count}"
            result.record(report.pass_count == 1, note)
    for w, n in [(8, 4), (16, 16), (16, 32), (64, 64), (64, 128), (64, 1024)]:
        word = WordSpec(w)
        values = generate(DatasetSpec("adversarial", n, w))
        report = sort_region(list(values), word)
        note = f"adversarial n={n} w={w} passes={report.pass_count}"
        result.record(report.pass_count == n, note)
        report = sort(list(values), word)
        note = f"adversarial n={n} w={w} scanned={report.words_scanned}"
        result.record(report.words_scanned <= (2 * w + 4) * n, note)
    return result


def _bound_case(word: WordSpec, rng: random.Random) -> tuple[list[int], int]:
    """(values, delta) for one region holding both ``top - 1`` and ``top``.

    ``top = delta + (w-1)*n`` is the bound practice defers at, so the first
    of the two is the last in-range value and the second the first deferred
    one.  The other values are drawn on both sides of the bound, all below
    the tag.
    """
    wm1 = word.w - 1
    n = rng.randint(2, min(64, (word.tag_mask - 1) // wm1))
    delta = rng.randint(0, word.tag_mask - 1 - wm1 * n)
    top = delta + wm1 * n
    values = {top - 1, top}
    ceiling = min(word.tag_mask, top + wm1 * n)
    while len(values) < n:
        values.add(rng.randrange(delta, ceiling))
    data = list(values)
    rng.shuffle(data)
    return data, delta


def check_tally_oracle(trials: int, seed: int) -> SuiteResult:
    """practice_pass counters must match the set-based recomputation.

    Besides the mixed trials, one region per width in ``VERIFY_WIDTHS``
    holds both sides of the deferral bound ``delta + (w-1)*n``.
    """
    result = SuiteResult("tally_oracle", 0, 0)
    rng = random.Random(seed)
    for w in VERIFY_WIDTHS:
        word = WordSpec(w)
        data, delta = _bound_case(word, rng)
        expected = verify_pass_tally(data, delta, len(data), word)
        got = practice_pass(list(data), Region(0, len(data), delta), word)
        note = f"bound w={w} delta={delta} n={len(data)} got={got} want={expected}"
        result.record(got == expected, note)
    for t in range(trials):
        word, ds = sample_case(seed * 7_368_787 + t)
        data = generate(ds)
        if ds.family == "full_universe":
            data = [v % word.tag_mask for v in data]
            data = sorted(set(data))  # full-universe values folded below the tag
            random.Random(t).shuffle(data)
        delta = min(data, default=0)
        expected = verify_pass_tally(data, delta, len(data), word)
        buf = list(data)
        got = practice_pass(buf, Region(0, len(buf), delta), word)
        result.record(got == expected, f"trial={t} w={word.w} got={got} want={expected}")
    return result


def check_clobber() -> SuiteResult:
    """Hazard family: expansion spans crossing a pending tag must sort right."""
    result = SuiteResult("clobber_regression", 0, 0)
    # The bare run, driven with an explicit delta so the nodes sit high.
    word = WordSpec(8)
    bare = [35, 42, 43, 44, 45, 46, 47]
    buf = list(bare)
    run_pass(buf, Region(0, len(buf), 0), word)
    result.record(buf == sorted(bare), f"w=8 delta=0 {bare}")

    for w, values in clobber_cases():
        word = WordSpec(w)
        buf = list(values)
        sort_region(buf, word)
        result.record(buf == sorted(values), f"w={w} {values[:4]}...")
    return result


def check_duplicates(trials: int, seed: int) -> SuiteResult:
    """A duplicate is named, and the sequence keeps the input's values.

    Each mixed trial repeats one of its values at a random index, then sorts
    it with ``sort`` and, when every value is below the tag, with
    ``sort_region``, on a ``list`` and on an ``array("Q")``.  Each run must
    raise DuplicateDetected naming that value and leave a permutation of
    its input behind.
    """
    result = SuiteResult("duplicates", 0, 0)
    rng = random.Random(seed)
    for t in range(trials):
        word, ds = sample_case(seed * 5_462_407 + t)
        values = generate(ds)
        if not values:
            continue
        copy = rng.choice(values)
        values.insert(rng.randint(0, len(values)), copy)
        sorters = (sort,) if max(values) >= word.tag_mask else (sort, sort_region)
        for sorter in sorters:
            for buf in (list(values), array("Q", values)):
                try:
                    sorter(buf, word)
                    named = None
                except DuplicateDetected as exc:
                    named = exc.value
                ok = named == copy and sorted(buf) == sorted(values)
                note = f"trial={t} w={word.w} {sorter.__name__} {type(buf).__name__} {ds}"
                result.record(ok, note)
    return result


def run_all(trials: int, seed: int) -> list[SuiteResult]:
    """Every suite, scaled by the trial budget; empty when trials == 0.

    Raises ValueError for a negative budget.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    if trials == 0:
        return []
    return [
        check_oracle_equivalence(trials, seed),
        check_pass_counts(seed),
        check_tally_oracle(max(1, min(trials, 200)), seed),
        check_clobber(),
        check_duplicates(max(1, min(trials, 200)), seed),
    ]
