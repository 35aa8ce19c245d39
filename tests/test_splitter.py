"""The range splitter in ``sort``: sorted output, linear scan work, four
phases per pass, duplicate rejection and constant auxiliary space.

``sort`` partitions a bucket whose value span is too wide for the paper's
passes on its highest differing bit, passes a narrow one, and finishes
a bucket of at most 8 words that one pass cannot sort with ``sorted()``;
what a pass leaves is the bucket again, so it may be split next.  The
inputs here are the ones that split: sparse values over the whole
universe, clustered runs spread across it, values straddling the tag bit
``2**(w-1)``, and values spaced so that each pass of the paper's loop
sorts only one or a few of them.
"""

from __future__ import annotations

import importlib.util
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assocsort import (
    DatasetSpec,
    DuplicateDetected,
    WordSpec,
    engine,
    gen_adversarial,
    generate,
    sort,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WIDTHS = (4, 8, 16, 32, 64)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EngineTrace = _load_tracing().EngineTrace


@st.composite
def splitter_inputs(draw) -> tuple[int, list[int]]:
    """A width and a shuffled list of distinct values in ``[0, 2**w)``."""
    w = draw(st.sampled_from(WIDTHS))
    top = (1 << w) - 1
    half = 1 << (w - 1)
    shape = draw(
        st.sampled_from(("sparse", "clustered", "straddling", "adversarial", "geometric"))
    )
    if shape == "sparse":
        values = set(draw(st.lists(st.integers(0, top), max_size=64)))
    elif shape == "clustered":
        runs = draw(
            st.lists(st.tuples(st.integers(0, top), st.integers(1, 24)), min_size=1, max_size=6)
        )
        values = {v for start, size in runs for v in range(start, min(start + size, top + 1))}
    elif shape == "straddling":
        values = set(
            draw(st.lists(st.integers(max(0, half - 48), min(top, half + 47)), max_size=64))
        )
    elif shape == "adversarial":
        # gen_adversarial's spacing, (w-1)*n apart, from any start it fits
        cap = max(n for n in range(1, 65) if (n - 1) * (w - 1) * n <= top)
        n = draw(st.integers(1, cap))
        start = draw(st.integers(0, top - (n - 1) * (w - 1) * n))
        values = {start + t * (w - 1) * n for t in range(n)}
    else:
        # gaps growing by a constant ratio: each pass sorts a few values
        v = draw(st.integers(0, top))
        gap, ratio = draw(st.integers(1, 64)), draw(st.integers(2, 4))
        values = set()
        while v <= top and len(values) < 64:
            values.add(v)
            v, gap = v + gap, gap * ratio
    return w, draw(st.permutations(sorted(values)))


@settings(max_examples=300, deadline=None)
@given(case=splitter_inputs(), data=st.data())
def test_splitter_sorts_in_linear_scan_work(case, data):
    w, values = case
    word = WordSpec(w)
    n = len(values)
    buf = list(values)
    with EngineTrace(engine) as trace:
        report = sort(buf, word)
    assert buf == sorted(values)
    assert report.total_sorted == n
    # Each word is swept at most once per bit level by a partition and
    # once more by the scan that finds its bucket, plus validation and
    # the practice cursor or the finisher's comparisons.
    assert report.words_scanned <= (2 * w + 4) * n
    # Every driven bucket, a one-value bucket included, is a full pass.
    for phase, totals in trace.take(report)["phases"].items():
        assert totals["calls"] == report.pass_count, phase
    # At most 8 words run no pass exactly when one pass cannot sort them.
    # If a tag split parts them instead, the two sides span less than
    # (w-1)*n together, so they cannot both be finished.
    if n <= 8:
        span = max(values, default=0) - min(values, default=0)
        assert (report.pass_count == 0) == (n == 0 or span >= (w - 1) * n)

    if n:
        copy = values[data.draw(st.integers(0, n - 1))]
        at = data.draw(st.integers(0, n))
        with pytest.raises(DuplicateDetected):
            sort(values[:at] + [copy] + values[at:], word)


def test_adversarial_input_scans_linear_work():
    # One value per pass on sort_region: running every pass over the whole
    # rest would scan about n**2/2 words (525,824 here).  After two passes
    # the rest spans more than (w-1)*L**2 and goes back to the splitter,
    # whose buckets of at most 8 words are finished by sorted(), scanning
    # L words each.
    word = WordSpec(64)
    n = 1024
    values = gen_adversarial(n, word)
    buf = list(values)
    report = sort(buf, word)
    assert buf == sorted(values)
    assert (report.pass_count, report.words_scanned) == (2, 14_980)
    assert report.words_scanned <= (2 * word.w + 4) * n
    random.Random(n).shuffle(values)
    report = sort(values, word)
    assert values == sorted(values)
    assert report.words_scanned <= (2 * word.w + 4) * n


def _split_calls(monkeypatch, values: list[int], word: WordSpec) -> int:
    """Sort ``values`` and count the ``_split_low`` calls it makes."""
    calls = 0
    split_low = engine._split_low

    def counting(*args):
        nonlocal calls
        calls += 1
        return split_low(*args)

    monkeypatch.setattr(engine, "_split_low", counting)
    buf = list(values)
    report = sort(buf, word)
    assert buf == sorted(values)
    assert report.total_sorted == len(values)
    return calls


@pytest.mark.parametrize("seed", range(5))
def test_short_sparse_bucket_is_passed_not_split(monkeypatch, seed):
    # All values lie below the tag, so only the span clause can split, and
    # it applies to buckets of more than 8 words: 8 values spanning more
    # than 63*8**2 reach no split, for sorted() finishes them, and 9
    # spanning more than 63*9**2 do.
    word = WordSpec(64)
    rng = random.Random(seed)
    eight = rng.sample(range(1 << 40), 8)
    assert max(eight) - min(eight) > 63 * 8**2
    assert _split_calls(monkeypatch, eight, word) == 0
    nine = rng.sample(range(1 << 40), 9)
    assert max(nine) - min(nine) > 63 * 9**2
    assert _split_calls(monkeypatch, nine, word) >= 1


def test_tag_clause_splits_a_short_bucket(monkeypatch):
    # After the bias shift a pass needs every word below the tag.  At w=4
    # four words straddling 2**3 fit one interval of 12 yet span 9 >= 2**3,
    # so they are still split.  Two words on both sides of 2**63 are too
    # far apart for one pass and are finished by sorted(), with no split.
    assert _split_calls(monkeypatch, [9, 2, 1, 0], WordSpec(4)) == 1
    word = WordSpec(64)
    assert _split_calls(monkeypatch, [word.tag_mask + 5, 1], word) == 0


@pytest.mark.parametrize("w", (8, 16, 64))
def test_narrow_straddling_input_takes_one_pass(w):
    # Seven values around 2**(w-1) fit one pass.  Their bucket is shifted
    # by its minimum, so they are passed, not split on the tag bit.
    word = WordSpec(w)
    values = [word.tag_mask - 3 + t for t in range(7)]
    random.Random(w).shuffle(values)
    buf = list(values)
    events = []
    report = sort(buf, word, hook=events.append)
    assert buf == sorted(values)
    assert report.pass_count == 1
    assert {event.bias for event in events} == {min(values)}
    assert all(event.region.delta == 0 for event in events)


@pytest.mark.parametrize(
    ("descending", "written"), ((False, 12_294), (True, 16_386))
)
def test_adversarial_above_the_tag_is_shifted_once(descending, written):
    # Each word is shifted down once and back once: 2*4,096 shift writes
    # (the bucket down before its first pass, each pass's one word back
    # after it, the rest back before the splitter takes it), plus the two
    # one-word passes' 8, the finisher's L words per bucket (4,094 in all)
    # and, descending, the splitter's swaps.
    word = WordSpec(64)
    values = [word.tag_mask + v for v in gen_adversarial(4096, word)]
    if descending:
        values.reverse()
    buf = list(values)
    report = sort(buf, word)
    assert buf == sorted(values)
    assert report.pass_count == 2
    assert report.words_scanned == 72_247
    assert report.words_written == written


def test_only_the_passed_bucket_is_shifted():
    # Sparse 64-bit values: every pass is on a one-word bucket, some above
    # the tag.  While a pass runs, every word outside its region holds an
    # input value, and after the sort only words that a pass sorted are
    # new int objects: rebuilding ints that no pass needs can touch fresh
    # memory pages.
    values = generate(DatasetSpec("full_universe", 1 << 12, 64, seed=1))
    inputs = set(values)
    buf = list(values)
    passed = []

    def check(event):
        start = event.region.offset
        stop = start + event.region.length
        assert all(v in inputs for v in buf[:start])
        assert all(v in inputs for v in buf[stop:])
        if event.phase == "practice":
            passed.append(event)

    report = sort(buf, hook=check)
    assert buf == sorted(values)
    assert any(event.bias for event in passed)
    kept = {id(v) for v in values}
    rebuilt = sum(id(v) not in kept for v in buf)
    assert 0 < rebuilt <= sum(event.region.length for event in passed)
    assert report.pass_count == len(passed)


def _aux_peak(n: int) -> int:
    """Traced allocation peak of ``sort`` on a sparse 64-bit list of n values.

    The list is rebuilt under tracing, as in the acceptance gate's memory
    criterion, so the peak above it is the engine's own scratch state.
    """
    values = generate(DatasetSpec("full_universe", n, 64, seed=n))
    tracemalloc.start(1)
    try:
        buf = [v + 0 for v in values]  # re-allocate under tracing
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        report = sort(buf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert buf == sorted(values)
    assert report.total_sorted == n
    return peak - before


def test_sparse_path_auxiliary_space_is_flat():
    # A splitter that kept its pending buckets on a stack, or recursed,
    # would grow with the split depth between these two sizes.
    small = _aux_peak(1 << 10)
    large = _aux_peak(1 << 14)
    assert small < 8 * 1024 and large < 8 * 1024, (small, large)
    assert large - small <= 512, (small, large)
