"""Driver-level behavior: multi-pass sequencing, the universe split, hooks."""

from __future__ import annotations

import pickle
import random
import tracemalloc
from array import array
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from assocsort import (
    DatasetSpec,
    DuplicateDetected,
    PassTally,
    PhaseEvent,
    ValueExceedsUniverse,
    WordSpec,
    gen_adversarial,
    gen_best_case,
    generate,
    sort,
    sort_region,
)
from assocsort import engine
from assocsort.verification import sample_case

W8 = WordSpec(8)


def pass_tallies(sorter, data, spec):
    """Sort ``data`` and return the report with each pass's final tally.

    The report keeps totals only; each pass's tally reaches the caller
    through the hook, on the pass's ``retrieve`` event.
    """
    tallies = []

    def hook(event: PhaseEvent) -> None:
        if event.phase == "retrieve":
            tallies.append(event.tally)

    report = sorter(data, spec, hook=hook)
    return report, tallies


class TestSortRegion:
    def test_three_pass_chain(self):
        # Interval widths shrink as the region shrinks: {0}, then {50}, then {100}.
        data = [0, 100, 50]
        report, tallies = pass_tallies(sort_region, data, W8)
        assert data == [0, 50, 100]
        assert report.pass_count == 3
        assert report.total_sorted == 3
        assert [t.sorted_count for t in tallies] == [1, 1, 1]
        assert [t.delta_prime for t in tallies] == [50, 100, None]

    def test_single_pass_when_range_fits(self):
        rng = random.Random(5)
        for n in (2, 17, 128):  # w=8 holds at most 128 distinct region values
            data = gen_best_case(n, W8, seed=rng.getrandbits(30))
            report = sort_region(data, W8)
            assert report.pass_count == 1
            assert data == sorted(data)

    def test_empty(self):
        report, tallies = pass_tallies(sort_region, [], W8)
        assert tallies == []
        assert report.pass_count == 0
        assert report.total_sorted == 0

    def test_singleton(self):
        data = [42]
        report, tallies = pass_tallies(sort_region, data, W8)
        assert data == [42]
        assert report.pass_count == 1
        assert tallies == [PassTally(1, 0, 0, None)]

    def test_pass_tallies_conserve_region_lengths(self):
        data = [0, 100, 50, 13, 90, 77, 120, 1]
        report, tallies = pass_tallies(sort_region, data, W8)
        assert len(tallies) == report.pass_count
        remaining = 8
        for tally in tallies:
            assert tally.n_d + tally.n_c + tally.n_d_prime == remaining
            remaining -= tally.sorted_count
        assert remaining == 0

    def test_online_prefix_property(self):
        values = [0, 100, 50, 13, 90, 77, 120, 1, 65, 33]
        expected = sorted(values)
        data = list(values)
        prefixes = []

        def hook(event: PhaseEvent) -> None:
            if event.phase == "retrieve":
                done = event.region.offset + event.tally.sorted_count
                prefixes.append(list(event.data[:done]))

        report = sort_region(data, W8, hook=hook)
        assert len(prefixes) == report.pass_count
        for prefix in prefixes:
            assert prefix == expected[: len(prefix)]

    def test_rejects_tagged_values(self):
        with pytest.raises(ValueExceedsUniverse):
            sort_region([1, 200], W8)  # 200 has bit 7 set

    def test_window_is_a_memoryview_slice(self):
        # The sort takes the whole sequence; a window of an array is sorted
        # through a slice of its memoryview.  A window's offset passed where
        # the hook used to follow it is refused at the call.
        data = array("Q", [5, 4, 9, 2, 0, 11, 1])
        sort_region(memoryview(data)[2:6], W8)
        assert data.tolist() == [5, 4, 0, 2, 9, 11, 1]
        with pytest.raises(TypeError):
            sort_region(data, W8, 2)
        assert data.tolist() == [5, 4, 0, 2, 9, 11, 1]

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_rejects_non_int_before_writing(self, bad):
        data = [9, 0, bad, 4]
        with pytest.raises(TypeError, match=rf"value {bad!r} at index 2"):
            sort_region(data, W8)
        assert data == [9, 0, bad, 4]


class TestSortUniverse:
    def test_split_example(self):
        data = [14, 1, 9, 3]  # 14 and 9 carry bit 3 under w=4
        report = sort(data, WordSpec(4))
        assert data == [1, 3, 9, 14]
        assert report.total_sorted == 4

    def test_core_example_crosses_the_boundary_at_w4(self):
        # 9 and 11 sit in the upper half of the 4-bit universe, so the list
        # is split and each half sorts in its own single pass.
        data = [9, 2, 0, 11]
        report = sort(data, WordSpec(4))
        assert data == [0, 2, 9, 11]
        assert report.pass_count == 2

    def test_low_only_matches_sort_region(self):
        values = [9, 2, 0, 11]
        via_sort = list(values)
        via_region = list(values)
        _, t1 = pass_tallies(sort, via_sort, W8)
        _, t2 = pass_tallies(sort_region, via_region, W8)
        assert via_sort == via_region
        assert t1 == t2

    def test_all_values_high(self):
        data = [255, 129, 200, 128]
        sort(data, W8)
        assert data == [128, 129, 200, 255]

    def test_host_width_random(self):
        rng = random.Random(11)
        values = set()
        while len(values) < 500:
            values.add(rng.getrandbits(64))
        data = list(values)
        rng.shuffle(data)
        sort(data)
        assert data == sorted(values)

    def test_value_exceeds_universe(self):
        with pytest.raises(ValueExceedsUniverse):
            sort([3, 16], WordSpec(4))
        with pytest.raises(ValueExceedsUniverse):
            sort([3, -1], WordSpec(4))

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_rejects_non_int_before_writing(self, bad):
        data = [200, 1, bad]  # 200 would trigger the split
        with pytest.raises(TypeError, match=rf"value {bad!r} at index 2"):
            sort(data, W8)
        assert data == [200, 1, bad]

    def test_duplicates_rejected_both_sides(self):
        with pytest.raises(DuplicateDetected):
            sort([5, 5], W8)
        with pytest.raises(DuplicateDetected):
            sort([200, 200, 1], W8)

    def test_duplicate_named_in_input_units(self):
        # 53904 >= 2**15 is practiced shifted down by its bucket's bias
        # to 21136; the error still names the value the input holds.
        with pytest.raises(DuplicateDetected, match=r"^value 53904 occurs more than once$") as info:
            sort([53904, 53904, 1, 2], WordSpec(16))
        assert info.value.value == 53904
        assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)
        # Below the tag nothing is shifted; the pass names the value itself.
        with pytest.raises(DuplicateDetected, match=r"^value 5 occurs more than once$") as info:
            sort([5, 9, 5], W8)
        assert info.value.value == 5

    def test_duplicate_in_a_finished_bucket_keeps_the_input_order(self):
        # Four words too far apart for one pass are finished by sorted(),
        # which orders a copy: the duplicate is found before any write.
        as_array = array("Q", [2**50, 7, 2**40, 7])
        as_view = memoryview(bytearray(as_array.tobytes())).cast("Q")
        counted = CountingList([2**50, 7, 2**40, 7])
        for data in (counted, as_array, as_view):
            with pytest.raises(DuplicateDetected) as info:
                sort(data)
            assert info.value.value == 7
            assert list(data) == [2**50, 7, 2**40, 7]
        assert counted.writes == 0

    def test_empty_and_singleton(self):
        assert sort([], W8).pass_count == 0
        data = [77]
        report = sort(data, W8)
        assert data == [77] and report.pass_count == 1

    def test_hook_does_not_change_result(self):
        # Nine words split on the tag bit: the low seven take one pass, and
        # the pair 130, 200 is too far apart for one, so sorted() finishes
        # it and the hook sees no second pass.
        values = [9, 2, 0, 11, 200, 130, 5, 7, 3]
        quiet = list(values)
        hooked = list(values)
        events = []
        sort(quiet, W8)
        sort(hooked, W8, hook=events.append)
        assert quiet == hooked == sorted(values)
        assert [e.phase for e in events] == ["practice", "store", "partition", "retrieve"]
        assert {(e.pass_index, e.region) for e in events} == {(0, (0, 7, 0))}


def test_no_hook_builds_no_event(monkeypatch):
    # Passing no hook costs nothing: no PhaseEvent is built, on any path.
    def no_event(*args, **kwargs):
        raise AssertionError("PhaseEvent built for a sort without a hook")

    monkeypatch.setattr(engine, "PhaseEvent", no_event)
    word = WordSpec(64)
    half = word.tag_mask
    cases = [
        (sort, generate(DatasetSpec("full_universe", 300, 64, seed=4))),
        (sort, gen_adversarial(64, word)),
        (sort_region, gen_adversarial(64, word)),
        (sort, [half + 63 * t for t in range(40)] + [half - 1 - 63 * t for t in range(40)]),
        (sort, gen_best_case(500, word)),
        (sort_region, gen_best_case(500, word)),
    ]
    for sorter, values in cases:
        data = list(values)
        random.Random(len(values)).shuffle(data)
        report = sorter(data, word)
        assert data == sorted(values)
        assert report.total_sorted == len(values)


def test_raising_hook_builds_one_event(monkeypatch):
    # The hook raises at its first event; the pass still finishes, but no
    # further event is built for a hook that will not be called again.
    built = []
    real = engine.PhaseEvent

    def counting(*args, **kwargs):
        built.append(args[0])
        return real(*args, **kwargs)

    def hook(event: PhaseEvent) -> None:
        raise HookFailed

    monkeypatch.setattr(engine, "PhaseEvent", counting)
    values = [0, 100, 50]  # three passes at w=8
    data = list(values)
    with pytest.raises(HookFailed):
        sort_region(data, W8, hook=hook)
    assert built == ["practice"]
    assert sorted(data) == sorted(values)


class CountingList(list):
    """A list that counts element writes, to check ``words_written``."""

    def __init__(self, values) -> None:
        super().__init__(values)
        self.writes = 0

    def __setitem__(self, index, value) -> None:
        self.writes += 1
        super().__setitem__(index, value)


class TestReportTotals:
    def test_words_written_counts_every_element_write(self):
        # The phases add closed forms of their tallies, not per-word counts;
        # a list that counts its own writes checks those forms end to end.
        # Words no pass sorted were finished by sorted() and written back once.
        split = multi_pass = finished = 0
        for trial in range(2000):
            word, ds = sample_case(trial)
            values = generate(ds)
            data = CountingList(values)
            report, tallies = pass_tallies(sort, data, word)
            assert data == sorted(values)
            assert report.words_written == data.writes, (trial, ds)
            split += any(v >= word.tag_mask for v in values)
            multi_pass += report.pass_count > 1
            finished += report.total_sorted - sum(t.sorted_count for t in tallies)
        assert split and multi_pass and finished

    def test_shifted_remainder_handed_back_to_the_splitter(self, monkeypatch):
        # Adversarial spacing above the tag bit: the bucket is shifted down
        # by 2**15 before its first pass, and after its second pass the
        # rest spans more than (w-1)*L**2, so it is shifted back and split
        # in input units.
        word = WordSpec(16)
        n = 40
        values = [word.tag_mask + t * 15 * n for t in range(n)]
        expected = sorted(values)
        data = CountingList(values[::-1])
        log = []
        split_low = engine._split_low

        def logging_split(*args):
            log.append("split")
            return split_low(*args)

        monkeypatch.setattr(engine, "_split_low", logging_split)
        report = sort(data, word, hook=log.append)
        events = [entry for entry in log if entry != "split"]
        assert data == expected
        assert report.words_written == data.writes
        # Two passes; the split's buckets of at most 8 words are finished.
        assert report.pass_count == 2
        for event in events:
            assert event.region.delta + event.bias == expected[event.region.offset]
        assert {event.bias for event in events} - {0} == {word.tag_mask}
        first_shifted = next(i for i, entry in enumerate(log) if entry != "split" and entry.bias)
        assert "split" in log[first_shifted:]

    def test_bookkeeping_is_flat_in_the_pass_count(self):
        # 512 passes, one per value on sort_region; a per-pass record would
        # grow with each one.
        word = WordSpec(64)
        values = gen_adversarial(512, word)
        tracemalloc.start(1)
        try:
            data = [v + 0 for v in values]  # re-allocate under tracing
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            report = sort_region(data, word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.pass_count == 512
        assert data == sorted(values)
        assert peak - before < 32 * 1024


def _packed_cases():
    """(word, values) pairs: sample_case trials, then each family at w = 8, 16, 64."""
    for trial in range(400):
        word, ds = sample_case(trial)
        yield word, generate(ds)
    for w in (8, 16, 64):
        word = WordSpec(w)
        n = min(120, word.tag_mask // (4 * (w - 1)))
        yield word, generate(DatasetSpec("uniform", n, w, beta=4, seed=w))
        yield word, generate(DatasetSpec("full_universe", 60, w, seed=w))
        yield word, gen_adversarial(4, word)
        yield word, gen_best_case(min(120, word.tag_mask), word)


def _sorted_with_events(sorter, data, word):
    events = []

    def hook(event: PhaseEvent) -> None:
        events.append((event.phase, event.pass_index, event.region, event.tally, event.bias))

    report = sorter(data, word, hook=hook)
    counts = (report.pass_count, report.total_sorted, report.words_scanned, report.words_written)
    return counts, events


@pytest.mark.parametrize("sorter", [sort, sort_region])
def test_packed_words_sort_like_a_list(sorter):
    # The engine only indexes its data, so an array("Q") and a memoryview
    # cast to "Q" must see the same passes, counts and events as a list.
    checked = 0
    for word, values in _packed_cases():
        if sorter is sort_region and any(v >= word.tag_mask for v in values):
            continue
        as_list = list(values)
        expected = _sorted_with_events(sorter, as_list, word)
        assert as_list == sorted(values)
        as_array = array("Q", values)
        as_view = memoryview(bytearray(as_array.tobytes())).cast("Q")
        for packed in (as_array, as_view):
            assert _sorted_with_events(sorter, packed, word) == expected
            assert packed.tolist() == as_list
        checked += 1
    assert checked >= 100


def test_index_only_sequence_sorts_like_a_list():
    # A deque takes integer indexes but no slice.  The finisher reads its
    # bucket by index like every other step, so a deque holding finished
    # buckets sorts with a list's passes, counts and events.
    word = WordSpec(64)
    sparse = generate(DatasetSpec("full_universe", 60, 64, seed=0))
    for values in ([2**50, 7], [2**50, 7, 2**40, 3], sparse):
        as_list = list(values)
        expected = _sorted_with_events(sort, as_list, word)
        as_deque = deque(values)
        assert _sorted_with_events(sort, as_deque, word) == expected
        assert list(as_deque) == as_list == sorted(values)


@pytest.mark.parametrize(
    ("sorter", "base"),
    [(sort, 0), (sort, 2**63), (sort_region, 0)],
    ids=["sort-low", "sort-high", "sort_region-low"],
)
def test_unwritable_sequence_raises_one_type_error(sorter, base):
    # A tuple or a read-only memoryview refuses the first write, a pass's
    # below the tag and the down-shift's above it.  That TypeError is the
    # only one: nothing is shifted back, so no second write is tried.
    values = [base + v for v in (9, 2, 0, 11, 300, 5)]
    for data in (tuple(values), memoryview(array("Q", values).tobytes()).cast("Q")):
        with pytest.raises(TypeError) as info:
            sorter(data, WordSpec(64))
        assert info.value.__context__ is None
        assert list(data) == values


def _narrow_sequences(values):
    """Packed sequences whose items cannot hold every 64-bit word."""
    yield array("I", values)
    yield array("q", values)
    yield memoryview(bytearray(array("I", values).tobytes())).cast("I")


@pytest.mark.parametrize("sorter", [sort, sort_region])
def test_narrow_packed_words_rejected_before_any_write(sorter):
    # A pass writes tagged words up to 2**w - 1, so an item too narrow for
    # them must be refused before the first write, not midway through.
    rng = random.Random(0)
    for _ in range(20):
        values = rng.sample(range(2000), 50)
        for packed in _narrow_sequences(values):
            with pytest.raises(TypeError, match="typecode '[Iq]' .* 64-bit"):
                sorter(packed, WordSpec(64))
            assert packed.tolist() == values
    for code, w in (("I", 32), ("H", 16)):
        values = rng.sample(range(2000), 50)
        packed = array(code, values)
        sorter(packed, WordSpec(w))
        assert packed.tolist() == sorted(values)
    # A bytearray has neither typecode nor format attribute; its items are
    # read through the buffer protocol like an array's.
    for _ in range(20):
        values = rng.sample(range(128), 50)
        packed = bytearray(values)
        with pytest.raises(TypeError, match="typecode 'B' .* 64-bit"):
            sorter(packed, WordSpec(64))
        assert packed == bytearray(values)
        sorter(packed, WordSpec(8))
        assert list(packed) == sorted(values)


@settings(max_examples=120, deadline=None)
@given(
    values=st.lists(st.integers(0, (1 << 16) - 1), unique=True, max_size=80),
)
def test_matches_oracle_w16(values):
    data = list(values)
    sort(data, WordSpec(16))
    assert data == sorted(values)


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.integers(0, 15), unique=True, max_size=16),
)
def test_matches_oracle_w4_exhaustive_universe(values):
    data = list(values)
    sort(data, WordSpec(4))
    assert data == sorted(values)


@st.composite
def inputs_with_a_duplicate(draw) -> tuple[WordSpec, list[int], int]:
    """A width, a shuffled list holding one value twice, and that value.

    Three shapes steer the duplicate to each place that can find it:
    ``finished`` is at most 8 words spread too wide for one pass, which
    ``sort`` finishes with ``sorted()``; ``shifted`` is 9 to 16 values at
    or above ``2**(w-1)`` inside one pass interval, practiced shifted down;
    and ``unshifted`` is as many values below the tag, over one or two
    intervals (9 at w=8, where two intervals of more would reach the tag).
    """
    word = WordSpec(draw(st.sampled_from((8, 16, 64))))
    wm1 = word.w - 1
    shape = draw(st.sampled_from(("finished", "shifted", "unshifted")))
    if shape == "finished":
        values = draw(
            st.lists(st.integers(0, word.universe - 1), min_size=1, max_size=7, unique=True)
        )
        assume(max(values) - min(values) >= wm1 * (len(values) + 1))
    else:
        n = draw(st.integers(9, min(16, word.tag_mask // (2 * wm1))))
        width = wm1 * n * (1 if shape == "shifted" else draw(st.integers(1, 2)))
        start = word.tag_mask if shape == "shifted" else 0
        start += draw(st.integers(0, word.tag_mask - width))
        values = draw(
            st.lists(st.integers(start, start + width - 1), min_size=n, max_size=n, unique=True)
        )
    copy = draw(st.sampled_from(values))
    values = draw(st.permutations(values + [copy]))
    return word, values, copy


@settings(max_examples=300, deadline=None)
@given(case=inputs_with_a_duplicate())
def test_duplicate_leaves_the_input_values(case):
    # After DuplicateDetected the sequence is a permutation of its input:
    # practice decodes its nodes, the finisher raises before it writes and
    # the sort shifts its bucket back.
    word, values, copy = case
    sorters = [sort] if max(values) >= word.tag_mask else [sort, sort_region]
    for sorter in sorters:
        for data in (list(values), array("Q", values)):
            with pytest.raises(DuplicateDetected) as info:
                sorter(data, word)
            assert info.value.value == copy
            assert sorted(data) == sorted(values)


class HookFailed(Exception):
    """Raised by the hook under test, so no other raise is mistaken for it."""


@st.composite
def raising_hooks(draw) -> tuple:
    """A sorter, a width, distinct values it accepts, and the event to raise at.

    The values lie in a window of one to three pass intervals, so passes
    defer values and run again.  Through ``sort`` the window lies anywhere
    in the universe, so some sorts shift and some straddle the tag bit.
    """
    word = WordSpec(draw(st.sampled_from((8, 16, 64))))
    sorter = draw(st.sampled_from((sort, sort_region)))
    limit = word.universe if sorter is sort else word.tag_mask
    n = draw(st.integers(1, 24))
    width = min(limit, (word.w - 1) * n * draw(st.integers(1, 3)))
    start = draw(st.integers(0, limit - width))
    if draw(st.booleans()):  # as often near the top of the range as near 0
        start = limit - width - start
    values = draw(
        st.lists(st.integers(start, start + width - 1), min_size=1, max_size=n, unique=True)
    )
    phase = draw(st.sampled_from(("practice", "store", "partition", "retrieve")))
    return sorter, word, values, (draw(st.integers(0, 2)), phase)


@settings(max_examples=300, deadline=None)
@given(case=raising_hooks())
def test_raising_hook_leaves_the_input_values(case):
    # A hook that raises is called no more, its pass finishes, its bucket
    # is shifted back, and then its exception propagates with the input's
    # values.
    sorter, word, values, at = case
    for data in (list(values), array("Q", values)):
        seen = []

        def hook(event: PhaseEvent) -> None:
            seen.append((event.pass_index, event.phase))
            if seen[-1] == at:
                raise HookFailed

        try:
            sorter(data, word, hook=hook)
        except HookFailed:
            assert seen[-1] == at
            assert sorted(data) == sorted(values)
        else:
            assert at not in seen
            assert list(data) == sorted(values)


@st.composite
def inputs_with_a_bad_value(draw) -> tuple:
    """A sorter, a width, its input with one bad value, that value's index and error.

    The other values are distinct and accepted.  The bad one is a float, a
    bool, a str, a negative int, or an int at or above the sorter's limit:
    ``2**w`` for ``sort``, ``2**(w-1)`` for ``sort_region``.
    """
    word = WordSpec(draw(st.sampled_from((8, 16, 64))))
    sorter = draw(st.sampled_from((sort, sort_region)))
    limit = word.universe if sorter is sort else word.tag_mask
    values = draw(st.lists(st.integers(0, limit - 1), max_size=24, unique=True))
    error, bad = draw(
        st.sampled_from(
            (
                (TypeError, st.floats()),
                (TypeError, st.booleans()),
                (TypeError, st.text(max_size=3)),
                (ValueExceedsUniverse, st.integers(max_value=-1)),
                (ValueExceedsUniverse, st.integers(limit, limit << 8)),
            )
        )
    )
    index = draw(st.integers(0, len(values)))
    values.insert(index, draw(bad))
    return sorter, word, values, index, error


@settings(max_examples=300, deadline=None)
@given(case=inputs_with_a_bad_value())
def test_bad_value_raises_before_any_write(case):
    # The validation sweep reads every word before the first write, so the
    # bad value is named and the sequence keeps every element in place.
    sorter, word, values, index, error = case
    bad = values[index]
    runs = [list(values)]
    if type(bad) is int and 0 <= bad < 1 << 64:  # fits an array("Q") item
        runs.append(array("Q", values))
    for data in runs:
        with pytest.raises(error, match=rf" at index {index} is "):
            sorter(data, word)
        assert list(data) == values
