"""Word-level traces of the four phases, frozen by hand and cross-checked.

The running example is [9, 2, 0, 11] at w=8 (divisor 7, tag bit 128):
9 -> node 1 bit 2, 2 -> node 0 bit 2, 0 -> node 0 bit 0, 11 -> node 1 bit 4.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from assocsort import (
    CorruptState,
    DuplicateDetected,
    PassTally,
    Region,
    WordSpec,
    WorkCounter,
    partition_idles,
    practice_pass,
    retrieve_sorted,
    run_pass,
    store_records,
    sort_region,
    verify_pass_tally,
)
from assocsort.verification import clobber_cases
from test_driver import CountingList

W8 = WordSpec(8)
TAG = W8.tag_mask


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_phases(data, delta, spec):
    return run_pass(data, Region(0, len(data), delta), spec)


class TestPractice:
    def test_core_example(self):
        data = [9, 2, 0, 11]
        tally = practice_pass(data, Region(0, 4, 0), W8)
        assert tally == PassTally(2, 2, 0, None)
        # node 0 records values {0, 2} (bits 0, 2); node 1 records {9, 11} (bits 2, 4)
        assert data == [TAG | 0b101, TAG | 0b10100, 0, 11]
        assert tally == verify_pass_tally([9, 2, 0, 11], 0, 4, W8)

    def test_singleton(self):
        data = [7]
        tally = practice_pass(data, Region(0, 1, 7), W8)
        assert tally == PassTally(1, 0, 0, None)
        assert data == [TAG | 1]

    def test_one_value_nodes_are_the_spec_table_words(self):
        # At w=64 a node word lies far above CPython's cached small ints, so
        # ``is`` tells the spec's shared word from an equal int built per node.
        spec = WordSpec(64)
        wm1 = spec.w - 1
        bits = [(5 * j + 3) % wm1 for j in range(8)]
        data = [j * wm1 + k for j, k in enumerate(bits)][::-1]
        tally = practice_pass(data, Region(0, len(data), 0), spec)
        assert tally == PassTally(8, 0, 0, None)
        assert spec.tagged == tuple(spec.tag_mask | 1 << k for k in range(wm1))
        for j, k in enumerate(bits):
            assert data[j] is spec.tagged[k], j

    def test_out_of_range_counted(self):
        data = [0, 100]  # interval is [0, 14) at n=2, so 100 defers
        tally = practice_pass(data, Region(0, 2, 0), W8)
        assert tally == PassTally(1, 0, 1, 100)
        assert tally == verify_pass_tally([0, 100], 0, 2, W8)

    def test_tag_count_matches_n_d(self):
        data = [9, 2, 0, 100, 11]
        tally = practice_pass(data, Region(0, 5, 0), W8)
        assert tally == PassTally(2, 2, 1, 100)
        assert sum(1 for v in data if v & TAG) == tally.n_d

    def test_duplicate_detected(self):
        with pytest.raises(DuplicateDetected):
            practice_pass([3, 9, 3], Region(0, 3, 0), W8)

    def test_duplicate_detected_when_one_copy_created_the_node(self):
        with pytest.raises(DuplicateDetected):
            practice_pass([5, 5], Region(0, 2, 5), W8)

    def test_undo_leaves_the_word_past_the_region(self):
        # 21 is delta + (w-1)*n, the first value past the interval, so it is
        # deferred, and the undo that follows the duplicate 1 must toggle no
        # bit for it: its node index would be 3, the word past the region.
        data = [21, 1, 1, 100]
        with pytest.raises(DuplicateDetected) as info:
            practice_pass(data, Region(0, 3, 0), W8)
        assert info.value.value == 1
        assert sorted(data[:3]) == [1, 1, 21]
        assert data[3] == 100

    def test_value_below_delta_rejected_before_its_word_is_written(self):
        # 9 claims node 0; 3 lies below delta=5 and stops the pass at index 1,
        # which decodes node 0 back to 9.  Next, 10 claims node 0 and 11
        # joins it before the cursor, so 11's bit is cleared before the decode.
        data = [9, 3]
        with pytest.raises(ValueError, match="value 3 at index 1 is below the pass minimum 5"):
            practice_pass(data, Region(0, 2, 5), W8)
        assert data == [9, 3]
        data = [10, 11, 3]
        with pytest.raises(ValueError, match="value 3 at index 2 is below the pass minimum 5"):
            practice_pass(data, Region(0, 3, 5), W8)
        assert data == [10, 11, 3]

    def test_value_below_delta_rejected_under_optimize(self):
        # The guard must survive ``python -O``; unguarded, 3 hashes to node
        # -1 and the pass writes through data[-1].
        code = (
            "from assocsort import Region, WordSpec, practice_pass\n"
            "data = [3, 9]\n"
            "try:\n"
            "    practice_pass(data, Region(0, 2, 5), WordSpec(8))\n"
            "except ValueError as exc:\n"
            "    print(type(exc).__name__, data)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ValueError [3, 9]"

    def test_preserves_value_multiset_in_records(self):
        values = [40, 3, 18, 0, 25, 9, 32, 11]
        data = list(values)
        region = Region(0, len(data), 0)
        tally = practice_pass(data, region, W8)
        assert tally.n_d_prime == 0
        decoded = []
        for j, v in enumerate(data):
            if v & TAG:
                rec = v & W8.value_mask
                for k in range(W8.w - 1):
                    if rec >> k & 1:
                        decoded.append(j * 7 + k)
        assert sorted(decoded) == sorted(values)

    def test_scan_work_is_linear(self):
        work = WorkCounter()
        data = [9, 2, 0, 100, 11]
        practice_pass(data, Region(0, 5, 0), W8, work)
        # one classification step per word plus at most one skip per node
        assert work.scanned <= 2 * len(data)
        # exactly: five words plus one re-examination, of the 2 that 9
        # displaced from index 1 to the cursor at index 0
        assert work.scanned == 6


class TestStore:
    def test_core_example_nodes_already_front(self):
        data = [TAG | 0b101, TAG | 0b10100, 0, 11]
        store_records(data, Region(0, 4, 0), 2, W8)
        assert data == [TAG | 0b101, TAG | 0b10100, 0, 11]

    def test_straggler_node_swapped_in(self):
        # [0, 21, 22, 7]: nodes at 0, 1 and 3; record of node 3 is {bits 0,1}
        data = [0, 21, 22, 7]
        region = Region(0, 4, 0)
        tally = practice_pass(data, region, W8)
        assert tally == PassTally(3, 1, 0, None)
        assert data == [TAG | 1, TAG | 1, 22, TAG | 0b11]
        store_records(data, region, tally.n_d, W8)
        # records now live in slots 0..2; the tag at index 3 has not moved
        assert data == [TAG | 1, TAG | 1, 0b11, TAG | 22]

    def test_every_word_a_node_is_identity(self):
        data = [0, 7, 14, 21]  # each value owns its own node
        region = Region(0, 4, 0)
        tally = practice_pass(data, region, W8)
        assert tally == PassTally(4, 0, 0, None)
        snapshot = list(data)
        store_records(data, region, tally.n_d, W8)
        assert data == snapshot

    @pytest.mark.parametrize("m", range(4))
    def test_leading_records_stay_in_place(self, m):
        # The first m words are tagged and hold their own records already;
        # the one record after the gap is swapped into slot m.
        records = [0b101, 0b11, 0b1000, 0b1][:m]
        data = CountingList([TAG | r for r in records] + [50, TAG | 0b110])
        head = data[:m]
        n_d = m + 1
        work = WorkCounter()
        store_records(data, Region(0, len(data), 0), n_d, W8, work)
        assert data[:m] == head
        assert data[m:] == [0b110, TAG | 50]
        assert work.written == 2 * (n_d - m) == data.writes

    def test_one_value_pass_writes_nothing(self):
        data = CountingList([TAG | 1])
        work = WorkCounter()
        store_records(data, Region(0, 1, 7), 1, W8, work)
        assert data == [TAG | 1]
        assert data.writes == work.written == 0

    def test_record_order_follows_tag_order(self):
        values = [40, 3, 18, 0, 25, 9, 32, 11]
        data = list(values)
        region = Region(0, len(data), 0)
        tally = practice_pass(data, region, W8)
        tagged = [i for i, v in enumerate(data) if v & TAG]
        records = [data[i] & W8.value_mask for i in tagged]
        store_records(data, region, tally.n_d, W8)
        assert [data[r] & W8.value_mask for r in range(tally.n_d)] == records
        assert [i for i, v in enumerate(data) if v & TAG] == tagged


class TestPartition:
    def test_mixed_example(self):
        # [9, 2, 0, 100, 11]: nodes 0 and 1, idles 0 and 11, deferred 100
        data = [9, 2, 0, 100, 11]
        region = Region(0, 5, 0)
        tally = practice_pass(data, region, W8)
        store_records(data, region, tally.n_d, W8)
        assert data == [TAG | 0b101, TAG | 0b10100, 0, 100, 11]
        partition_idles(data, region, tally, W8)
        assert data == [TAG | 0b101, TAG | 0b10100, 0, 11, 100]

    def test_no_idles_is_noop(self):
        data = [0, 100, 50]
        region = Region(0, 3, 0)
        tally = practice_pass(data, region, W8)
        assert tally.n_c == 0
        snapshot = list(data)
        partition_idles(data, region, tally, W8)
        assert data == snapshot

    def test_no_idles_writes_nothing(self):
        data = [0, 100, 50]
        region = Region(0, 3, 0)
        tally = practice_pass(data, region, W8)
        assert tally.n_c == 0
        data = CountingList(data)
        work = WorkCounter()
        partition_idles(data, region, tally, W8, work)
        assert data.writes == work.written == 0

    def test_no_deferred_writes_nothing(self):
        # Every payload behind the records is in range, so clustering them
        # is the identity and the phase returns before its sweep.
        data = [9, 2, 0, 11]
        region = Region(0, 4, 0)
        tally = practice_pass(data, region, W8)
        store_records(data, region, tally.n_d, W8)
        assert tally.n_c == 2 and tally.n_d_prime == 0
        data = CountingList(data)
        snapshot = list(data)
        work = WorkCounter()
        partition_idles(data, region, tally, W8, work)
        assert data.writes == work.written == 0
        assert data == snapshot

    def test_payload_set_preserved(self):
        values = [0, 3, 9, 100, 44, 101, 11]
        data = list(values)
        region = Region(0, len(data), 0)
        tally = practice_pass(data, region, W8)
        store_records(data, region, tally.n_d, W8)
        before = sorted(v & W8.value_mask for v in data)
        partition_idles(data, region, tally, W8)
        assert sorted(v & W8.value_mask for v in data) == before
        deferred = data[tally.n_d + tally.n_c :]
        assert sorted(v & W8.value_mask for v in deferred) == [100, 101]


class TestRetrieve:
    def test_core_example_end_to_end(self):
        data = [9, 2, 0, 11]
        assert run_phases(data, 0, W8) == PassTally(2, 2, 0, None)
        assert data == [0, 2, 9, 11]

    def test_mixed_pass_leaves_deferred_untagged_at_tail(self):
        data = [9, 2, 0, 100, 11]
        run_phases(data, 0, W8)
        assert data == [0, 2, 9, 11, 100]
        assert all(not v & TAG for v in data)

    def test_clobber_hazard_nodes_5_and_6(self):
        # With delta pinned to 0 the nodes land at indices 5 and 6; expanding
        # node 6 writes across index 5's still-pending tag, which only
        # survives because expansion writes preserve the destination MSB.
        data = [35, 42, 43, 44, 45, 46, 47]
        region = Region(0, 7, 0)
        tally = practice_pass(data, region, W8)
        assert [i for i, v in enumerate(data) if v & TAG] == [5, 6]
        store_records(data, region, tally.n_d, W8)
        partition_idles(data, region, tally, W8)
        retrieve_sorted(data, region, tally, W8)
        assert data == [35, 42, 43, 44, 45, 46, 47]

    @pytest.mark.parametrize(("w", "values"), clobber_cases())
    def test_clobber_cases_fit_one_pass(self, w, values):
        # The verify suite's cases only pose the hazard if each one lies
        # below the tag and is practiced in a single pass.
        spec = WordSpec(w)
        assert max(values) < spec.tag_mask
        data = list(values)
        assert sort_region(data, spec).pass_count == 1
        assert data == sorted(values)

    def test_single_value_through_all_phases(self):
        data = [13]
        run_phases(data, 13, W8)
        assert data == [13]

    def test_no_tags_survive(self):
        data = [40, 3, 18, 0, 25, 9, 32, 11, 120, 99]
        run_phases(data, 0, W8)
        assert all(not v & TAG for v in data)

    def test_corrupt_state_on_missing_tag(self):
        data = [9, 2, 0, 11]
        region = Region(0, 4, 0)
        tally = practice_pass(data, region, W8)
        store_records(data, region, tally.n_d, W8)
        partition_idles(data, region, tally, W8)
        data[1] &= W8.value_mask  # destroy one tag behind the engine's back
        with pytest.raises(CorruptState):
            retrieve_sorted(data, region, tally, W8)

    def test_corrupt_state_on_surplus_tag(self):
        # A zeroed record starves the write budget, so a third tag is still
        # pending when both records are spent.
        data = [TAG | 0b101, TAG | 0, 0, TAG | 11]
        with pytest.raises(CorruptState):
            retrieve_sorted(data, Region(0, 4, 0), PassTally(2, 2, 0), W8)


class TestOffsetRegions:
    def test_phases_respect_offset(self):
        data = [999, 998, 9, 2, 0, 11, 777]
        region = Region(2, 4, 0)
        spec = WordSpec(16)
        tally = practice_pass(data, region, spec)
        store_records(data, region, tally.n_d, spec)
        partition_idles(data, region, tally, spec)
        retrieve_sorted(data, region, tally, spec)
        assert data == [999, 998, 0, 2, 9, 11, 777]


class TestRecords:
    @pytest.mark.parametrize("offset, length", [(-1, 1), (0, -1)])
    def test_region_rejects_a_negative_window(self, offset, length):
        with pytest.raises(ValueError, match="non-negative"):
            Region(offset, length, 0)
        with pytest.raises(ValueError, match="non-negative"):
            Region(0, 1, 0)._replace(offset=offset, length=length)

    @pytest.mark.parametrize(
        "record, name",
        [
            (Region(2, 4, 7), "offset"),
            (Region(2, 4, 7), "length"),
            (Region(2, 4, 7), "delta"),
            (PassTally(1, 2, 0), "n_d"),
            (PassTally(1, 2, 0), "delta_prime"),
        ],
    )
    def test_fields_cannot_be_assigned(self, record, name):
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, name, 9)
        assert repr(record) == before

    def test_pass_tally_fields(self):
        tally = PassTally(1, 2, 0)
        assert tally.sorted_count == 3
        assert tally.delta_prime is None
        assert tally == PassTally(1, 2, 0, None)
        assert tally != PassTally(1, 2, 0, 5)
        assert repr(tally) == "PassTally(n_d=1, n_c=2, n_d_prime=0, delta_prime=None)"

    def test_region_fields(self):
        region = Region(2, 4, 7)
        assert (region.offset, region.length, region.delta) == (2, 4, 7)
        assert region == Region(2, 4, 7)
        assert region != Region(2, 4, 8)
        assert repr(region) == "Region(offset=2, length=4, delta=7)"
