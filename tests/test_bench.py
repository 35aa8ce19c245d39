"""Benchmark harness: cardinality, verification gate, CSV round-trips."""

from __future__ import annotations

import io

import pytest

import assocsort.bench as bench_mod
from assocsort import (
    ALGORITHMS,
    BenchRecord,
    DatasetSpec,
    DuplicateDetected,
    VerificationFailed,
    WordSpec,
    counting_sort,
    emit_csv,
    generate,
    load_csv,
    run_suite,
    sort_region,
)

EXPECTED_HEADER = "algorithm,family,n,m,w,passes,words_scanned,nanos,seed"


class TestCountingSort:
    def test_basic(self):
        assert counting_sort([9, 2, 0, 11]) == [0, 2, 9, 11]
        assert counting_sort([]) == []

    def test_sparse_range(self):
        assert counting_sort([1000, 3, 500]) == [3, 500, 1000]

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateDetected, match=r"^value 3 occurs more than once$"):
            counting_sort([3, 3])


def assoc(records):
    """The in-place sorter's records, in suite order."""
    return [r for r in records if r.algorithm == "assoc"]


class TestRunSuite:
    def test_cardinality(self):
        suite = [DatasetSpec("uniform", 32, 16, beta=2, seed=1)]
        records = run_suite(suite, repetitions=3)
        assert len(records) == 9
        assert [r.algorithm for r in records[::3]] == list(ALGORITHMS)

    def test_best_case_single_pass(self):
        suite = [DatasetSpec("best_case", 64, 16, seed=2)]
        records = assoc(run_suite(suite))
        assert records and all(r.passes == 1 for r in records)

    def test_adversarial_pass_per_value(self):
        # One pass per value is the paper's law, on sort_region.  The bench
        # runs sort(), which splits the spread and insertion-sorts each
        # bucket of at most 8 words that one pass cannot sort: 2 passes.
        spec = DatasetSpec("adversarial", 64, 32, seed=0)
        assert sort_region(generate(spec), WordSpec(32)).pass_count == 64
        records = assoc(run_suite([spec]))
        assert (records[0].passes, records[0].words_scanned) == (2, 536)

    def test_baselines_report_no_passes(self):
        suite = [DatasetSpec("uniform", 16, 16, beta=1, seed=3)]
        records = [r for r in run_suite(suite) if r.algorithm != "assoc"]
        assert {r.algorithm for r in records} == {"oracle_comparison", "counting_baseline"}
        assert all(r.passes == 0 and r.words_scanned == 0 for r in records)
        assert all(r.nanos > 0 for r in records)

    def test_counting_skipped_beyond_cap(self, monkeypatch):
        monkeypatch.setattr(bench_mod, "DEFAULT_COUNTING_CAP", 100)
        suite = [DatasetSpec("uniform", 16, 32, beta=8, seed=3)]
        records = run_suite(suite)
        assert {r.algorithm for r in records} == {"assoc", "oracle_comparison"}

    def test_deterministic_counters_across_reps(self):
        suite = [DatasetSpec("uniform", 128, 16, beta=4, seed=9)]
        records = assoc(run_suite(suite, repetitions=4))
        assert len(records) == 4
        assert len({(r.passes, r.words_scanned) for r in records}) == 1

    def test_records_carry_actual_range(self):
        suite = [DatasetSpec("adversarial", 8, 16, seed=0)]
        rec = assoc(run_suite(suite))[0]
        assert rec.m == 7 * 15 * 8 + 1
        assert rec.n == 8 and rec.w == 16

    def test_verification_gate(self, monkeypatch):
        def broken(values):
            return list(values)  # pretends to sort, does not

        monkeypatch.setattr(bench_mod, "counting_sort", broken)
        suite = [DatasetSpec("uniform", 16, 16, beta=1, seed=123)]
        with pytest.raises(VerificationFailed, match="counting_baseline .*seed=123"):
            run_suite(suite)


class TestCsv:
    def _records(self):
        suite = [
            DatasetSpec("uniform", 32, 16, beta=2, seed=1),
            DatasetSpec("best_case", 16, 16, seed=2),
        ]
        return run_suite(suite, repetitions=2)

    def test_header_only_when_empty(self):
        buf = io.StringIO()
        emit_csv([], buf)
        assert buf.getvalue() == EXPECTED_HEADER + "\n"

    def test_one_record_two_lines(self):
        buf = io.StringIO()
        emit_csv(self._records()[:1], buf)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[0] == EXPECTED_HEADER

    def test_round_trip(self, tmp_path):
        records = self._records()
        path = tmp_path / "bench.csv"
        emit_csv(records, path)
        assert load_csv(path) == records

    def test_rows_are_decimal_integers(self):
        buf = io.StringIO()
        emit_csv(self._records()[:1], buf)
        row = buf.getvalue().splitlines()[1].split(",")
        assert all(part.isdigit() for part in row[2:])

    def test_load_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            load_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_bench_record_is_value_like():
    rec = BenchRecord("assoc", "uniform", 1, 1, 8, 1, 1, 1, 0)
    assert rec == BenchRecord("assoc", "uniform", 1, 1, 8, 1, 1, 1, 0)
