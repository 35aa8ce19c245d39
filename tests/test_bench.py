"""Work table: cardinality, verification gate, the paper's bound, CSV round-trips."""

from __future__ import annotations

import io

import pytest

import assocsort.bench as bench_mod
from assocsort import (
    BenchRecord,
    DatasetSpec,
    VerificationFailed,
    WordSpec,
    emit_csv,
    generate,
    load_csv,
    run_suite,
    sort,
    sort_region,
)
from assocsort.cli import main

EXPECTED_HEADER = "family,n,m,w,passes,words_scanned,bound,seed"


class TestRunSuite:
    def test_cardinality(self):
        suite = [
            DatasetSpec("uniform", 32, 16, beta=2, seed=1),
            DatasetSpec("best_case", 16, 16, seed=2),
            DatasetSpec("adversarial", 8, 16, seed=3),
        ]
        records = run_suite(suite)
        assert [(r.family, r.seed) for r in records] == [
            ("uniform", 1),
            ("best_case", 2),
            ("adversarial", 3),
        ]

    def test_best_case_single_pass(self):
        suite = [DatasetSpec("best_case", 64, 16, seed=2)]
        records = run_suite(suite)
        assert records and all(r.passes == 1 for r in records)

    def test_adversarial_pass_per_value(self):
        # One pass per value is the paper's law, on sort_region.  The table
        # runs sort(), which splits the spread and insertion-sorts each
        # bucket of at most 8 words that one pass cannot sort: 2 passes.
        spec = DatasetSpec("adversarial", 64, 32, seed=0)
        assert sort_region(generate(spec), WordSpec(32)).pass_count == 64
        records = run_suite([spec])
        assert (records[0].passes, records[0].words_scanned) == (2, 536)

    def test_records_carry_actual_range(self):
        suite = [DatasetSpec("adversarial", 8, 16, seed=0)]
        rec = run_suite(suite)[0]
        assert rec.m == 7 * 15 * 8 + 1
        assert rec.n == 8 and rec.w == 16
        assert rec.bound == 8 + 57  # n + ceil(841 / 15)

    def test_verification_gate(self, monkeypatch):
        def broken(data, spec):
            report = sort(data, spec)
            data.reverse()  # reports a sort, leaves the values unsorted
            return report

        monkeypatch.setattr(bench_mod, "sort", broken)
        suite = [DatasetSpec("uniform", 16, 16, beta=1, seed=123)]
        with pytest.raises(VerificationFailed, match="family=uniform .*seed=123"):
            run_suite(suite)

    def test_cli_writes_identical_bytes_twice(self, tmp_path):
        argv = [
            "bench",
            "--families", "uniform,best_case,adversarial,full_universe",
            "--n", "256,1024",
            "--beta", "2,8",
            "--word-bits", "32",
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*argv, "--csv", str(first)]) == 0
        assert main([*argv, "--csv", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert len(load_csv(first)) == 4 + 3 * 2  # uniform has 2 betas per size

    def test_scanned_words_within_twice_the_bound(self):
        # The paper's O(n + m/(w-1)) work, shown on sort() rather than on
        # sort_region alone.  Not full_universe at small w: there the
        # splitter's sweeps are bounded by (2w + 4)*n instead.
        sizes = (1 << 10, 1 << 12, 1 << 14)
        suite = [
            DatasetSpec("uniform", n, 64, beta=beta, seed=beta * n)
            for beta in (2, 4, 8)
            for n in sizes
        ]
        suite += [DatasetSpec("best_case", n, 64, seed=n) for n in sizes]
        records = run_suite(suite)
        assert len(records) == 12
        over = [r for r in records if r.words_scanned > 2 * r.bound]
        assert not over, over


class TestCsv:
    def _records(self):
        suite = [
            DatasetSpec("uniform", 32, 16, beta=2, seed=1),
            DatasetSpec("best_case", 16, 16, seed=2),
        ]
        return run_suite(suite)

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
        assert row[0] == "uniform"
        assert all(part.isdigit() for part in row[1:])

    def test_load_rejects_foreign_header(self):
        with pytest.raises(ValueError):
            load_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_bench_record_is_value_like():
    rec = BenchRecord("uniform", 1, 1, 8, 1, 1, 2, 0)
    assert rec == BenchRecord("uniform", 1, 1, 8, 1, 1, 2, 0)
