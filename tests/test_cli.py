"""CLI subcommands: exit codes, stream discipline, end-to-end flows."""

from __future__ import annotations

import os
import struct
import subprocess
import sys

import pytest

from assocsort import DatasetSpec, cli, generate, load_csv
from assocsort.cli import main
from assocsort.verification import SuiteResult

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(argv):
    return main(argv)


class TestSort:
    def test_text_round_trip(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("9\n2\n0\n11\n")
        code = run_cli(["sort", "--input", str(src), "--output", str(dst), "--word-bits", "8"])
        captured = capsys.readouterr()
        assert code == 0
        assert dst.read_text() == "0\n2\n9\n11\n"
        assert "n=4 passes=1" in captured.err
        assert captured.out == ""

    def test_w4_crosses_tag_boundary(self, tmp_path, capsys):
        # 9 and 11 land in the upper half of the 4-bit universe: two passes
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("9\n2\n0\n11\n")
        code = run_cli(["sort", "--input", str(src), "--output", str(dst), "--word-bits", "4"])
        assert code == 0
        assert dst.read_text() == "0\n2\n9\n11\n"
        assert "passes=2" in capsys.readouterr().err

    def test_duplicate_rejected_without_output(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("5\n5\n")
        code = run_cli(["sort", "--input", str(src), "--output", str(dst)])
        captured = capsys.readouterr()
        assert code == 1
        assert not dst.exists()
        assert captured.err.startswith("error: DuplicateDetected:")

    def test_value_exceeds_universe(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("16\n")
        code = run_cli(["sort", "--input", str(src), "--output", str(tmp_path / "o"), "--word-bits", "4"])
        assert code == 1
        assert "ValueExceedsUniverse" in capsys.readouterr().err

    def test_binary_value_exceeds_universe_writes_nothing(self, tmp_path, capsys):
        # The engine's bounds sweep is the only width check, and it runs
        # before any word or output file is written.
        src = tmp_path / "in.bin"
        dst = tmp_path / "out.bin"
        src.write_bytes((1).to_bytes(8, "little") + (300).to_bytes(8, "little"))
        code = run_cli(
            ["sort", "--input", str(src), "--output", str(dst), "--format", "binary", "--word-bits", "8"]
        )
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ValueExceedsUniverse:"), err
        assert not dst.exists()

    def test_parse_error(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("1\nnope\n")
        code = run_cli(["sort", "--input", str(src), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "ParseError" in capsys.readouterr().err

    def test_non_utf8_text_names_the_line(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_bytes(b"1\n\xff\n")
        code = run_cli(["sort", "--input", str(src), "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ParseError: line 2"), err

    def test_empty_input(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        dst = tmp_path / "out.txt"
        src.write_text("")
        code = run_cli(["sort", "--input", str(src), "--output", str(dst)])
        assert code == 0
        assert dst.read_text() == ""

    def test_binary_round_trip(self, tmp_path):
        src = tmp_path / "in.bin"
        dst = tmp_path / "out.bin"
        src.write_bytes((7).to_bytes(8, "little") + (3).to_bytes(8, "little"))
        code = run_cli(["sort", "--input", str(src), "--output", str(dst), "--format", "binary"])
        assert code == 0
        assert dst.read_bytes() == (3).to_bytes(8, "little") + (7).to_bytes(8, "little")

    def test_binary_duplicate_writes_nothing_and_keeps_the_input(self, tmp_path, capsys):
        src = tmp_path / "in.bin"
        dst = tmp_path / "out.bin"
        payload = b"".join(v.to_bytes(8, "little") for v in (9, 2**63 + 5, 4, 9))
        src.write_bytes(payload)
        code = run_cli(["sort", "--input", str(src), "--output", str(dst), "--format", "binary"])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: DuplicateDetected:"), err
        assert not dst.exists()
        assert src.read_bytes() == payload

    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli(["sort", "--input", str(tmp_path / "absent"), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


def pack(values):
    return struct.pack(f"<{len(values)}Q", *values)


def split_point(values):
    """The value at which the CLI's one split parts the two sides."""
    lo, hi = min(values), max(values)
    b = (lo ^ hi).bit_length() - 1
    return (lo >> b | 1) << b


@pytest.fixture
def forks(monkeypatch):
    """Count ``os.fork`` calls, and give the process two CPUs whatever the host has."""
    calls = []
    real = os.fork

    def fork():
        calls.append(True)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sort_file(tmp_path, values, *extra):
    src = tmp_path / "in.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(pack(values))
    code = run_cli(
        ["sort", "--format", "binary", "--input", str(src), "--output", str(dst), *extra]
    )
    return code, dst


class TestTwoProcesses:
    N = cli._FORK_FLOOR

    @pytest.mark.parametrize("family", ["best_case", "full_universe"])
    def test_sorts_byte_exact(self, tmp_path, capsys, forks, family):
        values = generate(DatasetSpec(family, self.N, 64, seed=11))
        code, dst = sort_file(tmp_path, values)
        assert code == 0 and len(forks) == 1
        assert dst.read_bytes() == pack(sorted(values))
        assert f"n={self.N} passes=" in capsys.readouterr().err
        assert_no_child_left()

    # full_universe's high side holds values of 2**63 and more, so its
    # duplicate crosses the worker's header as a full 64-bit word.
    @pytest.mark.parametrize(
        ("family", "side"),
        [
            pytest.param("best_case", "low", id="low"),
            pytest.param("best_case", "high", id="high"),
            pytest.param("full_universe", "low", id="full_universe-low"),
            pytest.param("full_universe", "high", id="full_universe-high"),
        ],
    )
    def test_duplicate_on_either_side(self, tmp_path, capsys, forks, family, side):
        values = generate(DatasetSpec(family, self.N, 64, seed=12))
        ordered = sorted(values)
        mid = split_point(values)
        k = sum(v < mid for v in values)  # the high side's first index
        # neither copy is the minimum or the maximum, so the split stays put
        i = k + 1 if side == "high" else k - 3
        copy = ordered[i]
        values[values.index(ordered[i + 1])] = copy
        code, dst = sort_file(tmp_path, values)
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(forks) == 1
        assert err == [f"error: DuplicateDetected: value {copy} occurs more than once"]
        assert not dst.exists()
        assert_no_child_left()

    def test_dead_worker_is_corrupt_state(self, tmp_path, capsys, forks, monkeypatch):
        parent = os.getpid()
        real = cli.sort

        def sort(data, spec):
            if os.getpid() != parent:
                os._exit(3)
            return real(data, spec)

        monkeypatch.setattr(cli, "sort", sort)
        values = generate(DatasetSpec("best_case", self.N, 64, seed=13))
        code, dst = sort_file(tmp_path, values)
        err = capsys.readouterr().err.splitlines()
        assert code == 1 and len(forks) == 1
        assert len(err) == 1 and err[0].startswith("error: CorruptState:"), err
        assert not dst.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("case", ["one_cpu", "no_fork", "below_floor", "too_wide"])
    def test_one_process(self, tmp_path, capsys, monkeypatch, case):
        def fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "fork", fork)
        n = self.N - 1 if case == "below_floor" else self.N
        values = generate(DatasetSpec("best_case", n, 64, seed=14))
        extra = []
        if case == "one_cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        else:
            monkeypatch.setattr(cli, "_cpus", lambda: 2)
        if case == "no_fork":
            monkeypatch.delattr(os, "fork")
        elif case == "too_wide":
            values = list(range(n))  # 256 and beyond do not fit 8 bits
            extra = ["--word-bits", "8"]
        code, dst = sort_file(tmp_path, values, *extra)
        err = capsys.readouterr().err.splitlines()
        if case == "too_wide":
            assert code == 1
            assert len(err) == 1 and err[0].startswith("error: ValueExceedsUniverse:"), err
            assert not dst.exists()
        else:
            assert code == 0
            assert dst.read_bytes() == pack(sorted(values))


class TestUsageErrors:
    def test_word_bits_out_of_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["sort", "--word-bits", "65"])
        assert exc.value.code == 2
        assert "word width must be in [2, 64]" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run_cli(["sort", "--word-bits", "x"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_family(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--csv", "x.csv", "--families", "sorted_already"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--n", "-5"],
        ["bench", "--families", "uniform", "--beta", "0"],
        ["verify", "--trials", "-1"],
    ],
    ids=["n_negative", "beta_0", "trials_negative"],
)
def test_bad_numbers_fail_with_one_line(tmp_path, capsys, argv):
    if argv[0] == "bench":
        argv = [*argv, "--csv", str(tmp_path / "x.csv")]
    code = run_cli(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: ValueError:"), err


class TestVerify:
    def test_zero_trials_warns(self, capsys):
        code = run_cli(["verify", "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert "no checks run" in captured.err

    def test_small_run_passes(self, capsys):
        code = run_cli(["verify", "--trials", "25", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 0
        assert "oracle_equivalence: 25/25 ok" in captured.out
        assert "tally_oracle: 29/29 ok" in captured.out  # 25 trials, 4 bound regions
        assert "clobber_regression" in captured.out
        # every sort and, below the tag, sort_region run, on a list and an array
        assert "duplicates: 92/92 ok" in captured.out

    def test_failing_suite_exits_1(self, monkeypatch, capsys):
        failed = SuiteResult("oracle_equivalence", 2, 0)
        failed.record(False, "trial=2 w=8")
        failed.record(False, "trial=5 w=16")
        monkeypatch.setattr(cli, "run_all", lambda trials, seed: [failed])
        code = run_cli(["verify", "--trials", "3"])
        out = capsys.readouterr().out.splitlines()
        assert code == 1
        assert out == ["oracle_equivalence: 2/4 FAIL", "  first failure: trial=2 w=8"]


class TestBench:
    def test_csv_written(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        code = run_cli(
            [
                "bench",
                "--csv", str(csv_path),
                "--families", "best_case,adversarial",
                "--n", "16,32",
                "--word-bits", "16",
                "--seed", "5",
            ]
        )
        assert code == 0
        records = load_csv(csv_path)
        # 2 families x 2 sizes, one row each
        assert len(records) == 4
        best = [r for r in records if r.family == "best_case"]
        assert [r.passes for r in best] == [1, 1]
        adv = [r for r in records if r.family == "adversarial"]
        # sort() splits the spread and finishes its short buckets: two
        # passes at either size, where sort_region would run one per value
        assert [r.passes for r in adv] == [2, 2]

    def test_uniform_beta_grid(self, tmp_path):
        csv_path = tmp_path / "bench.csv"
        code = run_cli(
            [
                "bench",
                "--csv", str(csv_path),
                "--families", "uniform",
                "--n", "64",
                "--beta", "2,4",
                "--word-bits", "16",
            ]
        )
        assert code == 0
        records = load_csv(csv_path)
        assert len(records) == 2  # one row per beta

    def test_row_does_not_depend_on_the_rest_of_the_table(self, tmp_path):
        # Every dataset takes --seed itself, so uniform's row reads the same
        # alone and behind best_case.
        rows = {}
        for families in ("uniform", "best_case,uniform"):
            csv_path = tmp_path / f"{families}.csv"
            code = run_cli(
                [
                    "bench",
                    "--csv", str(csv_path),
                    "--families", families,
                    "--n", "1024",
                    "--word-bits", "32",
                ]
            )
            assert code == 0
            rows[families] = [r for r in load_csv(csv_path) if r.family == "uniform"]
        assert rows["uniform"] == rows["best_case,uniform"]
        assert [(r.m, r.words_scanned, r.seed) for r in rows["uniform"]] == [(63475, 3578, 0)]

    def test_infeasible_suite_fails_cleanly(self, tmp_path, capsys):
        code = run_cli(
            [
                "bench",
                "--csv", str(tmp_path / "x.csv"),
                "--families", "adversarial",
                "--n", "4096",
                "--word-bits", "16",
            ]
        )
        assert code == 1
        assert "InfeasibleRange" in capsys.readouterr().err

    def test_unwritable_csv_fails_before_the_suite_runs(self, tmp_path, capsys, monkeypatch):
        def run_suite(*args, **kwargs):
            raise AssertionError("the suite ran before --csv was opened")

        monkeypatch.setattr(cli, "run_suite", run_suite)
        code = run_cli(
            [
                "bench",
                "--csv", str(tmp_path / "missing" / "x.csv"),
                "--families", "best_case,uniform",
                "--n", "64",
                "--word-bits", "32",
            ]
        )
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: FileNotFoundError:"), err


class TestTrace:
    def test_phase_lines(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("9\n2\n0\n11\n")
        code = run_cli(["trace", "--input", str(src), "--word-bits", "8"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert "pass 1 practice: offset=0 length=4 delta=0 n_d=2 n_c=2 n_out=0" in lines
        # after practicing, nodes sit at indices 0 and 1
        practice_at = lines.index("pass 1 practice: offset=0 length=4 delta=0 n_d=2 n_c=2 n_out=0")
        block = lines[practice_at + 1 : practice_at + 5]
        assert block[0] == "  [0] tag=1 low=5 node"
        assert block[1] == "  [1] tag=1 low=20 node"
        assert block[2] == "  [2] tag=0 low=0 idle"
        assert block[3] == "  [3] tag=0 low=11 idle"
        for phase in ("store", "partition", "retrieve"):
            assert any(f"pass 1 {phase}:" in ln for ln in lines)
        retrieve_at = lines.index("pass 1 retrieve: offset=0 length=4 delta=0 n_d=2 n_c=2 n_out=0")
        assert lines[retrieve_at + 1] == "  [0] tag=0 low=0 output"

    def test_singleton_trace(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("42\n")
        code = run_cli(["trace", "--input", str(src), "--word-bits", "8"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        # A one-word input runs the same four phases as any other pass.
        for phase in ("practice", "store", "partition"):
            assert f"pass 1 {phase}: offset=0 length=1 delta=42 n_d=1 n_c=0 n_out=0" in lines
        retrieve_at = lines.index(
            "pass 1 retrieve: offset=0 length=1 delta=42 n_d=1 n_c=0 n_out=0"
        )
        assert lines[retrieve_at + 1] == "  [0] tag=0 low=42 output"

    def test_upper_half_delta_in_input_units(self, tmp_path, capsys):
        # Nine words are split on the tag bit, not finished.  40000 >= 2**15
        # is then sorted shifted down by its bucket's bias, the smaller of
        # that bucket's minimum and 2**15, so it is held as
        # 40000 - 2**15 = 7232; the header adds that bias back, the low
        # bits do not
        src = tmp_path / "in.txt"
        src.write_text("40000\n" + "".join(f"{v}\n" for v in range(7, 15)))
        code = run_cli(["trace", "--input", str(src), "--word-bits", "16"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "pass 1 practice: offset=0 length=8 delta=7 n_d=1 n_c=7 n_out=0" in lines
        assert "pass 2 practice: offset=8 length=1 delta=40000 n_d=1 n_c=0 n_out=0" in lines
        retrieve_at = lines.index(
            "pass 2 retrieve: offset=8 length=1 delta=40000 n_d=1 n_c=0 n_out=0"
        )
        assert lines[retrieve_at + 1] == "  [8] tag=0 low=7232 output"

    def test_finished_bucket_prints_no_pass(self, tmp_path, capsys):
        # Two words too far apart for one pass are finished by sorted(), so
        # the hook sees no phase and the trace prints no pass line.
        src = tmp_path / "in.txt"
        src.write_text("40000\n7\n")
        code = run_cli(["trace", "--input", str(src), "--word-bits", "16"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        assert "sorted 2 values" in captured.err

    def test_deferred_value_labelled_out_of_range(self, tmp_path, capsys):
        # At n=9, w=8 the first pass covers [0, 63), so 100 waits for pass
        # 2; nine words are more than the finisher takes.
        src = tmp_path / "in.txt"
        src.write_text("".join(f"{v}\n" for v in range(8)) + "100\n")
        code = run_cli(["trace", "--input", str(src), "--word-bits", "8"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        for phase in ("practice", "store", "partition", "retrieve"):
            at = lines.index(f"pass 1 {phase}: offset=0 length=9 delta=0 n_d=2 n_c=6 n_out=1")
            assert lines[at + 9] == "  [8] tag=0 low=100 out-of-range"
        assert "pass 2 practice: offset=8 length=1 delta=100 n_d=1 n_c=0 n_out=0" in lines

    def test_duplicate_aborts_after_partial_trace(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("3\n9\n3\n")
        code = run_cli(["trace", "--input", str(src), "--word-bits", "8"])
        captured = capsys.readouterr()
        assert code == 1
        assert "DuplicateDetected" in captured.err

    def test_value_exceeds_universe_before_any_pass(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("3\n9\n16\n")
        code = run_cli(["trace", "--input", str(src), "--word-bits", "4"])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error: ValueExceedsUniverse:"), err
        assert not any(line.startswith("pass ") for line in captured.out.splitlines())

    def test_large_input_warns(self, tmp_path, capsys):
        src = tmp_path / "in.txt"
        src.write_text("".join(f"{v}\n" for v in range(500)))
        code = run_cli(["trace", "--input", str(src), "--word-bits", "16"])
        captured = capsys.readouterr()
        assert code == 0
        assert "warning" in captured.err


def test_stdin_stdout_pipeline():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "assocsort", "sort", "--word-bits", "8"],
        input="9\n2\n0\n11\n",
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "0\n2\n9\n11\n"
    assert "passes=1" in proc.stderr


def test_binary_stdin_stdout_pipeline(tmp_path):
    values = [2**64 - 1, 7, 2**63, 0, 300]
    src = tmp_path / "in.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(b"".join(v.to_bytes(8, "little") for v in values))
    assert run_cli(["sort", "--format", "binary", "--input", str(src), "--output", str(dst)]) == 0
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "assocsort", "sort", "--format", "binary"],
        input=src.read_bytes(),
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == dst.read_bytes()
    assert proc.stdout == b"".join(v.to_bytes(8, "little") for v in sorted(values))
    assert b"n=5 passes=" in proc.stderr
