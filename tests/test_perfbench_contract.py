"""The engine and CLI hooks the benchmark's traced run relies on.

``perfbench/tracing.py`` wraps the four phase functions by module-global
name and reads each call's ``WorkCounter`` deltas (a bucket that ``sort``
finishes with ``sorted()`` calls none of them), and times the CLI's
``read_list``, ``sort`` and ``write_list`` the same way.  These tests load
it by path, as the benchmark does not ship in the package, and check that
its per-phase totals still account for the whole ``SortReport`` and that
every CLI call it wraps is still made through those names.
"""

from __future__ import annotations

import importlib.util
import struct
import sys
from array import array
from pathlib import Path

import pytest

from assocsort import DatasetSpec, WordSpec, cli, engine, gen_adversarial, generate, sort

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    ("values", "word", "split", "passes", "splitter_sweeps"),
    [
        # one value per pass of the paper's loop, all below the tag: after
        # the second pass the remainder's span reaches (w-1)*L**2 and it
        # goes back to the splitter; its partition sweeps and bucket scans
        # and the L words the finisher scans in each bucket of at most 8
        # words are pinned here
        (gen_adversarial(16, WordSpec(16)), WordSpec(16), False, 2, 35),
        # values on both sides of 2**63, sparse_universe's shape at another
        # seed: the range splitter runs first, and its sweeps and scans and
        # the finisher's L words per bucket are pinned for this fixed input
        (generate(DatasetSpec("full_universe", 4096, 64, seed=3)), WordSpec(64), True, 5, 63_268),
    ],
    ids=["no_split", "tag_split"],
)
def test_phase_totals_account_for_the_report(values, word, split, passes, splitter_sweeps):
    assert split == any(v >= word.tag_mask for v in values)
    tracing = _load_tracing()
    data = list(values)
    with tracing.EngineTrace(engine) as trace:
        report = sort(data, word)
    assert data == sorted(values)
    record = trace.take(report)
    phases = record["phases"]
    assert set(phases) == {"practice", "store", "partition", "retrieve"}
    # tracing.engine_metrics divides by the words the passes practiced
    assert report.pass_count == passes and record["region_sum"] > 0
    for name, totals in phases.items():
        assert totals["calls"] == report.pass_count, name
    sweeps = len(values) + splitter_sweeps  # validation, then splitter and finisher
    assert sum(t["scanned"] for t in phases.values()) + sweeps == report.words_scanned


def test_cli_timers_see_every_call(tmp_path):
    values = generate(DatasetSpec("best_case", 64, 64, seed=1))
    src = tmp_path / "in.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(struct.pack(f"<{len(values)}Q", *values))
    names = ("read_list", "sort", "write_list")
    timer = _load_tracing().CallTimer(cli, names)
    with timer:
        code = cli.main(
            ["sort", "--format", "binary", "--input", str(src), "--output", str(dst)]
        )
    assert code == 0
    assert dst.read_bytes() == struct.pack(f"<{len(values)}Q", *sorted(values))
    assert all(timer.ns[name] > 0 for name in names), timer.ns
    assert timer.last_report.total_sorted == len(values)


def test_two_process_summary_line(tmp_path, capsys, monkeypatch):
    # perfbench reads the CLI child's sort time from its summary line; on a
    # file large enough for two processes the line keeps its form, and its
    # passes are the two sides' own.
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports tracing
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    monkeypatch.setattr(cli, "_cpus", lambda: 2)
    n = cli._FORK_FLOOR
    values = generate(DatasetSpec("best_case", n, 64, seed=2))
    src = tmp_path / "in.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(struct.pack(f"<{n}Q", *values))
    code = cli.main(["sort", "--format", "binary", "--input", str(src), "--output", str(dst)])
    err = capsys.readouterr().err
    assert code == 0
    assert run._nanos(err.encode()) > 0
    fields = dict(part.split("=", 1) for part in err.splitlines()[-1].split())
    words = array("Q", values)
    k, _, _ = engine._split_low(words, 0, n, min(words), max(words))
    with memoryview(words) as view, view[:k] as low, view[k:] as high:
        passes = sort(low).pass_count + sort(high).pass_count
    assert int(fields["n"]) == n and int(fields["passes"]) == passes
    assert dst.read_bytes() == struct.pack(f"<{n}Q", *sorted(values))
