"""Command-line entry point: sort, verify, bench and trace workflows.

``bench`` writes the paper's work table: passes and words scanned per
dataset beside the bound ``n + ceil(m/(w-1))``, every sort verified.  It
reads no clock; timing a sort is the job of the benchmark in ``perfbench/``.

Data flows on stdout (or ``--output``); diagnostics and summaries go to
stderr, so sorted output is pipeline-safe.  Exit statuses: 0 success,
1 verification or data error, 2 usage error.

``sort`` on binary input of at least ``_FORK_FLOOR`` words, where the
process may run on two or more CPUs and ``os.fork`` exists, sorts on two
of them.  It splits the words once on the top bit where their minimum and
maximum differ, with the engine's own splitter, forks one worker for the
high side and sorts the low side itself; the worker sends a two-word
header, its status and then its passes or the duplicate value, and its
sorted words back through a pipe.  The summary line on stderr gives the
passes of every side and, as ``nanos``, the wall time of the sort step,
on one process or two.  Text input sorts in one process: it is a ``list``,
which can be neither shared with a worker nor windowed without a copy.
The library never forks; the CLI owns its process, and reaps its worker
on every path.
"""

from __future__ import annotations

import argparse
import os
import struct
import sys
import time
from array import array
from collections.abc import MutableSequence
from typing import IO, NoReturn

from .bench import VerificationFailed, emit_csv, run_suite
from .data_io import FORMATS, opened, read_list, write_list
from .engine import (
    HOST_SPEC,
    CorruptState,
    DuplicateDetected,
    PhaseEvent,
    WordSpec,
    _split_low,
    compute_hash,
    sort,
)
from .generators import FAMILIES, DatasetSpec
from .verification import run_all

__all__ = ["main"]

TRACE_WARN_SIZE = 256

# Fewer binary words sort in one process.  The bounds sweep, the split, the
# fork and the pipe are fixed costs, and best_case, the least sort work per
# word, pays them most.  There, split plus fork took, against one process
# (median of 9 pairs on a 2-vCPU VM): 1.22x the time at 2^14 words, 1.12x
# at 2^16 (bimodal: 2 of 9 pairs 0.65-0.70x), 0.69x at 2^17, 0.63x at 2^18.
_FORK_FLOOR = 1 << 17
# What the worker writes ahead of its words: status (0 sorted, 1 duplicate),
# then its passes or the duplicate value.
_HEADER = struct.Struct("2Q")

# Every input error the library raises (ParseError, ValueExceedsUniverse,
# DuplicateDetected, InfeasibleRange, bad argument values) is a ValueError.
_DATA_ERRORS = (ValueError, CorruptState, VerificationFailed, OSError)


def _word_spec(text: str) -> WordSpec:
    try:
        return WordSpec(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list: {exc}")


def _family_list(text: str) -> list[str]:
    families = [part for part in text.split(",") if part]
    for fam in families:
        if fam not in FAMILIES:
            raise argparse.ArgumentTypeError(
                f"unknown family {fam!r}; expected one of {', '.join(FAMILIES)}"
            )
    return families


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="assocsort",
        description="In-place sorting of distinct integers, with verification and benchmarks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    width = argparse.ArgumentParser(add_help=False)
    width.add_argument(
        "--word-bits", dest="word", type=_word_spec, default=HOST_SPEC,
        metavar="BITS", help="word width w; values must lie in [0, 2**w)",
    )
    source = argparse.ArgumentParser(add_help=False, parents=[width])
    source.add_argument("--input", default="-", help="input path, '-' for stdin")
    source.add_argument("--format", choices=FORMATS, default="text")

    p_sort = sub.add_parser(
        "sort", parents=[source], help="sort a value list from a file or stdin"
    )
    p_sort.add_argument("--output", default="-", help="output path, '-' for stdout")
    p_sort.set_defaults(run=_cmd_sort)

    p_verify = sub.add_parser("verify", help="run the self-check suites")
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(run=_cmd_verify)

    p_bench = sub.add_parser(
        "bench", parents=[width], help="sort each dataset once and write its work table"
    )
    p_bench.add_argument("--csv", required=True, help="destination CSV path")
    p_bench.add_argument("--families", type=_family_list, default=list(FAMILIES[:3]))
    p_bench.add_argument("--n", type=_int_list, default=[1024])
    p_bench.add_argument("--beta", type=_int_list, default=[2])
    p_bench.add_argument(
        "--seed", type=int, default=0, help="seed of every dataset in the table"
    )
    p_bench.set_defaults(run=_cmd_bench)

    p_trace = sub.add_parser(
        "trace",
        parents=[source],
        help="print word-level state after each phase of each pass",
        description=(
            "Print every word after each phase of each pass. A bucket of at most "
            "8 words that one pass cannot sort is finished by sorted() without a "
            "pass, so it prints no lines."
        ),
    )
    p_trace.set_defaults(run=_cmd_trace)

    return parser


def _read_values(args: argparse.Namespace) -> MutableSequence[int]:
    """Read the ``--input`` values (``-`` is stdin) in ``--format``.

    Binary input comes back as a packed ``array("Q")``, which ``sort``
    orders in place and ``write_list`` writes from its own buffer.
    """
    source = sys.stdin.buffer if args.input == "-" else args.input
    return read_list(source, args.format)


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _sort_values(values: MutableSequence[int], spec: WordSpec) -> int:
    """``sort(values, spec)``, on two CPUs for a large binary input; return the passes.

    An ``array`` of at least ``_FORK_FLOOR`` words, on a host with
    ``os.fork`` and two CPUs for this process, whose values fit the word
    and are not all equal, is split once with the engine's splitter; the
    low side is sorted here and the high side in a forked worker, each by
    ``sort``, and the passes are the two sides' own.  Anything else goes to
    ``sort`` unchanged, which raises before writing when a value does not
    fit or all values are equal.
    """
    if not (
        isinstance(values, array)
        and len(values) >= _FORK_FLOOR
        and hasattr(os, "fork")
        and _cpus() >= 2
    ):
        return sort(values, spec).pass_count
    lo, hi = min(values), max(values)
    if hi >= spec.universe or lo == hi:
        return sort(values, spec).pass_count
    k, _, _ = _split_low(values, 0, len(values), lo, hi)
    with memoryview(values) as words, words[:k] as low, words[k:] as high:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            _sort_in_worker(high, spec, read_fd, write_fd)
        os.close(write_fd)
        try:
            # Closed before the worker is reaped, so a worker still sorting
            # when this side fails ends at its first write, on EPIPE.
            with open(read_fd, "rb") as pipe:
                passes = sort(low, spec).pass_count
                return passes + _receive(pipe, high)
        finally:
            os.waitpid(pid, 0)


def _sort_in_worker(high: memoryview, spec: WordSpec, read_fd: int, write_fd: int) -> NoReturn:
    """Sort ``high`` in the forked worker and write the header and its words to ``write_fd``.

    A duplicate sends only the header, naming the value.  Any other raise
    ends the worker with status 1 after a short write or none, which the
    parent reads as ``CorruptState``.  The worker never returns into the
    caller's code and runs no exit handler: it leaves through ``os._exit``.
    """
    code = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            try:
                passes = sort(high, spec).pass_count
            except DuplicateDetected as exc:
                pipe.write(_HEADER.pack(1, exc.value))
            else:
                pipe.write(_HEADER.pack(0, passes))
                pipe.write(high)
        code = 0
    finally:
        os._exit(code)


def _receive(pipe: IO[bytes], high: memoryview) -> int:
    """Read the worker's header, then its sorted words into ``high``; return its passes."""
    head = pipe.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise CorruptState(f"sort worker sent {len(head)} of {_HEADER.size} header bytes")
    status, word = _HEADER.unpack(head)
    if status:
        raise DuplicateDetected(word)
    with high.cast("B") as raw:
        got = pipe.readinto(raw)
    if got != high.nbytes:
        raise CorruptState(f"sort worker sent {got} of {high.nbytes} bytes")
    return word


def _cmd_sort(args: argparse.Namespace) -> int:
    values = _read_values(args)
    started = time.perf_counter_ns()
    passes = _sort_values(values, args.word)
    nanos = time.perf_counter_ns() - started
    dest = args.output
    if dest == "-":
        dest = sys.stdout if args.format == "text" else sys.stdout.buffer
    write_list(values, dest, args.format)
    sys.stdout.flush()
    print(f"n={len(values)} passes={passes} nanos={nanos}", file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    results = run_all(args.trials, args.seed)
    if not results:
        print("warning: trials=0, no checks run", file=sys.stderr)
        return 0
    all_ok = True
    for res in results:
        total = res.passed + res.failed
        status = "ok" if res.ok else "FAIL"
        print(f"{res.name}: {res.passed}/{total} {status}")
        if not res.ok:
            all_ok = False
            print(f"  first failure: {res.first_failure}")
    print(f"elapsed: {time.perf_counter() - started:.1f}s", file=sys.stderr)
    return 0 if all_ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    # Every dataset takes --seed itself, so a row does not depend on which
    # other families, sizes or betas the table was asked for.
    suite = [
        DatasetSpec(family, n, args.word.w, beta=beta, seed=args.seed)
        for family in args.families
        for n in args.n
        for beta in (args.beta if family == "uniform" else [1])
    ]
    # Open the destination first, so a path that cannot be written fails
    # before the suite runs rather than after it.
    with opened(args.csv, "w", newline="") as fh:
        records = run_suite(suite)
        emit_csv(records, fh)
    print(f"wrote {len(records)} records to {args.csv}", file=sys.stderr)
    return 0


def _classify(rel: int, low: int, tagged: bool, event: PhaseEvent, word: WordSpec) -> str:
    phase = event.phase
    tally = event.tally
    region = event.region
    if phase == "retrieve":
        return "output" if rel < tally.n_d + tally.n_c else "out-of-range"
    if phase in ("store", "partition") and rel < tally.n_d:
        return "record"
    if tagged:
        return "node"
    if low >= region.delta and compute_hash(low, region.delta, region.length, word) is not None:
        return "idle"
    return "out-of-range"


def _trace_hook(word: WordSpec):
    def hook(event: PhaseEvent) -> None:
        tally = event.tally
        region = event.region
        print(
            f"pass {event.pass_index + 1} {event.phase}: offset={region.offset} "
            f"length={region.length} delta={region.delta + event.bias} "
            f"n_d={tally.n_d} n_c={tally.n_c} n_out={tally.n_d_prime}"
        )
        for rel in range(region.length):
            v = event.data[region.offset + rel]
            tagged = v >= word.tag_mask
            low = v & word.value_mask
            cls = _classify(rel, low, tagged, event, word)
            print(f"  [{region.offset + rel}] tag={int(tagged)} low={low} {cls}")

    return hook


def _cmd_trace(args: argparse.Namespace) -> int:
    values = _read_values(args)
    if len(values) > TRACE_WARN_SIZE:
        print(
            f"warning: tracing {len(values)} words prints "
            f"{len(values)}+ lines per phase",
            file=sys.stderr,
        )
    sort(values, args.word, hook=_trace_hook(args.word))
    print(f"sorted {len(values)} values", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _DATA_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
