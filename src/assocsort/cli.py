"""Command-line entry point: sort, verify, bench and trace workflows.

Data flows on stdout (or ``--output``); diagnostics and summaries go to
stderr, so sorted output is pipeline-safe.  Exit statuses: 0 success,
1 verification or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections.abc import MutableSequence

from .bench import VerificationFailed, emit_csv, run_suite
from .data_io import FORMATS, opened, read_list, write_list
from .engine import HOST_SPEC, CorruptState, PhaseEvent, WordSpec, compute_hash, sort
from .generators import FAMILIES, DatasetSpec
from .verification import run_all

__all__ = ["main"]

TRACE_WARN_SIZE = 256

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
        "bench", parents=[width], help="run benchmark suites and emit CSV"
    )
    p_bench.add_argument("--csv", required=True, help="destination CSV path")
    p_bench.add_argument("--families", type=_family_list, default=list(FAMILIES[:3]))
    p_bench.add_argument("--n", type=_int_list, default=[1024])
    p_bench.add_argument("--beta", type=_int_list, default=[2])
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(run=_cmd_bench)

    p_trace = sub.add_parser(
        "trace",
        parents=[source],
        help="print word-level state after each phase of each pass",
        description=(
            "Print every word after each phase of each pass. A bucket of at most "
            "8 words that one pass cannot sort is insertion-sorted without a pass, "
            "so it prints no lines."
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


def _cmd_sort(args: argparse.Namespace) -> int:
    values = _read_values(args)
    report = sort(values, args.word)
    dest = args.output
    if dest == "-":
        dest = sys.stdout if args.format == "text" else sys.stdout.buffer
    write_list(values, dest, args.format)
    sys.stdout.flush()
    print(
        f"n={len(values)} passes={report.pass_count} nanos={report.elapsed_ns}",
        file=sys.stderr,
    )
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
    suite = []
    index = 0
    for family in args.families:
        betas = args.beta if family == "uniform" else [1]
        for n in args.n:
            for beta in betas:
                suite.append(
                    DatasetSpec(family, n, args.word.w, beta=beta, seed=args.seed + index)
                )
                index += 1
    # Open the destination first, so a path that cannot be written fails
    # before the suite runs rather than after it.
    with opened(args.csv, "w", newline="") as fh:
        records = run_suite(suite, repetitions=args.reps)
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
