"""One sort in a fresh process, with its peak resident memory.

    python3 child.py SRC_DIR cli [--trace] -- sort --format binary --input IN --output OUT
    python3 child.py SRC_DIR lib INPUT

``cli`` runs ``assocsort.cli.main`` on the arguments after ``--``; ``lib``
loads a packed little-endian u64 file into a list and calls
``assocsort.engine.sort`` on it.  Both read ``/proc/self/status`` before
the sort (after imports, and in ``lib`` mode after the list is built) and
after it, and report ``VmHWM`` after against ``VmRSS`` before.
``ru_maxrss`` is not used: it carries the parent's peak across fork and
exec.  The report is one JSON line: the last line of stderr in ``cli``
mode (after the CLI's own summary), of stdout in ``lib`` mode.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys

_CHUNK = 1 << 16


def _memory_kb() -> dict[str, int]:
    out = {}
    with open("/proc/self/status") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                out[key] = int(rest.split()[0])
    return out


def _run_cli(argv: list[str], trace: bool) -> int:
    from assocsort import cli, engine

    if not trace:
        before = _memory_kb()
        rc = cli.main(argv)
        after = _memory_kb()
        stats = {}
    else:
        from tracing import CallTimer, EngineTrace

        timer = CallTimer(cli, ("read_list", "sort", "write_list"))
        before = _memory_kb()
        with EngineTrace(engine) as tracer, timer:
            rc = cli.main(argv)
        after = _memory_kb()
        stats = {"calls_ns": timer.ns}
        if timer.last_report is not None:
            stats["engine"] = tracer.take(timer.last_report)
    stats.update(rc=rc, rss_before_kb=before["VmRSS"], hwm_after_kb=after["VmHWM"])
    print(json.dumps(stats), file=sys.stderr)
    return rc


def _run_lib(path: str) -> int:
    from assocsort.engine import sort

    values = [0] * (os.path.getsize(path) // 8)
    i = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK):
            for (v,) in struct.iter_unpack("<Q", chunk):
                values[i] = v
                i += 1
    before = _memory_kb()
    report = sort(values)
    after = _memory_kb()
    digest = hashlib.sha256(struct.pack(f"<{len(values)}Q", *values)).hexdigest()
    print(
        json.dumps(
            {
                "rss_before_kb": before["VmRSS"],
                "hwm_after_kb": after["VmHWM"],
                "total_sorted": report.total_sorted,
                "sha256": digest,
            }
        )
    )
    return 0


def main(argv: list[str]) -> int:
    src, mode, *rest = argv
    sys.path.insert(0, src)
    if mode == "lib":
        return _run_lib(rest[0])
    trace = rest[0] == "--trace"
    if trace:
        rest = rest[1:]
    if rest[0] != "--":
        raise SystemExit("usage: child.py SRC_DIR cli [--trace] -- CLI_ARGS...")
    return _run_cli(rest[1:], trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
