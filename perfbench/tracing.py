"""Timing wrappers put around assocsort's layer boundaries for the traced run.

Nothing here changes the package: the wrappers replace module attributes
while a context is active and put the originals back on exit.  The same
code runs in the benchmark process (library workloads) and in the CLI
child (``child.py --trace``).
"""

from __future__ import annotations

import time

PHASES = ("practice", "store", "partition", "retrieve")

# The engine function that runs each phase, by name.
_PHASE_OF = {
    "practice_pass": "practice",
    "store_records": "store",
    "partition_idles": "partition",
    "retrieve_sorted": "retrieve",
}


class _Patch:
    """Replaces named attributes of a module with wrappers while active.

    Subclasses give :meth:`_wrap`, which builds the wrapper of one original
    function; the originals are put back on exit.
    """

    def __init__(self, module, names) -> None:
        self._module = module
        self._names = tuple(names)
        self._saved: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        raise NotImplementedError

    def __enter__(self):
        for name in self._names:
            original = getattr(self._module, name)
            self._saved[name] = original
            setattr(self._module, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for name, original in self._saved.items():
            setattr(self._module, name, original)
        self._saved.clear()


class EngineTrace(_Patch):
    """Per-phase time and work of every pass run while the context is active.

    ``engine._drive`` looks the four phase functions up by global name on
    each call, so replacing the module attributes puts a wrapper on every
    pass.  Each wrapper adds the call's wall time and the scanned/written
    deltas of the ``WorkCounter`` it was handed to running totals;
    :meth:`take` returns them for one sort and starts new totals.
    """

    def __init__(self, engine) -> None:
        super().__init__(engine, _PHASE_OF)
        self._clear()

    def _clear(self) -> None:
        self.phases = {
            p: {"ns": 0, "calls": 0, "scanned": 0, "written": 0} for p in PHASES
        }
        self.region_sum = 0

    def _wrap(self, name: str, fn):
        phase = _PHASE_OF[name]
        work_type = self._module.WorkCounter
        clock = time.perf_counter_ns

        def wrapper(*args):
            work = args[-1]
            if not isinstance(work, work_type):
                raise TypeError(f"{fn.__name__} traced without a WorkCounter argument")
            scanned, written = work.scanned, work.written
            started = clock()
            result = fn(*args)
            elapsed = clock() - started
            st = self.phases[phase]
            st["ns"] += elapsed
            st["calls"] += 1
            st["scanned"] += work.scanned - scanned
            st["written"] += work.written - written
            if phase == "practice":
                self.region_sum += args[1].length
            return result

        return wrapper

    def __enter__(self) -> "EngineTrace":
        self._clear()
        return super().__enter__()

    def take(self, report) -> dict:
        """One sort's trace record: its SortReport totals plus the phase totals."""
        record = {
            "elapsed_ns": report.elapsed_ns,
            "passes": report.pass_count,
            "words_scanned": report.words_scanned,
            "words_written": report.words_written,
            "region_sum": self.region_sum,
            "phases": self.phases,
        }
        self._clear()
        return record


def _counts(record: dict) -> tuple:
    phases = tuple(
        (st["calls"], st["scanned"], st["written"]) for st in record["phases"].values()
    )
    return (
        record["passes"],
        record["words_scanned"],
        record["words_written"],
        record["region_sum"],
        phases,
    )


def presort_ns(record: dict) -> int:
    """``elapsed_ns`` not spent inside a phase: validation, universe split, the ``_drive`` loop."""
    return record["elapsed_ns"] - sum(st["ns"] for st in record["phases"].values())


def engine_metrics(records: list[dict], n: int) -> tuple[dict[str, float], bool]:
    """Per-layer engine metrics from the trace records of sorts of one input.

    Times come from the sort with the median ``elapsed_ns``, so the four
    phase times plus ``engine.presort.ms`` add up to its ``engine.sort.ms``.
    Counts are deterministic; the flag says whether every record agreed.
    """
    ranked = sorted(records, key=lambda r: r["elapsed_ns"])
    mid = ranked[(len(ranked) - 1) // 2]
    first = records[0]
    ph = first["phases"]
    out: dict[str, float] = {"engine.sort.ms": mid["elapsed_ns"] / 1e6}
    for p in PHASES:
        out[f"engine.{p}.ms"] = mid["phases"][p]["ns"] / 1e6
    out["engine.presort.ms"] = presort_ns(mid) / 1e6

    singletons = first["passes"] - ph["practice"]["calls"]
    out["engine.passes"] = first["passes"]
    out["engine.pass_yield"] = n / (first["region_sum"] + singletons)
    out["engine.practice.words_scanned"] = ph["practice"]["scanned"]
    out["engine.practice.rescan_ratio"] = ph["practice"]["scanned"] / first["region_sum"]
    for p in PHASES:
        out[f"engine.{p}.words_written"] = ph[p]["written"]
    out["engine.presort.words_scanned"] = first["words_scanned"] - sum(
        st["scanned"] for st in ph.values()
    )
    out["engine.presort.words_written"] = first["words_written"] - sum(
        st["written"] for st in ph.values()
    )
    out["engine.words_scanned"] = first["words_scanned"]
    out["engine.words_written"] = first["words_written"]
    repeat = all(_counts(r) == _counts(first) for r in records)
    return out, repeat


class CallTimer(_Patch):
    """Wall time of named functions of one module while the context is active.

    Used on ``assocsort.cli`` so ``read_list``, ``sort`` and ``write_list``
    are timed as the CLI calls them.  The last ``sort`` report is kept.
    """

    def __init__(self, module, names: tuple[str, ...]) -> None:
        super().__init__(module, names)
        self.ns = dict.fromkeys(names, 0)
        self.last_report = None

    def _wrap(self, name: str, fn):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            started = clock()
            result = fn(*args, **kwargs)
            self.ns[name] += clock() - started
            if name == "sort":
                self.last_report = result
            return result

        return wrapper
