"""In-place sorting engine for sequences of distinct unsigned integers.

The engine sorts by turning the input words themselves into a temporary index
structure.  Each pass over a region covers the value interval
``[delta, delta + (w-1)*n - 1]``: every in-range value is *practiced* by
mapping it to a node index ``j`` and a bit position ``k``; the word at index
``j`` becomes a node (its most significant bit, the tag, is set) whose low
``w-1`` bits record which of the ``w-1`` possible values are present.
Records are then compacted to the front of the region (*storing*), the
redundant idle words are clustered next to them, and finally the nodes are
decoded right to left, expanding the sorted values back over the region
(*retrieval*).  Values beyond the interval are deferred to the next pass.
:func:`run_pass` is one such pass; the sort loop repeats it on the unsorted
suffix.

Everything runs inside the caller's sequence plus a constant number of
local variables, so auxiliary memory is O(1) regardless of input size.  The
sequence is only indexed, read and assigned, never resized: a ``list``, an
``array("Q")`` or a ``memoryview`` cast to ``"Q"`` all work, and the last two
hold one 8-byte word per value.

Both entry points share one loop, which first validates the input in a
single sweep that writes nothing.  The tag occupies bit ``w-1``, so
:func:`sort_region` accepts values below ``2**(w-1)`` and runs the passes on
the whole sequence.  :func:`sort` accepts ``[0, 2**w)`` and splits the value
range in place, MSD-radix style: each step splits the current bucket, runs
one pass on it, or finishes a bucket of at most 8 words that one pass
cannot sort with ``sorted()``, and what a pass defers stays the current
bucket, so a bucket the passes shrink too slowly goes back to the
splitter.  A bucket that reaches the tag bit is shifted down while its
passes run; each word is shifted back once a pass sorts it or the bucket
leaves the passes, so only the current bucket ever holds shifted words.
The loop keeps no stack of pending buckets.
"""

from __future__ import annotations

import time
from collections.abc import Callable, MutableSequence
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

HOST_BITS = 64
# The record bits ``1 << k`` for every width: a pass reads a bit from here
# instead of building one per value, since a record has at most 63 of them.
_BITS = tuple(1 << k for k in range(HOST_BITS - 1))
# A bucket of L <= 8 words that one pass cannot sort is finished by
# ``sorted()`` on a copy of at most 8 words, O(1) space, which costs less
# than the partition sweeps and successor scans of splitting it or the pass
# per value its passes may take.
_SPLIT_FLOOR = 8

__all__ = [
    "HOST_BITS",
    "HOST_SPEC",
    "WordSpec",
    "Region",
    "PassTally",
    "SortReport",
    "PhaseEvent",
    "WorkCounter",
    "DuplicateDetected",
    "CorruptState",
    "ValueExceedsUniverse",
    "compute_hash",
    "node_base",
    "practice_pass",
    "store_records",
    "partition_idles",
    "retrieve_sorted",
    "run_pass",
    "sort_region",
    "sort",
]


class DuplicateDetected(ValueError):
    """Two equal values mapped to the same node bit; the input is not distinct.

    ``value`` is the repeated value.  The sequence is left a permutation of
    its input: :func:`practice_pass` decodes its nodes before raising, the
    finisher of a short bucket raises before it writes, so that bucket keeps
    its input order, and ``sort`` shifts its current bucket back.  The sort
    gives the same guarantee for an exception a hook raises (see
    :class:`PhaseEvent`).
    """

    def __init__(self, value: int) -> None:
        # The value alone is the argument, so a pickled copy rebuilds it.
        super().__init__(value)
        self.value = value

    def __str__(self) -> str:
        return f"value {self.value} occurs more than once"


class CorruptState(RuntimeError):
    """Tag/record correspondence broke down during retrieval.

    Signals a duplicate that escaped detection or an internal bug.
    """


class ValueExceedsUniverse(ValueError):
    """A value does not fit the configured word width."""


@cache
def _tagged_words(w: int) -> tuple[int, ...]:
    """The ``w-1`` one-value node words ``2**(w-1) | 2**k``, built once per width."""
    return tuple(1 << (w - 1) | bit for bit in _BITS[: w - 1])


@dataclass(frozen=True)
class WordSpec:
    """Bit layout of the simulated w-bit word.

    The tag occupies bit ``w-1`` and marks a word as a node; the remaining
    low ``w-1`` bits hold either a plain value or a node's record.

    ``tagged[k]`` is the node word ``tag_mask | 1 << k`` that a pass writes
    when value bit ``k`` founds a node.  A node starts as one of only these
    ``w-1`` words, so the passes store the table's int instead of building
    one per node, and read each record bit ``1 << k`` from one tuple that
    every width shares.  Every ``WordSpec`` of one width shares one table,
    built on first use, so constructing a spec stays cheap; the table takes
    no part in the repr or in equality, which stay on ``w``.
    """

    w: int
    tag_mask: int = field(init=False)
    value_mask: int = field(init=False)
    # Exclusive upper bound of representable values, ``2**w``; kept, not
    # recomputed, so a sort allocates no new int for its limit.
    universe: int = field(init=False)
    tagged: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 2 <= self.w <= HOST_BITS:
            raise ValueError(f"word width must be in [2, {HOST_BITS}], got {self.w}")
        object.__setattr__(self, "tag_mask", 1 << (self.w - 1))
        object.__setattr__(self, "value_mask", (1 << (self.w - 1)) - 1)
        object.__setattr__(self, "universe", 1 << self.w)
        object.__setattr__(self, "tagged", _tagged_words(self.w))


HOST_SPEC = WordSpec(HOST_BITS)


class _RegionFields(NamedTuple):
    offset: int
    length: int
    delta: int


class Region(_RegionFields):
    """A window ``[offset, offset+length)`` of the backing sequence.

    ``delta`` is the reference minimum for this pass.  The sort loop always
    uses the true minimum of the window; phase functions accept any
    ``delta`` not exceeding every value in the window.  An immutable named
    tuple, built once per pass: ``len(region)`` is 3, the field count, not
    the window length.
    """

    __slots__ = ()

    def __new__(cls, offset: int, length: int, delta: int) -> Region:
        if offset < 0 or length < 0:
            raise ValueError("region offset and length must be non-negative")
        return tuple.__new__(cls, (offset, length, delta))

    @classmethod
    def _make(cls, iterable) -> Region:
        # The named tuple's _make, and _replace through it, skip __new__.
        return cls(*iterable)


class PassTally(NamedTuple):
    """Counters produced by one practice pass.

    ``n_d`` nodes were created, ``n_c`` idle words were absorbed into node
    records, and ``n_d_prime`` values fell beyond the practiced interval and
    wait for a later pass.  ``delta_prime`` is the minimum of those deferred
    values (None when there are none).  An immutable named tuple, built once
    per pass.
    """

    n_d: int
    n_c: int
    n_d_prime: int
    delta_prime: int | None = None

    @property
    def sorted_count(self) -> int:
        """Words appended to the sorted prefix by this pass."""
        return self.n_d + self.n_c


@dataclass
class SortReport:
    """Running totals for one sort call.

    ``pass_count`` passes ran; with the buckets ``sort`` finishes with
    ``sorted()`` they appended ``total_sorted`` words to the sorted prefix.
    ``words_scanned`` counts words examined to classify or route values:
    the validation sweep, the splitter's partition sweeps and bucket scans,
    every cursor step of each pass's practice sweep and the L words of each
    finished bucket.  ``words_written`` counts every word mutation, the
    splitter's swaps and shifts and the L words each finished bucket writes
    back included.
    The sort loop keeps these totals in locals and in the one WorkCounter
    it adds every sweep, phase and shift to, and builds the report once, at
    the end.  Per-pass tallies reach callers only through
    the hook, so the report stays O(1).
    """

    pass_count: int = 0
    total_sorted: int = 0
    words_scanned: int = 0
    words_written: int = 0
    elapsed_ns: int = 0


@dataclass(frozen=True)
class PhaseEvent:
    """Snapshot handed to the tracing hook at each phase boundary.

    ``phase`` is one of ``practice``, ``store``, ``partition`` or
    ``retrieve``; every pass, a one-word pass included, emits all four in
    that order, each with the pass's tally.  A bucket that ``sort``
    finishes with ``sorted()`` runs no pass and emits no event, and the
    pass indices skip nothing for it.  Events are built only for a sort
    that was given a hook, and only until that hook raises.
    ``data`` is the live backing sequence; hooks must treat it as read-only.
    ``bias`` is the shift of the pass's bucket: the passes on a ``sort``
    bucket that reaches ``2**(w-1)`` run on its values less the smaller of
    its minimum and ``2**(w-1)``, taken before its first pass (0 for any
    other bucket, and on every ``sort_region`` pass).  Add it to
    ``region.delta`` or ``tally.delta_prime`` to get input units.  Only
    the region's words are shifted; the rest of ``data`` holds input
    values.

    A hook that raises is called no more; the pass it interrupted runs its
    remaining phases, the sort shifts its bucket back, and the hook's
    exception propagates with the sequence holding its input's values.
    Only hook exceptions are covered: a ``KeyboardInterrupt`` that arrives
    while a phase itself runs may still leave that phase half done.
    """

    phase: str
    pass_index: int
    region: Region
    tally: PassTally
    data: MutableSequence[int]
    bias: int = 0


PhaseHook = Callable[[PhaseEvent], None]


class WorkCounter:
    """Mutable scanned/written tallies, added to where the work is done."""

    __slots__ = ("scanned", "written")

    def __init__(self) -> None:
        self.scanned = 0
        self.written = 0


def compute_hash(value: int, delta: int, n: int, spec: WordSpec) -> tuple[int, int] | None:
    """Map ``value`` to its (node index, bit index) pair for this pass.

    Returns None when the value lies beyond the practiced interval
    ``[delta, delta + (w-1)*n - 1]``; that is a normal outcome, not an error.  The
    range check divides instead of forming ``(w-1)*n``, which may not fit in
    w bits.  The phases do form the bound ``delta + (w-1)*n``, once per pass,
    and compare each word against it: Python ints do not overflow, while a
    port to fixed-width words would keep this division.  A property test in
    ``tests/test_hash.py`` pins the two checks as equal.
    """
    off = value - delta
    q = off // (spec.w - 1)
    if q >= n:
        return None
    return q, off - q * (spec.w - 1)


def node_base(position: int, delta: int, spec: WordSpec) -> int:
    """Smallest value represented by the node at ``position`` (inverse hash)."""
    return position * (spec.w - 1) + delta


def practice_pass(
    data: MutableSequence[int],
    region: Region,
    spec: WordSpec,
    work: WorkCounter | None = None,
) -> PassTally:
    """Practice every in-range value of the region into node records.

    After the call, a value ``v`` with hash ``(j, k)`` is encoded as bit ``k``
    of the node word at region index ``j``; exactly ``n_d`` words carry the
    tag.  Out-of-range values are counted and their minimum kept for the next
    pass.  When a value collides with a node, its word is re-homed at the
    cursor; if it came from beyond the cursor it is re-examined in place.

    Every word must be below ``2**w``, which the sort entry points validate.
    Then each word is classified by one comparison: it is a node when it is
    at least the tag ``2**(w-1)``, and a value is deferred when it is at
    least ``delta + (w-1)*n``, a bound formed once per call.

    Raises DuplicateDetected when a node bit is already set for an incoming
    value.  Before raising it undoes the pass, so the region again holds the
    values it held on entry, in some order: every idle before the cursor
    clears its bit from its node, which leaves each node with its creator's
    bit alone, and every node is decoded back to that value.  Only this
    branch does the undo; the sweep itself keeps no extra state.  Raises
    ValueError, before writing the offending word and after the same undo,
    when an untagged value lies below ``region.delta``.
    """
    wm1 = spec.w - 1
    tag = spec.tag_mask
    tagged = spec.tagged
    bits = _BITS
    delta = region.delta
    n = region.length
    base = region.offset
    end = base + n
    top = delta + wm1 * n

    n_d = 0
    n_c = 0
    n_out = 0
    delta_next = tag  # above every word that reaches the deferral test
    rescans = 0

    i = base
    while i < end:
        s = data[i]
        if s >= tag:
            i += 1
            continue
        if s >= top:
            n_out += 1
            if s < delta_next:
                delta_next = s
            i += 1
            continue
        if s < delta:
            _undo_practice(data, base, end, i, delta, spec)
            raise ValueError(f"value {s} at index {i} is below the pass minimum {delta}")
        off = s - delta
        q = off // wm1
        j = base + q
        node = data[j]
        r = off - q * wm1
        if node >= tag:
            if node & bits[r]:
                _undo_practice(data, base, end, i, delta, spec)
                raise DuplicateDetected(s)
            data[j] = node | bits[r]
            n_c += 1
            i += 1
        else:
            # First value for this node: re-home the displaced word at the
            # cursor, then claim index j.  A word displaced from j <= i was
            # already classified, so the cursor moves on; from j > i it has
            # not been seen yet and is re-examined at i.
            data[i] = node
            data[j] = tagged[r]
            n_d += 1
            if j <= i:
                i += 1
            else:
                rescans += 1

    if work is not None:
        work.scanned += n + rescans
        work.written += n_c + 2 * n_d
    return PassTally(n_d, n_c, n_out, delta_next if n_out else None)


def _undo_practice(
    data: MutableSequence[int], base: int, end: int, cursor: int, delta: int, spec: WordSpec
) -> None:
    """Turn a practice sweep stopped at ``cursor`` back into plain values.

    Every untagged in-range word before the cursor was absorbed into its
    node, which stays tagged, and each bit was set by one value only, so
    toggling those bits leaves each node with its creator's bit.  The words
    from the cursor on have not been practiced.  Decoding then writes each
    creator back.
    """
    wm1 = spec.w - 1
    tag = spec.tag_mask
    top = delta + wm1 * (end - base)
    for i in range(base, cursor):
        s = data[i]
        if s < tag and delta <= s < top:
            q = (s - delta) // wm1
            data[base + q] ^= _BITS[s - delta - q * wm1]
    for p in range(base, end):
        node = data[p]
        if node >= tag:
            data[p] = (p - base) * wm1 + delta + ((node ^ tag).bit_length() - 1)


def store_records(
    data: MutableSequence[int],
    region: Region,
    n_d: int,
    spec: WordSpec,
    work: WorkCounter | None = None,
) -> None:
    """Compact the ``n_d`` node records into the first ``n_d`` low-bit slots.

    Only low bits move; every tag stays at its original index, so the r-th
    record from the left still belongs to the r-th tagged word from the left.
    Every record is swapped into its slot from the region start, a record
    already in its slot with itself, so the phase writes ``2*n_d`` words.
    Contributes those writes to the work counter; cursor steps of the
    shuffling phases are not scan work.
    Every word must be below ``2**w``, which the sort entry points validate,
    so a word is tagged exactly when it is at least ``2**(w-1)``.
    """
    tag = spec.tag_mask
    vmask = spec.value_mask
    i = j = region.offset
    k = n_d
    while k:
        si = data[i]
        if si >= tag:
            sj = data[j]
            data[j] = (sj & tag) | (si & vmask)
            data[i] = (si & tag) | (sj & vmask)
            j += 1
            k -= 1
        i += 1
    if work is not None:
        work.written += 2 * n_d


def partition_idles(
    data: MutableSequence[int],
    region: Region,
    tally: PassTally,
    spec: WordSpec,
    work: WorkCounter | None = None,
) -> None:
    """Cluster the idle payloads directly behind the stored records.

    Within region indices ``[n_d, length)`` the low bits are permuted so the
    ``n_c`` in-range values come first and the deferred values last.  Tags
    stay put; a payload is deferred iff its hash quotient reaches the region
    length, that is iff it is at least ``delta + (w-1)*length``, a bound
    formed once per call.  Terminates after exactly ``n_c`` placements,
    writing ``2*n_c`` words, none when there is no idle.  Returns at once,
    writing and counting nothing, when the pass deferred nothing
    (``n_d_prime == 0``): every payload behind the records is then in range,
    so the clustering is the identity.  Every word must be below ``2**w``,
    which the sort entry points validate; the tag ``2**(w-1)`` is then the
    word's top bit.
    """
    if tally.n_d_prime == 0:
        return
    tag = spec.tag_mask
    vmask = spec.value_mask
    top = region.delta + (spec.w - 1) * region.length

    i = region.offset + tally.n_d
    j = i
    k = tally.n_c
    while k:
        si = data[i]
        s = si & vmask
        if s >= top:
            i += 1
            continue
        sj = data[j]
        data[j] = (sj & tag) | s
        data[i] = (si & tag) | (sj & vmask)
        i += 1
        j += 1
        k -= 1
    if work is not None:
        work.written += 2 * tally.n_c


def retrieve_sorted(
    data: MutableSequence[int],
    region: Region,
    tally: PassTally,
    spec: WordSpec,
    work: WorkCounter | None = None,
) -> None:
    """Decode the nodes right to left and expand the sorted values in place.

    Scans for tags from the region end; the record cursor walks the stored
    records backwards in step with the tags found.  Each record is copied to
    a scratch register before emitting, because its own slot may be one of
    the write targets.  Expansion writes replace only the low bits and keep
    the destination tag: a write may land on a not-yet-scanned node, whose
    tag must survive until the scan consumes it (clearing the tag then
    reveals the already-written output value).  Every word must be below
    ``2**w``, which the sort entry points validate, so the scan finds a tag
    exactly where a word is at least ``2**(w-1)``.

    Raises CorruptState when tags and records fall out of step, which means
    a duplicate escaped detection or the pre-phase state was inconsistent.
    """
    wm1 = spec.w - 1
    tag = spec.tag_mask
    vmask = spec.value_mask
    bits = _BITS
    base = region.offset
    delta = region.delta

    p = base + tally.n_d + tally.n_c
    r = base + tally.n_d - 1
    i = base + region.length - 1

    while p > base:
        if i < base:
            raise CorruptState(
                f"scan exhausted with {p - base} output slots unfilled"
            )
        if data[i] < tag:
            i -= 1
            continue
        if r < base:
            raise CorruptState("tagged word found after all records were consumed")
        rec = data[r] & vmask
        vbase = (i - base) * wm1 + delta
        while rec:
            k = rec.bit_length() - 1
            rec ^= bits[k]
            p -= 1
            # Formed inline rather than in locals, so no int outlives its
            # write and the pass's peak memory stays flat.
            data[p] = vbase + k | tag if data[p] >= tag else vbase + k
        data[i] &= vmask
        r -= 1
        i -= 1

    if r != base - 1:
        raise CorruptState(f"{r - base + 1} records left after all slots were written")
    if work is not None:
        work.written += 2 * tally.n_d + tally.n_c


def run_pass(
    data: MutableSequence[int],
    region: Region,
    spec: WordSpec,
    work: WorkCounter | None = None,
    hook: PhaseHook | None = None,
    index: int = 0,
    bias: int = 0,
) -> PassTally:
    """Run practice, store, partition and retrieve once over ``region``.

    Afterwards the first ``tally.sorted_count`` words of the region hold the
    practiced interval in ascending order and the deferred values follow,
    untagged.  ``region.delta`` may sit below the region minimum, which
    shifts where the nodes land.  ``hook``, when given, sees a PhaseEvent
    numbered ``index`` and carrying ``bias`` after each phase, built and
    passed at one call site; without a hook no event is built.  Once the
    hook raises, no event is built and the hook is not called again: the
    remaining phases run, and that first exception is raised once
    retrieval has left the region untagged.
    """
    error = None
    for phase in ("practice", "store", "partition", "retrieve"):
        if phase == "practice":
            tally = practice_pass(data, region, spec, work)
        elif phase == "store":
            store_records(data, region, tally.n_d, spec, work)
        elif phase == "partition":
            partition_idles(data, region, tally, spec, work)
        else:
            retrieve_sorted(data, region, tally, spec, work)
        if hook is not None and error is None:
            try:
                hook(PhaseEvent(phase, index, region, tally, data, bias))
            except BaseException as exc:  # re-raised below, once the pass is whole
                error = exc
    if error is not None:
        raise error
    return tally


def _check_item_width(data: MutableSequence[int], w: int) -> None:
    """Refuse a buffer whose items cannot hold ``[0, 2**w)``.

    The passes write tagged words up to ``2**w - 1``, so a narrower item
    would fail midway through a pass, after words had moved.  The item
    format and size are read through the buffer protocol, so an ``array``,
    a ``memoryview`` and a ``bytearray`` follow one rule: unsigned formats
    ``BHILQ`` hold ``8*itemsize`` bits, signed ``bhilq`` one fewer, and any
    other format is refused.  A sequence without the buffer protocol, such
    as a ``list``, holds any int.  A ``list`` returns at once, so sorting
    one builds and drops no TypeError.
    """
    if isinstance(data, list):
        return
    try:
        view = memoryview(data)
    except TypeError:
        return
    with view:
        code, size = view.format, view.itemsize
    bits = 0
    if code in ("B", "H", "I", "L", "Q"):
        bits = 8 * size
    elif code in ("b", "h", "i", "l", "q"):
        bits = 8 * size - 1
    if bits < w:
        raise TypeError(f"items of typecode {code!r} cannot hold every {w}-bit word")


def _validate_bounds(data: MutableSequence[int], limit: int) -> tuple[int, int]:
    """Check every value of ``data`` is an int in ``[0, limit)``.

    One sweep; returns the sequence's ``(min, max)``, ``(limit, -1)`` when
    it is empty.  Raises before any word is written.
    """
    lo, hi = limit, -1
    for idx in range(len(data)):
        v = data[idx]
        if type(v) is not int:
            raise TypeError(f"value {v!r} at index {idx} is not an int")
        if v < 0 or v >= limit:
            raise ValueExceedsUniverse(
                f"value {v} at index {idx} is outside [0, 2^{limit.bit_length() - 1})"
            )
        if v < lo:
            lo = v
        if v > hi:
            hi = v
    return lo, hi


def _split_low(
    data: MutableSequence[int], start: int, stop: int, lo: int, hi: int
) -> tuple[int, int, int]:
    """Partition ``data[start:stop]`` in place on the top bit where ``lo`` and ``hi`` differ.

    ``lo`` and ``hi`` must bound every word of the slice.  They agree above
    that bit ``b``, and so does every word between them, so a word has bit
    ``b`` set exactly when it is at least ``mid = (lo >> b | 1) << b``: one
    comparison sends a word to its side.  Returns ``(boundary, low_max,
    swaps)``: the low side is ``data[start:boundary]``, with minimum ``lo``
    and maximum ``low_max``.
    """
    b = (lo ^ hi).bit_length() - 1
    mid = (lo >> b | 1) << b
    i, j = start, stop - 1
    low_max, swaps = lo, 0
    while i <= j:
        v = data[i]
        if v < mid:
            if v > low_max:
                low_max = v
            i += 1
        elif data[j] >= mid:
            j -= 1
        else:
            data[i], data[j] = data[j], v
            swaps += 1
    return i, low_max, swaps


def _shift(data: MutableSequence[int], start: int, stop: int, delta: int) -> None:
    """Add ``delta`` to every word of ``data[start:stop]``."""
    for idx in range(start, stop):
        data[idx] += delta


def _next_bucket(
    data: MutableSequence[int], pos: int, end: int, limit: int
) -> tuple[int, int, int]:
    """Find the bucket that starts at ``pos``, once the one before it is sorted.

    The bucket is the run of words agreeing with its first word ``x`` above
    ``b``, the top bit where ``x`` and the sorted maximum ``data[pos-1]``
    differ, for the split that parted them was on ``b`` and every value it
    split agrees above it.  Every later bucket lies above that run, so the
    scan stops at the first word at or above ``((x >> b) + 1) << b``.
    Returns ``(stop, lo, hi)``: the bucket is ``data[pos:stop]``, with
    minimum ``lo`` and maximum ``hi``.
    """
    b = (data[pos - 1] ^ data[pos]).bit_length() - 1
    bound = ((data[pos] >> b) + 1) << b
    lo, hi = limit, -1
    stop = pos
    while stop < end:
        v = data[stop]
        if v >= bound:
            break
        if v < lo:
            lo = v
        if v > hi:
            hi = v
        stop += 1
    return stop, lo, hi


def _sort(
    data: MutableSequence[int], spec: WordSpec, hook: PhaseHook | None, limit: int
) -> SortReport:
    """Validate ``data`` against ``limit``, then sort the whole sequence.

    One loop owns the current bucket ``data[pos:stop]`` and its bounds
    ``lo`` and ``hi``; each step runs one pass on the bucket or, in ``sort``
    only, takes the one branch in which the bucket leaves the passes.  A
    bucket of L words leaves when its span reaches ``2**(w-1)``, or
    ``(w-1)*L`` when L <= 8, or ``(w-1)*L**2`` when L exceeds 8: one pass
    cannot sort a short bucket that wide, and below the long bucket's span
    the passes cost no more than one pass per value; the tag clause holds
    at any length, since after the shift a pass needs every word below the
    tag.  The branch shifts the bucket back if it is shifted.  A bucket of
    L <= 8 spanning at least ``(w-1)*L`` is then finished: ``sorted()``
    orders a copy of its raw words, read by index like every other access,
    a neighbour check raises DuplicateDetected before any write, and the
    ordered words are written back, L scanned and L written; the bucket is
    then empty, and it runs no pass and calls no hook.  Any other bucket
    that leaves, a long one or, at w <= 6, a short one the tag clause
    alone sends, is split with :func:`_split_low`, and the loop goes on
    with its low side.  A pass moves its sorted words out of the bucket
    and leaves the deferred rest as the current bucket, ``lo`` its
    deferred minimum, so the same branch decides whether it leaves.  When
    a pass or the finisher empties its bucket, the next turn of the loop
    finds the successor with :func:`_next_bucket`, before that branch.  A
    remainder lies inside its bucket, so splitting it keeps that scan's
    rule true.

    A bucket with ``hi >= 2**(w-1)`` is shifted down by ``bias =
    min(lo, 2**(w-1))`` before its first pass.  The words each pass sorts
    are shifted back after it; the deferred rest stays shifted while the
    passes go on, and is shifted back when it leaves them.  So every word
    outside the current bucket holds its input value, the splitter and the
    successor scan see input values only, and a shifted word is written
    twice.  ``lo`` and ``hi`` stay in input units; the pass's region starts
    at ``lo - bias``.  The shifted words lie below the tag: if ``lo >=
    2**(w-1)`` the shift clears bit ``w-1``, and otherwise the bucket
    straddles the tag and spans less than ``2**(w-1)``, or it would have
    left the passes.

    The pass count stays in a local and the report is built once, at the
    end; its ``total_sorted`` is how far the sorted prefix advanced, every
    pass's ``sorted_count`` plus every finished bucket.  On any exception
    the current bucket is shifted back before it propagates, and a
    DuplicateDetected is raised again with ``bias`` added to its value, so
    it names the value in input units.  ``bias`` is set only once the
    down-shift has returned, so a sequence that refuses its first write
    raises that one error, with no write tried on the way out.  A
    duplicate, and a hook's exception, which :func:`run_pass` holds until
    its pass is whole, leave whole values behind, so the sequence then
    holds its input's values.  A ``KeyboardInterrupt`` inside a phase is
    out of scope.
    """
    started = time.perf_counter_ns()
    work = WorkCounter()
    _check_item_width(data, spec.w)
    lo, hi = _validate_bounds(data, limit)
    tag = spec.tag_mask
    wm1 = spec.w - 1
    split = limit > tag
    passes = 0
    pos = 0
    stop = end = len(data)
    work.scanned += end
    bias = 0
    try:
        while pos < end:
            if pos == stop:
                stop, lo, hi = _next_bucket(data, pos, end, limit)
                work.scanned += stop - pos
            size = stop - pos
            # hi - lo is formed where it is compared, not kept: a kept span
            # is one more live int while the splitter or a pass runs.
            if split and (
                hi - lo >= tag
                or hi - lo >= (wm1 * size * size if size > _SPLIT_FLOOR else wm1 * size)
            ):
                if bias:
                    _shift(data, pos, stop, bias)
                    work.written += size
                    bias = 0
                work.scanned += size
                if size <= _SPLIT_FLOOR and hi - lo >= wm1 * size:
                    ordered = sorted(map(data.__getitem__, range(pos, stop)))
                    for a, b in zip(ordered, ordered[1:]):
                        if a == b:
                            raise DuplicateDetected(a)
                    for v in ordered:
                        data[pos] = v
                        pos += 1
                    work.written += size
                else:
                    stop, hi, swaps = _split_low(data, pos, stop, lo, hi)
                    work.written += 2 * swaps
                continue
            if hi >= tag and not bias:
                _shift(data, pos, stop, -min(lo, tag))
                bias = min(lo, tag)
                work.written += size
            # Unshifted, the region takes lo itself, as lo - 0 would be a
            # copy; no local keeps the region, and its delta, past the pass.
            tally = run_pass(
                data,
                Region(pos, size, lo - bias if bias else lo),
                spec,
                work,
                hook,
                passes,
                bias,
            )
            passes += 1
            done = tally.n_d + tally.n_c
            if bias:
                _shift(data, pos, pos + done, bias)
                work.written += done
            pos += done
            if pos == stop:
                bias = 0
            elif tally.delta_prime is None:
                raise CorruptState(f"{stop - pos} values left but none was deferred")
            else:
                lo = tally.delta_prime + bias
    except BaseException as exc:
        # Practice decodes its nodes, the finisher raises before it writes
        # and run_pass finishes its pass before raising, so every shifted
        # word is below the tag again and adding bias back fits in 2**w.
        if bias:
            _shift(data, pos, stop, bias)
        if isinstance(exc, DuplicateDetected):
            raise DuplicateDetected(exc.value + bias) from None
        raise
    return SortReport(passes, pos, work.scanned, work.written, time.perf_counter_ns() - started)


def sort_region(
    data: MutableSequence[int], spec: WordSpec, *, hook: PhaseHook | None = None
) -> SortReport:
    """Sort the whole of ``data`` ascending in place, as :func:`sort` does.

    ``data`` may be a ``list``, an ``array("Q")`` or a ``memoryview`` cast
    to ``"Q"``; the passes index it and never resize it.  An ``array`` or
    ``memoryview`` whose items cannot hold ``2**w - 1`` raises TypeError
    before any write.  Values must be pairwise distinct ints below the tag
    bit (``< 2**(w-1)``).  Runs as many passes as the value spread
    requires; each pass appends its interval to the sorted prefix, so after
    pass t the first ``sum(sorted_count)`` words are final.  After
    DuplicateDetected the sequence holds its input's values, unsorted.  To
    sort a window of an ``array``, sort a ``memoryview`` slice of it.
    """
    return _sort(data, spec, hook, spec.tag_mask)


def sort(
    data: MutableSequence[int],
    spec: WordSpec = HOST_SPEC,
    hook: PhaseHook | None = None,
) -> SortReport:
    """Sort distinct ints drawn from the full ``[0, 2**w)`` universe in place.

    ``data`` may be a ``list``, an ``array("Q")`` or a ``memoryview`` cast
    to ``"Q"``; the splitter and the passes index it and never resize it.
    An ``array`` or ``memoryview`` whose items cannot hold ``2**w - 1``
    raises TypeError before any write.  The value range is split in place
    into buckets narrow enough for the passes, and what a pass leaves
    unsorted is split again once it is too wide for its length, so
    adversarially spaced values cost linear scan work, not a pass over the
    whole rest each.  A bucket of at most 8 words that one pass cannot sort
    is finished by ``sorted()``, with no pass and no hook event.  A bucket
    of values at or above ``2**(w-1)`` is sorted shifted down, and each of
    its words is shifted back once a pass sorts it or the bucket leaves the
    passes; the report covers every bucket and sweep.  After
    DuplicateDetected the sequence holds its input's values, unsorted; a
    duplicate found in a finished bucket leaves that bucket in input order.
    """
    return _sort(data, spec, hook, spec.universe)
