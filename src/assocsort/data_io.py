"""Reading and writing integer lists in text and binary form.

Text: one non-negative decimal integer per line, ASCII digits only, no
blank lines, trailing newline optional on read and always written.  A line
ends only at LF, CR or CR LF; text is parsed as bytes, so any other byte in
a line, including one that is not UTF-8, is a parse error naming that line.
Binary: little-endian 8-byte unsigned integers, no header, whatever the
word width.  Only these format rules are checked here; whether a value
fits the word is the engine's check, made before the sort writes anything.

Text reads to a ``list``, since a text value may be too wide for any
machine word and must reach that check.  Binary reads to a packed
``array("Q")`` in host byte order: one 8-byte word per value, which the
engine sorts in place, so a binary sort holds the file's size and little
more.
"""

from __future__ import annotations

import os
import stat
import sys
from array import array
from collections.abc import MutableSequence, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Union

from .engine import ValueExceedsUniverse

__all__ = ["FORMATS", "ParseError", "opened", "read_list", "write_list"]

FORMATS = ("text", "binary")

Source = Union[str, Path, IO]


class ParseError(ValueError):
    """Malformed input; the message pins the offending line or byte."""


@contextmanager
def opened(target: Source, mode: str, **kwargs) -> Iterator[IO]:
    """Yield ``target`` itself if it is an open stream, else open the path.

    A path is opened with ``mode`` and ``kwargs`` and closed on exit; a
    stream is left open, since the caller owns it.
    """
    if isinstance(target, (str, Path)):
        with open(target, mode, **kwargs) as fh:
            yield fh
    else:
        yield target


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _parse_text(blob: bytes) -> list[int]:
    values = []
    # bytes.splitlines() breaks only at \n, \r and \r\n, and bytes.isdigit()
    # admits only the ASCII digits.
    for lineno, line in enumerate(blob.splitlines(), start=1):
        if not line.isdigit():
            text = line.decode(errors="backslashreplace")
            raise ParseError(
                f"line {lineno}: expected a non-negative decimal integer, got {text!r}"
            )
        try:
            values.append(int(line))
        except ValueError as exc:  # more digits than int() converts
            raise ParseError(f"line {lineno}: {exc}") from None
    return values


def _check_records(size: int) -> int:
    """Number of 8-byte records in ``size`` bytes; a partial one is a ParseError."""
    if size % 8:
        raise ParseError(
            f"truncated record: {size % 8} stray bytes at offset {size - size % 8}"
        )
    return size // 8


def _swap_if_big(values: array) -> array:
    """Swap ``values`` in place between host and file (little-endian) order."""
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _read_file(fh: IO, size: int) -> array:
    """Read a regular file of ``size`` bytes straight into an ``array("Q")``.

    The array is allocated once and filled through its own buffer, so no
    second full-size copy of the file exists.
    """
    values = array("Q", [0]) * _check_records(size)
    with memoryview(values) as words, words.cast("B") as raw:
        got = fh.readinto(raw)
    if got != size:
        raise ParseError(f"file ended after {got} of {size} bytes")
    return _swap_if_big(values)


def _parse_binary(blob: bytes) -> array:
    _check_records(len(blob))
    values = array("Q")
    values.frombytes(blob)
    return _swap_if_big(values)


def read_list(source: Source, fmt: str) -> MutableSequence[int]:
    """Parse a value list from a path or open stream.

    Text gives a ``list``; binary gives an ``array("Q")`` in host byte
    order, which the engine sorts in place like a list.  Values are not
    checked against any word width; ``sort`` does that.  A path is read in
    binary mode in both formats; a binary path naming a regular file is
    sized first and read straight into the array.  A stream, or a path
    naming a pipe, is read whole.  A stream may yield bytes (such as
    ``sys.stdin.buffer``) or ``str``, which is encoded to UTF-8 before
    parsing.
    """
    _check_format(fmt)
    with opened(source, "rb") as fh:
        if fmt == "binary" and isinstance(source, (str, Path)):
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode):
                return _read_file(fh, info.st_size)
        blob = fh.read()
    if isinstance(blob, str):
        blob = blob.encode()
    return _parse_text(blob) if fmt == "text" else _parse_binary(blob)


def _is_words(values: Sequence[int]) -> bool:
    return isinstance(values, array) and values.typecode == "Q"


def _packed(values: Sequence[int]) -> array:
    """``values`` as an ``array("Q")`` in file order, copied only when needed."""
    if _is_words(values):
        # Swap a copy, never the caller's array.
        return _swap_if_big(array("Q", values)) if sys.byteorder == "big" else values
    try:
        return _swap_if_big(array("Q", values))
    except OverflowError as exc:
        raise ValueExceedsUniverse(f"value does not fit in 8 bytes: {exc}") from exc


def write_list(values: Sequence[int], destination: Source, fmt: str) -> None:
    """Write values so that read_list reproduces them exactly.

    Every value must be a non-negative ``int`` (a ``bool`` is not one), and
    in binary below ``2**64``; anything else raises ValueExceedsUniverse
    before the destination is opened.  An ``array("Q")`` holds only such
    values and is written from its own buffer (through a swapped copy on a
    big-endian host); any other sequence is checked, then packed once.
    """
    _check_format(fmt)
    if not _is_words(values):
        for idx, v in enumerate(values):
            if type(v) is not int:
                raise ValueExceedsUniverse(f"value {v!r} at index {idx} is not an int")
            if v < 0:
                raise ValueExceedsUniverse(f"negative value {v} at index {idx}")
    if fmt == "text":
        payload: str | array = "".join(f"{v}\n" for v in values)
    else:
        payload = _packed(values)
    with opened(destination, "w" if fmt == "text" else "wb") as fh:
        fh.write(payload)
