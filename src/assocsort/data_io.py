"""Reading and writing integer lists in text and binary form.

Text: one non-negative decimal integer per line, ASCII digits only, no
blank lines, trailing newline optional on read and always written.  A line
ends only at LF, CR or CR LF; text is parsed as bytes, so any other byte in
a line, including one that is not UTF-8, is a parse error naming that line.
Binary: little-endian 8-byte unsigned integers, no header, whatever the
word width.  Only these format rules are checked here; whether a value
fits the word is the engine's check, made before the sort writes anything.
"""

from __future__ import annotations

import struct
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


def _parse_binary(blob: bytes) -> list[int]:
    if len(blob) % 8:
        raise ParseError(
            f"truncated record: {len(blob) % 8} stray bytes at offset {len(blob) - len(blob) % 8}"
        )
    return list(struct.unpack(f"<{len(blob) // 8}Q", blob))


def read_list(source: Source, fmt: str) -> list[int]:
    """Parse a value list from a path or open stream.

    Values are not checked against any word width; ``sort`` does that.
    A path is read in binary mode in both formats.  A stream may yield
    bytes (such as ``sys.stdin.buffer``) or ``str``, which is encoded to
    UTF-8 before parsing.
    """
    _check_format(fmt)
    with opened(source, "rb") as fh:
        blob = fh.read()
    if isinstance(blob, str):
        blob = blob.encode()
    return _parse_text(blob) if fmt == "text" else _parse_binary(blob)


def write_list(values: list[int], destination: Source, fmt: str) -> None:
    """Write values so that read_list reproduces them exactly."""
    _check_format(fmt)
    if fmt == "text":
        for idx, v in enumerate(values):
            if v < 0:
                raise ValueError(f"negative value {v} at index {idx}")
        payload: str | bytes = "".join(f"{v}\n" for v in values)
    else:
        try:
            payload = struct.pack(f"<{len(values)}Q", *values)
        except struct.error as exc:
            raise ValueExceedsUniverse(f"value does not fit in 8 bytes: {exc}") from exc
    with opened(destination, "w" if fmt == "text" else "wb") as fh:
        fh.write(payload)
