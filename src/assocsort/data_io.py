"""Reading and writing integer lists in text and binary form.

Text: one non-negative decimal integer per line, no blank lines, trailing
newline optional on read and always written.  Binary: little-endian 8-byte
unsigned integers, no header, regardless of the configured word width
(values are validated against the width after decoding).
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import IO, Union

from .engine import ValueExceedsUniverse, WordSpec

__all__ = ["FORMATS", "ParseError", "read_list", "write_list"]

FORMATS = ("text", "binary")

Source = Union[str, Path, IO]


class ParseError(ValueError):
    """Malformed input; the message pins the offending line or byte."""


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _validate(values: list[int], spec: WordSpec) -> list[int]:
    limit = spec.universe
    for idx, v in enumerate(values):
        if v >= limit:
            raise ValueExceedsUniverse(
                f"value {v} at index {idx} does not fit in {spec.w} bits"
            )
    return values


def _parse_text(blob: str) -> list[int]:
    values = []
    for lineno, line in enumerate(blob.splitlines(), start=1):
        if not line or not line.isdigit():
            raise ParseError(
                f"line {lineno}: expected a non-negative decimal integer, got {line!r}"
            )
        values.append(int(line))
    return values


def _parse_binary(blob: bytes) -> list[int]:
    if len(blob) % 8:
        raise ParseError(
            f"truncated record: {len(blob) % 8} stray bytes at offset {len(blob) - len(blob) % 8}"
        )
    return list(struct.unpack(f"<{len(blob) // 8}Q", blob))


def read_list(source: Source, fmt: str, spec: WordSpec) -> list[int]:
    """Parse a value list from a path or open file, validating the universe."""
    _check_format(fmt)
    if isinstance(source, (str, Path)):
        mode = "r" if fmt == "text" else "rb"
        with open(source, mode) as fh:
            blob = fh.read()
    else:
        blob = source.read()
    if fmt == "text":
        if isinstance(blob, bytes):
            blob = blob.decode()
        return _validate(_parse_text(blob), spec)
    return _validate(_parse_binary(blob), spec)


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
    if isinstance(destination, (str, Path)):
        mode = "w" if fmt == "text" else "wb"
        with open(destination, mode) as fh:
            fh.write(payload)
    else:
        destination.write(payload)
