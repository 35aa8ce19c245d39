"""Text and binary list I/O: worked examples, errors, round-trips."""

from __future__ import annotations

import io
import os
import sys
import threading
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assocsort import (
    DatasetSpec,
    ParseError,
    ValueExceedsUniverse,
    generate,
    read_list,
    sort,
    write_list,
)


class TestText:
    def test_read(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("3\n1\n2\n")
        assert read_list(path, "text") == [3, 1, 2]

    def test_read_without_trailing_newline(self):
        assert read_list(io.StringIO("3\n1\n2"), "text") == [3, 1, 2]

    def test_crlf_and_cr_end_lines(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_bytes(b"3\r\n1\r\n2\r\n")
        assert read_list(path, "text") == [3, 1, 2]
        assert read_list(io.BytesIO(b"3\r1\r2"), "text") == [3, 1, 2]

    def test_empty(self):
        assert read_list(io.StringIO(""), "text") == []

    def test_write(self, tmp_path):
        path = tmp_path / "out.txt"
        write_list([1, 2, 3], path, "text")
        assert path.read_text() == "1\n2\n3\n"

    def test_write_empty(self):
        buf = io.StringIO()
        write_list([], buf, "text")
        assert buf.getvalue() == ""

    def test_blank_line_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            read_list(io.StringIO("1\n\n2\n"), "text")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            read_list(io.StringIO("12x\n"), "text")
        with pytest.raises(ParseError):
            read_list(io.StringIO("-4\n"), "text")

    def test_only_ascii_digits_of_convertible_length(self):
        # str.isdigit() passes the first three: int() reads "\u0663" as 3
        # and raises a bare ValueError on the other two.  str.splitlines()
        # would split "1\x0c2" in two, and the non-UTF-8 byte must fail as
        # a ParseError naming its line, not as a UnicodeDecodeError.
        lines = ("\u00b2", "\u0663", "9" * 4301, "1\x0c2")
        sources = [io.StringIO(f"3\n{line}\n") for line in lines]
        for source in [*sources, io.BytesIO(b"3\n\xff\n")]:
            with pytest.raises(ParseError, match="line 2"):
                read_list(source, "text")

    def test_negative_write_rejected(self):
        with pytest.raises(ValueError):
            write_list([-1], io.StringIO(), "text")


class TestBinary:
    def test_round_trip_path(self, tmp_path):
        path = tmp_path / "data.bin"
        values = [0, 1, 2**63, 2**64 - 1]
        write_list(values, path, "binary")
        assert path.stat().st_size == 8 * len(values)
        words = read_list(path, "binary")
        assert words.typecode == "Q"
        assert words.tolist() == values

    def test_little_endian_layout(self):
        buf = io.BytesIO()
        write_list([1], buf, "binary")
        assert buf.getvalue() == b"\x01" + b"\x00" * 7

    def test_truncated(self, tmp_path):
        with pytest.raises(ParseError, match="offset 8"):
            read_list(io.BytesIO(b"\x00" * 11), "binary")
        path = tmp_path / "short.bin"
        path.write_bytes(b"\x00" * 11)
        with pytest.raises(ParseError, match="truncated record: 3 stray bytes at offset 8"):
            read_list(path, "binary")

    def test_file_shorter_than_its_size(self, monkeypatch, tmp_path):
        # A regular file that yields fewer bytes than fstat reported, as
        # when it shrinks between the two calls.
        path = tmp_path / "shrunk.bin"
        path.write_bytes(b"\x00" * 16)
        real_fstat = os.fstat

        def grown(fd):
            info = list(real_fstat(fd))
            info[6] += 8  # st_size
            return os.stat_result(info)

        monkeypatch.setattr(os, "fstat", grown)
        with pytest.raises(ParseError, match="file ended after 16 of 24 bytes"):
            read_list(path, "binary")

    def test_path_naming_a_pipe_is_read_whole(self, tmp_path):
        # A FIFO reports size 0, so it must not take the sized-file route.
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        payload = (5).to_bytes(8, "little") + (2**64 - 1).to_bytes(8, "little")

        def feed() -> None:
            with open(fifo, "wb") as fh:
                fh.write(payload)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        words = read_list(fifo, "binary")
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert words.tolist() == [5, 2**64 - 1]

    def test_big_endian_branch_swaps_a_copy(self, monkeypatch, tmp_path):
        # Posing as a big-endian host: the host-order words must be swapped
        # on the way out and back, and the caller's array never swapped.
        monkeypatch.setattr(sys, "byteorder", "big")
        words = array("Q", [1, 2**64 - 2])
        buf = io.BytesIO()
        write_list(words, buf, "binary")
        assert words.tolist() == [1, 2**64 - 2]
        assert buf.getvalue() == (1 << 56).to_bytes(8, "little") + bytes([0xFF] * 7 + [0xFE])
        path = tmp_path / "swapped.bin"
        path.write_bytes(buf.getvalue())
        buf.seek(0)
        assert read_list(buf, "binary") == words
        assert read_list(path, "binary") == words

    def test_oversized_write_rejected(self):
        for values in ([1 << 64], [-1], [1.5]):
            with pytest.raises(ValueExceedsUniverse):
                write_list(values, io.BytesIO(), "binary")


@pytest.mark.parametrize("fmt", ["text", "binary"])
@pytest.mark.parametrize(
    "value, message",
    [(1.5, "value 1.5 at index 1 is not an int"),
     (True, "value True at index 1 is not an int"),
     (-1, "negative value -1 at index 1")],
    ids=["float", "bool", "negative"],
)
def test_write_rejects_what_read_cannot_return(fmt, value, message, tmp_path):
    # read_list returns non-negative ints only, so write_list refuses
    # anything else, and before it opens (and creates) the destination.
    path = tmp_path / "out"
    with pytest.raises(ValueExceedsUniverse, match=message):
        write_list([7, value], path, fmt)
    assert not path.exists()


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        read_list(io.StringIO(""), "xml")
    with pytest.raises(ValueError):
        write_list([], io.StringIO(), "xml")


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(0, 2**64 - 1), max_size=200))
def test_round_trip_property_both_formats(values):
    tbuf = io.StringIO()
    write_list(values, tbuf, "text")
    tbuf.seek(0)
    assert read_list(tbuf, "text") == values

    bbuf = io.BytesIO()
    write_list(values, bbuf, "binary")
    bbuf.seek(0)
    words = read_list(bbuf, "binary")
    assert words.typecode == "Q"
    assert words.tolist() == values


def test_binary_file_sorts_in_one_word_per_value(tmp_path):
    # 1 MiB of packed words: reading holds the file's size once, and the
    # in-place sort and the write from the array's own buffer add no
    # per-value objects.
    values = generate(DatasetSpec("best_case", 1 << 17, 64, seed=3))
    src = tmp_path / "in.bin"
    dst = tmp_path / "out.bin"
    write_list(values, src, "binary")
    size = src.stat().st_size
    expected = sorted(values)
    del values
    growth = {}

    def traced(step, call):
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = call()
        growth[step] = tracemalloc.get_traced_memory()[1] - before
        return result

    tracemalloc.start()
    try:
        words = traced("read", lambda: read_list(src, "binary"))
        traced("sort", lambda: sort(words))
        traced("write", lambda: write_list(words, dst, "binary"))
    finally:
        tracemalloc.stop()
    assert growth["read"] <= 1.05 * size, growth
    assert growth["sort"] < 64 * 1024, growth
    assert growth["write"] < 64 * 1024, growth
    assert words.tolist() == expected
    assert read_list(dst, "binary") == words
