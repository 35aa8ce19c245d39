"""Text and binary list I/O: worked examples, errors, round-trips."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assocsort import (
    ParseError,
    ValueExceedsUniverse,
    read_list,
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
        assert read_list(path, "binary") == values

    def test_little_endian_layout(self):
        buf = io.BytesIO()
        write_list([1], buf, "binary")
        assert buf.getvalue() == b"\x01" + b"\x00" * 7

    def test_truncated(self):
        with pytest.raises(ParseError, match="offset 8"):
            read_list(io.BytesIO(b"\x00" * 11), "binary")

    def test_oversized_write_rejected(self):
        for values in ([1 << 64], [-1]):
            with pytest.raises(ValueExceedsUniverse):
                write_list(values, io.BytesIO(), "binary")


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
    assert read_list(bbuf, "binary") == values
