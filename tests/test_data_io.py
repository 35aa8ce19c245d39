"""Text and binary list I/O: worked examples, errors, round-trips."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assocsort import (
    ParseError,
    ValueExceedsUniverse,
    WordSpec,
    read_list,
    write_list,
)

W64 = WordSpec(64)


class TestText:
    def test_read(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("3\n1\n2\n")
        assert read_list(path, "text", W64) == [3, 1, 2]

    def test_read_without_trailing_newline(self):
        assert read_list(io.StringIO("3\n1\n2"), "text", W64) == [3, 1, 2]

    def test_empty(self):
        assert read_list(io.StringIO(""), "text", W64) == []

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
            read_list(io.StringIO("1\n\n2\n"), "text", W64)

    def test_garbage_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            read_list(io.StringIO("12x\n"), "text", W64)
        with pytest.raises(ParseError):
            read_list(io.StringIO("-4\n"), "text", W64)

    def test_universe_check(self):
        with pytest.raises(ValueExceedsUniverse, match="16"):
            read_list(io.StringIO("16\n"), "text", WordSpec(4))
        assert read_list(io.StringIO("15\n"), "text", WordSpec(4)) == [15]

    def test_negative_write_rejected(self):
        with pytest.raises(ValueError):
            write_list([-1], io.StringIO(), "text")


class TestBinary:
    def test_round_trip_path(self, tmp_path):
        path = tmp_path / "data.bin"
        values = [0, 1, 2**63, 2**64 - 1]
        write_list(values, path, "binary")
        assert path.stat().st_size == 8 * len(values)
        assert read_list(path, "binary", W64) == values

    def test_little_endian_layout(self):
        buf = io.BytesIO()
        write_list([1], buf, "binary")
        assert buf.getvalue() == b"\x01" + b"\x00" * 7

    def test_truncated(self):
        with pytest.raises(ParseError, match="offset 8"):
            read_list(io.BytesIO(b"\x00" * 11), "binary", W64)

    def test_universe_check(self):
        buf = io.BytesIO()
        write_list([300], buf, "binary")
        buf.seek(0)
        with pytest.raises(ValueExceedsUniverse, match="300"):
            read_list(buf, "binary", WordSpec(8))

    def test_oversized_write_rejected(self):
        for values in ([1 << 64], [-1]):
            with pytest.raises(ValueExceedsUniverse):
                write_list(values, io.BytesIO(), "binary")


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        read_list(io.StringIO(""), "xml", W64)
    with pytest.raises(ValueError):
        write_list([], io.StringIO(), "xml")


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(0, 2**64 - 1), max_size=200))
def test_round_trip_property_both_formats(values):
    tbuf = io.StringIO()
    write_list(values, tbuf, "text")
    tbuf.seek(0)
    assert read_list(tbuf, "text", W64) == values

    bbuf = io.BytesIO()
    write_list(values, bbuf, "binary")
    bbuf.seek(0)
    assert read_list(bbuf, "binary", W64) == values
