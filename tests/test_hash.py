"""Hash/inverse pair: worked values, boundaries, and bijectivity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from assocsort import WordSpec, compute_hash, node_base


def test_worked_value():
    # 23 = 3*7 + 2 under w=8
    assert compute_hash(23, 0, 8, WordSpec(8)) == (3, 2)


def test_minimum_maps_to_origin():
    for w in (2, 4, 8, 64):
        for delta in (0, 5, 1 << (w - 2)):
            assert compute_hash(delta, delta, 1, WordSpec(w)) == (0, 0)


def test_interval_boundary_is_out_of_range():
    for w, n, delta in [(8, 4, 0), (4, 10, 3), (16, 100, 7)]:
        spec = WordSpec(w)
        top = delta + (w - 1) * n
        assert compute_hash(top - 1, delta, n, spec) is not None
        assert compute_hash(top, delta, n, spec) is None
        assert compute_hash(top + 17, delta, n, spec) is None


def test_node_base_worked_values():
    assert node_base(3, 0, WordSpec(8)) == 21
    assert node_base(0, 5, WordSpec(8)) == 5
    assert node_base(0, 5, WordSpec(2)) == 5


def test_round_trip_small_exhaustive():
    spec = WordSpec(8)
    n, delta = 6, 11
    seen = set()
    for j in range(n):
        for k in range(spec.w - 1):
            v = node_base(j, delta, spec) + k
            assert compute_hash(v, delta, n, spec) == (j, k)
            seen.add((j, k))
    assert len(seen) == n * (spec.w - 1)


def test_no_product_overflow_at_host_width():
    # (w-1)*n would blow past 64 bits; the quotient comparison must not care.
    spec = WordSpec(64)
    n = 1 << 62
    assert compute_hash((1 << 63) - 1, 0, n, spec) is not None


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_round_trip_property(data):
    w = data.draw(st.integers(2, 64))
    spec = WordSpec(w)
    n = data.draw(st.integers(1, 1 << 16))
    delta = data.draw(st.integers(0, 1 << 50))
    j = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, w - 2))
    v = node_base(j, delta, spec) + k
    assert compute_hash(v, delta, n, spec) == (j, k)


# The phases classify a word with one comparison each, against bounds formed
# once per pass or split; these pin every bound to the test it replaces.


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_out_of_range_iff_beyond_interval(data):
    w = data.draw(st.integers(2, 64))
    spec = WordSpec(w)
    n = data.draw(st.integers(1, 1 << 64))
    delta = data.draw(st.integers(min_value=0))
    top = delta + (w - 1) * n
    near = st.integers(max(delta, top - 2 * w), top + 2 * w)
    drawn = data.draw(st.one_of(st.integers(delta, top + 4 * (w - 1) * n), near))
    for v in (drawn, top - 1, top):
        assert (v >= top) == (compute_hash(v, delta, n, spec) is None)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_tag_comparison_matches_the_mask(data):
    w = data.draw(st.integers(2, 64))
    tag = WordSpec(w).tag_mask
    drawn = data.draw(st.integers(0, (1 << w) - 1))
    for x in (drawn, tag - 1, tag):
        assert (x >= tag) == bool(x & tag)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_split_midpoint_matches_the_bit(data):
    w = data.draw(st.integers(2, 64))
    hi = data.draw(st.integers(1, (1 << w) - 1))
    lo = data.draw(st.integers(0, hi - 1))
    b = (lo ^ hi).bit_length() - 1
    mid = (lo >> b | 1) << b
    assert lo < mid <= hi
    drawn = data.draw(st.integers(lo, hi))
    for v in (drawn, mid - 1, mid):
        assert (v >= mid) == bool(v & (1 << b))


def test_invalid_widths_rejected():
    with pytest.raises(ValueError):
        WordSpec(1)
    with pytest.raises(ValueError):
        WordSpec(65)


def test_masks_partition_the_word():
    for w in (2, 3, 8, 64):
        spec = WordSpec(w)
        assert spec.tag_mask == 1 << (w - 1)
        assert spec.value_mask == spec.tag_mask - 1
        assert spec.tag_mask & spec.value_mask == 0
