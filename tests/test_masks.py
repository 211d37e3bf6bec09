"""Bit-mask subset helpers."""

from __future__ import annotations

import pytest

from matgreedy.errors import InputError
from matgreedy.masks import (
    from_labels,
    full_mask,
    is_subset,
    parse_chain,
    popcount,
    to_labels,
)
from tests.ladder_oracle import singletons


def test_label_roundtrip():
    assert to_labels(from_labels([3, 1, 2])) == (1, 2, 3)
    assert to_labels(0) == ()
    assert from_labels([]) == 0
    assert to_labels(from_labels([64])) == (64,)


def test_label_range_check():
    with pytest.raises(InputError):
        from_labels([0])
    with pytest.raises(InputError):
        from_labels([5], n=4)


def test_full_mask():
    assert full_mask(0) == 0
    assert full_mask(3) == 0b111
    assert popcount(full_mask(64)) == 64
    with pytest.raises(InputError):
        full_mask(65)


def test_subset_and_singletons():
    assert is_subset(0b011, 0b111)
    assert not is_subset(0b100, 0b011)
    assert list(singletons(0b1011)) == [0b1, 0b10, 0b1000]


def test_parse_chain():
    assert parse_chain("1,2|1,2,3", 4) == (0b011, 0b111)
    with pytest.raises(InputError):
        parse_chain("", 4)
    with pytest.raises(InputError):
        parse_chain("1,x", 4)
    with pytest.raises(InputError):
        parse_chain("1,5", 4)
