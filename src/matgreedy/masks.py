"""Subsets of a ground set {1..n} as integer bit masks.

Label i (1-based) occupies bit i-1.  Ground sets are capped at 64 elements
so every subset fits in one machine word, which is what the batched kernels
operate on (numpy uint64 arrays).
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import InputError

MAX_GROUND_SET = 64


def full_mask(n: int) -> int:
    """Mask of the whole ground set {1..n}."""
    if not 0 <= n <= MAX_GROUND_SET:
        raise InputError(f"ground-set size must be in 0..{MAX_GROUND_SET}, got {n}")
    return (1 << n) - 1


def from_labels(labels: Iterable[int], n: int | None = None) -> int:
    """Mask for a collection of 1-based labels, optionally range-checked against n."""
    mask = 0
    for lab in labels:
        if lab < 1 or (n is not None and lab > n):
            raise InputError(f"label {lab} outside ground set 1..{n}")
        mask |= 1 << (lab - 1)
    return mask


def to_labels(mask: int) -> tuple[int, ...]:
    """Ascending 1-based labels of a mask."""
    labels = []
    while mask:
        low = mask & -mask
        labels.append(low.bit_length())
        mask ^= low
    return tuple(labels)


def popcount(mask: int) -> int:
    return mask.bit_count()


def is_subset(a: int, b: int) -> bool:
    """a ⊆ b."""
    return a & ~b == 0


def parse_chain(text: str, n: int) -> tuple[int, ...]:
    """Parse a chain given as "1,2|1,2,3,4|..." into subset masks."""
    parts = [p for p in text.split("|") if p.strip()]
    if not parts:
        raise InputError("empty chain")
    chain = []
    for part in parts:
        try:
            labels = [int(x) for x in part.split(",") if x.strip()]
        except ValueError as exc:
            raise InputError(f"bad chain segment {part!r}") from exc
        chain.append(from_labels(labels, n))
    return tuple(chain)
