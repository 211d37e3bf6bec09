"""Circuit enumeration and the ladder N_1..N_t of inclusion-minimal sets of
each nullity.

Level 1 is the circuit set.  Level l is generated upward as unions of a
level-(l-1) member with a circuit, filtered to nullity exactly l and then to
inclusion-minimal members; every minimal nullity-l set arises this way, so
the generation is complete.  Each level's unions, nullities and minimality
test are computed as whole arrays of masks.  A full-subset-scan oracle is
kept alongside for cross-checking at small n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from . import kernels
from .errors import CapExceeded, InputError
from .masks import from_labels, is_subset, popcount, singletons, to_labels
from .matroid import Matroid, UniformMatroid

DEFAULT_SUBSET_CAP = 5_000_000


def _sort_key(mask: int) -> tuple[int, int]:
    return (popcount(mask), mask)


def _minimal_members(masks) -> tuple[int, ...]:
    """Inclusion-minimal members of a collection of masks, sorted."""
    arr = kernels.distinct(masks)
    if not arr.size:
        return ()
    arr = arr[np.argsort(kernels.popcounts(arr), kind="stable")]
    return tuple(arr[kernels.filter_minimal(arr)].tolist())


def _unions(prev: np.ndarray, circs: np.ndarray) -> np.ndarray:
    """Distinct unions rho | c (rho in prev, c in circs) strictly above rho."""
    parts = [np.zeros(0, dtype=np.uint64)]
    step = max(1, kernels.CHUNK_ENTRIES // circs.size)
    for start in range(0, prev.size, step):
        rho = prev[start : start + step, None]
        grown = rho | circs
        parts.append(kernels.distinct(grown[grown != rho]))
    return kernels.distinct(np.concatenate(parts))


@dataclass(frozen=True)
class CycleLadder:
    """levels[i-1] is the sorted antichain N_i, for i in 1..t."""

    t: int
    levels: tuple[tuple[int, ...], ...]

    def level(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.t:
            raise InputError(f"ladder level {i} outside 1..{self.t}")
        return self.levels[i - 1]

    @cached_property
    def _level_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(lv) for lv in self.levels)

    def contains(self, i: int, mask: int) -> bool:
        if not 1 <= i <= self.t:
            return False
        return mask in self._level_sets[i - 1]

    def to_json_dict(self) -> dict:
        return {
            "levels": [[list(to_labels(m)) for m in lv] for lv in self.levels]
        }


def circuits(M: Matroid, cap: int = DEFAULT_SUBSET_CAP) -> tuple[int, ...]:
    """All circuits, sorted by (cardinality, mask).

    Circuit-defined matroids return their stored list and uniform matroids
    the analytic one; otherwise minimal dependent sets are enumerated by
    increasing cardinality, skipping supersets of circuits already found.
    """
    if M._circuits is not None:
        return M._circuits
    if isinstance(M, UniformMatroid):
        if M.r >= M.n:
            found: tuple[int, ...] = ()
        else:
            found = tuple(
                from_labels(c) for c in combinations(range(1, M.n + 1), M.r + 1)
            )
        M._circuits = tuple(sorted(found, key=_sort_key))
        return M._circuits
    found = np.zeros(0, dtype=np.uint64)
    examined = 0
    max_size = min(M.n, M.full_rank + 1)
    for size in range(1, max_size + 1):
        examined += comb(M.n, size)
        if examined > cap:
            raise CapExceeded(f"circuit enumeration examined more than {cap} subsets")
        sets = np.array(
            [from_labels(c) for c in combinations(range(1, M.n + 1), size)],
            dtype=np.uint64,
        )
        sets = sets[~kernels.contains_any(sets, found)]
        found = np.concatenate([found, sets[M.ranks(sets) < size]])
    M._circuits = tuple(sorted(found.tolist(), key=_sort_key))
    return M._circuits


def ladder(M: Matroid, cap: int = DEFAULT_SUBSET_CAP) -> CycleLadder:
    """The full cycle ladder of M, cached on the matroid.

    cap bounds the total number of candidate unions examined; huge ladders
    (duals of large-corank matroids, say) fail explicitly instead of
    thrashing.
    """
    if M._ladder is not None:
        return M._ladder
    t = M.corank
    circs = circuits(M, cap=cap)
    levels: list[tuple[int, ...]] = []
    work = 0
    if t >= 1:
        levels.append(circs)
        circ_arr = np.array(circs, dtype=np.uint64)
        prev = circ_arr
        for lvl_idx in range(2, t + 1):
            work += prev.size * circ_arr.size
            if work > cap:
                raise CapExceeded(
                    f"ladder generation examined more than {cap} candidate unions"
                )
            candidates = _unions(prev, circ_arr)
            nullity = kernels.popcounts(candidates) - M.ranks(candidates)
            level = _minimal_members(candidates[nullity == lvl_idx])
            levels.append(level)
            prev = np.array(level, dtype=np.uint64)
    lad = CycleLadder(t=t, levels=tuple(levels))
    M._ladder = lad
    return lad


def bruteforce_ladder(M: Matroid, cap: int = DEFAULT_SUBSET_CAP) -> CycleLadder:
    """Oracle: minimal nullity-i sets by exhaustive scan of all 2^n subsets."""
    if (1 << M.n) > cap:
        raise CapExceeded(f"2^{M.n} subsets exceed the cap {cap}")
    t = M.corank
    masks = np.arange(1 << M.n, dtype=np.uint64)
    nullity = kernels.popcounts(masks) - M.ranks(masks)
    return CycleLadder(
        t=t, levels=tuple(_minimal_members(masks[nullity == i]) for i in range(1, t + 1))
    )


def is_cycle(M: Matroid, mask: int) -> tuple[bool, int]:
    """Whether mask is inclusion-minimal for its own (positive) nullity.

    Single-element deletions suffice: by monotonicity any smaller witness of
    equal nullity forces some one-element deletion to preserve it.
    """
    nl = M.nullity(mask)
    if nl == 0:
        return False, nl
    for bit in singletons(mask):
        if M.nullity(mask & ~bit) == nl:
            return False, nl
    return True, nl


def covers(M: Matroid, rho: int) -> tuple[int, ...]:
    """Members of the next ladder level strictly containing rho."""
    lad = ladder(M)
    nl = M.nullity(rho)
    if nl < 1 or not lad.contains(nl, rho):
        raise InputError(f"{to_labels(rho)} is not a ladder member")
    if nl >= lad.t:
        raise InputError("top-level ladder members have no covers")
    return tuple(mu for mu in lad.level(nl + 1) if is_subset(rho, mu) and mu != rho)
