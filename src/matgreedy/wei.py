"""The Wei duality identities.

A maximal ladder chain of M with cardinality profile (c_1..c_t) determines,
through complements, a chain for the dual matroid whose cardinalities are
{1..n} minus {n+1-c_i} (tests/paper_oracle.py builds that chain).  The
duality checks assert the resulting disjoint-union identities for the greedy
and classical weight families; they double as end-to-end oracles for the
whole weights pipeline.

Neither check builds the dual's ladder: its level l is {E - F : F a flat of
M of rank r - l} (Oxley, Matroid Theory, 2nd ed.), so its e-tilde comes from
a walk up the flats of M and its d from the largest set of each rank.  A cap
(DEFAULT_SUBSET_CAP by default) bounds each dual side before its work.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import CapExceeded
from .ladder import DEFAULT_SUBSET_CAP, circuits, unions
from .masks import popcount
from .matroid import Matroid
from .weights import greedy_bottom_up, hamming_weights


def _identity_report(n: int, left, right) -> dict:
    transformed = [n + 1 - x for x in right]
    union = sorted(set(left) | set(transformed))
    holds = (
        len(set(left)) + len(set(transformed)) == n
        and union == list(range(1, n + 1))
    )
    return {
        "identity_holds": holds,
        "left": sorted(left),
        "right_transformed": sorted(transformed),
        "union": union,
    }


def dual_greedy_top_down(M: Matroid, cap: int = DEFAULT_SUBSET_CAP) -> tuple[int, ...]:
    """greedy_top_down(M.dual())[0], walking up the flats of M.

    E - G lies in E - F iff F lies in G, so the dual's top-down sweep starts
    at cl(empty) and, rank by rank, closes every F + e of the frontier and
    keeps the largest of these covers; e-tilde(M*)_l = n - (its size at rank
    r - l), closing sets through M's circuits.  cap bounds the distinct sets
    F + e of a rank, counted as they are built and before closing, and the
    enumeration of M's circuits if they are not cached yet.
    """
    circs = np.array(circuits(M, cap), dtype=np.uint64)
    bits = np.uint64(1) << np.arange(M.n, dtype=np.uint64)
    frontier = kernels.circuit_closures(np.zeros(1, dtype=np.uint64), circs)
    sizes = [popcount(int(frontier[0]))]
    for k in range(1, M.full_rank + 1):
        grown = unions(frontier, bits, cap)
        if grown.size > cap:
            raise CapExceeded(
                f"the flats walk at rank {k} needs {grown.size} closures, more than {cap}"
            )
        covers = kernels.distinct(kernels.circuit_closures(grown, circs))
        card = kernels.popcounts(covers)
        sizes.append(int(card.max(initial=0)))
        frontier = covers[card == sizes[-1]]
    return tuple(M.n - size for size in reversed(sizes[:-1]))


def dual_hamming_weights(M: Matroid, cap: int = DEFAULT_SUBSET_CAP) -> tuple[int, ...]:
    """hamming_weights(M.dual()): d(M*)_l = n - (the largest size of a set of
    rank r - l), read off the ranks of all 2^n subsets, which cap bounds."""
    M.check_elimination(cap)  # a non-matroid's greedy ranks mean nothing here
    n, r = M.n, M.full_rank
    if 1 << n > cap:
        raise CapExceeded(f"the largest flats need all 2^{n} subsets, more than {cap}")
    largest = np.zeros(r + 1, dtype=np.int64)
    step = 1 << 16
    for start in range(0, 1 << n, step):
        sets = np.arange(start, min(start + step, 1 << n), dtype=np.uint64)
        np.maximum.at(largest, M.ranks(sets), kernels.popcounts(sets))
    return tuple(n - int(largest[r - l]) for l in range(1, r + 1))


def check_wei_greedy(M: Matroid, cap: int = DEFAULT_SUBSET_CAP) -> dict:
    """Bottom-up weights of M against top-down weights of the dual:
    {e_i} and {n+1 - dual e-tilde_j} must partition {1..n}."""
    e, _ = greedy_bottom_up(M)
    return _identity_report(M.n, list(e), list(dual_greedy_top_down(M, cap)))


def check_wei_classical(M: Matroid, cap: int = DEFAULT_SUBSET_CAP) -> dict:
    """Same partition identity for the generalized Hamming weights."""
    d = hamming_weights(M)
    return _identity_report(M.n, list(d), list(dual_hamming_weights(M, cap)))
