"""Test oracles for the cycle ladder and the greedy chain profiles.

bruteforce_ladder scans all 2^n subsets for the inclusion-minimal sets of
each nullity, so `ladder(M) == bruteforce_ladder(M)` checks the theorem that
the ladder's levels (cycles of each nullity) are exactly those minimal sets.
chains_bruteforce is an exhaustive search over maximal ladder chains,
independent of the frontier sweeps in matgreedy.weights.  is_cycle tests
cycles by the coloop test, independently of the ladder, and nullity reads
one set's nullity off the rank oracle.  unchecked_circuits builds a circuit
list past its elimination check, so that the invariants behind that check
can be tested on inputs that break them.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from matgreedy.errors import CapExceeded
from matgreedy.kernels import contains_any, distinct, popcounts
from matgreedy.ladder import DEFAULT_SUBSET_CAP, CycleLadder, ladder
from matgreedy.masks import full_mask, is_subset, popcount
from matgreedy.matroid import CircuitMatroid, Matroid, from_circuits

DEFAULT_CHAIN_CAP = 5_000_000


def singletons(mask: int):
    """Single-bit masks of mask's members, ascending."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def nullity(M: Matroid, mask: int) -> int:
    """|X| - rank(X) for the subset mask X."""
    return popcount(mask) - M.rank(mask)


def filter_minimal(masks):
    """Keep-flags for the inclusion-minimal members of masks.

    masks must be sorted ascending by (popcount, value); then a mask can only
    contain masks before it.  Each popcount group is tested at once against
    the kept masks of the smaller groups: containment is transitive, so this
    gives the flags of a scan against every earlier mask.  A repeated mask
    is dropped after its first copy.
    """
    masks = np.asarray(masks, dtype=np.uint64)
    keep = np.ones(masks.shape[0], dtype=bool)
    keep[1:] = masks[1:] != masks[:-1]
    sizes = popcounts(masks)
    starts = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist()]
    for lo, hi in zip(starts, starts[1:] + [masks.shape[0]]):
        keep[lo:hi] &= ~contains_any(masks[lo:hi], masks[:lo][keep[:lo]])
    return keep


def _minimal_members(masks) -> tuple[int, ...]:
    """Inclusion-minimal members of a collection of masks, sorted."""
    arr = distinct(masks)
    if not arr.size:
        return ()
    arr = arr[np.argsort(popcounts(arr), kind="stable")]
    return tuple(arr[filter_minimal(arr)].tolist())


def bruteforce_ladder(M: Matroid, cap: int = DEFAULT_SUBSET_CAP) -> CycleLadder:
    """Minimal nullity-i sets by exhaustive scan of all 2^n subsets."""
    if (1 << M.n) > cap:
        raise CapExceeded(f"2^{M.n} subsets exceed the cap {cap}")
    masks = np.arange(1 << M.n, dtype=np.uint64)
    nullity = popcounts(masks) - M.ranks(masks)
    return CycleLadder(
        tuple(_minimal_members(masks[nullity == i]) for i in range(1, M.corank + 1))
    )


def unchecked_circuits(n: int, circuits) -> CircuitMatroid:
    """A circuit list (masks or label lists) that circuits() hands out as
    given, whether or not circuit elimination holds for it."""
    M = from_circuits(n, circuits)
    M._circuits = tuple(M._circ_arr.tolist())
    return M


def chains_bruteforce(
    M: Matroid, cap: int = DEFAULT_CHAIN_CAP
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact lex- and revlex-minimal profiles by exhaustive chain search.

    Dynamic programming over chain endpoints: the suffix DP carries, for each
    ladder member, the lex-minimal profile of all chains through it upward;
    the prefix DP the revlex-minimal profile downward.  Equivalent to plain
    DFS over every maximal chain, independently of the frontier sweeps.
    """
    lad = ladder(M)
    if lad.t == 0:
        return (), ()
    work = 0
    adj: dict[tuple[int, int], list[int]] = {}
    for l in range(1, lad.t):
        for sigma in lad.levels[l - 1]:
            ups = []
            for mu in lad.levels[l]:
                work += 1
                if work > cap:
                    raise CapExceeded(f"chain search exceeded {cap} subset tests")
                if is_subset(sigma, mu):
                    ups.append(mu)
            adj[(l, sigma)] = ups
    suffix: dict[int, tuple[int, ...]] = {
        sigma: (popcount(sigma),) for sigma in lad.levels[-1]
    }
    for l in range(lad.t - 1, 0, -1):
        nxt: dict[int, tuple[int, ...]] = {}
        for sigma in lad.levels[l - 1]:
            ups = adj[(l, sigma)]
            assert ups, "every ladder member has a cover"
            nxt[sigma] = (popcount(sigma),) + min(suffix[mu] for mu in ups)
        suffix = nxt
    lex_min = min(suffix.values())

    def revkey(profile: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(reversed(profile))

    prefix: dict[int, tuple[int, ...]] = {
        sigma: (popcount(sigma),) for sigma in lad.levels[0]
    }
    for l in range(2, lad.t + 1):
        nxt = {}
        for mu in lad.levels[l - 1]:
            below = [
                prefix[tau]
                for tau in lad.levels[l - 2]
                if is_subset(tau, mu)
            ]
            assert below, "every ladder member contains a lower one"
            nxt[mu] = min(below, key=revkey) + (popcount(mu),)
        prefix = nxt
    revlex_min = min(prefix.values(), key=revkey)
    return lex_min, revlex_min


def is_cycle(M: Matroid, masks) -> list[tuple[bool, int]]:
    """For each mask, whether it is a cycle of positive nullity, with that
    nullity; M.ranks is asked once for the whole batch.

    This is the coloop test of M|X: X is a union of circuits iff no element
    of X is a coloop of M|X, that is, iff deleting any one element lowers
    the nullity.  Cycles of nullity l are exactly the level-l ladder members.
    """
    # X, then X - e for each e (M.ranks refuses X outside E; & keeps this finite)
    blocks = [[mask, *(mask & ~bit for bit in singletons(mask & full_mask(M.n)))]
              for mask in masks]
    ranks = iter(M.ranks([query for block in blocks for query in block]).tolist())
    out = []
    for block in blocks:
        rank, *rest = islice(ranks, len(block))
        nl = popcount(block[0]) - rank
        # deleting e leaves the rank unchanged iff e is not a coloop of M|X
        out.append((nl > 0 and all(r == rank for r in rest), nl))
    return out
