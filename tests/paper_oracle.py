"""Reference routes for the paper's claims beyond the weights themselves.

- The greedy weights can be read off the strands of the minimal resolution
  of the independence complex: greedy_from_strands recomputes e, e-tilde and
  g from the Betti support and the strand predicate alone.
- Wei duality comes from complement chains: delta_chain builds the dual's
  chain from a ladder chain of M, and complement_profile gives its
  cardinalities.
- A code's matroid has nullity(X) = dimension of the subcode supported inside
  X: shortened_subcode computes that subcode from the generator matrix, with
  the GF(p) rank and canonical kernel basis of field_rank and kernel_basis.

None of these is on a production path; the tests compare them with the
library's one route for each idea.
"""

from __future__ import annotations

import numpy as np

from matgreedy import kernels
from matgreedy.betti import betti_support, strand_nonzero
from matgreedy.errors import InputError
from matgreedy.gfp import FieldMatrix
from matgreedy.ladder import ladder
from matgreedy.masks import full_mask, is_subset, popcount, to_labels
from matgreedy.matroid import LinearMatroid, Matroid
from tests.ladder_oracle import singletons


def greedy_from_strands(
    M: Matroid,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(bottom-up, top-down, CEZ) greedy vectors from the Betti support and
    the strand predicate on set strands, with no ladder-chain search.

    g_l is the least q such that some level-l member of size q strictly
    contains a level-(l-1) member of size d_{l-1}: a nonzero strand map.
    """
    levels = betti_support(M).levels
    t = len(levels) - 1
    if t == 0:
        return (), (), ()

    def least(members) -> tuple[int, list[int]]:
        best = min(popcount(s) for s in members)
        return best, [s for s in members if popcount(s) == best]

    def sweep(steps, first, linked) -> list[int]:
        best, frontier = least(levels[first])
        out = [best]
        for l in steps:
            best, frontier = least(
                [s for s in levels[l] if any(linked(l, tau, s) for tau in frontier)]
            )
            out.append(best)
        return out

    e = sweep(range(2, t + 1), 1, lambda l, tau, s: strand_nonzero(M, l, tau, s))
    et = sweep(range(t - 1, 0, -1), t, lambda l, tau, s: strand_nonzero(M, l + 1, s, tau))
    d = [popcount(lv[0]) for lv in levels[1:]]
    g = [d[0]] + [
        least(
            [
                mu
                for mu in levels[l]
                if any(
                    popcount(tau) == d[l - 2] and strand_nonzero(M, l, tau, mu)
                    for tau in levels[l - 1]
                )
            ]
        )[0]
        for l in range(2, t + 1)
    ]
    return tuple(e), tuple(reversed(et)), tuple(g)


def complement_profile(n: int, cards) -> frozenset[int]:
    """Cardinalities of the complement chain of a chain with cardinalities
    cards: {1..n} minus the reflected {n+1-c}, whatever the completion."""
    cards = tuple(cards)
    if any(b <= a for a, b in zip(cards, cards[1:])):
        raise InputError("chain cardinalities must strictly increase")
    return frozenset(range(1, n + 1)) - {n + 1 - c for c in cards}


def delta_chain(M: Matroid, chain) -> tuple[int, ...]:
    """Complement chain for the dual matroid.

    The complements of the chain members are completed to a maximal subset
    chain (missing elements inserted in ascending label order, which picks a
    canonical representative), and the sets whose cardinality reflects a
    chain member are removed.  The surviving cardinalities are exactly the
    complement profile.
    """
    chain = tuple(chain)
    lad = ladder(M)
    if len(chain) != lad.t:
        raise InputError(f"chain length {len(chain)} differs from corank {lad.t}")
    for i, mask in enumerate(chain, start=1):
        if mask not in lad.levels[i - 1]:
            raise InputError(f"{to_labels(mask)} is not a ladder member at level {i}")
    for a, b in zip(chain, chain[1:]):
        if not (is_subset(a, b) and a != b):
            raise InputError("chain must strictly increase")
    top = full_mask(M.n)
    anchors = [top & ~mask for mask in reversed(chain)]  # increasing by inclusion
    maximal: list[int] = []
    current = 0
    for anchor in anchors + [top]:
        for bit in singletons(anchor & ~current):
            current |= bit
            maximal.append(current)
    removed = {M.n + 1 - popcount(mask) for mask in chain}
    return tuple(m for m in maximal if popcount(m) not in removed)


def columns(mat: FieldMatrix, mask: int) -> FieldMatrix:
    """The columns of mat at the labels of mask, ascending."""
    return FieldMatrix(mat.field, mat.data[:, [lab - 1 for lab in to_labels(mask)]])


def field_rank(m: FieldMatrix) -> int:
    """Rank of m over GF(p)."""
    return kernels.rref_mod_p(m.data.copy(), m.p)[0]


def kernel_basis(m: FieldMatrix) -> FieldMatrix:
    """Basis of the right null space {v : m @ v = 0}, as matrix rows in
    reduced echelon form, so a canonical function of m; no rows for full
    column rank."""
    rref, pivots = m.rref()
    basis = kernels.null_basis(rref.data, pivots, m.p)[0]
    kernels.rref_mod_p(basis, m.p)
    return FieldMatrix(m.field, basis)


def shortened_subcode(M: LinearMatroid, X: int) -> FieldMatrix:
    """Canonical basis of the subcode supported inside X, of the code of M:
    the row space of M.kernel, read as its generator.

    Messages vanish on the coordinates outside X exactly when they lie in
    the kernel of the message-to-outside-coordinates map; those messages are
    re-encoded to codewords.
    """
    generator = FieldMatrix(M.p, M.kernel)
    g_out = columns(generator, full_mask(M.n) & ~X)
    msgs = kernel_basis(FieldMatrix(g_out.field, g_out.data.T))  # messages m with m @ g_out = 0
    words = (msgs.data @ M.kernel) % M.p
    return FieldMatrix(M.p, words).rref()[0]


def support(words) -> int:
    """Union of the nonzero coordinate positions of the given words, as a
    mask; words of different lengths raise ValueError."""
    return sum(1 << int(i) for i in np.flatnonzero(np.array(words).any(axis=0)))
