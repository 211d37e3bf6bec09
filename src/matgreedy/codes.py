"""Linear codes over prime fields: the code file format and the brute-force
oracle for the code-side weight definitions.

A code is its matroid: the LinearMatroid whose kernel basis spans the code
(matroid.from_generator, matroid.from_parity_check).  Subcodes are
enumerated through canonical echelon bases of message subspaces over that
basis, which avoids double counting and lets the greedy oracles carry every
optimal subcode forward when ties occur.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import CapExceeded, InputError
from .gfp import parse_matrix
from .kernels import CHUNK_ENTRIES, popcounts, word_supports
from .matroid import LinearMatroid, from_generator, from_parity_check

DEFAULT_SUBSPACE_CAP = 1 << 15


# -- subcode enumeration ----------------------------------------------------


def subspace_count(p: int, k: int) -> int:
    """Number of subspaces of GF(p)^k: the sum over r of the Gaussian
    binomials [k r]_p, each the previous one times (p^(k-r+1)-1)/(p^r-1)."""
    total = term = 1
    for r in range(1, k + 1):
        term = term * (p ** (k - r + 1) - 1) // (p**r - 1)
        total += term
    return total


def echelon_subspaces(p: int, k: int, r: int) -> np.ndarray:
    """Every r-dimensional subspace of GF(p)^k as its unique RREF basis,
    stacked into a (count, r, k) array: one block per pivot set, whose free
    entries are the base-p digits of the index in the block."""
    blocks = [np.zeros((0, r, k), dtype=np.int64)]
    for pivots in combinations(range(k), r):
        free = [
            (i, j) for i, c in enumerate(pivots) for j in range(c + 1, k) if j not in pivots
        ]
        block = np.zeros((p ** len(free), r, k), dtype=np.int64)
        block[:, range(r), list(pivots)] = 1
        digits = np.arange(block.shape[0])
        for i, j in reversed(free):
            block[:, i, j] = digits % p
            digits //= p
        blocks.append(block)
    return np.concatenate(blocks)


def _subcode_weights(M: LinearMatroid, bases: np.ndarray) -> np.ndarray:
    """Support weight of the subcode spanned by each basis: the popcount of
    the union of its rows' codeword supports."""
    index = bases @ M.p ** np.arange(len(M.kernel))  # each row's message as a base-p number
    rows = word_supports(M.kernel, M.p, index.ravel())
    return popcounts(np.bitwise_or.reduce(rows.reshape(index.shape), axis=1))


def _containment(
    small: np.ndarray, big: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flags (inside, around): whether each small basis spans a subspace of
    some big basis's row space, and whether each big one contains some small
    one.

    The big bases are in RREF, so a row lies in a big row space iff taking
    away the big rows, weighted by the row's entries at their pivots, leaves
    zero mod p.  Pairs are tested in chunks of about CHUNK_ENTRIES entries.
    """
    count, a, k = small.shape
    pivots = (big != 0).argmax(axis=2)
    inside, around = np.zeros(count, dtype=bool), np.zeros(len(big), dtype=bool)
    pairs = CHUNK_ENTRIES // (a * k + 1) + 1
    big_step = min(len(big), pairs) or 1
    small_step = max(1, pairs // big_step)
    for t in range(0, len(big), big_step):
        bg, piv = big[t : t + big_step], pivots[t : t + big_step]
        for s in range(0, count, small_step):
            sm = small[s : s + small_step]
            coeffs = sm[:, :, piv].transpose(0, 2, 1, 3)  # (small, big, a, b)
            within = ~((sm[:, None] - coeffs @ bg) % p).any(axis=(2, 3))
            inside[s : s + small_step] |= within.any(axis=1)
            around[t : t + big_step] |= within.any(axis=0)
    return inside, around


def subcode_weights(
    M: LinearMatroid, cap: int = DEFAULT_SUBSPACE_CAP
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(d, e, e_tilde, g) of the code of M, the row space of M.kernel, by
    exhaustive enumeration of subcodes.

    Each dimension's subspaces are enumerated once.  The greedy families
    carry every optimal subcode forward at each stage; ties matter because
    a later level may only be reachable through one of them.  The cap bounds
    the number of subspaces and is checked before anything is enumerated.
    """
    k, p = len(M.kernel), M.p
    if (count := subspace_count(p, k)) > cap:
        raise CapExceeded(f"{count} subspaces of GF({p})^{k} exceed the cap {cap}")
    if k == 0:
        return (), (), (), ()
    bases = [echelon_subspaces(p, k, r) for r in range(k + 1)]
    weights = [_subcode_weights(M, b) for b in bases]
    d = tuple(int(w.min()) for w in weights[1:])

    def lightest(r: int, passes) -> tuple[int, np.ndarray]:
        """Least weight of a dimension-r subcode that passes the test, and
        all such subcodes; weight classes are tested lightest first."""
        for w in range(d[r - 1], M.n + 1):
            cand = bases[r][weights[r] == w]
            hits = cand[passes(cand)]
            if len(hits):
                return w, hits

    # bottom-up: dimension-r subcodes containing an optimal (r-1)-subcode;
    # CEZ: dimension-r subcodes containing some subcode of weight d_{r-1}
    e, g = [d[0]], [d[0]]
    frontier = bases[1][weights[1] == d[0]]
    for r in range(2, k + 1):
        computers = bases[r - 1][weights[r - 1] == d[r - 2]]
        er, frontier = lightest(r, lambda big: _containment(frontier, big, p)[1])
        e.append(er)
        g.append(lightest(r, lambda big: _containment(computers, big, p)[1])[0])

    # top-down: dimension-r subcodes inside an optimal (r+1)-subcode; the
    # whole code is the unique k-dimensional one
    et = [d[-1]]
    frontier = bases[k]
    for r in range(k - 1, 0, -1):
        wr, frontier = lightest(r, lambda small: _containment(small, frontier, p)[0])
        et.append(wr)
    return d, tuple(e), tuple(reversed(et)), tuple(g)


# -- code file format --------------------------------------------------------


def parse_code_file(text: str) -> LinearMatroid:
    """The matroid of the code given by a role header ("generator" |
    "parity_check") followed by matrix text; a generator's rows must be
    independent."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx == len(lines):
        raise InputError("empty code file")
    role = lines[idx].strip()
    if role not in ("generator", "parity_check"):
        raise InputError(f"unknown code role {role!r}")
    mat = parse_matrix("\n".join(lines[idx + 1 :]))
    if role == "parity_check":
        return from_parity_check(mat)
    M = from_generator(mat)
    if len(M.kernel) != mat.nrows:
        raise InputError(
            f"generator rows are dependent: rank {len(M.kernel)} of {mat.nrows} rows"
        )
    return M
