"""Reference answers the benchmark checks the program's outputs against.

Nothing here imports matgreedy.  Ranks come from a batched numpy elimination
over every column subset at once, the cycle ladder from the nullity table
(a set is a minimal nullity-i set exactly when it has nullity i and every
one-element deletion has nullity i-1), and Betti values from the Moebius
function of the cycle lattice.  A fault in the program's ladder, sweeps,
kernels or homology therefore cannot hide in the oracle.
"""

from __future__ import annotations

import numpy as np

# subsets eliminated per numpy batch; keeps the oracle's memory to a few MB
CHUNK = 2048


def popcounts(masks: np.ndarray, n: int) -> np.ndarray:
    return ((masks[:, None] >> np.arange(n)) & 1).sum(1)


def rank_table(matrix, p: int) -> np.ndarray:
    """Column rank over GF(p) of every column subset; entry m is for mask m.

    Entries are int16, so p must be small enough that (p-1)^2 fits."""
    if p > 181:
        raise ValueError(f"p = {p} too large for int16 elimination")
    a = (np.asarray(matrix, dtype=np.int64) % p).astype(np.int16)
    r, n = a.shape
    inv = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=np.int16)
    rows = np.arange(r)
    out = np.empty(1 << n, dtype=np.int64)
    for start in range(0, 1 << n, CHUNK):
        masks = np.arange(start, min(start + CHUNK, 1 << n))
        keep = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
        x = np.where(keep[:, None, :], a[None], 0)
        rank = np.zeros(len(masks), dtype=np.int64)
        for c in range(n):
            avail = (rows >= rank[:, None]) & (x[:, :, c] != 0)
            b = np.flatnonzero(avail.any(1))
            if b.size == 0:
                continue
            piv = avail[b].argmax(1)
            rk = rank[b]
            prow = x[b, piv]
            prow = prow * inv[prow[:, c]][:, None] % p
            x[b, piv] = x[b, rk]
            x[b, rk] = prow
            factor = x[b, :, c] * (rows > rk[:, None])
            x[b] = (x[b] - factor[:, :, None] * prow[:, None, :]) % p
            rank[b] += 1
        out[start : start + len(masks)] = rank
    return out


def dual_rank_table(rank: np.ndarray) -> np.ndarray:
    """r*(X) = |X| + r(E-X) - r(E)."""
    size = len(rank)
    n = size.bit_length() - 1
    masks = np.arange(size)
    return popcounts(masks, n) + rank[(size - 1) ^ masks] - rank[-1]


def cycle_ladder(rank: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Levels N_1..N_t, each sorted by (cardinality, mask)."""
    size = len(rank)
    n = size.bit_length() - 1
    masks = np.arange(size)
    pop = popcounts(masks, n)
    nul = pop - rank
    minimal = np.ones(size, dtype=bool)
    for e in range(n):
        bit = 1 << e
        minimal &= ((masks & bit) == 0) | (nul[masks ^ bit] == nul - 1)
    levels = []
    for i in range(1, int(nul[-1]) + 1):
        sel = masks[(nul == i) & minimal]
        levels.append(tuple(int(m) for m in sel[np.lexsort((sel, pop[sel]))]))
    return tuple(levels)


def circuit_nullity(circuits, n: int):
    """Nullity function of the matroid with the given circuit masks."""
    circ = np.array(circuits, dtype=np.int64)

    def nullity(mask: int) -> int:
        indep = 0
        for e in range(n):
            bit = 1 << e
            if mask & bit and not ((circ & ~(indep | bit)) == 0).any():
                indep |= bit
        return mask.bit_count() - indep.bit_count()

    return nullity


def unsound_members(levels, nullity) -> list[int]:
    """Ladder members that are not minimal sets of their level's nullity."""
    bad = []
    for i, level in enumerate(levels, start=1):
        for x in level:
            drops = all(
                nullity(x & ~(1 << e)) == i - 1 for e in range(x.bit_length()) if x >> e & 1
            )
            if nullity(x) != i or not drops:
                bad.append(x)
    return bad


def _card(mask: int) -> int:
    return mask.bit_count()


def _sweep(levels, contains_frontier):
    """Greedy frontier sweep: each next level keeps its smallest members that
    relate to some frontier member.  Exact because every ladder member has a
    cover above and a member below it."""
    frontier = np.array([m for m in levels[0] if _card(m) == _card(levels[0][0])])
    profile = [_card(levels[0][0])]
    for level in levels[1:]:
        arr = np.array(level)
        hits = arr[contains_frontier(arr, frontier)]
        best = min(_card(int(m)) for m in hits)
        profile.append(best)
        frontier = np.array([m for m in hits if _card(int(m)) == best])
    return profile


def _above(arr, frontier):
    return ((frontier[None, :] & ~arr[:, None]) == 0).any(1)


def _below(arr, frontier):
    return ((arr[:, None] & ~frontier[None, :]) == 0).any(1)


def weights(levels) -> dict:
    """d, e, e_tilde and g of a ladder, the four vectors `weights` prints."""
    if not levels:
        return {"d": [], "e": [], "e_tilde": [], "g": []}
    d = [_card(level[0]) for level in levels]
    e = _sweep(levels, _above)
    e_tilde = _sweep(levels[::-1], _below)[::-1]
    g = [d[0]]
    for r in range(1, len(levels)):
        taus = np.array([m for m in levels[r - 1] if _card(m) == d[r - 1]])
        arr = np.array(levels[r])
        g.append(min(_card(int(m)) for m in arr[_above(arr, taus)]))
    return {"d": d, "e": e, "e_tilde": e_tilde, "g": g}


def mobius_values(levels) -> dict[tuple[int, int], int]:
    """|mu(0, X)| in the lattice of cycles, the Betti number at (i, X)."""
    keys = np.array([0], dtype=np.int64)
    vals = np.array([1], dtype=np.int64)
    out = {(0, 0): 1}
    for i, level in enumerate(levels, start=1):
        new = []
        for x in level:
            mu = -int(vals[(keys & ~x) == 0].sum())
            new.append(mu)
            out[(i, x)] = abs(mu)
        keys = np.concatenate([keys, np.array(level, dtype=np.int64)])
        vals = np.concatenate([vals, np.array(new, dtype=np.int64)])
    return out


def labels(mask: int) -> list[int]:
    return [e + 1 for e in range(mask.bit_length()) if mask >> e & 1]


def mask_of(labs) -> int:
    return sum(1 << (lab - 1) for lab in labs)


def support(levels) -> list:
    return [[0, []]] + [
        [i, labels(x)] for i, level in enumerate(levels, start=1) for x in level
    ]
