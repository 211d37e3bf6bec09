"""Batched integer kernels: k-subset masks, bit counts, mod-p elimination and
null bases, column-subset ranks, code-word supports, circuit ranks, closures,
meet, cycle, rank and subset-sum tables, containment tests, sums and meets.

Each kernel treats a whole batch of subset masks with numpy array operations.
Batches are split into chunks so that no temporary holds more than about
CHUNK_ENTRIES 8-byte entries.  Circuit lists and word counts with 2^n <=
CHUNK_ENTRIES are read from tables over all 2^n masks instead.

Matrices are int64 row-major with entries reduced mod p (p < 2^16, so every
intermediate product fits in int64).  A standard-form basis has the identity
on its unit columns, row i on units[i]: one reduction to echelon form gives
a matrix's row space so (units: the pivots) and, by null_basis, its kernel
(units: the free columns).  Subset masks are uint64, label i on bit i-1.
"""

from __future__ import annotations

import numpy as np

# entries per temporary array of a chunked kernel (128 KB of int64/uint64)
CHUNK_ENTRIES = 1 << 14


def subsets(n: int, size: int) -> np.ndarray:
    """Masks of all size-element subsets of {1..n}, ascending, as uint64:
    the (k+1)-subsets with highest bit j are the k-subsets below 2^j plus j.
    Past n/2 they are built as complements, so no step outgrows the output."""
    if 2 * size > n >= size:  # complementing reverses the order
        return np.uint64((1 << n) - 1) ^ subsets(n, n - size)[::-1]
    out = np.zeros(int(size <= n), dtype=np.uint64)  # no subset when size > n
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    for _ in range(size):
        ends = np.searchsorted(out, bits)
        out = np.concatenate([out[:0]] + [out[:end] | bit for end, bit in zip(ends, bits)])
    return out


def popcounts(masks) -> np.ndarray:
    """Number of set bits of each mask, as int64."""
    return np.bitwise_count(np.asarray(masks, dtype=np.uint64)).astype(np.int64)


def distinct(masks, counts: bool = False, inverse: bool = False):
    """Sorted distinct values of a mask array; with counts, also how often
    each occurs, as int64; with inverse, also the index of each mask among
    them.  With both, the tuple is (values, counts, inverse).

    Used instead of np.unique, which imports numpy.ma (about 2 MB) on its
    first call.
    """
    masks = np.asarray(masks, dtype=np.uint64)
    order = np.argsort(masks) if inverse else None
    masks = masks[order] if inverse else np.sort(masks)
    first = np.ones(masks.shape[0], dtype=bool)
    first[1:] = masks[1:] != masks[:-1]
    out = [masks[first]]
    if counts:
        out.append(np.diff(np.flatnonzero(first), append=masks.shape[0]))
    if inverse:
        where = np.empty_like(order)
        where[order] = np.cumsum(first) - 1
        out.append(where)
    return out[0] if len(out) == 1 else tuple(out)


def lookup(table, keys):
    """Index of each key in a sorted uint64 table, and whether it is there;
    the index of a key that is not there is meaningless."""
    at = np.searchsorted(table, keys)
    found = at < table.size
    found[found] = table[at[found]] == keys[found]
    return at, found


def rref_mod_p(a, p):
    """Reduce a in place to reduced row echelon form over GF(p).

    Returns (rank, pivot_columns).  Pivoting is deterministic: first nonzero
    entry in column order.
    """
    rows, cols = a.shape
    piv_cols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nonzero = np.flatnonzero(a[r:, c])
        if nonzero.size == 0:
            continue
        pr = r + int(nonzero[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        factors = a[:, c].copy()
        factors[r] = 0
        a[:] = (a - factors[:, None] * a[r]) % p
        piv_cols.append(c)
        r += 1
    return r, np.array(piv_cols, dtype=np.int64)


def _batch_rank(x, p):
    """Ranks over GF(p) of a stack of matrices x (batch, rows, cols); destroys x.

    Forward elimination, one column at a time for the whole stack: a matrix
    with a pivot in the column swaps it up to its next echelon row and clears
    the rows below by cross-multiplication, which keeps the rank.
    """
    batch, rows, cols = x.shape
    rank = np.zeros(batch, dtype=np.int64)
    every = np.arange(batch)
    row_idx = np.arange(rows)
    for c in range(cols):
        unused = row_idx >= rank[:, None]
        avail = unused & (x[:, :, c] != 0)
        has = avail.any(axis=1)
        if not has.any():
            continue
        target = np.minimum(rank, rows - 1)
        piv = np.where(has, avail.argmax(axis=1), target)
        prow = x[every, piv, c:]
        x[every, piv, c:] = x[every, target, c:]
        x[every, target, c:] = prow
        factors = np.where((row_idx > rank[:, None]) & has[:, None], x[:, :, c], 0)
        rest = x[:, :, c:]
        rest *= np.where(has, prow[:, 0], 1)[:, None, None]
        rest -= factors[:, :, None] * prow[:, None, :]
        rest %= p
        rank += has
    return rank


def null_basis(rref, pivots, p):
    """Standard-form basis of {v : rref @ v = 0}, and its unit columns, from a
    reduced echelon form without zero rows and its int64 pivots: the row of
    free column f is e_f minus column f of rref on the pivots."""
    free = np.delete(np.arange(rref.shape[1]), pivots)
    basis = np.zeros((free.size, rref.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -rref[:, free].T % p
    return basis, free


def column_ranks(basis, units, masks, p):
    """Rank over GF(p) of the columns selected by each mask (bit j <->
    column j) of a standard-form basis with int64 unit columns, as int64.

    A selected unit column adds one to the rank and clears its row, so only
    the selected other columns, on the rows of the unselected units, are left
    to eliminate.
    """
    rest = np.delete(np.arange(basis.shape[1]), units)
    unit_bits, rest_bits = (np.uint64(1) << cols.astype(np.uint64) for cols in (units, rest))
    rest = basis[:, rest]
    masks = np.asarray(masks, dtype=np.uint64)
    out = popcounts(masks & np.bitwise_or.reduce(unit_bits, initial=np.uint64(0)))
    if rest.size == 0:
        return out
    step = max(1, CHUNK_ENTRIES // rest.size)
    for start in range(0, masks.shape[0], step):
        chunk = masks[start : start + step, None]
        open_rows = (chunk & unit_bits) == 0
        chosen = (chunk & rest_bits) != 0
        x = np.where(open_rows[:, :, None] & chosen[:, None, :], rest, 0)
        out[start : start + step] += _batch_rank(x, p)
    return out


def word_supports(basis, p, index=None):
    """Support masks of the words sum_i c_i basis[i] over GF(p) at the given
    int64 indices, whose base-p digits, lowest first, are the c_i; all p^d
    words in index order by default."""
    d, cols = basis.shape
    count = p**d if index is None else index.size
    bits = np.uint64(1) << np.arange(cols, dtype=np.uint64)
    out = np.zeros(count, dtype=np.uint64)
    step = max(1, CHUNK_ENTRIES // max(1, d, cols))
    for start in range(0, count, step):
        stop = min(start + step, count)
        part = np.arange(start, stop) if index is None else index[start:stop]
        words = (part[:, None] // p ** np.arange(d) % p) @ basis % p
        out[start:stop] = np.where(words != 0, bits, np.uint64(0)).sum(axis=1)
    return out


def _contained(masks, subsets):
    """Row chunks of the containment matrix of masks against subsets.

    Yields (rows, inside) with inside[a, b] true iff subsets[b] lies in
    masks[rows][a].
    """
    masks = np.asarray(masks, dtype=np.uint64)
    subsets = np.asarray(subsets, dtype=np.uint64)
    step = max(1, CHUNK_ENTRIES // max(1, subsets.size))
    for start in range(0, masks.shape[0], step):
        rows = slice(start, start + step)
        yield rows, (subsets & ~masks[rows, None]) == 0


def contains_any(masks, subsets):
    """Flags: whether each mask contains at least one of the subsets."""
    out = np.zeros(len(masks), dtype=bool)
    for rows, inside in _contained(masks, subsets):
        out[rows] = inside.any(axis=1)
    return out


def subset_sums(masks, subsets, weights):
    """Sum of the int64 weights of the subsets contained in each mask.

    The caller keeps the sum of the weights' absolute values below 2^63.
    """
    out = np.zeros(len(masks), dtype=np.int64)
    for rows, inside in _contained(masks, subsets):
        out[rows] = np.where(inside, weights, 0).sum(axis=1)
    return out


def subset_meets(masks, subsets):
    """Intersection of the subsets contained in each mask; all ones where
    none is."""
    out = np.empty(len(masks), dtype=np.uint64)
    for rows, inside in _contained(masks, subsets):
        out[rows] = np.bitwise_and.reduce(np.where(inside, subsets, ~np.uint64(0)), axis=1)
    return out


def circuit_closures(masks, circuits):
    """Closure of each mask, in any matroid given by its circuit masks: X
    plus the one element of C - X for every circuit C with |C - X| = 1."""
    masks = np.asarray(masks, dtype=np.uint64)
    out = masks.copy()
    step = max(1, CHUNK_ENTRIES // max(1, circuits.size))
    for start in range(0, masks.shape[0], step):
        outside = circuits & ~masks[start : start + step, None]
        # an empty C - X passes this one-bit test too, and adds nothing
        single = (outside & (outside - np.uint64(1))) == 0
        out[start : start + step] |= np.bitwise_or.reduce(np.where(single, outside, 0), axis=1)
    return out


def circuit_ranks(masks, circuits, n):
    """Greedy rank of each query mask in a matroid given by its circuit masks.

    Elements are taken in ascending label order; a trial set stays independent
    iff it contains no circuit, and as the set before the trial is
    independent only circuits through the new element can be contained.  The
    exchange property makes the order irrelevant.
    """
    masks = np.asarray(masks, dtype=np.uint64)
    circuits = np.asarray(circuits, dtype=np.uint64)
    indep = np.zeros_like(masks)
    for b in range(n):
        bit = np.uint64(1) << np.uint64(b)
        rows = np.flatnonzero(masks & bit)
        through = circuits[(circuits & bit) != 0]
        if rows.size and through.size:
            rows = rows[~contains_any(indep[rows] | bit, through)]
        indep[rows] |= bit
    return popcounts(indep)


def _spread_up(table, n, combine=np.bitwise_or):
    """A table over all 2^n masks with each entry combined (ORed by default)
    into those of the masks above it, one bit at a time; each half of the bits
    is moved to the top of the index first, so every pass runs over long blocks."""
    for size in (n // 2, n - n // 2):
        table = table.reshape(-1, 1 << size).T.ravel()
        for b in range(n - size, n):
            halves = table.reshape(-1, 2, 1 << b)
            combine(halves[:, 0], halves[:, 1], out=halves[:, 1])
    return table


def subset_sum_table(subsets, weights, n):
    """subset_sums of every mask below 2^n against distinct subsets, indexed
    by mask: the weights placed at their masks and added upward."""
    out = np.zeros(1 << n, dtype=np.int64)
    out[subsets] = weights
    return _spread_up(out, n, np.add)


def circuit_meet_table(circuits, n):
    """subset_meets of every mask below 2^n against the circuits, indexed by
    mask: the complement of the union of the circuits' complements."""
    out = np.zeros(1 << n, dtype=np.uint64)
    out[circuits] = ~circuits
    return ~_spread_up(out, n)


def cycle_masks(circuits, n):
    """The cycles of a matroid on n elements given by its k circuit masks,
    ascending: the distinct nonempty unions of sets of circuits, read off a
    table of their 2^k unions when k <= n, and otherwise off a table of all
    2^n masks, as those that are the union of the circuits inside them."""
    table = np.zeros(1 << min(circuits.size, n), dtype=np.uint64)
    if circuits.size <= n:
        for i, c in enumerate(circuits):
            table[1 << i : 2 << i] = table[: 1 << i] | c
        return distinct(table)[1:]
    table[circuits] = circuits
    masks = np.arange(1 << n, dtype=np.uint64)
    return masks[_spread_up(table, n) == masks][1:]


def circuit_rank_table(meets, n):
    """circuit_ranks of every mask below 2^n, indexed by mask, from its
    circuit_meet_table: a mask holds a circuit iff its meet is not all ones,
    and the greedy basis of a mask with top bit b is that of the mask less b,
    plus b unless that set holds a circuit."""
    dependent = meets != ~np.uint64(0)
    basis = np.zeros(1 << n, dtype=np.uint64)
    for b in range(n):
        below = basis[: 1 << b]
        grown = below | np.uint64(1 << b)
        basis[1 << b : 2 << b] = np.where(dependent[grown], below, grown)
    return popcounts(basis)
