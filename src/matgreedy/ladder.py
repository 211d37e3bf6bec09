"""Circuit enumeration and the cycle ladder N_1..N_t.

N_l is the set of cycles (unions of circuits) of nullity l.  For a matroid
these are exactly the inclusion-minimal sets of nullity l: cycles are the
complements of the flats of the dual, and flats of equal rank are never
nested (Oxley, Matroid Theory, 2nd ed.).  With 2^n <= CHUNK_ENTRIES the
cycles are read off one table, ranked at once and split by nullity.  Else
level 1 is the circuit set, and level l is generated upward as the unions
of a level-(l-1) member with a circuit that have nullity exactly l: every
cycle of nullity l arises this way, and no minimality test is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import kernels
from .errors import CapExceeded, InvariantError
from .masks import to_labels
from .matroid import LinearMatroid, Matroid, UniformMatroid

DEFAULT_SUBSET_CAP = 5_000_000


def unions(prev: np.ndarray, circs: np.ndarray, cap: int | None = None) -> np.ndarray:
    """Distinct unions rho | c (rho in prev, c in circs) strictly above rho.

    With a cap, the chunks are merged whenever they hold more than
    max(cap, twice the last merge) sets, and the first merge of more than
    cap distinct unions is returned, not all of them.
    """
    parts, held = [np.zeros(0, dtype=np.uint64)], 0
    step = max(1, kernels.CHUNK_ENTRIES // circs.size)
    for start in range(0, prev.size, step):
        rho = prev[start : start + step, None]
        grown = rho | circs
        parts.append(kernels.distinct(grown[grown != rho]))
        held += parts[-1].size
        if cap is not None and held > max(cap, 2 * parts[0].size):
            parts = [kernels.distinct(np.concatenate(parts))]
            if (held := parts[0].size) > cap:
                return parts[0]
    return kernels.distinct(np.concatenate(parts))


@dataclass(frozen=True)
class CycleLadder:
    """levels[i-1] is N_i, the cycles of nullity i sorted by (cardinality,
    mask), for i in 1..t."""

    levels: tuple[tuple[int, ...], ...]

    @property
    def t(self) -> int:
        return len(self.levels)

    def to_json_dict(self) -> dict:
        return {
            "levels": [[list(to_labels(m)) for m in lv] for lv in self.levels]
        }


def circuits(M: Matroid, cap: int = DEFAULT_SUBSET_CAP) -> tuple[int, ...]:
    """All circuits, sorted by (cardinality, mask).

    Every structural layer starts here, so here a circuit list, or its dual,
    is refused unless M.check_elimination passes.  Uniform matroids return
    the analytic list, whose size the cap bounds.  Otherwise circuits are
    found in that order, skipping supersets of circuits found,
    as the minimal supports of the p^(n-r) words of ker A for the matroid of
    a matrix A, or as the dependent sets among all subsets of at most r + 1
    elements, whichever list is shorter; the cap bounds it before it is built.
    """
    M.check_elimination(cap)
    if M._circuits is not None:
        return M._circuits
    if isinstance(M, UniformMatroid):
        # the circuits are the (r+1)-subsets, counted before any is built
        if (count := comb(M.n, M.r + 1)) > cap:
            raise CapExceeded(
                f"U({M.r},{M.n}) has {count} circuits, more than the cap {cap}"
            )
        M._circuits = tuple(kernels.subsets(M.n, M.r + 1).tolist())
        return M._circuits
    max_size = min(M.n, M.full_rank + 1)
    examined = sum(comb(M.n, size) for size in range(1, max_size + 1))
    words = M.p ** (M.n - M.full_rank) if isinstance(M, LinearMatroid) else examined
    if min(words, examined) > cap:
        raise CapExceeded(f"circuit enumeration examined more than {cap} subsets")
    if by_words := words < examined:
        supports = M.kernel_words[0]
        sizes = kernels.popcounts(supports)
    found = np.zeros(0, dtype=np.uint64)
    for size in range(1, max_size + 1):
        sets = supports[sizes == size] if by_words else kernels.subsets(M.n, size)
        sets = sets[~kernels.contains_any(sets, found)]
        # a support is dependent, so a minimal one is a circuit
        found = np.concatenate([found, sets if by_words else sets[M.ranks(sets) < size]])
    M._circuits = tuple(found.tolist())
    return M._circuits


def ladder(M: Matroid, cap: int = DEFAULT_SUBSET_CAP) -> CycleLadder:
    """The full cycle ladder of M, cached on the matroid.

    With 2^n <= kernels.CHUNK_ENTRIES the levels split kernels.cycle_masks by
    nullity and cap bounds its 2^n sets; otherwise cap bounds the candidate
    unions examined.  Huge ladders (duals of large-corank matroids, say) thus
    fail explicitly instead of thrashing.  The top level is the single set E
    minus the coloops, as in every matroid, and circuits() has refused every
    input that is not one, so an InvariantError here is a fault of this code.
    """
    if M._ladder is not None:
        return M._ladder
    if (by_table := 1 << M.n <= kernels.CHUNK_ENTRIES) and 1 << M.n > cap:
        raise CapExceeded(f"the cycle table needs all 2^{M.n} subsets, more than {cap}")
    t = M.corank
    too_many = f"ladder generation examined more than {cap} candidate unions"
    if not by_table and isinstance(M, UniformMatroid) and t >= 2:
        # level 2's |circuits|^2 unions, priced before any circuit is built
        if (count := comb(M.n, M.r + 1)) <= cap < count * count:
            raise CapExceeded(too_many)
    circs = np.array(circuits(M, cap=cap), dtype=np.uint64)
    levels: list[tuple[int, ...]] = []
    if t >= 1:
        if by_table:
            cycles = kernels.cycle_masks(circs, M.n)
            nullity = kernels.popcounts(cycles) - M._ranks(cycles)
        else:
            parts, work = [circs], 0
            for lvl in range(2, t + 1):
                if (work := work + parts[-1].size * circs.size) > cap:
                    raise CapExceeded(too_many)
                grown = unions(parts[-1], circs)
                parts.append(grown[kernels.popcounts(grown) - M._ranks(grown) == lvl])
            cycles = np.concatenate(parts)
            nullity = np.repeat(np.arange(1, t + 1), [part.size for part in parts])
        # each (nullity, cardinality) class is ascending: a stable sort suffices
        order = (nullity * (M.n + 1) + kernels.popcounts(cycles)).argsort(kind="stable")
        # nullities past t, possible only in a non-matroid, join level t
        cuts = [0, *nullity[order].searchsorted(np.arange(2, t + 1)).tolist(), None]
        members = cycles[order].tolist()
        levels = [tuple(members[a:b]) for a, b in zip(cuts, cuts[1:])]
        # the top cycle is the union of all circuits, E minus the coloops
        top = int(np.bitwise_or.reduce(circs, initial=np.uint64(0)))
        if levels[-1] != (top,):
            raise InvariantError(f"ladder level {t} is not the single set E minus the coloops")
    M._ladder = CycleLadder(tuple(levels))
    return M._ladder
