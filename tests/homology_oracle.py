"""Test oracle: reduced simplicial homology of restricted independence
complexes, the route to Betti values that does not use the ladder.

For a matroid M and subset X the faces are the independent subsets of X;
boundary matrices carry the usual alternating signs and ranks are taken over
the rationals with exact integer (Bareiss fraction-free) elimination, so the
returned dimensions are exact.  Face counts grow like 2^|X|, so callers keep
X small.
"""

from __future__ import annotations

from itertools import combinations

from matgreedy.masks import from_labels, to_labels
from matgreedy.matroid import Matroid


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix.

    Bareiss one-step fraction-free elimination: every intermediate entry is a
    minor of the input, the division by the previous pivot is exact, and
    Python integers never overflow.
    """
    m = len(rows)
    if m == 0:
        return 0
    n = len(rows[0])
    if n == 0:
        return 0
    a = [list(row) for row in rows]
    prev = 1
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = -1
        for i in range(r, m):
            if a[i][c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
        piv = a[r][c]
        for i in range(r + 1, m):
            f = a[i][c]
            row_i = a[i]
            row_r = a[r]
            for j in range(c + 1, n):
                q, rem = divmod(piv * row_i[j] - f * row_r[j], prev)
                assert rem == 0, "fraction-free elimination division not exact"
                row_i[j] = q
            row_i[c] = 0
        prev = piv
        r += 1
    return r


def faces_of_size(M: Matroid, X: int, size: int) -> list[tuple[int, ...]]:
    """Independent subsets of X with the given cardinality, as label tuples."""
    labels = to_labels(X)
    if size > len(labels):
        return []
    combs = list(combinations(labels, size))
    independent = M.ranks([from_labels(c) for c in combs]) == size
    return [c for c, ok in zip(combs, independent) if ok]


def boundary_matrix(
    faces_small: list[tuple[int, ...]], faces_big: list[tuple[int, ...]]
) -> list[list[int]]:
    """Matrix of the boundary map from size-s faces (columns) down to
    size-(s-1) faces (rows), entries in {-1, 0, 1}."""
    index = {f: i for i, f in enumerate(faces_small)}
    mat = [[0] * len(faces_big) for _ in faces_small]
    for col, face in enumerate(faces_big):
        sign = 1
        for pos in range(len(face)):
            sub = face[:pos] + face[pos + 1 :]
            mat[index[sub]][col] = sign
            sign = -sign
    return mat


def reduced_betti_single(M: Matroid, X: int, degree: int) -> int:
    """dim of the reduced homology of the restriction to X in one degree.

    Faces of size s live in dimension s-1; the empty face gives the reduced
    augmentation, so degree -1 is meaningful.
    """
    size = degree + 1
    top = M.rank(X)
    if size < 0 or size > top:
        return 0
    here = faces_of_size(M, X, size)
    if not here:
        return 0
    rank_down = 0
    if size >= 1:
        below = faces_of_size(M, X, size - 1)
        rank_down = exact_rank(boundary_matrix(below, here))
    rank_up = 0
    if size + 1 <= top:
        above = faces_of_size(M, X, size + 1)
        if above:
            rank_up = exact_rank(boundary_matrix(here, above))
    value = len(here) - rank_down - rank_up
    assert value >= 0, "homology dimension cannot be negative"
    return value


def reduced_betti_all(M: Matroid, X: int) -> dict[int, int]:
    """All nonzero reduced homology dimensions of the restriction to X,
    keyed by degree.  Boundary ranks are computed once and shared."""
    top = M.rank(X)
    faces = [faces_of_size(M, X, s) for s in range(top + 1)]
    ranks = [0] * (top + 2)
    for s in range(1, top + 1):
        if faces[s]:
            ranks[s] = exact_rank(boundary_matrix(faces[s - 1], faces[s]))
    out = {}
    for s in range(top + 1):
        dim = len(faces[s]) - ranks[s] - ranks[s + 1]
        assert dim >= 0
        if dim:
            out[s - 1] = dim
    return out
