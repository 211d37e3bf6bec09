"""Batched kernels against plain-Python references, and the batched ladder
against the exhaustive-scan oracle on a seeded corpus of larger matroids."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matgreedy import kernels
from matgreedy.gfp import FieldMatrix
from matgreedy.ladder import circuits, ladder
from matgreedy.masks import popcount
from matgreedy.matroid import from_circuits, from_parity_check
from tests.conftest import corpus_small
from tests.ladder_oracle import bruteforce_ladder, filter_minimal
from tests.paper_oracle import columns


def minimal_reference(ordered: list[int]) -> list[bool]:
    """Pairwise scan: a mask is kept when no earlier mask lies inside it."""
    return [
        not any(ordered[j] & ~ordered[i] == 0 for j in range(i))
        for i in range(len(ordered))
    ]


def greedy_rank_reference(mask: int, circs: list[int], n: int) -> int:
    """Greedy basis growth on Python ints, testing every circuit."""
    indep = 0
    for b in range(n):
        bit = 1 << b
        if mask & bit and not any(c & ~(indep | bit) == 0 for c in circs):
            indep |= bit
    return popcount(indep)


def by_size(masks) -> list[int]:
    return sorted(masks, key=lambda m: (popcount(m), m))


def combination_masks(n: int, size: int) -> list[int]:
    return sorted(sum(1 << (i - 1) for i in c) for c in combinations(range(1, n + 1), size))


def test_subsets_equal_sorted_combinations():
    for n in range(11):
        for size in range(n + 2):
            got = kernels.subsets(n, size)
            assert got.dtype == np.uint64
            assert got.tolist() == combination_masks(n, size), (n, size)
    # bit 63 is the label 64; past n/2 the subsets are built as complements
    for size in (0, 1, 2, 62, 63, 64):
        assert kernels.subsets(64, size).tolist() == combination_masks(64, size)


def test_popcounts_full_width_and_plain_lists():
    got = kernels.popcounts(np.array([0, 2**64 - 1], dtype=np.uint64))
    assert got.dtype == np.int64 and got.tolist() == [0, 64]
    assert kernels.popcounts([0, 2**64 - 1, 5, 1 << 63]).tolist() == [0, 64, 2, 1]
    masks = np.random.default_rng(64).integers(0, 2**64, 1000, dtype=np.uint64)
    assert kernels.popcounts(masks).tolist() == [popcount(m) for m in masks.tolist()]


def u64(masks) -> np.ndarray:
    return np.array(list(masks), dtype=np.uint64)


@settings(deadline=None)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=200))
def test_filter_minimal_matches_pairwise_scan(masks):
    ordered = by_size(masks)  # repeats kept: only the first copy survives
    assert filter_minimal(u64(ordered)).tolist() == minimal_reference(ordered)


def test_filter_minimal_batch_over_many_chunks():
    rng = np.random.default_rng(5)
    ordered = by_size(set(int(x) for x in rng.integers(1, 1 << 20, size=2000)))
    kept = filter_minimal(u64(ordered))
    assert kept.tolist() == minimal_reference(ordered)
    # some popcount group tested against the kept smaller masks needs more
    # than two chunks of CHUNK_ENTRIES pairs
    sizes = [popcount(m) for m in ordered]
    pairs = [
        sizes.count(s) * sum(k for k, z in zip(kept.tolist(), sizes) if z < s)
        for s in set(sizes)
    ]
    assert max(pairs) > 2 * kernels.CHUNK_ENTRIES


@settings(deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(1, (1 << n) - 1), max_size=12),
            st.lists(st.integers(0, (1 << n) - 1), max_size=60),
        )
    )
)
def test_circuit_ranks_match_greedy_growth(case):
    n, circs, masks = case
    got = kernels.circuit_ranks(u64(masks), u64(circs), n)
    assert got.tolist() == [greedy_rank_reference(m, circs, n) for m in masks]


def test_circuit_ranks_batch_over_many_chunks():
    rng = np.random.default_rng(6)
    n = 16
    circs = [int(x) for x in rng.integers(1, 1 << n, size=40)]
    # each bit's containment test covers about half of the masks in chunks
    # of CHUNK_ENTRIES // (circuits through the bit) rows
    masks = [0, (1 << n) - 1] + [int(x) for x in rng.integers(0, 1 << n, size=4000)]
    got = kernels.circuit_ranks(u64(masks), u64(circs), n)
    assert got.tolist() == [greedy_rank_reference(m, circs, n) for m in masks]


@settings(deadline=None)
@given(
    st.lists(st.integers(0, (1 << 12) - 1), max_size=60),
    st.lists(
        st.tuples(st.integers(0, (1 << 12) - 1), st.integers(-(2**40), 2**40)),
        max_size=40,
    ),
)
def test_subset_sums_match_plain_sums(masks, weighted):
    subsets = [s for s, _ in weighted]
    weights = np.array([w for _, w in weighted], dtype=np.int64)
    got = kernels.subset_sums(u64(masks), u64(subsets), weights)
    want = [sum(w for s, w in weighted if s & ~m == 0) for m in masks]
    assert got.tolist() == want


def test_subset_sums_batch_over_many_chunks():
    rng = np.random.default_rng(7)
    masks = [int(x) for x in rng.integers(0, 1 << 16, size=3000)]
    subsets = [int(x) for x in rng.integers(0, 1 << 16, size=30)]
    weights = rng.integers(-(2**50), 2**50, size=30)
    got = kernels.subset_sums(u64(masks), u64(subsets), weights)
    want = [
        sum(int(w) for s, w in zip(subsets, weights) if s & ~m == 0) for m in masks
    ]
    assert len(masks) * len(subsets) > 2 * kernels.CHUNK_ENTRIES
    assert got.tolist() == want


@st.composite
def matrices_and_masks(draw):
    p = draw(st.sampled_from([2, 3, 5, 65521]))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 10))
    # entries near p make the cross-multiplied products largest
    entry = st.one_of(st.integers(0, p - 1), st.integers(max(0, p - 3), p - 1))
    row = st.lists(entry, min_size=cols, max_size=cols)
    data = draw(st.lists(row, min_size=rows, max_size=rows))
    masks = draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=40))
    return FieldMatrix(p, data), masks


@settings(deadline=None)
@given(matrices_and_masks())
def test_column_ranks_match_field_matrix_rank(case):
    mat, masks = case
    got = kernels.column_ranks(mat.data, u64(masks), mat.p)
    assert got.tolist() == [columns(mat, m).rank() for m in masks]


def test_column_ranks_cancel_exactly_near_the_largest_modulus():
    # a rank-one matrix with entries near p: every product the elimination
    # cancels exceeds 2^31, so a narrower integer type would leave residues
    p = 65521
    v = np.array([p - 1, p - 2, 40000, 65000, 3])
    mat = FieldMatrix(p, [(lam * v) % p for lam in (1, 2, p - 1, 30000)])
    masks = range(1 << 5)
    got = kernels.column_ranks(mat.data, u64(masks), p)
    assert got.tolist() == [min(m, 1) for m in masks]


def test_subset_rank_table_matches_field_matrix_rank():
    rng = np.random.default_rng(7)
    mat = FieldMatrix(3, rng.integers(0, 3, size=(6, 12)))
    table = kernels.subset_ranks(mat.data, 3)
    assert len(table) == 1 << 12  # far more masks than one chunk holds
    assert table.tolist() == [columns(mat, m).rank() for m in range(1 << 12)]


@pytest.mark.parametrize("p, n", [(2, 15), (3, 16), (65521, 15)])
def test_linear_ranks_without_table_match_field_matrix_rank(p, n):
    rng = np.random.default_rng(n + p)
    mat = FieldMatrix(p, rng.integers(0, p, size=(6, n)))
    masks = [0, (1 << n) - 1] + [int(x) for x in rng.integers(0, 1 << n, size=1200)]
    got = from_parity_check(mat).ranks(masks)
    assert got.tolist() == [columns(mat, m).rank() for m in masks]


def test_batched_ranks_match_single_queries(ternary84):
    for M in corpus_small(ternary84):
        masks = range(1 << M.n)
        assert M.ranks(masks).tolist() == [M.rank(m) for m in masks]


@pytest.mark.parametrize("seed", range(21))
def test_ladder_matches_bruteforce_parity_and_circuit_list(seed):
    rng = np.random.default_rng(1000 + seed)
    p, n = (2, 3, 5)[seed % 3], 8 + seed % 7
    rows = int(rng.integers(n // 3, 2 * n // 3 + 1))
    M = from_parity_check(FieldMatrix(p, rng.integers(0, p, size=(rows, n))))
    C = from_circuits(n, list(circuits(M)))
    expected = bruteforce_ladder(M).levels
    assert ladder(M).levels == expected
    assert ladder(C).levels == expected
    assert bruteforce_ladder(C).levels == expected
