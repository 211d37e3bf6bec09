"""Batched kernels against plain-Python references, and the batched ladder
against the exhaustive-scan oracle on a seeded corpus of larger matroids."""

from __future__ import annotations

import json
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matgreedy import kernels
from matgreedy.cli import COMMANDS, RunConfig, run
from matgreedy.errors import CapExceeded
from matgreedy.gfp import FieldMatrix
from matgreedy.ladder import circuits, ladder
from matgreedy.masks import full_mask, popcount
from matgreedy.matroid import (
    WORD_CAP,
    DualMatroid,
    from_circuits,
    from_generator,
    from_parity_check,
)
from tests.conftest import FIXTURES, TERNARY84_GENERATOR_ROWS, corpus_small
from tests.ladder_oracle import bruteforce_ladder, filter_minimal
from tests.paper_oracle import columns, field_rank


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
    st.integers(0, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(1, (1 << n) - 1), max_size=12) if n else st.just([]),
            st.lists(st.integers(0, (1 << n) - 1), max_size=60),
        )
    )
)
@example((0, [], [0, 0]))
@example((5, [], [0, 7, 31]))
def test_circuit_ranks_match_greedy_growth(case):
    # the lists are arbitrary, antichains or not: both kernels grow the
    # same greedy basis, which validate's report on a non-matroid rests on
    n, circs, masks = case
    want = [greedy_rank_reference(m, circs, n) for m in masks]
    assert kernels.circuit_ranks(u64(masks), u64(circs), n).tolist() == want
    table = kernels.circuit_rank_table(kernels.circuit_meet_table(u64(circs), n), n)
    assert table[u64(masks)].tolist() == want
    meets = kernels.circuit_meet_table(u64(circs), n)[u64(masks)]
    assert meets.tolist() == kernels.subset_meets(u64(masks), u64(circs)).tolist()
    # the unions of sets of the masks, from 2^k of them or from 2^n masks
    unions = {0}
    for c in circs:
        unions |= {u | c for u in unions}
    assert kernels.cycle_masks(u64(circs), n).tolist() == sorted(unions - {0})


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
    rref, pivots = mat.rref()
    got = kernels.column_ranks(rref.data, pivots, u64(masks), mat.p)
    assert got.tolist() == [field_rank(columns(mat, m)) for m in masks]
    # the kernel's basis is in standard form but not in echelon form
    kernel, free = kernels.null_basis(rref.data, pivots, mat.p)
    assert kernel[:, free].tolist() == np.eye(len(free), dtype=int).tolist()
    assert not (mat.data @ kernel.T % mat.p).any()
    got = kernels.column_ranks(kernel, free, u64(masks), mat.p)
    assert got.tolist() == [field_rank(columns(FieldMatrix(mat.p, kernel), m)) for m in masks]


def test_column_ranks_cancel_exactly_near_the_largest_modulus():
    # a rank-one matrix with entries near p: every product the elimination
    # cancels exceeds 2^31, so a narrower integer type would leave residues
    p = 65521
    v = np.array([p - 1, p - 2, 40000, 65000, 3])
    mat = FieldMatrix(p, [(lam * v) % p for lam in (1, 2, p - 1, 30000)])
    masks = range(1 << 5)
    rref, pivots = mat.rref()
    got = kernels.column_ranks(rref.data, pivots, u64(masks), p)
    assert got.tolist() == [min(m, 1) for m in masks]


def test_counted_rank_route_matches_field_matrix_rank():
    rng = np.random.default_rng(7)
    mat = FieldMatrix(3, rng.integers(0, 3, size=(6, 12)))
    M = from_parity_check(mat)
    masks = range(1 << 12)  # far more masks than one chunk holds
    assert M.ranks(masks).tolist() == [field_rank(columns(mat, m)) for m in masks]
    assert M._words is not None


def test_distinct_counts_match_plain_counts():
    values = [int(x) for x in np.random.default_rng(3).integers(0, 50, size=400)]
    masks, counts = kernels.distinct(values, counts=True)
    assert masks.tolist() == sorted(set(values))
    assert counts.tolist() == [values.count(v) for v in masks.tolist()]
    empty = kernels.distinct([], counts=True)
    assert [part.tolist() for part in empty] == [[], []]


def test_distinct_inverse_and_lookup_find_each_value():
    values = np.random.default_rng(4).integers(0, 50, size=400).astype(np.uint64)
    masks, where = kernels.distinct(values, inverse=True)
    assert masks.tolist() == sorted(set(values.tolist()))
    assert masks[where].tolist() == values.tolist()
    both = kernels.distinct(values, counts=True, inverse=True)
    counts = [values.tolist().count(v) for v in masks.tolist()]
    assert [part.tolist() for part in both] == [masks.tolist(), counts, where.tolist()]
    at, found = kernels.lookup(masks[::2], np.arange(60, dtype=np.uint64))
    assert found.tolist() == [v in set(masks[::2].tolist()) for v in range(60)]
    assert masks[::2][at[found]].tolist() == np.flatnonzero(found).tolist()
    empty = [part.tolist() for part in kernels.lookup(masks[:0], values[:3])]
    assert empty == [[0, 0, 0], [False] * 3]


@pytest.mark.parametrize("p, rows, cols", [(2, 5, 9), (3, 3, 7), (7, 2, 5), (5, 0, 4)])
def test_word_supports_enumerate_every_combination(p, rows, cols):
    basis = np.random.default_rng(p + rows).integers(0, p, size=(rows, cols))
    got = kernels.word_supports(basis, p).tolist()
    want = []
    for index in range(p**rows):
        coeffs = [index // p**i % p for i in range(rows)]
        word = [sum(c * int(basis[i, j]) for i, c in enumerate(coeffs)) % p for j in range(cols)]
        want.append(sum(1 << j for j, x in enumerate(word) if x))
    assert got == want
    index = np.arange(p**rows)[::-3]
    assert kernels.word_supports(basis, p, index).tolist() == [want[i] for i in index]


@pytest.mark.parametrize("p, n", [(2, 15), (3, 16), (65521, 15)])
def test_linear_ranks_without_table_match_field_matrix_rank(p, n):
    rng = np.random.default_rng(n + p)
    mat = FieldMatrix(p, rng.integers(0, p, size=(6, n)))
    masks = [0, (1 << n) - 1] + [int(x) for x in rng.integers(0, 1 << n, size=1200)]
    got = from_parity_check(mat).ranks(masks)
    assert got.tolist() == [field_rank(columns(mat, m)) for m in masks]


def full_rank_matrix(rng, p: int, rows: int, cols: int) -> FieldMatrix:
    while field_rank(mat := FieldMatrix(p, rng.integers(0, p, size=(rows, cols)))) < rows:
        pass
    return mat


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("rows, row_side", [(3, True), (6, False)])
def test_word_counted_ranks_match_field_matrix_rank(p, rows, row_side):
    # on 9 columns a rank-3 matrix counts the p^3 words of its row space and
    # a rank-6 one the p^3 words of its kernel; as a generator, each gives a
    # parity check of the other shape
    mat = full_rank_matrix(np.random.default_rng(10 * p + rows), p, rows, 9)
    masks, top = range(1 << 9), full_mask(9)
    parity, code = from_parity_check(mat), from_generator(mat)
    assert parity._words[0] is row_side and code._words[0] is not row_side
    assert parity.ranks(masks).tolist() == [field_rank(columns(mat, m)) for m in masks]
    # the code's matroid is the dual of the column matroid of its generator
    assert code.ranks(masks).tolist() == [
        popcount(m) + field_rank(columns(mat, top & ~m)) - rows for m in masks
    ]


def test_word_cap_decides_the_rank_route(monkeypatch):
    eliminated = []
    real = kernels.column_ranks
    monkeypatch.setattr(kernels, "column_ranks", lambda *a: eliminated.append(1) or real(*a))
    rng = np.random.default_rng(12)
    d = WORD_CAP.bit_length() - 1  # WORD_CAP = 2^d

    def systematic(k):  # [I | R] over GF(2): both lists hold 2^k words
        return FieldMatrix(2, np.hstack([np.eye(k, dtype=int), rng.integers(0, 2, size=(k, k))]))

    # one word over GF(65521) is already past the cap
    cases = [(systematic(d), True), (systematic(d + 1), False),
             (FieldMatrix(65521, [[1, 2, 3], [4, 5, 65520]]), False)]
    for mat, counted in cases:
        M = from_parity_check(mat)
        eliminated.clear()
        masks = [0, full_mask(M.n)] + [int(x) for x in rng.integers(0, 1 << M.n, size=300)]
        assert M.ranks(masks).tolist() == [field_rank(columns(mat, m)) for m in masks]
        assert (M._words is not None) is counted and bool(eliminated) is not counted


@pytest.mark.parametrize("fixture, most", [
    ("ternary84_parity.json", 1), ("ternary84.json", 1), ("ternary84_code.txt", 1),
    ("ternary84_dual.json", 1), ("p65521.json", 1), ("ternary84_parity_code.txt", 1),
])
def test_one_reduction_per_linear_input(fixture, most, monkeypatch):
    calls = []
    real = kernels.rref_mod_p
    monkeypatch.setattr(kernels, "rref_mod_p", lambda *a: calls.append(1) or real(*a))
    configs = [RunConfig(command, str(FIXTURES / fixture)) for command in COMMANDS
               if command != "strands"]
    for config in configs + [RunConfig("betti", str(FIXTURES / fixture), values=True)]:
        calls.clear()
        assert run(config)[0] == 0
        assert 1 <= len(calls) <= most


def test_kernel_words_listed_once(tmp_path, monkeypatch):
    # rank 6 of 9 over GF(2): ranks count the 2^3 kernel words, and circuits
    # are their minimal supports
    mat = full_rank_matrix(np.random.default_rng(9), 2, 6, 9)
    path = tmp_path / "parity.json"
    path.write_text(json.dumps({"type": "linear", "p": 2, "matrix": mat.data.tolist()}))
    listed = []
    real = kernels.word_supports
    monkeypatch.setattr(kernels, "word_supports", lambda *a: listed.append(a[0]) or real(*a))
    for command in ("weights", "wei", "validate"):
        listed.clear()
        assert run(RunConfig(command, str(path)))[0] == 0
        assert len(listed) == 1 and listed[0].shape == (3, 9)


def subset_route(M):
    """M's ranks as the rank-formula dual of its dual, which lists no words:
    circuits() enumerates subsets for it."""
    return DualMatroid(M.dual())


@pytest.mark.parametrize("seed", range(12))
def test_circuits_from_words_equal_circuits_from_subsets(seed, monkeypatch):
    # kernels of dimension 1-3 over GF(2)/GF(3): the words are priced cheaper
    # than the subsets, and the ranks are counted
    rng = np.random.default_rng(500 + seed)
    p, n, k = (2, 3)[seed % 2], int(rng.integers(7, 12)), 1 + seed % 3
    matroids = [from_parity_check(full_rank_matrix(rng, p, n - k, n)),
                from_generator(full_rank_matrix(rng, p, k, n))]
    if seed == 0:
        matroids.append(from_generator(FieldMatrix(3, TERNARY84_GENERATOR_ROWS)))
    for M in matroids:
        oracle, masks = subset_route(M), range(1 << M.n)
        want_circuits, want_ranks = circuits(oracle), oracle.ranks(masks).tolist()
        want_levels = bruteforce_ladder(oracle).levels

        def refuse(*args):
            raise AssertionError("subset enumeration or elimination ran")

        with monkeypatch.context() as patch:
            patch.setattr(kernels, "subsets", refuse)
            patch.setattr(kernels, "column_ranks", refuse)
            assert circuits(M) == want_circuits
            assert M.ranks(masks).tolist() == want_ranks
            assert ladder(M).levels == want_levels


def test_circuit_routes_priced_before_any_work(monkeypatch):
    # the binary simplex [31,5] generator is the Hamming [31,26] parity check
    simplex = FieldMatrix(2, [[j >> i & 1 for j in range(1, 32)] for i in range(5)])
    hamming, code = from_parity_check(simplex), from_generator(simplex)
    # sum C(31, s) for s <= 6, against 2^26 kernel words
    subsets = sum(comb(31, s) for s in range(1, 7))
    assert subsets == 942_648

    def refuse(*args):
        raise AssertionError("work before the cap check")

    with monkeypatch.context() as patch:
        for name in ("subsets", "word_supports", "contains_any", "column_ranks", "subset_sums"):
            patch.setattr(kernels, name, refuse)
        with pytest.raises(CapExceeded, match=f"more than {subsets - 1} subsets"):
            circuits(hamming, cap=subsets - 1)
        # the simplex code's 32 words against every subset of up to 27 elements
        with pytest.raises(CapExceeded, match="more than 31 subsets"):
            circuits(code, cap=31)
    found = circuits(code, cap=32)
    assert len(found) == 31 and {popcount(c) for c in found} == {16}
    assert code.full_rank == 26 and code._words[0] is False


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
