"""Cycle ladder generation against the exhaustive-scan oracle, antichain and
cover structure, cycle detection."""

from __future__ import annotations

from math import comb

import numpy as np
import pytest

from matgreedy import kernels
from matgreedy.errors import CapExceeded, InputError, InvariantError
from matgreedy.ladder import circuits, ladder, unions
from matgreedy.masks import (
    from_labels,
    full_mask,
    is_subset,
    popcount,
    to_labels,
)
from matgreedy.matroid import from_circuits, from_parity_check, uniform
from matgreedy.gfp import FieldMatrix
from tests.conftest import random_field_matrix, random_matroid
from tests.ladder_oracle import (
    bruteforce_ladder,
    is_cycle,
    nullity,
    singletons,
    unchecked_circuits,
)

# breaks circuit elimination ({1,3} and {3,4} share 3, but {1,4} holds no
# circuit); past that check, its greedy ranks give a top level of nullity 2
# that is not E minus the coloops
PLANTED = (4, [[3, 4], [2], [1, 3]])


def test_free_matroid_empty_ladder():
    M = from_parity_check(FieldMatrix(2, np.eye(3, dtype=int)))
    assert circuits(M) == ()
    assert ladder(M).t == 0
    assert ladder(M).levels == ()


def test_uniform24_ladder():
    lad = ladder(uniform(2, 4))
    assert lad.t == 2
    assert [to_labels(m) for m in lad.levels[0]] == [
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
    ]
    assert lad.levels[1] == (full_mask(4),)


def test_ternary84_ladder_level_sizes(ternary84):
    # direct-sum structure: the {1..4} block contributes minimal sets
    # (3 circuits, 1 nullity-2 set), the {5..8} block (4 circuits, 1);
    # level i counts are the convolution of the two block profiles
    lad = ladder(ternary84)
    assert lad.t == 4
    assert [len(lv) for lv in lad.levels] == [7, 3 * 4 + 1 + 1, 3 * 1 + 1 * 4, 1]
    assert from_labels([5, 6, 7, 8]) in lad.levels[1]
    assert from_labels([1, 2, 3, 4]) in lad.levels[1]
    assert lad.levels[3] == (full_mask(8),)


def test_m23_circuit_count(m23):
    circ = circuits(m23)
    assert len(circ) == 3 + comb(11, 9)
    assert sorted(popcount(c) for c in circ) == [8, 8, 8] + [9] * 55


def test_m23_level_sizes_against_counting_oracle(m23):
    # block 1 ({1..12}) minimal-set counts per nullity: 3 circuits, then 1;
    # block 2 (U_{8,11} on {13..23}) counts: C(11,9), C(11,10), C(11,11);
    # the direct sum convolves the profiles
    b1 = {0: 1, 1: 3, 2: 1}
    b2 = {0: 1, 1: comb(11, 9), 2: comb(11, 10), 3: comb(11, 11)}
    expected = []
    for level in range(1, 6):
        total = sum(
            b1.get(i, 0) * b2.get(level - i, 0) for i in range(level + 1)
        )
        expected.append(total)
    assert expected == [58, 177, 89, 14, 1]
    lad = ladder(m23)
    assert [len(lv) for lv in lad.levels] == expected


def test_ladder_matches_bruteforce_corpus(small_corpus):
    for M in small_corpus:
        if M.n > 10:
            continue
        assert ladder(M).levels == bruteforce_ladder(M).levels


def test_ladder_matches_bruteforce_random():
    rng = np.random.default_rng(91)
    for _ in range(40):
        M = random_matroid(rng, int(rng.integers(2, 11)))
        assert ladder(M).levels == bruteforce_ladder(M).levels


def test_levels_are_antichains_of_right_nullity(small_corpus):
    for M in small_corpus:
        lad = ladder(M)
        for i, level in enumerate(lad.levels, start=1):
            for mask in level:
                assert nullity(M, mask) == i
            for a in level:
                for b in level:
                    if a != b:
                        assert not is_subset(a, b)


def test_every_member_covers_something_below(small_corpus):
    for M in small_corpus:
        lad = ladder(M)
        for i in range(2, lad.t + 1):
            below = lad.levels[i - 2]
            for mu in lad.levels[i - 1]:
                assert any(is_subset(rho, mu) for rho in below)


def test_each_level_member_is_union_of_lower_and_circuit(small_corpus):
    for M in small_corpus:
        lad = ladder(M)
        circ = circuits(M)
        for i in range(2, lad.t + 1):
            for mu in lad.levels[i - 1]:
                assert any(
                    rho | c == mu
                    for rho in lad.levels[i - 2]
                    if is_subset(rho, mu)
                    for c in circ
                    if is_subset(c, mu)
                )


def test_is_cycle_fixture_cases(ternary84):
    masks = [from_labels([1, 2]), 0, from_labels([1, 2, 3])]
    assert is_cycle(ternary84, masks) == [(True, 1), (False, 0), (False, 1)]
    assert is_cycle(ternary84, []) == []
    # masks outside E are refused, a negative one included
    for bad in (-1, 1 << 8):
        with pytest.raises(InputError):
            is_cycle(ternary84, [bad])


def test_is_cycle_matches_ladder_membership(small_corpus, monkeypatch):
    rng = np.random.default_rng(616)
    pool = list(small_corpus) + [
        random_matroid(rng, int(rng.integers(10, 13))) for _ in range(6)
    ]
    for M in pool:
        if M.n > 12:
            continue
        lad = ladder(M)
        calls = []
        ranks = M.ranks
        monkeypatch.setattr(M, "ranks", lambda masks: calls.append(1) or ranks(masks))
        verdicts = is_cycle(M, range(1 << M.n))
        for mask, (verdict, nl) in enumerate(verdicts):
            assert verdict == (nl >= 1 and mask in lad.levels[nl - 1])
        # one rank query for the whole batch
        assert len(calls) == 1


def covers(M, l: int, rho: int) -> tuple[int, ...]:
    """Members of ladder level l + 1 strictly containing rho."""
    return tuple(mu for mu in ladder(M).levels[l] if is_subset(rho, mu) and mu != rho)


def test_covers_fixture_cases(ternary84, m23):
    cov = covers(ternary84, 1, from_labels([1, 2]))
    assert from_labels([1, 2, 3, 4]) in cov
    for u in covers(uniform(2, 4), 1, from_labels([1, 2, 3])):
        assert u == full_mask(4)
    cov23 = covers(m23, 1, from_labels(range(1, 9)))
    assert len(cov23) == 1 + comb(11, 9)
    assert from_labels(range(1, 13)) in cov23


def test_covers_rejects_non_ladder_member(ternary84):
    # {1,2,3} sits on no level, and the top level has no level above it
    lad = ladder(ternary84)
    assert not any(from_labels([1, 2, 3]) in level for level in lad.levels)
    with pytest.raises(IndexError):
        covers(ternary84, lad.t, full_mask(8))


def test_covers_nonempty_below_top(small_corpus):
    for M in small_corpus:
        lad = ladder(M)
        for i in range(1, lad.t):
            for rho in lad.levels[i - 1]:
                assert covers(M, i, rho)


def test_max_chain_reaches_corank(small_corpus):
    # the top level is the one cycle of nullity t: E minus the coloops of M
    rng = np.random.default_rng(4242)
    pool = list(small_corpus) + [
        random_matroid(rng, int(rng.integers(2, 11))) for _ in range(30)
    ]
    for M in pool:
        lad = ladder(M)
        if lad.t:
            E = full_mask(M.n)
            coloops = [b for b in singletons(E) if M.rank(E & ~b) < M.full_rank]
            assert lad.levels[-1] == (E & ~sum(coloops),)


def test_bruteforce_cap():
    with pytest.raises(CapExceeded):
        bruteforce_ladder(uniform(3, 12), cap=100)


def test_ladder_generation_cap(m23):
    M = from_circuits(23, [to_labels(c) for c in circuits(m23)])
    with pytest.raises(CapExceeded):
        ladder(M, cap=50)


def test_dump_format_sorted(ternary84):
    doc = ladder(ternary84).to_json_dict()
    level1 = doc["levels"][0]
    assert level1[0] == [1, 2]
    assert all(lv == sorted(lv) for lv in level1)


@pytest.mark.parametrize("seed", range(6))
def test_capped_unions_trip_exactly_when_all_unions_exceed_the_cap(seed):
    # merges happen at max(cap, twice the last merge) held sets, so a cap
    # may trip at any chunk; the verdict is that of the full count
    rng = np.random.default_rng(seed)
    prev = np.unique(rng.integers(0, 1 << 20, size=3000).astype(np.uint64))
    grow = np.uint64(1) << np.arange(20, dtype=np.uint64)
    every = unions(prev, grow)
    for cap in (100, 5000, every.size // 2, every.size - 1, every.size, 2 * every.size):
        got = unions(prev, grow, cap)
        assert (got.size > cap) is (every.size > cap)
        assert np.isin(got, every).all()
        if every.size <= cap:
            assert got.tolist() == every.tolist()
        else:
            # stopped at a merge: fewer sets than the full count, but sorted and distinct
            assert got.size <= every.size and (np.diff(got.astype(np.int64)) > 0).all()


def test_ladder_top_level_guard(monkeypatch):
    # circuits() refuses the list; past that check, the ladder's own
    # invariant still catches it, from the cycle table (2^4 masks fit in a
    # chunk) and from the unions, which a smaller chunk forces
    with pytest.raises(InputError, match="holds no circuit"):
        ladder(from_circuits(*PLANTED))
    for chunk in (kernels.CHUNK_ENTRIES, 8):
        monkeypatch.setattr(kernels, "CHUNK_ENTRIES", chunk)
        with pytest.raises(InvariantError, match="level 2 is not the single set E minus the coloops"):
            ladder(unchecked_circuits(*PLANTED))


def route_corpus() -> list:
    """Parity checks over GF(2) and GF(3), their circuit lists, their duals
    and uniform matroids: one form for each n in 4..13, every form at n = 14."""
    rng = np.random.default_rng(2314)
    out = []
    for n in range(4, 15):
        rows = int(rng.integers(n // 3, n - n // 3 + 1))
        M = from_parity_check(random_field_matrix(rng, 2 + n % 2, rows, n))
        forms = [M, from_circuits(n, [to_labels(c) for c in circuits(M)]), M.dual(),
                 uniform(n - 3, n)]
        out += forms if n == 14 else [forms[n % 4]]
    return out + [uniform(2, 9)]


def test_cycle_table_matches_the_unions_and_bruteforce(monkeypatch):
    # the same inputs, built twice: ladders from the 2^n cycle table (or the
    # 2^k circuit unions), then from the unions of each level with the
    # circuits, forced by a chunk smaller than any 2^n here
    built = []
    cycle_masks = kernels.cycle_masks
    monkeypatch.setattr(kernels, "cycle_masks", lambda *a: built.append(1) or cycle_masks(*a))
    tables = [ladder(M) for M in route_corpus()]
    assert len(built) == len(tables)
    monkeypatch.setattr(kernels, "CHUNK_ENTRIES", 8)
    for M, table in zip(route_corpus(), tables):
        assert ladder(M).levels == table.levels, M
        assert table.levels == bruteforce_ladder(M).levels, M
    assert len(built) == len(tables)


def test_cycle_table_trips_the_cap_before_any_table(monkeypatch, ternary84):
    def refuse(*args):
        raise AssertionError("built a table past the cap")

    lists = [from_circuits(8, [to_labels(c) for c in circuits(ternary84)]) for _ in range(2)]
    with monkeypatch.context() as patched:
        for name in ("cycle_masks", "circuit_meet_table", "subsets"):
            patched.setattr(kernels, name, refuse)
        for M in (uniform(5, 14), lists[0], from_parity_check(FieldMatrix(2, np.eye(3, dtype=int)))):
            with pytest.raises(CapExceeded, match=f"all 2\\^{M.n} subsets"):
                ladder(M, cap=(1 << M.n) - 1)
    assert ladder(lists[1], cap=1 << 8).levels == ladder(ternary84).levels
