"""Betti support/values against the homology oracle, the oracle's exactness,
strand predicates, and resolution shapes."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np
import pytest

from matgreedy import betti as betti_mod
from matgreedy.betti import (
    betti_support,
    betti_values,
    resolution_shape,
    strand_check,
    strand_nonzero,
)
from matgreedy.cli import RunConfig, run
from matgreedy.errors import CapExceeded, InputError, InvariantError
from matgreedy.ladder import ladder
from matgreedy.masks import from_labels, full_mask, popcount
from matgreedy.matroid import from_circuits, uniform
from matgreedy.weights import (
    greedy_bottom_up,
    greedy_cez,
    greedy_top_down,
    hamming_weights,
    is_chained,
)
from tests.conftest import FIXTURES, random_matroid
from tests.homology_oracle import (
    exact_rank,
    faces_of_size,
    reduced_betti_all,
    reduced_betti_single,
)
from tests.ladder_oracle import unchecked_circuits
from tests.paper_oracle import greedy_from_strands

E8 = full_mask(8)


def fraction_rank(rows) -> int:
    """Plain Gaussian elimination over the rationals; slow but obviously
    correct, used to validate the oracle's fraction-free elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    m = len(mat)
    if m == 0:
        return 0
    n = len(mat[0])
    rank = 0
    for c in range(n):
        piv = next((i for i in range(rank, m) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pivot = mat[rank][c]
        for i in range(m):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c] / pivot
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def test_exact_rank_against_fraction_oracle():
    rng = np.random.default_rng(33)
    for _ in range(200):
        m = int(rng.integers(1, 8))
        n = int(rng.integers(1, 8))
        mat = rng.integers(-4, 5, size=(m, n)).tolist()
        assert exact_rank(mat) == fraction_rank(mat)


def test_exact_rank_degenerate():
    assert exact_rank([]) == 0
    assert exact_rank([[]]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0


# -- reference multigraded values for the [8,4] ternary example ------------

TERNARY84_MULTIGRADED = {
    # level 1: one generator per circuit
    (1, (1, 2)): 1,
    (1, (1, 3, 4)): 1,
    (1, (2, 3, 4)): 1,
    (1, (5, 6, 7)): 1,
    (1, (5, 6, 8)): 1,
    (1, (5, 7, 8)): 1,
    (1, (6, 7, 8)): 1,
    # level 2: twelve mixed circuit unions plus the two block cycles
    (2, (1, 2, 3, 4)): 2,
    (2, (5, 6, 7, 8)): 3,
    (2, (1, 2, 5, 6, 7)): 1,
    (2, (1, 2, 5, 6, 8)): 1,
    (2, (1, 2, 5, 7, 8)): 1,
    (2, (1, 2, 6, 7, 8)): 1,
    (2, (1, 3, 4, 5, 6, 7)): 1,
    (2, (1, 3, 4, 5, 6, 8)): 1,
    (2, (1, 3, 4, 5, 7, 8)): 1,
    (2, (1, 3, 4, 6, 7, 8)): 1,
    (2, (2, 3, 4, 5, 6, 7)): 1,
    (2, (2, 3, 4, 5, 6, 8)): 1,
    (2, (2, 3, 4, 5, 7, 8)): 1,
    (2, (2, 3, 4, 6, 7, 8)): 1,
    # level 3
    (3, (1, 2, 5, 6, 7, 8)): 3,
    (3, (1, 3, 4, 5, 6, 7, 8)): 3,
    (3, (2, 3, 4, 5, 6, 7, 8)): 3,
    (3, (1, 2, 3, 4, 5, 6, 7)): 2,
    (3, (1, 2, 3, 4, 5, 6, 8)): 2,
    (3, (1, 2, 3, 4, 5, 7, 8)): 2,
    (3, (1, 2, 3, 4, 6, 7, 8)): 2,
    # level 4
    (4, (1, 2, 3, 4, 5, 6, 7, 8)): 6,
}


def test_ternary84_acceptance_values(ternary84):
    values = betti_values(ternary84).values
    assert values[(2, from_labels([1, 2, 3, 4]))] == 2
    assert values[(2, from_labels([5, 6, 7, 8]))] == 3
    assert values[(4, E8)] == 6


def test_ternary84_full_multigraded_table(ternary84):
    diagram = betti_values(ternary84)
    got = {
        (i, tuple(sorted(lab for lab in _labels(mask)))): val
        for (i, mask), val in diagram.values.items()
        if i >= 1
    }
    assert got == TERNARY84_MULTIGRADED
    assert diagram.values[(0, 0)] == 1


def _labels(mask: int):
    out = []
    b = 1
    lab = 1
    while b <= mask:
        if mask & b:
            out.append(lab)
        b <<= 1
        lab += 1
    return out


def test_unit_betti_first_level(ternary84):
    # every circuit carries a rank-one generator
    values = betti_values(ternary84).values
    for c in ladder(ternary84).levels[0]:
        assert values[(1, c)] == 1


def test_support_equals_ladder(ternary84):
    diagram = betti_support(ternary84)
    lad = ladder(ternary84)
    assert diagram.levels[0] == (0,)
    assert diagram.levels[1:] == lad.levels
    assert tuple(popcount(lv[0]) for lv in diagram.levels[1:]) == hamming_weights(ternary84)


def test_min_table_degree_is_hamming(small_corpus):
    for M in small_corpus:
        levels = betti_support(M).levels
        assert tuple(popcount(lv[0]) for lv in levels[1:]) == hamming_weights(M)


def test_full_support_oracle_small(small_corpus):
    # Betti support computed by homology over all subsets equals the ladder
    for M in small_corpus:
        if M.n > 6:
            continue
        lad = ladder(M)
        for mask in range(1 << M.n):
            hom = reduced_betti_all(M, mask)
            for i in range(0, lad.t + 1):
                value = hom.get(popcount(mask) - i - 1, 0)
                if i == 0:
                    assert (value != 0) == (mask == 0)
                else:
                    assert (value != 0) == (mask in lad.levels[i - 1])


def test_support_off_levels_is_zero(ternary84):
    values = betti_values(ternary84).values
    assert values.get((2, from_labels([1, 2, 3])), 0) == 0
    assert values.get((3, E8), 0) == 0
    assert values.get((5, E8), 0) == 0
    assert values.get((0, from_labels([1])), 0) == 0


def test_betti_value_cap():
    M = uniform(10, 20)
    with pytest.raises(CapExceeded):
        betti_values(M)


def test_mobius_values_match_homology_oracle(small_corpus):
    # every (i, X), on and off the support, for the small corpus
    for M in small_corpus:
        if M.n > 6:
            continue
        t = ladder(M).t
        values = betti_values(M).values
        for X in range(1 << M.n):
            for i in range(t + 2):
                want = reduced_betti_single(M, X, popcount(X) - i - 1)
                assert values.get((i, X), 0) == want, (M.n, i, X)
    # every support pair of seeded random matroids up to n = 8
    rng = np.random.default_rng(5150)
    for _ in range(40):
        M = random_matroid(rng, int(rng.integers(2, 9)))
        values = betti_values(M).values
        for (i, X), val in values.items():
            want = reduced_betti_single(M, X, popcount(X) - i - 1)
            assert val == want, (M.n, i, X)


def hilbert_numerator_order(table: dict[tuple[int, int], int]) -> int:
    """Order of vanishing at t = 1 of K(t) = sum (-1)^i beta_{i,j} t^j.

    K(t) is the numerator of the Hilbert series over (1 - t)^n of a ring of
    Krull dimension rank, so the order is the corank whatever the values'
    provenance.  The k-th Taylor coefficient at 1 is sum_j c_j C(j, k).
    """
    coeffs: dict[int, int] = {}
    for (i, j), beta in table.items():
        coeffs[j] = coeffs.get(j, 0) + (-1) ** i * beta
    k = 0
    while sum(c * comb(j, k) for j, c in coeffs.items()) == 0:
        k += 1
    return k


def test_values_satisfy_hilbert_series_identity(ternary84, small_corpus):
    for M in [ternary84] + small_corpus:
        table = betti_values(M).table_values()
        assert hilbert_numerator_order(table) == M.corank


def test_mobius_int64_guard(monkeypatch, ternary84):
    # before level 2 the lower |mu| sum is 1 + 7 circuits = 8
    monkeypatch.setattr(betti_mod, "MOBIUS_SUM_CAP", 8)
    with pytest.raises(CapExceeded, match="level 2"):
        betti_values(ternary84)
    path = str(FIXTURES / "ternary84.json")
    status, out = run(RunConfig(command="betti", input_path=path, values=True))
    assert status == 3 and "int64" in out


# breaks circuit elimination; past that check, mu(0, {1,2,3,4}) comes out 0,
# which no geometric lattice has
MOBIUS_PLANTED = (4, [[1, 2], [1, 3], [1, 4], [2, 3, 4]])


def test_mobius_sign_guard():
    with pytest.raises(InputError, match="holds no circuit"):
        betti_values(from_circuits(*MOBIUS_PLANTED))
    with pytest.raises(InvariantError, match=r"\(3, \(1, 2, 3, 4\)\) has mu = 0"):
        betti_values(unchecked_circuits(*MOBIUS_PLANTED))


def test_strand_nonzero_cases(ternary84):
    assert strand_nonzero(ternary84, 2, from_labels([1, 2]), from_labels([1, 2, 3, 4]))
    assert not strand_nonzero(ternary84, 2, from_labels([1, 2]), from_labels([5, 6, 7, 8]))
    assert strand_nonzero(
        ternary84, 3, from_labels([1, 2, 3, 4]), from_labels([1, 2, 3, 4, 6, 7, 8])
    )
    assert strand_nonzero(ternary84, 1, 0, from_labels([1, 2]))
    assert not strand_nonzero(ternary84, 1, from_labels([1]), from_labels([1, 2]))
    assert not strand_nonzero(ternary84, 5, from_labels([1, 2]), E8)


def test_strand_check_reference_chain(ternary84):
    chain = (
        from_labels([1, 2]),
        from_labels([1, 2, 3, 4]),
        from_labels([1, 2, 3, 4, 6, 7, 8]),
        E8,
    )
    assert strand_check(ternary84, chain)


def test_strand_check_broken_chain(ternary84):
    # inclusion fails at the second step, so the strand has a zero map
    chain = (
        from_labels([1, 2]),
        from_labels([5, 6, 7, 8]),
        from_labels([1, 2, 5, 6, 7, 8]),
        E8,
    )
    assert not strand_check(ternary84, chain)
    # a middle set that is not a ladder member also kills the strand
    chain2 = (
        from_labels([1, 3, 4]),
        from_labels([1, 2, 3, 4]),
        from_labels([1, 2, 3, 4, 5]),
        E8,
    )
    assert not strand_check(ternary84, chain2)


def test_strand_check_uniform():
    M = uniform(2, 4)
    assert strand_check(M, (from_labels([1, 2, 3]), full_mask(4)))


def test_strand_check_degree_form(ternary84):
    # a total-degree strand is nonzero iff some set strand of those
    # cardinalities is
    lad = ladder(ternary84)

    def some_strand(degrees) -> bool:
        chains = [()]
        for level, q in zip(lad.levels, degrees):
            chains = [c + (mu,) for c in chains for mu in level if popcount(mu) == q]
        return any(strand_check(ternary84, c) for c in chains)

    assert some_strand((2, 4, 7, 8))
    assert some_strand((3, 4, 6, 8))
    assert not some_strand((2, 4, 5, 8))


def test_strand_check_wrong_length(ternary84):
    with pytest.raises(InputError):
        strand_check(ternary84, (from_labels([1, 2]),))


def test_greedy_from_strands_matches_weights(ternary84, m23, small_corpus):
    for M in [ternary84, m23] + small_corpus:
        e, et, g = greedy_from_strands(M)
        assert e == greedy_bottom_up(M)[0]
        assert et == greedy_top_down(M)[0]
        assert g == greedy_cez(M)[0]


def test_greedy_from_strands_random():
    rng = np.random.default_rng(404)
    for _ in range(30):
        M = random_matroid(rng, int(rng.integers(2, 10)))
        e, et, g = greedy_from_strands(M)
        assert e == greedy_bottom_up(M)[0]
        assert et == greedy_top_down(M)[0]
        assert g == greedy_cez(M)[0]


def test_resolution_shapes(ternary84):
    shape = resolution_shape(uniform(2, 4))
    assert shape.pure and shape.linear and shape.degrees == (3, 4)
    shape8 = resolution_shape(ternary84)
    assert not shape8.pure and not shape8.linear and shape8.degrees is None
    loops = uniform(0, 4)
    shape0 = resolution_shape(loops)
    assert shape0.pure and shape0.linear and shape0.degrees == (1, 2, 3, 4)


def test_uniform_matroids_linear_resolution():
    for n in range(2, 9):
        for r in range(n):
            shape = resolution_shape(uniform(r, n))
            assert shape.pure and shape.linear


def test_purity_implies_chained(small_corpus):
    rng = np.random.default_rng(777)
    pool = list(small_corpus) + [
        random_matroid(rng, int(rng.integers(2, 10))) for _ in range(30)
    ]
    for M in pool:
        if resolution_shape(M).pure:
            assert is_chained(M)[0]


def test_values_match_euler_characteristic(ternary84, small_corpus):
    # restrictions to ladder members are coloop-free matroid complexes, so
    # homology is concentrated in the top degree and the value must equal
    # the reduced Euler characteristic up to sign -- a pure face count,
    # independent of any boundary-rank computation
    for M in [ternary84] + [N for N in small_corpus if N.n <= 8]:
        lad = ladder(M)
        values = betti_values(M).values
        for i, level in enumerate(lad.levels, start=1):
            for mask in level:
                counts = [
                    len(faces_of_size(M, mask, s))
                    for s in range(M.rank(mask) + 1)
                ]
                chi_reduced = sum((-1) ** s * c for s, c in enumerate(counts))
                assert values[(i, mask)] == abs(chi_reduced)


def test_greedy_degrees_sit_in_table_support(small_corpus):
    # every greedy weight is the cardinality of some support set at its level
    from matgreedy.weights import weight_report

    for M in small_corpus:
        table = set(betti_support(M).table_support())
        report = weight_report(M)
        for i in range(1, report.t + 1):
            assert (i, report.e[i - 1]) in table
            assert (i, report.e_tilde[i - 1]) in table
            assert (i, report.g[i - 1]) in table
            assert (i, report.d[i - 1]) in table


def test_top_index_and_aggregated_table(ternary84):
    diagram = betti_values(ternary84)
    table = diagram.table_values()
    assert table[(4, 8)] == 6
    assert table[(2, 4)] == 5
    assert table[(3, 7)] == 14
    assert max(i for i, _ in table) == ladder(ternary84).t
    assert table[(0, 0)] == 1
