"""Matroid constructors, rank/nullity oracles, duality, axiom validation,
and the JSON descriptor format."""

from __future__ import annotations

import numpy as np
import pytest

from matgreedy import kernels
from matgreedy import matroid as matroid_mod
from matgreedy.errors import CapExceeded, InputError
from matgreedy.gfp import FieldMatrix
from matgreedy.ladder import circuits
from matgreedy.masks import from_labels, full_mask, popcount, to_labels
from matgreedy.matroid import (
    DualMatroid,
    LinearMatroid,
    Matroid,
    from_circuits,
    from_descriptor,
    from_generator,
    from_parity_check,
    uniform,
    validate_axioms,
)
from tests.conftest import (
    TERNARY84_GENERATOR_ROWS,
    elimination_failure,
    random_code,
    random_field_matrix,
    random_matroid,
    sweep_circuit_lists,
)
from tests.ladder_oracle import nullity
from tests.paper_oracle import kernel_basis


class TableMatroid(Matroid):
    """Rank table in a dict; lets tests plant arbitrary (invalid) oracles."""

    kind = "table"

    def __init__(self, n: int, table: dict[int, int]):
        super().__init__(n)
        self.table = table

    def _ranks(self, masks: np.ndarray) -> np.ndarray:
        return np.array([self.table[m] for m in masks.tolist()], dtype=np.int64)


def all_masks(n: int):
    return range(1 << n)


def test_free_matroid_from_identity_parity():
    M = from_parity_check(FieldMatrix(2, np.eye(3, dtype=int)))
    assert M.full_rank == 3 and M.corank == 0
    assert circuits(M) == ()


def test_parallel_columns_single_circuit():
    M = from_parity_check(FieldMatrix(2, [[1, 1]]))
    assert M.full_rank == 1
    assert circuits(M) == (from_labels([1, 2]),)


def test_ternary84_circuits(ternary84):
    expected = {
        (1, 2),
        (1, 3, 4),
        (2, 3, 4),
        (5, 6, 7),
        (5, 6, 8),
        (5, 7, 8),
        (6, 7, 8),
    }
    assert {to_labels(c) for c in circuits(ternary84)} == expected


def test_ternary84_from_parity_check_agrees(ternary84, ternary84_generator):
    h = kernel_basis(ternary84_generator)
    M2 = from_parity_check(h)
    for mask in all_masks(8):
        assert M2.rank(mask) == ternary84.rank(mask)


def test_from_generator_identity_all_cycles():
    M = from_generator(FieldMatrix(2, np.eye(3, dtype=int)))
    assert M.full_rank == 0 and M.corank == 3
    for lab in range(1, 4):
        assert nullity(M, from_labels([lab])) == 1


def test_from_generator_repetition_code():
    M = from_generator(FieldMatrix(2, [[1, 1, 1]]))
    assert circuits(M) == (from_labels([1, 2, 3]),)


def test_from_circuits_loop():
    M = from_circuits(3, [[1]])
    assert M.full_rank == 2
    assert M.rank(from_labels([1])) == 0


def test_from_circuits_uniform24_via_triples():
    M = from_circuits(4, [list(c) for c in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]])
    U = uniform(2, 4)
    for mask in all_masks(4):
        assert M.rank(mask) == U.rank(mask)


def test_from_circuits_rejects_non_antichain():
    with pytest.raises(InputError):
        from_circuits(4, [[1, 2], [1, 2, 3]])
    with pytest.raises(InputError):
        from_circuits(4, [[]])
    # of several nested pairs, the message names the first in (cardinality,
    # mask) order: smaller member first, then larger
    with pytest.raises(InputError, match=r"\(1, 2\) contained in \(1, 2, 3\)$"):
        from_circuits(4, [[3, 4], [1, 2, 3, 4], [1, 2], [1, 2, 3]])


def test_antichain_refusal_matches_pairwise_definition():
    """Acceptance, and the pair a refusal names, agree with the scan of every
    pair of distinct circuits in (cardinality, mask) order."""
    rng = np.random.default_rng(16)
    refused = 0
    for _ in range(400):
        n = int(rng.integers(3, 9))
        masks = rng.integers(1, 1 << n, int(rng.integers(1, 9))).tolist()
        circs = sorted(set(masks), key=lambda c: (popcount(c), c))
        first = next(
            ((a, b) for i, a in enumerate(circs) for b in circs[i + 1 :] if a & ~b == 0),
            None,
        )
        if first is None:
            assert from_circuits(n, masks)._circ_arr.tolist() == circs
            continue
        refused += 1
        with pytest.raises(InputError) as exc:
            from_circuits(n, masks)
        a, b = first
        assert str(exc.value) == (
            f"circuit list is not an antichain: {to_labels(a)} contained in {to_labels(b)}"
        )
    assert 0 < refused < 400


def _elimination_verdict(n, circs):
    """The circuits circuits() hands out, or the message it refuses them with."""
    try:
        return circuits(from_circuits(n, circs))
    except InputError as exc:
        return str(exc)


def test_elimination_refusal_matches_pairwise_definition(monkeypatch):
    """Acceptance, and the pair and element a refusal names, agree with the
    scan of every pair of circuits and shared element, on the rank-table
    route and on the containment route."""
    lists = [(d["n"], d["circuits"]) for d in sweep_circuit_lists()]
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(8, 11))
        drawn = set(rng.integers(1, 1 << n, int(rng.integers(2, 12))).tolist())
        anti = [c for c in drawn if not any(o != c and o & ~c == 0 for o in drawn)]
        lists.append((n, [to_labels(c) for c in anti]))
    by_table = [_elimination_verdict(n, circs) for n, circs in lists]
    monkeypatch.setattr(kernels, "CHUNK_ENTRIES", 4)  # below 2^3: no rank table
    monkeypatch.setattr(kernels, "circuit_meet_table", lambda *a: pytest.fail("table built"))
    assert [_elimination_verdict(n, circs) for n, circs in lists] == by_table
    refused = 0
    for (n, circs), verdict in zip(lists, by_table):
        failure = elimination_failure(circs)
        if failure is None:
            want = sorted({from_labels(c) for c in circs}, key=lambda c: (popcount(c), c))
            assert verdict == tuple(want)
            continue
        refused += 1
        a, b, e = failure
        assert verdict == (
            f"circuits {list(to_labels(a))} and {list(to_labels(b))} share "
            f"{to_labels(e)[0]}, but {list(to_labels((a | b) & ~e))} holds no circuit"
        )
    assert refused > 150


def test_elimination_is_decided_once_under_its_cap(monkeypatch):
    # U(5,7)'s circuits are the seven 6-subsets; any two meet, with union E:
    # the table route reads the 21 unions, and the containment route tests
    # the one distinct union against each circuit
    want = circuits(uniform(5, 7))
    C = from_circuits(7, want)
    with pytest.raises(CapExceeded, match="more than 20 union tests"):
        circuits(C, cap=20)
    assert C._circuits is None
    first = circuits(C, cap=21)
    # decided once: a second call neither checks nor reads its cap
    assert first == want and circuits(C, cap=1) is first
    monkeypatch.setattr(kernels, "CHUNK_ENTRIES", 64)
    D = from_circuits(7, want)
    with pytest.raises(CapExceeded, match="more than 6 union tests"):
        circuits(D, cap=6)
    assert circuits(D, cap=7) == want


def test_elimination_tests_each_distinct_union_once():
    # U(12,16) as a list: 560 circuits, whose 156,520 pairs have 137 distinct
    # unions, so the containment route stays far below the default cap
    want = circuits(uniform(12, 16))
    assert circuits(from_circuits(16, want)) == want
    # Hamming [15,11] as a list: its 308 circuits meet in 39,060 pairs, spread
    # over batches, with 16,065 distinct unions, each tested once against
    # every circuit: 16,065 x 308 = 4,948,020 tests
    columns = [[b >> i & 1 for i in range(4)] for b in range(1, 16)]
    hamming = circuits(from_parity_check(FieldMatrix(2, list(zip(*columns)))))
    assert len(hamming) == 308
    from_circuits(15, hamming).check_elimination(4_948_020)
    with pytest.raises(CapExceeded):
        from_circuits(15, hamming).check_elimination(4_948_019)


def test_m23_rank(m23):
    assert m23.full_rank == 18
    assert m23.corank == 5
    assert nullity(m23, full_mask(23)) == 5


def test_m23_listed_circuit_nullity(m23):
    assert nullity(m23, from_labels(range(1, 9))) == 1


def test_ternary84_listed_circuit_nullity(ternary84):
    assert nullity(ternary84, from_labels([1, 2])) == 1
    assert nullity(ternary84, 0) == 0


def test_uniform_rank_and_loops():
    assert uniform(2, 4).rank(from_labels([1, 2, 3])) == 2
    M0 = uniform(0, 3)
    assert M0.corank == 3
    assert all(M0.rank(1 << b) == 0 for b in range(3))


def test_uniform_8_11_circuits_are_nine_sets():
    M = uniform(8, 11)
    circ = circuits(M)
    assert len(circ) == 55
    assert all(popcount(c) == 9 for c in circ)


def test_unit_rank_increase_exhaustive(small_corpus):
    for M in small_corpus:
        if M.n > 10:
            continue
        for mask in all_masks(M.n):
            r = M.rank(mask)
            for b in range(M.n):
                bit = 1 << b
                if not mask & bit:
                    r2 = M.rank(mask | bit)
                    assert r <= r2 <= r + 1


def test_generator_parity_agreement_random_codes():
    rng = np.random.default_rng(42)
    for _ in range(25):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(3, 10))
        k = int(rng.integers(1, min(n, 5)))
        g = FieldMatrix(p, random_code(rng, p, n, k).kernel)
        h = kernel_basis(g)
        Mg = from_generator(g)
        Mh = from_parity_check(h)
        for mask in all_masks(n):
            assert Mg.rank(mask) == Mh.rank(mask)


def test_dual_rank_formula_and_involution(small_corpus):
    for M in small_corpus:
        if M.n > 10:
            continue
        D = M.dual()
        DD = D.dual()
        top = full_mask(M.n)
        for mask in all_masks(M.n):
            assert D.rank(mask) == popcount(mask) + M.rank(top & ~mask) - M.full_rank
            assert DD.rank(mask) == M.rank(mask)


def test_dual_uniform_pointwise():
    for n in range(1, 9):
        for r in range(n + 1):
            D = uniform(r, n).dual()
            U = uniform(n - r, n)
            for mask in all_masks(n):
                assert D.rank(mask) == U.rank(mask)


def test_dual_of_free_matroid_all_loops():
    M = from_parity_check(FieldMatrix(2, np.eye(3, dtype=int)))
    D = M.dual()
    assert D.full_rank == 0
    assert all(D.rank(1 << b) == 0 for b in range(3))


@pytest.mark.parametrize("word_cap", [matroid_mod.WORD_CAP, 1])
def test_linear_dual_is_the_kernel_column_matroid(word_cap, monkeypatch):
    # ranks counted from words, and (word_cap 1) eliminated on the basis
    monkeypatch.setattr(matroid_mod, "WORD_CAP", word_cap)
    rng = np.random.default_rng(2424)
    for _ in range(40):
        p, n = int(rng.choice([2, 3])), int(rng.integers(1, 11))
        mat = random_field_matrix(rng, p, int(rng.integers(1, n + 1)), n)
        M = from_parity_check(mat)
        D = M.dual()
        every = np.arange(1 << n, dtype=np.uint64)
        assert isinstance(D, LinearMatroid)
        assert np.array_equal(D.ranks(every), DualMatroid(M).ranks(every))
        assert np.array_equal(D.dual().ranks(every), M.ranks(every))
        # a generator's matroid is the dual of its column matroid, array for array
        G = from_generator(mat)
        for name in ("basis", "units", "kernel"):
            assert np.array_equal(getattr(G, name), getattr(D, name))


def test_nullity_supermodular_exhaustive(small_corpus):
    for M in small_corpus:
        if M.n > 8:
            continue
        masks = np.arange(1 << M.n, dtype=np.uint64)
        nullity = kernels.popcounts(masks) - M.ranks(masks)
        for x in all_masks(M.n):
            assert np.all(nullity[x & masks] + nullity[x | masks] >= nullity[x] + nullity)


def test_validate_axioms_passes_corpus(small_corpus, m23):
    for M in small_corpus:
        assert validate_axioms(M).ok
    assert validate_axioms(m23, samples=200).ok


def test_validate_axioms_detects_planted_r1_violation():
    table = {0b00: 0, 0b01: 2, 0b10: 1, 0b11: 2}
    report = validate_axioms(TableMatroid(2, table))
    assert not report.ok
    assert any("R1" in v for v in report.violations)


def test_validate_axioms_detects_submodularity_violation():
    # r({1}) = r({2}) = 0 but r({1,2}) = 1 breaks R3 locally at X = {}
    table = {0b00: 0, 0b01: 0, 0b10: 0, 0b11: 1}
    report = validate_axioms(TableMatroid(2, table))
    assert not report.ok
    assert any("R3" in v or "R2" in v for v in report.violations)


def rank6_with_loops_table(n: int) -> dict[int, int]:
    """Rank table of U_{6,n-2} plus the loops 1 and 2."""
    return {m: min(popcount(m & ~0b11), 6) for m in range(1 << n)}


@pytest.mark.parametrize(
    "planted, rank, axiom",
    [
        # the whole ground set loses rank: r(E) < r(E - e)
        (full_mask(13), 5, "R2"),
        # the loops 1 and 2 together raise the rank of {3, 4, 5}
        (from_labels([1, 2, 3, 4, 5]), 4, "R3"),
    ],
)
def test_sampled_validate_axioms_detects_planted_violation(planted, rank, axiom):
    table = rank6_with_loops_table(13)
    table[planted] = rank
    report = validate_axioms(TableMatroid(13, table))
    assert not report.exhaustive
    assert not report.ok
    assert any(v.startswith(axiom) for v in report.violations)


def test_sampled_validate_axioms_asks_ranks_once(monkeypatch):
    calls = []
    ranks = TableMatroid._ranks

    def counted(self, masks):
        calls.append(1)
        return ranks(self, masks)

    monkeypatch.setattr(TableMatroid, "_ranks", counted)
    report = validate_axioms(TableMatroid(13, rank6_with_loops_table(13)))
    assert not report.exhaustive and report.ok
    assert len(calls) == 1


def test_sampled_validate_axioms_drops_r1_sets_from_later_checks():
    # every set holding 13 has rank -1: R1 refuses the sampled ones, and every
    # other sampled X fails R2 once, at X + 13, and nothing else
    table = {m: -1 if m >> 12 else r for m, r in rank6_with_loops_table(13).items()}
    report = validate_axioms(TableMatroid(13, table))
    assert not report.exhaustive
    r1 = [v for v in report.violations if v.startswith("R1")]
    r2 = [v for v in report.violations if v.startswith("R2")]
    assert r1 and r2 and len(r1) + len(r2) == len(report.violations) == report.checked_sets
    assert all(" = -1 outside [0, " in v for v in r1)
    grown, kept = zip(*(v.split(" < ") for v in r2))
    assert all(x.rstrip(",)").endswith("13") for x in grown)
    assert not any("13" in x for x in kept)


class Bit64Rule(Matroid):
    """Free on 1..61; 64 is parallel to 62 and to 63, which are independent.
    Submodularity fails only at sets X holding 64 but neither 62 nor 63
    (a = 62, b = 63): every check at a set without 64 passes."""

    def _ranks(self, masks):
        shadowed = ((masks >> np.uint64(63)) & (masks >> np.uint64(61) | masks >> np.uint64(62)))
        return kernels.popcounts(masks) - (shadowed & np.uint64(1)).astype(np.int64)


def test_sampled_validate_axioms_reaches_element_64():
    report = validate_axioms(Bit64Rule(64), samples=512)
    assert not report.exhaustive and report.violations
    # label 64 ends the tuple of X in every violation
    assert all(v.split(", a=")[0].endswith("64)") for v in report.violations)


def test_descriptor_parses_all_kinds(ternary84, m23):
    M = from_descriptor(
        {
            "type": "dual",
            "of": {"type": "linear", "p": 2, "role": "generator", "matrix": [[1, 1, 1]]},
        }
    )
    assert M.n == 3
    assert from_descriptor({"type": "uniform", "r": 1, "n": 3}).full_rank == 1
    # each parsed kind has the ranks of the matroid it describes
    parity_rows = [[1, 0, 1, 1], [0, 1, 1, 2]]
    parsed = [
        ({"type": "circuits", "n": 23, "circuits": [list(to_labels(c)) for c in circuits(m23)]},
         m23),
        ({"type": "linear", "p": 3, "role": "parity_check", "matrix": parity_rows},
         from_parity_check(FieldMatrix(3, parity_rows))),
        ({"type": "linear", "p": 3, "role": "generator", "matrix": TERNARY84_GENERATOR_ROWS},
         ternary84),
        ({"type": "dual", "of": {"type": "uniform", "r": 2, "n": 5}}, uniform(3, 5)),
    ]
    for desc, M in parsed:
        M2 = from_descriptor(desc)
        assert M2.n == M.n
        sample = range(1 << M.n) if M.n <= 10 else [0, 7, 0xFF, 0xFFF0, full_mask(M.n)]
        assert M2.ranks(list(sample)).tolist() == M.ranks(list(sample)).tolist()
    with pytest.raises(InputError):
        from_descriptor({"type": "mystery"})
    with pytest.raises(InputError):
        from_descriptor("not json {")


def test_rank_rejects_out_of_range_subset(ternary84):
    with pytest.raises(InputError):
        ternary84.rank(1 << 8)


@pytest.mark.parametrize("mask", [-1, 1 << 8, 1 << 70, 1.5, True])
@pytest.mark.parametrize("query", ["rank", "ranks"])
def test_rank_queries_reject_bad_masks(ternary84, query, mask):
    ask = ternary84.rank if query == "rank" else lambda m: ternary84.ranks([0, m])
    with pytest.raises(InputError):
        ask(mask)


def test_rank_queries_take_label_64():
    # a list holding a mask of 2^63 or more beside a smaller one is a valid
    # query at n = 64
    from matgreedy.weights import weight_report

    assert uniform(63, 64).ranks([2**64 - 1, 5]).tolist() == [63, 2]
    assert weight_report(uniform(63, 64)).d == (64,)
    assert weight_report(from_circuits(64, [[63, 64]])).e == (2,)
    with pytest.raises(InputError):
        uniform(63, 64).ranks([2**64, 5])


def test_random_matroids_satisfy_axioms():
    rng = np.random.default_rng(7)
    for _ in range(30):
        M = random_matroid(rng, int(rng.integers(2, 11)))
        assert validate_axioms(M).ok


def test_closures_both_routes_match_definition():
    # closing through the circuits agrees with the rank definition
    # cl(X) = X + {e : r(X + e) = r(X)} on every subset, for every kind
    rng = np.random.default_rng(404)
    matroids = [random_matroid(rng, int(rng.integers(1, 9))) for _ in range(30)]
    assert {M.kind for M in matroids} == {"linear", "uniform", "dual", "circuits"}
    for M in matroids:
        every = np.arange(1 << M.n, dtype=np.uint64)
        want = [
            x | sum(1 << b for b in range(M.n) if M.rank(x | 1 << b) == M.rank(x))
            for x in range(1 << M.n)
        ]
        circs = np.array(circuits(M), dtype=np.uint64)
        assert kernels.circuit_closures(every, circs).tolist() == want
