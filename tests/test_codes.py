"""Code-side operations and oracles, and the code <-> matroid bridge."""

from __future__ import annotations

import numpy as np
import pytest

from matgreedy import codes as codes_mod
from matgreedy import kernels
from matgreedy.codes import (
    echelon_subspaces,
    parse_code_file,
    subcode_weights,
    subspace_count,
)
from matgreedy.errors import CapExceeded, InputError
from matgreedy.gfp import FieldMatrix
from matgreedy.ladder import ladder
from matgreedy.masks import from_labels, popcount
from matgreedy.matroid import (
    LinearMatroid,
    from_generator,
    from_parity_check,
    validate_axioms,
)
from matgreedy.weights import is_chained, weight_report
from tests.conftest import format_matrix, random_code
from tests.ladder_oracle import is_cycle, nullity
from tests.paper_oracle import kernel_basis, shortened_subcode, support


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


# a code is its matroid: the row space of M.kernel, which from_generator
# holds as the generator's reduced echelon form
REP3 = from_generator(FieldMatrix(2, [[1, 1, 1]]))
MDS42 = from_generator(FieldMatrix(3, [[1, 0, 1, 1], [0, 1, 1, 2]]))


def test_support_examples(ternary84):
    assert support([np.zeros(8, dtype=int)]) == 0
    msg = np.array([1, 2, 0, 0])
    word = msg @ ternary84.kernel % 3
    assert word.tolist() == [1, 2, 0, 0, 0, 0, 0, 0]
    assert support([word]) == from_labels([1, 2])
    rows = ternary84.kernel[2:]
    assert support(rows) == from_labels([5, 6, 7, 8])
    assert popcount(support(rows)) == 4


def test_support_length_mismatch():
    with pytest.raises(ValueError):
        support([[1, 0], [1, 0, 0]])


def test_generator_must_have_full_row_rank():
    with pytest.raises(InputError, match="generator rows are dependent: rank 1 of 2 rows"):
        parse_code_file("generator\n" + format_matrix(FieldMatrix(2, [[1, 1], [1, 1]])))


def test_parity_check_construction_roundtrip(ternary84, ternary84_generator):
    M2 = from_parity_check(kernel_basis(ternary84_generator))
    assert len(M2.kernel) == len(ternary84.kernel)
    for mask in range(1 << 8):
        assert ternary84.rank(mask) == M2.rank(mask)


def test_shortened_subcode_cases(ternary84):
    assert shortened_subcode(ternary84, 0).nrows == 0
    sub = shortened_subcode(ternary84, from_labels([1, 2]))
    assert sub.nrows == 1
    assert sub.data.tolist() == [[1, 2, 0, 0, 0, 0, 0, 0]]
    assert shortened_subcode(ternary84, from_labels([5, 6, 7, 8])).nrows == 2


def test_shortened_dimension_equals_nullity(ternary84):
    for mask in range(1 << 8):
        assert shortened_subcode(ternary84, mask).nrows == nullity(ternary84, mask)


def test_shortened_dimension_random_codes():
    rng = np.random.default_rng(8)
    for _ in range(10):
        M = random_code(rng, int(rng.choice([2, 3])), int(rng.integers(3, 10)), 3)
        for mask in range(1 << M.n):
            sub = shortened_subcode(M, mask)
            assert sub.nrows == nullity(M, mask)
            for row in sub.data:
                assert support([row]) & ~mask == 0


def test_code_matroid_fixtures(ternary84):
    assert ternary84.corank == 4
    Mi = from_generator(FieldMatrix(2, np.eye(3, dtype=int).tolist()))
    assert Mi.corank == 3
    assert all(nullity(Mi, 1 << b) == 1 for b in range(3))
    lad = ladder(from_generator(FieldMatrix(2, [[1, 1, 1]])))
    assert lad.levels == ((from_labels([1, 2, 3]),),)


def test_echelon_subspace_counts():
    for p in (2, 3, 5, 7):
        for k in range(0, 5):
            counts = [len(echelon_subspaces(p, k, r)) for r in range(0, k + 1)]
            assert counts == [gaussian_binomial(k, r, p) for r in range(0, k + 1)]
            # the cap is checked on the closed form before enumerating
            assert subspace_count(p, k) == sum(counts)
    assert subspace_count(2, 7) == 29_212
    assert subspace_count(3, 6) == 56_632
    assert subspace_count(3, 7) == 2_052_656


def test_echelon_subspaces_are_rref():
    for p, k, r in [(2, 5, 2), (3, 4, 3), (5, 3, 2), (7, 3, 1)]:
        bases = echelon_subspaces(p, k, r)
        assert bases.shape == (gaussian_binomial(k, r, p), r, k)
        for basis in bases:
            rref, pivots = FieldMatrix(p, basis).rref()
            assert rref.data.tolist() == basis.tolist() and len(pivots) == r


def test_echelon_subspaces_distinct():
    seen = set()
    for basis in echelon_subspaces(3, 4, 2):
        key = basis.tobytes()
        assert key not in seen
        seen.add(key)


def test_ghw_bruteforce_ternary84(ternary84):
    assert subcode_weights(ternary84)[0] == (2, 4, 6, 8)


def test_ghw_bruteforce_repetition():
    assert subcode_weights(REP3)[0] == (3,)


def test_ghw_cap_and_range(ternary84):
    with pytest.raises(CapExceeded):
        subcode_weights(ternary84, cap=8)
    # one weight per subcode dimension 1..k
    assert all(len(w) == len(ternary84.kernel) for w in subcode_weights(ternary84))


def test_greedy_bruteforce_ternary84(ternary84):
    _, e, et, g = subcode_weights(ternary84)
    assert e == (2, 4, 7, 8)
    assert et == (3, 4, 6, 8)
    # the level-3 CEZ weight is 6: span{rows 3,4} has weight d_2 = 4 and
    # extends by the weight-2 word to a 3-dimensional subcode of weight 6
    assert g == (2, 4, 6, 8)


def test_greedy_bruteforce_repetition():
    assert subcode_weights(REP3) == ((3,), (3,), (3,), (3,))


def test_greedy_bruteforce_mds42():
    assert subcode_weights(MDS42) == ((3, 4), (3, 4), (3, 4), (3, 4))


def test_code_weights_fixtures(ternary84):
    report = weight_report(ternary84)
    assert report.d == (2, 4, 6, 8)
    assert report.e == (2, 4, 7, 8)
    assert report.e_tilde == (3, 4, 6, 8)
    assert report.g == (2, 4, 6, 8)
    rep = weight_report(REP3)
    assert rep.d == rep.e == rep.e_tilde == rep.g == (3,)
    assert rep.chained


def test_weights_coincide_random_campaign():
    # code-side brute force against the matroid path on a quick sample;
    # the full 200-code campaign runs in the acceptance suite
    rng = np.random.default_rng(555)
    for _ in range(30):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, min(n, 3) + 1))
        M = random_code(rng, p, n, k)
        report = weight_report(M)
        assert (report.d, report.e, report.e_tilde, report.g) == subcode_weights(M)


def _reed_solomon(p: int, k: int, extended: bool = False) -> LinearMatroid:
    rows = [[pow(x, i, p) for x in range(p)] for i in range(k)]
    if extended:  # the point at infinity keeps the code MDS
        rows = [row + [int(i == k - 1)] for i, row in enumerate(rows)]
    return from_generator(FieldMatrix(p, rows))


def _repeated_columns(p: int, k: int, times: int) -> LinearMatroid:
    return from_generator(FieldMatrix(p, np.hstack([np.eye(k, dtype=int)] * times)))


def _single_parity_check(p: int, k: int) -> LinearMatroid:
    return from_generator(FieldMatrix(p, np.hstack([np.eye(k, dtype=int), np.ones((k, 1), int)])))


def _tie_heavy_codes() -> list[LinearMatroid]:
    """MDS codes and codes with repeated columns: several subcodes share the
    least weight, so greedy frontiers hold more than one subcode."""
    return [
        _reed_solomon(5, 4),
        _reed_solomon(5, 4, extended=True),
        _single_parity_check(2, 6),
        _single_parity_check(3, 5),
        _repeated_columns(2, 6, 2),
        _repeated_columns(3, 4, 3),
        _repeated_columns(5, 4, 2),
    ]


def _direct_sum(rng: np.random.Generator, p: int, k: int) -> LinearMatroid:
    """Random [n1, k1] + [n2, k2] code, n1 + n2 <= 12: a light short part
    next to a long one often makes the greedy weights differ from d."""
    k1 = int(rng.integers(1, 3))
    n1 = int(rng.integers(k1 + 1, 5))
    n2 = int(rng.integers(k - k1 + 1, 13 - n1))
    gen = np.zeros((k, n1 + n2), dtype=int)
    gen[:k1, :n1] = random_code(rng, p, n1, k1).kernel
    gen[k1:, n1:] = random_code(rng, p, n2, k - k1).kernel
    return from_generator(FieldMatrix(p, gen))


def _larger_k_codes(ternary84) -> list[LinearMatroid]:
    """Codes with k 4..6 and n <= 12 over GF(2), GF(3), GF(5): random ones,
    direct sums and the tie-heavy ones."""
    rng = np.random.default_rng(4646)
    codes = [ternary84, *_tie_heavy_codes()]
    for p, kmax in ((2, 6), (3, 5), (5, 4)):
        for _ in range(6):
            n = int(rng.integers(7, 13))
            codes.append(random_code(rng, p, n, int(rng.integers(4, kmax + 1))))
            codes.append(_direct_sum(rng, p, int(rng.integers(4, kmax + 1))))
    return codes


def test_subcode_oracle_matches_ladder_route_larger_k(ternary84):
    # the ladder route against the batched subcode enumeration beyond the
    # k <= 3 campaigns, ties and non-chained codes included
    codes = _larger_k_codes(ternary84)
    not_chained = 0
    for M in codes:
        assert 4 <= len(M.kernel) <= 6 and M.n <= 12
        report = weight_report(M)
        assert (report.d, report.e, report.e_tilde, report.g) == subcode_weights(M), M
        not_chained += not report.chained
    assert not_chained >= 3
    for M in _tie_heavy_codes():
        # several least-weight subcodes of each dimension 1..k-1
        k = len(M.kernel)
        for r in range(1, k):
            words = echelon_subspaces(M.p, k, r) @ M.kernel % M.p
            weights = [popcount(support(w)) for w in words]
            assert weights.count(min(weights)) > 1, (M, r)


def test_subcode_oracle_small_chunks(monkeypatch, ternary84):
    # chunks of a few pairs split every containment test and every codeword
    # support batch into many pieces
    monkeypatch.setattr(codes_mod, "CHUNK_ENTRIES", 64)
    monkeypatch.setattr(kernels, "CHUNK_ENTRIES", 64)
    for M in _larger_k_codes(ternary84):
        report = weight_report(M)
        assert (report.d, report.e, report.e_tilde, report.g) == subcode_weights(M), M


def test_cap_trips_before_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated past the cap")

    monkeypatch.setattr(codes_mod, "echelon_subspaces", refuse)
    ternary7 = from_generator(FieldMatrix(3, np.hstack([np.eye(7, dtype=int)] * 2)))
    with pytest.raises(CapExceeded):
        subcode_weights(ternary7)
    with pytest.raises(CapExceeded):
        subcode_weights(MDS42, cap=subspace_count(3, 2) - 1)


def test_greedy_subcode_supports_are_ladder_members():
    # supports of optimal greedy subcodes found by the oracle are cycles of
    # the matching level
    rng = np.random.default_rng(77)
    for _ in range(10):
        M = random_code(rng, int(rng.choice([2, 3])), int(rng.integers(3, 9)), 2)
        report = weight_report(M)
        for level, mask in enumerate(report.witness_e, start=1):
            sub = shortened_subcode(M, mask)
            assert sub.nrows == level
            assert support(sub.data) == mask
            assert is_cycle(M, [mask]) == [(True, level)]


def test_d_computing_subcode_supports_are_minimal_cycles():
    # every r-dimensional subcode of minimal weight, found by exhaustive
    # enumeration, has a support that is inclusion-minimal for nullity r
    rng = np.random.default_rng(404)
    for _ in range(12):
        M = random_code(rng, int(rng.choice([2, 3])), int(rng.integers(2, 9)), 2)
        lad = ladder(M)
        d = subcode_weights(M)[0]
        for r in range(1, len(M.kernel) + 1):
            for basis in echelon_subspaces(M.p, len(M.kernel), r):
                words = (basis @ M.kernel) % M.p
                if popcount(support(words)) == d[r - 1]:
                    assert support(words) in lad.levels[r - 1]


def test_zero_dimensional_code():
    h = FieldMatrix(3, np.eye(4, dtype=int).tolist())
    M = from_parity_check(h)
    assert len(M.kernel) == 0 and M.n == 4
    report = weight_report(M)
    assert report.t == 0
    assert report.d == () and report.chained


def test_chained_code_iff_chained_matroid():
    rng = np.random.default_rng(2718)
    for _ in range(25):
        M = random_code(rng, int(rng.choice([2, 3])), int(rng.integers(2, 9)), 2)
        report = weight_report(M)
        d, e, _, _ = subcode_weights(M)
        code_chained = d == e
        assert code_chained == is_chained(M)[0]
        assert code_chained == report.chained


def test_code_matroid_axioms(ternary84):
    assert validate_axioms(ternary84).ok


def test_code_file_roundtrip(ternary84, ternary84_generator):
    M2 = parse_code_file("generator\n" + format_matrix(ternary84_generator))
    for name in ("basis", "units", "kernel"):
        assert np.array_equal(getattr(M2, name), getattr(ternary84, name))


def test_code_file_parity_check_role(ternary84, ternary84_generator):
    h = kernel_basis(ternary84_generator)
    text = "parity_check\n" + "\n".join(
        [f"{h.p} {h.nrows} {h.ncols}"]
        + [" ".join(str(int(x)) for x in row) for row in h.data]
    )
    M2 = parse_code_file(text)
    assert len(M2.kernel) == 4
    assert all(ternary84.rank(m) == M2.rank(m) for m in range(1 << 8))


def test_code_file_errors():
    with pytest.raises(InputError):
        parse_code_file("")
    with pytest.raises(InputError):
        parse_code_file("weird\n2 1 2\n1 1")
