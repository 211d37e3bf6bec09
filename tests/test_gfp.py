"""Prime-field matrices: rank, kernels, submatrices, text round-trip."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from matgreedy.errors import InputError
from matgreedy.gfp import FieldMatrix, PrimeField, parse_matrix
from matgreedy.masks import from_labels
from tests.conftest import TERNARY84_GENERATOR_ROWS, format_matrix
from tests.paper_oracle import columns, field_rank, kernel_basis


def rank_oracle(data: np.ndarray, p: int) -> int:
    """Rank by counting the row span: |rowspace| = p^rank.

    Enumerates every linear combination of the rows, so it is independent of
    any elimination; only usable for a handful of rows.
    """
    rows = [tuple(int(x) % p for x in row) for row in data]
    span = set()
    for coeffs in product(range(p), repeat=len(rows)):
        vec = [0] * (len(rows[0]) if rows else 0)
        for c, row in zip(coeffs, rows):
            if c:
                vec = [(a + c * b) % p for a, b in zip(vec, row)]
        span.add(tuple(vec))
    rank = 0
    while p**rank < len(span):
        rank += 1
    assert p**rank == len(span), "span size must be a power of p"
    return rank


def test_rank_zero_matrix():
    m = FieldMatrix(3, np.zeros((3, 3), dtype=int))
    assert field_rank(m) == 0


def test_rank_identity():
    m = FieldMatrix(2, np.eye(4, dtype=int))
    assert field_rank(m) == 4


def test_rank_reference_generator():
    m = FieldMatrix(3, TERNARY84_GENERATOR_ROWS)
    assert field_rank(m) == 4


def test_kernel_one_equation():
    m = FieldMatrix(3, [[1, 1]])
    basis = kernel_basis(m)
    assert basis.data.tolist() == [[1, 2]]


def test_kernel_full_rank_empty():
    m = FieldMatrix(5, [[1, 0], [0, 1]])
    assert kernel_basis(m).nrows == 0


def test_kernel_message_map_dimension():
    # messages vanishing outside {1,2} for the reference generator: the
    # kernel of msg -> codeword coordinates 3..8 is one-dimensional
    g = FieldMatrix(3, TERNARY84_GENERATOR_ROWS)
    outside = from_labels([3, 4, 5, 6, 7, 8])
    g_out = columns(g, outside)
    basis = kernel_basis(FieldMatrix(g_out.field, g_out.data.T))
    assert basis.nrows == 1


def test_column_submatrix_empty_and_full():
    g = FieldMatrix(3, TERNARY84_GENERATOR_ROWS)
    assert columns(g, 0).ncols == 0
    assert columns(g, from_labels(range(1, 9))) == g


def test_column_submatrix_block():
    g = FieldMatrix(3, TERNARY84_GENERATOR_ROWS)
    block = columns(g, from_labels([5, 6, 7, 8]))
    assert block.nrows == 4 and block.ncols == 4
    assert not block.data[:2].any()
    assert field_rank(block) == 2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_matches_span_oracle(p):
    rng = np.random.default_rng(p * 99)
    for _ in range(60):
        rows = int(rng.integers(1, 6))
        cols = int(rng.integers(1, 7))
        data = rng.integers(0, p, size=(rows, cols))
        m = FieldMatrix(p, data)
        assert field_rank(m) == rank_oracle(data, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_transpose_invariant(p):
    rng = np.random.default_rng(p)
    for _ in range(40):
        data = rng.integers(0, p, size=(rng.integers(1, 8), rng.integers(1, 8)))
        m = FieldMatrix(p, data)
        assert field_rank(m) == field_rank(FieldMatrix(p, m.data.T))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_nullity_and_exactness(p):
    rng = np.random.default_rng(p + 17)
    for _ in range(40):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(1, 13))
        m = FieldMatrix(p, rng.integers(0, p, size=(rows, cols)))
        basis = kernel_basis(m)
        assert field_rank(m) + basis.nrows == cols
        for vec in basis.data:
            assert not ((m.data @ vec) % p).any()


def test_kernel_basis_deterministic_echelon():
    m = FieldMatrix(5, [[1, 2, 3, 4], [0, 1, 1, 1]])
    b1 = kernel_basis(m)
    b2 = kernel_basis(m)
    assert b1 == b2
    # each row starts with a leading 1 in strictly increasing column
    lead = []
    for row in b1.data:
        nz = np.nonzero(row)[0]
        assert row[nz[0]] == 1
        lead.append(nz[0])
    assert lead == sorted(lead)


def test_prime_validation():
    with pytest.raises(InputError):
        PrimeField(4)
    with pytest.raises(InputError):
        PrimeField(1)
    with pytest.raises(InputError):
        PrimeField(1 << 17)
    assert PrimeField(65521).p == 65521  # largest 16-bit prime


def test_matrix_text_roundtrip():
    g = FieldMatrix(3, TERNARY84_GENERATOR_ROWS)
    text = format_matrix(g)
    again = parse_matrix(text)
    assert again == g
    assert format_matrix(again) == text


def test_matrix_text_errors():
    with pytest.raises(InputError):
        parse_matrix("")
    with pytest.raises(InputError):
        parse_matrix("3 1\n1 2")
    with pytest.raises(InputError):
        parse_matrix("3 1 2\n1")
    with pytest.raises(InputError):
        parse_matrix("3 1 2\n1 5")


@pytest.mark.parametrize("rows", [
    [[1.5, 2.9, 0.2]], np.array([[1.5, 2.9, 0.2]]),
    [[True, 0, 1]], [[1, True]], np.array([[True, False]]),
])
def test_matrix_refuses_float_and_bool_entries(rows):
    with pytest.raises(InputError, match="integers"):
        FieldMatrix(3, rows)


def test_matrix_takes_integer_lists_arrays_and_empty_rows():
    assert FieldMatrix(3, [[4, -1]]).data.tolist() == [[1, 2]]
    assert FieldMatrix(3, np.array([[4, -1]], dtype=np.int8)).data.tolist() == [[1, 2]]
    assert FieldMatrix(3, [[np.int64(5)]]).data.tolist() == [[2]]
    assert FieldMatrix(3, []).data.shape == (0, 0)
    assert FieldMatrix(3, [[], []]).data.shape == (2, 0)
