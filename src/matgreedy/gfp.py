"""Exact linear algebra over prime fields GF(p).

Matrices are immutable value objects with int64 entries reduced mod p.
Moduli are capped below 2^16 so all intermediate products fit native
integers; extension fields are out of scope.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from . import kernels
from .errors import InputError

MAX_MODULUS = 1 << 16


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


class PrimeField:
    """GF(p) for a prime 2 <= p < 2^16."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not (2 <= p < MAX_MODULUS) or not is_prime(p):
            raise InputError(f"modulus must be a prime in [2, 2^16), got {p}")
        self.p = p

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


class FieldMatrix:
    """Dense matrix over GF(p); entries stored reduced in [0, p)."""

    __slots__ = ("field", "data")

    def __init__(self, field: PrimeField | int, rows: Iterable[Sequence[int]] | np.ndarray):
        if not isinstance(field, PrimeField):
            field = PrimeField(field)
        self.field = field
        if not isinstance(rows, np.ndarray):
            # entry by entry: beside integers numpy reads True as 1, and the
            # int64 cast would truncate 2.9 to 2
            try:
                rows = [list(row) for row in rows]
                ints = (type(x) is int or isinstance(x, np.integer) for row in rows for x in row)
                if not all(ints):
                    raise InputError("matrix entries must be integers")
                rows = np.array(rows, dtype=np.int64)
            except (OverflowError, TypeError, ValueError) as exc:
                message = "matrix rows must form a rectangular 2D array of integers"
                raise InputError(message) from exc
        if rows.size and rows.dtype.kind not in "iu":
            raise InputError(f"matrix entries must be integers, not {rows.dtype}")
        if rows.ndim != 2:
            if rows.size:
                raise InputError("matrix rows must form a rectangular 2D array")
            rows = rows.reshape(0, 0)
        self.data = np.mod(rows, field.p).astype(np.int64, copy=False)
        self.data.setflags(write=False)

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def nrows(self) -> int:
        return self.data.shape[0]

    @property
    def ncols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and other.field == self.field
            and other.data.shape == self.data.shape
            and bool(np.array_equal(other.data, self.data))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.data.shape, self.data.tobytes()))

    def __repr__(self) -> str:
        return f"FieldMatrix(p={self.p}, shape={self.nrows}x{self.ncols})"

    def rref(self) -> tuple[FieldMatrix, np.ndarray]:
        """Reduced row echelon form and its 0-based pivot columns, as int64."""
        work = self.data.copy()
        rank, pivots = kernels.rref_mod_p(work, self.p)
        return FieldMatrix(self.field, work[:rank]), pivots


def parse_matrix(text: str) -> FieldMatrix:
    """Parse the matrix text format: "p rows cols" header then row lines."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise InputError("empty matrix text")
    header = lines[0].split()
    if len(header) != 3:
        raise InputError(f"bad matrix header {lines[0]!r}, want 'p rows cols'")
    try:
        p, rows, cols = (int(x) for x in header)
    except ValueError as exc:
        raise InputError(f"bad matrix header {lines[0]!r}") from exc
    if len(lines) != rows + 1:
        raise InputError(f"expected {rows} row lines, got {len(lines) - 1}")
    entries = []
    for ln in lines[1:]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError as exc:
            raise InputError(f"bad matrix row {ln!r}: entries must be integers") from exc
        if len(row) != cols:
            raise InputError(f"row {ln!r} has {len(row)} entries, want {cols}")
        entries.append(row)
    field = PrimeField(p)
    # checked as Python ints: the int64 cast would overflow on a huge entry
    if not all(0 <= x < p for row in entries for x in row):
        raise InputError("matrix entries must be residues in [0, p)")
    try:
        # with no rows, nothing has checked cols yet
        data = np.array(entries, dtype=np.int64).reshape(rows, cols)
    except ValueError as exc:
        raise InputError(f"bad matrix size {rows} x {cols}") from exc
    return FieldMatrix(field, data)
