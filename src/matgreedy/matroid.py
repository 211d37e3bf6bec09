"""Matroids with rank/nullity oracles: linear over GF(p), circuit-defined,
uniform, and duals.

A matroid's ground set and rank function never change after construction;
only its circuit and ladder caches are written, by ladder.py.  Each kind
answers rank queries for a whole batch of subsets at once.  A linear matroid
holds its row space and kernel as two standard-form bases from one
reduction; it counts the words of the shorter one when few words need
listing, and otherwise eliminates the queried columns of the row space.
Labels are 1-based throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .errors import CapExceeded, InputError, require
from .gfp import FieldMatrix, PrimeField
from .masks import (
    MAX_GROUND_SET,
    from_labels,
    full_mask,
    is_subset,
    popcount,
    to_labels,
)

# Most code words a linear matroid lists to count ranks: about where one
# containment pass over the words' supports stops beating elimination.
WORD_CAP = 1 << 12


class Matroid:
    """Base class: ground set {1..n} plus a rank oracle."""

    kind = "abstract"

    def __init__(self, n: int):
        if not 0 <= n <= MAX_GROUND_SET:
            raise InputError(f"ground-set size must be in 0..{MAX_GROUND_SET}")
        self.n = n
        self._circuits: tuple[int, ...] | None = None
        self._ladder = None

    # -- rank oracle ----------------------------------------------------

    def _ranks(self, masks: np.ndarray) -> np.ndarray:
        """Ranks of a uint64 array of in-range masks, as int64; every kind
        defines this."""
        raise NotImplementedError

    def ranks(self, masks) -> np.ndarray:
        """Ranks of a batch of masks as an int64 array, in the given order.

        Every mask must be an integer in [0, 2^n); anything else is refused
        before the cast to uint64, which would wrap or truncate it.
        """
        if not isinstance(masks, np.ndarray):
            # checked as Python ints: np.asarray would turn a True into 1 and
            # a mask of 2^63 or more beside a smaller one into a float
            masks = list(masks)
            limit = 1 << self.n
            if not all(isinstance(m, (int, np.integer)) and not isinstance(m, bool)
                       and 0 <= m < limit for m in masks):
                raise InputError(f"subset masks must be integers in [0, 2^{self.n})")
            masks = np.array(masks, dtype=np.uint64)
        elif masks.size and (
            masks.dtype.kind not in "iu" or masks.min() < 0 or int(masks.max()) >> self.n
        ):
            raise InputError(f"subset masks must be integers in [0, 2^{self.n})")
        return self._ranks(masks.astype(np.uint64, copy=False))

    def rank(self, mask: int) -> int:
        return int(self.ranks([mask])[0])

    @cached_property
    def full_rank(self) -> int:
        return self.rank(full_mask(self.n))

    @property
    def corank(self) -> int:
        """Nullity of the whole ground set; indexes the weight hierarchies."""
        return self.n - self.full_rank

    def check_elimination(self, cap: int) -> None:
        """Refuse a circuit list that breaks elimination; other kinds pass."""

    def dual(self) -> "Matroid":
        """The dual, r*(X) = |X| + r(E-X) - r(E): a new object with its own
        caches on each call.  The dual of a DualMatroid is the matroid it
        wraps; that of a linear or uniform dual is a new, equal matroid."""
        return DualMatroid(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class LinearMatroid(Matroid):
    """Column matroid of a matrix A over GF(p): rank(X) = rank of the columns X.

    This is the matroid of a code when A is a parity check of it: the code
    is the row space of kernel.  It holds two standard-form bases from one
    reduction (kernels.null_basis): basis, of A's row space with the identity
    on the columns units, and kernel, of ker A.  Its dual is the column
    matroid of kernel, with the two bases swapped.  With r = rank(A), ranks
    count the shorter word list while it has at most WORD_CAP words (Wei
    1991), and eliminate columns of basis if not:
    r - rank(X) = log_p #{w in rowspace(A) : supp w inside E - X} and
    |X| - rank(X) = log_p #{w in ker(A) : supp w inside X}.
    """

    kind = "linear"

    def __init__(self, p: int, basis: np.ndarray, units: np.ndarray, kernel: np.ndarray):
        super().__init__(basis.shape[1])
        self.p, self.basis, self.units, self.kernel = p, basis, units, kernel
        self.full_rank = len(units)

    @cached_property
    def kernel_words(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct supports of the words of ker A, ascending, with multiplicities."""
        return kernels.distinct(kernels.word_supports(self.kernel, self.p), counts=True)

    @cached_property
    def _words(self) -> tuple[bool, np.ndarray, np.ndarray] | None:
        """(row side, distinct supports, their multiplicities) of the word
        list ranks are counted from, or None to eliminate instead."""
        dim = min(self.full_rank, self.n - self.full_rank)
        if self.p**dim > WORD_CAP:
            return None
        if dim == self.full_rank:
            return True, *kernels.distinct(kernels.word_supports(self.basis, self.p), counts=True)
        return False, *self.kernel_words

    def _ranks(self, masks: np.ndarray) -> np.ndarray:
        if self._words is None:
            return kernels.column_ranks(self.basis, self.units, masks, self.p)
        row_side, supports, counts = self._words
        r = self.full_rank
        inside = np.uint64(full_mask(self.n)) ^ masks if row_side else masks
        found = kernels.subset_sums(inside, supports, counts)
        # the words found form a subspace, so their count is a power of p
        powers = self.p ** np.arange(min(r, self.n - r) + 1)
        dims = np.searchsorted(powers, found)
        require(np.array_equal(powers[np.minimum(dims, powers.size - 1)], found),
                "a count of code words is not a power of p")
        return (r if row_side else kernels.popcounts(masks)) - dims

    def dual(self) -> "Matroid":
        free = np.delete(np.arange(self.n), self.units)
        return LinearMatroid(self.p, self.kernel, free, self.basis)


class CircuitMatroid(Matroid):
    """Matroid given by its circuit list; rank by greedy basis growth, read
    from a table of all 2^n ranks when 2^n <= kernels.CHUNK_ENTRIES.  The
    antichain condition is checked here, and circuit elimination by
    check_elimination, which ladder.circuits runs before it hands out the list.
    """

    kind = "circuits"

    def __init__(self, n: int, circuits: list[int] | tuple[int, ...]):
        super().__init__(n)
        circs = sorted(set(int(c) for c in circuits), key=lambda c: (popcount(c), c))
        top = full_mask(n)
        for c in circs:
            if c == 0:
                raise InputError("the empty set cannot be a circuit")
            if c & ~top:
                raise InputError("circuit extends beyond the ground set")
        self._circ_arr = np.array(circs, dtype=np.uint64)
        # every circuit contains itself; one that contains more breaks the antichain
        ones = np.ones(len(circs), dtype=np.int64)
        bigs = self._circ_arr[kernels.subset_sums(self._circ_arr, self._circ_arr, ones) > 1]
        if bigs.size:
            # name the first nested pair in (cardinality, mask) order
            small, big = next((a, b) for a in circs for b in bigs.tolist()
                              if a != b and is_subset(a, b))
            raise InputError(
                f"circuit list is not an antichain: "
                f"{to_labels(small)} contained in {to_labels(big)}"
            )

    @cached_property
    def _meets(self) -> np.ndarray | None:
        small = 1 << self.n <= kernels.CHUNK_ENTRIES
        return kernels.circuit_meet_table(self._circ_arr, self.n) if small else None

    @cached_property
    def _table(self) -> np.ndarray | None:
        return None if self._meets is None else kernels.circuit_rank_table(self._meets, self.n)

    def _ranks(self, masks: np.ndarray) -> np.ndarray:
        if self._table is None:
            return kernels.circuit_ranks(masks, self._circ_arr, self.n)
        return self._table[masks]

    def check_elimination(self, cap: int) -> None:
        """Decide circuit elimination once, and set _circuits if it holds:
        it fails for circuits C1 != C2 exactly when some e in both lies in
        every circuit inside C1 | C2 (Oxley, Matroid Theory, 2nd ed.).  cap
        bounds the union tests so far before each batch of pairs runs.  The
        refusal names the first failing pair, in (cardinality, mask) order,
        and its least such e."""
        if self._circuits is not None:
            return
        circs, meets, work = self._circ_arr, self._meets, 0
        tested = np.empty(0, dtype=np.uint64)  # sorted; each passed in an earlier batch
        step = max(1, kernels.CHUNK_ENTRIES // max(1, circs.size))
        for start in range(0, circs.size, step):
            rows = circs[start : start + step, None]
            # the unions of the pairs i < j of circuits that meet, in row-major order
            pairs = np.triu((rows & circs) != 0, start + 1)
            unions = (rows | circs)[pairs]
            # a table read per union, or each union not yet tested against every circuit
            if meets is None:
                fresh = kernels.distinct(unions)
                fresh = fresh[~kernels.lookup(tested, fresh)[1]]
                work += fresh.size * circs.size
            else:
                work += unions.size
            if work > cap:
                raise CapExceeded(f"circuit elimination needs more than {cap} union tests")
            # C1 and C2 lie inside the union, so this lies inside C1 & C2
            if meets is None:
                at, new = kernels.lookup(fresh, unions)
                stuck = np.zeros_like(unions)
                stuck[new] = kernels.subset_meets(fresh, circs)[at[new]]
                tested = np.sort(np.concatenate([tested, fresh]))
            else:
                stuck = meets[unions]
            if (bad := np.flatnonzero(stuck)).size:
                i, j = (int(x[bad[0]]) for x in np.nonzero(pairs))
                c1, c2, common = int(circs[start + i]), int(circs[j]), int(stuck[bad[0]])
                e = common & -common
                raise InputError(
                    f"circuits {list(to_labels(c1))} and {list(to_labels(c2))} share "
                    f"{to_labels(e)[0]}, but {list(to_labels((c1 | c2) & ~e))} holds no circuit"
                )
        self._circuits = tuple(circs.tolist())


class UniformMatroid(Matroid):
    """U_{r,n}: rank(X) = min(|X|, r)."""

    kind = "uniform"

    def __init__(self, r: int, n: int):
        super().__init__(n)
        if not 0 <= r <= n:
            raise InputError(f"uniform rank must satisfy 0 <= r <= n, got r={r}, n={n}")
        self.r = r

    def _ranks(self, masks: np.ndarray) -> np.ndarray:
        return np.minimum(kernels.popcounts(masks), self.r)

    def dual(self) -> "Matroid":
        return UniformMatroid(self.n - self.r, self.n)


class DualMatroid(Matroid):
    """Dual via the rank formula: r*(X) = |X| + r(E-X) - r(E)."""

    kind = "dual"

    def __init__(self, inner: Matroid):
        super().__init__(inner.n)
        self.inner = inner

    def _ranks(self, masks: np.ndarray) -> np.ndarray:
        comp = np.uint64(full_mask(self.n)) ^ masks
        return kernels.popcounts(masks) + self.inner._ranks(comp) - self.inner.full_rank

    def check_elimination(self, cap: int) -> None:
        self.inner.check_elimination(cap)

    def dual(self) -> "Matroid":
        return self.inner


def from_parity_check(h: FieldMatrix) -> LinearMatroid:
    """Matroid of the code with parity check h: rank(X) = rank of columns X."""
    rref, pivots = h.rref()
    return LinearMatroid(h.p, rref.data, pivots, kernels.null_basis(rref.data, pivots, h.p)[0])


def from_generator(g: FieldMatrix) -> LinearMatroid:
    """Matroid of the code generated by g: the column matroid of the parity
    check ker g, whose kernel is g's row space, and the dual of g's column
    matroid.  Its nullity of X is the dimension of the subcode inside X."""
    return from_parity_check(g).dual()


def from_circuits(n: int, circuits) -> Matroid:
    """Matroid from an antichain of circuit subsets (masks or label lists)."""
    return CircuitMatroid(n, [c if isinstance(c, int) else from_labels(c, n) for c in circuits])


def uniform(r: int, n: int) -> Matroid:
    return UniformMatroid(r, n)


# -- axiom validation -----------------------------------------------------


@dataclass
class AxiomReport:
    n: int
    exhaustive: bool
    checked_sets: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "exhaustive": self.exhaustive,
            "checked_sets": self.checked_sets,
            "violations": sorted(self.violations),
        }


def validate_axioms(M: Matroid, seed: int = 0, samples: int = 4096) -> AxiomReport:
    """Check R1 (bounds), R2 (monotonicity), R3 (submodularity) and the
    supermodular nullity inequality.

    Exhaustive for n <= 12 via the local forms: monotone and submodular set
    functions are characterized by their one/two-element increments, so a
    clean local scan proves the global axioms.  Larger ground sets are
    checked on randomly sampled subsets.  Each increment is tested for all
    sets at once, elements of X included: those leave the rank unchanged and
    so pass every check.  M.ranks is asked once, for every set read.
    """
    n = M.n
    exhaustive = n <= 12
    bits = [1 << b for b in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # X, X+a and X+a+b for every X checked and elements a < b
    grow = np.array([0, *bits, *(bits[i] | bits[j] for i, j in pairs)], dtype=np.uint64)
    if exhaustive:
        sets = np.arange(1 << n, dtype=np.uint64)
        rx = table = M.ranks(sets)
    else:
        rng = np.random.default_rng(seed)
        # int64 draws hold 63 bits; element 64 comes from a second, later draw,
        # so on up to 63 elements the sets are those of the first draw alone
        draws = rng.integers(0, 1 << 63, samples).astype(np.uint64)
        draws |= rng.integers(0, 2, samples).astype(np.uint64) << np.uint64(63)
        sets = kernels.distinct(draws & np.uint64(full_mask(n)))
        # row k: the ranks of sets | grow[k]; as X | g is X | (g - X), only
        # the g that miss X give new sets, and the rest copy an earlier row;
        # the grid is allocated once the new sets are ranked and dropped
        held = (grow[:, None] & sets) != 0
        read, where = kernels.distinct((grow[:, None] | sets)[~held], inverse=True)
        ranks = M.ranks(read)[where]
        del read, where
        grid = np.empty(held.shape, dtype=np.int64)
        grid[~held] = ranks
        del ranks
        for b in range(n):
            np.copyto(grid[1 + b], grid[0], where=held[1 + b])
        for k, (i, j) in enumerate(pairs, 1 + n):
            np.copyto(grid[k], grid[1 + j], where=held[1 + i])
            np.copyto(grid[k], grid[1 + i], where=held[1 + j] & ~held[1 + i])
        rx = grid[0]

    report = AxiomReport(n=n, exhaustive=exhaustive, checked_sets=len(sets))
    found = report.violations
    card = kernels.popcounts(sets)
    bad = (rx < 0) | (rx > card)
    for x, r, c in zip(sets[bad].tolist(), rx[bad].tolist(), card[bad].tolist()):
        found.append(f"R1: r({to_labels(x)}) = {r} outside [0, {c}]")
    keep = ~bad
    sets, rx = sets[keep], rx[keep]

    def rank_row(k: int) -> np.ndarray:
        return table[sets | grow[k]] if exhaustive else grid[k, keep]

    grown = [rank_row(1 + b) for b in range(n)]
    for b, r1 in zip(bits, grown):
        for x in sets[r1 < rx].tolist():
            found.append(f"R2: r({to_labels(x | b)}) < r({to_labels(x)})")
        for x in sets[r1 > rx + 1].tolist():
            found.append(f"unit increase: r({to_labels(x | b)}) > r({to_labels(x)}) + 1")
    for k, (i, j) in enumerate(pairs, 1 + n):
        rab = rank_row(k)
        for x in sets[grown[i] + grown[j] < rab + rx].tolist():
            at = f"X={to_labels(x)}, a={to_labels(bits[i])}, b={to_labels(bits[j])}"
            found.append(f"R3: submodularity fails at {at}")
            # nullity supermodularity is the mirrored local inequality
            found.append(f"nullity supermodularity fails at {at}")
    return report


# -- JSON descriptors ------------------------------------------------------


def _integer(value, what: str) -> int:
    # bool is an int subclass; floats and numeric strings would be truncated
    # or coerced by int(), so only JSON integers pass
    if type(value) is not int:
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def _integer_rows(value, what: str) -> list:
    """A JSON list of lists of integers, checked entry by entry."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise InputError(f"{what} must be a list of integer lists")
    for row in value:
        for entry in row:
            _integer(entry, f"{what} entry")
    return value


def from_descriptor(obj) -> Matroid:
    """Build a matroid from the JSON descriptor format, as text or parsed.

    Nesting deeper than the interpreter's recursion limit is an input error.
    """
    try:
        if isinstance(obj, str):
            obj = json.loads(obj)
        return _from_parsed(obj)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad matroid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("matroid descriptor nests too deeply") from exc


def _from_parsed(obj) -> Matroid:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError("matroid descriptor must be an object with a 'type'")
    kind = obj["type"]
    try:
        if kind == "circuits":
            circuits = _integer_rows(obj["circuits"], "circuits")
            return from_circuits(_integer(obj["n"], "n"), circuits)
        if kind == "uniform":
            return uniform(_integer(obj["r"], "r"), _integer(obj["n"], "n"))
        if kind == "linear":
            field = PrimeField(_integer(obj["p"], "p"))
            mat = FieldMatrix(field, _integer_rows(obj["matrix"], "matrix"))
            role = obj.get("role", "parity_check")
            if role == "parity_check":
                return from_parity_check(mat)
            if role == "generator":
                return from_generator(mat)
            raise InputError(f"unknown linear role {role!r}")
        if kind == "dual":
            return _from_parsed(obj["of"]).dual()
    except KeyError as exc:
        raise InputError(f"matroid descriptor missing field {exc}") from exc
    raise InputError(f"unknown matroid type {kind!r}")
