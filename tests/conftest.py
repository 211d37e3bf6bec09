"""Shared fixtures: the two reference matroids, a small corpus, and random
matroid/code generators with fixed seeds."""

from __future__ import annotations

import os
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from matgreedy.gfp import FieldMatrix
from matgreedy.matroid import (
    LinearMatroid,
    Matroid,
    from_circuits,
    from_generator,
    from_parity_check,
    uniform,
)
from tests.paper_oracle import field_rank

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"
# pytest imports the package from src/ (pyproject's pythonpath); the
# interpreters that tests start import it from there too
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
)

TERNARY84_GENERATOR_ROWS = [
    [1, 0, 1, 1, 0, 0, 0, 0],
    [0, 1, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 1, 0],
    [0, 0, 0, 0, 1, 2, 0, 1],
]

M23_CIRCUITS = (
    [tuple(range(1, 9)), tuple(range(5, 13)), (1, 2, 3, 4, 9, 10, 11, 12)]
    + [c for c in combinations(range(13, 24), 9)]
)


@pytest.fixture(scope="session")
def ternary84_generator() -> FieldMatrix:
    return FieldMatrix(3, TERNARY84_GENERATOR_ROWS)


@pytest.fixture(scope="session")
def ternary84(ternary84_generator) -> Matroid:
    return from_generator(ternary84_generator)


@pytest.fixture(scope="session")
def m23() -> Matroid:
    return from_circuits(23, [_labels_to_mask(c) for c in M23_CIRCUITS])


def _labels_to_mask(labels) -> int:
    mask = 0
    for lab in labels:
        mask |= 1 << (lab - 1)
    return mask


def format_matrix(m: FieldMatrix) -> str:
    """The text form that parse_matrix reads: a "p rows cols" header line,
    then one line of entries per row."""
    lines = [f"{m.p} {m.nrows} {m.ncols}"]
    for i in range(m.nrows):
        lines.append(" ".join(str(int(x)) for x in m.data[i]))
    return "\n".join(lines) + "\n"


def random_field_matrix(rng: np.random.Generator, p: int, rows: int, cols: int) -> FieldMatrix:
    return FieldMatrix(p, rng.integers(0, p, size=(rows, cols)))


def random_code(rng: np.random.Generator, p: int, n: int, k: int) -> LinearMatroid:
    """The matroid of a random [n, k] code, whose M.kernel is the generator
    in reduced echelon form; resamples until the generator has full row rank."""
    while True:
        mat = random_field_matrix(rng, p, k, n)
        if field_rank(mat) == k:
            return from_generator(mat)


def random_matroid(rng: np.random.Generator, n: int) -> Matroid:
    """A random small matroid: linear over GF(2)/GF(3), its dual (linear
    over GF(2), the DualMatroid of its circuit-list twin over GF(3)), a
    random circuit set (the circuits of a random linear matroid), or uniform."""
    kind = rng.integers(0, 5)
    if kind == 0:
        return uniform(int(rng.integers(0, n + 1)), n)
    p = 2 if rng.integers(0, 2) == 0 else 3
    rows = int(rng.integers(1, max(2, n)))
    mat = random_field_matrix(rng, p, rows, n)
    M = from_parity_check(mat)
    if kind == 2 and p == 2:
        return M.dual()
    if kind in (2, 3):
        from matgreedy.ladder import circuits

        twin = from_circuits(n, list(circuits(M)))
        # over GF(3), kind 2 is the rank-formula dual of the circuit-list twin
        return twin.dual() if kind == 2 else twin
    return M


def random_circuit_lists(seed: int, count: int):
    """Seeded random antichains of nonempty subsets of {1..n}, n in 3..7."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 8))
        drawn = {int(x) for x in rng.integers(1, 1 << n, size=int(rng.integers(1, 7)))}
        anti = sorted(c for c in drawn if not any(o != c and o & ~c == 0 for o in drawn))
        yield {"n": n, "circuits": [[b + 1 for b in range(n) if m >> b & 1] for m in anti]}


# every command, as CLI arguments, that the seeded circuit lists are run through
SWEEP = ("weights", "chained", "betti", "betti --values", "strands --chain 1|1,2",
         "wei", "report", "validate")


def sweep_circuit_lists() -> list[dict]:
    """The 260 seeded lists every command is swept over: 154 matroids and
    106 lists that break circuit elimination."""
    return [*random_circuit_lists(6, 60), *random_circuit_lists(11, 200)]


def elimination_failure(circuits) -> tuple[int, int, int] | None:
    """The first pair C1, C2 of circuits (label lists), in (cardinality, mask)
    order, and the least e in both, such that no circuit lies in
    (C1 | C2) - e, as masks; None when circuit elimination holds."""
    masks = sorted({_labels_to_mask(c) for c in circuits}, key=lambda c: (c.bit_count(), c))
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            for e in range((a & b).bit_length()):
                rest = (a | b) & ~(1 << e)
                if (a & b) >> e & 1 and not any(c & ~rest == 0 for c in masks):
                    return a, b, 1 << e
    return None


def corpus_small(ternary84: Matroid) -> list[Matroid]:
    """The deterministic n <= 8 test corpus used by exhaustive suites."""
    matroids = [
        ternary84,
        ternary84.dual(),
        uniform(2, 4),
        uniform(0, 3),
        uniform(3, 3),
        uniform(1, 5),
        uniform(4, 8),
        from_circuits(3, [0b111]),
        from_circuits(4, [0b0011, 0b1100]),
        from_circuits(3, [0b001]),
        from_parity_check(FieldMatrix(2, [[1, 1, 0, 1, 0, 1], [0, 1, 1, 0, 1, 1]])),
        from_generator(FieldMatrix(2, [[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]])),
    ]
    rng = np.random.default_rng(20240811)
    while len(matroids) < 16:
        matroids.append(random_matroid(rng, int(rng.integers(4, 9))))
    return matroids


@pytest.fixture(scope="session")
def small_corpus(ternary84) -> list[Matroid]:
    return corpus_small(ternary84)
