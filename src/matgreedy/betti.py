"""Betti data of the circuit-generated monomial quotient ring, strand
predicates, and resolution-shape classification.

The multigraded Betti support equals the cycle ladder (plus the unit in
homological index 0), which is how betti_support reads it off.  Exact values
come from the Moebius function of the lattice of cycles, which is the ladder
plus the empty set: matroid complexes have homology in top degree only, so
beta_{i,X} = |mu(0, X)| for X on level i, and the numbers are
field-independent.  Strand predicates are purely combinatorial and never
materialize differential matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CapExceeded, InputError, InvariantError
from .ladder import ladder
from .masks import is_subset, popcount, to_labels
from .matroid import Matroid

# int64 sums of Moebius values are exact while the summed |mu| stay below this
MOBIUS_SUM_CAP = 2**62


@dataclass(frozen=True)
class BettiDiagram:
    """Multigraded support (and optionally values) per homological index.

    levels[i] lists the support sets at homological index i, for i in 0..t;
    level 0 is always the empty set alone.  values maps (i, mask) pairs to
    positive integers when computed.
    """

    n: int
    t: int
    levels: tuple[tuple[int, ...], ...]
    values: dict[tuple[int, int], int] | None = None

    def table_support(self) -> tuple[tuple[int, int], ...]:
        """Sorted (i, j) pairs with some support set of cardinality j at index i."""
        pairs = {
            (i, popcount(mask))
            for i, lv in enumerate(self.levels)
            for mask in lv
        }
        return tuple(sorted(pairs))

    def table_values(self) -> dict[tuple[int, int], int]:
        """Aggregated table: sum of the multigraded values per cardinality."""
        if self.values is None:
            raise InputError("diagram carries no values; use betti_values()")
        out: dict[tuple[int, int], int] = {}
        for (i, mask), val in self.values.items():
            key = (i, popcount(mask))
            out[key] = out.get(key, 0) + val
        return out

    def to_json_dict(self) -> dict:
        doc: dict = {
            "n": self.n,
            "t": self.t,
            "support": [
                [i, list(to_labels(mask))]
                for i, lv in enumerate(self.levels)
                for mask in lv
            ],
            "table_support": [list(p) for p in self.table_support()],
        }
        if self.values is not None:
            doc["values"] = {
                f"{i}|{','.join(str(x) for x in to_labels(mask))}": val
                for (i, mask), val in self.values.items()
            }
            doc["table"] = {f"{i}|{j}": val for (i, j), val in self.table_values().items()}
        return doc


def betti_support(M: Matroid) -> BettiDiagram:
    """Support read directly off the cycle ladder."""
    lad = ladder(M)
    return BettiDiagram(n=M.n, t=lad.t, levels=((0,),) + lad.levels)


def _mobius(levels) -> list[np.ndarray]:
    """mu(0, X) for the members X of each given ladder level, level by level.

    mu(0, 0) = 1 and mu(0, X) = -sum of mu(0, Y) over the members Y of the
    lower levels with Y in X; a level is an antichain, so no member of X's
    own level lies strictly inside X.
    """
    lower = np.zeros(1, dtype=np.uint64)
    lower_mu = np.ones(1, dtype=np.int64)
    reach = 1  # sum of |mu| over the lower members, an exact Python int
    out = []
    for i, level in enumerate(levels, start=1):
        if reach >= MOBIUS_SUM_CAP:
            raise CapExceeded(
                f"Moebius values at ladder level {i}: the lower |mu| sum "
                f"{reach} reaches the int64 bound {MOBIUS_SUM_CAP}"
            )
        level = np.asarray(level, dtype=np.uint64)
        mu = -kernels.subset_sums(level, lower, lower_mu)
        out.append(mu)
        reach += sum(map(abs, mu.tolist()))
        lower = np.concatenate([lower, level])
        lower_mu = np.concatenate([lower_mu, mu])
    return out


def betti_values(M: Matroid) -> BettiDiagram:
    """Support plus exact values on every support pair.

    Checks that every value is positive and that mu(0, X) has the sign
    (-1)^i of a geometric lattice.
    """
    diagram = betti_support(M)
    values = {(0, 0): 1}
    for i, (level, mu) in enumerate(
        zip(diagram.levels[1:], _mobius(diagram.levels[1:])), start=1
    ):
        wrong = np.flatnonzero(mu * (-1) ** i <= 0)
        if wrong.size:
            raise InvariantError(
                f"support pair ({i}, {to_labels(level[wrong[0]])}) has "
                f"mu = {mu[wrong[0]]}, want a nonzero value of sign (-1)^{i}"
            )
        values.update(zip(((i, X) for X in level), map(abs, mu.tolist())))
    return BettiDiagram(n=M.n, t=diagram.t, levels=diagram.levels, values=values)


def strand_nonzero(M: Matroid, l: int, rho: int, mu: int) -> bool:
    """Whether the component map at step l between multidegrees rho and mu is
    nonzero: rho a ladder member at level l-1 (the empty set when l = 1),
    mu one at level l, and rho contained in mu (strictly, as levels differ)."""
    lad = ladder(M)
    if not 1 <= l <= lad.t or mu not in lad.levels[l - 1]:
        return False
    if l == 1:
        return rho == 0
    return rho in lad.levels[l - 2] and is_subset(rho, mu)


def strand_check(M: Matroid, chain) -> bool:
    """Whether every component map along the strand of a chain of subsets,
    one per homological index 1..t, is nonzero.

    Chains that fail to increase are accepted on purpose: their strands
    simply contain a zero map, so the answer is False rather than an error.
    """
    lad = ladder(M)
    if len(chain) != lad.t:
        raise InputError(f"strand length {len(chain)} differs from corank {lad.t}")
    prev = 0
    for l, mask in enumerate(chain, start=1):
        if not strand_nonzero(M, l, prev, mask):
            return False
        prev = mask
    return True


@dataclass(frozen=True)
class ResolutionShape:
    pure: bool
    linear: bool
    degrees: tuple[int, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "pure": self.pure,
            "linear": self.linear,
            "degrees": None if self.degrees is None else list(self.degrees),
        }


def resolution_shape(M: Matroid) -> ResolutionShape:
    """Purity (one support cardinality per level) and linearity (consecutive
    cardinalities).  Degrees in this setting strictly increase, so linearity
    is the +1 condition."""
    lad = ladder(M)
    degrees = []
    for lv in lad.levels:
        cards = {popcount(m) for m in lv}
        if len(cards) != 1:
            return ResolutionShape(pure=False, linear=False, degrees=None)
        degrees.append(cards.pop())
    linear = all(b == a + 1 for a, b in zip(degrees, degrees[1:]))
    return ResolutionShape(pure=True, linear=linear, degrees=tuple(degrees))
