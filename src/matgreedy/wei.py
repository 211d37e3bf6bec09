"""Complement-chain construction and the Wei duality identities.

A maximal ladder chain of M with cardinality profile (c_1..c_t) determines,
through complements, a chain for the dual matroid whose cardinalities are
{1..n} minus {n+1-c_i}.  The duality checks assert the resulting
disjoint-union identities for the greedy and classical weight families; they
double as end-to-end oracles for the whole weights pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .ladder import ladder
from .masks import full_mask, is_subset, popcount, singletons, to_labels
from .matroid import Matroid
from .weights import greedy_bottom_up, greedy_top_down, hamming_weights


@dataclass(frozen=True)
class ChainProfile:
    """Cardinality profile of a chain together with its complementary profile.

    complement_profile is completion-independent: {1..n} minus the reflected
    cardinalities {n+1-c}.
    """

    n: int
    cardinalities: tuple[int, ...]
    complement_profile: frozenset[int]

    def __post_init__(self):
        expected = frozenset(range(1, self.n + 1)) - {
            self.n + 1 - c for c in self.cardinalities
        }
        if self.complement_profile != expected:
            raise InputError("complement profile inconsistent with cardinalities")
        if len(self.cardinalities) + len(self.complement_profile) != self.n:
            raise InputError("profile sizes must partition 1..n")

    @classmethod
    def from_cardinalities(cls, n: int, cards) -> "ChainProfile":
        cards = tuple(cards)
        if any(b <= a for a, b in zip(cards, cards[1:])):
            raise InputError("chain cardinalities must strictly increase")
        comp = frozenset(range(1, n + 1)) - {n + 1 - c for c in cards}
        return cls(n=n, cardinalities=cards, complement_profile=comp)


def delta_chain(M: Matroid, chain) -> tuple[int, ...]:
    """Complement chain for the dual matroid.

    The complements of the chain members are completed to a maximal subset
    chain (missing elements inserted in ascending label order, which picks a
    canonical representative), and the sets whose cardinality reflects a
    chain member are removed.  The surviving cardinalities are exactly the
    complement profile.
    """
    chain = tuple(chain)
    lad = ladder(M)
    if len(chain) != lad.t:
        raise InputError(f"chain length {len(chain)} differs from corank {lad.t}")
    for i, mask in enumerate(chain, start=1):
        if not lad.contains(i, mask):
            raise InputError(f"{to_labels(mask)} is not a ladder member at level {i}")
    for a, b in zip(chain, chain[1:]):
        if not (is_subset(a, b) and a != b):
            raise InputError("chain must strictly increase")
    n = M.n
    top = full_mask(n)
    anchors = [top & ~mask for mask in reversed(chain)]  # increasing by inclusion
    maximal: list[int] = []
    current = 0
    for anchor in anchors + [top]:
        for bit in singletons(anchor & ~current):
            current |= bit
            maximal.append(current)
    removed = {n + 1 - popcount(mask) for mask in chain}
    return tuple(m for m in maximal if popcount(m) not in removed)


def _identity_report(n: int, left, right) -> dict:
    transformed = [n + 1 - x for x in right]
    union = sorted(set(left) | set(transformed))
    holds = (
        len(set(left)) + len(set(transformed)) == n
        and union == list(range(1, n + 1))
    )
    return {
        "identity_holds": holds,
        "left": sorted(left),
        "right_transformed": sorted(transformed),
        "union": union,
    }


def _capped_dual(M: Matroid, cap: int | None) -> Matroid:
    """The dual, with both ladders built under cap when one is given."""
    dual = M.dual()
    if cap is not None:
        ladder(M, cap=cap)
        ladder(dual, cap=cap)
    return dual


def check_wei_greedy(M: Matroid, cap: int | None = None) -> dict:
    """Bottom-up weights of M against top-down weights of the dual:
    {e_i} and {n+1 - dual e-tilde_j} must partition {1..n}."""
    dual = _capped_dual(M, cap)
    e, _ = greedy_bottom_up(M)
    et_dual, _ = greedy_top_down(dual)
    return _identity_report(M.n, list(e), list(et_dual))


def check_wei_classical(M: Matroid, cap: int | None = None) -> dict:
    """Same partition identity for the generalized Hamming weights."""
    dual = _capped_dual(M, cap)
    d = hamming_weights(M)
    d_dual = hamming_weights(dual)
    return _identity_report(M.n, list(d), list(d_dual))
