"""Weight hierarchies over the cycle ladder: generalized Hamming weights,
bottom-up / top-down greedy weights, CEZ greedy weights, chainedness.

The greedy vectors are computed by frontier sweeps over the ladder.  For the
bottom-up (lex-minimal) profile the frontier at level l holds every ladder
member that ends an optimal length-l prefix; prefix feasibility depends only
on that endpoint, and every ladder member extends to the next level, so the
sweep is exact.  The top-down (revlex-minimal) profile is the mirrored sweep
from the top.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import require
from .ladder import is_cycle, ladder
from .masks import is_subset, popcount, to_labels
from .matroid import Matroid


def hamming_weights(M: Matroid) -> tuple[int, ...]:
    """d_r = minimum cardinality at ladder level r; empty for corank 0."""
    lad = ladder(M)
    return tuple(popcount(level[0]) for level in lad.levels)


def _frontier(levels, follows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sweep over levels in the given order; follows(prev, cur) says whether
    cur may come after prev in a chain.  Returns the profile in sweep order
    and a witness chain from the last level back to the first."""
    if not levels:
        return (), ()
    first = levels[0]
    frontier = [m for m in first if popcount(m) == popcount(first[0])]
    profile = [popcount(first[0])]
    links: list[dict[int, int]] = []
    for level in levels[1:]:
        best: int | None = None
        achievers: list[int] = []
        back: dict[int, int] = {}
        for mu in level:  # sorted by (cardinality, mask)
            card = popcount(mu)
            if best is not None and card > best:
                break
            for sigma in frontier:
                if follows(sigma, mu):
                    best = card
                    achievers.append(mu)
                    back[mu] = sigma
                    break
        require(best is not None, "every ladder member links to the next level")
        profile.append(best)
        frontier = achievers
        links.append(back)
    chain = [min(frontier)]
    for back in reversed(links):
        chain.append(back[chain[-1]])
    return tuple(profile), tuple(chain)


def greedy_bottom_up(M: Matroid) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lex-minimal cardinality profile over maximal ladder chains, plus one
    witness chain realizing it."""
    profile, chain = _frontier(ladder(M).levels, is_subset)
    return profile, chain[::-1]


def greedy_top_down(M: Matroid) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Revlex-minimal profile (rightmost coordinate compared first, smaller
    wins), plus one witness chain; both bottom-first."""
    levels = ladder(M).levels[::-1]
    profile, chain = _frontier(levels, lambda upper, lower: lower & ~upper == 0)
    return profile[::-1], chain


def greedy_cez(M: Matroid) -> tuple[tuple[int, ...], tuple[tuple[int | None, int], ...]]:
    """CEZ greedy weights: per-level minimum over ladder members containing
    some minimum-cardinality member of the previous level.

    Unlike the bottom-up sweep there is no chain memory, which is why the
    vector can fail to be monotone.  Witnesses are (tau, mu) pairs.
    """
    lad = ladder(M)
    if lad.t == 0:
        return (), ()
    d = hamming_weights(M)
    level1 = lad.level(1)
    g = [d[0]]
    pairs: list[tuple[int | None, int]] = [(None, level1[0])]
    for r in range(2, lad.t + 1):
        taus = [t_ for t_ in lad.level(r - 1) if popcount(t_) == d[r - 2]]
        witness: tuple[int, int] | None = None
        for mu in lad.level(r):  # ascending (cardinality, mask): first hit is minimal
            for tau in taus:
                if is_subset(tau, mu):
                    witness = (tau, mu)
                    break
            if witness is not None:
                break
        require(witness is not None, "no member contains a minimum-cardinality one below")
        g.append(popcount(witness[1]))
        pairs.append(witness)
    return tuple(g), tuple(pairs)


def is_chained(M: Matroid) -> tuple[bool, tuple[int, ...] | None]:
    """Whether one chain computes every d_i; witness chain when it does.

    Equivalent to e == d and to e-tilde == d (both directions of the sweep
    reach the same verdict, asserted here).  A chained matroid also has
    g == d; the converse can fail, so g is only checked one way.
    """
    d = hamming_weights(M)
    e, chain = greedy_bottom_up(M)
    et, _ = greedy_top_down(M)
    chained = e == d
    require(chained == (et == d), "bottom-up and top-down chainedness disagree")
    if chained:
        g, _ = greedy_cez(M)
        require(g == d, "chained matroid must have CEZ weights equal to d")
        return True, chain
    return False, None


@dataclass(frozen=True)
class WeightReport:
    """All four weight vectors with witnesses and the chainedness verdict."""

    n: int
    t: int
    d: tuple[int, ...]
    e: tuple[int, ...]
    e_tilde: tuple[int, ...]
    g: tuple[int, ...]
    witness_d: tuple[int, ...]
    witness_e: tuple[int, ...]
    witness_e_tilde: tuple[int, ...]
    witness_g: tuple[tuple[int | None, int], ...]
    chained: bool

    def validate(self) -> None:
        """Raise InvariantError unless the relations of every matroid hold."""
        for name, vec in (("d", self.d), ("e", self.e), ("e_tilde", self.e_tilde)):
            require(all(a < b for a, b in zip(vec, vec[1:])), f"{name} must increase: {vec}")
        require(len(self.d) == self.t, f"d has {len(self.d)} entries, want t = {self.t}")
        if self.t >= 1:
            require(self.e[0] == self.g[0] == self.d[0], "e_1, g_1 and d_1 must agree")
            require(self.e_tilde[-1] == self.d[-1], "e-tilde_t and d_t must agree")
        if self.t >= 2:
            require(self.g[1] == self.e[1], "g_2 and e_2 must agree")
        for i in range(self.t):
            require(self.d[i] <= min(self.e[i], self.e_tilde[i], self.g[i]), "d must be least")
        for chain in (self.witness_e, self.witness_e_tilde):
            for a, b in zip(chain, chain[1:]):
                require(is_subset(a, b) and a != b, "witness chain must increase")
        witnesses = (self.witness_e, self.witness_e_tilde, self.witness_d,
                     [pair[1] for pair in self.witness_g])
        sizes = [tuple(popcount(m) for m in w) for w in witnesses]
        require(sizes == [self.e, self.e_tilde, self.d, self.g], "witness sizes must match")
        require(self.chained == (self.e == self.d), "chained must mean e == d")

    def to_json_dict(self) -> dict:
        def labels(mask: int) -> list[int]:
            return list(to_labels(mask))

        return {
            "n": self.n,
            "t": self.t,
            "d": list(self.d),
            "e": list(self.e),
            "e_tilde": list(self.e_tilde),
            "g": list(self.g),
            "chained": self.chained,
            "witnesses": {
                "d": [labels(m) for m in self.witness_d],
                "e": [labels(m) for m in self.witness_e],
                "e_tilde": [labels(m) for m in self.witness_e_tilde],
                "g": [
                    [None if t_ is None else labels(t_), labels(mu)]
                    for t_, mu in self.witness_g
                ],
            },
        }


def weight_report(M: Matroid) -> WeightReport:
    """Compute every weight family and validate the report invariants."""
    lad = ladder(M)
    d = hamming_weights(M)
    e, chain_e = greedy_bottom_up(M)
    et, chain_et = greedy_top_down(M)
    g, pairs = greedy_cez(M)
    witness_d = tuple(level[0] for level in lad.levels)
    report = WeightReport(
        n=M.n,
        t=lad.t,
        d=d,
        e=e,
        e_tilde=et,
        g=g,
        witness_d=witness_d,
        witness_e=chain_e,
        witness_e_tilde=chain_et,
        witness_g=pairs,
        chained=e == d,
    )
    report.validate()
    for level_idx, mask in enumerate(chain_e, start=1):
        require(is_cycle(M, mask) == (True, level_idx), f"{to_labels(mask)} is no cycle")
    return report
