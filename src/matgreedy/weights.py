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

from bisect import bisect_right
from dataclasses import dataclass

from .errors import require
from .ladder import ladder
from .masks import is_subset, popcount, to_labels
from .matroid import Matroid


def hamming_weights(M: Matroid) -> tuple[int, ...]:
    """d_r = minimum cardinality at ladder level r; empty for corank 0."""
    lad = ladder(M)
    return tuple(popcount(level[0]) for level in lad.levels)


def _lightest(level) -> list[int]:
    """Members of least cardinality of a level sorted by (cardinality, mask)."""
    return list(level[: bisect_right(level, popcount(level[0]), key=popcount)])


def _step(frontier, level, follows) -> dict[int, int]:
    """One greedy step: the level members of least cardinality that follow
    some frontier member, in level order, each mapped to the first frontier
    member it follows."""
    best, back = None, {}
    for mu in level:  # sorted by (cardinality, mask)
        if best is not None and popcount(mu) > best:
            break
        for sigma in frontier:
            if follows(sigma, mu):
                best, back[mu] = popcount(mu), sigma
                break
    require(back, "every ladder member links to the next level")
    return back


def _frontier(levels, follows) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sweep over levels in the given order; follows(prev, cur) says whether
    cur may come after prev in a chain.  Returns the profile in sweep order
    and a witness chain from the last level back to the first."""
    if not levels:
        return (), ()
    frontier, links = _lightest(levels[0]), []
    for level in levels[1:]:
        links.append(_step(frontier, level, follows))
        frontier = list(links[-1])
    chain = [min(frontier)]
    for back in reversed(links):
        chain.append(back[chain[-1]])
    # every member a step keeps has the step's least cardinality
    return tuple(popcount(m) for m in reversed(chain)), tuple(chain)


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
    levels = ladder(M).levels
    pairs: list[tuple[int | None, int]] = [(None, levels[0][0])] if levels else []
    for below, level in zip(levels, levels[1:]):
        # the step's first member is the least of its cardinality
        mu, tau = next(iter(_step(_lightest(below), level, is_subset).items()))
        pairs.append((tau, mu))
    return tuple(popcount(mu) for _, mu in pairs), tuple(pairs)


def is_chained(M: Matroid) -> tuple[bool, tuple[int, ...] | None]:
    """Whether one chain computes every d_i, read off the weight report;
    the witness chain (the bottom-up one) when it does."""
    report = weight_report(M)
    return report.chained, report.witness_e if report.chained else None


@dataclass(frozen=True)
class WeightReport:
    """All four weight vectors with witnesses; t and the chainedness verdict
    are read off them."""

    n: int
    d: tuple[int, ...]
    e: tuple[int, ...]
    e_tilde: tuple[int, ...]
    g: tuple[int, ...]
    witness_d: tuple[int, ...]
    witness_e: tuple[int, ...]
    witness_e_tilde: tuple[int, ...]
    witness_g: tuple[tuple[int | None, int], ...]

    @property
    def t(self) -> int:
        return len(self.d)

    @property
    def chained(self) -> bool:
        """One chain computes every d_i: e == d, equivalently e-tilde == d."""
        return self.e == self.d

    def validate(self) -> None:
        """Raise InvariantError unless the relations of every matroid hold."""
        for name, vec in (("d", self.d), ("e", self.e), ("e_tilde", self.e_tilde)):
            require(all(a < b for a, b in zip(vec, vec[1:])), f"{name} must increase: {vec}")
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
        require(self.chained == (self.e_tilde == self.d),
                "bottom-up and top-down chainedness disagree")
        # a chained matroid has g == d; the converse can fail
        require(not self.chained or self.g == self.d,
                "chained matroid must have CEZ weights equal to d")

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
    report = WeightReport(M.n, d, e, et, g, witness_d, chain_e, chain_et, pairs)
    report.validate()
    return report
