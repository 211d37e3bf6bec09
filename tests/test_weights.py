"""Weight vectors: frontier sweeps vs the chain oracle, report invariants,
chainedness, and the restricted-vs-unrestricted chain minima equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from matgreedy.errors import CapExceeded
from matgreedy.masks import from_labels, full_mask, is_subset, popcount
from matgreedy.matroid import Matroid, from_circuits, uniform
from matgreedy.weights import (
    greedy_bottom_up,
    greedy_cez,
    greedy_top_down,
    hamming_weights,
    is_chained,
    weight_report,
)
from tests.conftest import random_matroid
from tests.ladder_oracle import chains_bruteforce, is_cycle, nullity


def unrestricted_chain_minima(M: Matroid):
    """Lex/revlex minima over chains through ALL sets of each nullity (not
    just the inclusion-minimal ones); exponential, n <= 8 only."""
    t = M.corank
    if t == 0:
        return (), ()
    by_nullity: dict[int, list[int]] = {i: [] for i in range(1, t + 1)}
    for mask in range(1 << M.n):
        nl = nullity(M, mask)
        if 1 <= nl <= t:
            by_nullity[nl].append(mask)
    suffix = {m: (popcount(m),) for m in by_nullity[t]}
    for level in range(t - 1, 0, -1):
        nxt = {}
        for m in by_nullity[level]:
            exts = [
                suffix[u]
                for u in by_nullity[level + 1]
                if is_subset(m, u) and m != u and u in suffix
            ]
            if exts:
                nxt[m] = (popcount(m),) + min(exts)
        suffix = nxt
    lex = min(suffix.values())
    prefix = {m: (popcount(m),) for m in by_nullity[1]}
    revkey = lambda v: tuple(reversed(v))
    for level in range(2, t + 1):
        nxt = {}
        for m in by_nullity[level]:
            exts = [
                prefix[u]
                for u in by_nullity[level - 1]
                if is_subset(u, m) and m != u and u in prefix
            ]
            if exts:
                nxt[m] = min(exts, key=revkey) + (popcount(m),)
        prefix = nxt
    revlex = min(prefix.values(), key=revkey)
    return lex, revlex


def test_ternary84_all_vectors(ternary84):
    assert hamming_weights(ternary84) == (2, 4, 6, 8)
    assert greedy_bottom_up(ternary84)[0] == (2, 4, 7, 8)
    assert greedy_top_down(ternary84)[0] == (3, 4, 6, 8)


def test_ternary84_cez_definition_value(ternary84):
    # {1,2,5,6,7,8} has nullity 3 and contains {5,6,7,8}, a nullity-2 set of
    # cardinality d_2 = 4, so the level-3 CEZ weight is 6 (not the bottom-up
    # value 7; see README "Known discrepancies")
    g, pairs = greedy_cez(ternary84)
    assert g == (2, 4, 6, 8)
    tau, mu = pairs[2]
    assert tau == from_labels([5, 6, 7, 8])
    assert mu == from_labels([1, 2, 5, 6, 7, 8])


def test_m23_vectors(m23):
    assert hamming_weights(m23) == (8, 10, 11, 19, 23)
    assert greedy_cez(m23)[0] == (8, 12, 11, 19, 23)
    assert greedy_bottom_up(m23)[0] == (8, 12, 21, 22, 23)
    assert greedy_top_down(m23)[0] == (9, 10, 11, 19, 23)


def test_m23_cez_non_monotone(m23):
    g, _ = greedy_cez(m23)
    assert g[2] < g[1]


def test_m23_frontier_equals_oracle(m23):
    lex, revlex = chains_bruteforce(m23)
    assert lex == greedy_bottom_up(m23)[0]
    assert revlex == greedy_top_down(m23)[0]


def test_uniform_weights():
    M = uniform(2, 4)
    assert hamming_weights(M) == (3, 4)
    assert greedy_bottom_up(M)[0] == (3, 4)
    assert greedy_top_down(M)[0] == (3, 4)
    assert greedy_cez(M)[0] == (3, 4)
    assert chains_bruteforce(M) == ((3, 4), (3, 4))


def test_uniform_hamming_formula():
    # minimal nullity-i subsets of U_{r,n} are the (r+i)-subsets
    for n in range(1, 9):
        for r in range(n):
            M = uniform(r, n)
            assert hamming_weights(M) == tuple(r + i for i in range(1, n - r + 1))


def test_free_matroid_empty_report():
    M = uniform(3, 3)
    report = weight_report(M)
    assert report.t == 0
    assert report.d == report.e == report.e_tilde == report.g == ()
    assert report.chained


def test_loop_matroid():
    M = from_circuits(3, [[1]])
    assert hamming_weights(M)[0] == 1


def test_ternary84_dual_top_down(ternary84):
    assert greedy_top_down(ternary84.dual())[0] == (3, 4, 6, 8)


def test_frontier_equals_oracle_corpus(small_corpus):
    for M in small_corpus:
        lex, revlex = chains_bruteforce(M)
        assert lex == greedy_bottom_up(M)[0]
        assert revlex == greedy_top_down(M)[0]


def test_frontier_equals_oracle_random():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        M = random_matroid(rng, int(rng.integers(2, 13)))
        lex, revlex = chains_bruteforce(M)
        assert lex == greedy_bottom_up(M)[0]
        assert revlex == greedy_top_down(M)[0]


def test_restricted_vs_unrestricted_minima(small_corpus):
    for M in small_corpus:
        if M.n > 8 or M.corank == 0:
            continue
        lex_full, revlex_full = unrestricted_chain_minima(M)
        lex, revlex = chains_bruteforce(M)
        assert lex == lex_full
        assert revlex == revlex_full


def test_report_invariants_corpus(small_corpus):
    for M in small_corpus:
        report = weight_report(M)
        vec = report.d
        assert all(a < b for a, b in zip(vec, vec[1:]))
        if report.t >= 1:
            assert report.e[0] == report.g[0] == report.d[0]
            assert report.e_tilde[-1] == report.d[-1]
        if report.t >= 2:
            assert report.g[1] == report.e[1]
        for i in range(report.t):
            assert report.d[i] <= report.e[i]
            assert report.d[i] <= report.e_tilde[i]
            assert report.d[i] <= report.g[i]


def test_witnesses_are_cycles_of_right_level(small_corpus):
    for M in small_corpus:
        report = weight_report(M)
        levels = [(True, level) for level in range(1, report.t + 1)]
        for witness in (report.witness_e, report.witness_e_tilde, report.witness_d):
            assert is_cycle(M, witness) == levels
        assert is_cycle(M, [mu for _, mu in report.witness_g]) == levels
        taus = [tau for tau, _ in report.witness_g[1:]]
        assert is_cycle(M, taus) == levels[:-1]
        assert all(is_subset(tau, mu) for tau, mu in report.witness_g[1:])


def test_chainedness_fixture_cases(ternary84, m23):
    assert is_chained(uniform(2, 4)) == (True, (from_labels([1, 2, 3]), full_mask(4)))
    verdict, chain = is_chained(ternary84)
    assert verdict is False and chain is None
    assert is_chained(m23)[0] is False


def test_chained_iff_dual_chained():
    rng = np.random.default_rng(5150)
    for _ in range(40):
        M = random_matroid(rng, int(rng.integers(2, 11)))
        assert is_chained(M)[0] == is_chained(M.dual())[0]


def test_chained_witness_computes_d(small_corpus):
    for M in small_corpus:
        verdict, chain = is_chained(M)
        if verdict and M.corank:
            d = hamming_weights(M)
            assert tuple(popcount(m) for m in chain) == d


def test_bruteforce_cap():
    with pytest.raises(CapExceeded):
        chains_bruteforce(uniform(3, 10), cap=10)


def test_report_json_shape(ternary84):
    doc = weight_report(ternary84).to_json_dict()
    assert set(doc) == {"n", "t", "d", "e", "e_tilde", "g", "chained", "witnesses"}
    assert doc["witnesses"]["g"][0][0] is None
    assert doc["d"] == [2, 4, 6, 8]


def test_report_invariants_fire_under_optimize():
    # validate raises InvariantError, not an assert, so python -O keeps it;
    # the second report has e-tilde == d but e != d
    import subprocess
    import sys

    script = (
        "from matgreedy.errors import InvariantError\n"
        "from matgreedy.weights import WeightReport\n"
        "reports = [\n"
        "    WeightReport(n=4, d=(2, 4), e=(3, 4), e_tilde=(2, 4), g=(2, 4),\n"
        "                 witness_d=(3, 15), witness_e=(7, 15), witness_e_tilde=(3, 15),\n"
        "                 witness_g=((None, 3), (3, 15))),\n"
        "    WeightReport(n=5, d=(2, 3, 5), e=(2, 4, 5), e_tilde=(2, 3, 5), g=(2, 4, 5),\n"
        "                 witness_d=(3, 7, 31), witness_e=(3, 15, 31),\n"
        "                 witness_e_tilde=(3, 7, 31),\n"
        "                 witness_g=((None, 3), (3, 15), (15, 31))),\n"
        "]\n"
        "for report in reports:\n"
        "    try:\n"
        "        report.validate()\n"
        "    except InvariantError as exc:\n"
        "        print('refused:', exc)\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "refused: e_1, g_1 and d_1 must agree",
        "refused: bottom-up and top-down chainedness disagree",
    ]
