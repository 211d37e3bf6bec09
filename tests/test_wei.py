"""Complement-chain construction and both duality identities."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from matgreedy import cli, kernels
from matgreedy.errors import CapExceeded, InputError
from matgreedy.ladder import circuits, ladder
from matgreedy.masks import from_labels, full_mask, is_subset, popcount
from matgreedy.matroid import from_circuits, from_parity_check, uniform
from matgreedy.gfp import FieldMatrix
from matgreedy.wei import (
    check_wei_classical,
    check_wei_greedy,
    dual_greedy_top_down,
    dual_hamming_weights,
)
from matgreedy.weights import greedy_bottom_up, greedy_top_down, hamming_weights
from tests.conftest import FIXTURES, random_field_matrix, random_matroid
from tests.ladder_oracle import nullity
from tests.paper_oracle import complement_profile, delta_chain


def test_chain_profile_formula():
    assert complement_profile(8, (2, 4, 7, 8)) == frozenset({3, 4, 6, 8})
    assert complement_profile(4, (3, 4)) == frozenset({3, 4})


def test_chain_profile_validation():
    with pytest.raises(InputError):
        complement_profile(4, (3, 3))
    # a profile and its reflected cardinalities partition 1..n
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        cards = sorted(rng.choice(np.arange(1, n + 1), int(rng.integers(0, n + 1)), replace=False))
        prof = complement_profile(n, cards)
        reflected = {n + 1 - c for c in cards}
        assert prof.isdisjoint(reflected) and prof | reflected == set(range(1, n + 1))


def test_delta_chain_ternary84(ternary84):
    e, chain = greedy_bottom_up(ternary84)
    assert e == (2, 4, 7, 8)
    dual_chain = delta_chain(ternary84, chain)
    cards = tuple(popcount(m) for m in dual_chain)
    assert cards == (3, 4, 6, 8)
    assert set(cards) == complement_profile(8, e)
    for a, b in zip(dual_chain, dual_chain[1:]):
        assert is_subset(a, b) and a != b


def test_delta_chain_all_loops():
    M = uniform(0, 3)
    chain = (from_labels([1]), from_labels([1, 2]), from_labels([1, 2, 3]))
    assert delta_chain(M, chain) == ()


def test_delta_chain_uniform24():
    M = uniform(2, 4)
    chain = (from_labels([1, 2, 3]), full_mask(4))
    dual_chain = delta_chain(M, chain)
    assert tuple(popcount(m) for m in dual_chain) == (3, 4)


def test_delta_chain_complement_anchors(ternary84):
    _, chain = greedy_bottom_up(ternary84)
    dual_chain = delta_chain(ternary84, chain)
    # every complement of a chain member appears in the completed chain and
    # survives unless its cardinality was removed
    removed = {9 - popcount(m) for m in chain}
    top = full_mask(8)
    for m in chain:
        comp = top & ~m
        if popcount(comp) and popcount(comp) not in removed:
            assert comp in dual_chain


def test_delta_chain_rejects_bad_chain(ternary84):
    with pytest.raises(InputError):
        delta_chain(ternary84, (from_labels([1, 2]),))
    with pytest.raises(InputError):
        delta_chain(
            ternary84,
            (
                from_labels([1, 3]),
                from_labels([1, 2, 3, 4]),
                from_labels([1, 2, 3, 4, 5, 6, 7]),
                full_mask(8),
            ),
        )


def test_delta_of_optimal_chain_has_dual_nullity_steps():
    # the complement chain of a lex-optimal chain climbs the dual ladder one
    # nullity at a time
    rng = np.random.default_rng(99)
    for _ in range(40):
        M = random_matroid(rng, int(rng.integers(2, 11)))
        if M.corank == 0:
            continue
        _, chain = greedy_bottom_up(M)
        dual = M.dual()
        for idx, tau in enumerate(delta_chain(M, chain), start=1):
            assert nullity(dual, tau) == idx


def test_lex_revlex_mirror_on_chain_pairs():
    # profiles map through complementation: S <lex S'  iff  dS <revlex dS'
    rng = np.random.default_rng(123)

    def revkey(cards):
        return tuple(reversed(tuple(cards)))

    for _ in range(40):
        M = random_matroid(rng, int(rng.integers(3, 10)))
        lad = ladder(M)
        if lad.t < 2:
            continue
        chains = _sample_chains(lad, rng, count=6)
        for s1 in chains:
            for s2 in chains:
                e1 = tuple(popcount(m) for m in s1)
                e2 = tuple(popcount(m) for m in s2)
                c1 = sorted(complement_profile(M.n, e1))
                c2 = sorted(complement_profile(M.n, e2))
                assert (e1 < e2) == (revkey(c1) < revkey(c2))


def _sample_chains(lad, rng, count):
    chains = []
    for _ in range(count):
        chain = [lad.levels[0][rng.integers(0, len(lad.levels[0]))]]
        ok = True
        for lvl in range(2, lad.t + 1):
            ups = [m for m in lad.levels[lvl - 1] if is_subset(chain[-1], m)]
            if not ups:
                ok = False
                break
            chain.append(ups[rng.integers(0, len(ups))])
        if ok:
            chains.append(tuple(chain))
    return chains


def test_wei_greedy_ternary84(ternary84):
    report = check_wei_greedy(ternary84)
    assert report["identity_holds"]
    assert report["left"] == [2, 4, 7, 8]
    assert greedy_top_down(ternary84.dual())[0] == (3, 4, 6, 8)


def test_wei_classical_ternary84(ternary84):
    report = check_wei_classical(ternary84)
    assert report["identity_holds"]
    assert hamming_weights(ternary84.dual()) == (2, 4, 6, 8)


def test_wei_free_matroid():
    M = from_parity_check(FieldMatrix(2, np.eye(3, dtype=int)))
    report = check_wei_greedy(M)
    assert report["identity_holds"]
    assert report["left"] == []
    assert greedy_top_down(M.dual())[0] == (1, 2, 3)


def test_wei_single_loop():
    M = uniform(0, 1)
    report = check_wei_classical(M)
    assert report["identity_holds"]
    assert report["left"] == [1]


def test_wei_uniform_all():
    for n in range(2, 9):
        for r in range(1, n):
            M = uniform(r, n)
            assert check_wei_greedy(M)["identity_holds"]
            assert check_wei_classical(M)["identity_holds"]


def test_wei_random_matroids():
    rng = np.random.default_rng(31337)
    for _ in range(50):
        M = random_matroid(rng, int(rng.integers(2, 13)))
        assert check_wei_greedy(M)["identity_holds"]
        assert check_wei_classical(M)["identity_holds"]


def _dual_side_oracle(M):
    """Both dual sides read off the dual's own ladder."""
    dual = M.dual()
    return greedy_top_down(dual)[0], hamming_weights(dual)


def test_flats_walk_and_rank_scan_equal_dual_ladder():
    # linear matroids over GF(2/3/5), their circuit-list twins and their duals
    rng = np.random.default_rng(2718)
    for it in range(60):
        p = (2, 3, 5)[it % 3]
        n = int(rng.integers(4, 12))
        M = from_parity_check(random_field_matrix(rng, p, int(rng.integers(1, n + 1)), n))
        for X in (M, from_circuits(n, list(circuits(M))), M.dual()):
            assert (dual_greedy_top_down(X), dual_hamming_weights(X)) == _dual_side_oracle(X)


@pytest.mark.parametrize(
    "M",
    [
        uniform(0, 5),
        uniform(5, 5),
        uniform(0, 0),
        from_circuits(5, [0b00001, 0b00010]),  # two loops
        from_circuits(5, [0b00111]),  # coloops 4 and 5
        from_circuits(6, [0b000001, 0b011110]),  # a loop and a coloop
    ],
    ids=["U0,5", "U5,5", "U0,0", "loops", "coloops", "loop-and-coloop"],
)
def test_flats_walk_edge_matroids(M):
    assert (dual_greedy_top_down(M), dual_hamming_weights(M)) == _dual_side_oracle(M)
    assert check_wei_greedy(M)["identity_holds"]
    assert check_wei_classical(M)["identity_holds"]


def _loaded(monkeypatch):
    """Record the matroid every cli.run loads."""
    seen = []
    real = cli._load_input

    def load(path):
        M, code = real(path)
        seen.append(M)
        return M, code

    monkeypatch.setattr(cli, "_load_input", load)
    return seen


@pytest.mark.parametrize(
    "name", ["ternary84.json", "ternary84_code.txt", "uniform_2_4.json", "m23.json"]
)
def test_wei_commands_build_no_dual_ladder(monkeypatch, name):
    # every ladder and the flats walk go through circuits(); only the loaded
    # matroid may reach it, and every dual is a new object
    built = []
    real = sys.modules["matgreedy.ladder"].circuits
    for module in ("matgreedy.ladder", "matgreedy.wei"):
        monkeypatch.setattr(sys.modules[module], "circuits",
                            lambda M, cap: built.append(M) or real(M, cap))
    loaded = _loaded(monkeypatch)
    for command in ("wei", "report"):
        status, _ = cli.run(cli.RunConfig(command, str(FIXTURES / name)))
        assert status == 0
    assert loaded and all(M is loaded[0] or M is loaded[1] for M in built)
    assert all(M._ladder is not None for M in loaded)


def test_flats_walk_cap_trips_before_the_batch(m23, monkeypatch):
    batches = []
    real = kernels.circuit_closures

    def counting(masks, circs):
        batches.append(len(masks))
        return real(masks, circs)

    monkeypatch.setattr(kernels, "circuit_closures", counting)
    dual_greedy_top_down(m23)
    # batches[0] closes the empty set; batches[k] holds the sets of rank k
    cap = max(batches) - 1
    rank = next(k for k, size in enumerate(batches) if size > cap)
    batches.clear()
    with pytest.raises(CapExceeded) as exc:
        dual_greedy_top_down(m23, cap=cap)
    assert len(batches) == rank and max(batches) <= cap
    assert f"rank {rank} " in str(exc.value)
    assert f"needs {cap + 1} closures" in str(exc.value)


def test_classical_check_has_a_default_cap(m23, monkeypatch):
    # 2^23 subsets exceed DEFAULT_SUBSET_CAP = 5,000,000; the refusal comes
    # before any rank query
    ladder(m23)

    def no_ranks(masks):
        raise AssertionError("rank query before the cap check")

    monkeypatch.setattr(m23, "ranks", no_ranks)
    with pytest.raises(CapExceeded, match="2\\^23"):
        check_wei_classical(m23)


def test_rank_scan_cap_counts_subsets(ternary84):
    with pytest.raises(CapExceeded, match="2\\^8"):
        dual_hamming_weights(ternary84, cap=255)
    assert dual_hamming_weights(ternary84, cap=256) == (2, 4, 6, 8)


def test_rank_scan_refuses_non_matroid_circuits():
    # {1,2},{1,3} breaks circuit elimination: its greedy r(E) = 1 but
    # r({2,3}) = 2, so the rank scan, reached directly or through the dual,
    # refuses it before reading any rank
    for M in (from_circuits(3, [[1, 2], [1, 3]]), from_circuits(3, [[1, 2], [1, 3]]).dual()):
        with pytest.raises(InputError, match="share 1, but \\[2, 3\\] holds no circuit"):
            dual_hamming_weights(M)
