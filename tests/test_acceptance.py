"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Where a bundled reference expectation contradicts the definitions, the
suite asserts the computed value, proves it independently and reports the
reference value in the PASS/FAIL line instead of hiding it.  Criterion 1
asserts the computed CEZ weight g = (2,4,6,8) of the [8,4] GF(3) example
(the reference's g_3 = 7 is a misprint: it is the bottom-up value e_3), and
proves it with the level-3 witness pair, the witnesses' nullities and the
exhaustive subcode oracle.  Criterion 4 does the same for the printed e and
e-tilde vectors of the 23-element example.  See README "Known discrepancies".
"""

from __future__ import annotations

import time

import numpy as np

from matgreedy.betti import betti_values, resolution_shape, strand_check
from matgreedy.codes import subcode_weights
from matgreedy.gfp import FieldMatrix
from matgreedy.ladder import ladder
from matgreedy.masks import from_labels, full_mask, popcount, to_labels
from matgreedy.matroid import from_circuits, from_generator, uniform, validate_axioms
from matgreedy.wei import check_wei_classical, check_wei_greedy
from matgreedy.weights import (
    greedy_bottom_up,
    greedy_cez,
    greedy_top_down,
    hamming_weights,
    is_chained,
    weight_report,
)
from tests.conftest import (
    M23_CIRCUITS,
    TERNARY84_GENERATOR_ROWS,
    corpus_small,
    random_code,
    random_matroid,
)
from tests.homology_oracle import reduced_betti_all
from tests.ladder_oracle import bruteforce_ladder, chains_bruteforce, nullity
from tests.paper_oracle import greedy_from_strands
from tests.test_weights import unrestricted_chain_minima

E8 = full_mask(8)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _fresh_ternary84():
    return from_generator(FieldMatrix(3, TERNARY84_GENERATOR_ROWS))


def _fresh_m23():
    masks = []
    for labels in M23_CIRCUITS:
        mask = 0
        for lab in labels:
            mask |= 1 << (lab - 1)
        masks.append(mask)
    return from_circuits(23, masks)


def test_criterion_01_reference_code_reproduction():
    start = time.perf_counter()
    M = _fresh_ternary84()
    report = weight_report(M)
    elapsed = time.perf_counter() - start
    required = {
        "d": (2, 4, 6, 8),
        "e": (2, 4, 7, 8),
        "e_tilde": (3, 4, 6, 8),
        "g": (2, 4, 6, 8),
    }
    got = {
        "d": report.d,
        "e": report.e,
        "e_tilde": report.e_tilde,
        "g": report.g,
    }
    # g_3 = 6 by the CEZ definition: {1,2,5,6,7,8} has nullity 3 and contains
    # {5,6,7,8}, a nullity-2 set of cardinality d_2 = 4
    tau, mu = report.witness_g[2]
    witness = (from_labels([5, 6, 7, 8]), from_labels([1, 2, 5, 6, 7, 8]))
    nullities = (nullity(M, tau), nullity(M, mu))
    # the subcode enumeration does not go through the ladder
    code = from_generator(FieldMatrix(3, TERNARY84_GENERATOR_ROWS))
    _, e_o, et_o, g_o = subcode_weights(code)
    oracle = {"e": e_o, "e_tilde": et_o, "g": g_o}
    ok = (
        got == required
        and elapsed < 1.0
        and (tau, mu) == witness
        and nullities == (2, 3)
        and oracle == {k: required[k] for k in oracle}
        and report.chained is False
    )
    _verdict(
        1,
        ok,
        f"got {got} in {elapsed:.3f}s; required {required}; "
        f"g_3 witness {to_labels(tau)} < {to_labels(mu)} with nullities "
        f"{nullities}, subcode oracle {oracle}, chained={report.chained}; "
        "NOTE: the reference-printed g=(2,4,7,8) is a misprint (its 7 is "
        "the bottom-up e_3) and contradicts the CEZ definition; the proven "
        "value is asserted and the reference value reported here, not "
        "suppressed",
    )
    assert got["d"] == required["d"]
    assert got["e"] == required["e"]
    assert got["e_tilde"] == required["e_tilde"]
    assert elapsed < 1.0
    assert got["g"] == required["g"]
    assert (tau, mu) == witness
    assert nullities == (2, 3)
    assert oracle == {k: required[k] for k in oracle}
    # g == d here, yet e != d: g == d does not imply chainedness
    assert got["g"] == got["d"]
    assert report.chained is False


def test_criterion_02_reference_betti_values():
    start = time.perf_counter()
    M = _fresh_ternary84()
    values = betti_values(M).values
    v1 = values.get((2, from_labels([1, 2, 3, 4])), 0)
    v2 = values.get((2, from_labels([5, 6, 7, 8])), 0)
    v3 = values.get((4, E8), 0)
    elapsed = time.perf_counter() - start
    ok = (v1, v2, v3) == (2, 3, 6) and elapsed < 5.0
    _verdict(2, ok, f"beta values {(v1, v2, v3)} (want (2, 3, 6)) in {elapsed:.3f}s")
    assert (v1, v2, v3) == (2, 3, 6)
    assert elapsed < 5.0


def test_criterion_03_reference_strand():
    M = _fresh_ternary84()
    chain = (
        from_labels([1, 2]),
        from_labels([1, 2, 3, 4]),
        from_labels([1, 2, 3, 4, 6, 7, 8]),
        E8,
    )
    verdict = strand_check(M, chain)
    e, _, _ = greedy_from_strands(M)
    ok = verdict and e == (2, 4, 7, 8)
    _verdict(3, ok, f"strand nonzero: {verdict}, strand-derived e: {e}")
    assert verdict is True
    assert e == (2, 4, 7, 8)


def test_criterion_04_nonmonotone_example():
    start = time.perf_counter()
    M = _fresh_m23()
    d = hamming_weights(M)
    g, _ = greedy_cez(M)
    e, _ = greedy_bottom_up(M)
    et, _ = greedy_top_down(M)
    lex, revlex = chains_bruteforce(M)
    elapsed = time.perf_counter() - start
    ok = (
        d == (8, 10, 11, 19, 23)
        and g == (8, 12, 11, 19, 23)
        and g[2] < g[1]
        and e == lex == (8, 12, 21, 22, 23)
        and et == revlex == (9, 10, 11, 19, 23)
        and elapsed < 60.0
    )
    _verdict(
        4,
        ok,
        f"d={d} g={g} e={e} e_tilde={et} in {elapsed:.1f}s; "
        "NOTE: reference-printed e=(8,12,21,12,23) and "
        "e_tilde=(10,11,12,19,23) disagree with the chain oracle "
        "(the former is not even strictly increasing); oracle values are "
        "authoritative and reported here, not suppressed",
    )
    assert d == (8, 10, 11, 19, 23)
    assert g == (8, 12, 11, 19, 23)
    assert g[2] < g[1]
    assert e == lex == (8, 12, 21, 22, 23)
    assert et == revlex == (9, 10, 11, 19, 23)
    assert elapsed < 60.0


def _wei_corpus():
    yield "ternary84", _fresh_ternary84()
    for n in range(2, 9):
        for r in range(1, n):
            yield f"U({r},{n})", uniform(r, n)
    rng = np.random.default_rng(20260810)
    count = 0
    while count < 100:
        M = random_matroid(rng, int(rng.integers(2, 11)))
        yield f"random{count}", M
        count += 1


def test_criterion_05_wei_duality_greedy():
    failures = []
    total = 0
    for name, M in _wei_corpus():
        total += 1
        if not check_wei_greedy(M)["identity_holds"]:
            failures.append(name)
    ok = not failures
    _verdict(5, ok, f"greedy Wei identity on {total} matroids, failures: {failures}")
    assert not failures


def test_criterion_06_wei_duality_classical():
    failures = []
    total = 0
    for name, M in _wei_corpus():
        total += 1
        if not check_wei_classical(M)["identity_holds"]:
            failures.append(name)
    ok = not failures
    _verdict(6, ok, f"classical Wei identity on {total} matroids, failures: {failures}")
    assert not failures


def test_criterion_07_betti_support_theorem():
    corpus = [M for M in corpus_small(_fresh_ternary84()) if M.n <= 8]
    mismatches = []
    checked = 0
    for idx, M in enumerate(corpus):
        lad = ladder(M)
        for mask in range(1 << M.n):
            hom = reduced_betti_all(M, mask)
            for i in range(0, lad.t + 1):
                checked += 1
                homology_nonzero = hom.get(popcount(mask) - i - 1, 0) > 0
                ladder_member = (mask == 0) if i == 0 else mask in lad.levels[i - 1]
                if homology_nonzero != ladder_member:
                    mismatches.append((idx, i, mask))
    ok = not mismatches
    _verdict(
        7,
        ok,
        f"homology-vs-ladder support over {len(corpus)} matroids, "
        f"{checked} (i, X) pairs, mismatches: {mismatches[:5]}",
    )
    assert not mismatches


def test_criterion_08_code_matroid_coincidence():
    start = time.perf_counter()
    rng = np.random.default_rng(8128)
    mismatches = []
    total = 200
    for trial in range(total):
        p = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 10))
        k = int(rng.integers(1, min(n, 3) + 1))
        M = random_code(rng, p, n, k)
        report = weight_report(M)
        if (report.d, report.e, report.e_tilde, report.g) != subcode_weights(M):
            mismatches.append(trial)
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 600.0
    _verdict(
        8,
        ok,
        f"{total} random codes (p in 2,3; n<=9; k<=3) in {elapsed:.1f}s, "
        f"mismatches: {mismatches}",
    )
    assert not mismatches
    assert elapsed < 600.0


def test_criterion_09_property_suites():
    failures: list[str] = []

    def check(name: str, condition: bool) -> None:
        if not condition:
            failures.append(name)

    exhaustive = [M for M in corpus_small(_fresh_ternary84()) if M.n <= 8]
    for idx, M in enumerate(exhaustive):
        n = M.n
        top = full_mask(n)
        ranks = M.ranks(range(1 << n)).tolist()
        # R1/R2/R3 and nullity supermodularity, literally over all pairs
        for x in range(1 << n):
            rx = ranks[x]
            check(f"{idx}:R1", 0 <= rx <= popcount(x))
        for x in range(1 << n):
            for y in range(1 << n):
                rx, ry = ranks[x], ranks[y]
                ri, ru = ranks[x & y], ranks[x | y]
                if x & ~y == 0:
                    check(f"{idx}:R2", rx <= ry)
                check(f"{idx}:R3", ri + ru <= rx + ry)
                nx = popcount(x) - rx
                ny = popcount(y) - ry
                ni = popcount(x & y) - ri
                nu = popcount(x | y) - ru
                check(f"{idx}:nullity-super", ni + nu >= nx + ny)
        D = M.dual()
        DD = D.dual()
        check(f"{idx}:dual-involution", DD.ranks(range(1 << n)).tolist() == ranks)
        check(f"{idx}:ladder-brute", ladder(M).levels == bruteforce_ladder(M).levels)
        lex, revlex = chains_bruteforce(M)
        lex_full, revlex_full = unrestricted_chain_minima(M)
        check(f"{idx}:sigma-minima", (lex, revlex) == (lex_full, revlex_full))
        report = weight_report(M)
        for vec_name in ("d", "e", "e_tilde"):
            vec = getattr(report, vec_name)
            check(
                f"{idx}:monotone-{vec_name}",
                all(a < b for a, b in zip(vec, vec[1:])),
            )
        if report.t >= 1:
            check(f"{idx}:e1g1d1", report.e[0] == report.g[0] == report.d[0])
            check(f"{idx}:et_t", report.e_tilde[-1] == report.d[-1])
        if report.t >= 2:
            check(f"{idx}:g2e2", report.g[1] == report.e[1])
        if resolution_shape(M).pure:
            check(f"{idx}:pure-chained", is_chained(M)[0])
        check(f"{idx}:dual-chained", is_chained(M)[0] == is_chained(D)[0])

    rng = np.random.default_rng(909)
    for trial in range(60):
        M = random_matroid(rng, int(rng.integers(2, 13)))
        lex, revlex = chains_bruteforce(M)
        check(f"r{trial}:frontier-lex", lex == greedy_bottom_up(M)[0])
        check(f"r{trial}:frontier-revlex", revlex == greedy_top_down(M)[0])
        check(
            f"r{trial}:ladder-brute",
            ladder(M).levels == bruteforce_ladder(M).levels,
        )
        if trial % 4 == 0:
            check(f"r{trial}:axioms", validate_axioms(M).ok)
            D = M.dual()
            DD = D.dual()
            check(
                f"r{trial}:dual-involution",
                np.array_equal(DD.ranks(range(1 << M.n)), M.ranks(range(1 << M.n))),
            )
        report = weight_report(M)
        for vec_name in ("d", "e", "e_tilde"):
            vec = getattr(report, vec_name)
            check(
                f"r{trial}:monotone-{vec_name}",
                all(a < b for a, b in zip(vec, vec[1:])),
            )
        if report.t >= 1:
            check(f"r{trial}:e1g1d1", report.e[0] == report.g[0] == report.d[0])
            check(f"r{trial}:et_t", report.e_tilde[-1] == report.d[-1])
        if report.t >= 2:
            check(f"r{trial}:g2e2", report.g[1] == report.e[1])
        if resolution_shape(M).pure:
            check(f"r{trial}:pure-chained", is_chained(M)[0])
        check(
            f"r{trial}:dual-chained",
            is_chained(M)[0] == is_chained(M.dual())[0],
        )

    ok = not failures
    _verdict(9, ok, f"property suites, failures: {failures[:10]}")
    assert not failures
