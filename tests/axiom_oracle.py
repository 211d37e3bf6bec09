"""Test oracle for validate_axioms' exhaustive scan.

gathered_axioms is the scan as a gather per increment: for each element b
and each pair a < b it reads the ranks of X + b and X + a + b for every set X
off the 2^n rank table by fancy indexing, and compares them with r(X).  It
shares no array layout with validate_axioms, which reads the increments off
the table's halves, and its AxiomReport holds the same messages, so
comparing to_json_dict() checks that scan message for message.
"""

from __future__ import annotations

import numpy as np

from matgreedy.kernels import popcounts
from matgreedy.masks import to_labels
from matgreedy.matroid import AxiomReport, Matroid


def gathered_axioms(M: Matroid) -> AxiomReport:
    """validate_axioms' report on an M with n <= 12, by one gather per increment."""
    n = M.n
    assert n <= 12
    bits = [1 << b for b in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    grow = np.array([0, *bits, *(bits[i] | bits[j] for i, j in pairs)], dtype=np.uint64)
    sets = np.arange(1 << n, dtype=np.uint64)
    rx = table = M.ranks(sets)

    report = AxiomReport(n=n, exhaustive=True, checked_sets=len(sets))
    found = report.violations
    card = popcounts(sets)
    bad = (rx < 0) | (rx > card)
    for x, r, c in zip(sets[bad].tolist(), rx[bad].tolist(), card[bad].tolist()):
        found.append(f"R1: r({to_labels(x)}) = {r} outside [0, {c}]")
    keep = ~bad
    sets, rx = sets[keep], rx[keep]

    grown = [table[sets | grow[1 + b]] for b in range(n)]
    for b, r1 in zip(bits, grown):
        for x in sets[r1 < rx].tolist():
            found.append(f"R2: r({to_labels(x | b)}) < r({to_labels(x)})")
        for x in sets[r1 > rx + 1].tolist():
            found.append(f"unit increase: r({to_labels(x | b)}) > r({to_labels(x)}) + 1")
    for k, (i, j) in enumerate(pairs, 1 + n):
        rab = table[sets | grow[k]]
        for x in sets[grown[i] + grown[j] < rab + rx].tolist():
            at = f"X={to_labels(x)}, a={to_labels(bits[i])}, b={to_labels(bits[j])}"
            found.append(f"R3: submodularity fails at {at}")
            found.append(f"nullity supermodularity fails at {at}")
    return report
