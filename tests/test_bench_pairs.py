"""scripts/bench_pairs.py's verdicts on made-up runs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "op_p50_s", "better": "lower", "bound": 0.25}]


def runs(parent: list[tuple[float, float]], change: list[tuple[float, float]]) -> list[dict]:
    out = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        for side, (ops, p50) in (("parent", p), ("change", c)):
            out.append({"pair": pair, "side": side, "ops_per_s": ops, "op_p50_s": p50})
    return out


def test_verdicts_follow_the_pair_rule_and_the_bounds():
    parent = [(100 + i, 0.010) for i in range(10)]
    # nine wins of ten and a median gap of 20 against a parent spread of 4.5
    change = [(120 + i, 0.0135) for i in range(9)] + [(90, 0.0135)]
    got = bench_pairs.summarise(runs(parent, change), METRICS)
    assert got["pairs"] == 10 and got["change_better_in"]["ops_per_s"] == "9/10"
    assert got["verdict"] == {"ops_per_s": "better", "op_p50_s": "worse past bound"}
    assert got["worse_past_bound"] == ["op_p50_s"]
    # eight wins are not enough, and a spread wider than the bound is unresolved
    change = [(120 + i, 0.010) for i in range(8)] + [(90, 0.010), (90, 0.010)]
    noisy = [(100 + i, 0.005 if i % 2 else 0.015) for i in range(10)]
    got = bench_pairs.summarise(runs(noisy, change), METRICS)
    assert got["verdict"] == {"ops_per_s": "within bound", "op_p50_s": "unresolved"}
    assert bench_pairs.summarise(runs(parent, [])[:1], METRICS) == {"pairs": 0}
