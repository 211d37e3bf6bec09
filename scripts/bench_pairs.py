#!/usr/bin/env python3
"""Alternating parent/change runs of perfbench, summarised as BENCH_<name>.json.

Run from anywhere, with two checkouts of the repository:

    python3 scripts/bench_pairs.py --parent ../parent --change . --name render \\
        --seeds 41-50 --seconds 45 --change-text "what the change does"

There is one pair per seed.  Pair i runs `perfbench/run.py --workload W --seed S
--seconds T --trace 0` in both checkouts, back to back, on the i-th seed, for
every workload of the change's BENCHMARK.json in turn; the parent runs first in
odd pairs.  Metric names, directions and bounds come from the same file.  The
output is rewritten after every run, so an interrupted session keeps the runs
it finished.  The script edits nothing under perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RULE = 0.9  # a gain needs the change to win this share of the pairs

PROTOCOL = (
    "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, run in "
    "a checkout of the parent and one of the change. Pair i runs both sides back to back on "
    "the i-th seed of {seeds}, workloads in the order {workloads}; the parent runs first in "
    "odd pairs. Quartiles: statistics.quantiles(n=4, method='inclusive'). relative_spread is "
    "the larger side's (q3 - q1) / median. Verdicts: 'better' when the change wins at least "
    "nine tenths of the pairs (ties count for neither) and the medians differ by more than "
    "the parent's q3 - q1; 'worse past bound' when the change median is worse than the "
    "parent's by more than the metric's BENCHMARK.json bound; 'unresolved' when "
    "relative_spread exceeds that bound, unless every change run beats every parent run; "
    "'within bound' otherwise. setup_min_s, the least of a run's setup_runs_s (setup_s is "
    "their median), is a diagnostic: its medians per side are given, with no verdict."
)

# per-run values with medians per side and no verdict: not BENCHMARK.json metrics
DIAGNOSTICS = ("setup_min_s",)


def parse_seeds(text: str) -> list[int]:
    """'41-50' or '1,3,5'."""
    if "-" in text:
        low, high = map(int, text.split("-"))
        return list(range(low, high + 1))
    return [int(s) for s in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """Metric values of one perfbench run, from its last stdout line, and the
    diagnostics, from the report line before it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    report, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    # the fastest of the run's fresh-interpreter imports, which noise can only slow
    return {"failed": result["failed"], **values, "setup_min_s": min(report["setup_runs_s"])}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Medians, quartiles, per-pair wins and a verdict per metric."""
    sides = {side: {} for side in ("parent", "change")}
    for run in runs:
        sides[run["side"]].setdefault(run["pair"], run)
    pairs = sorted(set(sides["parent"]) & set(sides["change"]))
    out = {"pairs": len(pairs)}
    if not pairs:
        return out
    for key in ("medians", "quartiles", "change_over_parent", "change_better_in",
                "relative_spread", "verdict"):
        out[key] = {}
    for side in sides:
        out["medians"][side], out["quartiles"][side] = {}, {}
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "higher" else -1
        values = {side: [sides[side][p][name] for p in pairs] for side in sides}
        med = {side: statistics.median(v) for side, v in values.items()}
        quart = {side: quartiles(v) for side, v in values.items()}
        for side in sides:
            out["medians"][side][name] = round(med[side], 5)
            out["quartiles"][side][name] = [round(q, 5) for q in quart[side]]
        parent, change = med["parent"], med["change"]
        out["change_over_parent"][name] = round(change / parent, 3) if parent else None
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        out["change_better_in"][name] = f"{wins}/{len(pairs)}"
        spread = max((q3 - q1) / med[side] if med[side] else 0.0
                     for side, (q1, q3) in quart.items())
        out["relative_spread"][name] = round(spread, 3)
        parent_iqr = quart["parent"][1] - quart["parent"][0]
        separated = all(sign * (c - p) > 0 for p in values["parent"] for c in values["change"])
        if sign * (parent - change) > bound * abs(parent):
            verdict = "worse past bound"
        elif wins >= RULE * len(pairs) and sign * (change - parent) > parent_iqr:
            verdict = "better"
        elif spread > bound and not separated:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        out["verdict"][name] = verdict
    out["worse_past_bound"] = [m for m, v in out["verdict"].items() if v == "worse past bound"]
    for name in DIAGNOSTICS:
        values = {side: [sides[side][p].get(name) for p in pairs] for side in sides}
        if None not in values["parent"] + values["change"]:
            out.setdefault("diagnostics", {})[name] = {
                "medians": {side: round(statistics.median(v), 5) for side, v in values.items()}}
    return out


def environment(note: str) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    env = {"python": platform.python_version(), "numpy": numpy_version,
           "nproc": os.cpu_count(), "os": platform.system()}
    if note:
        env["note"] = note
    return env


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="one pair per seed: '41-50' or '1,3,5'")
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--change-text", default="", help="one line on what the change does")
    parser.add_argument("--note", default="", help="what to know about the machine")
    parser.add_argument("--out", type=Path, help="default: BENCH_<name>.json in --change")
    args = parser.parse_args()

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    out_path = args.out or args.change / f"BENCH_{args.name}.json"
    doc = {
        "change": args.change_text,
        "environment": environment(args.note),
        "protocol": PROTOCOL.format(seconds=args.seconds, seeds=args.seeds,
                                    workloads=", ".join(workloads)),
        "workloads": {w: {"runs": []} for w in workloads},
    }
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for pair, seed in enumerate(args.seeds, start=1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for workload in workloads:
            runs = doc["workloads"][workload]["runs"]
            for side in order:
                values = run_once(checkouts[side], workload, seed, args.seconds)
                runs.append({"pair": pair, "seed": seed, "side": side,
                             **{k: round(v, 5) for k, v in values.items()}})
                print(f"pair {pair} {workload} {side}: {values}", file=sys.stderr)
                doc["workloads"][workload] = {"runs": runs, **summarise(runs, metrics)}
                out_path.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
