#!/usr/bin/env python3
"""End-to-end benchmark of the matgreedy command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload primal-betti --seed 1 --seconds 45 --trace 0

One process, one thread, closed loop: a single caller runs the workload's
ops through matgreedy.cli.run in-process, each op starting only after the
last one returned, in passes over a corpus generated from --seed, until
--seconds have passed and at least MIN_PASSES passes are complete.  After
the timed loop every op's output is checked against perfbench/oracle.py
and against its own output in the other passes.

The last stdout line is the result object; the line before it is a report
with the environment, sample counts, per-input sizes and failures.  With
--trace 1 one untraced pass is followed by traced passes (perfbench/tracer.py)
and the metrics are the per-layer ones, plus the tracing overhead.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
MIN_PASSES = 3
SETUP_REPEATS = 7
# what a command-line user pays before the first command runs
SETUP_CODE = (
    "import matgreedy, matgreedy.cli, matgreedy.kernels as k\n"
    "getattr(k, 'warmup', lambda: None)()\n"
)


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup() -> list[float]:
    """Wall time of fresh interpreters that import the package and warm up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            die(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    return times


def environment(seed: int) -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": has_numba,
        "MATGREEDY_NUMBA": os.environ.get("MATGREEDY_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "threads_pinned": 1,
    }


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def chain_from_weights(text: str) -> str | None:
    try:
        chain = json.loads(text)["witnesses"]["e"]
    except (ValueError, KeyError):
        return None
    return "|".join(",".join(str(x) for x in member) for member in chain)


class Loop:
    """Closed loop over the ops of one corpus."""

    def __init__(self, cli, ops, tracer=None):
        self.cli, self.ops, self.tracer = cli, ops, tracer
        self.first: list[tuple[int, str] | None] = [None] * len(ops)
        self.unstable = [False] * len(ops)
        self.by_op: list[list[float]] = [[] for _ in ops]
        self.pass_s: list[float] = []

    @property
    def samples(self) -> list[float]:
        return [t for times in self.by_op for t in times]

    def _call(self, op):
        config = self.cli.RunConfig(command=op.command, input_path=op.input.path,
                                    values=op.values, chain=op.chain)
        try:
            return self.cli.run(config)
        except Exception as exc:  # a traceback for a CLI user: count it, keep going
            return -1, f"uncaught {type(exc).__name__}: {exc}"

    def one_pass(self) -> None:
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            if op.command == "strands" and op.chain is None:
                # the chain is the e witness printed by weights on the same matroid
                source = next((self.first[j] for j, o in enumerate(self.ops)
                               if o.command == "weights" and o.input.family == op.input.family
                               and self.first[j]), None)
                op.chain = chain_from_weights(source[1]) if source else None
            t0 = time.perf_counter()
            if self.tracer is None:
                status, out = self._call(op)
            else:
                status, out = self.tracer.op(tag(op), self._call, op)
            self.by_op[i].append(time.perf_counter() - t0)
            if self.first[i] is None:
                self.first[i] = (status, out)
            elif self.first[i] != (status, out):
                self.unstable[i] = True
        self.pass_s.append(time.perf_counter() - start)


def tag(op) -> str:
    size = "big" if op.input.n > 14 else "small"
    return f"{op.input.kind}:{size}:{op.command}" + (":values" if op.values else "")


def recover_levels(inputs, ops, loop) -> list[str]:
    """Ladders of inputs too large for the oracle's 2^n table (m23) are read
    from the program's Betti support and checked member by member."""
    import oracle

    problems = []
    for inp in inputs:
        if inp.levels is not None:
            continue
        text = next((loop.first[i][1] for i, op in enumerate(ops)
                     if op.input is inp and op.command == "betti" and loop.first[i][0] == 0), None)
        if text is None:
            problems.append(f"{inp.name}: no Betti support to recover the ladder from")
            continue
        support = json.loads(text)["support"]
        t = max(i for i, _ in support)
        levels = tuple(tuple(sorted((oracle.mask_of(labs) for i, labs in support if i == lvl),
                                    key=lambda m: (m.bit_count(), m)))
                       for lvl in range(1, t + 1))
        bad = oracle.unsound_members(levels, oracle.circuit_nullity(inp.circuits, inp.n))
        if bad:
            problems.append(f"{inp.name}: {len(bad)} ladder members are not minimal cycles")
            continue
        inp.levels = levels
        inp.meta["oracle"] = "ladder members checked one by one; completeness not checked"
    return problems


def verify(ops, loop):
    """Verdict per op: 'ok', 'refused' or a list of problems."""
    import checks

    verdicts = []
    for i, op in enumerate(ops):
        status, out = loop.first[i]
        if op.input.levels is None:
            verdict = ["no oracle ladder for this input"]
        else:
            try:
                verdict = checks.check(op, status, out)
            except (ValueError, KeyError, TypeError) as exc:
                verdict = [f"unreadable output: {exc!r}"]
        if loop.unstable[i]:
            verdict = (verdict if isinstance(verdict, list) else []) + ["stdout differs across passes"]
        verdicts.append(verdict)
    return verdicts


def subspace_count(p: int, k: int) -> int:
    """Subspaces of GF(p)^k of every dimension: what the code oracles enumerate."""
    total = 0
    for r in range(k + 1):
        num = den = 1
        for i in range(r):
            num *= p ** (k - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def input_table(inputs, ops, loop) -> list[dict]:
    rows = []
    for inp in inputs:
        row = {"name": inp.name, "kind": inp.kind, "n": inp.n, "p": inp.p,
               "ladder_sizes": [len(lv) for lv in inp.levels] if inp.levels else None}
        if inp.dual_levels is not None:
            row["dual_ladder_sizes"] = [len(lv) for lv in inp.dual_levels]
        if inp.kind == "code":
            k = inp.meta["k"]
            row.update(k=k, message_space=inp.p ** k, subspaces=subspace_count(inp.p, k))
        if "oracle" in inp.meta:
            row["oracle"] = inp.meta["oracle"]
        row["median_op_s"] = {op.command: round(statistics.median(loop.by_op[i]), 6)
                              for i, op in enumerate(ops) if op.input is inp}
        rows.append(row)
    return rows


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# Layer shares stated when the workloads were chosen; the traced run
# reports each as holding or contradicted.  Each claim: text, predicate on
# op tags selecting the ops, layers whose self time is counted, stated
# share (None: measured only).
CLAIMS = {
    "primal-betti": (
        ("rank_mod_p share of parity-check ops with n > 14",
         lambda t: t.startswith("parity:big"), ("kernels.rank_mod_p",), 0.80),
        ("subset_ranks share of parity-check ops with n <= 14, Betti values aside",
         lambda t: t.startswith("parity:small") and not t.endswith(":values"),
         ("kernels.subset_ranks",), None),
        ("homology, Wei dual and codes share of the ops other than Betti values",
         lambda t: not t.endswith(":values"),
         ("homology.exact_rank", "ladder.dual", "codes.greedy_bruteforce",
          "codes.ghw_bruteforce"), 0.0),
        ("homology share (betti_values self + exact_rank) of Betti-values ops",
         lambda t: t.endswith(":values"), ("betti.betti_values", "homology.exact_rank"), 0.99),
        ("ladder and kernels share of Betti-values ops",
         lambda t: t.endswith(":values"),
         ("ladder.ladder", "ladder.circuits", "kernels.subset_ranks", "kernels.rank_mod_p",
          "kernels.filter_minimal", "kernels.circuit_ranks"), 0.0064),
    ),
    "wei-code": (
        ("filter_minimal share of wei ops",
         lambda t: t.endswith(":wei"), ("kernels.filter_minimal",), 0.90),
        ("filter_minimal share of report ops",
         lambda t: t.endswith(":report"), ("kernels.filter_minimal",), None),
        ("greedy_bruteforce + ghw_bruteforce share of validate ops",
         lambda t: t.endswith(":validate"),
         ("codes.greedy_bruteforce", "codes.ghw_bruteforce", "codes.echelon_subspaces"), None),
        ("validate_axioms share of validate ops",
         lambda t: t.endswith(":validate"), ("matroid.validate_axioms",), None),
    ),
}


def claims(workload: str, tracer, ops) -> list[dict]:
    rows = []
    for text, pred, layers, stated in CLAIMS[workload]:
        share = tracer.share(layers, pred)
        row = {"claim": text, "measured": round(share, 4)}
        if stated is not None:
            row["stated"] = stated
            # 15% of the stated share, and never less than 0.015
            row["verdict"] = ("holds" if abs(share - stated) <= 0.15 * max(stated, 0.1)
                              else "contradicted")
        rows.append(row)
    wei_ops = sum(op.command in ("wei", "report") for op in ops)
    if wei_ops:
        # traced passes are whole passes, so this is the count per Wei op
        per_pass = tracer.count["ops"] / len(ops)
        rows.append({"claim": "dual ladders built per wei or report op", "stated": 2,
                     "measured": round(tracer.count["wei.dual_ladders_built"]
                                       / (wei_ops * per_pass), 3)})
    return rows


def main() -> None:
    import corpus

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "matgreedy" / "__init__.py").is_file():
        die(f"no src/matgreedy under {ROOT}; run from the root of a matgreedy checkout")
    sys.path.insert(0, str(SRC))

    started = time.perf_counter()
    setup = measure_setup()
    import matgreedy
    from matgreedy import cli

    if not Path(matgreedy.__file__).resolve().is_relative_to(SRC.resolve()):
        die(f"imported matgreedy from {matgreedy.__file__}, not from {SRC}")
    warmup = getattr(getattr(matgreedy, "kernels", None), "warmup", None)
    if warmup is not None:
        warmup()

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        built = time.perf_counter()
        inputs, ops = corpus.build(args.workload, args.seed, ROOT, workdir)
        phase_s = {"setup": built - started, "corpus": time.perf_counter() - built}
        report, metrics, attempted, failed = measure(args, cli, inputs, ops, setup)
        phase_s.update(loop=sum(report["pass_s"]), total=time.perf_counter() - started)
        report["phase_s"] = {k: round(v, 3) for k, v in phase_s.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def measure(args, cli, inputs, ops, setup):
    tracer = None
    untraced_pass = None
    if args.trace:
        from tracer import Tracer

        deadline = time.perf_counter() + args.seconds
        warm = Loop(cli, ops)
        warm.one_pass()
        untraced_pass = warm.pass_s[0]
        tracer = Tracer()
        tracer.install()
        loop = Loop(cli, ops, tracer)
        loop.first = warm.first
        while not loop.pass_s or time.perf_counter() + loop.pass_s[-1] / 2 < deadline:
            loop.one_pass()
    else:
        loop = Loop(cli, ops)
        deadline = time.perf_counter() + args.seconds
        # stop at the pass boundary nearest the deadline
        while (len(loop.pass_s) < MIN_PASSES
               or time.perf_counter() + loop.pass_s[-1] / 2 < deadline):
            loop.one_pass()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = recover_levels(inputs, ops, loop)
    verdicts = verify(ops, loop)
    runs = len(loop.pass_s)
    samples = loop.samples
    attempted = len(samples)
    failed = sum(runs for v in verdicts if isinstance(v, list)) + len(problems)
    refused = sum(runs for v in verdicts if v == "refused")
    p90 = percentile(samples, 0.90)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "passes": runs,
        "ops_per_pass": len(ops),
        "samples": attempted,
        "samples_beyond_p90": sum(1 for s in samples if s > p90),
        "refused": refused,
        "refused_base": attempted,
        "setup_runs_s": [round(s, 6) for s in setup],
        "pass_s": [round(t, 4) for t in loop.pass_s],
        "shares": {
            "inputs_n_gt_14": sum(i.n > 14 for i in inputs) / len(inputs),
            "inputs_circuit_lists": sum(i.kind == "circuits" for i in inputs) / len(inputs),
        },
        "inputs": input_table(inputs, ops, loop),
        "problems": problems + [f"{op.input.name} {op.command}: {'; '.join(v)[:300]}"
                                for op, v in zip(ops, verdicts) if isinstance(v, list)],
    }
    if tracer is not None:
        overhead = (sum(loop.pass_s) / runs - untraced_pass) / len(ops)
        metrics = {name: metric(value, unit) for name, (value, unit)
                   in tracer.metrics(overhead, untraced_pass / len(ops)).items()}
        report["trace_missing"] = tracer.missing
        report["claims"] = claims(args.workload, tracer, ops)
    else:
        metrics = {
            "op_p50_s": metric(statistics.median(samples), "s"),
            "op_p90_s": metric(p90, "s"),
            "ops_per_s": metric(attempted / sum(loop.pass_s), "1/s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "ok_frac": metric((attempted - failed - refused) / attempted, "frac"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    return report, metrics, attempted, failed


if __name__ == "__main__":
    main()
