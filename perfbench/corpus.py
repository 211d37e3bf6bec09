"""Seeded workload corpora.

Each workload is a list of inputs, written as descriptor or code files, and
a list of ops (input, command, flags) that one pass of the closed loop runs
in order.  The seed fixes every random matrix; shapes (field, ground-set
size, corank or dimension) are fixed per workload.  Each random input is
picked from a few seeded draws by a cost proxy computed here (the median
draw, inside a band where one is given), so that corpora of different seeds
cost about the same.  Every input carries the oracle's reference ladder, and the
dual ladder where the checks need it.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

WORKLOADS = ("primal-betti", "wei-code")
FIXTURES = {
    "ternary84.json": ("weights", "chained", "betti", "strands"),
    "uniform_2_4.json": ("weights",),
    "m23.json": ("weights", "chained", "betti", "strands"),
}
ALL = ("weights", "chained", "betti", "strands")

# (p, n, corank, commands on the parity-check input, commands on the same
# matroid re-encoded as a circuit list).  Parity-check ops rebuild the 2^n
# rank table (n <= 14) or eliminate rank queries one by one (n = 15, above
# RANK_TABLE_MAX_N = 14), so they get fewer commands than their twins.
# Around the four m23 ops (about 0.07 s here) are 21 cheaper ops (fixtures
# and circuit lists of corank <= 6, under 0.05 s) and 21 dearer ones
# (parity checks, from 0.25 s, and circuit lists of n = 12-13 whose ladders
# have over 700 members, from 0.13 s).  Shapes whose twins would cost about
# as much as m23 (ladders of 500-1300 members at n = 12, or any at n >= 14)
# run no twin.
PRIMAL_SHAPES = (
    (2, 12, 4, ("weights",), ("weights", "strands")),
    (3, 12, 5, ("chained",), ALL),
    (2, 12, 6, ("betti",), ALL),
    (3, 12, 7, ("strands",), ALL),
    (2, 12, 8, ("weights",), ()),
    (2, 12, 9, ("chained",), ALL),
    (2, 12, 5, ("betti",), ("weights", "chained")),
    (2, 12, 7, ("weights",), ()),
    (2, 13, 5, (), ALL),
    (3, 13, 6, (), ("weights", "chained", "betti")),
    (2, 14, 7, ("weights",), ()),
    (2, 15, 6, ("weights",), ()),
)
# (p, n, corank, inputs, homology_work band) for the `betti --values` ops.
# An op's time is close to linear in homology_work, with a slope and
# intercept set by n, and homology_work spreads over two decades between
# draws of one shape, so every input is the median, by homology_work, of the
# first MEDIAN_OF draws inside its shape's band.  The bands put each op
# clearly below or clearly above the m23 ops: 9 at n = 8 under about
# 0.03 s, 10 at n = 10 corank 6 from about 0.17 s.  n >= 11 is left out
# (see README.md, known gaps).
BETTI_SHAPES = (
    (2, 8, 3, 3, (2e4, 2e5)), (3, 8, 3, 3, (2e4, 2e5)), (3, 8, 4, 3, (2e4, 2e5)),
    (2, 10, 6, 10, (2.5e6, 4e6)),
)
# (q, n, corank, inputs, dual_work band): circuit lists of the duals of
# random rank-`corank` matrices over GF(q), i.e. high-rank matroids with few
# large circuits whose duals have many small ones.  The band keeps each
# input clearly below or clearly above REPORT_WEI_CAP = 300,000 candidate
# unions, so the same share of `report` ops is refused for every seed.
# Each input gives a `wei` and a `report` op of about the same cost: 12 at
# n = 9 (about 0.03 s), 22 at n = 10 (about 0.1 s), 6 at n = 11 (about
# 0.3 s) and 2 on the input above the cap.
BELOW_CAP, ABOVE_CAP = (0, 240_000), (400_000, 10**9)
WEI_SHAPES = (
    (5, 9, 2, 3, BELOW_CAP), (5, 9, 3, 3, BELOW_CAP), (5, 10, 2, 6, BELOW_CAP),
    (5, 10, 3, 3, BELOW_CAP), (7, 10, 4, 2, BELOW_CAP), (5, 11, 2, 2, BELOW_CAP),
    (5, 11, 3, 1, BELOW_CAP), (7, 12, 2, 1, ABOVE_CAP),
)
# (p, k, n, inputs, commands): generator code files.  Op cost is set by the
# shape, hardly by the draw: the 2^n rank table and the axiom check grow
# with n, the brute-force code oracles with p^k.  Shapes whose `validate`
# would cost about as much as the n = 10 Wei ops (GF(3) k=4 n=10, GF(2) k=5
# n=10) are left out.
VW, V = ("validate", "weights"), ("validate",)
CODE_SHAPES = (
    (2, 3, 9, 1, VW), (3, 3, 9, 1, VW), (2, 4, 10, 3, VW), (2, 5, 12, 4, VW),
    (2, 5, 12, 2, V), (2, 6, 11, 1, VW), (3, 5, 11, 1, VW),
)
# A percentile of op times taken where two groups of ops of different cost
# meet jumps from one group to the other when a few ops change sides, so
# each workload is counted out to put its median in the middle of a block
# of ops of one size class.  primal-betti: the four m23 ops (the same input
# for every seed) hold the median, with 31 cheaper and 31 dearer ops; the
# 90th percentile falls among the n = 12 primal ops, below the parity checks
# at n = 14-15.  wei-code: the 22 Wei ops at n = 10 and the two `weights`
# ops of the brute-force heavy codes (about 0.09 s) hold the median, with
# 22 cheaper and 20 dearer ops; the 6 `validate` ops on GF(2) k=5 n=12
# hold the 90th percentile, below the four heaviest ops.
MEDIAN_OF = 5  # in-band draws per input; the median by cost is kept
BAND_TRIES = 20
ANY = (0, float("inf"))


@dataclass
class Input:
    name: str
    kind: str  # "parity", "circuits", "fixture" or "code"
    path: str
    n: int
    p: int | None = None
    levels: tuple | None = None  # oracle ladder; None when 2^n is out of reach
    dual_levels: tuple | None = None
    circuits: tuple = ()  # circuit masks of inputs without an oracle ladder
    family: str = ""  # inputs encoding the same matroid share a family
    meta: dict = field(default_factory=dict)


@dataclass
class Op:
    input: Input
    command: str
    values: bool = False
    chain: str | None = None


def members(levels) -> int:
    return sum(len(level) for level in levels)


def dual_work(dual_levels) -> int:
    """Candidate unions the program's ladder() counts against its cap when
    it builds this dual ladder: |N_1| * (|N_1| + ... + |N_{t-1}|)."""
    return len(dual_levels[0]) * members(dual_levels[:-1]) if dual_levels else 0


def homology_work(rank, levels) -> int:
    """Estimated cost of the Betti values: for each support set X, the
    product rows * cols * min(rows, cols) of the boundary matrix between the
    independent subsets of X of sizes r(X)-1 and r(X), which the program
    eliminates."""
    size = len(rank)
    masks = np.arange(size)
    pop = oracle.popcounts(masks, size.bit_length() - 1)
    indep = rank == pop
    work = 0
    for level in levels:
        for x in level:
            inside = indep & ((masks & ~x) == 0)
            rho = int(rank[x])
            cols = int(np.count_nonzero(inside & (pop == rho)))
            rows = int(np.count_nonzero(inside & (pop == rho - 1)))
            work += rows * cols * min(rows, cols)
    return work


class Builder:
    def __init__(self, workdir: Path, seed: int, workload: str):
        self.dir = workdir
        self.rng = random.Random(f"{workload}:{seed}")
        self.inputs: list[Input] = []

    def _add(self, inp: Input, text: str) -> Input:
        Path(inp.path).write_text(text)
        self.inputs.append(inp)
        return inp

    def _path(self, stem: str, suffix: str = ".json") -> str:
        return str(self.dir / f"{stem}{suffix}")

    def _matrix(self, p: int, rows: int, n: int):
        """Random full-row-rank matrix over GF(p) and its column rank table."""
        while True:
            mat = [[self.rng.randrange(p) for _ in range(n)] for _ in range(rows)]
            rank = oracle.rank_table(mat, p)
            if rank[-1] == rows:
                return mat, rank

    def _pick(self, draw, band=ANY, keep=MEDIAN_OF):
        """draw() returns (cost proxy, candidate).  Keeps the median by cost
        of the first `keep` draws whose proxy lies in band, giving up after
        BAND_TRIES draws (then the draw nearest the band)."""
        inside, outside = [], []
        for _ in range(BAND_TRIES):
            cost, cand = draw()
            (inside if band[0] <= cost <= band[1] else outside).append((cost, cand))
            if len(inside) == keep:
                break
        pool = inside or [min(outside, key=lambda d: max(band[0] - d[0], d[0] - band[1]))]
        return sorted(pool, key=lambda d: d[0])[len(pool) // 2]

    def parity(self, p: int, n: int, corank: int, band=None) -> Input:
        """Random parity-check matroid: the median of MEDIAN_OF draws by
        ladder size, or with a band, by homology_work inside it."""

        def draw():
            mat, rank = self._matrix(p, n - corank, n)
            levels = oracle.cycle_ladder(rank)
            return (homology_work(rank, levels) if band else members(levels)), (mat, levels)

        cost, (mat, levels) = self._pick(draw, band or ANY)
        name = f"pc{len(self.inputs)}_p{p}_n{n}_c{corank}"
        desc = {"type": "linear", "p": p, "role": "parity_check", "matrix": mat}
        inp = Input(name, "parity", self._path(name), n, p, levels=levels, family=name)
        if band:
            inp.meta["homology_work"] = cost
        return self._add(inp, json.dumps(desc))

    def circuit_list(self, n: int, levels, dual_levels=None, family: str = "") -> Input:
        circs = levels[0] if levels else ()
        name = f"cl{len(self.inputs)}_n{n}"
        desc = {"type": "circuits", "n": n, "circuits": [oracle.labels(c) for c in circs]}
        inp = Input(name, "circuits", self._path(name), n, levels=levels,
                    dual_levels=dual_levels, family=family or name)
        return self._add(inp, json.dumps(desc))

    def high_rank(self, q: int, n: int, corank: int, band) -> Input:
        """Circuit list of the dual of a random rank-`corank` GF(q) matroid,
        picked by dual_work inside band."""

        def draw():
            _, inner = self._matrix(q, corank, n)
            dual_levels = oracle.cycle_ladder(inner)
            return dual_work(dual_levels), (inner, dual_levels)

        cost, (inner, dual_levels) = self._pick(draw, band)
        levels = oracle.cycle_ladder(oracle.dual_rank_table(inner))
        inp = self.circuit_list(n, levels, dual_levels)
        inp.meta["dual_work"] = cost
        return inp

    def code(self, p: int, k: int, n: int) -> Input:
        """Generator code file: the median draw by ladder size of its matroid,
        which is the dual of the generator's column matroid."""

        def draw():
            gen, rank = self._matrix(p, k, n)
            levels = oracle.cycle_ladder(oracle.dual_rank_table(rank))
            return members(levels), (gen, levels)

        _, (gen, levels) = self._pick(draw)
        name = f"code{len(self.inputs)}_p{p}_k{k}_n{n}"
        text = f"generator\n{p} {k} {n}\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in gen
        )
        inp = Input(name, "code", self._path(name, ".txt"), n, p, levels=levels,
                    family=name, meta={"k": k})
        return self._add(inp, text)

    def fixture(self, root: Path, fname: str) -> Input:
        text = (root / "fixtures" / fname).read_text()
        desc = json.loads(text)
        name = fname.removesuffix(".json")
        inp = Input(name, "fixture", self._path(name), 0, family=name)
        if desc["type"] == "circuits":
            # too large for a 2^n table: checked against the program's own
            # ladder, member by member (run.recover_levels)
            inp.n = desc["n"]
            inp.circuits = tuple(oracle.mask_of(c) for c in desc["circuits"])
        else:
            if desc["type"] == "uniform":
                inp.n = desc["n"]
                rank = np.minimum(oracle.popcounts(np.arange(1 << inp.n), inp.n), desc["r"])
            else:
                inp.p = desc["p"]
                inp.n = len(desc["matrix"][0])
                rank = oracle.rank_table(desc["matrix"], inp.p)
                if desc.get("role") == "generator":
                    rank = oracle.dual_rank_table(rank)
            inp.levels = oracle.cycle_ladder(rank)
        return self._add(inp, text)


def build(workload: str, seed: int, root: Path, workdir: Path) -> tuple[list[Input], list[Op]]:
    """Write the corpus of one workload under workdir; returns (inputs, ops)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    b = Builder(workdir, seed, workload)
    ops: list[Op] = []
    if workload == "primal-betti":
        for fname, cmds in FIXTURES.items():
            inp = b.fixture(root, fname)
            ops += [Op(inp, cmd) for cmd in cmds]
        for p, n, corank, pc_cmds, cl_cmds in PRIMAL_SHAPES:
            pc = b.parity(p, n, corank)
            cl = b.circuit_list(n, pc.levels, family=pc.family) if cl_cmds else None
            # the twin's weights op runs first: strands takes its e witness
            ops += [Op(cl, cmd) for cmd in cl_cmds] + [Op(pc, cmd) for cmd in pc_cmds]
        ternary = next(op.input for op in ops if op.input.name == "ternary84")
        ops.append(Op(ternary, "betti", values=True))
        for p, n, corank, count, band in BETTI_SHAPES:
            for _ in range(count):
                ops.append(Op(b.parity(p, n, corank, band), "betti", values=True))
    elif workload == "wei-code":
        for q, n, corank, count, band in WEI_SHAPES:
            for _ in range(count):
                inp = b.high_rank(q, n, corank, band)
                ops += [Op(inp, "wei"), Op(inp, "report")]
        for p, k, n, count, cmds in CODE_SHAPES:
            for _ in range(count):
                inp = b.code(p, k, n)
                ops += [Op(inp, cmd) for cmd in cmds]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [inp for inp in b.inputs if any(op.input is inp for op in ops)], ops
