"""Per-layer trace recorded from outside the program.

Tracer.install() replaces matgreedy's public functions with wrappers that
time each call as a span and count the work it was handed.  Spans nest, and
each layer is charged its self time: the span's duration minus its child
spans.  Every module binding of a wrapped function is replaced, because cli,
weights, betti and wei import `ladder` (and cli `weight_report` and friends)
by name; the ladder module is reached through sys.modules, since the package
attribute `matgreedy.ladder` is the function.  Kernels are looked up as
`kernels.X` at call time, so replacing the module attribute also catches
kernel-to-kernel calls.  rank_mod_p calls made by subset_ranks are left
unwrapped: they are the rank table, charged to subset_ranks.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np


# layers reported by self time, and counters reported per op
TIMED = (
    "kernels.filter_minimal", "kernels.circuit_ranks", "kernels.rank_mod_p",
    "kernels.subset_ranks", "ladder.circuits", "ladder.ladder", "ladder.dual",
    "matroid.validate_axioms", "wei.check_wei_greedy", "wei.check_wei_classical",
    "weights.weight_report", "weights.is_chained", "betti.betti_values",
    "homology.exact_rank", "codes.greedy_bruteforce", "codes.ghw_bruteforce", "cli.load",
)
COUNTED = (
    "kernels.filter_minimal.masks_in", "kernels.circuit_ranks.masks",
    "kernels.rank_mod_p.calls", "kernels.subset_ranks.subsets", "ladder.circuits.found",
    "matroid.rank.calls", "matroid.validate_axioms.checked_sets", "ladder.ladder.members",
    "ladder.dual.members", "wei.dual_ladders_built", "betti.betti_values.pairs",
    "homology.exact_rank.entries", "codes.echelon_subspaces.count",
)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, seconds spent in child spans]
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)  # (tag, layer)
        self.count: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.tag = ""
        self._rank_seen: dict[int, tuple] = {}
        self._results: dict[int, object] = {}

    # -- ops ----------------------------------------------------------------

    def op(self, tag: str, fn, *args):
        """Run one op as the root span; per-op identity tables start empty."""
        self.tag = tag
        self._rank_seen.clear()
        self._results.clear()
        self.count["ops"] += 1
        return self._span("op", fn)(*args)

    def layer_s(self, layer: str, pred=lambda tag: True) -> float:
        """Self time of one layer over the ops whose tag satisfies pred."""
        return sum(v for (t, name), v in self.self_s.items() if name == layer and pred(t))

    def share(self, layers, pred=lambda tag: True) -> float:
        """Share of op time spent in the given layers, over the ops whose
        tag satisfies pred."""
        total = sum(v for (t, _), v in self.self_s.items() if pred(t))
        return sum(self.layer_s(layer, pred) for layer in layers) / total if total else 0.0

    def metrics(self, overhead_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics, name -> (value, unit)."""
        per = 1.0 / self.count["ops"]
        cnt = self.count
        out = {f"{layer}.s": (self.layer_s(layer) * per, "s/op") for layer in TIMED}
        out.update({key: (cnt[key] * per, "count/op") for key in COUNTED})
        masks_in, calls = cnt["kernels.filter_minimal.masks_in"], cnt["matroid.rank.calls"]
        out["kernels.filter_minimal.kept_ratio"] = (
            cnt["kernels.filter_minimal.kept"] / masks_in if masks_in else 0.0, "frac")
        out["matroid.rank.repeat_ratio"] = (
            cnt["matroid.rank.repeats"] / calls if calls else 0.0, "frac")
        out["op.other.s"] = (self.layer_s("op") * per, "s/op")
        out["trace.overhead_s"] = (overhead_s, "s/op")
        out["trace.overhead_frac"] = (overhead_s / untraced_s if untraced_s else 0.0, "frac")
        return out

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, after=None, skip_under=None):
        def wrapped(*args, **kwargs):
            if skip_under and self.stack and self.stack[-1][0] == skip_under:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            frame = [label, 0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.self_s[(self.tag, label)] += elapsed - frame[1]
                if self.stack:
                    self.stack[-1][1] += elapsed
            if after is not None:
                after(label, args, result)
            return result

        return wrapped

    def _new(self, result) -> bool:
        """Whether a cached result object is seen for the first time this op."""
        if id(result) in self._results:
            return False
        self._results[id(result)] = result
        return True

    def _under_wei(self) -> bool:
        return any(frame[0].startswith("wei.") for frame in self.stack)

    def _ladder_name(self, args) -> str:
        return "ladder.dual" if args[0].kind == "dual" and self._under_wei() else "ladder.ladder"

    def _counted(self, key: str, measure):
        def after(label, args, result):
            self.count[key] += measure(args, result)

        return after

    def _after_ladder(self, label, args, result):
        if self._new(result):
            self.count[label + ".members"] += sum(len(level) for level in result.levels)
            if label == "ladder.dual":
                self.count["wei.dual_ladders_built"] += 1

    def _after_circuits(self, label, args, result):
        if self._new(result):
            self.count["ladder.circuits.found"] += len(result)

    def _after_filter(self, label, args, result):
        self.count["kernels.filter_minimal.masks_in"] += len(args[0])
        self.count["kernels.filter_minimal.kept"] += int(np.count_nonzero(result))

    def _targets(self):
        c = self._counted
        return (
            ("kernels", "filter_minimal", self._after_filter, None),
            ("kernels", "circuit_ranks", c("kernels.circuit_ranks.masks", lambda a, r: len(a[0])), None),
            ("kernels", "subset_ranks",
             c("kernels.subset_ranks.subsets", lambda a, r: 1 << a[0].shape[1]), None),
            ("kernels", "rank_mod_p", c("kernels.rank_mod_p.calls", lambda a, r: 1),
             "kernels.subset_ranks"),
            ("ladder", "circuits", self._after_circuits, None),
            ("ladder", "ladder", self._after_ladder, None),
            ("matroid", "validate_axioms",
             c("matroid.validate_axioms.checked_sets", lambda a, r: r.checked_sets), None),
            ("wei", "check_wei_greedy", None, None),
            ("wei", "check_wei_classical", None, None),
            ("weights", "weight_report", None, None),
            ("weights", "is_chained", None, None),
            ("betti", "betti_values", c("betti.betti_values.pairs", lambda a, r: len(r.values)), None),
            ("homology", "exact_rank",
             c("homology.exact_rank.entries", lambda a, r: len(a[0]) * len(a[0][0]) if a[0] else 0),
             None),
            ("codes", "greedy_bruteforce", None, None),
            ("codes", "ghw_bruteforce", None, None),
            ("codes", "echelon_subspaces", c("codes.echelon_subspaces.count", lambda a, r: len(r)), None),
            ("cli", "_load_input", None, None),
        )

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "matgreedy" or name.startswith("matgreedy.")]
        for modname, attr, after, skip_under in self._targets():
            module = sys.modules.get(f"matgreedy.{modname}")
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            if (modname, attr) == ("ladder", "ladder"):
                name = self._ladder_name
            elif (modname, attr) == ("cli", "_load_input"):
                name = "cli.load"
            else:
                name = f"{modname}.{attr}"
            wrapped = self._span(name, orig, after, skip_under)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        self._install_rank_counter()

    def _install_rank_counter(self) -> None:
        """Count Matroid.rank calls and the share on a mask already asked of
        the same matroid object during the op."""
        matroid_cls = getattr(sys.modules.get("matgreedy.matroid"), "Matroid", None)
        if matroid_cls is None:
            self.missing.append("matroid.Matroid.rank")
            return
        orig = matroid_cls.rank
        count, seen_by = self.count, self._rank_seen

        def rank(M, mask):
            count["matroid.rank.calls"] += 1
            seen = seen_by.setdefault(id(M), (M, set()))[1]
            if mask in seen:
                count["matroid.rank.repeats"] += 1
            else:
                seen.add(mask)
            return orig(M, mask)

        matroid_cls.rank = rank
