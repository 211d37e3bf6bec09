"""Command-line front end.

Input files are either a JSON matroid descriptor or a code file (role header
line plus matrix text).  All structured output is JSON with sorted keys and
ascending subsets, so a fixed input and flag set always produces identical
bytes; tables are a human rendering of the same data.  JSON output is exactly
json.dumps(doc, indent=2, sort_keys=True) plus a newline, built from the C
encoder's one-line text (_render_json); tests/test_golden.py pins the bytes.

Exit codes: 0 success, 1 input error (usage errors and non-matroid circuit
lists included), 2 failed identity, check or invariant, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import betti as betti_mod
from . import codes as codes_mod
from . import masks, wei
from .errors import CapExceeded, InputError, InvariantError
from .ladder import DEFAULT_SUBSET_CAP
from .ladder import ladder as build_ladder
from .matroid import Matroid, from_descriptor, validate_axioms
from .weights import is_chained, weight_report

@dataclass
class RunConfig:
    command: str
    input_path: str
    fmt: str = "json"
    values: bool = False
    chain: str | None = None
    cap_subsets: int = DEFAULT_SUBSET_CAP
    cap_subspaces: int = codes_mod.DEFAULT_SUBSPACE_CAP
    seed: int = 0
    dump_ladder: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InputError(f"unknown command {self.command!r}")
        if self.cap_subsets <= 0 or self.cap_subspaces <= 0:
            raise InputError("caps must be positive")
        if self.seed < 0:
            raise InputError("the seed must not be negative")
        if self.fmt not in ("json", "table"):
            raise InputError(f"unknown format {self.fmt!r}")


def _load_input(path: str) -> tuple[Matroid, bool]:
    """The input's matroid, and whether the input was a code file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return from_descriptor(stripped), False
    return codes_mod.parse_code_file(text), True


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ": "))


def _render_json(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), from the C encoder's text.

    CPython encodes in C only without an indent.  That ASCII text is the
    indented one less every newline-and-indent, so they go back in one pass:
    a break follows each non-empty opener and each comma, and precedes each
    closer of a non-empty container, at the lower depth of its two sides.
    """
    text = _ENCODER.encode(doc)
    b = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    quote = b == ord('"')
    if "\\" in text:
        # a quote is escaped when an odd run of backslashes precedes it
        at = np.arange(b.size)
        plain = np.maximum.accumulate(np.where(b == ord("\\"), -1, at))
        quote[1:] &= (at[:-1] - plain[:-1]) % 2 == 0
    outside = np.bitwise_xor.accumulate(quote.view(np.uint8)) == 0
    opener = outside & ((b == ord("[")) | (b == ord("{")))
    closer = outside & ((b == ord("]")) | (b == ord("}")))
    depth = np.cumsum(opener.view(np.int8) - closer.view(np.int8), dtype=np.int64)
    breaks = (outside[:-1] & (b[:-1] == ord(","))) | (opener[:-1] ^ closer[1:])
    # the break after byte i, if any: a newline and two spaces per level
    width = np.zeros(b.size, dtype=np.int64)
    width[1:] = np.where(breaks, 1 + 2 * np.minimum(depth[:-1], depth[1:]), 0).cumsum()
    out = np.full(b.size + width[-1], ord(" "), dtype=np.uint8)
    out[np.arange(b.size) + width] = b
    out[np.flatnonzero(breaks) + width[:-1][breaks] + 1] = ord("\n")
    return out.tobytes().decode("ascii")


def _render_table(doc: dict) -> str:
    lines = []

    def walk(prefix: str, node):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(f"{prefix}{key}.", node[key])
        elif isinstance(node, list) and all(
            not isinstance(x, (dict, list)) for x in node
        ):
            lines.append(f"{prefix[:-1]}: {' '.join(str(x) for x in node)}")
        elif isinstance(node, list):
            for idx, item in enumerate(node):
                walk(f"{prefix}{idx}.", item)
        else:
            lines.append(f"{prefix[:-1]}: {node}")

    walk("", doc)
    return "\n".join(lines) + "\n"


def _betti_table_text(doc: dict) -> str:
    """Grid rendering of a betti document: rows are homological indices,
    columns cardinalities."""
    if "table" in doc:
        cells = {
            tuple(map(int, key.split("|"))): str(val)
            for key, val in doc["table"].items()
        }
    else:
        cells = {tuple(pair): "*" for pair in doc["table_support"]}
    max_j = max((j for _, j in cells), default=0)
    width = max([3] + [len(v) for v in cells.values()])
    header = "i\\j " + " ".join(f"{j:>{width}}" for j in range(max_j + 1))
    lines = [header]
    for i in range(doc["t"] + 1):
        row = [f"{cells.get((i, j), '.'):>{width}}" for j in range(max_j + 1)]
        lines.append(f"{i:>3} " + " ".join(row))
    return "\n".join(lines) + "\n"


# Command handlers take (M, config, is_code), is_code saying whether the
# input was a code file; only validate reads it.


def _cmd_weights(M: Matroid, config: RunConfig, is_code=False) -> dict:
    return weight_report(M).to_json_dict()


def _cmd_betti(M: Matroid, config: RunConfig, is_code=False) -> dict:
    if config.values:
        return betti_mod.betti_values(M).to_json_dict()
    return betti_mod.betti_support(M).to_json_dict()


def _cmd_strands(M: Matroid, config: RunConfig, is_code=False) -> dict:
    if not config.chain:
        raise InputError("strands requires --chain \"1,2|1,2,3|...\"")
    chain = masks.parse_chain(config.chain, M.n)
    return {
        "chain": [list(masks.to_labels(m)) for m in chain],
        "nonzero": betti_mod.strand_check(M, chain),
    }


def _cmd_wei(M: Matroid, config: RunConfig, is_code=False) -> dict:
    # an identity whose dual side is over the cap is skipped on its own
    checks = {"greedy": wei.check_wei_greedy, "classical": wei.check_wei_classical}
    doc = {}
    for name, check in checks.items():
        try:
            doc[name] = check(M, cap=config.cap_subsets)
        except CapExceeded as exc:
            doc[name] = {"skipped": str(exc)}
    return doc


def _chained_doc(verdict: bool, chain) -> dict:
    """The verdict, and the chain computing every d_i when chained."""
    return {
        "chained": verdict,
        "witness": [list(masks.to_labels(m)) for m in chain] if verdict else None,
    }


def _cmd_chained(M: Matroid, config: RunConfig, is_code=False) -> dict:
    return _chained_doc(*is_chained(M))


def _cmd_validate(M: Matroid, config: RunConfig, is_code: bool) -> dict:
    axioms = validate_axioms(M, seed=config.seed)
    doc: dict = {"axioms": axioms.to_json_dict()}
    if not axioms.ok:
        return doc
    # sampled axioms (n > 12) can pass on a circuit list that is not a matroid
    M.check_elimination(config.cap_subsets)
    if not is_code:
        return doc
    try:
        oracle = codes_mod.subcode_weights(M, cap=config.cap_subspaces)
    except CapExceeded:
        return doc  # the oracle is skipped above its cap
    report = weight_report(M)
    names = ("d", "e", "e_tilde", "g")
    doc["code_oracle"] = {
        "agrees": tuple(getattr(report, name) for name in names) == oracle,
        **{name: list(vec) for name, vec in zip(names, oracle)},
    }
    return doc


# reports bound the dual side of each Wei identity tightly: the closures of
# one rank of the flats walk (greedy) and the 2^n subsets ranked (classical)
REPORT_WEI_CAP = 300_000


def _cmd_report(M: Matroid, config: RunConfig, is_code=False) -> dict:
    weights = weight_report(M)
    doc = {
        "weights": weights.to_json_dict(),
        "betti": _cmd_betti(M, config),
        "chained": _chained_doc(weights.chained, weights.witness_e),
        "shape": betti_mod.resolution_shape(M).to_json_dict(),
    }
    if config.chain:
        doc["strands"] = _cmd_strands(M, config)
    tight = replace(config, cap_subsets=min(config.cap_subsets, REPORT_WEI_CAP))
    doc["wei"] = _cmd_wei(M, tight)
    return doc


def _wei_fails(doc: dict) -> bool:
    return not all(part.get("identity_holds", True) for part in doc.values())


def _validate_fails(doc: dict) -> bool:
    oracle = doc.get("code_oracle", {"agrees": True})
    return not (doc["axioms"]["ok"] and oracle["agrees"])


@dataclass(frozen=True)
class _Command:
    help: str
    handler: Callable[..., dict]
    # whether the document records a failed identity or check (exit 2)
    fails: Callable[[dict], bool] = lambda doc: False
    table: Callable[[dict], str] = _render_table


COMMANDS = {
    "weights": _Command("all four weight vectors with witnesses", _cmd_weights),
    "betti": _Command(
        "Betti support (values with --values)", _cmd_betti, table=_betti_table_text
    ),
    "strands": _Command("check a strand given with --chain", _cmd_strands),
    "wei": _Command("both Wei duality identities", _cmd_wei, _wei_fails),
    "chained": _Command("chainedness verdict and witness chain", _cmd_chained),
    "report": _Command("everything at once", _cmd_report, lambda doc: _wei_fails(doc["wei"])),
    "validate": _Command(
        "axiom check; code inputs also get oracle cross-check",
        _cmd_validate,
        _validate_fails,
    ),
}


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one command; returns (exit status, rendered output)."""
    command = COMMANDS[config.command]
    try:
        M, is_code = _load_input(config.input_path)
        if config.command != "validate":
            build_ladder(M, cap=config.cap_subsets)
        doc = command.handler(M, config, is_code)
        # validate builds no ladder once the axioms fail: its report stands alone
        if config.dump_ladder and doc.get("axioms", {"ok": True})["ok"]:
            doc["ladder"] = build_ladder(M, cap=config.cap_subsets).to_json_dict()
    except InputError as exc:
        return 1, f"input error: {exc}\n"
    except CapExceeded as exc:
        return 3, f"cap exceeded: {exc}\n"
    except InvariantError as exc:
        return 2, f"internal invariant failure: {exc}\n"

    status = 2 if command.fails(doc) else 0
    if config.fmt == "table":
        return status, command.table(doc)
    return status, _render_json(doc) + "\n"


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matgreedy",
        description="Weight hierarchies, greedy weights, Wei duality and "
        "Betti data for matroids and linear codes over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        # an option left out is absent, so RunConfig's default applies
        sp = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        sp.add_argument("input_path", metavar="input", help="matroid JSON or code file")
        sp.add_argument("--format", dest="fmt", choices=("json", "table"))
        sp.add_argument(
            "--values", action="store_true", help="compute exact Betti values"
        )
        sp.add_argument("--chain", help='chain of subsets, e.g. "1,2|1,2,3,4"')
        sp.add_argument("--cap-subsets", type=int)
        sp.add_argument(
            "--cap-subspaces", type=int,
            help="most subspaces of the message space GF(p)^k that validate's "
            "subcode oracle may enumerate; above it the oracle is skipped",
        )
        sp.add_argument("--seed", type=int)
        sp.add_argument("--dump-ladder", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            # each token quoted, as argparse's other messages quote theirs
            raise InputError(f"unrecognized arguments: {' '.join(map(repr, unknown))}")
        config = RunConfig(**vars(args))
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    status, output = run(config)
    # rendered reports go to stdout even when an identity check failed;
    # plain error messages go to stderr
    is_message = output.startswith(
        ("input error:", "cap exceeded:", "internal invariant failure:")
    )
    stream = sys.stderr if is_message else sys.stdout
    stream.write(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
