"""Compare one op's printed JSON with the oracle's answer for its input.

check() returns "ok", "refused" (a report whose Wei section the program
skipped at its cap) or a list of problems.
"""

from __future__ import annotations

import json

import oracle


def _chain_problems(chain_labels, levels, profile, what: str) -> list[str]:
    chain = [oracle.mask_of(c) for c in chain_labels]
    if len(chain) != len(levels):
        return [f"{what} witness has {len(chain)} members, corank {len(levels)}"]
    probs = []
    for i, (mask, level) in enumerate(zip(chain, levels), start=1):
        if mask not in set(level):
            probs.append(f"{what} witness member {oracle.labels(mask)} not at level {i}")
    for a, b in zip(chain, chain[1:]):
        if a & ~b or a == b:
            probs.append(f"{what} witness does not strictly increase")
    if [m.bit_count() for m in chain] != list(profile):
        probs.append(f"{what} witness profile differs from {profile}")
    return probs


def _weights(doc, levels) -> list[str]:
    want = oracle.weights(levels)
    probs = [
        f"{k} = {doc[k]}, oracle {want[k]}" for k in ("d", "e", "e_tilde", "g") if doc[k] != want[k]
    ]
    if doc["t"] != len(levels):
        probs.append(f"t = {doc['t']}, oracle {len(levels)}")
    if doc["chained"] != (want["e"] == want["d"]):
        probs.append("chained verdict differs from e == d")
    probs += _chain_problems(doc["witnesses"]["e"], levels, want["e"], "e")
    probs += _chain_problems(doc["witnesses"]["e_tilde"], levels, want["e_tilde"], "e_tilde")
    return probs


def _chained(doc, levels) -> list[str]:
    want = oracle.weights(levels)
    if doc["chained"] != (want["e"] == want["d"]):
        return ["chained verdict differs from e == d"]
    if doc["chained"]:
        return _chain_problems(doc["witness"], levels, want["d"], "chained")
    return [] if doc["witness"] is None else ["unchained matroid printed a witness"]


def _betti(doc, levels, values: bool) -> list[str]:
    probs = []
    if sorted(doc["support"]) != sorted(oracle.support(levels)):
        probs.append("Betti support differs from the oracle ladder")
    if values:
        want = {
            f"{i}|{','.join(map(str, oracle.labels(x)))}": v
            for (i, x), v in oracle.mobius_values(levels).items()
        }
        if doc["values"] != want:
            bad = sum(doc["values"].get(k) != v for k, v in want.items())
            probs.append(f"{bad} of {len(want)} Betti values differ from |mu(0, X)|")
    return probs


def _shape(doc, levels) -> list[str]:
    cards = [{x.bit_count() for x in level} for level in levels]
    pure = all(len(c) == 1 for c in cards)
    degrees = [c.pop() for c in cards] if pure else None
    linear = pure and all(b == a + 1 for a, b in zip(degrees, degrees[1:]))
    want = {"pure": pure, "linear": linear, "degrees": degrees}
    return [] if doc == want else [f"shape {doc}, oracle {want}"]


def _wei(doc, n: int, levels, dual_levels) -> list[str]:
    w, wd = oracle.weights(levels), oracle.weights(dual_levels)
    probs = []
    for name, left, right in (
        ("greedy", w["e"], wd["e_tilde"]),
        ("classical", w["d"], wd["d"]),
    ):
        part = doc[name]
        if not part["identity_holds"]:
            probs.append(f"{name} Wei identity reported as failing")
        if part["left"] != sorted(left) or part["right_transformed"] != sorted(
            n + 1 - x for x in right
        ):
            probs.append(f"{name} Wei sides differ from the oracle ladders")
    return probs


def _validate(doc, levels) -> list[str]:
    probs = [] if doc["axioms"]["ok"] else ["axiom check failed"]
    if "code_oracle" in doc:
        co = doc["code_oracle"]
        if not co["agrees"]:
            probs.append("code oracle disagrees with the matroid path")
        want = oracle.weights(levels)
        probs += [f"code oracle {k} differs" for k in ("d", "e", "e_tilde", "g") if co[k] != want[k]]
    return probs


def check(op, status: int, text: str):
    inp = op.input
    if status != 0:
        return [f"exit {status}: {text.strip()[:200]}"]
    doc = json.loads(text)
    levels = inp.levels
    if op.command == "weights":
        probs = _weights(doc, levels)
    elif op.command == "chained":
        probs = _chained(doc, levels)
    elif op.command == "betti":
        probs = _betti(doc, levels, op.values)
    elif op.command == "strands":
        probs = [] if doc["nonzero"] is True else ["strand along the e witness reported zero"]
    elif op.command == "wei":
        probs = _wei(doc, inp.n, levels, inp.dual_levels)
    elif op.command == "validate":
        probs = _validate(doc, levels)
    elif op.command == "report":
        probs = (
            _weights(doc["weights"], levels)
            + _betti(doc["betti"], levels, False)
            + _chained(doc["chained"], levels)
            + _shape(doc["shape"], levels)
        )
        if "skipped" not in doc["wei"]:
            probs += _wei(doc["wei"], inp.n, levels, inp.dual_levels)
        elif not probs:
            return "refused"
    else:
        probs = [f"no check for command {op.command!r}"]
    return probs or "ok"
