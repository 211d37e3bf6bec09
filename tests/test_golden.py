"""Golden output: the sha256 of (exit code, stdout) of every fixture under
its command configurations, run in-process through the console entry point,
the sha256 of the --help text of the parser and of each command, and one
sha256 over every command on the seeded circuit lists that are matroids,
each given plain and as a dual descriptor.  In a configuration, the token
@e stands for the fixture's bottom-up witness chain e, written as a --chain
argument.

A change that should keep the CLI's output must pass this file unchanged;
a change that alters output on purpose updates the hashes and says why.
`python -m tests.test_golden` prints the current GOLDEN and HELP tables and
MATROID_SWEEP, so new or changed pins are pasted from one run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from matgreedy import cli
from matgreedy.cli import COMMANDS, _load_input, main
from matgreedy.masks import to_labels
from matgreedy.weights import weight_report
from tests.conftest import FIXTURES, SWEEP, elimination_failure, sweep_circuit_lists

EVERY = (
    "weights", "weights --dump-ladder", "chained", "betti", "betti --values",
    "betti --format table", "wei", "report", "validate", "strands --chain @e",
    "report --chain @e", "validate --dump-ladder",
)
# the other linear input forms: ternary84 as a parity-check descriptor and
# code file and as the dual of one, and a modulus too large to list words
LINEAR = ("weights", "wei", "validate", "betti --values")
CONFIGS = {
    "m23.json": EVERY,
    "ternary84.json": EVERY,
    "ternary84_code.txt": EVERY,
    "uniform_2_4.json": EVERY,
    "ternary84_parity.json": LINEAR,
    "ternary84_parity_code.txt": LINEAR,
    "ternary84_dual.json": LINEAR,
    "p65521.json": LINEAR,
}
CASES = sorted((fixture, config) for fixture, configs in CONFIGS.items() for config in configs)
HELP_COMMANDS = ("", *COMMANDS)  # the parser's own help, then each command's

GOLDEN = {
    ("m23.json", "betti"): "807d597483e5e52d48449cafdf607538cb7e9f43b5eda4d09ae7f97483cc35f2",
    ("m23.json", "betti --format table"): "72a3cd8b0bb96b8d0e6cafa2201a970dbed8236b94ab25b6388c4585e7c99021",
    ("m23.json", "betti --values"): "0e732bae0863f859e8d0e5f8264bbf5bd66a2fa35dc1d5f86578675a5789303e",
    ("m23.json", "chained"): "415d0e9a65219e8fa3929132adbc7eec40b15e6c92818bde38be43dd57bc467c",
    ("m23.json", "report"): "c90fa4f8de361b964ee839f7d79c473e4a67d059ac26d4b4228cc6f7e684e305",
    ("m23.json", "report --chain @e"): "a4b463daec0629fe5fdeec97f09fc0d5c9b2e458036fd6f0e993bceb9ddff940",
    ("m23.json", "strands --chain @e"): "def3541be1b4f6fdec2e88b352513cab99c7f8e9f50dbbc731539d2afd49cac3",
    ("m23.json", "validate"): "7f58030ab646dbda427f726a619bcd7f84e88c82743675e1845b8454aa12b6ed",
    ("m23.json", "validate --dump-ladder"): "c059dab7c66f20f13cc85a9f6a07312d924abda75cd17e3032692a74424910dd",
    ("m23.json", "wei"): "7d6d9d8c6791ab9590a3a01acd6642eb0f61f3b54c643e9803bfee2df615de15",
    ("m23.json", "weights"): "7243ec0922e2a4e166494df9d56e5b136395500cfe19f2e2a11dfae5d7536313",
    ("m23.json", "weights --dump-ladder"): "a63ea8a6260d44b7e534fb78f3e2b79993c3fb6df8d5698783ffb4b1c90d3f4d",
    ("p65521.json", "betti --values"): "349f870152869e3d7ceecdbdc3724d242402b24a9820054184e30850feb9c905",
    ("p65521.json", "validate"): "dea43a060bbb5eebebb8f297880bd3dbbce619d11340d199b413b5ee3e942f37",
    ("p65521.json", "wei"): "e6614f1c90ae64e98c573fbf11ff0175735c623ca11df588d8c55cc71ba839fd",
    ("p65521.json", "weights"): "5405b135a6c76780e385274d9cd8484235e98509139e82a3407b9917ced1ac0b",
    ("ternary84.json", "betti"): "bef536a8e42c732fc57e11056320d13d09f925026639af49708bc35eeca62850",
    ("ternary84.json", "betti --format table"): "eb4a7f96c42694147787ddb79670cf504a99709a0f1a97fca90a2cb05ade7f71",
    ("ternary84.json", "betti --values"): "2aafe3443e36a32b2bf812e2c0c6ed5d01a20af9354884b03a3b16e245fc2236",
    ("ternary84.json", "chained"): "415d0e9a65219e8fa3929132adbc7eec40b15e6c92818bde38be43dd57bc467c",
    ("ternary84.json", "report"): "138bbfb4fa52134a3acfc05f87a82a0282a76acc7df08aba0f39db39cc7bfa6f",
    ("ternary84.json", "report --chain @e"): "6933bac10cff40182ca3468065d5b9092bd1ce244e9c1010e35be9a1a23b7ba5",
    ("ternary84.json", "strands --chain @e"): "3a10bf561efab7f5c234297274b2132776b5a736728f2a62acfd554eb0c4b1ff",
    ("ternary84.json", "validate"): "dea43a060bbb5eebebb8f297880bd3dbbce619d11340d199b413b5ee3e942f37",
    ("ternary84.json", "validate --dump-ladder"): "8915291a76e18b61947d801f9376cb49d362883faeeef2d1bed8971e7773dd44",
    ("ternary84.json", "wei"): "f1b83524ad8c914af7d0540acb7b62bdb8752c75f3916e725131cfca2b228dfb",
    ("ternary84.json", "weights"): "d6d20206997df0c18807c41a066bbcc2e7fb707c1f3ebe7a497a6d501caa9c9a",
    ("ternary84.json", "weights --dump-ladder"): "9214baa22b6fb8e0c2abc1015bf029516072987d05e63f18345a38cf397f6cd8",
    ("ternary84_code.txt", "betti"): "bef536a8e42c732fc57e11056320d13d09f925026639af49708bc35eeca62850",
    ("ternary84_code.txt", "betti --format table"): "eb4a7f96c42694147787ddb79670cf504a99709a0f1a97fca90a2cb05ade7f71",
    ("ternary84_code.txt", "betti --values"): "2aafe3443e36a32b2bf812e2c0c6ed5d01a20af9354884b03a3b16e245fc2236",
    ("ternary84_code.txt", "chained"): "415d0e9a65219e8fa3929132adbc7eec40b15e6c92818bde38be43dd57bc467c",
    ("ternary84_code.txt", "report"): "138bbfb4fa52134a3acfc05f87a82a0282a76acc7df08aba0f39db39cc7bfa6f",
    ("ternary84_code.txt", "report --chain @e"): "6933bac10cff40182ca3468065d5b9092bd1ce244e9c1010e35be9a1a23b7ba5",
    ("ternary84_code.txt", "strands --chain @e"): "3a10bf561efab7f5c234297274b2132776b5a736728f2a62acfd554eb0c4b1ff",
    ("ternary84_code.txt", "validate"): "3d1a876955f5c97bb6c82ecc45644cd9d73a9dbe4c482035c414ba17e23723b2",
    ("ternary84_code.txt", "validate --dump-ladder"): "877a1c603e90b15133e1151edd5be0af894342b86bd2bb19a90686494e7b0cf7",
    ("ternary84_code.txt", "wei"): "f1b83524ad8c914af7d0540acb7b62bdb8752c75f3916e725131cfca2b228dfb",
    ("ternary84_code.txt", "weights"): "d6d20206997df0c18807c41a066bbcc2e7fb707c1f3ebe7a497a6d501caa9c9a",
    ("ternary84_code.txt", "weights --dump-ladder"): "9214baa22b6fb8e0c2abc1015bf029516072987d05e63f18345a38cf397f6cd8",
    ("ternary84_dual.json", "betti --values"): "bcde3b5c22ad1bbc5b44724dbb8c22d1a68a38240885789505c1287b0ea2a669",
    ("ternary84_dual.json", "validate"): "dea43a060bbb5eebebb8f297880bd3dbbce619d11340d199b413b5ee3e942f37",
    ("ternary84_dual.json", "wei"): "f1b83524ad8c914af7d0540acb7b62bdb8752c75f3916e725131cfca2b228dfb",
    ("ternary84_dual.json", "weights"): "3858f74dcdfb9138102211079cbbe12d6b5155397e7c2c487247c66afc87b7e9",
    ("ternary84_parity.json", "betti --values"): "2aafe3443e36a32b2bf812e2c0c6ed5d01a20af9354884b03a3b16e245fc2236",
    ("ternary84_parity.json", "validate"): "dea43a060bbb5eebebb8f297880bd3dbbce619d11340d199b413b5ee3e942f37",
    ("ternary84_parity.json", "wei"): "f1b83524ad8c914af7d0540acb7b62bdb8752c75f3916e725131cfca2b228dfb",
    ("ternary84_parity.json", "weights"): "d6d20206997df0c18807c41a066bbcc2e7fb707c1f3ebe7a497a6d501caa9c9a",
    ("ternary84_parity_code.txt", "betti --values"): "2aafe3443e36a32b2bf812e2c0c6ed5d01a20af9354884b03a3b16e245fc2236",
    ("ternary84_parity_code.txt", "validate"): "3d1a876955f5c97bb6c82ecc45644cd9d73a9dbe4c482035c414ba17e23723b2",
    ("ternary84_parity_code.txt", "wei"): "f1b83524ad8c914af7d0540acb7b62bdb8752c75f3916e725131cfca2b228dfb",
    ("ternary84_parity_code.txt", "weights"): "d6d20206997df0c18807c41a066bbcc2e7fb707c1f3ebe7a497a6d501caa9c9a",
    ("uniform_2_4.json", "betti"): "c38c14e2c5d960508effde5b6d292a46e541d59d11c543ef5f23bf368e9e205a",
    ("uniform_2_4.json", "betti --format table"): "61d6c4c29915c0af0b017bd8067d2e2f232794120c5851dd0194120773916726",
    ("uniform_2_4.json", "betti --values"): "e0fb18543af7cb38c65f87fa8551a8a5cfc402399911c112f11c4da174eb72d9",
    ("uniform_2_4.json", "chained"): "1db88f09c92d57295c8e01f67217704ce35d302066b745e65af7c7728a79ea36",
    ("uniform_2_4.json", "report"): "9dda8055f3d08796d53675bde293696e6ec9b4f644a8abf7435e5c0f95d649ee",
    ("uniform_2_4.json", "report --chain @e"): "1a14a20cb09e4305c511cb84a93fcb72fdbe365b1dff8be3b5465feba3df9433",
    ("uniform_2_4.json", "strands --chain @e"): "0d5b9854c887a7430cf984c2700eeb11257ee6a20920e14e2071b66c90761d58",
    ("uniform_2_4.json", "validate"): "5810f6af7220316e93b08404333c8532e7ce1264fa24efc2d0e720c63163304e",
    ("uniform_2_4.json", "validate --dump-ladder"): "d1ff1e5bd26029f8080d2aa0191bece3829899e56757f6c7ffbc806ad530f427",
    ("uniform_2_4.json", "wei"): "9d2a6450a52e491a2b372c0413475c5784bb58ff664deab3e7392e34e8a5a63b",
    ("uniform_2_4.json", "weights"): "2de2bc12a949cff178c9a6a401c44c447d030380a7668da3dd65362dde466676",
    ("uniform_2_4.json", "weights --dump-ladder"): "ac44163011a9f03ee095a741d851c3c01bd36b3ccb8dff38d42d4be54e26deb2",
}


HELP = {
    "": "287da2c7812a3616b20cbe33a54223b90b82d75e23c57bae7814003c0f07fce1",
    "weights": "c873b0e508d0d058c2392ae29ce07af7ee0475ac468b46265d5f973bf7c1b1a1",
    "betti": "4749b41d501d35d5c88abaf105312943d3d9bfd464b6c963e74f7d71ebbed246",
    "strands": "eec06a9ead749d51b4dce7707365e2341f1db1d3d566385fb928d45a7f356c2d",
    "wei": "4be12a59bd6174841d60eca712e2a187e4670f9dfb6ab4a869dc42fb4e752395",
    "chained": "39600df5a454e8eaffa73cfee77a005fc889a0260d8560c4979ede2c47517311",
    "report": "3594fb6dea523614166943d21b18d5baf7bcba6b2f018f5c3c1b2653e8e01d67",
    "validate": "026a5886109e07453a875b28fa5d9466a67dbfb60d18121265a273b170aa0a3a",
}

# SWEEP on the 154 matroids of sweep_circuit_lists and their duals, pinned
# before non-matroid lists were refused at load
MATROID_SWEEP = "15a52d8cb4336da7850d7ac8cdde0d376900ecd4bf0a779c0a15a2171ebf2471"


def output_digest(fixture: str, config: str) -> str:
    command, *flags = config.split()
    if "@e" in flags:
        M, _ = _load_input(str(FIXTURES / fixture))
        chain = "|".join(
            ",".join(map(str, to_labels(m))) for m in weight_report(M).witness_e
        )
        flags = [chain if flag == "@e" else flag for flag in flags]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main([command, str(FIXTURES / fixture), *flags])
    return hashlib.sha256(f"{status}\n{out.getvalue()}".encode()).hexdigest()


def matroid_sweep_digest() -> str:
    """One sha256 over (exit code, stdout) of every SWEEP command on every
    matroid of sweep_circuit_lists, plain and as a dual descriptor."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "circuits.json"
        for desc in sweep_circuit_lists():
            if elimination_failure(desc["circuits"]):
                continue
            plain = {"type": "circuits", **desc}
            for wrapped in (plain, {"type": "dual", "of": plain}):
                path.write_text(json.dumps(wrapped))
                for config in SWEEP:
                    command, *flags = config.split()
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                        status = main([command, str(path), *flags])
                    digest.update(f"{status}\n{out.getvalue()}".encode())
    return digest.hexdigest()


def help_digest(command: str) -> str:
    """Digest of the help text; argparse wraps it to the width in COLUMNS."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(HELP_COMMANDS))
def test_golden_help(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_digest(command) == HELP[command]


@pytest.mark.parametrize("fixture, config", CASES)
def test_golden_output(fixture, config):
    assert output_digest(fixture, config) == GOLDEN.get((fixture, config))


@pytest.mark.parametrize("fixture, config", CASES)
def test_golden_documents_render_as_json_dumps(monkeypatch, fixture, config):
    # the digests pin the bytes; this pins what they are the bytes of
    render, docs = cli._render_json, []

    def checked(doc):
        docs.append(text := render(doc))
        assert text == json.dumps(doc, indent=2, sort_keys=True)
        return text

    monkeypatch.setattr(cli, "_render_json", checked)
    output_digest(fixture, config)
    assert len(docs) == ("--format table" not in config)


def test_golden_matroid_sweep():
    assert matroid_sweep_digest() == MATROID_SWEEP


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    print("GOLDEN = {")
    for fixture, config in CASES:
        print(f"    ({fixture!r}, {config!r}): {output_digest(fixture, config)!r},".replace("'", '"'))
    print("}\n\n\nHELP = {")
    for command in HELP_COMMANDS:
        print(f"    {command!r}: {help_digest(command)!r},".replace("'", '"'))
    print("}\n\n\nMATROID_SWEEP = " + repr(matroid_sweep_digest()).replace("'", '"'))
