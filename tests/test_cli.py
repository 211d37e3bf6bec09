"""CLI commands, formats, exit codes, and byte stability."""

from __future__ import annotations

import contextlib
import io
import json
import time
from collections import Counter
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matgreedy import betti as betti_mod
from matgreedy import kernels
from matgreedy.cli import COMMANDS, RunConfig, _render_json, main, run
from matgreedy.errors import InputError
from matgreedy.gfp import FieldMatrix
from matgreedy.ladder import DEFAULT_SUBSET_CAP, circuits
from matgreedy.masks import to_labels
from matgreedy.matroid import LinearMatroid, from_descriptor, from_generator, validate_axioms
from tests.conftest import (
    FIXTURES,
    SWEEP,
    elimination_failure,
    format_matrix,
    random_circuit_lists,
    random_code,
    sweep_circuit_lists,
)
from tests.test_betti import hilbert_numerator_order

TERNARY84 = str(FIXTURES / "ternary84.json")
M23 = str(FIXTURES / "m23.json")
U24 = str(FIXTURES / "uniform_2_4.json")
CODE8 = str(FIXTURES / "ternary84_code.txt")
# deeper than the interpreter's recursion limit
DEEP_DUAL = '{"type": "dual", "of": ' * 5000 + '{"type": "uniform", "r": 1, "n": 3}' + "}" * 5000


def run_cmd(command: str, path: str, **kwargs) -> tuple[int, dict]:
    status, out = run(RunConfig(command=command, input_path=path, **kwargs))
    return status, json.loads(out)


def test_weights_ternary84_fixture():
    status, doc = run_cmd("weights", TERNARY84)
    assert status == 0
    assert doc["d"] == [2, 4, 6, 8]
    assert doc["e"] == [2, 4, 7, 8]
    assert doc["e_tilde"] == [3, 4, 6, 8]
    assert doc["g"] == [2, 4, 6, 8]


def test_weights_code_input_matches_descriptor_input():
    _, from_json = run_cmd("weights", TERNARY84)
    _, from_code = run_cmd("weights", CODE8)
    assert from_json == from_code


def test_weights_uniform_fixture():
    status, doc = run_cmd("weights", U24)
    assert status == 0
    assert doc["d"] == doc["e"] == doc["e_tilde"] == doc["g"] == [3, 4]
    assert doc["chained"] is True


def test_betti_values_entry():
    status, doc = run_cmd("betti", TERNARY84, values=True)
    assert status == 0
    assert doc["values"]["4|1,2,3,4,5,6,7,8"] == 6
    assert doc["values"]["2|5,6,7,8"] == 3
    assert doc["table"]["1|2"] == 1


def test_strands_command():
    status, doc = run_cmd(
        "strands", TERNARY84, chain="1,2|1,2,3,4|1,2,3,4,6,7,8|1,2,3,4,5,6,7,8"
    )
    assert status == 0
    assert doc["nonzero"] is True
    status, doc = run_cmd("strands", TERNARY84, chain="1,3,4|1,2,3,4|1,2,3,4,5|1,2,3,4,5,6,7,8")
    assert status == 0
    assert doc["nonzero"] is False


def test_strands_requires_chain():
    status, out = run(RunConfig(command="strands", input_path=TERNARY84))
    assert status == 1


def test_wei_command():
    status, doc = run_cmd("wei", TERNARY84)
    assert status == 0
    assert doc["greedy"]["identity_holds"] and doc["classical"]["identity_holds"]


def test_chained_command():
    status, doc = run_cmd("chained", U24)
    assert status == 0
    assert doc["chained"] is True and doc["witness"] == [[1, 2, 3], [1, 2, 3, 4]]
    status, doc = run_cmd("chained", TERNARY84)
    assert doc["chained"] is False and doc["witness"] is None


def test_validate_command_matroid():
    status, doc = run_cmd("validate", TERNARY84)
    assert status == 0
    assert doc["axioms"]["ok"] is True


def test_validate_m23_stdout_pinned():
    # the sampled path: n = 23 is above the exhaustive bound
    status, out = run(RunConfig(command="validate", input_path=M23))
    assert status == 0
    assert out == (
        '{\n  "axioms": {\n    "checked_sets": 4096,\n    "exhaustive": false,\n'
        '    "ok": true,\n    "violations": []\n  }\n}\n'
    )


def test_validate_command_code_oracle():
    status, doc = run_cmd("validate", CODE8)
    assert status == 0
    assert doc["code_oracle"]["agrees"] is True
    assert doc["code_oracle"]["d"] == [2, 4, 6, 8]


def test_report_ternary84_reproduces_numbers():
    status, doc = run_cmd("report", TERNARY84, values=True)
    assert status == 0
    assert doc["weights"]["d"] == [2, 4, 6, 8]
    assert doc["weights"]["e"] == [2, 4, 7, 8]
    assert doc["weights"]["e_tilde"] == [3, 4, 6, 8]
    assert doc["weights"]["g"] == [2, 4, 6, 8]
    assert doc["betti"]["values"]["2|1,2,3,4"] == 2
    assert doc["betti"]["values"]["2|5,6,7,8"] == 3
    assert doc["betti"]["values"]["4|1,2,3,4,5,6,7,8"] == 6
    assert doc["wei"]["greedy"]["identity_holds"]
    assert doc["wei"]["classical"]["identity_holds"]
    assert doc["chained"]["chained"] is False
    assert doc["shape"]["pure"] is False


def test_report_m23_reproduces_numbers():
    status, doc = run_cmd("report", M23)
    assert status == 0
    assert doc["weights"]["d"] == [8, 10, 11, 19, 23]
    assert doc["weights"]["g"] == [8, 12, 11, 19, 23]
    assert doc["weights"]["e"] == [8, 12, 21, 22, 23]
    assert doc["weights"]["e_tilde"] == [9, 10, 11, 19, 23]
    # the flats walk gives the dual's e-tilde = (4..11, 13, 14, 15, 17..23);
    # the classical side would rank all 2^23 subsets, over the report cap
    greedy = doc["wei"]["greedy"]
    assert greedy["identity_holds"] is True
    assert greedy["left"] == [8, 12, 21, 22, 23]
    dual_e_tilde = sorted(24 - x for x in greedy["right_transformed"])
    assert dual_e_tilde == [*range(4, 12), 13, 14, 15, *range(17, 24)]
    assert doc["wei"]["classical"] == {
        "skipped": "the largest flats need all 2^23 subsets, more than 300000"
    }


def test_wei_m23_exits_0():
    start = time.perf_counter()
    status, doc = run_cmd("wei", M23)
    assert status == 0
    assert doc["greedy"]["identity_holds"] is True
    assert "2^23" in doc["classical"]["skipped"]
    assert time.perf_counter() - start < 3.0


def test_report_includes_strands_with_chain():
    status, doc = run_cmd(
        "report", TERNARY84, chain="1,2|1,2,3,4|1,2,3,4,6,7,8|1,2,3,4,5,6,7,8"
    )
    assert status == 0
    assert doc["strands"]["nonzero"] is True
    status, doc = run_cmd("report", TERNARY84)
    assert "strands" not in doc


def test_dump_ladder_flag():
    status, doc = run_cmd("weights", TERNARY84, dump_ladder=True)
    assert status == 0
    assert [len(lv) for lv in doc["ladder"]["levels"]] == [7, 14, 7, 1]
    assert doc["ladder"]["levels"][0][0] == [1, 2]


def test_chained_refuses_what_weights_refuses(tmp_path):
    # not a matroid: {1,2,5} and {1,2,3,4} eliminate to no circuit
    path = tmp_path / "circuits.json"
    path.write_text('{"type": "circuits", "n": 5, "circuits": [[1, 2, 3, 4], [1, 2, 5]]}')
    status, out = run(RunConfig("chained", str(path)))
    assert (status, out) == run(RunConfig("weights", str(path)))
    assert (status, out) == (
        1, "input error: circuits [1, 2, 5] and [1, 2, 3, 4] share 1, "
        "but [2, 3, 4, 5] holds no circuit\n"
    )


def test_validate_dump_ladder_after_failed_axioms(tmp_path):
    # a failed axiom check builds no ladder: the report stands alone, as
    # without --dump-ladder, whatever the cap
    path = tmp_path / "circuits.json"
    for circs, flags in (([[1, 2], [3, 4], [1, 3]], {}), ([[1, 2], [1, 3]], {"cap_subsets": 1})):
        path.write_text(json.dumps({"type": "circuits", "n": max(map(max, circs)),
                                    "circuits": circs}))
        plain = run(RunConfig("validate", str(path), **flags))
        assert plain[0] == 2 and not json.loads(plain[1])["axioms"]["ok"]
        assert run(RunConfig("validate", str(path), dump_ladder=True, **flags)) == plain


def test_report_builds_one_weight_report(monkeypatch):
    # only the weight sweeps call greedy_top_down
    import matgreedy.weights as weights_mod

    calls = []
    sweep = weights_mod.greedy_top_down
    monkeypatch.setattr(weights_mod, "greedy_top_down", lambda M: calls.append(1) or sweep(M))
    for path in (TERNARY84, U24, CODE8, M23):
        calls.clear()
        assert run(RunConfig("report", path))[0] == 0
        assert len(calls) == 1, path


def test_output_byte_stable():
    outputs = {run(RunConfig(command="report", input_path=TERNARY84))[1] for _ in range(3)}
    assert len(outputs) == 1


# strings and keys full of JSON's own punctuation, escapes and non-ASCII text
json_strings = st.text(
    st.sampled_from('"\\[]{},: \n\tab\x00\x7f\u00e9\u4e2d\U0001f600') | st.characters(), max_size=8
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.floats() | json_strings,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=json_values)
@example(doc=[[[[[[]]]]], {"": {"a": {"b": {"c": {"d": {}}}}}}, [[], {}]])
@example(doc=[float("nan"), float("inf"), -float("inf"), -0.0, 2**70, -(2**70), True, None])
@example(doc={'\\"': ['\\', '\\\\"', '"[', "],"], "{:}": {"\n\u00e9": "\\"}})
@example(doc='"\\"')
@example(doc=-17)
def test_json_rendering_is_json_dumps(doc):
    assert _render_json(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    # np.unique, the obvious tool for counting word supports, imports
    # numpy.ma, about 2 MB of resident memory
    import subprocess
    import sys

    parity = tmp_path / "hamming7.json"
    parity.write_text(json.dumps({"type": "linear", "p": 2, "matrix": [
        [1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]}))
    script = (
        "import sys\n"
        "from matgreedy import cli\n"
        "for path in sys.argv[1:]:\n"
        "    for command in ('weights', 'validate', 'wei'):\n"
        "        assert cli.run(cli.RunConfig(command, path))[0] == 0, (command, path)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    subprocess.run([sys.executable, "-c", script, str(parity), CODE8], check=True)


def test_console_script_byte_stable_across_processes():
    import subprocess
    import sys

    docs = {}
    for args in (["weights", TERNARY84], ["validate", CODE8]):
        cmd = [sys.executable, "-m", "matgreedy", *args]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        docs[args[0]] = json.loads(first.stdout)
    assert docs["weights"]["d"] == [2, 4, 6, 8]
    assert docs["validate"]["code_oracle"] == {
        "agrees": True,
        "d": [2, 4, 6, 8],
        "e": [2, 4, 7, 8],
        "e_tilde": [3, 4, 6, 8],
        "g": [2, 4, 6, 8],
    }


def _write_code(path, M: LinearMatroid) -> str:
    """A generator code file of the code of M: M.kernel's rows."""
    path.write_text("generator\n" + format_matrix(FieldMatrix(M.p, M.kernel)))
    return str(path)


def test_validate_subspace_cap_trips_first(tmp_path):
    # GF(3) k=7 has 2,052,656 subspaces: the oracle is skipped at once
    eye7 = np.eye(7, dtype=int)
    ternary = from_generator(FieldMatrix(3, np.hstack([eye7, eye7[:, :3] + eye7[:, 3:6]])))
    start = time.perf_counter()
    status, doc = run_cmd("validate", _write_code(tmp_path / "t.txt", ternary))
    assert status == 0 and "code_oracle" not in doc
    assert time.perf_counter() - start < 2.0
    # GF(2) k=7 has 29,212 subspaces, within the default cap
    binary = _write_code(tmp_path / "b.txt", random_code(np.random.default_rng(7), 2, 12, 7))
    start = time.perf_counter()
    status, doc = run_cmd("validate", binary)
    assert status == 0 and doc["code_oracle"]["agrees"] is True
    assert time.perf_counter() - start < 1.0
    status, doc = run_cmd("validate", binary, cap_subspaces=29_211)
    assert status == 0 and "code_oracle" not in doc


def test_exit_codes(tmp_path):
    status, _ = run(RunConfig(command="weights", input_path="/no/such/file"))
    assert status == 1
    (tmp_path / "latin1.txt").write_bytes(b"generator\n\xff 1 1\n1\n")
    status, out = run(RunConfig(command="weights", input_path=str(tmp_path / "latin1.txt")))
    assert status == 1 and out.startswith("input error: cannot read")
    status, _ = run(RunConfig(command="weights", input_path=M23, cap_subsets=10))
    assert status == 3
    # a ladder on n <= 14 elements is read off all 2^n subsets, which the cap bounds
    for cap, want in ((255, 3), (256, 0)):
        assert run(RunConfig("weights", TERNARY84, cap_subsets=cap))[0] == want
    with pytest.raises(InputError):
        RunConfig(command="weights", input_path=TERNARY84, cap_subsets=0)
    with pytest.raises(InputError):
        RunConfig(command="bogus", input_path=TERNARY84)


def test_generator_code_file_with_a_zero_row_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "zero_row.txt"
    path.write_text("generator\n3 3 4\n1 0 1 1\n0 0 0 0\n0 1 1 2\n")
    assert main(["weights", str(path)]) == 1
    message = "input error: generator rows are dependent: rank 2 of 3 rows\n"
    assert capsys.readouterr().err == message


def test_dual_of_hamming_31_26_prints_the_simplex_31_5(tmp_path):
    # the dual of a linear input is linear: its circuits are the supports of
    # the 2^5 words of the simplex code, not the subsets of at most 27 of the
    # 31 elements, which are over the cap, and its documents are those of the
    # simplex [31,5] generator
    columns = [[j >> i & 1 for j in range(1, 32)] for i in range(5)]
    hamming = {"type": "linear", "p": 2, "matrix": columns}
    dual, simplex = tmp_path / "dual.json", tmp_path / "simplex.json"
    dual.write_text(json.dumps({"type": "dual", "of": hamming}))
    simplex.write_text(json.dumps({**hamming, "role": "generator"}))
    for command in ("weights", "wei"):
        status, out = run(RunConfig(command, str(dual)))
        assert status == 0 and out == run(RunConfig(command, str(simplex)))[1]
        if command == "weights":
            assert json.loads(out)["d"] == [16, 24, 28, 30, 31]


def test_uniform_circuits_trip_the_cap_before_enumerating(tmp_path):
    # U(10,40) has C(40,11) = 2,311,801,440 circuits; U(12,24) has
    # C(24,13) = 2,496,144, under the default cap, but level 2 of its ladder
    # alone would take their square in unions
    for r, n, cap in ((10, 40, 1000), (12, 24, DEFAULT_SUBSET_CAP)):
        path = tmp_path / f"u{n}.json"
        path.write_text(json.dumps({"type": "uniform", "r": r, "n": n}))
        for command in ("weights", "betti"):
            start = time.perf_counter()
            status, out = run(RunConfig(command, str(path), cap_subsets=cap))
            assert status == 3 and out.startswith("cap exceeded:")
            assert time.perf_counter() - start < 1.0


def test_uniform_5_14_betti_reads_the_cycle_table(tmp_path):
    # level 2 alone would take C(14,6)^2 = 9,018,009 unions, past the default
    # cap, but the 2^14 cycle table is under it; level l is the (5+l)-sets
    path = tmp_path / "u14.json"
    path.write_text(json.dumps({"type": "uniform", "r": 5, "n": 14}))
    status, out = run(RunConfig("betti", str(path)))
    assert status == 0
    sizes = Counter(i for i, _ in json.loads(out)["support"])
    assert [sizes[l] for l in range(1, 10)] == [comb(14, 5 + l) for l in range(1, 10)]


def test_betti_values_m23():
    start = time.perf_counter()
    status, doc = run_cmd("betti", M23, values=True)
    elapsed = time.perf_counter() - start
    assert status == 0
    assert len(doc["values"]) == 340
    assert doc["table"]["5|23"] == 90
    assert doc["values"]["5|" + ",".join(str(x) for x in range(1, 24))] == 90
    assert elapsed < 2.0
    table = {
        tuple(map(int, key.split("|"))): val for key, val in doc["table"].items()
    }
    assert hilbert_numerator_order(table) == 5


def test_betti_values_refuse_non_matroid_circuits(tmp_path):
    # {1,2},{1,3},{1,4},{2,3,4} violate circuit elimination, and are refused
    # before the Moebius values are computed
    path = tmp_path / "planted.json"
    path.write_text('{"type":"circuits","n":4,"circuits":[[1,2],[1,3],[1,4],[2,3,4]]}')
    status, out = run(RunConfig(command="betti", input_path=str(path), values=True))
    assert (status, out) == (
        1, "input error: circuits [1, 2] and [1, 3] share 1, but [2, 3] holds no circuit\n"
    )


def test_table_format():
    status, out = run(RunConfig(command="weights", input_path=U24, fmt="table"))
    assert status == 0
    assert "d: 3 4" in out
    status, out = run(
        RunConfig(command="betti", input_path=TERNARY84, fmt="table", values=True)
    )
    assert status == 0
    assert "i\\j" in out


@pytest.mark.parametrize(
    "text",
    [
        '{"type": "circuits", "n": "abc", "circuits": [[1, 2]]}',
        '{"type": "circuits", "n": 4.7, "circuits": [[1, 2]]}',
        '{"type": "linear", "p": 2, "matrix": [[1, 0, 1], [1, 1]]}',
        '{"type": "circuits", "n": 3, "circuits": "12"}',
        "generator\n3 1 3\n1 x 2\n",
        DEEP_DUAL,
        "generator\n2 1 1\n99999999999999999999999\n",
        "generator\n2 0 -1\n",
    ],
    ids=["n-string", "n-float", "ragged-matrix", "circuits-string", "code-residue",
         "deep-dual", "code-entry-overflow", "code-negative-cols"],
)
def test_malformed_input_is_an_input_error(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["weights", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:")
    assert "Traceback" not in captured.err + captured.out


def test_betti_table_computes_values_once(monkeypatch):
    calls = []
    real = betti_mod.betti_values

    def counting(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(betti_mod, "betti_values", counting)
    status, out = run(RunConfig(command="betti", input_path=TERNARY84, fmt="table", values=True))
    assert status == 0 and "i\\j" in out
    assert len(calls) == 1


def test_validate_rejects_non_matroid_circuits(tmp_path):
    # each list violates circuit elimination ({1,2} and {1,3}, say), so the
    # greedy rank oracle is not a matroid rank; validate reports it and exits
    # 2, before its circuits are checked
    path = tmp_path / "planted.json"
    path.write_text('{"type":"circuits","n":3,"circuits":[[1,2],[1,3]]}')
    status, doc = run_cmd("validate", str(path))
    assert status == 2
    assert doc["axioms"]["ok"] is False
    assert any("R2" in v for v in doc["axioms"]["violations"])
    for n, circs in ((4, [[3, 4], [2], [1, 3]]), (3, [[1, 2], [2, 3]])):
        path.write_text(json.dumps({"type": "circuits", "n": n, "circuits": circs}))
        status, doc = run_cmd("validate", str(path))
        assert status == 2
        assert doc["axioms"]["ok"] is False and doc["axioms"]["violations"]


def test_validate_refuses_what_sampled_axioms_miss(tmp_path):
    # two 15-element circuits meeting in 15, with no circuit in their union
    # less 15: every set that shows it is too large for the 4,096 samples at
    # n = 30, so the axioms pass and the elimination check refuses the list
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(
        {"type": "circuits", "n": 30, "circuits": [list(range(1, 16)), list(range(15, 30))]}
    ))
    assert validate_axioms(from_descriptor(json.loads(path.read_text()))).ok
    status, out = run(RunConfig("validate", str(path)))
    assert status == 1 and out.startswith("input error: circuits [1, 2, 3, 4, 5, 6, 7, 8, 9, 10")
    assert out.rstrip().endswith("holds no circuit") and " share 15, " in out


PLANTED = '{"type":"circuits","n":4,"circuits":[[3,4],[2],[1,3]]}'


def test_exit_contract_on_random_circuit_lists(tmp_path):
    # about half of these violate circuit elimination, the planted list too
    path = tmp_path / "circuits.json"
    refused = 0
    for desc in [json.loads(PLANTED), *random_circuit_lists(6, 60)]:
        path.write_text(json.dumps({"type": "circuits", **desc}))
        for command in COMMANDS:
            status, out = run(RunConfig(command, str(path), chain="1|1,2"))
            assert status in (0, 1, 2, 3), (desc, command)
            if command == "validate":
                refused += status == 2 and not json.loads(out)["axioms"]["ok"]
        status, _ = run(RunConfig("betti", str(path), values=True, dump_ladder=True))
        assert status in (0, 1, 2, 3), desc
    assert refused >= 10
    path.write_text(PLANTED)
    for command in ("wei", "report", "weights"):
        status, out = run(RunConfig(command, str(path)))
        assert status == 1 and out.startswith("input error: circuits [1, 3] and [3, 4]")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["type", "n", "r", "p", "of", "role", "circuits",
                                       "matrix"]) | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _typed(n: int):
    """Descriptors on n elements; labels and ranks stray one past each end."""
    label = st.integers(1, max(n, 1)) | st.integers(0, n + 1)
    rows = st.lists(st.lists(st.integers(-1, 5), min_size=n, max_size=n), max_size=4)
    return (
        st.builds(lambda r: {"type": "uniform", "r": r, "n": n}, st.integers(-1, n + 1))
        | st.builds(lambda c: {"type": "circuits", "n": n, "circuits": c},
                    st.lists(st.lists(label, min_size=1, max_size=5), max_size=5))
        | st.builds(lambda p, role, m: {"type": "linear", "p": p, "role": role, "matrix": m},
                    st.sampled_from([2, 3, 4, 5]), st.sampled_from(["parity_check", "generator"]),
                    rows)
    )


typed_descriptors = st.recursive(
    st.integers(0, 10).flatmap(_typed),
    lambda inner: st.builds(lambda of: {"type": "dual", "of": of}, inner),
    max_leaves=3,
)
# a descriptor is text starting with "{"; any other text is read as a code file
input_texts = (
    json_values.map(json.dumps)
    | typed_descriptors.map(json.dumps)
    | st.text(max_size=60)
    | st.builds(lambda role, body: f"{role}\n{body}",
                st.sampled_from(["generator", "parity_check"]),
                st.from_regex(r"[0-9 \-]{0,12}(\n[0-9 \-]{0,16}){0,4}", fullmatch=True))
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=input_texts, command=st.sampled_from(sorted(COMMANDS)), values=st.booleans())
@example(text=DEEP_DUAL, command="weights", values=False)
@example(text="generator\n2 1 1\n99999999999999999999999\n", command="weights", values=False)
@example(text='{"type": "uniform", "r": 10, "n": 40}', command="betti", values=False)
@example(text='{"type": "uniform", "r": 63, "n": 64}', command="weights", values=False)
def test_exit_contract_on_any_input(tmp_path_factory, text, command, values):
    # every input ends in exit 0, 1, 2 or 3 with no exception escaping main
    path = tmp_path_factory.getbasetemp() / "exit_contract_input"
    path.write_text(text)
    argv = [command, str(path), "--chain", "1|1,2", "--cap-subsets", "100000"]
    assert main(argv + ["--values"] * values) in (0, 1, 2, 3)


def _not_help(token: str) -> bool:
    # -h and every prefix of --help print the help text and exit 0
    return not token.startswith(("-h", "--h"))


flag_values = (
    st.integers(-2, DEFAULT_SUBSET_CAP).map(str)
    | st.sampled_from(["json", "table", "xml", "abc", "", "1.5", "0", "-1", "1|1,2"])
    | st.text(max_size=6)
    | st.text(alphabet="a1-|\n\t ", max_size=4)
).filter(_not_help)
flag_names = st.sampled_from(
    ["--format", "--cap-subsets", "--cap-subspaces", "--seed", "--chain", "--values",
     "--dump-ladder", "--bogus", "--c", "-x", "--"]
) | st.from_regex(r"--?[a-z][a-z\-]{0,8}", fullmatch=True).filter(_not_help)
flag_groups = st.tuples(flag_names, st.lists(flag_values, max_size=1)).map(
    lambda group: [group[0], *group[1]]
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    inputs=st.sampled_from([[M23], [TERNARY84], [U24], [CODE8], []]),
    flags=st.lists(flag_groups, max_size=4),
)
@example(command="weights", inputs=[M23], flags=[["--format", "xml"]])
@example(command="weights", inputs=[M23], flags=[["--cap-subsets", "abc"]])
@example(command="weights", inputs=[M23], flags=[["--bogus"]])
@example(command="weights", inputs=[], flags=[])
@example(command="validate", inputs=[M23], flags=[["--seed", "-1"]])
@example(command="validate", inputs=[M23], flags=[["--cap-subsets", "0"], ["--seed", "1"]])
@example(command="weights", inputs=[M23], flags=[["a\nb"]])
@example(command="weights", inputs=[], flags=[["--", "a\nb"]])
def test_exit_contract_on_any_flags(command, inputs, flags):
    # every flag set ends in exit 0, 1, 2 or 3 with no exception, SystemExit
    # included, escaping main; a usage error is an input error, not a usage
    # dump, on one stderr line whatever the tokens hold
    argv = [command, *inputs, *(token for group in flags for token in group)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            pytest.fail(f"main raised SystemExit({exc.code}) on {argv}")
    assert status in (0, 1, 2, 3)
    if status == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("input error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    assert "usage:" not in err.getvalue()


def test_ladder_invariant_fires_under_optimize():
    # the ladder's top level, from the cycle table and from the unions, and
    # the Moebius signs guard program faults, not inputs: they are reached past
    # the elimination check, and raise InvariantError, not an assert, so
    # python -O keeps them
    import subprocess
    import sys

    script = (
        "from matgreedy.betti import betti_values\n"
        "from matgreedy.errors import InvariantError\n"
        "from matgreedy.ladder import ladder\n"
        "from tests.ladder_oracle import unchecked_circuits\n"
        "from tests.test_betti import MOBIUS_PLANTED\n"
        "from tests.test_ladder import PLANTED\n"
        "import matgreedy.kernels as kernels\n"
        "default = kernels.CHUNK_ENTRIES\n"
        "for build, planted, chunk in ((ladder, PLANTED, default), (ladder, PLANTED, 8),\n"
        "                              (betti_values, MOBIUS_PLANTED, default)):\n"
        "    kernels.CHUNK_ENTRIES = chunk  # 8-entry chunks send the ladder to the unions\n"
        "    try:\n"
        "        build(unchecked_circuits(*planted))\n"
        "    except InvariantError as exc:\n"
        "        print('refused:', exc)\n"
    )
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, cwd=FIXTURES.parent)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "refused: ladder level 2 is not the single set E minus the coloops",
        "refused: ladder level 2 is not the single set E minus the coloops",
        "refused: support pair (3, (1, 2, 3, 4)) has mu = 0, want a nonzero value of sign (-1)^3",
    ]


def test_wei_refuses_non_matroid_circuit_lists(tmp_path):
    # the 81 lists that fail validate here are refused at load; every
    # matroid still passes
    path = tmp_path / "circuits.json"
    accepted = {True: 0, False: 0}
    total = {True: 0, False: 0}
    for desc in random_circuit_lists(11, 200):
        path.write_text(json.dumps({"type": "circuits", **desc}))
        is_matroid = run(RunConfig("validate", str(path)))[0] == 0
        status, out = run(RunConfig("wei", str(path)))
        assert status in (0, 1), (desc, out)
        total[is_matroid] += 1
        accepted[is_matroid] += status == 0
    assert total == {True: 119, False: 81}
    assert accepted == {True: 119, False: 0}


def _argv_result(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def test_non_matroid_circuit_lists_are_refused_at_load(tmp_path):
    # every command on the 106 seeded lists that break circuit elimination,
    # and on their duals, exits 1 with the refusal circuits() gives, naming
    # a pair and an element; validate keeps its failed axioms report (exit
    # 2).  The 154 matroids are pinned by tests/test_golden.py.
    path = tmp_path / "circuits.json"
    refused = [d for d in sweep_circuit_lists() if elimination_failure(d["circuits"])]
    assert len(refused) == 106
    for desc in refused:
        plain = {"type": "circuits", **desc}
        with pytest.raises(InputError, match="^circuits .* share .* holds no circuit$") as exc:
            circuits(from_descriptor({"type": "dual", "of": plain}))
        for wrapped in (plain, {"type": "dual", "of": plain}):
            path.write_text(json.dumps(wrapped))
            for config in SWEEP:
                command, *flags = config.split()
                status, out, err = _argv_result([command, str(path), *flags])
                if command == "validate":
                    assert status == 2 and not json.loads(out)["axioms"]["ok"], desc
                else:
                    assert (status, out, err) == (1, "", f"input error: {exc.value}\n"), desc


def test_hamming_15_11_validates_under_the_default_cap(tmp_path):
    # validate decides circuit elimination, which a matrix passes unread, not
    # the ladder, whose 11 levels cost more than the cap in candidate unions
    columns = [[b >> i & 1 for i in range(4)] for b in range(1, 16)]
    path = tmp_path / "hamming.json"
    matrix = [list(row) for row in zip(*columns)]
    path.write_text(json.dumps({"type": "linear", "p": 2, "matrix": matrix}))
    status, doc = run_cmd("validate", str(path))
    assert status == 0 and doc == {"axioms": doc["axioms"]} and doc["axioms"]["ok"]
    status, out = run(RunConfig("validate", str(path), dump_ladder=True))
    assert status == 3 and out.startswith("cap exceeded: ladder generation")
    # its 308 circuits as a list: elimination tests each distinct union once,
    # which fits the default cap, and the sampled axioms read the same ranks
    listed = tmp_path / "hamming_circuits.json"
    labels = [to_labels(c) for c in circuits(from_descriptor(path.read_text()))]
    listed.write_text(json.dumps({"type": "circuits", "n": 15, "circuits": labels}))
    assert run_cmd("validate", str(listed)) == (0, doc)


def _refuse(*args):
    raise AssertionError("this rank route must not run")


def test_circuit_lists_rank_from_one_table_up_to_chunk_entries(tmp_path, monkeypatch):
    # 2^12 <= CHUNK_ENTRIES: every rank is read from the greedy table, and
    # the output equals that of the per-query route forced by a smaller cap
    circs = circuits(random_code(np.random.default_rng(19), 3, 12, 6))
    path = tmp_path / "n12.json"
    path.write_text(json.dumps({"type": "circuits", "n": 12,
                                "circuits": [to_labels(c) for c in circs]}))
    configs = [RunConfig("weights", str(path)), RunConfig("wei", str(path)),
               RunConfig("betti", str(path), values=True)]
    monkeypatch.setattr(kernels, "circuit_ranks", _refuse)
    by_table = [run(config) for config in configs]
    assert all(status == 0 for status, _ in by_table)
    monkeypatch.undo()
    monkeypatch.setattr(kernels, "CHUNK_ENTRIES", 1 << 11)
    monkeypatch.setattr(kernels, "circuit_rank_table", _refuse)
    assert [run(config) for config in configs] == by_table


def test_m23_never_builds_a_rank_table(monkeypatch):
    calls = []
    per_query = kernels.circuit_ranks
    monkeypatch.setattr(kernels, "circuit_rank_table", _refuse)
    monkeypatch.setattr(kernels, "circuit_ranks", lambda *a: calls.append(1) or per_query(*a))
    status, _ = run(RunConfig("weights", M23))
    assert status == 0 and calls


def test_chain_parse_errors():
    status, out = run(RunConfig(command="strands", input_path=TERNARY84, chain="1,2|x,y"))
    assert status == 1 and "input error" in out
    status, out = run(RunConfig(command="strands", input_path=TERNARY84, chain="1,2|1,9"))
    assert status == 1
    status, out = run(RunConfig(command="strands", input_path=TERNARY84, chain="| |"))
    assert status == 1


def test_strands_wrong_length():
    status, out = run(RunConfig(command="strands", input_path=TERNARY84, chain="1,2"))
    assert status == 1 and "input error" in out


def test_main_entry(capsys):
    code = main(["weights", U24])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["chained"] is True
    code = main(["weights", "/no/such/file"])
    captured = capsys.readouterr()
    assert code == 1
    assert "input error" in captured.err
    # usage errors are input errors too; only --help leaves through SystemExit
    for argv in (["weights", M23, "--format", "xml"], ["weights", M23, "--cap-subsets", "abc"],
                 ["weights", M23, "--bogus"], ["weights"], ["validate", M23, "--seed", "-1"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--help"])
    assert exc.value.code == 0 and "usage: matgreedy weights" in capsys.readouterr().out
