"""CLI subcommands and pipeline composition."""

import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

import pytest

from strongodd import cli, graphio, treewidth
from strongodd.bounds import Bound
from strongodd.cli import run
from strongodd.ktree import KTreeSeq


def invoke(argv, stdin_text=""):
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    try:
        code = run(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return code, out


class TestGenSolve:
    def test_gk_pipeline_value_five(self):
        code, out = invoke(["gen", "--gadget", "gk", "--params", "k=2"])
        assert code == 0
        code, out = invoke(["solve", "--notion", "so"], out)
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 5
        assert payload["nodes"] > 0
        # Bounds: n = 7 to start, then one less than each witness's colors.
        bounds = sorted(map(int, payload["nodes_by_t"]), reverse=True)
        assert bounds[0] == 7 and bounds[-1] == 4
        assert sum(payload["nodes_by_t"].values()) == payload["nodes"]

    def test_budget_reports_upper_bound(self):
        k6 = json.dumps({"graph": {"n": 6, "edges": [[u, v] for u in range(6)
                                                     for v in range(u + 1, 6)]}})
        code, out = invoke(["solve", "--node-limit", "3"], k6)
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "budget" and payload["upper_bound"] == 6
        code, out = invoke(["verify", "--notion", "so"],
                           json.dumps({**json.loads(k6), **payload["witness"]}))
        assert code == 0 and json.loads(out)["ok"]
        assert len(set(payload["witness"]["colors"].values())) == 6

    def test_refuted_cap_is_infeasible(self):
        """G_2 has value 5: a cap of 4 is refuted, not a budget-out, and no
        coloring above the cap is printed."""
        code, out = invoke(["gen", "--gadget", "gk", "--params", "k=2"])
        code, out = invoke(["solve", "--max-colors", "4"], out)
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "infeasible" and payload["lower_bound"] == 5
        assert "witness" not in payload and "upper_bound" not in payload
        assert sum(payload["nodes_by_t"].values()) == payload["nodes"] > 0

    def test_solve_iso(self):
        graph = json.dumps({"graph": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}})
        code, out = invoke(["solve", "--notion", "iso"], graph)
        assert code == 0 and json.loads(out)["value"] == 3

    def test_solve_edge_list_input(self):
        code, out = invoke(["solve", "--notion", "chi"], "3 2\n0 1\n1 2\n")
        assert code == 0 and json.loads(out)["value"] == 2

    def test_solve_long_path(self):
        n = 1500
        text = f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1))
        code, out = invoke(["solve", "--notion", "chi"], text)
        assert code == 0 and json.loads(out)["value"] == 2

    def test_malformed_input(self):
        code, _ = invoke(["solve"], "{broken")
        assert code == 2
        code, _ = invoke(["solve"], "")
        assert code == 2


class TestVerify:
    def test_pass_and_fail(self):
        payload = {
            "graph": {"n": 2, "edges": [[0, 1]]},
            "colors": {"0": 0, "1": 1},
        }
        code, out = invoke(["verify", "--notion", "so"], json.dumps(payload))
        assert code == 0 and json.loads(out)["ok"]
        payload["colors"]["1"] = 0
        code, out = invoke(["verify", "--notion", "so"], json.dumps(payload))
        assert code == 1
        assert json.loads(out)["violations"]

    def test_tampered_witness_detected(self):
        code, out = invoke(["gen", "--gadget", "gk", "--params", "k=1"])
        code, out = invoke(["solve"], out)
        payload = json.loads(out)
        colors = payload["witness"]["colors"]
        colors["0"] = colors["1"]
        verify_in = {"graph": {"n": 3, "edges": [[0, 1], [0, 2]]},
                     "colors": colors}
        code, out = invoke(["verify"], json.dumps(verify_in))
        assert code == 1


class TestColor:
    def test_outerplanar_pipeline(self):
        code, out = invoke([
            "gen", "--gadget", "outerplanar",
            "--params", "n=50,keep=70", "--seed", "7",
        ])
        assert code == 0
        code, out = invoke(["color", "--algo", "outerplanar"], out)
        assert code == 0
        payload = json.loads(out)
        assert len(set(payload["colors"].values())) <= 8
        code, out = invoke(["verify", "--notion", "so"], out)
        assert code == 0

    def test_tw_pipeline(self):
        code, out = invoke(["gen", "--gadget", "ktree",
                            "--params", "k=2,steps=15,keep=60", "--seed", "3"])
        payload = json.loads(out)
        payload["sets"] = [[0, 1, 2, 3]]
        code, out = invoke(["color", "--algo", "tw"], json.dumps(payload))
        assert code == 0
        code, _ = invoke(["verify", "--notion", "so"], out)
        # The treewidth coloring is proper on the host but only strong odd on
        # its tracked structures, so plain verification may fail; properness
        # must hold.
        code, out = invoke(["verify", "--notion", "proper"], out)
        assert code == 0


class TestExitCodes:
    def test_internal_error_exits_three(self, monkeypatch, capsys):
        code, out = invoke(["gen", "--gadget", "ktree",
                            "--params", "k=2,steps=10", "--seed", "1"])
        assert code == 0
        monkeypatch.setattr(treewidth, "tw_bound", lambda *args: Bound(1))
        code, _ = invoke(["color", "--algo", "tw"], out)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and err.count("\n") == 1

    def test_digraph_on_other_vertices_is_named(self, capsys):
        """A digraph constraint whose vertex count differs from the host's
        is rejected for that, with both counts, even when its arcs are host
        edges."""
        payload = {"ktree": STAR, "digraphs": [{"n": 5, "arcs": [[0, 1], [0, 2]]}]}
        code, out = invoke(["color", "--algo", "tw"], json.dumps(payload))
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err == "error: digraph constraint has 5 vertices but the host has 3\n"

    def test_missing_field_is_malformed_input(self):
        code, out = invoke(["gen", "--gadget", "ktree",
                            "--params", "k=2,steps=10", "--seed", "1"])
        code, _ = invoke(["color", "--algo", "rtw"], out)  # no path_len
        assert code == 2
        no_faces = {"graph": {"n": 1, "edges": []}, "colors": {"0": 0}}
        code, _ = invoke(["verify", "--notion", "facial"], json.dumps(no_faces))
        assert code == 2

    def test_library_key_error_is_not_malformed_input(self, monkeypatch):
        code, out = invoke(["gen", "--gadget", "ktree",
                            "--params", "k=2,steps=10", "--seed", "1"])

        def broken(*args):
            raise KeyError("bug")

        monkeypatch.setattr(cli, "color_tw", broken)
        with pytest.raises(KeyError):
            invoke(["color", "--algo", "tw"], out)

    def test_library_value_error_is_not_malformed_input(self, monkeypatch):
        code, out = invoke(["gen", "--gadget", "ktree",
                            "--params", "k=2,steps=10", "--seed", "1"])

        def broken(*args):
            raise ValueError("library bug")

        monkeypatch.setattr(cli, "color_tw", broken)
        with pytest.raises(ValueError, match="library bug"):
            invoke(["color", "--algo", "tw"], out)

    def test_unreadable_input_file_is_malformed_input(self, tmp_path, capsys):
        code, _ = invoke(["solve", str(tmp_path / "no-such-file")])
        assert code == 2
        code, _ = invoke(["solve", "--file", str(tmp_path)])  # a directory
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("error: cannot read input") == 2

    @pytest.mark.parametrize("argv", [
        ["gen", "--gadget", "gk", "--params", "k=abc"],
        ["gen", "--gadget", "gk", "--params", "k=0"],
        ["gen", "--gadget", "outerplanar", "--params", "n=2"],
        ["solve", "--node-limit", "0"],
        ["solve", "--max-colors", "0"],
    ])
    def test_bad_arguments_are_malformed_input(self, argv):
        code, _ = invoke(argv, json.dumps({"graph": {"n": 1, "edges": []}}))
        assert code == 2

    @pytest.mark.parametrize("argv, name", [
        (["gen", "--gadget", "outerplanar", "--params", "n=12,kep=70"], "'kep'"),
        (["gen", "--gadget", "gk", "--params", "n=3"], "'n'"),
        (["gen", "--gadget", "outerplanar", "--params", "keep=150"], "'keep'"),
        (["gen", "--gadget", "outerplanar", "--params", "keep=-20"], "'keep'"),
        (["gen", "--gadget", "ktree", "--params", "keep=101"], "'keep'"),
        (["gen", "--gadget", "ktree", "--params", "steps=-3"], "steps"),
    ])
    def test_gadget_parameter_outside_its_declaration(self, argv, name, capsys):
        code, out = invoke(argv)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err

    @pytest.mark.parametrize("payload", [
        {"graph": {"n": "x", "edges": []}},
        {"graph": {"n": 2, "edges": [[0, 1, 1]]}},
        "2 1\n0 x\n",
    ])
    def test_malformed_fields_are_malformed_input(self, payload):
        text = payload if isinstance(payload, str) else json.dumps(payload)
        code, _ = invoke(["solve"], text)
        assert code == 2


ONE_VERTEX = {"ktree": {"k": 0, "initial": [], "steps": [{"v": 0, "parents": []}]},
              "path_len": 3}
EDGE_TREE = {"k": 1, "initial": [0], "steps": [{"v": 1, "parents": [0]}]}


class TestJsonIntegers:
    """Ids, counts and colors must be JSON integers: a float is not rounded
    down or used as a vertex, and a bool is not a count."""

    @pytest.mark.parametrize("argv, payload", [
        (["color", "--algo", "tw"], {"ktree": {"k": 2, "initial": [0.0, 1], "steps": []}}),
        (["color", "--algo", "tw"],
         {"ktree": {"k": 2, "initial": [0, 1], "steps": [{"v": 2, "parents": [0, 0.5]}]}}),
        (["color", "--algo", "sum"],
         {"sum": {"w": 1, "k": 0, "t": 0, "summands": [ONE_VERTEX, ONE_VERTEX],
                  "attachments": [{"host_clique": [0.5], "new_clique": [0]}]}}),
        (["solve"], {"graph": {"n": 3.9, "edges": []}}),
        (["solve"], {"graph": {"n": True, "edges": []}}),
        (["verify", "--notion", "proper"],
         {"graph": {"n": 2, "edges": [[0, 1]]}, "colors": {"0": 0, "1": 1.7}}),
        (["verify", "--notion", "proper"],
         {"graph": {"n": 11, "edges": []}, "colors": {**{str(v): 0 for v in range(10)}, "1_0": 0}}),
        (["color", "--algo", "tw"], {"ktree": EDGE_TREE, "sets": [[0.5]]}),
        (["color", "--algo", "tw"], {"ktree": EDGE_TREE, "sets": [5]}),
        (["color", "--algo", "rtw"], {"ktree": EDGE_TREE, "path_len": 2.0}),
        (["color", "--algo", "summand"], {"ktree": EDGE_TREE, "path_len": 2, "t": "1"}),
    ])
    def test_non_integer_is_malformed_input(self, argv, payload, capsys):
        code, out = invoke(argv, json.dumps(payload))
        assert code == 2 and out == ""
        assert "error: " in capsys.readouterr().err


class TestJsonShapes:
    """A field of the wrong JSON kind is malformed input, not a traceback."""

    @pytest.mark.parametrize("argv, payload", [
        (["verify", "--notion", "proper"], {"graph": {"n": 2, "edges": []}, "colors": [0, 1]}),
        (["verify", "--notion", "proper"], {"graph": {"n": 2, "edges": []}, "colors": "01"}),
        (["color", "--algo", "tw"], {"ktree": EDGE_TREE, "digraphs": 5}),
    ])
    def test_wrong_kind_is_malformed_input(self, argv, payload, capsys):
        code, out = invoke(argv, json.dumps(payload))
        assert code == 2 and out == ""
        assert "error: " in capsys.readouterr().err


STAR = graphio.ktree_to_json(KTreeSeq.make(1, [(1, [0]), (2, [0])]))
PATH = {"ktree": {"k": 0, "initial": [], "steps": [{"v": 0, "parents": []}]}, "path_len": 3}
COLOR_INPUTS = {
    "tw": {"ktree": STAR},
    "rtw": {"ktree": STAR, "path_len": 2},
    "summand": {"ktree": STAR, "path_len": 2, "t": 1},
    "sum": {"sum": {"w": 1, "k": 0, "t": 0, "summands": [PATH, PATH],
                    "attachments": [{"host_clique": [2], "new_clique": [0]}]}},
}
CONSTRAINTS = {
    "arcs": {"n": 3, "arcs": [[0, 1], [0, 2]]},
    "digraphs": [{"n": 3, "arcs": [[0, 1], [0, 2]]}],
    "sets": [[1, 2]],
}


class TestUnreadConstraints:
    @pytest.mark.parametrize("algo, field", [
        ("tw", "arcs"),
        ("rtw", "digraphs"),
        ("summand", "digraphs"),
        ("sum", "digraphs"),
        ("outerplanar", "arcs"),
        ("outerplanar", "digraphs"),
        ("outerplanar", "sets"),
    ])
    def test_unread_constraint_field_is_malformed_input(self, algo, field, capsys):
        if algo == "outerplanar":
            _, out = invoke(["gen", "--gadget", "outerplanar", "--params", "n=6"])
            payload = json.loads(out)
        else:
            payload = dict(COLOR_INPUTS[algo])
        assert invoke(["color", "--algo", algo], json.dumps(payload))[0] == 0
        payload[field] = CONSTRAINTS[field]
        code, out = invoke(["color", "--algo", algo], json.dumps(payload))
        assert code == 2 and out == ""
        assert repr(field) in capsys.readouterr().err


def _readme_pipelines():
    """The pipelines of the ``sh`` block under README's "## CLI", each a
    list of argv stages, with the ``repro`` lines left out."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    pipelines = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            stages = [shlex.split(stage, comments=True) for stage in line.split("|")]
            if stages[0][:2] != ["strongodd", "repro"]:
                pipelines.append(stages)
    return pipelines


class TestReadme:
    def test_cli_pipelines_run(self):
        outputs = []
        for stages in _readme_pipelines():
            out = ""
            for argv in stages:
                assert argv[0] == "strongodd"
                code, out = invoke(argv[1:], out)
                assert code == 0, argv
            outputs.append(out)
        assert json.loads(outputs[0])["value"] == 5


class TestLayering:
    def test_ktree_layering(self):
        code, out = invoke(["gen", "--gadget", "ktree",
                            "--params", "k=2,steps=10", "--seed", "1"])
        code, out = invoke(["layering"], out)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "bfs"
        assert all(payload["properties"].values())


class TestReproducibility:
    def test_byte_identical_pipelines(self):
        args = ["gen", "--gadget", "outerplanar", "--params", "n=30", "--seed", "5"]
        _, out1 = invoke(args)
        _, out2 = invoke(args)
        assert out1 == out2
        _, col1 = invoke(["color", "--algo", "outerplanar"], out1)
        _, col2 = invoke(["color", "--algo", "outerplanar"], out2)
        assert col1 == col2


def _outcome(argv, stdin_text=""):
    """(exit code, stdout with ``"time"`` dropped, stderr) of one run."""
    old_err, sys.stderr = sys.stderr, io.StringIO()
    try:
        code, out = invoke(argv, stdin_text)
        err = sys.stderr.getvalue()
    finally:
        sys.stderr = old_err
    if out:
        payload = json.loads(out)
        payload.pop("time", None)
        out = graphio.dumps(payload)
    return code, out, err


def _k(n):
    return {"n": n, "edges": [[u, v] for u in range(n) for v in range(u + 1, n)]}


def _colored(graph, *colors):
    return json.dumps({"graph": graph, "colors": {str(v): c for v, c in enumerate(colors)}})


PATH3 = {"n": 3, "edges": [[0, 1], [1, 2]]}
OUT_STAR = {"n": 3, "arcs": [[0, 1], [0, 2]]}
HYPER = {"n": 3, "hyperedges": [[0, 1, 2], [0, 1]]}
TRIANGLE = {**_k(3), "faces": [[0, 1, 2], [2, 1, 0]]}
SQUARE = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
          "faces": [[0, 1, 2, 3], [3, 2, 1, 0]]}


def _cli_corpus():
    """(argv, stdin) pairs over every gadget, notion and algorithm, with
    budget-outs, failing checks and malformed input."""
    cases = []
    for seed in ("0", "1"):
        for gadget, params in (("gk", "k=2"), ("gk", "k=2,tree_edges=1"), ("iso", "n=3"),
                               ("ktree", "k=2,steps=8,keep=60"),
                               ("outerplanar", "n=12,keep=70")):
            cases.append((["gen", "--gadget", gadget, "--params", params, "--seed", seed], ""))
        for gadget in ("gk", "iso", "ktree", "outerplanar"):
            cases.append((["gen", "--gadget", gadget, "--seed", seed], ""))
    cases += [(["gen", "--gadget", "gk", "--params", p], "")
              for p in ("k=0", "k=abc", "k=2,,tree_edges=0")]
    cases += [(["gen", "--gadget", "outerplanar", "--params", "n=2"], ""),
              (["gen", "--gadget", "ktree", "--params", "k=-1"], "")]

    gk2 = invoke(["gen", "--gadget", "gk", "--params", "k=2"])[1]
    for notion in ("so", "iso", "odd", "chi"):
        cases.append((["solve", "--notion", notion], gk2))
        cases.append((["solve", "--notion", notion], "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"))
    cases += [(["solve", "--node-limit", "3"], json.dumps({"graph": _k(6)})),
              (["solve", "--max-colors", "4"], gk2),
              (["solve", "--max-colors", "0"], gk2),
              (["solve", "--node-limit", "0"], gk2),
              (["solve"], "{broken"), (["solve"], ""), (["solve"], "2 1\n0 x\n")]

    for notion, graph, good, bad in (
            ("so", PATH3, (0, 1, 2), (0, 1, 0)),
            ("proper", PATH3, (0, 1, 0), (0, 0, 1)),
            ("odd", _k(4), (0, 1, 2, 3), (0, 1, 0, 1)),
            ("iso", PATH3, (0, 0, 1), (0, 1, 0)),
            ("directed", OUT_STAR, (0, 1, 2), (0, 1, 1)),
            ("hypergraph", HYPER, (0, 1, 2), (0, 0, 1)),
            ("facial", TRIANGLE, (0, 1, 2), (0, 1, 1)),
            ("facial", SQUARE, (0, 1, 2, 3), (0, 1, 0, 1))):
        cases += [(["verify", "--notion", notion], _colored(graph, *good)),
                  (["verify", "--notion", notion], _colored(graph, *bad))]
    cases += [(["verify", "--modulus", "3", "--residues", "1+2"], _colored(_k(4), 0, 1, 2, 3)),
              (["verify", "--modulus", "3", "--residues", "2"], _colored(PATH3, 0, 1, 2)),
              (["verify", "--notion", "hypergraph", "--residues", "0"], _colored(HYPER, 0, 0, 1)),
              (["verify", "--residues", "1+x"], _colored(PATH3, 0, 1, 2)),
              (["verify", "--residues", "5"], _colored(PATH3, 0, 1, 2)),
              (["verify", "--modulus", "0"], _colored(PATH3, 0, 1, 2)),
              (["verify", "--notion", "proper", "--residues", "x"], _colored(PATH3, 0, 1, 0)),
              (["verify"], _colored(PATH3, 0, 1)),
              (["verify", "--notion", "facial"], _colored(PATH3, 0, 1, 2)),
              (["verify"], json.dumps({"graph": PATH3})),
              (["verify"], "")]

    outer = invoke(["gen", "--gadget", "outerplanar", "--params", "n=20,keep=70", "--seed", "3"])[1]
    ktree = json.loads(invoke(["gen", "--gadget", "ktree", "--params", "k=2,steps=8"])[1])
    cases += [(["color", "--algo", "outerplanar"], outer),
              (["color", "--algo", "outerplanar"], json.dumps({"graph": PATH3})),
              (["color", "--algo", "tw"], json.dumps(ktree)),
              (["color", "--algo", "tw"], json.dumps({**ktree, "sets": [[0, 1, 2, 3]],
                                                      "digraphs": [CONSTRAINTS["arcs"]]})),
              (["color", "--algo", "tw"], json.dumps({**ktree, "sets": [[0, 1, 2, 3]], "digraphs": [
                  {"n": 10, "arcs": [[0, 1], [0, 2]]}, {"n": 10, "arcs": [[2, 1]]}]})),
              (["color", "--algo", "rtw"], json.dumps({**COLOR_INPUTS["rtw"], "sets": [[1, 2]],
                                                       "arcs": {"n": 6, "arcs": [[0, 1], [0, 2]]}})),
              (["color", "--algo", "sum"], json.dumps({**COLOR_INPUTS["sum"],
                                                       "arcs": {"n": 5, "arcs": [[1, 0], [1, 2]]}}))]
    for algo, payload in COLOR_INPUTS.items():
        cases.append((["color", "--algo", algo], json.dumps(payload)))
        for field in CONSTRAINTS:
            cases.append((["color", "--algo", algo], json.dumps({**payload, field: CONSTRAINTS[field]})))
    cases += [(["color", "--algo", "rtw"], json.dumps({"ktree": STAR})),
              (["color", "--algo", "summand"], json.dumps({"ktree": STAR, "path_len": 2})),
              (["color", "--algo", "summand"], json.dumps({**COLOR_INPUTS["summand"], "t": "1"})),
              (["color", "--algo", "rtw"], json.dumps({**COLOR_INPUTS["rtw"], "path_len": 2.0})),
              (["color", "--algo", "sum"], json.dumps({"ktree": STAR})),
              (["color", "--algo", "tw"], json.dumps({"graph": PATH3})),
              (["color", "--algo", "tw"], "{"),
              (["color", "--algo", "outerplanar"], "")]

    cases += [(["layering"], json.dumps(ktree)),
              (["layering"], json.dumps(COLOR_INPUTS["sum"])),
              (["layering"], json.dumps({"graph": PATH3})),
              (["layering"], "")]
    return cases


CLI_DIGEST = "2afeb463eff6807ca27513087f5e9d03ef09b0827f0f52ac9c10bf4a24bcd4f4"


class TestPinnedOutcomes:
    def test_outcomes_match_pin(self):
        """Digest of (argv, exit code, stdout without "time", stderr) of
        every case.  Recorded before the subcommands were declared as
        tables, then once more when a refuted ``--max-colors`` cap came to
        print "infeasible" and a digraph on another vertex count its own
        message, the only five cases that changed.  Recorded a third time
        when the solver came to branch in scope-closing order: three solves
        of G_2 (``so``, ``iso`` and a refuted cap of 4) print fewer nodes,
        and the ``so`` one another witness, with the same values."""
        digest = hashlib.sha256()
        for argv, stdin_text in _cli_corpus():
            digest.update(f"{argv}:{_outcome(argv, stdin_text)}\n".encode())
        assert digest.hexdigest() == CLI_DIGEST
