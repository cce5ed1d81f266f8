"""CLI subcommands and pipeline composition."""

import io
import json
import sys

import pytest

from strongodd import cli, graphio, treewidth
from strongodd.bounds import Bound
from strongodd.cli import run
from strongodd.ktree import KTreeSeq
from strongodd.sums import SumDesc, Summand


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
        assert sorted(payload["nodes_by_t"], key=int) == ["1", "2", "3", "4", "5"]
        assert sum(payload["nodes_by_t"].values()) == payload["nodes"]

    def test_budget_reports_upper_bound(self):
        k6 = json.dumps({"graph": {"n": 6, "edges": [[u, v] for u in range(6)
                                                     for v in range(u + 1, 6)]}})
        code, out = invoke(["solve", "--node-limit", "3"], k6)
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "budget" and payload["upper_bound"] == 6

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


STAR = graphio.ktree_to_json(KTreeSeq.make(1, [(1, [0]), (2, [0])]))
PATH = Summand(KTreeSeq.make(0, [(0, [])]), 3)
COLOR_INPUTS = {
    "tw": {"ktree": STAR},
    "rtw": {"ktree": STAR, "path_len": 2},
    "summand": {"ktree": STAR, "path_len": 2, "t": 1},
    "sum": {"sum": graphio.sumdesc_to_json(SumDesc(1, 0, 0, (PATH, PATH), (((2,), (0,)),)))},
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
