"""Command line interface tests, driven through main()."""
import json
import subprocess
import sys

import pytest

from cographpart import Graph, cli
from cographpart.cli import main

C4_DSL = "C(U(2*K(2)))"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_recognize_cograph(capsys):
    g6 = Graph.complete(4).to_graph6()
    code, data = run_json(capsys, "recognize", "--graph6", g6)
    assert code == 0
    assert data == {"cograph": True, "n": 4, "dsl": "K(4)"}


def test_recognize_non_cograph(capsys):
    p4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    code, data = run_json(capsys, "recognize", "--graph6", p4.to_graph6())
    assert code == 1
    assert data["cograph"] is False
    assert len(data["p4"]) == 4


def test_non_cograph_elsewhere_is_input_error(capsys):
    p4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    code, data = run_json(capsys, "arboricity", "--graph6", p4.to_graph6())
    assert code == 2
    assert "error" in data
    assert len(data["p4"]) == 4


def test_realize(capsys):
    code, data = run_json(capsys, "realize", "--dsl", C4_DSL)
    assert code == 0
    assert data["n"] == 4
    assert sorted(map(tuple, data["edges"])) == \
        sorted(Graph.from_graph6(data["graph6"]).edges())


def test_realize_bad_expression(capsys):
    code, data = run_json(capsys, "realize", "--dsl", "K(")
    assert code == 2
    assert "error" in data


def test_solve_feasible_and_not(capsys):
    code, data = run_json(capsys, "solve", "--dsl", C4_DSL,
                          "--triple", "0,2,0")
    assert code == 0
    assert data == {"feasible": True, "triple": [0, 2, 0]}
    code, data = run_json(capsys, "solve", "--dsl", "C(U(3*K(3)))",
                          "--triple", "2,0,0")
    assert code == 1
    assert data == {"feasible": False, "triple": [2, 0, 0]}


def test_solve_accepts_parenthesized_triple(capsys):
    code, data = run_json(capsys, "solve", "--dsl", "K(3)",
                          "--triple", "(1, 1, 0)")
    assert code == 0 and data["feasible"] is True
    code, data = run_json(capsys, "solve", "--dsl", "K(3)",
                          "--triple", "nope")
    assert code == 2


def test_frontier(capsys):
    code, data = run_json(capsys, "frontier", "--dsl", C4_DSL,
                          "--box", "4,4,4")
    assert code == 0
    assert data["box"] == [4, 4, 4]
    assert sorted(data["frontier"]) == sorted(
        [[2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 2], [0, 0, 4]])


def test_parameter_commands(capsys):
    g6 = Graph.complete(5).to_graph6()
    assert run_json(capsys, "arboricity", "--graph6", g6) == (0, {"rho": 3})
    assert run_json(capsys, "chromatic", "--graph6", g6) == (0, {"chi": 5})
    assert run_json(capsys, "ifvs-q", "--graph6", g6) == (0, {"q": 3})
    code, data = run_json(capsys, "strength", "--graph6", g6)
    assert code == 0
    assert data == {"omega": 5, "tau": 0, "strength": 5}


def test_mindel(capsys):
    code, data = run_json(capsys, "mindel", "--dsl", C4_DSL,
                          "--p", "0", "--q", "1")
    assert code == 0
    assert data == {"p": 0, "q": 1, "r": 2}


def test_empty_graph(capsys):
    empty = ("--graph6", "?")
    assert run_json(capsys, "solve", *empty, "--triple", "1,2,3") == \
        (0, {"feasible": True, "triple": [1, 2, 3]})
    assert run_json(capsys, "frontier", *empty, "--box", "2,2,2") == \
        (0, {"box": [2, 2, 2], "frontier": [[0, 0, 0]]})
    assert run_json(capsys, "arboricity", *empty) == (0, {"rho": 0})
    assert run_json(capsys, "chromatic", *empty) == (0, {"chi": 0})
    assert run_json(capsys, "ifvs-q", *empty) == (0, {"q": 0})
    assert run_json(capsys, "mindel", *empty, "--p", "1", "--q", "0") == \
        (0, {"p": 1, "q": 0, "r": 0})
    assert run_json(capsys, "strength", *empty) == \
        (0, {"omega": 0, "tau": 0, "strength": 0})
    assert run_json(capsys, "certificate", *empty, "--triple", "0,1,0") == \
        (0, {"triple": [0, 1, 0], "labels": []})
    assert run_json(capsys, "recognize", *empty) == \
        (0, {"cograph": True, "n": 0, "dsl": ""})
    code, data = run_json(capsys, "obstructions", "check", *empty,
                          "--goal", "(1,0,0)")
    assert code == 2 and "error" in data


@pytest.mark.parametrize("graph", [("--graph6", "?"), ("--dsl", "K(3)")])
def test_mindel_rejects_negative_budgets(capsys, graph):
    code, data = run_json(capsys, "mindel", *graph, "--p", "-1", "--q", "0")
    assert code == 2
    assert data == {"error": "class budgets must be nonnegative"}


def test_edges_file_input(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3\n0 1\n1 2\n")
    code, data = run_json(capsys, "arboricity", "--edges", str(path))
    assert (code, data) == (0, {"rho": 1})
    code, data = run_json(capsys, "arboricity", "--edges",
                          str(tmp_path / "missing.txt"))
    assert code == 2 and "error" in data


def test_certificate_round_trip(capsys, tmp_path):
    code, data = run_json(capsys, "certificate", "--dsl", C4_DSL,
                          "--triple", "0,2,0")
    assert code == 0
    assert data["triple"] == [0, 2, 0]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    g6 = json.loads(run(capsys, "realize", "--dsl", C4_DSL)[1])["graph6"]
    code, data = run_json(capsys, "check", "--graph6", g6,
                          "--triple", "0,2,0", "--certificate", str(path))
    assert (code, data) == (0, {"valid": True})
    code, data = run_json(capsys, "check", "--graph6", g6,
                          "--triple", "0,1,0", "--certificate", str(path))
    assert (code, data) == (1, {"valid": False})


def test_certificate_infeasible(capsys):
    code, data = run_json(capsys, "certificate", "--dsl", "K(5)",
                          "--triple", "1,0,0")
    assert code == 1
    assert data == {"feasible": False, "triple": [1, 0, 0]}


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_resource_errors_are_input_errors(capsys, monkeypatch, error):
    def explode(*args):
        raise error()

    monkeypatch.setattr(cli, "extract_certificate", explode)
    code, data = run_json(capsys, "certificate", "--dsl", C4_DSL, "--triple", "0,2,0")
    assert code == 2
    assert error.__name__ in data["error"]


def test_check_rejects_malformed_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"labels": [{"v": 0, "class": "Z9"}]}))
    g6 = Graph(1).to_graph6()
    code, data = run_json(capsys, "check", "--graph6", g6,
                          "--triple", "1,0,0", "--certificate", str(path))
    assert code == 2 and "error" in data


def test_enumerate(capsys):
    code, data = run_json(capsys, "enumerate", "--n", "5", "--count-only")
    assert (code, data) == (0, {"n": 5, "count": 24})
    code, out = run(capsys, "enumerate", "--n", "3")
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert len(lines) == 4
    assert {"dsl": "K(3)"} in lines
    code, out = run(capsys, "enumerate", "--n", "2", "--format", "graph6")
    assert {json.loads(ln)["graph6"] for ln in out.splitlines()} == \
        {Graph(2).to_graph6(), Graph.complete(2).to_graph6()}


def test_oracle(capsys):
    p4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    code, data = run_json(capsys, "oracle", "--graph6", p4.to_graph6(),
                          "--triple", "1,0,0")
    assert code == 0 and data["feasible"] is True
    code, data = run_json(capsys, "oracle", "--graph6",
                          Graph.complete(5).to_graph6(), "--triple", "2,0,0")
    assert code == 1 and data["feasible"] is False
    code, data = run_json(capsys, "oracle", "--graph6",
                          Graph(13).to_graph6(), "--triple", "0,1,0")
    assert code == 2 and "error" in data


def test_obstructions_families(capsys):
    code, out = run(capsys, "obstructions", "families")
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert len(lines) == 7
    assert lines[0]["dsl"] == "K(5)"
    code, out = run(capsys, "obstructions", "families", "--p", "3",
                    "--format", "graph6")
    graphs = [Graph.from_graph6(json.loads(ln)["graph6"])
              for ln in out.splitlines()]
    assert len(graphs) == 8
    assert graphs[0] == Graph.complete(7)


def test_obstructions_families_oi(capsys):
    code, out = run(capsys, "obstructions", "families", "--p", "3", "--oi", "1")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 4


def test_obstructions_check(capsys):
    code, data = run_json(capsys, "obstructions", "check", "--dsl", "K(5)",
                          "--goal", "(2,0,0)")
    assert code == 0
    assert data["minimal"] is True and data["obstruction"] is True
    assert len(data["witnesses"]) == 5
    code, data = run_json(capsys, "obstructions", "check", "--dsl", "K(6)",
                          "--goal", "(2,0,0)")
    assert code == 1
    assert data["minimal"] is False and data["obstruction"] is True


def test_obstructions_search(capsys):
    code, out = run(capsys, "obstructions", "search", "--n", "4",
                    "--goal", "(1,0,0)")
    assert code == 0
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert len(lines) == 2
    assert all(ln["minimal"] for ln in lines)
    assert {ln["graph6"] for ln in lines} == {
        Graph.complete(3).to_graph6(),
        Graph.from_edge_list(4, [(0, 2), (0, 3), (1, 2), (1, 3)]).to_graph6()}


def test_obstructions_count(capsys):
    code, data = run_json(capsys, "obstructions", "count", "--p", "3", "--i", "2")
    assert code == 0
    assert data["distinct"] == 3 and data["multiset_count"] == 3
    assert data["formula"] == "2" and data["formula_matches"] is False
    code, data = run_json(capsys, "obstructions", "count", "--p", "1", "--i", "0")
    assert code == 2


def test_human_output(capsys):
    code, out = run(capsys, "frontier", "--dsl", C4_DSL, "--box", "2,2,2",
                    "--human")
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "2" in out


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cographpart.cli", "arboricity",
         "--graph6", Graph.complete(5).to_graph6()],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"rho": 3}
