"""Command line interface tests, driven through main()."""
import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import cographpart
from cographpart import (
    FAMILY_A2_DSL, Graph, OracleBudget, Triple, cli, extract_certificate,
    random_balanced_cotree, random_cotree, realize, to_expr,
)
from cographpart.cli import _parse_goal, main

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


def test_graph6_option_rejects_sparse6_in_cli_terms(capsys):
    """A sparse6 string given to --graph6 is an input error that names the
    CLI's options, with or without the graph6 header."""
    want = {"error": "--graph6 takes graph6, not sparse6: pass an edge list file as --edges"}
    for text in (":?", Graph.complete(4).to_sparse6(), " >>graph6<<:?"):
        assert run_json(capsys, "recognize", "--graph6", text) == (2, want)
        assert run_json(capsys, "arboricity", "--graph6", text) == (2, want)


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
    assert run_json(capsys, "mindel", "--dsl", "K(5)", "--p", "1000000000", "--q", "3") == \
        (0, {"p": 1000000000, "q": 3, "r": 0})


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
    # more vertices than graph6 can write: an input error, not a crash
    path.write_text("99999999999999999999\n")
    code, out = run(capsys, "recognize", "--edges", str(path))
    lines = out.splitlines()
    assert code == 2 and len(lines) == 1
    assert "exceeds" in json.loads(lines[0])["error"]


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


@pytest.mark.parametrize("text", [
    '{"labels": [{"v": 0, "class": "Q1"}, {"v": 0, "class": "F1"}, {"v": 1, "class": "F1"}]}',
    '{"labels": [{"v": 0, "class": "F1"}, {"v": 1.7, "class": "F1"}]}',
    '{"labels": [{"v": 0, "class": "F1"}, {"v": "1", "class": "F1"}]}',
    '{"labels": [{"v": 0, "class": "F1"}, {"v": true, "class": "F1"}]}',
    '{"labels": [{"v": 1e400, "class": "F1"}]}',
    '[]',
    '{"labels": {"v": 0}}',
    '{"labels": [1, 2]}',
    '{"labels": [{"v": 0, "class": "F1"}, {"v": 1}]}',
    'not json',
    '{"labels": [{"v": 0, "class": "F\u00e9"}]}',
], ids=["repeated", "float", "string", "bool", "overflow", "list", "labels-object",
        "int-labels", "no-class", "not-json", "not-ascii"])
def test_check_rejects_bad_vertex_ids(capsys, tmp_path, text):
    """Each malformed document exits 2 with a message in plain words, not
    the wording of the TypeError, KeyError, JSON or codec error that reading
    it would raise."""
    path = tmp_path / "cert.json"
    path.write_text(text, encoding="utf-8")
    code, out = run(capsys, "check", "--dsl", "K(2)", "--triple", "1,0,0",
                    "--certificate", str(path))
    assert code == 2
    lines = out.splitlines()
    error = json.loads(lines[0])["error"]
    assert len(lines) == 1 and error.startswith("malformed certificate: ")
    assert not any(words in error for words in (
        "indices must be", "subscriptable", "'class'", "Expecting value", "codec can't decode"))


def test_check_rejects_malformed_certificate(capsys, tmp_path):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"labels": [{"v": 0, "class": "Z9"}]}))
    g6 = Graph(1).to_graph6()
    code, data = run_json(capsys, "check", "--graph6", g6,
                          "--triple", "1,0,0", "--certificate", str(path))
    assert code == 2 and "error" in data


P4_G6 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)]).to_graph6()


@pytest.mark.parametrize("argv", [
    ["recognize", "--graph6", "@@"],
    ["realize", "--dsl", "K("],
    ["solve", "--dsl", "K(3)", "--triple", "1,0"],
    ["frontier", "--dsl", "K(2)", "--box", "1,1"],
    ["arboricity", "--edges", "MISSING"],
    ["chromatic", "--graph6", "@@"],
    ["ifvs-q", "--dsl", "J(K(1)"],
    ["strength", "--graph6", P4_G6],
    ["mindel", "--dsl", "K(", "--p", "1", "--q", "1"],
    ["certificate", "--dsl", "K(2)", "--triple", "x"],
    ["check", "--dsl", "K(2)", "--triple", "1,0,0", "--certificate", "MISSING"],
    ["enumerate", "--n", "0"],
    ["oracle", "--graph6", Graph(13).to_graph6(), "--triple", "0,1,0"],
    ["obstructions", "families", "--p", "0"],
    ["obstructions", "check", "--dsl", "K(3)", "--goal", "(1,0)"],
    ["obstructions", "search", "--n", "0", "--goal", "(1,0,0)"],
    ["obstructions", "count", "--p", "1", "--i", "0"],
], ids=lambda argv: " ".join(a for a in argv[:2] if not a.startswith("-")))
def test_malformed_input_exits_two_with_one_error_line(capsys, tmp_path, argv):
    argv = [str(tmp_path / "missing") if a == "MISSING" else a for a in argv]
    code, out = run(capsys, *argv)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])


@pytest.mark.parametrize("error", [AssertionError, KeyError])
def test_internal_errors_exit_two(capsys, monkeypatch, error):
    def explode(*args):
        raise error("boom")

    monkeypatch.setattr(cli, "vertex_arboricity", explode)
    code = main(["arboricity", "--dsl", C4_DSL])
    out, err = capsys.readouterr()
    assert code == 2
    assert json.loads(out) == {"error": f"internal error ({error.__name__}): {error('boom')}"}
    assert error.__name__ in err


def test_enumerate(capsys):
    code, data = run_json(capsys, "enumerate", "--n", "5", "--count-only")
    assert (code, data) == (0, {"n": 5, "count": 24})
    assert run_json(capsys, "enumerate", "--n", "16", "--count-only") == \
        (0, {"n": 16, "count": 4507352})
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
    # class counts beyond n are empty classes, not allocations
    for triple in ("99999999999999999999,0,0", "0,99999999999999999999,0"):
        code, data = run_json(capsys, "oracle", "--dsl", "K(3)", "--triple", triple)
        assert code == 0 and data["feasible"] is True


def test_oracle_default_budget(capsys, monkeypatch):
    budgets = []

    def record(graph, triple, budget):
        budgets.append(budget)
        return True

    monkeypatch.setattr(cli, "brute_force_partitionable", record)
    code, _ = run_json(capsys, "oracle", "--dsl", "K(3)", "--triple", "1,0,0")
    assert code == 0
    assert budgets == [OracleBudget(max_vertices=12, max_assignments=10_000_000)]


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


def test_parse_goal():
    assert _parse_goal("(0,2,1),(0,1,2)") == (Triple(0, 1, 2), Triple(0, 2, 1))
    assert _parse_goal(" 1,1,0 (2, 0, 0)\n2,0,0 ") == (Triple(1, 1, 0), Triple(2, 0, 0))
    assert _parse_goal("1,1,0,2,0,0") == (Triple(1, 1, 0), Triple(2, 0, 0))


@pytest.mark.parametrize("argv", [
    ["obstructions", "check", "--dsl", "K(4)", "--goal", "1,1,0,7"],
    ["obstructions", "check", "--dsl", "K(4)", "--goal", "(2,0,0),(1,1"],
    ["obstructions", "check", "--dsl", "K(4)", "--goal", "(2,0,0)(1,1,0)"],
    ["obstructions", "search", "--n", "3", "--goal", "(1,0,0),"],
], ids=["trailing-number", "unclosed-triple", "no-separator", "trailing-comma"])
def test_goal_with_stray_text_exits_two(capsys, argv):
    """A goal is read whole: text that is not a triple is an error, not skipped."""
    code, out = run(capsys, *argv)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])


BAD_INT_FLAGS = [
    ["mindel", "--dsl", "K(3)", "--p", "\u0663", "--q", "0"],
    ["enumerate", "--n", "1_0", "--count-only"],
    ["obstructions", "search", "--n", "+3", "--goal", "(1,0,0)"],
    ["oracle", "--dsl", "K(3)", "--triple", "1,0,0", "--max-vertices", " 12"],
]


@pytest.mark.parametrize("argv", [
    ["solve", "--dsl", "K(3)", "--triple", "(2,0,0"],
    ["solve", "--dsl", "K(3)", "--triple", "2,0,0)"],
    ["solve", "--dsl", "K(3)", "--triple", "\u0662,0,0"],
    ["obstructions", "check", "--dsl", "K(4)", "--goal", "(\u0662,0,0)"],
    ["realize", "--dsl", "K(\u0663)"],
    ["realize", "--dsl", "K(\u00b2)"],
    *BAD_INT_FLAGS,
], ids=["unclosed-triple", "unopened-triple", "arabic-indic-triple", "arabic-indic-goal",
        "arabic-indic-dsl", "superscript-dsl", "arabic-indic-flag", "underscore-flag",
        "plus-flag", "space-flag"])
def test_non_ascii_or_unbalanced_numbers_exit_two(capsys, argv):
    """Numbers are ASCII digits, and a parenthesis opened is closed. argparse
    reads the integer flags, so a bad one is a usage error on stderr."""
    if argv in BAD_INT_FLAGS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "expected an integer in ASCII digits, got" in err
        assert "_ascii_int" not in err
        return
    code, out = run(capsys, *argv)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])
    assert "internal error" not in lines[0] and "int()" not in lines[0]


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


def test_search_with_a_large_bound(capsys):
    """No frontier-minimal cograph for (2,0,0) has more than 12 vertices, so
    --n 25, where about 2 * 10**11 cographs exist, prints what --n 11 prints,
    without walking them."""
    search = ("obstructions", "search", "--goal", "(2,0,0)", "--n")
    start = time.perf_counter()
    code, out = run(capsys, *search, "25")
    assert code == 0 and time.perf_counter() - start < 1.0
    assert (0, out) == run(capsys, *search, "11")
    assert len(out.splitlines()) == 7


def test_obstructions_count(capsys):
    code, data = run_json(capsys, "obstructions", "count", "--p", "3", "--i", "2")
    assert code == 0
    assert data["distinct"] == 3 and data["multiset_count"] == 3
    assert data["formula"] == "2" and data["formula_matches"] is False
    code, data = run_json(capsys, "obstructions", "count", "--p", "1", "--i", "0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["obstructions", "families", "--p", "3", "--oi", "-1"],
    ["obstructions", "count", "--p", "2", "--i", "3"],
], ids=" ".join)
def test_oi_out_of_range_exits_two(capsys, argv):
    """The star-forest join family checks i before it builds any forest."""
    code, out = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 2 and len(lines) == 1
    assert "0 <= i <= p" in json.loads(lines[0])["error"]


def test_human_output(capsys):
    code, out = run(capsys, "frontier", "--dsl", C4_DSL, "--box", "2,2,2",
                    "--human")
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "2" in out
    code, out = run(capsys, "certificate", "--dsl", C4_DSL, "--triple", "1,0,1", "--human")
    assert code == 0
    assert out.splitlines() == [
        "triple: [1, 0, 1]",
        "labels:",
        '  {"v": 0, "class": "F1"}',
        '  {"v": 1, "class": "R"}',
        '  {"v": 2, "class": "F1"}',
        '  {"v": 3, "class": "F1"}',
    ]


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cographpart.cli", "arboricity",
         "--graph6", Graph.complete(5).to_graph6()],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"rho": 3}


def test_import_footprint():
    """The CLI loads no dataclasses, inspect or fractions; the package loads
    every module whose functions a tracer may patch. The probe runs without
    the site module, whose .pth hooks would count the host's packages."""
    probe = ("import json, sys\n"
             "import cographpart.cli\n"
             "heavy = [m for m in ('dataclasses', 'inspect', 'fractions') if m in sys.modules]\n"
             "import cographpart\n"
             "mods = ('graph', 'cotree', 'solver', 'strength', 'obstructions')\n"
             "print(json.dumps([heavy, [m for m in mods if 'cographpart.' + m in sys.modules]]))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cographpart.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    heavy, loaded = json.loads(proc.stdout)
    assert heavy == []
    assert loaded == ["graph", "cotree", "solver", "strength", "obstructions"]


def pinned_commands(tmp_path):
    """Thirty-five commands over every subcommand, on DSL, graph6 and
    edge-list inputs drawn from the random generators at fixed seeds."""
    a, b = random_cotree(30, 11), random_balanced_cotree(24, 12)
    c, d = random_cotree(9, 13), random_cotree(60, 14)
    dsl = {k: to_expr(t) for k, t in zip("abcd", (a, b, c, d))}
    g6 = {k: realize(t).to_graph6() for k, t in zip("abcd", (a, b, c, d))}
    c5 = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]).to_graph6()
    edges = tmp_path / "b.txt"
    edges.write_text(realize(b).to_edge_list_text())
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps(extract_certificate(c, (3, 0, 0)).to_json()))
    return [
        ["recognize", "--graph6", g6["a"]],
        ["recognize", "--graph6", g6["d"], "--human"],
        ["recognize", "--graph6", c5],
        ["recognize", "--edges", str(edges)],
        ["realize", "--dsl", dsl["b"]],
        ["solve", "--dsl", dsl["a"], "--triple", "2,0,0"],
        ["solve", "--graph6", g6["b"], "--triple", "(2,1,0)"],
        ["frontier", "--dsl", dsl["a"], "--box", "3,3,3"],
        ["frontier", "--graph6", g6["b"], "--box", "2,2,4", "--human"],
        ["arboricity", "--dsl", dsl["a"]],
        ["arboricity", "--graph6", g6["d"]],
        ["chromatic", "--dsl", dsl["b"]],
        ["ifvs-q", "--graph6", g6["a"]],
        ["strength", "--dsl", dsl["d"]],
        ["mindel", "--dsl", dsl["a"], "--p", "1", "--q", "1"],
        ["mindel", "--edges", str(edges), "--p", "0", "--q", "2"],
        ["certificate", "--dsl", dsl["a"], "--triple", "3,0,1"],
        ["certificate", "--graph6", g6["b"], "--triple", "1,2,2"],
        ["certificate", "--dsl", dsl["c"], "--triple", "0,0,0"],
        ["check", "--graph6", g6["c"], "--triple", "3,0,0", "--certificate", str(cert)],
        ["check", "--dsl", dsl["c"], "--triple", "2,0,0", "--certificate", str(cert)],
        ["enumerate", "--n", "5"],
        ["enumerate", "--n", "6", "--format", "graph6"],
        ["enumerate", "--n", "12", "--count-only"],
        ["oracle", "--graph6", g6["c"], "--triple", "3,0,0"],
        ["oracle", "--dsl", dsl["c"], "--triple", "1,1,0"],
        ["obstructions", "families", "--p", "2"],
        ["obstructions", "families", "--p", "3", "--oi", "1", "--format", "graph6"],
        ["obstructions", "check", "--dsl", FAMILY_A2_DSL[2], "--goal", "2,0,0"],
        ["obstructions", "check", "--graph6", g6["c"], "--goal", "(1,1,0),(2,0,0)"],
        ["obstructions", "search", "--n", "9", "--goal", "2,0,0"],
        ["obstructions", "search", "--n", "8", "--goal", "(1,1,0)", "--human"],
        ["obstructions", "count", "--p", "3", "--i", "2"],
        ["realize", "--dsl", "K("],
        ["solve", "--dsl", dsl["a"], "--triple", "1,2"],
    ]


def test_cli_outputs_pinned(capsys, tmp_path):
    """The stdout and exit status of every pinned command, under one digest,
    so that a simplification of the library shows any change in output."""
    digest = hashlib.sha256()
    for argv in pinned_commands(tmp_path):
        code, out = run(capsys, *argv)
        digest.update(f"{code}\n{out}\n".encode())
    assert digest.hexdigest() == "f5de512c7d848655125661d375ba2ba2d8e31757ca677830dfae5010823ba3bb"
