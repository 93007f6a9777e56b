"""Cotrees far deeper or wider than the interpreter's recursion limit.

Every cotree walk is iterative, so these run at the default recursion limit.
The deep inputs are alternating caterpillars: threshold graphs whose cotree
has one Leaf and one internal child per level.
"""
import json

import pytest

from cographpart import (
    Join,
    Leaf,
    Triple,
    Union,
    build_H,
    canonical_code,
    check_partition,
    chromatic_number,
    complement_tree,
    extract_certificate,
    feasible_set,
    height,
    is_minimal_obstruction,
    leaf_count,
    leaves,
    max_join_children,
    min_deletions,
    parse_expr,
    realize,
    recognize,
    relabel,
    strength_profile,
    to_expr,
)
from cographpart import obstructions
from cographpart.cli import main

import slow_reference
from conftest import caterpillar


def k2_union(pieces):
    return Union(tuple(Join((Leaf(2 * i), Leaf(2 * i + 1))) for i in range(pieces)))


def test_deep_caterpillar_walks():
    depth = 5000
    tree = caterpillar(depth)
    n = depth + 1
    assert leaf_count(tree) == n
    assert list(leaves(tree)) == list(range(n))
    assert height(tree) == depth
    assert max_join_children(tree) == 2
    code = canonical_code(tree)
    assert code.count(b"L") == n
    flipped = complement_tree(tree)
    assert isinstance(tree, Union) and isinstance(flipped, Join)
    assert canonical_code(flipped) != code
    assert canonical_code(complement_tree(flipped)) == code
    copy = relabel(flipped)
    assert list(leaves(copy)) == list(range(n))
    assert canonical_code(copy) == canonical_code(flipped)
    assert canonical_code(parse_expr(to_expr(tree))) == code


def test_deep_caterpillar_realize():
    """Each join level L adds L + 1 edges, from leaf L + 1 to every leaf
    below it; the slow reference agrees at 1,000 levels."""
    for depth in (10, 11, 1000, 8000):
        assert realize(caterpillar(depth)).m == sum(level + 1 for level in range(0, depth, 2))
    tree = caterpillar(1000)
    assert realize(tree) == slow_reference.realize(tree)


def test_deep_caterpillar_solver():
    tree = caterpillar(5000)
    # every join level adds one leaf to the largest clique
    omega = 2501
    assert strength_profile(tree).omega == omega
    assert chromatic_number(tree) == omega
    # two forests hold at most four clique vertices: (2, 2, 2) covers eight
    assert feasible_set(tree, (2, 2, 2)).frontier == ()


def test_caterpillar_recognize_and_certificate():
    tree = relabel(caterpillar(1200))
    graph = realize(tree)
    back = recognize(graph)
    assert canonical_code(back) == canonical_code(tree)
    assert realize(back).to_graph6() == graph.to_graph6()
    triple = (0, 601, 0)
    cert = extract_certificate(tree, triple)
    assert check_partition(graph, cert, triple)


def test_caterpillar_star_certificates():
    """Certificates at the optimum of min_deletions: near the root of the
    600-join chain, a star takes its center from about 600 deleted ids."""
    tree = caterpillar(1200)
    graph = realize(tree)
    for p, q in ((1, 1), (2, 0)):
        triple = (p, q, min_deletions(tree, p, q))
        assert check_partition(graph, extract_certificate(tree, triple), triple)


def test_wide_unions_certificate():
    for tree, triple in ((parse_expr("I(5000)"), (0, 1, 0)), (k2_union(25000), (0, 2, 0))):
        cert = extract_certificate(tree, triple)
        assert check_partition(tree, cert, triple)


def test_cli_certificate_on_deep_and_wide_input(capsys):
    for dsl, triple in (("I(1200)", "0,1,0"), ("1500*K(2)", "0,2,0")):
        assert main(["certificate", "--dsl", dsl, "--triple", triple]) == 0
        data = json.loads(capsys.readouterr().out)
        labels = [item["class"] for item in sorted(data["labels"], key=lambda x: x["v"])]
        budget = tuple(int(x) for x in triple.split(","))
        assert check_partition(realize(parse_expr(dsl)), labels, budget)


def test_caterpillar_minimality():
    """The report, build_H and the search decide minimality on the
    1,200-level caterpillar: its clique has 601 vertices, so deleting
    vertex 0 leaves it infeasible for (2,0,0)."""
    deep = caterpillar(1200)
    report = is_minimal_obstruction(deep, (2, 0, 0))
    assert report.is_obstruction and not report.is_minimal
    assert report.failing_vertex == 0
    with pytest.raises(ValueError, match="not a minimal obstruction"):
        build_H(deep, parse_expr("C(U(3*K(3)))"), 2)
    goal_t = (Triple(2, 0, 0),)
    assert obstructions._minimal(obstructions._signatures(goal_t)(deep), goal_t) is False
