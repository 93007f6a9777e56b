"""Tests for the exhaustive reference solver."""
import random

import pytest

from cographpart import (
    Graph,
    OracleBudget,
    OracleBudgetExceeded,
    Triple,
    brute_force_arboricity,
    brute_force_partitionable,
    brute_force_strength,
    parse_expr,
    realize,
)


C4 = realize(parse_expr("C(U(2*K(2)))"))
K5 = Graph.complete(5)


def test_known_values():
    assert not brute_force_partitionable(C4, Triple(1, 0, 0))
    assert brute_force_partitionable(C4, Triple(2, 0, 0))
    assert brute_force_partitionable(C4, Triple(1, 1, 0))
    assert brute_force_partitionable(C4, Triple(0, 2, 0))
    assert not brute_force_partitionable(C4, Triple(0, 1, 0))
    assert not brute_force_partitionable(C4, Triple(0, 1, 1))
    assert brute_force_partitionable(C4, Triple(0, 1, 2))
    assert brute_force_partitionable(K5, Triple(3, 0, 0))
    assert not brute_force_partitionable(K5, Triple(2, 0, 0))
    assert brute_force_partitionable(K5, Triple(2, 1, 0))
    assert not brute_force_partitionable(K5, Triple(1, 2, 0))
    assert brute_force_partitionable(K5, Triple(1, 2, 1))
    # class counts beyond n are empty classes, not allocations
    assert brute_force_partitionable(K5, (10**20, 0, 0))
    assert brute_force_partitionable(K5, (0, 10**20, 0))


def test_plain_tuples_accepted():
    assert brute_force_partitionable(K5, (0, 0, 5))
    assert not brute_force_partitionable(K5, (0, 0, 4))


def test_empty_graph():
    assert brute_force_partitionable(Graph(0), Triple(0, 0, 0))


def test_negative_budget_rejected():
    with pytest.raises(ValueError):
        brute_force_partitionable(C4, (-1, 0, 0))


def test_order_invariance():
    rng = random.Random(60)
    for _ in range(30):
        n = rng.randrange(1, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        g = Graph.from_edge_list(n, edges)
        t = Triple(rng.randrange(0, 2), rng.randrange(0, 2), rng.randrange(0, 2))
        base = brute_force_partitionable(g, t)
        for _ in range(3):
            order = list(range(n))
            rng.shuffle(order)
            assert brute_force_partitionable(g, t, order=order) == base


def test_order_must_be_permutation():
    with pytest.raises(ValueError):
        brute_force_partitionable(C4, Triple(1, 0, 0), order=[0, 0, 1, 2])


def test_vertex_budget():
    big = Graph(13)
    with pytest.raises(OracleBudgetExceeded):
        brute_force_partitionable(big, Triple(0, 1, 0))
    assert brute_force_partitionable(
        big, Triple(0, 1, 0), budget=OracleBudget(max_vertices=13))


def test_assignment_budget():
    tight = OracleBudget(max_assignments=3)
    with pytest.raises(OracleBudgetExceeded):
        brute_force_partitionable(Graph.complete(9), Triple(1, 1, 0),
                                  budget=tight)
    # the budget also runs out inside the forest branch, the
    # independent-class branch and the deletion branch
    for graph, triple in ((Graph.complete(9), Triple(2, 0, 0)), (Graph.complete(9), Triple(0, 2, 0)),
                          (Graph(5), Triple(0, 0, 5))):
        with pytest.raises(OracleBudgetExceeded, match="assignment budget 3 exhausted"):
            brute_force_partitionable(graph, triple, budget=tight)


def test_arboricity():
    assert brute_force_arboricity(Graph(0)) == 0
    assert brute_force_arboricity(Graph(4)) == 1
    assert brute_force_arboricity(C4) == 2
    assert brute_force_arboricity(K5) == 3
    assert brute_force_arboricity(Graph.complete(6)) == 3


def test_strength_examples():
    prof = brute_force_strength(C4)
    assert prof.omega == 2
    assert prof.tau == 2
    assert prof.strength == 3
    prof = brute_force_strength(K5)
    assert (prof.omega, prof.tau, prof.strength) == (5, 0, 5)
    assert brute_force_strength(Graph(0)).strength == 0
    assert brute_force_strength(Graph(3)) == (1, 1, 2)
