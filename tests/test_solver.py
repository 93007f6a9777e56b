"""Tests for the cotree dynamic program, certificates and derived
parameters."""
import random
from itertools import product

import pytest

from cographpart import (
    Graph,
    Join,
    NotACographError,
    PartitionCertificate,
    Triple,
    TripleSet,
    Union,
    brute_force_partitionable,
    check_partition,
    chromatic_number,
    derive_join,
    derive_union,
    enumerate_cographs,
    extract_certificate,
    feasible_set,
    is_partitionable,
    min_deletions,
    min_q_feedback,
    parse_expr,
    random_cotree,
    realize,
    vertex_arboricity,
)

C4_TREE = parse_expr("C(U(2*K(2)))")
C4 = realize(C4_TREE)


def test_triple_weights():
    t = Triple(2, 1, 3)
    assert t.solver_weight() == 6
    assert t.obstruction_weight() == 8
    assert Triple(1, 1, 0).dominates(Triple(1, 0, 0))
    assert not Triple(0, 2, 0).dominates(Triple(1, 0, 0))


def test_derive_union():
    assert derive_union(Triple(1, 0, 0), Triple(1, 0, 0)) == Triple(1, 0, 0)
    assert derive_union(Triple(0, 1, 0), Triple(0, 0, 2)) == Triple(0, 1, 2)
    assert derive_union(Triple(2, 1, 1), Triple(1, 3, 0)) == Triple(2, 3, 1)


def test_derive_join():
    assert set(derive_join(Triple(0, 1, 0), Triple(0, 0, 1))) == \
        {Triple(0, 1, 1), Triple(1, 0, 0)}
    assert set(derive_join(Triple(1, 0, 0), Triple(1, 0, 0))) == \
        {Triple(2, 0, 0)}
    assert set(derive_join(Triple(0, 1, 0), Triple(0, 0, 2))) == \
        {Triple(0, 1, 2), Triple(1, 0, 1)}


def test_derive_join_weight_additivity():
    rng = random.Random(17)
    for _ in range(200):
        tu = Triple(rng.randrange(3), rng.randrange(3), rng.randrange(3))
        td = Triple(rng.randrange(3), rng.randrange(3), rng.randrange(3))
        for out in derive_join(tu, td):
            assert out.obstruction_weight() == \
                tu.obstruction_weight() + td.obstruction_weight()
            assert out.solver_weight() <= tu.solver_weight() + td.solver_weight()


def test_feasible_set_c4():
    ts = feasible_set(C4_TREE, (4, 4, 4))
    assert set(ts.frontier) == {
        Triple(2, 0, 0), Triple(1, 1, 0), Triple(1, 0, 1),
        Triple(0, 2, 0), Triple(0, 1, 2), Triple(0, 0, 4)}


def test_feasible_set_k5():
    ts = feasible_set(Graph.complete(5), (3, 0, 0))
    assert not ts.contains((2, 0, 0))
    assert ts.contains((3, 0, 0))


def test_feasible_set_cocktail_plus_one():
    g = realize(parse_expr("C(U(3*K(2), K(1)))"))
    assert g.n == 7
    assert not is_partitionable(g, (2, 0, 0))
    for v in range(g.n):
        h = g.induced_subgraph([u for u in range(g.n) if u != v])
        assert is_partitionable(h, (2, 0, 0))


def test_is_partitionable_examples():
    forest = Graph.from_edge_list(5, [(0, 1), (0, 2), (3, 4)])
    assert is_partitionable(forest, (1, 0, 0))
    for q in range(4):
        cocktail = realize(parse_expr(f"C(U({q + 2}*K(2)))"))
        assert not is_partitionable(cocktail, (1, q, 0))
        clique = Graph.complete(q + 2)  # K_{q+3} minus a vertex
        assert is_partitionable(clique, (1, q, 0))


def test_empty_graph():
    assert is_partitionable(Graph(0), (0, 0, 0))
    ts = feasible_set(Graph(0), (2, 2, 2))
    assert ts.contains((0, 0, 0))
    assert ts.frontier == (Triple(0, 0, 0),)


def test_non_cograph_rejected():
    p4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotACographError) as err:
        is_partitionable(p4, (1, 0, 0))
    assert len(err.value.witness) == 4


def test_triple_set_membership_and_grid():
    ts = feasible_set(C4_TREE, (2, 2, 2))
    assert ts.contains((2, 0, 0))
    assert ts.contains((2, 2, 2))
    assert not ts.contains((0, 1, 1))
    with pytest.raises(ValueError):
        ts.contains((3, 0, 0))
    # the grid agrees with the frontier definition of membership
    for t in product(range(3), repeat=3):
        want = any(Triple(*t).dominates(m) for m in ts.frontier)
        assert ts.contains(t) == want
    assert sorted(ts.triples()) == sorted(
        Triple(*t) for t in product(range(3), repeat=3)
        if ts.contains(t))


def test_triple_set_json_round_trip():
    ts = feasible_set(C4_TREE, (4, 4, 4))
    data = ts.to_json()
    assert data["box"] == [4, 4, 4]
    assert [0, 2, 0] in data["frontier"]
    back = TripleSet.from_json(data)
    assert back == ts


def test_upward_and_exchange_closures():
    rng = random.Random(23)
    for _ in range(40):
        t = random_cotree(rng.randrange(1, 14), rng)
        ts = feasible_set(t, (3, 3, 3))
        for (p, q, r) in ts.triples():
            if p < 3:
                assert ts.contains((p + 1, q, r))
                if q >= 1:
                    assert ts.contains((p + 1, q - 1, r))
                if r >= 1:
                    assert ts.contains((p + 1, q, r - 1))
            if r >= 1 and q < 3:
                assert ts.contains((p, q + 1, r - 1))


def test_matches_oracle_exhaustively():
    """Every cograph on up to 6 vertices, every triple in a (2,2,2) box."""
    for n in range(1, 7):
        for t in enumerate_cographs(n):
            g = realize(t)
            ts = feasible_set(t, (2, 2, 2))
            for trip in product(range(3), repeat=3):
                assert ts.contains(trip) == brute_force_partitionable(g, trip)


def test_fold_order_independence():
    rng = random.Random(29)

    def shuffled(node):
        if not isinstance(node, (Union, Join)):
            return node
        kids = [shuffled(c) for c in node.children]
        rng.shuffle(kids)
        return type(node)(tuple(kids))

    for _ in range(25):
        t = random_cotree(rng.randrange(2, 16), rng)
        base = feasible_set(t, (3, 3, 3))
        for _ in range(3):
            assert feasible_set(shuffled(t), (3, 3, 3)) == base


def test_certificate_c4_bipartition():
    cert = extract_certificate(C4_TREE, (0, 2, 0))
    assert check_partition(C4, cert, (0, 2, 0))
    # C(U(2*K(2))) puts the two independent pairs at vertices {0,1} and {2,3}
    assert cert.labels == ("Q1", "Q1", "Q2", "Q2")


def test_certificate_k5_three_forests():
    cert = extract_certificate(Graph.complete(5), (3, 0, 0))
    assert check_partition(Graph.complete(5), cert, (3, 0, 0))
    sizes = sorted(cert.labels.count(f"F{i}") for i in (1, 2, 3))
    assert sizes == [1, 2, 2]


def test_certificate_two_forest_example():
    tree = parse_expr("J(U(2*C(U(2*K(2)))), I(2))")
    cert = extract_certificate(tree, (2, 0, 0))
    assert check_partition(realize(tree), cert, (2, 0, 0))


def test_certificate_infeasible_raises():
    with pytest.raises(ValueError):
        extract_certificate(C4_TREE, (0, 1, 0))


def test_certificate_round_trip_random():
    rng = random.Random(37)
    for _ in range(60):
        t = random_cotree(rng.randrange(1, 15), rng)
        g = realize(t)
        ts = feasible_set(t, (2, 2, 2))
        for target in ts.frontier:
            cert = extract_certificate(t, target)
            assert check_partition(g, cert, target)
            assert cert.triple == target


def test_certificate_json_round_trip():
    cert = extract_certificate(C4_TREE, (0, 2, 0))
    data = cert.to_json()
    assert {"v": 0, "class": "Q1"} in data["labels"]
    back = PartitionCertificate.from_json(data, (0, 2, 0))
    assert back.labels == cert.labels
    assert check_partition(C4, back, (0, 2, 0))


def test_check_partition_judgements():
    labels = ("Q1", "Q1", "Q2", "Q2")
    assert check_partition(C4, labels, (0, 2, 0))
    # class index exceeds the budget
    assert not check_partition(C4, labels, (0, 1, 0))
    # an adjacent pair in one independent class
    assert not check_partition(C4, ("Q1", "Q2", "Q1", "Q2"), (0, 2, 0))
    # a cycle is not a forest
    assert not check_partition(C4, ("F1", "F1", "F1", "F1"), (1, 0, 0))
    assert check_partition(C4, ("F1", "F1", "F1", "R"), (1, 0, 1))
    # too many deletions
    assert not check_partition(C4, ("R", "R", "Q1", "Q1"), (0, 1, 1))


def test_check_partition_malformed():
    with pytest.raises(ValueError):
        check_partition(C4, ("Q1", "Q1", "Q2"), (0, 2, 0))
    with pytest.raises(ValueError):
        check_partition(C4, ("Q0", "Q1", "Q1", "Q2"), (0, 2, 0))
    with pytest.raises(ValueError):
        check_partition(C4, ("X1", "Q1", "Q1", "Q2"), (0, 2, 0))


def test_vertex_arboricity():
    for p in (1, 2, 3):
        assert vertex_arboricity(Graph.complete(2 * p + 1)) == p + 1
    assert vertex_arboricity(Graph(0)) == 0
    assert vertex_arboricity(Graph(5)) == 1
    assert vertex_arboricity(C4) == 2


def test_chromatic_number():
    assert chromatic_number(Graph.complete(5)) == 5
    assert chromatic_number(C4) == 2
    assert chromatic_number(Graph(0)) == 0
    assert chromatic_number(realize(parse_expr("C(U(3*K(3)))"))) == 3


def test_min_deletions():
    assert min_deletions(C4, 0, 1) == 2  # vertex cover of the 4-cycle
    assert min_deletions(C4, 1, 0) == 1
    assert min_deletions(Graph.complete(6), 0, 2) == 4
    assert min_deletions(Graph.complete(6), 2, 0) == 2
    assert min_deletions(Graph(0), 0, 0) == 0


def test_min_q_feedback():
    # K_4 needs two independent classes on top of one forest: (1,1,0) is
    # infeasible (any three vertices induce a triangle) and the oracle agrees
    assert not brute_force_partitionable(Graph.complete(4), (1, 1, 0))
    assert brute_force_partitionable(Graph.complete(4), (1, 2, 0))
    assert min_q_feedback(Graph.complete(4)) == 2
    assert min_q_feedback(Graph.complete(3)) == 1
    assert min_q_feedback(Graph.from_edge_list(3, [(0, 1), (1, 2)])) == 0
    assert min_q_feedback(C4) == 1
    assert min_q_feedback(Graph(7)) == 0
    assert min_q_feedback(Graph(0)) == 0


def test_parameter_chain():
    for n in range(1, 9):
        for t in enumerate_cographs(n):
            rho = vertex_arboricity(t)
            chi = chromatic_number(t)
            assert rho <= chi <= 2 * rho


def test_derived_parameters_match_oracle():
    rng = random.Random(53)
    for _ in range(30):
        t = random_cotree(rng.randrange(1, 9), rng)
        g = realize(t)
        rho = vertex_arboricity(t)
        assert brute_force_partitionable(g, (rho, 0, 0))
        assert rho == 0 or not brute_force_partitionable(g, (rho - 1, 0, 0))
        chi = chromatic_number(t)
        assert brute_force_partitionable(g, (0, chi, 0))
        assert chi == 0 or not brute_force_partitionable(g, (0, chi - 1, 0))


def test_chromatic_number_matches_dynamic_program():
    for n in range(1, 9):
        for t in enumerate_cographs(n):
            fs = feasible_set(t, (0, n, 0))
            assert chromatic_number(t) == min(m.q for m in fs.frontier)


def test_vertex_arboricity_matches_dynamic_program():
    # the box (n, 0, 0) does not depend on omega, unlike the searched bracket
    for n in range(1, 9):
        for t in enumerate_cographs(n):
            fs = feasible_set(t, (n, 0, 0))
            assert vertex_arboricity(t) == min(m.p for m in fs.frontier)


def test_min_q_feedback_matches_dynamic_program():
    for n in range(1, 9):
        for t in enumerate_cographs(n):
            fs = feasible_set(t, (1, n, 0))
            assert min_q_feedback(t) == min(m.q for m in fs.frontier)


@pytest.mark.parametrize("dsl, rho", [
    ("K(3)", 2), ("K(5)", 3), ("K(7)", 4),    # lower end, ceil(omega / 2)
    ("C(U(30*K(6)))", 26),                    # inside [15, 30]
    ("C(U(10*K(10)))", 10),                   # upper end, omega
])
def test_vertex_arboricity_across_the_bracket(dsl, rho):
    t = parse_expr(dsl)
    omega = chromatic_number(t)
    assert (omega + 1) // 2 <= rho <= omega
    assert vertex_arboricity(t) == rho
    assert is_partitionable(t, (rho, 0, 0))
    assert not is_partitionable(t, (rho - 1, 0, 0))


def test_accepts_graph_tree_and_tuple_inputs():
    assert is_partitionable(C4, Triple(0, 2, 0))
    assert is_partitionable(C4_TREE, [0, 2, 0])
    with pytest.raises(ValueError):
        is_partitionable(C4, (0, -1, 0))
    with pytest.raises(TypeError):
        is_partitionable("C(U(2*K(2)))", (0, 2, 0))
