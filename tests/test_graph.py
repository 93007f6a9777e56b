"""Tests for the bitset graph type and its encodings."""
import random
from itertools import chain

import networkx as nx
import pytest

from cographpart import Graph
from cographpart.graph import _encode_order, iter_bits

from conftest import from_nx, random_graph, to_nx


def test_empty_and_single():
    g = Graph(0)
    assert g.n == 0
    assert list(g.edges()) == []
    h = Graph(1)
    assert h.n == 1
    assert h.degree(0) == 0


def test_from_edge_list_basic():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert g.has_edge(0, 1)
    assert g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert list(iter_bits(g.row(1))) == [0, 2]
    assert list(g.edges()) == [(0, 1), (1, 2), (2, 3)]


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edge_list(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edge_list(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edge_list(-1, [])
    with pytest.raises(ValueError):
        Graph.from_edge_list(10**20, [])  # more vertices than graph6 can write


def test_from_edge_list_ignores_duplicates():
    g = Graph.from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert list(g.edges()) == [(0, 1)]


def test_constructor_validates_rows():
    # asymmetric adjacency
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))
    # self loop
    with pytest.raises(ValueError):
        Graph(1, (0b1,))
    # bit outside the vertex range
    with pytest.raises(ValueError):
        Graph(2, (0b110, 0b001))
    with pytest.raises(ValueError, match="vertex count must be nonnegative"):
        Graph(-1)
    with pytest.raises(ValueError, match="one adjacency row per vertex"):
        Graph(2, (0,))


def test_complete_and_complement():
    k4 = Graph.complete(4)
    assert k4.m == 6
    assert k4.complement().m == 0
    g = Graph.from_edge_list(4, [(0, 1)])
    assert g.complement().complement() == g
    assert g.complement().m == 5


def test_disjoint_union_and_join():
    a = Graph.complete(2)
    b = Graph.complete(3)
    u = a.disjoint_union(b)
    assert u.n == 5
    assert u.has_edge(0, 1) and u.has_edge(2, 3)
    assert not u.has_edge(1, 2)
    j = a.join(b)
    assert j.m == 1 + 3 + 6


def test_induced_subgraph_relabels():
    g = Graph.from_edge_list(5, [(0, 2), (2, 4), (1, 3)])
    h = g.induced_subgraph([0, 2, 4])
    assert h.n == 3
    assert list(h.edges()) == [(0, 1), (1, 2)]
    assert g.induced_subgraph([]).n == 0
    for v in (5, -1):
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            g.induced_subgraph([0, v])


def test_induced_subgraph_matches_networkx():
    """Dense rows, kept sets in random order with repeats: the result is the
    networkx subgraph renumbered by ascending id."""
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(1, 90)
        g = random_graph(rng, n, rng.uniform(0.5, 0.95))
        kept = rng.sample(range(n), rng.randint(0, n))
        want = from_nx(to_nx(g).subgraph(kept))
        assert g.induced_subgraph(kept + kept[: len(kept) // 3]) == want


def test_component_masks():
    g = Graph.from_edge_list(6, [(0, 1), (2, 3), (3, 4)])
    masks = g.component_masks()
    assert masks == [0b000011, 0b011100, 0b100000]
    # the complement of a clique falls apart into singletons
    assert Graph.complete(3).component_masks(complement=True) == [1, 2, 4]
    h = Graph.from_edge_list(4, [(0, 1), (1, 2)])
    assert h.complement().component_masks() == h.component_masks(complement=True)


def test_component_masks_within():
    g = Graph.from_edge_list(5, [(0, 1), (1, 2), (3, 4)])
    masks = g.component_masks(within=0b00111)
    assert masks == [0b00111]
    masks = g.component_masks(within=0b00101)
    assert masks == [0b00001, 0b00100]


def test_is_forest():
    path = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert path.is_forest()
    cycle = Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert not cycle.is_forest()
    assert Graph(7).is_forest()
    two_trees = Graph.from_edge_list(6, [(0, 1), (0, 2), (3, 4), (4, 5)])
    assert two_trees.is_forest()


def test_is_forest_matches_networkx():
    rng = random.Random(20249)
    for _ in range(200):
        n = rng.randrange(1, 12)
        g = random_graph(rng, n, p=rng.choice([0.1, 0.2, 0.4]))
        assert g.is_forest() == nx.is_forest(to_nx(g))


def test_is_forest_within_matches_networkx():
    rng = random.Random(4187)
    assert Graph(0).is_forest() and Graph(0).is_forest(0)
    for _ in range(200):
        n = rng.randrange(1, 14)
        g = random_graph(rng, n, p=rng.choice([0.1, 0.2, 0.4]))
        assert g.is_forest() == nx.is_forest(to_nx(g))
        for _ in range(5):
            keep = [v for v in range(n) if rng.random() < 0.6]
            mask = sum(1 << v for v in keep)
            # networkx raises on the null graph, which is a forest
            want = not keep or nx.is_forest(to_nx(g).subgraph(keep))
            assert g.is_forest(mask) == want


def test_is_independent():
    assert Graph(4).is_independent()
    assert not Graph.from_edge_list(4, [(0, 1)]).is_independent()
    assert Graph(0).is_independent()


def test_graph6_round_trip_small():
    g = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    s = g.to_graph6()
    assert Graph.from_graph6(s) == g
    assert Graph.from_graph6(">>graph6<<" + s) == g


# past the one-character header: 62, 63 and 64 sit either side of the "~"
# header, and 32 is a sparse6 n = 2**k case at k = 5 (its records are 6 or
# 12 bits, so the padding guard below never fires there)
LARGER_ORDERS = (32, 62, 63, 64, 100, 130)


def test_graph6_matches_networkx():
    rng = random.Random(77)
    for n in chain((rng.randrange(0, 21) for _ in range(150)), LARGER_ORDERS):
        g = random_graph(rng, n)
        expected = nx.to_graph6_bytes(to_nx(g), header=False).strip().decode()
        assert g.to_graph6() == expected
        assert Graph.from_graph6(expected) == g


def test_sparse6_matches_networkx():
    rng = random.Random(78)
    sizes = chain((rng.randrange(1, 21) for _ in range(150)), LARGER_ORDERS * 3)
    graphs = (random_graph(rng, n, p=rng.choice([0.15, 0.5, 0.9])) for n in sizes)
    # n = 2**k with vertex n - 1 never reached: a 0 must go before the 1s of
    # the padding, or they spell an edge to n - 1; then the last order with
    # an 18-bit "~" header and the first with a 36-bit "~~" one
    edge_cases = [Graph.from_edge_list(4, [(0, 1)])] + [
        Graph.from_edge_list(n, [(0, n - 1), (1, n // 2)]) for n in (258047, 258048)]
    for g in chain(graphs, edge_cases):
        expected = nx.to_sparse6_bytes(to_nx(g), header=False).strip().decode()
        assert g.to_sparse6() == expected
        assert Graph.from_sparse6(expected) == g


def test_graph6_large_n():
    rng = random.Random(5)
    g = random_graph(rng, 100, p=0.03)
    assert Graph.from_graph6(g.to_graph6()) == g
    assert Graph.from_sparse6(g.to_sparse6()) == g


def test_graph6_rejects_malformed():
    with pytest.raises(ValueError):
        Graph.from_graph6("")
    with pytest.raises(ValueError):
        Graph.from_graph6("D?\x01")
    with pytest.raises(ValueError):
        Graph.from_graph6("D")  # truncated: K5-sized header, no bits
    with pytest.raises(ValueError):
        Graph.from_sparse6("foo")  # missing ':' prefix
    with pytest.raises(ValueError, match="truncated"):
        Graph.from_graph6("~??")  # truncated "~" vertex count
    with pytest.raises(ValueError, match="invalid graph6 character"):
        Graph.from_sparse6(":Fa w")  # ' ' lies outside 63..126
    with pytest.raises(ValueError, match="sparse6 input: use from_sparse6"):
        Graph.from_graph6(Graph.complete(4).to_sparse6())
    with pytest.raises(ValueError, match="vertex count too large for graph6"):
        _encode_order(68719476736)  # 2^36, one past the limit: no Graph is built this large


def test_edge_list_text_round_trip():
    g = Graph.from_edge_list(4, [(0, 2), (1, 3)])
    text = g.to_edge_list_text()
    assert Graph.from_edge_list_text(text) == g
    # blank lines are tolerated
    got = Graph.from_edge_list_text("3\n0 1\n\n1 2\n")
    assert list(got.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        Graph.from_edge_list_text("2\n0\n")
    with pytest.raises(ValueError):
        Graph.from_edge_list_text("")
    # ASCII digits and an optional minus only: int() alone reads all of these
    for text in ("12\n1_1 0\n", "2\n+0 1\n", "2\n\u0661 0\n", "\u0663\n", "1_2\n"):
        with pytest.raises(ValueError):
            Graph.from_edge_list_text(text)
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edge_list_text("2\n0 -1\n")


def test_equality_and_hash():
    a = Graph.from_edge_list(3, [(0, 1)])
    b = Graph.from_edge_list(3, [(1, 0)])
    c = Graph.from_edge_list(3, [(0, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2
    assert a.__eq__(a.to_graph6()) is NotImplemented and a != a.to_graph6()
    assert repr(a) == "Graph(n=3, m=1)"


def test_row_and_iter_bits():
    g = Graph.from_edge_list(5, [(1, 0), (1, 3), (1, 4)])
    assert g.row(1) == 0b11001
    from cographpart.graph import iter_bits
    assert list(iter_bits(0b10110)) == [1, 2, 4]
    assert list(iter_bits(0)) == []
