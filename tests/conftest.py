"""Shared helpers: networkx conversion, random graphs, the small-graph atlas,
scrambled cotrees and caterpillars."""
import os
from functools import lru_cache
from itertools import combinations

import networkx as nx
import pytest

import cographpart
from cographpart import Graph, Join, Leaf, Union, leaf_count


def to_nx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges())
    return g


def from_nx(g: nx.Graph) -> Graph:
    index = {v: i for i, v in enumerate(sorted(g.nodes()))}
    return Graph.from_edge_list(
        g.number_of_nodes(), [(index[u], index[v]) for u, v in g.edges()])


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edge_list(n, edges)


def has_p4_brute(graph: Graph) -> bool:
    """Four-subset scan: an induced path on 4 vertices exists."""
    for quad in combinations(range(graph.n), 4):
        edges = sum(1 for u, v in combinations(quad, 2) if graph.has_edge(u, v))
        if edges != 3:
            continue
        degs = sorted(sum(1 for u in quad if u != v and graph.has_edge(u, v))
                      for v in quad)
        if degs == [1, 1, 2, 2]:
            return True
    return False


def caterpillar(depth):
    """Join at even levels, Union at odd ones; leaf ids 0..depth left to right."""
    node = Leaf(0)
    for level in range(depth):
        node = (Join if level % 2 == 0 else Union)((node, Leaf(level + 1)))
    return node


def scrambled(tree, rng):
    """Copy of tree with its leaf ids permuted and every child list shuffled."""
    perm = list(range(leaf_count(tree)))
    rng.shuffle(perm)

    def build(node):
        if isinstance(node, Leaf):
            return Leaf(perm[node.vertex])
        kids = [build(c) for c in node.children]
        rng.shuffle(kids)
        return type(node)(tuple(kids))

    return build(tree)


@lru_cache(maxsize=1)
def atlas_graphs() -> tuple:
    """All 1253 graphs on up to 7 vertices, as (nx graph, Graph) pairs."""
    out = []
    for g in nx.graph_atlas_g():
        out.append((g, from_nx(g)))
    return tuple(out)


@pytest.fixture(scope="session")
def atlas():
    return atlas_graphs()


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Interpreters started by the tests import the package the tests import,
    also when pytest's pythonpath setting, not the environment, found it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.path.dirname(os.path.dirname(cographpart.__file__)),
                  prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def arboricity_three_obstructions():
    """The reports of every minimal (3,0,0) obstruction. No frontier-minimal
    cograph for (3,0,0) has more than 38 vertices, so n_max = 40 prunes
    nothing and the list is complete."""
    return cographpart.search_minimal_obstructions(40, (3, 0, 0))
