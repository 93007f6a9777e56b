"""The bulk codecs, realize and row check against their slow per-edge
references: identical bytes, rows and errors."""
import random

import pytest

import slow_reference as ref
from cographpart import (
    Graph,
    Union,
    complement_tree,
    enumerate_cographs,
    random_cotree,
    realize,
    relabel,
    union_of,
)
from cographpart.graph import _chars

from conftest import random_graph, scrambled


def assert_codecs_match(graph):
    text = graph.to_graph6()
    assert text == ref.to_graph6(graph)
    assert Graph.from_graph6(text) == ref.from_graph6(text)
    assert graph.to_sparse6() == ref.to_sparse6(graph)
    assert graph.to_edge_list_text() == ref.to_edge_list_text(graph)


def test_chars_matches_reference():
    rng = random.Random(6)
    lengths = list(range(60)) + [125, 3000, 30001]
    for size in lengths:
        for _ in range(3):
            bits = "".join(rng.choice("01") for _ in range(size))
            assert _chars(bits) == ref._chars(bits)
    for size in (1, 6, 24, 25):
        assert _chars("1" * size) == ref._chars("1" * size)


def test_small_cographs_match_reference():
    for n in range(1, 9):
        for tree in enumerate_cographs(n):
            graph = realize(tree)
            assert graph == ref.realize(tree)
            assert_codecs_match(graph)


def test_random_graphs_match_reference():
    rng = random.Random(23)
    for n in [*range(21), 32, 62, 63, 64, 100, 130]:
        for p in (0.0, 0.1, 0.5, 1.0):
            assert_codecs_match(random_graph(rng, n, p))


@pytest.mark.parametrize("n", [1100, 1500])
def test_large_graph6_matches_reference(n):
    """Large enough that from_graph6 transposes the triangle in several blocks."""
    graph = random_graph(random.Random(n), n)
    text = graph.to_graph6()
    assert text == ref.to_graph6(graph)
    assert Graph.from_graph6(text) == graph == ref.from_graph6(text)


def test_union_of_components_matches_reference():
    """A union of 100 connected random cographs, as the benchmark's sparse inputs."""
    rng = random.Random(100)
    parts = [random_cotree(rng.randint(10, 30), rng) for _ in range(100)]
    tree = relabel(union_of([complement_tree(t) if isinstance(t, Union) else t for t in parts]))
    graph = realize(tree)
    assert graph == ref.realize(tree)
    assert_codecs_match(graph)


def test_scrambled_ids_match_reference():
    """Leaf ids out of left-to-right order take realize's prefix-OR path."""
    rng = random.Random(200)
    for _ in range(200):
        tree = scrambled(random_cotree(rng.randint(1, 40), rng), rng)
        assert realize(tree) == ref.realize(tree)


def test_row_check_matches_reference():
    """Near-symmetric matrices: the same verdict and the same error."""
    rng = random.Random(3000)
    for _ in range(3000):
        n = rng.randint(2, 12)
        rows = [random_graph(rng, n, rng.random()).row(v) for v in range(n)]
        for _ in range(rng.randint(0, 2)):
            u, v = rng.sample(range(n), 2)
            rows[u] ^= 1 << v
        try:
            ref.check_rows(n, rows)
            want = None
        except ValueError as err:
            want = str(err)
        if want is None:
            Graph(n, rows)
        else:
            with pytest.raises(ValueError) as err:
                Graph(n, rows)
            assert str(err.value) == want
