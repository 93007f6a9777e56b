"""The bulk codecs, realize, row check and random trees against their slow
references: identical bytes, rows, trees and errors."""
import random

import pytest

import slow_reference as ref
from cographpart import (
    Graph,
    Union,
    complement_tree,
    enumerate_cographs,
    leaves,
    random_balanced_cotree,
    random_cotree,
    realize,
    relabel,
    to_expr,
    union_of,
)
from cographpart.cotree import _balanced_split, _random_split
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


GENERATORS = [(random_cotree, _random_split), (random_balanced_cotree, _balanced_split)]


def assert_trees_match(generate, split, sizes, seed):
    """The trees that one stream seeded with seed gives for sizes, in turn,
    equal the reference's by DSL text and leaf order."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for n in sizes:
        tree, want = generate(n, rng), ref.random_tree(n, ref_rng, split)
        assert to_expr(tree) == to_expr(want)
        assert list(leaves(tree)) == list(leaves(want))


@pytest.mark.parametrize("generate, split", GENERATORS, ids=["random", "balanced"])
def test_random_trees_match_reference(generate, split):
    """Both generators build the reference's trees, from a shared stream and
    from int seeds: on 1..12 leaves, on the benchmark's random and balanced
    cotree-dp sizes and its fixed arboricity seeds, and on graph-pipeline's
    dense sizes."""
    for seed in range(6):
        assert_trees_match(generate, split, range(1, 13), seed)
        assert_trees_match(generate, split, range(12, 0, -1), f"small/{seed}")
    for seed in ("cotree-dp/0/0", "cotree-dp/7/1"):
        assert_trees_match(generate, split, (1000, 1000, 1250, 1250, 1500, 1500, 2000, 2500, 3000,
                                             5000, 8000), seed)
    for seed in ("graph-pipeline/0/0", "graph-pipeline/5/2"):
        assert_trees_match(generate, split, range(300, 975, 75), seed)
    for n, seed in ((1000, 1002), (1000, 1003), (500, 1005), (500, 1007), (12, 5), (64, 3)):
        tree, want = generate(n, seed), ref.random_tree(n, seed, split)
        assert (to_expr(tree), list(leaves(tree))) == (to_expr(want), list(leaves(want)))
