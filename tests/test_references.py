"""The bulk codecs, realize, row check, expression parser, random trees
and two derived parameters against their slow references: identical
bytes, rows, trees, answers and errors. Also the clique number and
strength profile that a cotree root keeps once computed, against brute
force."""
import copy
import pickle
import random
from collections import Counter
from itertools import product

import pytest

import slow_reference as ref
from cographpart import (
    Graph,
    Leaf,
    StrengthProfile,
    Triple,
    Union,
    brute_force_strength,
    chromatic_number,
    complement_tree,
    enumerate_cographs,
    family_Ap_dsl,
    feasible_set,
    leaves,
    min_deletions,
    min_q_feedback,
    parse_expr,
    random_balanced_cotree,
    random_cotree,
    realize,
    relabel,
    strength_profile,
    to_expr,
    union_of,
    vertex_arboricity,
)
from cographpart import cotree, solver, strength
from cographpart.cotree import _balanced_split, _fold, _random_split
from cographpart.graph import _chars

from conftest import caterpillar, random_graph, scrambled


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


def parser_texts():
    """to_expr of every cograph on at most 8 vertices, also complemented;
    the family A_p catalogs for p <= 5; seeded random cotrees."""
    for n in range(1, 9):
        for tree in enumerate_cographs(n):
            text = to_expr(tree)
            yield text
            yield f"C({text})"
    for p in range(2, 6):
        yield from family_Ap_dsl(p)
    rng = random.Random(35)
    for _ in range(150):
        yield to_expr(random_cotree(rng.randint(1, 40), rng))


def parsed(parse, text):
    """What parse makes of text: each node's type with its children's
    results, and a leaf's id, in child order; or the error's text. No node
    object may be placed twice."""
    try:
        tree = parse(text)
    except ValueError as error:
        return str(error)
    seen = set()

    def once(node, value):
        assert id(node) not in seen, text
        seen.add(id(node))
        return value

    return _fold(tree, lambda leaf: once(leaf, leaf.vertex),
                 lambda n, kids: once(n, (type(n).__name__, tuple(kids))))


def test_parser_matches_reference():
    """parse_expr builds the reference's trees: node types, child order and
    leaf ids, with fresh nodes throughout."""
    for text in parser_texts():
        got = parsed(parse_expr, text)
        assert not isinstance(got, str), (text, got)
        assert got == parsed(ref.parse_expr, text), text


def test_parser_errors_match_reference():
    """On every prefix of the parser texts, and on seeded single-character
    deletions, insertions and substitutions from DSL symbols, digits,
    spaces and look-alike characters, parse_expr fails exactly where and as
    the reference does, or builds its tree; every error kind occurs."""
    rng = random.Random(36)
    symbols = "KIUJC()*,0123 \u0663\u00b2-"
    outcomes = Counter()
    for text in parser_texts():
        mutants = [text[:i] for i in range(len(text))]
        for _ in range(3):
            i, c = rng.randrange(len(text) + 1), rng.choice(symbols)
            mutants += [text[:i] + text[i + 1:], text[:i] + c + text[i:], text[:i] + c + text[i + 1:]]
        for mutant in mutants:
            got = parsed(parse_expr, mutant)
            assert got == parsed(ref.parse_expr, mutant), repr(mutant)
            outcomes[got.split(": ", 1)[1] if isinstance(got, str) else "tree"] += 1
    kinds = {"tree", "trailing input", "repetition count must be at least 1",
             "K(k) requires k >= 1", "I(k) requires k >= 1",
             "expected K, I, U, J, C, or a repetition count", "expected '*'",
             "expected '('", "expected an integer", "expected ')'"}
    assert set(outcomes) == kinds, outcomes


def derived_inputs():
    """(tree, (p, q) budgets) pairs: every cograph on at most 8 vertices with
    p, q in 0..3; seeded random and balanced cotrees up to 2,000 leaves, some
    with rho = ceil(omega/2) + 1 and some with rho >= ceil(omega/2) + 2 (the
    balanced trees on seeds 0 and 2); caterpillars; unions of small pieces."""
    small = list(product(range(4), repeat=2))
    for n in range(1, 9):
        for tree in enumerate_cographs(n):
            yield tree, small
    few = [(0, 1), (1, 1), (2, 0), (3, 3)]
    for n, seed in ((500, 0), (1000, 0), (2000, 0), (1000, 1003), (500, 1007)):
        yield random_cotree(n, seed), few
    for n, seed in ((500, 2), (1000, 0), (2000, 2), (2000, 3)):
        yield random_balanced_cotree(n, seed), few
    for depth in (10, 63, 150):
        yield caterpillar(depth), small
    for dsl in ("U(20*K(5))", "U(K(3),K(7),K(9),C(U(3*K(3))))", "U(500*C(U(2*K(2))))",
                "J(U(4*K(3)),U(6*K(2)),I(5))", "C(U(30*K(6)))", "C(U(10*K(10)))"):
        yield parse_expr(dsl), small


def count_calls(monkeypatch, *targets) -> Counter:
    """Wrap each (module, name) target so that it counts its calls under
    "module.name" in the returned Counter."""
    counts = Counter()
    for module, name in targets:
        def counted(*args, _f=getattr(module, name), _key=f"{module.__name__}.{name}"):
            counts[_key] += 1
            return _f(*args)
        monkeypatch.setattr(module, name, counted)
    return counts


def test_derived_parameters_match_reference(monkeypatch):
    """vertex_arboricity and min_deletions give the slow references' answers,
    and vertex_arboricity never folds more often than its reference."""
    folds = count_calls(monkeypatch, (solver, "_frontier_in"), (ref, "_frontier_in"))
    high = 0
    for tree, budgets in derived_inputs():
        folds.clear()
        rho = vertex_arboricity(tree)
        assert rho == ref.vertex_arboricity(tree)
        assert folds["cographpart.solver._frontier_in"] <= folds["slow_reference._frontier_in"]
        assert [min_deletions(tree, p, q) for p, q in budgets] == \
            [ref.min_deletions(tree, p, q) for p, q in budgets]
        high += rho >= (chromatic_number(tree) + 1) // 2 + 2
    assert high >= 3


def test_derived_parameters_fold_once(monkeypatch):
    """min_deletions walks the tree once, and vertex_arboricity folds once
    where rho = ceil(omega/2) + 1, a value its reference reaches in its
    second fold."""
    counts = count_calls(monkeypatch, (cotree, "_fold"), (solver, "_fold"),
                         (solver, "_frontier_in"), (ref, "_frontier_in"))
    for tree in (random_cotree(1000, 1003), random_cotree(500, 1007),
                 random_balanced_cotree(2000, 3)):
        counts.clear()
        min_deletions(tree, 1, 1)
        assert counts["cographpart.cotree._fold"] + counts["cographpart.solver._fold"] == 1
        counts.clear()
        vertex_arboricity(tree)
        ref.vertex_arboricity(tree)
        assert counts["cographpart.solver._frontier_in"] == 1
        assert counts["slow_reference._frontier_in"] == 2


def test_kept_values_match_brute_force():
    """On every cograph with at most 7 vertices, chromatic_number and
    strength_profile equal the brute-force profile at the first and the
    second call, whichever of the two is asked first."""
    for n in range(1, 8):
        for tree in enumerate_cographs(n):
            want = brute_force_strength(realize(tree))
            for first, second in ((chromatic_number, strength_profile),
                                  (strength_profile, chromatic_number)):
                root = copy.copy(tree)  # a new root, with nothing kept on it
                for query in (first, second, first, second):
                    got = query(root)
                    assert got == (want if query is strength_profile else want.omega), \
                        (to_expr(tree), query.__name__)


def count_folds(monkeypatch) -> Counter:
    return count_calls(monkeypatch, (cotree, "_fold"), (solver, "_fold"), (strength, "_fold"))


def test_kept_values_fold_once(monkeypatch):
    """A root is walked once for omega and once for the cocktail pairs:
    strength_profile reads omega from chromatic_number, which keeps it on
    the root, and min_q_feedback reads the kept profile; a second
    feasible_set on a box lighter than omega then makes no fold at all."""
    folds = count_folds(monkeypatch)
    for tree in (random_cotree(1000, 1003), random_balanced_cotree(2000, 3), caterpillar(300)):
        for queries, walks in (((chromatic_number, strength_profile, min_q_feedback), [1, 1, 0]),
                               ((min_q_feedback, strength_profile, chromatic_number), [2, 0, 0])):
            root = copy.copy(tree)
            for query, walked in zip(queries, walks):
                folds.clear()
                query(root)
                assert folds.total() == walked, query.__name__
            for query in queries:
                folds.clear()
                query(root)
                assert folds.total() == 0, query.__name__
        root = copy.copy(tree)
        for walked in (1, 0):
            folds.clear()
            assert feasible_set(root, (1, 1, 1)).frontier == ()
            assert folds.total() == walked


def test_kept_values_start_fresh_on_copies(monkeypatch):
    """A pickled or copied node keeps nothing from its original: it walks
    its own tree and gets equal values. A complement gets its own values
    too, though its original has kept them."""
    folds = count_folds(monkeypatch)
    for tree in (parse_expr("J(U(2*K(3)),I(2))"), random_cotree(60, 5)):
        want = (chromatic_number(tree), strength_profile(tree))
        for back in (pickle.loads(pickle.dumps(tree)), copy.copy(tree), copy.deepcopy(tree)):
            folds.clear()
            assert (chromatic_number(back), strength_profile(back)) == want
            assert folds.total() == 2
    rng = random.Random(34)
    for _ in range(60):
        tree = random_cotree(rng.randint(1, 10), rng)
        chromatic_number(tree), strength_profile(tree)
        comp = complement_tree(tree)
        want = brute_force_strength(realize(comp))
        assert (chromatic_number(comp), strength_profile(comp)) == (want.omega, want), \
            to_expr(tree)


def test_kept_values_cannot_be_set_from_outside():
    tree = parse_expr("J(I(2),K(1))")
    chromatic_number(tree), strength_profile(tree)
    for field in ("_omega", "_profile", "children"):
        with pytest.raises(AttributeError):
            setattr(tree, field, 5)
        with pytest.raises(AttributeError):
            delattr(tree, field)
    assert (chromatic_number(tree), strength_profile(tree)) == (2, StrengthProfile(2, 1, 2))


def test_leaf_root_answers_twice():
    leaf = Leaf(0)
    for _ in range(2):
        assert chromatic_number(leaf) == 1
        assert strength_profile(leaf) == StrengthProfile(1, 0, 1)
        assert min_q_feedback(leaf) == 0
        assert vertex_arboricity(leaf) == 1
        assert feasible_set(leaf, (0, 0, 0)).frontier == ()


def assert_weight_law(tree, box, frontier):
    """Law L5 of the solver's module docstring on a fold's frontier, with
    (0, omega, 0) admitted wherever the box holds it."""
    omega = chromatic_number(tree)
    assert all(m.obstruction_weight() >= omega for m in frontier.frontier), (box, omega)
    if box.dominates(Triple(0, omega, 0)):
        assert frontier.contains((0, omega, 0)), (box, omega)


def test_weight_check_matches_reference_on_small_cographs():
    """feasible_set, which answers a box lighter than omega without a fold,
    equals the reference fold on every cograph with up to 7 vertices at
    every box in {0..3}^3."""
    for n in range(1, 8):
        for tree in enumerate_cographs(n):
            for box in product(range(4), repeat=3):
                box = Triple(*box)
                want = ref.feasible_set(tree, box)
                assert feasible_set(tree, box) == want, (to_expr(tree), box)
                assert_weight_law(tree, box, want)


def weight_check_trees():
    """Seeded trees of 500 to 3,000 leaves: random, balanced, a caterpillar
    and a union of small joins."""
    rng = random.Random(33)
    parts = [random_cotree(rng.randint(5, 20), rng) for _ in range(80)]
    yield random_cotree(3000, 33)
    yield random_cotree(500, 34)
    yield random_balanced_cotree(2000, 35)
    yield caterpillar(600)
    yield relabel(union_of([complement_tree(t) if isinstance(t, Union) else t for t in parts]))


def test_weight_check_matches_reference_on_large_trees():
    """The same equality at boxes weighing omega - 1, omega and omega + 1,
    where the check turns from firing to folding."""
    for tree in weight_check_trees():
        omega = chromatic_number(tree)
        for w in (omega - 1, omega, omega + 1):
            for box in (Triple(0, w, 0), Triple(1, w - 2, 0), Triple(0, w - 2, 2)):
                if min(box) < 0:
                    continue
                want = ref.feasible_set(tree, box)
                assert feasible_set(tree, box) == want, (omega, box)
                assert_weight_law(tree, box, want)
