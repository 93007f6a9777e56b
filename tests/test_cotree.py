"""Tests for cotree construction, the expression language, recognition
and enumeration."""
import gc
import hashlib
import pickle
import random
import re
import weakref

import networkx as nx
import pytest

from cographpart import (
    Graph,
    Join,
    Leaf,
    NotACographError,
    Triple,
    Union,
    canonical_code,
    check_partition,
    complement_tree,
    count_cographs,
    enumerate_cographs,
    extract_certificate,
    feasible_set,
    find_p4,
    height,
    join_of,
    leaf_count,
    leaves,
    max_join_children,
    parse_expr,
    random_balanced_cotree,
    random_cotree,
    realize,
    recognize,
    relabel,
    search_minimal_obstructions,
    to_expr,
    union_of,
)

from cographpart import cotree, obstructions
from cographpart.graph import iter_bits
from cographpart.solver import _certificate

from conftest import has_p4_brute, scrambled

# Unlabelled cographs on 1..13 vertices.
COGRAPH_COUNTS = [1, 2, 4, 10, 24, 66, 180, 522, 1532, 4624, 14136, 43930, 137908]


def assert_normalized(tree):
    """No Union under Union, no Join under Join, internal arity >= 2."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            continue
        assert len(node.children) >= 2
        for c in node.children:
            assert type(c) is not type(node)
            stack.append(c)


def test_nodes_pickle_round_trip():
    """Nodes refuse assignment, so unpickling must not restore their slots
    through __setattr__."""
    for tree in (Leaf(3), parse_expr("J(U(2*K(3)),I(2))"), random_cotree(60, 5)):
        back = pickle.loads(pickle.dumps(tree))
        assert type(back) is type(tree)
        assert to_expr(back) == to_expr(tree)
        assert list(leaves(back)) == list(leaves(tree))


def test_nodes_are_immutable_and_compared_by_identity():
    tree = parse_expr("J(I(2),K(1))")
    for node, field in ((tree, "children"), (tree.children[1], "vertex")):
        with pytest.raises(AttributeError):
            setattr(node, field, None)
        with pytest.raises(AttributeError):
            delattr(node, field)
    with pytest.raises(AttributeError):
        tree.extra = 1
    assert Leaf(0) != Leaf(0)
    assert Union((Leaf(0), Leaf(1))) != Union((Leaf(0), Leaf(1)))
    assert tree == tree and hash(tree) == object.__hash__(tree)
    assert len({Leaf(0), Leaf(0)}) == 2
    assert weakref.ref(tree)() is tree


def test_node_repr_pinned():
    assert repr(parse_expr("J(I(2),K(1))")) == \
        "Join(children=(Union(children=(Leaf(vertex=0), Leaf(vertex=1))), Leaf(vertex=2)))"


def test_union_of_flattens():
    t = union_of([union_of([Leaf(0), Leaf(1)]), Leaf(2)])
    assert isinstance(t, Union)
    assert len(t.children) == 3
    assert_normalized(t)


def test_join_of_flattens():
    t = join_of([join_of([Leaf(0), Leaf(1)]), union_of([Leaf(2), Leaf(3)])])
    assert isinstance(t, Join)
    assert len(t.children) == 3
    assert_normalized(t)


def test_singleton_collapses():
    assert union_of([Leaf(5)]) == Leaf(5) or isinstance(union_of([Leaf(5)]), Leaf)
    assert isinstance(join_of([union_of([Leaf(0), Leaf(1)])]), Union)


def test_empty_child_list_rejected():
    """A Union or Join over no children cannot be built, by hand, through
    union_of and join_of, or nested under a valid root."""
    builders = {"union": (lambda: Union(()), lambda: union_of([]),
                          lambda: Join((Leaf(0), Union(()))),
                          lambda: join_of([Leaf(0), union_of([])])),
                "join": (lambda: Join(()), lambda: join_of([]),
                         lambda: Union((Leaf(0), Join(()))),
                         lambda: union_of([Leaf(0), join_of([Leaf(1), Join(())])]))}
    for kind, makes in builders.items():
        for make in makes:
            with pytest.raises(ValueError, match=f"^{kind} of zero cotrees$"):
                make()


def test_parse_expr_basic():
    t = parse_expr("K(3)")
    assert isinstance(t, Join) and leaf_count(t) == 3
    t = parse_expr("I(4)")
    assert isinstance(t, Union) and leaf_count(t) == 4
    assert isinstance(parse_expr("K(1)"), Leaf)
    t = parse_expr("U(K(2), J(K(1), I(2)))")
    assert leaf_count(t) == 5


def test_parse_expr_multiplier():
    t = parse_expr("3*K(2)")
    assert isinstance(t, Union) and len(t.children) == 3
    assert realize(t).m == 3
    # a multiplied union is flattened into its parent
    t = parse_expr("U(2*I(2), K(1))")
    assert isinstance(t, Union) and len(t.children) == 5


def test_parse_expr_complement():
    t = parse_expr("C(U(2*K(2)))")
    g = realize(t)
    assert g.n == 4 and g.m == 4  # the 4-cycle
    assert not g.is_forest()


def test_parse_expr_errors():
    # the last three use digits of other scripts, which are not numbers
    for bad in ["", "K(0)", "0*K(2)", "K(2) junk", "U(K(2)", "Q(3)", "U()",
                "K(2))", "2*", "K(-1)", "K(\u0663)", "K(\u00b2)", "\u0662*K(1)"]:
        with pytest.raises(ValueError) as info:
            parse_expr(bad)
        position = int(re.search(r"position (\d+)", str(info.value)).group(1))
        assert position <= len(bad)
    for cut in ["", "2*", "U(K(1),", "C( "]:
        expected = f"position {len(cut)}: expected K, I, U, J, C, or a repetition count"
        with pytest.raises(ValueError, match=re.escape(expected)):
            parse_expr(cut)


def test_to_expr_round_trip_enumerated():
    for n in range(1, 7):
        for t in enumerate_cographs(n):
            back = parse_expr(to_expr(t))
            assert canonical_code(back) == canonical_code(t)


def test_to_expr_round_trip_random():
    rng = random.Random(31)
    for _ in range(100):
        t = random_cotree(rng.randrange(1, 30), rng)
        back = parse_expr(to_expr(t))
        assert canonical_code(back) == canonical_code(t)


def test_realize_basic():
    assert realize(parse_expr("K(5)")) == Graph.complete(5)
    assert realize(parse_expr("I(3)")) == Graph(3)
    p3 = realize(parse_expr("J(K(1), I(2))"))
    assert sorted(p3.degree(v) for v in range(3)) == [1, 1, 2]


def test_realize_requires_bijective_labels():
    with pytest.raises(ValueError):
        realize(union_of([Leaf(0), Leaf(2)]))
    with pytest.raises(ValueError):
        realize(union_of([Leaf(0), Leaf(0)]))
    twice = join_of([Leaf(0), Leaf(1)])
    with pytest.raises(ValueError):
        realize(Union((twice, twice)))


def test_recognize_round_trip_on_random_cotrees():
    rng = random.Random(99)
    for _ in range(80):
        t = random_cotree(rng.randrange(1, 25), rng)
        g = realize(t)
        back = recognize(g)
        assert realize(back) == g


def test_recognize_empty_graph():
    assert recognize(Graph(0)) is None


def test_recognize_matches_p4_freeness_on_atlas(atlas):
    hits = 0
    for nxg, g in atlas:
        if g.n == 0:
            continue
        if has_p4_brute(g):
            with pytest.raises(NotACographError) as err:
                recognize(g)
            a, b, c, d = err.value.witness
            # the witness really is an induced path on 4 vertices
            sub = g.induced_subgraph([a, b, c, d])
            assert sub.m == 3
            assert sorted(sub.degree(v) for v in range(4)) == [1, 1, 2, 2]
        else:
            t = recognize(g)
            assert realize(t) == g
            hits += 1
    assert hits == sum(COGRAPH_COUNTS[:7])


def test_find_p4_none_on_cographs():
    rng = random.Random(4)
    for _ in range(40):
        g = realize(random_cotree(rng.randrange(1, 15), rng))
        assert find_p4(g) is None
    assert find_p4(realize(parse_expr("C(U(2*K(2)))"))) is None
    path4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert find_p4(path4) is not None


def test_canonical_code_is_isomorphism_invariant(atlas):
    seen = {}
    for nxg, g in atlas:
        if g.n == 0 or has_p4_brute(g):
            continue
        code = canonical_code(recognize(g))
        for other_code, other_nx in seen.items():
            iso = nx.is_isomorphic(nxg, other_nx)
            assert iso == (code == other_code)
        # keep one representative per vertex count to keep this quadratic
        # loop small
        if g.n <= 5:
            seen[code] = nxg


def test_canonical_code_ignores_child_order():
    a = parse_expr("U(K(3), I(2))")
    b = parse_expr("U(I(2), K(3))")
    assert canonical_code(a) == canonical_code(b)
    assert canonical_code(a) != canonical_code(parse_expr("U(K(3), I(3))"))


def test_complement_tree_matches_graph_complement():
    rng = random.Random(12)
    for _ in range(50):
        t = random_cotree(rng.randrange(1, 20), rng)
        assert realize(complement_tree(t)) == realize(t).complement()
        assert canonical_code(complement_tree(complement_tree(t))) == \
            canonical_code(t)


def test_relabel_orders_leaves():
    t = parse_expr("U(K(2), K(3))")
    assert list(leaves(relabel(t))) == [0, 1, 2, 3, 4]
    shuffled = union_of([Leaf(4), join_of([Leaf(0), Leaf(3)])])
    assert list(leaves(relabel(shuffled))) == [0, 1, 2]


def test_height_and_arity():
    assert height(Leaf(0)) == 0
    assert height(parse_expr("K(4)")) == 1
    assert height(parse_expr("U(J(I(2), K(1)), K(1))")) == 3
    assert max_join_children(parse_expr("I(5)")) == 0
    assert max_join_children(parse_expr("K(4)")) == 4
    assert max_join_children(parse_expr("U(K(3), J(K(2), I(2)))")) == 3


def test_enumerate_counts():
    for n, want in enumerate(COGRAPH_COUNTS, start=1):
        assert count_cographs(n) == want
    assert count_cographs(16) == 4507352
    assert [count_cographs(n) for n in (0, -1)] == [0, 0]
    trees = list(enumerate_cographs(7))
    assert len(trees) == 180
    codes = {canonical_code(t) for t in trees}
    assert len(codes) == 180
    assert all(leaf_count(t) == 7 for t in trees)


def test_count_matches_enumeration():
    """The recurrence against the enumerator, which counts by building."""
    for n in range(1, 12):
        assert count_cographs(n) == sum(1 for _ in enumerate_cographs(n))


def test_count_builds_no_tree(monkeypatch):
    def refuse(*args):
        raise AssertionError("count_cographs built a cotree node")

    for name in ("Leaf", "Union", "Join"):
        monkeypatch.setattr(cotree, name, refuse)
    assert count_cographs(40) > count_cographs(39) > 0


def live_internal_nodes():
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) in (Join, Union))


def test_enumeration_keeps_no_module_state():
    """No cotree outlives the enumeration or search that built it."""
    before = live_internal_nodes()
    assert len(list(enumerate_cographs(9))) == 1532
    search_minimal_obstructions(8, (2, 0, 0))
    assert live_internal_nodes() == before


def test_enumeration_shares_placed_subtrees():
    """Trees that place the same subtree at the same first leaf id hold one
    node for it; 7,114 non-root internal nodes occur across these trees."""
    trees = list(enumerate_cographs(9))
    internal = set()  # nodes hash by identity
    stack = [c for t in trees for c in t.children]
    while stack:
        node = stack.pop()
        if not isinstance(node, Leaf) and node not in internal:
            internal.add(node)
            stack.extend(node.children)
    assert len(internal) < 1000


DELETION_BOXES = [Triple(2, 0, 0), Triple(1, 1, 0), Triple(0, 2, 1), Triple(1, 1, 1)]


def collapsing_vertices(tree):
    """Leaves with a single sibling: deleting one leaves its parent with one
    child, which the recognized subgraph's tree splices into the grandparent."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            continue
        stack.extend(node.children)
        if len(node.children) == 2:
            out.update(c.vertex for c in node.children if isinstance(c, Leaf))
    return out


def assert_deletions_match_recognize(tree, ordered):
    """The one-leaf deletion frontiers of tree's signature, one pass per
    box, are the frontiers of the induced subgraphs without that vertex,
    and the certificate folding tree with that leaf absent certifies each
    feasible box with labels for the other vertices. When tree's children
    come in left-to-right leaf order and no node collapses, the labels are
    those certified on the recognized subgraph."""
    graph = realize(tree)
    same_labels = set(range(graph.n)) - collapsing_vertices(tree) if ordered else set()
    subs = [graph.induced_subgraph([u for u in range(graph.n) if u != v]) for v in range(graph.n)]
    subtrees = [recognize(sub) for sub in subs]
    for box in DELETION_BOXES:
        deleted = {}
        for front, mask in obstructions._signatures((box,))(tree)[1]:
            for v in iter_bits(mask):
                deleted[v] = {m for m in front if box.dominates(Triple(*m))}
        assert sorted(deleted) == list(range(graph.n))
        for v, (sub, subtree) in enumerate(zip(subs, subtrees)):
            want = feasible_set(subtree, box)
            assert deleted[v] == set(want.frontier)
            if want.contains(box):
                cert = _certificate(tree, box, v)
                assert check_partition(sub, cert, box)
                if v in same_labels:
                    assert cert.labels == extract_certificate(subtree, box).labels


def test_delete_leaf_matches_recognize():
    """Deleting a leaf by folding G's own cotree with that leaf absent decides
    and certifies G - v as recognizing the induced subgraph does, on every
    cograph with at most 8 vertices."""
    for n in range(1, 9):
        for tree in enumerate_cographs(n):
            assert_deletions_match_recognize(tree, ordered=True)


def test_delete_leaf_matches_recognize_scrambled():
    """The same on random cotrees whose leaf ids and child order are not the
    left-to-right ones that enumeration and parsing give."""
    rng = random.Random(97)
    for _ in range(200):
        tree = scrambled(random_cotree(rng.randrange(9, 41), rng), rng)
        assert_deletions_match_recognize(tree, ordered=False)


def test_enumerate_order_pinned():
    """Search reports and the enumerate command list cographs in this order."""
    assert [to_expr(t) for t in enumerate_cographs(5)] == [
        "K(5)", "J(K(1),K(1),K(1),I(2))", "J(K(1),K(1),U(K(1),K(2)))", "J(K(1),K(1),I(3))",
        "J(K(1),2*K(2))", "J(K(1),U(2*K(1),K(2)))", "J(K(1),U(K(1),K(3)))",
        "J(K(1),U(K(1),J(K(1),I(2))))", "J(K(1),I(2),I(2))", "J(K(1),I(4))",
        "J(I(2),U(K(1),K(2)))", "J(I(2),I(3))", "U(K(1),2*K(2))", "U(K(2),K(3))",
        "U(K(2),J(K(1),I(2)))", "U(3*K(1),K(2))", "U(2*K(1),K(3))", "U(K(1),K(4))",
        "U(K(1),J(K(1),K(1),I(2)))", "U(K(1),J(K(1),U(K(1),K(2))))", "U(2*K(1),J(K(1),I(2)))",
        "U(K(1),J(K(1),I(3)))", "U(K(1),J(I(2),I(2)))", "I(5)"]
    digest = hashlib.sha256()
    for n in range(1, 10):
        for t in enumerate_cographs(n):
            digest.update(f"{to_expr(t)} {list(leaves(t))}\n".encode())
    assert digest.hexdigest() == "e0e0708302633bae349c0b34c8e85627e452517d4cdbe8e0aebf3e38cda087a3"


def test_enumerate_matches_atlas(atlas):
    """Number of P4-free atlas graphs per order equals the cograph count."""
    per_n = {}
    for nxg, g in atlas:
        if g.n >= 1 and not has_p4_brute(g):
            per_n[g.n] = per_n.get(g.n, 0) + 1
    assert per_n == {n: COGRAPH_COUNTS[n - 1] for n in range(1, 8)}


def test_enumerate_rejects_bad_n():
    with pytest.raises(ValueError):
        list(enumerate_cographs(0))


def test_random_cotree_shape():
    rng = random.Random(7)
    for n in [1, 2, 3, 17, 40]:
        t = random_cotree(n, rng)
        assert leaf_count(t) == n
        assert sorted(leaves(t)) == list(range(n))
        assert_normalized(t)
    # an int seed gives a reproducible tree
    assert canonical_code(random_cotree(12, 5)) == \
        canonical_code(random_cotree(12, 5))
    with pytest.raises(ValueError):
        random_cotree(0, rng)


def test_random_balanced_cotree_shape():
    rng = random.Random(8)
    for n in [1, 2, 1000]:
        t = random_balanced_cotree(n, rng)
        assert leaf_count(t) == n
        assert_normalized(t)
    assert canonical_code(random_balanced_cotree(64, 3)) == \
        canonical_code(random_balanced_cotree(64, 3))
