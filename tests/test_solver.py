"""Tests for the cotree dynamic program, certificates and derived
parameters."""
import hashlib
import random
import tracemalloc
from itertools import accumulate, combinations, product

import networkx as nx
import pytest

from cographpart import (
    Graph,
    Join,
    Leaf,
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
    to_expr,
    vertex_arboricity,
)

from cographpart import solver
from cographpart.cotree import _fold
from cographpart.solver import (
    _ABSENT, _combine, _combine_cache, _frontier_in, _leaf_frontier, _prefix_frontiers, _region,
)

from conftest import from_nx, to_nx

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
    for empty in (Graph(0), None):
        cert = extract_certificate(empty, (0, 0, 0))
        assert cert.labels == ()
        assert check_partition(empty, cert, (0, 0, 0))


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
    assert back == ts and hash(back) == hash(ts)
    assert ts.__eq__(data) is NotImplemented and ts != data
    with pytest.raises(ValueError):
        TripleSet.from_json({"box": [1, 1, 1], "frontier": [[5, 5, 5]]})
    # a member dominating another, or a repeated one, would load as a set
    # unequal to the same triples written minimally
    for frontier in ([[0, 0, 0], [1, 1, 1]], [[0, 2, 0], [0, 1, 0]], [[1, 0, 0], [1, 0, 0]]):
        with pytest.raises(ValueError, match="dominates another"):
            TripleSet.from_json({"box": [2, 2, 2], "frontier": frontier})


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


# the solver bounds p + q and p + r separately, which a box with Q = R cannot test
UNEVEN_BOXES = ((0, 2, 5), (1, 0, 4), (2, 1, 0), (1, 3, 1), (3, 0, 2))


def test_matches_oracle_exhaustively():
    """Every triple in a (2,2,2) box on every cograph with up to 6 vertices,
    and in each uneven box on every cograph with up to 7 vertices."""
    for n in range(1, 8):
        for t in enumerate_cographs(n):
            g = realize(t)
            for box in ((2, 2, 2),) + UNEVEN_BOXES if n <= 6 else UNEVEN_BOXES:
                ts = feasible_set(t, box)
                for trip in product(*(range(k + 1) for k in box)):
                    assert ts.contains(trip) == brute_force_partitionable(g, trip), (box, trip)


def test_weight_check_fires_only_on_infeasible_boxes(monkeypatch):
    """Wherever feasible_set or is_partitionable answers without a fold, on
    every cograph with up to 8 vertices and every box in {0..3}^3, the oracle
    rejects the box's top triple."""
    folds = []
    monkeypatch.setattr(solver, "_frontier_in", lambda *args: folds.append(args) or _frontier_in(*args))
    fired = 0
    for n in range(1, 9):
        for t in enumerate_cographs(n):
            g = realize(t)
            for box in product(range(4), repeat=3):
                folds.clear()
                ts = feasible_set(t, box)
                verdict = is_partitionable(t, box)
                if folds:
                    # the two share the check: both fold, or neither does
                    assert len(folds) == 2
                    continue
                assert ts.frontier == () and not verdict
                assert not brute_force_partitionable(g, box), (g.to_graph6(), box)
                fired += 1
    assert fired > 1000


# the pinned digest below depends on these boxes and their order
DIGEST_BOXES = ((2, 2, 2),) + UNEVEN_BOXES + (
    (3, 3, 3), (0, 0, 3), (1, 1, 1), (4, 0, 0), (0, 4, 0), (0, 0, 8), (1, 1, 8), (5, 5, 5))


def test_frontier_digest_pinned():
    """Every frontier of every cograph on up to 8 vertices, in enumeration
    order, at each digest box: any change to a frontier changes the digest."""
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 9):
        for t in enumerate_cographs(n):
            for box in DIGEST_BOXES:
                digest.update(repr(feasible_set(t, box)).encode())
                count += 1
    assert count == 809 * 14
    assert digest.hexdigest() == "03eb9dfd4009262a2ef035d95a0819ef695195d3f9e013058e7deb7b9a497ed2"


def _naive_minimal(triples):
    return tuple(sorted(
        t for t in triples
        if not any(u != t and all(x >= y for x, y in zip(t, u)) for u in triples)))


def _random_antichain(rng, region):
    """Minimal antichain of 1..25 points in the region, drawn near a plane
    a + b + c = s so that many of them are incomparable."""
    P, PQ, PR = region
    s = rng.randint(0, P + PQ + PR)
    points = set()
    for _ in range(rng.randint(1, 25)):
        a = rng.randint(0, P)
        b = rng.randint(0, PQ - a)
        points.add((a, b, max(0, min(PR - a, s - a - b))))
    return _naive_minimal(points)


def test_combine_matches_naive_antichain():
    """The combine kernel against the minimal antichain of every derive_union
    or derive_join result inside the region, on frontiers far wider than the
    oracle's graphs give."""
    rng = random.Random(1212)
    for _ in range(400):
        P, Q, R = (rng.randint(0, 12) for _ in range(3))
        region = (P, P + Q, P + R)
        fl = _random_antichain(rng, region)
        fr = _random_antichain(rng, region)

        def inside(t):
            return t.p <= P and t.p + t.q <= P + Q and t.p + t.r <= P + R

        unions = [derive_union(tl, tr) for tl in fl for tr in fr]
        joins = [d for tl in fl for tr in fr for d in derive_join(tl, tr)]
        for kind, derived in (("U", unions), ("J", joins)):
            want = _naive_minimal({tuple(d) for d in derived if inside(d)})
            assert _combine(kind, fl, fr, region) == want, (kind, region, fl, fr)


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


def test_fold_restricts_to_smaller_boxes():
    """Law L3 (restriction): on seeded random cotrees with at most 40 leaves,
    the fold at a box B equals the fold at any box B' >= B in {0..3}^3,
    filtered to B."""
    rng = random.Random(19)
    boxes = [Triple(*box) for box in product(range(4), repeat=3)]
    for _ in range(100):
        tree = random_cotree(rng.randint(1, 40), rng)
        folds = {box: _frontier_in(tree, box) for box in boxes}
        for small, big in product(boxes, repeat=2):
            if big.dominates(small):
                inside = tuple(m for m in folds[big] if small.dominates(Triple(*m)))
                assert folds[small] == inside, (to_expr(tree), small, big)


def dominates(t, s) -> bool:
    return all(x >= y for x, y in zip(t, s))


def raised(t) -> tuple[int, int, int]:
    """t as (p, p + q, p + r): a graph's feasible set is closed upward in
    this order too, since an independent class, or a deleted vertex, can
    join a new forest class."""
    p, q, r = t
    return p, p + q, p + r


def random_frontier(rng, region):
    """The minimal members of the region's triples that lie above up to
    three random ones in the raised order: shaped like a graph's frontier.
    A member is minimal when no triple one step below it is kept."""
    P, PQ, PR = region
    points = [(a, b, c) for a in range(P + 1) for b in range(PQ - a + 1) for c in range(PR - a + 1)]
    seeds = [raised(t) for t in rng.sample(points, rng.randint(0, min(3, len(points))))]
    up = {t for t in points if any(dominates(raised(t), s) for s in seeds)}
    steps = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return tuple(t for t in points if t in up and not any(
        tuple(x - d for x, d in zip(t, step)) in up for step in steps))


def law_cases():
    """(kind, region, frontiers to combine in turn): three random frontiers
    in each of 500 random regions with P, Q, R <= 3, under either combine;
    then the children's frontiers at every node of seeded random cotrees
    with at most 40 leaves, folded at random boxes in {0..3}^3."""
    rng = random.Random(37)
    for _ in range(500):
        P, Q, R = (rng.randint(0, 3) for _ in range(3))
        region = (P, P + Q, P + R)
        fronts = [random_frontier(rng, region) for _ in range(3)]
        yield "U", region, fronts
        yield "J", region, fronts
    for _ in range(60):
        tree = random_cotree(rng.randint(2, 40), rng)
        region = _region(Triple(*(rng.randint(0, 3) for _ in range(3))))
        leaf = _leaf_frontier(region)
        cases = []

        def node(n, fronts):
            cases.append(("U" if isinstance(n, Union) else "J", region, fronts))
            return _prefix_frontiers(n, fronts, region)[-1]

        _fold(tree, lambda _: leaf, node)
        yield from cases


def test_combines_commute_and_associate():
    """Law L1: both combines are commutative and associative. (On arbitrary
    antichains the join is not associative: ((0,0,2)) J ((0,1,0), (3,0,0))
    J ((0,4,1), (0,5,0), (1,0,0)) in region (3, 6, 3) differs by (3,2,0)
    between the two groupings. A graph's frontier is not arbitrary; see
    raised.)"""
    for kind, region, fronts in law_cases():
        for f, g in zip(fronts, fronts[1:]):
            assert _combine(kind, f, g, region) == _combine(kind, g, f, region), (kind, region, f, g)
        for f, g, h in zip(fronts, fronts[1:], fronts[2:]):
            left = _combine(kind, _combine(kind, f, g, region), h, region)
            assert left == _combine(kind, f, _combine(kind, g, h, region), region), \
                (kind, region, f, g, h)


def test_absent_is_the_identity_of_both_combines():
    """Law L2: _ABSENT gives back the other operand itself, on either side.
    A frontier equal to it that is another object goes through the
    combine's arithmetic and gives the other operand's members, sorted (a
    leaf's frontier is not)."""
    zero = tuple([(0, 0, 0)])
    assert zero == _ABSENT and zero is not _ABSENT
    for kind, region, fronts in law_cases():
        for f in fronts:
            assert _combine(kind, _ABSENT, f, region) is f is _combine(kind, f, _ABSENT, region)
            assert _combine(kind, zero, f, region) == tuple(sorted(f)) == \
                _combine(kind, f, zero, region), (kind, region, f)


def test_adding_a_child_never_lowers_the_frontier():
    """Law L4 (monotonicity): every member of a combine lies above a member
    of each operand, and so every member of a node's partial product lies
    above a member of the product before it: a graph admits every triple
    its supergraphs admit."""
    for kind, region, fronts in law_cases():
        for f, g in zip(fronts, fronts[1:]):
            out = _combine(kind, f, g, region)
            for operand in (f, g):
                assert all(any(dominates(m, t) for t in operand) for m in out), \
                    (kind, region, f, g)
        products = list(accumulate(fronts, lambda f, g: _combine(kind, f, g, region)))
        for before, after in zip(products, products[1:]):
            assert all(any(dominates(m, t) for t in before) for m in after), (kind, region, fronts)


def test_combines_give_sorted_antichains_in_the_region():
    """Law L6: every combine gives its members sorted, none above another,
    each nonnegative and inside the region."""
    for kind, region, fronts in law_cases():
        P, PQ, PR = region
        for f, g in zip(fronts, fronts[1:]):
            out = _combine(kind, f, g, region)
            assert list(out) == sorted(set(out)), (kind, region, f, g)
            assert not any(dominates(t, s) for s, t in combinations(out, 2)), (kind, region, f, g)
            assert all(min(t) >= 0 and t[0] <= P and t[0] + t[1] <= PQ and t[0] + t[2] <= PR
                       for t in out), (kind, region, f, g)


def test_memo_keeps_one_copy_of_each_frontier():
    """Cached frontiers that are equal as values are one object."""
    _combine_cache.clear()
    rng = random.Random(23)
    for _ in range(6):
        t = random_cotree(rng.randint(40, 200), rng)
        for box in ((2, 2, 2), (3, 0, 5), (1, 1, 8)):
            _frontier_in(t, Triple(*box))
    results = [v for k, v in _combine_cache.items() if k and k[0] in ("U", "J")]
    distinct = set(results)
    assert len(results) > len(distinct)
    assert len({id(v) for v in results}) == len(distinct)


def test_fold_builds_no_transient_candidate_list():
    """A cold fold allocates little beyond the memo it keeps: memory at the
    peak, minus what is still held at the end, stays under 2 MB."""
    _combine_cache.clear()
    tree = random_cotree(1000, 1003)
    tracemalloc.start()
    try:
        vertex_arboricity(tree)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held < 2 << 20, (peak, held)


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


@pytest.mark.parametrize("dsl, triple, labels", [
    # the left prefix J(0, 1) deletes both vertices, one more than its budget
    # after the star: vertex 0 centers the star on the right's Q class {2}
    ("K(3)", (1, 0, 1), ("F1", "R", "F1")),
    # the right side deletes 2 and 3 of its triangle, one more than its budget
    # after the star: vertex 2 centers the star on the left's Q class {0}
    ("J(K(1),U(K(1),K(3)))", (1, 1, 1), ("F1", "Q1", "F1", "R", "Q1")),
    ("K(5)", (3, 0, 0), ("F1", "F2", "F1", "F2", "F3")),
])
def test_certificate_star_centers_pinned(dsl, triple, labels):
    """Star centers are the smallest deleted ids of the surplus side; another
    choice is still valid, so only exact labels see a change of choice."""
    cert = extract_certificate(parse_expr(dsl), triple)
    assert cert.labels == labels


def test_certificate_infeasible_raises():
    with pytest.raises(ValueError):
        extract_certificate(C4_TREE, (0, 1, 0))


def test_certificate_rejects_bad_leaf_ids():
    for ids in ((0, 0), (-1, 0), (0, 2)):
        with pytest.raises(ValueError):
            extract_certificate(Union((Leaf(ids[0]), Leaf(ids[1]))), (1, 0, 0))


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


@pytest.mark.parametrize("p, q", [(0, 2), (1, 1), (2, 0)])
def test_certificate_at_min_deletions(p, q):
    """Certificates at the optimum of min_deletions, where r is large."""
    rng = random.Random(41)
    for _ in range(10):
        t = random_cotree(rng.randint(50, 400), rng)
        target = (p, q, min_deletions(t, p, q))
        assert check_partition(realize(t), extract_certificate(t, target), target)


def test_certificate_json_round_trip():
    cert = extract_certificate(C4_TREE, (0, 2, 0))
    data = cert.to_json()
    assert data == {"labels": [{"v": 0, "class": "Q1"}, {"v": 1, "class": "Q1"},
                               {"v": 2, "class": "Q2"}, {"v": 3, "class": "Q2"}]}
    back = PartitionCertificate.from_json(data, (0, 2, 0))
    assert back.labels == cert.labels
    assert check_partition(C4, back, (0, 2, 0))
    with pytest.raises(ValueError, match="must cover vertices 0..n-1"):
        PartitionCertificate.from_json({"labels": [{"v": 0, "class": "F1"}, {"v": 2, "class": "F1"}]})


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


def _labels_valid(g, labels, triple):
    """Independent judgement of a labelling with networkx."""
    p, q, r = triple
    classes = {}
    for v, label in enumerate(labels):
        classes.setdefault(label, []).append(v)
    nxg = to_nx(g)
    for label, members in classes.items():
        if label == "R":
            if len(members) > r:
                return False
        elif label[0] == "F":
            if int(label[1:]) > p or not nx.is_forest(nxg.subgraph(members)):
                return False
        elif int(label[1:]) > q or nxg.subgraph(members).number_of_edges():
            return False
    return True


def test_check_partition_matches_networkx():
    """Random labellings over F1-F3, Q1-Q2 and R, on cographs and on other
    graphs. On cographs every other labelling is a certificate with one vertex
    moved, and each budget is the labelling's own need with one part nudged,
    so near misses of every kind are common."""
    rng = random.Random(53)
    kinds = ("F1", "F2", "F3", "Q1", "Q2", "R")
    verdicts = []
    for trial in range(300):
        n = rng.randint(8, 60)
        if trial % 2:
            tree = random_cotree(n, rng)
            g = realize(tree)
        else:
            tree = None
            g = from_nx(nx.gnp_random_graph(n, rng.uniform(0.02, 0.2), seed=rng.randrange(1 << 30)))
        if tree is not None and trial % 4 == 1:
            labels = list(extract_certificate(tree, (3, 2, min_deletions(tree, 3, 2))).labels)
        else:
            labels = [rng.choice(kinds) for _ in range(n)]
        labels[rng.randrange(n)] = rng.choice(kinds)
        need = [max([int(x[1:]) for x in labels if x[0] == k], default=0) for k in "FQ"]
        triple = [*need, labels.count("R")]
        triple[rng.randrange(3)] += rng.choice((-1, 0, 0, 1))
        triple = tuple(max(0, x) for x in triple)
        want = _labels_valid(g, labels, triple)
        assert check_partition(g, labels, triple) == want, (g.to_graph6(), labels, triple)
        verdicts.append(want)
    assert 30 <= sum(verdicts) <= 270


def test_check_partition_malformed():
    with pytest.raises(ValueError):
        check_partition(C4, ("Q1", "Q1", "Q2"), (0, 2, 0))
    with pytest.raises(ValueError):
        check_partition(C4, ("Q0", "Q1", "Q1", "Q2"), (0, 2, 0))
    with pytest.raises(ValueError):
        check_partition(C4, ("X1", "Q1", "Q1", "Q2"), (0, 2, 0))
    for label in ("F1\n", "R\n"):
        with pytest.raises(ValueError):
            check_partition(C4, (label, "F1", "F1", "R"), (1, 0, 2))


def test_check_partition_reads_labels_in_vertex_order():
    """Each distinct label is parsed once, at its first vertex: a label over
    budget before a malformed one is a False verdict, not an error."""
    assert not check_partition(C4, ("Q3", "X1", "Q1", "Q1"), (0, 2, 0))
    assert not check_partition(C4, ("F1", "F2", "F2", "Q0"), (1, 0, 0))
    with pytest.raises(ValueError):
        check_partition(C4, ("X1", "Q3", "Q1", "Q1"), (0, 2, 0))


def test_check_partition_names_the_malformed_label():
    for labels in (("Q1", "Q1", "Z9", "Q2"), ("Q1", "Z9", "Z9", "Q2"), ("Z9",) * 4):
        with pytest.raises(ValueError, match="malformed class label 'Z9'"):
            check_partition(C4, labels, (0, 2, 0))


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
    assert min_deletions(parse_expr("K(5)"), 10**9, 3) == 0


def test_min_deletions_rejects_non_integer_budgets():
    """Budgets are checked before the input: a float, bool or str p or q
    raises ValueError on a tree and on the empty graph alike."""
    for graph in (C4_TREE, None):
        for p, q in ((1.5, 0), (0, 1.0), (True, 0), (0, False), ("1", 0), (0, "2")):
            with pytest.raises(ValueError, match="class budgets must be integers"):
                min_deletions(graph, p, q)
        with pytest.raises(ValueError, match="class budgets must be nonnegative"):
            min_deletions(graph, 0, -1)


def test_min_deletions_matches_oracle():
    for n in range(1, 9):
        for t in enumerate_cographs(n):
            g = realize(t)
            for p, q in product(range(3), repeat=2):
                r = min_deletions(t, p, q)
                assert brute_force_partitionable(g, (p, q, r))
                assert r == 0 or not brute_force_partitionable(g, (p, q, r - 1)), (p, q, r)


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
    # bools are ints to Python, but not budgets
    for bad in ((0, -1, 0), (True, 0, 2), (0, 0, False), (0, 2), (0, 2, 0, 0)):
        with pytest.raises(ValueError):
            is_partitionable(C4, bad)
    with pytest.raises(ValueError):
        extract_certificate(parse_expr("K(2)"), (True, 0, 0))
    with pytest.raises(TypeError):
        is_partitionable("C(U(2*K(2)))", (0, 2, 0))
