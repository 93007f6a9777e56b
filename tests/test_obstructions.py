"""Tests for obstruction families, the minimality checker and search."""
import concurrent.futures
import hashlib
import inspect
import json
import os
import random
import sys
from concurrent.futures import Future
from fractions import Fraction
from itertools import combinations, permutations, product

import networkx as nx
import pytest

from cographpart import (
    FAMILY_A2_DSL,
    Graph,
    Triple,
    build_H,
    canonical_code,
    check_partition,
    chromatic_number,
    contains_induced,
    count_Oi,
    count_Oi_report,
    enumerate_cographs,
    family_A2,
    family_Ap,
    family_Ap_dsl,
    family_Oi,
    is_family_free,
    is_minimal_obstruction,
    is_partitionable,
    iter_family_Oi,
    leaf_count,
    parse_expr,
    realize,
    recognize,
    search_minimal_obstructions,
    star_forests,
    to_expr,
    vertex_arboricity,
)
from cographpart import cotree, obstructions
from cographpart.cotree import _as_graph
from cographpart.graph import iter_bits

from conftest import scrambled, to_nx


def codes(trees):
    return {canonical_code(t) for t in trees}


def witness_checks_out(graph, witness):
    """Relabel a deletion witness into the deleted subgraph and validate."""
    kept = sorted(v for v, _ in witness.labels)
    assert kept == [u for u in range(graph.n) if u != witness.vertex]
    sub = graph.induced_subgraph(kept)
    by_vertex = dict(witness.labels)
    labels = tuple(by_vertex[v] for v in kept)
    return check_partition(sub, labels, witness.triple)


def test_family_a2_shapes():
    trees = family_A2()
    assert len(trees) == 7
    assert [leaf_count(t) for t in trees] == [5, 9, 8, 11, 7, 9, 7]
    assert len(codes(trees)) == 7
    for t, dsl in zip(trees, FAMILY_A2_DSL):
        assert canonical_code(t) == canonical_code(parse_expr(dsl))


def test_family_a2_members_are_obstructions():
    for t in family_A2():
        assert not is_partitionable(t, (2, 0, 0))


def test_family_a2_small_members_minimal():
    # the three smallest members in full; the rest are covered in the
    # acceptance suite
    for idx in (0, 4, 6):
        t = family_A2()[idx]
        report = is_minimal_obstruction(t, Triple(2, 0, 0))
        assert report.is_obstruction and report.is_minimal
        g = realize(t)
        assert len(report.witnesses) == g.n
        for w in report.witnesses:
            assert witness_checks_out(g, w)


def test_family_ap_dsl_matches_a2():
    assert family_Ap_dsl(2) == FAMILY_A2_DSL
    assert codes(family_Ap(2)) == codes(family_A2())


def test_family_ap_sizes():
    assert len(family_Ap(3)) == 8
    assert len(family_Ap(4)) == 8
    assert len(family_Ap(5)) == 9
    assert len(codes(family_Ap(3))) == 8
    with pytest.raises(ValueError):
        family_Ap(1)


def test_family_ap3_members_fail_goal():
    for t in family_Ap(3):
        assert not is_partitionable(t, (3, 0, 0))


def test_star_forests_counts():
    assert [len(star_forests(m)) for m in (2, 3, 4, 5)] == [1, 2, 4, 6]
    assert to_expr(star_forests(2)[0]) == "K(2)"
    assert [to_expr(t) for t in star_forests(4)] == [
        "J(K(1),I(3))", "U(J(K(1),I(2)),K(1))", "2*K(2)", "U(K(2),2*K(1))"]
    with pytest.raises(ValueError):
        star_forests(1)


def test_star_forests_are_forests_with_an_edge():
    from cographpart import find_p4
    for m in (2, 3, 4, 5, 6):
        seen = codes(star_forests(m))
        assert len(seen) == len(star_forests(m))
        for t in star_forests(m):
            g = realize(t)
            assert g.n == m
            assert g.is_forest()
            assert g.m >= 1
            assert find_p4(g) is None


def test_family_oi_edge_cases():
    for p in (2, 3):
        zero = family_Oi(p, 0, [])
        want = parse_expr(f"C(U({p + 1}*K({p + 1})))")
        assert canonical_code(zero) == canonical_code(want)
        top = family_Oi(p, p, [star_forests(2)[0]] * p)
        assert canonical_code(top) == canonical_code(parse_expr(f"K({2 * p + 1})"))


def test_family_oi_vertex_count():
    for f in star_forests(4):
        assert leaf_count(family_Oi(3, 1, [f])) == 13


def test_family_oi_rejects_wrong_forest():
    with pytest.raises(ValueError):
        family_Oi(3, 1, [star_forests(3)[0]])  # needs forests on 4 vertices
    with pytest.raises(ValueError):
        family_Oi(3, 1, [parse_expr("I(4)")])  # not a star forest


def test_count_oi():
    assert count_Oi(2, 0) == 1 and count_Oi(3, 0) == 1
    assert count_Oi(3, 1) == 4
    assert count_Oi(2, 2) == 1 and count_Oi(3, 3) == 1
    assert [count_Oi(3, i) for i in range(4)] == [1, 4, 3, 1]


def test_count_oi_report_flags_formula():
    rep = count_Oi_report(3, 1)
    assert (rep.distinct, rep.multiset_count) == (4, 4)
    assert rep.formula_matches
    rep = count_Oi_report(3, 2)
    assert (rep.distinct, rep.multiset_count) == (3, 3)
    assert rep.formula_value == Fraction(2)
    assert not rep.formula_matches
    rep = count_Oi_report(3, 3)
    assert rep.distinct == 1
    assert rep.formula_value == Fraction(1, 6)
    assert not rep.formula_matches


@pytest.mark.parametrize("p, i", [(3, -1), (2, 3), (1, 0), (1, 1)])
@pytest.mark.parametrize("build", [
    lambda p, i: list(iter_family_Oi(p, i)), count_Oi, count_Oi_report,
], ids=["iter_family_Oi", "count_Oi", "count_Oi_report"])
def test_family_oi_checks_p_and_i_first(build, p, i):
    with pytest.raises(ValueError, match="^requires "):
        build(p, i)


def test_iter_family_oi_members_distinct():
    members = list(iter_family_Oi(3, 2))
    assert len(members) == 3
    assert len(codes(members)) == 3
    for t in members:
        assert leaf_count(t) == 3 * (3 + 2 - 2) + 1


def test_build_h_first_level():
    g1 = parse_expr("C(U(3*K(3)))")
    h = build_H(g1, g1, 2)
    assert leaf_count(h) == 22
    assert to_expr(h) == "J(2*J(I(3),I(3),I(3)),I(4))"
    assert vertex_arboricity(h) == 4
    assert chromatic_number(h) == 4
    report = is_minimal_obstruction(h, Triple(3, 0, 0))
    assert report.is_minimal


def test_build_h_iterates():
    g1 = parse_expr("C(U(3*K(3)))")
    h = build_H(g1, g1, 2)
    h2 = build_H(h, h, 3)
    assert leaf_count(h2) == 49
    assert is_minimal_obstruction(h2, Triple(4, 0, 0)).is_minimal


def test_build_h_scrambled_inputs():
    """build_H decides its inputs' minimality by their leaves, whatever
    their ids and child order."""
    g1 = parse_expr("C(U(3*K(3)))")
    rng = random.Random(3)
    want = canonical_code(build_H(g1, g1, 2))
    assert canonical_code(build_H(scrambled(g1, rng), scrambled(g1, rng), 2)) == want


def test_build_h_rejects_bad_inputs():
    g1 = parse_expr("C(U(3*K(3)))")
    # K_5 is a minimal obstruction for (2,0,0) but has chromatic number 5
    with pytest.raises(ValueError):
        build_H(g1, parse_expr("K(5)"), 2)
    # K_4 is not an obstruction for (2,0,0) at all
    with pytest.raises(ValueError):
        build_H(g1, parse_expr("K(4)"), 2)


def test_is_minimal_obstruction_k5():
    report = is_minimal_obstruction(parse_expr("K(5)"), Triple(2, 0, 0))
    assert report.is_obstruction and report.is_minimal
    assert report.goal == (Triple(2, 0, 0),)
    assert len(report.witnesses) == 5
    g = Graph.complete(5)
    for w in report.witnesses:
        assert w.triple == Triple(2, 0, 0)
        assert witness_checks_out(g, w)
    data = report.to_json()
    assert data["minimal"] and data["obstruction"]
    assert Graph.from_graph6(data["graph6"]) == g
    assert len(data["witnesses"]) == 5


def test_is_minimal_obstruction_k6():
    report = is_minimal_obstruction(parse_expr("K(6)"), Triple(2, 0, 0))
    assert report.is_obstruction
    assert not report.is_minimal
    assert report.failing_vertex is not None
    assert report.witnesses == ()
    assert "witnesses" not in report.to_json()


def test_is_minimal_obstruction_feasible_graph():
    report = is_minimal_obstruction(parse_expr("K(4)"), Triple(2, 0, 0))
    assert not report.is_obstruction and not report.is_minimal
    cx = report.counterexample
    assert cx is not None
    assert check_partition(Graph.complete(4), cx.labels, cx.triple)


@pytest.mark.parametrize("dsl, goal, text", [
    ("K(3)", (1, 0, 0),
     '{"graph6": "Bw", "dsl": "K(3)", "goal": [[1, 0, 0]], "obstruction": true, '
     '"minimal": true, "witnesses": ['
     '{"vertex": 0, "triple": [1, 0, 0], "labels": [[1, "F1"], [2, "F1"]]}, '
     '{"vertex": 1, "triple": [1, 0, 0], "labels": [[0, "F1"], [2, "F1"]]}, '
     '{"vertex": 2, "triple": [1, 0, 0], "labels": [[0, "F1"], [1, "F1"]]}]}'),
    ("K(4)", (1, 0, 0),
     '{"graph6": "C~", "dsl": "K(4)", "goal": [[1, 0, 0]], "obstruction": true, '
     '"minimal": false, "failing_vertex": 0}'),
    ("I(3)", [(1, 0, 0), (0, 1, 0)],
     '{"graph6": "B?", "dsl": "I(3)", "goal": [[0, 1, 0], [1, 0, 0]], '
     '"obstruction": false, "minimal": false, '
     '"counterexample": {"triple": [0, 1, 0], "labels": ["Q1", "Q1", "Q1"]}}'),
    # deleting vertex 4 leaves the union U(K(1),K(2)) with K(2) alone under
    # it; the witness splits the root join with K(2) kept there, not spliced in
    ("J(I(2),I(2),U(K(1),K(2)))", (2, 0, 0),
     '{"graph6": "F]~vg", "dsl": "J(I(2),I(2),U(K(1),K(2)))", "goal": [[2, 0, 0]], '
     '"obstruction": true, "minimal": true, "witnesses": ['
     '{"vertex": 0, "triple": [2, 0, 0], "labels": '
     '[[1, "F1"], [2, "F2"], [3, "F2"], [4, "F1"], [5, "F1"], [6, "F2"]]}, '
     '{"vertex": 1, "triple": [2, 0, 0], "labels": '
     '[[0, "F1"], [2, "F2"], [3, "F2"], [4, "F1"], [5, "F1"], [6, "F2"]]}, '
     '{"vertex": 2, "triple": [2, 0, 0], "labels": '
     '[[0, "F2"], [1, "F2"], [3, "F1"], [4, "F1"], [5, "F1"], [6, "F2"]]}, '
     '{"vertex": 3, "triple": [2, 0, 0], "labels": '
     '[[0, "F2"], [1, "F2"], [2, "F1"], [4, "F1"], [5, "F1"], [6, "F2"]]}, '
     '{"vertex": 4, "triple": [2, 0, 0], "labels": '
     '[[0, "F1"], [1, "F1"], [2, "F2"], [3, "F2"], [5, "F1"], [6, "F2"]]}, '
     '{"vertex": 5, "triple": [2, 0, 0], "labels": '
     '[[0, "F1"], [1, "F1"], [2, "F2"], [3, "F2"], [4, "F1"], [6, "F2"]]}, '
     '{"vertex": 6, "triple": [2, 0, 0], "labels": '
     '[[0, "F1"], [1, "F1"], [2, "F2"], [3, "F2"], [4, "F1"], [5, "F2"]]}]}'),
], ids=["minimal", "failing-vertex", "counterexample", "collapse"])
def test_report_json_pinned(dsl, goal, text):
    assert json.dumps(is_minimal_obstruction(parse_expr(dsl), goal).to_json()) == text


def test_is_minimal_obstruction_ifvs():
    for q in (0, 1, 2):
        report = is_minimal_obstruction(parse_expr(f"K({q + 3})"),
                                        Triple(1, q, 0))
        assert report.is_minimal
        report = is_minimal_obstruction(parse_expr(f"C(U({q + 2}*K(2)))"),
                                        Triple(1, q, 0))
        assert report.is_minimal


@pytest.mark.parametrize("goal", [
    [Triple(2, 0, 0)], [Triple(1, 1, 0)], [Triple(0, 2, 1), Triple(0, 1, 2)]])
def test_failing_vertex_is_least(goal):
    """failing_vertex is the least vertex whose induced subgraph, recognized
    from the graph, is infeasible for every goal triple; there is none
    exactly when the obstruction is minimal. Each tree is also given as a
    scrambled copy, whose leaf ids are not in leaf order, and the per-tree
    test _is_minimal agrees with the report on every input."""
    rng = random.Random(5)
    seen = 0
    for n in range(1, 8):
        for tree in (t for e in enumerate_cographs(n) for t in (e, scrambled(e, rng))):
            report = is_minimal_obstruction(tree, goal)
            assert obstructions._is_minimal(tree, report.goal) == report.is_minimal
            if not report.is_obstruction:
                continue
            seen += 1
            graph = realize(tree)
            failing = [v for v in range(n) if not any(
                is_partitionable(recognize(graph.induced_subgraph(
                    [u for u in range(n) if u != v])), t) for t in goal)]
            assert report.failing_vertex == (failing[0] if failing else None)
            assert report.is_minimal == (not failing)
    assert seen


def test_goal_set_normalization():
    report = is_minimal_obstruction(parse_expr("K(5)"),
                                    [(2, 0, 0), (2, 0, 0), Triple(2, 0, 0)])
    assert report.goal == (Triple(2, 0, 0),)
    with pytest.raises(ValueError):
        is_minimal_obstruction(parse_expr("K(5)"), [])


def test_contains_induced_basic():
    assert contains_induced(Graph.complete(6), Graph.complete(5))
    assert not contains_induced(realize(parse_expr("C(U(3*K(3)))")),
                                Graph.complete(5))
    c4 = realize(parse_expr("C(U(2*K(2)))"))
    assert contains_induced(realize(parse_expr("C(U(3*K(2),K(1)))")), c4)
    assert not contains_induced(Graph.complete(6), c4)
    assert contains_induced(c4, Graph(1))
    assert contains_induced(c4, Graph(0))
    assert contains_induced(Graph(0), Graph(0))
    assert contains_induced(None, Graph(0))
    assert not contains_induced(None, Graph(1))
    assert not contains_induced(Graph(2), Graph.complete(2))


def test_contains_induced_matches_subset_scan():
    rng = random.Random(71)
    for _ in range(40):
        hn = rng.randrange(1, 8)
        pn = rng.randrange(1, min(hn, 5) + 1)
        host = Graph.from_edge_list(hn, [
            (u, v) for u, v in combinations(range(hn), 2)
            if rng.random() < 0.5])
        pat = Graph.from_edge_list(pn, [
            (u, v) for u, v in combinations(range(pn), 2)
            if rng.random() < 0.5])
        slow = any(
            nx.is_isomorphic(to_nx(host.induced_subgraph(sub)), to_nx(pat))
            for sub in combinations(range(hn), pn))
        assert contains_induced(host, pat) == slow


def _slow_contains_induced(host, pattern) -> bool:
    """True when some vertex subset of host induces a copy of pattern.

    The recursive backtracking that contains_induced replaced, kept
    verbatim as a slow reference.

    Exact backtracking: pattern vertices are matched in an order that keeps
    each new vertex adjacent to already-placed ones where possible, and
    candidates are pruned by degree and co-degree.
    """
    h = _as_graph(host)
    pat = _as_graph(pattern)
    if pat.n == 0:
        return True
    if pat.n > h.n:
        return False

    pdeg = [pat.degree(v) for v in range(pat.n)]
    order: list[int] = []
    placed = 0
    for _ in range(pat.n):
        best = max(
            (v for v in range(pat.n) if not placed >> v & 1),
            key=lambda v: (bin(pat.row(v) & placed).count("1"), pdeg[v], -v))
        order.append(best)
        placed |= 1 << best
    placed_before = []
    acc = 0
    for v in order:
        placed_before.append(acc)
        acc |= 1 << v

    hdeg = [h.degree(x) for x in range(h.n)]
    cands = []
    for v in order:
        mask = 0
        codeg = pat.n - 1 - pdeg[v]
        for x in range(h.n):
            if hdeg[x] >= pdeg[v] and h.n - 1 - hdeg[x] >= codeg:
                mask |= 1 << x
        cands.append(mask)

    image = [0] * pat.n  # host bit chosen for each pattern vertex

    def walk(i: int, used: int) -> bool:
        if i == pat.n:
            return True
        v = order[i]
        required = 0
        for u in iter_bits(pat.row(v) & placed_before[i]):
            required |= image[u]
        for x in iter_bits(cands[i] & ~used):
            bit = 1 << x
            if h.row(x) & used == required:
                image[v] = bit
                if walk(i + 1, used | bit):
                    return True
        return False

    return walk(0, 0)


def test_contains_induced_matches_slow_reference_on_cographs():
    """Every call is_family_free makes for family_A2 on every 10-vertex
    cograph, and the one-forest patterns K(q+3) and C(U((q+2)*K(2))) for
    q <= 3 on every 9-vertex cograph. Each one-forest chain grows by
    induced subgraphs, so once the reference finds a member absent, the
    larger ones are absent too. (The full cross product on 10 vertices
    takes the reference about 17 s.)"""
    family = sorted((realize(t) for t in family_A2()), key=lambda m: m.n)
    for tree in enumerate_cographs(10):
        g = realize(tree)
        for member in family:
            want = _slow_contains_induced(g, member)
            assert contains_induced(g, member) == want
            if want:
                break
    chains = [[Graph.complete(q + 3) for q in range(4)],
              [realize(parse_expr(f"C(U({q + 2}*K(2)))")) for q in range(4)]]
    for tree in enumerate_cographs(9):
        g = realize(tree)
        for chain in chains:
            want = True
            for pattern in chain:
                want = want and _slow_contains_induced(g, pattern)
                assert contains_induced(g, pattern) == want


def gnp(rng, n, p):
    return Graph.from_edge_list(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def test_contains_induced_matches_slow_reference_random():
    """Seeded G(n, p) pairs, host on at most 10 vertices and p drawn from
    {0.2, 0.5, 0.8} for each side; a third of the patterns have the host's
    size and a third one vertex less, where the degree test decides most."""
    rng = random.Random(16)
    verdicts = {True: 0, False: 0}
    for _ in range(3000):
        hn = rng.randrange(1, 11)
        pn = rng.choice((hn, hn - 1, rng.randrange(1, hn + 1)))
        host = gnp(rng, hn, rng.choice((0.2, 0.5, 0.8)))
        pat = gnp(rng, pn, rng.choice((0.2, 0.5, 0.8)))
        want = _slow_contains_induced(host, pat)
        assert contains_induced(host, pat) == want
        verdicts[want] += 1
    assert min(verdicts.values()) > 500


def scan_contains(host, pat):
    """Some k-subset of host, in some order, has pattern's adjacency."""
    k = pat.n
    return any(all(host.has_edge(t[a], t[b]) == pat.has_edge(a, b)
                   for a, b in combinations(range(k), 2))
               for sub in combinations(range(host.n), k) for t in permutations(sub))


def test_contains_induced_matches_exhaustive_scan(atlas):
    """Every atlas graph on at most 6 vertices as host against every atlas
    graph on at most 4 as pattern, by a scan that uses nothing of
    obstructions."""
    hosts = [g for _, g in atlas if g.n <= 6]
    patterns = [g for _, g in atlas if g.n <= 4]
    assert (len(hosts), len(patterns)) == (209, 19)
    found = 0
    for host in hosts:
        for pat in patterns:
            want = scan_contains(host, pat)
            assert contains_induced(host, pat) == want
            found += want
    assert 0 < found < len(hosts) * len(patterns)


def test_contains_induced_large_pattern_without_recursion():
    """The masks live on an explicit stack, so a 1,100-vertex pattern
    needs no more than the default recursion limit."""
    assert sys.getrecursionlimit() <= 1000
    assert contains_induced(Graph.complete(1150), Graph.complete(1100))
    assert not contains_induced(Graph(1150), Graph.complete(1100))


def test_family_free_calls_contains_induced_once_per_member(monkeypatch):
    """is_family_free looks contains_induced up by its module-global name,
    once per member tried, so wrapping that name sees every member tried:
    one for K(5), which is the smallest member, and all seven for a
    family-free graph."""
    calls = []

    def counting(host, pattern):
        calls.append(pattern.n)
        return contains_induced(host, pattern)

    monkeypatch.setattr(obstructions, "contains_induced", counting)
    assert not is_family_free(Graph.complete(5), family_A2())
    assert calls == [5]
    calls.clear()
    forest = Graph.from_edge_list(6, [(0, 1), (0, 2), (3, 4)])
    assert is_family_free(forest, family_A2())
    assert calls == sorted(leaf_count(t) for t in family_A2())


def test_is_family_free():
    forest = Graph.from_edge_list(6, [(0, 1), (0, 2), (3, 4)])
    assert is_family_free(forest, family_A2())
    assert not is_family_free(Graph.complete(5), family_A2())
    assert not is_family_free(realize(parse_expr("C(U(3*K(3)))")), family_A2())
    assert is_family_free(forest, [])
    assert is_family_free(Graph(0), family_A2())
    assert is_family_free(None, family_A2())


def test_search_arboricity_one():
    reports = search_minimal_obstructions(4, Triple(1, 0, 0))
    found = {r.dsl for r in reports}
    want = {to_expr(parse_expr("K(3)")), to_expr(parse_expr("C(U(2*K(2)))"))}
    assert found == want


def test_search_ifvs_q1():
    reports = search_minimal_obstructions(7, Triple(1, 1, 0))
    got = {canonical_code(parse_expr(r.dsl)) for r in reports}
    want = codes([parse_expr("K(4)"), parse_expr("C(U(3*K(2)))")])
    assert got == want
    for r in reports:
        assert r.is_minimal
        g = realize(parse_expr(r.dsl))
        for w in r.witnesses:
            assert witness_checks_out(g, w)


def test_search_two_triple_goal_invariants():
    goal = [Triple(1, 0, 0), Triple(0, 2, 0)]
    reports = search_minimal_obstructions(6, goal)
    assert reports
    for r in reports:
        t = parse_expr(r.dsl)
        assert not is_partitionable(t, (1, 0, 0))
        assert not is_partitionable(t, (0, 2, 0))
        g = realize(t)
        assert len(r.witnesses) == g.n
        for w in r.witnesses:
            assert w.triple in (Triple(0, 2, 0), Triple(1, 0, 0))
            assert witness_checks_out(g, w)


def test_search_parallel_matches_serial():
    serial = search_minimal_obstructions(6, Triple(2, 0, 0))
    parallel = search_minimal_obstructions(6, Triple(2, 0, 0), jobs=2)
    assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]
    # K_5 is the only member with at most 6 vertices
    assert [r.dsl for r in serial] == ["K(5)"]


def slow_search(n_max, goal):
    """Every cograph on <= n_max vertices through is_minimal_obstruction,
    keeping the minimal ones in the search's order."""
    found = [((n, canonical_code(tree)), report)
             for n in range(1, n_max + 1) for tree in enumerate_cographs(n)
             if (report := is_minimal_obstruction(tree, goal)).is_minimal]
    found.sort(key=lambda item: item[0])
    return [report.to_json() for _, report in found]


@pytest.mark.parametrize("goal", [
    Triple(2, 0, 0), Triple(1, 1, 0), [Triple(0, 2, 1), Triple(0, 1, 2)]])
def test_search_matches_slow_reference(goal):
    want = slow_search(9, goal)
    assert want
    for jobs in (1, 2):
        reports = search_minimal_obstructions(9, goal, jobs=jobs)
        assert [r.to_json() for r in reports] == want


@pytest.mark.parametrize("n_max, goal, digest", [
    (10, Triple(2, 0, 0), "4f28abfe0e0108d949851d0b7e476f8c8538baa42e7eba6e945a56184596bd08"),
    (10, Triple(1, 1, 0), "447e1b6e7dee25aea9f48d81c6fab4bb2b2ab25057b90ff73c4a99cb92815890"),
    (10, [Triple(0, 2, 1), Triple(0, 1, 2)],
     "4d06c536254d0c956251cb8e19d2a6ef2c12f2b685848f7f590a711f8827b724"),
    (10, Triple(1, 2, 0), "82562d6a4276464a0bdd878bb02da2060d4ee709e9b00b75eb2dd33df87eb7e1"),
    (11, Triple(2, 0, 0), "babcfd8b95f479036d799210ed6a310c9d8b39ef5b5ff20d214bb049b7ed4849"),
], ids=["200", "110", "021-012", "120", "200-n11"])
def test_search_reports_pinned(n_max, goal, digest):
    """The search's reports at n <= 10 (and n <= 11 on (2,0,0)), pinned apart
    from the report code that test_search_matches_slow_reference compares
    them with."""
    reports = search_minimal_obstructions(n_max, goal)
    text = json.dumps([r.to_json() for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


FAST_PATH_GOALS = [Triple(*t) for t in product(range(3), repeat=3)] + [
    [Triple(0, 2, 1), Triple(0, 1, 2)], [Triple(1, 0, 1), Triple(0, 2, 0)],
    [Triple(2, 0, 0), Triple(0, 3, 0)]]


def fast_path_disagreements(n_max, goal):
    """Cographs on <= n_max vertices where the search's minimality test and
    _is_minimal disagree, with one test per vertex count run in enumeration
    order, as the search runs it."""
    goal_t = obstructions._normalize_goal(goal)
    bad = []
    for n in range(1, n_max + 1):
        is_minimal = obstructions._minimality_test(goal_t)
        bad += [to_expr(tree) for tree in enumerate_cographs(n)
                if is_minimal(tree) != obstructions._is_minimal(tree, goal_t)]
    return bad


@pytest.mark.parametrize("goal", FAST_PATH_GOALS, ids=lambda goal: "-".join(
    "".join(map(str, t)) for t in (goal if isinstance(goal, list) else [goal])))
def test_minimality_test_matches_slow_reference(goal):
    """The search's test, which keeps frontiers per shared subtree, against
    the per-tree deletion folds on every cograph with <= 8 vertices."""
    assert fast_path_disagreements(8, goal) == []


def test_minimality_test_matches_slow_reference_n10():
    assert fast_path_disagreements(10, Triple(2, 0, 0)) == []


def test_search_rejects_jobs_below_one():
    for jobs in (0, -4):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            search_minimal_obstructions(4, (1, 0, 0), jobs=jobs)


def test_search_caps_jobs_at_cpu_count(monkeypatch):
    """Also with three CPUs: three strides run, and at n = 1 and n = 2 there
    are fewer cographs than strides."""
    workers = []

    class InProcessPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    for cpus, n_max in ((os.cpu_count() or 1, 6), (3, 8)):
        workers.clear()
        with monkeypatch.context() as patch:
            patch.setattr(os, "cpu_count", lambda: cpus)
            capped = search_minimal_obstructions(n_max, Triple(2, 0, 0), jobs=10**6)
        assert workers == ([] if cpus == 1 else [cpus])
        serial = search_minimal_obstructions(n_max, Triple(2, 0, 0))
        assert [r.to_json() for r in capped] == [r.to_json() for r in serial]


def test_search_pickles_no_cotree(monkeypatch):
    """Each worker enumerates its own stride, so only reports cross a
    process boundary."""
    serial = search_minimal_obstructions(7, (2, 0, 0))

    def refuse(node):
        raise TypeError("a cotree was pickled")

    monkeypatch.setattr(cotree._Node, "__reduce__", refuse)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    parallel = search_minimal_obstructions(7, (2, 0, 0), jobs=2)
    assert [r.to_json() for r in parallel] == [r.to_json() for r in serial]


def test_search_enumerates_once_per_vertex_count(monkeypatch):
    """The search draws its cographs from one enumerate_cographs generator
    per vertex count, so wrapping that name sees every cograph examined."""
    assert inspect.isgeneratorfunction(enumerate_cographs)
    calls = []

    def counting(n):
        calls.append(n)
        return enumerate_cographs(n)

    monkeypatch.setattr(obstructions, "enumerate_cographs", counting)
    search_minimal_obstructions(6, (2, 0, 0))
    assert calls == [1, 2, 3, 4, 5, 6]
