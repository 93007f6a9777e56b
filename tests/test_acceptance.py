"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package: the obstruction
catalogs are exactly right, the dynamic program agrees with brute force,
the derived-parameter formulas hold exhaustively, and the solver scales
linearly in the cotree size. Several tests sweep every cograph up to a
fixed order, so this module is noticeably slower than the unit tests.
"""
import random
import time
from itertools import product

from cographpart import (
    Graph,
    Join,
    Triple,
    Union,
    brute_force_partitionable,
    build_H,
    canonical_code,
    check_partition,
    chromatic_number,
    contains_induced,
    count_Oi_report,
    derive_join,
    enumerate_cographs,
    extract_certificate,
    family_A2,
    family_Ap,
    feasible_set,
    height,
    is_family_free,
    is_minimal_obstruction,
    is_partitionable,
    iter_family_Oi,
    leaf_count,
    max_join_children,
    parse_expr,
    q_from_strength,
    random_balanced_cotree,
    random_cotree,
    realize,
    search_minimal_obstructions,
    strength_profile,
    to_expr,
    vertex_arboricity,
)
from cographpart import solver
from cographpart.solver import _combine_cache


def _deletion_witnesses_valid(graph, report):
    for w in report.witnesses:
        kept = sorted(v for v, _ in w.labels)
        by_vertex = dict(w.labels)
        labels = tuple(by_vertex[v] for v in kept)
        if not check_partition(graph.induced_subgraph(kept), labels, w.triple):
            return False
    return len(report.witnesses) == graph.n


def test_catalog_of_two_forest_obstructions():
    start = time.perf_counter()
    trees = family_A2()
    assert [leaf_count(t) for t in trees] == [5, 9, 8, 11, 7, 9, 7]
    for t in trees:
        report = is_minimal_obstruction(t, Triple(2, 0, 0))
        assert report.is_obstruction and report.is_minimal
        assert _deletion_witnesses_valid(realize(t), report)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS 1: all 7 catalog members minimal for (2,0,0) "
          f"in {elapsed:.2f}s")


def test_arboricity_two_iff_catalog_free():
    catalog = [realize(t) for t in family_A2()]
    checked = 0
    for n in range(1, 12):
        for t in enumerate_cographs(n):
            g = realize(t)
            assert (vertex_arboricity(t) <= 2) == is_family_free(g, catalog)
            checked += 1
    assert checked == 21101
    print(f"PASS 2: arboricity <= 2 matches catalog-freeness on all "
          f"{checked} cographs with at most 11 vertices")


def test_arboricity_three_iff_list_free(arboricity_three_obstructions):
    """The complete (3,0,0) list on hosts larger than any enumeration
    reaches: rho(G) <= 3 exactly when G is free of the list. Seed 11 keeps
    the first 300 random cotrees on 12-36 vertices (omega <= 36 holds for
    all); seed 12 the first 300 on 14-40 vertices with omega <= 6, whose
    rho = 4 no K(7) settles. Both sweeps hold rho = 4 hosts, so the
    boundary is crossed."""
    members = [realize(parse_expr(r.dsl)) for r in arboricity_three_obstructions]
    for seed, lo, hi, max_omega in ((11, 12, 36, 36), (12, 14, 40, 6)):
        rng = random.Random(seed)
        hosts = []
        while len(hosts) < 300:
            t = random_cotree(rng.randint(lo, hi), rng)
            if chromatic_number(t) <= max_omega:
                hosts.append(t)
        rhos = [vertex_arboricity(t) for t in hosts]
        for t, rho in zip(hosts, rhos):
            assert (rho <= 3) == is_family_free(realize(t), members), (seed, to_expr(t))
        assert 4 in rhos, seed
        print(f"PASS: seed {seed}, {rhos.count(4)} of 300 hosts with rho = 4")


def test_one_forest_characterization():
    patterns = {q: (Graph.complete(q + 3),
                    realize(parse_expr(f"C(U({q + 2}*K(2)))")))
                for q in range(4)}
    checked = 0
    for n in range(1, 11):
        for t in enumerate_cographs(n):
            g = realize(t)
            for q, (clique, cocktail) in patterns.items():
                free = not (contains_induced(g, clique)
                            or contains_induced(g, cocktail))
                assert is_partitionable(t, (1, q, 0)) == free
                checked += 1
    reports = search_minimal_obstructions(7, Triple(1, 1, 0))
    found = {canonical_code(parse_expr(r.dsl)) for r in reports}
    want = {canonical_code(parse_expr("K(4)")),
            canonical_code(parse_expr("C(U(3*K(2)))"))}
    assert found == want
    print(f"PASS 3: one-forest feasibility matches forbidden-pair freeness "
          f"({checked} graph/q checks); search finds exactly the two "
          f"obstructions")


def test_strength_formula_for_q():
    def assert_least_q(t, f):
        assert is_partitionable(t, (1, f, 0))
        assert f == 0 or not is_partitionable(t, (1, f - 1, 0))

    for n in range(2, 11):
        for t in enumerate_cographs(n):
            assert_least_q(t, q_from_strength(strength_profile(t).strength))
    rng = random.Random(1402)
    for _ in range(1000):
        t = random_cotree(rng.randrange(2, 201), rng)
        assert_least_q(t, q_from_strength(strength_profile(t).strength))
    print("PASS 4: q equals strength minus two on all cographs with 2..10 "
          "vertices and 1000 random cotrees up to 200 leaves")


def test_solver_matches_brute_force():
    mismatches = 0
    combos = 0
    for n in range(1, 9):
        for t in enumerate_cographs(n):
            g = realize(t)
            ts = feasible_set(t, (3, 3, 3))
            for trip in product(range(4), repeat=3):
                combos += 1
                if ts.contains(trip) != brute_force_partitionable(g, trip):
                    mismatches += 1
    assert mismatches == 0
    print(f"PASS 5: solver agrees with brute force on {combos} "
          f"graph/triple combinations, zero mismatches")


def test_three_forest_families():
    for t in family_Ap(3):
        assert is_minimal_obstruction(t, Triple(3, 0, 0)).is_minimal
    census = []
    for i in range(4):
        members = list(iter_family_Oi(3, i))
        for t in members:
            assert leaf_count(t) == 3 * (3 + 2 - i) + 1
            assert is_minimal_obstruction(t, Triple(3, 0, 0)).is_minimal
        rep = count_Oi_report(3, i)
        assert rep.distinct == len(members)
        census.append(f"i={i}: {rep.distinct} distinct, formula "
                      f"{rep.formula_value}"
                      + ("" if rep.formula_matches else " (differs)"))
    print("PASS 6: all 8 generalized members and all 9 star-forest joins "
          "minimal for (3,0,0); " + "; ".join(census))


def test_join_construction_tower():
    start = time.perf_counter()
    g1 = parse_expr("C(U(3*K(3)))")
    h = build_H(g1, g1, 2)
    assert leaf_count(h) == 22
    assert vertex_arboricity(h) == 4
    assert chromatic_number(h) == 4
    assert is_minimal_obstruction(h, Triple(3, 0, 0)).is_minimal
    h2 = build_H(h, h, 3)
    assert leaf_count(h2) == 49
    assert is_minimal_obstruction(h2, Triple(4, 0, 0)).is_minimal
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"PASS 7: joined construction is minimal for (3,0,0) with "
          f"rho=chi=4, and iterates to a minimal (4,0,0) obstruction "
          f"in {elapsed:.1f}s")


def test_structural_bounds_on_found_obstructions(arboricity_three_obstructions):
    found = [(t, 2) for t in family_A2()]
    found += [(parse_expr(r.dsl), r.goal[0].solver_weight())
              for r in search_minimal_obstructions(7, Triple(1, 1, 0))]
    found += [(parse_expr(r.dsl), 3) for r in arboricity_three_obstructions]
    found += [(t, 3) for t in family_Ap(3)]
    for i in range(4):
        found += [(t, 3) for t in iter_family_Oi(3, i)]
    g1 = parse_expr("C(U(3*K(3)))")
    h = build_H(g1, g1, 2)
    found += [(h, 3), (build_H(h, h, 3), 4)]
    for t, p in found:
        node_height = height(t) + 1
        assert node_height <= 4 * p + 1
        n = leaf_count(t)
        is_odd_clique = canonical_code(t) == \
            canonical_code(parse_expr(f"K({n})")) and n == 2 * p + 1
        if not is_odd_clique:
            assert max_join_children(t) <= 2 * p
    print(f"PASS 8: height and join-arity bounds hold for all "
          f"{len(found)} minimal obstructions produced above")


def test_disconnected_obstructions_decompose():
    examined = 0
    for q, r in product((1, 2), repeat=2):
        for report in search_minimal_obstructions(8, Triple(0, q, r)):
            g = realize(parse_expr(report.dsl))
            masks = g.component_masks()
            if len(masks) < 2:
                continue
            examined += 1
            parts = [g.induced_subgraph(list(_bits(m))) for m in masks]
            budget = r - (len(parts) - 1)
            assert budget >= 0
            options = []
            for part in parts:
                ok = [ri for ri in range(r + 1)
                      if is_minimal_obstruction(part, Triple(0, q, ri)).is_minimal]
                assert ok
                options.append(ok)
            sums = {0}
            for ok in options:
                sums = {s + ri for s in sums for ri in ok}
            assert budget in sums
    assert examined > 0
    print(f"PASS 9: all {examined} disconnected minimal obstructions for "
          f"the (0,q,r) goals split into per-part obstructions with "
          f"deletion budgets summing back correctly")


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _timed_solve(tree, box):
    best = float("inf")
    for _ in range(3):
        _combine_cache.clear()
        start = time.perf_counter()
        feasible_set(tree, box)
        best = min(best, time.perf_counter() - start)
    return best


def test_linear_scaling():
    rng = random.Random(9)
    small = random_balanced_cotree(25_000, rng)
    large = random_balanced_cotree(100_000, rng)
    t_small = _timed_solve(small, (5, 5, 5))
    t_large = _timed_solve(large, (5, 5, 5))
    assert t_large < 10.0
    ratio = t_large / t_small
    assert 3.0 <= ratio <= 5.0
    # same exercise on a tree whose feasible set is far from empty
    chain_small = Union(tuple(parse_expr("C(U(2*K(2)))") for _ in range(6250)))
    chain_large = Union(tuple(parse_expr("C(U(2*K(2)))") for _ in range(25000)))
    u_small = _timed_solve(chain_small, (5, 5, 5))
    u_large = _timed_solve(chain_large, (5, 5, 5))
    assert u_large < 10.0
    ts = feasible_set(chain_large, (2, 2, 0))
    assert set(ts.frontier) == {Triple(2, 0, 0), Triple(1, 1, 0),
                                Triple(0, 2, 0)}
    print(f"PASS 10: 100k-leaf solve in {t_large:.2f}s, scaling ratio "
          f"{ratio:.2f} (25k: {t_small:.2f}s); union-of-cycles variant "
          f"{u_large:.2f}s vs {u_small:.2f}s")


def test_linear_work(monkeypatch):
    """The count beside test_linear_scaling's timing, deaf to host load: a
    cold (5, 5, 5) fold of the same seeded 25k- and 100k-leaf balanced trees
    combines two frontiers leaves - 1 times, and its memo misses (one
    antichain build each) per leaf do not rise with the tree."""
    rng = random.Random(9)
    small = random_balanced_cotree(25_000, rng)
    large = random_balanced_cotree(100_000, rng)
    counts = {"combine": 0, "miss": 0}

    def counted(name, f):
        def wrapper(*args):
            counts[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(solver, "_combine", counted("combine", solver._combine))
    monkeypatch.setattr(solver, "_frontier", counted("miss", solver._frontier))
    misses = []
    for tree, n in ((small, 25_000), (large, 100_000)):
        _combine_cache.clear()
        counts.update(combine=0, miss=0)
        feasible_set(tree, (5, 5, 5))
        assert counts["combine"] == n - 1
        misses.append(counts["miss"])
    assert misses[1] / 100_000 <= misses[0] / 25_000, misses


def test_random_invariant_sweep():
    rng = random.Random(20260822)
    instances = 10_000
    for k in range(instances):
        n = rng.randrange(1, 19)
        tree = random_cotree(n, rng)
        box = Triple(rng.randrange(4), rng.randrange(4), rng.randrange(4))
        ts = feasible_set(tree, box)
        for (p, q, r) in ts.triples():
            if p < box.p:
                assert ts.contains((p + 1, q, r))
                if q >= 1:
                    assert ts.contains((p + 1, q - 1, r))
                if r >= 1:
                    assert ts.contains((p + 1, q, r - 1))
            if r >= 1 and q < box.q:
                assert ts.contains((p, q + 1, r - 1))
        tu = Triple(rng.randrange(4), rng.randrange(4), rng.randrange(4))
        td = Triple(rng.randrange(4), rng.randrange(4), rng.randrange(4))
        for out in derive_join(tu, td):
            assert out.obstruction_weight() == \
                tu.obstruction_weight() + td.obstruction_weight()
        if ts.frontier:
            target = ts.frontier[rng.randrange(len(ts.frontier))]
            cert = extract_certificate(tree, target)
            assert check_partition(realize(tree), cert, target)
        if k % 10 == 0 and n >= 2:
            assert feasible_set(_shuffled(tree, rng), box) == ts
    print(f"PASS 11: closure, weight, certificate and fold-order "
          f"invariants hold on {instances} random instances")


def _shuffled(node, rng):
    if not isinstance(node, (Union, Join)):
        return node
    kids = [_shuffled(c, rng) for c in node.children]
    rng.shuffle(kids)
    return type(node)(tuple(kids))
