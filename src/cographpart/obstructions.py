"""Obstruction catalogs, minimality checking, and exhaustive search.

A graph is an obstruction for a set of budget triples when it admits a
partition for none of them; it is a minimal obstruction when additionally
deleting any single vertex leaves a graph that is partitionable for at
least one triple of the set. Feasibility is hereditary, so checking the
one-vertex deletions suffices.

The module ships the known catalogs (the seven arboricity-2 obstructions,
their parametrized generalization, the star-forest join family, and the
doubling construction that escalates arboricity by one), plus an induced
containment test and a search that builds the frontier-minimal
cographs up to a vertex bound.
"""
from __future__ import annotations

import math
from functools import partial, reduce
from itertools import accumulate, combinations_with_replacement
from operator import gt, itemgetter, or_
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .cotree import (
    CotreeNode, Join, Leaf, Union, _as_graph, _class_code, _coerce_tree, _fold, _multisets,
    canonical_code, complement_tree, join_of, parse_expr, realize, relabel, to_expr, union_of,
)
from .graph import Graph, iter_bits
from .solver import (
    _ABSENT, Triple, _admits, _certificate, _combine, _leaf_frontier, _region,
    as_triple, chromatic_number,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "FAMILY_A2_DSL", "family_A2", "family_Ap_dsl", "family_Ap",
    "star_forests", "family_Oi", "iter_family_Oi", "count_Oi",
    "count_Oi_report", "OiCount", "build_H",
    "ObstructionReport", "DeletionWitness", "FeasibleWitness",
    "is_minimal_obstruction", "contains_induced", "is_family_free",
    "search_minimal_obstructions",
]


# -- catalog of arboricity obstructions --------------------------------

FAMILY_A2_DSL = (
    "K(5)",
    "C(U(3*K(3)))",
    "J(U(2*K(3)),I(2))",
    "J(U(2*C(U(2*K(2)))),I(3))",
    "J(C(U(2*K(2))),U(K(1),K(2)))",
    "J(U(C(U(2*K(2))),K(3)),I(2))",
    "C(U(3*K(2),K(1)))",
)


def family_A2() -> list[CotreeNode]:
    """The seven minimal obstructions to two forest classes."""
    return [parse_expr(text) for text in FAMILY_A2_DSL]


def _times(count: int, expr: str) -> str:
    return expr if count == 1 else f"{count}*{expr}"


def family_Ap_dsl(p: int) -> tuple[str, ...]:
    """Expression catalog generalizing the seven-graph family to any p >= 2."""
    if p < 2:
        raise ValueError("the family is defined for p >= 2")
    items = [
        f"K({2 * p + 1})",
        f"C(U({_times(p + 1, f'K({p + 1})')}))",
        f"J(U(2*K({2 * p - 1})),I(2))",
        f"J(U(2*C(U({_times(p, f'K({p})')}))),I({p + 1}))",
        f"J(C(U({_times(p, 'K(2)')})),U(K(1),K({p})))",
        f"J(U(C(U({_times(p, f'K({p})')})),K({2 * p - 1})),I(2))",
    ]
    for i in range((p - 1) // 2 + 1):
        parts = [_times(p + 1 + i, "K(2)")]
        singles = p - 1 - 2 * i
        if singles:
            parts.append(_times(singles, "K(1)"))
        items.append(f"C(U({','.join(parts)}))")
    return tuple(items)


def family_Ap(p: int) -> list[CotreeNode]:
    return [parse_expr(text) for text in family_Ap_dsl(p)]


# -- star forests and the join family ----------------------------------


def _star_tree(k: int) -> CotreeNode:
    # K_1 joined to k-1 isolated vertices; dummy leaf ids, caller relabels
    if k == 1:
        return Leaf(0)
    return join_of([Leaf(0), union_of([Leaf(j) for j in range(1, k)])])


def star_forests(m: int) -> list[CotreeNode]:
    """All forests on m vertices that are P4-free and have an edge.

    Components of such a forest are stars, so the forests correspond to the
    integer partitions of m other than all ones. One cotree per partition,
    largest parts first.
    """
    if m < 2:
        raise ValueError("star forests need at least 2 vertices")
    # the enumerator's multisets of part sizes, each in ascending order
    partitions = sorted((tuple(k for k, in reversed(parts))
                         for parts in _multisets(m, [(k,) for k in range(1, m + 1)])), reverse=True)
    return [relabel(union_of([_star_tree(k) for k in parts])) for parts in partitions if parts[0] >= 2]


def _check_Oi(p: int, i: int) -> None:
    if p < 2:
        raise ValueError("requires p >= 2")
    if not 0 <= i <= p:
        raise ValueError("requires 0 <= i <= p")


def family_Oi(p: int, i: int, forests: Sequence[CotreeNode]) -> CotreeNode:
    """Join of a balanced complete multipartite core with i star forests.

    The core is the complement of p+1-i disjoint copies of K_{p+1-i}; each
    forest must come from star_forests(p+2-i). The result has
    p*(p+2-i) + 1 vertices.
    """
    _check_Oi(p, i)
    forests = list(forests)
    if len(forests) != i:
        raise ValueError(f"expected {i} forests, got {len(forests)}")
    allowed = {canonical_code(f) for f in star_forests(p + 2 - i)} if i else set()
    for f in forests:
        if canonical_code(f) not in allowed:
            raise ValueError(
                f"each forest must be a star forest on {p + 2 - i} vertices")
    return relabel(join_of([_Oi_core(p, i), *forests]))


def _Oi_core(p: int, i: int) -> CotreeNode:
    """The complement of p+1-i disjoint copies of K_{p+1-i}."""
    side = p + 1 - i
    return complement_tree(union_of([join_of([Leaf(j) for j in range(side)]) for _ in range(side)]))


def iter_family_Oi(p: int, i: int) -> Iterator[CotreeNode]:
    """All non-isomorphic members for the given p and i, deterministically; the
    first step raises ValueError unless p >= 2 and 0 <= i <= p."""
    _check_Oi(p, i)
    core = _Oi_core(p, i)
    options = star_forests(p + 2 - i) if i else []
    seen: set[bytes] = set()
    for combo in combinations_with_replacement(options, i):
        tree = relabel(join_of([core, *combo]))  # family_Oi without re-checking its own forests
        code = canonical_code(tree)
        if code not in seen:
            seen.add(code)
            yield tree


class OiCount(NamedTuple):
    p: int
    i: int
    distinct: int
    multiset_count: int
    formula_value: Fraction
    formula_matches: bool


def count_Oi(p: int, i: int) -> int:
    """Number of non-isomorphic members, deduplicated by canonical code."""
    return sum(1 for _ in iter_family_Oi(p, i))


def count_Oi_report(p: int, i: int) -> OiCount:
    """Distinct member count next to the two closed-form candidates.

    The multiset count chooses i forests with repetition; the quotient
    formula divides ordered selections by i! and can disagree with the
    ground truth when forests repeat. Both are reported, neither asserted.
    """
    from fractions import Fraction  # only this report pays for the import
    distinct = count_Oi(p, i)
    choices = len(star_forests(p + 2 - i)) if i else 0
    multiset = math.comb(choices + i - 1, i) if i else 1
    formula = Fraction(choices ** i, math.factorial(i)) if i else Fraction(1)
    return OiCount(p, i, distinct, multiset, formula, formula == distinct)


def build_H(g1, g2, p: int) -> CotreeNode:
    """Join the disjoint union of two obstructions with p+2 isolated vertices.

    Both inputs must be minimal obstructions for (p, 0, 0) whose chromatic
    number is p+1; the output is then a minimal obstruction for (p+1, 0, 0).

    Raises:
        ValueError: when an input fails its precondition.
    """
    if p < 1:
        raise ValueError("requires p >= 1")
    goal_t = (Triple(p, 0, 0),)
    signature = _signatures(goal_t)
    trees = []
    for which, g in (("first", g1), ("second", g2)):
        tree = _coerce_tree(g)
        if tree is None:
            raise ValueError(f"{which} input is empty")
        tree = relabel(tree)  # masks index leaf ids; the output is relabelled anyway
        if not _minimal(signature(tree), goal_t):
            raise ValueError(
                f"{which} input is not a minimal obstruction for ({p}, 0, 0)")
        chi = chromatic_number(tree)
        if chi != p + 1:
            raise ValueError(
                f"{which} input has chromatic number {chi}, needs {p + 1}")
        trees.append(tree)
    isolated = union_of([Leaf(j) for j in range(p + 2)])
    return relabel(join_of([union_of(trees), isolated]))


# -- minimality checking -----------------------------------------------


class DeletionWitness(NamedTuple):
    """Feasible triple and labels for one vertex-deleted subgraph.

    Labels are paired with original vertex ids of the host graph.
    """

    vertex: int
    triple: Triple
    labels: tuple[tuple[int, str], ...]


class FeasibleWitness(NamedTuple):
    triple: Triple
    labels: tuple[str, ...]


class ObstructionReport(NamedTuple):
    dsl: str
    graph6: str
    goal: tuple[Triple, ...]
    is_obstruction: bool
    is_minimal: bool
    witnesses: tuple[DeletionWitness, ...] = ()
    failing_vertex: int | None = None
    counterexample: FeasibleWitness | None = None

    def to_json(self) -> dict:
        data = {
            "graph6": self.graph6,
            "dsl": self.dsl,
            "goal": [list(t) for t in self.goal],
            "obstruction": self.is_obstruction,
            "minimal": self.is_minimal,
        }
        if self.is_minimal:
            data["witnesses"] = [
                {"vertex": w.vertex, "triple": list(w.triple),
                 "labels": [[v, lab] for v, lab in w.labels]}
                for w in self.witnesses
            ]
        if self.failing_vertex is not None:
            data["failing_vertex"] = self.failing_vertex
        if self.counterexample is not None:
            data["counterexample"] = {
                "triple": list(self.counterexample.triple),
                "labels": list(self.counterexample.labels),
            }
        return data


def _normalize_goal(goal) -> tuple[Triple, ...]:
    if isinstance(goal, Triple):
        return (goal,)
    items = list(goal)
    if len(items) == 3 and all(isinstance(x, int) for x in items):
        return (as_triple(items),)
    triples = sorted({as_triple(t) for t in items})
    if not triples:
        raise ValueError("goal set must contain at least one triple")
    return tuple(triples)


def _first_goal(front, goal_t: tuple[Triple, ...]) -> Triple | None:
    """The first goal triple that a frontier in the goal's region admits, or None."""
    return next((t for t in goal_t if _admits(front, t)), None)


def _extend(kind: str, left, right, region: tuple[int, int, int]):
    """The signature of the Union (kind "U") or Join ("J") of two disjoint
    graphs, from theirs: the combined frontier, and each deletion on one side
    combined with the other side's frontier, one pair per distinct frontier
    with the masks ORed. Combines are commutative, so either order works."""
    (fl, dl), (fr, dr) = left, right
    merged: dict = {}
    for pairs, rest in ((dl, fr), (dr, fl)):
        for d, mask in pairs:
            d = _combine(kind, d, rest, region)
            merged[d] = merged.get(d, 0) | mask
    return _combine(kind, fl, fr, region), tuple(merged.items())


def _signatures(goal_t: tuple[Triple, ...]):
    """The one minimality decider: signature(tree) gives tree's frontier in
    the goal's region and its one-leaf deletions as (frontier, mask) pairs,
    mask holding the ids of the leaves whose deletion gives that frontier.
    A node extends its first child's signature by each other child in turn
    (combines are associative).
    """
    region = _region(*goal_t)
    leaf = _leaf_frontier(region)

    def leaf_signature(node: Leaf):
        # a leaf's one deletion leaves the empty graph
        return leaf, ((_ABSENT, 1 << node.vertex),)

    def node_signature(node, signatures: list):
        kind = "U" if isinstance(node, Union) else "J"
        return reduce(lambda sig, child: _extend(kind, sig, child, region), signatures)

    return lambda tree: _fold(tree, leaf_signature, node_signature)


def _minimal(root_signature, goal_t: tuple[Triple, ...]) -> bool:
    """True when the tree of a signature admits no goal triple and each of
    its deletions admits one."""
    front, deletions = root_signature
    return _first_goal(front, goal_t) is None and all(
        _first_goal(d, goal_t) is not None for d, _ in deletions)


def is_minimal_obstruction(graph_or_tree, goal) -> ObstructionReport:
    """Evaluate both obstruction conditions and collect witnesses.

    Condition one: the graph is partitionable for no goal triple. Condition
    two: each one-vertex deletion is partitionable for some goal triple.
    Both are read off the tree's signature, whose deletion frontiers treat
    the deleted leaf as absent. A failed first condition reports a
    counterexample certificate; a failed second one reports the least
    failing vertex. Otherwise each deletion is certified on the first goal
    triple its frontier admits, labels carried against the original ids.
    """
    goal_t = _normalize_goal(goal)
    tree = _coerce_tree(graph_or_tree)
    if tree is None:
        return ObstructionReport(
            dsl="", graph6=Graph(0).to_graph6(), goal=goal_t,
            is_obstruction=False, is_minimal=False,
            counterexample=FeasibleWitness(goal_t[0], ()))
    graph = realize(tree)
    report = partial(ObstructionReport, dsl=to_expr(tree), graph6=graph.to_graph6(), goal=goal_t)
    front, deletions = _signatures(goal_t)(tree)
    t = _first_goal(front, goal_t)
    if t is not None:
        cert = _certificate(tree, t)
        return report(is_obstruction=False, is_minimal=False,
                      counterexample=FeasibleWitness(t, cert.labels))
    found = [None] * graph.n
    for d, mask in deletions:
        t = _first_goal(d, goal_t)
        for v in iter_bits(mask):
            found[v] = t
    if None in found:
        return report(is_obstruction=True, is_minimal=False, failing_vertex=found.index(None))
    witnesses = []
    for v, t in enumerate(found):
        rest = [u for u in range(graph.n) if u != v]
        witnesses.append(DeletionWitness(v, t, tuple(zip(rest, _certificate(tree, t, v).labels))))
    return report(is_obstruction=True, is_minimal=True, witnesses=tuple(witnesses))


# -- induced containment -----------------------------------------------


def contains_induced(host, pattern) -> bool:
    """True when some vertex subset of host induces a copy of pattern.

    Domain propagation (Ullmann 1976), after cheap rejects: more vertices
    or edges than the host, or a degree sequence the host's does not
    dominate (the i-th largest pattern degree above the i-th largest host
    degree). Each pattern vertex keeps a bitmask of the host vertices it
    may take. Placing one on host vertex x ANDs each later mask with x's
    row where the pattern has that edge and with x's non-neighbours where
    not, so the masks alone keep the copy induced and its vertices
    distinct, and an empty mask ends the branch. Twins may swap images, so
    a later twin takes a lower host vertex. The masks live on an explicit
    stack, so no pattern is too large for the recursion limit.
    """
    h = _as_graph(host)
    pat = _as_graph(pattern)
    k, n = pat.n, h.n
    if k == 0:
        return True
    if k > n:
        return False
    prows = list(map(pat.row, range(k)))
    hrows = list(map(h.row, range(n)))
    pdeg = list(map(int.bit_count, prows))
    hdeg = list(map(int.bit_count, hrows))
    if sum(pdeg) > sum(hdeg) or any(map(gt, sorted(pdeg, reverse=True), sorted(hdeg, reverse=True))):
        return False

    # most placed neighbours first, then the highest degree, then the least id
    score = [d * k + k - 1 - v for v, d in enumerate(pdeg)]
    order = []
    for _ in range(k):
        v = score.index(max(score))
        order.append(v)
        score[v] = -k ** 3  # below anything placed neighbours can add
        for u in iter_bits(prows[v]):
            score[u] += k * k
    below = [0] * (n + 1)  # below[d]: the host vertices of degree under d
    for x, d in enumerate(hdeg):
        below[d + 1] |= 1 << x
    below = list(accumulate(below, or_))
    doms = [below[n - k + pdeg[v] + 1] ^ below[pdeg[v]] for v in order]
    # kinds[i][j] for the i-th and the (i+1+j)-th placed: 1 for an edge, plus 2 for twins
    kinds = [[(prows[v] >> u & 1) | 2 * ((prows[v] ^ prows[u]) & ~(1 << u | 1 << v) == 0)
              for u in order[i + 1:]] for i, v in enumerate(order)]
    full = (1 << n) - 1
    stack = [(doms, doms[0])] if all(doms) else []
    while stack:
        doms, left = stack.pop()
        x = left.bit_length() - 1
        bit = 1 << x
        if left ^ bit:
            stack.append((doms, left ^ bit))
        non = full ^ hrows[x] ^ bit
        sel = (non, hrows[x], non & (bit - 1), hrows[x] & (bit - 1))
        later = [d & sel[c] for d, c in zip(doms[1:], kinds[k - len(doms)])]
        if all(later):
            if not later:
                return True
            stack.append((later, later[0]))
    return False


def is_family_free(graph, family) -> bool:
    """True when no family member occurs as an induced subgraph: one
    contains_induced call per member tried, smallest first, whose degree
    test settles most before any mask is built, and none recurses."""
    g = _as_graph(graph)
    members = sorted((_as_graph(m) for m in family), key=lambda m: m.n)
    return not any(contains_induced(g, m) for m in members)


# -- search by closure ------------------------------------------------
#
# A cograph is frontier-minimal for a goal when each one-vertex deletion
# changes its frontier in the goal's region, the congruence of the
# finite-congruence method (Fellows & Langston 1989, Lagergren & Arnborg 1991).
# 1. Every minimal obstruction is frontier-minimal: it admits no goal triple,
#    and each of its deletions admits one.
# 2. The children of a frontier-minimal node, and the partial product of any
#    subset of them, are frontier-minimal: a combine sees a child only through
#    its frontier, so a deletion that kept a child's or a partial product's
#    frontier would keep the node's. So pruning the others loses nothing.
# 3. Adding a child to a partial product strictly raises its frontier (a graph
#    admits every triple its supergraphs admit): were it unchanged, deleting a
#    vertex of that child would leave the frontier between two equal ones.
# 4. Frontiers in a region form a finite order. By 3 the frontiers of a node's
#    partial products, and those along a root path, are chains in it, so arity
#    and height are bounded, and frontier-minimal cographs are finitely many.


def search_minimal_obstructions(n_max: int, goal, jobs: int = 1) -> list[ObstructionReport]:
    """All minimal obstructions for goal among cographs on <= n_max vertices.

    Builds every frontier-minimal cograph on <= n_max vertices (see above)
    in one process, and reports the minimal obstructions among them in
    enumerate_cographs' layout, by vertex count and then canonical code. A
    large n_max prunes nothing, so the list is then complete. jobs must be
    at least 1 and has no other effect.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    goal_t = _normalize_goal(goal)
    region = _region(*goal_t)
    # an entry: (vertex count, code, complement's code, cotree, signature). A
    # Union entry has two or more children, each the leaf or a Join entry; a
    # Join entry the same with Union entries. Both codes come from the children's
    # codes, the complement's with Union and Join swapped. Signatures have zero masks.
    leaf = (1, b"L", b"L", Leaf(0), (_leaf_frontier(region), ((_ABSENT, 0),)))
    pools = {"U": [leaf], "J": [leaf]}  # the children each kind takes
    # partial products: [kind, vertex count, children, signature, next pool index]
    products = [[kind, 1, (leaf,), leaf[4], 0] for kind in "UJ"]
    while any(p[4] < len(pools[p[0]]) for p in products):  # until every child is tried
        for product in products:  # grows as it is walked
            kind, size, kids, sig, start = product
            pool, other = pools[kind], "J" if kind == "U" else "U"
            product[4] = len(pool)
            for i in range(start, len(pool)):  # no child found before the last one
                child = pool[i]
                if size + child[0] > n_max:
                    continue
                front, pairs = _extend(kind, sig, child[4], region)
                if any(d == front for d, _ in pairs):
                    continue  # not frontier-minimal
                # enumerate_cographs' layout: a Union's children by (size,
                # complement's code), a Join's by (size, code)
                union = kind == "U"
                group = sorted((*kids, child), key=itemgetter(0, 2 if union else 1))
                entry = (size + child[0], _class_code(union, [e[1] for e in group]),
                         _class_code(not union, [e[2] for e in group]),
                         (Union if union else Join)(tuple(e[3] for e in group)), (front, pairs))
                pools[other].append(entry)
                products += [[kind, entry[0], group, entry[4], i],
                             [other, entry[0], (entry,), entry[4], len(pools[other]) - 1]]

    # "J(" < "U(", so Join-rooted entries come first at each vertex count
    hits = sorted((e for e in pools["U"] + pools["J"][1:] if _minimal(e[4], goal_t)),
                  key=itemgetter(0, 1))
    return [is_minimal_obstruction(relabel(e[3]), goal_t) for e in hits]
