"""Obstruction catalogs, minimality checking, and exhaustive search.

A graph is an obstruction for a set of budget triples when it admits a
partition for none of them; it is a minimal obstruction when additionally
deleting any single vertex leaves a graph that is partitionable for at
least one triple of the set. Feasibility is hereditary, so checking the
one-vertex deletions suffices.

The module ships the known catalogs (the seven arboricity-2 obstructions,
their parametrized generalization, the star-forest join family, and the
doubling construction that escalates arboricity by one), plus an induced
containment test and a search over all cographs up to a vertex bound.
"""
from __future__ import annotations

import math
import os
from functools import partial
from itertools import accumulate, combinations_with_replacement, islice
from operator import gt, or_
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .cotree import (
    CotreeNode, Leaf, Union, _as_graph, _coerce_tree, canonical_code, complement_tree,
    enumerate_cographs, join_of, leaves, parse_expr, realize, relabel, to_expr,
    union_of,
)
from .graph import Graph, iter_bits
from .solver import (
    _ABSENT, Triple, _certificate, _combine, _feasible_set, _leaf_frontier, as_triple,
    chromatic_number, extract_certificate,
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


def _partitions(m: int) -> Iterator[tuple[int, ...]]:
    """Partitions of m into non-increasing parts, largest part first."""
    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(m, m)


def count_partitions(m: int) -> int:
    return sum(1 for _ in _partitions(m))


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
    out = []
    for parts in _partitions(m):
        if parts[0] < 2:
            continue
        pieces = [_star_tree(k) for k in parts]
        out.append(relabel(pieces[0] if len(pieces) == 1 else union_of(pieces)))
    return out


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
    side = p + 1 - i
    core = complement_tree(union_of([_clique_tree(side) for _ in range(side)]))
    return relabel(join_of([core, *forests]))


def _clique_tree(k: int) -> CotreeNode:
    return join_of([Leaf(j) for j in range(k)])


def iter_family_Oi(p: int, i: int) -> Iterator[CotreeNode]:
    """All non-isomorphic members for the given p and i, deterministically; the
    first step raises ValueError unless p >= 2 and 0 <= i <= p."""
    _check_Oi(p, i)
    options = star_forests(p + 2 - i) if i else []
    seen: set[bytes] = set()
    for combo in combinations_with_replacement(options, i):
        tree = family_Oi(p, i, combo)
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
    choices = count_partitions(p + 2 - i) - 1 if i else 0
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
    trees = []
    for which, g in (("first", g1), ("second", g2)):
        tree = _coerce_tree(g)
        if tree is None:
            raise ValueError(f"{which} input is empty")
        if not _is_minimal(tree, goal_t):
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


def _first_feasible(tree: CotreeNode | None, goal_t: tuple[Triple, ...],
                    without: int | None = None) -> Triple | None:
    """The first goal triple that tree's graph admits, less the vertex without
    when given, or None; one fold at the least box that holds every goal
    triple decides them all."""
    fs = _feasible_set(tree, Triple(*map(max, zip(*goal_t))), without)
    return next((t for t in goal_t if fs.contains(t)), None)


def _is_minimal(tree: CotreeNode, goal_t: tuple[Triple, ...]) -> bool:
    """True when tree is a minimal obstruction for the goal, decided on the
    cotree: infeasible itself, and feasible less any one of its leaves."""
    return _first_feasible(tree, goal_t) is None and all(
        _first_feasible(tree, goal_t, v) is not None for v in leaves(tree))


def is_minimal_obstruction(graph_or_tree, goal) -> ObstructionReport:
    """Evaluate both obstruction conditions and collect witnesses.

    Condition one: the graph is partitionable for no goal triple. Condition
    two: each one-vertex deletion is partitionable for some goal triple.
    A deletion is decided and certified on the cotree itself, whose fold
    treats the deleted leaf as absent. A failed first condition reports a
    counterexample certificate. One ascending scan then decides the
    deletions and stops at the least failing vertex; when none fails, each
    triple it found is certified, labels carried against the original ids.
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
    t = _first_feasible(tree, goal_t)
    if t is not None:
        cert = extract_certificate(tree, t)
        return report(is_obstruction=False, is_minimal=False,
                      counterexample=FeasibleWitness(t, cert.labels))
    found = []
    for v in range(graph.n):
        t = _first_feasible(tree, goal_t, v)
        if t is None:
            return report(is_obstruction=True, is_minimal=False, failing_vertex=v)
        found.append(t)
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


# -- exhaustive search -------------------------------------------------


def _minimality_test(goal_t: tuple[Triple, ...]):
    """The search's minimality test: it agrees with _is_minimal on
    normalized cotrees and pays off on trees that share subtrees, as the
    trees of one enumerate_cographs call do.

    It keeps, for each non-root node it meets, the node's frontier and the
    distinct frontiers of its one-leaf deletions, keyed by the node itself,
    so a shared subtree is folded once. A deletion in child i combines the
    children before i, the deleted child and the children after i; both
    combines are exact, commutative and associative, so the order does not
    change the frontier. Feasibility is hereditary, so a non-root node that
    is infeasible, or has an infeasible deletion, is kept as None: a tree
    with it as a child, and another child to delete a vertex from, is not
    minimal. Normalized trees on two or more vertices have at least two
    children at the root. Recursion goes as deep as the tree.
    """
    box = Triple(*map(max, zip(*goal_t)))
    region = (box.p, box.p + box.q, box.p + box.r)
    leaf = _leaf_frontier(region)

    def feasible(front) -> bool:
        return any(a <= p and b <= q and c <= r for a, b, c in front for p, q, r in goal_t)

    # a leaf's one deletion leaves the empty graph, which every goal admits
    leaf_signature = (leaf, (_ABSENT,)) if feasible(leaf) else None
    known: dict = {}

    def deletions(kind: str, signatures: list, before: list):
        """Frontiers of the one-leaf deletions below a node, lazily, from
        its children's signatures and the frontiers of their prefixes."""
        after = _ABSENT
        for (front, deleted), prefix in zip(reversed(signatures), reversed(before)):
            for d in deleted:
                yield _combine(kind, _combine(kind, prefix, d, region), after, region)
            after = _combine(kind, front, after, region)

    def split(node):
        """node's frontier and its deletions' frontiers, or None when a
        child's signature is None."""
        signatures = [leaf_signature if isinstance(c, Leaf) else signature(c)
                      for c in node.children]
        if None in signatures:
            return None
        kind = "U" if isinstance(node, Union) else "J"
        before = [_ABSENT]
        for front, _ in signatures:
            before.append(_combine(kind, before[-1], front, region))
        return before.pop(), deletions(kind, signatures, before)

    def signature(node):
        """(frontier, distinct deletion frontiers) of a non-root node, or None."""
        if node not in known:
            sig = split(node)
            if sig is not None and feasible(sig[0]):
                distinct = set(sig[1])
                sig = (sig[0], tuple(distinct)) if all(map(feasible, distinct)) else None
            else:
                sig = None
            known[node] = sig
        return known[node]

    def is_minimal(tree: CotreeNode) -> bool:
        if isinstance(tree, Leaf):
            return not feasible(leaf)
        sig = split(tree)
        return sig is not None and not feasible(sig[0]) and all(map(feasible, sig[1]))

    return is_minimal


def _search_stride(n_max: int, goal_t: tuple[Triple, ...], first: int, step: int):
    """Minimal obstructions among every step-th cograph from the first-th on,
    for each vertex count up to n_max, keyed by (n, enumeration index). The
    test on the cotree comes first, so only minimal obstructions pay for a
    report. Each vertex count gets its own test, since no node is shared
    between two enumerations."""
    found = []
    for n in range(1, n_max + 1):
        is_minimal = _minimality_test(goal_t)
        found += [((n, first + k * step), is_minimal_obstruction(tree, goal_t))
                  for k, tree in enumerate(islice(enumerate_cographs(n), first, None, step))
                  if is_minimal(tree)]
    return found


def search_minimal_obstructions(n_max: int, goal, jobs: int = 1) -> list[ObstructionReport]:
    """All minimal obstructions for goal among cographs on <= n_max vertices.

    Enumerates one representative per isomorphism class. Results come in
    enumeration order, which is by vertex count, then canonical code,
    independent of jobs. At most os.cpu_count() worker processes run,
    however large jobs is. Worker k enumerates on its own and checks every
    jobs-th cograph from the k-th on, so only reports cross to the parent.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    goal_t = _normalize_goal(goal)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        found = _search_stride(n_max, goal_t, 0, 1)
    else:
        from concurrent.futures import ProcessPoolExecutor  # only parallel searches pay for it
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            strides = [pool.submit(_search_stride, n_max, goal_t, k, jobs) for k in range(jobs)]
            # the keys are distinct, so sorting never compares two reports
            found = sorted(item for stride in strides for item in stride.result())
    return [report for _, report in found]
