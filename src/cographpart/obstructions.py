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
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from typing import Iterator, NamedTuple, Sequence

from .cotree import (
    CotreeNode, Leaf, _as_graph, _coerce_tree, canonical_code, complement_tree,
    enumerate_cographs, join_of, leaf_count, parse_expr, realize, recognize, relabel,
    to_expr, union_of,
)
from .graph import Graph, iter_bits
from .solver import Triple, as_triple, chromatic_number, extract_certificate, feasible_set

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


def family_Oi(p: int, i: int, forests: Sequence[CotreeNode]) -> CotreeNode:
    """Join of a balanced complete multipartite core with i star forests.

    The core is the complement of p+1-i disjoint copies of K_{p+1-i}; each
    forest must come from star_forests(p+2-i). The result has
    p*(p+2-i) + 1 vertices.
    """
    if p < 2:
        raise ValueError("requires p >= 2")
    if not 0 <= i <= p:
        raise ValueError("requires 0 <= i <= p")
    forests = list(forests)
    if len(forests) != i:
        raise ValueError(f"expected {i} forests, got {len(forests)}")
    allowed = {canonical_code(f) for f in star_forests(p + 2 - i)} if i else set()
    for f in forests:
        if canonical_code(f) not in allowed:
            raise ValueError(
                f"each forest must be a star forest on {p + 2 - i} vertices")
    side = p + 1 - i
    core = complement_tree(union_of([_clique_tree(side) for _ in range(side)])
                           ) if side > 1 else Leaf(0)
    return relabel(join_of([core, *forests]))


def _clique_tree(k: int) -> CotreeNode:
    if k == 1:
        return Leaf(0)
    return join_of([Leaf(j) for j in range(k)])


def iter_family_Oi(p: int, i: int) -> Iterator[CotreeNode]:
    """All non-isomorphic members for the given p and i, deterministically."""
    if i == 0:
        yield family_Oi(p, 0, [])
        return
    options = star_forests(p + 2 - i)
    seen: set[bytes] = set()
    for combo in combinations_with_replacement(range(len(options)), i):
        tree = family_Oi(p, i, [options[j] for j in combo])
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
    trees = []
    for which, g in (("first", g1), ("second", g2)):
        tree = _coerce_tree(g)
        if tree is None:
            raise ValueError(f"{which} input is empty")
        report = is_minimal_obstruction(tree, Triple(p, 0, 0))
        if not report.is_minimal:
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


@dataclass(frozen=True)
class ObstructionReport:
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


def is_minimal_obstruction(graph_or_tree, goal) -> ObstructionReport:
    """Evaluate both obstruction conditions and collect witnesses.

    Condition one: the graph is partitionable for no goal triple. Condition
    two: each one-vertex deletion is partitionable for some goal triple;
    deleted subgraphs are recognized from scratch. A failed first condition
    reports a counterexample certificate; a passing second condition
    reports one witness certificate per vertex, labels carried against the
    original vertex ids.
    """
    goal_t = _normalize_goal(goal)
    tree = _coerce_tree(graph_or_tree)
    box = Triple(max(t.p for t in goal_t), max(t.q for t in goal_t),
                 max(t.r for t in goal_t))
    if tree is None:
        return ObstructionReport(
            dsl="", graph6=Graph(0).to_graph6(), goal=goal_t,
            is_obstruction=False, is_minimal=False,
            counterexample=FeasibleWitness(goal_t[0], ()))
    graph = realize(tree)
    dsl = to_expr(tree)
    fs = feasible_set(tree, box)
    for t in goal_t:
        if fs.contains(t):
            cert = extract_certificate(tree, t)
            return ObstructionReport(
                dsl=dsl, graph6=graph.to_graph6(), goal=goal_t,
                is_obstruction=False, is_minimal=False,
                counterexample=FeasibleWitness(t, cert.labels))
    witnesses = []
    for v in range(graph.n):
        rest = [u for u in range(graph.n) if u != v]
        subtree = recognize(graph.induced_subgraph(rest))
        found = next((t for t in goal_t if feasible_set(subtree, t).contains(t)), None)
        if found is None:
            return ObstructionReport(
                dsl=dsl, graph6=graph.to_graph6(), goal=goal_t,
                is_obstruction=True, is_minimal=False, failing_vertex=v)
        labels = extract_certificate(subtree, found).labels
        witnesses.append(DeletionWitness(v, found, tuple(zip(rest, labels))))
    return ObstructionReport(
        dsl=dsl, graph6=graph.to_graph6(), goal=goal_t,
        is_obstruction=True, is_minimal=True, witnesses=tuple(witnesses))


# -- induced containment -----------------------------------------------


def contains_induced(host, pattern) -> bool:
    """True when some vertex subset of host induces a copy of pattern.

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


def is_family_free(graph, family) -> bool:
    """True when no family member occurs as an induced subgraph."""
    g = _as_graph(graph)
    members = sorted((_as_graph(m) for m in family), key=lambda m: m.n)
    return not any(contains_induced(g, m) for m in members)


# -- exhaustive search -------------------------------------------------


def _minimal_report(tree: CotreeNode, goal_t: tuple[Triple, ...], box: Triple) -> ObstructionReport | None:
    fs = feasible_set(tree, box)
    if any(fs.contains(t) for t in goal_t):
        return None
    report = is_minimal_obstruction(tree, goal_t)
    return report if report.is_minimal else None


def _search_chunk(args: tuple[list[CotreeNode], tuple[Triple, ...]]):
    """Minimal obstructions among trees, each with its sort key."""
    trees, goal_t = args
    box = Triple(max(t.p for t in goal_t), max(t.q for t in goal_t),
                 max(t.r for t in goal_t))
    return [((leaf_count(tree), canonical_code(tree)), rep) for tree in trees
            if (rep := _minimal_report(tree, goal_t, box)) is not None]


def search_minimal_obstructions(n_max: int, goal, jobs: int = 1) -> list[ObstructionReport]:
    """All minimal obstructions for goal among cographs on <= n_max vertices.

    Enumerates one representative per isomorphism class. Results are sorted
    by vertex count, then canonical code, independent of jobs. At most
    os.cpu_count() worker processes run, however large jobs is.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    goal_t = _normalize_goal(goal)
    trees = (tree for n in range(1, n_max + 1) for tree in enumerate_cographs(n))
    batches = iter(lambda: list(islice(trees, 100)), [])    # until trees run out
    chunks = ((batch, goal_t) for batch in batches)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        found = [item for chunk in chunks for item in _search_chunk(chunk)]
    else:
        found = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # a few chunks in flight per worker, so that the cotrees of the
            # whole search are never in memory at once
            running: deque = deque()
            for chunk in chunks:
                running.append(pool.submit(_search_chunk, chunk))
                if len(running) > 2 * jobs:
                    found.extend(running.popleft().result())
            for future in running:
                found.extend(future.result())
    found.sort(key=lambda item: item[0])
    return [rep for _, rep in found]
