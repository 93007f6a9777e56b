"""Exhaustive reference implementations for small graphs.

These exist to validate the cotree solver on inputs small enough to check
by direct search. They are deliberately independent of the solver: they
work on plain graphs, never build cotrees, and share no code with the
dynamic program beyond the Graph type and the StrengthProfile record.

All searches are budgeted. A search that would exceed its budget raises
OracleBudgetExceeded instead of returning a possibly wrong answer.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .graph import Graph, iter_bits
from .strength import StrengthProfile

__all__ = [
    "OracleBudget", "OracleBudgetExceeded",
    "brute_force_partitionable", "brute_force_arboricity",
    "brute_force_strength",
]


class OracleBudget(NamedTuple):
    max_vertices: int = 12
    max_assignments: int = 10_000_000


class OracleBudgetExceeded(RuntimeError):
    """The oracle stopped before finishing its search."""


def _check_size(graph: Graph, budget: OracleBudget) -> None:
    if graph.n > budget.max_vertices:
        raise OracleBudgetExceeded(
            f"graph has {graph.n} vertices, budget allows {budget.max_vertices}")


def brute_force_partitionable(
    graph: Graph,
    triple,
    budget: OracleBudget | None = None,
    order: Sequence[int] | None = None,
) -> bool:
    """Decide by backtracking whether the graph admits a (p, q, r)-partition.

    Vertices are assigned in descending degree order unless an explicit
    order is given. Forest classes are tracked with a union-find whose
    merges are undone on backtrack; independent classes with bitmasks.
    """
    p, q, r = triple
    if p < 0 or q < 0 or r < 0:
        raise ValueError("budgets must be nonnegative")
    budget = budget or OracleBudget()
    _check_size(graph, budget)
    n = graph.n
    if n == 0:
        return True
    # a class beyond the n-th is always empty
    p, q = min(p, n), min(q, n)

    if order is None:
        seq = sorted(range(n), key=lambda v: (-graph.degree(v), v))
    else:
        seq = list(order)
        if sorted(seq) != list(range(n)):
            raise ValueError("order must be a permutation of the vertices")

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    forest_masks = [0] * p
    indep_masks = [0] * q
    deleted = 0
    assignments = 0
    limit = budget.max_assignments

    def place(i: int) -> bool:
        nonlocal deleted, assignments
        if i == len(seq):
            return True
        v = seq[i]
        row = graph.row(v)

        used_f = p
        for ci in range(p):
            if forest_masks[ci] == 0:
                used_f = ci + 1
                break
        for ci in range(min(used_f, p)):
            assignments += 1
            if assignments > limit:
                raise OracleBudgetExceeded(
                    f"assignment budget {limit} exhausted")
            undo: list[int] = []
            ok = True
            for u in iter_bits(row & forest_masks[ci]):
                root = find(u)
                if root == v:
                    ok = False
                    break
                parent[root] = v
                undo.append(root)
            if ok:
                forest_masks[ci] |= 1 << v
                if place(i + 1):
                    return True
                forest_masks[ci] &= ~(1 << v)
            for root in undo:
                parent[root] = root

        used_q = q
        for ci in range(q):
            if indep_masks[ci] == 0:
                used_q = ci + 1
                break
        for ci in range(min(used_q, q)):
            assignments += 1
            if assignments > limit:
                raise OracleBudgetExceeded(
                    f"assignment budget {limit} exhausted")
            if row & indep_masks[ci]:
                continue
            indep_masks[ci] |= 1 << v
            if place(i + 1):
                return True
            indep_masks[ci] &= ~(1 << v)

        if deleted < r:
            assignments += 1
            if assignments > limit:
                raise OracleBudgetExceeded(f"assignment budget {limit} exhausted")
            deleted += 1
            if place(i + 1):
                return True
            deleted -= 1
        return False

    return place(0)


def brute_force_arboricity(graph: Graph, budget: OracleBudget | None = None) -> int:
    """Least number of forest classes covering all vertices."""
    if graph.n == 0:
        return 0
    p = 1
    while not brute_force_partitionable(graph, (p, 0, 0), budget):
        p += 1
    return p


def brute_force_strength(graph: Graph, budget: OracleBudget | None = None) -> StrengthProfile:
    """StrengthProfile by scanning every vertex subset.

    tau is the largest s such that some 2s vertices induce a complete graph
    minus a perfect matching; the strength is the larger of the clique
    number and tau + 1.
    """
    budget = budget or OracleBudget()
    _check_size(graph, budget)
    n = graph.n
    omega = 0
    tau = 0
    for mask in range(1 << n):
        members = list(iter_bits(mask))
        k = len(members)
        if k <= omega and (k % 2 == 1 or k <= 2 * tau):
            continue
        nonneighbors = []
        clique = True
        for v in members:
            missing = [u for u in members if u != v and not graph.has_edge(u, v)]
            if missing:
                clique = False
            nonneighbors.append(missing)
        if clique:
            omega = max(omega, k)
            continue
        if k % 2 == 0 and all(len(miss) == 1 for miss in nonneighbors):
            tau = max(tau, k // 2)
    strength = max(omega, tau + 1) if n else 0
    return StrengthProfile(omega, tau, strength)
