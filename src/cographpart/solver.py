"""Feasibility and certification of (p, q, r)-partitions over cotrees.

A (p, q, r)-partition of a graph assigns every vertex to one of at most p
classes inducing forests, at most q independent classes, or a deletion set
of at most r vertices. Feasible budget triples are upward closed, so the
full feasibility grid of a graph is summarized by the antichain of minimal
feasible triples, called the frontier here.

The solver walks the cotree bottom-up, combining children two at a time:

* union: a partition of a disjoint union splits over the parts, sharing the
  class budgets and summing deletions, so (p, q, ru) and (p, q, rd) merge to
  (p, q, ru + rd); over frontiers this is (max, max, sum).
* join: classes cannot straddle a join except as stars, one center taken
  from one side's deletion surplus and the leaf set being one independent
  class of the other side. Converting t classes this way turns (pu+pd,
  qu+qd, ru+rd) into (pu+pd+t, qu+qd-t, ru+rd-t).

Internally every node's frontier lives in the working region {(a, b, c):
a <= P, a + b <= P + Q, a + c <= P + R} for the query box (P, Q, R). None of
p, p + q and p + r decreases from a child's triple to a derived one (a join
adds the other side's sums whatever t is), so a derivation ending inside the
box stays in this downward-closed region, and each frontier is exact on it.
It caps q at P + Q - p: at most (P + 1)(P + Q + 1) triples, whatever R is.
"""
from __future__ import annotations

import heapq
import re
from functools import partial
from itertools import chain, combinations, count
from typing import NamedTuple

from .cotree import (
    CotreeNode, Leaf, Union, _as_graph, _coerce_tree, _fold, _unfold,
)
from .graph import iter_bits
from .strength import chromatic_number, q_from_strength, strength_profile

__all__ = [
    "Triple", "TripleSet", "PartitionCertificate",
    "derive_union", "derive_join", "feasible_set", "is_partitionable",
    "extract_certificate", "check_partition",
    "vertex_arboricity", "chromatic_number", "min_deletions", "min_q_feedback",
]


class Triple(NamedTuple):
    """A budget (p, q, r): forest classes, independent classes, deletions."""

    p: int
    q: int
    r: int

    def solver_weight(self) -> int:
        return self.p + self.q + self.r

    def obstruction_weight(self) -> int:
        return 2 * self.p + self.q + self.r

    def dominates(self, other: Triple) -> bool:
        """True when every budget of self covers other (componentwise >=)."""
        return self.p >= other.p and self.q >= other.q and self.r >= other.r


def as_triple(value, what: str = "triple") -> Triple:
    if isinstance(value, Triple):
        t = value
    else:
        seq = tuple(value)
        if len(seq) != 3:
            raise ValueError(f"{what} must have exactly three components")
        t = Triple(*seq)
    if not all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in t):
        raise ValueError(f"{what} components must be nonnegative integers")
    return t


def derive_union(tu, td) -> Triple:
    """Budget needed by a disjoint union whose parts admit tu and td."""
    tu, td = as_triple(tu), as_triple(td)
    return Triple(max(tu.p, td.p), max(tu.q, td.q), tu.r + td.r)


def derive_join(tu, td) -> tuple[Triple, ...]:
    """Budgets reachable for a join whose sides admit tu and td.

    Index t counts crossing star classes; each consumes one unit of total
    deletion surplus (the center side) and one independent class (the leaf
    side), and adds one forest class.
    """
    tu, td = as_triple(tu), as_triple(td)
    tmax = min(tu.r, td.q) + min(tu.q, td.r)
    return tuple(
        Triple(tu.p + td.p + t, tu.q + td.q - t, tu.r + td.r - t)
        for t in range(tmax + 1)
    )


# -- frontier computation ---------------------------------------------

_FrontierT = tuple[tuple[int, int, int], ...]

_combine_cache: dict = {}
# cleared wholesale when full: a long run's memo stops growing early
_COMBINE_CACHE_LIMIT = 1 << 14

# a deleted vertex's frontier, the identity of both combines: a union takes
# (max, max, sum), a join then crosses min(0, .) + min(0, .) = 0 stars.
# _combine returns the other operand itself, since certificates split in its order
_ABSENT: _FrontierT = ((0, 0, 0),)


def _frontier(layers: list[dict[int, int]]) -> _FrontierT:
    """Minimal antichain of the points held as layers[p][q] = r, sorted
    lexicographically. Walking p upwards, env[q] is the least r kept so far
    at any q' <= q; a point survives only when its r is below that."""
    out: list[tuple[int, int, int]] = []
    env = [float("inf")] * (max((max(layer) for layer in layers if layer), default=-1) + 1)
    for a, layer in enumerate(layers):
        for b in sorted(layer):
            c = layer[b]
            if c < env[b]:
                out.append((a, b, c))
                # env does not increase with q: lower it from b until it is at most c
                q = b
                while q < len(env) and env[q] > c:
                    env[q] = c
                    q += 1
    return tuple(out)


def _combine(kind: str, fl: _FrontierT, fr: _FrontierT, region: tuple[int, int, int]) -> _FrontierT:
    if fl is _ABSENT:
        return fr
    if fr is _ABSENT:
        return fl
    key = (kind, *region, fl, fr)
    hit = _combine_cache.get(key)
    if hit is not None:
        return hit
    P, PQ, PR = region
    # layers[p] maps q to the least r derived at (p, q), up to the largest derived p
    layers: list[dict[int, int]] = []
    if kind == "U":
        for a, b, c in fl:
            for a2, b2, c2 in fr:
                aa = a if a >= a2 else a2
                bb = b if b >= b2 else b2
                cc = c + c2
                if aa + bb <= PQ and aa + cc <= PR:
                    while len(layers) <= aa:
                        layers.append({})
                    if layers[aa].get(bb, PR + 1) > cc:
                        layers[aa][bb] = cc
    else:
        for a, b, c in fl:
            for a2, b2, c2 in fr:
                # p + q and p + r of every derived triple are the pair's sums,
                # independent of the crossing count
                aa = a + a2
                q = b + b2
                r = c + c2
                if aa + q > PQ or aa + r > PR:
                    continue
                top = min(aa + min(c, b2) + min(b, c2), P)
                while len(layers) <= top:
                    layers.append({})
                # t crossing stars put (aa + t, q - t, r - t) in layer aa + t
                for layer in layers[aa:top + 1]:
                    if layer.get(q, PR + 1) > r:
                        layer[q] = r
                    q -= 1
                    r -= 1
    result = _frontier(layers)
    if len(_combine_cache) >= _COMBINE_CACHE_LIMIT:
        _combine_cache.clear()
    # many keys share one frontier: keep a single copy of each, stored under
    # itself (a frontier never equals a key, whose first item is "U" or "J")
    result = _combine_cache.setdefault(result, result)
    _combine_cache[key] = result
    return result


def _region(*boxes: Triple) -> tuple[int, int, int]:
    """The working region (P, P + Q, P + R) of the least box (P, Q, R) holding all boxes."""
    P, Q, R = map(max, zip(*boxes))
    return P, P + Q, P + R


def _admits(front: _FrontierT, t) -> bool:
    """True when some member of front lies below t, so t is feasible."""
    p, q, r = t
    return any(a <= p and b <= q and c <= r for a, b, c in front)


def _leaf_frontier(region: tuple[int, int, int]) -> _FrontierT:
    P, PQ, PR = region
    cands = []
    if P >= 1:
        cands.append((1, 0, 0))
    if PQ >= 1:
        cands.append((0, 1, 0))
    if PR >= 1:
        cands.append((0, 0, 1))
    return tuple(cands)


def _prefix_frontiers(node: CotreeNode, fronts: list[_FrontierT], region: tuple) -> list[_FrontierT]:
    """Frontiers of the left-fold prefixes of node's children, combining the
    children two at a time; the last is the frontier of node itself."""
    kind = "U" if isinstance(node, Union) else "J"
    prefixes = [fronts[0]]
    for f in fronts[1:]:
        prefixes.append(_combine(kind, prefixes[-1], f, region))
    return prefixes


# -- public solver surface --------------------------------------------


class TripleSet:
    """Upward-closed feasible triples inside a box, held as the frontier."""

    __slots__ = ("box", "frontier")

    def __init__(self, box: Triple, frontier: tuple[Triple, ...]):
        self.box = box
        self.frontier = tuple(sorted(frontier))

    def contains(self, triple) -> bool:
        t = as_triple(triple)
        if not self.box.dominates(t):
            raise ValueError(f"{tuple(t)} lies outside the computed box {tuple(self.box)}")
        return _admits(self.frontier, t)

    def triples(self):
        """All feasible triples in the box, lexicographically."""
        P, Q, R = self.box
        for a in range(P + 1):
            for b in range(Q + 1):
                # (a, b, c) is feasible from the least r of the members below (a, b)
                least = min((m.r for m in self.frontier if m.p <= a and m.q <= b), default=R + 1)
                for c in range(least, R + 1):
                    yield Triple(a, b, c)

    def __eq__(self, other):
        if not isinstance(other, TripleSet):
            return NotImplemented
        return self.box == other.box and self.frontier == other.frontier

    def __hash__(self):
        return hash((self.box, self.frontier))

    def __repr__(self):
        return f"TripleSet(box={tuple(self.box)}, frontier={[tuple(t) for t in self.frontier]})"

    def to_json(self) -> dict:
        return {
            "box": list(self.box),
            "frontier": [list(t) for t in self.frontier],
        }

    @classmethod
    def from_json(cls, data: dict) -> TripleSet:
        """Raises ValueError on a frontier member outside the box, or one
        that dominates another (a frontier is an antichain)."""
        box = as_triple(data["box"], "box")
        frontier = tuple(as_triple(t, "frontier member") for t in data["frontier"])
        if not all(box.dominates(m) for m in frontier):
            raise ValueError(f"a frontier member lies outside the box {tuple(box)}")
        if any(a.dominates(b) or b.dominates(a) for a, b in combinations(frontier, 2)):
            raise ValueError("a frontier member dominates another")
        return cls(box, frontier)


def feasible_set(graph_or_tree, box) -> TripleSet:
    """TripleSet of all feasible triples of the input within box; empty,
    without a fold, when the box's 2P + Q + R is below the clique number."""
    box = as_triple(box, "box")
    return TripleSet(box, tuple(Triple(*m) for m in _decide(_coerce_tree(graph_or_tree), box)))


def _decide(tree: CotreeNode | None, box: Triple) -> _FrontierT:
    """_frontier_in, or () without a fold when 2P + Q + R < omega: a forest
    holds at most two vertices of a clique, an independent class one."""
    if tree is not None and box.obstruction_weight() < chromatic_number(tree):
        return ()
    return _frontier_in(tree, box)


def _frontier_in(tree: CotreeNode | None, box: Triple) -> _FrontierT:
    """The members of tree's frontier inside box, empty exactly when box is
    infeasible; _ABSENT for the empty graph."""
    if tree is None:
        return _ABSENT
    region = _region(box)
    leaf = _leaf_frontier(region)
    work = _fold(tree, lambda _: leaf, lambda node, fronts: _prefix_frontiers(node, fronts, region)[-1])
    P, Q, R = box
    return tuple(m for m in work if m[0] <= P and m[1] <= Q and m[2] <= R)


def is_partitionable(graph_or_tree, triple) -> bool:
    """True when triple is feasible; False, without a fold, when 2p + q + r < omega."""
    t = as_triple(triple)
    return bool(_decide(_coerce_tree(graph_or_tree), t))


# -- certificates ------------------------------------------------------


class PartitionCertificate(NamedTuple):
    """Per-vertex labels for a concrete partition: "F3", "Q1", or "R"."""

    triple: Triple
    labels: tuple[str, ...]

    def to_json(self) -> dict:
        return {"labels": [{"v": v, "class": lab} for v, lab in enumerate(self.labels)]}

    @classmethod
    def from_json(cls, data: dict, triple=None) -> PartitionCertificate:
        """Raises ValueError on a malformed document or on a bad or repeated vertex id."""
        items = data.get("labels") if isinstance(data, dict) else None
        if not isinstance(items, list) or not all(
                isinstance(item, dict) and "v" in item and "class" in item for item in items):
            raise ValueError('a certificate must be {"labels": [{"v": id, "class": label}, ...]}')
        labels: dict[int, str] = {}
        for item in items:
            v = item["v"]
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"vertex id {v!r} is not an integer")
            if v in labels:
                raise ValueError(f"vertex {v} is labelled twice")
            labels[v] = str(item["class"])
        if sorted(labels) != list(range(len(labels))):
            raise ValueError("certificate labels must cover vertices 0..n-1")
        t = as_triple(triple) if triple is not None else Triple(0, 0, 0)
        return cls(t, tuple(labels[v] for v in range(len(labels))))


_LABEL_RE = re.compile(r"R|([FQ])([1-9][0-9]*)")


def _parse_label(label: str) -> tuple[str, int]:
    m = _LABEL_RE.fullmatch(label)
    if not m:
        raise ValueError(f"malformed class label {label!r}")
    if m.group(1) is None:
        return ("R", 0)
    return (m.group(1), int(m.group(2)))


def _find_split(kind: str, fl: _FrontierT, fr: _FrontierT, target: Triple):
    """First (left, right, crossing) choice whose derived triple fits target;
    an absent side takes nothing and leaves the whole target to the other."""
    if fl is _ABSENT:
        return Triple(0, 0, 0), target, 0
    if fr is _ABSENT:
        return target, Triple(0, 0, 0), 0
    tp, tq, tr = target
    for a, b, c in fl:
        for a2, b2, c2 in fr:
            if kind == "U":
                if max(a, a2) <= tp and max(b, b2) <= tq and c + c2 <= tr:
                    return Triple(a, b, c), Triple(a2, b2, c2), 0
                continue
            if a + a2 > tp:
                continue
            need = max(0, b + b2 - tq, c + c2 - tr)
            tmax = min(min(c, b2) + min(b, c2), tp - a - a2)
            if need <= tmax:
                return Triple(a, b, c), Triple(a2, b2, c2), need
    raise AssertionError("no split reproduces a feasible target")


def _leaf_label(target: Triple) -> tuple[str, int]:
    if target.p >= 1:
        return ("F", 1)
    if target.q >= 1:
        return ("Q", 1)
    if target.r >= 1:
        return ("R", 0)
    raise AssertionError("leaf reached with an empty budget")


def _merge(kind: str, splits: list, maps: tuple[dict, ...]) -> dict[tuple[str, int], list[int]]:
    """Fuse the children's class maps left to right; splits[i] is the
    (left, right, crossing) choice that joins child i to the ones before it."""
    merged = maps[0]
    for i in range(1, len(maps)):
        if kind == "U":
            small = maps[i]
            if len(merged) < len(small):
                merged, small = small, merged
            for key, vs in small.items():
                _pool(merged, key, vs)
        else:
            lm, rm, t = splits[i]
            merged = _merge_join(merged, lm, maps[i], rm, t)
    return merged


def _pool(classes: dict, key: tuple[str, int], vs: list[int]) -> None:
    """Add the vertices vs to class key, extending the shorter list into the longer."""
    have = classes.get(key)
    if have is None:
        classes[key] = vs
    elif len(have) >= len(vs):
        have.extend(vs)
    else:
        vs.extend(have)
        classes[key] = vs


def _merge_join(left: dict, lm: Triple, right: dict, rm: Triple, t: int):
    """Rename the classes of the two sides of a join and fuse them, forming t
    crossing stars. Vertex lists move whole; only star centers leave the
    deleted lists."""
    tu = min(t, lm.r, rm.q)
    td = t - tu
    star_base = lm.p + rm.p
    # up-centered stars take their leaves from the last tu independent classes
    # of the right side, down-centered ones from the last td of the left side
    merged: dict[tuple[str, int], list[int]] = {}
    for (k, i), vs in left.items():
        if k == "Q" and i > lm.q - td:
            merged[("F", star_base + tu + (i - (lm.q - td)))] = vs
        elif k != "R":
            merged[(k, i)] = vs
    for (k, i), vs in right.items():
        if k == "F":
            merged[("F", lm.p + i)] = vs
        elif k == "Q":
            if i > rm.q - tu:
                merged[("F", star_base + (i - (rm.q - tu)))] = vs
            else:
                merged[("Q", lm.q - td + i)] = vs
    # the centers are the smallest ids of each side's deletion surplus
    for side, spare, base in ((left, lm.r - tu, star_base), (right, rm.r - td, star_base + tu)):
        deleted = side.get(("R", 0))
        if deleted is None:
            continue
        surplus = len(deleted) - spare
        if surplus > 0:
            centers = heapq.nsmallest(surplus, deleted)
            for s, v in enumerate(centers, start=1):
                _pool(merged, ("F", base + s), [v])
            chosen = set(centers)
            deleted = [v for v in deleted if v not in chosen]
        if deleted:
            _pool(merged, ("R", 0), deleted)
    return merged


def extract_certificate(graph_or_tree, triple) -> PartitionCertificate:
    """A concrete partition achieving triple, chosen deterministically.

    Raises:
        ValueError: when triple is not feasible for the input, or when the
            leaf ids of a cotree are not a bijection with 0..n-1.
    """
    t = as_triple(triple)
    return _certificate(_coerce_tree(graph_or_tree), t)


def _certificate(tree: CotreeNode | None, t: Triple, without: int | None = None) -> PartitionCertificate:
    """extract_certificate of tree, or of its graph without vertex without;
    the labels then skip that vertex."""
    if tree is None:
        return PartitionCertificate(t, ())
    region = _region(t)
    # bottom-up: per node, its prefix frontiers and its children's entries
    leaf, absent = ((_leaf_frontier(region),), ()), ((_ABSENT,), ())
    info = _fold(tree, lambda node: absent if node.vertex == without else leaf, lambda node, kids: (
        _prefix_frontiers(node, [k[0][-1] for k in kids], region), kids))
    if not _admits(info[0][-1], t):
        raise ValueError(f"no ({t.p}, {t.q}, {t.r})-partition exists")

    def expand(seed):
        """Split a node's target over its children, last child first."""
        node, (prefixes, kids), target = seed
        if isinstance(node, Leaf):
            return ({} if node.vertex == without else {_leaf_label(target): [node.vertex]}), ()
        kind = "U" if isinstance(node, Union) else "J"
        targets = [target] * len(kids)
        splits = [None] * len(kids)
        for i in range(len(kids) - 1, 0, -1):
            splits[i] = _find_split(kind, prefixes[i - 1], kids[i][0][-1], target)
            target, targets[i], _ = splits[i]
        targets[0] = target
        return partial(_merge, kind, splits), list(zip(node.children, kids, targets))

    classes = _unfold((tree, info, t), expand)
    ids = sorted(chain.from_iterable(classes.values()))
    n = len(ids) + (without is not None)
    if ids != [v for v in range(n) if v != without]:
        raise ValueError("leaf ids are not a bijection with 0..n-1")
    labels = [""] * n
    for (kind, idx), vs in classes.items():
        label = "R" if kind == "R" else f"{kind}{idx}"
        for v in vs:
            labels[v] = label
    return PartitionCertificate(t, tuple(labels[v] for v in ids))


def check_partition(graph, certificate, triple) -> bool:
    """Validate a certificate against a graph and budget triple.

    Malformed certificates raise ValueError; budget or class violations
    return False.
    """
    t = as_triple(triple)
    graph = _as_graph(graph)
    labels = certificate.labels if isinstance(certificate, PartitionCertificate) else tuple(certificate)
    if len(labels) != graph.n:
        raise ValueError(f"certificate labels {len(labels)} vertices, graph has {graph.n}")
    forest_masks: dict[int, int] = {}
    indep_masks: dict[int, int] = {}
    deleted = 0
    parsed: dict[str, tuple[str, int]] = {}
    for v, label in enumerate(labels):
        kind, idx = parsed.get(label) or parsed.setdefault(label, _parse_label(label))
        if kind == "F":
            if idx > t.p:
                return False
            forest_masks[idx] = forest_masks.get(idx, 0) | 1 << v
        elif kind == "Q":
            if idx > t.q:
                return False
            indep_masks[idx] = indep_masks.get(idx, 0) | 1 << v
        else:
            deleted += 1
    if deleted > t.r:
        return False
    for mask in indep_masks.values():
        for v in iter_bits(mask):
            if graph.row(v) & mask:
                return False
    for mask in forest_masks.values():
        if not graph.is_forest(mask):
            return False
    return True


# -- derived parameters ------------------------------------------------


def vertex_arboricity(graph_or_tree) -> int:
    """Least p such that (p, 0, 0) is feasible.

    A forest holds at most two vertices of a clique, so p >= ceil(omega/2);
    colour classes are forests and cographs are perfect, so p <= chi = omega.
    Only that bracket is searched, from the box (ceil(omega/2) + 1, 0, 0) up.
    """
    tree = _coerce_tree(graph_or_tree)
    if tree is None:
        return 0
    omega = chromatic_number(tree)
    first = (omega + 1) // 2
    for i in count(1):
        k = min(first + 2 ** i - 1, omega)
        frontier = _frontier_in(tree, Triple(k, 0, 0))
        if frontier:
            return min(a for a, _, _ in frontier)
        if k >= omega:
            # (omega, 0, 0) is feasible, so only a solver bug gets here
            raise AssertionError("last box of the search came back empty")


def min_deletions(graph_or_tree, p: int, q: int) -> int:
    """Least r such that (p, q, r) is feasible: deleting every vertex is
    always a partition, so the fold with no bound on r holds it."""
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (p, q)):
        raise ValueError("class budgets must be integers")
    if p < 0 or q < 0:
        raise ValueError("class budgets must be nonnegative")
    tree = _coerce_tree(graph_or_tree)
    if tree is None:
        return 0
    return min(c for _, _, c in _frontier_in(tree, Triple(p, q, float("inf"))))


def min_q_feedback(graph_or_tree) -> int:
    """Least q such that (1, q, 0) is feasible: the rest of the graph after
    removing a forest must be q-colourable. The paper proves this q is
    max(0, s - 2) for a cograph of strength s."""
    return q_from_strength(strength_profile(graph_or_tree).strength)
