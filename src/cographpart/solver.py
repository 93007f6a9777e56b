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
a <= P, 2a + b + c <= 2P + Q + R} for the query box (P, Q, R). The weight
2p + q + r of a join combination equals the sum of the child weights and
never decreases elsewhere, so restricting to the region loses nothing for
queries inside the box, while keeping frontiers small.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .cotree import (
    CotreeNode, Join, Leaf, Union, _as_graph, _coerce_tree, _fold, _unfold, leaf_count,
)
from .graph import iter_bits
from .strength import q_from_strength, strength_profile

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
    if not all(isinstance(x, int) and x >= 0 for x in t):
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
_COMBINE_CACHE_LIMIT = 1 << 18


def _minimalize(cands) -> _FrontierT:
    """Minimal antichain of a candidate set, sorted lexicographically."""
    layers: dict[int, dict[int, int]] = {}
    for a, b, c in cands:
        layer = layers.setdefault(a, {})
        old = layer.get(b)
        if old is None or c < old:
            layer[b] = c
    out: list[tuple[int, int, int]] = []
    stairs: list[tuple[list[int], list[int]]] = []
    for a in sorted(layers):
        layer = layers[a]
        bs: list[int] = []
        cs: list[int] = []
        for b in sorted(layer):
            c = layer[b]
            if cs and c >= cs[-1]:
                continue
            dominated = False
            for sb, sc in stairs:
                i = bisect_right(sb, b) - 1
                if i >= 0 and sc[i] <= c:
                    dominated = True
                    break
            if not dominated:
                bs.append(b)
                cs.append(c)
        if bs:
            stairs.append((bs, cs))
            out.extend((a, b, c) for b, c in zip(bs, cs))
    return tuple(out)


def _combine(kind: str, fl: _FrontierT, fr: _FrontierT, P: int, W: int) -> _FrontierT:
    key = (kind, P, W, fl, fr)
    hit = _combine_cache.get(key)
    if hit is not None:
        return hit
    cands: list[tuple[int, int, int]] = []
    if kind == "U":
        for a, b, c in fl:
            for a2, b2, c2 in fr:
                aa = a if a >= a2 else a2
                bb = b if b >= b2 else b2
                cc = c + c2
                if 2 * aa + bb + cc <= W:
                    cands.append((aa, bb, cc))
    else:
        for a, b, c in fl:
            for a2, b2, c2 in fr:
                # the weight 2p+q+r of every derived triple is the sum of
                # the pair's weights, independent of the crossing count
                if 2 * (a + a2) + b + b2 + c + c2 > W:
                    continue
                tmax = min(c, b2) + min(b, c2)
                room = P - a - a2
                if tmax > room:
                    tmax = room
                for t in range(tmax + 1):
                    cands.append((a + a2 + t, b + b2 - t, c + c2 - t))
    result = _minimalize(cands)
    if len(_combine_cache) >= _COMBINE_CACHE_LIMIT:
        _combine_cache.clear()
    _combine_cache[key] = result
    return result


def _leaf_frontier(P: int, W: int) -> _FrontierT:
    cands = []
    if P >= 1 and W >= 2:
        cands.append((1, 0, 0))
    if W >= 1:
        cands.extend([(0, 1, 0), (0, 0, 1)])
    return tuple(cands)


def _prefix_frontiers(node: CotreeNode, fronts: list[_FrontierT], P: int, W: int) -> list[_FrontierT]:
    """Frontiers of the left-fold prefixes of node's children, combining the
    children two at a time; the last is the frontier of node itself."""
    kind = "U" if isinstance(node, Union) else "J"
    prefixes = [fronts[0]]
    for f in fronts[1:]:
        prefixes.append(_combine(kind, prefixes[-1], f, P, W))
    return prefixes


# -- public solver surface --------------------------------------------


class TripleSet:
    """Upward-closed feasible triples inside a box, held as the frontier."""

    __slots__ = ("box", "frontier", "_grid")

    def __init__(self, box: Triple, frontier: tuple[Triple, ...]):
        self.box = box
        self.frontier = tuple(sorted(frontier))
        self._grid: bytes | None = None

    def contains(self, triple) -> bool:
        t = as_triple(triple)
        if not self.box.dominates(t):
            raise ValueError(f"{tuple(t)} lies outside the computed box {tuple(self.box)}")
        return any(t.dominates(m) for m in self.frontier)

    @property
    def grid(self) -> bytes:
        """Dense membership over the box, index (p*(Q+1) + q)*(R+1) + r."""
        if self._grid is None:
            P, Q, R = self.box
            buf = bytearray((P + 1) * (Q + 1) * (R + 1))
            for mp, mq, mr in self.frontier:
                for a in range(mp, P + 1):
                    for b in range(mq, Q + 1):
                        base = (a * (Q + 1) + b) * (R + 1)
                        for c in range(mr, R + 1):
                            buf[base + c] = 1
            self._grid = bytes(buf)
        return self._grid

    def triples(self):
        """All feasible triples in the box, lexicographically."""
        P, Q, R = self.box
        grid = self.grid
        i = 0
        for a in range(P + 1):
            for b in range(Q + 1):
                for c in range(R + 1):
                    if grid[i]:
                        yield Triple(a, b, c)
                    i += 1

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
        return cls(as_triple(data["box"], "box"),
                   tuple(as_triple(t) for t in data["frontier"]))


def feasible_set(graph_or_tree, box) -> TripleSet:
    """TripleSet of all feasible triples of the input within box."""
    box = as_triple(box, "box")
    tree = _coerce_tree(graph_or_tree)
    if tree is None:
        return TripleSet(box, (Triple(0, 0, 0),))
    P = box.p
    W = 2 * box.p + box.q + box.r
    leaf = _leaf_frontier(P, W)
    work = _fold(tree, lambda _: leaf,
                 lambda node, fronts: _prefix_frontiers(node, fronts, P, W)[-1])
    frontier = tuple(
        Triple(a, b, c) for a, b, c in work
        if a <= box.p and b <= box.q and c <= box.r
    )
    return TripleSet(box, frontier)


def is_partitionable(graph_or_tree, triple) -> bool:
    t = as_triple(triple)
    return feasible_set(graph_or_tree, t).contains(t)


# -- certificates ------------------------------------------------------


@dataclass(frozen=True)
class PartitionCertificate:
    """Per-vertex labels for a concrete partition: "F3", "Q1", or "R"."""

    triple: Triple
    labels: tuple[str, ...]

    def to_json(self) -> dict:
        return {"labels": [{"v": v, "class": lab} for v, lab in enumerate(self.labels)]}

    @classmethod
    def from_json(cls, data: dict, triple=None) -> PartitionCertificate:
        entries = data["labels"]
        labels: dict[int, str] = {}
        for item in entries:
            labels[int(item["v"])] = str(item["class"])
        if sorted(labels) != list(range(len(labels))):
            raise ValueError("certificate labels must cover vertices 0..n-1")
        t = as_triple(triple) if triple is not None else Triple(0, 0, 0)
        return cls(t, tuple(labels[v] for v in range(len(labels))))


_LABEL_RE = re.compile(r"^(?:R|([FQ])([1-9][0-9]*))$")


def _parse_label(label: str) -> tuple[str, int]:
    m = _LABEL_RE.match(label)
    if not m:
        raise ValueError(f"malformed class label {label!r}")
    if m.group(1) is None:
        return ("R", 0)
    return (m.group(1), int(m.group(2)))


def _find_split(kind: str, fl: _FrontierT, fr: _FrontierT, target: Triple):
    """First (left, right, crossing) choice whose derived triple fits target."""
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


def _merge(kind: str, splits: list, maps: tuple[dict, ...]) -> dict[int, tuple[str, int]]:
    """Fuse the children's label maps left to right; splits[i] is the
    (left, right, crossing) choice that joins child i to the ones before it."""
    merged = maps[0]
    for i in range(1, len(maps)):
        if kind == "U":
            merged.update(maps[i])
        else:
            lm, rm, t = splits[i]
            merged = _merge_join(merged, lm, maps[i], rm, t)
    return merged


def _merge_join(left: dict, lm: Triple, right: dict, rm: Triple, t: int):
    """Relabel and fuse the two sides of a join, forming t crossing stars."""
    tu = min(t, lm.r, rm.q)
    td = t - tu
    merged: dict[int, tuple[str, int]] = {}

    left_deleted = sorted(v for v, (k, _) in left.items() if k == "R")
    right_deleted = sorted(v for v, (k, _) in right.items() if k == "R")
    ku = max(0, len(left_deleted) - (lm.r - tu))
    kd = max(0, len(right_deleted) - (rm.r - td))
    star_base = lm.p + rm.p
    # up-centered stars take their centers from the left deletion surplus and
    # their leaves from the last tu independent classes of the right side
    center_of: dict[int, int] = {}
    for s, v in enumerate(left_deleted[:ku], start=1):
        center_of[v] = star_base + s
    for s, v in enumerate(right_deleted[:kd], start=1):
        center_of[v] = star_base + tu + s

    for v, (k, i) in left.items():
        if k == "F":
            merged[v] = (k, i)
        elif k == "Q":
            if i > lm.q - td:
                merged[v] = ("F", star_base + tu + (i - (lm.q - td)))
            else:
                merged[v] = (k, i)
        else:
            merged[v] = ("F", center_of[v]) if v in center_of else ("R", 0)
    for v, (k, i) in right.items():
        if k == "F":
            merged[v] = (k, lm.p + i)
        elif k == "Q":
            if i > rm.q - tu:
                merged[v] = ("F", star_base + (i - (rm.q - tu)))
            else:
                merged[v] = (k, lm.q - td + i)
        else:
            merged[v] = ("F", center_of[v]) if v in center_of else ("R", 0)
    return merged


def extract_certificate(graph_or_tree, triple) -> PartitionCertificate:
    """A concrete partition achieving triple, chosen deterministically.

    Raises:
        ValueError: when triple is not feasible for the input.
    """
    t = as_triple(triple)
    tree = _coerce_tree(graph_or_tree)
    if tree is None:
        return PartitionCertificate(t, ())
    P = t.p
    W = t.obstruction_weight()
    # bottom-up: per node, its prefix frontiers and its children's entries
    leaf = ((_leaf_frontier(P, W),), ())
    info = _fold(tree, lambda _: leaf, lambda node, kids: (
        _prefix_frontiers(node, [k[0][-1] for k in kids], P, W), kids))
    if not any(t.dominates(Triple(*m)) for m in info[0][-1]):
        raise ValueError(f"no ({t.p}, {t.q}, {t.r})-partition exists")

    def expand(seed):
        """Split a node's target over its children, last child first."""
        node, (prefixes, kids), target = seed
        if isinstance(node, Leaf):
            return {node.vertex: _leaf_label(target)}, ()
        kind = "U" if isinstance(node, Union) else "J"
        targets = [target] * len(kids)
        splits = [None] * len(kids)
        for i in range(len(kids) - 1, 0, -1):
            splits[i] = _find_split(kind, prefixes[i - 1], kids[i][0][-1], target)
            target, targets[i], _ = splits[i]
        targets[0] = target
        return partial(_merge, kind, splits), list(zip(node.children, kids, targets))

    assignment = _unfold((tree, info, t), expand)
    labels = []
    for v in range(leaf_count(tree)):
        kind, idx = assignment[v]
        labels.append("R" if kind == "R" else f"{kind}{idx}")
    return PartitionCertificate(t, tuple(labels))


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
    for v, label in enumerate(labels):
        kind, idx = _parse_label(label)
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
        if not graph.induced_subgraph(iter_bits(mask)).is_forest():
            return False
    return True


# -- derived parameters ------------------------------------------------


def _doubling_min(tree: CotreeNode, first: int, last: int, make_box, pick) -> int:
    """Least budget in [first, last] through the boxes first + 2^i - 1, capped
    at last; the caller has proven make_box(last) feasible."""
    step = 1
    while True:
        k = min(first + step - 1, last)
        fs = feasible_set(tree, make_box(k))
        if fs.frontier:
            return min(pick(m) for m in fs.frontier)
        if k >= last:
            # a bracket's last box is feasible, so only a solver bug gets here
            raise AssertionError("last box of the search came back empty")
        step *= 2


def vertex_arboricity(graph_or_tree) -> int:
    """Least p such that (p, 0, 0) is feasible.

    A forest holds at most two vertices of a clique, so p >= ceil(omega/2);
    colour classes are forests and cographs are perfect, so p <= chi = omega.
    Only that bracket is searched.
    """
    tree = _coerce_tree(graph_or_tree)
    if tree is None:
        return 0
    omega = chromatic_number(tree)
    return _doubling_min(tree, (omega + 1) // 2, omega,
                         lambda k: Triple(k, 0, 0), lambda m: m.p)


def chromatic_number(graph_or_tree) -> int:
    """Least q such that (0, q, 0) is feasible.

    Cographs are perfect (Seinsche 1974), so this is the clique number: a
    union takes the largest part's, a join adds its children's.
    """
    tree = _coerce_tree(graph_or_tree)
    if tree is None:
        return 0
    return _fold(tree, lambda _: 1,
                 lambda node, omegas: sum(omegas) if isinstance(node, Join) else max(omegas))


def min_deletions(graph_or_tree, p: int, q: int) -> int:
    """Least r such that (p, q, r) is feasible."""
    if p < 0 or q < 0:
        raise ValueError("class budgets must be nonnegative")
    tree = _coerce_tree(graph_or_tree)
    if tree is None:
        return 0
    # deleting every vertex is always a partition
    return _doubling_min(tree, 1, leaf_count(tree),
                         lambda k: Triple(p, q, k), lambda m: m.r)


def min_q_feedback(graph_or_tree) -> int:
    """Least q such that (1, q, 0) is feasible: the rest of the graph after
    removing a forest must be q-colourable. The paper proves this q is
    max(0, s - 2) for a cograph of strength s."""
    return q_from_strength(strength_profile(graph_or_tree).strength)
