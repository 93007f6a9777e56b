"""Cotrees: the canonical tree decomposition of cographs.

A cotree node is a Leaf (one vertex), a Union (disjoint union of children),
or a Join (union plus all edges across children). Trees are kept normalized:
no Union child of a Union, no Join child of a Join, and every internal node
has at least two children. Leaf ids of a realizable tree are a bijection
with 0..n-1.

The expression DSL builds cotrees from text:

    expr := K(int) | I(int) | U(expr, ...) | J(expr, ...) | int*expr | C(expr)

K(n) is a complete graph, I(n) an edgeless one, int*expr a repeated disjoint
union, and C(expr) the complement (swaps Union and Join throughout).
"""
from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from itertools import count
from operator import itemgetter

from .graph import Graph, iter_bits

__all__ = [
    "Leaf", "Union", "Join", "CotreeNode", "NotACographError",
    "union_of", "join_of", "complement_tree", "relabel", "leaf_count", "leaves",
    "height", "max_join_children", "canonical_code",
    "parse_expr", "to_expr", "realize", "recognize", "find_p4",
    "enumerate_cographs", "count_cographs", "random_cotree", "random_balanced_cotree",
]


class _Node:
    """An immutable cotree node with one field, compared and hashed by
    identity: a structural hash would recurse down the whole subtree. Nodes
    take weak references, so identity-keyed caches can hold them weakly."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _field(self):
        return getattr(self, self.__slots__[0])

    def __repr__(self):
        return f"{type(self).__name__}({self.__slots__[0]}={self._field()!r})"

    def __reduce__(self):
        # the default slot state would be restored through __setattr__
        return type(self), (self._field(),)


class Leaf(_Node):
    __slots__ = ("vertex",)

    def __init__(self, vertex: int):
        object.__setattr__(self, "vertex", vertex)


class Union(_Node):
    __slots__ = ("children",)

    def __init__(self, children: tuple[CotreeNode, ...]):
        object.__setattr__(self, "children", children)


class Join(_Node):
    __slots__ = ("children",)

    def __init__(self, children: tuple[CotreeNode, ...]):
        object.__setattr__(self, "children", children)


CotreeNode = Leaf | Union | Join


class NotACographError(ValueError):
    """Raised when a graph contains an induced P4; carries one as witness."""

    def __init__(self, witness: tuple[int, int, int, int]):
        super().__init__(f"not a cograph: induced P4 on vertices {witness}")
        self.witness = witness


def union_of(children: Sequence[CotreeNode]) -> CotreeNode:
    """Union node over children, flattening nested Unions; singletons collapse."""
    flat: list[CotreeNode] = []
    for ch in children:
        if isinstance(ch, Union):
            flat.extend(ch.children)
        else:
            flat.append(ch)
    if not flat:
        raise ValueError("union of zero cotrees")
    if len(flat) == 1:
        return flat[0]
    return Union(tuple(flat))


def join_of(children: Sequence[CotreeNode]) -> CotreeNode:
    """Join node over children, flattening nested Joins; singletons collapse."""
    flat: list[CotreeNode] = []
    for ch in children:
        if isinstance(ch, Join):
            flat.extend(ch.children)
        else:
            flat.append(ch)
    if not flat:
        raise ValueError("join of zero cotrees")
    if len(flat) == 1:
        return flat[0]
    return Join(tuple(flat))


def _fold(tree: CotreeNode, leaf, node):
    """Post-order fold over a cotree without recursion, so any depth works.

    leaf(l) gives the value of a Leaf and is called on the leaves left to
    right; node(n, values) gives the value of an internal node from the list
    of its children's values, in child order.
    """
    # the node being folded, the iterator over its children and their values
    # so far; its ancestors wait on the stack in the same form. The walk starts
    # at a parent of the root (None) whose one child value is the result.
    n, it, acc = None, iter((tree,)), []
    stack: list = []
    while True:
        for c in it:
            if isinstance(c, Leaf):
                acc.append(leaf(c))
            else:
                stack.append((n, it, acc))
                n, it, acc = c, iter(c.children), []
                break
        else:
            if not stack:
                return acc[0]
            value = node(n, acc)
            n, it, acc = stack.pop()
            acc.append(value)


def _unfold(seed, expand):
    """Build a tree from the root down without recursion, so any depth works.

    expand(seed) returns (make, child_seeds). With no child seeds, make is
    the finished leaf; otherwise the node is make(tuple of built children).
    Seeds are expanded in pre-order, children left to right, so expand may
    draw from a shared random stream exactly as a recursive builder would.
    """
    # the node being built, the iterator over its child seeds and its
    # children built so far; its ancestors wait on the stack in the same form.
    # The walk starts at a parent of the root (None) whose one child is the result.
    make, it, acc = None, iter((seed,)), []
    stack: list = []
    while True:
        for s in it:
            child_make, child_seeds = expand(s)
            if child_seeds:
                stack.append((make, it, acc))
                make, it, acc = child_make, iter(child_seeds), []
                break
            acc.append(child_make)
        else:
            if not stack:
                return acc[0]
            value = make(tuple(acc))
            make, it, acc = stack.pop()
            acc.append(value)


def complement_tree(tree: CotreeNode) -> CotreeNode:
    """Complement a cotree by swapping Union and Join nodes; leaves keep ids."""
    return _fold(tree, lambda leaf: leaf,
                 lambda n, kids: (Union if isinstance(n, Join) else Join)(tuple(kids)))


def relabel(tree: CotreeNode) -> CotreeNode:
    """Copy of tree with leaf ids reassigned 0..n-1 in left-to-right order."""
    ids = count()
    return _fold(tree, lambda _: Leaf(next(ids)), lambda n, kids: type(n)(tuple(kids)))


def leaf_count(tree: CotreeNode) -> int:
    return _fold(tree, lambda _: 1, lambda n, counts: sum(counts))


def leaves(tree: CotreeNode) -> Iterator[int]:
    """Leaf vertex ids in left-to-right order."""
    ids: list[int] = []
    _fold(tree, lambda leaf: ids.append(leaf.vertex), lambda n, kids: None)
    yield from ids


def height(tree: CotreeNode) -> int:
    """Height in edges: a single Leaf has height 0."""
    return _fold(tree, lambda _: 0, lambda n, heights: 1 + max(heights))


def max_join_children(tree: CotreeNode) -> int:
    """Largest arity among Join nodes, 0 when no Join exists."""
    return _fold(tree, lambda _: 0, lambda n, best: max(
        len(n.children) if isinstance(n, Join) else 0, *best))


def _code_node(n: CotreeNode, codes: list[bytes]) -> bytes:
    return (b"U(" if isinstance(n, Union) else b"J(") + b"".join(sorted(codes)) + b")"


def canonical_code(tree: CotreeNode) -> bytes:
    """Canonical label-independent code; equal iff realized graphs are isomorphic."""
    return _fold(tree, lambda _: b"L", _code_node)


# -- expression DSL ----------------------------------------------------


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str):
        raise ValueError(f"expression error at position {self.pos}: {message}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        return int(self.text[start : self.pos])

    def expr(self) -> CotreeNode:
        # operators still waiting for a finished operand: ("*", count),
        # ("C", None), or ("U" / "J", operands so far)
        pending: list[tuple[str, object]] = []
        while True:
            ch = self.peek()
            if "0" <= ch <= "9":    # ASCII only: int() would read other digits too
                count = self.integer()
                self.expect("*")
                if count < 1:
                    self.fail("repetition count must be at least 1")
                pending.append(("*", count))
                continue
            if ch and ch in "UJC":
                self.pos += 1
                self.expect("(")
                pending.append((ch, []))
                continue
            if not ch or ch not in "KI":
                self.fail("expected K, I, U, J, C, or a repetition count")
            self.pos += 1
            self.expect("(")
            size = self.integer()
            self.expect(")")
            if size < 1:
                self.fail(f"{ch}(k) requires k >= 1")
            value = (join_of if ch == "K" else union_of)([Leaf(0) for _ in range(size)])
            # close operators until one needs another operand; repeated
            # copies share nodes until parse_expr's relabel copies them
            while pending:
                op, arg = pending[-1]
                if op == "*":
                    value = union_of([value] * arg)
                elif op == "C":
                    self.expect(")")
                    value = complement_tree(value)
                else:
                    arg.append(value)
                    if self.peek() == ",":
                        self.pos += 1
                        break
                    self.expect(")")
                    value = union_of(arg) if op == "U" else join_of(arg)
                pending.pop()
            else:
                return value


def parse_expr(text: str) -> CotreeNode:
    """Parse a cotree expression; leaf ids are assigned left to right."""
    parser = _ExprParser(text)
    tree = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.fail("trailing input")
    return relabel(tree)


def to_expr(tree: CotreeNode) -> str:
    """Serialize to the expression DSL; parse_expr round-trips the canonical code."""
    def node(n: CotreeNode, kids: list[tuple[bytes, str]]) -> tuple[bytes, str]:
        code = _code_node(n, [c for c, _ in kids])
        if all(isinstance(c, Leaf) for c in n.children):
            return code, f"{'K' if isinstance(n, Join) else 'I'}({len(kids)})"
        if isinstance(n, Join):
            return code, "J(" + ",".join(text for _, text in kids) + ")"
        groups: list[list] = []     # runs of equal children: [code, count, text]
        for c, text in kids:
            if groups and groups[-1][0] == c:
                groups[-1][1] += 1
            else:
                groups.append([c, 1, text])
        parts = [text if k == 1 else f"{k}*{text}" for _, k, text in groups]
        if len(groups) == 1 and groups[0][1] > 1:
            return code, parts[0]
        return code, "U(" + ",".join(parts) + ")"

    return _fold(tree, lambda _: (b"L", "K(1)"), node)[1]


# -- realize / recognize ----------------------------------------------


def realize(tree: CotreeNode) -> Graph:
    """Build the graph a cotree describes; leaf ids must be a 0..n-1 bijection."""
    ids = list(leaves(tree))
    n = len(ids)
    if sorted(ids) != list(range(n)):
        raise ValueError("leaf ids are not a bijection with 0..n-1")
    rows = [0] * n

    def node(n: CotreeNode, masks: list[int]) -> int:
        total = 0
        for m in masks:
            total |= m
        if isinstance(n, Join):
            for m in masks:
                other = total & ~m
                for v in iter_bits(m):
                    rows[v] |= other
        return total

    _fold(tree, lambda leaf: 1 << leaf.vertex, node)
    return Graph._unsafe(n, tuple(rows))


def find_p4(graph: Graph, within: int | None = None) -> tuple[int, int, int, int] | None:
    """Find an induced path a-b-c-d, or None. Deterministic scan order."""
    scope = (1 << graph.n) - 1 if within is None else within
    for b in iter_bits(scope):
        nb = graph.row(b) & scope
        for c in iter_bits(nb):
            nc = graph.row(c) & scope
            a_cands = nb & ~nc & ~(1 << c)
            d_cands = nc & ~nb & ~(1 << b)
            if not a_cands or not d_cands:
                continue
            for a in iter_bits(a_cands):
                free = d_cands & ~graph.row(a) & ~(1 << a)
                if free:
                    d = next(iter_bits(free))
                    return (a, b, c, d)
    return None


def recognize(graph: Graph) -> CotreeNode | None:
    """Cotree of a cograph with identity leaf labelling, None for the empty graph.

    Raises:
        NotACographError: with an induced P4 witness when graph is not a cograph.
    """
    if graph.n == 0:
        return None

    def expand(mask: int):
        if mask & (mask - 1) == 0:
            return Leaf(mask.bit_length() - 1), ()
        comps = graph.component_masks(mask)
        if len(comps) > 1:
            return Union, comps
        cocomps = graph.component_masks(mask, complement=True)
        if len(cocomps) > 1:
            return Join, cocomps
        witness = find_p4(graph, mask)
        assert witness is not None, "connected co-connected graph must contain a P4"
        raise NotACographError(witness)

    return _unfold((1 << graph.n) - 1, expand)


def _coerce_tree(graph_or_tree) -> CotreeNode | None:
    """Cotree of a Graph or cotree input; None, as from recognize, stands for
    the empty graph."""
    if isinstance(graph_or_tree, Graph):
        return recognize(graph_or_tree)
    if graph_or_tree is None or isinstance(graph_or_tree, (Leaf, Union, Join)):
        return graph_or_tree
    raise TypeError(f"expected a Graph or cotree node, got {type(graph_or_tree).__name__}")


def _as_graph(graph_or_tree) -> Graph:
    """Graph of a Graph or cotree input; None stands for the empty graph."""
    if isinstance(graph_or_tree, Graph):
        return graph_or_tree
    if graph_or_tree is None:
        return Graph(0)
    return realize(graph_or_tree)


# -- enumeration -------------------------------------------------------


def _multisets(total: int, pool: list, start: int = 0) -> Iterator[tuple]:
    """Multisets of pool[start:] entries, whose sizes (first fields) sum to
    total, as tuples in pool order. The pool is in ascending size order."""
    if total == 0:
        yield ()
    for idx in range(start, len(pool)):
        size = pool[idx][0]
        if size > total:
            break
        for rest in _multisets(total - size, pool, idx):
            yield (pool[idx], *rest)


def enumerate_cographs(n: int) -> Iterator[CotreeNode]:
    """One normalized cotree per isomorphism class of cographs on n vertices.

    Trees are yielded in a deterministic order with leaf ids 0..n-1 from
    left to right: the Join-rooted trees, then the Union-rooted ones, each
    sorted by canonical code. Below the root, trees share structure: every
    tree that places the same subtree at the same first leaf id holds the
    same node. Every call builds its trees afresh and keeps none after it
    ends.
    Intended for n up to about 12; counts grow roughly threefold per vertex.
    """
    if n < 1:
        raise ValueError("enumeration needs n >= 1")
    if n == 1:
        yield Leaf(0)
        return
    # (size, code, complement's code, children's entries) for the leaf and
    # each Union-rooted cograph so far, by size and then code. The Union is
    # over the complements of its children's cographs, and its complement is
    # the Join over the children's cographs themselves.
    pool = [(1, b"L", b"L", ())]
    for size in range(2, n + 1):
        # both codes sort the children's codes
        joins = sorted([(b"J(" + b"".join(sorted([e[1] for e in kids])) + b")",
                         b"U(" + b"".join(sorted([e[2] for e in kids])) + b")", kids)
                        for kids in _multisets(size, pool)], key=itemgetter(0))
        pool += sorted([(size, ucode, jcode, kids) for jcode, ucode, kids in joins],
                       key=itemgetter(1))

    # (code, first leaf id) -> the non-root node of that cograph whose
    # leaves are numbered from there; a code names one pool entry's side
    copies: dict[tuple[bytes, int], CotreeNode] = {}

    def place(kids: tuple, union: bool, first: int) -> tuple[CotreeNode, ...]:
        """The Union-rooted cographs of kids (their complements when not
        union), side by side with leaf ids from first on."""
        out = []
        for size, ucode, jcode, grandkids in kids:
            key = (ucode if union else jcode, first)
            node = copies.get(key)
            if node is None:
                node = Leaf(first) if not grandkids else (Union if union else Join)(
                    place(grandkids, not union, first))
                copies[key] = node
            out.append(node)
            first += size
        return tuple(out)

    # roots are never shared, so they are built outside the copies
    for _, _, kids in joins:
        yield Join(place(kids, True, 0))
    for _, _, _, kids in pool[-len(joins):]:
        yield Union(place(kids, False, 0))


def count_cographs(n: int) -> int:
    """Number of cographs on n vertices up to isomorphism, 0 for n < 1.

    The Euler transform of the connected counts (OEIS A000084), where on two
    or more vertices exactly one of a cograph and its complement is
    connected. No tree is built.
    """
    # all and connected cographs on 0 and 1 vertices; s[k] sums d * conn[d] over d | k
    total, conn, s = [1, 1], [0, 1], [0, 1]
    for m in range(2, n + 1):
        # m * total[m] sums s[k] * total[m - k] over 1 <= k <= m, and the
        # term k = m holds m * conn[m] = m * total[m] / 2
        proper = sum(d * conn[d] for d in range(1, m // 2 + 1) if m % d == 0)
        total.append(2 * (proper + sum(s[k] * total[m - k] for k in range(1, m))) // m)
        conn.append(total[m] // 2)
        s.append(proper + m * conn[m])
    return total[n] if n >= 1 else 0


# -- random generation -------------------------------------------------


def _random_tree(n: int, rng: random.Random | int, split) -> CotreeNode:
    """Random normalized cotree on n leaves, labelled 0..n-1; split(k, rng)
    draws the child sizes of a node with k leaves."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    if n < 1:
        raise ValueError("random cotree needs n >= 1")

    def expand(seed: tuple[int, bool | None]):
        k, parent_is_union = seed
        if k == 1:
            return Leaf(0), ()
        sizes = split(k, rng)
        make_union = rng.random() < 0.5 if parent_is_union is None else not parent_is_union
        return (Union if make_union else Join), [(s, make_union) for s in sizes]

    return relabel(_unfold((n, None), expand))


def _random_split(k: int, rng: random.Random) -> list[int]:
    arity = rng.randint(2, min(k, 5))
    cuts = sorted(rng.sample(range(1, k), arity - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [k])]


def _balanced_split(k: int, rng: random.Random) -> list[int]:
    arity = 2 if k < 4 else rng.randint(2, 3)
    base, extra = divmod(k, arity)
    return [base + (1 if i < extra else 0) for i in range(arity)]


def random_cotree(n: int, rng: random.Random | int) -> CotreeNode:
    """Random normalized cotree on n leaves, labelled 0..n-1.

    Accepts a seeded random.Random or a bare seed for reproducibility.
    """
    return _random_tree(n, rng, _random_split)


def random_balanced_cotree(n: int, rng: random.Random | int) -> CotreeNode:
    """Random cotree whose splits are near-even, so depth is O(log n)."""
    return _random_tree(n, rng, _balanced_split)
