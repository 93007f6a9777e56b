"""Slow reference codecs, realize, row check, expression parser, random
trees, a deleting fold and two derived parameters: the straightforward versions that the
library's routines replaced, kept verbatim (methods become functions of the
Graph) so tests can require byte-identical results.
"""
import random

from cographpart.cotree import (
    CotreeNode, Join, Leaf, Union, _coerce_tree, _fold, _unfold, complement_tree, join_of,
    leaf_count, leaves, relabel, union_of,
)
from cographpart.graph import Graph, _decode_order, _encode_order, _strip_header, iter_bits
from cographpart.solver import (
    _ABSENT, Triple, TripleSet, _frontier_in, _leaf_frontier, _prefix_frontiers, _region,
    chromatic_number,
)

# the six bits of each graph6 character 63..126
_CHAR = {f"{c:06b}": chr(c + 63) for c in range(64)}


def _chars(bits: str) -> str:
    """Pack a string of "0"/"1" six bits per character, padding the end with 0s."""
    bits += "0" * (-len(bits) % 6)
    return "".join([_CHAR[bits[i : i + 6]] for i in range(0, len(bits), 6)])


def check_rows(n: int, rows) -> None:
    """Graph(n, rows)'s validation: raise ValueError where it must."""
    full = (1 << n) - 1
    for v, row in enumerate(rows):
        if row & ~full or row >> v & 1:
            raise ValueError(f"row {v} has bits outside 0..{n - 1} or a self-loop")
    for v, row in enumerate(rows):
        for u in iter_bits(row):
            if not rows[u] >> v & 1:
                raise ValueError(f"adjacency not symmetric at ({u}, {v})")


def to_graph6(self: Graph) -> str:
    # column j lists the bits of rows[j] below the diagonal, vertex 0 first
    bits = "".join(
        format(self._rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, self.n))
    return _encode_order(self.n) + _chars(bits)


def from_graph6(text: str) -> Graph:
    data = _strip_header(text, ">>graph6<<")
    if data.startswith(":"):
        raise ValueError("sparse6 input: use from_sparse6")
    n, bits = _decode_order(data)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(bits) != 6 * need:
        raise ValueError(f"graph6 body has {len(bits) // 6} groups, expected {need}")
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        col = int(bits[pos : pos + j][::-1], 2)
        pos += j
        rows[j] = col
        for i in iter_bits(col):
            rows[i] |= 1 << j
    return Graph._unsafe(n, tuple(rows))


def to_sparse6(self: Graph) -> str:
    n = self.n
    k = max(1, (n - 1).bit_length())
    records = []
    cur = 0
    for v, u in sorted((max(e), min(e)) for e in self.edges()):
        if v == cur:
            records.append(f"0{u:0{k}b}")
        else:
            records.append(f"1{u:0{k}b}" if v == cur + 1 else f"1{v:0{k}b}0{u:0{k}b}")
            cur = v
    bits = "".join(records)
    # pad with 1s; guard against the padding spelling a phantom edge at n-1
    pad = -len(bits) % 6
    if k < 6 and n == (1 << k) and pad >= k and cur < n - 1:
        bits += "0"
        pad = -len(bits) % 6
    return ":" + _encode_order(n) + _chars(bits + "1" * pad)


def to_edge_list_text(self: Graph) -> str:
    lines = [str(self.n)]
    lines.extend(f"{u} {v}" for u, v in self.edges())
    return "\n".join(lines) + "\n"


def realize(tree) -> Graph:
    """Build the graph a cotree describes; leaf ids must be a 0..n-1 bijection."""
    ids = list(leaves(tree))
    n = len(ids)
    if sorted(ids) != list(range(n)):
        raise ValueError("leaf ids are not a bijection with 0..n-1")
    rows = [0] * n

    def node(n, masks: list[int]) -> int:
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


def random_tree(n: int, rng: random.Random | int, split):
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


def _leaves_but(without: int | None, value, absent):
    """Fold leaf callback: absent at vertex without, value at every other leaf."""
    if without is None:  # so that a fold deleting nothing tests no leaf
        return lambda _: value
    return lambda leaf: absent if leaf.vertex == without else value


def feasible_set(tree, box: Triple, without: int | None = None) -> TripleSet:
    """feasible_set of tree, or of its graph without vertex without."""
    if tree is None:
        return TripleSet(box, (Triple(0, 0, 0),))
    region = _region(box)
    work = _fold(tree, _leaves_but(without, _leaf_frontier(region), _ABSENT),
                 lambda node, fronts: _prefix_frontiers(node, fronts, region)[-1])
    frontier = tuple(
        Triple(a, b, c) for a, b, c in work
        if a <= box.p and b <= box.q and c <= box.r
    )
    return TripleSet(box, frontier)


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
    first = (omega + 1) // 2
    step = 1
    while True:
        k = min(first + step - 1, omega)
        frontier = _frontier_in(tree, Triple(k, 0, 0))
        if frontier:
            return min(a for a, _, _ in frontier)
        if k >= omega:
            # (omega, 0, 0) is feasible, so only a solver bug gets here
            raise AssertionError("last box of the search came back empty")
        step *= 2


def min_deletions(graph_or_tree, p: int, q: int) -> int:
    """Least r such that (p, q, r) is feasible: deleting every vertex is
    always a partition, so the fold at the box (p, q, n) holds it."""
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (p, q)):
        raise ValueError("class budgets must be integers")
    if p < 0 or q < 0:
        raise ValueError("class budgets must be nonnegative")
    tree = _coerce_tree(graph_or_tree)
    if tree is None:
        return 0
    return min(c for _, _, c in _frontier_in(tree, Triple(p, q, leaf_count(tree))))
