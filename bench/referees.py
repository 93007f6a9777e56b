"""Independent referees for the benchmark's outputs.

Every check here is the benchmark's own code or networkx; none calls the
library function whose answer it judges. Cotree walks are iterative, so
the referees work on trees deeper than the interpreter's recursion limit.

Each check returns None when it accepts and a one-line reason when it
rejects. `self_test()` plants a wrong answer in front of each referee and
reports every referee that fails to reject it.

Run `PYTHONPATH=src python3 bench/referees.py` from the repository root to
run the self-tests alone.
"""
from __future__ import annotations

import re
import sys

from cographpart import Join, Leaf, Union

_LABEL = re.compile(r"(R)|([FQ])([1-9][0-9]*)")


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- iterative cotree folds --------------------------------------------


def postorder(tree) -> list:
    """Nodes of tree with every child before its parent."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node)
        if not isinstance(node, Leaf):
            stack.extend(node.children)
    out.reverse()
    return out


def fold(tree, leaf, union, join):
    """Bottom-up fold: leaf(node) at leaves, union/join(list of child values)."""
    val = {}
    for node in postorder(tree):
        if isinstance(node, Leaf):
            val[id(node)] = leaf(node)
        else:
            kids = [val.pop(id(c)) for c in node.children]
            val[id(node)] = (union if isinstance(node, Union) else join)(kids)
    return val[id(tree)]


def leaf_count(tree) -> int:
    return fold(tree, lambda _: 1, sum, sum)


def canon(tree, intern: dict) -> int:
    """Id of the tree's isomorphism class, interned in `intern`."""
    def key(tag):
        def make(kids):
            return intern.setdefault((tag, tuple(sorted(kids))), len(intern))
        return make
    return fold(tree, lambda _: intern.setdefault(("L",), len(intern)),
                key("U"), key("J"))


def census(tree) -> dict:
    """Shape of one cotree: sizes, height, widest node, edges, sharing."""
    intern: dict = {}
    internal = 0
    widest = 0
    # per node: (leaves, height, class id)
    val = {}
    edges = 0
    for node in postorder(tree):
        if isinstance(node, Leaf):
            val[id(node)] = (1, 0, intern.setdefault(("L",), len(intern)))
            continue
        kids = [val.pop(id(c)) for c in node.children]
        internal += 1
        widest = max(widest, len(kids))
        n = sum(k[0] for k in kids)
        tag = "U" if isinstance(node, Union) else "J"
        if tag == "J":
            edges += (n * n - sum(k[0] * k[0] for k in kids)) // 2
        cid = intern.setdefault((tag, tuple(sorted(k[2] for k in kids))), len(intern))
        val[id(node)] = (n, 1 + max(k[1] for k in kids), cid)
    n, height, _ = val[id(tree)]
    distinct = len(intern) - (1 if ("L",) in intern else 0)
    return {
        "leaves": n, "internal": internal, "height": height,
        "max_arity": widest, "edges": edges,
        "distinct_internal": distinct,
        "repeated_share": 0.0 if internal == 0 else 1 - distinct / internal,
    }


def rows_of(tree) -> list[int]:
    """Adjacency bitmask per vertex of the graph the cotree describes."""
    n = leaf_count(tree)
    rows = [0] * n
    masks = {}
    for node in postorder(tree):
        if isinstance(node, Leaf):
            masks[id(node)] = 1 << node.vertex
            continue
        kids = [masks.pop(id(c)) for c in node.children]
        total = 0
        for m in kids:
            total |= m
        if isinstance(node, Join):
            for m in kids:
                other = total & ~m
                for v in bits(m):
                    rows[v] |= other
        masks[id(node)] = total
    return rows


def omega_tau(tree) -> tuple[int, int]:
    """Clique number and most pairs of an induced cocktail-party graph."""
    return fold(
        tree,
        lambda _: (1, 0),
        lambda kids: (max(k[0] for k in kids), max(1, max(k[1] for k in kids))),
        lambda kids: (sum(k[0] for k in kids), sum(k[1] for k in kids)))


def alpha(tree, kmax: int) -> list[int]:
    """best[k]: most vertices inducing a k-colourable subgraph, k = 0..kmax.

    Colour classes cannot cross a join, so a join splits k among its
    children; a union gives every child all k.
    """
    def union(kids):
        return [sum(k[j] for k in kids) for j in range(kmax + 1)]

    def join(kids):
        acc = kids[0]
        for kid in kids[1:]:
            acc = [max(acc[i] + kid[j - i] for i in range(j + 1)) for j in range(kmax + 1)]
        return acc

    return fold(tree, lambda _: [0] + [1] * kmax, union, join)


# -- checks ------------------------------------------------------------


def rows_error(got: list[int], want: list[int]) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} vertices, expected {len(want)}"
    for v, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"adjacency of vertex {v} differs"
    return None


def is_normalized(tree) -> str | None:
    """Internal nodes have >= 2 children and alternate Union/Join."""
    for node in postorder(tree):
        if isinstance(node, Leaf):
            continue
        if len(node.children) < 2:
            return "internal node with fewer than two children"
        if any(type(c) is type(node) for c in node.children):
            return "child of the same kind as its parent"
    return None


def p4_error(rows: list[int], quad) -> str | None:
    """The path a-b-c-d is induced: exactly the edges ab, bc, cd."""
    a, b, c, d = quad
    if len({a, b, c, d}) != 4 or not all(0 <= x < len(rows) for x in quad):
        return f"{quad} is not four distinct vertices"
    def adj(u, v):
        return rows[u] >> v & 1
    if not (adj(a, b) and adj(b, c) and adj(c, d)):
        return f"{quad} misses a path edge"
    if adj(a, c) or adj(b, d) or adj(a, d):
        return f"{quad} has a chord"
    return None


def certificate_error(rows: list[int], labels, triple) -> str | None:
    """Budget and classes of a partition certificate.

    Forest classes are judged by networkx; independent classes and the
    deletion budget by bit tests on the adjacency rows.
    """
    import networkx as nx   # here, so that set-up time does not include it

    p, q, r = triple
    if len(labels) != len(rows):
        return f"{len(labels)} labels for {len(rows)} vertices"
    forest: dict[int, int] = {}
    indep: dict[int, int] = {}
    deleted = 0
    for v, lab in enumerate(labels):
        m = _LABEL.fullmatch(lab)
        if m is None:
            return f"malformed label {lab!r}"
        if m.group(1):
            deleted += 1
            continue
        kind, idx = m.group(2), int(m.group(3))
        limit, classes = (p, forest) if kind == "F" else (q, indep)
        if idx > limit:
            return f"class {lab} beyond budget {triple}"
        classes[idx] = classes.get(idx, 0) | 1 << v
    if deleted > r:
        return f"{deleted} deletions beyond budget {r}"
    for idx, mask in indep.items():
        for v in bits(mask):
            if rows[v] & mask:
                return f"edge inside Q{idx}"
    for idx, mask in forest.items():
        g = nx.Graph()
        members = list(bits(mask))
        g.add_nodes_from(members)
        for v in members:
            g.add_edges_from((v, u) for u in bits(rows[v] & mask) if u > v)
            if g.number_of_edges() >= len(members):
                return f"F{idx} has a cycle"
        if not nx.is_forest(g):
            return f"F{idx} has a cycle"
    return None


def equal_error(what: str, got, want) -> str | None:
    return None if got == want else f"{what} = {got!r}, expected {want!r}"


def between_error(what: str, got: int, low: int, high: int) -> str | None:
    return None if low <= got <= high else f"{what} = {got} outside [{low}, {high}]"


def catalog_error(found: list[int], expected: list[int]) -> str | None:
    """Search results, as class ids, are exactly the catalog, once each."""
    if sorted(found) != sorted(set(found)):
        return "a class is reported twice"
    missing = set(expected) - set(found)
    extra = set(found) - set(expected)
    if missing or extra:
        return f"{len(missing)} catalog members missing, {len(extra)} extra"
    return None


# -- small trees built without the library ----------------------------


def clique(k: int, start: int = 0):
    return Leaf(start) if k == 1 else Join(tuple(Leaf(start + i) for i in range(k)))


def cocktail(pairs: int):
    """K_{2s} minus a perfect matching: C(U(s*K(2)))."""
    return Join(tuple(Union((Leaf(2 * i), Leaf(2 * i + 1))) for i in range(pairs)))


def one_forest_catalog(q: int) -> list:
    """The paper's minimal obstructions for (1, q, 0)."""
    return [clique(q + 3), cocktail(q + 2)]


# -- self-tests --------------------------------------------------------


def self_test() -> list[str]:
    """Names of referees that accept a planted wrong answer, or reject a right one."""
    bad = []

    def expect(name, accepted, rejected):
        if accepted is not None or rejected is None:
            bad.append(name)

    k3 = rows_of(clique(3))
    c4 = rows_of(cocktail(2))          # 4-cycle 0-2-1-3-0
    p4 = [0b0010, 0b0101, 0b1010, 0b0100]
    expect("certificate/cycle", certificate_error(k3, ["F1", "F1", "Q1"], (1, 1, 0)),
           certificate_error(k3, ["F1", "F1", "F1"], (1, 0, 0)))
    expect("certificate/independent", certificate_error(c4, ["Q1", "Q1", "Q2", "Q2"], (0, 2, 0)),
           certificate_error(c4, ["Q1", "Q2", "Q1", "Q2"], (0, 2, 0)))
    expect("certificate/budget", certificate_error(c4, ["R", "F1", "F1", "F1"], (1, 0, 1)),
           certificate_error(c4, ["R", "R", "Q1", "Q1"], (0, 1, 1)))
    expect("certificate/length", certificate_error(k3, ["R", "R", "R"], (0, 0, 3)),
           certificate_error(k3, ["R", "R"], (0, 0, 3)))
    expect("p4", p4_error(p4, (0, 1, 2, 3)), p4_error(k3 + [0], (0, 1, 2, 3)))
    flipped = list(c4)
    flipped[0] ^= 1 << 1
    flipped[1] ^= 1 << 0
    expect("rows", rows_error(c4, c4), rows_error(flipped, c4))
    intern: dict = {}
    expect("canonical", equal_error("class", canon(clique(4), intern), canon(clique(4), intern)),
           equal_error("class", canon(cocktail(2), intern), canon(clique(4), intern)))
    omega, _ = omega_tau(clique(5))
    expect("chromatic=omega", equal_error("chi", 5, omega), equal_error("chi", 6, omega))
    cover = 4 - alpha(cocktail(2), 1)[1]
    expect("cover=n-alpha", equal_error("r", 2, cover), equal_error("r", 1, cover))
    expect("sandwich", between_error("r", 2, 1, 3), between_error("r", 4, 1, 3))
    cat = [canon(t, intern) for t in one_forest_catalog(1)]
    expect("catalog", catalog_error(list(reversed(cat)), cat),
           catalog_error(cat[:1], cat))
    expect("catalog/extra", catalog_error(cat, cat),
           catalog_error(cat + [canon(clique(5), intern)], cat))
    expect("normalized", is_normalized(cocktail(2)),
           is_normalized(Join((Join((Leaf(0), Leaf(1))), Leaf(2)))))
    return bad


if __name__ == "__main__":
    failures = self_test()
    for name in failures:
        print(f"referee {name} accepted a planted wrong answer")
    print("referee self-tests:", "FAIL" if failures else "ok")
    sys.exit(1 if failures else 0)
