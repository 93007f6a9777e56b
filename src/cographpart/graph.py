"""Immutable bitset-backed graphs on vertex set {0, ..., n-1}.

Adjacency is stored as one Python int per vertex: bit u of row v is set iff
uv is an edge. All operations return new Graph instances. The empty graph
(n = 0) is legal everywhere and acts as the identity for both disjoint_union
and join.

graph6 and sparse6 share one bit layer: _decode_order turns a body into one
string of "0"/"1" (six bits per character, most significant first) and
_chars packs such a string back, so each codec reads its fields with
int(s, 2) and writes them with format. _chars packs in bulk: the string
becomes one int, its bytes go through base64, which also writes six bits
per character, and one translate maps base64's alphabet onto 63..126.

The codecs work per vertex, never per edge in Python. The graph6 body
lists column j (bit i of row j for i < j) for j = 1, 2, ..., so each row's
bits below the diagonal are one slice of it. from_graph6 finds the bits
above the diagonal by transposing the triangle, one block of about 2**20
characters at a time: the block's columns are padded to one width, and a
strided slice of their concatenation reads a row. to_sparse6 and
to_edge_list_text write each vertex's records from tables of precomputed
codes and names.
"""
from __future__ import annotations

import binascii
import re
from collections.abc import Iterable, Iterator, Sequence

__all__ = ["Graph", "iter_bits"]

# the largest vertex count graph6 and sparse6 can write
_MAX_ORDER = 68719476735

# ASCII digits and an optional minus sign: int() alone also reads other
# scripts' digits, underscores and a plus sign
_INT = "-?[0-9]+"
_EDGE_RE = re.compile(rf"({_INT})\s+({_INT})")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _symmetric(rows: Sequence[int]) -> bool:
    """True iff bit u of rows[v] is set exactly when bit v of rows[u] is, for
    rows with no self-loop."""
    upper = 0
    for v, row in enumerate(rows):
        above = row >> (v + 1)
        upper += above.bit_count()
        for u in iter_bits(above):
            if not rows[u + v + 1] >> v & 1:
                return False
    # every bit above the diagonal has its mirror below it; with as many bits
    # below the diagonal as above, no bit below lacks one either
    return 2 * upper == sum(row.bit_count() for row in rows)


class Graph:
    """Simple undirected graph with int-bitset adjacency rows."""

    __slots__ = ("n", "_rows")

    def __init__(self, n: int, rows: Sequence[int] | None = None):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if rows is None:
            rows = (0,) * n
        if len(rows) != n:
            raise ValueError("expected one adjacency row per vertex")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full or row >> v & 1:
                raise ValueError(f"row {v} has bits outside 0..{n - 1} or a self-loop")
        if not _symmetric(rows):
            # rescan in row order, so the error names the first bit without a mirror
            for v, row in enumerate(rows):
                for u in iter_bits(row):
                    if not rows[u] >> v & 1:
                        raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        self.n = n
        self._rows = tuple(rows)

    @classmethod
    def _unsafe(cls, n: int, rows: tuple[int, ...]) -> Graph:
        # internal constructor for rows already known to be valid
        g = object.__new__(cls)
        g.n = n
        g._rows = rows
        return g

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > _MAX_ORDER:
            raise ValueError(f"vertex count {n} exceeds {_MAX_ORDER}, the graph6 limit")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._unsafe(n, tuple(rows))

    @classmethod
    def complete(cls, n: int) -> Graph:
        full = (1 << n) - 1
        return cls._unsafe(n, tuple(full ^ (1 << v) for v in range(n)))

    # -- basic queries -------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self._rows) // 2

    def row(self, v: int) -> int:
        """Adjacency bitmask of vertex v."""
        return self._rows[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in iter_bits(self._rows[v] >> (v + 1) << (v + 1)):
                yield (v, u)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self.n, self._rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- composition ---------------------------------------------------

    def complement(self) -> Graph:
        full = (1 << self.n) - 1
        rows = tuple(~row & full & ~(1 << v) for v, row in enumerate(self._rows))
        return Graph._unsafe(self.n, rows)

    def disjoint_union(self, other: Graph) -> Graph:
        shift = self.n
        rows = self._rows + tuple(row << shift for row in other._rows)
        return Graph._unsafe(self.n + other.n, rows)

    def join(self, other: Graph) -> Graph:
        shift = self.n
        left_mask = (1 << shift) - 1
        right_mask = ((1 << other.n) - 1) << shift
        rows = tuple(row | right_mask for row in self._rows)
        rows += tuple(row << shift | left_mask for row in other._rows)
        return Graph._unsafe(self.n + other.n, rows)

    def induced_subgraph(self, vertices: Iterable[int]) -> Graph:
        """Induced subgraph on the given vertices, renumbered by ascending id."""
        keep = sorted(set(vertices))
        keep_mask = 0
        for v in keep:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range")
            keep_mask |= 1 << v
        index = {v: i for i, v in enumerate(keep)}
        rows = []
        for v in keep:
            row = 0
            # walk the row masked to the kept set: the work is the kept
            # edges, not the degrees of the kept vertices
            for u in iter_bits(self._rows[v] & keep_mask):
                row |= 1 << index[u]
            rows.append(row)
        return Graph._unsafe(len(keep), tuple(rows))

    # -- structure -----------------------------------------------------

    def component_masks(self, within: int | None = None, *, complement: bool = False) -> list[int]:
        """Connected components as bitmasks, ordered by smallest member.

        Args:
            within: restrict to this vertex bitmask (default: all vertices).
            complement: walk complement adjacency instead (restricted to the mask).
        """
        remaining = (1 << self.n) - 1 if within is None else within
        scope = remaining
        out = []
        while remaining:
            seed = remaining & -remaining
            comp = seed
            frontier = seed
            while frontier:
                reach = 0
                for v in iter_bits(frontier):
                    if complement:
                        reach |= ~self._rows[v] & scope & ~(1 << v)
                    else:
                        reach |= self._rows[v] & scope
                frontier = reach & ~comp
                comp |= frontier
            out.append(comp)
            remaining &= ~comp
        return out

    def is_independent(self) -> bool:
        return all(row == 0 for row in self._rows)

    def is_forest(self, within: int | None = None) -> bool:
        """True iff the graph (or the subgraph induced by the vertex bitmask
        within) is acyclic: a forest has |V| minus its component count edges."""
        scope = (1 << self.n) - 1 if within is None else within
        edges = sum((self._rows[v] & scope).bit_count() for v in iter_bits(scope)) // 2
        return edges == scope.bit_count() - len(self.component_masks(scope))

    # -- graph6 --------------------------------------------------------

    def to_graph6(self) -> str:
        # column j lists the bits of rows[j] below the diagonal, vertex 0 first
        bits = "".join(
            format(self._rows[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, self.n))
        return _encode_order(self.n) + _chars(bits)

    @classmethod
    def from_graph6(cls, text: str) -> Graph:
        data = _strip_header(text, ">>graph6<<")
        if data.startswith(":"):
            raise ValueError("sparse6 input: use from_sparse6")
        n, bits = _decode_order(data)
        need = (n * (n - 1) // 2 + 5) // 6
        if len(bits) != 6 * need:
            raise ValueError(f"graph6 body has {len(bits) // 6} groups, expected {need}")
        # row j's bits below the diagonal are column j, read straight off the
        # body; its bits above come from transposing the triangle
        rows = [0] * n
        pos = 0
        for j in range(1, n):
            rows[j] = int(bits[pos : pos + j][::-1], 2)
            pos += j
        step = 1 + _BLOCK // (n + 1)
        for lo in range(1, n, step):
            hi = min(n, lo + step)
            # columns hi-1 down to lo, each padded to hi bits: bit i of
            # column j is character i of its stretch, so the stretch-strided
            # slice at i reads row i's bits j = hi-1 .. lo, most significant first
            block = "".join([bits[j * (j - 1) // 2 : j * (j + 1) // 2].ljust(hi, "0")
                             for j in range(hi - 1, lo - 1, -1)])
            for i in range(hi - 1):
                rows[i] |= int(block[i::hi], 2) << lo
        return cls._unsafe(n, tuple(rows))

    # -- sparse6 -------------------------------------------------------

    def to_sparse6(self) -> str:
        n = self.n
        k = max(1, (n - 1).bit_length())
        # each vertex v with a lower neighbour starts its records by moving
        # the current vertex to v: a set bit alone when v follows the last
        # such vertex, and an explicit record of v otherwise
        code = [format(u, f"0{k}b") for u in range(n)]
        zero = ["0" + c for c in code]
        parts = []
        cur = 0
        for v, row in enumerate(self._rows):
            lower = row & ((1 << v) - 1)
            if lower:
                records = "".join([zero[u] for u in iter_bits(lower)])
                parts.append("1" + (records[1:] if v == cur + 1 else code[v] + records))
                cur = v
        bits = "".join(parts)
        # pad with 1s; guard against the padding spelling a phantom edge at n-1
        pad = -len(bits) % 6
        if k < 6 and n == (1 << k) and pad >= k and cur < n - 1:
            bits += "0"
            pad = -len(bits) % 6
        return ":" + _encode_order(n) + _chars(bits + "1" * pad)

    @classmethod
    def from_sparse6(cls, text: str) -> Graph:
        data = _strip_header(text, ">>sparse6<<")
        if not data.startswith(":"):
            raise ValueError("sparse6 string must start with ':'")
        n, bits = _decode_order(data[1:])
        k = max(1, (n - 1).bit_length())
        rows = [0] * n
        cur = 0
        # records of k + 1 bits; a shorter tail is padding
        for pos in range(0, len(bits) - k, k + 1):
            x = int(bits[pos + 1 : pos + 1 + k], 2)
            if bits[pos] == "1":
                cur += 1
            if x > cur:
                cur = x
            elif cur < n and x != cur:
                rows[x] |= 1 << cur
                rows[cur] |= 1 << x
        return cls._unsafe(n, tuple(rows))

    # -- plain text ----------------------------------------------------

    def to_edge_list_text(self) -> str:
        name = [str(v) for v in range(self.n)]
        lines = [str(self.n)]
        for v, row in enumerate(self._rows):
            above = row >> (v + 1)
            if above:
                head = name[v] + " "
                lines.append(head + ("\n" + head).join(
                    [name[u + v + 1] for u in iter_bits(above)]))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_edge_list_text(cls, text: str) -> Graph:
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty edge list text")
        if not re.fullmatch(_INT, lines[0]):
            raise ValueError(f"first line must be the vertex count, got {lines[0]!r}")
        edges = []
        for ln in lines[1:]:
            m = _EDGE_RE.fullmatch(ln)
            if m is None:
                raise ValueError(f"malformed edge line {ln!r}")
            edges.append((int(m[1]), int(m[2])))
        return cls.from_edge_list(int(lines[0]), edges)


def _strip_header(text: str, header: str) -> str:
    text = text.strip()
    if text.startswith(header):
        text = text[len(header) :]
    return text


# the six bits of each graph6 character 63..126
_SIX_BITS = str.maketrans({chr(c + 63): f"{c:06b}" for c in range(64)})
# base64 writes six bits per character too, as A-Z a-z 0-9 + /
_FROM_BASE64 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127)))
# characters of graph6 body transposed at a time by from_graph6
_BLOCK = 1 << 20


def _chars(bits: str) -> str:
    """Pack a string of "0"/"1" six bits per character, padding the end with 0s."""
    if not bits:
        return ""
    size = -(-len(bits) // 6)
    # whole bytes in groups of three, so base64 needs no "=" padding
    bits += "0" * (-len(bits) % 24)
    raw = int(bits, 2).to_bytes(len(bits) // 8, "big")
    return binascii.b2a_base64(raw, newline=False)[:size].translate(_FROM_BASE64).decode()


def _encode_order(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + _chars(f"{n:018b}")
    if n <= _MAX_ORDER:
        return "~~" + _chars(f"{n:036b}")
    raise ValueError("vertex count too large for graph6")


def _decode_order(data: str) -> tuple[int, str]:
    """The vertex count, and the rest of the body as a string of "0"/"1"."""
    bits = data.translate(_SIX_BITS)
    if len(bits) != 6 * len(data):
        # translate leaves a character outside 63..126 as it is
        bad = next(ch for ch in data if not 63 <= ord(ch) <= 126)
        raise ValueError(f"invalid graph6 character {bad!r}")
    if not bits:
        raise ValueError("empty graph6 data")
    if bits[:6] != "111111":
        return int(bits[:6], 2), bits[6:]
    if len(bits) >= 24 and bits[6:12] != "111111":
        return int(bits[6:24], 2), bits[24:]
    if len(bits) >= 48:
        return int(bits[12:48], 2), bits[48:]
    raise ValueError("truncated graph6 vertex count")
