"""Immutable simple undirected graphs on dense integer vertices.

Vertices are 0..n-1. Each graph keeps one adjacency view, the public
tuple ``rows``: an int bitmask per vertex (O(1) membership, fast set
algebra on whole neighborhoods, and ascending iteration by walking the set
bits). Hot loops index ``G.rows[v]`` directly; ``adjacency_bits(v)`` is the
same row behind a method call. ``neighbors()`` derives the sorted neighbor
tuple from the bitmask on each call. Graphs never mutate, and ``rows`` is
read only; edge removal and induced subgraphs build fresh graphs.

The per-cycle steps, ``Graph.remove_edges``, ``is_hamilton_cycle`` and
``is_path``, test and clear bits with one shared table of one-hot masks,
``one_hot(n)[v] == 1 << v``, instead of shifts that allocate a fresh n-bit
integer per edge. The table is built on first use, never at import or while
sampling, and is only ever replaced by a longer one, so it holds about
N^2 / 8 bytes for the largest N used in the process. ``remove_edges``
raises GraphError for a vertex outside 0..n-1, whatever the table's length.

A second shared table, ``vertex_ints(n)[v] == v``, holds one int object per
vertex, grown the same way. The Hamilton search rebuilds each cycle it
returns from it, so that every cycle of a packing or cover points at the
same n ints: CPython shares only the ints up to 256, and each vertex the
search computes above that is a private 28-byte object.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

Edge = tuple[int, int]

INFINITE = math.inf


class GraphError(ValueError):
    """Malformed graph input (out-of-range vertex, self-loop, bad file)."""


def edge_key(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(mask: int) -> set[int]:
    return set(iter_bits(mask))


_one_hot: list[int] = []


def one_hot(n: int) -> list[int]:
    """The shared table ``bit`` with ``bit[v] == 1 << v``, at least n long.

    It may be longer than n, and a negative index wraps round to its end,
    so callers range-check their vertices. The table is extended, never
    shrunk, by replacing it: a table a caller already holds stays valid.
    """
    global _one_hot
    if len(_one_hot) < n:
        _one_hot = _one_hot + [1 << v for v in range(len(_one_hot), n)]
    return _one_hot


_vertex_ints: list[int] = []


def vertex_ints(n: int) -> list[int]:
    """The shared table ``ints`` with ``ints[v] == v``, at least n long, one
    int object per vertex. Like ``one_hot``'s table it is built on first
    use and only ever replaced by a longer one that keeps the same objects,
    so every caller maps a vertex to one object."""
    global _vertex_ints
    if len(_vertex_ints) < n:
        _vertex_ints = _vertex_ints + list(range(len(_vertex_ints), n))
    return _vertex_ints


class Graph:
    """Simple undirected graph; symmetric, loop-free, deduplicated."""

    __slots__ = ("n", "m", "rows")

    def __init__(self, n: int, rows: tuple[int, ...], m: int):
        # internal constructor; use build_graph() for validated input
        self.n = n
        self.m = m
        self.rows = rows  # rows[v]: bitmask of v's neighbours

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order, derived from its bitmask."""
        return tuple(iter_bits(self.rows[v]))

    def adjacency_bits(self, v: int) -> int:
        return self.rows[v]

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return list(map(int.bit_count, self.rows))

    def max_degree(self) -> int:
        return max(map(int.bit_count, self.rows), default=0)

    def min_degree(self) -> int:
        return min(map(int.bit_count, self.rows), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        """True iff (u, v) is an edge; False for a vertex outside 0..n-1,
        a non-integer one included."""
        try:
            return 0 <= u < self.n and 0 <= v < self.n and bool(self.rows[u] & one_hot(self.n)[v])
        except TypeError:  # a vertex that is not an integer
            return False

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> Iterator[Edge]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        for u, b in enumerate(self.rows):
            b >>= u + 1
            while b:
                low = b & -b
                yield (u, u + low.bit_length())
                b ^= low

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges())

    def remove_edges(self, edges: Iterable[Edge]) -> "Graph":
        """New graph with the given edges removed (absent edges ignored).

        Copies the bitmask rows once and clears two bits per dropped edge
        with one-hot table entries. Raises GraphError, naming the edge, for
        a vertex outside 0..n-1 in either position.
        """
        n = self.n
        bits = list(self.rows)
        bit = one_hot(n)
        removed = 0
        for u, v in edges:
            if (u | v) < 0:  # a negative index would wrap round
                raise _out_of_range(u, v, n)
            try:
                hit = bits[u] & bit[v]
            except IndexError:  # u >= n, or v past the end of the table
                raise _out_of_range(u, v, n) from None
            if hit:  # clearing the bit also skips repeats
                bits[u] ^= bit[v]
                bits[v] ^= bit[u]
                removed += 1
            elif v >= n:  # bit[v] may exist, as the table can be longer than n
                raise _out_of_range(u, v, n)
        return Graph(n, tuple(bits), self.m - removed)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _out_of_range(u: int, v: int, n: int) -> GraphError:
    return GraphError(f"edge ({u}, {v}) out of range for n={n}")


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, deduplicating pairs.

    Raises GraphError on out-of-range vertices or self-loops.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    bits = [0] * n
    m = 0
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise _out_of_range(u, v, n)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not bits[u] >> v & 1:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
            m += 1
    return Graph(n, tuple(bits), m)


def neighborhood_bits(G: Graph, vertices: Iterable[int]) -> int:
    """Bitmask of the external neighborhood of a vertex set (set excluded)."""
    amask = 0
    nb = 0
    for v in vertices:
        amask |= 1 << v
        nb |= G.rows[v]
    return nb & ~amask


def neighborhood_of_set(G: Graph, vertices: Iterable[int]) -> set[int]:
    """Vertices outside the set with at least one neighbor inside it."""
    return set_of(neighborhood_bits(G, vertices))


def bfs_distances(G: Graph, source: int) -> list[int]:
    """Shortest-path distances from ``source``; -1 for unreachable vertices."""
    dist = [-1] * G.n
    dist[source] = 0
    seen = 1 << source
    frontier = seen
    full = G.full_mask()
    d = 0
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= G.rows[v]
        nxt &= full & ~seen
        d += 1
        for v in iter_bits(nxt):
            dist[v] = d
        seen |= nxt
        frontier = nxt
    return dist


def is_connected(G: Graph) -> bool:
    if G.n == 0:
        return True
    return all(d >= 0 for d in bfs_distances(G, 0))


def diameter(G: Graph) -> int | float:
    """Largest shortest-path distance; INFINITE when disconnected or n=0."""
    if G.n == 0:
        return INFINITE
    best = 0
    for v in range(G.n):
        dist = bfs_distances(G, v)
        ecc = max(dist)
        if -1 in dist:
            return INFINITE
        best = max(best, ecc)
    return best


def induced_subgraph(G: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int], tuple[int, ...]]:
    """Subgraph induced by a vertex set.

    Returns (subgraph, to_sub, to_orig) where to_sub maps original indices
    to subgraph indices and to_orig is the inverse.
    """
    keep = sorted(set(vertices))
    for v in keep:
        if not (0 <= v < G.n):
            raise GraphError(f"vertex {v} out of range for n={G.n}")
    to_sub = {v: i for i, v in enumerate(keep)}
    kmask = mask_of(keep)
    bits = []
    m = 0
    for v in keep:
        row = mask_of(to_sub[w] for w in iter_bits(G.rows[v] & kmask))
        bits.append(row)
        m += row.bit_count()
    return Graph(len(keep), tuple(bits), m // 2), to_sub, tuple(keep)


def is_path(G: Graph, seq: Iterable[int]) -> bool:
    """True iff seq is a sequence of distinct vertices joined by edges;
    False for a non-integer vertex."""
    vs = seq if isinstance(seq, (list, tuple)) else list(seq)
    if len(vs) != len(set(vs)):
        return False
    if not vs:
        return True
    rows = G.rows
    bit = one_hot(G.n)
    # every vertex is compared with ints and indexes a list, which raise
    # TypeError for a vertex that is not an integer
    try:
        if min(vs) < 0 or max(vs) >= G.n:
            return False
        row = rows[vs[0]]
        for v in vs[1:]:
            if not row & bit[v]:
                return False
            row = rows[v]
    except TypeError:
        return False
    return True


def is_hamilton_cycle(G: Graph, seq: Iterable[int]) -> bool:
    """True iff seq visits every vertex exactly once and closes into a
    cycle; False for a non-integer vertex."""
    n = G.n
    vs = seq if isinstance(seq, (list, tuple)) else list(seq)
    if n < 3 or len(vs) != n or len(set(vs)) != n:
        return False
    rows = G.rows
    bit = one_hot(n)
    # every vertex is compared with ints and indexes a list, which raise
    # TypeError for a vertex that is not an integer
    try:
        # n distinct vertices in 0..n-1 are all of them
        if min(vs) < 0 or max(vs) >= n:
            return False
        u = vs[-1]  # the closing pair first
        for v in vs:
            if not rows[u] & bit[v]:
                return False
            u = v
    except TypeError:
        return False
    return True


def cycle_edges(seq: Iterable[int]) -> frozenset[Edge]:
    vs = list(seq)
    return frozenset(edge_key(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))


def path_edges(seq: Iterable[int]) -> frozenset[Edge]:
    vs = list(seq)
    return frozenset(edge_key(vs[i], vs[i + 1]) for i in range(len(vs) - 1))


def canonical_cycle(seq: Iterable[int]) -> tuple[int, ...]:
    """Rotate/reflect a cyclic sequence so it starts at its smallest vertex
    and continues toward the smaller of the two neighbors."""
    vs = list(seq)
    i = vs.index(min(vs))
    fwd = vs[i:] + vs[:i]
    rev = fwd[:0:-1]  # the rest of the cycle, walked the other way
    return tuple(fwd) if fwd[1:] <= rev else (fwd[0], *rev)


# --- edge-list text format -------------------------------------------------
#
# First line "n m", then m lines "u v" (0-based, space-separated) with u < v,
# sorted lexicographically. The writer is byte-deterministic.

def format_edge_list(G: Graph) -> str:
    lines = [f"{G.n} {G.m}"]
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


def write_edge_list(G: Graph, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_edge_list(G))


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphError(f"bad header {lines[0]!r}") from exc
    edges = []
    first_line = {}  # (min, max) pair -> the line that gave it first
    for idx, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"line {idx}: expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {idx}: non-integer vertex in {ln!r}") from exc
        seen_at = first_line.setdefault((u, v) if u < v else (v, u), idx)
        if seen_at != idx:
            raise GraphError(f"line {idx}: edge {ln.strip()!r} repeats the edge of line {seen_at}")
        edges.append((u, v))
    if len(edges) != m:
        raise GraphError(f"header promised {m} edges, file has {len(edges)}")
    return build_graph(n, edges)


def read_edge_list(path: str) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_edge_list(fh.read())


# --- small fixtures --------------------------------------------------------

def complete_graph(n: int) -> Graph:
    # every row is the full mask less its own bit; no edge list is built
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)), n * (n - 1) // 2)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle graph needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def disjoint_union(A: Graph, B: Graph) -> Graph:
    edges = list(A.edges()) + [(u + A.n, v + A.n) for u, v in B.edges()]
    return build_graph(A.n + B.n, edges)
