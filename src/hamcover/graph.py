"""Immutable simple undirected graphs on dense integer vertices.

Vertices are 0..n-1. Each graph keeps one adjacency view, the public
tuple ``rows``: an int bitmask per vertex (O(1) membership, fast set
algebra on whole neighborhoods, and ascending iteration by walking the set
bits). Hot loops index ``G.rows[v]`` directly; ``adjacency_bits(v)`` is the
same row behind a method call. ``neighbors()`` derives the sorted neighbor
tuple from the bitmask on each call. Graphs never mutate, and ``rows`` is
read only; edge removal and induced subgraphs build fresh graphs.
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
        return bool(self.rows[u] >> v & 1)

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

        Copies the bitmask rows once and clears two bits per dropped edge.
        """
        bits = list(self.rows)
        removed = 0
        for u, v in edges:
            if bits[u] >> v & 1:  # clearing the bit also skips repeats
                bits[u] ^= 1 << v
                bits[v] ^= 1 << u
                removed += 1
        return Graph(self.n, tuple(bits), self.m - removed)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


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
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
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
    """True iff seq is a sequence of distinct vertices joined by edges."""
    vs = list(seq)
    if len(vs) != len(set(vs)):
        return False
    if vs and (min(vs) < 0 or max(vs) >= G.n):
        return False
    bits = G.rows
    return all(bits[u] >> v & 1 for u, v in zip(vs, vs[1:]))


def is_hamilton_cycle(G: Graph, seq: Iterable[int]) -> bool:
    """True iff seq visits every vertex exactly once and closes into a cycle."""
    vs = list(seq)
    if len(vs) != G.n or G.n < 3 or set(vs) != set(range(G.n)):
        return False
    bits = G.rows
    return all(bits[u] >> v & 1 for u, v in zip(vs, vs[1:] + vs[:1]))


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
    bwd = vs[i::-1] + vs[:i:-1]
    return tuple(fwd) if fwd[1:] <= bwd[1:] else tuple(bwd)


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
    for idx, ln in enumerate(lines[1:], start=2):
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"line {idx}: expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphError(f"line {idx}: non-integer vertex in {ln!r}") from exc
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
