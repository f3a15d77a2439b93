"""Brute-force oracles and structure validators.

Everything here is exact and independent of the heuristic machinery: a
bitmask dynamic program and a backtracking enumerator for Hamiltonicity,
exhaustive expansion checks for tiny graphs, a queue-based BFS kept separate
from the bitset BFS in graph.py, and validators for covers, path families
and matchings. These are the ground truth the test suite measures the rest
of the package against.

``validate_cover`` checks and counts the cycles with numpy on a dense
adjacency matrix, ``CHUNK`` cycles at a time, and adds up the chunks'
per-edge counts. It reads only the graph's bitmask rows and uses no code of
the search (rotation, families, cover), so it stays an independent check of
every certificate. Its per-edge counts stay in numpy arrays behind
``EdgeCounts``, a read-only mapping that makes an edge tuple only when one
is read; the arrays it keeps are of the narrowest unsigned integer type
that holds their values.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations, repeat

import numpy as np

from .graph import (
    Edge,
    Graph,
    iter_bits,
    mask_of,
    neighborhood_bits,
)

HELD_KARP_LIMIT = 20
EXHAUSTIVE_LIMIT = 16
# validate_cover checks and counts this many cycles at a time
CHUNK = 32


@dataclass(frozen=True)
class OracleVerdict:
    decided: bool
    value: bool | None = None
    witness: tuple[int, ...] | None = None


def held_karp_hamiltonian(G: Graph) -> OracleVerdict:
    """Exact Hamiltonicity by subset DP anchored at vertex 0.

    Refuses (decided=False) above 20 vertices. A yes-verdict carries the
    lexicographically smallest Hamilton cycle starting at 0 as witness.
    """
    n = G.n
    if n > HELD_KARP_LIMIT:
        return OracleVerdict(decided=False)
    if n < 3:
        return OracleVerdict(decided=True, value=False)
    if any(G.degree(v) < 2 for v in range(n)):
        return OracleVerdict(decided=True, value=False)
    bits = [G.adjacency_bits(v) for v in range(n)]
    full = (1 << n) - 1
    # ends[mask] = endpoint bitmask of paths from 0 covering exactly mask
    ends = [0] * (1 << n)
    ends[1] = 1
    for mask in range(1, 1 << n, 2):
        cur = ends[mask]
        if not cur:
            continue
        free = full & ~mask
        for u in iter_bits(free):
            if bits[u] & cur:
                ends[mask | (1 << u)] |= 1 << u
    if not (ends[full] & bits[0]):
        return OracleVerdict(decided=True, value=False)
    return OracleVerdict(decided=True, value=True, witness=_lex_min_cycle(G, bits, full))


def _lex_min_cycle(G: Graph, bits: list[int], full: int) -> tuple[int, ...]:
    # tail[mask] = vertices v in mask starting a path that covers mask and
    # ends at a neighbor of 0 (masks never include vertex 0)
    n = G.n
    tail = [0] * (1 << n)
    for v in range(1, n):
        if bits[v] & 1:
            tail[1 << v] = 1 << v
    for mask in range(2, 1 << n, 2):
        acc = 0
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            if bits[v] & tail[mask ^ low]:
                acc |= low
        tail[mask] |= acc
    seq = [0]
    remaining = full & ~1
    cur = 0
    while remaining:
        options = tail[remaining] & bits[cur]
        nxt = (options & -options).bit_length() - 1
        seq.append(nxt)
        remaining &= ~(1 << nxt)
        cur = nxt
    return tuple(seq)


def backtracking_hamiltonian(G: Graph) -> OracleVerdict:
    """Independent DFS enumerator; agrees with held_karp_hamiltonian.

    First cycle found under sorted neighbor order is the lexicographically
    smallest one starting at vertex 0.
    """
    n = G.n
    if n < 3:
        return OracleVerdict(decided=True, value=False)
    seq = [0]
    used = 1

    def dfs() -> bool:
        nonlocal used
        cur = seq[-1]
        if len(seq) == n:
            return G.has_edge(cur, 0)
        for w in G.neighbors(cur):
            if used >> w & 1:
                continue
            seq.append(w)
            used |= 1 << w
            if dfs():
                return True
            seq.pop()
            used &= ~(1 << w)
        return False

    if dfs():
        return OracleVerdict(decided=True, value=True, witness=tuple(seq))
    return OracleVerdict(decided=True, value=False)


@dataclass(frozen=True)
class ExpansionVerdict:
    holds: bool
    witness: tuple | None = None  # violating set, or (A, B) pair for the edge property
    vacuous: bool = False


def exhaustive_expansion_check(G: Graph, s: float, g: float, l: float) -> tuple[ExpansionVerdict, ExpansionVerdict]:
    """Exact verdicts for the two expansion properties on graphs with n <= 16.

    Small property: every vertex set A with |A| <= g has external
    neighborhood of size >= s*|A|. Large property: any two disjoint sets of
    size >= l span an edge. Witnesses are size-then-lex minimal. Raises
    ValueError unless s and g are finite and 0 < l < inf.
    """
    if not -math.inf < s < math.inf:  # False for nan
        raise ValueError(f"expansion factor s must be finite, got {s}")
    if not -math.inf < g < math.inf:  # False for nan
        raise ValueError(f"boundary g must be finite, got {g}")
    if not 0 < l < math.inf:  # False for nan
        raise ValueError(f"frame l must satisfy 0 < l < inf, got {l}")
    n = G.n
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive check limited to n <= {EXHAUSTIVE_LIMIT}, got {n}")

    small = ExpansionVerdict(holds=True)
    max_a = min(int(g), n)
    done = False
    for size in range(1, max_a + 1):
        if done:
            break
        for A in combinations(range(n), size):
            nb = neighborhood_bits(G, A)
            if nb.bit_count() < s * size:
                small = ExpansionVerdict(holds=False, witness=A)
                done = True
                break

    c = math.ceil(l)
    if c > n // 2:
        # no two disjoint sets of that size exist
        large = ExpansionVerdict(holds=True, vacuous=True)
    else:
        large = ExpansionVerdict(holds=True)
        for A in combinations(range(n), c):
            amask = mask_of(A)
            blocked = amask | neighborhood_bits(G, A)
            free = G.full_mask() & ~blocked
            if free.bit_count() >= c:
                B = []
                for v in iter_bits(free):
                    B.append(v)
                    if len(B) == c:
                        break
                large = ExpansionVerdict(holds=False, witness=(A, tuple(B)))
                break
    return small, large


def bfs_distances_reference(G: Graph, source: int) -> list[int]:
    """Queue-based BFS, deliberately independent of graph.bfs_distances."""
    dist = [-1] * G.n
    dist[source] = 0
    q = deque([source])
    while q:
        v = q.popleft()
        for w in G.neighbors(v):
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                q.append(w)
    return dist


_NO_EDGES = np.zeros(0, dtype=np.uint8)


class EdgeCounts(Mapping):
    """Read-only map from each edge ``(u, v)``, ``u < v``, of a graph to how
    many cycles use it.

    Keys and values are Python ints, keys in ``G.edges()`` order. It holds
    two arrays with one entry per edge: the ascending row-major edge codes
    ``u * n + v`` and the counts, each of whatever unsigned integer type the
    caller chose (``validate_cover`` picks the narrowest that holds the
    values). A key is found by ``searchsorted``; only a code of a pair
    ``0 <= u < v < n``, so below n^2, is searched for, which the codes' type
    holds. A reversed pair or a non-edge raises ``KeyError``, as a dict
    keyed by the canonical edges does. ``EdgeCounts()`` is the map of a
    graph with no edges.
    """

    __slots__ = ("_n", "_codes", "_counts")

    def __init__(self, n: int = 0, codes: np.ndarray = _NO_EDGES,
                 counts: np.ndarray = _NO_EDGES):
        self._n = n
        self._codes = codes
        self._counts = counts

    def __getitem__(self, edge) -> int:
        try:
            u, v = edge
            if 0 <= u < v < self._n:
                code = u * self._n + v
                i = int(self._codes.searchsorted(code))
                if i < len(self._codes) and self._codes[i] == code:
                    return int(self._counts[i])
        except (TypeError, ValueError):
            pass
        raise KeyError(edge)

    def __iter__(self):
        return map(divmod, self._codes.tolist(), repeat(self._n))

    def __len__(self) -> int:
        return len(self._codes)

    @property
    def min_coverage(self) -> int:
        """The smallest count, 0 when there is no edge."""
        return int(self._counts.min()) if len(self._counts) else 0

    def __repr__(self) -> str:
        return f"EdgeCounts({len(self)} edges, min {self.min_coverage})"


@dataclass
class CoverValidation:
    """The verdict on a cover: ``coverage`` counts, for each edge of the
    graph, the cycles before ``bad_cycle`` (all of them when it is None)
    that use it; ``uncovered`` lists the edges with a count of 0."""

    ok: bool
    n_cycles: int
    bad_cycle: int | None = None  # index of first invalid cycle
    coverage: EdgeCounts = field(default_factory=EdgeCounts)
    uncovered: list[Edge] = field(default_factory=list)

    @property
    def min_coverage(self) -> int:
        return self.coverage.min_coverage


def validate_cover(G: Graph, cycles: list[tuple[int, ...]]) -> CoverValidation:
    """Check every cycle is a Hamilton cycle of G and every edge is covered.

    ``bad_cycle`` is the index of the first invalid cycle; ``coverage``
    counts only the cycles before it, as an ``EdgeCounts`` over the edges
    of G, so the result holds O(m) machine ints and no per-edge Python
    object; only the ``uncovered`` edges become tuples. All cycles up to
    the first one of the wrong length or with a vertex that is not one of
    0..n-1 are checked and counted on a dense adjacency matrix, CHUNK at a
    time; the edge codes come from one flatnonzero of its upper triangle.
    The counting runs in int64; the ``EdgeCounts`` keeps the codes in the
    narrowest unsigned type that holds n^2 - 1 and the counts in the
    narrowest that holds the number of cycles counted, so a cover of fewer
    than 256 cycles on fewer than 256 vertices holds 3 bytes per edge.
    """
    n = G.n
    vertices = set(range(n))
    bad = None
    rows = []
    for idx, cyc in enumerate(cycles):
        cyc = tuple(cyc)
        # only vertices 0..n-1 reach numpy: no int64 overflow, no truncated float
        if n < 3 or len(cyc) != n or not vertices.issuperset(cyc):
            bad = idx
            break
        rows.append(cyc)
    good, codes, counts = _edge_counts(G, rows)
    if good < len(rows):
        bad = good
    uncovered = [divmod(c, n) for c in codes[counts == 0].tolist()]
    ok = bad is None and not uncovered
    coverage = EdgeCounts(n, codes.astype(np.min_scalar_type(max(n * n - 1, 0))),
                          counts.astype(np.min_scalar_type(good)))
    return CoverValidation(ok=ok, n_cycles=len(cycles), bad_cycle=bad,
                           coverage=coverage, uncovered=uncovered)


def _edge_counts(G: Graph, rows: list[tuple[int, ...]]
                 ) -> tuple[int, np.ndarray, np.ndarray]:
    """How many leading ``rows`` are Hamilton cycles of G; the row-major
    codes ``u * n + v`` of the edges of G, ascending, so in ``G.edges()``
    order; and how many of those leading cycles use each edge.

    Each row holds n vertices of 0..n-1. The two returned arrays take O(m)
    memory, not O(n^2). The cycles are checked and counted CHUNK at a time
    and the chunks' counts are added up, so the per-cycle arrays never hold
    all k x n vertices at once.
    """
    n = G.n
    adj = _adjacency_matrix(G)
    codes = np.flatnonzero(np.triu(adj, 1))  # row-major, one per edge
    counts = np.zeros(len(codes), dtype=np.int64)
    ident = np.arange(n)
    for start in range(0, len(rows), CHUNK):
        A = np.array(rows[start:start + CHUNK], dtype=np.int64).reshape(-1, n)
        B = np.roll(A, -1, axis=1)
        # a row is a permutation iff it sorts to 0..n-1
        good = (np.sort(A, axis=1) == ident).all(axis=1) & adj[A, B].all(axis=1)
        k = len(good) if good.all() else int(np.argmin(good))
        A, B = A[:k], B[:k]
        # every key is an edge of a cycle that passed the adjacency check,
        # so it is found among the codes; sorted keys search several times
        # faster
        keys = np.sort(np.minimum(A, B) * n + np.maximum(A, B), axis=None)
        counts += np.bincount(np.searchsorted(codes, keys), minlength=len(codes))
        if k < len(good):
            return start + k, codes, counts
    return len(rows), codes, counts


def _adjacency_matrix(G: Graph) -> np.ndarray:
    """Dense boolean n x n adjacency matrix unpacked from the bitmask rows."""
    n = G.n
    width = (n + 7) // 8
    packed = b"".join(G.adjacency_bits(v).to_bytes(width, "little") for v in range(n))
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(n, width)
    return np.unpackbits(bits, axis=1, count=n, bitorder="little").astype(bool)


@dataclass(frozen=True)
class FamilyValidation:
    ok: bool
    violation: str | None = None


def validate_family(G: Graph, family) -> FamilyValidation:
    """Validate a family of vertex sequences as disjoint non-trivial paths.

    A matching passes as a family of 2-vertex paths; the first violation
    (missing edge, shared vertex, trivial member) is named.
    """
    seen: set[int] = set()
    for seq in sorted(tuple(p) for p in family):
        vs = list(seq)
        if len(vs) < 2:
            return FamilyValidation(False, f"trivial member {vs}")
        if len(set(vs)) != len(vs):
            return FamilyValidation(False, f"repeated vertex inside {vs}")
        for v in vs:
            if not (0 <= v < G.n):
                return FamilyValidation(False, f"vertex {v} out of range")
            if v in seen:
                return FamilyValidation(False, f"vertex {v} shared between members")
        for i in range(len(vs) - 1):
            if not G.has_edge(vs[i], vs[i + 1]):
                return FamilyValidation(False, f"missing edge ({vs[i]}, {vs[i + 1]})")
        seen.update(vs)
    return FamilyValidation(True)
