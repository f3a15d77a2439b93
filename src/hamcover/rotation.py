"""Rotation-extension machinery with protected edges, and a Hamilton cycle
search built on it.

A rotation takes a path (v1 ... vq) with a chord (vq, vi), 1 <= i <= q-2,
to the path (v1 ... vi vq v(q-1) ... v(i+1)): the edge (vi, v(i+1)) is
broken, the suffix is reversed, and v(i+1) becomes the new endpoint. The
vertex set and the number of edges never change.

Constraints carry two edge sets: a locked set that no rotation or
absorption may ever break, and a soft set that is broken only when no clean
alternative exists, with every such break counted. The one BFS core is the
two-level extension search, ``rotate_until_extendable``: a single loop
that walks the rotation tree breadth-first with pivots in ascending vertex
order and tests each rotation where it makes it. ``find_hamilton_cycle``
runs it once per pass, so every outcome is deterministic for a given graph
and seed path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import ExtensionBudget, FamilyError, PathFamily, reduce_family
from .graph import (
    Edge,
    Graph,
    edge_key,
    is_hamilton_cycle,
    is_path,
    mask_of,
    path_edges,
    vertex_ints,
)

# hard ceiling on paths explored per rotate_until_extendable call
SEARCH_NODE_CAP = 6000


class RotationError(ValueError):
    """Illegal search request: a locked edge broken by a rotation or dropped
    by an absorption, or a trivial path."""


def _canonical_edges(edges) -> frozenset[Edge]:
    """``edges`` as a frozenset of edge_key's (min, max) pairs, built
    without a call per edge. A frozenset whose pairs are already (min, max)
    is returned as it is: the cover hands one over for every search it
    makes, and every packing search passes an empty one."""
    if type(edges) is frozenset:
        for u, v in edges:
            if u > v:
                break
        else:
            return edges
    return frozenset([(u, v) if u < v else (v, u) for u, v in edges])


@dataclass
class RotationConstraints:
    """Edge protection for rotation searches.

    ``locked`` edges are never broken; ``soft`` edges (a superset of locked)
    are broken only when no alternative rotation exists, and every such
    break increments ``soft_breaks``: it counts soft rotations and
    absorptions generated, not soft edges lost, since a rotation the search
    explores may never reach its result. ``rotations`` and ``absorptions``
    count every edge-breaking move made, exploration included, so
    soft_breaks <= rotations + absorptions always holds. The search counts
    each rotation just before it tests it and stops at the first one that
    settles the search, so it counts the rotations it tested, not every
    child of every path it expanded. A rotation is counted whether or not
    its path is ever built as a list: the search builds one only to expand,
    reverse or return it.
    """

    locked: frozenset[Edge] = frozenset()
    soft: frozenset[Edge] = frozenset()
    rotations: int = 0
    absorptions: int = 0
    soft_breaks: int = 0

    def __post_init__(self) -> None:
        self.locked = _canonical_edges(self.locked)
        soft = _canonical_edges(self.soft)
        self.soft = soft | self.locked if self.locked else soft

    def record(self, broken: Edge) -> None:
        if broken in self.locked:
            raise RotationError(f"attempt to break locked edge {broken}")
        self.rotations += 1
        if broken in self.soft:
            self.soft_breaks += 1

    def record_absorption(self, dropped: Edge) -> None:
        if dropped in self.locked:
            raise RotationError(f"attempt to drop locked edge {dropped}")
        self.absorptions += 1
        if dropped in self.soft:
            self.soft_breaks += 1


def _rotated(parent: list[int], i: int | None) -> list[int]:
    """The path a search queue entry stands for: ``parent`` itself when i is
    None (a walk's root), else ``parent`` rotated around the pivot at
    position i, its suffix past i reversed. Rotated paths are fresh lists."""
    if i is None:
        return parent
    return parent[: i + 1] + parent[:i:-1]


# the outcome records are built once per search pass, by position: plain
# slotted dataclasses, which build several times faster than frozen ones

@dataclass(slots=True)
class ExtendAt:
    """A same-vertex-set path whose endpoint can step off the path.

    ``at`` is set when the path is the searched path itself rotated once
    around the pivot at position ``at`` (its suffix past ``at`` reversed).
    Then ``path`` is None: the path is ``_rotated(seed, at)``, and the
    caller, which holds the seed, can rotate it in place. For every other
    path ``at`` is None and ``path`` holds it.
    """
    path: tuple[int, ...] | None
    endpoint: int
    external: int
    at: int | None = None


@dataclass(slots=True)
class Chord:
    """A same-vertex-set path whose two endpoints are adjacent."""
    path: tuple[int, ...]
    ends: tuple[int, int]


@dataclass(slots=True)
class Stuck:
    """Two-level rotation search exhausted with no extension and no chord."""
    level_one: int
    level_two: int
    explored: int
    message: str = ""


def rotate_until_extendable(G: Graph, path: list[int] | tuple[int, ...],
                            constraints: RotationConstraints | None = None,
                            path_mask: int | None = None,
                            positions: list[int] | None = None):
    """Two-level rotation search respecting locked edges.

    Rotates the seed path from one endpoint and then, for each resulting
    path, from the other. Returns ExtendAt for the first path found whose
    endpoint has a neighbor outside the (invariant) vertex set, else a
    Chord whose endpoints are adjacent, else Stuck. Locked edges of the
    seed survive into whichever path is returned. The seed is never
    mutated, and a list seed is not copied.

    Level one walks the rotation tree of the seed breadth-first with its
    first vertex fixed. Once it is exhausted, level two reverses each
    level-one path, the seed first, fixing its endpoint, and walks the
    rotations of the old fixed end; a walk never tests its root, a path
    that level one already tested. Each expansion scans its pivots in
    ascending vertex order and makes the clean rotations as it finds them,
    then the ones that break a soft edge, held back until then; distinct
    pivots give distinct endpoints, so the clean ones never rule a held one
    out. Every rotation is counted in ``constraints`` just before one shared
    block tests it for an extension, a chord and the node cap. Pivots are
    the endpoint's neighbours in ``path_mask``, so every pivot lies on every
    rotated path. A walk's queue is a plain list of (parent, i) entries,
    each standing for ``_rotated(parent, i)``; level one's queue is also its
    list of paths, and a path is built only to be expanded, reversed or
    returned.

    ``path_mask`` is the bitmask of the path's vertices and ``positions``
    maps each of its vertices to its position, for callers that already
    keep them; with ``positions`` the seed's own rotations look their
    pivots up in O(1). An ExtendAt whose path is the seed rotated once
    carries the pivot position in ``at`` and no path.

    find_hamilton_cycle calls this once per pass, and most passes make a
    single rotation, so the fixed cost per call is kept low: the two seed
    ends are tested inline on ``G.rows`` and the outcomes are built by
    position.
    """
    if constraints is None:
        constraints = RotationConstraints()
    p0 = path if isinstance(path, list) else list(path)
    if len(p0) < 2:
        raise RotationError("path must be non-trivial (at least 2 vertices)")
    if path_mask is None:
        path_mask = mask_of(p0)
    rows = G.rows
    outside = G.full_mask() & ~path_mask
    head, tail = p0[0], p0[-1]

    hit = rows[tail] & outside
    if hit:
        return ExtendAt(tuple(p0), tail, (hit & -hit).bit_length() - 1)
    hit = rows[head] & outside
    if hit:
        return ExtendAt(tuple(p0[::-1]), head, (hit & -hit).bit_length() - 1)

    chord: Chord | None = None
    if rows[head] >> tail & 1:
        chord = Chord(tuple(p0), (head, tail))
        if not outside:
            return chord

    q = len(p0)
    locked, soft = constraints.locked, constraints.soft
    level_one = queue = [(p0, None)]  # the seed's own entry first
    root, known, fixed = p0, positions, head  # the current walk
    explored = 1                              # the seed, tested above
    turned = 0                                # level-one entries reversed and walked so far
    while True:
        seen = {root[-1]}
        for parent, at in queue:
            if at is None:
                path, index = root, known
            else:
                path, index = parent[: at + 1] + parent[:at:-1], None
            held = []
            nb = rows[path[-1]] & path_mask
            while True:
                if nb:
                    low = nb & -nb
                    nb ^= low
                    w = low.bit_length() - 1
                    i = path.index(w) if index is None else index[w]
                    if i > q - 3:
                        continue
                    end = path[i + 1]
                    if end in seen:
                        continue
                    if soft:  # a superset of locked
                        broken = (w, end) if w < end else (end, w)
                        if broken in locked:
                            continue
                        if broken in soft:
                            held.append(i)
                            continue
                    constraints.rotations += 1  # a clean rotation, so not a soft break
                elif held:
                    i = held.pop(0)
                    end = path[i + 1]
                    constraints.record(edge_key(path[i], end))
                else:
                    break
                # test the rotation of path around position i, ending at end
                seen.add(end)
                queue.append((path, i))
                explored += 1
                hit = rows[end] & outside
                if hit:
                    ext = (hit & -hit).bit_length() - 1
                    if path is p0:
                        return ExtendAt(None, end, ext, i)
                    return ExtendAt(tuple(_rotated(path, i)), end, ext)
                if chord is None and rows[fixed] >> end & 1:
                    chord = Chord(tuple(_rotated(path, i)), (fixed, end))
                    if not outside:
                        return chord
                if explored >= SEARCH_NODE_CAP:
                    ones = len(level_one)
                    return chord or Stuck(ones, explored - ones, explored, "node budget exhausted")
        if turned == len(level_one):
            ones = len(level_one)
            return chord or Stuck(ones, explored - ones, explored, "no extension, no chord")
        first, at = level_one[turned]
        turned += 1
        root = _rotated(first, at)[::-1]
        queue, known, fixed = [(root, None)], None, root[0]


def _open_at(cycle: tuple[int, ...], w: int, constraints: RotationConstraints) -> list[int] | None:
    """The cycle opened at ``w`` into a path that ends at w, or None when
    both cycle edges at w are locked.

    Drops the first of w's previous and next cycle edges that is clean, else
    the first that is soft but not locked, and records the drop.
    """
    i = cycle.index(w)
    prev_e = edge_key(cycle[i - 1], w)
    next_e = edge_key(w, cycle[(i + 1) % len(cycle)])
    options = ([e for e in (prev_e, next_e) if e not in constraints.soft]
               or [e for e in (prev_e, next_e) if e not in constraints.locked])
    if not options:
        return None
    constraints.record_absorption(options[0])
    if options[0] == next_e:
        return list(cycle[i + 1:] + cycle[: i + 1])
    return list((cycle[i:] + cycle[:i])[::-1])  # starts at the previous vertex


@dataclass
class HamiltonResult:
    """Outcome of find_hamilton_cycle: a cycle or a structured failure."""

    cycle: tuple[int, ...] | None
    failure: str | None = None
    iterations: int = 0
    rotations: int = 0
    soft_breaks: int = 0
    path_len: int = 0

    @property
    def ok(self) -> bool:
        return self.cycle is not None


def _place(path: list[int], positions: list[int], start: int = 0) -> None:
    """Write the position of each vertex of ``path[start:]`` into ``positions``."""
    for i in range(start, len(path)):
        positions[path[i]] = i


def _greedy_extend(G: Graph, path: list[int], used: int, positions: list[int]) -> int:
    """Extend a path in place at both ends, always stepping to the lowest
    new vertex. ``used`` is the mask of the path's vertices; returns the
    mask of the extended path. ``positions`` is kept up to date.

    The tail is extended first until it is stuck, then the head: a stuck
    tail stays stuck, because the path only gains vertices. The steps
    carry one mask, of the vertices off the path. The new positions are
    written once at the end: from the old tail on, or from 0 when the head
    grew and every vertex moved.
    """
    rows = G.rows
    full = G.full_mask()
    free = full & ~used
    start = len(path)
    step = rows[path[-1]] & free
    while step:
        low = step & -step
        v = low.bit_length() - 1
        path.append(v)
        free ^= low
        step = rows[v] & free
    head = []
    step = rows[path[0]] & free
    while step:
        low = step & -step
        v = low.bit_length() - 1
        head.append(v)
        free ^= low
        step = rows[v] & free
    if head:
        path[:0] = head[::-1]
        start = 0
    if start < len(path):  # most passes add no vertex
        _place(path, positions, start)
    return full ^ free


def _start_vertex(degs: list[int], start_hint: int) -> int:
    """The vertex at position start_hint % n of the vertices in descending
    degree order, ties in ascending vertex order."""
    k = start_hint % len(degs)
    if k == 0:
        return degs.index(max(degs))  # the order's first vertex, unsorted
    # the sort is stable, so tied vertices keep their ascending order
    return sorted(range(len(degs)), key=degs.__getitem__, reverse=True)[k]


def find_hamilton_cycle(G: Graph, constraints: RotationConstraints | None = None,
                        seed_path: list[int] | tuple[int, ...] | None = None,
                        start_hint: int = 0) -> HamiltonResult:
    """Heuristic Hamilton cycle search by rotation and extension.

    Starts from ``seed_path``; without one, from the locked edges' paths
    joined end to end by one ``reduce_family`` round at k = 1, which trims
    no edge; with no locked edges either, from a greedy longest path. Then
    it alternates: extend greedily, rotate until extendable, extend; when a
    chord closes a non-spanning cycle, absorb an outside vertex and
    continue. Every pass that does not return adds a vertex to the path, so
    the search makes at most n passes. Any returned cycle contains every
    locked edge of the seed and validates against the graph; getting stuck
    returns a failure report, never an exception.

    The search keeps one path list with its vertex mask and a vertex ->
    position list. An extension found by one rotation of that path rotates
    it in place and rewrites the positions of the reversed suffix only.

    A returned cycle is built from the shared ``vertex_ints(n)`` table, so
    the cycles of a packing or cover all hold the same n int objects. Only
    for n > 257: CPython already shares the ints 0..256.
    """
    if constraints is None:
        constraints = RotationConstraints()
    n = G.n
    if n < 3:
        return HamiltonResult(None, failure=f"no Hamilton cycle on {n} < 3 vertices")
    degs = G.degrees()
    if min(degs) < 2:
        return HamiltonResult(None, failure="a vertex of degree < 2 rules out any Hamilton cycle")

    if seed_path is not None:
        path = list(seed_path)
        if len(path) < 2 or not is_path(G, path):
            return HamiltonResult(None, failure="seed is not a path of this graph")
        if constraints.locked:
            missing = sorted(constraints.locked - path_edges(path))
            if missing:
                return HamiltonResult(None, failure=f"seed path misses locked edges {missing}")
    elif constraints.locked:
        absent = [e for e in sorted(constraints.locked) if not G.has_edge(*e)]
        if absent:
            return HamiltonResult(None, failure=f"locked edges not in the graph: {absent}")
        # a vertex on 3+ locked edges, or a locked cycle, rules out every
        # Hamilton cycle through them, bar the locked cycle itself
        try:
            family = PathFamily.from_edges(constraints.locked)
        except FamilyError:
            return HamiltonResult(None, failure="locked edges admit no spanning path through them")
        # at k = 1 a splice joins path ends only, on end pointers, so it
        # trims no locked edge; the join takes any linear forest
        family = reduce_family(G, family, ExtensionBudget(d=n, k=1))
        if len(family.paths) != 1:
            return HamiltonResult(None, failure="could not chain locked edges into one path")
        path = list(family.paths[0])
    else:
        # the first pass's greedy extension grows the start vertex into a path
        path = [_start_vertex(degs, start_hint)]

    def failed(reason: str, path_len: int) -> HamiltonResult:
        return HamiltonResult(None, failure=reason, iterations=iterations,
                              rotations=constraints.rotations,
                              soft_breaks=constraints.soft_breaks, path_len=path_len)

    # the path's vertex set changes only on extension and absorption
    used = mask_of(path)
    pos = [0] * n  # pos[v] is v's position on the path; stale for off-path v
    _place(path, pos)
    for iterations in range(1, n + 1):
        used = _greedy_extend(G, path, used, pos)
        # looked up by module name on every pass, so a wrapper set on the
        # module sees every call
        outcome = rotate_until_extendable(G, path, constraints, path_mask=used, positions=pos)
        if isinstance(outcome, ExtendAt):
            at = outcome.at
            if at is None:
                path = list(outcome.path)
                _place(path, pos)
            else:
                path[at + 1:] = path[:at:-1]
                _place(path, pos, at + 1)
            pos[outcome.external] = len(path)
            path.append(outcome.external)
            used |= 1 << outcome.external
            continue
        if isinstance(outcome, Chord):
            cyc = outcome.path
            if len(cyc) == n:
                if not is_hamilton_cycle(G, cyc):
                    return failed("internal: closed sequence is not a Hamilton cycle", n)
                if n > 257:  # a vertex above 256 is a private int object
                    cyc = tuple(map(vertex_ints(n).__getitem__, cyc))
                return HamiltonResult(cyc, iterations=iterations,
                                      rotations=constraints.rotations,
                                      soft_breaks=constraints.soft_breaks,
                                      path_len=n)
            # absorb: open the cycle at its lowest vertex with an outside
            # neighbour, and step to that vertex's lowest outside neighbour
            rows, outside = G.rows, G.full_mask() & ~used
            w = min((v for v in cyc if rows[v] & outside), default=None)
            if w is None:
                return failed("cycle spans a whole component; graph disconnected", len(cyc))
            path = _open_at(cyc, w, constraints)
            if path is None:
                return failed(f"absorption blocked: both cycle edges at {w} are locked", len(cyc))
            hit = rows[w] & outside
            a = (hit & -hit).bit_length() - 1
            path.append(a)
            _place(path, pos)
            used |= 1 << a
            continue
        return failed(f"stuck: {outcome.message} "
                      f"(level sizes {outcome.level_one}/{outcome.level_two})", len(path))
    return failed("internal: path stopped growing", len(path))
