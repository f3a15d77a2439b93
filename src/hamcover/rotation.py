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
that walks the rotation tree breadth-first and expands every path with one
scan, ``_expand``, which takes the pivots in ascending vertex order, the
soft ones last, and tests each rotation where it makes it.
``find_hamilton_cycle`` runs it once per pass, so every outcome is
deterministic for a given graph and seed path. Most passes extend at a
rotation of the seed itself, so the search scans the seed's own pivots
first and builds the walk only when none of them extends.

The Hamilton search keeps its path's positions as raw values under a
reflection map (s, t): v's position is t + s * raw[v]. A rotation reverses
the path list's suffix in one slice but rewrites the positions of its
shorter side only. When the suffix is the longer side, the map is
reflected about the rotation, which moves every suffix position at once,
and the prefix is rewritten under the new map. This is the array form of
reversing the shorter side (Fredman, Johnson, McGeoch and Ostheimer, "Data
structures for traveling salesmen", J. Algorithms 1995); a list cannot
reverse its prefix in place of its suffix, so only the writes change side.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .families import ExtensionBudget, FamilyError, PathFamily, reduce_family
from .graph import (
    Edge,
    Graph,
    edge_key,
    is_hamilton_cycle,
    is_path,
    mask_of,
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
    soft_breaks <= rotations + absorptions always holds. The search tests
    each rotation as it makes it and stops at the first one that settles
    the search, so it counts the rotations it tested, not every child of
    every path it expanded. Each expansion adds its rotations and soft
    breaks once, when it ends, so the counts land when the pass returns,
    with the same totals as a count per rotation. A rotation is counted
    whether or not its path is ever built as a list: the search builds one
    only to expand, reverse or return it.
    """

    locked: frozenset[Edge] = frozenset()
    soft: frozenset[Edge] = frozenset()
    rotations: int = 0
    absorptions: int = 0
    soft_breaks: int = 0

    def __post_init__(self) -> None:
        self.locked = _canonical_edges(self.locked)
        soft = _canonical_edges(self.soft)
        self.soft = soft if self.locked <= soft else soft | self.locked

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


def _expand(rows, path: list[int], index: list[int], sgn: int, off: int, path_mask: int,
            seen, constraints: RotationConstraints, target: int, room: int,
            made: list[int]) -> int | None:
    """Rotate ``path`` about its end's pivots, in the search's one pivot
    order, until a rotation settles the pass.

    Pivots are the end's neighbours in ``path_mask``; pivot w sits at
    position off + sgn * index[w]. The clean rotations come in ascending
    pivot order as the scan finds them, then the ones that break a soft
    edge, held back until then; distinct pivots give distinct new ends, so
    the clean ones never rule a held one out, and ``seen`` is only read. A
    rotation that breaks a locked edge, or whose new end is in ``seen``, is
    not made. Appends the pivot position of each rotation made to ``made``
    and returns the first whose new end has a neighbour in ``target``;
    returns None once every rotation is made, or ``room`` of them. Adds
    the rotations and soft breaks made to ``constraints`` once, on return.
    """
    last = len(path) - 3  # the last pivot position whose rotation moves the end
    locked, soft = constraints.locked, constraints.soft
    held = []
    softs = 0
    nb = rows[path[-1]] & path_mask
    while True:
        if nb:
            low = nb & -nb
            nb ^= low
            w = low.bit_length() - 1
            i = off + sgn * index[w]
            if i > last:
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
        elif held:
            i = held.pop(0)
            end = path[i + 1]
            softs += 1
        else:
            i = None
            break
        made.append(i)
        if rows[end] & target:
            break
        if len(made) >= room:
            i = None
            break
    constraints.rotations += len(made)
    if softs:
        constraints.soft_breaks += softs
    return i


def rotate_until_extendable(G: Graph, path: list[int] | tuple[int, ...],
                            constraints: RotationConstraints | None = None,
                            path_mask: int | None = None,
                            positions: list[int] | None = None,
                            position_map: tuple[int, int] = (1, 0)):
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
    that level one already tested. Every expansion, the seed's included, is
    one ``_expand`` scan: clean rotations in ascending pivot order, then
    the held ones that break a soft edge, each tested for an extension as
    it is made. Pivots are the endpoint's neighbours in ``path_mask``, so
    every pivot lies on every rotated path.

    Most passes end at a rotation of the seed itself, so when vertices lie
    off the path the seed's own expansion runs first, before any walk
    state is built, and its first extension is returned at once. Only when
    it finds none is the walk built, and it continues from the seed's
    rotations without making them again: their queue entries, their ends,
    the first chord among them and the node cap carry over. With no vertex
    off the path the walk starts at the seed and stops at the first chord.
    A walk's queue is a plain list of (parent, i) entries, each standing
    for ``_rotated(parent, i)``; level one's queue is also its list of
    paths, and a path is built only to be expanded, reversed or returned.

    ``path_mask`` is the bitmask of the path's vertices and ``positions``
    holds each of its vertices' raw position under ``position_map`` (s, t):
    v's position is t + s * positions[v]. Callers that already keep them
    pass them; otherwise the seed's positions are written first. Every
    pivot is looked up in O(1): the seed's through the map, the reversed
    seed's through the reflected map (-s, q - 1 - t), and every other path
    the search expands through its positions, written when it is expanded
    into one list that the call makes on first use. An ExtendAt whose path
    is the seed rotated once carries the pivot position in ``at`` and no
    path.
    """
    if constraints is None:
        constraints = RotationConstraints()
    p0 = path if isinstance(path, list) else list(path)
    if len(p0) < 2:
        raise RotationError("path must be non-trivial (at least 2 vertices)")
    if path_mask is None:
        path_mask = mask_of(p0)
    rows = G.rows
    outside = G.full_mask() ^ path_mask
    head, tail = p0[0], p0[-1]

    hit = rows[tail] & outside
    if hit:
        return ExtendAt(tuple(p0), tail, (hit & -hit).bit_length() - 1)
    hit = rows[head] & outside
    if hit:
        return ExtendAt(tuple(p0[::-1]), head, (hit & -hit).bit_length() - 1)

    q = len(p0)
    if positions is None:
        positions, position_map = [0] * G.n, (1, 0)
        _place(p0, positions, 1, 0, 0, q)
    sign, offset = position_map
    made: list[int] = []  # the rotations of the last path expanded
    if outside:
        i = _expand(rows, p0, positions, sign, offset, path_mask, (), constraints,
                    outside, SEARCH_NODE_CAP - 1, made)
        if i is not None:
            end = p0[i + 1]
            hit = rows[end] & outside
            return ExtendAt(None, end, (hit & -hit).bit_length() - 1, i)

    # the two-level walk; with vertices off the path, its first entry, the
    # seed, is already expanded, and the rotations in made join it below
    chord: Chord | None = None
    if rows[head] >> tail & 1:
        chord = Chord(tuple(p0), (head, tail))
        if not outside:
            return chord
    level_one = queue = [(p0, None)]
    k = 1 if outside else 0           # the walk's next entry to expand
    path = root = p0                  # the path expanded last, the walk's root
    fixed, seen = head, {tail}
    # v's position on the path being expanded is off + sgn * index[v]
    index, sgn, off = positions, sign, offset
    # every other expanded path has the seed's vertex set, so one list,
    # made on first use, holds the positions of each in turn
    scratch = None
    explored = 1                      # the seed, tested above
    turned = 0                        # level-one entries reversed and walked so far
    while True:
        # with a vertex off the path a chord does not end the search, so
        # only extensions are tested as they are made; with none, chords
        target = outside or 1 << fixed
        while True:
            if made:
                queue += [(path, j) for j in made]
                seen.update([path[j + 1] for j in made])
                explored += len(made)
            if k == len(queue) or explored >= SEARCH_NODE_CAP:
                break
            parent, at = queue[k]
            k += 1
            if at is None:
                path = root  # its positions were set with it
            else:
                path = parent[: at + 1] + parent[:at:-1]
                if scratch is None:
                    scratch = [0] * G.n
                _place(path, scratch, 1, 0, 0, q)
                index, sgn, off = scratch, 1, 0
            made = []
            i = _expand(rows, path, index, sgn, off, path_mask, seen, constraints,
                        target, SEARCH_NODE_CAP - explored, made)
            if i is not None:
                end = path[i + 1]
                if not outside:
                    return Chord(tuple(_rotated(path, i)), (fixed, end))
                hit = rows[end] & outside
                return ExtendAt(tuple(_rotated(path, i)), end, (hit & -hit).bit_length() - 1)
        if chord is None and outside:
            # the first chord among the walk's rotations, in the order made
            near = rows[fixed]
            for parent, at in queue[1:]:
                end = parent[at + 1]
                if near >> end & 1:
                    chord = Chord(tuple(_rotated(parent, at)), (fixed, end))
                    break
        ones = len(level_one)
        if explored >= SEARCH_NODE_CAP:
            return chord or Stuck(ones, explored - ones, explored, "node budget exhausted")
        if turned == ones:
            return chord or Stuck(ones, explored - ones, explored, "no extension, no chord")
        first, at = level_one[turned]
        turned += 1
        if at is None:  # the seed reversed: its positions under the reflected map
            root = p0[::-1]
            index, sgn, off = positions, -sign, q - 1 - offset
        else:
            root = _rotated(first, at)[::-1]
            if scratch is None:
                scratch = [0] * G.n
            _place(root, scratch, 1, 0, 0, q)
            index, sgn, off = scratch, 1, 0
        queue, k, fixed, seen, made = [(root, None)], 0, root[0], {root[-1]}, []


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


def _place(path: list[int], raw: list[int], s: int, t: int, start: int, stop: int) -> None:
    """Write the raw position of each vertex of ``path[start:stop]`` under
    the map (s, t): raw[v] = s * (j - t) for the vertex v at position j, so
    that t + s * raw[v] == j."""
    if s > 0:
        for j in range(start, stop):
            raw[path[j]] = j - t
    else:
        for j in range(start, stop):
            raw[path[j]] = t - j


def _on_path(path: list[int], raw: list[int], u, v) -> bool:
    """Whether (u, v) is an edge of ``path``, whose vertices' positions
    ``raw`` holds under the map (1, 0): both ends on it, at adjacent
    positions. O(1); a vertex that is not an integer in range is on no
    path, and a numpy integer is converted first."""
    try:
        u, v = operator.index(u), operator.index(v)
    except TypeError:
        return False
    n = len(raw)
    return (0 <= u < n and 0 <= v < n and abs(raw[u] - raw[v]) == 1
            and path[raw[u]] == u and path[raw[v]] == v)


def _greedy_extend(G: Graph, path: list[int], free: int, raw: list[int], s: int, t: int) -> int:
    """Extend a path in place at both ends, always stepping to the lowest
    new vertex. ``free`` is the mask of the vertices off the path, which
    the search carries from pass to pass; returns the mask of those still
    off the extended path. The raw positions of the path's vertices are
    kept up to date under the map (s, t).

    The tail is extended first until it is stuck, then the head: a stuck
    tail stays stuck, because the path only gains vertices. The new
    positions are written once at the end: from the old tail on, or from 0
    when the head grew and every vertex moved. A rotation in place keeps
    the stuck head, so the head grows only where the map is (1, 0): on a
    search's first pass, or after a pass that rewrote every position.
    """
    rows = G.rows
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
        _place(path, raw, s, t, start, len(path))
    return free


def find_hamilton_cycle(G: Graph, constraints: RotationConstraints | None = None,
                        seed_path: list[int] | tuple[int, ...] | None = None) -> HamiltonResult:
    """Heuristic Hamilton cycle search by rotation and extension.

    Starts from ``seed_path``; without one, from the locked edges' paths
    joined end to end by one ``reduce_family`` round at k = 1, which trims
    no edge; with no locked edges either, from the lowest vertex of top
    degree, grown greedily into a path. Then it alternates: extend
    greedily, rotate until extendable, extend; when a chord closes a
    non-spanning cycle, absorb an outside vertex and continue. Every pass
    that does not return adds a vertex to the path, so the search makes at
    most n passes. Any returned cycle contains every locked edge of the
    seed and validates against the graph; getting stuck returns a failure
    report, never an exception.

    The search keeps one path list, the mask of the vertices off it, and a
    vertex -> raw position list under a map (s, t): v's position is
    t + s * raw[v]. An extension found by one rotation of that path, around
    position at, reverses the list's suffix past at in place and rewrites
    the positions of the shorter side only: the suffix under the same map
    when it is no longer than the prefix, else the prefix after the map is
    reflected about the rotation, (s, t) <- (-s, at + q - t) for a path of
    q vertices, which moves every suffix position at once. So an extension
    writes min(at + 1, q - at - 1) positions, plus the new endpoint's. An
    extension that returns another path, and an absorption, rewrite every
    position and reset the map to (1, 0).

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
        # a sum stays a Python int only over Python ints, so numpy and other
        # integer vertices are converted without a call per vertex on the
        # covering searches, which hand over Python ints
        try:
            if type(sum(path)) is not int:
                path = list(map(operator.index, path))
        except TypeError:  # a vertex that is not an integer
            return HamiltonResult(None, failure="seed is not a path of this graph")
        if len(path) < 2 or not is_path(G, path):
            return HamiltonResult(None, failure="seed is not a path of this graph")
    elif constraints.locked:
        absent = [e for e in sorted(constraints.locked) if not G.has_edge(*e)]
        if absent:
            return HamiltonResult(None, failure=f"locked edges not in the graph: {absent}")
        # a vertex on 3+ locked edges, or a locked cycle, rules out every
        # Hamilton cycle through them, bar the locked cycle itself
        try:
            family = PathFamily.from_edges([(operator.index(u), operator.index(v))
                                            for u, v in constraints.locked])
        except FamilyError:
            return HamiltonResult(None, failure="locked edges admit no spanning path through them")
        # at k = 1 a splice joins path ends only, on end pointers, so it
        # trims no locked edge; the join takes any linear forest
        family = reduce_family(G, family, ExtensionBudget(d=n, k=1))
        if len(family.paths) != 1:
            return HamiltonResult(None, failure="could not chain locked edges into one path")
        path = list(family.paths[0])
    else:
        # the first pass grows the lowest vertex of top degree into a path
        path = [degs.index(max(degs))]

    def failed(reason: str, path_len: int) -> HamiltonResult:
        return HamiltonResult(None, failure=reason, iterations=iterations,
                              rotations=constraints.rotations,
                              soft_breaks=constraints.soft_breaks, path_len=path_len)

    # the path's vertex set changes only on extension and absorption
    full = G.full_mask()
    free = full & ~mask_of(path)  # the vertices off the path
    # t + s * raw[v] is v's position on the path; stale for off-path v
    raw, s, t = [0] * n, 1, 0
    _place(path, raw, s, t, 0, len(path))
    if seed_path is not None and constraints.locked:
        missing = sorted(e for e in constraints.locked if not _on_path(path, raw, *e))
        if missing:
            return HamiltonResult(None, failure=f"seed path misses locked edges {missing}")
    for iterations in range(1, n + 1):
        free = _greedy_extend(G, path, free, raw, s, t)
        # looked up by module name on every pass, so a wrapper set on the
        # module sees every call
        outcome = rotate_until_extendable(G, path, constraints, full ^ free, raw, (s, t))
        if isinstance(outcome, ExtendAt):
            at, q = outcome.at, len(path)
            if at is None:
                path = list(outcome.path)
                s, t = 1, 0
                _place(path, raw, s, t, 0, q)
            else:
                # the list reverses its suffix in one slice; the positions
                # are rewritten on the shorter side only
                path[at + 1:] = path[:at:-1]
                if q - at - 1 <= at + 1:
                    _place(path, raw, s, t, at + 1, q)
                else:
                    # reflect the map about the rotation, which moves the
                    # suffix's positions, and rewrite the prefix under it
                    s, t = -s, at + q - t
                    _place(path, raw, s, t, 0, at + 1)
            raw[outcome.external] = s * (q - t)
            path.append(outcome.external)
            free ^= 1 << outcome.external
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
            rows = G.rows
            w = min((v for v in cyc if rows[v] & free), default=None)
            if w is None:
                return failed("cycle spans a whole component; graph disconnected", len(cyc))
            path = _open_at(cyc, w, constraints)
            if path is None:
                return failed(f"absorption blocked: both cycle edges at {w} are locked", len(cyc))
            hit = rows[w] & free
            a = (hit & -hit).bit_length() - 1
            path.append(a)
            s, t = 1, 0
            _place(path, raw, s, t, 0, len(path))
            free ^= 1 << a
            continue
        return failed(f"stuck: {outcome.message} "
                      f"(level sizes {outcome.level_one}/{outcome.level_two})", len(path))
    return failed("internal: path stopped growing", len(path))
