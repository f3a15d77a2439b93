"""Merging families of vertex-disjoint paths with exact edge accounting.

PathFamily.from_edges is the one code that turns an edge set into paths:
it walks the components of a linear forest, so a matching comes out as its
one-edge paths, and it rejects a vertex on three or more edges or a cycle.

A reduction step either deletes a path shorter than 2k-1 edges or splices
two paths together through a short connector, trimming at most k-1 edges
off each spliced end. Writing mu for the drop in the number of paths, the
ledger invariants

    lost   <= 2*(k-1)*mu        (edges of the old family no longer present)
    gained <= (d+2)*mu          (new edges introduced)

hold after every single step and are asserted, not assumed. Connectors run
from a vertex x within distance k-1 of one path's end to a vertex y near
another's, either as the direct edge (x, y) or as x-a-...-b-y where the
interior lives entirely outside the family's vertex set and a-...-b has at
most d edges.

A round at k = 1 only splices path ends, so it runs on end pointers: a
splice repoints the two new ends at each other and links the joined ends
through the connector, and the paths are built from the links at the end.
It starts from the family's vertex mask, which PathFamily keeps from its
own disjointness check.

A lossy round (k >= 2) first deletes every path too short to keep, then
makes each move from the current paths: their k-end vertices, those ends'
masks and, only when no direct edge joins two paths, the family's vertex
mask. Both kinds of round make their moves in one candidate order.

reduce_family is the one code that joins paths, and it has two users. The
driver merge_into_single_path feeds a linear forest (a matching, or the
degree-first forests of the cover's residual) through one round at k = 1,
where a splice uses path ends only and so trims nothing, then through
lossy rounds with ends as deep as the longest path allows until a round
makes no move. find_hamilton_cycle joins the paths of its locked edges
into one seed with a single round at k = 1. merge_into_single_path takes
a forest as a PathFamily or as an edge set: the cover's forest builder
hands over the paths it walked, for the residual's forests and for the
matching covers alike. PathFamily.from_edges serves the edge sets: the
locked-edge join's, and those that callers such as acceptance criterion
3 hand to merge_into_single_path.
"""

from __future__ import annotations

import math
import operator
from bisect import insort
from collections import deque
from dataclasses import dataclass, field

from .graph import Edge, Graph, edge_key, iter_bits, mask_of, path_edges


class FamilyError(ValueError):
    """Malformed path family (shared vertices, trivial paths), or an edge
    set that is not a linear forest (a vertex on three or more edges, a
    cycle)."""


class BudgetError(AssertionError):
    """An accounting invariant failed; indicates a bug in the move logic."""


@dataclass
class ExtensionBudget:
    """Accounting for a sequence of (d, k) path-family reductions.

    d bounds the connector interior (a merge gains at most d+2 edges), k the
    end depth (a merge trims at most k-1 edges per side, a deletion removes
    a path of fewer than 2k-1 edges). mu counts completed moves.
    """

    d: int
    k: int
    mu: int = 0
    lost: int = 0
    gained: int = 0

    def check(self) -> None:
        if self.lost > 2 * (self.k - 1) * self.mu:
            raise BudgetError(f"lost {self.lost} > 2(k-1)*mu = {2 * (self.k - 1) * self.mu}")
        if self.gained > (self.d + 2) * self.mu:
            raise BudgetError(f"gained {self.gained} > (d+2)*mu = {(self.d + 2) * self.mu}")
        if self.mu < 0:
            raise BudgetError("negative move count")


def _canonical(path) -> tuple[int, ...]:
    p = tuple(path)
    return p if p[0] <= p[-1] else p[::-1]


def _int_path(path) -> tuple[int, ...]:
    """``path`` as a tuple of Python ints. A sum stays a Python int only
    over Python ints, so the cover's paths pass with no call per vertex;
    numpy and other integer vertices are converted, whose bitmasks would
    overflow."""
    p = tuple(path)
    return p if type(sum(p)) is int else tuple(map(operator.index, p))


@dataclass
class PathFamily:
    """Vertex-disjoint non-trivial paths of graph vertices (ints >= 0),
    checked on vertex bitmasks. ``mask``, the union of the paths' vertex
    masks, is the one the check builds; it takes no part in equality."""

    paths: list[tuple[int, ...]]
    mask: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.paths = sorted(_canonical(_int_path(p)) for p in self.paths)
        seen = 0
        for p in self.paths:
            if len(p) < 2:
                raise FamilyError(f"trivial path {p}")
            mask = mask_of(p)
            if mask.bit_count() != len(p):
                raise FamilyError(f"repeated vertex in {p}")
            if mask & seen:
                raise FamilyError(f"path {p} shares vertices with the family")
            seen |= mask
        self.mask = seen

    @classmethod
    def from_edges(cls, edges) -> "PathFamily":
        """The paths of a linear forest, one per component; a matching gives
        its one-edge paths. Edges are canonicalised and deduplicated.

        Raises FamilyError on a vertex with three or more edges, or on a
        cycle.
        """
        keys = {edge_key(*e) for e in edges}
        adj: dict[int, list[int]] = {}
        for u, v in keys:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        paths = []
        done: set[int] = set()  # far ends of the paths walked so far
        for v, nb in adj.items():
            if len(nb) > 2:
                raise FamilyError(f"vertex {v} is on {len(nb)} edges")
            if len(nb) == 2 or v in done:
                continue
            prev, cur = v, nb[0]
            path = [v, cur]
            while len(adj[cur]) == 2:
                a, b = adj[cur]
                prev, cur = cur, b if a == prev else a
                path.append(cur)
            done.add(cur)
            paths.append(path)
        # a cycle has no end to walk from, so its vertices go unreached
        if sum(map(len, paths)) != len(adj):
            raise FamilyError("the edges close a cycle")
        return cls(paths)


def _split_at(path: tuple[int, ...], x: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Keep the longer piece of ``path`` around ``x`` (oriented to end at x);
    return it with the trimmed piece's vertices other than x, one per
    trimmed edge."""
    idx = path.index(x)
    if idx >= len(path) - 1 - idx:
        return path[: idx + 1], path[idx + 1:]
    return path[idx:][::-1], path[:idx]


def _end_candidates(path: tuple[int, ...], k: int) -> list[int]:
    """Indices of the k-end vertices of ``path``, ordered by trim cost, then
    by vertex. Only the first and last k positions are looked at: cost c
    holds positions c and n-1-c, one position when they meet."""
    n = len(path)
    out = []
    for c in range(min(k, (n + 1) // 2)):
        i, j = c, n - 1 - c
        if i == j:
            out.append(i)
        elif path[i] < path[j]:
            out += (i, j)
        else:
            out += (j, i)
    return out


def _find_connector(G: Graph, x: int, y: int, family_mask: int, d: int) -> list[int] | None:
    """Shortest x..y connector interior through vertices off the family.

    Returns the interior vertex sequence a..b (possibly length 1 when a=b),
    with at most d edges inside, or None. The direct edge case is handled by
    the caller.
    """
    rows = G.rows
    outside = ~family_mask
    sources = rows[x] & outside & G.full_mask()
    targets = rows[y] & outside & G.full_mask()
    if not sources or not targets:
        return None
    parent: dict[int, int | None] = {}
    queue: deque[tuple[int, int]] = deque()
    for a in iter_bits(sources):
        parent[a] = None
        if targets >> a & 1:
            return [a]
        queue.append((a, 0))
    while queue:
        v, dist = queue.popleft()
        if dist >= d:
            continue
        for w in iter_bits(rows[v] & outside):
            if w in parent:
                continue
            parent[w] = v
            if targets >> w & 1:
                interior = [w]
                cur = v
                while cur is not None:
                    interior.append(cur)
                    cur = parent[cur]
                interior.reverse()
                return interior
            queue.append((w, dist + 1))
    return None


def _find_merge(G: Graph, paths: list[tuple[int, ...]], k: int, d: int):
    """First applicable merge under the deterministic candidate order,
    computed from ``paths`` alone.

    The order runs over (i, j, x, y): paths i and j in sorted order, x over
    i's k-end vertices in candidate order (_end_candidates), then y over j's
    (ascending vertex for a direct edge). Returns (path_i, path_j, x, y,
    interior) or None; the interior is empty for a direct edge.
    """
    rows = G.rows
    xss = [[p[i] for i in _end_candidates(p, k)] for p in paths]
    masks = [mask_of(xs) for xs in xss]
    # direct edges first: cheapest gain, no outside vertices consumed
    for i, xs in enumerate(xss):
        for j, mask in enumerate(masks):
            if j == i:
                continue
            for x in xs:
                ys = rows[x] & mask
                if ys:
                    return paths[i], paths[j], x, (ys & -ys).bit_length() - 1, []
    return _first_connector(G, paths, xss, mask_of(v for p in paths for v in p), d)


def _first_connector(G: Graph, paths: list, xss: list, family_mask: int, d: int):
    """First outside connector in (pi, x, pj, y) order, with ``xss[i]`` the
    usable ends of ``paths[i]`` in candidate order: (pi, pj, x, y, interior)
    or None."""
    rows = G.rows
    outside = G.full_mask() & ~family_mask
    for i, xs in enumerate(xss):
        xs = [x for x in xs if rows[x] & outside]
        if not xs:
            continue
        for j, ys in enumerate(xss):
            if j == i:
                continue
            for x in xs:
                for y in ys:
                    interior = _find_connector(G, x, y, family_mask, d)
                    if interior is not None:
                        return paths[i], paths[j], x, y, interior
    return None


def _find_join(G: Graph, heads: list[int], other: dict[int, int], ends_mask: int,
               family_mask: int, d: int):
    """First k = 1 move in _find_merge's order, on end pointers: ``heads``
    holds the paths' smaller ends in ascending order, the order of the
    sorted paths, and ``other`` maps each end to its path's other end.
    Returns (x, y, interior) or None."""
    rows = G.rows
    for h in heads:
        o = other[h]
        bh = rows[h]
        hit = (bh | rows[o]) & ends_mask & ~(1 << h | 1 << o)
        if hit:
            for j in heads:
                ej = 1 << j | 1 << other[j]
                if ej & hit:
                    break
            x = h if bh & ej else o
            ys = rows[x] & ej
            return x, (ys & -ys).bit_length() - 1, ()
    found = _first_connector(G, heads, [(h, other[h]) for h in heads], family_mask, d)
    return found and found[2:]


def _join(G: Graph, family: PathFamily, budget: ExtensionBudget) -> PathFamily:
    """A k = 1 round of reduce_family: splice path ends to a fixpoint; each
    path is built once, from the starting paths and the splices' links."""
    other: dict[int, int] = {}
    piece: dict[int, tuple[int, ...]] = {}  # each starting path, from each end
    for p in family.paths:
        a, b = p[0], p[-1]
        other[a], other[b] = b, a
        piece[a], piece[b] = p, p[::-1]
    heads = [p[0] for p in family.paths]
    ends_mask = mask_of(other)
    family_mask = family.mask
    link: dict[int, tuple] = {}
    while len(heads) >= 2:
        found = _find_join(G, heads, other, ends_mask, family_mask, budget.d)
        if found is None:
            break
        x, y, interior = found
        budget.mu += 1
        budget.gained += len(interior) + 1
        budget.check()
        a, b = other.pop(x), other.pop(y)
        other[a], other[b] = b, a
        ends_mask ^= 1 << x | 1 << y
        family_mask |= mask_of(interior)
        link[x], link[y] = (interior, y), (interior[::-1], x)
        heads.remove(a if a < x else x)
        heads.remove(b if b < y else y)
        insort(heads, a if a < b else b)
    paths = []
    for h in heads:
        path = list(piece[h])
        while path[-1] in link:
            interior, y = link[path[-1]]
            path += interior
            path += piece[y]
        paths.append(path)
    return PathFamily(paths)


def reduce_family(G: Graph, family: PathFamily, budget: ExtensionBudget) -> PathFamily:
    """Apply deletion and merge moves to a fixpoint, mutating ``budget``.

    Deletion drops any path of fewer than 2k-1 edges, which only an input
    path can have, so all deletions come first, in path order; merging
    then splices two paths whose k-ends connect directly or through at
    most d outside edges, each move found from the current paths
    (_find_merge). Budget invariants are asserted after every move. At
    k = 1 no path is short enough to delete and a splice trims nothing, so
    the round joins path ends on end pointers (_join); any linear forest
    may be its input.
    """
    k, d = budget.k, budget.d
    if k == 1:
        return _join(G, family, budget)
    # whether a path may be deleted depends on the path alone, and after
    # this pass none is: every path has at least 2k - 1 edges, a splice
    # point lies within k - 1 of an end and _split_at keeps the longer side,
    # so a merge keeps at least k edges of each parent and adds at least
    # one, and a merged path has at least 2k + 1
    paths = []
    for p in family.paths:
        if len(p) - 1 < 2 * k - 1:
            budget.mu += 1
            budget.lost += len(p) - 1
            budget.check()
        else:
            paths.append(p)
    while len(paths) >= 2:
        found = _find_merge(G, paths, k, d)
        if found is None:
            break
        pi, pj, x, y, interior = found
        kept_i, cut_i = _split_at(pi, x)
        kept_j, cut_j = _split_at(pj, y)
        budget.mu += 1
        budget.lost += len(cut_i) + len(cut_j)
        budget.gained += len(interior) + 1
        budget.check()
        paths.remove(pi)
        paths.remove(pj)
        insort(paths, _canonical(kept_i + tuple(interior) + kept_j[::-1]))
    return PathFamily(paths)


def check_alpha(alpha: float) -> None:
    """Raise ValueError, naming the value, unless alpha is a finite number
    > 0 whose connector cap ceil(6/alpha) is finite."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be a finite number > 0, got {alpha!r}")
    if 6.0 / alpha == math.inf:
        raise ValueError(f"alpha {alpha!r} is too small: the connector cap 6 / alpha overflows")


@dataclass
class MergeOutcome:
    """Result of collapsing a linear forest into one path;
    ``lost_matching`` holds the forest edges the path leaves out."""

    path: tuple[int, ...]
    lost_matching: frozenset[Edge]
    budgets: list[ExtensionBudget] = field(default_factory=list)
    k_schedule: list[int] = field(default_factory=list)
    dissolved: int = 0
    rounds: int = 0

    @property
    def mu(self) -> int:
        return sum(b.mu for b in self.budgets)

    @property
    def lost(self) -> int:
        return sum(b.lost for b in self.budgets)

    @property
    def gained(self) -> int:
        return sum(b.gained for b in self.budgets)


def merge_into_single_path(G: Graph, forest, alpha: float) -> MergeOutcome:
    """Merge a linear forest (a matching, or any set of vertex-disjoint
    paths) into a single path.

    ``forest`` is a PathFamily or an edge set; an edge set goes through
    PathFamily.from_edges. Runs reduction rounds with connector cap
    d = ceil(6/alpha): one round at k = 1, which splices path ends only and
    so keeps every forest edge, then lossy rounds with ends as deep as the
    longest path allows, until one path is left or a round makes no move.
    If several paths survive, all but the largest are dissolved and their
    forest edges reported as lost. Raises FamilyError if the edges are not
    a linear forest, and ValueError unless alpha is a finite number > 0
    (check_alpha).

    No lossy round follows a k = 1 round that made no move. On a matching
    every path is still one edge long, so that lossy round would be at
    k = 1 too and repeat the round. On a forest with longer paths it could
    trim and splice, but then no path end reaches another within d outside
    edges, which the covering loop rarely meets, and the edges of the
    dissolved paths stay uncovered for its next forest.
    """
    check_alpha(alpha)
    family = forest if isinstance(forest, PathFamily) else PathFamily.from_edges(forest)
    if not family.paths:
        raise ValueError("the forest must be non-empty")
    start = family.paths
    d = max(1, math.ceil(6.0 / alpha))
    out = MergeOutcome(path=(), lost_matching=frozenset())

    def round_with(k: int) -> bool:
        nonlocal family
        out.rounds += 1
        budget = ExtensionBudget(d=d, k=k)
        family = reduce_family(G, family, budget)
        out.budgets.append(budget)
        out.k_schedule.append(k)
        return budget.mu > 0

    moved = len(family.paths) > 1 and round_with(1)
    # lossy rounds, each after a round that moved: 2k-1 stays at most the
    # longest path's edge count, so deletions can never empty the family;
    # a round that moves lowers the path count
    while moved and len(family.paths) > 1:
        longest = max(len(p) - 1 for p in family.paths)
        moved = round_with((longest + 1) // 2)

    paths = family.paths
    size = max(map(len, paths))
    keep = min(p for p in paths if len(p) == size)  # the smallest longest path
    out.dissolved = len(paths) - 1
    out.path = keep
    # with no path dissolved and no edge lost by a move (k = 1 rounds trim
    # nothing), the path keeps every forest edge
    if out.dissolved or out.lost:
        out.lost_matching = frozenset().union(*map(path_edges, start)) - path_edges(keep)
    return out
