"""Merging families of vertex-disjoint paths with exact edge accounting.

PathFamily.from_edges is the one code that turns an edge set into paths:
it walks the components of a linear forest, so a matching comes out as its
one-edge paths, and it rejects a vertex on three or more edges or a cycle.

A reduction step either deletes a path shorter than 2k-1 edges or joins
two path ends, directly or through a short connector, so it trims no edge.
Writing mu for the drop in the number of paths, the ledger invariants

    lost   <= 2*(k-1)*mu        (edges of the old family no longer present)
    gained <= (d+2)*mu          (new edges introduced)

hold after every single step and are asserted, not assumed. Connectors run
from one path's end x to another's end y, either as the direct edge (x, y)
or as x-a-...-b-y where the interior lives entirely outside the family's
vertex set and a-...-b has at most d edges.

A join runs on end pointers: a splice repoints the two new ends at each
other and links the joined ends through the connector, and the paths are
built from the links at the end. It starts from the family's vertex mask,
which PathFamily keeps from its own disjointness check.

reduce_family is the one code that joins paths: it deletes the paths too
short for its k, none at k = 1, and then joins ends to a fixpoint. It has
two users. The driver merge_into_single_path feeds a linear forest (a
matching, or the degree-first forests of the cover's residual) through one
round at k = 1 and dissolves all but the longest path left.
find_hamilton_cycle joins the paths of its locked edges into one seed with
the same round. merge_into_single_path takes a forest as a PathFamily or
as an edge set: the cover's forest builder hands over the paths it walked,
for the residual's forests and for the matching covers alike.
PathFamily.from_edges serves the edge sets: the locked-edge join's, and
those that callers such as acceptance criterion 3 hand to
merge_into_single_path.
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

    d bounds the connector interior (a join gains at most d+2 edges), k the
    deletion depth (a deletion removes a path of fewer than 2k-1 edges; a
    join trims nothing). mu counts completed moves.
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


def _first_connector(G: Graph, ends: list[tuple[int, int]], family_mask: int, d: int):
    """First outside connector in (pi, x, pj, y) order, with ``ends[i]``
    path i's two ends in the order tried: (x, y, interior) or None."""
    rows = G.rows
    outside = G.full_mask() & ~family_mask
    for i, xs in enumerate(ends):
        xs = [x for x in xs if rows[x] & outside]
        if not xs:
            continue
        for j, ys in enumerate(ends):
            if j == i:
                continue
            for x in xs:
                for y in ys:
                    interior = _find_connector(G, x, y, family_mask, d)
                    if interior is not None:
                        return x, y, interior
    return None


def _find_join(G: Graph, heads: list[int], other: dict[int, int], ends_mask: int,
               family_mask: int, d: int):
    """The first join, on end pointers: ``heads`` holds the paths' smaller
    ends in ascending order, the order of the sorted paths, and ``other``
    maps each end to its path's other end. Direct edges come first: the
    first path, in that order, with an end adjacent to another path's end,
    the first path j that its ends see, its smaller end x that sees j, and
    the lower end y of j that x sees; then the first outside connector
    (_first_connector). Returns (x, y, interior) or None."""
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
    return _first_connector(G, [(h, other[h]) for h in heads], family_mask, d)


def _join(G: Graph, family: PathFamily, budget: ExtensionBudget) -> PathFamily:
    """reduce_family's join: splice path ends to a fixpoint; each path is
    built once, from the starting paths and the splices' links."""
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
    """Delete the short paths, then join path ends to a fixpoint, mutating
    ``budget``.

    Deletion drops every path of fewer than 2k-1 edges, in path order; at
    k = 1 none is that short. The join (_join) then splices path ends
    together, directly or through at most d outside edges, on end
    pointers, so it trims no edge and takes any linear forest. Budget
    invariants are asserted after every move.
    """
    paths = []
    for p in family.paths:
        if len(p) - 1 < 2 * budget.k - 1:
            budget.mu += 1
            budget.lost += len(p) - 1
            budget.check()
        else:
            paths.append(p)
    if len(paths) < len(family.paths):
        family = PathFamily(paths)
    return _join(G, family, budget)


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
    dissolved: int = 0
    rounds: int = 0

    @property
    def mu(self) -> int:
        return sum(b.mu for b in self.budgets)

    @property
    def gained(self) -> int:
        return sum(b.gained for b in self.budgets)


def merge_into_single_path(G: Graph, forest, alpha: float) -> MergeOutcome:
    """Merge a linear forest (a matching, or any set of vertex-disjoint
    paths) into a single path.

    ``forest`` is a PathFamily or an edge set; an edge set goes through
    PathFamily.from_edges. Runs one reduction round at k = 1 with connector
    cap d = ceil(6/alpha), which splices path ends only and so keeps every
    forest edge. If several paths survive it, all but the largest are
    dissolved and their forest edges reported as lost; the covering loop
    leaves them uncovered for its next forest. Raises FamilyError if the
    edges are not a linear forest, and ValueError unless alpha is a finite
    number > 0 (check_alpha).
    """
    check_alpha(alpha)
    family = forest if isinstance(forest, PathFamily) else PathFamily.from_edges(forest)
    if not family.paths:
        raise ValueError("the forest must be non-empty")
    out = MergeOutcome(path=(), lost_matching=frozenset())
    paths = family.paths
    if len(paths) > 1:
        budget = ExtensionBudget(d=max(1, math.ceil(6.0 / alpha)), k=1)
        paths = reduce_family(G, family, budget).paths
        out.budgets.append(budget)
        out.rounds = 1
    size = max(map(len, paths))
    keep = min(p for p in paths if len(p) == size)  # the smallest longest path
    out.dissolved = len(paths) - 1
    out.path = keep
    # the round trims nothing, so only the dissolved paths lose forest edges
    if out.dissolved:
        out.lost_matching = (frozenset().union(*map(path_edges, family.paths))
                             - path_edges(keep))
    return out
