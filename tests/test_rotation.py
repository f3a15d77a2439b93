import dataclasses
import math
import random
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcover.families import ExtensionBudget, FamilyError, PathFamily, reduce_family
from hamcover.gnp import RngSeed, sample_gnp
from hamcover.graph import (
    Graph,
    build_graph,
    complete_graph,
    cycle_edges,
    cycle_graph,
    disjoint_union,
    edge_key,
    is_hamilton_cycle,
    is_path,
    mask_of,
    path_edges,
    path_graph,
    petersen_graph,
)
from hamcover.oracle import held_karp_hamiltonian
from hamcover.rotation import (
    SEARCH_NODE_CAP,
    Chord,
    ExtendAt,
    HamiltonResult,
    RotationConstraints,
    RotationError,
    Stuck,
    _greedy_extend,
    _rotated,
    _start_vertex,
    find_hamilton_cycle,
    rotate_until_extendable,
)


def _refuses_to_break_1_2(locked):
    with pytest.raises(RotationError, match="locked"):
        RotationConstraints(locked=locked).record((1, 2))


def test_constraints_canonicalise_and_refuse_locked_breaks():
    _refuses_to_break_1_2({(1, 2)})
    # an absorption may no more drop a locked edge than a rotation break it
    cons = RotationConstraints(locked={(0, 1)})
    with pytest.raises(RotationError, match=r"attempt to drop locked edge \(0, 1\)"):
        cons.record_absorption((0, 1))
    assert cons.absorptions == 0
    # a reversed, repeated locked edge with no soft set is the same edge
    _refuses_to_break_1_2([(2, 1), [1, 2], (2, 1)])
    # the constraints canonicalise their edges as edge_key does: edges
    # reversed, repeated, given as lists, locked with no soft set, in lists,
    # sets and frozensets
    rnd = random.Random(64)
    for trial in range(200):
        edges = [tuple(rnd.sample(range(12), 2)) for _ in range(rnd.randint(0, 10))]
        edges += rnd.sample(edges, len(edges) // 2)
        edges += [(v, u) for u, v in rnd.sample(edges, len(edges) // 3)]
        locked = rnd.sample(edges, rnd.randint(0, len(edges)))
        soft = rnd.sample(edges, rnd.randint(0, len(edges))) if trial % 4 else []
        if trial % 3 == 0:
            locked, soft = set(locked), frozenset(soft)
        elif trial % 3 == 1:
            locked = [list(e) for e in locked]
        cons = RotationConstraints(locked=locked, soft=soft)
        want_locked = frozenset(edge_key(*e) for e in locked)
        assert type(cons.locked) is frozenset and cons.locked == want_locked
        assert type(cons.soft) is frozenset
        assert cons.soft == frozenset(edge_key(*e) for e in soft) | want_locked
    # a one-shot iterator is read once, and canonicalised the same way
    cons = RotationConstraints(locked=iter([(2, 1), (2, 1)]), soft=iter([(4, 3), (1, 2)]))
    assert cons.locked == {(1, 2)} and cons.soft == {(1, 2), (3, 4)}
    _refuses_to_break_1_2(iter([(2, 1)]))
    # numpy-int vertices, reversed in a frozenset or already (min, max)
    pairs = [tuple(e) for e in np.array([[2, 1], [4, 3], [1, 2]])]
    cons = RotationConstraints(locked=pairs[:1], soft=frozenset(pairs))
    assert cons.locked == {(1, 2)} and cons.soft == {(1, 2), (3, 4)}
    for locked in (pairs[:1], frozenset(pairs[2:])):
        _refuses_to_break_1_2(locked)
    # a frozenset of (min, max) pairs is kept as it is, not rebuilt
    soft = frozenset({(1, 2), (3, 4)})
    assert RotationConstraints(soft=soft).soft is soft


# The two-level search as it was when every rotation built its path
# eagerly, and the generator scan of one path's rotations that it ran on
# (the library's _rotation_moves before the rotation walk replaced it),
# verbatim apart from the _ref suffix on the names they define.

def _rotation_moves_ref(G, path: list[int], seen: set[int],
                        constraints: RotationConstraints,
                        positions: list[int] | None = None, path_mask: int = -1):
    """(position, pivot, broken edge) of each rotation of ``path`` that breaks
    no locked edge and whose new endpoint is not in ``seen``: clean ones in
    ascending pivot order, then soft ones in ascending pivot order.

    Pivots are the endpoint's neighbours in ``path_mask`` (by default all
    of them). Each is looked up in ``positions`` (vertex -> position in
    ``path``) when it is given, and else by a scan of ``path``. A caller
    that passes ``positions`` passes the path's vertex mask too, so an
    entry for an off-path vertex is never read.

    Soft moves are held back while the clean ones are yielded. Distinct
    pivots give distinct new endpoints, so the endpoints a consumer adds
    to ``seen`` meanwhile never rule a held-back move out.
    """
    q = len(path)
    deferred = []
    # consumers usually stop within a few pivots, so without a position map
    # one scan of the path per pivot is cheaper than building one
    index = path.index if positions is None else positions.__getitem__
    nb = G.adjacency_bits(path[-1]) & path_mask
    while nb:
        low = nb & -nb
        nb ^= low
        w = low.bit_length() - 1
        try:
            i = index(w)
        except ValueError:
            continue
        if i > q - 3:
            continue
        nxt = path[i + 1]
        if nxt in seen:
            continue
        broken = edge_key(w, nxt)
        if broken in constraints.locked:
            continue
        if broken in constraints.soft:
            deferred.append((i, w, broken))
        else:
            yield i, w, broken
    yield from deferred


def _rotated_ref(path: list[int], i: int, broken,
                 constraints: RotationConstraints) -> list[int]:
    """The rotation of ``path`` around the pivot at position i: records the
    broken edge (path[i], path[i+1]) and reverses the suffix past i."""
    constraints.record(broken)
    return path[: i + 1] + path[i + 1 :][::-1]


def _rotation_bfs_ref(G, path0: list[int], constraints: RotationConstraints,
                      max_depth: float = math.inf):
    """Breadth-first walk of the rotation tree with fixed endpoint path0[0].

    Yields (path, pivots) once per distinct non-fixed endpoint, the seed
    path included, never breaking a locked edge. Within one expansion,
    rotations that keep soft edges intact come first. Explores to depth
    ``max_depth``; callers stop consuming when they have enough endpoints.
    Each rotated path is built, counted in ``constraints`` and yielded only
    when the consumer asks for it, so rotations past the point where the
    consumer stops are never made.
    """
    q = len(path0)
    yield path0, ()
    if q < 3 or max_depth <= 0:
        return
    seen = {path0[-1]}
    queue = deque([(path0, (), 0)])
    while queue:
        path, pivots, depth = queue.popleft()
        if depth >= max_depth:
            continue
        for i, w, broken in _rotation_moves_ref(G, path, seen, constraints):
            seen.add(path[i + 1])
            child = (_rotated_ref(path, i, broken, constraints), pivots + (w,))
            yield child
            queue.append((*child, depth + 1))


def _two_level_walk_ref(G: Graph, p0: list[int], constraints: RotationConstraints):
    """Yield (level, path) for every path of the two-level rotation search.

    Level one is the rotation BFS of ``p0`` with p0[0] fixed. Once it is
    exhausted, level two reverses each level-one path, fixing its new
    endpoint, and walks the rotations of the old fixed end; each unrotated
    path was already yielded at level one and is skipped. Every yielded
    path starts at the end its walk keeps fixed.
    """
    level_one = []
    for walked, _ in _rotation_bfs_ref(G, p0, constraints):
        level_one.append(walked)
        yield 1, walked
    for first in level_one:
        for walked, pivots in _rotation_bfs_ref(G, first[::-1], constraints):
            if pivots:
                yield 2, walked


def _external_neighbor(G: Graph, v: int, outside: int) -> int | None:
    hit = G.rows[v] & outside
    if hit:
        return (hit & -hit).bit_length() - 1
    return None


def rotate_until_extendable_ref(G: Graph, path: list[int] | tuple[int, ...],
                                constraints: RotationConstraints | None = None,
                                path_mask: int | None = None):
    """Two-level rotation search respecting locked edges.

    Rotates the seed path from one endpoint and then, for each resulting
    path, from the other. Returns ExtendAt for the first path found whose
    endpoint has a neighbor outside the (invariant) vertex set, else a
    Chord whose endpoints are adjacent, else Stuck. Locked edges of the
    seed survive into whichever path is returned. ``path_mask`` is the
    bitmask of the path's vertices, for callers that already keep it.
    """
    if constraints is None:
        constraints = RotationConstraints()
    p0 = list(path)
    if len(p0) < 2:
        raise RotationError("path must be non-trivial (at least 2 vertices)")
    if path_mask is None:
        path_mask = mask_of(p0)
    outside = G.full_mask() & ~path_mask

    ext = _external_neighbor(G, p0[-1], outside)
    if ext is not None:
        return ExtendAt(path=tuple(p0), endpoint=p0[-1], external=ext)
    ext = _external_neighbor(G, p0[0], outside)
    if ext is not None:
        return ExtendAt(path=tuple(p0[::-1]), endpoint=p0[0], external=ext)

    chord: Chord | None = None
    if G.has_edge(p0[0], p0[-1]):
        chord = Chord(path=tuple(p0), ends=(p0[0], p0[-1]))
        if not outside:
            return chord

    explored = 0
    sizes = {1: 0, 2: 0}  # paths walked per level
    for level, walked in _two_level_walk_ref(G, p0, constraints):
        explored += 1
        sizes[level] += 1
        e = walked[-1]
        ext = _external_neighbor(G, e, outside)
        if ext is not None:
            return ExtendAt(path=tuple(walked), endpoint=e, external=ext)
        if chord is None and G.has_edge(walked[0], e):
            chord = Chord(path=tuple(walked), ends=(walked[0], e))
            if not outside:
                return chord
        if explored >= SEARCH_NODE_CAP:
            return chord or Stuck(sizes[1], sizes[2], explored, "node budget exhausted")
    return chord or Stuck(sizes[1], sizes[2], explored, "no extension, no chord")


def _with_path(out, seed):
    """``out`` with the path it stands for: an ExtendAt with ``at`` set
    carries no path, and stands for the seed rotated around position at."""
    if isinstance(out, ExtendAt) and out.at is not None:
        assert out.path is None
        return dataclasses.replace(out, path=tuple(_rotated(list(seed), out.at)), at=None)
    return out


def _random_walk_path(G, rnd):
    """A self-avoiding walk from a random vertex, stepping to a random
    unvisited neighbour until there is none."""
    path = [rnd.randrange(G.n)]
    used = 1 << path[0]
    while True:
        free = [w for w in G.neighbors(path[-1]) if not used >> w & 1]
        if not free:
            return path
        path.append(rnd.choice(free))
        used |= 1 << path[-1]


def _bipartite_stuck_instance(rnd, a, b, p):
    """A random bipartite graph on A = 0..a-1 and B = a..a+b-1, b > a, with
    the path B A B ... A B through all of A: every endpoint lies in B, so
    the search never extends, and a chord closes only if the path's B
    ends are adjacent, which they never are."""
    B = list(range(a, a + b))
    rnd.shuffle(B)
    path = [B[0]]
    for u in range(a):
        path += [u, B[u + 1]]
    edges = path_edges(path) | {(u, v) for u in range(a) for v in range(a, a + b)
                                if rnd.random() < p}
    return build_graph(a + b, edges), path


def test_rotate_until_extendable_matches_eager_reference():
    rnd = random.Random(7171)
    kinds = {"ExtendAt": 0, "Chord": 0, "Stuck": 0}
    cap_hits = soft_breaks = 0
    cases = []
    for trial in range(240):
        n = rnd.randint(6, 40)
        G = sample_gnp(n, rnd.choice((0.1, 0.2, 0.35, 0.6)), RngSeed(7171, trial))
        cases.append((G, _random_walk_path(G, rnd)))
    # spanning paths: no outside vertex, so only chords and Stuck
    for trial in range(40):
        G = sample_gnp(rnd.randint(8, 30), 0.5, RngSeed(7172, trial))
        res = find_hamilton_cycle(G)
        if res.ok:
            cases.append((G, list(res.cycle)[rnd.randrange(2):]))
    # bipartite instances that exhaust both levels, and ones whose search
    # walks up to the node cap
    for trial in range(20):
        a = rnd.randint(2, 20)
        cases.append(_bipartite_stuck_instance(rnd, a, a + rnd.randint(1, 4),
                                               rnd.choice((0.2, 0.5, 1.0))))
    for trial in range(6):
        a = rnd.randint(84, 90)
        cases.append(_bipartite_stuck_instance(rnd, a, a + rnd.randint(1, 6),
                                               rnd.choice((0.2, 0.4))))
    for G, path in cases:
        if len(path) < 2:
            continue
        edges = sorted(path_edges(path))
        soft = frozenset(rnd.sample(edges, rnd.randint(0, len(edges))))
        locked = frozenset(rnd.sample(sorted(soft), rnd.randint(0, len(soft) // 2)))
        got_cons = RotationConstraints(locked=locked, soft=soft)
        want_cons = RotationConstraints(locked=locked, soft=soft)
        mask = mask_of(path) if rnd.random() < 0.5 else None
        got = rotate_until_extendable(G, list(path), got_cons, path_mask=mask)
        want = rotate_until_extendable_ref(G, list(path), want_cons, path_mask=mask)
        # dataclass equality compares the type and every field; the reference
        # builds every path, so compare _rotated(seed, at) where at is set
        assert _with_path(got, path) == want, (G, path, locked, soft)
        assert (got_cons.rotations, got_cons.soft_breaks, got_cons.absorptions) == \
            (want_cons.rotations, want_cons.soft_breaks, want_cons.absorptions)
        # bench/spans.py tells the outcomes apart by class name alone, and
        # reads a Stuck's message
        assert type(got).__name__ in kinds and type(got) is type(want)
        kinds[type(got).__name__] += 1
        cap_hits += isinstance(got, Stuck) and "node budget exhausted" in got.message
        soft_breaks += got_cons.soft_breaks
    assert sum(kinds.values()) >= 200
    assert min(kinds.values()) >= 20 and cap_hits >= 4 and soft_breaks > 0, \
        (kinds, cap_hits, soft_breaks)


def _search_cases(rnd, count):
    """(G, path) pairs in random G(n, p): self-avoiding walks continued at
    both ends until stuck, as find_hamilton_cycle hands its path over, so
    the search must rotate to extend or close it."""
    cases = []
    for trial in range(count):
        n = rnd.randint(6, 40)
        G = sample_gnp(n, rnd.choice((0.1, 0.2, 0.35, 0.6)), RngSeed(7181, trial))
        path = _random_walk_path(G, rnd)[::-1]
        used = mask_of(path)
        while free := [w for w in G.neighbors(path[-1]) if not used >> w & 1]:
            path.append(rnd.choice(free))
            used |= 1 << path[-1]
        if len(path) >= 2:
            cases.append((G, path))
    return cases


def test_extend_at_names_the_seed_rotated_once():
    rnd = random.Random(7181)
    placed = unplaced = 0
    for G, path in _search_cases(rnd, 300):
        cons = RotationConstraints(soft=rnd.sample(sorted(path_edges(path)), len(path) // 3))
        out = rotate_until_extendable(G, path, cons)
        if not isinstance(out, ExtendAt):
            continue
        if out.at is None:
            # found at level two or at depth 2 or more: never the seed rotated once
            unplaced += 1
            assert all(list(out.path) != _rotated(path, i) for i in range(len(path) - 2))
        else:
            # no copy of the path: it is the seed rotated around position at
            placed += 1
            assert out.path is None
            walked = _rotated(list(path), out.at)
            assert is_path(G, walked) and sorted(walked) == sorted(path)
            assert out.endpoint == walked[-1] == path[out.at + 1]
            assert G.has_edge(out.endpoint, out.external) and out.external not in path
    assert placed >= 50 and unplaced >= 10, (placed, unplaced)


def test_positions_do_not_change_the_search():
    # the seed's pivots are read from raw positions through the map (s, t),
    # raw[v] = s * (i - t), and the reversed seed's through the reflected
    # map; stale entries for off-path vertices must never be read: fill them
    # with values that stand for positions on the path, or that do not
    rnd = random.Random(7182)
    kinds = Counter()
    cases = _search_cases(rnd, 200)
    # bipartite instances that exhaust both levels, and ones whose search
    # walks up to the node cap
    for trial in range(12):
        a = rnd.randint(2, 20)
        cases.append(_bipartite_stuck_instance(rnd, a, a + rnd.randint(1, 4),
                                               rnd.choice((0.2, 0.5, 1.0))))
    for trial in range(3):
        a = rnd.randint(84, 90)
        cases.append(_bipartite_stuck_instance(rnd, a, a + rnd.randint(1, 6), 0.3))
    for G, path in cases:
        edges = sorted(path_edges(path))
        soft = frozenset(rnd.sample(edges, rnd.randint(0, len(edges))))
        locked = frozenset(rnd.sample(sorted(soft), rnd.randint(0, len(soft) // 2)))
        q = len(path)
        s, t = (1, 0) if rnd.random() < 0.25 else (rnd.choice((1, -1)), rnd.randint(-3 * q, 3 * q))
        raw = [s * (rnd.choice((0, q - 1, q + 5)) - t) for _ in range(G.n)]
        for i, v in enumerate(path):
            raw[v] = s * (i - t)
        mask = mask_of(path) if rnd.random() < 0.5 else None
        got_cons = RotationConstraints(locked=locked, soft=soft)
        want_cons = RotationConstraints(locked=locked, soft=soft)
        got = rotate_until_extendable(G, path, got_cons, path_mask=mask, positions=raw,
                                      position_map=(s, t))
        want = rotate_until_extendable(G, path, want_cons, path_mask=mask)
        # dataclass equality compares the type and every field, Stuck's
        # level sizes included
        assert got == want, (G, path, locked, soft, s, t)
        assert getattr(got, "at", None) == getattr(want, "at", None)
        assert (got_cons.rotations, got_cons.soft_breaks, got_cons.absorptions) == \
            (want_cons.rotations, want_cons.soft_breaks, want_cons.absorptions)
        kinds[type(got).__name__] += 1
        kinds["map", s, t == 0] += 1
        # a level-two path starts at a level-one path's end, never at the seed's head
        kinds["level two"] += (isinstance(got, Stuck) and got.level_two > 0
                               or isinstance(got, ExtendAt) and got.at is None
                               and got.path[0] != path[0])
        kinds["node cap"] += isinstance(got, Stuck) and "node budget exhausted" in got.message
    assert min(kinds[k] for k in ("ExtendAt", "Chord", "Stuck")) >= 5, kinds
    assert min(kinds["map", -1, False], kinds["map", 1, False], kinds["map", 1, True]) >= 30, kinds
    assert kinds["level two"] >= 20 and kinds["node cap"] >= 2, kinds


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=40), st.integers(0, 200))
def test_start_vertex_is_the_descending_degree_order_pick(degs, hint):
    order = sorted(range(len(degs)), key=lambda v: (-degs[v], v))
    assert _start_vertex(degs, hint) == order[hint % len(degs)]


def test_rotate_until_extendable_chord():
    out = rotate_until_extendable(cycle_graph(5), [0, 1, 2, 3, 4])
    assert isinstance(out, Chord)
    assert set(out.ends) == {0, 4}


def test_rotate_until_extendable_extend():
    out = rotate_until_extendable(complete_graph(4), [0, 1])
    assert isinstance(out, ExtendAt)
    assert out.endpoint == 1 and out.external in (2, 3)


def test_rotate_until_extendable_stuck_on_tree():
    out = rotate_until_extendable(path_graph(5), [0, 1, 2, 3, 4])
    assert isinstance(out, Stuck)


def test_rotate_until_extendable_pins_stuck_level_sizes():
    # K_{a,b} from the alternating path B A B ... A B over all of A: every
    # endpoint lies in B, whose neighbors all lie on the path, and no two B
    # vertices are adjacent, so neither level finds an extension or a chord.
    # Level one reaches the a unfixed B vertices of the path; level two
    # rotates each of them back, skipping each one's unrotated path.
    def stuck_on(a, b):
        G = build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])
        path = [a]
        for u in range(a):
            path += [u, a + u + 1]
        return rotate_until_extendable(G, path)

    assert stuck_on(10, 12) == Stuck(10, 90, 100, "no extension, no chord")
    assert stuck_on(80, 85) == Stuck(80, 5920, 6000, "node budget exhausted")


def test_rotate_until_extendable_extends_at_level_two():
    # the path 0-1-2-3-4 with chord (0, 2) and vertex 5 hanging off 1: end 4
    # has no rotation, so only rotating end 0 (with 4 fixed) reaches 1
    G = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 5)])
    out = rotate_until_extendable(G, [0, 1, 2, 3, 4])
    assert out == ExtendAt(path=(4, 3, 2, 0, 1), endpoint=1, external=5)


def test_rotate_until_extendable_rotates_around_a_chord():
    # C5 with the chord (4, 1) and the edge (2, 5): one rotation around the
    # chord makes 2 the endpoint, unless it would break the locked (1, 2)
    G = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 1), (2, 5)])
    path = [0, 1, 2, 3, 4]
    out = rotate_until_extendable(G, path)
    assert out == ExtendAt(path=None, endpoint=2, external=5, at=1)
    assert _rotated(path, out.at) == [0, 1, 4, 3, 2]
    cons = RotationConstraints(locked={(1, 2)})
    out = rotate_until_extendable(G, path, cons)
    assert out == ExtendAt(path=(3, 4, 0, 1, 2), endpoint=2, external=5)
    assert cons.soft_breaks == 0


def test_rotate_until_extendable_keeps_locked_edges():
    G = sample_gnp(16, 0.4, RngSeed(29, 0))
    res = find_hamilton_cycle(G)
    if not res.ok:
        pytest.skip("sample not solvable")
    path = list(res.cycle)[:-1]
    locked = frozenset([edge_key(path[3], path[4])])
    out = _with_path(rotate_until_extendable(G, path, RotationConstraints(locked=locked)), path)
    if isinstance(out, (Chord, ExtendAt)):
        assert locked <= path_edges(out.path)


def test_find_hamilton_complete_graph():
    res = find_hamilton_cycle(complete_graph(5))
    assert res.ok and is_hamilton_cycle(complete_graph(5), res.cycle)


def test_find_hamilton_petersen_fails():
    assert held_karp_hamiltonian(petersen_graph()).value is False
    res = find_hamilton_cycle(petersen_graph())
    assert not res.ok and res.failure


def test_find_hamilton_through_perfect_matching():
    K6 = complete_graph(6)
    F = frozenset([(0, 1), (2, 3), (4, 5)])
    res = find_hamilton_cycle(K6, RotationConstraints(locked=F, soft=F))
    assert res.ok
    assert F <= cycle_edges(res.cycle)


def test_find_hamilton_rejects_seed_missing_locked():
    K6 = complete_graph(6)
    res = find_hamilton_cycle(K6, RotationConstraints(locked={(0, 1)}),
                              seed_path=[2, 3, 4])
    assert not res.ok and "locked" in res.failure


def test_find_hamilton_names_every_locked_edge_the_seed_misses():
    K8 = complete_graph(8)
    # (2, 3) is on the seed; (6, 7) and (0, 5) are not, given in any orientation
    locked = {(7, 6), (2, 3), (5, 0)}
    res = find_hamilton_cycle(K8, RotationConstraints(locked=locked),
                              seed_path=[1, 2, 3, 4])
    assert not res.ok
    assert res.failure == "seed path misses locked edges [(0, 5), (6, 7)]"
    assert res.iterations == 0


def test_find_hamilton_impossible_required_shape():
    K6 = complete_graph(6)
    # three required edges through one vertex can never sit on one cycle
    res = find_hamilton_cycle(K6, RotationConstraints(locked={(0, 1), (0, 2), (0, 3)}))
    assert not res.ok


def test_locked_seed_failures_name_their_cause():
    K6 = complete_graph(6)
    for shape in ({(0, 1), (0, 2), (0, 3)}, {(0, 1), (1, 2), (0, 2)}):  # claw, triangle
        res = find_hamilton_cycle(K6, RotationConstraints(locked=shape))
        assert res.failure == "locked edges admit no spanning path through them"
    # no path joins the two halves, so the locked edges stay on two paths
    G = disjoint_union(complete_graph(4), complete_graph(4))
    res = find_hamilton_cycle(G, RotationConstraints(locked={(0, 1), (4, 5)}))
    assert res.failure == "could not chain locked edges into one path"
    res = find_hamilton_cycle(cycle_graph(5), RotationConstraints(locked={(0, 2)}))
    assert res.failure == "locked edges not in the graph: [(0, 2)]"
    # so is an edge with a vertex past n - 1 or below 0, not an IndexError
    # or a negative shift
    for locked, absent in (({(7, 9)}, "[(7, 9)]"), ({(-1, 3)}, "[(-1, 3)]"),
                           ({(0, 1), (5, 6)}, "[(5, 6)]")):
        res = find_hamilton_cycle(K6, RotationConstraints(locked=locked))
        assert res.failure == f"locked edges not in the graph: {absent}"


def test_find_hamilton_input_failures_name_their_cause():
    C5 = cycle_graph(5)
    res = find_hamilton_cycle(complete_graph(2))
    assert res.failure == "no Hamilton cycle on 2 < 3 vertices"
    for seed in ([0, 0], [0, 2]):  # a repeated vertex; a non-edge
        res = find_hamilton_cycle(C5, seed_path=seed)
        assert res.failure == "seed is not a path of this graph"
    for seed in ([0.0, 1.0, 2.0], [0, 1, 2.5], [0, 1, "2"]):  # not all integers
        res = find_hamilton_cycle(C5, seed_path=seed)
        assert res.failure == "seed is not a path of this graph"
    # the search closes one triangle, and no vertex outside it is adjacent
    res = find_hamilton_cycle(disjoint_union(complete_graph(3), complete_graph(3)))
    assert res.failure == "cycle spans a whole component; graph disconnected"
    assert not res.ok and res.path_len == 3


def test_numpy_integer_vertices_search_as_python_ints():
    # numpy integers in a seed path or in locked edges must not reach the
    # search's vertex masks, where they would overflow or lack bit_length
    for n in (40, 100):
        G = sample_gnp(n, 0.3, RngSeed(4243, n))
        cycle = find_hamilton_cycle(G).cycle
        locked = [(cycle[i], cycle[i + 1]) for i in (0, 1, 5, 20)]
        seed = list(cycle[: n // 2])
        want = [find_hamilton_cycle(G, RotationConstraints(locked=locked)),
                find_hamilton_cycle(G, RotationConstraints(locked=locked[:2]), seed_path=seed),
                find_hamilton_cycle(G, seed_path=seed[::-1])]
        assert all(res.ok for res in want), want
        for dt in (np.int32, np.int64):
            typed = [(dt(u), dt(v)) for u, v in locked]
            got = [find_hamilton_cycle(G, RotationConstraints(locked=typed)),
                   find_hamilton_cycle(G, RotationConstraints(locked=typed[:2]),
                                       seed_path=np.array(seed, dtype=dt)),
                   find_hamilton_cycle(G, seed_path=[dt(v) for v in seed[::-1]])]
            assert got == want
            assert all(type(v) is int for res in got for v in res.cycle)


def test_path_inputs_must_be_paths_with_the_given_end():
    C5 = cycle_graph(5)
    with pytest.raises(RotationError, match="non-trivial"):
        rotate_until_extendable(C5, [0])


def test_internal_failure_reports_search_state(monkeypatch):
    monkeypatch.setattr("hamcover.rotation.is_hamilton_cycle", lambda G, cyc: False)
    constraints = RotationConstraints()
    res = find_hamilton_cycle(complete_graph(6), constraints)
    assert res.failure == "internal: closed sequence is not a Hamilton cycle"
    assert res.path_len == 6
    assert res.iterations == 1
    assert res.rotations == constraints.rotations
    assert res.soft_breaks == constraints.soft_breaks


def _linear_forest(G, rnd, size):
    """At most ``size`` edges of G, taken first-fit in random order while
    every vertex stays on at most two of them and they close no cycle."""
    edges = sorted(G.edges())
    rnd.shuffle(edges)
    root = list(range(G.n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    deg = [0] * G.n
    forest = set()
    for u, v in edges:
        if len(forest) == size:
            break
        ru, rv = find(u), find(v)
        if deg[u] < 2 and deg[v] < 2 and ru != rv:
            root[ru] = rv
            deg[u] += 1
            deg[v] += 1
            forest.add(edge_key(u, v))
    return frozenset(forest)


# The segment builder find_hamilton_cycle used before PathFamily.from_edges,
# verbatim, as the reference from_edges must agree with.

def _required_segments(required):
    """Arrange required edges into vertex-disjoint path segments.

    Returns None when impossible (a vertex on 3+ required edges, or a cycle
    among them): no Hamilton cycle through all of them could exist then
    either, except as the full required cycle itself.
    """
    adj: dict[int, list[int]] = {}
    for u, v in required:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nb) > 2 for nb in adj.values()):
        return None
    segments = []
    visited: set[int] = set()
    for v in sorted(adj):
        if v in visited or len(adj[v]) == 2:
            continue
        seg = [v]
        visited.add(v)
        cur, prev = v, None
        while True:
            nxts = [w for w in adj[cur] if w != prev]
            if not nxts:
                break
            prev, cur = cur, nxts[0]
            seg.append(cur)
            visited.add(cur)
        segments.append(seg)
    if len(visited) != len(adj):
        return None  # leftover degree-2 vertices form a required cycle
    return segments


def test_from_edges_matches_the_segment_builder():
    rnd = random.Random(406)
    forests = raised = 0
    for trial in range(300):
        G = sample_gnp(rnd.randint(4, 24), rnd.choice([0.2, 0.4, 0.7]), RngSeed(73, trial))
        if not G.m:
            continue
        # linear forests, and edge sets that may hold a claw or a cycle
        for edges in (_linear_forest(G, rnd, rnd.randint(1, G.n)),
                      frozenset(rnd.sample(sorted(G.edges()), rnd.randint(1, min(G.m, 8))))):
            want = _required_segments(edges)
            if want is None:
                with pytest.raises(FamilyError):
                    PathFamily.from_edges(edges)
                raised += 1
            else:
                assert PathFamily.from_edges(edges) == PathFamily(want), edges
                forests += 1
    assert forests >= 300 and raised >= 50, (forests, raised)


def test_locked_edges_never_break_fuzz():
    rnd = random.Random(404)
    checked = 0
    for trial in range(60):
        G = sample_gnp(18, 0.4, RngSeed(71, trial))
        free = [v for v in range(18)]
        rnd.shuffle(free)
        locked = frozenset(
            edge_key(*e) for e in [(free[0], free[1]), (free[2], free[3])]
            if G.has_edge(*e))
        cons = RotationConstraints(locked=locked, soft=locked)
        res = find_hamilton_cycle(G, cons)
        assert res.iterations <= G.n
        if res.ok and locked:
            assert locked <= cycle_edges(res.cycle)
            checked += 1
        assert cons.soft_breaks <= cons.rotations + cons.absorptions
    assert checked > 10
    # linear forests, most with a path of two or more edges, so the seed
    # joins multi-edge paths
    rnd = random.Random(405)
    multi = forests = 0
    for trial in range(60):
        G = sample_gnp(20, 0.4, RngSeed(72, trial))
        locked = _linear_forest(G, rnd, rnd.randint(3, 9))
        cons = RotationConstraints(locked=locked, soft=locked)
        res = find_hamilton_cycle(G, cons)
        assert res.iterations <= G.n
        if res.ok:
            assert locked <= cycle_edges(res.cycle)
            forests += 1
            multi += 2 * len(locked) > len(set().union(*locked))
        assert cons.soft_breaks <= cons.rotations + cons.absorptions
    assert forests >= 50 and multi >= 40


def test_soft_break_accounting_bounds_lost_soft_edges():
    # every soft seed edge missing from the result was broken somewhere,
    # so the break counter bounds the loss
    rnd = random.Random(606)
    exercised = 0
    for trial in range(60):
        G = sample_gnp(20, 0.45, RngSeed(77, trial))
        res0 = find_hamilton_cycle(G)
        if not res0.ok:
            continue
        seed = list(res0.cycle)[:-1]
        edges = sorted(path_edges(seed))
        soft = frozenset(rnd.sample(edges, min(5, len(edges))))
        cons = RotationConstraints(soft=soft)
        res = find_hamilton_cycle(G, cons, seed_path=seed)
        if not res.ok:
            continue
        lost = soft - cycle_edges(res.cycle)
        assert len(lost) <= cons.soft_breaks
        assert cons.soft_breaks <= cons.rotations + cons.absorptions
        exercised += 1
    assert exercised > 30


def test_soundness_every_returned_cycle_validates():
    for trial in range(40):
        G = sample_gnp(24, 0.3, RngSeed(83, trial))
        res = find_hamilton_cycle(G)
        if res.ok:
            assert is_hamilton_cycle(G, res.cycle)


def test_never_fabricates_on_non_hamiltonian():
    # one-sided completeness: oracle says no implies engine says no
    count_no = 0
    for trial in range(120):
        G = sample_gnp(9, 0.25, RngSeed(97, trial))
        verdict = held_karp_hamiltonian(G)
        res = find_hamilton_cycle(G)
        if verdict.value is False:
            count_no += 1
            assert not res.ok
    assert count_no > 10


def test_structured_fixtures_against_oracle():
    from hamcover.graph import build_graph as bg

    def hypercube(dim):
        n = 1 << dim
        return bg(n, [(v, v ^ (1 << b)) for v in range(n) for b in range(dim)
                      if v < v ^ (1 << b)])

    def complete_bipartite(a, b):
        return bg(a + b, [(u, a + v) for u in range(a) for v in range(b)])

    fixtures = [hypercube(3), hypercube(4), complete_bipartite(7, 7),
                complete_bipartite(5, 6), complete_bipartite(8, 8)]
    for G in fixtures:
        verdict = held_karp_hamiltonian(G)
        res = find_hamilton_cycle(G)
        if res.ok:
            assert is_hamilton_cycle(G, res.cycle)
            assert verdict.value is True
        if verdict.value is False:
            assert not res.ok
    # balanced complete bipartite graphs meet the Dirac bound: must solve
    dirac = complete_bipartite(7, 7)
    assert find_hamilton_cycle(dirac).ok
    # unbalanced ones are never Hamiltonian: must refuse
    assert held_karp_hamiltonian(complete_bipartite(5, 6)).value is False
    assert not find_hamilton_cycle(complete_bipartite(5, 6)).ok


def test_succeeds_on_dirac_dense_graphs():
    # delta >= n/2 guarantees a Hamilton cycle; the engine must find it
    rnd = random.Random(11)
    for trial in range(25):
        n = rnd.randint(6, 14)
        while True:
            G = sample_gnp(n, 0.75, RngSeed(103, trial))
            if G.min_degree() >= n / 2:
                break
            trial += 1000
        res = find_hamilton_cycle(G)
        assert res.ok, f"engine failed a Dirac instance n={n}"
        assert res.iterations <= n


# The Hamilton search as it was when every pass copied its path and looked
# pivots up by scanning it, verbatim apart from the _ref suffix on the names
# it defines, its call of rotate_until_extendable_ref, and the lines marked
# "counted", which tally the branches it takes in _FIND_REF_HITS.

_FIND_REF_HITS: Counter = Counter()


def _one_rotation_of(path, new) -> bool:
    """Whether ``new`` is ``path`` rotated once around a pivot, path[0] fixed."""
    return any(list(new) == _rotated(list(path), i) for i in range(len(path) - 2))


def _greedy_extend_ref(G: Graph, path: list[int], used: int) -> int:
    """Extend a path in place at both ends, always stepping to the lowest
    new vertex. ``used`` is the mask of the path's vertices; returns the
    mask of the extended path.

    The tail is extended first until it is stuck, then the head: a stuck
    tail stays stuck, because the path only gains vertices.
    """
    bits = G.adjacency_bits
    free = bits(path[-1]) & ~used
    while free:
        v = (free & -free).bit_length() - 1
        path.append(v)
        used |= 1 << v
        free = bits(v) & ~used
    head = []
    free = bits(path[0]) & ~used
    while free:
        v = (free & -free).bit_length() - 1
        head.append(v)
        used |= 1 << v
        free = bits(v) & ~used
    path[:0] = head[::-1]
    return used


def test_greedy_extend_keeps_every_position_exact():
    # positions are written once per call, under the caller's map (s, t),
    # from the old tail on or from 0 after a head extension; stale entries
    # of off-path vertices must not leak into the path's positions
    rnd = random.Random(1077)
    grew = Counter()
    for trial in range(300):
        G = sample_gnp(rnd.randint(3, 60), rnd.choice((0.05, 0.1, 0.2, 0.5)), RngSeed(1077, trial))
        if rnd.random() < 0.5:
            path = [rnd.randrange(G.n)]
        else:
            path = _random_walk_path(G, rnd)
        # the identity, and maps like the ones reflections leave behind
        s, t = (1, 0) if trial % 4 == 0 else (rnd.choice((1, -1)), rnd.randint(-2 * G.n, 3 * G.n))
        raw = [rnd.randint(-5, 2 * G.n) for _ in range(G.n)]  # stale values
        for i, v in enumerate(path):
            raw[v] = s * (i - t)
        want = list(path)
        want_used = _greedy_extend_ref(G, want, mask_of(want))
        head, length = path[0], len(path)
        free = _greedy_extend(G, path, G.full_mask() & ~mask_of(path), raw, s, t)
        assert path == want and G.full_mask() ^ free == want_used == mask_of(path)
        assert all(t + s * raw[v] == i for i, v in enumerate(path)), (path, raw, s, t)
        grew["head" if path[0] != head else "tail" if len(path) > length else "none"] += 1
        grew["map", s, t == 0] += 1
    assert min(grew["head"], grew["tail"], grew["none"]) >= 20, grew
    assert min(grew["map", -1, False], grew["map", 1, False]) >= 50, grew


def _greedy_seed_ref(G: Graph, start_hint: int = 0) -> list[int]:
    # descending degree, ties in ascending vertex order (the sort is stable)
    order = sorted(range(G.n), key=G.degrees().__getitem__, reverse=True)
    path = [order[start_hint % G.n]]
    _greedy_extend_ref(G, path, 1 << path[0])
    return path


# the public absorption helper the search called before absorption became
# its own private step, argument checks included
def absorb_external_vertex_ref(G: Graph, cycle: list[int] | tuple[int, ...], w: int, a: int,
                               constraints: RotationConstraints | None = None) -> list[int]:
    """Open a cycle at ``w`` and append its outside neighbor ``a``.

    Removes one of the two cycle edges at w - never a locked one, a soft
    one only if both are soft (counted) - and returns a path with the same
    number of edges as the cycle, ending at a.
    """
    if constraints is None:
        constraints = RotationConstraints()
    cyc = list(cycle)
    q = len(cyc)
    if not 0 <= a < G.n:
        raise RotationError(f"vertex {a} is not a vertex of the graph")
    if a in cyc:
        raise RotationError(f"vertex {a} is on the cycle")
    try:
        i = cyc.index(w)
    except ValueError:
        raise RotationError(f"vertex {w} is not on the cycle") from None
    if not G.has_edge(a, w):
        raise RotationError(f"({a}, {w}) is not an edge")
    prev_e = edge_key(cyc[i - 1], w)
    next_e = edge_key(w, cyc[(i + 1) % q])
    options = [e for e in (prev_e, next_e) if e not in constraints.locked]
    if not options:
        _FIND_REF_HITS["absorb blocked"] += 1  # counted
        raise RotationError(f"both cycle edges at {w} are locked")
    clean = [e for e in options if e not in constraints.soft]
    drop = clean[0] if clean else options[0]
    _FIND_REF_HITS["absorb " + ("clean " if clean else "soft ")  # counted
                   + ("next" if drop == next_e else "previous")] += 1  # counted
    constraints.record_absorption(drop)
    if drop == next_e:
        opened = cyc[i + 1 :] + cyc[: i + 1]      # ends at w
    else:
        opened = (cyc[i:] + cyc[:i])[::-1]        # starts at prev, ends at w
    opened.append(a)
    return opened


def find_hamilton_cycle_ref(G: Graph, constraints: RotationConstraints | None = None,
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
    """
    if constraints is None:
        constraints = RotationConstraints()
    n = G.n
    if n < 3:
        return HamiltonResult(None, failure=f"no Hamilton cycle on {n} < 3 vertices")
    if G.min_degree() < 2:
        return HamiltonResult(None, failure="a vertex of degree < 2 rules out any Hamilton cycle")

    if seed_path is not None:
        _FIND_REF_HITS["seed path"] += 1  # counted
        path = list(seed_path)
        if len(path) < 2 or not is_path(G, path):
            return HamiltonResult(None, failure="seed is not a path of this graph")
        missing = sorted(constraints.locked - path_edges(path))
        if missing:
            return HamiltonResult(None, failure=f"seed path misses locked edges {missing}")
    elif constraints.locked:
        _FIND_REF_HITS["locked seed"] += 1  # counted
        absent = [e for e in sorted(constraints.locked) if not G.has_edge(*e)]
        if absent:
            return HamiltonResult(None, failure=f"locked edges not in the graph: {absent}")
        # a vertex on 3+ locked edges, or a locked cycle, rules out every
        # Hamilton cycle through them, bar the locked cycle itself
        try:
            family = PathFamily.from_edges(constraints.locked)
        except FamilyError:
            return HamiltonResult(None, failure="locked edges admit no spanning path through them")
        # at k = 1 a splice joins path ends only; budget.check() asserts that
        # it trims no locked edge
        family = reduce_family(G, family, ExtensionBudget(d=n, k=1))
        if len(family.paths) != 1:
            return HamiltonResult(None, failure="could not chain locked edges into one path")
        path = list(family.paths[0])
    else:
        _FIND_REF_HITS["start hint >= 1"] += start_hint % n != 0  # counted
        path = _greedy_seed_ref(G, start_hint)

    def failed(reason: str, path_len: int) -> HamiltonResult:
        return HamiltonResult(None, failure=reason, iterations=iterations,
                              rotations=constraints.rotations,
                              soft_breaks=constraints.soft_breaks, path_len=path_len)

    # the path's vertex set changes only on extension and absorption
    used = mask_of(path)
    for iterations in range(1, n + 1):
        first = path[0]  # counted
        used = _greedy_extend_ref(G, path, used)
        # the head is stuck after every pass but an absorption  # counted
        _FIND_REF_HITS["head growth after absorption"] += iterations > 1 and path[0] != first
        outcome = rotate_until_extendable_ref(G, path, constraints, path_mask=used)
        if isinstance(outcome, ExtendAt):
            _FIND_REF_HITS["rotated once" if _one_rotation_of(path, outcome.path)  # counted
                           else "other extension"] += 1  # counted
            path = list(outcome.path) + [outcome.external]
            used |= 1 << outcome.external
            continue
        if isinstance(outcome, Chord):
            cyc = list(outcome.path)
            if len(cyc) == n:
                if not is_hamilton_cycle(G, cyc):
                    return failed("internal: closed sequence is not a Hamilton cycle", n)
                return HamiltonResult(tuple(cyc), iterations=iterations,
                                      rotations=constraints.rotations,
                                      soft_breaks=constraints.soft_breaks,
                                      path_len=n)
            outside = G.full_mask() & ~used
            hook = None
            for w in sorted(cyc):
                a = _external_neighbor(G, w, outside)
                if a is not None:
                    hook = (w, a)
                    break
            if hook is None:
                return failed("cycle spans a whole component; graph disconnected", len(cyc))
            _FIND_REF_HITS["hook with 2+ outside neighbours"] += (  # counted
                G.rows[hook[0]] & outside).bit_count() > 1  # counted
            try:
                path = absorb_external_vertex_ref(G, cyc, hook[0], hook[1], constraints)
            except RotationError as exc:
                return failed(f"absorption blocked: {exc}", len(cyc))
            _FIND_REF_HITS["absorption"] += 1  # counted
            used |= 1 << hook[1]
            continue
        _FIND_REF_HITS["stuck"] += 1  # counted
        _FIND_REF_HITS["node cap"] += outcome.explored == SEARCH_NODE_CAP  # counted
        return failed(f"stuck: {outcome.message} "
                      f"(level sizes {outcome.level_one}/{outcome.level_two})", len(path))
    return failed("internal: path stopped growing", len(path))


def _absorbing_instance(rnd):
    """A graph and seed path whose search must absorb, and then grow the
    path at its head.

    The seed runs once around a cycle C of m vertices, closed by the chord
    between its ends. Rotations of that path only ever reach the vertices
    at positions 0-2 and m-3 to m-1, so the search finds the chord and no
    extension. Two outside paths of two vertices each hang off positions
    h and h - 1 and return to two other inner positions. The vertex at
    position h has the lowest label of those with outside neighbours, so
    the cycle opens there, and the opened path starts at position h - 1,
    whose own outside path the tail's greedy growth cannot reach.
    """
    m = rnd.randint(9, 16)
    h = rnd.randint(4, m - 5)
    r1, r2 = rnd.sample([i for i in range(3, m - 2) if i not in (h, h - 1)], 2)
    labels = list(range(m))
    rnd.shuffle(labels)
    low = min((h, h - 1, r1, r2), key=labels.__getitem__)
    labels[h], labels[low] = labels[low], labels[h]
    edges = set(cycle_edges(tuple(labels)))
    for port, back, t in ((h, r1, m), (h - 1, r2, m + 2)):
        edges |= {(labels[port], t), (t, t + 1), (labels[back], t + 1)}
    return build_graph(m + 4, edges), labels


def test_find_hamilton_cycle_matches_copying_reference():
    rnd = random.Random(8181)
    cases = []  # (G, locked, soft, seed_path, start_hint)
    # unconstrained searches from greedy starts, sparse ones absorbing,
    # getting stuck or finding the graph disconnected
    for trial in range(180):
        G = sample_gnp(rnd.randint(5, 45), rnd.choice((0.1, 0.15, 0.25, 0.4, 0.7)),
                       RngSeed(8181, trial))
        cases.append((G, (), (), None, rnd.choice((0, 0, 1, 2, 7))))
    # seed paths with soft and locked edges on them
    for trial in range(90):
        G = sample_gnp(rnd.randint(6, 40), rnd.choice((0.15, 0.3, 0.5)), RngSeed(8182, trial))
        path = _random_walk_path(G, rnd)
        edges = sorted(path_edges(path))
        soft = rnd.sample(edges, rnd.randint(0, len(edges)))
        locked = rnd.sample(soft, rnd.randint(0, len(soft) // 3))
        cases.append((G, locked, soft, path, 0))
    # locked linear forests joined into the seed
    for trial in range(50):
        G = sample_gnp(rnd.randint(8, 30), rnd.choice((0.3, 0.5)), RngSeed(8183, trial))
        locked = _linear_forest(G, rnd, rnd.randint(1, 6))
        cases.append((G, locked, locked, None, 0))
    # bipartite graphs with one side larger, which the search cannot close:
    # small ones exhaust both levels, large ones walk up to the node cap
    for trial in range(10):
        a = rnd.randint(3, 20)
        G, _ = _bipartite_stuck_instance(rnd, a, a + rnd.randint(1, 3), rnd.choice((0.3, 0.6)))
        cases.append((G, (), (), None, rnd.randrange(3)))
    for trial in range(3):
        a = rnd.randint(84, 90)
        G, path = _bipartite_stuck_instance(rnd, a, a + rnd.randint(1, 4), 0.3)
        cases.append((G, (), (), path, 0))
    for trial in range(12):
        G, path = _absorbing_instance(rnd)
        cases.append((G, (), (), path, 0))
    # soft and locked edges on the hook's two cycle edges: the opening
    # drops a clean edge, else a soft one (a counted break), and fails when
    # both are locked
    for trial in range(20):
        G, path = _absorbing_instance(rnd)
        i = path.index(min(v for v in path if G.degree(v) > 2))  # the hook
        prev_e, next_e = edge_key(path[i - 1], path[i]), edge_key(path[i], path[i + 1])
        locked, soft = [((), (prev_e,)), ((next_e,), ()), ((), (prev_e, next_e)),
                        ((prev_e,), (next_e,)), ((prev_e, next_e), ())][trial % 5]
        cases.append((G, locked, soft, path, 0))
    # an edge from the hook to the far vertex of the other outside path:
    # the search steps to the lower of the hook's two outside neighbours
    for trial in range(6):
        G, path = _absorbing_instance(rnd)
        w = min(v for v in path if G.degree(v) > 2)
        cases.append((build_graph(G.n, G.edge_set() | {(w, G.n - 1)}), (), (), path, 0))
    _FIND_REF_HITS.clear()
    outcomes = Counter()
    for G, locked, soft, seed, hint in cases:
        got_cons = RotationConstraints(locked=locked, soft=soft)
        want_cons = RotationConstraints(locked=locked, soft=soft)
        got = find_hamilton_cycle(G, got_cons, seed_path=seed, start_hint=hint)
        want = find_hamilton_cycle_ref(G, want_cons, seed_path=seed, start_hint=hint)
        # dataclass equality compares every HamiltonResult field
        assert got == want, (G, locked, soft, seed, hint)
        assert (got_cons.rotations, got_cons.soft_breaks, got_cons.absorptions) == \
            (want_cons.rotations, want_cons.soft_breaks, want_cons.absorptions)
        outcomes[got.ok] += 1
    assert len(cases) >= 300 and min(outcomes[True], outcomes[False]) >= 30, outcomes
    minimum = {"rotated once": 100, "other extension": 30, "absorption": 10,
               "head growth after absorption": 10, "stuck": 20, "node cap": 2,
               "seed path": 50, "locked seed": 30, "start hint >= 1": 50,
               "absorb clean previous": 10, "absorb clean next": 3, "absorb soft previous": 3,
               "absorb soft next": 3, "absorb blocked": 3, "hook with 2+ outside neighbours": 5}
    assert all(_FIND_REF_HITS[k] >= v for k, v in minimum.items()), sorted(_FIND_REF_HITS.items())


def test_search_hands_its_own_path_positions_and_mask_over(monkeypatch):
    # find_hamilton_cycle looks rotate_until_extendable up on the module on
    # every pass, so a wrapper set there sees every call and can check that
    # the kept path, vertex mask and positions agree each time
    import hamcover.rotation as rotation

    inner = rotation.rotate_until_extendable
    calls = Counter()
    after = {}  # the map the next pass must hand over, after a rotation in place

    def checked(G, path, constraints, path_mask, positions, position_map):
        s, t = position_map
        assert s in (1, -1)
        assert path_mask == mask_of(path)
        assert all(t + s * positions[v] == i for i, v in enumerate(path))
        if "map" in after:
            side, expected = after.pop("map")
            assert position_map == expected, (side, position_map, expected)
            calls[side] += 1
        out = inner(G, path, constraints, path_mask=path_mask, positions=positions,
                    position_map=position_map)
        calls[type(out).__name__, getattr(out, "at", None) is None] += 1
        calls["all"] += 1
        if isinstance(out, ExtendAt) and out.at is not None:
            # the shorter side of the rotation is rewritten: a suffix no
            # longer than the prefix under the same map, else the prefix
            # under the map reflected about the rotation
            q, at = len(path), out.at
            after["map"] = (("suffix", (s, t)) if q - at - 1 <= at + 1
                            else ("prefix", (-s, at + q - t)))
        return out

    def search(G, *args, **kwargs):
        # the bench reads one rotate_until_extendable call per search pass
        after.clear()
        before = calls["all"]
        res = find_hamilton_cycle(G, *args, **kwargs)
        assert calls["all"] - before == res.iterations, res
        return res

    monkeypatch.setattr(rotation, "rotate_until_extendable", checked)
    rnd = random.Random(9191)
    results = []
    for trial in range(40):
        G = sample_gnp(rnd.randint(40, 120), rnd.choice((0.15, 0.3, 0.6)), RngSeed(9191, trial))
        results.append(search(G, start_hint=trial % 3))
    for trial in range(40):
        G = sample_gnp(rnd.randint(10, 40), 0.3, RngSeed(9192, trial))
        locked = _linear_forest(G, rnd, G.n // 3)
        results.append(search(G, RotationConstraints(locked=locked, soft=locked)))
    for trial in range(10):
        G, path = _absorbing_instance(rnd)
        results.append(search(G, seed_path=path))
    # ExtendAt with at set, and with at None; Chords, spanning or absorbed
    assert calls["ExtendAt", False] >= 50 and calls["ExtendAt", True] >= 10, calls
    assert calls["Chord", True] >= 10, calls
    # passes that rewrote the suffix, and passes that rewrote the prefix
    assert calls["suffix"] >= 50 and calls["prefix"] >= 50, calls
    # searches that succeed, and ones that fail after some passes
    assert sum(r.ok for r in results) >= 20, results
    assert any(not r.ok and r.iterations for r in results), results
