import random
from collections import deque
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcover import families
from hamcover.families import (
    BudgetError,
    ExtensionBudget,
    FamilyError,
    PathFamily,
    _canonical,
    merge_into_single_path,
    reduce_family,
)
from hamcover.gnp import RngSeed, expander_params_for_gnp, sample_gnp
from hamcover.graph import (
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edge_key,
    is_connected,
    mask_of,
    path_edges,
)
from hamcover.oracle import validate_family
from hamcover import cover
from hamcover.cover import greedy_maximal_matching


def test_family_rejects_overlap_and_trivial():
    with pytest.raises(FamilyError):
        PathFamily([(0, 1, 2), (2, 3)])
    with pytest.raises(FamilyError):
        PathFamily([(0,)])


@dataclass
class _SetCheckedFamily:
    """PathFamily as it was when it checked paths on vertex sets; the
    __post_init__ body is verbatim."""

    paths: list[tuple[int, ...]]

    def __post_init__(self) -> None:
        self.paths = sorted(_canonical(p) for p in self.paths)
        seen: set[int] = set()
        for p in self.paths:
            if len(p) < 2:
                raise FamilyError(f"trivial path {p}")
            vs = set(p)
            if len(vs) != len(p):
                raise FamilyError(f"repeated vertex in {p}")
            if vs & seen:
                raise FamilyError(f"path {p} shares vertices with the family")
            seen |= vs


def _family_or_error(cls, paths):
    try:
        return cls([tuple(p) for p in paths]).paths
    except Exception as exc:  # the type and message must agree too
        return type(exc), str(exc)


def test_mask_checked_family_matches_set_checked_reference():
    rnd = random.Random(6161)
    # accepted, and FamilyError by the first word of its message
    outcomes = {"ok": 0, "trivial": 0, "repeated": 0, "path": 0}
    for trial in range(3000):
        top = rnd.choice((4, 12, 40, 130))
        paths = []
        for _ in range(rnd.randint(0, 6)):
            length = rnd.choice((0, 1, 2, 2, 3, 5, 9))
            if length and rnd.random() < 0.3:
                # a repeated vertex
                path = [rnd.randrange(top) for _ in range(length)]
            else:
                path = rnd.sample(range(top), min(length, top))
            paths.append(path)
        if trial % 2:
            # disjoint by construction, so most of these are accepted
            pool = rnd.sample(range(top), top)
            paths = [pool[i:i + 2 + i % 4] for i in range(0, rnd.randint(0, top), 5)]
        got = _family_or_error(PathFamily, paths)
        assert got == _family_or_error(_SetCheckedFamily, paths), paths
        if isinstance(got, list):
            outcomes["ok"] += 1
        elif got[0] is FamilyError:
            outcomes[got[1].split()[0]] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_from_edges_matching_gives_its_edges():
    M = {(3, 2), (0, 5), (1, 4), (7, 9)}
    assert PathFamily.from_edges(M).paths == sorted(edge_key(*e) for e in M)


def test_from_edges_multi_edge_paths():
    fam = PathFamily.from_edges({(4, 2), (2, 7), (7, 0), (5, 6), (9, 1), (1, 3)})
    assert fam.paths == [(0, 7, 2, 4), (3, 1, 9), (5, 6)]


def test_from_edges_canonicalises_reversed_and_duplicated_edges():
    fam = PathFamily.from_edges([(1, 0), (0, 1), (1, 2), (2, 1), (5, 4)])
    assert fam.paths == [(0, 1, 2), (4, 5)]


def test_numpy_integer_vertices_enter_as_python_ints():
    # above 63 a numpy vertex's bitmask overflows, which read as a repeated
    # vertex; the vertices are converted where they enter
    cases = [(PathFamily([np.array([3, 70, 5])]), [(3, 70, 5)]),
             (PathFamily([(np.int32(64), 2), [1, np.int64(99)]]), [(1, 99), (2, 64)]),
             (PathFamily.from_edges([(np.int64(3), np.int64(70))]), [(3, 70)]),
             (PathFamily.from_edges(np.array([[5, 70], [70, 64], [1, 0]])), [(0, 1), (5, 70, 64)])]
    for fam, paths in cases:
        assert fam == PathFamily(paths) and fam.paths == paths
        assert all(type(v) is int for p in fam.paths for v in p)
        assert fam.mask == mask_of(v for p in paths for v in p)
    with pytest.raises(FamilyError, match="repeated vertex"):
        PathFamily([np.array([70, 3, 70])])
    with pytest.raises(FamilyError, match="shares vertices"):
        PathFamily([np.array([3, 70]), (70, 5)])


def test_from_edges_empty():
    assert PathFamily.from_edges([]).paths == []


def test_from_edges_rejects_claw_and_triangle():
    with pytest.raises(FamilyError):
        PathFamily.from_edges({(0, 1), (0, 2), (0, 3)})
    with pytest.raises(FamilyError):
        PathFamily.from_edges({(0, 1), (1, 2), (0, 2)})
    # a cycle next to a path is rejected too
    with pytest.raises(FamilyError):
        PathFamily.from_edges({(0, 1), (1, 2), (0, 2), (5, 6)})


def test_rule_one_deletes_short_path():
    fam = PathFamily([(0, 1)])
    budget = ExtensionBudget(d=1, k=2)
    out = reduce_family(build_graph(2, [(0, 1)]), fam, budget)
    assert out.paths == []
    assert budget.mu == 1 and budget.lost == 1 and budget.gained == 0
    assert budget.lost <= 2 * (budget.k - 1) * budget.mu


def test_direct_edge_merge_in_k6():
    fam = PathFamily([(0, 1), (2, 3)])
    budget = ExtensionBudget(d=1, k=1)
    out = reduce_family(complete_graph(6), fam, budget)
    assert len(out.paths) == 1
    p = out.paths[0]
    assert {(0, 1), (2, 3)} <= path_edges(p)
    assert budget.mu == 1 and budget.gained == 1
    assert budget.gained <= (budget.d + 2) * budget.mu


def test_merge_through_outside_connector():
    # two edges whose ends only connect through vertex 4
    G = build_graph(5, [(0, 1), (2, 3), (1, 4), (4, 2)])
    fam = PathFamily([(0, 1), (2, 3)])
    budget = ExtensionBudget(d=2, k=1)
    out = reduce_family(G, fam, budget)
    assert len(out.paths) == 1
    assert out.paths[0] == (0, 1, 4, 2, 3)
    assert budget.gained == 2  # edges (1,4) and (4,2)


def test_no_connector_means_fixpoint():
    # spanning family leaves no outside vertices; connector merges impossible,
    # but a direct end-to-end edge still merges (cheapest valid move)
    C10 = cycle_graph(10)
    fam = PathFamily([(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)])
    budget = ExtensionBudget(d=2, k=1)
    out = reduce_family(C10, fam, budget)
    assert len(out.paths) == 1
    assert budget.gained == 1

    # with the joining edges removed the family really is stuck
    G = C10.remove_edges([(4, 5), (0, 9)])
    fam = PathFamily([(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)])
    budget = ExtensionBudget(d=2, k=1)
    out = reduce_family(G, fam, budget)
    assert sorted(out.paths) == [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]
    assert budget.mu == 0


def test_merge_into_single_path_k6():
    G = complete_graph(6)
    M = {(0, 1), (2, 3), (4, 5)}
    out = merge_into_single_path(G, M, alpha=0.5)
    assert out.lost_matching == frozenset()
    assert frozenset(M) <= path_edges(out.path)
    assert validate_family(G, [out.path]).ok


def test_merge_single_edge_is_identity():
    out = merge_into_single_path(complete_graph(4), {(1, 2)}, alpha=0.5)
    assert out.path == (1, 2)
    assert out.lost_matching == frozenset()


def test_merge_across_components_loses_one_edge():
    G = disjoint_union(complete_graph(4), complete_graph(4))
    out = merge_into_single_path(G, {(0, 1), (4, 5)}, alpha=0.5)
    assert len(out.lost_matching) == 1
    assert out.dissolved == 1
    # the one k = 1 round makes no move, and the other path is dissolved
    assert out.rounds == 1 and out.mu == 0


def test_merge_survives_even_length_survivor_with_straggler():
    # regression: the longest surviving path has an even edge count and a
    # disconnected matching edge can never join it; the merge must dissolve
    # the straggler and keep the survivor
    G = build_graph(7, [(0, 1), (2, 3), (1, 4), (4, 2), (5, 6)])
    out = merge_into_single_path(G, {(0, 1), (2, 3), (5, 6)}, alpha=0.5)
    assert set(out.path) == {0, 1, 2, 3, 4}
    assert len(out.path) == 5  # 4 edges: even survivor
    assert out.lost_matching == frozenset([(5, 6)])


def test_merge_rejects_non_forest():
    with pytest.raises(FamilyError):  # a claw
        merge_into_single_path(complete_graph(4), {(0, 1), (0, 2), (0, 3)}, alpha=0.5)
    with pytest.raises(FamilyError):  # a triangle
        merge_into_single_path(complete_graph(4), {(0, 1), (1, 2), (0, 2)}, alpha=0.5)
    # a two-edge path is a linear forest of one path: it merges to itself
    out = merge_into_single_path(complete_graph(4), {(1, 2), (0, 1)}, alpha=0.5)
    assert out.path == (0, 1, 2)
    assert out.lost_matching == frozenset() and out.rounds == 0 and out.mu == 0


def test_merge_preserves_matching_exactly():
    # matching edges in the path plus lost_matching account for all of M
    rnd = random.Random(31337)
    for trial in range(40):
        n = rnd.randint(8, 48)
        G = sample_gnp(n, rnd.choice([0.15, 0.3, 0.6]), RngSeed(3131, trial))
        M = greedy_maximal_matching(G)
        if not M:
            continue
        M = frozenset(list(sorted(M))[: rnd.randint(1, len(M))])
        out = merge_into_single_path(G, M, alpha=0.4)
        on_path = M & path_edges(out.path)
        assert on_path | out.lost_matching == M
        assert not (on_path & out.lost_matching)
        assert validate_family(G, [out.path]).ok


@st.composite
def family_instances(draw):
    n = draw(st.integers(min_value=6, max_value=32))
    stream = draw(st.integers(min_value=0, max_value=10 ** 6))
    p = draw(st.sampled_from([0.2, 0.4, 0.7]))
    d = draw(st.integers(min_value=0, max_value=4))
    k = draw(st.integers(min_value=1, max_value=4))
    return n, p, stream, d, k


@given(family_instances())
@settings(max_examples=80, deadline=None)
def test_budget_invariants_after_every_step(inst):
    n, p, stream, d, k = inst
    G = sample_gnp(n, p, RngSeed(90, stream))
    M = greedy_maximal_matching(G)
    if not M:
        return
    fam = PathFamily(list(M))
    budget = ExtensionBudget(d=d, k=k)
    # reduce_family asserts the two inequalities after every move; a
    # BudgetError here is an implementation bug
    out = reduce_family(G, fam, budget)
    assert budget.lost <= 2 * (budget.k - 1) * budget.mu
    assert budget.gained <= (budget.d + 2) * budget.mu
    assert len(out.paths) <= len(fam.paths)
    assert validate_family(G, out.paths).ok or not out.paths


def test_family_size_never_increases_and_composition_bounds():
    # chaining reductions with the same (d, k) keeps the combined totals
    # within the same per-step bounds (the extension relation is transitive)
    rnd = random.Random(8)
    for trial in range(25):
        G = sample_gnp(24, 0.35, RngSeed(140, trial))
        M = greedy_maximal_matching(G)
        if len(M) < 2:
            continue
        fam = PathFamily(list(M))
        total_mu = total_lost = total_gained = 0
        sizes = [len(fam.paths)]
        for step in range(3):
            budget = ExtensionBudget(d=3, k=2)
            fam = reduce_family(G, fam, budget)
            total_mu += budget.mu
            total_lost += budget.lost
            total_gained += budget.gained
            sizes.append(len(fam.paths))
        assert sizes == sorted(sizes, reverse=True)
        assert total_lost <= 2 * (2 - 1) * total_mu
        assert total_gained <= (3 + 2) * total_mu


def test_budget_error_raises_on_cooked_books():
    budget = ExtensionBudget(d=1, k=1, mu=1, lost=5, gained=0)
    with pytest.raises(BudgetError):
        budget.check()


# The eager move search as it was before paths cached their end candidates
# and the family mask was carried across moves: every move recomputes all
# end candidates, end masks and the family mask. The join must make exactly
# its moves at k = 1, where the end candidates are a path's two ends.

def _ref_end_candidates(path, k):
    L = len(path) - 1
    cands = {}
    for i, v in enumerate(path):
        cost = min(i, L - i)
        if cost <= k - 1:
            cands[v] = cost
    return sorted(cands, key=lambda v: (cands[v], v))


def _ref_find_connector(G, x, y, family_mask, d):
    outside = ~family_mask
    sources = G.adjacency_bits(x) & outside & G.full_mask()
    targets = G.adjacency_bits(y) & outside & G.full_mask()
    if not sources or not targets:
        return None
    parent = {}
    queue = deque()
    for a in sorted(v for v in range(G.n) if sources >> v & 1):
        parent[a] = None
        if targets >> a & 1:
            return [a]
        queue.append((a, 0))
    while queue:
        v, dist = queue.popleft()
        if dist >= d:
            continue
        for w in G.neighbors(v):
            if w in parent or not (outside >> w & 1):
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


def _ends_first(path, x):
    """``path`` oriented to end at its end x."""
    return path if path[-1] == x else path[::-1]


def _ref_find_merge(G, paths, k, d):
    ends = [_ref_end_candidates(p, k) for p in paths]
    end_masks = [mask_of(e) for e in ends]
    fam_mask = 0
    for p in paths:
        fam_mask |= mask_of(p)
    for i in range(len(paths)):
        for j in range(len(paths)):
            if i == j:
                continue
            for x in ends[i]:
                hit = G.adjacency_bits(x) & end_masks[j]
                if not hit:
                    continue
                y = min(v for v in ends[j] if hit >> v & 1)
                return i, j, _ends_first(paths[i], x), _ends_first(paths[j], y)[::-1], [], 1
    for i in range(len(paths)):
        for j in range(len(paths)):
            if i == j:
                continue
            for x in ends[i]:
                for y in ends[j]:
                    interior = _ref_find_connector(G, x, y, fam_mask, d)
                    if interior is not None:
                        return (i, j, _ends_first(paths[i], x), _ends_first(paths[j], y)[::-1],
                                interior, len(interior) + 1)
    return None


def _ref_reduce_family(G, family, budget):
    assert budget.k == 1
    d = budget.d
    paths = list(family.paths)
    while len(paths) >= 2:
        found = _ref_find_merge(G, paths, 1, d)
        if found is None:
            break
        i, j, kept_i, kept_j, interior, gained = found
        merged = _canonical(kept_i + tuple(interior) + kept_j)
        budget.mu += 1
        budget.gained += gained
        budget.check()
        paths = sorted([p for idx, p in enumerate(paths) if idx not in (i, j)] + [merged])
    return PathFamily(paths)


def _merge_summary(out):
    return (out.path, out.lost_matching, out.rounds, out.dissolved,
            [(b.k, b.mu, b.lost, b.gained) for b in out.budgets])


def test_merge_matches_eager_reference(monkeypatch):
    rnd = random.Random(4004)
    forest_rnd = random.Random(4005)
    merges = connectors = 0
    real_find_join = families._find_join
    joins = []  # the moves of the current k = 1 round

    def find_join_spy(*args):
        found = real_find_join(*args)
        if found is not None:
            joins.append(found)
        return found

    monkeypatch.setattr(families, "_find_join", find_join_spy)
    for trial in range(120):
        n = rnd.randint(6, 96)
        p = rnd.choice([0.1, 0.25, 0.5, 0.8])
        alpha = rnd.choice([0.2, 0.4, 0.8])
        G = sample_gnp(n, p, RngSeed(4004, trial))
        M = greedy_maximal_matching(G)
        if not M:
            continue
        if trial % 3 == 0:
            M = frozenset(sorted(M)[: rnd.randint(1, len(M))])
        merges += 1
        got = merge_into_single_path(G, M, alpha)
        with monkeypatch.context() as mp:
            mp.setattr(families, "reduce_family", _ref_reduce_family)
            want = merge_into_single_path(G, M, alpha)
        assert _merge_summary(got) == _merge_summary(want), (n, p, alpha, trial)

        # single rounds at a fixed d, from the matching and from the path
        # the merge left
        d = rnd.randint(0, 4)
        for fam in (PathFamily(list(M)), PathFamily([got.path])):
            budgets = ExtensionBudget(d=d, k=1), ExtensionBudget(d=d, k=1)
            got_fam = reduce_family(G, fam, budgets[0])
            want_fam = _ref_reduce_family(G, fam, budgets[1])
            assert got_fam.paths == want_fam.paths
            assert budgets[0] == budgets[1]

        # single k = 1 rounds from linear forests, as the locked-edge join of
        # find_hamilton_cycle runs them, with connectors up to d = n
        forest = _walk_paths(G, forest_rnd, forest_rnd.randint(1, 8))
        for d in (0, 1, 2, n):
            budgets = ExtensionBudget(d=d, k=1), ExtensionBudget(d=d, k=1)
            joins.clear()
            got_fam = reduce_family(G, forest, budgets[0])
            connectors += sum(bool(interior) for _, _, interior in joins)
            want_fam = _ref_reduce_family(G, forest, budgets[1])
            assert got_fam.paths == want_fam.paths, (n, p, d, trial)
            assert budgets[0] == budgets[1], (n, p, d, trial)
    assert merges >= 100
    assert connectors >= 50, connectors


def test_merge_of_a_family_equals_merge_of_its_edges(monkeypatch):
    # every forest the cover loop merges over the sparse corpus of
    # test_cover.py, which holds dissolving merges
    seen = []
    real_merge = cover.merge_into_single_path

    def record(G, forest, alpha):
        seen.append((G, forest, alpha))
        return real_merge(G, forest, alpha)

    monkeypatch.setattr(cover, "merge_into_single_path", record)
    # and streams 40..47 of the same samples, so that at least 1000 forests
    # are merged
    for n, p, base in ((64, 0.15, 5), (48, 0.2, 11), (96, 0.1, 12)):
        alpha = expander_params_for_gnp(n, p).alpha
        for s in range(48):
            G = sample_gnp(n, p, RngSeed(base, s))
            if is_connected(G) and G.min_degree() >= 2:
                cover.cover_graph(G, alpha)
    merges = dissolving = 0
    for G, forest, alpha in seen:
        if not isinstance(forest, PathFamily):
            continue  # a fallback matching
        merges += 1
        edges = frozenset().union(*map(path_edges, forest.paths))
        got = merge_into_single_path(G, forest, alpha)
        want = merge_into_single_path(G, edges, alpha)
        assert _merge_summary(got) == _merge_summary(want)
        assert got.mu == want.mu and got.budgets == want.budgets
        assert got.lost_matching == edges - path_edges(got.path)
        dissolving += got.dissolved > 0
    assert merges >= 1000 and dissolving >= 10, (merges, dissolving)


def _walk_paths(G, rnd, max_edges):
    """Vertex-disjoint paths of G from random self-avoiding walks of up to
    ``max_edges`` edges, over a random subset of the vertices."""
    used = 0
    paths = []
    starts = list(range(G.n))
    rnd.shuffle(starts)
    for v in starts[: G.n * 2 // 3]:
        if used >> v & 1:
            continue
        walk = [v]
        used |= 1 << v
        while len(walk) <= max_edges:
            free = [w for w in G.neighbors(walk[-1]) if not (used >> w & 1)]
            if not free:
                break
            walk.append(rnd.choice(free))
            used |= 1 << walk[-1]
        if len(walk) >= 2:
            paths.append(walk)
    return PathFamily(paths)


def _splice(paths, x, y, interior):
    """``paths`` with the path ending at x joined through ``interior`` to the
    path ending at y, as a k = 1 move does it."""
    (pi,) = [p for p in paths if x in (p[0], p[-1])]
    (pj,) = [p for p in paths if y in (p[0], p[-1])]
    kept_i = pi if pi[-1] == x else pi[::-1]
    kept_j = pj if pj[0] == y else pj[::-1]
    rest = [p for p in paths if p not in (pi, pj)]
    return sorted(rest + [_canonical(kept_i + tuple(interior) + kept_j)])


def test_carried_masks_and_ends_match_fresh_state(monkeypatch):
    # every join sees the family mask and end state that a from-scratch
    # computation over the current paths would give: the other-end map, the
    # sorted smaller ends and the ends mask; its moves and connectors are
    # counted
    real_reduce, real_join = families.reduce_family, families._find_join
    ctx = {}
    seen = {"families": 0, "moves": 0, "connectors": 0}

    def reduce_spy(G, family, budget):
        ctx["paths"] = list(family.paths)
        seen["families"] += 1
        out = real_reduce(G, family, budget)
        # the join builds its paths from its links; replayed splices must
        # give the same paths
        assert out.paths == ctx["paths"]
        return out

    def join_spy(G, heads, other, ends_mask, family_mask, d):
        paths = ctx["paths"]
        want_other = {}
        for p in paths:
            want_other[p[0]], want_other[p[-1]] = p[-1], p[0]
        assert heads == [p[0] for p in paths]
        assert other == want_other
        assert ends_mask == mask_of(want_other)
        assert family_mask == mask_of(v for p in paths for v in p)
        found = real_join(G, heads, other, ends_mask, family_mask, d)
        if found is not None:
            x, y, interior = found
            ctx["paths"] = _splice(paths, x, y, interior)
            seen["moves"] += 1
            seen["connectors"] += bool(interior)
        return found

    monkeypatch.setattr(families, "reduce_family", reduce_spy)
    monkeypatch.setattr(families, "_find_join", join_spy)
    rnd = random.Random(5005)
    for trial in range(60):
        n = rnd.randint(8, 64)
        G = sample_gnp(n, rnd.choice([0.1, 0.25, 0.5]), RngSeed(5005, trial))
        M = greedy_maximal_matching(G)
        if not M:
            continue
        merge_into_single_path(G, M, rnd.choice([0.2, 0.4, 0.8]))
        # single rounds on longer paths, and rounds with connectors of up to
        # d outside edges from part of the matching, which leaves vertices
        # outside the family
        walks = _walk_paths(G, rnd, 4 * (2 + trial % 3))
        part = frozenset(sorted(M)[: max(1, len(M) // 3)])
        for fam, d in ((walks, 0), (walks, 1 + trial % 3),
                       (PathFamily(list(part)), 1 + trial % 3)):
            families.reduce_family(G, fam, ExtensionBudget(d=d, k=1))
    assert seen["families"] >= 100
    assert seen["moves"] >= 1000 and seen["connectors"] >= 50, seen
