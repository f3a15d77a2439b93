import dataclasses
import hashlib
import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from hamcover import cover as cover_mod
from hamcover.cover import (
    PackingResult,
    cover_graph,
    cover_matching,
    cover_matching_once,
    degree_first_forest,
    extract_packing,
    greedy_edge_coloring,
    greedy_maximal_matching,
    run_gnp_experiment,
    run_single_experiment,
)
from hamcover.families import PathFamily, merge_into_single_path
from hamcover.gnp import RngSeed, expander_params_for_gnp, sample_gnp
from hamcover.graph import (
    Graph,
    build_graph,
    canonical_cycle,
    complete_graph,
    cycle_graph,
    cycle_edges,
    is_connected,
    is_hamilton_cycle,
    path_edges,
    petersen_graph,
    vertex_ints,
)
from hamcover.oracle import held_karp_hamiltonian, validate_cover
from hamcover.rotation import find_hamilton_cycle


def test_coloring_triangle():
    classes = greedy_edge_coloring(cycle_graph(3))
    assert len(classes) == 3
    assert all(len(c) == 1 for c in classes)


def test_coloring_perfect_matching_single_class():
    G = build_graph(6, [(0, 1), (2, 3), (4, 5)])
    classes = greedy_edge_coloring(G)
    assert len(classes) == 1
    assert classes[0] == frozenset([(0, 1), (2, 3), (4, 5)])


def test_coloring_k4_within_bound():
    classes = greedy_edge_coloring(complete_graph(4))
    assert len(classes) <= 2 * 3 - 1
    _assert_proper(complete_graph(4), classes)


def _assert_proper(G, classes):
    union = set()
    for cls in classes:
        touched = set()
        for u, v in cls:
            assert G.has_edge(u, v)
            assert u not in touched and v not in touched
            touched.update((u, v))
        assert not (union & cls)
        union |= cls
    assert union == set(G.edges())


def test_coloring_random_graphs_proper_and_bounded():
    for trial in range(50):
        G = sample_gnp(random.Random(trial).randint(4, 40), 0.4, RngSeed(7000, trial))
        classes = greedy_edge_coloring(G)
        if G.m == 0:
            assert classes == []
            continue
        assert len(classes) <= 2 * G.max_degree() - 1
        _assert_proper(G, classes)


def test_extract_packing_k5_decomposes():
    # odd complete graphs decompose into (n-1)/2 Hamilton cycles
    packing = extract_packing(complete_graph(5), target=2)
    assert packing.achieved == 2
    assert packing.residual.m == 0
    edges = [e for c in packing.cycles for e in cycle_edges(c)]
    assert len(edges) == len(set(edges)) == 10


def test_extract_packing_c5_shortfall():
    packing = extract_packing(cycle_graph(5), target=2)
    assert packing.achieved == 1
    assert packing.residual.m == 0
    assert "degree" in packing.stopped


def test_extract_packing_zero_target():
    G = complete_graph(6)
    packing = extract_packing(G, target=0)
    assert packing.achieved == 0
    assert packing.residual == G


def test_packed_cycles_share_one_int_per_vertex():
    packing = extract_packing(sample_gnp(300, 0.3, RngSeed(1, 0)), 3)
    assert packing.achieved == 3
    # the search computes vertices above 256 as fresh ints; each returned
    # cycle is rebuilt from the shared table
    held = {id(v) for c in packing.cycles for v in c}
    assert held == {id(v) for v in vertex_ints(300)[:300]}


# The packing loop as it was when it rescanned the residual's minimum degree
# before every search, verbatim apart from the _ref suffix on its name, the
# unread target field that PackingResult no longer has, and the restarts
# from other start vertices after a failed search, which it no longer makes.

def extract_packing_ref(G: Graph, target: int) -> PackingResult:
    """Greedily extract up to ``target`` edge-disjoint Hamilton cycles.

    Each found cycle is removed before the next search. Stops at the
    target, when the residual minimum degree drops below 2, or at the
    first search failure. Shortfall is reported, not raised.
    """
    residual = G
    cycles: list[tuple[int, ...]] = []
    failures = 0
    stopped = "target reached"
    while len(cycles) < target:
        if residual.min_degree() < 2:
            stopped = "residual minimum degree below 2"
            break
        res = find_hamilton_cycle(residual)
        if res.ok:
            c = res.cycle
            cycles.append(c)
            residual = residual.remove_edges(zip(c, c[1:] + c[:1]))
        else:
            failures += 1
            stopped = f"search stalled: {res.failure}"
            break
    return PackingResult(cycles=cycles, residual=residual, stopped=stopped,
                         failures=failures)


def test_extract_packing_matches_rescanning_reference():
    rnd = random.Random(960)
    graphs = [(petersen_graph(), 1), (cycle_graph(5), 2), (complete_graph(7), 4),
              (complete_graph(5), 0)]
    # unbalanced complete bipartite graphs have no Hamilton cycle at all
    for a, b in ((2, 3), (3, 5), (4, 6)):
        graphs.append((build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)]), 1))
    for trial in range(60):
        G = sample_gnp(rnd.randint(6, 40), rnd.choice((0.2, 0.4, 0.7, 0.9)), RngSeed(960, trial))
        # at, or past, the degree bound; past it, the residual runs out of degree
        graphs.append((G, G.min_degree() // 2 + rnd.choice((0, 0, 1, 3))))
    reasons = Counter()
    for G, target in graphs:
        got = extract_packing(G, target)
        # dataclass equality compares cycles, residual, stopped and failures
        assert got == extract_packing_ref(G, target), (G, target)
        reasons[got.stopped.split(":")[0]] += 1
    assert reasons["target reached"] >= 10 and reasons["search stalled"] >= 3 and \
        reasons["residual minimum degree below 2"] >= 10, reasons


def test_packing_cycles_edge_disjoint_fuzz():
    for trial in range(15):
        G = sample_gnp(32, 0.5, RngSeed(950, trial))
        packing = extract_packing(G, target=G.min_degree() // 2)
        seen = set()
        for c in packing.cycles:
            es = cycle_edges(c)
            assert not (seen & es)
            assert is_hamilton_cycle(G, c)
            seen |= es
        # the packing removes each cycle by its vertex order; the residual
        # must be the one its edge set gives, edge count included
        residual = G.remove_edges(seen)
        assert packing.residual == residual
        assert packing.residual.m == residual.m == G.m - len(seen)


def test_cover_matching_once_k6():
    once = cover_matching_once(complete_graph(6), {(0, 1), (2, 3), (4, 5)}, alpha=0.5)
    assert once.cycle is not None
    assert once.uncovered == frozenset()


def test_cover_matching_once_empty_matching():
    # nothing to cover: no cycle and no failure, as cover_matching gives
    once = cover_matching_once(complete_graph(6), set(), alpha=0.5)
    assert once.cycle is None and once.failure is None and once.uncovered == frozenset()


def test_cover_matching_once_petersen_fails():
    assert held_karp_hamiltonian(petersen_graph()).value is False
    once = cover_matching_once(petersen_graph(), {(0, 1)}, alpha=0.3)
    assert once.cycle is None and once.failure


def test_cover_matching_k6():
    mc = cover_matching(complete_graph(6), {(0, 1), (2, 3), (4, 5)}, alpha=0.5)
    assert mc.ok and len(mc.cycles) >= 1
    covered = set()
    for c in mc.cycles:
        covered |= cycle_edges(c)
    assert {(0, 1), (2, 3), (4, 5)} <= covered


def test_cover_matching_empty():
    mc = cover_matching(complete_graph(6), set(), alpha=0.5)
    assert mc.ok and mc.cycles == []


def test_bad_matchings_are_failure_values():
    # a vertex past n - 1 or below 0 is an edge absent from the graph, as a
    # non-edge is, not an IndexError or a negative shift
    K6 = complete_graph(6)
    absent = "matching contains edges absent from the graph"
    shared = "input edge set is not a matching"
    for M, detail in (({(2, 9)}, absent), ({(7, 9)}, absent), ({(-1, 3)}, absent),
                      ({(0, 1), (6, 2)}, absent), ({(0, 1), (2, 1)}, shared),
                      ({(3, 3)}, shared), ({(0, 1), (1, 9)}, shared)):
        once = cover_matching_once(K6, M, alpha=0.5)
        assert (once.cycle, once.failure) == (None, detail)
        mc = cover_matching(K6, M, alpha=0.5)
        assert (mc.ok, mc.cycles, mc.failure) == (False, [], detail)
        assert mc.uncovered == once.uncovered == frozenset((min(e), max(e)) for e in M)


def test_cover_matching_runs_the_covering_loop():
    # the colour classes of two sparse packing residuals: every class is
    # covered, and a class that stalls names its one uncovered edge in the
    # failure. In a matching every vertex is tight (degree 1), so each
    # round locks the matching edges on its seed, and no class stalls
    alpha = expander_params_for_gnp(64, 0.15).alpha
    cycles, failed = [], []
    for s in (3, 7):
        G = sample_gnp(64, 0.15, RngSeed(5, s))
        residual = extract_packing(G, G.min_degree() // 2).residual
        for cls in greedy_edge_coloring(residual):
            mc = cover_matching(G, cls, alpha)
            cycles += mc.cycles
            assert all(is_hamilton_cycle(G, c) for c in mc.cycles)
            if mc.ok:
                assert not mc.uncovered and mc.failure is None
                continue
            (e,) = mc.uncovered
            assert mc.failure == f"no Hamilton cycle found through the uncovered edge {e}"
            failed.append(e)
    assert len(cycles) == 33
    assert _cycles_sha256(cycles) == (
        "889c1ac958afd393243a59a11bb383b9240b72da3f538067238a7ab374f68124")
    assert failed == []


def test_cover_matching_on_sample_covers_every_edge():
    G = sample_gnp(128, 0.5, RngSeed(1234))
    M = greedy_maximal_matching(G)
    alpha = expander_params_for_gnp(128, 0.5).alpha
    mc = cover_matching(G, M, alpha)
    assert mc.ok
    covered = set()
    for c in mc.cycles:
        assert is_hamilton_cycle(G, c)
        covered |= cycle_edges(c)
    assert M <= covered


def degree_first_forest_ref(edges) -> list:
    """The forest builder spelled out: a keyed sort, then first-fit with a
    union-find."""
    deg = Counter(v for e in edges for v in e)
    order = sorted(edges, key=lambda e: (-max(deg[e[0]], deg[e[1]]),
                                         -min(deg[e[0]], deg[e[1]]), e))
    parent: dict = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    fdeg: Counter = Counter()
    out = []
    for u, v in order:
        if fdeg[u] == 2 or fdeg[v] == 2 or find(u) == find(v):
            continue
        parent[find(u)] = find(v)
        fdeg[u] += 1
        fdeg[v] += 1
        out.append((u, v))
    return out


def test_degree_first_forest_matches_sorted_reference(monkeypatch):
    walked = []  # the paths as the builder hands them to PathFamily

    def spy(paths):
        walked[:] = [list(p) for p in paths]
        return PathFamily(paths)

    monkeypatch.setattr(cover_mod, "PathFamily", spy)
    rnd = random.Random(2016)
    spanning = 0
    for trial in range(240):
        n = rnd.randint(2, 256)
        if trial % 8 == 0:
            # dense enough that the forest may become a spanning path
            n = rnd.randint(2, 24)
            edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < 0.8}
        else:
            edges = set()
            for _ in range(rnd.randint(0, 4 * n)):
                u, v = rnd.sample(range(n), 2)
                edges.add((min(u, v), max(u, v)))
        edges = sorted(edges)
        arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
        got, taken, family = degree_first_forest(n, arr[:, 0], arr[:, 1])
        assert got == degree_first_forest_ref(edges)
        assert set(got) <= set(edges)
        # the positions index exactly the accepted edges, in accepted order
        assert [edges[i] for i in taken.tolist()] == got
        # the paths are the forest's, each walked from its smaller end, in
        # ascending order of that end: sorted canonical order already
        assert family == PathFamily.from_edges(got)  # raises unless a linear forest
        assert walked == [list(p) for p in family.paths]
        if got:
            assert max(Counter(v for e in got for v in e).values()) <= 2
        spanning += len(got) == n - 1
    assert spanning >= 10


# G(n, p) samples with base seed b, streams s < 40, kept when connected with
# minimum degree >= 2: 113 graphs
SPARSE_CORPUS = ((64, 0.15, 5), (48, 0.2, 11), (96, 0.1, 12))
# the graphs the matching pipeline alone (colour the residual, cover each
# class) failed to cover, as (n, s)
MATCHING_PIPELINE_FAILURES = {
    (64, 3), (64, 4), (64, 7), (64, 32), (64, 36), (64, 39),
    (48, 9), (48, 15), (48, 18), (48, 26), (48, 34), (48, 35),
    (96, 2), (96, 17), (96, 19), (96, 21), (96, 22), (96, 26), (96, 30),
}


def test_sparse_covers_fail_no_more_than_the_matching_pipeline():
    graphs = failed = 0
    losses: Counter = Counter()
    excess = at_bound = 0  # cover size over ceil(max degree / 2), summed
    for n, p, base in SPARSE_CORPUS:
        alpha = expander_params_for_gnp(n, p).alpha
        for s in range(40):
            G = sample_gnp(n, p, RngSeed(base, s))
            if not is_connected(G) or G.min_degree() < 2:
                continue
            graphs += 1
            out = cover_graph(G, alpha)
            for key in ("merge_lost", "soft_breaks", "soft_lost"):
                losses[key] += out.losses[key]
            if not out.ok:
                failed += 1
                assert (n, s) in MATCHING_PIPELINE_FAILURES
                assert out.failure_phase == "covering" and out.losses["uncovered"]
            else:
                over = out.certificate.cover_size - math.ceil(G.max_degree() / 2)
                excess += over
                at_bound += over == 0
    assert graphs == 113
    assert failed < len(MATCHING_PIPELINE_FAILURES)
    assert graphs - failed == 109
    # the corpus's summed loss counters, pinned so that the soft set and the
    # soft_lost count cannot drift silently
    assert losses == {"merge_lost": 3832, "soft_breaks": 15882, "soft_lost": 5233}
    # cover quality: a change that makes covers larger fails here
    assert (excess, at_bound) == (96, 54)


def test_sweep_covers_of_g_512_16_keep_their_summed_excess():
    # the 12 G(512, 16/512) graphs of the cover-quality sweep, inside the
    # paper's regime (p = n^(a - 1) with a about 0.44), where the theorem
    # promises (1 + o(1)) max degree / 2 cycles
    n, p = 512, 16 / 512
    alpha = expander_params_for_gnp(n, p).alpha
    graphs = excess = 0
    for s in range(12):
        G = sample_gnp(n, p, RngSeed(7000, s))
        if not is_connected(G) or G.min_degree() < 2:
            continue
        graphs += 1
        out = cover_graph(G, alpha)
        assert out.ok, (s, out.failure_phase, out.failure_detail)
        excess += out.certificate.cover_size - math.ceil(G.max_degree() / 2)
    assert (graphs, excess) == (12, 24)


def test_locked_edges_are_the_forest_edges_at_tight_vertices(monkeypatch):
    # every round of the sparse corpus's covers and of the cover-small-batch
    # benchmark's seed-1 covers: the first search locks exactly the seed's
    # forest edges with an end whose uncovered degree d has
    # ceil(d/2) = ceil(D/2), D the largest uncovered degree
    rounds = []  # [forest edges with a tight end, on the seed; locked; forest size]
    real_forest = cover_mod.degree_first_forest
    real_merge = cover_mod.merge_into_single_path
    real_find = cover_mod.find_hamilton_cycle

    def forest_spy(n, us, vs):
        out = real_forest(n, us, vs)
        deg = Counter(us.tolist()) + Counter(vs.tolist())
        bound = math.ceil(max(deg.values()) / 2)
        tight = {v for v, d in deg.items() if (d + 1) // 2 == bound}
        rounds.append([{e for e in out[0] if tight & set(e)}, None, len(out[0])])
        return out

    def merge_spy(G, forest, alpha):
        out = real_merge(G, forest, alpha)
        rounds[-1][0] -= out.lost_matching
        return out

    def find_spy(G, constraints=None, seed_path=None):
        if seed_path is not None and rounds[-1][1] is None:
            rounds[-1][1] = constraints.locked
        return real_find(G, constraints, seed_path=seed_path)

    monkeypatch.setattr(cover_mod, "degree_first_forest", forest_spy)
    monkeypatch.setattr(cover_mod, "merge_into_single_path", merge_spy)
    monkeypatch.setattr(cover_mod, "find_hamilton_cycle", find_spy)
    for n, p, base in SPARSE_CORPUS:
        alpha = expander_params_for_gnp(n, p).alpha
        for s in range(40):
            G = sample_gnp(n, p, RngSeed(base, s))
            if is_connected(G) and G.min_degree() >= 2:
                cover_graph(G, alpha)
    alpha = expander_params_for_gnp(128, 0.3).alpha
    for s in range(100):
        G = sample_gnp(128, 0.3, RngSeed(1, s))
        out = cover_graph(G, alpha)
        # the benchmark's covers all meet the degree bound
        assert out.certificate.cover_size == math.ceil(G.max_degree() / 2)
    assert all(want == got for want, got, _ in rounds)
    # rounds that lock some of the forest, and rounds that lock all of it
    some = sum(0 < len(got) < size for _, got, size in rounds)
    every = sum(len(got) == size for _, got, size in rounds)
    assert len(rounds) >= 2000 and some >= 1000 and every >= 100, (len(rounds), some, every)


def test_stuck_locked_searches_fall_back_to_soft_ones(monkeypatch):
    # one round of this sparse cover gets stuck in both locked searches,
    # from the seed and from its reverse; its first soft search finds the
    # round's cycle, and the cover still ends one cycle over the bound
    tries = []  # (locks edges, found a cycle) per covering search
    real_find = cover_mod.find_hamilton_cycle

    def find_spy(G, constraints=None, seed_path=None):
        res = real_find(G, constraints, seed_path=seed_path)
        if seed_path is not None:
            tries.append((bool(constraints.locked), res.ok))
        return res

    monkeypatch.setattr(cover_mod, "find_hamilton_cycle", find_spy)
    G = sample_gnp(64, 0.15, RngSeed(5, 0))
    out = cover_graph(G, expander_params_for_gnp(64, 0.15).alpha)
    assert out.ok and out.certificate.cover_size == 9 == math.ceil(G.max_degree() / 2) + 1
    i = tries.index((True, False))
    assert tries[i:i + 3] == [(True, False), (True, False), (False, True)]
    assert tries.count((True, False)) == 2


def test_a_stalled_round_is_rescued_by_a_one_edge_retry(monkeypatch):
    # this sparse cover's forest rounds stall with 8 edges left; the next
    # round, seeded from the first uncovered edge alone, covers it, and the
    # forest rounds go on
    rounds = []  # (uncovered rows in the forest, covered any) per round
    real_round = cover_mod._cover_round

    def round_spy(G, alpha, codes, us, vs, alive, idx, losses):
        cycle = real_round(G, alpha, codes, us, vs, alive, idx, losses)
        rounds.append((len(idx), cycle is not None))
        return cycle

    monkeypatch.setattr(cover_mod, "_cover_round", round_spy)
    G = sample_gnp(64, 0.15, RngSeed(5, 63))
    out = cover_graph(G, expander_params_for_gnp(64, 0.15).alpha)
    assert out.ok and out.certificate.cover_size == 18
    i = rounds.index((8, False))
    assert rounds[i:i + 3] == [(8, False), (1, True), (7, True)]
    assert _cycles_sha256(out.certificate.cycles) == (
        "f9dcdfe48e1d3b6399cace733eadbbc867bd87fb38b4a0784c35b09d5f8e8d69")


def test_packing_stops_at_its_first_failed_search():
    # the sparse-corpus graph whose packing falls short: its third search
    # finds no cycle, and the packing stops there after that one search
    G = sample_gnp(48, 0.2, RngSeed(11, 8))
    packing = extract_packing(G, G.min_degree() // 2)
    assert (G.min_degree() // 2, packing.achieved, packing.failures) == (3, 2, 1)
    assert packing.stopped.startswith("search stalled")
    # the forest cover makes up the shortfall from the packing's residual,
    # pinned so that a change to where the packing stops shows here
    out = cover_graph(G, expander_params_for_gnp(48, 0.2).alpha)
    assert out.ok and out.certificate.h == 2 and out.certificate.cover_size == 9
    assert out.packing_stopped == packing.stopped
    assert _cycles_sha256(out.certificate.cycles) == (
        "237d1dcd7744d42b591ba4d0d1e48542809a1ac491dd02b38060eee1734c312c")


def test_cover_small_batch_shape_is_pinned():
    # the benchmark's cover-small-batch graphs, G(128, 0.3) with base seed
    # 1: the forest rounds' cover sizes and summed loss counters, so that
    # the residual's edge table and its per-cycle lookup cannot drift
    alpha = expander_params_for_gnp(128, 0.3).alpha
    sizes = []
    losses: Counter = Counter()
    for s in range(5):
        out = cover_graph(sample_gnp(128, 0.3, RngSeed(1, s)), alpha)
        assert out.ok
        sizes.append(out.certificate.cover_size)
        losses.update(out.losses)
    assert sizes == [27, 28, 27, 26, 25]
    assert losses == {"merge_lost": 15, "soft_breaks": 69, "soft_lost": 32}


def test_edge_table_lists_the_edges_in_order():
    rnd = random.Random(22)
    for n in (3, 7, 8, 9, 16, 33):
        G = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rnd.random() < 0.4])
        codes, us, vs = cover_mod._edge_table(G)
        assert list(zip(us.tolist(), vs.tolist())) == list(G.edges())
        assert codes.tolist() == [u * n + v for u, v in G.edges()]
    codes, us, vs = cover_mod._edge_table(build_graph(5, []))
    assert len(codes) == len(us) == len(vs) == 0


def test_cover_graph_rejects_bad_alpha():
    for alpha in (0, 0.0, -1, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"alpha must be a finite number > 0, got {alpha!r}"):
            cover_graph(complete_graph(5), alpha)
        with pytest.raises(ValueError, match="alpha must be a finite number > 0"):
            merge_into_single_path(complete_graph(6), {(0, 1), (2, 3)}, alpha)
    # a positive alpha so small that 6 / alpha overflows is named too
    with pytest.raises(ValueError, match="alpha 5e-324 is too small"):
        cover_graph(complete_graph(5), 5e-324)
    # tiny and huge finite alphas still run: connector caps 6e300 and 1
    assert cover_graph(complete_graph(5), 1e-300).ok
    assert cover_graph(complete_graph(5), 1e308).ok


def test_cover_graph_walecki_k5():
    out = cover_graph(complete_graph(5), alpha=0.5)
    assert out.ok
    assert out.certificate.cover_size == 2 == math.ceil(4 / 2)
    assert validate_cover(complete_graph(5), out.certificate.cycles).ok


def test_cover_graph_c5_single_cycle():
    out = cover_graph(cycle_graph(5), alpha=0.5)
    assert out.ok and out.certificate.cover_size == 1


def test_cover_graph_petersen_fails_with_phase():
    out = cover_graph(petersen_graph(), alpha=0.3)
    assert not out.ok
    assert out.failure_phase in ("packing", "covering")
    assert out.failure_detail


def test_cover_graph_rejects_degenerate_inputs():
    assert cover_graph(build_graph(4, [(0, 1), (2, 3)]), 0.5).failure_phase == "precheck"
    assert cover_graph(build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), 0.5).failure_phase == "precheck"
    # too few vertices, or no edge at all
    for G, detail in ((build_graph(2, [(0, 1)]), "degenerate graph (n=2, m=1)"),
                      (build_graph(5, []), "degenerate graph (n=5, m=0)")):
        out = cover_graph(G, 0.5)
        assert (out.ok, out.failure_phase, out.failure_detail) == (False, "precheck", detail)


def test_cover_certificate_structure():
    G = sample_gnp(48, 0.4, RngSeed(2222))
    out = cover_graph(G, alpha=0.4)
    assert out.ok
    cert = out.certificate
    v = validate_cover(G, cert.cycles)
    assert v.ok
    assert cert.min_coverage() >= 1
    assert cert.cover_size >= math.ceil(G.max_degree() / 2)
    # packing prefix is edge disjoint
    seen = set()
    for c in cert.cycles[: cert.h]:
        es = cycle_edges(c)
        assert not (seen & es)
        seen |= es


def test_complete_graph_experiment_tight():
    # measured on the deterministic instance: greedy packing decomposes
    # K128 down to a perfect matching (63 = floor(127/2) cycles), one more
    # cycle covers it, landing exactly on the ceil(Delta/2) = 64 bound
    r = run_single_experiment(128, 1.0, RngSeed(0, 0))
    assert r.valid
    assert r.h == 63
    assert r.cover_size == 64 == math.ceil(127 / 2)
    assert math.isclose(r.ratio, 1.0)


def test_run_single_experiment_report_consistency():
    r = run_single_experiment(64, 0.5, RngSeed(5, 0))
    assert r.valid and r.error is None
    assert r.cover_size >= r.h >= 1
    assert math.isclose(r.ratio, r.cover_size / (64 * 0.5 / 2))
    assert r.m > 0 and r.delta_max >= r.delta_min


def test_run_experiment_records_failures_and_continues():
    # np = 0.8: samples are nearly edgeless, every seed fails but reports flow
    reports = run_gnp_experiment(16, 0.05, seeds=[0, 1], base_seed=9)
    assert len(reports) == 2
    assert all(not r.valid and r.error for r in reports)


def test_run_experiment_seed_order_stable():
    a = run_gnp_experiment(32, 0.5, seeds=[0, 1, 2], base_seed=4)
    b = run_gnp_experiment(32, 0.5, seeds=[0, 1, 2], base_seed=4)
    assert [r.cover_size for r in a] == [r.cover_size for r in b]
    assert [r.stream for r in a] == [0, 1, 2]


def test_run_experiment_in_two_workers_matches_one_process():
    # `hamcover experiment` runs on every core by default: the reports that
    # two worker processes send back equal the in-process ones, in seed order
    def fields(reports):
        return [{k: v for k, v in dataclasses.asdict(r).items() if k != "timings_ms"}
                for r in reports]

    one = run_gnp_experiment(32, 0.5, [0, 1, 2], base_seed=77, jobs=1)
    two = run_gnp_experiment(32, 0.5, [0, 1, 2], base_seed=77, jobs=2)
    assert fields(two) == fields(one)
    assert [r.stream for r in two] == [0, 1, 2]
    assert all(r.valid for r in one)


def _cycles_sha256(cycles) -> str:
    lines = [list(canonical_cycle(c)) for c in cycles]
    return hashlib.sha256(json.dumps(lines, separators=(",", ":")).encode()).hexdigest()


def test_pinned_cycles_are_byte_identical():
    # The engine is deterministic, so these hashes change only when the
    # search changes: the BFS order (ascending pivots, clean rotations
    # before soft ones), the greedy extension, the packing loop or the
    # forest cover of the residual and the forest edges it locks. A change
    # that alters the search on purpose records the new hashes here.
    G = sample_gnp(96, 0.5, RngSeed(4242, 0))
    packing = extract_packing(G, G.min_degree() // 2)
    assert packing.achieved == 17
    assert _cycles_sha256(packing.cycles) == (
        "919d33e6fa2360049dc2f27c59192897f6d748a1e509fcacf9c478c480788070")

    G = sample_gnp(64, 0.3, RngSeed(4242, 1))
    out = cover_graph(G, alpha=expander_params_for_gnp(64, 0.3).alpha)
    assert out.ok and out.certificate.cover_size == 14
    assert _cycles_sha256(out.certificate.cycles) == (
        "4f6f8d9a91013e96e0ffdc189bfd268a5ea32d49271b6b64633f09ff70081606")


def test_soft_lost_counts_seed_edges_the_cycle_dropped():
    # soft_breaks counts soft rotations generated; soft_lost counts the
    # matching edges on the merged seed path missing from the returned
    # cycle, and each of those was broken by one counted rotation
    alpha = expander_params_for_gnp(64, 0.3).alpha
    lost = 0
    for s in range(6):
        G = sample_gnp(64, 0.3, RngSeed(5, s))
        out = cover_graph(G, alpha=alpha)
        assert out.ok
        assert 0 <= out.losses["soft_lost"] <= out.losses["soft_breaks"]
        lost += out.losses["soft_lost"]

        M = greedy_maximal_matching(G)
        on_seed = M & path_edges(merge_into_single_path(G, M, alpha).path)
        once = cover_matching_once(G, M, alpha)
        assert once.cycle is not None
        assert once.soft_lost == len(on_seed - cycle_edges(once.cycle)) <= once.soft_breaks
        lost += once.soft_lost
    assert lost > 0

