import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcover.graph import (
    Graph,
    GraphError,
    INFINITE,
    build_graph,
    canonical_cycle,
    complete_graph,
    cycle_edges,
    cycle_graph,
    diameter,
    format_edge_list,
    induced_subgraph,
    is_hamilton_cycle,
    is_path,
    neighborhood_of_set,
    one_hot,
    parse_edge_list,
    path_graph,
    petersen_graph,
)
from hamcover.gnp import RngSeed, sample_gnp
from hamcover.oracle import bfs_distances_reference
from hamcover.rotation import find_hamilton_cycle


def test_build_complete_graph():
    G = build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert G.m == 6
    assert all(G.degree(v) == 3 for v in range(4))


def test_build_cycle_graph():
    G = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert G.m == 5
    assert all(G.degree(v) == 2 for v in range(5))


def test_build_dedup():
    G = build_graph(3, [(0, 1), (0, 1), (1, 2)])
    assert G.m == 2


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 3)])


def test_build_rejects_self_loop():
    with pytest.raises(GraphError):
        build_graph(3, [(1, 1)])


def test_neighborhood_excludes_set():
    C5 = cycle_graph(5)
    assert neighborhood_of_set(C5, {0}) == {1, 4}
    assert neighborhood_of_set(C5, {0, 1}) == {2, 4}
    assert neighborhood_of_set(C5, set(range(5))) == set()


def test_diameter_small_cases():
    assert diameter(complete_graph(4)) == 1
    assert diameter(cycle_graph(5)) == 2


def test_diameter_petersen_vs_reference_bfs():
    G = petersen_graph()
    ref = max(max(bfs_distances_reference(G, v)) for v in range(G.n))
    assert diameter(G) == ref == 2


def test_diameter_disconnected_is_infinite():
    G = build_graph(4, [(0, 1), (2, 3)])
    assert diameter(G) == INFINITE


def test_induced_subgraph_cases():
    K4 = complete_graph(4)
    H, to_sub, to_orig = induced_subgraph(K4, {0, 1, 3})
    assert H.n == 3 and H.m == 3
    assert to_orig == (0, 1, 3) and to_sub[3] == 2

    C5 = cycle_graph(5)
    H, _, _ = induced_subgraph(C5, {0, 1, 2})
    assert H.m == 2 and sorted(H.degrees()) == [1, 1, 2]

    H, _, _ = induced_subgraph(C5, set())
    assert H.n == 0 and H.m == 0


def test_induced_subgraph_full_is_identity():
    G = petersen_graph()
    H, to_sub, to_orig = induced_subgraph(G, range(G.n))
    assert H == G
    assert all(to_sub[v] == v for v in range(G.n))
    assert to_orig == tuple(range(G.n))


def test_edge_list_roundtrip():
    G = petersen_graph()
    text = format_edge_list(G)
    assert text.splitlines()[0] == "10 15"
    assert parse_edge_list(text) == G
    # writer output is sorted with u < v
    rows = [tuple(map(int, ln.split())) for ln in text.splitlines()[1:]]
    assert rows == sorted(rows) and all(u < v for u, v in rows)


def test_parse_rejects_garbage():
    with pytest.raises(GraphError):
        parse_edge_list("")
    with pytest.raises(GraphError):
        parse_edge_list("3\n0 1\n")
    with pytest.raises(GraphError):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(GraphError):
        parse_edge_list("3 1\n0 x\n")
    # a repeated edge, in either order, would let the header's count pass
    # with fewer edges than it promised
    with pytest.raises(GraphError, match="line 3: edge '1 0' repeats the edge of line 2"):
        parse_edge_list("4 3\n0 1\n1 0\n2 3\n")
    with pytest.raises(GraphError, match="line 4: edge '0 2' repeats the edge of line 3"):
        parse_edge_list("3 4\n0 1\n0 2\n0 2\n1 2\n")


def is_path_ref(G, seq) -> bool:
    """is_path as it was, one has_edge call per consecutive pair."""
    vs = list(seq)
    if len(vs) != len(set(vs)):
        return False
    if any(not (0 <= v < G.n) for v in vs):
        return False
    return all(G.has_edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1))


def test_is_path_matches_reference():
    rnd = random.Random(218)
    G = sample_gnp(24, 0.4, RngSeed(218, 0))
    n = G.n
    walk = find_hamilton_cycle(G).cycle
    cases = [
        [], [0], [n - 1], [-1], [n], [0, 0], [-1, 0], [0, n],
        list(walk), list(walk[:5]) + [walk[2]], list(walk[:5]) + [-1], list(walk[:5]) + [n],
        [u for u in range(n) if not G.has_edge(0, u) and u][:1] + [0],  # non-adjacent
    ]
    for _ in range(400):
        k = rnd.randint(0, 8)
        if rnd.random() < 0.5:
            # a stretch of the Hamilton cycle, with a vertex perhaps changed
            i = rnd.randrange(n)
            seq = [walk[(i + j) % n] for j in range(k)]
            if seq and rnd.random() < 0.5:
                seq[rnd.randrange(k)] = rnd.randint(-2, n + 1)
        else:
            seq = [rnd.randint(-1, n) for _ in range(k)]
        cases.append(seq)
    wins = 0
    for seq in cases:
        want = is_path_ref(G, seq)
        assert is_path(G, seq) == want, seq
        assert is_path(G, iter(seq)) == want, seq
        wins += want and len(seq) >= 2
    assert wins >= 100


def is_hamilton_cycle_ref(G, seq):
    # is_hamilton_cycle as it was before the one-hot table
    vs = list(seq)
    if len(vs) != G.n or G.n < 3 or set(vs) != set(range(G.n)):
        return False
    bits = G.rows
    return all(bits[u] >> v & 1 for u, v in zip(vs, vs[1:] + vs[:1]))


def _answer(check, G, seq):
    try:
        return check(G, seq)
    except Exception as exc:  # the two versions must raise the same type
        return type(exc)


def test_is_hamilton_cycle_matches_reference():
    rnd = random.Random(231)
    G = sample_gnp(24, 0.4, RngSeed(231, 0))
    n = G.n
    walk = list(find_hamilton_cycle(G).cycle)
    non_adjacent = next(v for v in range(1, n) if not G.has_edge(walk[0], v))
    cases = [(G, walk[:-1]), (G, walk + walk[:1]), (G, [])]
    for k in range(n):
        turned = walk[k:] + walk[:k]
        cases += [(G, turned), (G, turned[::-1])]  # rotations and reflections
        for bad in (turned[1], -1, n, n + 1):
            cases.append((G, turned[:-1] + [bad]))
        # a non-adjacent pair, at the closing position or inside
        swapped = [walk[0], non_adjacent] + [v for v in walk[1:] if v != non_adjacent]
        cases.append((G, swapped[k:] + swapped[:k]))
    for _ in range(200):
        seq = walk[:]
        for _ in range(rnd.randint(1, 3)):
            i, j = rnd.randrange(n), rnd.randrange(n)
            seq[i], seq[j] = seq[j], seq[i]
        if rnd.random() < 0.3:
            seq[rnd.randrange(n)] = rnd.randint(-1, n + 1)
        cases.append((G, seq))
    # the closing pair missing, and present
    cases += [(path_graph(7), list(range(7))), (cycle_graph(7), list(range(7)))]
    for m in (0, 1, 2):
        K = complete_graph(m)
        cases += [(K, list(range(m))), (K, [0] * m), (K, [-1]), (K, [0, 1])]
    hits = 0
    for H, seq in cases:
        want = _answer(is_hamilton_cycle_ref, H, seq)
        assert _answer(is_hamilton_cycle, H, seq) == want, seq
        assert _answer(is_hamilton_cycle, H, iter(seq)) == want, seq
        assert _answer(is_hamilton_cycle, H, tuple(seq)) == want, seq
        hits += want is True
    assert len(cases) >= 300
    assert hits >= 2 * n + 1


def test_one_hot_table_across_graph_sizes():
    # the table is shared and only grows, so each size sees a table at
    # least as long as the largest graph used before it
    longest = 0
    for n in (300, 5, 70):
        C = cycle_graph(n)
        assert is_hamilton_cycle(C, range(n))
        assert is_path(C, range(n))
        H = C.remove_edges([(v, (v + 1) % n) for v in range(0, n, 2)])
        assert H == build_graph(n, [(v, (v + 1) % n) for v in range(1, n, 2)])
        bit = one_hot(n)
        longest = max(longest, n)
        assert len(bit) >= longest
        assert all(bit[v] == 1 << v for v in range(n))
        assert one_hot(0) is bit


def test_one_hot_table_is_not_built_at_import_or_while_sampling():
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    code = ("import hamcover, hamcover.graph as g\n"
            "hamcover.sample_gnp(300, 0.5, hamcover.RngSeed(1, 0))\n"
            "assert not g._one_hot, len(g._one_hot)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("edge", [(-1, 0), (0, -1), (-3, -2), (4, 0), (0, 4), (9, 2), (2, 9),
                                  (299, 0), (0, 299), (10**30, 1), (1, 10**30)])
def test_remove_edges_rejects_out_of_range_vertices(edge):
    u, v = edge
    K4 = complete_graph(4)
    before = _snapshot(K4)
    for _ in range(2):
        with pytest.raises(GraphError, match=re.escape(f"edge ({u}, {v}) out of range for n=4")):
            K4.remove_edges([(0, 1), edge, (2, 3)])
        assert _snapshot(K4) == before
        # the shared table now outgrows n, which must not change the answer
        complete_graph(300).remove_edges([(0, 299)])


def test_remove_edges_passes_on_the_input_own_errors():
    K4 = complete_graph(4)
    pairs = [(0, 1), (2, 3)]
    with pytest.raises(IndexError):
        K4.remove_edges(pairs[i] for i in range(3))
    with pytest.raises(IndexError):
        K4.remove_edges(pairs[i] for i in range(2, 3))


def test_has_edge_is_false_outside_the_vertex_range():
    K6 = complete_graph(6)
    assert all(K6.has_edge(u, v) for u in range(6) for v in range(6) if u != v)
    # -1 used to read row 5, and 7 or a negative v used to raise
    for u, v in [(-1, 3), (3, -1), (2, -1), (-6, 0), (7, 9), (9, 7), (0, 6), (6, 0),
                 (1, 10**30), (10**30, 1), (3, 3)]:
        assert K6.has_edge(u, v) is False


def test_has_edge_takes_numpy_integer_vertices():
    # above 63 vertices a row is wider than any numpy integer
    G = sample_gnp(100, 0.3, RngSeed(4242, 0))
    pairs = [(3, 4), (0, 99), (99, 0), (64, 70), (5, 5), (-1, 3), (3, 100)]
    for dt in (np.int32, np.int64):
        assert [G.has_edge(dt(u), dt(v)) for u, v in pairs] == [G.has_edge(u, v) for u, v in pairs]
    assert complete_graph(100).has_edge(np.int64(3), np.int64(4))


def test_non_integer_vertices_are_not_vertices():
    # a float inside 0..n-1 is no vertex: the checks say False, not TypeError
    K6 = complete_graph(6)
    for u, v in [(0.5, 1), (1, 0.5), (1.0, 2), (2, 1.0), (np.float64(1), 2), ("1", 2), (None, 1)]:
        assert K6.has_edge(u, v) is False
    for seq in ([0.0, 1.0], [0.5], [0, 1, 2.0], [np.float64(0), 1], ["a", "b"], [0, None]):
        assert is_path(K6, seq) is False
        assert is_path(K6, iter(seq)) is False
    for seq in ([0.0, 1.0, 2.0], [0, 1, 2.5], [0, 1, "2"]):
        assert is_hamilton_cycle(complete_graph(3), seq) is False
    assert is_path(K6, [0, 1]) and is_path(K6, [np.int64(5)])
    assert is_hamilton_cycle(complete_graph(3), [np.int64(0), 1, 2])


def test_remove_edges():
    K4 = complete_graph(4)
    H = K4.remove_edges([(0, 1), (1, 0), (2, 3)])
    assert H.m == 4
    assert not H.has_edge(0, 1) and not H.has_edge(2, 3)
    assert K4.m == 6  # original untouched


def test_remove_hamilton_cycle_matches_rebuilt_graph():
    G = sample_gnp(40, 0.5, RngSeed(41, 0))
    res = find_hamilton_cycle(G)
    assert res.ok
    cyc = res.cycle
    gone = cycle_edges(cyc)
    # each edge given in both orientations, plus one edge the graph lacks
    absent = next((u, v) for u in range(40) for v in range(u + 1, 40) if not G.has_edge(u, v))
    H = G.remove_edges([(cyc[i], cyc[(i + 1) % 40]) for i in range(40)]
                       + [(cyc[(i + 1) % 40], cyc[i]) for i in range(40)] + [absent])
    expect = build_graph(40, sorted(G.edge_set() - gone))
    assert H == expect
    assert H.m == expect.m == G.m - 40
    for v in range(40):
        assert H.neighbors(v) == expect.neighbors(v)
        assert list(H.neighbors(v)) == sorted(H.neighbors(v))
        assert H.degree(v) == G.degree(v) - 2
    assert G.m == expect.m + 40  # original untouched


@st.composite
def edge_lists_and_removals(draw):
    # up to 70 vertices, so rows span more than one 64-bit word
    n = draw(st.integers(min_value=1, max_value=70))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=4 * n)) if n > 1 else []
    # part of the edge list (either orientation, repeats allowed) plus pairs
    # that may not be edges at all
    chosen = draw(st.lists(st.sampled_from(edges), max_size=len(edges))) if edges else []
    chosen = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    extra = draw(st.lists(pair, max_size=5)) if n > 1 else []
    return n, edges, chosen + extra


def _reference_rows(n, edge_set):
    rows = [set() for _ in range(n)]
    for u, v in edge_set:
        rows[u].add(v)
        rows[v].add(u)
    return [tuple(sorted(r)) for r in rows]


def _snapshot(G):
    return G.m, list(G.edges()), [G.neighbors(v) for v in range(G.n)]


@given(edge_lists_and_removals())
@settings(max_examples=120, deadline=None)
def test_remove_edges_matches_set_reference(case):
    n, edges, drop = case
    G = build_graph(n, edges)
    before = _snapshot(G)
    H = G.remove_edges(drop)
    kept = {tuple(sorted(e)) for e in edges} - {tuple(sorted(e)) for e in drop}
    rows = _reference_rows(n, kept)
    degs = [len(r) for r in rows]
    assert H.m == len(kept)
    assert list(H.edges()) == sorted(kept)
    assert H.degrees() == degs
    assert H.min_degree() == min(degs)
    assert H.max_degree() == max(degs)
    for v in range(n):
        assert H.neighbors(v) == rows[v]
        assert list(H.neighbors(v)) == sorted(set(H.neighbors(v)))
        assert H.degree(v) == degs[v]
    assert H == build_graph(n, sorted(kept))
    assert _snapshot(G) == before  # the source graph is unchanged


def test_graph_stores_one_adjacency_view():
    assert "_nbrs" not in Graph.__slots__
    assert "rows" in Graph.__slots__
    # the public rows are the graph: one bitmask per vertex, as a tuple, from
    # every way of making a graph
    G = sample_gnp(30, 0.3, RngSeed(240, 0))
    drop = list(G.edges())[::3]
    graphs = [
        G,
        build_graph(6, [(0, 1), (1, 0), (2, 5), (4, 3)]),
        G.remove_edges(drop + [(v, u) for u, v in drop[:4]]),
        induced_subgraph(G, range(3, 30, 2))[0],
        parse_edge_list(format_edge_list(G)),
        build_graph(0, []),
    ]
    for H in graphs:
        assert isinstance(H.rows, tuple)
        assert H.rows == tuple(H.adjacency_bits(v) for v in range(H.n))
        assert H.rows == tuple(sum(1 << w for w in H.neighbors(v)) for v in range(H.n))


def test_canonical_cycle():
    assert canonical_cycle((2, 3, 4, 0, 1)) == (0, 1, 2, 3, 4)
    assert canonical_cycle((3, 2, 1, 0, 4)) == (0, 1, 2, 3, 4)


@given(st.permutations(list(range(7))), st.integers(min_value=0, max_value=6),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_canonical_cycle_invariant_under_rotation_and_reflection(seq, shift, flip):
    rotated = seq[shift:] + seq[:shift]
    if flip:
        rotated = rotated[::-1]
    assert canonical_cycle(rotated) == canonical_cycle(seq)


def _canonical_cycle_modulo(seq):
    # canonical_cycle as it was written with modulo indexing, kept as the reference
    vs = list(seq)
    q = len(vs)
    i = vs.index(min(vs))
    fwd = [vs[(i + j) % q] for j in range(q)]
    bwd = [vs[(i - j) % q] for j in range(q)]
    return tuple(fwd) if fwd[1:] <= bwd[1:] else tuple(bwd)


@given(st.lists(st.integers(min_value=-3, max_value=6), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_canonical_cycle_slicing_matches_modulo_reference(seq):
    # repeated vertices included: the output must not change on invalid cycles either
    assert canonical_cycle(seq) == _canonical_cycle_modulo(seq)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return build_graph(n, edges)


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_neighborhood_property(G, rnd):
    size = rnd.randint(1, G.n)
    A = set(rnd.sample(range(G.n), size))
    N = neighborhood_of_set(G, A)
    assert not (N & A)
    for v in N:
        assert any(w in A for w in G.neighbors(v))
    for v in set(range(G.n)) - A - N:
        assert not any(w in A for w in G.neighbors(v))


@given(small_graphs(), st.integers(min_value=0, max_value=2 ** 30))
@settings(max_examples=40, deadline=None)
def test_diameter_relabeling_invariant(G, seed):
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    H = build_graph(G.n, [(perm[u], perm[v]) for u, v in G.edges()])
    assert diameter(G) == diameter(H)


@given(st.integers(min_value=2, max_value=40))
def test_diameter_complete(n):
    assert diameter(complete_graph(n)) == 1


def test_handshake_invariant():
    G = petersen_graph()
    assert sum(G.degrees()) == 2 * G.m
    assert diameter(path_graph(6)) == 5
