import math
import random

import pytest

from hamcover.expansion import (
    diameter_bound_check,
    large_expansion_witness_search,
    peel_non_expanding,
    small_expansion_witness_search,
)
from hamcover.gnp import RngSeed, sample_gnp
from hamcover.graph import (
    INFINITE,
    complete_graph,
    cycle_graph,
    disjoint_union,
    neighborhood_of_set,
    star_graph,
)
from hamcover.oracle import bfs_distances_reference, exhaustive_expansion_check
from hamcover.graph import diameter


def test_small_search_singletons_exhaust_tiny_boundary():
    r = small_expansion_witness_search(cycle_graph(5), s=2, g=1)
    assert r.verdict == "holds"


def test_small_search_finds_adjacent_pair():
    r = small_expansion_witness_search(cycle_graph(5), s=2, g=2)
    assert r.verdict == "violated"
    A = r.witness
    assert len(A) <= 2
    assert len(neighborhood_of_set(cycle_graph(5), A)) < 2 * len(A)


def test_small_search_complete_graph_singletons():
    r = small_expansion_witness_search(complete_graph(6), s=3, g=1)
    assert r.verdict == "holds"  # all degrees 5 >= 3


def test_small_search_never_claims_holds_beyond_singletons():
    # S(2,2) actually holds on K8 (any pair sees the other 6 vertices), but
    # the sampler may not claim so
    r = small_expansion_witness_search(complete_graph(8), s=2, g=2, trials=50)
    assert r.verdict == "inconclusive"


def test_large_search_complete_graph():
    assert large_expansion_witness_search(complete_graph(6), 2).verdict == "holds"


def test_large_search_disconnected():
    tt = disjoint_union(cycle_graph(3), cycle_graph(3))
    r = large_expansion_witness_search(tt, 3)
    assert r.verdict == "violated"
    A, B = r.witness
    assert not set(A) & set(B)
    assert not any(b in neighborhood_of_set(tt, A) for b in B)


def test_large_search_vacuous():
    assert large_expansion_witness_search(cycle_graph(5), 3).verdict == "holds"


def test_searches_refuse_a_non_finite_boundary_or_a_bad_frame():
    G = cycle_graph(6)
    # a NaN s fails every comparison, so no set could ever violate it
    for s in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="expansion factor s must be finite"):
            small_expansion_witness_search(G, s, 2)
    for g in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="boundary g must be finite"):
            small_expansion_witness_search(G, 2, g)
    # a finite g < 1 leaves no nonempty set to check
    for g in (0, -3, 0.5):
        r = small_expansion_witness_search(G, 2, g)
        assert (r.verdict, r.note) == ("holds", "no nonempty candidate sets")
    for l in (0, -3, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="frame l must satisfy 0 < l < inf"):
            large_expansion_witness_search(G, l)
    assert large_expansion_witness_search(G, 0.5).params["set_size"] == 1


def test_diameter_bound_and_peel_refuse_a_bad_expansion_factor():
    # s = inf put the diameter bound at 3.0, s = nan made it nan, and the
    # peel divided by s = 0
    G = cycle_graph(6)
    for s in (1, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="expansion factor s must satisfy 1 < s < inf"):
            diameter_bound_check(G, s)
    for s in (0, -2, math.inf, math.nan):
        with pytest.raises(ValueError, match="expansion factor s must satisfy 0 < s < inf"):
            peel_non_expanding(G, {0}, s)
    assert peel_non_expanding(G, {0}, 0.5).removed == set()


def test_diameter_bound_cases():
    r = diameter_bound_check(complete_graph(8), 2)
    assert r.diam == 1 and math.isclose(r.bound, 9.0) and r.ok

    r = diameter_bound_check(cycle_graph(5), 2)
    assert r.diam == 2 and math.isclose(r.bound, 2 * math.log(5) / math.log(2) + 3) and r.ok
    assert round(r.bound, 2) == 7.64

    r = diameter_bound_check(disjoint_union(cycle_graph(3), cycle_graph(3)), 2)
    assert not r.ok and r.diam == INFINITE


def test_diameter_agrees_with_reference_bfs():
    rnd = random.Random(5)
    for trial in range(100):
        n = rnd.randint(2, 40)
        G = sample_gnp(n, rnd.choice([0.1, 0.3, 0.6]), RngSeed(31, trial))
        ref = 0
        inf = False
        for v in range(n):
            d = bfs_distances_reference(G, v)
            if -1 in d:
                inf = True
                break
            ref = max(ref, max(d))
        assert diameter(G) == (INFINITE if inf else ref)


def test_peel_nothing_to_do():
    r = peel_non_expanding(complete_graph(8), set(), s=4)
    assert r.removed == set() and r.remainder == set(range(8))
    assert r.size_bound_ok


def test_peel_star_plus_triangle():
    # deleting the hub strands the leaves; the triangle survives
    G = disjoint_union(star_graph(5), cycle_graph(3))
    r = peel_non_expanding(G, {0}, s=4)
    assert r.removed == {1, 2, 3, 4, 5}
    assert r.remainder == {6, 7, 8}
    assert not r.size_bound_ok  # the host graph is no expander, bound fails


def test_peel_dense_random_graph_removes_nothing():
    G = sample_gnp(64, 0.5, RngSeed(8))
    deleted = {3, 17, 30, 41, 60}
    r = peel_non_expanding(G, deleted, s=4)
    # remainder degrees dwarf s/2 = 2, verified by direct scan
    for v in set(range(64)) - deleted:
        assert sum(1 for w in G.neighbors(v) if w not in deleted) >= 2
    assert r.removed == set()


def test_peel_postcondition_every_remainder_vertex_expands():
    rnd = random.Random(77)
    for trial in range(30):
        n = rnd.randint(6, 40)
        G = sample_gnp(n, rnd.choice([0.1, 0.2, 0.4]), RngSeed(61, trial))
        D = set(rnd.sample(range(n), rnd.randint(0, n // 3)))
        s = rnd.choice([2, 3, 4])
        r = peel_non_expanding(G, D, s=s)
        for v in r.remainder:
            inside = sum(1 for w in G.neighbors(v) if w in r.remainder)
            assert inside >= s / 2


def test_violated_witnesses_revalidate():
    # zero false positives: every reported witness reproduces its violation
    rnd = random.Random(13)
    for trial in range(60):
        n = rnd.randint(5, 24)
        G = sample_gnp(n, rnd.choice([0.1, 0.25, 0.4]), RngSeed(91, trial))
        s = rnd.choice([1.5, 2, 3])
        g = rnd.choice([1, 2, 3, 4])
        r = small_expansion_witness_search(G, s, g, trials=120, seed=RngSeed(7, trial))
        if r.verdict == "violated":
            A = r.witness
            assert len(A) <= g
            assert len(neighborhood_of_set(G, A)) < s * len(A)
        rl = large_expansion_witness_search(G, rnd.choice([2, 3]), trials=120,
                                            seed=RngSeed(8, trial))
        if rl.verdict == "violated":
            A, B = rl.witness
            assert not set(A) & set(B)
            assert not any(b in neighborhood_of_set(G, A) for b in B)


def test_sampled_never_contradicts_exhaustive():
    rnd = random.Random(21)
    for trial in range(40):
        n = rnd.randint(5, 12)
        G = sample_gnp(n, rnd.choice([0.2, 0.4, 0.6]), RngSeed(111, trial))
        s, g, l = rnd.choice([1.5, 2]), rnd.choice([2, 3]), rnd.choice([2, 3])
        ex_s, ex_l = exhaustive_expansion_check(G, s, g, l)
        r_s = small_expansion_witness_search(G, s, g, trials=2 ** n, seed=RngSeed(1, trial))
        r_l = large_expansion_witness_search(G, l, trials=2 ** n, seed=RngSeed(2, trial))
        if r_s.verdict == "violated":
            assert not ex_s.holds
        if ex_s.holds:
            assert r_s.verdict != "violated"
        if r_l.verdict == "violated":
            assert not ex_l.holds
        if ex_l.holds:
            assert r_l.verdict != "violated"


def test_induced_robustness_exhaustive_oracle():
    # exact claim behind the peeling heuristic, checked by brute force on
    # tiny certified instances: if the whole graph has the small property
    # with factor s and boundary g, then for any deleted set D of size at
    # most g*s/4 some Z with |Z| <= 2|D|/s restores the halved property
    # S(s/2, g/2) on what remains
    from itertools import combinations

    from hamcover.graph import induced_subgraph

    rnd = random.Random(55)
    verified = 0
    for trial in range(150):
        n = rnd.randint(5, 10)
        G = sample_gnp(n, rnd.choice([0.5, 0.7, 0.9]), RngSeed(301, trial))
        s, g = 2.0, rnd.choice([2.0, 4.0])
        ex_s, _ = exhaustive_expansion_check(G, s, g, 2)
        if not ex_s.holds:
            continue
        dmax = min(int(g * s / 4), n - 3)
        for dsize in range(0, dmax + 1):
            D = set(rnd.sample(range(n), dsize))
            rest = sorted(set(range(n)) - D)
            zmax = int(2 * dsize / s)
            found = False
            for zsize in range(0, zmax + 1):
                for Z in combinations(rest, zsize):
                    keep = set(rest) - set(Z)
                    H, _, _ = induced_subgraph(G, keep)
                    if H.n == 0:
                        found = True
                        break
                    hs, _ = exhaustive_expansion_check(H, s / 2.0, g / 2.0, 1)
                    if hs.holds:
                        found = True
                        break
                if found:
                    break
            assert found, f"no qualifying removal set on trial {trial}, D={sorted(D)}"
            verified += 1
            # the peeled remainder always keeps the singleton guarantee
            pr = peel_non_expanding(G, D, s=s)
            for v in pr.remainder:
                assert sum(1 for w in G.neighbors(v) if w in pr.remainder) >= s / 2
    assert verified > 50


def test_sampled_search_finds_known_violations():
    # where the exhaustive oracle proves a violation, the sampler armed
    # with 2^n trials should land a witness at least 95% of the time
    rnd = random.Random(99)
    violations = hits = 0
    trial = 0
    while violations < 60:
        trial += 1
        n = rnd.randint(6, 14)
        G = sample_gnp(n, rnd.choice([0.15, 0.3, 0.5]), RngSeed(211, trial))
        s, g = rnd.choice([1.5, 2, 3]), rnd.choice([2, 3, 4])
        ex_s, _ = exhaustive_expansion_check(G, s, g, 2)
        if ex_s.holds:
            continue
        violations += 1
        r = small_expansion_witness_search(G, s, g, trials=2 ** n, seed=RngSeed(3, trial))
        if r.verdict == "violated":
            hits += 1
    assert hits >= 0.95 * violations, f"{hits}/{violations} witness hit rate"
