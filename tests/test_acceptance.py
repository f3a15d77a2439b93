"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as `pytest tests/test_acceptance.py -v -s`. Criteria mix exact checks
(oracle agreement, protection, accounting, coloring, determinism) with
seeded end-to-end runs at fixed tolerances. The empirical ratio gate in
criterion 6 uses the 2.5 envelope; the measured baseline of the first
validated run of this suite was ratios 1.62..1.97 over the ten seeds.
"""

import json
import math
import random
import time

from hamcover.cli import main as cli_main
from hamcover.cover import (
    cover_graph,
    greedy_edge_coloring,
    run_gnp_experiment,
)
from hamcover.expansion import (
    large_expansion_witness_search,
    small_expansion_witness_search,
)
from hamcover.families import ExtensionBudget, PathFamily, merge_into_single_path, reduce_family
from hamcover.gnp import RngSeed, sample_gnp
from hamcover.graph import (
    build_graph,
    complete_graph,
    cycle_graph,
    cycle_edges,
    diameter,
    disjoint_union,
    is_hamilton_cycle,
    path_graph,
    petersen_graph,
    star_graph,
)
from hamcover.cover import greedy_maximal_matching
from hamcover.oracle import exhaustive_expansion_check, held_karp_hamiltonian, validate_cover
from hamcover.rotation import RotationConstraints, find_hamilton_cycle


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rnd = random.Random(10001)
    checked = hamiltonian = non_hamiltonian = 0
    for trial in range(500):
        n = rnd.randint(6, 12)
        p = rnd.choice([0.3, 0.5, 0.7])
        G = sample_gnp(n, p, RngSeed(1000, trial))
        verdict = held_karp_hamiltonian(G)
        assert verdict.decided
        res = find_hamilton_cycle(G)
        if res.ok:
            assert is_hamilton_cycle(G, res.cycle), f"invalid cycle on trial {trial}"
            assert verdict.value, f"engine fabricated a cycle on trial {trial}"
        if verdict.value is False:
            non_hamiltonian += 1
            assert not res.ok, f"engine claimed a cycle the oracle refutes (trial {trial})"
        else:
            hamiltonian += 1
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 500 and elapsed < 60
    _report(1, ok, f"{checked} instances ({hamiltonian} hamiltonian, "
                   f"{non_hamiltonian} not), engine sound on all, {elapsed:.1f}s < 60s")


def test_criterion_2_locked_edge_preservation():
    t0 = time.perf_counter()
    rnd = random.Random(20002)
    returned = 0
    for trial in range(200):
        G = sample_gnp(64, 0.3, RngSeed(2000, trial))
        edges = sorted(G.edges())
        rnd.shuffle(edges)
        F = set()
        touched = set()
        for u, v in edges:
            if len(F) >= rnd.randint(0, 4):
                break
            if u not in touched and v not in touched:
                F.add((u, v))
                touched.update((u, v))
        cons = RotationConstraints(locked=frozenset(F), soft=frozenset(F))
        # record() raises on any locked break, so completing the
        # search at all certifies zero locked edges were ever broken
        res = find_hamilton_cycle(G, cons)
        if res.ok:
            returned += 1
            assert frozenset(F) <= cycle_edges(res.cycle), \
                f"trial {trial}: returned cycle misses locked edges"
        assert cons.soft_breaks <= cons.rotations + cons.absorptions
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30 and returned >= 150
    _report(2, ok, f"200 runs, {returned} cycles returned, every one contains its "
                   f"locked matching, zero locked breaks, {elapsed:.1f}s < 30s")


def test_criterion_3_extension_accounting():
    rnd = random.Random(30003)
    sequences = 0
    trial = 0
    while sequences < 1000:
        trial += 1
        n = rnd.randint(6, 64)
        p = rnd.choice([0.1, 0.25, 0.5, 0.8])
        G = sample_gnp(n, p, RngSeed(3000, trial))
        M = greedy_maximal_matching(G)
        if not M:
            continue
        if trial % 3 == 0 and len(M) >= 1:
            # full merge driver (a k = 1 round, then lossy rounds at deep ends)
            out = merge_into_single_path(G, M, alpha=rnd.choice([0.2, 0.4, 0.8]))
            for b in out.budgets:
                assert b.lost <= 2 * (b.k - 1) * b.mu
                assert b.gained <= (b.d + 2) * b.mu
        else:
            fam = PathFamily(list(M))
            budget = ExtensionBudget(d=rnd.randint(0, 5), k=rnd.randint(1, 4))
            # reduce_family asserts both inequalities after every single move
            fam2 = reduce_family(G, fam, budget)
            assert budget.lost <= 2 * (budget.k - 1) * budget.mu
            assert budget.gained <= (budget.d + 2) * budget.mu
            assert len(fam2.paths) <= len(fam.paths)
        sequences += 1
    ok = sequences == 1000
    _report(3, ok, f"{sequences} fuzzed reduce/merge sequences, both budget "
                   f"inequalities held after every step")


def test_criterion_4_walecki_fixture():
    t0 = time.perf_counter()
    sizes = {}
    for n in (5, 7, 9):
        out = cover_graph(complete_graph(n), alpha=0.5)
        assert out.ok, f"K{n} cover failed: {out.failure_detail}"
        assert validate_cover(complete_graph(n), out.certificate.cycles).ok
        assert out.certificate.cover_size <= n - 1  # Delta(K_n)
        sizes[n] = out.certificate.cover_size
    elapsed = time.perf_counter() - t0
    ok = sizes[5] == 2 and elapsed < 5
    _report(4, ok, f"K5={sizes[5]} (=ceil(Delta/2), the decomposition size), "
                   f"K7={sizes[7]}, K9={sizes[9]} (<= Delta), {elapsed:.2f}s < 5s")


def test_criterion_5_cover_validity_and_lower_bound():
    t0 = time.perf_counter()
    completed = 0
    runs = []
    for n, p in ((128, 0.3), (256, 0.5)):
        for stream in range(10):
            G = sample_gnp(n, p, RngSeed(5000, stream))
            out = cover_graph(G, alpha=math.log((n * p) ** 0.2) / math.log(n))
            if not out.ok:
                runs.append((n, stream, "failed"))
                continue
            completed += 1
            cert = out.certificate
            assert validate_cover(G, cert.cycles).ok, f"G({n},{p}) stream {stream} invalid"
            lower = math.ceil(G.max_degree() / 2)
            assert cert.cover_size >= lower
            runs.append((n, stream, cert.cover_size))
    elapsed = time.perf_counter() - t0
    ok = completed >= 18 and elapsed < 300
    _report(5, ok, f"{completed}/20 runs completed, all certificates valid and "
                   f">= ceil(Delta/2), {elapsed:.1f}s < 300s")


def test_criterion_6_empirical_ratio():
    t0 = time.perf_counter()
    reports = run_gnp_experiment(512, 0.25, seeds=list(range(10)), base_seed=6000)
    elapsed = time.perf_counter() - t0
    ratios = []
    for r in reports:
        assert r.valid, f"stream {r.stream} failed: {r.error}"
        assert r.ratio > 0
        ratios.append(r.ratio)
        print(f"  stream {r.stream}: h={r.h} cover={r.cover_size} ratio={r.ratio:.3f}")
    worst = max(ratios)
    if worst > 2.5:
        print(f"  soft gate exceeded: max ratio {worst:.3f} > 2.5")
    ok = len(ratios) == 10 and elapsed < 600 and worst <= 2.5
    _report(6, ok, f"10 valid certificates, ratios {min(ratios):.2f}..{worst:.2f} "
                   f"(soft gate 2.5), {elapsed:.1f}s < 600s")


def _corpus():
    """300 graphs with n <= 14: fixtures plus seeded G(n,p) samples."""
    graphs = [
        complete_graph(6), complete_graph(8), complete_graph(14),
        cycle_graph(5), cycle_graph(8), cycle_graph(14),
        path_graph(10), star_graph(9), petersen_graph(),
        disjoint_union(cycle_graph(3), cycle_graph(3)),
        disjoint_union(complete_graph(5), complete_graph(5)),
        build_graph(6, [(0, 1), (2, 3), (4, 5)]),
        build_graph(8, [(u, v) for u in range(4) for v in range(4, 8)]),  # K_{4,4}
    ]
    rnd = random.Random(70007)
    trial = 0
    while len(graphs) < 300:
        n = rnd.randint(5, 14)
        p = rnd.choice([0.15, 0.3, 0.45, 0.6, 0.8])
        graphs.append(sample_gnp(n, p, RngSeed(7000, trial)))
        trial += 1
    return graphs


PARAM_COMBOS = [(1.5, 2.0, 2.0), (2.0, 2.0, 3.0), (2.0, 3.0, 4.0), (3.0, 1.0, 3.0)]


def test_criterion_7_sampled_vs_exhaustive_expansion():
    corpus = _corpus()
    contradictions = 0
    checks = 0
    for idx, G in enumerate(corpus):
        for s, g, l in PARAM_COMBOS:
            ex_s, ex_l = exhaustive_expansion_check(G, s, g, l)
            r_s = small_expansion_witness_search(G, s, g, seed=RngSeed(71, idx))
            r_l = large_expansion_witness_search(G, l, seed=RngSeed(72, idx))
            checks += 1
            if r_s.verdict == "violated" and ex_s.holds:
                contradictions += 1
            if r_s.verdict == "holds" and not ex_s.holds:
                contradictions += 1
            if r_l.verdict == "violated" and ex_l.holds:
                contradictions += 1
            if r_l.verdict == "holds" and not ex_l.holds:
                contradictions += 1
    ok = contradictions == 0 and len(corpus) == 300
    _report(7, ok, f"{len(corpus)} graphs x {len(PARAM_COMBOS)} parameter combos "
                   f"({checks} checks), sampled and exhaustive verdicts never contradict")


def test_criterion_8_diameter_observation():
    corpus = _corpus()
    certified = 0
    for G in corpus:
        if G.n < 2:
            continue
        for s, g, l in PARAM_COMBOS:
            if s <= 1 or l > s * g:
                continue
            ex_s, ex_l = exhaustive_expansion_check(G, s, g, l)
            if not (ex_s.holds and ex_l.holds):
                continue
            certified += 1
            bound = 2 * math.log(G.n) / math.log(s) + 3
            d = diameter(G)
            assert d <= bound, f"diameter {d} exceeds bound {bound:.2f} on certified graph"
    ok = certified >= 30
    _report(8, ok, f"{certified} certified (graph, params) pairs all satisfy "
                   f"diam <= 2 ln n / ln s + 3")


def test_criterion_9_edge_coloring():
    rnd = random.Random(90009)
    for trial in range(200):
        n = rnd.randint(3, 48)
        p = rnd.choice([0.1, 0.3, 0.5, 0.8])
        G = sample_gnp(n, p, RngSeed(9000, trial))
        classes = greedy_edge_coloring(G)
        union = set()
        for cls in classes:
            touched = set()
            for u, v in cls:
                assert u not in touched and v not in touched, "class is not a matching"
                touched.update((u, v))
            union |= cls
        assert union == set(G.edges()), "classes do not cover the edge set"
        if G.m:
            assert len(classes) <= 2 * G.max_degree() - 1
    _report(9, True, "200 random graphs: every class a matching, count <= 2*Delta-1, "
                     "union is the whole edge set")


def test_criterion_10_determinism(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    cli_main(["gen", "--n", "48", "--p", "0.4", "--seed", "99", "--out", str(gpath)])

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items()
                    if k not in ("phase_timings_ms", "timings_ms")}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    outputs = {}
    for label, argv in {
        "check": ["check", "--graph", str(gpath), "--s", "2", "--trials", "100"],
        "cover": ["cover", "--graph", str(gpath), "--alpha", "0.4"],
    }.items():
        pair = []
        codes = []
        for _ in range(2):
            codes.append(cli_main(argv))
            out = capsys.readouterr().out
            pair.append(json.dumps(strip(json.loads(out)), sort_keys=True).encode())
        assert codes[0] == codes[1]
        outputs[label] = pair

    csvs = []
    for name in ("e1.csv", "e2.csv"):
        path = tmp_path / name
        code = cli_main(["experiment", "--n", "32", "--p", "0.5", "--seeds", "2",
                         "--seed", "77", "--jobs", "1", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        csvs.append(path.read_bytes())

    ok = all(a == b for a, b in outputs.values()) and csvs[0] == csvs[1]
    _report(10, ok, "check/cover JSON byte-identical modulo timing fields across "
                    "reruns; experiment CSV byte-identical")
