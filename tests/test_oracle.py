import dataclasses
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamcover.cover import CoverCertificate, cover_graph
from hamcover.gnp import RngSeed, expander_params_for_gnp, sample_gnp
from hamcover.graph import (
    Edge,
    Graph,
    build_graph,
    complete_graph,
    cycle_edges,
    cycle_graph,
    disjoint_union,
    edge_key,
    is_hamilton_cycle,
    path_graph,
    petersen_graph,
)
from hamcover.oracle import (
    CHUNK,
    CoverValidation,
    EdgeCounts,
    backtracking_hamiltonian,
    exhaustive_expansion_check,
    held_karp_hamiltonian,
    validate_cover,
    validate_family,
)


def test_held_karp_complete_graph():
    v = held_karp_hamiltonian(complete_graph(4))
    assert v.decided and v.value
    assert v.witness == (0, 1, 2, 3)


def test_held_karp_petersen_not_hamiltonian():
    v = held_karp_hamiltonian(petersen_graph())
    assert v.decided and v.value is False
    w = backtracking_hamiltonian(petersen_graph())
    assert w.decided and w.value is False


def test_held_karp_path_graph():
    v = held_karp_hamiltonian(path_graph(5))
    assert v.decided and v.value is False
    # too few vertices for a cycle, and a degree-1 vertex (K4 with a pendant 4)
    pendant = build_graph(5, [*complete_graph(4).edges(), (3, 4)])
    for G in (complete_graph(2), build_graph(1, []), pendant, path_graph(5)):
        for oracle in (held_karp_hamiltonian, backtracking_hamiltonian):
            v = oracle(G)
            assert (v.decided, v.value, v.witness) == (True, False, None), (G.n, oracle)


def test_held_karp_refuses_large():
    v = held_karp_hamiltonian(complete_graph(21))
    assert not v.decided


def test_witness_is_lex_min_and_valid():
    G = cycle_graph(6)
    v = held_karp_hamiltonian(G)
    assert v.witness == (0, 1, 2, 3, 4, 5)
    assert is_hamilton_cycle(G, v.witness)
    w = backtracking_hamiltonian(G)
    assert w.witness == v.witness


def test_dual_oracle_agreement_fuzz():
    # two independent implementations must agree everywhere they both run
    rnd = random.Random(2024)
    for trial in range(500):
        n = rnd.randint(4, 10)
        p = rnd.choice([0.2, 0.35, 0.5, 0.65, 0.8])
        G = sample_gnp(n, p, RngSeed(555, trial))
        a = held_karp_hamiltonian(G)
        b = backtracking_hamiltonian(G)
        assert a.decided and b.decided
        assert a.value == b.value, f"oracles disagree on trial {trial}"
        if a.value:
            assert is_hamilton_cycle(G, a.witness)
            assert a.witness == b.witness


def test_exhaustive_small_property():
    s, _ = exhaustive_expansion_check(complete_graph(6), 2, 2, 2)
    assert s.holds
    s, _ = exhaustive_expansion_check(cycle_graph(6), 2, 2, 2)
    assert not s.holds
    assert s.witness == (0, 1)  # minimal witness: two adjacent vertices


def test_exhaustive_large_property():
    tt = disjoint_union(cycle_graph(3), cycle_graph(3))
    _, l = exhaustive_expansion_check(tt, 2, 1, 3)
    assert not l.holds
    assert l.witness == ((0, 1, 2), (3, 4, 5))


def test_exhaustive_vacuous_frame():
    _, l = exhaustive_expansion_check(cycle_graph(5), 2, 2, 3)
    assert l.holds and l.vacuous


def test_exhaustive_refuses_large_n():
    with pytest.raises(ValueError):
        exhaustive_expansion_check(complete_graph(17), 2, 2, 2)


def test_exhaustive_refuses_a_non_finite_boundary_or_a_bad_frame():
    # l = 0 used to pass: the pair search appended to B before comparing
    # its size with c = 0, and so returned every vertex as B
    G = cycle_graph(6)
    # the oracle refuses exactly the s the sampled search refuses
    for s in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="expansion factor s must be finite"):
            exhaustive_expansion_check(G, s, 2, 2)
    for g in (math.inf, math.nan):
        with pytest.raises(ValueError, match="boundary g must be finite"):
            exhaustive_expansion_check(G, 2, g, 2)
    for l in (0, -3, math.inf, math.nan):
        with pytest.raises(ValueError, match="frame l must satisfy 0 < l < inf"):
            exhaustive_expansion_check(G, 2, 2, l)
    small, _ = exhaustive_expansion_check(G, 2, 0, 2)
    assert small.holds


def test_validate_cover_walecki():
    K5 = complete_graph(5)
    ok = validate_cover(K5, [(0, 1, 2, 3, 4), (0, 2, 4, 1, 3)])
    assert ok.ok and ok.min_coverage == 1 and len(ok.coverage) == 10

    partial = validate_cover(K5, [(0, 1, 2, 3, 4)])
    assert not partial.ok and len(partial.uncovered) == 5

    empty = validate_cover(K5, [])
    assert not empty.ok


def test_validate_cover_rejects_bad_cycles():
    K5 = complete_graph(5)
    r = validate_cover(K5, [(0, 1, 2, 3, 3)])
    assert not r.ok and r.bad_cycle == 0
    r = validate_cover(cycle_graph(5), [(0, 1, 3, 2, 4)])
    assert not r.ok and r.bad_cycle == 0


def _reference_validate_cover(G: Graph, cycles: list[tuple[int, ...]]) -> CoverValidation:
    # validate_cover as it was written before the numpy rewrite, one cycle at a
    # time in pure Python; kept verbatim as the reference the rewrite must match
    """Check every cycle is a Hamilton cycle of G and every edge is covered."""
    coverage: dict[Edge, int] = {e: 0 for e in G.edges()}
    bad = None
    for idx, cyc in enumerate(cycles):
        vs = list(cyc)
        if len(vs) != G.n or set(vs) != set(range(G.n)) or G.n < 3:
            bad = idx
            break
        valid = True
        for i in range(len(vs)):
            u, v = vs[i], vs[(i + 1) % len(vs)]
            if not G.has_edge(u, v):
                valid = False
                break
        if not valid:
            bad = idx
            break
        for i in range(len(vs)):
            coverage[edge_key(vs[i], vs[(i + 1) % len(vs)])] += 1
    uncovered = [e for e, c in sorted(coverage.items()) if c == 0]
    ok = bad is None and not uncovered
    return CoverValidation(ok=ok, n_cycles=len(cycles), bad_cycle=bad,
                           coverage=coverage, uncovered=uncovered)


def _assert_matches_reference(G, cycles):
    got = validate_cover(G, cycles)
    want = _reference_validate_cover(G, cycles)
    assert (got.ok, got.n_cycles, got.bad_cycle) == (want.ok, want.n_cycles, want.bad_cycle)
    assert got.uncovered == want.uncovered
    # the order of the items counts too: certificates serialise coverage as it is
    assert list(got.coverage.items()) == list(want.coverage.items())
    assert all(type(u) is int and type(v) is int and type(c) is int
               for (u, v), c in got.coverage.items())
    assert all(type(u) is int and type(v) is int for u, v in got.uncovered)
    return got


def _pipeline_certificates():
    certs = []
    for n, p, stream in [(12, 0.6, 0), (16, 0.5, 1), (24, 0.4, 2), (32, 0.3, 3)]:
        G = sample_gnp(n, p, RngSeed(4100, stream))
        out = cover_graph(G, alpha=expander_params_for_gnp(n, p).alpha)
        if out.ok:
            certs.append((G, out.certificate))
    assert len(certs) >= 3
    return certs


def _pipeline_covers():
    return [(G, list(cert.cycles)) for G, cert in _pipeline_certificates()]


def test_validate_cover_matches_reference_on_pipeline_covers():
    for G, cycles in _pipeline_covers():
        n = G.n
        assert _assert_matches_reference(G, cycles).ok
        # a dropped cycle leaves edges uncovered
        _assert_matches_reference(G, cycles[1:])
        _assert_matches_reference(G, cycles[:-1])
        # a bad cycle after good ones: coverage counts only the cycles before it
        first = list(cycles[0])
        for bad in (
            tuple(first[:-1]),                          # wrong length
            tuple(first + [0]),                         # wrong length
            tuple(first[:-1] + [first[0]]),             # repeated vertex
            tuple(first[:-1] + [-1]),                   # below range
            tuple(first[:-1] + [n]),                    # above range
            tuple(first[:-1] + [2 ** 70]),              # beyond int64
            tuple(first[1:2] + first[0:1] + first[2:]),  # swapped pair, likely a non-edge
        ):
            for at in (0, 1, len(cycles)):
                r = _assert_matches_reference(G, cycles[:at] + [bad] + cycles[at:])
                assert r.bad_cycle == (None if is_hamilton_cycle(G, bad) else at)
        r = _assert_matches_reference(G, [cycles[0], cycles[0], cycles[1]])
        assert r.coverage[edge_key(first[0], first[1])] >= 2


def test_validate_cover_matches_reference_on_edge_cases():
    K5 = complete_graph(5)
    C5 = cycle_graph(5)
    cases = [
        (K5, []),
        (K5, [(0, 1, 2, 3, 4), (0, 2, 4, 1, 3)]),
        (K5, [(0, 1, 2, 3, 4)]),
        (K5, [(0, 1, 2, 3, 3)]),
        (K5, [(0, 1, 2, 3, -1)]),
        (K5, [(0, 1, 2, 3, 5)]),
        (K5, [(0, 1, 2, 3, 2 ** 70)]),
        (K5, [(0, 1, 2, 3, 4), (0, 2, 4, 1, 2 ** 70)]),
        (K5, [(0, 1, 2, 3.5, 4)]),                   # a float that int64 would truncate to 3
        (C5, [(0, 1, 2, 3, 4), (0, 1, 3, 2, 4)]),    # non-edge pair (1, 3) after a good cycle
        (build_graph(2, [(0, 1)]), [(0, 1)]),        # K2: too small for a Hamilton cycle
        (build_graph(2, [(0, 1)]), []),
        (build_graph(4, []), []),                    # no edges
        (build_graph(4, []), [(0, 1, 2, 3)]),
        (build_graph(0, []), []),
    ]
    for G, cycles in cases:
        _assert_matches_reference(G, cycles)
    assert validate_cover(K5, [(0, 1, 2, 3, 2 ** 70)]).bad_cycle == 0
    assert validate_cover(K5, [(0, 1, 2, 3.5, 4)]).bad_cycle == 0
    assert validate_cover(build_graph(2, [(0, 1)]), [(0, 1)]).bad_cycle == 0
    assert validate_cover(build_graph(4, []), []).ok


def _assert_counts_read_like(G, got, want: dict):
    assert isinstance(got, EdgeCounts)
    for e, c in want.items():
        assert got[e] == c and type(got[e]) is int
        assert e in got and got.get(e) == c
    n = G.n
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not G.has_edge(u, v)]
    # (u - 1, v + n) has the row-major code of the edge (u, v)
    aliases = [(u - 1, v + n) for u, v in want][:20]
    for key in [(v, u) for u, v in want] + non_edges[:20] + aliases + [
            (-1, 0), (0, n), (n, n + 1), (0, 0), (0, 2 ** 70), (0.5, 1), "ab", (0, 1, 2), 7]:
        with pytest.raises(KeyError):
            got[key]
        assert key not in got
    assert len(got) == len(want) == G.m
    assert got == want and want == got
    assert list(got) == list(want) == list(G.edges())
    assert list(got.values()) == list(want.values())
    assert got.min_coverage == min(want.values(), default=0)


def test_edge_counts_read_like_the_reference_dict():
    for G, cert in _pipeline_certificates():
        cycles = list(cert.cycles)
        for cs in (cycles, cycles[1:], cycles[:1], [], cycles[:1] + [(0,) * G.n] + cycles):
            got = validate_cover(G, cs)
            want = _reference_validate_cover(G, cs).coverage
            _assert_counts_read_like(G, got.coverage, want)
            assert got.min_coverage == min(want.values(), default=0)
        # the certificate keeps the validation's counts and reads its minimum
        want = _reference_validate_cover(G, cycles).coverage
        _assert_counts_read_like(G, cert.coverage, want)
        assert cert.min_coverage() == min(want.values()) >= 1
        # a record, so a tampered copy is one replace away
        short = dataclasses.replace(cert, cycles=cycles[1:])
        assert short.cycles == cycles[1:] and short.coverage is cert.coverage
        assert short.h == cert.h and short.cover_size == cert.cover_size - 1


def test_edge_counts_edge_cases():
    K5 = complete_graph(5)
    for G, cycles in [
        (build_graph(4, []), []),                    # m = 0
        (build_graph(0, []), []),
        (K5, []),                                    # every edge uncovered
        (K5, [(0, 1, 2, 3, 3)]),                     # a bad first cycle counts nothing
        (K5, [(0, 1, 2, 3, 4), (0, 2, 4, 1, 3)]),
    ]:
        got = validate_cover(G, cycles)
        want = _reference_validate_cover(G, cycles).coverage
        _assert_counts_read_like(G, got.coverage, want)
        cert = CoverCertificate(cycles=cycles, coverage=got.coverage, h=0)
        assert got.min_coverage == cert.min_coverage() == min(want.values(), default=0)
    assert validate_cover(K5, []).min_coverage == 0
    assert validate_cover(K5, [(0, 1, 2, 3, 4), (0, 2, 4, 1, 3)]).min_coverage == 1
    empty = EdgeCounts()
    assert len(empty) == 0 and empty == {} and empty.min_coverage == 0
    assert CoverValidation(ok=True, n_cycles=0).coverage == {}


def test_validate_cover_counts_across_chunks():
    # validate_cover checks and counts CHUNK cycles at a time: a bad cycle
    # at either side of a chunk boundary stops the count there, and every
    # chunk before it adds to the counts
    rnd = random.Random(32)
    G = complete_graph(10).remove_edges([(0, 1), (2, 5), (3, 7), (4, 9)])
    good = []
    while len(good) < 3 * CHUNK + 5:
        perm = tuple(rnd.sample(range(10), 10))
        if is_hamilton_cycle(G, perm):
            good.append(perm)
    non_edge = tuple(range(10))  # (0, 1) is not an edge of G
    for cycles in (good, good[:CHUNK], good[:2 * CHUNK], good[:CHUNK + 1]):
        assert _assert_matches_reference(G, cycles).ok
    for at in (0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, len(good)):
        for bad in (non_edge, good[0][:-1] + good[0][:1], good[0][:-1]):
            r = _assert_matches_reference(G, good[:at] + [bad] + good[at:])
            assert r.bad_cycle == at


def _held_validation_bytes_per_edge() -> float:
    """Bytes that the validations of 20 G(128, 0.3) covers hold, per edge."""
    alpha = expander_params_for_gnp(128, 0.3).alpha
    cases = []
    for i in range(20):
        G = sample_gnp(128, 0.3, RngSeed(7100, i))
        out = cover_graph(G, alpha=alpha)
        assert out.ok
        cases.append((G, out.certificate.cycles))
    m = sum(G.m for G, _ in cases)
    validate_cover(*cases[0])  # any one-time set-up is not the validations' to hold
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = [validate_cover(G, cycles) for G, cycles in cases]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert all(v.ok for v in held)
    return retained / m


def test_held_validations_keep_under_32_bytes_per_edge():
    # a dict of m (u, v) tuple keys holds about 84 bytes per edge
    assert _held_validation_bytes_per_edge() < 32


def test_held_validations_keep_under_4_bytes_per_edge():
    # codes below 2^16 and counts below 2^8 take 3 bytes per edge; two
    # int64 arrays took 16
    assert _held_validation_bytes_per_edge() < 4


def test_narrow_counts_do_not_wrap():
    K5 = complete_graph(5)
    c = (0, 1, 2, 3, 4)
    # 300 cycles need two bytes per count: one would wrap round to 44
    got = _assert_matches_reference(K5, [c] * 300).coverage
    assert all(got[e] == (300 if e in cycle_edges(c) else 0) for e in K5.edges())


@pytest.mark.parametrize("n", [256, 257])
def test_narrow_codes_reach_the_last_edge(n):
    # n = 256 has codes up to 65535, the top of two bytes; n = 257 needs four
    G = cycle_graph(n)
    c = tuple(range(n))
    got = _assert_matches_reference(G, [c, c[::-1], c]).coverage
    assert got[(n - 2, n - 1)] == got[(0, n - 1)] == 3


@st.composite
def graphs_and_cycle_lists(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    vertex = st.one_of(st.integers(min_value=-1, max_value=n),
                       st.just(2 ** 70), st.just(-(2 ** 70)))
    cycle = st.one_of(
        st.permutations(list(range(n))),
        st.lists(vertex, min_size=max(n - 1, 1), max_size=n + 1),
    )
    cycles = draw(st.lists(cycle.map(tuple), max_size=5))
    return build_graph(n, edges), cycles


@given(graphs_and_cycle_lists())
@settings(max_examples=300, deadline=None)
def test_validate_cover_matches_reference_on_random_lists(case):
    G, cycles = case
    _assert_matches_reference(G, cycles)


def test_validate_family():
    K4 = complete_graph(4)
    assert validate_family(K4, [(0, 1), (2, 3)]).ok
    bad = validate_family(K4, [(0, 1), (1, 2)])
    assert not bad.ok and "shared" in bad.violation
    bad = validate_family(cycle_graph(5), [(0, 1, 2), (2, 3)])
    assert not bad.ok
    bad = validate_family(K4, [(0,)])
    assert not bad.ok and "trivial" in bad.violation
    bad = validate_family(cycle_graph(5), [(0, 2)])
    assert not bad.ok and "missing edge" in bad.violation
    bad = validate_family(cycle_graph(5), [(0, 1, 0)])
    assert not bad.ok and bad.violation == "repeated vertex inside [0, 1, 0]"
    for v in (-1, 5):
        bad = validate_family(cycle_graph(5), [(4, v)])
        assert not bad.ok and bad.violation == f"vertex {v} out of range"


def test_validate_family_accepts_matching_as_edges():
    G = build_graph(6, [(0, 1), (2, 3), (4, 5)])
    assert validate_family(G, {(0, 1), (2, 3), (4, 5)}).ok
