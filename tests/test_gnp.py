import bisect
import hashlib
import math

import numpy as np
import pytest

from hamcover import gnp
from hamcover.gnp import (
    DRAW_BLOCK_PAIRS,
    RngSeed,
    _uniform_block,
    expander_params,
    expander_params_for_gnp,
    mix64,
    sample_gnp,
)
from hamcover.graph import build_graph, format_edge_list


def test_p_zero_and_one():
    assert sample_gnp(10, 0.0, RngSeed(1)).m == 0
    G = sample_gnp(10, 1.0, RngSeed(1))
    assert G.m == 45
    for n in range(7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert_same_graph(sample_gnp(n, 1.0, RngSeed(1)), n, pairs)


def test_rejects_bad_p():
    with pytest.raises(ValueError):
        sample_gnp(10, 1.5, RngSeed(0))
    with pytest.raises(ValueError):
        sample_gnp(10, -0.1, RngSeed(0))


def test_determinism_byte_identical():
    a = sample_gnp(64, 0.37, RngSeed(123, 4))
    b = sample_gnp(64, 0.37, RngSeed(123, 4))
    assert format_edge_list(a) == format_edge_list(b)
    c = sample_gnp(64, 0.37, RngSeed(123, 5))
    assert a != c  # distinct streams give distinct graphs


def test_mix64_known_vector():
    # splitmix64 of state 0 after one gamma advance, a standard test value
    assert mix64(0x9E3779B97F4A7C15) == 0xE220A8397B1DCDAF


def test_edge_count_within_four_sigma():
    total = 1000 * 999 // 2
    mean = total * 0.5
    sigma = math.sqrt(total * 0.25)
    G = sample_gnp(1000, 0.5, RngSeed(7))
    assert abs(G.m - mean) <= 4 * sigma


def test_edge_count_mean_over_streams():
    # 200 streams at (n=256, p=0.3): sample mean within 3 standard errors
    total = 256 * 255 // 2
    mean = total * 0.3
    se = math.sqrt(total * 0.3 * 0.7) / math.sqrt(200)
    ms = [sample_gnp(256, 0.3, RngSeed(99, s)).m for s in range(200)]
    assert abs(sum(ms) / 200 - mean) <= 3 * se


def test_sparse_sampler_matches_regime_statistics():
    # geometric-skip path (n > 4096): statistical sanity only
    G = sample_gnp(5000, 0.0005, RngSeed(3))
    total = 5000 * 4999 // 2
    mean = total * 0.0005
    sigma = math.sqrt(mean)
    assert abs(G.m - mean) <= 5 * sigma
    G2 = sample_gnp(5000, 0.0005, RngSeed(3))
    assert G == G2


def test_sparse_sampler_pair_stream_order():
    # the skip sampler walks the lexicographic pair stream; emitted edges
    # must be valid, distinct, and lexicographically increasing
    G = sample_gnp(4097, 0.0004, RngSeed(14))
    edges = list(G.edges())
    assert edges == sorted(set(edges))
    assert all(0 <= u < v < 4097 for u, v in edges)
    assert G.m > 0


def assert_same_graph(G, n, edges):
    # equal rows and an equal edge count, as build_graph would give
    want = build_graph(n, edges)
    assert G == want
    assert G.m == want.m == len(edges)


def test_dense_sampler_matches_its_definition():
    # pair i, in lexicographic order, is an edge iff seed.uniform(i) < p
    for n in (2, 3, 17, 64):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for p in (0.001, 0.37, 0.999):
            for seed in (RngSeed(0), RngSeed(5, 1), RngSeed(2**63, 17)):
                want = [e for i, e in enumerate(pairs) if seed.uniform(i) < p]
                assert_same_graph(sample_gnp(n, p, seed), n, want)


def test_uniform_block_matches_scalar_uniforms():
    # the block wraps its uint64 arithmetic as mix64 masks it, at any offset
    for seed in (RngSeed(0), RngSeed(2**64 - 1, 9)):
        for offset in (0, 2**32 - 3, 2**63 - 2):
            want = [seed.uniform(i) for i in range(offset, offset + 5)]
            assert _uniform_block(seed, offset, 5).tolist() == want


def per_row_reference(n, p, seed):
    # the plainest layout of the dense draws: one block per row
    edges = []
    offset = 0
    for u in range(n - 1):
        count = n - 1 - u
        for j in np.nonzero(_uniform_block(seed, offset, count) < p)[0]:
            edges.append((u, u + 1 + int(j)))
        offset += count
    return edges


def test_dense_sampler_matches_per_row_draws_across_blocks():
    n = 1500
    assert n * (n - 1) // 2 > DRAW_BLOCK_PAIRS  # more than one draw block
    for p, seed in ((0.1, RngSeed(7, 3)), (0.3, RngSeed(1))):
        assert_same_graph(sample_gnp(n, p, seed), n, per_row_reference(n, p, seed))


def test_dense_blocks_are_whole_rows_within_the_cap(monkeypatch):
    calls = []

    def recording(seed, offset, count):
        calls.append((offset, count))
        return _uniform_block(seed, offset, count)

    monkeypatch.setattr(gnp, "_uniform_block", recording)
    n = 3000
    sample_gnp(n, 0.2, RngSeed(4))
    row_starts = {u * (2 * n - u - 1) // 2 for u in range(n)}
    assert len(calls) > 1
    assert calls[0][0] == 0
    for (offset, count), (nxt, _) in zip(calls, calls[1:]):
        assert nxt == offset + count  # one contiguous walk of the stream
    assert sum(count for _, count in calls) == n * (n - 1) // 2
    for offset, count in calls:
        assert count <= DRAW_BLOCK_PAIRS
        assert offset in row_starts and offset + count in row_starts


def scalar_skip_reference(n, p, seed):
    # geometric skips with one seed.uniform call per draw
    total = n * (n - 1) // 2
    row_start = [0] * n
    for u in range(1, n):
        row_start[u] = row_start[u - 1] + (n - u)
    log1mp = math.log1p(-p)
    edges = []
    pos = -1
    i = 0
    while True:
        u01 = seed.uniform(i)
        i += 1
        pos += 1 + int(math.log(max(1.0 - u01, 5e-324)) / log1mp)
        if pos >= total:
            return edges
        u = bisect.bisect_right(row_start, pos) - 1
        edges.append((u, u + 1 + (pos - row_start[u])))


def test_sparse_sampler_matches_scalar_skips(monkeypatch):
    n = 4097
    for p, seed in ((0.0004, RngSeed(14)), (0.003, RngSeed(3, 2))):
        assert_same_graph(sample_gnp(n, p, seed), n, scalar_skip_reference(n, p, seed))
    # the skip path at small n, down to one pair; at p = 0.999 the walk
    # often takes the last pair and ends on a skip of less than one pair
    monkeypatch.setattr(gnp, "DENSE_SAMPLING_LIMIT", 1)
    for n in (2, 3, 17, 64):
        for p in (0.001, 0.37, 0.999):
            for seed in (RngSeed(0), RngSeed(5, 1), RngSeed(2**63, 17)):
                assert_same_graph(sample_gnp(n, p, seed), n, scalar_skip_reference(n, p, seed))


def test_sparse_sampler_accepts_subnormal_p():
    # the skip overflows to inf at these p; the walk ends instead of raising
    for p in (1e-310, 5e-324):
        G = sample_gnp(5000, p, RngSeed(3))
        assert G.n == 5000
        assert G.m == 0


@pytest.mark.parametrize("n, p, seed, digest", [
    (128, 0.3, RngSeed(1, 0),
     "c8038058a167a6fe884ff48d2b50830ff2151b36cb4bc6c970c579867e959300"),
    (256, 0.5, RngSeed(1, 0),
     "72ab6799e7c4d198c68bfacb86674a6a7d9fd3251bbe01c6a45fa77fccef5cf9"),
    (1500, 0.1, RngSeed(7, 3),
     "3683d4dcc493943469a827e59f5d52a850cf830e7f5c2a2deb089d5f08272a06"),
])
def test_sampled_graphs_are_pinned(n, p, seed, digest):
    text = format_edge_list(sample_gnp(n, p, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_params_exact_fifth_root():
    params = expander_params_for_gnp(1024, 1.0)
    assert math.isclose(params.s, 4.0, rel_tol=1e-12)
    # g = 4*1024*ln(4) / (4*ln(1024)) = 1024/5
    assert math.isclose(params.g, 204.8, rel_tol=1e-12)
    # l = 1024*ln(4) / (3000*ln(1024)) = 204.8/3000 < 1
    assert math.isclose(params.l, 204.8 / 3000.0, rel_tol=1e-12)
    assert not params.asymptotic_regime
    assert params.frame_clamped == 1.0


def test_params_reject_trivial_density():
    with pytest.raises(ValueError):
        expander_params_for_gnp(100, 0.005)


def test_params_refuse_a_bad_expansion_factor():
    # a NaN s used to pass the s <= 1 test and give a NaN boundary
    for s in (1.0, 0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="expansion factor s must satisfy 1 < s < inf"):
            expander_params(64, s)


def test_params_monotone_in_factor():
    # boundary shrinks and frame grows as s grows (for s at least e,
    # where ln(s)/s is decreasing)
    n = 4096
    prev = expander_params(n, 3.0)
    for s in (4.0, 6.0, 10.0, 20.0):
        cur = expander_params(n, s)
        assert cur.g < prev.g
        assert cur.l > prev.l
        prev = cur


def test_alpha_definition():
    params = expander_params(512, 8.0)
    assert math.isclose(params.alpha, math.log(8) / math.log(512))
    assert 0 < params.alpha <= 1
