"""Seeded G(n,p) sampling and expander parameter bookkeeping.

All randomness comes from an explicit counter-based generator so that a
(base, stream) seed pair determines every sample bit-for-bit on any
platform. With M the splitmix64 finalizer and GAMMA = 0x9E3779B97F4A7C15:

    key    = M(base + (stream + 1) * GAMMA)
    draw_i = M(key + (i + 1) * GAMMA)          (64-bit, i = 0, 1, 2, ...)

and a uniform double in [0, 1) takes the top 53 bits of a draw. Pair i in
the lexicographic order of the C(n,2) vertex pairs is included iff its
uniform is < p; for n > 4096 the same stream drives geometric skip
sampling instead, which touches only O(m) draws.

Each draw is a pure function of its index, so both samplers draw the
stream in numpy blocks of consecutive indices. The dense sampler's blocks
are whole rows of the upper triangle, at most ``DRAW_BLOCK_PAIRS`` pairs
each (no single row is longer, since n <= 4096). Its scratch memory is
bounded by that cap, next to the n x n boolean matrix the graph's bitmask
rows are packed from. The skip sampler draws ``SKIP_BLOCK_DRAWS`` at a
time, since a sparse graph may use only a few.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .graph import Graph, build_graph, complete_graph

GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

# one uniform draw per pair up to this n, geometric skips above
DENSE_SAMPLING_LIMIT = 4096
# pairs per numpy draw block of the dense sampler: about 16 bytes of
# scratch per pair while a block is drawn, so 4 MB a block
DRAW_BLOCK_PAIRS = 1 << 18
# draws per numpy block of the skip sampler
SKIP_BLOCK_DRAWS = 1 << 12


def mix64(x: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _M1) & _MASK
    x = ((x ^ (x >> 27)) * _M2) & _MASK
    return x ^ (x >> 31)


def _mix64_inplace(x: np.ndarray) -> None:
    """splitmix64 finalizer on every entry of a uint64 array, in place."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(_M1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_M2)
    x ^= x >> np.uint64(31)


@dataclass(frozen=True)
class RngSeed:
    """Reproducibility handle: base seed plus a trial/stream index."""

    base: int
    stream: int = 0

    def key(self) -> int:
        return mix64((self.base + (self.stream + 1) * GAMMA) & _MASK)

    def draw(self, i: int) -> int:
        return mix64((self.key() + (i + 1) * GAMMA) & _MASK)

    def uniform(self, i: int) -> float:
        return (self.draw(i) >> 11) * 2.0 ** -53

    def python_rng(self) -> random.Random:
        """Mersenne Twister seeded from this stream's key, for auxiliary
        sampling (candidate sets, trial shapes). Graph bits never use it."""
        return random.Random(self.key())


def _uniform_block(seed: RngSeed, offset: int, count: int) -> np.ndarray:
    """``seed.uniform(i)`` for i = offset .. offset + count - 1, as float64."""
    x = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    x *= np.uint64(GAMMA)
    x += np.uint64(seed.key())
    _mix64_inplace(x)
    x >>= np.uint64(11)
    u = x.astype(np.float64)
    u *= 2.0 ** -53
    return u


def sample_gnp(n: int, p: float, seed: RngSeed) -> Graph:
    """Sample G(n,p): each vertex pair appears independently with probability p.

    Pair i of the lexicographic pair order is an edge iff
    ``seed.uniform(i) < p``, so identical (n, p, seed) always yields the
    identical graph. Up to n = ``DENSE_SAMPLING_LIMIT`` the uniforms are
    drawn in blocks of whole rows of at most ``DRAW_BLOCK_PAIRS`` pairs,
    and the hits fill an n x n boolean matrix (16 MB at n = 4096) that is
    packed into the bitmask rows. Above it, geometric skips walk the same
    stream in blocks of ``SKIP_BLOCK_DRAWS`` draws.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must be in [0,1], got {p}")
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    if p == 0.0 or n < 2:
        return build_graph(n, [])
    if p == 1.0:
        return complete_graph(n)
    if n <= DENSE_SAMPLING_LIMIT:
        return _sample_gnp_dense(n, p, seed)
    return _sample_gnp_sparse(n, p, seed)


def _sample_gnp_dense(n: int, p: float, seed: RngSeed) -> Graph:
    # row-major order of the strict upper triangle is the lexicographic pair
    # order, so a block of whole rows r0 .. r1 - 1 is one contiguous range of
    # the stream, and np.triu with offset 1 marks its pairs in order within
    # the block's columns r0 .. n - 1
    adj = np.zeros((n, n), dtype=bool)
    m = 0
    offset = 0  # stream index of the pair (r0, r0 + 1)
    r0 = 0
    while r0 < n - 1:
        r1, count = r0 + 1, n - 1 - r0
        while r1 < n - 1 and count + n - 1 - r1 <= DRAW_BLOCK_PAIRS:
            count += n - 1 - r1
            r1 += 1
        hits = _uniform_block(seed, offset, count) < p
        pairs = np.triu(np.ones((r1 - r0, n - r0), dtype=bool), 1)
        adj[r0:r1, r0:][pairs] = hits
        adj.T[r0:r1, r0:][pairs] = hits  # the symmetric entries
        m += int(np.count_nonzero(hits))
        offset += count
        r0 = r1
    packed = np.packbits(adj, axis=1, bitorder="little").tobytes()
    width = (n + 7) // 8
    rows = tuple(int.from_bytes(packed[i:i + width], "little")
                 for i in range(0, n * width, width))
    return Graph(n, rows, m)


def _sample_gnp_sparse(n: int, p: float, seed: RngSeed) -> Graph:
    # geometric skips over the lexicographic pair stream; O(m) expected draws.
    # The skip stays in scalar math.log: np.log may differ in the last ulp,
    # which would move edges.
    total = n * (n - 1) // 2
    log1mp = math.log1p(-p)
    bits = [0] * n
    m = 0
    pos = -1
    u, row_end = 0, n - 1  # row u holds the pairs before row_end
    offset = 0
    while True:
        for u01 in _uniform_block(seed, offset, SKIP_BLOCK_DRAWS).tolist():
            skip = math.log(max(1.0 - u01, 5e-324)) / log1mp
            if skip >= total - 1 - pos:  # past the last pair; may be inf
                return Graph(n, tuple(bits), m)
            pos += 1 + int(skip)
            while pos >= row_end:
                u += 1
                row_end += n - 1 - u
            v = pos - row_end + n
            bits[u] |= 1 << v
            bits[v] |= 1 << u
            m += 1
        offset += SKIP_BLOCK_DRAWS


@dataclass(frozen=True)
class ExpanderParams:
    """Parameter bundle (s, g, l, alpha) for the canonical expander profile
    on n vertices: expansion factor s, boundary g = 4n*ln(s)/(s*ln(n)),
    frame l = n*ln(s)/(3000*ln(n)), and alpha = ln(s)/ln(n).

    g and l hold the exact formula values; `frame_clamped` floors l at 1
    for use at small n, where `asymptotic_regime` is False.
    """

    n: int
    s: float
    g: float
    l: float
    alpha: float

    @property
    def frame_clamped(self) -> float:
        return max(self.l, 1.0)

    @property
    def asymptotic_regime(self) -> bool:
        return self.l >= 1.0

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "s": self.s,
            "g": self.g,
            "l": self.l,
            "alpha": self.alpha,
            "asymptotic_regime": self.asymptotic_regime,
        }


def expander_params(n: int, s: float) -> ExpanderParams:
    """Boundary/frame/alpha for expansion factor s on n vertices.
    Raises ValueError unless n >= 2 and 1 < s < inf."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1.0 < s < math.inf:  # False for nan
        raise ValueError(f"expansion factor s must satisfy 1 < s < inf, got {s}")
    ln_n = math.log(n)
    ln_s = math.log(s)
    g = 4.0 * n * ln_s / (s * ln_n)
    l = n * ln_s / (3000.0 * ln_n)
    return ExpanderParams(n=n, s=s, g=g, l=l, alpha=ln_s / ln_n)


def expander_params_for_gnp(n: int, p: float) -> ExpanderParams:
    """Canonical parameters for a G(n,p) sample: s = (n*p)^(1/5)."""
    if n * p <= 1.0:
        raise ValueError(f"need n*p > 1 for meaningful expansion, got n*p={n * p}")
    return expander_params(n, (n * p) ** 0.2)
