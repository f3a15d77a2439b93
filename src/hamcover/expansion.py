"""Sampled certification and falsification of vertex-expansion properties.

The small property S(s, g) asks |N(A)| >= s*|A| for every set A of size at
most g; deciding it exactly is exponential in g, so this module is a
falsifier: it checks all singletons exactly, then throws randomized and
structured candidate sets at the graph. A "violated" verdict always carries
a witness that re-validates by direct neighborhood computation; "holds" is
only claimed when the candidate space was exhausted (g < 2, or vacuous
cases). Everything else stays "inconclusive" - exhaustive proofs for tiny n
live in the oracle module.

Also here: the diameter bound diam <= 2*ln(n)/ln(s) + 3 implied by the two
properties, and the degree-peeling routine that restores a well-expanding
remainder after deleting a vertex set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import (
    Graph,
    INFINITE,
    bfs_distances,
    diameter,
    iter_bits,
    mask_of,
    neighborhood_bits,
    set_of,
)
from .gnp import RngSeed

DEFAULT_TRIALS_PER_VERTEX = 10


@dataclass
class ExpansionReport:
    """Outcome of a witness search for one expansion property."""

    property: str                  # "S" or "L"
    params: dict
    verdict: str                   # "holds" | "violated" | "inconclusive"
    witness: tuple | None = None
    trials: int = 0
    note: str = ""

    def to_dict(self) -> dict:
        w = self.witness
        if w is not None and w and isinstance(w[0], tuple):
            w = [sorted(part) for part in w]
        elif w is not None:
            w = sorted(w)
        return {
            "property": self.property,
            "params": self.params,
            "verdict": self.verdict,
            "witness": w,
            "trials": self.trials,
            "note": self.note,
        }


def _violates_small(G: Graph, vertices: tuple[int, ...], s: float) -> bool:
    return neighborhood_bits(G, vertices).bit_count() < s * len(vertices)


def small_expansion_witness_search(G: Graph, s: float, g: float,
                                   trials: int | None = None,
                                   seed: RngSeed = RngSeed(0)) -> ExpansionReport:
    """Search for a set A, |A| <= g, with |N(A)| < s*|A|.

    Singletons are checked exhaustively; beyond that the search samples
    uniform random sets, BFS balls around low-degree vertices, and unions of
    low-degree vertices (the usual worst offenders). With g < 2 the
    singleton sweep is exhaustive, so "holds" can be claimed; otherwise a
    clean search ends "inconclusive". Raises ValueError unless s and g are
    finite.
    """
    if not -math.inf < s < math.inf:  # False for nan
        raise ValueError(f"expansion factor s must be finite, got {s}")
    if not -math.inf < g < math.inf:  # False for nan
        raise ValueError(f"boundary g must be finite, got {g}")
    n = G.n
    if trials is None:
        trials = DEFAULT_TRIALS_PER_VERTEX * n
    params = {"s": s, "g": g}
    report = ExpansionReport(property="S", params=params, verdict="inconclusive")
    if n == 0 or g < 1:
        report.verdict = "holds"
        report.note = "no nonempty candidate sets"
        return report

    # all singletons, exactly
    for v in range(n):
        if G.degree(v) < s:
            report.verdict = "violated"
            report.witness = (v,)
            report.note = "singleton violation"
            return report
    if g < 2:
        report.verdict = "holds"
        report.note = "singleton sweep exhausts all sets of size <= g"
        return report

    cap = min(int(g), n)
    if cap < 2:
        report.verdict = "holds"
        report.note = "singleton sweep exhausts all candidate sizes"
        return report
    by_degree = sorted(range(n), key=lambda v: (G.degree(v), v))

    candidates: list[tuple[int, ...]] = []
    # unions of low-degree vertices
    for k in range(2, cap + 1):
        candidates.append(tuple(sorted(by_degree[:k])))
    # BFS balls around the lowest-degree vertices, truncated to the cap
    for v in by_degree[: min(n, 16)]:
        dist = bfs_distances(G, v)
        ball = [w for w in sorted(range(n), key=lambda w: (dist[w] if dist[w] >= 0 else n + 1, w))]
        for radius_size in range(2, cap + 1):
            candidates.append(tuple(sorted(ball[:radius_size])))

    rng = seed.python_rng()
    used = 0
    for A in candidates:
        used += 1
        if _violates_small(G, A, s):
            report.verdict = "violated"
            report.witness = A
            report.trials = used
            report.note = "structured candidate"
            return report
    while used < trials:
        used += 1
        size = rng.randint(2, cap)
        A = tuple(rng.sample(range(n), size))
        if _violates_small(G, A, s):
            report.verdict = "violated"
            report.witness = tuple(sorted(A))
            report.trials = used
            report.note = "random candidate"
            return report
    report.trials = used
    report.note = "no violation found; exhaustive proof requires the oracle module"
    return report


def large_expansion_witness_search(G: Graph, l: float,
                                   trials: int | None = None,
                                   seed: RngSeed = RngSeed(0)) -> ExpansionReport:
    """Search for two disjoint ceil(l)-sets with no edge between them.
    Raises ValueError unless 0 < l < inf."""
    if not 0 < l < math.inf:  # False for nan
        raise ValueError(f"frame l must satisfy 0 < l < inf, got {l}")
    n = G.n
    if trials is None:
        trials = DEFAULT_TRIALS_PER_VERTEX * n
    c = math.ceil(l)
    params = {"l": l, "set_size": c}
    report = ExpansionReport(property="L", params=params, verdict="inconclusive")
    if c > n // 2:
        report.verdict = "holds"
        report.note = "no two disjoint sets of that size exist (vacuous)"
        return report
    if G.m == n * (n - 1) // 2:
        report.verdict = "holds"
        report.note = "complete graph: every disjoint pair spans an edge"
        return report

    rng = seed.python_rng()
    used = 0
    # deterministic candidates first: for a few starting vertices, pit the
    # closed BFS ball against the far side - best shot at a sparse cut
    for v in range(min(n, 8)):
        dist = bfs_distances(G, v)
        order = sorted(range(n), key=lambda w: (dist[w] if dist[w] >= 0 else n + 1, w))
        A = tuple(order[:c])
        far = order[::-1][:c]
        B = tuple(sorted(far))
        if not (set(A) & set(B)):
            used += 1
            if not (neighborhood_bits(G, A) & mask_of(B)):
                report.verdict = "violated"
                report.witness = (tuple(sorted(A)), B)
                report.trials = used
                return report
    while used < trials:
        used += 1
        pick = rng.sample(range(n), 2 * c)
        A, B = tuple(sorted(pick[:c])), tuple(sorted(pick[c:]))
        if not (neighborhood_bits(G, A) & mask_of(B)):
            report.verdict = "violated"
            report.witness = (A, B)
            report.trials = used
            return report
    report.trials = used
    report.note = "no violation found"
    return report


@dataclass(frozen=True)
class DiameterCheck:
    diam: int | float
    bound: float
    ok: bool
    note: str = ""

    def to_dict(self) -> dict:
        d = None if self.diam == INFINITE else self.diam
        return {"diam": d, "bound": self.bound, "ok": self.ok, "note": self.note}


def diameter_bound_check(G: Graph, s: float) -> DiameterCheck:
    """Exact diameter against the expander bound 2*ln(n)/ln(s) + 3.
    Raises ValueError unless 1 < s < inf."""
    if not 1.0 < s < math.inf:  # False for nan
        raise ValueError(f"expansion factor s must satisfy 1 < s < inf, got {s}")
    bound = 2.0 * math.log(max(G.n, 1)) / math.log(s) + 3.0
    d = diameter(G)
    if d == INFINITE:
        return DiameterCheck(diam=INFINITE, bound=bound, ok=False, note="infinite diameter (disconnected)")
    return DiameterCheck(diam=d, bound=bound, ok=d <= bound)


@dataclass
class PeelResult:
    removed: set[int] = field(default_factory=set)     # the peeled set Z
    remainder: set[int] = field(default_factory=set)   # U = V minus (D and Z)
    size_bound_ok: bool = True                         # |Z| <= 2|D|/s


def peel_non_expanding(G: Graph, deleted: set[int], s: float) -> PeelResult:
    """Peel vertices of low remaining degree after deleting a set.

    Iteratively moves any vertex with fewer than s/2 neighbors in the
    remainder into the peeled set Z, until the fixpoint, and reports whether
    |Z| <= 2|D|/s held (the guarantee available when the whole graph has the
    small expansion property with factor s and boundary g). Every remainder
    vertex keeps >= s/2 neighbors inside the remainder. Raises ValueError
    unless 0 < s < inf.
    """
    if not 0.0 < s < math.inf:  # False for nan
        raise ValueError(f"expansion factor s must satisfy 0 < s < inf, got {s}")
    full = G.full_mask()
    dmask = mask_of(deleted) & full
    umask = full & ~dmask
    threshold = s / 2.0
    zmask = 0
    changed = True
    while changed:
        changed = False
        for v in iter_bits(umask):
            if (G.adjacency_bits(v) & umask).bit_count() < threshold:
                umask &= ~(1 << v)
                zmask |= 1 << v
                changed = True
    bound_ok = zmask.bit_count() <= 2 * dmask.bit_count() / s
    return PeelResult(removed=set_of(zmask), remainder=set_of(umask), size_bound_ok=bound_ok)
