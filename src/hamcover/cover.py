"""The pack, then forest-cover pipeline.

To cover every edge of a graph by Hamilton cycles: greedily extract a
packing of edge-disjoint Hamilton cycles (each one lowers every degree by
exactly 2), then cover the leftover edges by linear forests. Each round
builds one forest over the still uncovered edges, highest residual degree
first, merges it into a single seed path and searches for a Hamilton cycle
of the original graph from that seed, protecting the forest edges on it
during rotations; one cycle can carry a whole forest, so about half the
residual's maximum degree in cycles covers it. Call a vertex tight when
its uncovered degree d has ceil(d/2) = ceil(D/2), D the largest uncovered
degree: a cover that meets that bound must take min(2, d) of a tight
vertex's uncovered edges in every round. So the round's first two
searches (from the seed and from its reverse) lock the forest edges at
tight vertices and keep the rest soft; only if both get stuck do two
searches with every forest edge soft follow. If no search of a round
covers anything new, the next round seeds from one uncovered edge alone;
if that stalls too, the cover fails and names the edges left. The
matching covers (cover_matching and cover_matching_once) run the same
covering loop, and one round of it, on a matching's edges; they and the
first-fit edge coloring are kept as standalone tools that the pipeline
calls none of. A certificate records
the cycles and per-edge coverage counts; it is validated against the
independent oracle before being returned, and it keeps the oracle's
counts as they come, in numpy arrays behind a read-only edge mapping
(``EdgeCounts``), not as a dict of m edge tuples. Search failures are
values carrying the phase and the stuck instance, never exceptions; only
an alpha that is not a finite number > 0 raises (ValueError).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .graph import (
    Edge,
    Graph,
    build_graph,
    canonical_cycle,
    edge_key,
    is_connected,
)
from .gnp import RngSeed, expander_params_for_gnp, sample_gnp
from .families import PathFamily, check_alpha, merge_into_single_path
from .oracle import EdgeCounts, validate_cover
from .rotation import RotationConstraints, find_hamilton_cycle

log = logging.getLogger(__name__)


def greedy_maximal_matching(G: Graph) -> frozenset[Edge]:
    """First-fit maximal matching over lexicographically sorted edges."""
    used = 0
    out = []
    for u, v in G.edges():
        if not (used >> u & 1) and not (used >> v & 1):
            out.append((u, v))
            used |= (1 << u) | (1 << v)
    return frozenset(out)


def greedy_edge_coloring(H: Graph) -> list[frozenset[Edge]]:
    """Proper edge coloring by first-fit over lexicographic edge order.

    Uses at most 2*max_degree - 1 classes; each class is a matching and
    their union is the whole edge set.
    """
    classes: list[list[Edge]] = []
    used = [0] * H.n  # per-vertex bitmask of colors in use
    for u, v in H.edges():
        taken = used[u] | used[v]
        color = (~taken & (taken + 1)).bit_length() - 1
        if color == len(classes):
            classes.append([])
        classes[color].append((u, v))
        used[u] |= 1 << color
        used[v] |= 1 << color
    return [frozenset(c) for c in classes]


@dataclass
class PackingResult:
    cycles: list[tuple[int, ...]]
    residual: Graph
    stopped: str = ""          # why extraction ended
    failures: int = 0

    @property
    def achieved(self) -> int:
        return len(self.cycles)


def extract_packing(G: Graph, target: int) -> PackingResult:
    """Greedily extract up to ``target`` edge-disjoint Hamilton cycles.

    Each found cycle is removed before the next search. Stops at the
    target, when the residual minimum degree drops below 2, or at the
    first search that finds no cycle (``failures`` is then 1). Shortfall
    is reported, not raised.
    """
    residual = G
    cycles: list[tuple[int, ...]] = []
    failures = 0
    stopped = "target reached"
    # a Hamilton cycle takes exactly two edges off every vertex
    delta = G.min_degree()
    while len(cycles) < target:
        if delta < 2:
            stopped = "residual minimum degree below 2"
            break
        res = find_hamilton_cycle(residual)
        if not res.ok:
            failures = 1
            stopped = f"search stalled: {res.failure}"
            break
        c = res.cycle
        cycles.append(c)
        residual = residual.remove_edges(zip(c, c[1:] + c[:1]))
        delta -= 2
    return PackingResult(cycles=cycles, residual=residual, stopped=stopped,
                         failures=failures)


@dataclass
class CoverCertificate:
    """A Hamilton covering: cycles, per-edge counts, and the packing prefix.

    ``coverage`` is the ``EdgeCounts`` that ``validate_cover`` returned for
    ``cycles``: ``coverage[(u, v)]``, ``u < v``, is how many cycles use the
    edge, read from numpy arrays of the narrowest unsigned type that holds
    the edge codes and the counts. The cycles are the search's, which all
    point at one shared int object per vertex (``graph.vertex_ints``), so
    the certificate holds no int per vertex occurrence.
    """

    cycles: list[tuple[int, ...]]
    coverage: EdgeCounts
    h: int                      # how many leading cycles form the packing

    @property
    def cover_size(self) -> int:
        return len(self.cycles)

    def min_coverage(self) -> int:
        return self.coverage.min_coverage


@dataclass
class CoverOutcome:
    """A certificate or the phase and cause of a failure.

    ``losses`` sums the covering phase's counters over its rounds.
    ``merge_lost`` counts the forest edges that a round's merge left off
    its seed path. ``soft_lost`` counts the forest edges on a seed path
    that a found cycle dropped. ``soft_breaks`` counts the soft-edge
    rotations and absorptions of the searches that found a cycle,
    exploration included: it counts moves, not edges lost, and bounds
    ``soft_lost``. On a covering failure ``uncovered`` lists every
    residual edge left uncovered, in lexicographic order. A failed
    validation carries the counters of the covering phase it checked.
    ``timings_ms`` holds the ``packing`` and ``covering`` phase times.
    """

    certificate: CoverCertificate | None
    failure_phase: str | None = None
    failure_detail: str | None = None
    packing_stopped: str = ""
    losses: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.certificate is not None


def degree_first_forest(n: int, us: np.ndarray, vs: np.ndarray
                        ) -> tuple[list[Edge], np.ndarray, PathFamily]:
    """One linear forest, first-fit over the edges (us[i], vs[i]): its
    accepted edges, in the order accepted, their positions i in the input
    in the same order, and its paths.

    The edges must be canonical (u < v) and in lexicographic order. Each
    vertex's degree is counted over these edges, and the edges are taken in
    order of (-larger end degree, -smaller end degree, edge): a stable sort
    on one integer key per edge keeps the edge order among ties. An edge
    joins the forest when both its ends have forest degree below 2 and they
    are not the two ends of one forest path, which each path end's pointer
    to its other end tells in O(1). Each vertex keeps its forest neighbours
    in two slots, and each path is walked from its smaller end, in
    ascending order of that end: PathFamily's sorted canonical order, so
    merge_into_single_path takes the paths as built.
    """
    deg = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    du, dv = deg[us], deg[vs]
    # degrees stay below n + 1, so (hi, lo) packs into one integer
    key = np.maximum(du, dv) * (n + 1) + np.minimum(du, dv)
    order = np.argsort(-key, kind="stable")
    fdeg = [0] * n
    nbr = [0] * (2 * n)  # v's forest neighbours in slots 2v and 2v + 1
    other = list(range(n))  # a path end's other end; an isolated vertex's own
    forest: list[Edge] = []
    taken: list[int] = []
    for i, u, v in zip(order.tolist(), us[order].tolist(), vs[order].tolist()):
        if fdeg[u] == 2 or fdeg[v] == 2 or other[u] == v:
            continue
        a, b = other[u], other[v]
        other[a], other[b] = b, a
        nbr[2 * u + fdeg[u]] = v
        nbr[2 * v + fdeg[v]] = u
        fdeg[u] += 1
        fdeg[v] += 1
        forest.append((u, v))
        taken.append(i)
        if len(forest) == n - 1:
            break
    paths = []
    for h in range(n):
        if fdeg[h] != 1 or other[h] < h:
            continue
        prev, cur = h, nbr[2 * h]
        path = [h, cur]
        while fdeg[cur] == 2:
            a, b = nbr[2 * cur], nbr[2 * cur + 1]
            prev, cur = cur, b if a == prev else a
            path.append(cur)
        paths.append(path)
    return forest, np.array(taken, dtype=np.intp), PathFamily(paths)


def _edge_table(G: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The codes u * n + v of G's edges (u < v), ascending, so in
    G.edges() order, and their ends us and vs: one unpack of the bitmask
    rows cut to their upper triangle and one flatnonzero, with no tuple
    per edge. validate_cover unpacks the rows with its own code, so that an
    edge this table missed would still show as uncovered."""
    n = G.n
    width = (n + 7) // 8
    packed = b"".join(((b >> (u + 1)) << (u + 1)).to_bytes(width, "little")
                      for u, b in enumerate(G.rows))
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(n, width)
    codes = np.flatnonzero(np.unpackbits(bits, axis=1, count=n, bitorder="little"))
    us, vs = np.divmod(codes, n)
    return codes, us, vs


def _cover_round(G: Graph, alpha: float, codes: np.ndarray, us: np.ndarray,
                 vs: np.ndarray, alive: np.ndarray, idx: np.ndarray,
                 losses: dict) -> tuple[int, ...] | None:
    """One covering round: a degree-first forest over the uncovered table
    rows idx, merged into a seed path, and Hamilton searches of G from that
    seed and from its reverse. A vertex is tight when its uncovered degree
    d has ceil(d/2) = ceil(D/2), D the largest uncovered degree: a cover
    that meets the bound must take min(2, d) of its uncovered edges in
    every round. The first two searches lock the seed's forest edges with
    a tight end and soft-protect the others; a cycle they find holds those
    uncovered edges. The last two, tried only when both locked searches
    get stuck, or alone when the merge left no tight edge on the seed,
    soft-protect them all. A search is deterministic, so a further try
    from the same seed and constraints would repeat one. One searchsorted
    of a found cycle's edge codes gives both the rows it covers and the
    seed's forest edges it dropped (soft_lost). Adds the counters to
    losses, clears the covered rows in alive and returns the cycle, or
    None when no search covers anything new."""
    n = G.n
    ru, rv = us[idx], vs[idx]
    forest, taken, family = degree_first_forest(n, ru, rv)
    merged = merge_into_single_path(G, family, alpha)
    lost = merged.lost_matching
    losses["merge_lost"] += len(lost)
    # the forest edges on the seed path, as a set and as table rows
    on_seed = frozenset(forest)
    seeded = np.zeros(len(codes), dtype=bool)
    seeded[idx[taken]] = True
    # the forest takes its edges by falling degree of their larger end, so
    # those with a tight end, d >= 2 * ceil(D/2) - 1, come first
    deg = np.bincount(ru, minlength=n) + np.bincount(rv, minlength=n)
    top = np.maximum(deg[ru[taken]], deg[rv[taken]])
    locked = frozenset(forest[:np.count_nonzero(top >= top[0] - 1 + top[0] % 2)])
    if lost:
        on_seed -= lost
        locked -= lost
        seeded[np.searchsorted(codes, [u * n + v for u, v in lost])] = False
    seeds = (merged.path, merged.path[::-1])
    tries = [(locked, seed) for seed in seeds] if locked else []
    tries += [(frozenset(), seed) for seed in seeds]
    for lock, seed in tries:
        res = find_hamilton_cycle(G, RotationConstraints(locked=lock, soft=on_seed),
                                  seed_path=seed)
        if not res.ok:
            continue
        losses["soft_breaks"] += res.soft_breaks
        # the table rows of the cycle's edges
        c = np.array(res.cycle, dtype=np.int64)
        d = np.concatenate((c[1:], c[:1]))
        hit = np.minimum(c, d) * n + np.maximum(c, d)
        pos = np.minimum(np.searchsorted(codes, hit), len(codes) - 1)
        pos = pos[codes[pos] == hit]
        losses["soft_lost"] += len(on_seed) - int(np.count_nonzero(seeded[pos]))
        if alive[pos].any():
            alive[pos] = False
            return res.cycle
    return None


def _cover_loop(G: Graph, alpha: float, codes: np.ndarray, us: np.ndarray,
                vs: np.ndarray, cycles: list, losses: dict
                ) -> tuple[list[Edge], str | None]:
    """Cover the edges of a table (see _edge_table) by Hamilton cycles of
    G, appending each round's cycle to cycles. After a round that covers
    nothing new, the next round's forest is the first uncovered row alone;
    a second such round in a row ends the loop. Returns the edges left
    uncovered, in table order, and the failure naming the stalled edge, or
    None."""
    alive = np.ones(len(codes), dtype=bool)  # table rows still uncovered
    stalled = False  # the last round covered nothing new
    failure = None
    while alive.any():
        idx = np.flatnonzero(alive)
        if stalled:
            idx = idx[:1]  # retry from the first uncovered edge alone
        cycle = _cover_round(G, alpha, codes, us, vs, alive, idx, losses)
        if cycle is not None:
            cycles.append(cycle)
            stalled = False
        elif stalled:
            failure = (f"no Hamilton cycle found through the uncovered edge "
                       f"({us[idx[0]]}, {vs[idx[0]]})")
            break
        else:
            stalled = True
    return list(zip(us[alive].tolist(), vs[alive].tolist())), failure


def cover_graph(G: Graph, alpha: float) -> CoverOutcome:
    """Cover all edges of G by Hamilton cycles: pack, then forest cover.

    Phase 1 extracts edge-disjoint cycles, at most half the minimum degree.
    Phase 2 runs the covering loop (_cover_loop) on one table of the
    residual's edges, built once from the packed rows (_edge_table): while
    residual edges stay uncovered, each round builds one degree-first
    linear forest over them, merges it into a seed path and searches for a
    Hamilton cycle with the forest edges on the seed at tight vertices
    locked and the others soft-protected, then, if both locked searches get
    stuck, with all of them soft-protected (_cover_round). A
    second stalled round in a row ends the cover with a "covering" failure
    that names the stalled edge. The assembled certificate is
    validated internally before being returned. Raises ValueError unless
    alpha is a finite number > 0.
    """
    check_alpha(alpha)
    if G.n < 3 or G.m == 0:
        return CoverOutcome(None, "precheck", f"degenerate graph (n={G.n}, m={G.m})")
    if not is_connected(G):
        return CoverOutcome(None, "precheck", "graph is disconnected")
    if G.min_degree() < 2:
        return CoverOutcome(None, "precheck", "minimum degree below 2")
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    packing = extract_packing(G, G.min_degree() // 2)
    timings["packing"] = (time.perf_counter() - t0) * 1000.0

    t0 = time.perf_counter()
    cycles = list(packing.cycles)
    losses = {"merge_lost": 0, "soft_breaks": 0, "soft_lost": 0}
    uncovered, failure = _cover_loop(G, alpha, *_edge_table(packing.residual), cycles, losses)
    timings["covering"] = (time.perf_counter() - t0) * 1000.0
    if failure:
        losses["uncovered"] = uncovered
        return CoverOutcome(None, "covering", failure, packing_stopped=packing.stopped,
                            losses=losses, timings_ms=timings)

    cycles = [canonical_cycle(c) for c in cycles]
    check = validate_cover(G, cycles)
    if not check.ok:
        return CoverOutcome(None, "validation",
                            f"internal certificate check failed (bad cycle {check.bad_cycle}, "
                            f"{len(check.uncovered)} uncovered)",
                            packing_stopped=packing.stopped, losses=losses,
                            timings_ms=timings)
    cert = CoverCertificate(cycles=cycles, coverage=check.coverage, h=packing.achieved)
    lower = math.ceil(G.max_degree() / 2)
    if cert.cover_size < lower:
        return CoverOutcome(None, "validation",
                            f"cover size {cert.cover_size} beats the degree bound {lower}: "
                            "certificate must be wrong",
                            packing_stopped=packing.stopped, losses=losses,
                            timings_ms=timings)
    return CoverOutcome(cert, packing_stopped=packing.stopped, losses=losses,
                        timings_ms=timings)


def _matching_failure(G: Graph, M: frozenset[Edge]) -> str | None:
    """Why the canonical edge set M is not a matching of G, or None."""
    if len({v for e in M for v in e}) != 2 * len(M):  # a shared end or a loop
        return "input edge set is not a matching"
    if any(not G.has_edge(u, v) for u, v in M):
        return "matching contains edges absent from the graph"
    return None


@dataclass
class OnceOutcome:
    """One covering round aimed at a matching: its cycle, or None, and the
    matching edges left uncovered. ``merge_lost`` counts matching edges
    the merged seed path left out, ``soft_lost`` the matching edges on the
    seed path that the round's found cycles dropped, and ``soft_breaks``
    the soft-edge rotations and absorptions its searches generated,
    exploration included; it counts moves, not edges lost, and bounds
    ``soft_lost``."""

    cycle: tuple[int, ...] | None
    uncovered: frozenset[Edge]
    failure: str | None = None
    merge_lost: int = 0
    soft_breaks: int = 0
    soft_lost: int = 0


def cover_matching_once(G: Graph, matching, alpha: float) -> OnceOutcome:
    """One round of cover_graph's covering loop (_cover_round) on a
    matching. Its forest is the matching itself, so the round merges the
    matching into a seed path. Every matching vertex has degree 1 and so
    is tight, and the round's first searches lock every matching edge on
    the seed; the paper locks them only when the matching has fewer than
    alpha^3 * n^(alpha/2) / 136 edges, a cap below 1 for every n < 18496
    at alpha <= 1. An empty matching gives no cycle and no failure."""
    M = frozenset(edge_key(*e) for e in matching)
    failure = _matching_failure(G, M)
    if failure or not M:
        return OnceOutcome(None, M, failure=failure)
    codes, us, vs = _edge_table(build_graph(G.n, M))
    alive = np.ones(len(codes), dtype=bool)
    losses = {"merge_lost": 0, "soft_breaks": 0, "soft_lost": 0}
    cycle = _cover_round(G, alpha, codes, us, vs, alive, np.flatnonzero(alive), losses)
    if cycle is None:
        return OnceOutcome(None, M, failure="no Hamilton cycle found through the merged "
                           "matching", **losses)
    return OnceOutcome(cycle, frozenset(zip(us[alive].tolist(), vs[alive].tolist())),
                       **losses)


@dataclass
class MatchingCover:
    """Cycles covering a matching, or also the edges left uncovered and the
    failure; the loss counters sum those of every round (``OnceOutcome``)."""

    ok: bool
    cycles: list[tuple[int, ...]]
    uncovered: frozenset[Edge] = frozenset()
    failure: str | None = None
    soft_breaks: int = 0
    merge_lost: int = 0
    soft_lost: int = 0


def cover_matching(G: Graph, matching, alpha: float) -> MatchingCover:
    """Cover every edge of a matching by Hamilton cycles of G: cover_graph's
    covering loop (_cover_loop) on the matching's edges."""
    M = frozenset(edge_key(*e) for e in matching)
    failure = _matching_failure(G, M)
    if failure:
        return MatchingCover(False, [], uncovered=M, failure=failure)
    cycles: list[tuple[int, ...]] = []
    losses = {"merge_lost": 0, "soft_breaks": 0, "soft_lost": 0}
    uncovered, failure = _cover_loop(G, alpha, *_edge_table(build_graph(G.n, M)),
                                     cycles, losses)
    return MatchingCover(failure is None, cycles, frozenset(uncovered), failure, **losses)


@dataclass
class ExperimentReport:
    """One seeded end-to-end run on a G(n,p) sample."""

    n: int
    p: float
    base: int
    stream: int
    m: int = 0
    delta_max: int = 0
    delta_min: int = 0
    expander: dict = field(default_factory=dict)
    h: int = 0
    cover_size: int = 0
    ratio: float = 0.0
    valid: bool = False
    error: str | None = None
    losses: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)


CSV_FIELDS = ["n", "p", "base", "stream", "m", "delta_max", "delta_min",
              "s", "alpha", "h", "cover_size", "ratio", "valid", "error"]


def csv_row(r: ExperimentReport) -> dict:
    return {
        "n": r.n, "p": r.p, "base": r.base, "stream": r.stream, "m": r.m,
        "delta_max": r.delta_max, "delta_min": r.delta_min,
        "s": r.expander.get("params", {}).get("s"),
        "alpha": r.expander.get("params", {}).get("alpha"),
        "h": r.h, "cover_size": r.cover_size, "ratio": r.ratio,
        "valid": int(r.valid), "error": r.error or "",
    }


def run_single_experiment(n: int, p: float, seed: RngSeed) -> ExperimentReport:
    report = ExperimentReport(n=n, p=p, base=seed.base, stream=seed.stream)
    if n * p < 20:
        log.warning("n*p = %.1f is small; samples may well not be Hamiltonian", n * p)
    t0 = time.perf_counter()
    G = sample_gnp(n, p, seed)
    report.timings_ms["sample"] = (time.perf_counter() - t0) * 1000.0
    report.m = G.m
    report.delta_max = G.max_degree()
    report.delta_min = G.min_degree()

    try:
        params = expander_params_for_gnp(n, p)
        report.expander = {"params": params.to_dict()}
        alpha = params.alpha
    except ValueError as exc:
        report.expander = {"error": str(exc)}
        alpha = 0.3

    outcome = cover_graph(G, alpha)
    report.timings_ms.update(outcome.timings_ms)
    report.losses = outcome.losses
    if not outcome.ok:
        report.error = f"{outcome.failure_phase}: {outcome.failure_detail}"
        return report
    cert = outcome.certificate
    report.h = cert.h
    report.cover_size = cert.cover_size
    report.ratio = cert.cover_size / (n * p / 2.0)
    report.valid = True  # cover_graph returns only certificates validate_cover accepted
    return report


def run_gnp_experiment(n: int, p: float, seeds, base_seed: int = 0,
                       jobs: int = 1) -> list[ExperimentReport]:
    """End-to-end experiment over a list of seed streams.

    Per-seed failures land in the report's error field; the run continues.
    Reports come back in seed order regardless of worker scheduling.
    """
    tasks = [(n, p, RngSeed(base_seed, s)) for s in seeds]
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_single_experiment, *zip(*tasks)))
    return [run_single_experiment(*task) for task in tasks]
