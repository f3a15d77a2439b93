"""The hamcover benchmark: seeded workloads, timed ops, independent checks.

A workload is a list of G(n, p) graphs sampled from a base seed (streams
0..ops-1) and one kind of op applied to each graph in turn:

- a *pack op* is ``extract_packing(G, G.min_degree() // 2)``, the path of
  ``hamcover pack``;
- a *cover op* is ``cover_graph(G, alpha)`` with alpha from
  ``expander_params_for_gnp(n, p)``, the path of ``hamcover cover``.

The program only ever sees the sampled ``Graph``. Every output is checked
outside the timed section with the original (unwrapped) functions, and
the canonical cycle lists of all ops are hashed into ``cert_sha256`` so
that a refactor claiming "same behaviour" can prove it.

Times are CPU times of this single-threaded process, so that waiting for a
processor is not counted, and they are scaled to a fixed reference speed:
a short calibration loop that does not use hamcover is timed before every
op and after the last, and each op's time is multiplied by ``CAL_REF_S``
over the mean of the loop times just before and just after it. A host
that runs the process slower for a while slows the loop about as much as
the program, and the scaled time stays.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
# Median CPU time of one calibration loop on the reference machine (2-core
# x86_64, Python 3.11): scaled times read as seconds at that speed.
CAL_REF_S = 0.0025


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources to import, bad arguments)."""


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "pack" or "cover"
    n: int
    p: float
    ops: int
    reason: str

    @property
    def why(self) -> str:
        return f"{self.ops} {self.kind} ops on G({self.n}, {self.p}): {self.reason}"


WORKLOADS = {
    w.name: w for w in [
        Workload("pack-dense", "pack", 256, 0.5, 20,
                 "rotation BFS and remove_edges on a shrinking residual; "
                 "path-family merging is never called"),
        Workload("cover-small-batch", "cover", 128, 0.3, 100,
                 "short searches, so fixed per-call costs dominate; path-family "
                 "merging takes about half; enough ops for a p90"),
    ]
}

# (name, unit, better) of every metric the traced run reports.
PER_LAYER = [
    ("rotation.rotate_until_extendable.calls", "count", "lower"),
    ("rotation.rotate_until_extendable.s", "s", "lower"),
    ("rotation.find_hamilton_cycle.calls", "count", "lower"),
    ("rotation.find_hamilton_cycle.s", "s", "lower"),
    ("rotation.find_hamilton_cycle.self_s", "s", "lower"),
    ("rotation.find_hamilton_cycle.ok_ratio", "ratio", "higher"),
    ("rotation.find_hamilton_cycle.iterations", "count", "lower"),
    ("rotation.find_hamilton_cycle.rotations", "count", "lower"),
    ("rotation.outcome.extend", "count", "lower"),
    ("rotation.outcome.chord", "count", "lower"),
    ("rotation.outcome.stuck", "count", "lower"),
    ("rotation.node_cap_hits", "count", "lower"),
    ("graph.remove_edges.calls", "count", "lower"),
    ("graph.remove_edges.s", "s", "lower"),
    ("families.merge_into_single_path.calls", "count", "lower"),
    ("families.merge_into_single_path.s", "s", "lower"),
    ("families.merge_into_single_path.mu", "count", "lower"),
    ("families.merge_into_single_path.rounds", "count", "lower"),
    ("families.merge_into_single_path.lost_matching", "count", "lower"),
    ("families.reduce_family.calls", "count", "lower"),
    ("families.reduce_family.s", "s", "lower"),
    ("cover.extract_packing.s", "s", "lower"),
    ("cover.extract_packing.failures", "count", "lower"),
    ("cover.greedy_edge_coloring.s", "s", "lower"),
    ("cover.greedy_edge_coloring.classes", "count", "lower"),
    ("cover.cover_matching.calls", "count", "lower"),
    ("cover.cover_matching.s", "s", "lower"),
    ("cover.cover_matching_once.calls", "count", "lower"),
    ("cover.cover_matching_once.s", "s", "lower"),
    ("cover.cover_matching_once.useful_ratio", "ratio", "higher"),
    ("oracle.validate_cover.calls", "count", "lower"),
    ("oracle.validate_cover.s", "s", "lower"),
    ("gnp.sample_gnp.calls", "count", "lower"),
    ("gnp.sample_gnp.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_gap_s", "s", "lower"),
]


def import_hamcover():
    """Import hamcover afresh from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "hamcover" / "__init__.py").is_file():
        raise BenchError(f"no hamcover sources under {src}")
    if sys.path[:1] != [str(src)]:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "hamcover" or m.startswith("hamcover.")]:
        del sys.modules[name]
    hc = importlib.import_module("hamcover")
    if Path(hc.__file__).resolve().parent != src / "hamcover":
        raise BenchError(f"imported hamcover from {hc.__file__}, not from {src}")
    return hc


@dataclass
class Inputs:
    hc: object                     # the hamcover package the graphs belong to
    graphs: list
    alpha: float | None


def sample_graphs(hc, w: Workload, seed: int) -> list:
    # looked up at call time so that a traced sample goes through the wrapper
    return [hc.gnp.sample_gnp(w.n, w.p, hc.gnp.RngSeed(seed, s)) for s in range(w.ops)]


def setup(w: Workload, seed: int) -> Inputs:
    """Import hamcover and sample the workload's graphs."""
    hc = import_hamcover()
    alpha = hc.gnp.expander_params_for_gnp(w.n, w.p).alpha if w.kind == "cover" else None
    return Inputs(hc, sample_graphs(hc, w, seed), alpha)


def fingerprint(graphs) -> int:
    return hash(tuple((G.n, tuple(G.adjacency_bits(v) for v in range(G.n))) for G in graphs))


def run_op(inputs: Inputs, kind: str, G):
    cover = inputs.hc.cover
    if kind == "pack":
        return cover.extract_packing(G, G.min_degree() // 2)
    return cover.cover_graph(G, alpha=inputs.alpha)


def cycles_of(kind: str, res) -> list:
    if kind == "pack":
        return res.cycles
    return res.certificate.cycles if res.ok else []


def canonical(cycle) -> list[int]:
    """Start at the smallest vertex, head toward its smaller neighbour."""
    vs = list(cycle)
    q = len(vs)
    i = vs.index(min(vs))
    fwd = [vs[(i + j) % q] for j in range(q)]
    bwd = [vs[(i - j) % q] for j in range(q)]
    return fwd if fwd[1:] <= bwd[1:] else bwd


def cert_line(cycles) -> bytes:
    """One op's canonical cycle list as a JSON line; ``cert_sha256`` hashes
    these lines in op order."""
    return json.dumps([canonical(c) for c in cycles], separators=(",", ":")).encode() + b"\n"


def _cycle_edge_set(cycle) -> set:
    q = len(cycle)
    return {tuple(sorted((cycle[i], cycle[(i + 1) % q]))) for i in range(q)}


def check_op(hc, kind: str, G, res) -> str | None:
    """Why the op's result is rejected, or None when it is accepted."""
    if kind == "cover":
        if not res.ok:
            return f"cover failed in {res.failure_phase}: {res.failure_detail}"
        cert = res.certificate
        if not hc.oracle.validate_cover(G, cert.cycles).ok:
            return "validate_cover rejects the cycles"
        if cert.cover_size < math.ceil(G.max_degree() / 2):
            return f"cover size {cert.cover_size} beats ceil(max degree / 2)"
        if cert.h > G.min_degree() // 2:
            return f"packing prefix {cert.h} exceeds floor(min degree / 2)"
        return None
    used: set = set()
    for i, c in enumerate(res.cycles):
        if not hc.graph.is_hamilton_cycle(G, c):
            return f"packed cycle {i} is not a Hamilton cycle"
        edges = _cycle_edge_set(c)
        if edges & used:
            return f"packed cycle {i} shares edges with an earlier cycle"
        used |= edges
    if res.residual.m != G.m - len(res.cycles) * G.n:
        return f"residual has {res.residual.m} edges, expected {G.m - len(res.cycles) * G.n}"
    return None


def _calibration_graph(n: int, seed: int) -> list[int]:
    """Adjacency bitmasks of a fixed pseudo-random graph with edge density 1/4."""
    adj = [0] * n
    x = seed
    for u in range(n):
        for v in range(u + 1, n):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            if x >> 62 == 0:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


_CAL_ADJ = _calibration_graph(160, 20111113)


def _calibration_loop() -> int:
    """Posa rotations of tuples over bitmask neighbourhoods, the kind of work
    the rotation search does, on a graph that never changes; about 400 paths."""
    start = tuple(range(len(_CAL_ADJ)))
    seen = {start}
    frontier = [start]
    while frontier and len(seen) < 400:
        path = frontier.pop()
        nb = _CAL_ADJ[path[-1]]
        while nb:
            low = nb & -nb
            nb ^= low
            i = path.index(low.bit_length() - 1)
            walked = path[:i + 1] + path[:i:-1]
            if walked not in seen:
                seen.add(walked)
                frontier.append(walked)
    return len(seen)


def scaled(cpu_times: list[float], cals: list[float]) -> list[float]:
    """CPU times at the reference speed; ``cals`` brackets them, one
    calibration before each time and one after the last."""
    return [t * 2 * CAL_REF_S / (a + b) for t, a, b in zip(cpu_times, cals, cals[1:])]


def calibration() -> float:
    """Median CPU time of three calibration loops, run with the collector
    off so that the program's heap does not change the loop's cost."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            c = time.process_time()
            _calibration_loop()
            times.append(time.process_time() - c)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


@dataclass
class Pass:
    """One run of every op of the workload, in sequence."""

    wall: float                 # wall time of the ops, summed
    op_times: list[float]       # wall time per op
    op_cpu: list[float]         # CPU time per op
    cals: list[float]           # calibration times, before each op and after the last
    ok: list[bool]
    cert: str
    results: list

    @property
    def scaled_ops(self) -> list[float]:
        return scaled(self.op_cpu, self.cals)


def timed_pass(inputs: Inputs, w: Workload, tracer=None, keep=False) -> Pass:
    """Run every op once. ``wall`` sums the op times, so the benchmark's own
    hashing and calibration between ops are not counted; results are
    dropped unless kept."""
    gc.collect()
    digest = hashlib.sha256()
    times, cpu, cals, ok, results = [], [], [], [], []
    for i, G in enumerate(inputs.graphs):
        if tracer is not None:
            tracer.op = i
        cals.append(calibration())
        t, c = time.perf_counter(), time.process_time()
        res = run_op(inputs, w.kind, G)
        cpu.append(time.process_time() - c)
        times.append(time.perf_counter() - t)
        ok.append(w.kind == "pack" or res.ok)
        digest.update(cert_line(cycles_of(w.kind, res)))
        if keep:
            results.append(res)
    if tracer is not None:
        tracer.op = None
    cals.append(calibration())
    return Pass(sum(times), times, cpu, cals, ok, digest.hexdigest(), results)


def timed_passes(inputs: Inputs, w: Workload, seconds: float,
                 max_passes: int | None = None) -> list[Pass]:
    """Run passes for as close to ``seconds`` of wall time as whole passes
    allow, and at least one."""
    t = time.perf_counter()
    passes = [timed_pass(inputs, w, keep=True)]
    count = max(1, round(seconds / (time.perf_counter() - t)))
    if max_passes is not None:
        count = min(count, max_passes)
    passes += [timed_pass(inputs, w) for _ in range(count - 1)]
    return passes


def quality(w: Workload, graphs, results) -> dict:
    """pack_ratio and cover_ratio, averaged over the ops that returned a result."""
    pack, cover = [], []
    for G, res in zip(graphs, results):
        half_min = G.min_degree() // 2
        if w.kind == "pack":
            pack.append(res.achieved / half_min)
        elif res.ok:
            pack.append(res.certificate.h / half_min)
            cover.append(res.certificate.cover_size / math.ceil(G.max_degree() / 2))
    out = {"pack_ratio": statistics.fmean(pack) if pack else 0.0}
    if w.kind == "cover":
        out["cover_ratio"] = statistics.fmean(cover) if cover else 0.0
    return out


def stamp(seed: int) -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "base_seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]
