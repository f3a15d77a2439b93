"""Spans around calls into hamcover's public functions, recorded from outside.

A ``Tracer`` replaces each traced function at the attribute its caller looks
it up through (``hamcover.cover.find_hamilton_cycle``, not
``hamcover.rotation.find_hamilton_cycle``, because ``cover.py`` binds the
name at import time) with a wrapper that records one span per call: name,
start, end, parent span and op id. Spans stay in memory until the run ends.
Counters are read from the returned values at the same boundary. Nothing
under ``src/`` is changed; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


def _count_find_hamilton(c, args, kwargs, res):
    c["rotation.find_hamilton_cycle.ok"] += res.ok
    c["rotation.find_hamilton_cycle.iterations"] += res.iterations
    c["rotation.find_hamilton_cycle.rotations"] += res.rotations


def _count_rotate(c, args, kwargs, res):
    kind = type(res).__name__
    if kind == "ExtendAt":
        c["rotation.outcome.extend"] += 1
    elif kind == "Chord":
        c["rotation.outcome.chord"] += 1
    else:
        c["rotation.outcome.stuck"] += 1
        if "node budget exhausted" in res.message:
            c["rotation.node_cap_hits"] += 1


def _count_merge(c, args, kwargs, res):
    c["families.merge_into_single_path.mu"] += res.mu
    c["families.merge_into_single_path.rounds"] += res.rounds
    c["families.merge_into_single_path.lost_matching"] += len(res.lost_matching)


def _count_packing(c, args, kwargs, res):
    c["cover.extract_packing.failures"] += res.failures


def _count_coloring(c, args, kwargs, res):
    c["cover.greedy_edge_coloring.classes"] += len(res)


def _count_once(c, args, kwargs, res):
    matching = args[1] if len(args) > 1 else kwargs["matching"]
    # useful: a cycle came back and it covered at least one new matching edge
    c["cover.cover_matching_once.useful"] += (
        res.cycle is not None and len(res.uncovered) < len(matching))


def trace_points(hc):
    """(owner, attribute, span name, counter) for every traced call site."""
    return [
        (hc.cover, "cover_graph", "cover.cover_graph", None),
        (hc.cover, "extract_packing", "cover.extract_packing", _count_packing),
        (hc.cover, "greedy_edge_coloring", "cover.greedy_edge_coloring", _count_coloring),
        (hc.cover, "cover_matching", "cover.cover_matching", None),
        (hc.cover, "cover_matching_once", "cover.cover_matching_once", _count_once),
        (hc.cover, "find_hamilton_cycle", "rotation.find_hamilton_cycle", _count_find_hamilton),
        (hc.cover, "merge_into_single_path", "families.merge_into_single_path", _count_merge),
        (hc.cover, "validate_cover", "oracle.validate_cover", None),
        (hc.rotation, "rotate_until_extendable", "rotation.rotate_until_extendable", _count_rotate),
        (hc.families, "reduce_family", "families.reduce_family", None),
        (hc.graph.Graph, "remove_edges", "graph.remove_edges", None),
        (hc.gnp, "sample_gnp", "gnp.sample_gnp", None),
    ]


class Tracer:
    """In-memory span recorder that wraps functions in place while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []       # [name, start, end, parent index, op id]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op: int | None = None         # op id stamped on new spans
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def install(self, points) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in points:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """calls, total seconds and self seconds per span name, plus counters."""
        out: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            out[s[0] + ".calls"] += 1
            out[s[0] + ".s"] += s[2] - s[1]
            out[s[0] + ".self_s"] += own
        out.update(self.counts)
        return dict(out)

    def op_self_sums(self) -> dict[int, float]:
        """Sum of self times over the spans of each op."""
        sums: dict[int, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            if s[4] is not None:
                sums[s[4]] += own
        return dict(sums)

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
