#!/usr/bin/env python3
"""Collapse a matching into one path with the edge ledger in plain sight.

The merge runs one reduction round at k = 1: it joins two path ends at a
time, directly or through a short connector, so it trims no edge, and the
accounting (mu merges, lost old edges, gained new edges) must respect
lost <= 2(k-1)*mu and gained <= (d+2)*mu at every step. Paths left over are
dissolved. The merged path is what seeds the protected Hamilton cycle
search.
"""

from hamcover import RngSeed, merge_into_single_path, sample_gnp
from hamcover.cover import greedy_maximal_matching
from hamcover.graph import path_edges

G = sample_gnp(96, 0.25, RngSeed(11))
M = greedy_maximal_matching(G)
print(f"G(96, 0.25): m={G.m}, greedy maximal matching of {len(M)} edges")

out = merge_into_single_path(G, M, alpha=0.35)
print(f"\nmerged into one path of {len(out.path)} vertices in {out.rounds} round, "
      f"{out.dissolved} paths dissolved")
print(f"moves mu={out.mu}, edges gained={out.gained}")
for i, b in enumerate(out.budgets, start=1):
    if b.mu:
        print(f"  round {i}: k={b.k} d={b.d} mu={b.mu} "
              f"lost={b.lost} <= {2 * (b.k - 1) * b.mu}, "
              f"gained={b.gained} <= {(b.d + 2) * b.mu}")

on_path = M & path_edges(out.path)
print(f"\nmatching edges on the merged path: {len(on_path)}/{len(M)}"
      f" (lost: {sorted(out.lost_matching) or 'none'})")
assert on_path | out.lost_matching == frozenset(M)
