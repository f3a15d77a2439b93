#!/usr/bin/env python3
"""The full pipeline: pack edge-disjoint Hamilton cycles, cover the rest
one degree-first linear forest per cycle (a stalled round is retried from
one uncovered edge alone), and validate the certificate.

On odd complete graphs the packing alone decomposes the graph (K5 needs
exactly ceil(Delta/2) = 2 cycles). On G(n,p) the certificate size lands
at or near the ceil(Delta/2) lower bound; the report carries the ratio,
per-phase timings, and the loss ledger.
"""

import math

from hamcover import RngSeed, cover_graph, run_gnp_experiment, sample_gnp
from hamcover.gnp import expander_params_for_gnp
from hamcover.graph import complete_graph
from hamcover.oracle import validate_cover

for n in (5, 7, 9):
    out = cover_graph(complete_graph(n), alpha=0.5)
    cert = out.certificate
    print(f"K{n}: packing {cert.h}, cover size {cert.cover_size} "
          f"(lower bound ceil(Delta/2) = {math.ceil((n - 1) / 2)})")

n, p = 128, 0.3
G = sample_gnp(n, p, RngSeed(5))
params = expander_params_for_gnp(n, p)
out = cover_graph(G, alpha=params.alpha)
cert = out.certificate
v = validate_cover(G, cert.cycles)
print(f"\nG({n}, {p}): m={G.m}, Delta={G.max_degree()}")
print(f"packing {cert.h} cycles, total cover {cert.cover_size}, "
      f"lower bound {math.ceil(G.max_degree() / 2)}, valid={v.ok}")
print(f"losses: {out.losses}")
print("phase ms:", {k: round(t) for k, t in out.timings_ms.items()})

print("\nthree seeded end-to-end runs at n=192, p=0.25:")
for r in run_gnp_experiment(192, 0.25, seeds=[0, 1, 2], base_seed=42):
    print(f"  stream {r.stream}: h={r.h} cover={r.cover_size} "
          f"ratio={r.ratio:.3f} valid={r.valid}")
