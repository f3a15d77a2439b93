#!/usr/bin/env python3
"""Walk through the rotation search and edge protection on tiny graphs.

A rotation pivots a path around a chord from its endpoint: the suffix past
the pivot flips, one path edge breaks, and a new endpoint appears. The
search, ``rotate_until_extendable``, rotates until some endpoint has a
neighbour off the path, which is the step the Hamilton cycle search runs on
every pass. Locked edges are never broken; that single rule is what lets
the cover pipeline drag a matching through an entire Hamilton cycle search
unharmed.
"""

from hamcover import (
    ExtendAt,
    RotationConstraints,
    find_hamilton_cycle,
    rotate_until_extendable,
)
from hamcover.graph import build_graph, complete_graph, cycle_edges, path_edges

# C5 plus the chord (4,1) and the edge (2,5): neither end of the path
# 0-1-2-3-4 sees vertex 5, but rotating around the chord makes 2 an endpoint
G = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 1), (2, 5)])
path = [0, 1, 2, 3, 4]
print("start path:", path)

out = rotate_until_extendable(G, path)
assert isinstance(out, ExtendAt) and out.at is not None
# at set: the found path is the start path rotated once around position at
rotated = path[: out.at + 1] + path[: out.at : -1]
print(f"search: {out}")
print(f"  pivot {path[out.at]} breaks {(path[out.at], path[out.at + 1])}:",
      rotated, f"-> endpoint {out.endpoint} steps off to {out.external}")

# with (1,2) locked that rotation is ruled out; the search reaches 2 as an
# endpoint another way, on a path that still holds the locked edge
locked = RotationConstraints(locked={(1, 2)})
out = rotate_until_extendable(G, path, locked)
print(f"\nwith (1,2) locked: {out}")
print("  (1,2) still on the path:", (1, 2) in path_edges(out.path),
      f"after {locked.rotations} rotations")

# the payoff: a Hamilton cycle of K6 forced through a perfect matching
K6 = complete_graph(6)
required = {(0, 1), (2, 3), (4, 5)}
res = find_hamilton_cycle(K6, RotationConstraints(locked=required, soft=required))
print("\nK6 cycle through the matching:", res.cycle)
print("matching edges on the cycle:  ", sorted(required & cycle_edges(res.cycle)))
