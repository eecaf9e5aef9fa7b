"""Minimum dominating sets via the bounded-overlap reduction.

Attaching leaves until every original vertex has degree k+1 (k = the
maximum degree) turns minimum dominating set on a circle graph into the
bounded-overlap selection problem.  A selection maps back to the originals
outside it plus the parent of every leaf outside it.  That set dominates:
an original left out is selected with all of its leaves, and since at most
k of its k+1 neighbours are selected, some original neighbour is in the set.
It has at most as many members as the selection leaves out, so an optimal
selection gives a minimum dominating set.  The round trip is checked against
the brute-force dominating-set oracle.
"""

import random

from twosided import (
    brute_force_min_dominating_set,
    dump_intervals,
    extract_dominating_set,
    random_interval_set,
    reduce_mds_to_bdmwis,
    solve_k,
)

rng = random.Random(5)
g = random_interval_set(7, rng, max_weight=0, max_pair_weight=0)
print(f"circle graph: {len(g)} vertices, links {sorted(g.pair_weights)}")

red = reduce_mds_to_bdmwis(g)
print(f"\nreduction: degree bound k={red.k}, "
      f"{len(red.intervals)} intervals ({len(red.leaf_parent)} leaves)")
print("reduced interval set:")
print(dump_intervals(red.intervals), end="")

sol = solve_k(red.intervals, red.k)
dom = extract_dominating_set(sol, red)
ref = brute_force_min_dominating_set(len(g), list(g.pair_weights))
print(f"\noptimal selection size: {len(sol.chosen)} of {len(red.intervals)}")
print(f"extracted dominating set: {sorted(dom)} (size {len(dom)})")
print(f"brute-force minimum dominating set size: {len(ref)}")
assert len(dom) == len(ref)
print("sizes agree: the reduction round trip is exact")
