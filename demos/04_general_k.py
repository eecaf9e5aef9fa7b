"""The general fixed-k solver and its capacity-vector machinery.

For k >= 2 a solution can contain long connected runs, so the dynamic
program carries a per-interval (left, right) residual-overlap budget
through the sweep.
This script sweeps k on a small instance, shows the monotone weights against
the brute-force oracle, and inspects the legal commit steps of one interval.
"""

import random

from twosided import (
    CapacityVector,
    IntervalSet,
    brute_force_k_overlap,
    legal_successors,
    random_interval_set,
    solve_k,
)

s = random_interval_set(9, random.Random(12))
print(f"instance: {len(s)} intervals, max overlap degree {s.max_degree}")

print("\nk : solver weight / oracle weight / chosen intervals")
for k in range(0, s.max_degree + 1):
    sol = solve_k(s, k, force_general=True)
    ref = brute_force_k_overlap(s, k)
    assert sol.weight == ref.weight
    print(f"{k} : {sol.weight:3d} / {ref.weight:3d} / {sorted(sol.chosen)}")
print(f"(weights are monotone in k and saturate at the unconstrained optimum)")

# Capacity vectors: committing an interval fixes its whole neighborhood.
tri = IntervalSet.build([(1, 4), (2, 5), (3, 6)], [1, 1, 1], 1)
lam = CapacityVector.initial(tri)
for k in (1, 2):
    succ = legal_successors(lam, tri.intervals[1], tri, k)
    print(f"\nk={k}: committing the middle interval of a triangle has "
          f"{len(succ)} legal steps:")
    for step in succ:
        states = [step.vector.state_of(iv) for iv in tri.intervals]
        print(f"  neighbors taken {sorted(step.chosen_neighbors)!s:8} "
              f"delta={step.weight_delta:+d}  states={states}")
