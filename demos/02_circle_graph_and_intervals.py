"""From chords to intervals: the circle graph and its overlap representation.

Every edge of the layout becomes a node of the circle graph, linked to the
edges it crosses.  Cutting the circle and projecting the chords onto a line
turns each chord into an interval, and crossing chords into properly
overlapping intervals -- the form the solvers work on.  Interval weights are
degrees (crossings removed by routing that edge outside); pair weights pick
the crossing-accounting mode.
"""

from twosided import (
    EdgeWeightMode,
    LayoutInstance,
    dump_intervals,
    overlap_kind,
    project_to_intervals,
)
from twosided.model import overlap_pairs_within

inst = LayoutInstance.build(
    range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (2, 4)]
)
proj = project_to_intervals(inst, EdgeWeightMode.IGNORE_SHIFTED)
s = proj.interval_set
print(f"C4 plus both diagonals: {len(s)} circle-graph nodes")
links = sorted(overlap_pairs_within(range(len(s)), s))
print(f"links (crossing chord pairs): {dict((p, s.pair_weight(*p)) for p in links)}")
print(f"node weights (degrees): {tuple(iv.weight for iv in s.intervals)}")

print("\ninterval representation (id left right weight / pair lines):")
print(dump_intervals(s), end="")

a, b = s.intervals[4], s.intervals[5]
print(f"\nthe two diagonal intervals {a.left, a.right} and {b.left, b.right}: "
      f"{overlap_kind(a, b)}")

# A star shares a vertex among all edges: after the projection its intervals
# are pairwise nested or disjoint, never overlapping.
star = LayoutInstance.build(range(1, 5), [(1, 2), (1, 3), (1, 4)])
star_set = project_to_intervals(star).interval_set
kinds = {
    overlap_kind(star_set.intervals[i], star_set.intervals[j])
    for i in range(3)
    for j in range(i + 1, 3)
}
print(f"star K_1,3 projected: pairwise kinds = {sorted(kinds)} (no overlaps)")
