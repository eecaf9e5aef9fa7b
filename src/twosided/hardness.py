"""Reduction from Minimum Dominating Set on circle graphs to the
bounded-overlap selection problem, with both solution-mapping directions.

Build: given a circle graph (as an interval set), the reduction sets the
overlap bound k to the maximum degree and attaches leaf intervals to each
original interval until every original has degree exactly k+1.  The leaves
of a parent nest around the parent's left endpoint, so each one overlaps
exactly its parent and the result is again a normalized circle graph.  All
interval weights are 1 and all pair weights 0.

Map back: for a k-feasible selection S of the reduced instance, the
originals outside S together with the parent of every leaf outside S
dominate the graph.  An original v left out of that set is in S along with
all of its leaves; v has k+1 neighbours, at most k of them in S, so some
original neighbour of v is outside S and hence in the set.  The set has at
most |reduced| - |S| members, so a maximum selection yields a minimum
dominating set.

The module exists to generate structured adversarial instances for solver
validation, not to demonstrate hardness at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .model import IntervalSet, Solution

__all__ = ["ReducedInstance", "reduce_mds_to_bdmwis", "extract_dominating_set"]


@dataclass(frozen=True)
class ReducedInstance:
    """Output of the reduction.

    Ids 0 .. n_original-1 are the original intervals (in input order); ids
    from n_original on are leaves, ``leaf_parent`` mapping each to its
    parent's original id.
    """

    intervals: IntervalSet
    k: int
    n_original: int
    leaf_parent: dict[int, int]


def reduce_mds_to_bdmwis(g: IntervalSet) -> ReducedInstance:
    """Build the bounded-overlap instance whose optimum encodes a minimum
    dominating set of the overlap graph of ``g``.

    Weights of ``g`` are ignored: the reduced instance carries unit interval
    weights and zero pair weights.
    """
    n = len(g)
    k = g.max_degree
    leaves: list[range] = []
    for i in range(n):
        first = leaves[-1].stop if leaves else n
        leaves.append(range(first, first + k + 1 - g.degree[i]))
    leaf_parent = {u: i for i, ids in enumerate(leaves) for u in ids}

    # One walk over the original endpoints 1..2n: the left ends of i's leaves
    # go just before i's left endpoint (outermost first), their right ends
    # just after it (innermost first).
    spans = [[0, 0] for _ in range(n + len(leaf_parent))]
    rank = count(1)
    for p in range(1, 2 * n + 1):
        i = g.id_at[p]
        if g.left[i] != p:
            spans[i][1] = next(rank)
            continue
        for u in reversed(leaves[i]):
            spans[u][0] = next(rank)
        spans[i][0] = next(rank)
        for u in leaves[i]:
            spans[u][1] = next(rank)
    reduced = IntervalSet.build(spans, [1] * len(spans), 0)
    return ReducedInstance(reduced, k, n, leaf_parent)


def extract_dominating_set(solution: Solution, reduced: ReducedInstance) -> frozenset[int]:
    """Map a k-feasible selection on the reduced instance back to a
    dominating set of the original graph: the originals outside it plus the
    parent of every leaf outside it.  An optimal selection yields a minimum
    dominating set.

    Raises ValueError when the selection is not k-feasible.
    """
    chosen = solution.chosen
    if Solution.from_chosen(chosen, reduced.intervals, reduced.k).max_overlap_degree() > reduced.k:
        raise ValueError("solution is infeasible for the reduced instance")
    return frozenset(v for v in range(reduced.n_original) if v not in chosen) | {
        p for u, p in reduced.leaf_parent.items() if u not in chosen
    }
