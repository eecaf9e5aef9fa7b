"""Reduction from Minimum Dominating Set on circle graphs to the
bounded-overlap selection problem, with both solution-mapping directions.

Given a circle graph (as an interval set), the reduction sets the overlap
bound k to the maximum degree and attaches leaf intervals to each original
interval until every original has degree exactly k+1.  With unit interval
weights and zero pair weights, a maximum selection then misses exactly a
minimum dominating set: a vertex outside the selection is forced out
precisely because it must dominate one of its neighbors.

A leaf of a parent [a, b] is realized as a short interval straddling only the
parent's left endpoint; several leaves of one parent nest around that
endpoint, so each new interval overlaps exactly its parent and the result is
again a valid circle graph.  After the insertions all endpoints are
renumbered to keep the dense 1..2N normalization.

The module exists to generate structured adversarial instances for solver
validation, not to demonstrate hardness at scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Interval, IntervalSet, Solution

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

    def is_leaf(self, node: int) -> bool:
        return node >= self.n_original

    def leaves_of(self, parent: int) -> list[int]:
        return [u for u, p in self.leaf_parent.items() if p == parent]


def reduce_mds_to_bdmwis(g: IntervalSet) -> ReducedInstance:
    """Build the bounded-overlap instance whose optimum encodes a minimum
    dominating set of the overlap graph of ``g``.

    Weights of ``g`` are ignored: the reduced instance carries unit interval
    weights and zero pair weights.
    """
    n = len(g)
    degrees = [len(g.neighbors[i]) for i in range(n)]
    k = max(degrees, default=0)

    # Token stream: walk the original endpoints in order; right before the
    # left endpoint of parent i insert its leaf left-endpoints (outermost
    # first), right after it the leaf right-endpoints (innermost first).
    owner_of_end = {p: i for i, iv in enumerate(g.intervals) for p in (iv.left, iv.right)}
    leaf_ids: dict[int, list[int]] = {}
    next_id = n
    leaf_parent: dict[int, int] = {}
    for i in range(n):
        need = k + 1 - degrees[i]
        leaf_ids[i] = list(range(next_id, next_id + need))
        for u in leaf_ids[i]:
            leaf_parent[u] = i
        next_id += need

    tokens: list[tuple[int, int]] = []  # (interval id, 0=left / 1=right)
    for p in range(1, 2 * n + 1):
        i = owner_of_end[p]
        if g.intervals[i].right == p:
            tokens.append((i, 1))
        else:
            for u in reversed(leaf_ids[i]):
                tokens.append((u, 0))
            tokens.append((i, 0))
            for u in leaf_ids[i]:
                tokens.append((u, 1))

    position: dict[tuple[int, int], int] = {}
    for rank, tok in enumerate(tokens, start=1):
        position[tok] = rank

    total = next_id
    spans = [(position[(i, 0)], position[(i, 1)]) for i in range(total)]
    intervals = tuple(Interval(l, r, weight=1) for l, r in spans)
    pair_weights: dict[tuple[int, int], int] = {(a, b): 0 for (a, b) in g.pair_weights}
    for u, p in leaf_parent.items():
        pair_weights[(min(u, p), max(u, p))] = 0
    reduced = IntervalSet(intervals, pair_weights)
    return ReducedInstance(reduced, k, n, leaf_parent)


def extract_dominating_set(solution: Solution, reduced: ReducedInstance) -> frozenset[int]:
    """Map a feasible selection on the reduced instance back to a dominating
    set of the original graph.

    The selection is first normalized so that it contains every leaf (this
    never shrinks it), after which the unselected originals dominate the
    graph.  An optimal selection yields a minimum dominating set.
    """
    s = reduced.intervals
    k = reduced.k
    selected = set(solution.chosen)

    def degree_in(sel: set[int], v: int) -> int:
        return sum(1 for m in s.neighbors[v] if m in sel)

    if any(degree_in(selected, v) > k for v in selected):
        raise ValueError("solution is infeasible for the reduced instance")

    pending = [u for u in reduced.leaf_parent if u not in selected]
    while pending:
        u = pending.pop()
        if u in selected:
            continue
        v = reduced.leaf_parent[u]
        if v not in selected or degree_in(selected, v) < k:
            selected.add(u)
            continue
        non_leaf = [
            w for w in s.neighbors[v] if w in selected and not reduced.is_leaf(w)
        ]
        if non_leaf:
            selected.discard(non_leaf[0])
            selected.add(u)
        else:
            # Parent saturated purely by leaves: trade the parent for all of
            # its remaining leaves (never smaller, still feasible).
            selected.discard(v)
            for w in reduced.leaves_of(v):
                if w not in selected:
                    selected.add(w)
                    if w in pending:
                        pending.remove(w)

    dominating = frozenset(
        v for v in range(reduced.n_original) if v not in selected
    )
    return dominating
