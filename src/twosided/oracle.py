"""Brute-force reference implementations.

These exist to validate the solvers and to pin down expected values for small
instances.  They enumerate subsets directly against the problem definitions
and deliberately share no code with the dynamic programs.  Size guards keep
the exponential enumeration honest.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .model import (
    IntervalSet,
    LayoutInstance,
    SizeGuardError,
    Solution,
    TwoSidedAssignment,
    _alternate,
    _check_k,
)
from .transform import EdgeWeightMode

MAX_ORACLE_INTERVALS = 20
MAX_ORACLE_EDGES = 16
MAX_ORACLE_NODES = 20


class OracleSizeError(SizeGuardError, ValueError):
    """Raised when an instance exceeds the brute-force size guard."""


def brute_force_k_overlap(s: IntervalSet, k: int) -> Solution:
    """Max-weight subset with overlap degree at most k, by full enumeration.

    Ties are broken toward the lexicographically smallest sorted id tuple.
    """
    _check_k(k)
    n = len(s)
    if n > MAX_ORACLE_INTERVALS:
        raise OracleSizeError(f"{n} intervals exceed the oracle guard of {MAX_ORACLE_INTERVALS}")
    masks = [sum(1 << j for j in nb) for nb in s.neighbors]

    best_weight = 0
    best_ids: tuple[int, ...] = ()
    for size in range(0, n + 1):
        for ids in combinations(range(n), size):
            mask = sum(1 << i for i in ids)
            if any(bin(masks[i] & mask).count("1") > k for i in ids):
                continue
            total = sum(s.weight[i] for i in ids)
            for a, b in combinations(ids, 2):
                if masks[a] >> b & 1:
                    total -= s.pair_weight(a, b)
            if total > best_weight or (total == best_weight and ids < best_ids):
                best_weight = total
                best_ids = ids
    return Solution.from_chosen(best_ids, s, k)


def brute_force_two_sided(
    instance: LayoutInstance, k: int, mode: EdgeWeightMode
) -> tuple[TwoSidedAssignment, int, int]:
    """Optimal exterior edge set by enumerating all outer-k-plane subsets.

    Minimizes interior crossings under COUNT_SHIFTED, total crossings under
    IGNORE_SHIFTED.  Returns (assignment, interior crossings, total
    crossings); ties go to the lexicographically smallest exterior id set.
    """
    _check_k(k)
    m = instance.n_edges
    if m > MAX_ORACLE_EDGES:
        raise OracleSizeError(f"{m} edges exceed the oracle guard of {MAX_ORACLE_EDGES}")
    pos = instance.positions
    n = instance.n_vertices
    edges = instance.edges
    cross_mask = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if _alternate(pos, n, edges[i], edges[j]):
                cross_mask[i] |= 1 << j
                cross_mask[j] |= 1 << i

    best: tuple[int, tuple[int, ...]] | None = None
    best_counts = (0, 0)
    for size in range(0, m + 1):
        for ext in combinations(range(m), size):
            ext_mask = sum(1 << i for i in ext)
            if any(bin(cross_mask[i] & ext_mask).count("1") > k for i in ext):
                continue
            exterior_crossings = sum(bin(cross_mask[i] & ext_mask).count("1") for i in ext) // 2
            interior_ids = [i for i in range(m) if not (ext_mask >> i) & 1]
            interior_crossings = sum(
                cross_mask[a] >> b & 1 for a, b in combinations(interior_ids, 2)
            )
            objective = (
                interior_crossings
                if mode is EdgeWeightMode.COUNT_SHIFTED
                else interior_crossings + exterior_crossings
            )
            key = (objective, ext)
            if best is None or key < best:
                best = key
                best_counts = (interior_crossings, interior_crossings + exterior_crossings)
    if best is None:
        raise AssertionError("no exterior edge set was feasible, not even the empty one")
    assignment = TwoSidedAssignment.from_exterior(instance, best[1])
    return assignment, best_counts[0], best_counts[1]


def brute_force_min_dominating_set(
    n_nodes: int, links: Iterable[Sequence[int]]
) -> frozenset[int]:
    """Smallest dominating set, ties broken lexicographically.

    A set D dominates when every node outside D has a neighbor in D.
    """
    if n_nodes > MAX_ORACLE_NODES:
        raise OracleSizeError(f"{n_nodes} nodes exceed the oracle guard of {MAX_ORACLE_NODES}")
    closed = [1 << i for i in range(n_nodes)]
    for u, v in links:
        closed[u] |= 1 << v
        closed[v] |= 1 << u
    full = (1 << n_nodes) - 1
    if n_nodes == 0:
        return frozenset()
    for size in range(0, n_nodes + 1):
        for ids in combinations(range(n_nodes), size):
            covered = 0
            for i in ids:
                covered |= closed[i]
            if covered == full:
                return frozenset(ids)
    return frozenset(range(n_nodes))
