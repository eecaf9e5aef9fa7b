"""Project the chords of a layout to a weighted interval set.

The layout's circle graph has one node per edge and a link for every
crossing chord pair; the solvers run on its interval representation and never
build the graph itself.  Routing an edge outside the circle removes as many
interior crossings as its node degree, which is its crossing count, so
interval weights are set to that count; pair weights encode how a crossing
that moves outside is accounted for (see :class:`EdgeWeightMode`).

The interval projection cuts the circle between the last and the first vertex
of the cyclic order and reads the chords off as intervals over the endpoint
ranks 1..2m.  Chords sharing a vertex are first separated into per-edge slots
so that all endpoints are distinct; the slot order is chosen so that the
shared-vertex chords nest instead of crossing, which keeps the intersection
graph unchanged.  The projection is purely combinatorial; no geometry is
involved.  The interval set scans its own overlap relation, and one
independent check ties it to chord alternation and, edge by edge, to the
weights.  Only the pair weight depends on the mode, so each layout is
scanned and checked once, on its first projection; the checked set is kept
while the layout lives, and every later projection, in either mode and for
any k, returns it with the mode's pair weight and the same tables.

A layout with more than ``MAX_OVERLAP_PAIRS`` crossing chord pairs is
refused with :class:`ProjectionSizeError` before anything of its size is
allocated: the pair count is known from the layout's crossing counts alone.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass

from .model import IntervalSet, LayoutInstance, SizeGuardError

# A whole k=1 `twosided solve` peaks at about 170 B per crossing chord pair
# above 17 MiB (VmHWM 78 MiB at P = 372,636, 135 MiB at P = 727,981 and
# 212 MiB at P = 1,213,144, 17 MiB at P = 438;
# `generate_random_biconnected(n, m, seed=1)` for (1000, 1500), (1400, 2100),
# (1800, 2700) and (20, 52), Python 3.11), so this limit keeps a solve
# under about 520 MiB.
MAX_OVERLAP_PAIRS = 3_100_000


class ProjectionSizeError(SizeGuardError, ValueError):
    """The layout has more crossing chord pairs than ``MAX_OVERLAP_PAIRS``."""


class EdgeWeightMode(enum.Enum):
    """Uniform link weight of the circle graph.

    COUNT_SHIFTED (weight 1): the objective counts every crossing removed
    from the interior, including crossings that merely move outside.
    Maximizing it minimizes the number of *interior* crossings.

    IGNORE_SHIFTED (weight 2): crossings that reappear between two exterior
    edges are not counted as savings.  Maximizing it minimizes the *total*
    number of crossings of the two-sided drawing.
    """

    COUNT_SHIFTED = 1
    IGNORE_SHIFTED = 2


@dataclass(frozen=True)
class ProjectionResult:
    """The interval representation of a layout's circle graph.

    Interval ids coincide with circle-graph node ids and therefore with the
    layout's edge ids, so a selection of interval ids is the selection of
    exterior edges.
    """

    interval_set: IntervalSet


# The checked projection of each layout, weak-keyed so that it lives as long
# as its layout and no longer.
_SCANS: weakref.WeakKeyDictionary[LayoutInstance, IntervalSet] = weakref.WeakKeyDictionary()


def project_to_intervals(
    instance: LayoutInstance,
    mode: EdgeWeightMode = EdgeWeightMode.COUNT_SHIFTED,
) -> ProjectionResult:
    """Project the chords of the layout onto the line, one interval per edge.

    The cut point sits between the last and the first vertex of the cyclic
    order, so endpoint ranks grow in order direction starting at the first
    vertex.  At a vertex of degree d the d edge endpoints occupy consecutive
    slots, ordered so that the chord reaching farthest (in order direction)
    comes first; chords sharing the vertex then nest rather than cross.

    Two intervals overlap iff the corresponding chords cross, and each weighs
    its crossing count.  None of that depends on the mode, so it is computed
    once per layout and kept while the layout lives: the first call scans
    the slots into an :class:`IntervalSet`, checks both facts, the count edge
    by edge (:func:`_check_alternation`), raising AssertionError when one
    fails, and keeps the checked set; every call returns it carrying
    ``mode.value`` as its pair weight, sharing its tables
    (:meth:`~twosided.model.IntervalSet.with_pair_weight`).  Raises
    :class:`ProjectionSizeError`, before the slots are sorted, when the
    layout has more than ``MAX_OVERLAP_PAIRS`` crossing chord pairs.  A
    refused layout, or one that fails the check, keeps nothing, so the next
    call raises again.
    """
    s = _SCANS.get(instance)
    if s is not None:
        return ProjectionResult(s.with_pair_weight(mode.value))
    crossing = sum(instance.crossings_per_edge) // 2
    if crossing > MAX_OVERLAP_PAIRS:
        raise ProjectionSizeError(
            f"{crossing} crossing chord pairs exceed the limit of {MAX_OVERLAP_PAIRS}"
        )
    n, m = instance.n_vertices, instance.n_edges

    # One slot per edge endpoint, walking the circle in order direction; at a
    # vertex, decreasing forward distance of the other endpoint makes chords
    # sharing it nest.  Each endpoint sorts on the int (pos, n - distance,
    # eid) in mixed radix (n, n, m): for the span (a, b), a < b, the
    # distance from a to b is f = b - a, from b to a it is n - f.  Slots
    # come out ascending from 1, so each edge's first slot, its left end,
    # goes to ``first`` while that still reads 0, and its second to
    # ``second``.
    keys = []
    for eid, (a, b) in enumerate(instance.spans):
        f = b - a
        keys.append((a * n + n - f) * m + eid)
        keys.append((b * n + f) * m + eid)
    keys.sort()
    first, second = [0] * m, [0] * m
    for slot, key in enumerate(keys, 1):
        eid = key % m
        if first[eid]:
            second[eid] = slot
        else:
            first[eid] = slot
    s = IntervalSet.build(list(zip(first, second)), instance.crossings_per_edge, mode.value)
    _check_alternation(instance, s, crossing)
    _SCANS[instance] = s
    return ProjectionResult(s)


def _check_alternation(instance: LayoutInstance, s: IntervalSet, crossing: int) -> None:
    """Raise unless the overlapping pairs are exactly the crossing chords:
    every overlapping pair alternates as the layout's chord ``spans`` (the
    first pair that does not, by owner and then row order of the forward
    rows, is named), ``crossing``, the Fenwick count of crossing chord
    pairs, is P, and each edge's count is its overlap ``degree`` in the set
    (the first edge that differs is named).  The counts are the layout's
    cached :attr:`~twosided.model.LayoutInstance.crossings_per_edge`, one
    pass shared with the weights and the one-sided crossing count."""
    ends = instance.spans
    for i, (a, b) in enumerate(ends):
        for j in s.forward(i):
            c, d = ends[j]
            if not (a < c < b < d or c < a < d < b):
                x, y = sorted((i, j))
                raise AssertionError(f"projection broke the intersection graph at edges {x},{y}")
    if crossing != len(s.partner):
        raise AssertionError(f"{len(s.partner)} overlapping pairs for {crossing} crossing chord pairs")
    for e, (c, d) in enumerate(zip(instance.crossings_per_edge, s.degree)):
        if c != d:
            raise AssertionError(f"edge {e} crosses {c} chords but overlaps {d} intervals")
