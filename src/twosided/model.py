"""Core domain model for crossing minimization in two-sided circular layouts.

A graph drawn with every vertex on a circle (in a fixed cyclic order) has its
crossings determined entirely by that order: two chords cross exactly when
their four endpoints alternate around the circle.  A *two-sided* layout keeps
the vertices in place but routes a subset of the edges outside the circle.

This module holds the vocabulary shared by everything else in the package:

* :class:`LayoutInstance`      -- input graph, cyclic vertex order, chord spans
* :class:`TwoSidedAssignment`  -- partition of the edges into interior chords
  and exterior curves
* :class:`Interval` / :class:`IntervalSet` -- the normalized interval view of
  the layout's circle graph (one node per edge, a link per crossing pair)
  that the dynamic programs run on; the set scans and checks its endpoints
  once on construction and keeps the per-id and per-position tables, the
  left-endpoint order, the overlap relation and degrees every consumer reads
* :class:`Solution`            -- a selected subset and its objective value
* :class:`SizeGuardError`      -- the base of the errors that refuse an input
  too large to solve in bounded memory or time

plus :func:`overlap_kind`, the pairwise classification of two intervals,
kept as the reference that the set's scan is tested against.  All types
are immutable after construction and every operation is a pure function.

The crossing accounting (:func:`count_crossings`, :func:`crossings_per_chord`)
counts alternating chords with one Fenwick sweep per call and shares no code
with the interval scan.  The count over all edges is a property of the
layout (:attr:`LayoutInstance.crossings_per_edge`), paid once; the count
among the exterior edges is paid once per assignment
(:func:`exterior_crossings`), and each side's count is
derived from the two by sums.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

Edge = tuple[int, int]
Pair = tuple[int, int]

DISJOINT = "disjoint"
OVERLAP = "overlap"
A_NESTS_B = "a_nests_b"
B_NESTS_A = "b_nests_a"


class SizeGuardError(Exception):
    """An input exceeds a size guard.  Each guard also derives from the
    builtin error it raised before the base existed: ``OracleSizeError`` and
    ``ProjectionSizeError`` from ValueError, ``SolverBudgetError`` from
    RuntimeError.  The command line maps the base to exit code 2."""


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


# ---------------------------------------------------------------------------
# Layout-level types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LayoutInstance:
    """A graph together with a cyclic order of its vertices.

    Edges are identified by their index in ``edges``; every other type in the
    pipeline refers to edges through these stable integer ids.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    order: tuple[int, ...]

    def __post_init__(self) -> None:
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        if sorted(self.order) != sorted(self.vertices):
            raise ValueError("order must be a permutation of the vertices")
        seen: set[Edge] = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u},{v}) uses unknown vertex")
            e = canonical_edge(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(e)

    @classmethod
    def build(
        cls,
        vertices: Iterable[int],
        edges: Iterable[Sequence[int]],
        order: Iterable[int] | None = None,
    ) -> "LayoutInstance":
        vs = tuple(vertices)
        es = tuple(canonical_edge(u, v) for u, v in edges)
        od = tuple(order) if order is not None else vs
        return cls(vs, es, od)

    @cached_property
    def positions(self) -> dict[int, int]:
        """Rank of each vertex in the cyclic order (0-based)."""
        return {v: i for i, v in enumerate(self.order)}

    @cached_property
    def spans(self) -> tuple[tuple[int, int], ...]:
        """Each edge's chord as its ends' order positions (a, b), a < b."""
        pos = self.positions
        ends = ((pos[u], pos[v]) for u, v in self.edges)
        return tuple((a, b) if a < b else (b, a) for a, b in ends)

    @cached_property
    def crossings_per_edge(self) -> tuple[int, ...]:
        """Number of chords crossing each edge's chord, by edge id; one
        :func:`crossings_per_chord` pass over all edges."""
        return tuple(crossings_per_chord(self, self.edge_ids()))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_ids(self) -> range:
        return range(len(self.edges))


@dataclass(frozen=True, eq=False)
class TwoSidedAssignment:
    """Partition of the edge ids into interior (chords) and exterior (curves)."""

    interior: frozenset[int]
    exterior: frozenset[int]

    @classmethod
    def from_exterior(cls, instance: LayoutInstance, exterior: Iterable[int]) -> "TwoSidedAssignment":
        ext = frozenset(exterior)
        return cls(frozenset(instance.edge_ids()) - ext, ext)

    def validate_for(self, instance: LayoutInstance) -> None:
        if self.interior & self.exterior:
            raise ValueError("interior and exterior overlap")
        if self.interior | self.exterior != set(instance.edge_ids()):
            raise ValueError("assignment does not cover the edge set")


# ---------------------------------------------------------------------------
# Chord crossing predicates
# ---------------------------------------------------------------------------


def chords_cross(edge_a: Sequence[int], edge_b: Sequence[int], order: Sequence[int]) -> bool:
    """True iff the two chords cross, i.e. their endpoints alternate in the
    cyclic order.  Edges sharing a vertex never cross."""
    pos = {v: i for i, v in enumerate(order)}
    return _alternate(pos, len(order), edge_a, edge_b)


def _alternate(pos: Mapping[int, int], n: int, edge_a: Sequence[int], edge_b: Sequence[int]) -> bool:
    a1, a2 = edge_a
    b1, b2 = edge_b
    if len({a1, a2, b1, b2}) < 4:
        return False
    p = pos[a1]
    arc = (pos[a2] - p) % n
    in1 = 0 < (pos[b1] - p) % n < arc
    in2 = 0 < (pos[b2] - p) % n < arc
    return in1 != in2


# The exterior edges' crossing counts of each assignment, weak-keyed so that
# they live as long as the assignment and no longer, with the layout they
# were counted on.
_EXTERIOR: weakref.WeakKeyDictionary[
    TwoSidedAssignment, tuple[LayoutInstance, Mapping[int, int]]
] = weakref.WeakKeyDictionary()


def exterior_crossings(instance: LayoutInstance, assignment: TwoSidedAssignment) -> Mapping[int, int]:
    """Read-only map from each exterior edge of the assignment to the number
    of exterior edges crossing its chord.  One :func:`crossings_per_chord`
    pass over the exterior edges per assignment and layout, none when there
    are none; the map is kept while the assignment lives, so every count of
    that drawing reads it."""
    kept = _EXTERIOR.get(assignment)
    if kept is not None and kept[0] is instance:
        return kept[1]
    ext = assignment.exterior
    counts = MappingProxyType(dict(zip(ext, crossings_per_chord(instance, ext) if ext else ())))
    _EXTERIOR[assignment] = (instance, counts)
    return counts


def count_crossings(instance: LayoutInstance, assignment: TwoSidedAssignment) -> tuple[int, int]:
    """Crossing counts (interior, exterior) of a two-sided drawing.

    Interior counts alternating pairs drawn as chords, exterior counts
    alternating pairs routed outside; a pair split across the two sides never
    crosses.  The exterior count X is half the sum of the exterior edges'
    per-chord counts among themselves
    (:func:`exterior_crossings`, one pass per assignment).
    The interior count is inclusion-exclusion over the layout's cached
    per-edge counts c: of the C = sum(c) / 2 crossing pairs, those touching
    an exterior edge number sum(c[e] for exterior e) - X, since that sum
    counts the both-exterior pairs twice.  Once both caches are filled a
    count is O(m) sums and no Fenwick pass.
    """
    assignment.validate_for(instance)
    c, ext = instance.crossings_per_edge, exterior_crossings(instance, assignment)
    exterior = sum(ext.values()) // 2
    return sum(c) // 2 - sum(c[e] for e in ext) + exterior, exterior


def crossings_per_chord(instance: LayoutInstance, edge_ids: Iterable[int]) -> list[int]:
    """For each given edge, in the given order, the number of the other given
    edges whose chord crosses its chord.

    Each chord becomes the span (a, b), a < b, of its endpoints' order
    positions.  Chord (c, d) crosses (a, b) iff a < c < b < d or
    c < a < d < b; chords sharing a vertex meet in an endpoint and satisfy
    neither, and neither does a repeated id with its copy.  Of the L spans
    with a left end strictly inside (a, b), those that do not cross end
    inside or at b; of the R with a right end strictly inside, those that
    do not cross start inside or at a.  So the count is
    L + R - 2N - E_b - E_a for N = #{a < c, d < b}, the spans nested
    strictly inside, E_b = #{a < c, d = b} and E_a = #{c = a, d < b}.  L
    and R are prefix counts over the positions, E_b and E_a bisect the
    sorted ends of the spans sharing b or a, and N comes from one sweep over
    the right ends, ascending: a Fenwick tree (binary indexed tree) holds
    the left ends of the hi_below[b] spans ending before the current group,
    which is counted before it is added.  O((n + m) log n) for m given edges.
    """
    spans, n = instance.spans, instance.n_vertices
    chords = [spans[e] for e in edge_ids]
    ending_at: list[list[int]] = [[] for _ in range(n)]
    ends_from: list[list[int]] = [[] for _ in range(n)]
    lo_below, hi_below = [0] * (n + 1), [0] * (n + 1)
    for t, (a, b) in enumerate(chords):
        ending_at[b].append(t)
        ends_from[a].append(b)
        lo_below[a + 1] += 1
        hi_below[b + 1] += 1
    lo_below, hi_below = list(accumulate(lo_below)), list(accumulate(hi_below))
    for group in ends_from:
        group.sort()
    tree = [0] * (n + 1)
    out = [0] * len(chords)
    for b, group in enumerate(ending_at):
        if not group:
            continue
        starts = sorted(chords[t][0] for t in group)
        for t in group:
            a = chords[t][0]
            nested, x = hi_below[b], a + 1
            while x > 0:
                nested -= tree[x]
                x &= x - 1
            out[t] = (
                lo_below[b] - lo_below[a + 1] + hi_below[b] - hi_below[a + 1] - 2 * nested
                - (len(starts) - bisect_right(starts, a)) - bisect_left(ends_from[a], b)
            )
        for a in starts:
            x = a + 1
            while x <= n:
                tree[x] += 1
                x += x & -x
    return out


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


def _check_k(k: object) -> None:
    """Refuse an overlap bound that is not a non-negative int."""
    if not isinstance(k, int):
        raise ValueError(f"k must be an int, got {k!r}")
    if k < 0:
        raise ValueError("k must be non-negative")


def _check_weight(w: object, what: str) -> None:
    """Refuse a weight that is not a non-negative int: the solvers sum exactly."""
    if not isinstance(w, int):
        raise ValueError(f"{what} must be ints, got {w!r}")
    if w < 0:
        raise ValueError(f"{what} must be non-negative")


@dataclass(frozen=True)
class Interval:
    """Closed interval with integer endpoints; represents one chord."""

    left: int
    right: int
    weight: int = 0

    def __post_init__(self) -> None:
        if self.left >= self.right:
            raise ValueError(f"interval needs left < right, got [{self.left},{self.right}]")
        _check_weight(self.weight, "interval weights")

    @property
    def length(self) -> int:
        return self.right - self.left


def overlap_kind(a: Interval, b: Interval) -> str:
    """Classify two intervals as disjoint / overlap / one-nests-the-other.

    Requires all four endpoints to be distinct; shared endpoints violate the
    normalized-representation invariant and are rejected.
    """
    if len({a.left, a.right, b.left, b.right}) < 4:
        raise ValueError("intervals with shared endpoints are not allowed")
    if a.right < b.left or b.right < a.left:
        return DISJOINT
    if a.left < b.left and b.right < a.right:
        return A_NESTS_B
    if b.left < a.left and a.right < b.right:
        return B_NESTS_A
    return OVERLAP


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """A normalized interval representation of a weighted circle graph.

    The 2n endpoints are exactly {1, ..., 2n}.  Interval ids are positions
    in ``intervals``.  ``pair_weights`` is one integer, the weight of every
    properly overlapping pair, kept as given; or a mapping with one entry
    per overlapping pair, keyed by its ids smaller first.  Read a pair's
    weight through :meth:`pair_weight`; :meth:`with_pair_weight` gives the
    same set under another int weight without scanning it again.

    Construction scans the endpoints once, left to right, and keeps the
    tables every consumer reads, as plain attributes rather than fields (the
    constructor, ``repr`` and identity equality ignore them): per id
    ``left``, ``right`` and ``weight``; per position 0..2n+1 ``id_at``, the
    id with an endpoint there or -1 (at 0 and 2n + 1), which starts there
    iff ``left[id_at[x]] == x``, and ``next_start``, the rank (place in
    ``by_left``, the ids in left-endpoint order) of the first interval
    starting at or after there, or n if none does.  The ids starting inside
    (left_i, right_i) are the run ``by_left[next_start[left_i + 1] :
    next_start[right_i]]``.  Those ending after right_i are i's forward
    partners, kept as compressed rows ``partner[ptr[i]:ptr[i + 1]]``
    ascending by id; the rest are nested in i.  Every overlapping pair
    appears once, under its member with the smaller left endpoint, and
    ``degree`` counts each id's pairs off the rows on first read.
    """

    intervals: tuple[Interval, ...]
    pair_weights: Mapping[Pair, int] | int = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._scan()
        if not isinstance(self.pair_weights, Mapping):
            _check_weight(self.pair_weights, "pair weights")
            return
        expected = overlap_pairs_within(range(len(self)), self)
        got = set(self.pair_weights)
        if got != expected:
            raise ValueError(
                f"pair_weights must cover exactly the overlapping pairs; "
                f"missing={sorted(expected - got)} spurious={sorted(got - expected)}"
            )
        for w in self.pair_weights.values():
            _check_weight(w, "pair weights")

    def _scan(self) -> None:
        """Fill the tables: O(n log n + P) for the P overlapping pairs, plus
        the sorts of the forward rows.

        Placing the endpoints in ``id_at`` checks them: 2n distinct ints in
        1..2n are exactly {1..2n}.  One walk over the positions keeps the
        open intervals by descending right end, so the interval ending at a
        position is the last one.  A start j joins the rows of the open
        intervals that end before right_j, which are exactly those j crosses
        from the right, and is inserted in front of them, so an insertion
        moves only the intervals it crosses.  Each row is then sorted by id.
        """
        n = len(self.intervals)
        left = tuple(iv.left for iv in self.intervals)
        right = tuple(iv.right for iv in self.intervals)
        id_at = [-1] * (2 * n + 2)
        for i, x in chain(enumerate(left), enumerate(right)):
            if not isinstance(x, int) or not 0 < x <= 2 * n or id_at[x] >= 0:
                raise ValueError("endpoints must be exactly {1..2n} with no repeats")
            id_at[x] = i
        by_left = []
        next_start = [0] * (2 * n + 2)
        next_start[-1] = n
        rows: list[list[int]] = [[] for _ in range(n)]
        # The open intervals by descending right end: ``ends`` holds their
        # negated right ends, ascending, and ``open_ids`` their ids.
        ends, open_ids = [], []
        for x in range(1, 2 * n + 1):
            next_start[x] = len(by_left)
            i = id_at[x]
            if left[i] == x:
                by_left.append(i)
                at = bisect_left(ends, -right[i])
                for a in open_ids[at:]:
                    rows[a].append(i)
                ends.insert(at, -right[i])
                open_ids.insert(at, i)
            else:
                ends.pop()
                open_ids.pop()
        for row in rows:
            if len(row) > 1:
                row.sort()
        self.__dict__.update(
            left=left, right=right, weight=tuple(iv.weight for iv in self.intervals),
            id_at=tuple(id_at), by_left=tuple(by_left),
            next_start=tuple(next_start), ptr=(0, *accumulate(map(len, rows))),
            partner=tuple(chain.from_iterable(rows)),
        )

    @classmethod
    def build(
        cls,
        spans: Sequence[tuple[int, int]],
        weights: Sequence[int] | None = None,
        pair_weights: Mapping[Pair, int] | int = 0,
    ) -> "IntervalSet":
        """Convenience constructor from raw (left, right) spans; the keys of
        a ``pair_weights`` mapping may list either id first, but two keys
        naming the same pair raise ValueError."""
        ws = list(weights) if weights is not None else [0] * len(spans)
        ivs = tuple(Interval(l, r, w) for (l, r), w in zip(spans, ws))
        if isinstance(pair_weights, Mapping):
            keyed = {canonical_edge(*k): v for k, v in pair_weights.items()}
            if len(keyed) != len(pair_weights):
                raise ValueError("pair_weights names a pair twice")
            pair_weights = keyed
        return cls(ivs, pair_weights)

    def with_pair_weight(self, w: int) -> "IntervalSet":
        """This set with every overlapping pair weighing the int ``w``: the
        set itself if that is its weight, else a copy that shares every
        table (and any cached property) instead of scanning again."""
        _check_weight(w, "pair weights")
        if self.pair_weights == w:
            return self
        copy = object.__new__(IntervalSet)
        copy.__dict__.update(self.__dict__, pair_weights=w)
        return copy

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def pair_weight(self, i: int, j: int) -> int:
        """Weight of the pair of ids i and j, given in either order; the
        pair must overlap (an int weight answers for any pair unchecked)."""
        pw = self.pair_weights
        return pw if isinstance(pw, int) else pw[(i, j) if i < j else (j, i)]

    def id_of(self, interval: Interval | int) -> int:
        """Id of an interval given by its id or by its endpoints."""
        if isinstance(interval, int):
            if not 0 <= interval < len(self.intervals):
                raise ValueError(f"interval id {interval} is not in the set")
            return interval
        l = interval.left
        i = self.id_at[l] if isinstance(l, int) and 0 < l < len(self.id_at) else -1
        if i < 0 or self.left[i] != l or self.right[i] != interval.right:
            raise ValueError(f"interval [{interval.left},{interval.right}] is not in the set")
        return i

    def forward(self, i: int) -> tuple[int, ...]:
        """Ids j with left_i < left_j < right_i < right_j, ascending."""
        return self.partner[self.ptr[i] : self.ptr[i + 1]]

    def nested(self, i: int) -> list[int]:
        """Ids strictly nested in interval i, in left-endpoint order."""
        r, right, ns = self.right[i], self.right, self.next_start
        return [j for j in self.by_left[ns[self.left[i] + 1] : ns[r]] if right[j] < r]

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Ids of the intervals overlapping each interval, ascending."""
        nbr: list[list[int]] = [list(self.forward(i)) for i in range(len(self))]
        for i in range(len(self)):
            for j in self.forward(i):
                nbr[j].append(i)
        return tuple(tuple(sorted(x)) for x in nbr)

    @cached_property
    def degree(self) -> tuple[int, ...]:
        """Overlap degree per id: its forward row's length plus the rows listing it."""
        degree = [b - a for a, b in zip(self.ptr, self.ptr[1:])]
        for j in self.partner:
            degree[j] += 1
        return tuple(degree)

    @cached_property
    def max_degree(self) -> int:
        return max(self.degree, default=0)

    @cached_property
    def total_length(self) -> int:
        return sum(i.length for i in self.intervals)


def overlap_pairs_within(chosen: Iterable[int], s: IntervalSet) -> frozenset[Pair]:
    """The overlapping pairs inside a chosen id set, smaller id first, read
    off the forward rows in O(sum of the chosen ids' forward degrees)."""
    ids = set(chosen)
    return frozenset((i, j) if i < j else (j, i) for i in ids for j in s.forward(i) if j in ids)


def solution_weight(chosen: Iterable[int], s: IntervalSet) -> int:
    """Objective value of a chosen interval subset: the sum of its interval
    weights minus the weights of the overlapping pairs inside it."""
    return Solution.from_chosen(chosen, s, 0).weight  # k does not enter the weight


@dataclass(frozen=True)
class Solution:
    """A feasible subset for the bounded-overlap selection problem.

    ``chosen`` holds interval ids (equivalently circle-graph node ids /
    layout edge ids), ``weight`` the objective value, ``overlap_pairs`` the
    overlapping pairs inside the chosen set, and ``k`` the overlap bound the
    solution was computed for.
    """

    chosen: frozenset[int]
    weight: int
    overlap_pairs: frozenset[Pair]
    k: int

    @classmethod
    def from_chosen(cls, chosen: Iterable[int], s: IntervalSet, k: int) -> "Solution":
        ids = frozenset(chosen)
        pairs = overlap_pairs_within(ids, s)
        weight = sum(s.weight[i] for i in ids) - sum(s.pair_weight(i, j) for i, j in pairs)
        return cls(ids, weight, pairs, k)

    @classmethod
    def recovered(cls, chosen: Iterable[int], s: IntervalSet, k: int, value: int) -> "Solution":
        """The solution a dynamic program recovered for optimum ``value``,
        checked to weigh ``value`` and to be k-overlap.  The checks raise
        explicitly so that they also run under ``python -O``."""
        sol = cls.from_chosen(chosen, s, k)
        if sol.weight != value:
            raise AssertionError(f"recovered solution weighs {sol.weight}, the DP value is {value}")
        if sol.max_overlap_degree() > k:
            raise AssertionError(f"recovered solution is not {k}-overlap")
        return sol

    def max_overlap_degree(self) -> int:
        if not self.chosen:
            return 0
        deg: dict[int, int] = {i: 0 for i in self.chosen}
        for a, b in self.overlap_pairs:
            deg[a] += 1
            deg[b] += 1
        return max(deg.values())
