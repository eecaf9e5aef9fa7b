"""Properties of the shared overlap structure, of the crossing count and of
the solvers' optima.

The references here are pair loops over ``chords_cross`` and ``overlap_kind``;
the program computes the same facts with the interval set's own endpoint scan
and a Fenwick-tree count (``crossings_per_chord``).  Every solver's optimum
is held to the brute-force oracle's.
"""

from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twosided.model import (
    OVERLAP,
    A_NESTS_B,
    Interval,
    IntervalSet,
    LayoutInstance,
    TwoSidedAssignment,
    chords_cross,
    count_crossings,
    crossings_per_chord,
    overlap_kind,
    overlap_pairs_within,
)
from twosided.oracle import brute_force_k_overlap
from twosided.render import layout_stats
from twosided.solver_general import GeneralSolver, solve_k
from twosided.solver_k1 import solve_k0, solve_k1
from twosided.transform import EdgeWeightMode, project_to_intervals

PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)


@st.composite
def layouts(draw, max_n=9):
    """Any simple graph on 1..n in any cyclic order; dense draws make many
    chords share a vertex."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    order = draw(st.permutations(range(1, n + 1)))
    return LayoutInstance.build(range(1, n + 1), edges, order)


@st.composite
def layouts_with_exterior(draw):
    inst = draw(layouts())
    exterior = draw(st.sets(st.sampled_from(range(inst.n_edges)))) if inst.n_edges else set()
    return inst, TwoSidedAssignment.from_exterior(inst, exterior)


@st.composite
def span_lists(draw, max_n=12):
    """Spans of a normalized interval set: a shuffled {1..2n}, paired up."""
    n = draw(st.integers(0, max_n))
    pts = draw(st.permutations(range(1, 2 * n + 1)))
    return [tuple(sorted(pts[2 * i : 2 * i + 2])) for i in range(n)]


@st.composite
def weighted_sets(draw):
    """Interval sets of up to 12 intervals, weights 0-9, pair weights 0-3."""
    spans = draw(span_lists())
    weights = draw(st.lists(st.integers(0, 9), min_size=len(spans), max_size=len(spans)))
    skeleton = IntervalSet.build(spans, pair_weights=0)
    pairs = sorted(overlap_pairs_within(range(len(spans)), skeleton))
    return IntervalSet.build(spans, weights, {p: draw(st.integers(0, 3)) for p in pairs})


def crossing_pairs(inst: LayoutInstance, ids) -> set[tuple[int, int]]:
    ids = sorted(ids)
    return {
        (a, b)
        for x, a in enumerate(ids)
        for b in ids[x + 1 :]
        if chords_cross(inst.edges[a], inst.edges[b], inst.order)
    }


def degrees(pairs, ids) -> list[int]:
    return [sum(1 for p in pairs if i in p) for i in ids]


@PROPERTY
@given(layouts_with_exterior())
def test_crossing_count_matches_pair_loop(case):
    inst, assignment = case
    interior = crossing_pairs(inst, assignment.interior)
    exterior = crossing_pairs(inst, assignment.exterior)
    assert count_crossings(inst, assignment) == (len(interior), len(exterior))
    ext = sorted(assignment.exterior)
    assert crossings_per_chord(inst, ext) == degrees(exterior, ext)
    stats = layout_stats(inst, assignment)
    assert stats.interior_crossings == len(interior)
    assert stats.exterior_crossings == len(exterior)
    assert stats.n_exterior == len(ext)
    assert stats.max_exterior_crossings == max(degrees(exterior, ext), default=0)


@st.composite
def layouts_with_id_lists(draw):
    """A layout and a list of its edge ids in any order, ids repeated."""
    inst = draw(layouts())
    ids = draw(st.lists(st.sampled_from(range(inst.n_edges)), max_size=40)) if inst.n_edges else []
    return inst, ids


@PROPERTY
@given(layouts_with_id_lists())
def test_crossings_per_chord_matches_pair_loop(case):
    """Each listed chord's count is the number of other list entries whose
    chord crosses it: a repeated id counts once per copy against the chords
    it crosses and never against its own copies, which share its ends."""
    inst, ids = case
    edges = [inst.edges[e] for e in ids]
    expected = [
        sum(1 for u, b in enumerate(edges) if u != t and chords_cross(a, b, inst.order))
        for t, a in enumerate(edges)
    ]
    assert crossings_per_chord(inst, iter(ids)) == expected


@PROPERTY
@given(layouts(), st.sampled_from(EdgeWeightMode))
def test_projection_pairs_are_the_crossing_chords(inst, mode):
    s = project_to_intervals(inst, mode).interval_set
    links = crossing_pairs(inst, inst.edge_ids())
    assert overlap_pairs_within(inst.edge_ids(), s) == links
    assert s.pair_weights == mode.value  # the int is kept
    assert all(s.pair_weight(i, j) == s.pair_weight(j, i) == mode.value for i, j in links)
    assert [iv.weight for iv in s.intervals] == degrees(links, inst.edge_ids())


@PROPERTY
@given(span_lists())
@example([])
@example([(1, 10), (2, 9), (3, 8), (4, 7), (5, 6)])  # nested: P = 0
@example([(1, 2), (3, 6), (4, 5), (7, 8)])  # disjoint and nested: P = 0
def test_overlap_scan_matches_pairwise_classification(spans):
    s = IntervalSet.build(spans, range(len(spans)), pair_weights=1)
    ivs = s.intervals
    n = len(ivs)
    kind = {(i, j): overlap_kind(ivs[i], ivs[j]) for i in range(n) for j in range(n) if i != j}
    assert s.left == tuple(iv.left for iv in ivs)
    assert s.right == tuple(iv.right for iv in ivs)
    assert s.weight == tuple(iv.weight for iv in ivs)
    starts = {iv.left: i for i, iv in enumerate(ivs)}
    ends = {iv.right: i for i, iv in enumerate(ivs)}
    assert s.id_at == tuple(starts.get(x, ends.get(x, -1)) for x in range(2 * n + 2))
    assert s.by_left == tuple(sorted(range(n), key=lambda i: ivs[i].left))
    assert all(s.by_left[s.next_start[ivs[i].left]] == i for i in range(n))
    assert s.next_start == tuple(sum(1 for iv in ivs if iv.left < x) for x in range(2 * n + 2))
    assert all(
        set(s.by_left[s.next_start[iv.left + 1] : s.next_start[iv.right]])
        == {j for j in range(n) if iv.left < ivs[j].left < iv.right}
        for iv in ivs
    )
    forward = [
        [j for j in range(n) if kind.get((i, j)) == OVERLAP and ivs[i].left < ivs[j].left]
        for i in range(n)
    ]
    assert s.ptr == tuple(accumulate(map(len, forward), initial=0))
    assert s.partner == tuple(j for row in forward for j in row)
    assert s.pair_weights == 1
    assert overlap_pairs_within(range(n), s) == {(i, j) for (i, j), k in kind.items() if i < j and k == OVERLAP}
    for i in range(n):
        assert s.neighbors[i] == tuple(j for j in range(n) if kind.get((i, j)) == OVERLAP)
        assert s.degree[i] == sum(kind.get((i, j)) == OVERLAP for j in range(n))
        assert s.forward(i) == tuple(
            j for j in s.neighbors[i] if ivs[i].left < ivs[j].left
        )
        nested = [j for j in range(n) if kind.get((i, j)) == A_NESTS_B]
        assert s.nested(i) == sorted(nested, key=lambda j: ivs[j].left)
        assert s.id_of(ivs[i]) == i


@PROPERTY
@given(span_lists(), st.data())
def test_interval_set_rejects_one_pair_missing_or_added(spans, data):
    full = IntervalSet.build(spans, pair_weights=1)
    pairs = sorted(overlap_pairs_within(range(len(spans)), full))
    if pairs:
        drop = data.draw(st.sampled_from(pairs))
        with pytest.raises(ValueError, match="missing"):
            IntervalSet(full.intervals, {p: 1 for p in pairs if p != drop})
    n = len(spans)
    others = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs]
    if others:
        extra = data.draw(st.sampled_from(others))
        with pytest.raises(ValueError, match="spurious"):
            IntervalSet(full.intervals, {**dict.fromkeys(pairs, 1), extra: 1})


def test_interval_set_scans_itself_and_keeps_an_int_pair_weight():
    ivs = (Interval(1, 3), Interval(2, 5), Interval(4, 6))
    s = IntervalSet(ivs, 2)
    assert s.pair_weights == 2
    assert overlap_pairs_within(range(3), s) == {(0, 1), (1, 2)}
    assert [s.pair_weight(i, j) for i, j in ((0, 1), (1, 0), (1, 2), (2, 1))] == [2] * 4
    with pytest.raises(TypeError):
        IntervalSet(ivs, 2, [(0, 1), (1, 2)])


def test_pair_weight_reads_a_mapping_in_either_id_order_and_refuses_negatives():
    ivs = (Interval(1, 3), Interval(2, 5), Interval(4, 6))
    s = IntervalSet(ivs, {(0, 1): 3, (1, 2): 0})
    assert (s.pair_weight(0, 1), s.pair_weight(1, 0)) == (3, 3)
    assert (s.pair_weight(1, 2), s.pair_weight(2, 1)) == (0, 0)
    assert IntervalSet.build([(1, 3), (2, 4)], pair_weights={(1, 0): 4}).pair_weight(0, 1) == 4
    with pytest.raises(ValueError, match="non-negative"):
        IntervalSet(ivs, -1)
    with pytest.raises(ValueError, match="non-negative"):
        IntervalSet(ivs, {(0, 1): 1, (1, 2): -1})


def test_id_of_rejects_an_unknown_interval():
    s = IntervalSet.build([(1, 4), (2, 3)])
    assert s.id_of(1) == 1
    with pytest.raises(ValueError, match="not in the set"):
        s.id_of(Interval(1, 3))
    s = IntervalSet.build([(1, 4), (2, 6), (3, 5)])
    assert s.id_of(Interval(2, 6)) == 1
    unknown = [
        Interval(-7, 4),  # as an index, -7 is position 1, where (1, 4) starts
        Interval(6, 7),  # left end at 2n, the set's right end
        Interval(2, 5),  # left end of interval 1, right end of interval 2
        Interval(7, 9),  # left end above 2n
        Interval(2.0, 6.0),  # float ends equal to interval 1's: not an index
    ]
    for iv in unknown:
        with pytest.raises(ValueError, match="not in the set"):
            s.id_of(iv)


@PROPERTY
@given(weighted_sets(), st.integers(0, 3))
def test_every_solver_reaches_the_oracle_optimum(s, k):
    want = brute_force_k_overlap(s, k).weight
    assert solve_k(s, k).weight == want
    assert GeneralSolver(s, k).solve().weight == want
    if k <= 1:
        assert (solve_k0, solve_k1)[k](s).weight == want
