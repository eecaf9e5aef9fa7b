import random

import pytest

from conftest import complete_graph, make_set, random_layout
from twosided.bench import generate_random_biconnected, random_interval_set
from twosided.model import (
    A_NESTS_B,
    DISJOINT,
    OVERLAP,
    Interval,
    IntervalSet,
    LayoutInstance,
    TwoSidedAssignment,
    chords_cross,
    count_crossings,
    overlap_kind,
    overlap_pairs_within,
    solution_weight,
)
from twosided.pipeline import solve_layout
from twosided.transform import EdgeWeightMode


# -- chords_cross -----------------------------------------------------------


def test_chords_cross_alternation():
    order = (1, 2, 3, 4)
    assert chords_cross((1, 3), (2, 4), order)
    assert not chords_cross((1, 2), (3, 4), order)
    assert not chords_cross((1, 4), (2, 3), order)  # nested arcs


def test_chords_sharing_a_vertex_never_cross():
    order = (1, 2, 3, 4)
    assert not chords_cross((1, 3), (1, 4), order)
    assert not chords_cross((1, 3), (3, 2), order)


def test_chords_cross_symmetry(rng):
    for _ in range(200):
        n = rng.randint(4, 9)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        a = tuple(rng.sample(range(1, n + 1), 2))
        b = tuple(rng.sample(range(1, n + 1), 2))
        assert chords_cross(a, b, order) == chords_cross(b, a, order)


# -- count_crossings --------------------------------------------------------


def all_interior(instance: LayoutInstance) -> TwoSidedAssignment:
    return TwoSidedAssignment.from_exterior(instance, ())


def test_k5_all_interior_five_crossings():
    k5 = complete_graph(5)
    assert count_crossings(k5, all_interior(k5)) == (5, 0)


def test_k5_all_exterior_by_symmetry():
    k5 = complete_graph(5)
    a = TwoSidedAssignment.from_exterior(k5, k5.edge_ids())
    assert count_crossings(k5, a) == (0, 5)


def test_c4_all_interior_no_crossings():
    c4 = LayoutInstance.build(range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert count_crossings(c4, all_interior(c4)) == (0, 0)


def test_count_crossings_rejects_malformed_partition():
    c4 = LayoutInstance.build(range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(ValueError):
        count_crossings(c4, TwoSidedAssignment(frozenset({0, 1}), frozenset({1, 2, 3})))
    with pytest.raises(ValueError):
        count_crossings(c4, TwoSidedAssignment(frozenset({0, 1}), frozenset({2})))


def test_count_crossings_rotation_and_reflection_invariance(rng):
    for _ in range(40):
        n = rng.randint(4, 8)
        m = rng.randint(n, min(12, n * (n - 1) // 2))
        inst = random_layout(rng, n, m)
        base = count_crossings(inst, all_interior(inst))
        shift = rng.randrange(n)
        rotated = LayoutInstance.build(
            inst.vertices, inst.edges, inst.order[shift:] + inst.order[:shift]
        )
        reflected = LayoutInstance.build(inst.vertices, inst.edges, inst.order[::-1])
        assert count_crossings(rotated, all_interior(rotated)) == base
        assert count_crossings(reflected, all_interior(reflected)) == base


def test_count_crossings_matches_pair_loop_on_random_sides(rng):
    """Both side counts equal a chords_cross pair loop, on shuffled orders
    and exterior sets from empty to all edges."""
    for _ in range(150):
        n = rng.randint(2, 9)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = rng.sample(pairs, rng.randint(0, min(14, len(pairs))))
        inst = LayoutInstance.build(range(1, n + 1), edges, order)
        ext = frozenset(rng.sample(range(len(edges)), rng.randint(0, len(edges))))
        expected = [0, 0]
        for a in range(len(edges)):
            for b in range(a + 1, len(edges)):
                if (a in ext) == (b in ext) and chords_cross(edges[a], edges[b], order):
                    expected[a in ext] += 1
        assignment = TwoSidedAssignment.from_exterior(inst, ext)
        assert count_crossings(inst, assignment) == tuple(expected)


def test_count_crossings_all_interior_makes_no_pass(monkeypatch):
    """With the layout's per-edge counts cached, an all-interior count runs
    no sweep; an exterior count runs one over the exterior only, once per
    assignment, however often that assignment is counted."""
    from twosided import model

    calls = []
    real = model.crossings_per_chord

    def recorded(instance, edge_ids):
        ids = list(edge_ids)
        calls.append(len(ids))
        return real(instance, ids)

    monkeypatch.setattr(model, "crossings_per_chord", recorded)
    k5 = complete_graph(5)
    assert len(k5.crossings_per_edge) == 10
    assert calls == [10]
    assert count_crossings(k5, all_interior(k5)) == (5, 0)
    assert calls == [10]
    two = TwoSidedAssignment.from_exterior(k5, {1, 5})
    assert count_crossings(k5, two) == (2, 1)
    assert count_crossings(k5, two) == (2, 1)
    assert dict(model.exterior_crossings(k5, two)) == {1: 1, 5: 1}
    assert calls == [10, 2]
    assert count_crossings(k5, TwoSidedAssignment.from_exterior(k5, {1, 5})) == (2, 1)
    assert calls == [10, 2, 2]


# -- instance validation ----------------------------------------------------


def test_layout_instance_rejects_bad_input():
    with pytest.raises(ValueError):
        LayoutInstance.build([1, 2], [(1, 1)])
    with pytest.raises(ValueError):
        LayoutInstance.build([1, 2], [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        LayoutInstance.build([1, 2, 3], [(1, 2)], order=[1, 2, 2])
    with pytest.raises(ValueError, match="duplicate vertex ids"):
        LayoutInstance.build([1, 2, 2], [(1, 2)])
    with pytest.raises(ValueError, match=r"edge \(1,3\) uses unknown vertex"):
        LayoutInstance.build([1, 2], [(1, 3)])


# -- interval classification ------------------------------------------------


def test_overlap_kind_cases():
    assert overlap_kind(Interval(1, 3), Interval(2, 4)) == OVERLAP
    assert overlap_kind(Interval(1, 4), Interval(2, 3)) == A_NESTS_B
    assert overlap_kind(Interval(1, 2), Interval(3, 4)) == DISJOINT


def test_overlap_kind_rejects_shared_endpoints():
    with pytest.raises(ValueError):
        overlap_kind(Interval(1, 3), Interval(3, 5))


def test_length_sum_bound(rng):
    from twosided.bench import random_interval_set

    for seed in range(20):
        s = random_interval_set(rng.randint(1, 10), random.Random(seed))
        ell = sum(iv.length for iv in s.intervals)
        assert ell == s.total_length
        double_sum = sum(
            s.intervals[i].length + s.intervals[j].length for (i, j) in s.pair_weights
        ) * 2  # each unordered pair appears twice in the double sum
        assert double_sum <= 2 * s.max_degree * ell


# -- IntervalSet / solution_weight -----------------------------------------


def test_interval_set_validates_endpoints_and_pairs():
    with pytest.raises(ValueError):
        IntervalSet((Interval(1, 3), Interval(2, 5)), {(0, 1): 1})  # endpoints not 1..4
    with pytest.raises(ValueError):
        IntervalSet((Interval(1, 3), Interval(2, 4)), {})  # missing pair entry
    with pytest.raises(ValueError):
        IntervalSet((Interval(1, 2), Interval(3, 4)), {(0, 1): 1})  # spurious pair
    # Endpoints are ints: a float one is refused as a bad endpoint, not
    # used as a table index.
    for ivs in ((Interval(1.0, 2.0),), (Interval(1, 2), Interval(3, 3.5))):
        with pytest.raises(ValueError, match="endpoints must be exactly"):
            IntervalSet(ivs, 0)
    # An interval's two endpoints are distinct, left before right.
    with pytest.raises(ValueError, match=r"interval needs left < right, got \[3,3\]"):
        Interval(3, 3)
    # A negative uniform pair weight is rejected even when no pair overlaps.
    for spans, pair_weights in (
        ([(1, 2), (3, 4)], -1),
        ([(1, 3), (2, 4)], -1),
        ([(1, 3), (2, 4)], {(0, 1): -1}),
    ):
        with pytest.raises(ValueError, match="pair weights must be non-negative"):
            IntervalSet.build(spans, None, pair_weights)
    # Weights are ints: with floats the solvers' exact recovery checks fail
    # on rounding, and a float pair weight was taken for a mapping.
    with pytest.raises(ValueError, match="interval weights must be ints"):
        Interval(1, 2, 1.0)
    for spans, pair_weights in (
        ([(1, 2), (3, 4)], 0.5),
        ([(1, 3), (2, 4)], 2.0),
        ([(1, 3), (2, 4)], {(0, 1): 1.5}),
    ):
        with pytest.raises(ValueError, match="pair weights must be ints"):
            IntervalSet.build(spans, None, pair_weights)
        with pytest.raises(ValueError, match="pair weights must be ints"):
            IntervalSet(tuple(Interval(l, r) for l, r in spans), pair_weights)
    with pytest.raises(ValueError, match="interval weights must be ints"):
        IntervalSet.build([(1, 3), (2, 4)], [1, 0.5], 1)


def test_interval_set_build_rejects_a_pair_named_twice():
    """Keys listing either id first name one pair; naming it twice is an
    error, as a pair line repeated in an interval file is, rather than a
    silent choice of one of the weights."""
    with pytest.raises(ValueError, match="names a pair twice"):
        IntervalSet.build([(1, 3), (2, 4)], [1, 1], {(0, 1): 2, (1, 0): 5})
    with pytest.raises(ValueError, match="names a pair twice"):
        IntervalSet.build([(1, 3), (2, 4)], [1, 1], {(1, 0): 2, (0, 1): 2})
    s = IntervalSet.build([(1, 3), (2, 4)], [1, 1], {(1, 0): 5})
    assert s.pair_weights == {(0, 1): 5}


def test_solution_weight():
    s = make_set([(1, 3), (2, 4)], [3, 4], 1)
    assert solution_weight([], s) == 0
    assert solution_weight([0], s) == 3
    assert solution_weight([0, 1], s) == 6


def test_overlap_pairs_within_matches_the_neighbor_rows(rng):
    """The pairs read off the forward rows are the pairs the neighbor rows
    give, for random subsets of random sets."""
    for trial in range(60):
        s = random_interval_set(rng.randint(0, 14), random.Random(7300 + trial))
        for _ in range(4):
            ids = {i for i in range(len(s)) if rng.random() < 0.6}
            want = frozenset((i, j) for i in ids for j in s.neighbors[i] if j > i and j in ids)
            assert overlap_pairs_within(ids, s) == want, trial


def test_k1_solve_layout_leaves_the_neighbor_rows_unbuilt(monkeypatch):
    """The projection's degree check and the recovered solution's pairs
    read the forward rows, so a k<=1 solve never builds ``neighbors``."""

    def unbuilt(self):
        raise AssertionError("a k<=1 solve built IntervalSet.neighbors")

    monkeypatch.setattr(IntervalSet, "neighbors", property(unbuilt))
    layout = generate_random_biconnected(30, 78, seed=424242)
    for k in (0, 1):
        for mode in EdgeWeightMode:
            # k=1 recovers overlapping pairs, so the pair read is exercised.
            assert bool(solve_layout(layout, k, mode).solution.overlap_pairs) == (k == 1)
