import pytest

from conftest import complete_graph, make_set
from twosided.model import LayoutInstance, chords_cross
from twosided.oracle import (
    OracleSizeError,
    brute_force_k_overlap,
    brute_force_min_dominating_set,
    brute_force_two_sided,
)
from twosided.transform import EdgeWeightMode


def test_k_overlap_tiny_cases():
    assert brute_force_k_overlap(make_set([]), 0).weight == 0
    single = make_set([(1, 2)], [7])
    assert brute_force_k_overlap(single, 0).weight == 7
    triangle = make_set([(1, 4), (2, 5), (3, 6)], [1, 1, 1], 1)
    assert brute_force_k_overlap(triangle, 1).weight == 1


def test_k_overlap_tie_break_lexicographic():
    s = make_set([(1, 2), (3, 4)], [5, 5])
    sol = brute_force_k_overlap(s, 0)
    assert sol.chosen == frozenset({0, 1})
    tie = make_set([(1, 3), (2, 4)], [2, 2], 2)
    sol = brute_force_k_overlap(tie, 1)
    assert sol.weight == 2
    assert sol.chosen == frozenset({0})  # {0} and {1} tie; smaller tuple wins


def test_k_overlap_guard():
    s = make_set([(i * 2 + 1, i * 2 + 2) for i in range(21)])
    with pytest.raises(OracleSizeError):
        brute_force_k_overlap(s, 1)


def test_negative_k_is_rejected():
    with pytest.raises(ValueError, match="k must be non-negative"):
        brute_force_k_overlap(make_set([(1, 2)], [7]), -1)
    c4 = LayoutInstance.build(range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(ValueError, match="k must be non-negative"):
        brute_force_two_sided(c4, -1, EdgeWeightMode.IGNORE_SHIFTED)
    # A k that is not an int is refused as solve_k refuses it.
    with pytest.raises(ValueError, match="k must be an int, got 0.5"):
        brute_force_k_overlap(make_set([(1, 3), (2, 4), (5, 6)], [1, 1, 1]), 0.5)
    with pytest.raises(ValueError, match="k must be an int, got 0.5"):
        brute_force_two_sided(c4, 0.5, EdgeWeightMode.IGNORE_SHIFTED)


def test_two_sided_planar_instance_keeps_everything_inside():
    c4 = LayoutInstance.build(range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4)])
    assignment, interior, total = brute_force_two_sided(
        c4, 0, EdgeWeightMode.IGNORE_SHIFTED
    )
    assert (interior, total) == (0, 0)
    assert assignment.exterior == frozenset()


def test_two_sided_c4_diagonals():
    inst = LayoutInstance.build(
        range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (2, 4)]
    )
    _, interior, total = brute_force_two_sided(inst, 0, EdgeWeightMode.IGNORE_SHIFTED)
    assert (interior, total) == (0, 0)


def test_two_sided_k5_outerplanar_bound():
    k5 = complete_graph(5)
    assignment, interior, total = brute_force_two_sided(
        k5, 0, EdgeWeightMode.COUNT_SHIFTED
    )
    assert interior == 1  # two exterior non-crossing diagonals kill 4 of 5
    assert total == 1
    # the exterior set is independent in the crossing graph
    ext = sorted(assignment.exterior)
    for a in range(len(ext)):
        for b in range(a + 1, len(ext)):
            assert not chords_cross(k5.edges[ext[a]], k5.edges[ext[b]], k5.order)


def test_two_sided_guard():
    inst = LayoutInstance.build(
        range(1, 18), [(i, i + 1) for i in range(1, 17)] + [(1, 17)]
    )
    with pytest.raises(OracleSizeError):
        brute_force_two_sided(inst, 0, EdgeWeightMode.COUNT_SHIFTED)


def test_min_dominating_set_cases():
    assert brute_force_min_dominating_set(1, []) == frozenset({0})
    star = [(0, i) for i in range(1, 6)]
    assert brute_force_min_dominating_set(6, star) == frozenset({0})
    p4 = [(0, 1), (1, 2), (2, 3)]
    assert len(brute_force_min_dominating_set(4, p4)) == 2
    with pytest.raises(OracleSizeError):
        brute_force_min_dominating_set(21, [])
