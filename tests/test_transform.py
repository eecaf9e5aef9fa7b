import gc
import random
import tracemalloc
import weakref

import pytest

from conftest import random_layout
from twosided.bench import generate_random_biconnected
from twosided.graphio import dump_intervals, parse_intervals
from twosided.model import IntervalSet, LayoutInstance, chords_cross, overlap_kind, overlap_pairs_within
from twosided.transform import EdgeWeightMode, project_to_intervals


def links_of(s: IntervalSet) -> frozenset[tuple[int, int]]:
    return overlap_pairs_within(range(len(s)), s)


def c4_with_diagonals() -> LayoutInstance:
    return LayoutInstance.build(
        range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (2, 4)]
    )


def test_circle_graph_c4_with_diagonals():
    inst = c4_with_diagonals()
    for mode in EdgeWeightMode:
        s = project_to_intervals(inst, mode).interval_set
        assert len(s) == 6
        assert links_of(s) == {(4, 5)}  # only the two diagonals cross
        assert s.pair_weights == mode.value
        assert tuple(iv.weight for iv in s.intervals) == (0, 0, 0, 0, 1, 1)
        assert s.max_degree == 1


def test_circle_graph_star_has_no_links():
    star = LayoutInstance.build(range(1, 5), [(1, 2), (1, 3), (1, 4)])
    s = project_to_intervals(star, EdgeWeightMode.COUNT_SHIFTED).interval_set
    assert len(s) == 3
    assert not links_of(s)
    assert tuple(iv.weight for iv in s.intervals) == (0, 0, 0)


def test_circle_graph_single_edge():
    inst = LayoutInstance.build([1, 2], [(1, 2)])
    s = project_to_intervals(inst, EdgeWeightMode.IGNORE_SHIFTED).interval_set
    assert len(s) == 1
    assert tuple(iv.weight for iv in s.intervals) == (0,)
    assert not links_of(s)


def test_link_count_equals_all_interior_crossings(rng):
    from twosided.model import TwoSidedAssignment, count_crossings

    for _ in range(25):
        n = rng.randint(4, 8)
        m = rng.randint(n - 1, min(14, n * (n - 1) // 2))
        inst = random_layout(rng, n, m)
        s = project_to_intervals(inst, EdgeWeightMode.COUNT_SHIFTED).interval_set
        interior, _ = count_crossings(inst, TwoSidedAssignment.from_exterior(inst, ()))
        assert len(links_of(s)) == interior


def test_projection_star_is_overlap_free():
    star = LayoutInstance.build(range(1, 5), [(1, 2), (1, 3), (1, 4)])
    proj = project_to_intervals(star)
    ivs = proj.interval_set.intervals
    assert len(ivs) == 3
    for a in range(3):
        for b in range(a + 1, 3):
            assert overlap_kind(ivs[a], ivs[b]) != "overlap"
    assert not links_of(proj.interval_set)


def test_projection_crossing_chords_overlap():
    inst = LayoutInstance.build(range(1, 5), [(1, 3), (2, 4)])
    proj = project_to_intervals(inst)
    assert links_of(proj.interval_set) == {(0, 1)}


def test_projection_empty_graph():
    inst = LayoutInstance.build(range(1, 4), [])
    proj = project_to_intervals(inst)
    assert len(proj.interval_set) == 0


def test_projection_fidelity_random(rng):
    """The overlap graph of the projection is the circle graph: same links,
    same weights, via the identity node mapping."""
    for _ in range(40):
        n = rng.randint(3, 9)
        m = rng.randint(0, min(16, n * (n - 1) // 2))
        inst = random_layout(rng, n, m)
        links = {
            (i, j)
            for i in range(m)
            for j in range(i + 1, m)
            if chords_cross(inst.edges[i], inst.edges[j], inst.order)
        }
        degree = [sum(1 for link in links if i in link) for i in range(m)]
        for mode in EdgeWeightMode:
            proj = project_to_intervals(inst, mode)
            s = proj.interval_set
            assert links_of(s) == links
            assert s.pair_weights == mode.value
            for i, iv in enumerate(s.intervals):
                assert iv.weight == degree[i]
            # endpoint completeness is enforced by the IntervalSet invariant;
            # recheck explicitly anyway
            pts = sorted(p for iv in s.intervals for p in (iv.left, iv.right))
            assert pts == list(range(1, 2 * m + 1))


def test_projection_determinism(rng):
    inst = random_layout(random.Random(7), 8, 13)
    a = project_to_intervals(inst)
    b = project_to_intervals(inst)
    assert a.interval_set.intervals == b.interval_set.intervals
    assert links_of(a.interval_set) == links_of(b.interval_set)
    assert a.interval_set.pair_weights == b.interval_set.pair_weights


def test_projection_keeps_few_bytes_per_overlapping_pair():
    """The uniform pair weight stays one int instead of one entry per pair."""
    inst = generate_random_biconnected(200, 520, seed=1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        s = project_to_intervals(inst).interval_set
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept < 60 * len(s.partner), f"{kept / len(s.partner):.0f} B per pair"


def test_every_projection_of_a_layout_shares_one_checked_scan(monkeypatch):
    """The scan and its check run once per layout; each projection, in
    either mode, reads the same tables and carries its mode's pair
    weight."""
    from twosided import transform

    checks = []
    check = transform._check_alternation
    monkeypatch.setattr(transform, "_check_alternation", lambda *args: checks.append(1) or check(*args))
    inst = generate_random_biconnected(12, 30, seed=4)
    sets = [project_to_intervals(inst, mode).interval_set
            for mode in (*EdgeWeightMode, *EdgeWeightMode)]
    assert len(checks) == 1
    assert [s.pair_weights for s in sets] == [1, 2, 1, 2]
    first = sets[0]
    for s in sets:
        assert s.partner is first.partner and s.by_left is first.by_left
        assert s.intervals is first.intervals and s.weight is first.weight
        assert s.pair_weight(*next(iter(links_of(s)))) == s.pair_weights
    other = generate_random_biconnected(12, 30, seed=4)
    assert project_to_intervals(other).interval_set.partner is not first.partner
    assert len(checks) == 2


def test_with_pair_weight_shares_the_tables_and_refuses_a_negative_weight():
    s = IntervalSet.build([(1, 3), (2, 4)], [1, 1], 2)
    assert s.with_pair_weight(2) is s
    t = s.with_pair_weight(0)
    assert (t.pair_weights, s.pair_weights) == (0, 2)
    assert t.partner is s.partner and t.intervals is s.intervals
    with pytest.raises(ValueError, match="non-negative"):
        s.with_pair_weight(-1)
    with pytest.raises(ValueError, match="pair weights must be ints"):
        s.with_pair_weight(1.0)


def test_the_kept_scan_does_not_keep_its_layout_alive():
    inst = generate_random_biconnected(10, 20, seed=2)
    s = project_to_intervals(inst).interval_set
    ref = weakref.ref(inst)
    del inst
    gc.collect()
    assert ref() is None
    assert len(s) == 20


def test_a_refused_layout_keeps_no_scan(monkeypatch):
    """A layout over the pair limit raises on every call, and solves once
    the limit admits it."""
    from twosided import transform

    inst = generate_random_biconnected(8, 16, seed=3)
    pairs = sum(inst.crossings_per_edge) // 2
    monkeypatch.setattr(transform, "MAX_OVERLAP_PAIRS", pairs - 1)
    for _ in range(2):
        with pytest.raises(transform.ProjectionSizeError):
            project_to_intervals(inst)
    monkeypatch.setattr(transform, "MAX_OVERLAP_PAIRS", pairs)
    assert len(project_to_intervals(inst).interval_set.partner) == pairs


def test_interval_dump_round_trip():
    inst = c4_with_diagonals()
    s = project_to_intervals(inst, EdgeWeightMode.IGNORE_SHIFTED).interval_set
    text = dump_intervals(s)
    back = parse_intervals(text)
    assert back.intervals == s.intervals
    assert back.pair_weights == {p: s.pair_weight(*p) for p in links_of(s)}
    lines = text.strip().splitlines()
    assert lines[0].split() == ["0"] + [str(x) for x in
                                        (s.intervals[0].left, s.intervals[0].right, s.intervals[0].weight)]
    assert lines[-1].startswith("pair ")


@pytest.mark.parametrize(
    "edges, scanned, message",
    [
        ([(1, 2), (3, 4)], [(1, 3), (2, 4)], "broke the intersection graph at edges 0,1"),
        ([(1, 3), (2, 4)], [(1, 2), (3, 4)], "0 overlapping pairs for 1 crossing chord pairs"),
        ([(1, 2), (2, 3), (3, 4)], [(2, 5), (4, 6), (1, 3)], "broke the intersection graph at edges 0,1"),
    ],
)
def test_projection_check_raises_on_a_wrong_overlap_relation(monkeypatch, edges, scanned, message):
    build = IntervalSet.build
    monkeypatch.setattr(IntervalSet, "build", lambda spans, *args: build(scanned, *args))
    inst = LayoutInstance.build(range(1, 5), edges)
    for mode in EdgeWeightMode:  # a layout that fails the check keeps nothing
        with pytest.raises(AssertionError, match=message):
            project_to_intervals(inst, mode)


def test_projection_check_compares_each_edge_with_its_overlap_degree():
    """Per-edge crossing counts that are wrong but keep the right total are
    caught edge by edge; the interval weights are these counts."""
    inst = c4_with_diagonals()
    assert inst.crossings_per_edge == (0, 0, 0, 0, 1, 1)
    inst.__dict__["crossings_per_edge"] = (1, 0, 0, 0, 0, 1)
    with pytest.raises(AssertionError, match="edge 0 crosses 1 chords but overlaps 0 intervals"):
        project_to_intervals(inst)
