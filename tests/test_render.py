import hashlib
import random
from itertools import combinations

from conftest import complete_graph
from twosided.model import LayoutInstance, TwoSidedAssignment, chords_cross
from twosided.pipeline import solve_layout
from twosided.render import layout_stats, render_layout


def c4_with_diagonals() -> LayoutInstance:
    return LayoutInstance.build(
        range(1, 5), [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (2, 4)]
    )


def test_stats_all_interior_k5():
    k5 = complete_graph(5)
    stats = layout_stats(k5, TwoSidedAssignment.from_exterior(k5, ()))
    assert (
        stats.interior_crossings,
        stats.exterior_crossings,
        stats.n_exterior,
        stats.max_exterior_crossings,
    ) == (5, 0, 0, 0)


def test_stats_one_and_two_diagonals_outside():
    inst = c4_with_diagonals()
    one = layout_stats(inst, TwoSidedAssignment.from_exterior(inst, {4}))
    assert (one.interior_crossings, one.exterior_crossings, one.n_exterior,
            one.max_exterior_crossings) == (0, 0, 1, 0)
    both = layout_stats(inst, TwoSidedAssignment.from_exterior(inst, {4, 5}))
    assert (both.interior_crossings, both.exterior_crossings, both.n_exterior,
            both.max_exterior_crossings) == (0, 1, 2, 1)


def test_svg_structure():
    inst = c4_with_diagonals()
    all_in = render_layout(inst, TwoSidedAssignment.from_exterior(inst, ()))
    assert all_in.startswith("<?xml")
    assert all_in.count("<line ") == 6
    assert all_in.count("<path ") == 0
    assert all_in.count("<circle ") == 5  # 4 vertices + frame circle

    one_out = render_layout(inst, TwoSidedAssignment.from_exterior(inst, {4}))
    assert one_out.count("<line ") == 5
    assert one_out.count("<path ") == 1
    assert ' A ' in one_out  # exterior edges are arcs

    empty = LayoutInstance.build(range(1, 4), [])
    svg = render_layout(empty, TwoSidedAssignment.from_exterior(empty, ()))
    assert svg.count("<circle ") == 4
    assert svg.count("<line ") == 0


def test_svg_byte_determinism():
    inst = c4_with_diagonals()
    a = render_layout(inst, TwoSidedAssignment.from_exterior(inst, {4}), labels=True)
    b = render_layout(inst, TwoSidedAssignment.from_exterior(inst, {4}), labels=True)
    assert a.encode() == b.encode()


def test_svg_bytes_pinned():
    """The exact bytes of a drawing with chords, arcs and labels on a
    shuffled order; any change to the SVG output changes this digest."""
    inst = LayoutInstance.build(
        range(1, 9),
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 1),
         (1, 5), (2, 6), (3, 7), (4, 8), (1, 4)],
        order=(3, 1, 7, 5, 8, 2, 6, 4),
    )
    svg = render_layout(inst, TwoSidedAssignment.from_exterior(inst, {8, 10, 12}), labels=True)
    assert (svg.count("<line "), svg.count("<path "), svg.count("<text ")) == (10, 3, 8)
    assert hashlib.sha256(svg.encode("ascii")).hexdigest() == (
        "a8e683c32f17c1464ff0e14acdb8864485e45c573af53e79ed275ce70b44255f"
    )


def test_solve_and_stats_counts_match_pair_loop():
    """solve_layout's one-sided, interior and exterior counts and every
    layout_stats field equal a chords_cross pair loop, on random layouts
    with shuffled orders, for k = 0, 1, 2 and both weight modes."""
    from twosided.transform import EdgeWeightMode

    rng = random.Random(606)
    for _ in range(40):
        n = rng.randint(4, 9)
        order = list(range(1, n + 1))
        rng.shuffle(order)
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = rng.sample(pairs, rng.randint(3, min(13, len(pairs))))
        inst = LayoutInstance.build(range(1, n + 1), edges, order)
        crossing = [(a, b) for a, b in combinations(range(len(edges)), 2)
                    if chords_cross(edges[a], edges[b], order)]
        for k in (0, 1, 2):
            for mode in EdgeWeightMode:
                res = solve_layout(inst, k, mode)
                ext = res.assignment.exterior
                inside = sum(a not in ext and b not in ext for a, b in crossing)
                outside = [(a, b) for a, b in crossing if a in ext and b in ext]
                per_edge = {e: sum(e in p for p in outside) for e in ext}
                assert (res.crossings_one_sided, res.interior, res.exterior) == (
                    len(crossing), inside, len(outside))
                stats = layout_stats(inst, res.assignment)
                assert (stats.interior_crossings, stats.exterior_crossings, stats.n_exterior,
                        stats.max_exterior_crossings) == (
                    inside, len(outside), len(ext), max(per_edge.values(), default=0))


def test_solver_assignments_respect_k_in_stats(rng):
    import random

    from conftest import random_layout
    from twosided.pipeline import solve_layout
    from twosided.transform import EdgeWeightMode

    for trial in range(10):
        inst = random_layout(random.Random(50 + trial), 7, 12)
        for k in (0, 1, 2):
            res = solve_layout(inst, k, EdgeWeightMode.IGNORE_SHIFTED)
            stats = layout_stats(inst, res.assignment)
            assert stats.max_exterior_crossings <= k


def test_stats_agree_with_count_crossings(rng):
    import random

    from conftest import random_layout
    from twosided.model import count_crossings

    for trial in range(20):
        r = random.Random(trial)
        inst = random_layout(r, 7, 12)
        exterior = frozenset(r.sample(range(12), 4))
        assignment = TwoSidedAssignment.from_exterior(inst, exterior)
        stats = layout_stats(inst, assignment)
        interior, ext = count_crossings(inst, assignment)
        assert (stats.interior_crossings, stats.exterior_crossings) == (interior, ext)
        assert stats.n_exterior == 4
