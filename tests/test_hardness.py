import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_set
from twosided.bench import random_interval_set
from twosided.hardness import extract_dominating_set, reduce_mds_to_bdmwis
from twosided.model import IntervalSet, Solution, overlap_pairs_within
from twosided.oracle import brute_force_min_dominating_set
from twosided.solver_general import solve_k


def bounded_degree_circle_graph(n: int, seed: int, max_degree: int = 3) -> IntervalSet:
    rng = random.Random(seed)
    while True:
        s = random_interval_set(n, rng, max_weight=0, max_pair_weight=0)
        if s.max_degree <= max_degree:
            return s


def test_reduction_single_vertex():
    g = make_set([(1, 2)])
    red = reduce_mds_to_bdmwis(g)
    assert red.k == 0
    assert len(red.intervals) == 2  # one leaf brings the vertex to degree 1
    assert red.leaf_parent == {1: 0}
    sol = solve_k(red.intervals, red.k)
    dom = extract_dominating_set(sol, red)
    assert dom == frozenset({0})


def test_reduction_overlapping_pair():
    g = make_set([(1, 3), (2, 4)], pair_weights=0)
    red = reduce_mds_to_bdmwis(g)
    assert red.k == 1
    # each endpoint of the pair gets one leaf to reach degree 2
    assert len(red.intervals) == 4
    dom = extract_dominating_set(solve_k(red.intervals, red.k), red)
    assert len(dom) == 1


def test_reduction_path_p3_degrees():
    # overlap path on three intervals: end degrees 1, middle degree 2
    g = make_set([(1, 3), (2, 5), (4, 6)], pair_weights=0)
    red = reduce_mds_to_bdmwis(g)
    assert red.k == 2
    for i in range(red.n_original):
        assert len(red.intervals.neighbors[i]) == red.k + 1
    dom = extract_dominating_set(solve_k(red.intervals, red.k), red)
    assert len(dom) == 1  # the middle interval dominates the path


def test_reduced_instance_is_valid_interval_set(rng):
    for trial in range(30):
        g = bounded_degree_circle_graph(rng.randint(1, 8), 100 + trial)
        red = reduce_mds_to_bdmwis(g)
        s = red.intervals
        # IntervalSet construction re-validates endpoints and pair coverage;
        # check the leaf structure on top.
        for u, p in red.leaf_parent.items():
            assert s.neighbors[u] == (p,)
        for i in range(red.n_original):
            assert len(s.neighbors[i]) == red.k + 1
        assert all(iv.weight == 1 for iv in s.intervals)
        assert s.pair_weights == 0


def test_extract_rejects_infeasible_solution():
    g = make_set([(1, 3), (2, 4)], pair_weights=0)
    red = reduce_mds_to_bdmwis(g)
    overfull = Solution.from_chosen(range(len(red.intervals)), red.intervals, red.k)
    with pytest.raises(ValueError):
        extract_dominating_set(overfull, red)


def test_feasible_but_suboptimal_solution_still_dominates():
    g = make_set([(1, 3), (2, 5), (4, 6)], pair_weights=0)
    red = reduce_mds_to_bdmwis(g)
    empty = Solution.from_chosen((), red.intervals, red.k)
    dom = extract_dominating_set(empty, red)
    adj = {i: set(g.neighbors[i]) for i in range(len(g))}
    for v in range(len(g)):
        assert v in dom or (adj[v] & dom)


def test_round_trip_optimality(rng):
    for trial in range(60):
        n = rng.randint(1, 8)
        g = bounded_degree_circle_graph(n, 200 + trial)
        red = reduce_mds_to_bdmwis(g)
        sol = solve_k(red.intervals, red.k)
        dom = extract_dominating_set(sol, red)
        want = brute_force_min_dominating_set(n, sorted(overlap_pairs_within(range(n), g)))
        adj = {i: set(g.neighbors[i]) for i in range(n)}
        for v in range(n):
            assert v in dom or (adj[v] & dom)
        assert len(dom) == len(want), (trial, sorted(dom), sorted(want))


@st.composite
def reduced_with_selection(draw):
    """A reduced instance of a circle graph with maximum degree <= 3, and a
    k-feasible selection on it: a drawn prefix of a drawn order of the
    intervals, each taken when it keeps every selected interval's overlap
    degree <= k."""
    n = draw(st.integers(0, 8))
    pts = draw(st.permutations(range(1, 2 * n + 1)))
    g = make_set([tuple(sorted(pts[2 * i : 2 * i + 2])) for i in range(n)])
    assume(g.max_degree <= 3)
    red = reduce_mds_to_bdmwis(g)
    s = red.intervals
    chosen: set[int] = set()
    order = draw(st.permutations(range(len(s))))
    for u in order[: draw(st.integers(0, len(s)))]:
        trial = chosen | {u}
        if all(sum(w in trial for w in s.neighbors[v]) <= red.k for v in trial):
            chosen = trial
    return g, red, chosen


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(reduced_with_selection(), st.data())
def test_extract_dominating_set_from_any_feasible_selection(case, data):
    g, red, chosen = case
    s = red.intervals
    dom = extract_dominating_set(Solution.from_chosen(chosen, s, red.k), red)
    for v in range(len(g)):
        assert v in dom or set(g.neighbors[v]) & dom
    assert len(dom) <= len(s) - len(chosen)
    if len(g):
        # An original and its k+1 neighbours overlap it k+1 times.
        v = data.draw(st.sampled_from(range(len(g))))
        overfull = chosen | {v} | set(s.neighbors[v])
        with pytest.raises(ValueError):
            extract_dominating_set(Solution.from_chosen(overfull, s, red.k), red)
