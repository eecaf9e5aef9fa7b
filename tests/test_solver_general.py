import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

import twosided
from conftest import make_set
from twosided import solver_general
from twosided.bench import generate_random_biconnected, random_interval_set
from twosided.model import LayoutInstance, overlap_pairs_within, solution_weight
from twosided.oracle import brute_force_k_overlap
from twosided.pipeline import solve_layout
from twosided.solver_general import (
    UNDECIDED,
    UNLIMITED,
    CapacityVector,
    GeneralSolver,
    SolverBudgetError,
    dms_k,
    is_valid_for,
    legal_successors,
    solve_k,
    transition_weight,
)
from twosided.solver_k1 import solve_k0, solve_k1
from twosided.transform import EdgeWeightMode, project_to_intervals


# -- capacity vectors ---------------------------------------------------------


def test_initial_vector_shape():
    s = make_set([(1, 3), (2, 4)], [1, 1], 1)
    lam = CapacityVector.initial(s)
    assert all(lam.state_of(iv) is UNDECIDED for iv in s.intervals)
    assert all(lam.state_of(i) is UNDECIDED for i in range(len(s)))
    # Equal states give equal, equally hashed vectors, whatever order the
    # replace calls set them in.
    a = lam.replace(0, (1, 0)).replace(1, UNLIMITED)
    b = lam.replace(1, UNLIMITED).replace(0, (1, 0))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_is_valid_for():
    s = make_set([(1, 3), (2, 4)], [1, 1], 1)
    lam = CapacityVector.initial(s)
    k = 2
    committed = lam.replace(s.intervals[0], (k, 0)).replace(s.intervals[1], UNLIMITED)
    assert is_valid_for(committed, s.intervals[0], s, k)
    assert not is_valid_for(lam, s.intervals[0], s, k)  # own entries undecided
    assert not is_valid_for(
        committed.replace(s.intervals[0], UNLIMITED), s.intervals[0], s, k
    )
    # more than k committed neighbors invalidates
    crowd = make_set([(1, 4), (2, 6), (3, 8), (5, 7)], [1, 1, 1, 1], 0)
    lam2 = CapacityVector.initial(crowd)
    lam2 = lam2.replace(crowd.intervals[1], (0, 0))
    lam2 = lam2.replace(crowd.intervals[0], (0, 0))
    lam2 = lam2.replace(crowd.intervals[3], (0, 0))
    lam2 = lam2.replace(crowd.intervals[2], UNLIMITED)
    assert not is_valid_for(lam2, crowd.intervals[1], crowd, k=1)


def test_legal_successors_no_neighbors():
    s = make_set([(1, 2), (3, 4)])
    lam = CapacityVector.initial(s)
    succ = legal_successors(lam, s.intervals[0], s, k=1)
    assert len(succ) == 1
    vec = succ[0].vector
    assert vec.state_of(s.intervals[0]) == (0, 0)
    assert succ[0].chosen_neighbors == frozenset()


def test_legal_successors_single_fresh_neighbor_k1():
    s = make_set([(1, 3), (2, 4)], [1, 1], 1)
    lam = CapacityVector.initial(s)
    succ = legal_successors(lam, s.intervals[0], s, k=1)
    assert len(succ) == 2
    reject, take = succ
    assert reject.chosen_neighbors == frozenset()
    assert reject.vector.state_of(s.intervals[1]) == UNLIMITED
    assert take.chosen_neighbors == frozenset({1})
    # full budget consumed by the committing interval itself: split (0, 0)
    assert take.vector.state_of(s.intervals[1]) == (0, 0)


def test_legal_successor_rejected_interval_raises():
    s = make_set([(1, 3), (2, 4)], [1, 1], 1)
    lam = CapacityVector.initial(s).replace(s.intervals[0], UNLIMITED)
    with pytest.raises(ValueError):
        legal_successors(lam, s.intervals[0], s, k=1)


def test_legal_successor_committed_interval_raises():
    """An interval already committed in the vector cannot be committed
    again, with or without fresh neighbors left to join it."""
    s = make_set([(1, 3), (2, 4)], [1, 1], 1)
    lam = CapacityVector.initial(s).replace(0, (2, 2))
    for vector in (lam, lam.replace(1, UNLIMITED)):
        for k in (1, 2):
            with pytest.raises(ValueError, match="already committed"):
                legal_successors(vector, 0, s, k)
    # the undecided neighbor still commits, stabbing 0 from the right
    [step] = legal_successors(lam, 1, s, 2)
    assert step.chosen_neighbors == {0} and step.vector.state_of(0) == (2, 1)


def test_legal_successors_keep_the_vector_k_overlap():
    """A caller's budget may allow more overlaps than k; a step whose vector
    would give a committed interval more than k committed neighbors is not
    legal."""
    s = make_set([(1, 7), (2, 6), (3, 5), (4, 8)], [1, 10, 10, 1], 0)
    lam = CapacityVector.initial(s).replace(3, (5, 5))
    [step] = legal_successors(lam, 0, s, 1)
    assert step.chosen_neighbors == {3} and step.vector.state_of(3) == (4, 5)
    assert legal_successors(step.vector, 1, s, 1) == []


def test_transition_weight_examples():
    s = make_set([(1, 3), (2, 4)], [5, 4], 1)
    lam = CapacityVector.initial(s)
    reject, take = legal_successors(lam, s.intervals[0], s, k=1)
    assert transition_weight(reject.vector, lam, s.intervals[0], s) == 0
    assert transition_weight(take.vector, lam, s.intervals[0], s) == 4 - 1
    assert reject.weight_delta == 0
    assert take.weight_delta == 3

    # two mutually overlapping fresh neighbors of K
    tri = make_set([(1, 4), (2, 5), (3, 6)], [9, 2, 2], 1)
    lam = CapacityVector.initial(tri)
    succ = legal_successors(lam, tri.intervals[0], tri, k=2)
    both = [x for x in succ if x.chosen_neighbors == frozenset({1, 2})]
    assert both and all(x.weight_delta == 2 + 2 - 1 - 1 - 1 for x in both)


def test_successor_count_bound(rng):
    """|legal successors| = O(gamma^k (k+1)^k) with a small constant."""
    for trial in range(30):
        s = random_interval_set(rng.randint(2, 9), random.Random(5000 + trial))
        lam = CapacityVector.initial(s)
        gamma = max(s.max_degree, 1)
        for k in (1, 2, 3):
            for iv in s.intervals:
                cnt = len(legal_successors(lam, iv, s, k))
                assert cnt <= 4 * gamma**k * (k + 1) ** k + 1


# -- dms_k --------------------------------------------------------------------


def test_dms_k_empty_nested_set_is_own_weight():
    s = make_set([(1, 2), (3, 4)], [7, 3])
    lam = CapacityVector.initial(s).replace(s.intervals[0], (2, 2))
    assert dms_k(s.intervals[0], lam, s, k=2) == 7


def test_dms_k_rejects_invalid_vector():
    s = make_set([(1, 2), (3, 4)], [7, 3])
    with pytest.raises(ValueError):
        dms_k(s.intervals[0], CapacityVector.initial(s), s, k=2)


def test_dms_k_rejects_a_neighbor_budget_outside_0_to_k():
    """A committed neighbor's budget is a pair in {0..k}.  Interval 3
    crosses 0 and both intervals nested in 0; with its budget at (5, 5)
    and k=1 the window would select 1 and 2 next to it, and ``dms_k``
    would report 21 for a set in which 3 overlaps three selected
    intervals."""
    s = make_set([(1, 7), (2, 6), (3, 5), (4, 8)], [1, 10, 10, 1], 0)
    lam = CapacityVector.initial(s).replace(0, (0, 0))
    for bad in ((5, 5), (2, 0), (0, -1)):
        over = lam.replace(3, bad)
        assert not is_valid_for(over, 0, s, 1)
        with pytest.raises(ValueError, match="not valid"):
            dms_k(0, over, s, 1)
    assert dms_k(0, lam.replace(3, (1, 1)), s, 1) == 11  # one of 1, 2 stabs 3's left side
    assert dms_k(0, lam.replace(3, (0, 1)), s, 1) == 1


def test_general_solver_dms_refuses_the_vectors_dms_k_refuses():
    """``GeneralSolver.dms`` holds its caller's neighbor states to the rule
    of ``is_valid_for``: at most k committed, each side in {0..k}.  With
    the four neighbors of interval 0 committed at (1, 1) and k=1, or at
    (-1, -1) and k=2, it returned 6 where ``dms_k`` raised ValueError; one
    committed neighbor with a side outside {0..k} is refused too."""
    s = make_set([(3, 10), (1, 4), (2, 5), (8, 12), (6, 7), (9, 11)], [1, 1, 1, 1, 5, 1], 1)
    assert s.neighbors[0] == (1, 2, 3, 5)
    rejected = dict.fromkeys(s.neighbors[0], UNLIMITED)
    cases = [(1, dict.fromkeys(s.neighbors[0], (1, 1))), (2, dict.fromkeys(s.neighbors[0], (-1, -1)))]
    cases += [(2, {**rejected, 3: bad}) for bad in ((-1, 0), (0, 3))]
    for k, states in cases:
        vector = CapacityVector(s, MappingProxyType({0: (k, k), **states}))
        assert not is_valid_for(vector, 0, s, k), (k, states)
        with pytest.raises(ValueError, match="not valid"):
            dms_k(0, vector, s, k)
        with pytest.raises(ValueError, match="committed"):
            GeneralSolver(s, k).dms(0, states)
    good = {**rejected, 3: (2, 2)}
    vector = CapacityVector(s, MappingProxyType({0: (2, 2), **good}))
    assert dms_k(0, vector, s, 2) == GeneralSolver(s, 2).dms(0, good) == 6


def test_dms_k_rejects_a_committed_state_that_is_not_a_pair_of_ints():
    """A committed state is a pair of ints, as ``CapacityVector.replace``
    stores it.  With both neighbors of interval 0 at one of these states,
    a list died unhashable in the memo key, a triple in an unpack inside
    the solver, a string in ``is_valid_for`` itself, and a float was
    solved; ``GeneralSolver.dms`` still did all but the last, and solved
    the float.  ``replace`` stored a list as a tuple."""
    s = make_set([(1, 6), (2, 4), (3, 8), (5, 7)], [3] * 4, 1)
    assert s.neighbors[0] == (2, 3)
    for bad in ([1, 1], (1, 1, 1), (1.5, 1), "ab"):
        lam = CapacityVector(s, MappingProxyType({0: (1, 1), 2: bad, 3: bad}))
        assert not is_valid_for(lam, 0, s, 2), bad
        with pytest.raises(ValueError, match="not valid"):
            dms_k(0, lam, s, 2)
        # ``GeneralSolver.dms`` holds its caller to the same rule.
        for states in (lam.states, {2: bad, 3: UNLIMITED}):
            with pytest.raises(ValueError, match="pair of ints"):
                GeneralSolver(s, 2).dms(0, states)
    # ``replace`` stores no state that the readers would refuse.
    with pytest.raises(ValueError, match="pair of ints"):
        CapacityVector.initial(s).replace(2, [1, 1])
    good = CapacityVector(s, MappingProxyType({0: (1, 1), 2: (1, 1), 3: (1, 1)}))
    assert is_valid_for(good, 0, s, 2)
    assert dms_k(0, good, s, 2) == GeneralSolver(s, 2).dms(0, good.states)


def test_legal_successors_read_a_state_equal_to_unlimited_as_unlimited():
    """A rejected neighbor stored as a float equal to UNLIMITED, not as
    UNLIMITED itself, is rejected: ``legal_successors`` lists the same steps
    as for UNLIMITED (it died inside the solver's step enumeration), and
    ``transition_weight`` does not count it as selected (it returned -1 for
    a step that adds 0)."""
    s = make_set([(1, 6), (2, 4), (3, 8), (5, 7)], [3] * 4, 1)
    inf = float("inf")
    assert inf is not UNLIMITED
    lam = CapacityVector(s, MappingProxyType({2: inf}))
    steps = legal_successors(lam, 0, s, 2)
    assert steps == legal_successors(CapacityVector.initial(s).replace(2, UNLIMITED), 0, s, 2)
    assert steps and all(step.vector.state_of(2) is UNLIMITED for step in steps)
    for step in steps:
        assert transition_weight(step.vector, lam, 0, s) == step.weight_delta
    alone = CapacityVector(s, MappingProxyType({0: (2, 2), 2: inf, 3: UNLIMITED}))
    assert transition_weight(alone, lam, 0, s) == 0


def test_legal_successors_reject_a_committed_state_that_is_not_a_pair_of_ints():
    """``legal_successors`` and ``transition_weight`` hold a committed state
    to the rule ``CapacityVector.replace`` and ``is_valid_for`` apply, a
    pair of ints, and raise ValueError for any other: a string and a triple
    died inside the solver's step enumeration, with a TypeError and an
    unpack error."""
    s = make_set([(1, 6), (2, 4), (3, 8), (5, 7)], [3] * 4, 1)
    good = CapacityVector(s, MappingProxyType({2: (1, 1)}))
    assert legal_successors(good, 0, s, 2)
    for bad in ("ab", (1, 1, 1), [1, 1], (1.5, 1)):
        lam = CapacityVector(s, MappingProxyType({2: bad}))
        with pytest.raises(ValueError, match="pair of ints"):
            legal_successors(lam, 0, s, 2)
        with pytest.raises(ValueError, match="pair of ints"):
            transition_weight(lam, good, 0, s)
        with pytest.raises(ValueError, match="pair of ints"):
            transition_weight(good, lam, 0, s)


def test_dms_k_rejects_an_undecided_neighbor():
    """Committing an interval decides all its neighbors, so a vector that
    leaves one undecided is not valid for it.  Here the undecided neighbor
    [3, 6] would join when 1 commits inside the window (1, 5) and add its
    weight of 100 to a window whose members weigh 2."""
    s = make_set([(1, 5), (2, 4), (3, 6)], [1, 1, 100], 0)
    lam = CapacityVector.initial(s).replace(0, (2, 2))
    assert not is_valid_for(lam, 0, s, 2)
    with pytest.raises(ValueError, match="not valid"):
        dms_k(0, lam, s, 2)
    with pytest.raises(ValueError, match="neighbor of the interval undecided"):
        GeneralSolver(s, 2).dms(0, lam.states)
    rejected = lam.replace(2, UNLIMITED)
    assert is_valid_for(rejected, 0, s, 2)
    assert dms_k(0, rejected, s, 2) == GeneralSolver(s, 2).dms(0, rejected.states) == 2


def test_interval_ids_outside_the_set_are_rejected():
    """An int id must name an interval of the set: -1 would otherwise read
    the last interval's tables or the solver's top-level window (the whole
    line), and len(s) would index past the end."""
    s = random_interval_set(6, 3)
    lam = CapacityVector.initial(s)
    for bad in (-1, len(s)):
        with pytest.raises(ValueError, match=f"interval id {bad} is not in the set"):
            dms_k(bad, lam, s, 2)
        with pytest.raises(ValueError, match="not in the set"):
            is_valid_for(lam, bad, s, 2)
        with pytest.raises(ValueError, match="not in the set"):
            legal_successors(lam, bad, s, 2)
        with pytest.raises(ValueError, match="not in the set"):
            transition_weight(lam, lam, bad, s)
    lam = lam.replace(s.intervals[5], (2, 2))
    for m in s.neighbors[5]:
        lam = lam.replace(m, UNLIMITED)
    assert dms_k(5, lam, s, 2) == 10


def test_general_solver_dms_rejects_an_id_outside_the_set():
    """-1 and len(s) both index the solver's top-level window, whose members
    are the whole instance; ``dms`` resolves the id through the set first,
    as ``dms_k`` does, and takes an ``Interval`` too."""
    s = make_set([(1, 2), (3, 4)], [5, 7], 0)
    solver = GeneralSolver(s, 2)
    for bad in (-1, len(s)):
        with pytest.raises(ValueError, match=f"interval id {bad} is not in the set"):
            solver.dms(bad, {})
    assert solver.dms(s.intervals[1], {}) == solver.dms(1, {}) == 7


def test_vectors_of_another_interval_set_are_rejected():
    """A vector is read against the set it was built on: used with any
    other set, even one with the same spans, it raises ValueError."""
    s = random_interval_set(6, 3)
    lam = CapacityVector.initial(s).replace(0, (2, 2))
    for m in s.neighbors[0]:
        lam = lam.replace(m, UNLIMITED)
    for other in (random_interval_set(9, 4), random_interval_set(4, 5), random_interval_set(6, 3)):
        with pytest.raises(ValueError, match="another interval set"):
            dms_k(0, lam, other, 2)
        with pytest.raises(ValueError, match="another interval set"):
            is_valid_for(lam, 0, other, 2)
        with pytest.raises(ValueError, match="another interval set"):
            legal_successors(lam, 0, other, 2)
        own = CapacityVector.initial(other)
        with pytest.raises(ValueError, match="another interval set"):
            transition_weight(lam, own, 0, other)
        with pytest.raises(ValueError, match="another interval set"):
            transition_weight(own, lam, 0, other)
    assert dms_k(0, lam, s, 2) == dms_k(s.intervals[0], lam, s, 2)


def test_dms_k_on_a_wide_window_raises_and_restores_the_recursion_limit():
    """One interval enclosing 500 disjoint unit intervals: its window is
    500 members deep, past the default recursion limit."""
    s = make_set([(1, 1002)] + [(2 * i, 2 * i + 1) for i in range(1, 501)], [1] * 501)
    lam = CapacityVector.initial(s).replace(0, (2, 2))
    limit = sys.getrecursionlimit()
    assert dms_k(0, lam, s, 2) == 501
    assert sys.getrecursionlimit() == limit
    assert GeneralSolver(s, 2).dms(0, lam.states) == 501
    assert sys.getrecursionlimit() == limit


def _chain(m):
    """The spans (2i, 2i + 3) for i < m, each overlapping the next, with
    endpoints ranked to 1..2m, weight 1 and pair weight 1: one window of m
    members and largest overlap degree 2."""
    spans = [(2 * i, 2 * i + 3) for i in range(m)]
    rank = {p: r for r, p in enumerate(sorted(p for span in spans for p in span), 1)}
    return make_set([(rank[a], rank[b]) for a, b in spans], [1] * m, 1)


def test_a_window_deeper_than_the_recursion_limit_leaves_the_limit_alone(monkeypatch):
    """A window of 3,000 members, past the default recursion limit, solves
    at k=2 without changing the recursion limit: the window values run on
    one explicit stack."""
    s = _chain(3000)
    assert s.max_degree == 2 and len(s) > sys.getrecursionlimit()

    def refuse(limit):
        raise AssertionError(f"the solve set the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert solve_k(s, 2).weight == 1500


def test_dms_k_memo_purity():
    s = make_set([(1, 6), (2, 4), (3, 5)], [1, 2, 2], 1)
    lam = CapacityVector.initial(s).replace(s.intervals[0], (2, 2))
    solver = GeneralSolver(s, 2)
    a = solver.dms(0, lam.states)
    b = solver.dms(0, lam.states)
    fresh = dms_k(s.intervals[0], lam, s, 2)
    assert a == b == fresh


def test_k2_triangle_all_selectable_but_pair_optimal():
    s = make_set([(1, 4), (2, 5), (3, 6)], [1, 1, 1], 1)
    assert solution_weight([0, 1, 2], s) == 0  # the full triangle nets zero
    sol = solve_k(s, 2, force_general=True)
    assert sol.weight == 1


def test_k2_path_of_four():
    s = make_set([(1, 3), (2, 5), (4, 7), (6, 8)], [1, 1, 1, 1], 1)
    assert solution_weight([0, 1, 2, 3], s) == 1
    sol = solve_k(s, 2, force_general=True)
    assert sol.weight == 2  # endpoints plus one non-neighbor beat the chain


# -- regression instances for the charging and budget rules -------------------


def test_regression_pairs_with_already_committed_intervals():
    # A selected interval whose neighbors were all committed in earlier
    # steps: both pair weights must still be charged.
    s = make_set([(1, 4), (2, 7), (3, 6), (5, 8)], [10, 10, 10, 10], 1)
    for k in (0, 1, 2, 3):
        got = solve_k(s, k, force_general=True)
        want = brute_force_k_overlap(s, k)
        assert got.weight == want.weight, k
    assert solve_k(s, 2, force_general=True).weight == 36


def test_regression_budget_of_distant_committed_interval():
    # A long committed interval overlapped by fresh joiners whose commit
    # steps happen in windows that do not neighbor it: its budget must
    # still be consumed (k=2 must not select all six).
    s = make_set([(1, 3), (2, 10), (4, 6), (5, 12), (7, 9), (8, 11)], [10] * 6, 1)
    for k in (0, 1, 2, 3):
        got = solve_k(s, k, force_general=True)
        want = brute_force_k_overlap(s, k)
        assert got.weight == want.weight, k
        assert got.max_overlap_degree() <= k


def test_exhausted_capacity_blocks_commit_until_k_grows():
    """An interval overlapping a committed neighbor whose budgets are zero
    has no legal commit step, at any k; with residual budget it does.  At
    the solve level, the chain is selectable in full only once k reaches
    the middle interval's degree."""
    s = make_set([(1, 3), (2, 6), (4, 7), (5, 8)], [10, 10, 10, 10], 1)
    exhausted = CapacityVector.initial(s).replace(s.intervals[1], (0, 0))
    assert legal_successors(exhausted, s.intervals[2], s, k=3) == []
    roomy = CapacityVector.initial(s).replace(s.intervals[1], (0, 2))
    assert len(legal_successors(roomy, s.intervals[2], s, k=3)) == 3

    assert solve_k(s, 2, force_general=True).weight == 29  # middle stays out
    sol3 = solve_k(s, 3, force_general=True)
    assert sol3.weight == 36 and sol3.chosen == frozenset({0, 1, 2, 3})


def test_general_k_tie_order_is_pinned():
    """The enumeration order of commit steps and the optimum the DP keeps
    among tied ones: chosen sets by size then ids, budget splits ascending,
    and the first option reaching the best value wins."""
    # 0 commits with two fresh neighbors 1 and 2; 2 also stabs the committed
    # 3 from its left side, so its budget is k - 2 and 3 pays one left unit.
    s = make_set([(2, 5), (1, 3), (4, 7), (6, 8)], [3, 2, 4, 1], {(0, 1): 1, (0, 2): 2, (2, 3): 3})
    lam = CapacityVector.initial(s).replace(3, (2, 1))
    got = [
        (dict(x.vector.states), sorted(x.chosen_neighbors), x.weight_delta)
        for x in legal_successors(lam, 0, s, 3)
    ]
    inf = UNLIMITED
    assert got == [
        ({3: (2, 1), 0: (0, 0), 1: inf, 2: inf}, [], 0),
        ({3: (2, 1), 0: (0, 0), 2: inf, 1: (0, 2)}, [1], 1),
        ({3: (2, 1), 0: (0, 0), 2: inf, 1: (1, 1)}, [1], 1),
        ({3: (2, 1), 0: (0, 0), 2: inf, 1: (2, 0)}, [1], 1),
        ({3: (1, 1), 0: (0, 0), 1: inf, 2: (0, 1)}, [2], -1),
        ({3: (1, 1), 0: (0, 0), 1: inf, 2: (1, 0)}, [2], -1),
        ({3: (1, 1), 0: (0, 0), 1: (0, 2), 2: (0, 1)}, [1, 2], 0),
        ({3: (1, 1), 0: (0, 0), 1: (0, 2), 2: (1, 0)}, [1, 2], 0),
        ({3: (1, 1), 0: (0, 0), 1: (1, 1), 2: (0, 1)}, [1, 2], 0),
        ({3: (1, 1), 0: (0, 0), 1: (1, 1), 2: (1, 0)}, [1, 2], 0),
        ({3: (1, 1), 0: (0, 0), 1: (2, 0), 2: (0, 1)}, [1, 2], 0),
        ({3: (1, 1), 0: (0, 0), 1: (2, 0), 2: (1, 0)}, [1, 2], 0),
    ]
    # Each of these has between 4 and 50 optimal sets at k=2 and at k=3.
    picked = {
        0: [0, 3, 4, 7, 8, 10],
        2: [0, 4, 7],
        4: [4, 5, 8],
        5: [0, 1, 3, 7],
        6: [1, 4, 5, 6, 7],
    }
    for seed, chosen in picked.items():
        tied = random_interval_set(11, seed, max_weight=1, max_pair_weight=1)
        for k in (2, 3):
            assert sorted(GeneralSolver(tied, k).solve().chosen) == chosen, (seed, k)


def _renumber(spans, jitter):
    flat = []
    for (a, b) in spans:
        flat.append(a + next(jitter))
        flat.append(b + next(jitter))
    order = sorted(range(len(flat)), key=lambda i: flat[i])
    rank = [0] * len(flat)
    for r, i in enumerate(order, 1):
        rank[i] = r
    return [
        (min(rank[2 * i], rank[2 * i + 1]), max(rank[2 * i], rank[2 * i + 1]))
        for i in range(len(spans))
    ]


def test_structured_shapes_vs_oracle():
    """Nested towers with straddling intervals, overlap chains, and combs:
    shapes whose commit steps exercise budget splitting across windows."""
    for trial in range(45):
        rng = random.Random(9000 + trial)
        jitter = iter(lambda: rng.random() * 0.5, None)
        kind = trial % 3
        if kind == 0:
            nt, ns = rng.randint(2, 5), rng.randint(2, 5)
            spans = [(i + 1, 2 * nt - i) for i in range(nt)]
            free = list(range(2 * nt + 1, 2 * (nt + ns) + 1))
            rng.shuffle(free)
            spans += [
                tuple(sorted((rng.randint(1, 2 * nt), free[j]))) for j in range(ns)
            ]
        elif kind == 1:
            pos, step = 1, rng.randint(2, 6)
            spans = []
            for _ in range(rng.randint(4, 10)):
                spans.append((pos, pos + step))
                pos += max(1, rng.randint(1, step - 1)) if step > 1 else 1
        else:
            teeth = rng.randint(3, 8)
            spans = [(1, 2)]
            free = list(range(3, 3 + 2 * teeth))
            rng.shuffle(free)
            spans += [tuple(sorted((free[2 * j], free[2 * j + 1]))) for j in range(teeth)]
        spans = _renumber(spans, jitter)
        weights = [rng.randint(0, 9) for _ in spans]
        skeleton = make_set(spans, weights, 0)
        pw = {key: rng.randint(0, 3) for key in sorted(overlap_pairs_within(range(len(spans)), skeleton))}
        s = make_set(spans, weights, pw)
        for k in (0, 1, 2, 3):
            got = solve_k(s, k, force_general=True)
            want = brute_force_k_overlap(s, k)
            assert got.weight == want.weight, (trial, k)
            assert got.max_overlap_degree() <= k


# -- oracle equivalence, specialization, monotonicity --------------------------


def test_oracle_equivalence_general(rng):
    for trial in range(120):
        s = random_interval_set(rng.randint(1, 10), random.Random(6000 + trial))
        for k in (0, 1, 2, 3):
            got = solve_k(s, k, force_general=True)
            want = brute_force_k_overlap(s, k)
            assert got.weight == want.weight, (trial, k)
            assert got.weight == solution_weight(got.chosen, s)
            assert got.max_overlap_degree() <= k


def test_oracle_equivalence_general_past_ten_intervals():
    for size in range(11, 17):
        for rep in range(2):
            s = random_interval_set(size, random.Random(6500 + 10 * size + rep))
            for k in (2, 3):
                got = solve_k(s, k, force_general=True)
                want = brute_force_k_overlap(s, k)
                assert got.weight == want.weight, (size, rep, k)
                assert got.weight == solution_weight(got.chosen, s)
                assert got.max_overlap_degree() <= k


def test_specialization_matches_k1_solvers(rng):
    for trial in range(60):
        s = random_interval_set(rng.randint(1, 10), random.Random(7000 + trial))
        assert solve_k(s, 0, force_general=True).weight == solve_k0(s).weight
        assert solve_k(s, 1, force_general=True).weight == solve_k1(s).weight
        # the default dispatch delegates
        assert solve_k(s, 0).weight == solve_k0(s).weight
        assert solve_k(s, 1).weight == solve_k1(s).weight


def test_monotone_in_k_with_ceiling(rng):
    for trial in range(40):
        s = random_interval_set(rng.randint(1, 8), random.Random(8000 + trial))
        weights = [solve_k(s, k, force_general=True).weight for k in range(0, 5)]
        assert all(a <= b for a, b in zip(weights, weights[1:]))
        gamma = s.max_degree
        unconstrained = brute_force_k_overlap(s, len(s)).weight
        assert solve_k(s, max(gamma, 0), force_general=True).weight == unconstrained


def test_solve_k_caps_the_budget_at_the_largest_overlap_degree(monkeypatch):
    """A budget above the largest overlap degree never binds: any such k
    enumerates the successors of k = degree and returns its solution, under
    the k asked for.  With neither this cap nor the left-share caps, k = 10^4
    on a 5-cycle with the chords (1, 3), (2, 4), (3, 5) (degree 2) yields
    20,014 successors against 16."""
    edges = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 3), (2, 4), (3, 5)]
    s = project_to_intervals(LayoutInstance.build(range(1, 6), edges)).interval_set
    assert s.max_degree == 2
    yields = 0
    successors = GeneralSolver._successors

    def counted(self, lam, plan, caps):
        nonlocal yields
        for step in successors(self, lam, plan, caps):
            yields += 1
            yield step

    monkeypatch.setattr(GeneralSolver, "_successors", counted)
    at_degree = solve_k(s, 2)
    want, yields = yields, 0
    big = solve_k(s, 10**4)
    assert yields == want
    assert (big.weight, big.chosen, big.k) == (at_degree.weight, at_degree.chosen, 10**4)


def test_nested_chords_at_k2_take_the_k1_path():
    """The chords (i, 2m + 1 - i) are pairwise nested and cross nothing, so
    ``solve_k`` runs them at min(k, degree) = 0 on the k<=1 path; the
    general solver stores about m^2 / 2 states on them and refuses m = 700
    at k=2."""
    m = 700
    chords = [(i, 2 * m + 1 - i) for i in range(1, m + 1)]
    s = project_to_intervals(LayoutInstance.build(range(1, 2 * m + 1), chords)).interval_set
    assert s.max_degree == 0
    sol = solve_k(s, 2)
    assert (sol.weight, sol.k) == (0, 2)


def test_capped_solve_k_returns_the_uncapped_solution(rng):
    for trial in range(200):
        s = random_interval_set(rng.randint(1, 7), random.Random(9000 + trial))
        gamma = s.max_degree
        for k in range(max(gamma + 1, 2), gamma + 3):
            got, want = solve_k(s, k), GeneralSolver(s, k).solve()
            assert (got.weight, got.chosen, got.k) == (want.weight, want.chosen, k), (trial, k)


def test_solve_k_empty_and_bad_k():
    assert solve_k(make_set([]), 3).weight == 0
    with pytest.raises(ValueError):
        solve_k(make_set([]), -1)
    # A k that is not an int is refused, not read as the next int down.
    s = make_set([(1, 3), (2, 4)], [1, 1], 0)
    for bad in (0.5, 2.5, "2"):
        with pytest.raises(ValueError, match="k must be an int"):
            solve_k(s, bad)
        with pytest.raises(ValueError, match="k must be an int"):
            GeneralSolver(s, bad)


def test_recovery_mismatch_raises(monkeypatch):
    walk = GeneralSolver._walk

    def drop_last_chosen(self, h, lam, out):
        walk(self, h, lam, out)
        if h == self.windows[self.n]:
            out.pop()

    monkeypatch.setattr(GeneralSolver, "_walk", drop_last_chosen)
    s = make_set([(1, 2), (3, 4)], [5, 7])
    with pytest.raises(AssertionError, match="recovered solution weighs 5, the DP value is 12"):
        GeneralSolver(s, 2).solve()


# -- memo key and memo budget --------------------------------------------------


class _AccessLog(dict):
    """A state that logs every id passed to ``get``, ``[]`` or ``in`` as
    read, and every id set through ``[] =`` or ``update`` as written."""

    def __init__(self, state):
        super().__init__(state)
        self.read: set[int] = set()
        self.written: set[int] = set()

    def get(self, i, default=None):
        self.read.add(i)
        return super().get(i, default)

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)

    def __contains__(self, i):
        self.read.add(i)
        return super().__contains__(i)

    def __setitem__(self, i, st):
        self.written.add(i)
        super().__setitem__(i, st)

    def update(self, other):
        other = dict(other)
        self.written.update(other)
        super().update(other)


def _decided(lam):
    """The decided entries of a solver state (an undone entry stays as
    None, which reads as undecided)."""
    return {x: st for x, st in lam.items() if st is not UNDECIDED}


def _run_frame(frame, window_value):
    """Run a ``_decide`` frame to its value, answering each suffix handle it
    yields with ``window_value(handle)``."""
    value = None
    while True:
        try:
            request = frame.send(value)
        except StopIteration as done:
            return done.value
        value = window_value(request)


def _open_every_window(solver):
    """Fill the record of every suffix of every window, the top level's
    included, so that any handle of the instance can be evaluated."""
    for owner in range(solver.n + 1):
        solver._window(owner)
    return solver


def _remaining(solver, h):
    """The remaining members R that handle ``h`` names, read by following
    reject handles."""
    rest = []
    while h is not None:
        rest.append(h[0])
        h = solver.suffixes[h][2]
    return rest


class _StateLog(GeneralSolver):
    """Records every (handle, state) a window value is asked for: on entry
    to the evaluation, and at each request a frame yields, with the state
    as it stands at the yield."""

    def __init__(self, s, k):
        super().__init__(s, k)
        self.seen: dict = {}

    def _log(self, h, lam):
        if h is not None:
            state = _decided(lam)
            self.seen.setdefault((h, frozenset(state.items())), (h, state))

    def _window_value(self, h, lam):
        self._log(h, lam)
        return super()._window_value(h, lam)

    def _decide(self, h, lam):
        frame, value = super()._decide(h, lam), None
        while True:
            try:
                request = frame.send(value)
            except StopIteration as done:
                return done.value
            self._log(request, lam)
            value = yield request


class _FullKey(GeneralSolver):
    """Reference: the same frames run by recursion, memoized on the handle
    and the whole state."""

    def _window_value(self, h, lam):
        if h is None:
            return 0
        key = (h, frozenset(_decided(lam).items()))
        if key not in self.f_memo:
            frame = self._decide(h, lam)
            self.f_memo[key] = _run_frame(frame, lambda g: self._window_value(g, lam))
        return self.f_memo[key]


def _caller_vectors(s, k, i, rng, count, decided=False):
    """Vectors that commit interval i and commit or reject its neighbors (at
    most k committed).  Unless ``decided`` is set, some neighbors are left
    undecided: ``legal_successors`` accepts those vectors, ``dms_k`` does not."""
    out = []
    for _ in range(count):
        lam = CapacityVector.initial(s).replace(
            s.intervals[i], (rng.randint(0, k), rng.randint(0, k))
        )
        committed = 0
        for m in s.neighbors[i]:
            r = rng.random()
            if r < 0.4 and not decided:
                continue
            if r < 0.6 or committed == k:
                lam = lam.replace(s.intervals[m], UNLIMITED)
            else:
                lam = lam.replace(s.intervals[m], (rng.randint(0, k), rng.randint(0, k)))
                committed += 1
        out.append(lam)
    return out


def test_transition_weight_matches_every_successor_delta():
    """A commit step's weight computed from its definition on the two
    vectors (``solution_weight`` after minus before) gives the
    step's own delta, for every legal successor of every interval, from the
    initial vector and from vectors that commit, reject or leave undecided
    the interval's neighbors."""
    checked = 0
    for trial in range(12):
        rng = random.Random(3100 + trial)
        s = random_interval_set(rng.randint(3, 9), random.Random(3200 + trial))
        for k in (1, 2, 3):
            for i in range(len(s)):
                vectors = [CapacityVector.initial(s)] + _caller_vectors(s, k, i, rng, 3)
                for lam in vectors:
                    for target in (i, *s.neighbors[i]):
                        if lam.state_of(target) is not UNDECIDED:
                            continue
                        for x in legal_successors(lam, target, s, k):
                            assert transition_weight(x.vector, lam, target, s) == x.weight_delta
                            checked += 1
    assert checked > 1000, checked


def test_replace_with_float_infinity_is_unlimited():
    """Any value equal to UNLIMITED rejects the interval, as UNLIMITED does."""
    s = make_set([(1, 4), (2, 5), (3, 6)], [3, 2, 2], 1)
    start = CapacityVector.initial(s).replace(0, (2, 2))
    marker = start.replace(s.intervals[1], UNLIMITED)
    inf = start.replace(s.intervals[1], float("inf"))
    assert inf == marker and inf.state_of(1) is UNLIMITED
    for k in (1, 2):
        for i in range(3):
            assert is_valid_for(inf, i, s, k) == is_valid_for(marker, i, s, k)
        assert legal_successors(inf, 2, s, k) == legal_successors(marker, 2, s, k)
        with pytest.raises(ValueError, match="rejected"):
            legal_successors(inf, 1, s, k)
        assert dms_k(0, inf.replace(2, UNLIMITED), s, k) == dms_k(
            0, marker.replace(2, UNLIMITED), s, k
        )


def test_dms_reads_float_infinity_as_unlimited():
    """``GeneralSolver.dms`` reads a neighbor state equal to UNLIMITED as a
    rejection, as ``CapacityVector.replace`` stores it: intervals 6 and 8
    of this set, with every neighbor at ``float("inf")``, died in
    ``_successors`` unpacking the float as a budget.  ``is_valid_for`` read
    the same vector as not valid, so ``dms_k`` raised where ``dms`` gave a
    value."""
    s = random_interval_set(9, random.Random(10_000))
    for i in (6, 8):
        inf = {m: float("inf") for m in s.neighbors[i]}
        marker = {m: UNLIMITED for m in s.neighbors[i]}
        assert GeneralSolver(s, 2).dms(i, inf) == GeneralSolver(s, 2).dms(i, marker)
        # A vector built with the float directly, not through ``replace``,
        # is valid too, and ``dms_k`` reads it as ``dms`` does.
        vec_inf = CapacityVector(s, MappingProxyType({i: (2, 2), **inf}))
        vec_marker = CapacityVector(s, MappingProxyType({i: (2, 2), **marker}))
        assert is_valid_for(vec_inf, i, s, 2)
        assert dms_k(i, vec_inf, s, 2) == dms_k(i, vec_marker, s, 2)
    s = make_set([(1, 6), (2, 4), (3, 8), (5, 7)], [3] * 4, 1)
    inf = CapacityVector(s, MappingProxyType({0: (2, 2), 2: float("inf"), 3: float("inf")}))
    assert dms_k(0, inf, s, 2) == dms_k(0, inf.replace(2, UNLIMITED).replace(3, UNLIMITED), s, 2) == 6


def _per_set_successors(solver, lam, j, caps):
    """Reference for ``GeneralSolver._successors``: the same steps, states
    and undo, found by one pass over every joiner's neighbors for each
    chosen set instead of from per-joiner terms computed once per call."""
    s, k = solver.s, solver.k
    nb, left, weight, pw = s.neighbors, s.left, s.weight, s.pair_weight
    forced, fresh = [], []
    for m in nb[j]:
        st = lam.get(m)
        if st is None:
            fresh.append(m)
        elif st is not UNLIMITED:
            forced.append(m)
    if len(forced) > k:
        return
    undecided = (j, *fresh)
    for size in range(min(k - len(forced), len(fresh)) + 1):
        for extra in itertools.combinations(fresh, size):
            writes = {j: (0, 0)}
            undo = dict.fromkeys(undecided)
            for m in fresh:
                if m not in extra:
                    writes[m] = UNLIMITED
            delta = sum(weight[x] for x in extra)
            budgets = []
            legal = True
            for x in (j, *extra):
                used = 0
                for m in nb[x]:
                    st = lam.get(m)
                    if st is None:
                        if m == j or m in extra:
                            used += 1
                            if x < m:
                                delta -= pw(x, m)
                    elif st is not UNLIMITED:
                        used += 1
                        delta -= pw(x, m)
                        undo[m] = st
                        ml, mr = writes.get(m, st)
                        if left[x] < left[m]:
                            ml -= 1
                        else:
                            mr -= 1
                        writes[m] = (ml, mr)
                        legal = legal and ml >= 0 and mr >= 0
                if x != j:
                    budgets.append(k - used)
            if not legal or min(budgets, default=0) < 0:
                continue
            lam.update(writes)
            shares = (range(min(b, caps.get(x, 0)) + 1) for x, b in zip(extra, budgets))
            for alphas in itertools.product(*shares):
                for x, b, a in zip(extra, budgets, alphas):
                    lam[x] = (a, b - a)
                yield delta, extra
            lam.update(undo)


class _SuccessorCalls(GeneralSolver):
    """Records the state and interval of every ``_successors`` call."""

    def __init__(self, s, k):
        super().__init__(s, k)
        self.calls = []

    def _successors(self, lam, plan, caps):
        self.calls.append((dict(lam), plan[2][0]))
        return super()._successors(lam, plan, caps)


def _steps(successors, lam, stop=None):
    """Run an enumeration over ``lam`` (a copy is used): the (delta, chosen,
    state) at each yield, up to ``stop`` of them, and the state it leaves."""
    lam, out = dict(lam), []
    steps = successors(lam)
    for delta, chosen in steps:
        out.append((delta, chosen, dict(lam)))
        if len(out) == stop:
            break
    steps.close()
    return out, lam


def _own_caps(solver, j):
    """The left-share caps the solver passes at j's step: the left counts
    of j's own window record."""
    solver._window(j)
    return solver.left_caps[j]


def _successor_cases():
    """(solver, state, j, caps) drawn at k = 2..4 from the calls of solves
    and from random states that commit intervals with budgets near 0 (a
    caller's vector may hold -1), reject some and leave the rest undecided;
    caps are the solver's own or, for some random states, k for every
    neighbor, which lists every split."""
    near_zero = (-1, 0, 0, 1, 1, 2)
    for trial in range(24):
        rng = random.Random(6100 + trial)
        s = random_interval_set(rng.randint(4, 10), random.Random(6200 + trial))
        if trial % 4 == 3:
            s = s.with_pair_weight(1)
        for k in (2, 3, 4):
            log = _SuccessorCalls(s, k)
            log.solve()
            for lam, j in rng.sample(log.calls, min(40, len(log.calls))):
                solver = GeneralSolver(s, k)
                yield solver, lam, j, _own_caps(solver, j)
            for _ in range(12):
                lam = {}
                for x in range(len(s)):
                    r = rng.random()
                    if r < 0.3:
                        lam[x] = UNLIMITED
                    elif r < 0.6:
                        lam[x] = (rng.choice(near_zero), rng.choice(near_zero))
                    elif r < 0.7:
                        lam[x] = UNDECIDED
                for j in range(len(s)):
                    if lam.get(j) is UNDECIDED:
                        solver = GeneralSolver(s, k)
                        uncapped = rng.random() < 0.5
                        caps = dict.fromkeys(s.neighbors[j], k) if uncapped else _own_caps(solver, j)
                        yield solver, lam, j, caps


def test_successors_match_the_per_set_reference():
    """``_successors`` yields the reference's sequence of (delta, chosen,
    state at the yield) and leaves the same state: restored when the
    enumeration runs out, the last step written when the caller stops
    early.  The cases include steps that j's own stab on a forced neighbor
    overdraws, where nothing is yielded."""
    calls = steps = overdrawn = 0
    for solver, lam, j, caps in _successor_cases():
        new = functools.partial(solver._successors, plan=solver._plan(lam, j), caps=caps)
        old = functools.partial(_per_set_successors, solver, j=j, caps=caps)
        want = _steps(old, lam)
        assert _steps(new, lam) == want, (lam, j)
        for stop in range(1, len(want[0])):
            assert _steps(new, lam, stop) == _steps(old, lam, stop), (lam, j, stop)
        calls += 1
        steps += len(want[0])
        forced = [m for m in solver.s.neighbors[j] if lam.get(m) not in (UNDECIDED, UNLIMITED)]
        overdrawn += not want[0] and len(forced) <= solver.k
    assert (calls > 3000, steps > 8000, overdrawn > 500) == (True,) * 3, (calls, steps, overdrawn)


@functools.cache
def _reached_states():
    """(solver, handle, state) for every distinct state a solve reaches
    and every state ``dms`` reaches from vectors that decide every neighbor
    of the interval, on 40 random sets at k = 2 and 3."""
    out = []
    for trial in range(40):
        rng = random.Random(4100 + trial)
        s = random_interval_set(rng.randint(4, 11), random.Random(4200 + trial))
        for k in (2, 3):
            log = _StateLog(s, k)
            log.solve()
            for i in range(len(s)):
                if s.nested(i) and s.neighbors[i]:
                    for vec in _caller_vectors(s, k, i, rng, 3, decided=True):
                        log.dms(i, vec.states)
            checker = _open_every_window(GeneralSolver(s, k))
            out.extend((checker, h, lam) for h, lam in log.seen.values())
    return out


def test_window_members_undecided_and_frontier_decided():
    """At every reached (handle, state) the window's remaining members R
    are undecided and their frontier F, the neighbors of R outside R, is
    decided; the memo key holds exactly the positions of F."""
    for solver, h, lam in _reached_states():
        rest = _remaining(solver, h)
        frontier = set().union(*(solver.s.neighbors[r] for r in rest)).difference(rest)
        assert all(lam.get(r) is UNDECIDED for r in rest), h
        assert all(lam.get(f) is not UNDECIDED for f in frontier), h
        assert list(solver.suffixes[h][0]) == sorted(frontier), h
    assert len(_reached_states()) > 2000


def test_memo_key_covers_every_read_and_write():
    """One decision frame at a reachable (handle, state), the reject
    step and every successor with the window values they request, reads and
    writes only the positions its memo key holds and the window's remaining
    members R, whose states are always undecided there (see the test
    above), so the key decides the value.  It leaves the state as found."""
    checked = 0
    for solver, h, lam in _reached_states():
        allowed = set(solver.suffixes[h][0]).union(_remaining(solver, h))
        rec = _AccessLog(lam)
        _run_frame(solver._decide(h, rec), lambda g: solver._window_value(g, rec))
        assert rec.read <= allowed, (h, rec.read - allowed)
        assert rec.written <= allowed, (h, rec.written - allowed)
        assert _decided(rec) == lam, h
        checked += 1
    assert checked > 2000, checked


def _enumerated_value(solver, h, lam):
    """The value of the frame at (h, lam) with every commit read off
    ``_successors`` under a plan classified off ``lam``, not the handle's
    cached one."""
    j, wv = h[0], solver._window_value
    _, _, reject, commit = solver.suffixes[h]
    lam[j] = UNLIMITED
    best = wv(reject, lam)
    lam[j] = UNDECIDED
    window = solver._window(j)
    for delta, _ in solver._successors(lam, solver._plan(lam, j), solver.left_caps[j]):
        best = max(best, delta + solver.s.weight[j] + wv(window, lam) + wv(commit, lam))
    return best


def test_each_handle_plan_serves_every_state_that_reaches_it():
    """A handle's step plan is classified off the first state that reaches
    it and kept.  At every reached (handle, state) that cached plan equals
    one classified off the state itself, and the two yield the same
    (delta, chosen, state) sequence.  The frame's value equals the value
    with every commit enumerated under the plan classified off the state.
    Each kind of member occurs, told apart by what ``_successors`` yields:
    blocked (no step), single (the one step j beside its committed
    neighbors) and enumerated (more steps)."""
    kinds = dict.fromkeys(("blocked", "single", "enumerated"), 0)
    for solver, h, lam in _reached_states():
        j, state = h[0], dict(lam)
        value = _run_frame(solver._decide(h, state), lambda g: solver._window_value(g, state))
        cached, fresh = solver.plans[h], solver._plan(lam, j)
        assert cached == fresh, h
        steps = [functools.partial(solver._successors, plan=p, caps=cached[1]) for p in (cached, fresh)]
        got = _steps(steps[0], lam)
        assert got == _steps(steps[1], lam), h
        assert value == _enumerated_value(solver, h, dict(lam)), h
        kinds[("blocked", "single", "enumerated")[min(len(got[0]), 2)]] += 1
    assert min(kinds.values()) > 1000, kinds


def test_dms_k_caller_vectors_match_full_state_memo():
    """dms_k on vectors that decide every neighbor equals the same recursion
    memoized on the whole state, with a fresh solver per call and with one
    solver shared by every call on the instance."""
    for trial in range(60):
        rng = random.Random(5100 + trial)
        s = random_interval_set(rng.randint(5, 11), random.Random(5200 + trial))
        for k in (2, 3):
            shared = GeneralSolver(s, k)
            for i in range(len(s)):
                if not (s.nested(i) and s.neighbors[i]):
                    continue
                for vec in _caller_vectors(s, k, i, rng, 4, decided=True):
                    want = _FullKey(s, k).dms(i, vec.states)
                    assert dms_k(i, vec, s, k) == want, (trial, k, i)
                    assert shared.dms(i, vec.states) == want, (trial, k, i)


def _twelve_vertex_set():
    layout = generate_random_biconnected(12, 30, seed=424242)
    return project_to_intervals(layout, EdgeWeightMode.IGNORE_SHIFTED).interval_set


def test_memo_states_regression():
    """The memo keyed on the frontier of the window's remaining members
    holds less than half the states of the key on every decided interval
    ending at or after the window position (20,250 at k=2 and 309,478 at
    k=3 on this instance).  At k=3 its keys hold under 0.7 times the
    positions of the key on the remaining members and their neighbors
    (1,838,481 summed over the memo)."""
    s = _twelve_vertex_set()
    for k, before in ((2, 20_250), (3, 309_478)):
        solver = GeneralSolver(s, k)
        solver.solve()
        assert len(solver.f_memo) < before / 2, (k, len(solver.f_memo))
    keyed = sum(len(key) - 2 for key in solver.f_memo)
    assert keyed < 0.7 * 1_838_481, keyed


@pytest.mark.parametrize(
    "n, m, k, states, weight",
    [(12, 30, 2, 5_070, 79), (12, 30, 3, 40_831, 81), (16, 40, 2, 41_772, 125)],
)
def test_memo_state_count_and_weight_are_pinned(n, m, k, states, weight):
    """The exact memo state count and optimum of the general-k solves that
    the README and the CI comments quote, IGNORE_SHIFTED: a change to the
    key, the clamp or the step enumeration that stores one state more or
    less shows here, not only past the bounds of the tests above."""
    layout = generate_random_biconnected(n, m, seed=424242)
    s = project_to_intervals(layout, EdgeWeightMode.IGNORE_SHIFTED).interval_set
    solver = GeneralSolver(s, k)
    got = solver.solve().weight
    assert (len(solver.f_memo), got) == (states, weight)


def test_memo_budget_raises(monkeypatch):
    s = random_interval_set(10, random.Random(11))
    full = GeneralSolver(s, 3)
    chosen = full.solve().chosen
    need = len(full.f_memo)
    limit = sys.getrecursionlimit()
    monkeypatch.setattr(solver_general, "MAX_MEMO_STATES", need - 1)
    with pytest.raises(SolverBudgetError, match=f"exceeds the limit of {need - 1} memo states"):
        solve_k(s, 3)
    assert sys.getrecursionlimit() == limit
    monkeypatch.setattr(solver_general, "MAX_MEMO_STATES", need)
    assert solve_k(s, 3).chosen == chosen


def test_left_share_caps_shrink_the_memo():
    """Capping each fresh joiner's left share at the intervals nested in the
    committed one that overlap it stores under 0.8 times the 104,140 states
    of 12/30 at k=3 and under 0.7 times the 142,756 of 16/40 at k=2 (76,798
    and 87,999 with the caps)."""
    for (n, m), k, before, share in (((12, 30), 3, 104_140, 0.8), ((16, 40), 2, 142_756, 0.7)):
        layout = generate_random_biconnected(n, m, seed=424242)
        solver = GeneralSolver(project_to_intervals(layout).interval_set, k)
        solver.solve()
        assert len(solver.f_memo) < share * before, (n, m, k, len(solver.f_memo))


class _Uncapped(GeneralSolver):
    """Reference: every budget split of every fresh joiner (a left-share
    cap of k is no cap)."""

    def _successors(self, lam, plan, caps):
        return super()._successors(lam, plan, dict.fromkeys(self.s.neighbors[plan[2][0]], self.k))


def _decision(solver, h, state):
    """The value the window reaches from ``state`` and the steps it keeps
    from there: the ids the walk chooses, in order, and the state its
    steps leave written."""
    lam, out = dict(state), []
    value = _open_every_window(solver)._window_value(h, lam)
    solver._walk(h, lam, out)
    return value, out, _decided(lam)


def test_left_share_caps_keep_every_decision(rng):
    """On random sets with per-pair weights, the capped solve and the
    enumeration of every split give the same weight and chosen set, and
    from every state the capped solve reaches they reach the same value
    through the same steps."""
    checked = shrunk = 0
    for trial in range(60):
        s = random_interval_set(rng.randint(4, 11), random.Random(6100 + trial))
        for k in (2, 3):
            capped, uncapped = _StateLog(s, k), _Uncapped(s, k)
            got, want = capped.solve(), uncapped.solve()
            assert (got.weight, got.chosen) == (want.weight, want.chosen), (trial, k)
            shrunk += len(capped.f_memo) < len(uncapped.f_memo)
            for h, state in list(capped.seen.values()):
                assert _decision(capped, h, state) == _decision(uncapped, h, state), (trial, k, h)
                checked += 1
    assert checked > 2000 and shrunk > 20, (checked, shrunk)


class _UnclampedKey(GeneralSolver):
    """Reference: the same frames run by recursion, memoized on (handle,
    states of F) with every budget as it stands."""

    def _window_value(self, h, lam):
        if h is None:
            return 0
        key = (*h, *map(lam.get, self.suffixes[h][0]))
        if key not in self.f_memo:
            frame = self._decide(h, lam)
            self.f_memo[key] = _run_frame(frame, lambda g: self._window_value(g, lam))
        return self.f_memo[key]


def test_suffix_key_and_budget_clamp_keep_every_decision(rng):
    """On random sets with per-pair weights, the memo keyed on the remaining
    members with clamped frontier budgets and the memo keyed on them with
    the budgets as they stand give the same weight and chosen set, and from
    every state the solve reaches they reach the same value through the
    same steps.  The clamp lowers a budget in some of those states, so it
    is exercised; that (j, |R|) names the remaining members is checked
    against each owner's own window below."""
    checked = shrunk = clamped = 0
    for trial in range(60):
        s = random_interval_set(rng.randint(4, 11), random.Random(7100 + trial))
        for k in (2, 3):
            suffix, reference = _StateLog(s, k), _UnclampedKey(s, k)
            got, want = suffix.solve(), reference.solve()
            assert (got.weight, got.chosen) == (want.weight, want.chosen), (trial, k)
            shrunk += len(suffix.f_memo) < len(reference.f_memo)
            for h, state in list(suffix.seen.values()):
                ids, clamps, _, _ = suffix.suffixes[h]
                clamped += any(c[st] != st for c, st in zip(clamps, map(state.get, ids)))
                assert _decision(suffix, h, state) == _decision(reference, h, state), (trial, k, h)
                checked += 1
    assert checked > 2000 and shrunk > 20 and clamped > 100, (checked, shrunk, clamped)


def _own_record(s, members, idx):
    """The record of the suffix R = members[idx:] of one owner's window,
    computed from that window alone: the frontier ids in ascending order,
    the members of R overlapping each from the left and from the right,
    and the handles of the next member and of the first member starting
    after the right end of R's first member."""
    rest = members[idx:]
    frontier = sorted(set().union(*(s.neighbors[r] for r in rest)).difference(rest))
    caps = [
        (sum(s.left[r] < s.left[x] for r in rest if r in s.neighbors[x]),
         sum(s.left[r] > s.left[x] for r in rest if r in s.neighbors[x]))
        for x in frontier
    ]
    handles = [(r, len(rest) - p) for p, r in enumerate(rest)] + [None]
    after = next((p for p, r in enumerate(rest) if s.left[r] > s.right[rest[0]]), len(rest))
    return frontier, caps, handles[1], handles[after]


def test_suffix_handle_names_its_remaining_members():
    """(j, |R|) names the remaining members R whatever window holds them:
    walking every owner's window, the top level's included, the record
    kept under (members[idx], len(members) - idx), which the first window
    to reach that suffix wrote, equals the one computed from this owner's
    own members, on 40 random sets and on 12/30.  In over 100 windows
    another window wrote some of those records first."""
    sets = [
        random_interval_set(random.Random(8100 + t).randint(4, 13), random.Random(8200 + t))
        for t in range(40)
    ]
    checked = shared = 0
    for s in sets + [_twelve_vertex_set()]:
        solver = GeneralSolver(s, 2)
        for owner in range(len(s) + 1):
            members = list(s.by_left) if owner == len(s) else s.nested(owner)
            stored = len(solver.suffixes)
            top = solver._window(owner)
            shared += len(solver.suffixes) - stored < len(members)
            assert top == ((members[0], len(members)) if members else None), owner
            for idx in range(len(members)):
                ids, clamps, reject, commit = solver.suffixes[members[idx], len(members) - idx]
                got = list(ids), [c.cap for c in clamps], reject, commit
                assert got == _own_record(s, members, idx), (owner, idx)
                checked += 1
    assert checked > 900 and shared > 100, (checked, shared)


def test_left_caps_are_the_nested_intervals_overlapping_each_joiner():
    """Every fresh joiner x of a step at j crosses j from the right, and its
    left share is capped at the number of intervals nested in j that
    overlap x.  That count is x's left count in j's own window record:
    ``left_caps[j].get(x, 0)`` equals it for every interval j and every
    neighbor x crossing j from the right, on 60 random sets and on 12/30,
    with the windows opened in id order and in the order a solve opens
    them."""
    sets = [
        random_interval_set(random.Random(9100 + t).randint(4, 13), random.Random(9200 + t))
        for t in range(60)
    ]
    checked = nonzero = 0
    for s in sets + [_twelve_vertex_set()]:
        nb, left, right = s.neighbors, s.left, s.right
        solved = GeneralSolver(s, 2)
        solved.solve()
        for solver in (GeneralSolver(s, 2), solved):
            for j in range(len(s)):
                solver._window(j)
                lo, hi = left[j], right[j]
                for x in nb[j]:
                    if not left[j] < left[x] < right[j] < right[x]:
                        continue
                    want = sum(1 for y in nb[x] if lo < left[y] and right[y] < hi)
                    assert solver.left_caps[j].get(x, 0) == want, (j, x)
                    checked += 1
                    nonzero += want > 0
    assert checked > 1500 and nonzero > 600, (checked, nonzero)


def test_suffix_key_and_budget_clamp_shrink_the_memo():
    """Keying each window value on the remaining members instead of the
    window's owner, with each committed frontier budget clamped to what
    those members can still take, stores under 0.5 times the 87,999 states
    of 16/40 at k=2 and under 0.6 times the 76,798 of 12/30 at k=3 (41,772
    and 40,831 with both)."""
    for (n, m), k, before, share in (((16, 40), 2, 87_999, 0.5), ((12, 30), 3, 76_798, 0.6)):
        layout = generate_random_biconnected(n, m, seed=424242)
        solver = GeneralSolver(project_to_intervals(layout).interval_set, k)
        solver.solve()
        assert len(solver.f_memo) < share * before, (n, m, k, len(solver.f_memo))


def _nested_and_chain(m):
    """m pairwise nested intervals (i, 2m + 1 - i) and, right of them, the
    chain (2m+1, 2m+3), (2m+2, 2m+5), (2m+4, 2m+6) of overlap degree 2;
    every weight and pair weight is 1, so the optimum is m + 2."""
    spans = [(i, 2 * m + 1 - i) for i in range(1, m + 1)]
    spans += [(2 * m + 1, 2 * m + 3), (2 * m + 2, 2 * m + 5), (2 * m + 4, 2 * m + 6)]
    return make_set(spans, [1] * len(spans), 1)


def test_long_window_families_meet_their_closed_forms():
    """The layout families of the long-window CI steps, at small sizes,
    against their closed-form optima.  A cycle on n vertices plus the chords
    (i, i+2) for i = 1..n-2 has n - 3 crossings, each between consecutive
    chords; routing every second chord outside removes all of them, and W
    never exceeds the one-sided count, so W = n - 3 at every k and in both
    modes.  The chords (i, i+2) for odd i cross nothing, so W = 0.  Nested
    + 3-chain gives m + 2 (see ``_nested_and_chain``)."""
    for n in (5, 6, 7, 10, 31, 60):
        cycle = [(i, i % n + 1) for i in range(1, n + 1)]
        chain = LayoutInstance.build(range(1, n + 1), cycle + [(i, i + 2) for i in range(1, n - 1)])
        for k in range(4):
            for mode in EdgeWeightMode:
                r = solve_layout(chain, k, mode, force_general=k >= 2)
                assert r.solution.weight == r.crossings_one_sided == n - 3, (n, k, mode)
        free = LayoutInstance.build(range(1, n + 1), cycle + [(i, i + 2) for i in range(1, n - 1, 2)])
        assert solve_layout(free, 2).solution.weight == 0, n
    for m in (0, 1, 5, 50, 300):
        assert GeneralSolver(_nested_and_chain(m), 2).solve().weight == m + 2, m


def test_nested_windows_store_each_suffix_once():
    """600 nested intervals beside a chain of degree 2 reach the general
    solver at k=2.  Each remaining suffix is stored once, not once per
    enclosing window, so the memo holds at most 2m + 10 states (180,304
    when keyed on the window's owner)."""
    m = 600
    solver = GeneralSolver(_nested_and_chain(m), 2)
    assert solver.solve().weight == m + 2
    assert len(solver.f_memo) <= 2 * m + 10, len(solver.f_memo)


def test_nested_windows_read_each_neighbor_row_a_bounded_number_of_times():
    """Nested windows open innermost first, and each window's pass resumes
    at the suffixes an inner window recorded, so a solve of 600 nested
    intervals beside a chain of degree 2 at k=2 reads at most 6m rows of
    ``neighbors`` (183,320 when each window's pass walked all its
    members)."""
    m = 600
    s = _nested_and_chain(m)

    class Rows(tuple):
        reads = 0

        def __getitem__(self, i):
            Rows.reads += 1
            return super().__getitem__(i)

    s.__dict__["neighbors"] = Rows(s.neighbors)
    assert GeneralSolver(s, 2).solve().weight == m + 2
    assert Rows.reads <= 6 * m, Rows.reads


def test_solver_steps_do_not_grow_with_k(monkeypatch):
    """A fresh joiner's left share is capped by the intervals nested in the
    committed one that overlap it, so the splits of a step do not grow with
    k: on C4 with diagonals at k = 10^5 every ``_successors`` call of a
    solve yields at most 2 steps (uncapped, a call whose joiner has budget
    b yields b + 2), and the solution is the one at k = 1.
    ``legal_successors`` lists every split, so its count stays linear in k."""
    layout = LayoutInstance.build(range(1, 5), [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3), (2, 4)])
    s = project_to_intervals(layout).interval_set
    counts = []
    successors = GeneralSolver._successors

    def counted(self, lam, plan, caps):
        counts.append(0)
        for step in successors(self, lam, plan, caps):
            counts[-1] += 1
            yield step

    monkeypatch.setattr(GeneralSolver, "_successors", counted)
    big, small = GeneralSolver(s, 10**5).solve(), GeneralSolver(s, 1).solve()
    assert counts and max(counts) <= 2, counts
    assert (big.weight, big.chosen) == (small.weight, small.chosen)
    assert len(legal_successors(CapacityVector.initial(s), 4, s, 10**3)) == 1_001


# -- memory on long windows ----------------------------------------------------


def _weight_and_peak_rss_mib(body):
    """Run ``body``, which sets ``weight``, in a fresh interpreter and return
    (weight, peak RSS in MiB).  The peak is the child's ``VmHWM``, the high
    water mark of its own address space: Linux carries the parent's mark
    into a child's ``ru_maxrss`` across exec, so that would report the test
    process's peak.  tracemalloc would slow the solve many times over."""
    src = str(Path(twosided.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    tail = (
        "\nhwm = next(ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:'))"
        "\nprint(weight, int(hwm.split()[1]) // 1024)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", body + tail], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    weight, mib = map(int, proc.stdout.split())
    return weight, mib


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")


@linux_only
def test_memory_of_a_long_crossing_free_window():
    """A cycle on 4,000 vertices plus the chords (i, i+2) for odd i has
    m = 5,999 edges and no crossing, so ``solve_k`` with ``force_general``
    runs the general solver at k=0 on one window of every interval, 5,999
    members deep.  With one
    state per solve the peak RSS stays under 120 MiB; a state copied at
    every level peaked at 691 MiB."""
    weight, mib = _weight_and_peak_rss_mib(
        "from twosided import LayoutInstance, solve_layout\n"
        "n = 4000\n"
        "edges = [(i, i % n + 1) for i in range(1, n + 1)] + [(i, i + 2) for i in range(1, n - 1, 2)]\n"
        "layout = LayoutInstance.build(range(1, n + 1), edges)\n"
        "weight = solve_layout(layout, 2, force_general=True).solution.weight\n"
    )
    assert (weight, mib < 120) == (0, True), mib


@linux_only
def test_memory_of_nested_windows_beside_a_chain():
    """3,000 nested intervals beside a chain of degree 2 (see
    ``_nested_and_chain``) at k=2 keep one record per remaining suffix, not
    one frontier per window and member, so the peak RSS stays under 60 MiB
    (163 MiB with the per-window tables)."""
    weight, mib = _weight_and_peak_rss_mib(
        "from twosided.model import IntervalSet\n"
        "from twosided.solver_general import GeneralSolver\n"
        "m = 3000\n"
        "spans = [(i, 2 * m + 1 - i) for i in range(1, m + 1)]\n"
        "spans += [(2 * m + 1, 2 * m + 3), (2 * m + 2, 2 * m + 5), (2 * m + 4, 2 * m + 6)]\n"
        "weight = GeneralSolver(IntervalSet.build(spans, [1] * len(spans), 1), 2).solve().weight\n"
    )
    assert (weight, mib < 60) == (3002, True), mib


@linux_only
def test_memory_of_a_long_chain_at_k2():
    """The chain of spans (2i, 2i + 3), each overlapping the next, with
    endpoints ranked to 1..6,000: 3,000 intervals in one window, solved at
    k=2, keep the peak RSS under 80 MiB (187 MiB with a copied state)."""
    weight, mib = _weight_and_peak_rss_mib(
        "from twosided.model import IntervalSet\n"
        "from twosided.solver_general import GeneralSolver\n"
        "m = 3000\n"
        "spans = [(2 * i, 2 * i + 3) for i in range(m)]\n"
        "rank = {p: r for r, p in enumerate(sorted(p for span in spans for p in span), 1)}\n"
        "s = IntervalSet.build([(rank[a], rank[b]) for a, b in spans], [1] * m, 1)\n"
        "weight = GeneralSolver(s, 2).solve().weight\n"
    )
    assert (weight, mib < 80) == (1500, True), mib
