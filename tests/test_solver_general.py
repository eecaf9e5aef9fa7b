import random
import sys

import pytest

from conftest import make_set
from twosided import solver_general
from twosided.bench import generate_random_biconnected, random_interval_set
from twosided.model import solution_weight
from twosided.oracle import brute_force_k_overlap
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
    the solver's dummy (the whole line) and len(s) would index past the end."""
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
        pw = {key: rng.randint(0, 3) for key in skeleton.pair_weights}
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


def test_solve_k_empty_and_bad_k():
    assert solve_k(make_set([]), 3).weight == 0
    with pytest.raises(ValueError):
        solve_k(make_set([]), -1)


def test_recovery_mismatch_raises(monkeypatch):
    walk = GeneralSolver._walk

    def drop_last_chosen(self, owner, idx, lam, out):
        walk(self, owner, idx, lam, out)
        if owner == self.dummy:
            out.pop()

    monkeypatch.setattr(GeneralSolver, "_walk", drop_last_chosen)
    s = make_set([(1, 2), (3, 4)], [5, 7])
    with pytest.raises(AssertionError, match="recovered solution weighs 5, the DP value is 12"):
        GeneralSolver(s, 2).solve()


# -- memo key and memo budget --------------------------------------------------


class _ReadLog(dict):
    """A state that logs every id passed to ``get``, ``[]`` or ``in``.
    ``dict(log)`` copies it without reading ids one by one (a dict subclass
    that keeps dict's own iteration is copied as a dict)."""

    def __init__(self, state):
        super().__init__(state)
        self.read: set[int] = set()

    def get(self, i, default=None):
        self.read.add(i)
        return super().get(i, default)

    def __getitem__(self, i):
        self.read.add(i)
        return super().__getitem__(i)

    def __contains__(self, i):
        self.read.add(i)
        return super().__contains__(i)


class _StateLog(GeneralSolver):
    """Records every (owner, idx, state) the value recursion is asked for."""

    def __init__(self, s, k):
        super().__init__(s, k)
        self.seen: dict = {}

    def _window_value(self, owner, idx, lam):
        if idx < len(self.members[owner]):
            self.seen.setdefault((owner, idx, frozenset(lam.items())), (owner, idx, dict(lam)))
        return super()._window_value(owner, idx, lam)


class _FullKey(GeneralSolver):
    """Reference: the same recursion, memoized on the whole state."""

    def _window_value(self, owner, idx, lam):
        if idx >= len(self.members[owner]):
            return 0
        key = (owner, idx, frozenset(lam.items()))
        if key not in self.f_memo:
            self.f_memo[key] = self._decide(owner, idx, lam)[0]
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


def test_memo_key_covers_every_read_and_write():
    """One decision step at a reachable (owner, idx, state) reads and writes
    only the positions its memo key holds, the window's remaining members
    and their neighbors: at the states a solve reaches and at the states
    ``dms`` reaches from vectors that decide every neighbor of the interval."""
    checked = 0
    for trial in range(40):
        rng = random.Random(4100 + trial)
        s = random_interval_set(rng.randint(4, 11), random.Random(4200 + trial))
        for k in (2, 3):
            log = _StateLog(s, k)
            log.solve()
            for i in range(len(s)):
                if log.members[i] and s.neighbors[i]:
                    for vec in _caller_vectors(s, k, i, rng, 3, decided=True):
                        log.dms(i, vec.states)
            checker = GeneralSolver(s, k)
            for owner, idx, lam in log.seen.values():
                keyed = set(checker._key_positions(owner, idx))
                j = checker.members[owner][idx]
                rec = _ReadLog(lam)
                checker._decide(owner, idx, rec)[0]
                assert j in rec.read
                assert rec.read <= keyed, (trial, k, owner, idx, rec.read - keyed)
                for lam2, _, _ in checker._successors(lam, j):
                    written = {x for x in lam2.keys() | lam.keys() if lam2.get(x) != lam.get(x)}
                    assert written <= keyed, (trial, k, owner, idx)
                checked += 1
    assert checked > 2000, checked


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
                if not (shared.members[i] and s.neighbors[i]):
                    continue
                for vec in _caller_vectors(s, k, i, rng, 4, decided=True):
                    want = _FullKey(s, k).dms(i, vec.states)
                    assert dms_k(i, vec, s, k) == want, (trial, k, i)
                    assert shared.dms(i, vec.states) == want, (trial, k, i)


def _twelve_vertex_set():
    layout = generate_random_biconnected(12, 30, seed=424242)
    return project_to_intervals(layout, EdgeWeightMode.IGNORE_SHIFTED).interval_set


def test_memo_states_regression():
    """The memo keyed on the window's remaining members and their
    neighbors holds less than half the states of the key on every decided
    interval ending at or after the window position (20,250 at k=2 and
    309,478 at k=3 on this instance)."""
    s = _twelve_vertex_set()
    for k, before in ((2, 20_250), (3, 309_478)):
        solver = GeneralSolver(s, k)
        solver.solve()
        assert len(solver.f_memo) < before / 2, (k, len(solver.f_memo))


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
