import random

import pytest

from conftest import make_set
from twosided.bench import random_interval_set
from twosided.model import solution_weight
from twosided.oracle import brute_force_k_overlap
from twosided.solver_general import (
    UNDECIDED,
    UNLIMITED,
    CapacityVector,
    GeneralSolver,
    dms_k,
    is_valid_for,
    legal_successors,
    solve_k,
    transition_weight,
)
from twosided.solver_k1 import solve_k0, solve_k1


# -- capacity vectors ---------------------------------------------------------


def test_initial_vector_shape():
    s = make_set([(1, 3), (2, 4)], [1, 1], 1)
    lam = CapacityVector.initial(s)
    assert len(lam.entries) == 6
    assert lam.entries[0] == 0 and lam.entries[5] == 0
    assert all(e is UNDECIDED for e in lam.entries[1:5])


def test_is_valid_for():
    s = make_set([(1, 3), (2, 4)], [1, 1], 1)
    lam = CapacityVector.initial(s)
    k = 2
    committed = lam.replace(s.intervals[0], (k, 0))
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


def test_dms_k_memo_purity():
    s = make_set([(1, 6), (2, 4), (3, 5)], [1, 2, 2], 1)
    lam = CapacityVector.initial(s).replace(s.intervals[0], (2, 2))
    solver = GeneralSolver(s, 2)
    a = dms_k(s.intervals[0], lam, s, 2, solver=solver)
    b = dms_k(s.intervals[0], lam, s, 2, solver=solver)
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
