import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import twosided
from conftest import make_set
from twosided import _sweep
from twosided.bench import random_interval_set
from twosided.model import solution_weight
from twosided.oracle import brute_force_k_overlap
from twosided.solver_k1 import (
    Dms1Table,
    _Engine,
    _window_value,
    compute_dms1,
    dms1_pair,
    dms1_single,
    solve_k0,
    solve_k1,
)


# -- dms values on the worked examples ---------------------------------------


def test_dms1_single_leaf_interval():
    s = make_set([(1, 2), (3, 4)], [7, 1])
    table = compute_dms1(s)
    assert dms1_single(s.intervals[0], s, table) == 7


def test_dms1_single_two_disjoint_nested():
    # container w=0 nesting two disjoint intervals: both fit
    s = make_set([(1, 6), (2, 3), (4, 5)], [0, 5, 7])
    table = compute_dms1(s)
    assert dms1_single(s.intervals[0], s, table) == 12


def test_dms1_single_nested_overlapping_pair():
    # container w=0 nesting an overlapping pair (3, 3, pair weight 1): the
    # pair beats either single
    s = make_set([(1, 6), (2, 4), (3, 5)], [0, 3, 3], 1)
    table = compute_dms1(s)
    assert dms1_single(s.intervals[0], s, table) == 5


def test_dms1_pair_bare():
    s = make_set([(1, 3), (2, 4)], [2, 2], 1)
    table = compute_dms1(s)
    assert dms1_pair(s.intervals[0], s.intervals[1], s, table) == 3


def test_dms1_pair_with_left_middle_extra():
    # I=[1,5], J=[4,8]; [2,3] w=6 sits in the left region
    s = make_set([(1, 5), (4, 8), (2, 3), (6, 7)], [2, 3, 6, 0], 1)
    table = compute_dms1(s)
    assert dms1_pair(s.intervals[0], s.intervals[1], s, table) == 6 + 2 + 3 - 1


def test_dms1_pair_with_nested_single():
    # normalized form of I=[1,4], J=[3,8] with one extra [5,6] w=1 nested in J
    s = make_set([(1, 3), (2, 6), (4, 5)], [2, 2, 1], 1)
    table = compute_dms1(s)
    assert dms1_pair(s.intervals[0], s.intervals[1], s, table) == 2 + 2 - 1 + 1


def test_dms1_pair_rejects_backward_or_disjoint():
    s = make_set([(1, 3), (2, 4)], [2, 2], 1)
    table = compute_dms1(s)
    with pytest.raises(ValueError):
        dms1_pair(s.intervals[1], s.intervals[0], s, table)  # backward
    t = make_set([(1, 2), (3, 4)])
    with pytest.raises(ValueError):
        dms1_pair(t.intervals[0], t.intervals[1], t, compute_dms1(t))


def test_dms1_rejects_table_missing_a_nested_entry():
    s = make_set([(1, 8), (2, 4), (3, 5), (6, 7)], [0, 3, 3, 1], 1)
    table = compute_dms1(s)
    assert dms1_single(s.intervals[0], s, table) == 6
    no_single = Dms1Table({i: v for i, v in table.single.items() if i != 3}, table.pair)
    with pytest.raises(ValueError, match="interval 3"):
        dms1_single(s.intervals[0], s, no_single)
    no_pair = Dms1Table(table.single, {})
    with pytest.raises(ValueError, match="pair"):
        dms1_single(s.intervals[0], s, no_pair)
    # entries outside the window are not needed
    only_nested = Dms1Table({i: table.single[i] for i in (1, 2, 3)}, table.pair)
    assert dms1_single(s.intervals[0], s, only_nested) == 6

    # I=[1,5], J=[4,8]; [2,3] sits in the left region, [6,7] in the right one
    t = make_set([(1, 5), (4, 8), (2, 3), (6, 7)], [2, 3, 6, 1], 1)
    table = compute_dms1(t)
    assert dms1_pair(t.intervals[0], t.intervals[1], t, table) == 6 + 1 + 2 + 3 - 1
    for missing in (2, 3):
        partial = Dms1Table({i: v for i, v in table.single.items() if i != missing}, table.pair)
        with pytest.raises(ValueError, match=f"interval {missing}"):
            dms1_pair(t.intervals[0], t.intervals[1], t, partial)


def test_dms1_lookups_take_int_ids():
    """An interval may be named by its id as well as by the Interval itself;
    both give the same value for every single and every forward pair."""
    for seed in range(4):
        s = random_interval_set(6 + seed, seed)
        table = compute_dms1(s)
        for i, iv in enumerate(s.intervals):
            assert dms1_single(i, s, table) == dms1_single(iv, s, table) == table.single[i]
            for j in s.forward(i):
                jv = s.intervals[j]
                assert dms1_pair(i, j, s, table) == dms1_pair(iv, jv, s, table)
                assert dms1_pair(i, jv, s, table) == dms1_pair(iv, j, s, table)


def test_dms1_lookups_match_the_filled_table():
    """Window lookups on a table from compute_dms1 return the table's own
    values, also on a hand-built copy of the table, and a missing entry
    still raises ValueError."""
    from twosided.bench import generate_random_biconnected
    from twosided.transform import project_to_intervals

    s = project_to_intervals(generate_random_biconnected(60, 156, seed=424242)).interval_set
    table = compute_dms1(s)
    assert [dms1_single(iv, s, table) for iv in s.intervals] == [
        table.single[i] for i in range(len(s))
    ]
    some_pairs = sorted(table.pair)[::97]
    assert [dms1_pair(s.intervals[i], s.intervals[j], s, table) for i, j in some_pairs] == [
        table.pair[p] for p in some_pairs
    ]
    i, j = some_pairs[0]
    assert dms1_pair(s.intervals[i], s.intervals[j], s, Dms1Table(table.single, table.pair)) == (
        table.pair[(i, j)]
    )
    nested = s.nested(i)
    assert nested
    single = {a: v for a, v in table.single.items() if a != nested[0]}
    partial = Dms1Table(single, table.pair)
    with pytest.raises(ValueError, match=f"interval {nested[0]}"):
        dms1_single(s.intervals[i], s, partial)


# -- the shared-sweep table fill ---------------------------------------------


def reference_sweep(s, eng, lo, hi):
    """S[lo + 1] of the open window (lo, hi) on the engine's finished
    option values, by the sweep recurrence written over the interval set."""
    start = {iv.left: i for i, iv in enumerate(s.intervals)}
    S = {hi: 0}
    for x in range(hi - 1, lo, -1):
        S[x] = S[x + 1]
        i = start.get(x)
        if i is not None and s.intervals[i].right < hi:
            for o in range(eng.optr[i], eng.optr[i + 1]):
                last = s.intervals[i if eng.mate[o] < 0 else eng.mate[o]]
                if last.right < hi:
                    S[x] = max(S[x], eng.val[o] + S[last.right + 1])
    return S[lo + 1]


def check_fill(s, k, tag):
    """Assert that every entry of the fill equals its own window's sweep
    (``reference_sweep``) evaluated on the finished table: a single is its
    window's sweep plus its weight, a pair the three-region formula.
    Returns the number of entries checked."""
    eng = _Engine(s, k)
    eng.fill_tables()

    def sweep(lo, hi):
        return reference_sweep(s, eng, lo, hi)

    checked = 0
    for i, iv in enumerate(s.intervals):
        assert eng.val[eng.optr[i]] == sweep(iv.left, iv.right) + iv.weight, (tag, i)
        checked += 1
        partners = [eng.mate[o] for o in range(eng.optr[i] + 1, eng.optr[i + 1])]
        assert partners == (list(s.forward(i)) if k else []), (tag, i)
        for o in range(eng.optr[i] + 1, eng.optr[i + 1]):
            j = eng.mate[o]
            a, b = iv, s.intervals[j]
            assert a.left < b.left < a.right < b.right
            want = (
                sweep(a.left, b.left) + sweep(b.left, a.right) + sweep(a.right, b.right)
                + a.weight + b.weight - s.pair_weight(i, j)
            )
            assert eng.val[o] == want, (tag, i, j)
            checked += 1
    return checked


def test_fill_matches_window_by_window_sweeps():
    """Every entry of the one-sweep-per-right-end fill equals its own
    window's sweep on 300 random interval sets (``check_fill``)."""
    checked = 0
    for trial in range(300):
        rng = random.Random(5000 + trial)
        s = random_interval_set(rng.randint(1, 16), rng)
        for k in (0, 1):
            checked += check_fill(s, k, (trial, k))
    assert checked > 3000


def count_sweeps(monkeypatch):
    """Wrap ``_Engine.sweep`` to count fresh and resumed sweeps and the
    ranks their loops step over, and to log each call's (lo, hi, top)."""
    counts = {"fresh": 0, "resumed": 0, "steps": 0, "log": []}
    sweep = _Engine.sweep

    def counting(self, lo, hi, top=None):
        counts["resumed" if top is not None else "fresh"] += 1
        first = self.s.next_start[hi] if top is None else top
        counts["steps"] += max(0, first - self.s.next_start[lo + 1])
        counts["log"].append((lo, hi, top))
        return sweep(self, lo, hi, top)

    monkeypatch.setattr(_Engine, "sweep", counting)
    return counts


def endpoint_tables(s):
    """Per position 0..2n+1, the id starting there and the id ending there,
    or -1, built from ``s.left`` and ``s.right`` alone."""
    start_at, end_at = [-1] * (2 * len(s) + 2), [-1] * (2 * len(s) + 2)
    for i, (l, r) in enumerate(zip(s.left, s.right)):
        start_at[l] = end_at[r] = i
    return start_at, end_at


def continuations(s, log):
    """The logged fill sweeps that continue left of the start of q, the
    interval whose right end the sweep's bound moved on from: the sweeps
    that serve the left regions of pairs whose partner starts before the
    bound."""
    _, end_at = endpoint_tables(s)
    out = 0
    for lo, hi, _ in log:
        q = end_at[max(x for x in range(hi) if end_at[x] >= 0)]
        out += lo < s.left[q]
    return out


@pytest.mark.parametrize(
    "spans, weights, resumed",
    [
        # [2,4] starts before the first right end: the pair's left region
        # (1, 2) is empty and reads 0
        ([(1, 3), (2, 4)], [3, 2], 0),
        # [4,8] and [5,9] start between the right ends 3 and 6; their
        # owners are [2,6] (both) and [4,8]
        ([(1, 3), (2, 6), (4, 8), (5, 9), (7, 10)], [2, 3, 4, 2, 5], 0),
        # [5,9] starts between the right ends 3 and 6, and its owner [1,7]
        # starts left of the ending [2,3]: the sweep with bound 6 continues
        # past 2, and the left region (1, 5) takes [2,3], final only at 3
        ([(1, 7), (2, 3), (4, 6), (5, 9), (8, 10)], [4, 3, 2, 5, 1], 1),
    ],
)
def test_fill_hand_built_schedules(monkeypatch, spans, weights, resumed):
    """The resumed fill on hand-built sets that reach each case of its
    schedule matches the window-by-window reference.  It starts no sweep
    afresh: at each right end it reads the ranks that still hold the sweep
    of the new bound, and it continues left of the ending interval's start
    ``resumed`` times at k = 1.  On the third set [2,3] and [4,6] end
    inside [1,7], so the sweep with bound 9 resumes at the first start past
    4 (rank 3) and runs down to the first start past 1 (rank 1); the first
    two sets sweep nothing, as no interval ends inside one that ends
    later."""
    s = make_set(spans, weights, 1)
    counts = count_sweeps(monkeypatch)
    for k in (0, 1):
        counts.update(fresh=0, resumed=0, log=[])
        check_fill(s, k, (spans, k))
        assert counts["fresh"] == 0
        assert continuations(s, counts["log"]) == (resumed if k else 0)
        if resumed:
            assert counts["log"][-1] == (1, 9, 3)
        else:
            assert counts["log"] == []


def test_fill_sweeps_once_per_right_end(monkeypatch):
    """The fill moves one sweep's bound once per right end, starts no sweep
    afresh, and steps over under 0.13 times the positions of the schedule
    that sweeps every window (lo, hi) position by position with a second
    sweep at each partner's start (16,240 ranks against 127,583 positions
    on this instance; a fresh sweep per right end stepped over 38,706).
    The final sweep of ``solve`` resumes from the rank the fill leaves
    valid, so the solve's only fresh sweeps are recovery's."""
    from twosided.bench import generate_random_biconnected
    from twosided.transform import EdgeWeightMode, project_to_intervals

    instance = generate_random_biconnected(120, 312, seed=424242)
    s = project_to_intervals(instance, EdgeWeightMode.IGNORE_SHIFTED).interval_set
    start_at, end_at = endpoint_tables(s)
    positions = 0
    for hi in range(1, 2 * len(s) + 1):
        i = end_at[hi]
        if i >= 0:
            positions += hi - s.left[i] - 1
        else:
            owners = [a for a in range(len(s)) if start_at[hi] in s.forward(a)]
            if owners:
                positions += hi - min(s.left[a] for a in owners) - 1
    counts = count_sweeps(monkeypatch)
    cov = _Engine(s, 1).fill_tables()
    assert counts["fresh"] == 0
    assert counts["steps"] < 0.13 * positions, (counts["steps"], positions)
    fill = counts["log"]
    counts.update(fresh=0, resumed=0, steps=0, log=[])
    _Engine(s, 1).solve()
    log = counts["log"]
    assert log[: len(fill) + 1] == fill + [(0, 2 * len(s) + 1, cov)]
    assert all(top is None for _, _, top in log[len(fill) + 1 :])


def test_fill_nested_intervals_in_linear_steps(monkeypatch):
    """m pairwise nested intervals fill in at most m steps at k = 0 and
    k = 1: each closing interval leaves only the start just inside it
    stale.  The schedule with a fresh sweep per right end stepped over
    m(m - 1)/2 ranks, 179,700 at m = 600."""
    m = 600
    s = make_set([(i, 2 * m + 1 - i) for i in range(1, m + 1)], [1] * m, 1)
    counts = count_sweeps(monkeypatch)
    for k in (0, 1):
        counts.update(steps=0)
        eng = _Engine(s, k)
        eng.fill_tables()
        assert counts["steps"] <= m, (k, counts["steps"])
        assert eng.val[eng.optr[0]] == m


def test_fill_resumes_only_from_valid_ranks(monkeypatch):
    """Each sweep of the fill resumes from a rank that holds the sweep of
    its bound, and leaves every rank it writes holding it, on the option
    values final at that point; after the fill, every rank from the
    returned one up holds the sweep of the whole line."""
    state = {}
    sweep = _Engine.sweep

    def at_rank(eng, r, hi):
        s = eng.s
        return 0 if r >= s.next_start[hi] else reference_sweep(s, eng, s.left[s.by_left[r]] - 1, hi)

    def checked(self, lo, hi, top=None):
        assert top is not None
        assert self.s_buf[top] == at_rank(self, top, hi), state["case"]
        out = sweep(self, lo, hi, top)
        for r in range(self.s.next_start[lo + 1], top):
            assert self.s_buf[r] == at_rank(self, r, hi), (state["case"], lo, hi, r)
        return out

    monkeypatch.setattr(_Engine, "sweep", checked)
    swept = 0
    for trial in range(200):
        rng = random.Random(11000 + trial)
        s = random_interval_set(rng.randint(1, 16), rng)
        for k in (0, 1):
            state["case"] = (trial, k)
            eng = _Engine(s, k)
            cov = eng.fill_tables()
            end = 2 * len(s) + 1
            assert all(eng.s_buf[r] == at_rank(eng, r, end) for r in range(cov, len(s) + 1))
            swept += cov > 0
    assert swept > 100


def reference_fill(eng):
    """The fill with one fresh sweep per right end, which the resumed fill
    replaced: it sweeps every start inside (l_q, p2) again at each right
    end.  Kept as the reference the resumed fill is held to."""
    s = eng.s
    (start_at, end_at), left, right = endpoint_tables(s), s.left, s.right
    next_start = s.next_start
    optr, mate, back, live = eng.optr, eng.mate, eng.back, eng.live
    s_buf, val, sweep = eng.s_buf, eng.val, eng.sweep
    q, pending = -1, []
    for p2 in range(1, len(start_at)):
        j = start_at[p2]
        if j >= 0:
            pending += back[j]
            continue
        if q >= 0:
            lq, p = left[q], right[q]
            o = optr[q]
            val[o] += sweep(lq, p2)
            live[q].append((p, val[o]))
            for o in range(o + 1, optr[q + 1]):
                val[o] += s_buf[next_start[left[mate[o]] + 1]]
            for o, a in back[q]:
                v = val[o] = val[o] + s_buf[next_start[right[a] + 1]]
                if v > live[a][-1][1]:
                    live[a].append((p, v))
            if pending:
                lo = min(left[a] for _, a in pending)
                if lo < lq:
                    sweep(lo, p2, next_start[lq + 1])
                for o, a in pending:
                    val[o] += s_buf[next_start[left[a] + 1]]
        q, pending = end_at[p2], []


def test_fill_matches_the_fresh_sweep_reference():
    """The resumed fill and the final sweep it hands to ``solve`` leave the
    same ``val`` and ``live``, the same sweep buffer after recovery, and
    the same optimum and chosen ids as ``reference_fill`` followed by a
    fresh sweep of the whole line: on random sets with per-pair weights and
    on projected layouts in both weight modes, at k = 0 and k = 1."""
    from twosided.bench import generate_random_biconnected
    from twosided.transform import EdgeWeightMode, project_to_intervals

    sets = []
    for trial in range(400):
        rng = random.Random(13000 + trial)
        sets.append(random_interval_set(rng.randint(1, 24), rng))
    for n in range(8, 41, 4):
        instance = generate_random_biconnected(n, round(2.6 * n), seed=n)
        sets += [project_to_intervals(instance, mode).interval_set for mode in EdgeWeightMode]
    for case, s in enumerate(sets):
        for k in (0, 1):
            eng, ref = _Engine(s, k), _Engine(s, k)
            got = eng.solve()
            reference_fill(ref)
            want = ref.sweep(0, 2 * len(s) + 1), ref._backtrack()
            assert got == want, (case, k)
            assert (eng.val, eng.live, eng.s_buf) == (ref.val, ref.live, ref.s_buf), (case, k)


def reference_backtrack(eng):
    """Recovery with one fresh sweep per window along the optimal
    decomposition, which the in-place walk of partnerless singles
    replaced.  Kept as the reference ``_backtrack`` is held to; expects
    ``s_buf`` to hold the sweep of the whole line."""
    s = eng.s
    S, left, right, next_start = eng.s_buf, s.left, s.right, s.next_start
    chosen, windows = [], []
    lo, hi = 0, 2 * len(s) + 1
    while True:
        r, top = next_start[lo + 1], next_start[hi]
        while r < top:
            if S[r] == S[r + 1]:
                r += 1
                continue
            i, j = eng._option_at(r, hi)
            c, d = left[i], right[i]
            chosen.append(i)
            if j < 0:
                windows.append((c, d))
                r = next_start[d + 1]
            else:
                e, f = left[j], right[j]
                chosen.append(j)
                windows += [(c, e), (e, d), (d, f)]
                r = next_start[f + 1]
        if not windows:
            return chosen
        lo, hi = windows.pop()
        eng.sweep(lo, hi)


def nested_spans(m):
    return [(i, 2 * m + 1 - i) for i in range(1, m + 1)]


def chain_spans(m):
    """m >= 2 intervals, each overlapping only the one before and the one
    after it: (1, 3), (2, 5), (4, 7), ..., (2m - 2, 2m)."""
    return [(1, 3)] + [(2 * i, 2 * i + 3) for i in range(1, m - 1)] + [(2 * m - 2, 2 * m)]


def test_recovery_matches_the_fresh_sweep_reference():
    """Recovery that walks partnerless singles in place finds the same
    optimum and the same chosen set as ``reference_backtrack``, which
    sweeps every chosen window afresh: on random sets with per-pair
    weights, on projected layouts in both weight modes, and on nested,
    chain and nested-beside-chain families with random weights, at k = 0
    and k = 1."""
    from twosided.bench import generate_random_biconnected
    from twosided.transform import EdgeWeightMode, project_to_intervals

    rng = random.Random(19000)
    sets = [random_interval_set(rng.randint(1, 30), rng) for _ in range(400)]
    for n in range(8, 61, 4):
        instance = generate_random_biconnected(n, round(2.6 * n), seed=n)
        sets += [project_to_intervals(instance, mode).interval_set for mode in EdgeWeightMode]
    for m in (2, 3, 7, 40):
        both = nested_spans(m) + [(a + 2 * m, b + 2 * m) for a, b in chain_spans(m)]
        for spans in (nested_spans(m), chain_spans(m), both):
            for pair_weight in (0, 1, 2):
                weights = [rng.randint(0, 5) for _ in spans]
                sets.append(make_set(spans, weights, pair_weight))
    in_place = 0
    for case, s in enumerate(sets):
        for k in (0, 1):
            best, chosen = _Engine(s, k).solve()
            ref = _Engine(s, k)
            want = ref.sweep(0, 2 * len(s) + 1, ref.fill_tables()), reference_backtrack(ref)
            assert len(set(chosen)) == len(chosen), (case, k)
            assert (best, sorted(chosen)) == (want[0], sorted(want[1])), (case, k)
            in_place += any(s.ptr[i] == s.ptr[i + 1] for i in chosen)
    assert in_place > 500


def test_recovery_on_nested_intervals_sweeps_nothing_afresh(monkeypatch):
    """On m pairwise nested intervals every chosen single has no forward
    partner, so recovery walks each window inside the whole line's walk:
    the solve runs no fresh sweep at k = 0 and k = 1, and its sweeps step
    over at most m ranks.  Recovery with a fresh sweep per chosen window
    stepped over m(m - 1)/2 ranks."""
    m = 600
    s = make_set(nested_spans(m), [1] * m, 1)
    counts = count_sweeps(monkeypatch)
    for k in (0, 1):
        counts.update(fresh=0, steps=0)
        best, chosen = _Engine(s, k).solve()
        assert (best, sorted(chosen)) == (m, list(range(m))), k
        assert counts["fresh"] == 0, k
        assert counts["steps"] <= m, (k, counts["steps"])


def test_live_rows_are_the_undominated_options():
    """After the fill, ``live[i]`` is strictly ascending in end and value,
    each entry is the end and value of an option of row i, and every option
    of the row is matched by an entry that ends no later and is worth at
    least as much."""
    for trial in range(200):
        rng = random.Random(9000 + trial)
        s = random_interval_set(rng.randint(1, 16), rng)
        for k in (0, 1):
            eng = _Engine(s, k)
            eng.fill_tables()
            for i, live in enumerate(eng.live):
                row = []
                for o in range(eng.optr[i], eng.optr[i + 1]):
                    j = eng.mate[o]
                    row.append((s.right[i if j < 0 else j], eng.val[o]))
                assert live and set(live) <= set(row), (trial, k, i)
                for (f, v), (g, w) in zip(live, live[1:]):
                    assert f < g and v < w, (trial, k, i)
                for f, v in row:
                    assert any(g <= f and w >= v for g, w in live), (trial, k, i, f)


def test_live_rows_regression():
    """The sweeps walk under 0.3 times the options of the rows (3,884 live
    entries against 16,561 options on this instance)."""
    from twosided.bench import generate_random_biconnected
    from twosided.transform import EdgeWeightMode, project_to_intervals

    instance = generate_random_biconnected(120, 312, seed=424242)
    s = project_to_intervals(instance, EdgeWeightMode.IGNORE_SHIFTED).interval_set
    eng = _Engine(s, 1)
    eng.fill_tables()
    kept = sum(map(len, eng.live))
    assert kept < 0.3 * len(eng.mate), (kept, len(eng.mate))


def test_window_lookups_rebuild_every_row():
    """``_window_value`` rebuilds the live rows of each window from the table
    it is given: on one engine, alternating between a filled table and a
    copy whose pair values are raised, every window value equals the
    reference sweep over that table, and ``dms1_single`` and ``dms1_pair``
    agree with it."""
    from twosided.bench import generate_random_biconnected
    from twosided.transform import project_to_intervals

    s = project_to_intervals(generate_random_biconnected(60, 156, seed=424242)).interval_set
    table = compute_dms1(s)
    rng = random.Random(17)
    raised = Dms1Table(table.single, {p: v + rng.randint(0, 50) for p, v in table.pair.items()})
    assert raised.pair != table.pair
    refs = []
    for t in (table, raised):
        ref = _Engine(s, 1)
        for i in range(len(s)):
            ref.val[ref.optr[i]] = t.single[i]
            for o in range(ref.optr[i] + 1, ref.optr[i + 1]):
                ref.val[o] = t.pair[i, ref.mate[o]]
        refs.append((t, ref))
    shared = _Engine(s, 1)
    for i in range(len(s)):
        lo, hi = s.left[i], s.right[i]
        for t, ref in refs[::-1] + refs:
            want = reference_sweep(s, ref, lo, hi)
            assert _window_value(shared, t, lo, hi) == want, i
        t, ref = refs[1]
        assert dms1_single(i, s, t) == s.weight[i] + reference_sweep(s, ref, lo, hi), i
    for i, j in sorted(raised.pair)[::61]:
        c, d, e, f = s.left[i], s.right[i], s.left[j], s.right[j]
        t, ref = refs[1]
        regions = sum(reference_sweep(s, ref, a, b) for a, b in ((c, e), (e, d), (d, f)))
        want = regions + s.weight[i] + s.weight[j] - s.pair_weight(i, j)
        assert dms1_pair(i, j, s, t) == want, (i, j)


def test_recovery_mismatch_raises(monkeypatch):
    s = make_set([(1, 3), (2, 4), (5, 6)], [2, 2, 4], 1)
    assert solve_k1(s).weight == 7
    monkeypatch.setattr(_Engine, "_backtrack", lambda self: [2])
    for solver in (solve_k0, solve_k1):
        with pytest.raises(AssertionError, match="recovered solution weighs 4"):
            solver(s)


def test_recovery_tie_order():
    """Recovery keeps the sweep's tie order: copy, then the single, then
    pairs by ascending partner id."""
    # a zero-weight interval, alone or nested, adds nothing: copy wins
    for s in (make_set([(1, 2)], [0]), make_set([(1, 4), (2, 3)], [0, 5])):
        for solver in (solve_k0, solve_k1):
            assert 0 not in solver(s).chosen
    # [1,3] alone and the pair ([1,3], [2,4]) are both worth 3: the single wins
    s = make_set([(1, 3), (2, 4)], [3, 1], 1)
    sol = solve_k1(s)
    assert (sol.weight, sol.chosen) == (3, frozenset({0}))
    # [1,4] pairs with [3,6] (id 1) and with [2,5] (id 2), both worth 4: the
    # lower partner id wins, though [2,5] starts further left
    s = make_set([(1, 4), (3, 6), (2, 5)], [3, 2, 2], 1)
    assert compute_dms1(s).pair == {(0, 1): 4, (0, 2): 4, (2, 1): 3}
    sol = solve_k1(s)
    assert (sol.weight, sol.chosen) == (4, frozenset({0, 1}))


PYTHON_O_CHECKS = """
import sys
from twosided.model import IntervalSet
from twosided.solver_general import GeneralSolver
from twosided.solver_k1 import _Engine, solve_k1


def raises(match, fn):
    try:
        fn()
    except AssertionError as exc:
        if match not in str(exc):
            sys.exit(f"wrong message: {exc}")
    else:
        sys.exit(f"no AssertionError matching {match!r}")


if not sys.flags.optimize:
    sys.exit("not running under -O")
s = IntervalSet.build([(1, 3), (2, 4), (5, 6)], [2, 2, 4], 1)

backtrack = _Engine._backtrack
_Engine._backtrack = lambda self: [2]
raises("recovered solution weighs 4, the DP value is 7", lambda: solve_k1(s))
triangle = IntervalSet.build([(1, 4), (2, 5), (3, 6)], [1, 0, 0], 0)
_Engine._backtrack = lambda self: [0, 1, 2]
raises("recovered solution is not 1-overlap", lambda: solve_k1(triangle))
_Engine._backtrack = backtrack

eng = _Engine(s, 1)
eng.fill_tables()
eng.sweep(0, 2 * len(s) + 1)
eng.s_buf[s.next_start[1]] += 1
raises("no option at position 1", lambda: eng._backtrack())

walk = GeneralSolver._walk


def drop_last_chosen(self, h, lam, out):
    walk(self, h, lam, out)
    if h == self.windows[self.n]:
        out.pop()


GeneralSolver._walk = drop_last_chosen
raises("the DP value is 7", lambda: GeneralSolver(s, 2).solve())
print("checks raised")
"""


def test_result_checks_survive_python_O():
    """The recovered-solution checks both solvers share (weight and
    k-overlap), recovery's no-matching-option check and GeneralSolver.solve's
    weight check raise under ``python -O`` too."""
    src = str(Path(twosided.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", PYTHON_O_CHECKS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "checks raised\n"), proc.stderr


# -- solve_k1 ----------------------------------------------------------------


def test_solve_k1_empty():
    sol = solve_k1(make_set([]))
    assert sol.weight == 0 and sol.chosen == frozenset()


def test_solve_k1_triangle():
    s = make_set([(1, 4), (2, 5), (3, 6)], [1, 1, 1], 1)
    sol = solve_k1(s)
    assert sol.weight == 1
    assert sol.max_overlap_degree() <= 1


def test_solve_k1_two_disjoint_pairs():
    s = make_set([(1, 3), (2, 4), (5, 7), (6, 8)], [2, 2, 2, 2], 1)
    sol = solve_k1(s)
    assert sol.weight == 6
    assert sol.chosen == frozenset({0, 1, 2, 3})


def test_solve_k0_examples():
    s = make_set([(1, 3), (2, 4)], [3, 5], 1)
    sol = solve_k0(s)
    assert sol.weight == 5 and sol.chosen == frozenset({1})
    assert not sol.overlap_pairs

    chain = make_set([(1, 3), (2, 5), (4, 6)], [1, 1, 1], 1)
    assert solve_k0(chain).weight == 2

    tower = make_set([(1, 8), (2, 7), (3, 6), (4, 5)], [1, 1, 1, 1], 1)
    assert solve_k0(tower).weight == 4


# -- oracle equivalence and feasibility --------------------------------------


def test_oracle_equivalence_small(rng):
    for trial in range(150):
        s = random_interval_set(rng.randint(1, 12), random.Random(trial))
        for k, solver in ((0, solve_k0), (1, solve_k1)):
            got = solver(s)
            want = brute_force_k_overlap(s, k)
            assert got.weight == want.weight, (trial, k)
            assert got.weight == solution_weight(got.chosen, s)
            assert got.max_overlap_degree() <= k


def test_python_kernel_parity():
    """The k<=1 kernel is plain Python, as ``solvebench/run.py`` reports it
    from ``_sweep.HAVE_NUMBA``."""
    assert _sweep.HAVE_NUMBA is False


def test_k_monotonicity(rng):
    for trial in range(60):
        s = random_interval_set(rng.randint(1, 12), random.Random(2000 + trial))
        assert solve_k1(s).weight >= solve_k0(s).weight


def test_no_triple_at_common_stab_point(rng):
    """No three chosen intervals spanning a common point may carry two or
    more overlap edges among themselves."""
    for trial in range(50):
        s = random_interval_set(rng.randint(3, 12), random.Random(3000 + trial))
        sol = solve_k1(s)
        chosen = sorted(sol.chosen)
        n = len(s)
        for x in range(1, 2 * n + 1):
            at_x = [i for i in chosen if s.intervals[i].left <= x <= s.intervals[i].right]
            for triple in combinations(at_x, 3):
                edges = sum(
                    1
                    for a, b in combinations(triple, 2)
                    if (min(a, b), max(a, b)) in s.pair_weights
                )
                assert edges <= 1


def test_window_optimality_of_dms_pair(rng):
    """Each stored dms1 pair value equals the brute-force optimum of the
    pair's window with both intervals forced in."""
    for trial in range(15):
        s = random_interval_set(rng.randint(3, 8), random.Random(4500 + trial))
        table = compute_dms1(s)
        for (i, j), value in table.pair.items():
            lo = s.intervals[i].left
            hi = s.intervals[j].right
            window_ids = [
                w for w, iv in enumerate(s.intervals)
                if lo <= iv.left and iv.right <= hi
            ]
            others = [w for w in window_ids if w not in (i, j)]
            best = None
            for size in range(len(others) + 1):
                for extra in combinations(others, size):
                    ids = {i, j, *extra}
                    degs = {a: 0 for a in ids}
                    for a in ids:
                        for b in ids:
                            if a < b and (a, b) in s.pair_weights:
                                degs[a] += 1
                                degs[b] += 1
                    if max(degs.values()) > 1:
                        continue
                    w = solution_weight(ids, s)
                    if best is None or w > best:
                        best = w
            assert value == best, (trial, i, j)


def test_window_optimality_of_dms_single(rng):
    """Each stored dms1 single value equals the brute-force optimum of the
    restricted window with the interval forced in."""
    for trial in range(25):
        s = random_interval_set(rng.randint(2, 8), random.Random(4000 + trial))
        table = compute_dms1(s)
        for i, iv in enumerate(s.intervals):
            window_ids = [
                j for j, w in enumerate(s.intervals)
                if iv.left <= w.left and w.right <= iv.right
            ]
            best = None
            others = [j for j in window_ids if j != i]
            for size in range(len(others) + 1):
                for extra in combinations(others, size):
                    ids = {i, *extra}
                    degs = {a: 0 for a in ids}
                    for a in ids:
                        for b in ids:
                            if a < b and (a, b) in s.pair_weights:
                                degs[a] += 1
                                degs[b] += 1
                    if degs and max(degs.values()) > 1:
                        continue
                    w = solution_weight(ids, s)
                    if best is None or w > best:
                        best = w
            assert table.single[i] == best
