"""Exact solver for max-weight 1-overlap sets (and the k=0 fast path).

A 1-overlap set decomposes into isolated intervals and isolated overlapping
pairs: no point of the line can be covered by three chosen, pairwise
connected intervals.  The dynamic program therefore tabulates two families of
subproblem values over windows of the line:

* ``dms1(I)``    -- best 1-overlap set on the window spanned by I that
                    contains I;
* ``dms1(I, J)`` -- best 1-overlap set on the window spanned by an
                    overlapping pair (I, J), J in the forward overlap set of
                    I, containing both.

A single value is its weight plus a sweep over the intervals nested in it; a
pair value adds three independent sweeps over the left, middle and right
regions the pair cuts out of its window.  A sweep's value depends only on
its window's right end, so the tables are filled with one shared sweep per
right end, taking the right ends in ascending order (the schedule of
Valiente's O(l) maximum-weight independent set algorithm for circle graphs,
ISAAC 2003): each region is a lookup into the sweep of its right end, and
every entry a sweep consults ends further left and is already final.  A
final sweep over the whole line assembles the optimum.

Each interval owns one row of options, the choices a sweep can make at its
start point: the interval alone first, then at k = 1 the interval with each
of its forward partners, ascending by partner id; at k = 0 the row holds the
single only.  Every option carries its own value, a single's or a pair's, so
one loop serves both k; it ends where its last interval ends.

A sweep walks the integer positions of a window (lo, hi) from right to left;
at the start point of a window-contained interval it maximizes over skipping
the interval and taking one option of its row that ends inside the window.
Its value at position x, ``S_hi[x]``, depends on the right end ``hi`` only,
never on ``lo``, and it is non-increasing in x.  So an option o' of a row,
ending at f', never raises a sweep value when another option o of the row
ends at f < f' and is worth at least as much: o is inside the window
whenever o' is, and ``val[o] + S[f + 1] >= val[o'] + S[f' + 1]``.  The sweep
therefore walks only each row's undominated options, kept in ascending end
order, and stops at the first one that leaves the window.  Options become
final in ascending end order, so the table fill appends an option to that
list when its value is final and beats the last one kept; nothing is
sorted, and every sweep value is the one the whole row would give.

One method, ``_Engine.sweep``, is the only copy of that recurrence, and it
records no choices: solution recovery walks the final sweep and the sweeps of
the windows along the optimal decomposition and reads each decision off the
sweep values -- at a position whose value differs from its right neighbour's,
the first option of the whole row, in row order, whose value equals it, which
is the option a sweep over the whole row with a strict ``>`` keeps.  All
arithmetic is exact integer arithmetic on plain lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Interval, IntervalSet, Solution

__all__ = [
    "Dms1Table",
    "compute_dms1",
    "dms1_single",
    "dms1_pair",
    "solve_k1",
    "solve_k0",
]


class _Engine:
    """The option rows of an IntervalSet ``s`` for one k <= 1.

    Interval i's options are ``optr[i]:optr[i + 1]``: the single first
    (``mate[o] = -1``), then at k = 1 one pair per forward partner
    (``mate[o]`` = the partner), ascending by id.  ``val[o]`` starts as the
    option's own weight, its intervals' weights less its pair weight, gains
    each region's sweep value during the fill and ends as its dms1 value.
    ``live[i]`` lists (end, value) of row i's undominated final options,
    strictly ascending in both: each beats every option of the row that
    ends before it.
    """

    def __init__(self, s: IntervalSet, k: int):
        self.s = s
        self.n = n = len(s)
        weight, pw = s.weight, s.pair_weights
        self.optr = optr = [0]
        self.mate, self.val = mate, val = [], []
        # back[j]: (option, row owner) of every pair whose partner is j.
        self.back = back = [[] for _ in range(n)]
        for i in range(n):
            mate.append(-1)
            val.append(weight[i])
            for j in (s.forward(i) if k else ()):
                back[j].append((len(mate), i))
                mate.append(j)
                val.append(weight[i] + weight[j] - pw[(i, j) if i < j else (j, i)])
            optr.append(len(mate))
        self.live = [[] for _ in range(n)]
        self.s_buf = [0] * (2 * n + 2)

    def sweep(self, lo: int, hi: int) -> int:
        """Evaluate one sweep over the open window (lo, hi); returns S[lo + 1].

        ``start_at[x]`` is the interval starting at position x (or -1).
        Fills ``s_buf[lo + 1 : hi + 1]``; values for positions outside the
        window are stale leftovers from earlier calls and are never read.
        ``S[x]`` is the best of copying ``S[x + 1]`` and taking one option of
        the interval starting at x that ends inside the window.  Only the
        row's undominated options, ``live[a]`` in ascending end order, are
        tried, and the walk stops at the first one that ends at or after
        ``hi``; the value is the same as over the whole row.
        """
        start_at, live, s_buf = self.s.start_at, self.live, self.s_buf
        s_buf[hi] = 0
        for x in range(hi - 1, lo, -1):
            best = s_buf[x + 1]
            a = start_at[x]
            if a >= 0:
                for f, v in live[a]:
                    if f >= hi:
                        break
                    v += s_buf[f + 1]
                    if v > best:
                        best = v
            s_buf[x] = best
        return s_buf[lo + 1]

    def fill_tables(self) -> None:
        """Fill ``val`` and ``live`` in place.

        ``end_at[x]`` is the interval ending at position x (or -1).  A pair
        option of interval [c, d] with its partner [e, f] has
        c < e < d < f.  For each right end ``hi``, ascending, one sweep runs
        from ``hi`` down to the smallest left end needed there, and every
        entry reads its regions off it:

        * a single i with r_i = hi adds ``S_hi[l_i + 1]``;
        * a pair adds ``S_e[c + 1]`` at hi = e, ``S_d[e + 1]`` at hi = d and
          ``S_f[d + 1]`` at hi = f, where it is final.

        An option joins its row's ``live`` at the hi where it finishes, if
        it beats the last one kept there, so a sweep at hi reads only final
        options, all ending before hi; a pair's ``val`` holds a partial sum
        only while hi <= f, before it can join.
        """
        start_at, end_at, left, right = self.s.start_at, self.s.end_at, self.s.left, self.s.right
        optr, mate, back, live = self.optr, self.mate, self.back, self.live
        s_buf, val, sweep = self.s_buf, self.val, self.sweep
        for hi in range(1, len(start_at) - 1):
            i = end_at[hi]
            if i >= 0:
                lo = left[i]
            else:
                pairs = back[start_at[hi]]
                if not pairs:
                    continue
                lo = hi
                for _, a in pairs:
                    if left[a] < lo:
                        lo = left[a]
            inner = sweep(lo, hi)
            if i < 0:
                for o, a in pairs:
                    val[o] += s_buf[left[a] + 1]
                continue
            o = optr[i]
            val[o] += inner
            live[i].append((hi, val[o]))
            for o in range(o + 1, optr[i + 1]):
                val[o] += s_buf[left[mate[o]] + 1]
            for o, a in back[i]:
                v = val[o] = val[o] + s_buf[right[a] + 1]
                if v > live[a][-1][1]:
                    live[a].append((hi, v))

    def solve(self) -> tuple[int, list[int]]:
        self.fill_tables()
        best = self.sweep(0, 2 * self.n + 1)
        return best, self._backtrack()

    def _backtrack(self) -> list[int]:
        """Ids of an optimal set, read off the sweeps of the windows along
        the optimal decomposition.  Expects ``s_buf`` to hold the sweep of
        the whole line, as ``solve`` leaves it."""
        S, left, right = self.s_buf, self.s.left, self.s.right
        chosen: list[int] = []
        windows: list[tuple[int, int]] = []
        lo, hi = 0, 2 * self.n + 1
        while True:
            x = lo + 1
            while x < hi:
                if S[x] == S[x + 1]:
                    x += 1
                    continue
                i, j = self._option_at(x, hi)
                c, d = left[i], right[i]
                chosen.append(i)
                if j < 0:
                    windows.append((c, d))
                    x = d + 1
                else:
                    e, f = left[j], right[j]
                    chosen.append(j)
                    windows.append((c, e))
                    windows.append((e, d))
                    windows.append((d, f))
                    x = f + 1
            if not windows:
                return chosen
            lo, hi = windows.pop()
            self.sweep(lo, hi)

    def _option_at(self, x: int, hi: int) -> tuple[int, int]:
        """The option the sweep of a window ending at ``hi`` took at ``x``
        when it did not copy ``S[x + 1]``, as ``(i, mate)``: ``(i, -1)`` for
        the single i, ``(i, j)`` for the pair of i and its partner j.  The
        whole row is scanned, dominated options too, in row order, and the
        first option whose value equals ``S[x]`` is taken: the choice a sweep
        over the whole row with a strict ``>`` makes."""
        S, right, mate = self.s_buf, self.s.right, self.mate
        i = self.s.start_at[x]
        if i >= 0:
            for o in range(self.optr[i], self.optr[i + 1]):
                j = mate[o]
                f = right[i if j < 0 else j]
                if f < hi and self.val[o] + S[f + 1] == S[x]:
                    return i, j
        raise AssertionError(f"no option at position {x} reaches the sweep value {S[x]}")


@dataclass(frozen=True)
class Dms1Table:
    """Finished subproblem values: ``single[i]`` per interval id, ``pair[(i,
    j)]`` per forward overlapping pair."""

    single: dict[int, int]
    pair: dict[tuple[int, int], int]


def compute_dms1(s: IntervalSet, include_pairs: bool = True) -> Dms1Table:
    """Fill both value families bottom-up for the whole instance."""
    eng = _Engine(s, int(include_pairs))
    eng.fill_tables()
    single, pair = {}, {}
    for i in range(eng.n):
        single[i] = eng.val[eng.optr[i]]
        for o in range(eng.optr[i] + 1, eng.optr[i + 1]):
            pair[i, eng.mate[o]] = eng.val[o]
    return Dms1Table(single, pair)


def _window_value(eng: _Engine, table: Dms1Table, lo: int, hi: int) -> int:
    """Sweep value of the open window (lo, hi) over ``table``.

    Rebuilds ``live`` for every row that starts inside the window, from
    exactly the entries that sweep reads -- every interval inside the window
    and every forward pair inside it -- and raises ValueError when ``table``
    lacks one of them.  A row whose interval leaves the window gets an empty
    list, so no row keeps what an earlier call loaded.
    """
    start_at, right = eng.s.start_at, eng.s.right
    for x in range(lo + 1, hi):
        a = start_at[x]
        if a < 0:
            continue
        row = eng.live[a] = []
        if right[a] >= hi:
            continue
        if a not in table.single:
            raise ValueError(f"table lacks the dms1 value of interval {a}")
        row.append((right[a], table.single[a]))
        for b in sorted(eng.mate[eng.optr[a] + 1 : eng.optr[a + 1]], key=right.__getitem__):
            if right[b] >= hi:
                break
            if (a, b) not in table.pair:
                raise ValueError(f"table lacks the dms1 value of pair {(a, b)}")
            v = table.pair[a, b]
            if v > row[-1][1]:
                row.append((right[b], v))
    return eng.sweep(lo, hi)


def dms1_single(interval: Interval | int, s: IntervalSet, table: Dms1Table) -> int:
    """Best 1-overlap set on the window of ``interval`` forced to contain it.

    ``table`` must hold the value of every interval and forward pair nested
    in the window; a missing one raises ValueError.
    """
    i = s.id_of(interval)
    return _window_value(_Engine(s, 1), table, s.left[i], s.right[i]) + s.weight[i]


def dms1_pair(
    i_interval: Interval | int, j_interval: Interval | int, s: IntervalSet, table: Dms1Table
) -> int:
    """Best 1-overlap set on the pair's window forced to contain both.

    ``j_interval`` must lie in the forward overlap set of ``i_interval``, and
    ``table`` must hold the value of every interval and forward pair nested in
    the pair's left, middle and right regions; a missing one raises
    ValueError.
    """
    i = s.id_of(i_interval)
    j = s.id_of(j_interval)
    if j not in s.forward(i):
        raise ValueError("second interval must overlap the first on its right side")
    eng = _Engine(s, 1)
    c, d, e, f = s.left[i], s.right[i], s.left[j], s.right[j]
    regions = (
        _window_value(eng, table, c, e)
        + _window_value(eng, table, e, d)
        + _window_value(eng, table, d, f)
    )
    return regions + s.weight[i] + s.weight[j] - s.pair_weight(i, j)


def _solve(s: IntervalSet, k: int) -> Solution:
    weight, chosen = _Engine(s, k).solve()
    return Solution.recovered(chosen, s, k, weight)


def solve_k1(s: IntervalSet) -> Solution:
    """Exact max-weight 1-overlap set with solution recovery."""
    return _solve(s, 1)


def solve_k0(s: IntervalSet) -> Solution:
    """Exact max-weight independent (0-overlap) set: the same dynamic
    program with every pair option disabled."""
    return _solve(s, 0)
