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
its window's right end, and the table fill moves one sweep's bound across
the interval right ends in ascending order (the schedule of Valiente's O(l)
maximum-weight independent set algorithm for circle graphs, ISAAC 2003):
each region is a lookup into the sweep of one bound, and every entry a
sweep consults ends further left and is already final.  At the right end p
of interval q the bound moves on to p2, the next right end (or 2n + 1), and
the sweep with bound p2 serves every region whose right bound lies in
[p, p2):

* ``S_p2`` equals ``S_p`` on (l_q, p]: the two differ only in the options
  ending at p, q's single and the pairs q closes as a partner, and every one
  of them starts at or before l_q.  Past p both are 0, as no option ends in
  (p, p2).
* ``S_p2`` equals ``S_e`` on x <= e for every start e in (p, p2): no option
  ends in (p, p2), so both sweeps take the same options.

So the sweep buffer is never cleared between bounds.  The fill keeps
``cov``, the lowest rank whose entry holds ``S`` of the current bound, and
every entry above it does too: moving the bound from p to p2 changes no
value past l_q (the first point), and a start past p reads 0, which its
entry still holds, as no sweep has written it yet.  At q the fill raises
``cov`` to the first start after l_q and resumes the sweep from ``cov``
down to there only when ``cov`` lies above it; q's single and the regions
ending at p read their values there.  Those options are then final and join
their rows, and the same sweep continues down to the smallest left end among
the owners of pairs whose partner starts in (p, p2), which read their left
regions off it, and ``cov`` drops to there.  A start is thus swept again
only after an interval starting at or after it has ended.  No option ends
before the first right end, so a left region ending at a start before it
reads 0.  The last bound is 2n + 1, so the final sweep over the whole line,
which assembles the optimum, resumes from the fill's ``cov``.

Each interval owns one row of options, the choices a sweep can make at its
start point: the interval alone first, then at k = 1 the interval with each
of its forward partners, ascending by partner id; at k = 0 the row holds the
single only.  Every option carries its own value, a single's or a pair's, so
one loop serves both k; it ends where its last interval ends.

A sweep walks the interval starts inside a window (lo, hi) from right to
left, by their rank in ``by_left``; at the start of a window-contained
interval it maximizes over skipping the interval and taking one option of
its row that ends inside the window.  Its value at position x, ``S_hi[x]``,
is its value at the first start at or after x, 0 past the window's last
start; it depends on the right end ``hi`` only, never on ``lo``, and it is
non-increasing in x.  So an option o' of a row, ending at f', never raises a
sweep value when another option o of the row ends at f < f' and is worth at
least as much: o is inside the window whenever o' is, and
``val[o] + S[f + 1] >= val[o'] + S[f' + 1]``.  The sweep therefore walks
only each row's undominated options, kept in ascending end order, and stops
at the first one that leaves the window.  Options become final in ascending
end order, so the table fill appends an option to that list when its value
is final and beats the last one kept; nothing is sorted, and every sweep
value is the one the whole row would give.

One method, ``_Engine.sweep``, is the only copy of that recurrence, and it
records no choices: solution recovery walks the final sweep and the sweeps of
the windows along the optimal decomposition and reads each decision off the
sweep values -- at a start whose value differs from the next start's, the
first option of the whole row, in row order, whose value equals it, which is
the option a sweep over the whole row with a strict ``>`` keeps.  A chosen
single [c, d] with no forward partner is not swept again: every interval
starting inside it is nested in it, so every option starting inside it
ends before d, and every chain of options in the enclosing window (lo, hi)
splits at d.  So the enclosing sweep's values at the starts in (c, d] are
``S_d``'s plus the constant ``S_hi[d + 1]``, and no option there ends in
[d, hi); both tests recovery makes there, a start's value against the next
start's and an option's value plus the value after its end against the
start's, give the same answers on the enclosing buffer, and the walk just
goes on to the next start, inside the single.  Only the windows of chosen
singles with a forward partner and the three regions of every chosen pair
are swept afresh; on m nested intervals, none is.  All arithmetic is exact
integer arithmetic on plain lists.
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
    (``mate[o]`` = the partner), ascending by id, each row's partners one
    slice of the set's forward rows.  ``val[o]`` starts as the
    option's own weight, its intervals' weights less its pair weight, gains
    each region's sweep value during the fill and ends as its dms1 value.
    ``live[i]`` lists (end, value) of row i's undominated final options,
    strictly ascending in both: each beats every option of the row that
    ends before it.
    """

    def __init__(self, s: IntervalSet, k: int):
        self.s = s
        self.n = n = len(s)
        weight = s.weight
        # back[j]: (option, row owner) of every pair whose partner is j.
        self.back = back = [[] for _ in range(n)]
        if not k:
            self.optr, self.mate, self.val = list(range(n + 1)), [-1] * n, list(weight)
        else:
            ptr, partner, pw = s.ptr, s.partner, s.pair_weights
            uniform = isinstance(pw, int)
            self.optr = optr = [0]
            self.mate, self.val = mate, val = [], []
            for i in range(n):
                row = partner[ptr[i] : ptr[i + 1]]
                o = len(mate)
                mate.append(-1)
                mate += row
                for j in row:
                    o += 1
                    back[j].append((o, i))
                w = weight[i]
                val.append(w)
                if uniform:
                    w -= pw
                    val += [w + weight[j] for j in row]
                else:
                    val += [w + weight[j] - s.pair_weight(i, j) for j in row]
                optr.append(len(mate))
        self.live = [[] for _ in range(n)]
        self.s_buf = [0] * (n + 1)

    def sweep(self, lo: int, hi: int, top: int | None = None) -> int:
        """Evaluate one sweep over the open window (lo, hi); returns S[lo + 1].

        ``s_buf[r]`` is the sweep value at the start of rank r in
        ``by_left``, so ``S[x]`` is ``s_buf[next_start[x]]``.  Fills
        ``s_buf`` for the ranks ``next_start[lo + 1]`` up to
        ``next_start[hi]``, whose entry is the 0 past the window's last
        start; entries outside that run are stale leftovers from earlier
        calls and are never read.  Given ``top``, the sweep resumes one that
        has filled the ranks from ``top`` up and continues down to lo.

        ``S`` at a start is the best of copying the next start's value and
        taking one option of the interval starting there that ends inside
        the window.  Only the row's undominated options, ``live[a]`` in
        ascending end order, are tried, and the walk stops at the first one
        that ends at or after ``hi``; the value is the same as over the
        whole row.
        """
        next_start, by_left, live, s_buf = self.s.next_start, self.s.by_left, self.live, self.s_buf
        if top is None:
            top = next_start[hi]
            s_buf[top] = 0
        best = s_buf[top]
        for r in range(top - 1, next_start[lo + 1] - 1, -1):
            for f, v in live[by_left[r]]:
                if f >= hi:
                    break
                v += s_buf[next_start[f + 1]]
                if v > best:
                    best = v
            s_buf[r] = best
        return best

    def fill_tables(self) -> int:
        """Fill ``val`` and ``live`` in place, moving one sweep's bound
        across the right ends; returns ``cov``, the lowest rank whose
        ``s_buf`` entry holds the sweep of the whole line.

        A pair option of interval [c, d] with its partner [e, f] has
        c < e < d < f.  For the interval q = [l_q, p], by ascending right
        end p, with p2 the next right end (or 2n + 1), the sweep with bound
        p2 covers the ranks down to l_q + 1, and the entries read their
        regions off it (see the module docstring for why that is ``S`` of
        the region's own right end):

        * the ranks from ``cov`` up hold ``S_p``, which equals ``S_p2``
          past l_q, as no option ending at p starts there: ``cov`` rises to
          the first start past l_q, and only the ranks between there and
          the old ``cov`` are swept again;
        * q's single adds ``S[l_q + 1]``, q's pairs their middle regions
          ``S[e + 1]`` and the pairs with partner q their right regions
          ``S[d + 1]``; these options are final now and join their rows'
          ``live`` if they beat the last one kept there;
        * the same sweep then continues down to the smallest left end among
          the owners of the pairs whose partner starts in (p, p2), those
          pairs add their left regions ``S[c + 1]``, and ``cov`` drops to
          that end.

        A sweep at p reads only final options, all ending at or before p; a
        pair's ``val`` holds a partial sum until its f, before it can join.
        """
        id_at, left, right = self.s.id_at, self.s.left, self.s.right
        next_start = self.s.next_start
        optr, mate, back, live = self.optr, self.mate, self.back, self.live
        s_buf, val, sweep = self.s_buf, self.val, self.sweep
        # p2 walks the positions; pending gathers the pairs whose partner
        # starts after p, the right end of q, and a right end or 2n + 1 at
        # p2 moves the bound on from p to p2 (``id_at`` holds -1 at 2n + 1).
        # Pairs gathered before the first right end keep a left region of 0.
        q, pending, cov = -1, [], 0
        for p2 in range(1, len(id_at)):
            j = id_at[p2]
            if j >= 0 and left[j] == p2:
                pending += back[j]
                continue
            if q >= 0:
                lq, p = left[q], right[q]
                top = next_start[lq + 1]
                if cov > top:
                    sweep(lq, p2, cov)
                cov = top
                o = optr[q]
                val[o] += s_buf[top]
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
                        sweep(lo, p2, top)
                        cov = next_start[lo + 1]
                    for o, a in pending:
                        val[o] += s_buf[next_start[left[a] + 1]]
            q, pending = j, []
        return cov

    def solve(self) -> tuple[int, list[int]]:
        """The optimum and an optimal set: the final sweep over the whole
        line resumes from the rank the fill leaves valid."""
        best = self.sweep(0, 2 * self.n + 1, self.fill_tables())
        return best, self._backtrack()

    def _backtrack(self) -> list[int]:
        """Ids of an optimal set, read off the sweeps of the windows along
        the optimal decomposition.  Expects ``s_buf`` to hold the sweep of
        the whole line, as ``solve`` leaves it.  A chosen single with no
        forward partner is walked in place, inside the enclosing walk; only
        the other windows are swept afresh (see the module docstring)."""
        S, left, right, next_start = self.s_buf, self.s.left, self.s.right, self.s.next_start
        ptr = self.s.ptr
        chosen: list[int] = []
        windows: list[tuple[int, int]] = []
        lo, hi = 0, 2 * self.n + 1
        while True:
            r, top = next_start[lo + 1], next_start[hi]
            while r < top:
                if S[r] == S[r + 1]:
                    r += 1
                    continue
                i, j = self._option_at(r, hi)
                c, d = left[i], right[i]
                chosen.append(i)
                if j < 0:
                    if ptr[i] == ptr[i + 1]:
                        r += 1
                        continue
                    windows.append((c, d))
                    r = next_start[d + 1]
                else:
                    e, f = left[j], right[j]
                    chosen.append(j)
                    windows.append((c, e))
                    windows.append((e, d))
                    windows.append((d, f))
                    r = next_start[f + 1]
            if not windows:
                return chosen
            lo, hi = windows.pop()
            self.sweep(lo, hi)

    def _option_at(self, r: int, hi: int) -> tuple[int, int]:
        """The option the sweep of a window ending at ``hi`` took at the
        start of rank ``r`` when it did not copy the next start's value, as
        ``(i, mate)``: ``(i, -1)`` for the single i, ``(i, j)`` for the pair
        of i and its partner j.  The whole row is scanned, dominated options
        too, in row order, and the first option whose value equals
        ``S[r]`` is taken: the choice a sweep over the whole row with a
        strict ``>`` makes."""
        S, right, mate, next_start = self.s_buf, self.s.right, self.mate, self.s.next_start
        i = self.s.by_left[r]
        for o in range(self.optr[i], self.optr[i + 1]):
            j = mate[o]
            f = right[i if j < 0 else j]
            if f < hi and self.val[o] + S[next_start[f + 1]] == S[r]:
                return i, j
        x = self.s.left[i]
        raise AssertionError(f"no option at position {x} reaches the sweep value {S[r]}")


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
    list, so no row keeps what an earlier call loaded.  Partners are read
    off the set, so a k = 0 engine serves.
    """
    by_left, next_start, right = eng.s.by_left, eng.s.next_start, eng.s.right
    for a in by_left[next_start[lo + 1] : next_start[hi]]:
        row = eng.live[a] = []
        if right[a] >= hi:
            continue
        if a not in table.single:
            raise ValueError(f"table lacks the dms1 value of interval {a}")
        row.append((right[a], table.single[a]))
        for b in sorted(eng.s.forward(a), key=right.__getitem__):
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
    return _window_value(_Engine(s, 0), table, s.left[i], s.right[i]) + s.weight[i]


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
    eng = _Engine(s, 0)
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
