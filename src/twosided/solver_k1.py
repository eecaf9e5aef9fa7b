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

A sweep walks the integer positions of a window (lo, hi) from right to left;
at the start point of a window-contained interval it maximizes over skipping
the interval, taking it alone, or taking it together with one partner from
its forward overlap set.  Its value at position x, ``S_hi[x]``, depends on
the right end ``hi`` only, never on ``lo``.  One method, ``_Engine.sweep``,
is the only copy of that recurrence, and it records no choices: solution
recovery walks the final sweep and the sweeps of the windows along the
optimal decomposition and reads each decision off the sweep values -- at a
position whose value differs from its right neighbour's, the first option in
the sweep's tie order whose value equals it.  All arithmetic is exact
integer arithmetic on plain lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import Interval, IntervalSet, Solution

__all__ = [
    "Dms1Table",
    "compute_dms1",
    "dms1_single",
    "dms1_pair",
    "solve_k1",
    "solve_k0",
]

_NEG = -(1 << 60)  # sentinel for "not yet computed"


class _Engine:
    """Flat-list form of an IntervalSet plus the DP tables."""

    def __init__(self, s: IntervalSet):
        self.s = s
        self.n = n = len(s)
        self.start_at = [-1] * (2 * n + 2)
        self.end_at = [-1] * (2 * n + 2)
        for i, iv in enumerate(s.intervals):
            self.start_at[iv.left] = i
            self.end_at[iv.right] = i
        self.left = [iv.left for iv in s.intervals]
        self.right = [iv.right for iv in s.intervals]
        self.weight = [iv.weight for iv in s.intervals]

        # The set's forward-overlap CSR, partners ascending by id; pair t
        # joins owner[t] (the left one) with partner[t].
        self.ptr = ptr = s.overlaps.ptr
        self.partner = partner = s.overlaps.partner
        self.owner = owner = [i for i in range(n) for _ in range(ptr[i], ptr[i + 1])]
        pw = s.pair_weights
        self.pair_w = [pw[(i, j) if i < j else (j, i)] for i, j in zip(owner, partner)]
        # The same pairs indexed by their second member.
        back: list[list[int]] = [[] for _ in range(n)]
        for t, j in enumerate(partner):
            back[j].append(t)
        self.bptr, self.bpair = [0], []
        for j in range(n):
            self.bpair.extend(back[j])
            self.bptr.append(len(self.bpair))

        self.dms_single = [_NEG] * n
        self.pair_val = [_NEG] * len(partner)
        self.s_buf = [0] * (2 * n + 2)

    def sweep(self, lo: int, hi: int, use_pairs: bool) -> int:
        """Evaluate one sweep over the open window (lo, hi); returns S[lo + 1].

        ``start_at[x]`` is the interval starting at position x (or -1).
        Fills ``s_buf[lo + 1 : hi + 1]``; values for positions outside the
        window are stale leftovers from earlier calls and are never read.
        ``S[x]`` is the best of three options: copying ``S[x + 1]``, taking
        the single starting at x, and taking it with one of its forward
        partners.
        """
        start_at, right, dms_single = self.start_at, self.right, self.dms_single
        ptr, partner, pair_val, s_buf = self.ptr, self.partner, self.pair_val, self.s_buf
        s_buf[hi] = 0
        for x in range(hi - 1, lo, -1):
            best = s_buf[x + 1]
            a = start_at[x]
            if a >= 0 and right[a] < hi:
                v = dms_single[a] + s_buf[right[a] + 1]
                if v > best:
                    best = v
                if use_pairs:
                    for t in range(ptr[a], ptr[a + 1]):
                        f = right[partner[t]]
                        if f < hi:
                            v = pair_val[t] + s_buf[f + 1]
                            if v > best:
                                best = v
            s_buf[x] = best
        return s_buf[lo + 1]

    def fill_tables(self, use_pairs: bool) -> None:
        """Fill ``dms_single`` (and ``pair_val`` when ``use_pairs``) in place.

        ``end_at[x]`` is the interval ending at position x (or -1).  Forward
        pair t joins ``owner[t]`` = [c, d] with ``partner[t]`` = [e, f],
        c < e < d < f; ``bpair[bptr[j]:bptr[j + 1]]`` lists the pairs whose
        second member is j.

        For each right end ``hi``, ascending, one sweep runs from ``hi`` down
        to the smallest left end needed there, and every entry reads its
        regions off it:

        * a single i with r_i = hi is ``S_hi[l_i + 1] + w_i``;
        * a pair stores ``S_e[c + 1]`` at hi = e and adds ``S_d[e + 1]`` at
          hi = d, then finishes with ``S_f[d + 1]`` and the weights at hi = f.

        A sweep at hi reads only entries that end before hi, which are final;
        ``pair_val[t]`` holds a partial sum only while hi <= f, when no sweep
        reads it.
        """
        start_at, end_at, left, right = self.start_at, self.end_at, self.left, self.right
        weight, ptr, partner, pair_w = self.weight, self.ptr, self.partner, self.pair_w
        bptr, bpair, owner, sweep = self.bptr, self.bpair, self.owner, self.sweep
        s_buf, dms_single, pair_val = self.s_buf, self.dms_single, self.pair_val
        for hi in range(1, len(start_at) - 1):
            i = end_at[hi]
            j = start_at[hi]
            if i >= 0:
                lo = left[i]
            elif use_pairs and bptr[j] < bptr[j + 1]:
                lo = hi
                for u in range(bptr[j], bptr[j + 1]):
                    c = left[owner[bpair[u]]]
                    if c < lo:
                        lo = c
            else:
                continue
            inner = sweep(lo, hi, use_pairs)
            if i < 0:
                for u in range(bptr[j], bptr[j + 1]):
                    t = bpair[u]
                    pair_val[t] = s_buf[left[owner[t]] + 1]
                continue
            dms_single[i] = inner + weight[i]
            if use_pairs:
                for t in range(ptr[i], ptr[i + 1]):
                    pair_val[t] += s_buf[left[partner[t]] + 1]
                for u in range(bptr[i], bptr[i + 1]):
                    t = bpair[u]
                    a = owner[t]
                    pair_val[t] += s_buf[right[a] + 1] + weight[a] + weight[i] - pair_w[t]

    def solve(self, use_pairs: bool) -> tuple[int, list[int]]:
        self.fill_tables(use_pairs)
        best = self.sweep(0, 2 * self.n + 1, use_pairs)
        chosen = self._backtrack(use_pairs)
        return best, chosen

    def _backtrack(self, use_pairs: bool) -> list[int]:
        """Ids of an optimal set, read off the sweeps of the windows along
        the optimal decomposition.  Expects ``s_buf`` to hold the sweep of
        the whole line, as ``solve`` leaves it."""
        S, left, right = self.s_buf, self.left, self.right
        chosen: list[int] = []
        windows: list[tuple[int, int]] = []
        lo, hi = 0, 2 * self.n + 1
        while True:
            x = lo + 1
            while x < hi:
                if S[x] == S[x + 1]:
                    x += 1
                    continue
                i, j = self._option_at(x, hi, use_pairs)
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
            self.sweep(lo, hi, use_pairs)

    def _option_at(self, x: int, hi: int, use_pairs: bool) -> tuple[int, int]:
        """The option the sweep of a window ending at ``hi`` took at ``x``
        when it did not copy ``S[x + 1]``: ``(i, -1)`` for the single i,
        ``(i, j)`` for the pair of i and its partner j.  Options are tried in
        the sweep's tie order -- single, then pairs by ascending partner --
        and the first whose value equals ``S[x]`` is the one the sweep's
        strict ``>`` kept."""
        S = self.s_buf
        i = self.start_at[x]
        if i >= 0 and self.right[i] < hi:
            if self.dms_single[i] + S[self.right[i] + 1] == S[x]:
                return i, -1
            if use_pairs:
                for t in range(self.ptr[i], self.ptr[i + 1]):
                    f = self.right[self.partner[t]]
                    if f < hi and self.pair_val[t] + S[f + 1] == S[x]:
                        return i, self.partner[t]
        raise AssertionError(f"no option at position {x} reaches the sweep value {S[x]}")


@dataclass(frozen=True)
class Dms1Table:
    """Finished subproblem values: ``single[i]`` per interval id, ``pair[(i,
    j)]`` per forward overlapping pair.  ``engine`` is the engine that
    filled them, which window lookups on the same interval set reuse."""

    single: dict[int, int]
    pair: dict[tuple[int, int], int]
    engine: _Engine | None = field(default=None, repr=False, compare=False)


def compute_dms1(s: IntervalSet, include_pairs: bool = True) -> Dms1Table:
    """Fill both value families bottom-up for the whole instance."""
    eng = _Engine(s)
    eng.fill_tables(include_pairs)
    single = dict(enumerate(eng.dms_single))
    pair = dict(zip(zip(eng.owner, eng.partner), eng.pair_val)) if include_pairs else {}
    return Dms1Table(single, pair, eng)


def _engine_for(s: IntervalSet, table: Dms1Table) -> _Engine:
    """The table's own engine when it was filled on ``s``, else a new one."""
    eng = table.engine
    return eng if eng is not None and eng.s is s else _Engine(s)


def _window_value(eng: _Engine, table: Dms1Table, lo: int, hi: int) -> int:
    """Sweep value of the open window (lo, hi) over ``table``.

    Loads exactly the entries that sweep reads -- every interval inside the
    window and every forward pair inside it -- and raises ValueError when
    ``table`` lacks one of them.
    """
    for x in range(lo + 1, hi):
        a = eng.start_at[x]
        if a < 0 or eng.right[a] >= hi:
            continue
        if a not in table.single:
            raise ValueError(f"table lacks the dms1 value of interval {a}")
        eng.dms_single[a] = table.single[a]
        for t in range(eng.ptr[a], eng.ptr[a + 1]):
            b = eng.partner[t]
            if eng.right[b] < hi:
                if (a, b) not in table.pair:
                    raise ValueError(f"table lacks the dms1 value of pair {(a, b)}")
                eng.pair_val[t] = table.pair[(a, b)]
    return eng.sweep(lo, hi, use_pairs=True)


def dms1_single(interval: Interval | int, s: IntervalSet, table: Dms1Table) -> int:
    """Best 1-overlap set on the window of ``interval`` forced to contain it.

    ``table`` must hold the value of every interval and forward pair nested
    in the window; a missing one raises ValueError.
    """
    iv = s.intervals[s.id_of(interval)]
    eng = _engine_for(s, table)
    return _window_value(eng, table, iv.left, iv.right) + iv.weight


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
    eng = _engine_for(s, table)
    pairs = range(eng.ptr[i], eng.ptr[i + 1])
    t = next((t for t in pairs if eng.partner[t] == j), None)
    if t is None:
        raise ValueError("second interval must overlap the first on its right side")
    iv, jv = s.intervals[i], s.intervals[j]
    c, d = iv.left, iv.right
    e, f = jv.left, jv.right
    regions = (
        _window_value(eng, table, c, e)
        + _window_value(eng, table, e, d)
        + _window_value(eng, table, d, f)
    )
    return regions + iv.weight + jv.weight - eng.pair_w[t]


def _solve(s: IntervalSet, k: int) -> Solution:
    weight, chosen = _Engine(s).solve(use_pairs=k == 1)
    return Solution.recovered(chosen, s, k, weight)


def solve_k1(s: IntervalSet) -> Solution:
    """Exact max-weight 1-overlap set with solution recovery."""
    return _solve(s, 1)


def solve_k0(s: IntervalSet) -> Solution:
    """Exact max-weight independent (0-overlap) set: the same dynamic
    program with every pair option disabled."""
    return _solve(s, 0)
