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
final sweep over the whole line assembles the optimum.  One kernel,
``_sweep.sweep``, serves all of these, and it records no choices: solution
recovery walks the final sweep and the sweeps of the windows along the
optimal decomposition and reads each decision off the sweep values -- at a
position whose value differs from its right neighbour's, the first option in
the sweep's tie order whose value equals it.  All arithmetic is exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _sweep
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
    """Flat-sequence form of an IntervalSet plus the DP tables."""

    def __init__(self, s: IntervalSet):
        self.s = s
        # The compiled kernels take int64 arrays; plain Python runs fastest on lists.
        seq = (lambda xs: np.asarray(xs, dtype=np.int64)) if _sweep.HAVE_NUMBA else list
        n = len(s)
        self.n = n
        start_at = [-1] * (2 * n + 2)
        end_at = [-1] * (2 * n + 2)
        for i, iv in enumerate(s.intervals):
            start_at[iv.left] = i
            end_at[iv.right] = i

        # The set's forward-overlap CSR, partners ascending by id; pair t
        # joins owner[t] (the left one) with partner[t].
        ptr, partner = s.overlaps.ptr, s.overlaps.partner
        owner = [i for i in range(n) for _ in range(ptr[i], ptr[i + 1])]
        pw = s.pair_weights
        pair_w = [pw[(i, j) if i < j else (j, i)] for i, j in zip(owner, partner)]
        # The same pairs indexed by their second member.
        back: list[list[int]] = [[] for _ in range(n)]
        for t, j in enumerate(partner):
            back[j].append(t)
        bptr, bpair = [0], []
        for j in range(n):
            bpair.extend(back[j])
            bptr.append(len(bpair))

        self.start_at = seq(start_at)
        self.end_at = seq(end_at)
        self.left = seq([iv.left for iv in s.intervals])
        self.right = seq([iv.right for iv in s.intervals])
        self.weight = seq([iv.weight for iv in s.intervals])
        self.ptr = seq(ptr)
        self.partner = seq(partner)
        self.owner = seq(owner)
        self.pair_w = seq(pair_w)
        self.bptr = seq(bptr)
        self.bpair = seq(bpair)
        self.dms_single = seq([_NEG] * n)
        self.pair_val = seq([_NEG] * len(partner))
        self.s_buf = seq([0] * (2 * n + 2))

    def sweep(self, lo: int, hi: int, use_pairs: bool) -> int:
        return int(
            _sweep.sweep(
                lo,
                hi,
                self.start_at,
                self.right,
                self.dms_single,
                self.ptr,
                self.partner,
                self.pair_val,
                use_pairs,
                self.s_buf,
            )
        )

    def fill_tables(self, use_pairs: bool) -> None:
        _sweep.fill_tables(
            self.start_at,
            self.end_at,
            self.left,
            self.right,
            self.weight,
            self.ptr,
            self.partner,
            self.pair_w,
            self.bptr,
            self.bpair,
            self.owner,
            use_pairs,
            self.s_buf,
            self.dms_single,
            self.pair_val,
        )

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
                c, d = int(left[i]), int(right[i])
                chosen.append(i)
                if j < 0:
                    windows.append((c, d))
                    x = d + 1
                else:
                    e, f = int(left[j]), int(right[j])
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
        i = int(self.start_at[x])
        if i >= 0 and self.right[i] < hi:
            if self.dms_single[i] + S[self.right[i] + 1] == S[x]:
                return i, -1
            if use_pairs:
                for t in range(int(self.ptr[i]), int(self.ptr[i + 1])):
                    f = self.right[self.partner[t]]
                    if f < hi and self.pair_val[t] + S[f + 1] == S[x]:
                        return i, int(self.partner[t])
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
    single = {i: int(v) for i, v in enumerate(eng.dms_single)}
    pair = {}
    if include_pairs:
        for t in range(len(eng.partner)):
            pair[(int(eng.owner[t]), int(eng.partner[t]))] = int(eng.pair_val[t])
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
        a = int(eng.start_at[x])
        if a < 0 or eng.right[a] >= hi:
            continue
        if a not in table.single:
            raise ValueError(f"table lacks the dms1 value of interval {a}")
        eng.dms_single[a] = table.single[a]
        for t in range(int(eng.ptr[a]), int(eng.ptr[a + 1])):
            b = int(eng.partner[t])
            if eng.right[b] < hi:
                if (a, b) not in table.pair:
                    raise ValueError(f"table lacks the dms1 value of pair {(a, b)}")
                eng.pair_val[t] = table.pair[(a, b)]
    return eng.sweep(lo, hi, use_pairs=True)


def dms1_single(interval: Interval, s: IntervalSet, table: Dms1Table) -> int:
    """Best 1-overlap set on the window of ``interval`` forced to contain it.

    ``table`` must hold the value of every interval and forward pair nested
    in the window; a missing one raises ValueError.
    """
    s.id_of(interval)
    eng = _engine_for(s, table)
    return _window_value(eng, table, interval.left, interval.right) + interval.weight


def dms1_pair(i_interval: Interval, j_interval: Interval, s: IntervalSet, table: Dms1Table) -> int:
    """Best 1-overlap set on the pair's window forced to contain both.

    ``j_interval`` must lie in the forward overlap set of ``i_interval``, and
    ``table`` must hold the value of every interval and forward pair nested in
    the pair's left, middle and right regions; a missing one raises
    ValueError.
    """
    i = s.id_of(i_interval)
    j = s.id_of(j_interval)
    eng = _engine_for(s, table)
    pairs = range(int(eng.ptr[i]), int(eng.ptr[i + 1]))
    t = next((t for t in pairs if eng.partner[t] == j), None)
    if t is None:
        raise ValueError("second interval must overlap the first on its right side")
    c, d = i_interval.left, i_interval.right
    e, f = j_interval.left, j_interval.right
    regions = (
        _window_value(eng, table, c, e)
        + _window_value(eng, table, e, d)
        + _window_value(eng, table, d, f)
    )
    return regions + i_interval.weight + j_interval.weight - int(eng.pair_w[t])


def _solve(s: IntervalSet, k: int) -> Solution:
    weight, chosen = _Engine(s).solve(use_pairs=k == 1)
    sol = Solution.from_chosen(chosen, s, k=k)
    if sol.weight != weight:
        raise AssertionError(f"recovered solution weighs {sol.weight}, the DP value is {weight}")
    return sol


def solve_k1(s: IntervalSet) -> Solution:
    """Exact max-weight 1-overlap set with solution recovery."""
    return _solve(s, 1)


def solve_k0(s: IntervalSet) -> Solution:
    """Exact max-weight independent (0-overlap) set: the same dynamic
    program with every pair option disabled."""
    return _solve(s, 0)
