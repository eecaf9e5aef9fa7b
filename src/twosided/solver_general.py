"""Exact solver for max-weight k-overlap sets, any fixed k >= 0.

For k >= 2 a solution may contain arbitrarily long connected runs, so the
instance can no longer be split into independently solvable windows along the
chosen intervals.  Instead the dynamic program threads a *capacity vector*
through the sweep: one state per interval.  A state is undecided (the
interval has not been looked at), unlimited (the interval was rejected), or a
committed interval's residual budget, a pair (left, right) in {0..k} that
records how many further overlaps each side of the interval may still accept.

Committing an undecided interval I fixes its whole neighborhood at once: a
subset J of its overlapping neighbors (at most k of them, and necessarily
including every neighbor that is already committed) joins the solution and
every other neighbor is rejected.  The joiners are I itself and the fresh
(undecided) members of J.  For each choice of J one pass over each joiner's
neighbors settles the whole step:

* a fresh joiner's budget is k minus the number of its neighbors that are
  joiners or committed, split in all possible ways between its two sides;
  the left share is consumable inside the window being solved, the right
  share by the sweep continuation, which is what makes the two regions
  independent;
* each committed neighbor of a joiner pays one unit of the stabbed side's
  budget and is charged its pair weight;
* each pair of overlapping joiners is charged once, by the smaller id.

The step is legal only if no budget goes negative.  Its weight adds the
weights of the fresh joiners and subtracts the charged pairs: every
overlapping pair that becomes fully selected at the step, charged exactly
once, at the moment its later member joins.

Values dms^k(I, lambda) -- the best completion of I's window under basic
capacities lambda -- are computed member by member in left-endpoint order.
The value from member index idx on depends on lambda only through the states
that its remaining members R = members[idx:] can read or write, so the memo
key is (owner, idx, states of R and of N(R), its overlapping neighbors), in
ascending id order, built once per (owner, idx).

A window is entered only with all of its owner's neighbors decided:
committing j decides N(j), and ``dms`` requires it of the caller's vector.
So every undecided interval of N(R) is in R: it crosses a member but not the
owner, so it is a member itself, and not one left of the left endpoint of
member idx, as each of those was decided, or is nested in a committed member
and ends before any interval of R starts.

One decision step for a member j therefore reads and writes nothing else:
j's own state, the forced or fresh state of each neighbor in N(j) and the
budgets of the committed ones, and, for each fresh joiner x, which lies in
R, the committed neighbors of x (x's budget, the stab counts and the pair
charges).  Later steps stay inside the same positions.  j's own window takes
the successor state as it is: it reads and writes only positions nested in j
or in N(j), and on those the successor state equals its restriction to
N(j), because no interval nested in j is decided yet (an earlier member
crossing one would cross j).  The value is therefore a function of the keyed
states, and the key is exact for every vector that meets the invariant.

The memo is bounded: a solve that would store more than ``MAX_MEMO_STATES``
values raises ``SolverBudgetError``.  Solution recovery replays the
maximizing decisions.  The top-level call wraps the instance in a
zero-weight dummy interval covering everything.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations, product
from types import MappingProxyType
from typing import Iterator, Mapping

from .model import Interval, IntervalSet, Solution, solution_weight
from .solver_k1 import solve_k0, solve_k1

__all__ = [
    "MAX_MEMO_STATES",
    "SolverBudgetError",
    "CapacityVector",
    "LegalSuccessor",
    "GeneralSolver",
    "is_valid_for",
    "legal_successors",
    "transition_weight",
    "dms_k",
    "solve_k",
]

UNDECIDED = None  # the undecided capacity (no decision made about the interval)
UNLIMITED = math.inf  # the unlimited capacity (interval rejected); tested with ``is``

# Largest number of memoized values one solve may store.  A stored state
# was measured at 390-460 bytes of resident memory (CPython 3.11, 30 to 52
# intervals), so a solve that reaches the limit holds about half a gigabyte
# of memo.
MAX_MEMO_STATES = 1_000_000


class SolverBudgetError(RuntimeError):
    """Raised when a general-k solve would exceed ``MAX_MEMO_STATES``."""


# ---------------------------------------------------------------------------
# Public capacity-vector representation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapacityVector:
    """The capacity state of every interval of ``s``, in the solver's own
    encoding: ``states`` maps an interval id to UNLIMITED (rejected) or to
    a committed interval's (left, right) budget; an absent id is undecided.
    """

    s: IntervalSet
    states: Mapping[int, object]

    @classmethod
    def initial(cls, s: IntervalSet) -> "CapacityVector":
        """The solve-entry vector: every interval undecided."""
        return cls(s, MappingProxyType({}))

    def __hash__(self) -> int:
        return hash(frozenset(self.states.items()))

    def state_of(self, interval: Interval | int):
        """State for one interval: UNDECIDED, UNLIMITED, or (left, right)."""
        return self.states.get(self.s.id_of(interval))

    def replace(self, interval: Interval | int, state) -> "CapacityVector":
        """A copy with one interval's state set; a state equal to UNLIMITED
        is stored as UNLIMITED itself."""
        states = dict(self.states)
        i = self.s.id_of(interval)
        if state is UNDECIDED:
            states.pop(i, None)
        elif state == UNLIMITED:
            states[i] = UNLIMITED
        else:
            left, right = state
            if not (isinstance(left, int) and isinstance(right, int)):
                raise ValueError(f"a budget is a pair of ints, got {state!r}")
            states[i] = (left, right)
        return CapacityVector(self.s, MappingProxyType(states))


@dataclass(frozen=True)
class LegalSuccessor:
    """One way of committing an interval: the updated vector, the chosen
    neighbor set, and the weight contributed by the step (fresh joiner
    weights minus newly selected pair weights)."""

    vector: CapacityVector
    chosen_neighbors: frozenset[int]
    weight_delta: int


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class GeneralSolver:
    """Capacity-vector dynamic program over one instance and one k.

    A solver owns its memo tables; distinct solves do not share state.  The
    dummy interval gets id n (= len(s)).
    """

    def __init__(self, s: IntervalSet, k: int):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.s = s
        self.k = k
        n = len(s)
        self.n = n
        self.dummy = n
        self.left = [iv.left for iv in s.intervals] + [0]
        self.right = [iv.right for iv in s.intervals] + [2 * n + 1]
        self.weight = [iv.weight for iv in s.intervals] + [0]
        self.nb: list[tuple[int, ...]] = [s.neighbors[i] for i in range(n)] + [()]

        # Strictly nested members per owner, sorted by left endpoint.
        ov = s.overlaps
        self.members = [ov.nested(i) for i in range(n)] + [list(ov.by_left)]
        self.member_lefts = [[self.left[j] for j in lst] for lst in self.members]

        self.f_memo: dict = {}
        # (owner, idx) -> memo key positions, see _key_positions.
        self.key_positions: dict = {}

    # -- state helpers ------------------------------------------------------

    def _key_positions(self, owner: int, idx: int) -> tuple[int, ...]:
        """The positions keying the window value of (owner, idx): the ids
        of R and N(R) in ascending order, with R = members[idx:]."""
        rest = self.members[owner][idx:]
        return tuple(sorted(set(rest).union(*(self.nb[r] for r in rest))))

    def _successors(
        self, lam: Mapping[int, object], j: int
    ) -> Iterator[tuple[dict, int, tuple[int, ...]]]:
        """All legal ways of committing the undecided interval ``j`` under
        ``lam``.

        Yields (updated state dict, weight delta, chosen neighbor ids) in
        deterministic order: chosen sets by size then lexicographic ids,
        budget splits ascending.  The delta adds the fresh joiners' weights
        (the window value adds j's own) and subtracts the weight of every
        pair that becomes fully selected.
        """
        k, nb, left, pw = self.k, self.nb, self.left, self.s.pair_weights
        forced: list[int] = []
        fresh: list[int] = []
        for m in nb[j]:
            st = lam.get(m)
            if st is None:
                fresh.append(m)
            elif st is not UNLIMITED:
                forced.append(m)
        if len(forced) > k:
            return
        for size in range(min(k - len(forced), len(fresh)) + 1):
            for extra in combinations(fresh, size):
                state = {**lam, j: (0, 0)}
                for m in fresh:
                    if m not in extra:
                        state[m] = UNLIMITED
                delta = sum(self.weight[x] for x in extra)
                budgets = []
                legal = True
                # One pass over each joiner's neighbors: count the ones that
                # are committed or join with it, stab and charge every
                # committed one, and charge each joiner pair at its smaller id.
                for x in (j, *extra):
                    used = 0
                    for m in nb[x]:
                        st = lam.get(m)
                        if st is None:
                            if m == j or m in extra:
                                used += 1
                                if x < m:
                                    delta -= pw[x, m]
                        elif st is not UNLIMITED:
                            used += 1
                            delta -= pw[(x, m) if x < m else (m, x)]
                            ml, mr = state[m]
                            if left[x] < left[m]:
                                ml -= 1
                            else:
                                mr -= 1
                            state[m] = (ml, mr)
                            legal = legal and ml >= 0 and mr >= 0
                    if x != j:
                        budgets.append(k - used)
                if not legal or min(budgets, default=0) < 0:
                    continue
                chosen = (*forced, *extra)
                for alphas in product(*(range(b + 1) for b in budgets)):
                    lam2 = dict(state) if extra else state  # one split: no copy
                    for x, b, a in zip(extra, budgets, alphas):
                        lam2[x] = (a, b - a)
                    yield lam2, delta, chosen

    # -- value recursion ----------------------------------------------------

    def _window_value(self, owner: int, idx: int, lam: Mapping[int, object]) -> int:
        """Best completion of owner's window from member index ``idx`` on."""
        members = self.members[owner]
        if idx >= len(members):
            return 0
        where = (owner, idx)
        ids = self.key_positions.get(where)
        if ids is None:
            ids = self.key_positions[where] = self._key_positions(owner, idx)
        key = (owner, idx, tuple(map(lam.get, ids)))
        hit = self.f_memo.get(key)
        if hit is not None:
            return hit
        value = self._decide(owner, idx, lam)[0]
        if len(self.f_memo) >= MAX_MEMO_STATES:
            raise SolverBudgetError(
                f"the general-k solve (k={self.k}, {self.n} intervals) exceeds "
                f"the limit of {MAX_MEMO_STATES} memo states"
            )
        self.f_memo[key] = value
        return value

    def _decide(
        self, owner: int, idx: int, lam: Mapping[int, object]
    ) -> tuple[int, tuple[int, Mapping[int, object], tuple[int, ...] | None]]:
        """Options for member ``idx`` of owner's window: skip it if it is
        rejected, else reject it or commit it through one of its successors.
        Returns the best value and the first option reaching it, as ``(next
        index, next state, chosen)``; ``chosen`` is None unless committed."""
        j = self.members[owner][idx]
        st = lam.get(j)
        assert st is None or st is UNLIMITED, "window member unexpectedly committed"
        if st is UNLIMITED:
            return self._window_value(owner, idx + 1, lam), (idx + 1, lam, None)
        lam_rej = dict(lam)
        lam_rej[j] = UNLIMITED
        best = self._window_value(owner, idx + 1, lam_rej)
        action = (idx + 1, lam_rej, None)
        nidx = bisect_right(self.member_lefts[owner], self.right[j], lo=idx)
        for lam2, delta, chosen in self._successors(lam, j):
            v = (
                delta
                + self.weight[j]
                + self._window_value(j, 0, lam2)
                + self._window_value(owner, nidx, lam2)
            )
            if v > best:
                best = v
                action = (nidx, lam2, chosen)
        return best, action

    # -- public entry points ------------------------------------------------

    @contextmanager
    def _deep_recursion(self) -> Iterator[None]:
        """Raise the recursion limit to what a window of every interval
        needs (a few frames per member), and restore it afterwards."""
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 4 * self.n + 1000))
        try:
            yield
        finally:
            sys.setrecursionlimit(old_limit)

    def dms(self, interval_id: int, lam: Mapping[int, object]) -> int:
        """dms^k of one interval under basic capacities ``lam`` (the
        ``CapacityVector.states`` encoding, read on the interval's
        overlapping neighbors only): its weight plus the best selection
        among its nested set.  Every neighbor must be decided, as committing
        the interval decides them; the memo relies on it, so an undecided
        neighbor raises ValueError."""
        nb = self.nb[interval_id]
        if any(lam.get(m) is UNDECIDED for m in nb):
            raise ValueError("the capacity vector leaves a neighbor of the interval undecided")
        basic = {m: lam[m] for m in nb}
        with self._deep_recursion():
            value = self._window_value(interval_id, 0, basic)
        return self.weight[interval_id] + value

    def solve(self) -> Solution:
        chosen: list[int] = []
        with self._deep_recursion():
            value = self._window_value(self.dummy, 0, {})
            self._walk(self.dummy, 0, {}, chosen)
        return Solution.recovered(chosen, self.s, self.k, value)

    def _walk(self, owner: int, idx: int, lam: dict, out: list[int]) -> None:
        """Replay the maximizing decisions, collecting chosen intervals."""
        members = self.members[owner]
        while idx < len(members):
            j = members[idx]
            _best, (nidx, lam2, chosen) = self._decide(owner, idx, lam)
            if chosen is not None:
                out.append(j)
                out.extend(x for x in chosen if lam.get(x) is None)
                self._walk(j, 0, lam2, out)
            lam = lam2
            idx = nidx


# ---------------------------------------------------------------------------
# Public operations on capacity vectors
# ---------------------------------------------------------------------------


def _check_set(lam: CapacityVector, s: IntervalSet) -> None:
    if lam.s is not s:
        raise ValueError("the capacity vector belongs to another interval set")


def is_valid_for(lam: CapacityVector, interval: Interval | int, s: IntervalSet, k: int) -> bool:
    """A vector is valid for an interval when the interval carries a numeric
    budget and every overlapping neighbor is decided, as committing the
    interval decides them: rejected, or committed (numeric) with a budget in
    {0..k} on both sides, at most k of them committed.  The interval's own
    budget is never read (``dms`` starts from its neighbors' states only)."""
    _check_set(lam, s)
    i = s.id_of(interval)
    get = lam.states.get
    around = [get(m) for m in s.neighbors[i]]
    if get(i) in (UNDECIDED, UNLIMITED) or UNDECIDED in around:
        return False
    committed = [st for st in around if st is not UNLIMITED]
    return len(committed) <= k and all(0 <= side <= k for st in committed for side in st)


def legal_successors(
    lam: CapacityVector, interval: Interval | int, s: IntervalSet, k: int
) -> list[LegalSuccessor]:
    """All legal commit steps for ``interval`` under ``lam``.

    The interval must be undecided, not rejected or committed already.  A
    step is legal only if its vector is still k-overlap: every committed
    interval overlaps at most k committed intervals (a caller's budgets may
    allow more).  Enumeration order is deterministic: neighbor subsets by
    size then lexicographic ids, budget splits ascending.
    """
    _check_set(lam, s)
    i = s.id_of(interval)
    st = lam.states.get(i)
    if st is not UNDECIDED:
        state = "a rejected" if st is UNLIMITED else "an already committed"
        raise ValueError(f"cannot commit {state} interval")

    def k_overlap(state: Mapping[int, object]) -> bool:
        selected = {x for x, v in state.items() if v is not UNLIMITED}
        return all(sum(m in selected for m in s.neighbors[x]) <= k for x in selected)

    return [
        LegalSuccessor(CapacityVector(s, MappingProxyType(state)), frozenset(chosen), delta)
        for state, delta, chosen in GeneralSolver(s, k)._successors(lam.states, i)
        if k_overlap(state)
    ]


def transition_weight(
    lam_prime: CapacityVector,
    lam: CapacityVector,
    interval: Interval | int,
    s: IntervalSet,
) -> int:
    """Weight contributed by one commit step, from its definition: the
    objective (``solution_weight``) of the selected (committed) intervals
    of ``lam_prime``, minus that of ``lam``, minus the interval's own weight
    when it joins at this step (the window value adds that weight)."""
    _check_set(lam_prime, s)
    _check_set(lam, s)
    i = s.id_of(interval)

    def selected(vector: CapacityVector) -> list[int]:
        return [x for x, st in vector.states.items() if st is not UNLIMITED]

    owner = 0 if i in lam.states else s.intervals[i].weight
    return solution_weight(selected(lam_prime), s) - solution_weight(selected(lam), s) - owner


def dms_k(interval: Interval | int, lam: CapacityVector, s: IntervalSet, k: int) -> int:
    """Best k-overlap-set weight on the interval's window, the interval
    included, under pre-set capacities.  Rejects vectors not valid for the
    interval, among them one that leaves a neighbor of the interval
    undecided.  Calls on one solver's :meth:`GeneralSolver.dms` share its
    memo table instead."""
    i = s.id_of(interval)
    if not is_valid_for(lam, i, s, k):
        raise ValueError("capacity vector is not valid for the interval")
    return GeneralSolver(s, k).dms(i, lam.states)


def solve_k(s: IntervalSet, k: int, force_general: bool = False) -> Solution:
    """Exact max-weight k-overlap set.

    Delegates to the specialized k<=1 solver unless ``force_general`` is set
    (the general path is asymptotically and practically slower there).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if not force_general:
        if k == 0:
            return solve_k0(s)
        if k == 1:
            return solve_k1(s)
    return GeneralSolver(s, k).solve()
