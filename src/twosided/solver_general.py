"""Exact solver for max-weight k-overlap sets, any fixed k >= 0.

For k >= 2 a solution may contain arbitrarily long connected runs, so the
instance can no longer be split into independently solvable windows along the
chosen intervals.  Instead the dynamic program threads a *capacity vector*
through the sweep: one state per interval.  A state is undecided (the
interval has not been looked at), unlimited (the interval was rejected), or a
committed interval's residual budget, a pair (left, right) in {0..k} that
records how many further overlaps each side of the interval may still accept.
Callers' states are read through ``_state`` alone; a solve never sees them.

Committing an undecided interval I fixes its whole neighborhood at once: a
subset J of its overlapping neighbors (at most k of them, and necessarily
including every neighbor that is already committed) joins the solution and
every other neighbor is rejected.  The joiners are I itself and the fresh
(undecided) members of J.  A step is settled as follows:

* a fresh joiner's budget is k minus the number of its neighbors that are
  joiners or committed, split in all possible ways between its two sides;
  the left share is consumable inside the window being solved, the right
  share by the sweep continuation, which is what makes the two regions
  independent;
* each committed neighbor of a joiner pays one unit of the stabbed side's
  budget and is charged its pair weight;
* each pair of overlapping joiners is charged once.

The step is legal only if no budget goes negative.  Its weight adds the
weights of the fresh joiners and subtracts the charged pairs: every
overlapping pair that becomes fully selected at the step, charged exactly
once, at the moment its later member joins.

Values dms^k(I, lambda) -- the best completion of I's window under basic
capacities lambda -- are computed member by member in left-endpoint order.
The memo rests on one fact.  When the evaluation reaches member idx of a
window, every interval of its remaining members R = members[idx:] is
undecided and every interval of their frontier F = N(R) minus R is decided:

* a step at member j decides only N(j);
* a member that crosses an earlier member j of the same window starts
  before j's right end, so the step at j skips past it;
* an interval outside the window that crosses R also crosses the owner, so
  a step there would have decided the owner before its window opened;
* ``dms`` passes states on the interval's neighbors N(i) only.

A step at member j reads and writes only R and F: j's neighbors, and for
each fresh joiner, an undecided neighbor of j and so a member of R, its own
neighbors.  The steps after it stay inside the same positions, and j's own
window sees R and the neighbors of j.  R's states are always undecided, so
the value is a function of R and F's states.

The key names R without the owner.  Let j be R's first member.  Every member
starts after its owner's left end, so R = {x : left[x] >= left[j], right[x]
< right[owner]}, and the R of the owners containing j are nested by right
end: the handle (j, |R|) names R.  A reject moves to the next member of R,
and a commit reads j's own window and jumps to the first member of R
starting after right[j], so one value serves every window whose remaining
members are R.  Only members of R can still stab a committed x in F: a
joiner starting left of x spends x's left budget, one starting right of it
the right.  A side's budget at or above the number of members of R that
overlap x from that side never binds, so it is keyed lowered to that count;
a rejected state is keyed as it is.  The memo key is (j, |R|, clamped states
of F in ascending id order).  A handle's one record holds F's ids, their
clamps and the two handles moved to.  Only a window's first use writes
records, one for every suffix it walks, so the recorded suffixes of a
window are its shortest ones: its pass bisects for the longest, reads the
frontier's counts off that record's clamps and walks only the members
before it, and nested windows, opened innermost first, walk each member once.

R undecided and F decided also fix the shape of j's steps: whatever the
state, j's fresh neighbors are those in R and its decided ones those in F.
So each handle also keeps one step plan, built on its first evaluation:
the fresh neighbors; the decided ones, with the side j stabs and the pair
weight; and for each fresh x, x's weight less its pair with j, its fresh
neighbors and its decided ones, which lie in F since x is in R.  Only F's
states differ between the states that reach the handle, and a step reads
no other state.  ``_successors`` is the one routine that settles steps
off a plan: ``_decide`` and ``_walk`` pass the handle's, and
``legal_successors`` one built off the caller's vector, where every
undecided neighbor is fresh.  j's own stabs and charges on its committed
neighbors come first; if one overdraws a budget or more than k neighbors
are committed, no step is legal, since every step includes j, and none is
yielded.  Otherwise the first step is j beside its committed neighbors,
the only one when there is no fresh neighbor or k neighbors are
committed.  Then each fresh x is settled once under the state: its gain
less its pairs with the committed intervals, its count of j and those
neighbors, and its stabs.  Legality is monotone in J: adding a joiner only
raises counts and stabs.  So an x that is illegal beside j alone is in no
legal J and is dropped, and each J of the kept neighbors only adds its
joiner pairs and sums its stabs.

The solver lists only the budget splits that can matter.  Inside the DP
every fresh joiner x of a step at member j crosses j from the right,
left[j] < left[x] < right[j] < right[x]: an undecided neighbor crossing j
from the left would be an earlier member of the window, decided by the
window's earlier steps (or j would lie inside a committed earlier member
and be skipped), or would cross the owner and have been decided by the
owner's step.  x's left share pays only for later joiners that start
before x and overlap it; after the step these are undecided intervals
starting inside j, so members of j's own window.  The members of that
window overlapping x from the left number cap(j, x), x's left count in
the window's record, kept as ``left_caps[j]`` (0 if absent).  A left
share above cap(j, x) therefore leaves j's window worth what the cap
leaves it, and the continuation, with a smaller right share, worth no
more.  The split with each share lowered to its cap comes earlier in the
ascending order, so a split above a cap is never the first maximizer:
clamping each joiner's left share at its cap keeps the optimum, the
chosen set and every tie choice, and ``_walk`` reads its decisions off
the same clamped enumeration.  It also bounds the splits per joiner by
its degree, however large k is.  ``legal_successors`` lists steps under
any caller's vector, where a fresh neighbor may cross from the left, so
it lists every split, k - used + 1 per fresh joiner.

A solve keeps one state dict and runs on one explicit stack, not on the
interpreter's, so no window depth rests on the recursion limit.  A step
writes its decisions into the state and undoes its writes before the
enumeration moves on, so a stack entry holds its step's undo record, not a
copy of the state.  An undone entry may stay as ``None``, which reads as
undecided.

The memo is bounded: a solve that would store more than ``MAX_MEMO_STATES``
values raises ``SolverBudgetError``.  Solution recovery reads each decision
back off the memoized values and writes it into the same state, leaving
each chosen step written.  The top-level window is owner n = len(s), whose
members are every interval in left-endpoint order.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import combinations, product
from types import MappingProxyType
from typing import Generator, Iterator, Mapping

from .model import Interval, IntervalSet, SizeGuardError, Solution, _check_k, solution_weight
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


def _state(st: object) -> object:
    """A caller's capacity state in the solver's encoding: UNDECIDED and
    UNLIMITED as they are, another value equal to UNLIMITED as UNLIMITED, a
    budget as the pair of ints it is.  Anything else raises ValueError."""
    if st is UNDECIDED or st is UNLIMITED:
        return st
    if st == UNLIMITED:
        return UNLIMITED
    if type(st) is tuple and len(st) == 2 and all(isinstance(b, int) for b in st):
        return st
    raise ValueError(f"a committed state is a pair of ints, got {st!r}")


def _neighbor_states(s: IntervalSet, i: int, lam: Mapping[int, object], k: int) -> dict:
    """The states ``lam`` gives interval i's neighbors, each read through
    ``_state``, as committing i leaves them: every neighbor decided, at most
    k of them committed, each with a budget in {0..k} on both sides.
    Anything else raises ValueError."""
    states = {m: _state(lam.get(m)) for m in s.neighbors[i]}
    committed = [st for st in states.values() if st is not UNLIMITED]
    if UNDECIDED in committed:
        raise ValueError("the capacity vector leaves a neighbor of the interval undecided")
    if len(committed) > k:
        raise ValueError(f"more than k={k} neighbors of the interval are committed")
    if not all(0 <= b <= k for st in committed for b in st):
        raise ValueError(f"a committed neighbor's budget lies outside 0..{k}")
    return states


# Largest number of memoized values one solve may store.  Near the limit a
# solve stores a state every 23-26 us of CPU time and holds 280-380 bytes
# per state, so it fails after about 5 s and 55-75 MB (4.6-5.2 s and
# 89 MiB peak RSS at k=2 on generate_random_biconnected(40, 104,
# seed=11)).  A solve that ends just under the limit takes about as long:
# (14, 34, seed=7) at k=3 stores 192,380 states in 3.2-4.5 s.  Beside the
# memo a solve holds one state, one record and one step plan per suffix of
# remaining members and one stack entry per member of its deepest window:
# the chain (2i, 2i + 3) of 29,998 intervals, one window, peaks at 79 MiB.
# The bytes carry over to other machines; the seconds are pure-Python CPU
# times measured on one shared 2-core Xeon VM (CPython 3.11) only and scale
# with its speed, since the limit counts states, not time.
MAX_MEMO_STATES = 200_000


class SolverBudgetError(SizeGuardError, RuntimeError):
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
        """One interval's state as ``_state`` reads it: UNDECIDED, UNLIMITED or a pair."""
        return _state(self.states.get(self.s.id_of(interval)))

    def replace(self, interval: Interval | int, state) -> "CapacityVector":
        """A copy with one interval's state set as ``_state`` reads it (a
        state that it refuses raises ValueError)."""
        i, state = self.s.id_of(interval), _state(state)
        states = {x: st for x, st in self.states.items() if x != i}
        if state is not UNDECIDED:
            states[i] = state
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


class _Clamp(dict):
    """The memo key's form of a frontier state, for a position that the
    window's remaining members overlap ``cap[0]`` times from the left and
    ``cap[1]`` times from the right: a committed budget with each side
    lowered to its cap, UNLIMITED as it is.  Budgets are filled on first
    read."""

    def __init__(self, cap: tuple[int, int]):
        super().__init__({UNLIMITED: UNLIMITED})
        self.cap = cap

    def __missing__(self, st: tuple[int, int]) -> tuple[int, int]:
        out = self[st] = (min(st[0], self.cap[0]), min(st[1], self.cap[1]))
        return out


_clamped = _Clamp.__getitem__


class GeneralSolver:
    """Capacity-vector dynamic program over one instance and one k.

    A solver owns its memo tables and reads every interval fact off ``s``;
    owner n (= len(s)) is the top-level window.
    """

    def __init__(self, s: IntervalSet, k: int):
        _check_k(k)
        self.s = s
        self.k = k
        self.n = len(s)

        self.f_memo: dict = {}
        # suffix handle (j, |R|) -> record, owner -> window handle; see _window.
        self.suffixes: dict[tuple[int, int], tuple] = {}
        self.windows: dict[int, tuple[int, int] | None] = {}
        self.clamps: dict[tuple[int, int], _Clamp] = {}
        # owner -> left count of each frontier position, see _window.
        self.left_caps: dict[int, dict[int, int]] = {}
        # suffix handle -> step plan of its first member, see _plan.
        self.plans: dict[tuple[int, int], tuple] = {}

    # -- state helpers ------------------------------------------------------

    def _window(self, owner: int) -> tuple[int, int] | None:
        """The handle of owner's whole window, None if it has no members (a
        record's handles use None for no member left).  The first call fills
        the missing suffix records in one backward pass from the longest
        recorded one and stores ``left_caps[owner]``, the members overlapping
        each frontier position from the left."""
        windows = self.windows
        if owner in windows:
            return windows[owner]
        s, suffixes, clamps = self.s, self.suffixes, self.clamps
        nb, left, right = s.neighbors, s.left, s.right
        members = list(s.by_left) if owner == self.n else s.nested(owner)
        size = len(members)
        end = right[owner] if owner < self.n else math.inf

        def handle(at: int) -> tuple[int, int] | None:
            return (members[at], size - at) if at < size else None

        # The recorded suffixes are the shortest; a position outside
        # members[at:] starts before members[at] or ends after the owner.
        first = bisect_left(range(size), True, key=lambda at: handle(at) in suffixes)
        sides: dict[int, list[int]] = {}  # frontier id -> [from the left, from the right]
        if first < size:
            ids, row, _, _ = suffixes[handle(first)]
            sides = {x: list(clamp.cap) for x, clamp in zip(ids, row)}
        for at in range(first - 1, -1, -1):
            r = members[at]
            lo = left[r]
            sides.pop(r, None)
            for x in nb[r]:
                if left[x] < lo or right[x] > end:
                    sides.setdefault(x, [0, 0])[lo > left[x]] += 1
            frontier = sorted(sides)
            row = []
            for x in frontier:
                cap = tuple(sides[x])
                clamp = clamps.get(cap)
                if clamp is None:
                    clamp = clamps[cap] = _Clamp(cap)
                row.append(clamp)
            after = bisect_right(members, right[r], lo=at, key=left.__getitem__)
            suffixes[r, size - at] = (tuple(frontier), tuple(row), handle(at + 1), handle(after))
        self.left_caps[owner] = {x: c[0] for x, c in sides.items()}
        windows[owner] = top = handle(0)
        return top

    def _plan(self, lam: Mapping[int, object], j: int) -> tuple:
        """The step plan of the undecided interval ``j``, its neighbors
        classified off ``lam``, the undecided ones as fresh: (j's window
        handle, ``left_caps[j]``, j and its fresh neighbors, j's decided
        neighbors, the fresh neighbors' terms).  A decided neighbor m is
        (m, whether j stabs m's right side, pw(j, m)).  A fresh x is (x,
        its weight less pw(j, x), its fresh neighbors y, each with pw(x, y)
        if x < y and 0 otherwise, so that two joiners are charged once, and
        its decided neighbors, as j's are).  Reads each neighbor row once."""
        s = self.s
        nb, left, weight, pw = s.neighbors, s.left, s.weight, s.pair_weight
        fresh, decided = [], []
        for m in nb[j]:
            if lam.get(m) is None:
                fresh.append(m)
            else:
                decided.append((m, left[j] > left[m], pw(j, m)))
        joiners, joinable = [], set(fresh)
        for x in fresh:
            near, stabbed = [], []
            for m in nb[x]:
                if m in joinable:
                    near.append((m, pw(x, m) if x < m else 0))
                elif lam.get(m) is not None:
                    stabbed.append((m, left[x] > left[m], pw(x, m)))
            joiners.append((x, weight[x] - pw(j, x), tuple(near), tuple(stabbed)))
        return self._window(j), self.left_caps[j], (j, *fresh), tuple(decided), tuple(joiners)

    def _successors(
        self, lam: dict, plan: tuple, caps: Mapping[int, int]
    ) -> Iterator[tuple[int, tuple[int, ...]]]:
        """All legal ways of committing the undecided interval j of step
        ``plan`` under ``lam``, a fresh joiner x taking a left share of at
        most ``caps.get(x, 0)``: the solver passes ``left_caps[j]``, and a
        cap of k lists every split.

        Each step is written into ``lam`` while it is yielded, as (weight
        delta, fresh joiner ids), and undone before the next chosen set;
        a caller that stops early keeps the last step written.  Order is
        deterministic: chosen sets by size then lexicographic ids, budget
        splits ascending.  The delta adds the fresh joiners' weights (the
        window value adds j's own) and subtracts the weight of every pair
        that becomes fully selected.
        """
        _, _, undecided, decided, joiners = plan
        k = self.k
        # j stabs each committed neighbor and is charged its pair.  Every
        # step includes j, so more than k committed neighbors or an
        # overdrawn budget leave no legal step.
        delta0, room = 0, k
        undo = dict.fromkeys(undecided)
        writes = dict.fromkeys(undecided, UNLIMITED)
        writes[undecided[0]] = (0, 0)
        for m, right_side, w in decided:
            st = lam[m]
            if st is UNLIMITED:
                continue
            ml, mr = undo[m] = st
            if right_side:
                mr -= 1
            else:
                ml -= 1
            if ml < 0 or mr < 0:
                return
            writes[m] = (ml, mr)
            delta0 -= w
            room -= 1
        if room < 0:
            return
        # The empty chosen set first: j joins beside its forced neighbors.
        lam.update(writes)
        yield delta0, ()
        lam.update(undo)
        if not (room and joiners):
            return
        # Each fresh x's terms under ``lam``: its gain less its pairs with
        # the committed intervals, its count of j and committed neighbors,
        # and its stabs.  Adding a joiner only raises counts and stabs, so
        # an x that is illegal beside j alone joins no legal step and is
        # dropped.
        terms = {}
        for x, gain, near, stabbed in joiners:
            used = 1
            stabs = []
            alone = {}
            legal = True
            for m, right_side, w in stabbed:
                st = lam[m]
                if st is UNLIMITED:
                    continue
                used += 1
                gain -= w
                undo.setdefault(m, st)
                ml, mr = st = writes.get(m, st)
                stabs.append((m, right_side, st))
                if right_side:
                    mr -= 1
                else:
                    ml -= 1
                alone[m] = (ml, mr)
                legal = legal and ml >= 0 and mr >= 0
            if legal and used <= k:
                terms[x] = (gain, used, stabs, near, caps.get(x, 0), alone)
        # A kept joiner alone is legal: its step adds its own stabs.
        kept = list(terms)
        for x in kept:
            gain, used, _, _, cap, alone = terms[x]
            b = k - used
            lam.update(writes)
            lam.update(alone)
            for a in range(min(b, cap) + 1):
                lam[x] = (a, b - a)
                yield delta0 + gain, (x,)
            lam.update(undo)
        # A larger set adds its joiner pairs and sums its stabs, and is
        # checked.
        for size in range(2, min(room, len(kept)) + 1):
            for extra in combinations(kept, size):
                delta = delta0
                budgets = []
                shares = []
                stabbed: dict = {}
                for x in extra:
                    gain, used, stabs, near, cap, _ = terms[x]
                    delta += gain
                    for y, w in near:
                        if y in extra:
                            used += 1
                            delta -= w
                    budgets.append(k - used)
                    shares.append(range(min(k - used, cap) + 1))
                    for m, right_side, st in stabs:
                        ml, mr = stabbed.get(m, st)
                        stabbed[m] = (ml, mr - 1) if right_side else (ml - 1, mr)
                if min(budgets) < 0 or any(ml < 0 or mr < 0 for ml, mr in stabbed.values()):
                    continue
                lam.update(writes)
                lam.update(stabbed)
                for alphas in product(*shares):
                    for x, b, a in zip(extra, budgets, alphas):
                        lam[x] = (a, b - a)
                    yield delta, extra
                lam.update(undo)

    # -- window values ------------------------------------------------------

    def _window_value(self, h: tuple[int, int] | None, lam: dict) -> int:
        """Best completion of a window from suffix handle ``h`` on (0 for
        None).  Only a memo miss pushes a frame (``_decide``) with its key;
        a finished frame's value is memoized and sent to the frame below."""
        suffixes, f_memo, stack = self.suffixes, self.f_memo, []
        while True:
            value = 0
            if h is not None:
                ids, clamps, _, _ = suffixes[h]
                key = (*h, *map(_clamped, clamps, map(lam.get, ids)))
                value = f_memo.get(key)
                if value is None:
                    frame = self._decide(h, lam)
                    stack.append((frame, key))
                    h = next(frame)
                    continue
            while stack:
                frame, key = stack[-1]
                try:
                    h = frame.send(value)
                    break
                except StopIteration as done:
                    value = done.value
                stack.pop()
                if len(f_memo) >= MAX_MEMO_STATES:
                    raise SolverBudgetError(
                        f"the general-k solve (k={self.k}, {self.n} intervals) exceeds "
                        f"the limit of {MAX_MEMO_STATES} memo states"
                    )
                f_memo[key] = value
            else:
                return value

    def _decide(self, h: tuple[int, int], lam: dict) -> Generator[tuple[int, int] | None, int, int]:
        """Frame of the first member j of the suffix with handle ``h``:
        reject it or commit it through a successor.  Yields each handle
        whose value it needs under ``lam`` as it stands, is sent that value,
        and returns the best (a strict ``>`` keeps the first maximizer).
        ``lam`` is left as found."""
        j = h[0]
        _, _, reject, commit = self.suffixes[h]
        weight = self.s.weight
        lam[j] = UNLIMITED
        best = yield reject
        lam[j] = UNDECIDED
        plan = self.plans.get(h)
        if plan is None:
            plan = self.plans[h] = self._plan(lam, j)
        window, caps = plan[0], plan[1]
        for delta, _ in self._successors(lam, plan, caps):
            v = delta + weight[j] + (yield window) + (yield commit)
            if v > best:
                best = v
        return best

    # -- public entry points ------------------------------------------------

    def dms(self, interval: Interval | int, lam: Mapping[int, object]) -> int:
        """dms^k of one interval under basic capacities ``lam``, read through
        ``_state`` on its overlapping neighbors only: its weight plus the
        best selection among its nested set.  The states must obey the rule
        of ``is_valid_for`` (``_neighbor_states``): every neighbor decided,
        which the memo relies on, at most k committed, each budget in
        {0..k}.  A state that breaks it or an id not in the set raises
        ValueError."""
        i = self.s.id_of(interval)
        basic = _neighbor_states(self.s, i, lam, self.k)
        return self.s.weight[i] + self._window_value(self._window(i), basic)

    def solve(self) -> Solution:
        chosen: list[int] = []
        top = self._window(self.n)
        value = self._window_value(top, {})
        self._walk(top, {}, chosen)
        return Solution.recovered(chosen, self.s, self.k, value)

    def _walk(self, h: tuple[int, int] | None, lam: dict, out: list[int]) -> None:
        """Replay the maximizing decisions into ``lam``, collecting chosen
        ids, each read back off the memoized values: reject when the reject
        value is the window's, else the first successor reaching it, as in
        ``_decide``.  A committed member's window goes before its owner's rest."""
        s, wv, suffixes = self.s, self._window_value, self.suffixes
        work = [(h, wv(h, lam))]
        while work:
            h, best = work.pop()
            if h is None:
                continue
            j = h[0]
            _, _, reject, commit = suffixes[h]
            lam[j] = UNLIMITED
            if wv(reject, lam) == best:
                work.append((reject, best))
                continue
            lam[j] = UNDECIDED
            plan = self.plans[h]
            window = plan[0]
            for delta, joiners in self._successors(lam, plan, plan[1]):
                inner, rest = wv(window, lam), wv(commit, lam)
                if delta + s.weight[j] + inner + rest == best:
                    break  # the step stays written
            out.append(j)
            out.extend(joiners)
            work += [(commit, rest), (window, inner)]


# ---------------------------------------------------------------------------
# Public operations on capacity vectors
# ---------------------------------------------------------------------------


def _check_set(lam: CapacityVector, s: IntervalSet) -> None:
    if lam.s is not s:
        raise ValueError("the capacity vector belongs to another interval set")


def is_valid_for(lam: CapacityVector, interval: Interval | int, s: IntervalSet, k: int) -> bool:
    """A vector is valid for an interval when the interval is committed and
    every overlapping neighbor is decided, as committing the interval
    decides them: rejected, or committed with a budget in {0..k} on both
    sides, at most k of them committed (``_neighbor_states``, which ``dms``
    applies too).  A state that ``_state`` refuses makes the vector
    invalid.  The interval's own budget is never read (``dms`` starts from
    its neighbors' states only)."""
    _check_set(lam, s)
    i = s.id_of(interval)
    try:
        own = _state(lam.states.get(i))
        _neighbor_states(s, i, lam.states, k)
    except ValueError:
        return False
    return own is not UNDECIDED and own is not UNLIMITED


def _decided(lam: CapacityVector, s: IntervalSet) -> dict:
    """The decided states of ``lam``, each read through ``_state``."""
    _check_set(lam, s)
    states = ((x, _state(st)) for x, st in lam.states.items())
    return {x: st for x, st in states if st is not UNDECIDED}


def _selected(states: Mapping[int, object]) -> list[int]:
    """The ids a decided state mapping selects: its committed intervals."""
    return [x for x, st in states.items() if st is not UNLIMITED]


def legal_successors(
    lam: CapacityVector, interval: Interval | int, s: IntervalSet, k: int
) -> list[LegalSuccessor]:
    """All legal commit steps for ``interval`` under ``lam``.

    The interval must be undecided, not rejected or committed already.  A
    step is legal only if its vector is still k-overlap: every committed
    interval overlaps at most k committed intervals (a caller's budgets may
    allow more).  Enumeration order is deterministic: neighbor subsets by
    size then lexicographic ids, budget splits ascending.  Every split is
    listed, so a fresh joiner with budget b gives b + 1 steps: the count
    grows linearly in k, however large (the solver's own steps cap it).
    """
    decided = _decided(lam, s)
    i = s.id_of(interval)
    st = decided.get(i)
    if st is not UNDECIDED:
        state = "a rejected" if st is UNLIMITED else "an already committed"
        raise ValueError(f"cannot commit {state} interval")

    # The solver writes each step into one state; copy it at each yield.
    # A cap of k on every neighbor's left share lists every split.  A step
    # decides every neighbor, and chooses those it does not reject.
    nb, state, out = s.neighbors[i], dict(decided), []
    solver = GeneralSolver(s, k)
    for delta, _ in solver._successors(state, solver._plan(state, i), dict.fromkeys(nb, k)):
        states = {x: st for x, st in state.items() if st is not UNDECIDED}
        selected = _selected(states)
        if Solution.from_chosen(selected, s, k).max_overlap_degree() <= k:
            vector = CapacityVector(s, MappingProxyType(states))
            out.append(LegalSuccessor(vector, frozenset(nb).intersection(selected), delta))
    return out


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
    after, before = _decided(lam_prime, s), _decided(lam, s)
    i = s.id_of(interval)
    owner = 0 if i in before else s.weight[i]
    return solution_weight(_selected(after), s) - solution_weight(_selected(before), s) - owner


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

    Runs at min(k, max overlap degree), read off ``s.degree`` with no
    neighbor rows built: a budget above the degree never binds, and capping
    it keeps every chosen set legal and every tie won by the same first
    split, so the solution is the same and any k above the degree costs
    what the degree costs.  A capped budget of at most 1 goes to the
    specialized k<=1 solver unless ``force_general`` is set (the general
    path is asymptotically and practically slower there); the k=0 program
    is the k=1 one with every pair row empty.
    """
    _check_k(k)
    cap = min(k, s.max_degree)
    if cap <= 1 and not force_general:
        return replace(solve_k1(s) if cap else solve_k0(s), k=k)
    return replace(GeneralSolver(s, cap).solve(), k=k)
