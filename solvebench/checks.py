"""Independent references for the benchmark's correctness checks.

Nothing here imports the program.  Crossings are recounted from the vertex
order with one vectorized alternation test; the k <= 1 optimum comes from an
interval dynamic program over vertex positions (in the spirit of Supowit's
circle-graph independent-set DP); the general-k optimum comes from a
``scipy.optimize.milp`` formulation.  All counts and weights are integers.

The objective: routing a set E of edges outside saves ``sum(deg(e)) -
p * cross(E)`` crossings, where ``deg`` is the crossing degree of an edge in
the one-sided drawing, ``cross(E)`` the number of crossing pairs inside E and
``p`` the pair weight (1 counts interior crossings, 2 total crossings).  E is
feasible when every edge of E crosses at most k others of E.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True, eq=False)
class Drawing:
    """Chords of a one-sided circular drawing, as sorted vertex positions."""

    n: int
    lo: np.ndarray  # lower endpoint position per edge id
    hi: np.ndarray  # upper endpoint position per edge id

    @classmethod
    def of(cls, n: int, edges, order) -> "Drawing":
        pos = {v: i for i, v in enumerate(order)}
        a = np.array([pos[u] for u, _ in edges], dtype=np.int64)
        b = np.array([pos[v] for _, v in edges], dtype=np.int64)
        return cls(n, np.minimum(a, b), np.maximum(a, b))

    @property
    def m(self) -> int:
        return len(self.lo)

    @cached_property
    def forward(self) -> np.ndarray:
        """``forward[i, j]``: chords i and j cross with i's lower end first.
        Strict inequalities, so chords sharing a vertex never cross."""
        lo, hi = self.lo, self.hi
        return (lo[:, None] < lo[None, :]) & (lo[None, :] < hi[:, None]) & (hi[:, None] < hi[None, :])

    @cached_property
    def cross(self) -> np.ndarray:
        return self.forward | self.forward.T

    @cached_property
    def degree(self) -> np.ndarray:
        return self.cross.sum(axis=1).astype(np.int64)

    @cached_property
    def one_sided(self) -> int:
        return int(self.degree.sum()) // 2

    def crossings_within(self, ids) -> int:
        idx = np.fromiter(ids, dtype=np.int64)
        return int(self.cross[np.ix_(idx, idx)].sum()) // 2

    def max_crossings_within(self, ids) -> int:
        idx = np.fromiter(ids, dtype=np.int64)
        if idx.size == 0:
            return 0
        return int(self.cross[np.ix_(idx, idx)].sum(axis=1).max())

    def saving(self, exterior, pair_weight: int) -> int:
        """Objective value of routing ``exterior`` outside."""
        idx = np.fromiter(exterior, dtype=np.int64)
        return int(self.degree[idx].sum()) - pair_weight * self.crossings_within(idx)

    def stats(self) -> dict:
        """Instance make-up: vertices n, edges m, crossing pairs P, largest
        crossing degree gamma, and total interval length ell of the interval
        projection (one slot per edge end, in drawing order; at a vertex the
        end whose edge reaches farthest in drawing direction comes first)."""
        ends = sorted(
            (int(p), -((int(q) - int(p)) % self.n), e)
            for e, (a, b) in enumerate(zip(self.lo, self.hi))
            for p, q in ((a, b), (b, a))
        )
        first, last = {}, {}
        for slot, (_, _, e) in enumerate(ends):
            first.setdefault(e, slot)
            last[e] = slot
        return {
            "n": self.n,
            "m": self.m,
            "P": self.one_sided,
            "gamma": int(self.degree.max()) if self.m else 0,
            "ell": sum(last[e] - first[e] for e in first),
        }


def optimum_k01(d: Drawing, k: int, pair_weight: int) -> int:
    """Exact optimum for k in {0, 1} by a DP over vertex-position windows.

    ``V[a, b]`` is the best feasible set of chords with both ends in [a, b].
    Either no chosen chord ends at a, giving ``V[a+1, b]``, or consider the
    chosen structure at a that reaches farthest right, to R <= b:

    * a lone chord (a, c), R = c: the rest lies in [a, c] without that chord
      (``U``) or in [c, b];
    * for k = 1 a crossing pair (a, c), (x, y) with a < x < c < y = R: the
      rest lies in [a, x], [x, c], [c, y] or [y, b], since a chord joining
      two of these regions would cross the pair.

    Row a is built by applying the options in increasing R (pairs before the
    lone chord of the same R), so ``row[c]`` is ``U(a, c)`` when the chord
    (a, c) is reached and ``row[x]`` is final when a pair needs it.  The work
    is O(n * (m + P)) on rows of length n.
    """
    if k not in (0, 1):
        raise ValueError("the window DP covers k = 0 and k = 1")
    n, lo, hi, w = d.n, d.lo, d.hi, d.degree
    starting = [[] for _ in range(n)]
    for i in np.argsort(lo, kind="stable"):
        starting[lo[i]].append(int(i))
    partners = [np.flatnonzero(row) for row in d.forward] if k == 1 else None
    V = np.zeros((n + 1, n), dtype=np.int64)
    for a in range(n - 1, -1, -1):
        row = V[a + 1].copy()
        opts = []
        for i in starting[a]:
            opts.append((int(hi[i]), 1, i, -1))
            if k == 1:
                opts.extend((int(hi[j]), 0, i, int(j)) for j in partners[i])
        opts.sort()
        for reach, lone, i, j in opts:
            if lone:
                val = int(w[i]) + int(row[reach])
            else:
                x, c = int(lo[j]), int(hi[i])
                val = int(w[i] + w[j]) - pair_weight + int(row[x] + V[x, c] + V[c, reach])
            np.maximum(row[reach:], val + V[reach, reach:], out=row[reach:])
        V[a] = row
    return int(V[0, n - 1]) if n else 0


def optimum_milp(d: Drawing, k: int, pair_weight: int) -> int:
    """Exact optimum for any k from a MILP: x_i selects edge i, y_ij >=
    x_i + x_j - 1 pays a crossing pair inside the selection, and
    sum_{j in N(i)} x_j + (deg_i - k) x_i <= deg_i keeps a selected edge
    within k crossings."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix, hstack, identity

    m = d.m
    ii, jj = np.nonzero(np.triu(d.cross))
    npairs = len(ii)
    if m == 0:
        return 0
    rows = np.concatenate([np.arange(npairs), np.arange(npairs)])
    cols = np.concatenate([ii, jj])
    pair_x = coo_matrix((-np.ones(2 * npairs), (rows, cols)), shape=(npairs, m))
    pair_rows = hstack([pair_x, identity(npairs)]) if npairs else None
    deg_x = d.cross.astype(float) + np.diag((d.degree - k).astype(float))
    deg_rows = hstack([coo_matrix(deg_x), coo_matrix((m, npairs))])
    constraints = [LinearConstraint(deg_rows, -np.inf, d.degree.astype(float))]
    if npairs:
        constraints.append(LinearConstraint(pair_rows, -1.0, np.inf))
    cost = np.concatenate([-d.degree.astype(float), np.full(npairs, float(pair_weight))])
    integrality = np.concatenate([np.ones(m), np.zeros(npairs)])
    res = milp(cost, constraints=constraints, integrality=integrality,
               bounds=Bounds(0.0, 1.0), options={"mip_rel_gap": 0.0})
    if not res.success:
        raise RuntimeError(f"MILP reference failed: {res.message}")
    value = -res.fun
    if abs(value - round(value)) > 1e-6:
        raise RuntimeError(f"MILP reference gave a fractional optimum {value}")
    return int(round(value))


def solution_errors(d: Drawing, k: int, pair_weight: int, optimum: int, exterior,
                    weight: int, one_sided: int, interior: int, exterior_crossings: int) -> list[str]:
    """Every way a reported solve disagrees with the references; empty when
    the answer is exact.  ``exterior`` holds edge ids."""
    ext = sorted(set(exterior))
    errors = []
    if any(not 0 <= e < d.m for e in ext):
        return [f"exterior edge id out of range: {ext}"]
    interior_ids = sorted(set(range(d.m)) - set(ext))
    want = {
        "one-sided crossings": (one_sided, d.one_sided),
        "interior crossings": (interior, d.crossings_within(interior_ids)),
        "exterior crossings": (exterior_crossings, d.crossings_within(ext)),
        "weight of the exterior set": (weight, d.saving(ext, pair_weight)),
        "optimal weight": (weight, optimum),
    }
    for what, (got, ref) in want.items():
        if got != ref:
            errors.append(f"{what}: reported {got}, reference {ref}")
    remaining = interior if pair_weight == 1 else interior + exterior_crossings
    if remaining != one_sided - weight:
        errors.append(f"accounting: {remaining} != {one_sided} - {weight}")
    worst = d.max_crossings_within(ext)
    if worst > k:
        errors.append(f"not outer {k}-plane: an exterior edge has {worst} exterior crossings")
    return errors
