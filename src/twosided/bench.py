"""Instance generators and the experiment harness.

Random biconnected graphs are built as a random Hamiltonian cycle plus
uniformly sampled chords (a sound substitute for an external generator: the
cycle alone is already biconnected); biconnectivity is re-verified anyway.
Random interval sets pair up a shuffled copy of {1..2n}.

``run_experiment`` reproduces the crossing-savings methodology: for each
generated instance it solves k=0 and k=1 under both edge-weight modes,
records the percentage of crossings saved against the one-sided layout, and
re-checks the exact accounting identities on every row.  A row for a
crossing-free instance reports 100% savings with the ``trivial`` flag set and
is excluded from aggregate means.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Sequence

from .model import IntervalSet, LayoutInstance, canonical_edge, overlap_pairs_within
from .pipeline import solve_layout
from .transform import EdgeWeightMode

__all__ = [
    "random_interval_set",
    "generate_random_biconnected",
    "ExperimentConfig",
    "run_experiment",
    "rows_to_csv",
    "CSV_COLUMNS",
]


def random_interval_set(
    n: int,
    rng: random.Random | int,
    max_weight: int = 9,
    max_pair_weight: int = 3,
) -> IntervalSet:
    """Uniformly random normalized interval set with random small weights."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    pts = list(range(1, 2 * n + 1))
    rng.shuffle(pts)
    spans = [
        (min(pts[2 * i], pts[2 * i + 1]), max(pts[2 * i], pts[2 * i + 1]))
        for i in range(n)
    ]
    weights = [rng.randint(0, max_weight) for _ in range(n)]
    pairs = sorted(overlap_pairs_within(range(n), IntervalSet.build(spans, weights, 0)))
    pair_weights = {key: rng.randint(0, max_pair_weight) for key in pairs}
    return IntervalSet.build(spans, weights, pair_weights)


def _is_biconnected(instance: LayoutInstance) -> bool:
    """At least 3 vertices, connected and without a cut vertex: one
    iterative depth-first search with low links, O(n + m).  A non-root
    vertex p cuts the graph when a child's subtree reaches no vertex found
    before p; the root does when it has two children.  The tree edge back
    to p may count toward the low link: it reaches p itself, not before."""
    if instance.n_vertices < 3:
        return False
    adj: dict[int, list[int]] = {v: [] for v in instance.vertices}
    for u, v in instance.edges:
        adj[u].append(v)
        adj[v].append(u)
    root = instance.vertices[0]
    disc = {root: 0}
    low = {root: 0}
    root_children = 0
    stack = [(root, root, iter(adj[root]))]
    while stack:
        x, parent, todo = stack[-1]
        for y in todo:
            if y not in disc:
                disc[y] = low[y] = len(disc)
                stack.append((y, x, iter(adj[y])))
                break
            low[x] = min(low[x], disc[y])
        else:
            stack.pop()
            if x == root:
                continue
            if parent == root:
                root_children += 1
            elif low[x] >= disc[parent]:
                return False
            low[parent] = min(low[parent], low[x])
    return len(disc) == instance.n_vertices and root_children == 1


def generate_random_biconnected(n: int, m: int, seed: int) -> LayoutInstance:
    """Random biconnected simple graph on n vertices and m edges.

    A random Hamiltonian cycle plus m - n uniformly sampled chords; the
    cyclic drawing order is the identity 1..n.  Deterministic per seed.
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    if m < n:
        raise ValueError("need at least n edges (the Hamiltonian cycle)")
    if m > n * (n - 1) // 2:
        raise ValueError(f"{m} edges do not fit in a simple graph on {n} vertices")
    rng = random.Random(seed)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    cycle = {canonical_edge(a, b) for a, b in zip(perm, perm[1:] + perm[:1])}
    # Chord idx is the idx-th non-cycle pair (a, b), a < b, in lexicographic
    # order, found without listing the O(n^2) pairs: row a's non-cycle pairs
    # start at index first[a - 1], and b steps over the row's cycle pairs.
    skip: list[list[int]] = [[] for _ in range(n + 1)]
    for a, b in sorted(cycle):
        skip[a].append(b)
    first = list(accumulate((n - a - len(skip[a]) for a in range(1, n)), initial=0))
    chords = []
    for idx in rng.sample(range(first[-1]), m - n):
        a = bisect_right(first, idx)
        b = a + 1 + idx - first[a - 1]
        for c in skip[a]:
            b += c <= b
        chords.append((a, b))
    edges = sorted(cycle) + sorted(chords)
    instance = LayoutInstance.build(range(1, n + 1), edges)
    if not _is_biconnected(instance):
        raise AssertionError("generator produced a non-biconnected graph")
    return instance


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment batch: (n, m) cases, repetitions per case, seed base."""

    cases: tuple[tuple[int, int], ...]
    repetitions: int = 1
    seed_base: int = 0

    def __post_init__(self) -> None:
        if not self.cases:
            raise ValueError("the experiment has no (n, m) cases")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be at least 1, got {self.repetitions}")

    @classmethod
    def density_sweep(
        cls,
        sizes: Iterable[int],
        density: float = 2.6,
        repetitions: int = 1,
        seed_base: int = 0,
    ) -> "ExperimentConfig":
        cases = tuple((n, max(n, round(density * n))) for n in sizes)
        return cls(cases, repetitions, seed_base)


CSV_COLUMNS = (
    "seed",
    "n",
    "m",
    "density",
    "crossings_1sided",
    "W_k0",
    "W_k1_w1",
    "W_k1_w2",
    "saved_pct_k0",
    "saved_pct_k1",
    "time_k0_ms",
    "time_k1_ms",
    "time_k1_w2_ms",
    "trivial",
)


def run_experiment(
    config: ExperimentConfig, clock: Callable[[], float] | None = None
) -> list[dict]:
    """One row per generated instance; the first instance that fails raises.

    ``clock`` defaults to ``time.perf_counter``; pass a constant function for
    byte-stable timing columns.  The three solves of a row share the graph's
    one interval projection: ``time_k0_ms`` includes it, and the two k=1
    times do not.
    """
    tick = clock if clock is not None else time.perf_counter
    # One untimed tiny solve, so that first-call costs (lazy imports, cold
    # interpreter caches) stay out of the first row's timings.
    solve_layout(generate_random_biconnected(6, 9, seed=0), 1, EdgeWeightMode.COUNT_SHIFTED)
    rows: list[dict] = []
    seed = config.seed_base
    for n, m in config.cases:
        for _ in range(config.repetitions):
            seed += 1
            rows.append(_run_one(n, m, seed, tick))
    return rows


def _run_one(n: int, m: int, seed: int, tick: Callable[[], float]) -> dict:
    instance = generate_random_biconnected(n, m, seed)

    t0 = tick()
    res_k0 = solve_layout(instance, 0, EdgeWeightMode.COUNT_SHIFTED)
    t1 = tick()
    res_k1_w1 = solve_layout(instance, 1, EdgeWeightMode.COUNT_SHIFTED)
    t2 = tick()
    res_k1_w2 = solve_layout(instance, 1, EdgeWeightMode.IGNORE_SHIFTED)
    t3 = tick()

    crossings = res_k0.crossings_one_sided
    w_k0 = res_k0.solution.weight
    w_k1_w1 = res_k1_w1.solution.weight
    w_k1_w2 = res_k1_w2.solution.weight

    # Interior-crossing reduction under pair weight 1 dominates the reduction
    # achieved by the total-crossings optimizer.
    if w_k1_w1 < res_k1_w2.crossings_one_sided - res_k1_w2.interior:
        raise AssertionError("weight-mode dominance violated")

    trivial = crossings == 0
    if trivial:
        saved_k0 = saved_k1 = 100.0
    else:
        saved_k0 = 100.0 * w_k0 / crossings
        saved_k1 = 100.0 * w_k1_w2 / crossings
    if saved_k1 < saved_k0:
        raise AssertionError("saved percentage not monotone in k")

    return {
        "seed": seed,
        "n": n,
        "m": m,
        "density": m / n,
        "crossings_1sided": crossings,
        "W_k0": w_k0,
        "W_k1_w1": w_k1_w1,
        "W_k1_w2": w_k1_w2,
        "saved_pct_k0": saved_k0,
        "saved_pct_k1": saved_k1,
        "time_k0_ms": (t1 - t0) * 1000.0,
        "time_k1_ms": (t2 - t1) * 1000.0,
        "time_k1_w2_ms": (t3 - t2) * 1000.0,
        "trivial": trivial,
    }


def rows_to_csv(rows: Sequence[Mapping]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                (
                    f"{row[c]:.4f}"
                    if c in ("density", "saved_pct_k0", "saved_pct_k1")
                    else f"{row[c]:.3f}"
                    if c in ("time_k0_ms", "time_k1_ms", "time_k1_w2_ms")
                    else str(int(row[c]))
                )
                for c in CSV_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"


def mean_saved_pct(rows: Sequence[Mapping]) -> tuple[float, float]:
    """Mean saved percentages (k=0, k=1) over the non-trivial rows."""
    usable = [r for r in rows if not r["trivial"]]
    if not usable:
        return 100.0, 100.0
    k0 = sum(r["saved_pct_k0"] for r in usable) / len(usable)
    k1 = sum(r["saved_pct_k1"] for r in usable) / len(usable)
    return k0, k1
