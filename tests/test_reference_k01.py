"""The k<=1 optimum above brute-force scale, against an independent DP.

The reference below works on vertex positions of the drawing, not on the
program's interval windows, and shares no code with the k<=1 solver: it is
a window DP over vertex-position intervals, with rows built as numpy
vectors.
"""

import numpy as np
import pytest

from twosided.bench import generate_random_biconnected
from twosided.pipeline import solve_layout
from twosided.transform import EdgeWeightMode


def reference_optimum(instance, k, pair_weight):
    """Best saving ``sum(deg) - pair_weight * (crossing pairs inside)`` over
    exterior edge sets in which every edge crosses at most k others.

    ``V[a, b]`` is the best set of chords with both ends in positions
    [a, b].  Either no chosen chord ends at a (``V[a + 1, b]``), or take the
    chosen structure at a that reaches farthest right, to R <= b: a lone
    chord (a, c) with R = c, its inside and [c, b] independent; or, for k = 1,
    a crossing pair (a, c), (x, y) with a < x < c < y = R, cutting out the
    regions [a, x], [x, c], [c, y] and [y, b].  Options are applied in
    increasing R, pairs before the lone chord of the same R, so each region
    read is final when it is read.
    """
    pos = {v: i for i, v in enumerate(instance.order)}
    ends = np.array([sorted((pos[u], pos[v])) for u, v in instance.edges], dtype=np.int64)
    lo, hi = ends[:, 0], ends[:, 1]
    forward = (lo[:, None] < lo[None, :]) & (lo[None, :] < hi[:, None]) & (hi[:, None] < hi[None, :])
    w = (forward | forward.T).sum(axis=1).astype(np.int64)
    n = len(instance.order)
    starting = [[] for _ in range(n)]
    for i in np.argsort(lo, kind="stable"):
        starting[lo[i]].append(int(i))
    V = np.zeros((n + 1, n), dtype=np.int64)
    for a in range(n - 1, -1, -1):
        row = V[a + 1].copy()
        opts = []
        for i in starting[a]:
            opts.append((int(hi[i]), 1, i, -1))
            if k == 1:
                opts.extend((int(hi[j]), 0, i, int(j)) for j in np.flatnonzero(forward[i]))
        opts.sort()
        for reach, lone, i, j in opts:
            if lone:
                val = int(w[i]) + int(row[reach])
            else:
                x, c = int(lo[j]), int(hi[i])
                val = int(w[i] + w[j]) - pair_weight + int(row[x] + V[x, c] + V[c, reach])
            np.maximum(row[reach:], val + V[reach, reach:], out=row[reach:])
        V[a] = row
    return int(V[0, n - 1])


@pytest.mark.parametrize(
    "n, modes",
    [
        (120, (EdgeWeightMode.COUNT_SHIFTED, EdgeWeightMode.IGNORE_SHIFTED)),
        (240, (EdgeWeightMode.IGNORE_SHIFTED,)),
    ],
)
def test_k01_weights_match_vertex_position_reference(n, modes):
    instance = generate_random_biconnected(n, round(2.6 * n), seed=424242)
    for mode in modes:
        for k in (0, 1):
            got = solve_layout(instance, k, mode).solution.weight
            assert got == reference_optimum(instance, k, mode.value), (n, mode, k)
