"""General k past the brute-force oracle's reach, checked against a MILP.

The oracle stops at 20 intervals.  Above that the capacity-vector DP is held
to an integer program written here on the projected interval set, sharing no
code with the solvers: x_i selects interval i, y_ij >= x_i + x_j - 1 pays an
overlapping pair inside the selection, and
sum_{j in N(i)} x_j + (deg_i - k) x_i <= deg_i keeps a selected interval
within k overlaps.  The band needs scipy, a test-only dependency.
"""

import pytest

np = pytest.importorskip("numpy")
optimize = pytest.importorskip("scipy.optimize")

from twosided.bench import generate_random_biconnected  # noqa: E402
from twosided.model import IntervalSet, overlap_pairs_within  # noqa: E402
from twosided.pipeline import solve_layout  # noqa: E402
from twosided.transform import EdgeWeightMode, project_to_intervals  # noqa: E402


def optimum_milp(s: IntervalSet, k: int) -> int:
    m = len(s)
    pairs = sorted(overlap_pairs_within(range(m), s))
    nvar = m + len(pairs)
    deg_rows = np.zeros((m, nvar))
    deg = np.array([len(s.neighbors[i]) for i in range(m)], dtype=float)
    for i in range(m):
        deg_rows[i, list(s.neighbors[i])] = 1.0
        deg_rows[i, i] = deg[i] - k
    constraints = [optimize.LinearConstraint(deg_rows, -np.inf, deg)]
    if pairs:
        pair_rows = np.zeros((len(pairs), nvar))
        for p, (i, j) in enumerate(pairs):
            pair_rows[p, [i, j, m + p]] = (-1.0, -1.0, 1.0)
        constraints.append(optimize.LinearConstraint(pair_rows, -1.0, np.inf))
    cost = np.array([-float(w) for w in s.weight] + [float(s.pair_weight(*p)) for p in pairs])
    integrality = np.concatenate([np.ones(m), np.zeros(len(pairs))])
    res = optimize.milp(cost, constraints=constraints, integrality=integrality,
                        bounds=optimize.Bounds(0.0, 1.0), options={"mip_rel_gap": 0.0})
    assert res.success, res.message
    assert abs(res.fun - round(res.fun)) < 1e-6, res.fun
    return -int(round(res.fun))


@pytest.mark.parametrize(
    "n, m, seed, mode, k, optimum",
    [
        (12, 30, 424242, EdgeWeightMode.IGNORE_SHIFTED, 2, 79),
        (12, 30, 424242, EdgeWeightMode.IGNORE_SHIFTED, 3, 81),
        (14, 34, 7, EdgeWeightMode.COUNT_SHIFTED, 2, 119),
        (16, 40, 424242, EdgeWeightMode.IGNORE_SHIFTED, 2, 125),
    ],
)
def test_general_k_matches_the_milp_optimum(n, m, seed, mode, k, optimum):
    layout = generate_random_biconnected(n, m, seed=seed)
    s = project_to_intervals(layout, mode).interval_set
    assert len(s) > 20  # past the oracle
    result = solve_layout(layout, k, mode)
    assert result.solution.weight == optimum_milp(s, k) == optimum
    assert result.solution.max_overlap_degree() <= k
