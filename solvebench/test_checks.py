"""Tests of the benchmark's own references and generators.

    python3 -m pytest solvebench

The references are compared with brute force on tiny graphs, and wrong
answers (a wrong weight, a dropped exterior edge, an infeasible set) must be
rejected.  The last tests run the program once through each solve path of
the benchmark, require its answers to pass, and trace one CLI solve.
"""

from __future__ import annotations

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from gen import local_chord_graph, uniform_chord_graph  # noqa: E402
from run import tail_percentile  # noqa: E402


def random_graph(rng: random.Random, n: int, m: int):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return n, rng.sample(pairs, m), order


def naive_cross(n, edges, order):
    pos = {v: i for i, v in enumerate(order)}

    def crosses(e, f):
        a, b = sorted((pos[e[0]], pos[e[1]]))
        c, d = sorted((pos[f[0]], pos[f[1]]))
        return len({a, b, c, d}) == 4 and (a < c < b) != (a < d < b)

    return [[crosses(e, f) for f in edges] for e in edges]


def brute_force(n, edges, order, k, pair_weight):
    """Best saving and one optimal exterior set, over all edge subsets."""
    x = naive_cross(n, edges, order)
    m = len(edges)
    deg = [sum(row) for row in x]
    best, best_ids = 0, []
    for mask in range(1 << m):
        ids = [i for i in range(m) if mask >> i & 1]
        if any(sum(x[i][j] for j in ids) > k for i in ids):
            continue
        pairs = sum(x[i][j] for a, i in enumerate(ids) for j in ids[a + 1:])
        value = sum(deg[i] for i in ids) - pair_weight * pairs
        if value > best:
            best, best_ids = value, ids
    return best, best_ids


CASES = [random_graph(random.Random(s), n, m)
         for s, (n, m) in enumerate([(5, 7), (6, 9), (6, 11), (7, 10), (7, 12), (8, 12)] * 4)]


@pytest.mark.parametrize("graph", CASES)
def test_crossing_matrix_matches_alternation(graph):
    d = checks.Drawing.of(*graph)
    assert d.cross.tolist() == naive_cross(*graph)


@pytest.mark.parametrize("graph", CASES)
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("pair_weight", [1, 2])
def test_window_dp_matches_brute_force(graph, k, pair_weight):
    d = checks.Drawing.of(*graph)
    assert checks.optimum_k01(d, k, pair_weight) == brute_force(*graph, k, pair_weight)[0]


@pytest.mark.parametrize("graph", CASES[::3])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_milp_matches_brute_force(graph, k):
    pytest.importorskip("scipy")
    d = checks.Drawing.of(*graph)
    for pair_weight in (1, 2):
        assert checks.optimum_milp(d, k, pair_weight) == brute_force(*graph, k, pair_weight)[0]


def _reported(d, ext, pair_weight):
    """The counts a correct solver reports for the exterior set ``ext``."""
    interior = sorted(set(range(d.m)) - set(ext))
    return dict(weight=d.saving(ext, pair_weight), one_sided=d.one_sided,
                interior=d.crossings_within(interior), exterior_crossings=d.crossings_within(ext))


@pytest.mark.parametrize("pair_weight", [1, 2])
def test_wrong_answers_are_rejected(pair_weight):
    graph = random_graph(random.Random(7), 8, 12)
    d = checks.Drawing.of(*graph)
    k = 1
    opt, ext = brute_force(*graph, k, pair_weight)
    assert len(ext) >= 2
    ok = _reported(d, ext, pair_weight)
    assert checks.solution_errors(d, k, pair_weight, opt, ext, **ok) == []

    wrong_w = dict(ok, weight=ok["weight"] + 1)
    assert checks.solution_errors(d, k, pair_weight, opt, ext, **wrong_w)

    dropped = ext[1:]  # same reported counts, one exterior edge missing
    assert checks.solution_errors(d, k, pair_weight, opt, dropped, **ok)
    # ... and even when the counts are made consistent, it is not optimal
    assert checks.solution_errors(d, k, pair_weight, opt, dropped,
                                  **_reported(d, dropped, pair_weight))

    everything = list(range(d.m))  # exceeds k, whatever the counts say
    errs = checks.solution_errors(d, k, pair_weight, opt, everything,
                                  **_reported(d, everything, pair_weight))
    assert any("outer" in e for e in errs)


def test_generators_are_seeded_and_well_formed():
    a = uniform_chord_graph(12, 30, random.Random(5))
    assert a == uniform_chord_graph(12, 30, random.Random(5))
    n, edges, order = a
    assert len(set(edges)) == 30 and all(1 <= u < v <= n for u, v in edges)
    n, edges, order = local_chord_graph(40, 100, 6, random.Random(5))
    assert sorted(order) == list(range(1, n + 1)) and len(set(edges)) == 100
    pos = {v: i for i, v in enumerate(order)}
    spans = sorted(abs(pos[u] - pos[v]) for u, v in edges)
    assert spans[-1] == n - 1 and spans[-2] <= 6  # the closing cycle edge, then short chords


def test_tail_percentile_keeps_ten_solves_above():
    assert tail_percentile([1.0] * 39) is None
    times = [float(i) for i in range(42)]
    p, value = tail_percentile(times)
    assert p == 76 and sum(t > value for t in times) == 10


def test_program_passes_every_workload_check(tmp_path):
    pytest.importorskip("twosided")
    from workloads import WORKLOADS

    for cls in WORKLOADS.values():
        w = cls(seed=3, workdir=str(tmp_path))
        w.n, w.m = 14, 80  # smaller graphs where the workload has a size knob
        for case in w.make_batch(random.Random(3), 0):
            assert w.errors(case, w.digest(w.solve(case))) == [], case.label


def test_tampered_cli_outputs_are_rejected(tmp_path):
    pytest.importorskip("twosided")
    import json

    from workloads import LargeLocal

    w = LargeLocal(seed=4, workdir=str(tmp_path))
    w.m = 80
    (case,) = w.make_batch(random.Random(4), 0)
    output = w.solve(case)
    assert w.errors(case, output) == []
    stem = output[2]
    with open(stem + ".json") as fh:
        sol = json.load(fh)
    with open(stem + ".svg") as fh:
        svg = fh.read()

    with open(stem + ".json", "w") as fh:
        json.dump(dict(sol, edges_exterior=sol["edges_exterior"][1:]), fh)
    assert w.errors(case, output)
    with open(stem + ".json", "w") as fh:
        json.dump(sol, fh)
    with open(stem + ".svg", "w") as fh:
        fh.write(svg.replace("<path", "<line", 1))
    assert any("SVG" in e for e in w.errors(case, output))


def test_tracer_records_each_layer_and_restores_the_program(tmp_path):
    pytest.importorskip("twosided")
    from spans import Tracer
    from twosided import cli, pipeline
    from workloads import LargeLocal

    w = LargeLocal(seed=5, workdir=str(tmp_path))
    w.m = 60
    (case,) = w.make_batch(random.Random(5), 0)
    originals = (cli.main, pipeline.count_crossings)
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("solve"):
            w.solve(case)
        tracer.extra_fill()
    assert (cli.main, pipeline.count_crossings) == originals
    m = tracer.layer_metrics(solves=1, untraced_s=0.0, peak_alloc_mb=0.0)
    assert m["model.count_crossings_calls"] == 3
    for name in ("cli.self_s", "graphio.parse_s", "transform.project_s", "solver_k1.solve_s",
                 "solver_k1.fill_s", "render.layout_stats_s", "render.render_s"):
        assert m[name] > 0, name
    assert m["solver_general.solve_s"] == 0
