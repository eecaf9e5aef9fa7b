import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import twosided
from twosided.bench import (
    CSV_COLUMNS,
    ExperimentConfig,
    generate_random_biconnected,
    mean_saved_pct,
    rows_to_csv,
    run_experiment,
)
from twosided.cli import main
from twosided.graphio import format_graph
from twosided.model import LayoutInstance, TwoSidedAssignment, count_crossings
from twosided.transform import EdgeWeightMode
from twosided.bench import _is_biconnected


# -- generator ----------------------------------------------------------------


def test_generator_cycle_is_biconnected():
    inst = generate_random_biconnected(5, 5, seed=3)
    assert inst.n_vertices == 5 and inst.n_edges == 5
    assert _is_biconnected(inst)
    assert inst.order == tuple(range(1, 6))


def test_generator_density_regime():
    inst = generate_random_biconnected(20, 52, seed=1)
    assert inst.n_edges == 52
    assert _is_biconnected(inst)
    assert len({tuple(e) for e in inst.edges}) == 52


def biconnected_by_vertex_deletion(instance) -> bool:
    """The definition: at least 3 vertices, connected, and connected after
    deleting any one vertex; n + 1 graph searches."""
    adj = {v: set() for v in instance.vertices}
    for u, v in instance.edges:
        adj[u].add(v)
        adj[v].add(u)

    def connected_without(skip) -> bool:
        verts = [v for v in instance.vertices if v != skip]
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            for y in adj[stack.pop()]:
                if y != skip and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(verts)

    n = instance.n_vertices
    return n >= 3 and connected_without(None) and all(map(connected_without, instance.vertices))


def test_biconnectivity_check_matches_vertex_deletion():
    """The one-search check agrees with the definition on random small
    graphs: uniform edge subsets (mostly disconnected or with cut
    vertices), cycles plus chords, and two such blocks glued at a vertex."""
    rng = random.Random(5)
    verdicts = []
    for _ in range(600):
        n = rng.randint(1, 9)
        vertices = list(range(1, n + 1))
        pairs = list(itertools.combinations(vertices, 2))
        kind = rng.randrange(3)
        if kind == 0 or n < 5:
            edges = [p for p in pairs if rng.random() < rng.random()]
        else:
            cut = rng.randint(3, n - 2) if kind == 2 else n
            blocks = [vertices[:cut], vertices[cut - 1:]] if kind == 2 else [vertices]
            edges = set()
            for block in blocks:
                ring = rng.sample(block, len(block))
                edges |= {tuple(sorted(e)) for e in zip(ring, ring[1:] + ring[:1])}
                inner = list(itertools.combinations(sorted(block), 2))
                edges |= set(rng.sample(inner, rng.randint(0, len(inner) // 2)))
            edges = sorted(edges)
        order = rng.sample(vertices, n)
        inst = LayoutInstance.build(vertices, edges, order)
        want = biconnected_by_vertex_deletion(inst)
        assert _is_biconnected(inst) == want, (n, edges)
        verdicts.append((kind, want))
    for kind, want in ((0, False), (0, True), (1, True), (2, False)):
        assert verdicts.count((kind, want)) >= 20, (kind, want, verdicts.count((kind, want)))


def test_generator_determinism():
    a = generate_random_biconnected(12, 20, seed=77)
    b = generate_random_biconnected(12, 20, seed=77)
    assert a.edges == b.edges and a.order == b.order
    c = generate_random_biconnected(12, 20, seed=78)
    assert c.edges != a.edges


def test_generator_draws_the_chords_of_the_sorted_pair_list():
    """The chords are those that sampling the sorted list of non-cycle
    vertex pairs draws, from sparse to complete graphs."""
    for n, m, seed in ((3, 3, 0), (6, 15, 1), (9, 20, 2), (30, 60, 3), (40, 104, 11)):
        rng = random.Random(seed)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        cycle = {tuple(sorted(e)) for e in zip(perm, perm[1:] + perm[:1])}
        pairs = sorted(set(itertools.combinations(range(1, n + 1), 2)) - cycle)
        want = sorted(cycle) + sorted(rng.sample(pairs, m - n))
        assert list(generate_random_biconnected(n, m, seed).edges) == want


def test_generator_memory_does_not_grow_with_the_vertex_pairs():
    tracemalloc.start()
    try:
        generate_random_biconnected(800, 1200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MiB"


def test_generator_rejects_infeasible():
    with pytest.raises(ValueError):
        generate_random_biconnected(2, 3, seed=0)
    with pytest.raises(ValueError):
        generate_random_biconnected(5, 4, seed=0)
    with pytest.raises(ValueError):
        generate_random_biconnected(5, 11, seed=0)


# -- experiment ---------------------------------------------------------------


def test_run_experiment_row_invariants():
    config = ExperimentConfig(cases=((8, 14), (10, 18)), repetitions=3, seed_base=50)
    rows = run_experiment(config, clock=lambda: 0.0)
    assert len(rows) == 6
    for row in rows:
        inst = generate_random_biconnected(row["n"], row["m"], row["seed"])
        crossings = count_crossings(inst, TwoSidedAssignment.from_exterior(inst, ()))[0]
        assert row["crossings_1sided"] == crossings
        assert row["saved_pct_k1"] >= row["saved_pct_k0"]
        assert row["W_k1_w1"] >= row["W_k1_w2"] >= row["W_k0"] >= 0


def test_trivial_rows_report_full_savings():
    config = ExperimentConfig(cases=((4, 4),), repetitions=1, seed_base=1)
    rows = run_experiment(config, clock=lambda: 0.0)  # seed 2 is crossing-free
    assert rows[0]["trivial"]
    assert rows[0]["saved_pct_k0"] == rows[0]["saved_pct_k1"] == 100.0
    # trivial rows are excluded from aggregate means
    assert mean_saved_pct(rows) == (100.0, 100.0)
    mixed = rows + run_experiment(
        ExperimentConfig(cases=((8, 14),), repetitions=1, seed_base=50),
        clock=lambda: 0.0,
    )
    k0_mean, _ = mean_saved_pct(mixed)
    assert k0_mean == mixed[1]["saved_pct_k0"]


def test_csv_schema_and_determinism():
    config = ExperimentConfig(cases=((8, 14),), repetitions=2, seed_base=9)
    a = rows_to_csv(run_experiment(config, clock=lambda: 0.0))
    b = rows_to_csv(run_experiment(config, clock=lambda: 0.0))
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)


def test_each_experiment_solve_is_timed():
    # a clock that advances one second per reading: every timed solve spans
    # exactly two readings of its own
    ticks = itertools.count()
    config = ExperimentConfig(cases=((8, 14),), repetitions=2)
    rows = run_experiment(config, clock=lambda: next(ticks))
    for row in rows:
        assert row["time_k0_ms"] == row["time_k1_ms"] == row["time_k1_w2_ms"] == 1000.0


# -- CLI ----------------------------------------------------------------------


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4diag.txt"
    path.write_text("4 6\n1 2\n2 3\n3 4\n1 4\n1 3\n2 4\n")
    return str(path)


def test_cli_solve_outputs(c4_file, tmp_path, capsys):
    json_path = tmp_path / "sol.json"
    svg_path = tmp_path / "out.svg"
    code = main(
        ["solve", c4_file, "--k", "0", "--json", str(json_path), "--svg", str(svg_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "W = 1" in out
    assert "interior=0" in out
    payload = json.loads(json_path.read_text())
    assert set(payload) == {"edges_exterior", "weight", "interior", "exterior"}
    assert payload["weight"] == 1
    assert payload["interior"] == 0
    assert svg_path.read_text().startswith("<?xml")


def test_cli_solve_deterministic_artifacts(c4_file, tmp_path):
    paths = []
    for tag in ("a", "b"):
        json_path = tmp_path / f"{tag}.json"
        svg_path = tmp_path / f"{tag}.svg"
        assert main(
            ["solve", c4_file, "--k", "1", "--json", str(json_path), "--svg", str(svg_path)]
        ) == 0
        paths.append((json_path.read_bytes(), svg_path.read_bytes()))
    assert paths[0] == paths[1]


def test_cli_solve_makes_one_full_size_crossing_pass(tmp_path, monkeypatch):
    """A solve with SVG and stats counts crossings in two sweeps: one over
    all m edges, for the layout, and one over the exterior edges, shared by
    every count of the chosen drawing."""
    from twosided import model

    inst = generate_random_biconnected(20, 52, seed=3)
    path = tmp_path / "g.txt"
    path.write_text(format_graph(inst))
    sizes = []
    real = model.crossings_per_chord

    def recorded(instance, edge_ids):
        ids = list(edge_ids)
        sizes.append(len(ids))
        return real(instance, ids)

    monkeypatch.setattr(model, "crossings_per_chord", recorded)
    json_path = tmp_path / "sol.json"
    svg_path = tmp_path / "g.svg"
    assert main(["solve", str(path), "--k", "1", "--json", str(json_path), "--svg", str(svg_path)]) == 0
    n_exterior = len(json.loads(json_path.read_text())["edges_exterior"])
    assert 0 < n_exterior < 52
    assert sizes == [52, n_exterior]


def test_cli_solve_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("3 0\n")
    assert main(["solve", str(path), "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "W = 0" in out
    assert "exterior edges (0):" in out


NO_NUMPY = """
import sys
from twosided import cli, format_graph, generate_random_biconnected, solve_layout

inst = generate_random_biconnected(12, 30, seed=5)
solve_layout(inst, 1)
d = sys.argv[1]
with open(f"{d}/g.txt", "w") as fh:
    fh.write(format_graph(inst))
code = cli.main(["solve", f"{d}/g.txt", "--k", "1", "--json", f"{d}/g.json", "--svg", f"{d}/g.svg"])
if code or "numpy" in sys.modules:
    sys.exit(f"exit code {code}, numpy loaded: {'numpy' in sys.modules}")
"""


def test_solve_and_cli_load_no_numpy(tmp_path):
    """The package has no third-party dependency: importing it, one
    solve_layout and one ``twosided solve`` leave numpy unloaded."""
    src = str(Path(twosided.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "g.svg").exists()


def test_cli_oracle(c4_file, capsys):
    assert main(["oracle", c4_file, "--k", "0"]) == 0
    out = capsys.readouterr().out
    assert "optimal total crossings: 0" in out


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    assert main(["solve", str(bad)]) == 1
    assert main(["solve", str(tmp_path / "missing.txt")]) == 1

    big = generate_random_biconnected(17, 17, seed=1)
    big_path = tmp_path / "big.txt"
    big_path.write_text(format_graph(big))
    assert main(["oracle", str(big_path)]) == 2
    capsys.readouterr()


def test_cli_negative_k_is_exit_1(c4_file, capsys):
    for command in ("solve", "oracle"):
        assert main([command, c4_file, "--k", "-1"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: k must be non-negative\n")


def test_cli_memo_budget_is_exit_2(tmp_path, capsys, monkeypatch):
    """A general-k solve past the memo-state limit exits with code 2 and a
    one-line diagnostic, like the oracle's size guard."""
    from twosided import solver_general

    path = tmp_path / "g.txt"
    path.write_text(format_graph(generate_random_biconnected(8, 16, seed=3)))
    monkeypatch.setattr(solver_general, "MAX_MEMO_STATES", 20)
    assert main(["solve", str(path), "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the general-k solve (k=3, 16 intervals) exceeds the limit of 20 memo states\n"
    )
    monkeypatch.setattr(solver_general, "MAX_MEMO_STATES", 10**6)
    assert main(["solve", str(path), "--k", "3"]) == 0
    capsys.readouterr()


def test_cli_reduce_mds_memo_budget_is_exit_2(tmp_path, capsys, monkeypatch):
    """``reduce-mds`` solves its reduction (k = 8 and 128 intervals here)
    with the general-k solver; past the memo-state limit it exits with
    code 2 and one line on stderr."""
    from twosided import solver_general

    path = tmp_path / "g.txt"
    path.write_text(format_graph(generate_random_biconnected(8, 20, seed=3)))
    monkeypatch.setattr(solver_general, "MAX_MEMO_STATES", 50)
    assert main(["reduce-mds", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: the general-k solve (k=8, 128 intervals) exceeds the limit of 50 memo states\n"
    )


def test_cli_overlap_pair_limit_is_exit_2(tmp_path, capsys, monkeypatch):
    """A layout with more crossing chord pairs than the projection's limit
    is refused before it is projected: ``solve_layout`` raises the size
    error and ``twosided solve`` exits with code 2 and a one-line
    diagnostic.  A layout at the limit solves."""
    from twosided import transform
    from twosided.pipeline import solve_layout

    instance = generate_random_biconnected(8, 16, seed=3)
    pairs = sum(instance.crossings_per_edge) // 2
    path = tmp_path / "g.txt"
    path.write_text(format_graph(instance))
    monkeypatch.setattr(transform, "MAX_OVERLAP_PAIRS", pairs - 1)
    with pytest.raises(transform.ProjectionSizeError, match=f"{pairs} crossing chord pairs"):
        solve_layout(instance, 1)
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {pairs} crossing chord pairs exceed the limit of {pairs - 1}\n"
    )
    monkeypatch.setattr(transform, "MAX_OVERLAP_PAIRS", pairs)
    assert main(["solve", str(path)]) == 0
    capsys.readouterr()


def test_size_guards_share_one_base_and_keep_their_builtin_bases():
    """The three size guards derive from ``SizeGuardError``, which ``main``
    maps to exit 2, and each still from the builtin error it raised before:
    an ``except ValueError`` or ``except RuntimeError`` caller catches it as
    it did."""
    from twosided.model import SizeGuardError
    from twosided.oracle import OracleSizeError
    from twosided.solver_general import SolverBudgetError
    from twosided.transform import ProjectionSizeError

    for guard, builtin in (
        (OracleSizeError, ValueError),
        (ProjectionSizeError, ValueError),
        (SolverBudgetError, RuntimeError),
    ):
        for base in (SizeGuardError, builtin):
            with pytest.raises(base):
                raise guard("too large")
    assert not issubclass(SizeGuardError, (ValueError, RuntimeError))


def test_cli_bench_failure_is_exit_1(capsys):
    """An instance that cannot be generated stops the run: no CSV and no
    summary, exit code 1 and a one-line diagnostic."""
    assert main(["bench", "--sizes", "4", "--density", "3"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: 12 edges do not fit in a simple graph on 4 vertices\n"
    )


def test_cli_bench_refuses_an_empty_experiment(capsys):
    """No repetitions or no sizes is an error, not a header-only CSV."""
    for args, message in (
        (["--sizes", "8", "--reps", "0"], "repetitions must be at least 1, got 0"),
        (["--sizes", ""], "the experiment has no (n, m) cases"),
    ):
        assert main(["bench", *args]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    with pytest.raises(ValueError):
        ExperimentConfig(cases=((8, 14),), repetitions=-1)


def test_cli_bench_summary_counts_non_trivial_rows(capsys):
    """The stderr means name how many non-trivial rows they cover, and say
    there are none instead of reporting 100%."""
    args = ["bench", "--density", "1", "--seed-base", "1", "--stable-times"]
    assert main(args + ["--sizes", "4"]) == 0  # seed 2 is crossing-free
    assert capsys.readouterr().err == (
        "mean saved crossings over the non-trivial rows (0 of 1): "
        "none, every instance is crossing-free\n"
    )
    assert main(args + ["--sizes", "4,8"]) == 0
    assert capsys.readouterr().err == (
        "mean saved crossings over the non-trivial rows (1 of 2): "
        "k=0: 87.50%  k=1: 87.50%\n"
    )


def test_solve_layout_checks_its_accounting(monkeypatch):
    """A solution whose weight breaks the crossing accounting of its mode is
    rejected by solve_layout itself."""
    from twosided import pipeline

    solve_k = pipeline.solve_k

    def off_by_one(s, k, **kwargs):
        sol = solve_k(s, k, **kwargs)
        return dataclasses.replace(sol, weight=sol.weight + 1)

    monkeypatch.setattr(pipeline, "solve_k", off_by_one)
    instance = generate_random_biconnected(8, 16, seed=3)
    for mode in EdgeWeightMode:
        with pytest.raises(AssertionError, match="accounting broken"):
            pipeline.solve_layout(instance, 1, mode)


def test_cli_argparse_error_is_exit_1(capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve"])  # missing the graph argument
    assert err.value.code == 1
    capsys.readouterr()


def test_cli_reduce_mds(c4_file, tmp_path, capsys):
    dump = tmp_path / "reduced.txt"
    assert main(["reduce-mds", c4_file, "--dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "degree bound k=1" in out
    assert "minimum dominating set" in out
    assert dump.read_text().splitlines()[0].split()[0] == "0"


def test_cli_bench_stable(tmp_path, capsys):
    args = [
        "bench", "--sizes", "8,9", "--density", "1.6", "--reps", "2",
        "--seed-base", "5", "--stable-times",
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
