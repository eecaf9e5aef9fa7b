"""Both dynamic programs' outputs, the k<=1 pipeline's layouts and the
dominating-set reduction's instances, pinned as sha256 digests.

A refactor of either DP that keeps every optimum, every recovered set and
every table entry keeps these digests; any change in tie-breaking or in a
value changes them.  A rewrite of ``reduce_mds_to_bdmwis`` that lays out the
same spans and leaves keeps the reduction's digest.  The command line's
stdout and JSON on a fixed set of graphs are pinned too; its SVG is not, as
its coordinates go through ``math.cos``/``math.sin``, whose last bit may
differ between C libraries.  The memo size of the general-k solver is left
out on purpose: an exact reduction of its state space may lower it.
"""

import hashlib
import random

from twosided.bench import generate_random_biconnected, random_interval_set
from twosided.cli import main
from twosided.graphio import format_graph
from twosided.hardness import reduce_mds_to_bdmwis
from twosided.model import overlap_pairs_within
from twosided.pipeline import solve_layout
from twosided.solver_general import GeneralSolver
from twosided.solver_k1 import compute_dms1, solve_k0, solve_k1
from twosided.transform import EdgeWeightMode


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def _k01_records():
    for seed in range(600):
        s = random_interval_set(random.Random(seed).randint(1, 40), seed)
        table = compute_dms1(s)
        yield seed, sorted(table.single.items()), sorted(table.pair.items())
        for sol in (solve_k0(s), solve_k1(s)):
            yield sol.weight, sorted(sol.chosen), sorted(sol.overlap_pairs)


def _layout_records():
    for n in range(8, 61, 2):
        for seed in range(3):
            instance = generate_random_biconnected(n, round(2.6 * n), seed)
            for mode in EdgeWeightMode:
                for k in (0, 1):
                    r = solve_layout(instance, k, mode)
                    yield n, seed, mode.name, k, r.solution.weight, sorted(r.assignment.exterior)
                    yield r.interior, r.exterior


def _general_records():
    for seed in range(300):
        s = random_interval_set(random.Random(seed).randint(3, 12), seed)
        for k in range(4):
            sol = GeneralSolver(s, k).solve()
            yield seed, k, sol.weight, sorted(sol.chosen)


def _reduction_records():
    for seed in range(400):
        g = random_interval_set(random.Random(seed).randint(0, 12), seed)
        red = reduce_mds_to_bdmwis(g)
        s = red.intervals
        yield seed, red.k, red.n_original, sorted(red.leaf_parent.items())
        yield [(iv.left, iv.right) for iv in s], [iv.weight for iv in s]
        yield [(p, s.pair_weight(*p)) for p in sorted(overlap_pairs_within(range(len(s)), s))]


def _cli_records(tmp_path, capsys):
    graphs = {
        "c4": "4 6\n1 2\n2 3\n3 4\n1 4\n1 3\n2 4\n",
        "g8": format_graph(generate_random_biconnected(8, 20, seed=3)),
        "g8sparse": format_graph(generate_random_biconnected(8, 10, seed=3)),
        "g10": format_graph(generate_random_biconnected(10, 24, seed=5)),
        "g40": format_graph(generate_random_biconnected(40, 104, seed=11)),
    }
    for name, text in graphs.items():
        (tmp_path / name).write_text(text)
    calls = [
        [name, "solve", "--k", str(k), "--weight-mode", str(mode), "--json"]
        for name, ks in (("c4", range(4)), ("g8", range(4)), ("g10", range(4)), ("g40", range(2)))
        for k in ks
        for mode in (1, 2)
    ]
    calls += [["c4", "oracle", "--k", str(k)] for k in range(2)]
    calls += [["c4", "reduce-mds"], ["g8sparse", "reduce-mds"]]
    calls.append(["g8", "reduce-mds", "--no-solve", "--dump"])
    calls.append([None, "bench", "--sizes", "8:14", "--reps", "2", "--stable-times"])
    written = tmp_path / "written"
    for name, command, *args in calls:
        writes = args[-1:] in (["--json"], ["--dump"])
        argv = [command] + ([str(tmp_path / name)] if name else []) + args
        yield name, command, args, main(argv + [str(written)] * writes), capsys.readouterr().out
        if writes:
            yield written.read_text()


def test_k01_dp_outputs_are_pinned():
    """``compute_dms1`` tables and the ``solve_k0``/``solve_k1`` weights,
    chosen sets and overlapping pairs on 600 random interval sets."""
    assert _digest(_k01_records()) == (
        "0b517152f2336cf26dec8006fc6fa68688298344e975ca20f279e80f668bbf29"
    )


def test_k01_layout_outputs_are_pinned():
    """``solve_layout`` weights, sorted exterior sets and interior/exterior
    crossing counts at k=0/1 in both weight modes on the projections of
    ``generate_random_biconnected(n, round(2.6 * n), seed)``, n = 8..60 in
    steps of 2, seeds 0..2: layouts denser in overlapping pairs than the
    random interval sets above."""
    assert _digest(_layout_records()) == (
        "752526911762c5bd6c3eef0f46ba02915221dee58b8a7f0bab11c958a5403c4d"
    )


def test_general_k_dp_outputs_are_pinned():
    """``GeneralSolver(s, k).solve()`` weights and chosen sets at k=0..3 on
    300 random interval sets."""
    assert _digest(_general_records()) == (
        "e08c02454205f06ba237e487b50d30c9f67e3b0fa0836096de9e7b718faea972"
    )


def test_mds_reduction_instances_are_pinned():
    """``reduce_mds_to_bdmwis`` degree bound, leaf parents, spans, weights and
    pair weights on 400 random circle graphs with 0 to 12 vertices."""
    assert _digest(_reduction_records()) == (
        "d56c263d4a1773c4d3c7d89b3de4a4a405d89313695152887c0f5d73075fb540"
    )


def test_cli_outputs_are_pinned(tmp_path, capsys):
    """Exit code and stdout of ``twosided solve`` (and the JSON it writes) on
    C4 with diagonals and on ``generate_random_biconnected`` (8, 20, seed 3)
    and (10, 24, seed 5) at k=0..3 and (40, 104, seed 11) at k=0/1, in both
    weight modes; ``oracle`` on C4 at k=0/1; ``reduce-mds`` on C4 and on
    (8, 10, seed 3), and its dump of the reduced (8, 20, seed 3) instance,
    whose solve at k=8 exceeds the memo limit; the
    ``bench --sizes 8:14 --reps 2 --stable-times`` CSV."""
    assert _digest(_cli_records(tmp_path, capsys)) == (
        "77b239f64cf54fcfc93ec01ad1b09fce955042b7c3a0dd0b11d090ed0ed13719"
    )
