"""Command-line entry point.

Subcommands:

* ``solve``       -- optimal outer k-plane exterior set for a graph file;
                     optionally writes the drawing (SVG) and the solution
                     (JSON).
* ``oracle``      -- brute-force reference solve for small instances.
* ``reduce-mds``  -- dominating-set reduction round trip on the graph's
                     circle graph.
* ``bench``       -- experiment harness producing a CSV.

Exit codes: 0 on success, 1 on parse errors, 2 on size guards, the
subclasses of ``model.SizeGuardError``: the brute-force oracle's instance
limits, the projection's limit on crossing chord pairs
(``transform.MAX_OVERLAP_PAIRS``, which keeps a k=1 solve under about 520 MiB)
and the general-k solver's memo-state limit
(``solver_general.MAX_MEMO_STATES``, which ends a ``solve`` or ``reduce-mds``
whose memo would outgrow it).  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import ExperimentConfig, mean_saved_pct, rows_to_csv, run_experiment
from .graphio import GraphParseError, dump_intervals, parse_graph_file
from .hardness import extract_dominating_set, reduce_mds_to_bdmwis
from .model import SizeGuardError
from .oracle import brute_force_two_sided
from .pipeline import solve_layout
from .render import layout_stats, render_layout
from .solver_general import solve_k
from .transform import EdgeWeightMode, project_to_intervals

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_GUARD = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="twosided", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="exact outer k-plane crossing minimization")
    p_solve.add_argument("graph", help="graph input file")
    p_solve.add_argument("--k", type=int, default=1, help="max crossings per exterior edge")
    p_solve.add_argument(
        "--weight-mode",
        type=int,
        choices=(1, 2),
        default=2,
        help="1: minimize interior crossings; 2: minimize total crossings",
    )
    p_solve.add_argument("--svg", metavar="PATH", help="write the drawing here")
    p_solve.add_argument("--json", metavar="PATH", help="write the solution here")
    p_solve.add_argument("--labels", action="store_true", help="label vertices in the SVG")

    p_oracle = sub.add_parser("oracle", help="brute-force reference (small instances)")
    p_oracle.add_argument("graph")
    p_oracle.add_argument("--k", type=int, default=1)
    p_oracle.add_argument("--weight-mode", type=int, choices=(1, 2), default=2)

    p_red = sub.add_parser("reduce-mds", help="dominating-set reduction round trip")
    p_red.add_argument("graph")
    p_red.add_argument("--dump", metavar="PATH", help="write the reduced interval set here")
    p_red.add_argument(
        "--no-solve", action="store_true", help="only build the reduction, do not solve it"
    )

    p_bench = sub.add_parser("bench", help="run the experiment harness")
    p_bench.add_argument("--sizes", default="20:40", help="vertex counts, 'lo:hi' or comma list")
    p_bench.add_argument("--density", type=float, default=2.6, help="edges per vertex")
    p_bench.add_argument("--reps", type=int, default=1, help="instances per size")
    p_bench.add_argument("--seed-base", type=int, default=0)
    p_bench.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    p_bench.add_argument(
        "--stable-times",
        action="store_true",
        help="zero the timing columns for byte-reproducible output",
    )
    return parser


def _parse_sizes(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        lo_i, hi_i = int(lo), int(hi)
        if lo_i > hi_i:
            raise ValueError(f"bad size range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return [int(x) for x in text.split(",") if x]


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_graph_file(args.graph)
    mode = EdgeWeightMode(args.weight_mode)
    result = solve_layout(instance, args.k, mode)
    stats = layout_stats(instance, result.assignment)
    exterior = sorted(result.assignment.exterior)
    print(f"W = {result.solution.weight}")
    print(
        f"crossings: one-sided={result.crossings_one_sided} "
        f"interior={result.interior} exterior={result.exterior} total={result.total}"
    )
    print(f"max exterior crossings per edge: {stats.max_exterior_crossings} (k={args.k})")
    print(f"exterior edges ({len(exterior)}): " + " ".join(str(e) for e in exterior))
    if args.json:
        payload = {
            "edges_exterior": exterior,
            "weight": result.solution.weight,
            "interior": result.interior,
            "exterior": result.exterior,
        }
        with open(args.json, "w", encoding="ascii", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.svg:
        with open(args.svg, "w", encoding="ascii", newline="\n") as fh:
            fh.write(render_layout(instance, result.assignment, labels=args.labels))
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = parse_graph_file(args.graph)
    mode = EdgeWeightMode(args.weight_mode)
    assignment, interior, total = brute_force_two_sided(instance, args.k, mode)
    print(f"optimal interior crossings: {interior}")
    print(f"optimal total crossings: {total}")
    print(
        f"exterior edges ({len(assignment.exterior)}): "
        + " ".join(str(e) for e in sorted(assignment.exterior))
    )
    return EXIT_OK


def _cmd_reduce_mds(args: argparse.Namespace) -> int:
    instance = parse_graph_file(args.graph)
    projection = project_to_intervals(instance)
    reduced = reduce_mds_to_bdmwis(projection.interval_set)
    print(
        f"circle graph: {len(projection.interval_set)} vertices, "
        f"{len(projection.interval_set.partner)} links"
    )
    print(
        f"reduced instance: {len(reduced.intervals)} intervals "
        f"({len(reduced.leaf_parent)} leaves), degree bound k={reduced.k}"
    )
    if args.dump:
        with open(args.dump, "w", encoding="ascii", newline="\n") as fh:
            fh.write(dump_intervals(reduced.intervals))
    if not args.no_solve:
        solution = solve_k(reduced.intervals, reduced.k)
        dom = sorted(extract_dominating_set(solution, reduced))
        print(
            f"minimum dominating set of the circle graph ({len(dom)} nodes): "
            + " ".join(str(v) for v in dom)
        )
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = _parse_sizes(args.sizes)
    config = ExperimentConfig.density_sweep(
        sizes, density=args.density, repetitions=args.reps, seed_base=args.seed_base
    )
    clock = (lambda: 0.0) if args.stable_times else None
    rows = run_experiment(config, clock=clock)
    csv_text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    usable = sum(1 for row in rows if not row["trivial"])
    if usable:
        k0, k1 = mean_saved_pct(rows)
        summary = f"k=0: {k0:.2f}%  k=1: {k1:.2f}%"
    else:
        summary = "none, every instance is crossing-free"
    print(
        f"mean saved crossings over the non-trivial rows ({usable} of {len(rows)}): {summary}",
        file=sys.stderr,
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "reduce-mds":
            return _cmd_reduce_mds(args)
        if args.command == "bench":
            return _cmd_bench(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (GraphParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
