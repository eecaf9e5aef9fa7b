"""The benchmark's workloads: seeded inputs, warm-up, one solve, its checks.

A *solve* is one user-level call: ``solve_layout`` for the API workloads and
``twosided solve --k 1 --svg --json`` through ``cli.main`` for the CLI
workload.  Inputs come from a pool of *batches* built at set-up; every batch
of a workload holds the same kinds of solve, and a run attempts whole
batches, cycling through the pool.  The program is imported only in
``setup``, so import time counts as set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from functools import cached_property
from xml.etree import ElementTree

import checks
from gen import format_graph_file, local_chord_graph, uniform_chord_graph


@dataclass(eq=False)
class Graph:
    n: int
    edges: list
    order: list
    instance: object = None  # the program's LayoutInstance (API workloads)
    path: str | None = None  # the graph file (CLI workload)

    @cached_property
    def drawing(self) -> checks.Drawing:
        return checks.Drawing.of(self.n, self.edges, self.order)


@dataclass(eq=False)
class Case:
    """One solve: a graph, the bound k and the pair weight (1 minimizes
    interior crossings, 2 total crossings)."""

    graph: Graph
    k: int
    pair_weight: int

    @cached_property
    def optimum(self) -> int:
        d = self.graph.drawing
        if self.k <= 1:
            return checks.optimum_k01(d, self.k, self.pair_weight)
        return checks.optimum_milp(d, self.k, self.pair_weight)

    @property
    def label(self) -> str:
        return f"n{self.graph.n}-m{len(self.graph.edges)}-k{self.k}-w{self.pair_weight}"


class Workload:
    name = ""
    pool_batches = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.batches: list[list[Case]] = []

    def setup(self) -> None:
        """Import the program, build the input pool, warm every code path."""
        import twosided  # noqa: F401  (import time is part of set-up)

        rng = random.Random(f"{self.name}/{self.seed}")
        self.batches = [self.make_batch(rng, b) for b in range(self.pool_batches)]
        self.warm_up()

    def make_batch(self, rng: random.Random, index: int) -> list[Case]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """First call of each code path, on a tiny graph, kept out of every
        solve time."""
        tiny = Graph(*uniform_chord_graph(6, 10, random.Random(0)))
        kinds = {(c.k, c.pair_weight) for c in self.batches[0]}
        for k, pw in sorted(kinds):
            self.prepare(tiny, f"warm-up-{k}-{pw}")
            self.solve(Case(tiny, k, pw))

    def prepare(self, graph: Graph, tag: str) -> None:
        """Hand the generated graph to the program's input form."""
        raise NotImplementedError

    def solve(self, case: Case):
        raise NotImplementedError

    def digest(self, output):
        """What the checks need of a solve's output, kept after the solve
        instead of the output itself."""
        return output

    def errors(self, case: Case, output) -> list[str]:
        raise NotImplementedError


class ApiWorkload(Workload):
    """Solves through ``twosided.pipeline.solve_layout``."""

    force_general = False

    def prepare(self, graph: Graph, tag: str) -> None:
        from twosided.model import LayoutInstance

        graph.instance = LayoutInstance.build(range(1, graph.n + 1), graph.edges, graph.order)

    def graph(self, n: int, m: int, rng: random.Random) -> Graph:
        g = Graph(*uniform_chord_graph(n, m, rng))
        self.prepare(g, "")
        return g

    def solve(self, case: Case):
        from twosided import pipeline
        from twosided.transform import EdgeWeightMode

        return pipeline.solve_layout(
            case.graph.instance, case.k, EdgeWeightMode(case.pair_weight),
            force_general=self.force_general,
        )

    def digest(self, res):
        return (res.k, res.mode.value, sorted(res.assignment.exterior), res.solution.weight,
                res.crossings_one_sided, res.interior, res.exterior)

    def errors(self, case: Case, digest) -> list[str]:
        k, pair_weight, *reported = digest
        errs = []
        if (k, pair_weight) != (case.k, case.pair_weight):
            errs.append(f"solved k={k} mode={pair_weight}, asked {case.k}/{case.pair_weight}")
        return errs + checks.solution_errors(
            case.graph.drawing, case.k, case.pair_weight, case.optimum, *reported)


class ExperimentK01(ApiWorkload):
    """The paper's experiment: each random biconnected graph (density 2.6)
    is solved at k=0 counting interior crossings, and at k=1 counting
    interior and total crossings."""

    name = "experiment-k01"
    pool_batches = 48
    n = 40

    def make_batch(self, rng, index):
        g = self.graph(self.n, round(2.6 * self.n), rng)
        return [Case(g, 0, 1), Case(g, 1, 1), Case(g, 1, 2)]


class GeneralK(ApiWorkload):
    """Small random biconnected graphs through the general-k solver: one at
    k=2 counting total crossings and a smaller one at k=3 counting interior
    crossings, sized so that both take about as long."""

    name = "general-k"
    pool_batches = 160
    force_general = True

    def make_batch(self, rng, index):
        return [Case(self.graph(8, 20, rng), 2, 2), Case(self.graph(7, 15, rng), 3, 1)]


_STDOUT = {
    "weight": re.compile(r"^W = (-?\d+)$", re.M),
    "crossings": re.compile(
        r"^crossings: one-sided=(\d+) interior=(\d+) exterior=(\d+) total=(\d+)$", re.M),
    "worst": re.compile(r"^max exterior crossings per edge: (\d+) \(k=(\d+)\)$", re.M),
}


class LargeLocal(Workload):
    """Large drawings (m=1200) with short chords, solved at k=1 through the
    CLI, which parses the graph file and writes the SVG and JSON outputs."""

    name = "large-local"
    pool_batches = 16
    m = 1200
    reach = 6

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.outputs = 0

    def prepare(self, graph: Graph, tag: str) -> None:
        graph.path = os.path.join(self.workdir, f"{tag}.txt")
        with open(graph.path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(format_graph_file(graph.n, graph.edges, graph.order))

    def make_batch(self, rng, index):
        g = Graph(*local_chord_graph(2 * self.m // 5, self.m, self.reach, rng))
        self.prepare(g, f"batch{index}")
        return [Case(g, 1, 2)]

    def solve(self, case: Case):
        from twosided import cli

        self.outputs += 1
        stem = os.path.join(self.workdir, f"out{self.outputs}")
        argv = ["solve", case.graph.path, "--k", str(case.k),
                "--weight-mode", str(case.pair_weight),
                "--svg", stem + ".svg", "--json", stem + ".json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue(), stem

    def errors(self, case: Case, output) -> list[str]:
        code, text, stem = output
        if code != 0:
            return [f"exit code {code}"]
        with open(stem + ".json", encoding="ascii") as fh:
            sol = json.load(fh)
        found = {key: rx.search(text) for key, rx in _STDOUT.items()}
        missing = [key for key, mt in found.items() if mt is None]
        if missing:
            return [f"stdout lacks the {', '.join(missing)} line(s)"]
        one_sided, interior, exterior, total = map(int, found["crossings"].groups())
        d = case.graph.drawing
        ext = sol["edges_exterior"]
        errs = checks.solution_errors(d, case.k, case.pair_weight, case.optimum, ext,
                                      sol["weight"], one_sided, sol["interior"], sol["exterior"])
        printed = (int(found["weight"].group(1)), interior, exterior, total)
        if printed != (sol["weight"], sol["interior"], sol["exterior"], sol["interior"] + sol["exterior"]):
            errs.append(f"stdout {printed} disagrees with the JSON {sol}")
        if int(found["worst"].group(1)) != d.max_crossings_within(ext):
            errs.append("stdout misreports the most exterior crossings on one edge")
        return errs + svg_errors(stem + ".svg", d.n, d.m, len(ext))


def svg_errors(path: str, n: int, m: int, n_exterior: int) -> list[str]:
    """The drawing has one straight line per interior edge, one arc per
    exterior edge and one circle per vertex besides the guide circle."""
    ns = "{http://www.w3.org/2000/svg}"
    try:
        root = ElementTree.parse(path).getroot()
    except ElementTree.ParseError as exc:
        return [f"SVG is not well-formed: {exc}"]
    got = {tag: len(root.findall(f".//{ns}{tag}")) for tag in ("line", "path", "circle")}
    want = {"line": m - n_exterior, "path": n_exterior, "circle": n + 1}
    return [f"SVG has {got} elements, expected {want}"] if got != want else []


WORKLOADS = {w.name: w for w in (ExperimentK01, LargeLocal, GeneralK)}
