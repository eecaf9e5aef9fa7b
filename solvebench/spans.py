"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.installed()`` replaces the public function at each layer boundary
(in the namespaces the program calls it through) with a wrapper that records
a span: name, start, end, parent span and the solve it belongs to.  Spans
stay in memory and are written out once, at the end of the run.  A layer's
self time is its spans' durations minus the durations of their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
import tracemalloc

# (module, attribute, span name).  A function bound into several namespaces
# is wrapped in each one the program calls it through.
BOUNDARIES = (
    ("twosided.cli", "main", "cli.main"),
    ("twosided.cli", "parse_graph_file", "graphio.parse_graph_file"),
    ("twosided.cli", "solve_layout", "pipeline.solve_layout"),
    ("twosided.pipeline", "solve_layout", "pipeline.solve_layout"),
    ("twosided.pipeline", "project_to_intervals", "transform.project_to_intervals"),
    ("twosided.pipeline", "solve_k", "solver.solve_k"),
    ("twosided.solver_general", "solve_k0", "solver_k1.solve_k0"),
    ("twosided.solver_general", "solve_k1", "solver_k1.solve_k1"),
    ("twosided.solver_general", "GeneralSolver.solve", "solver_general.solve"),
    ("twosided.pipeline", "count_crossings", "model.count_crossings"),
    ("twosided.render", "count_crossings", "model.count_crossings"),
    ("twosided.cli", "layout_stats", "render.layout_stats"),
    ("twosided.cli", "render_layout", "render.render_layout"),
)

# Per-layer metric -> the span names whose self time it sums.
SELF_TIME = {
    "solver_k1.solve_s": ("solver_k1.solve_k0", "solver_k1.solve_k1"),
    "transform.project_s": ("transform.project_to_intervals",),
    "model.count_crossings_s": ("model.count_crossings",),
    "render.layout_stats_s": ("render.layout_stats",),
    "render.render_s": ("render.render_layout",),
    "graphio.parse_s": ("graphio.parse_graph_file",),
    "cli.self_s": ("cli.main",),
    "pipeline.self_s": ("pipeline.solve_layout", "solver.solve_k"),
    "solver_general.solve_s": ("solver_general.solve",),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.solve_id = -1
        self.last_intervals = None  # interval set of the latest projection
        self.last_solve_k = None  # (k, force_general) of the latest solve_k

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "solve": self.solve_id,
               "parent": self._stack[-1] if self._stack else None,
               "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if name == "transform.project_to_intervals":
                    self.last_intervals = result.interval_set
                elif name == "solver.solve_k":
                    k = args[1] if len(args) > 1 else kwargs["k"]
                    self.last_solve_k = (k, kwargs.get("force_general", args[2] if len(args) > 2 else False))
                elif name == "solver_general.solve":
                    rec["memo_states"] = len(args[0].f_memo)
                return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module, path, name in BOUNDARIES:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def extra_fill(self) -> None:
        """Time one more k<=1 table fill (``compute_dms1``) on the interval
        set of the solve just traced, outside that solve's span."""
        if self.last_solve_k is None or self.last_intervals is None:
            return
        k, force_general = self.last_solve_k
        if k > 1 or force_general:
            return
        from twosided.solver_k1 import compute_dms1

        with self.span("solver_k1.compute_dms1"):
            compute_dms1(self.last_intervals, include_pairs=k == 1)
        self.last_intervals = self.last_solve_k = None

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end_ns"] - rec["start_ns"]
        out: dict[str, float] = {}
        for rec, c in zip(self.spans, child):
            out[rec["name"]] = out.get(rec["name"], 0.0) + (rec["end_ns"] - rec["start_ns"] - c) / 1e9
        return out

    def layer_metrics(self, solves: int, untraced_s: float, peak_alloc_mb: float) -> dict[str, float]:
        """Per-layer metrics, each per traced solve."""
        own = self.self_times()
        metrics = {name: sum(own.get(s, 0.0) for s in spans) / solves
                   for name, spans in SELF_TIME.items()}
        metrics["solver_k1.fill_s"] = own.get("solver_k1.compute_dms1", 0.0) / solves
        metrics["solver_k1.sweep_recover_s"] = metrics["solver_k1.solve_s"] - metrics["solver_k1.fill_s"]
        metrics["model.count_crossings_calls"] = sum(
            r["name"] == "model.count_crossings" for r in self.spans) / solves
        memo = [r["memo_states"] for r in self.spans if "memo_states" in r]
        metrics["solver_general.memo_states"] = sum(memo) / len(memo) if memo else 0.0
        metrics["solver_general.peak_alloc_mb"] = peak_alloc_mb
        traced = sum(r["end_ns"] - r["start_ns"] for r in self.spans if r["name"] == "solve") / 1e9
        metrics["trace.overhead_s"] = (traced - untraced_s) / solves
        return metrics

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **rec}) + "\n")


def peak_alloc_mb(solve, cases) -> float:
    """Largest tracemalloc peak, in MiB, of one general-k solve among
    ``cases``, above what was allocated when the solve began."""
    from twosided.solver_general import GeneralSolver

    inner = GeneralSolver.solve
    peaks = []

    def measured(self):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return inner(self)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    GeneralSolver.solve = measured
    tracemalloc.start()
    try:
        for case in cases:
            solve(case)
    finally:
        tracemalloc.stop()
        GeneralSolver.solve = inner
    return max(peaks, default=0) / 2**20
