"""Solve benchmark for twosided-layout.

    python3 solvebench/run.py --workload experiment-k01 --seed 1 --seconds 25 --trace 0
    python3 solvebench/run.py --workload all --seed 1 --seconds 25

Each workload runs in this single process as a closed loop: the next solve
starts when the previous one returns.  The run attempts whole batches of
solves until ``--seconds`` have passed, then checks every output against the
references in ``checks.py``, outside the timed region.  With ``--trace 0``
the last stdout line reports the end-to-end metrics; with ``--trace 1`` it
reports per-layer metrics from a traced run (see ``spans.py``).  ``all``
runs every workload in turn, each in its own process.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 7
CALIBRATE_EVERY_S = 0.3
END_TO_END_UNITS = {"setup_s": "s", "solves_per_s": "1/s", "solve_p50_ms": "ms", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "solver_k1.fill_s": "s", "solver_k1.solve_s": "s", "solver_k1.sweep_recover_s": "s",
    "transform.project_s": "s", "model.count_crossings_s": "s",
    "model.count_crossings_calls": "count", "render.layout_stats_s": "s", "render.render_s": "s",
    "graphio.parse_s": "s", "cli.self_s": "s", "pipeline.self_s": "s",
    "solver_general.solve_s": "s", "solver_general.memo_states": "count",
    "solver_general.peak_alloc_mb": "MiB", "trace.overhead_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def program_available() -> bool:
    try:
        import twosided  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT}/src: {exc}", file=sys.stderr)
        return False
    return True


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def setup_seconds(args) -> float:
    """Set-up time at reference start-up speed: fresh processes that only
    import the program, build the inputs and warm up, each followed by a
    bare interpreter that imports numpy; the median ratio of the two wall
    times, times the bare process's reference time."""
    ratios = []
    for i in range(SETUP_PROBES):
        probe_dir = os.path.join(HERE, "out", f"probe-{os.getpid()}-{i}")
        probe = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-probe", probe_dir]
        walls = []
        for cmd in (probe, [sys.executable, "-c", "import numpy"]):
            t0 = time.perf_counter()
            done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            walls.append(time.perf_counter() - t0)
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        ratios.append(walls[0] / walls[1])
    return statistics.median(ratios) * speed.START_REFERENCE_S


def tail_percentile(times: list[float]):
    """The highest whole percentile with at least ten solves above it, and
    its value; None below forty solves."""
    n = len(times)
    if n < 40:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(times)[math.ceil(p / 100 * n) - 1]


class Run:
    """The solves of one run: outputs for the checks, and for each solve
    that returned its wall time and its time at reference speed.

    The calibration runs between solves, once per CALIBRATE_EVERY_S of
    solving (several times in a row after a long solve).  A solve's time is
    rescaled with the mean of the calibration groups just before and just
    after it."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.batches = 0
        self.outputs = []  # (case, digest of the output, or the exception)
        self.wall = []
        self.ref = []
        self._pending = []  # wall times awaiting the next calibration group
        self._owed = 0.0
        self._group = [speed.calibrate()]
        self.calibrations = list(self._group)

    def batch_cases(self, b):
        return self.w.batches[b % len(self.w.batches)]

    def solve(self, case) -> float:
        """One timed solve; a raised exception counts as a failed solve.
        Returns the wall time."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self.w.solve(case)
        except Exception as exc:  # the run must go on and report it
            out = exc
        dt = time.perf_counter() - t0
        if isinstance(out, Exception):
            self.outputs.append((case, out))
        else:
            self.outputs.append((case, self.w.digest(out)))
            self.wall.append(dt)
            self._pending.append(dt)
        self._owed += dt / CALIBRATE_EVERY_S
        return dt

    def calibrate(self, force: bool = False) -> None:
        """Run the calibration group that the solving since the last group
        calls for, and rescale the solves in between."""
        if self._owed < 1.0 and not (force and self._pending):
            return
        group = [speed.calibrate() for _ in range(max(1, int(self._owed)))]
        self._owed -= int(self._owed)
        factor = speed.REFERENCE_S / statistics.mean(self._group + group)
        self.ref.extend(t * factor for t in self._pending)
        self._pending.clear()
        self._group = group
        self.calibrations.extend(group)

    def check(self) -> tuple[int, int, list[str]]:
        """Solves that raised, solves whose output is wrong, and the first
        few error messages."""
        raised, wrong, messages = 0, 0, []
        for case, out in self.outputs:
            if isinstance(out, Exception):
                raised += 1
                errs = [f"raised {type(out).__name__}: {out}"]
            else:
                errs = self.w.errors(case, out)
                wrong += bool(errs)
            if errs and len(messages) < 5:
                messages.append(f"{case.label}: {'; '.join(errs)}")
        return raised, wrong, messages


def run_end_to_end(args, w) -> tuple[Run, dict]:
    setup_s = setup_seconds(args)
    w.setup()
    run = Run(w)
    t_end = time.perf_counter() + args.seconds
    while run.batches == 0 or time.perf_counter() < t_end:
        for case in run.batch_cases(run.batches):
            run.solve(case)
            run.calibrate()
        run.batches += 1
    run.calibrate(force=True)
    metrics = {
        "setup_s": setup_s,
        "solves_per_s": len(run.ref) / sum(run.ref) if run.ref else 0.0,
        "solve_p50_ms": statistics.median(run.ref) * 1e3 if run.ref else 0.0,
        "peak_rss_mb": peak_rss_mib(),
    }
    return run, metrics


def run_traced(args, w) -> tuple[Run, dict]:
    """Alternate an untraced and a traced pass over each batch, so that the
    tracing overhead compares the same solves."""
    from spans import Tracer, peak_alloc_mb

    w.setup()
    run = Run(w)
    tracer = Tracer()
    untraced_s = 0.0
    traced = 0
    t_end = time.perf_counter() + args.seconds
    while run.batches == 0 or time.perf_counter() < t_end:
        cases = run.batch_cases(run.batches)
        for case in cases:
            untraced_s += run.solve(case)
            run.calibrate()
        with tracer.installed():
            for case in cases:
                tracer.solve_id = run.attempted
                with tracer.span("solve"):
                    run.solve(case)
                traced += 1
                tracer.extra_fill()
                run.calibrate()
        run.batches += 1
    general = [c for batch in w.batches[:min(run.batches, 4)] for c in batch
               if getattr(w, "force_general", False)]
    alloc = peak_alloc_mb(w.solve, general) if general else 0.0
    tracer.write(os.path.join(HERE, "out", f"spans-{w.name}-seed{args.seed}.jsonl"))
    factor = speed.REFERENCE_S / statistics.median(run.calibrations)
    metrics = tracer.layer_metrics(traced, untraced_s, alloc)
    return run, {name: v * factor if LAYER_UNITS[name] == "s" else v
                 for name, v in metrics.items()}


def run_one(args) -> int:
    if not program_available():
        return 2
    cls = WORKLOADS[args.workload]
    if args.setup_probe:
        os.makedirs(args.setup_probe, exist_ok=True)
        try:
            cls(args.seed, args.setup_probe).setup()
        finally:
            shutil.rmtree(args.setup_probe, ignore_errors=True)
        return 0
    workdir = os.path.join(HERE, "out", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        w = cls(args.seed, workdir)
        run, metrics = (run_traced if args.trace else run_end_to_end)(args, w)
        raised, wrong, messages = run.check()
        stats = [c.graph.drawing.stats() for c in run.batch_cases(0)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, run, metrics, raised, wrong, messages, stats)
    return 0


def report(args, run, metrics, raised, wrong, messages, stats) -> None:
    """Human-readable lines, then the result as the last stdout line.  A
    solve that raised or gave a wrong answer counts as failed; ``correct``
    is false when any answer was wrong."""
    from twosided import _sweep

    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    kernel = "numba" if _sweep.HAVE_NUMBA else "python"
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  kernel {kernel}  "
          f"batches {run.batches}  solves attempted {run.attempted}  "
          f"failed {raised + wrong} (raised {raised}, wrong {wrong})")
    print("  first batch: " + "  ".join(
        " ".join(f"{k}={v}" for k, v in s.items()) for s in stats))
    for msg in messages:
        print(f"  FAILED {msg}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:.6g} {unit}")
    if not args.trace:
        tail = tail_percentile(run.ref)
        if tail:
            print(f"  solve_tail_ms (p{tail[0]} of {len(run.ref)} solves) {tail[1] * 1e3:.6g} ms")
        if run.wall:
            print(f"  wall clock: solve p50 {statistics.median(run.wall) * 1e3:.6g} ms, "
                  f"{len(run.wall) / sum(run.wall):.6g} solves/s")
    print(f"  speed: calibration median {statistics.median(run.calibrations) * 1e3:.4g} ms "
          f"(reference {speed.REFERENCE_S * 1e3:g} ms)")
    result = {
        "correct": wrong == 0,
        "attempted": run.attempted,
        "failed": raised + wrong,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(cmd).returncode or status
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
