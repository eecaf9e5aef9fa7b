"""Text formats: graph input files and interval-set dumps.

Graph files: first line ``n m``, then m lines ``u v`` with 1-based vertex
ids, then an optional line ``order: v1 v2 ... vn`` (the cyclic order defaults
to 1..n).  Whitespace separated, LF line endings.  ``n`` may not exceed
``MAX_VERTICES``: the header is checked before anything is allocated, so a
huge ``n`` fails fast with a ``GraphParseError`` rather than exhausting
memory.

Interval dumps (debugging / oracle interchange): one line per interval
``id left right weight``, followed by one line per overlapping pair
``pair id1 id2 weight``.
"""

from __future__ import annotations

from .model import Interval, IntervalSet, LayoutInstance, overlap_pairs_within

MAX_VERTICES = 10**6


class GraphParseError(ValueError):
    """Malformed graph input text."""


def parse_graph(text: str) -> LayoutInstance:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphParseError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphParseError(f"expected 'n m' on the first line, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise GraphParseError(f"bad header {lines[0]!r}") from exc
    if n < 0 or m < 0:
        raise GraphParseError("n and m must be non-negative")
    if n > MAX_VERTICES:
        raise GraphParseError(f"n = {n} exceeds the limit of {MAX_VERTICES} vertices")
    if len(lines) < 1 + m:
        raise GraphParseError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1 : 1 + m]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphParseError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphParseError(f"bad edge line {ln!r}") from exc
        edges.append((u, v))
    order = None
    rest = lines[1 + m :]
    if rest:
        if len(rest) > 1 or not rest[0].startswith("order:"):
            raise GraphParseError(f"unexpected trailing content {rest!r}")
        try:
            order = [int(x) for x in rest[0][len("order:") :].split()]
        except ValueError as exc:
            raise GraphParseError(f"bad order line {rest[0]!r}") from exc
        if len(order) != n:
            raise GraphParseError(f"order names {len(order)} vertices, expected {n}")
    vertices = list(range(1, n + 1))
    try:
        return LayoutInstance.build(vertices, edges, order)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from exc


def parse_graph_file(path: str) -> LayoutInstance:
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph(fh.read())


def format_graph(instance: LayoutInstance) -> str:
    lines = [f"{instance.n_vertices} {instance.n_edges}"]
    lines.extend(f"{u} {v}" for u, v in instance.edges)
    if instance.order != instance.vertices:
        lines.append("order: " + " ".join(str(v) for v in instance.order))
    return "\n".join(lines) + "\n"


def dump_intervals(s: IntervalSet) -> str:
    lines = [
        f"{i} {iv.left} {iv.right} {iv.weight}" for i, iv in enumerate(s.intervals)
    ]
    lines.extend(
        f"pair {i} {j} {s.pair_weight(i, j)}"
        for i, j in sorted(overlap_pairs_within(range(len(s)), s))
    )
    return "\n".join(lines) + "\n" if lines else ""


def parse_intervals(text: str) -> IntervalSet:
    intervals: dict[int, Interval] = {}
    pairs: dict[tuple[int, int], int] = {}
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        kind = "pair" if parts[0] == "pair" else "interval"
        fields = parts[1:] if kind == "pair" else parts
        if len(fields) != (3 if kind == "pair" else 4):
            raise GraphParseError(f"bad {kind} line {ln!r}")
        try:
            values = [int(x) for x in fields]
        except ValueError as exc:
            raise GraphParseError(f"bad {kind} line {ln!r}") from exc
        if kind == "pair":
            i, j, w = values
            key = (min(i, j), max(i, j))
            if key in pairs:
                raise GraphParseError(f"duplicate pair on line {ln!r}")
            pairs[key] = w
        else:
            ident, left, right, w = values
            if ident in intervals:
                raise GraphParseError(f"duplicate interval id on line {ln!r}")
            intervals[ident] = Interval(left, right, w)
    if sorted(intervals) != list(range(len(intervals))):
        raise GraphParseError("interval ids must be 0..n-1")
    ordered = tuple(intervals[i] for i in range(len(intervals)))
    return IntervalSet(ordered, pairs)
