"""Seeded input generators owned by the benchmark.

Both generators return ``(n, edges, order)``: vertices are ``1..n``, ``edges``
is a list of ``(u, v)`` pairs with ``u < v`` and ``order`` is the cyclic
drawing order.  They use only the standard library, so a change to the
program never moves the inputs.
"""

from __future__ import annotations

import random


def uniform_chord_graph(n: int, m: int, rng: random.Random):
    """The paper's random biconnected graphs: a random Hamiltonian cycle plus
    ``m - n`` chords drawn uniformly from the remaining vertex pairs; the
    drawing order is the identity.  The cycle makes the graph biconnected."""
    if not 3 <= n <= m <= n * (n - 1) // 2:
        raise ValueError(f"no simple graph with a Hamiltonian cycle for n={n}, m={m}")
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    cycle = {tuple(sorted(p)) for p in zip(perm, perm[1:] + perm[:1])}
    rest = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in cycle]
    edges = sorted(cycle) + sorted(rng.sample(rest, m - n))
    return n, edges, list(range(1, n + 1))


def local_chord_graph(n: int, m: int, reach: int, rng: random.Random):
    """A large drawing whose chords are short: the Hamiltonian cycle follows
    the drawing order, and ``m - n`` chords join positions ``d`` apart,
    ``2 <= d <= reach``, drawn uniformly without wrapping past the cut.
    Vertex labels are a random permutation, so the order line is not the
    identity, and the edge list is shuffled."""
    cands = [(i, i + d) for d in range(2, reach + 1) for i in range(n - d)]
    if not 3 <= n <= m <= n + len(cands):
        raise ValueError(f"cannot place {m} local edges on {n} vertices with reach {reach}")
    label = list(range(1, n + 1))
    rng.shuffle(label)
    pos_edges = [(i, (i + 1) % n) for i in range(n)] + rng.sample(cands, m - n)
    edges = [tuple(sorted((label[a], label[b]))) for a, b in pos_edges]
    rng.shuffle(edges)
    return n, edges, label


def format_graph_file(n: int, edges, order) -> str:
    """The program's graph file format: ``n m``, one ``u v`` line per edge,
    then the ``order:`` line."""
    lines = [f"{n} {len(edges)}", *(f"{u} {v}" for u, v in edges)]
    lines.append("order: " + " ".join(map(str, order)))
    return "\n".join(lines) + "\n"
