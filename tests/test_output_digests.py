"""Both dynamic programs' outputs, pinned as sha256 digests.

A refactor of either DP that keeps every optimum, every recovered set and
every table entry keeps these digests; any change in tie-breaking or in a
value changes them.  The memo size of the general-k solver is left out on
purpose: an exact reduction of its state space may lower it.
"""

import hashlib
import random

from twosided.bench import random_interval_set
from twosided.solver_general import GeneralSolver
from twosided.solver_k1 import compute_dms1, solve_k0, solve_k1


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


def _general_records():
    for seed in range(300):
        s = random_interval_set(random.Random(seed).randint(3, 12), seed)
        for k in range(4):
            sol = GeneralSolver(s, k).solve()
            yield seed, k, sol.weight, sorted(sol.chosen)


def test_k01_dp_outputs_are_pinned():
    """``compute_dms1`` tables and the ``solve_k0``/``solve_k1`` weights,
    chosen sets and overlapping pairs on 600 random interval sets."""
    assert _digest(_k01_records()) == (
        "0b517152f2336cf26dec8006fc6fa68688298344e975ca20f279e80f668bbf29"
    )


def test_general_k_dp_outputs_are_pinned():
    """``GeneralSolver(s, k).solve()`` weights and chosen sets at k=0..3 on
    300 random interval sets."""
    assert _digest(_general_records()) == (
        "e08c02454205f06ba237e487b50d30c9f67e3b0fa0836096de9e7b718faea972"
    )
