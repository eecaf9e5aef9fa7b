"""Array kernels for the interval sweeps of the bounded-overlap solvers.

A sweep walks the integer positions of a window (lo, hi) from right to left;
at the start point of a window-contained interval it maximizes over skipping
the interval, taking it alone, or taking it together with one partner from
its forward overlap set.  Its value at position x, ``S_hi[x]``, depends on
the right end ``hi`` only, never on ``lo``.

Two kernels use that recurrence:

* ``fill_tables`` fills every table entry of the k<=1 dynamic program with
  one shared sweep per window right end, taking the right ends in ascending
  order -- the schedule of Valiente's O(l) maximum-weight independent set
  algorithm for circle graphs (ISAAC 2003);
* ``run_sweep`` evaluates one window and records the maximizing choices; it
  serves the final global pass and solution recovery.

Both take flat integer sequences only.  They are compiled with numba when
available; the pure-Python twins compute byte-identical results and are kept
importable for testing and for environments without numba.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

CHOICE_COPY = 0
CHOICE_SINGLE = 1
CHOICE_PAIR = 2


def run_sweep_py(
    lo,
    hi,
    start_at,
    right,
    dms_single,
    ptr,
    partner,
    pair_val,
    use_pairs,
    s_buf,
    choice_code,
    choice_aux,
):
    """Evaluate one sweep over the open window (lo, hi); returns S[lo + 1].

    ``start_at[x]`` is the interval starting at position x (or -1).  Values
    for positions outside the window are stale leftovers from earlier calls
    and are never read.  Choice arrays record the maximizing decision at each
    position for solution recovery; ties keep the earliest option in the
    order copy < single < pair (partners ascending).
    """
    s_buf[hi] = 0
    for x in range(hi - 1, lo, -1):
        best = s_buf[x + 1]
        code = CHOICE_COPY
        aux = -1
        j = start_at[x]
        if j >= 0 and right[j] < hi:
            v = dms_single[j] + s_buf[right[j] + 1]
            if v > best:
                best = v
                code = CHOICE_SINGLE
                aux = j
            if use_pairs:
                for t in range(ptr[j], ptr[j + 1]):
                    f = right[partner[t]]
                    if f < hi:
                        v = pair_val[t] + s_buf[f + 1]
                        if v > best:
                            best = v
                            code = CHOICE_PAIR
                            aux = t
        s_buf[x] = best
        choice_code[x] = code
        choice_aux[x] = aux
    return s_buf[lo + 1]


def fill_tables_py(
    start_at,
    end_at,
    left,
    right,
    weight,
    ptr,
    partner,
    pair_w,
    bptr,
    bpair,
    owner,
    use_pairs,
    s_buf,
    dms_single,
    pair_val,
):
    """Fill ``dms_single`` (and ``pair_val`` when ``use_pairs``) in place.

    ``end_at[x]`` is the interval ending at position x (or -1).  Forward pair
    t joins ``owner[t]`` = [c, d] with ``partner[t]`` = [e, f], c < e < d < f;
    ``bpair[bptr[j]:bptr[j + 1]]`` lists the pairs whose second member is j.

    For each right end ``hi`` one sweep runs from ``hi`` down to the smallest
    left end needed there, and every entry reads its regions off it:

    * a single i with r_i = hi is ``S_hi[l_i + 1] + w_i``;
    * a pair stores ``S_e[c + 1]`` at hi = e and adds ``S_d[e + 1]`` at
      hi = d, then finishes with ``S_f[d + 1]`` and the weights at hi = f.

    A sweep at hi reads only entries that end before hi, which are final;
    ``pair_val[t]`` holds a partial sum only while hi <= f, when no sweep
    reads it.
    """
    for hi in range(1, len(start_at) - 1):
        i = end_at[hi]
        j = start_at[hi]
        if i >= 0:
            lo = left[i]
        elif use_pairs and bptr[j] < bptr[j + 1]:
            lo = hi
            for u in range(bptr[j], bptr[j + 1]):
                c = left[owner[bpair[u]]]
                if c < lo:
                    lo = c
        else:
            continue
        s_buf[hi] = 0
        for x in range(hi - 1, lo, -1):
            best = s_buf[x + 1]
            a = start_at[x]
            if a >= 0 and right[a] < hi:
                v = dms_single[a] + s_buf[right[a] + 1]
                if v > best:
                    best = v
                if use_pairs:
                    for t in range(ptr[a], ptr[a + 1]):
                        f = right[partner[t]]
                        if f < hi:
                            v = pair_val[t] + s_buf[f + 1]
                            if v > best:
                                best = v
            s_buf[x] = best
        if i < 0:
            for u in range(bptr[j], bptr[j + 1]):
                t = bpair[u]
                pair_val[t] = s_buf[left[owner[t]] + 1]
            continue
        dms_single[i] = s_buf[lo + 1] + weight[i]
        if use_pairs:
            for t in range(ptr[i], ptr[i + 1]):
                pair_val[t] += s_buf[left[partner[t]] + 1]
            for u in range(bptr[i], bptr[i + 1]):
                t = bpair[u]
                a = owner[t]
                pair_val[t] += s_buf[right[a] + 1] + weight[a] + weight[i] - pair_w[t]


class Kernel(NamedTuple):
    """The sweep kernels of one implementation.  ``compiled`` kernels take
    int64 numpy arrays; the pure-Python ones run fastest on plain lists."""

    sweep: Callable
    fill: Callable
    compiled: bool


PYTHON_KERNEL = Kernel(run_sweep_py, fill_tables_py, False)

try:  # pragma: no cover - exercised indirectly
    from numba import njit

    NUMBA_KERNEL = Kernel(
        njit(cache=True, nogil=True)(run_sweep_py),
        njit(cache=True, nogil=True)(fill_tables_py),
        True,
    )
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    NUMBA_KERNEL = PYTHON_KERNEL
    HAVE_NUMBA = False


def get_kernel(name: str = "auto") -> Kernel:
    """Select the sweep implementation: "auto", "numba", or "python"."""
    if name == "python":
        return PYTHON_KERNEL
    if name == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("numba is not available")
        return NUMBA_KERNEL
    if name == "auto":
        return NUMBA_KERNEL
    raise ValueError(f"unknown kernel {name!r}")
