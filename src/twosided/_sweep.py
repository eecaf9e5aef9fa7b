"""The interval sweep of the k<=1 dynamic program, and its table fill.

A sweep walks the integer positions of a window (lo, hi) from right to left;
at the start point of a window-contained interval it maximizes over skipping
the interval, taking it alone, or taking it together with one partner from
its forward overlap set.  Its value at position x, ``S_hi[x]``, depends on
the right end ``hi`` only, never on ``lo``.

``sweep`` is the one copy of that recurrence.  It writes only the sweep
values and records no choices: solution recovery reads each decision back
off the values (see ``solver_k1._Engine._backtrack``).  ``fill_tables``
fills every table entry of the dynamic program by calling it once per window
right end, taking the right ends in ascending order -- the schedule of
Valiente's O(l) maximum-weight independent set algorithm for circle graphs
(ISAAC 2003).

Both take flat integer sequences only.  They are compiled with numba when it
imports (the compiled ``fill_tables`` then calls the compiled ``sweep``);
otherwise they are plain Python.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised indirectly
    from numba import njit

    _jit = njit(cache=True, nogil=True)
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover

    def _jit(fn):
        return fn

    HAVE_NUMBA = False


@_jit
def sweep(lo, hi, start_at, right, dms_single, ptr, partner, pair_val, use_pairs, s_buf):
    """Evaluate one sweep over the open window (lo, hi); returns S[lo + 1].

    ``start_at[x]`` is the interval starting at position x (or -1).  Fills
    ``s_buf[lo + 1 : hi + 1]``; values for positions outside the window are
    stale leftovers from earlier calls and are never read.  ``S[x]`` is the
    best of three options: copying ``S[x + 1]``, taking the single starting
    at x, and taking it with one of its forward partners.
    """
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
    return s_buf[lo + 1]


@_jit
def fill_tables(
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
        inner = sweep(lo, hi, start_at, right, dms_single, ptr, partner, pair_val, use_pairs, s_buf)
        if i < 0:
            for u in range(bptr[j], bptr[j + 1]):
                t = bpair[u]
                pair_val[t] = s_buf[left[owner[t]] + 1]
            continue
        dms_single[i] = inner + weight[i]
        if use_pairs:
            for t in range(ptr[i], ptr[i + 1]):
                pair_val[t] += s_buf[left[partner[t]] + 1]
            for u in range(bptr[i], bptr[i + 1]):
                t = bpair[u]
                a = owner[t]
                pair_val[t] += s_buf[right[a] + 1] + weight[a] + weight[i] - pair_w[t]
