"""Numba ``@njit`` variants of the hottest kernels (optional backend).

Every function here is a compiled drop-in for one NumPy reference path;
:mod:`repro.kernels.backend` owns selection and fallback, and nothing
else imports this module directly.  Importing it requires numba — the
backend layer guards the import and falls back to NumPy when the
dependency is absent or a signature fails to compile.

Equivalence contract
--------------------
The integer-valued kernels (hop gathers, frontier expansion, the
comm-index counting sort, the route-table splice, message/volume
accumulation in CSR-entry order) reproduce the NumPy reference bit for
bit by construction: every intermediate is integer-exact or accumulated
in the same order as the reference.

The two float-reducing kernels follow the repo-wide volume contract
(see :mod:`repro.kernels.swapgain`): communication volumes are
integer-valued, which makes weighted-hop sums and load deltas exact in
float64 regardless of summation order.  The one reduction where the
*operands* are non-integer — the accept rule's ``Σ dv · inv_bw`` total
over non-uniform Gemini bandwidths — replicates NumPy's scalar pairwise
summation (sequential under 8 terms, 8-way unrolled to 128, recursive
block split above) so the verdict arithmetic tracks the reference to
the last ulp on typical delta-slice lengths.  The accept thresholds sit
at ``1e-9``, six orders of magnitude above any conceivable last-ulp
divergence, so refinement trajectories (and therefore the goldens) are
identical across backends.

All kernels compile with ``cache=True``: the first process to warm a
signature pays the compile, later processes (and later runs) load the
on-disk cache — exactly the amortization story the persistent
``ExecutorPool`` workers rely on.
"""

from __future__ import annotations

import numpy as np
from numba import njit

__all__ = [
    "hops_gather",
    "hops_row",
    "expand_frontier_csr",
    "expand_frontier_padded",
    "swap_gains",
    "verdicts",
    "comm_index",
    "accumulate_loads",
    "splice_routes",
]


# ---------------------------------------------------------------------------
# Hop-table lookups (kernels/hoptable.py, dense-matrix path).
# ---------------------------------------------------------------------------


@njit(cache=True)
def hops_gather(matrix, a, b):
    """Elementwise ``matrix[a[i], b[i]]`` gather (1-D, equal shapes)."""
    out = np.empty(a.shape[0], dtype=matrix.dtype)
    for i in range(a.shape[0]):
        out[i] = matrix[a[i], b[i]]
    return out


@njit(cache=True)
def hops_row(row, others):
    """``row[others]`` gather — one node against many."""
    out = np.empty(others.shape[0], dtype=row.dtype)
    for i in range(others.shape[0]):
        out[i] = row[others[i]]
    return out


# ---------------------------------------------------------------------------
# BFS frontier expansion (graph/csr.py).
# ---------------------------------------------------------------------------


@njit(cache=True)
def expand_frontier_csr(indptr, indices, frontier, seen):
    """Unseen CSR neighbours of *frontier*, sorted; marks ``seen`` in place.

    First-visit marking replaces the reference's gather + ``np.unique``
    (each fresh vertex is emitted exactly once); the final sort restores
    the reference's ascending output order.
    """
    total = 0
    for i in range(frontier.shape[0]):
        v = frontier[i]
        total += indptr[v + 1] - indptr[v]
    out = np.empty(total, dtype=np.int32)
    k = 0
    for i in range(frontier.shape[0]):
        v = frontier[i]
        for j in range(indptr[v], indptr[v + 1]):
            u = indices[j]
            if not seen[u]:
                seen[u] = True
                out[k] = u
                k += 1
    return np.sort(out[:k])


@njit(cache=True)
def expand_frontier_padded(pad, frontier, seen):
    """Padded-matrix variant (low-degree graphs: the torus ``Gm``)."""
    width = pad.shape[1]
    out = np.empty(frontier.shape[0] * width, dtype=np.int32)
    k = 0
    for i in range(frontier.shape[0]):
        v = frontier[i]
        for j in range(width):
            u = pad[v, j]
            if not seen[u]:
                seen[u] = True
                out[k] = u
                k += 1
    return np.sort(out[:k])


# ---------------------------------------------------------------------------
# Batched WH swap gains (kernels/swapgain.py, dense-matrix path).
# ---------------------------------------------------------------------------


@njit(cache=True)
def swap_gains(indptr, indices, weights, gamma, matrix, t1, n1, partners, whops_t1):
    """WH gain of swapping Γ[t1] with each partner (see batched_swap_gains).

    Same exclusions as the reference: the direct ``t1``–partner edge is
    skipped on the partner side (weight zeroed there) and contributes a
    zero hop on the t1 side (the partner's new position *is* the row
    node), so no correction term is needed.
    """
    k = partners.shape[0]
    out = np.empty(k, dtype=np.float64)
    lo1, hi1 = indptr[t1], indptr[t1 + 1]
    for j in range(k):
        t2 = partners[j]
        n2 = gamma[t2]
        if hi1 > lo1:
            cost_t1_after = 0.0
            direct_w = 0.0
            for p in range(lo1, hi1):
                nb = indices[p]
                cost_t1_after += matrix[n2, gamma[nb]] * weights[p]
                if nb == t2:
                    direct_w = weights[p]
            cost_t1_before = whops_t1 - direct_w * matrix[n1, n2]
        else:
            cost_t1_after = 0.0
            cost_t1_before = whops_t1
        cost_t2_before = 0.0
        cost_t2_after = 0.0
        for p in range(indptr[t2], indptr[t2 + 1]):
            nb = indices[p]
            if nb == t1:
                continue
            w = weights[p]
            gn = gamma[nb]
            cost_t2_before += matrix[n2, gn] * w
            cost_t2_after += matrix[n1, gn] * w
        out[j] = (cost_t1_before + cost_t2_before) - (cost_t1_after + cost_t2_after)
    return out


# ---------------------------------------------------------------------------
# Congestion accept rule (kernels/congestion.py).
# ---------------------------------------------------------------------------


@njit(cache=True)
def _pairwise_sum(a, lo, n):
    """NumPy's scalar pairwise summation over ``a[lo:lo+n]``.

    Mirrors ``numpy/core/src/umath/loops.c.src`` (non-SIMD path):
    sequential under 8 terms, 8 partial accumulators to 128, then a
    recursive split at a multiple-of-8 midpoint.
    """
    if n < 8:
        s = 0.0
        for i in range(lo, lo + n):
            s += a[i]
        return s
    if n <= 128:
        r0 = a[lo]
        r1 = a[lo + 1]
        r2 = a[lo + 2]
        r3 = a[lo + 3]
        r4 = a[lo + 4]
        r5 = a[lo + 5]
        r6 = a[lo + 6]
        r7 = a[lo + 7]
        i = 8
        stop = n - (n % 8)
        while i < stop:
            r0 += a[lo + i]
            r1 += a[lo + i + 1]
            r2 += a[lo + i + 2]
            r3 += a[lo + i + 3]
            r4 += a[lo + i + 4]
            r5 += a[lo + i + 5]
            r6 += a[lo + i + 6]
            r7 += a[lo + i + 7]
            i += 8
        s = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        while i < n:
            s += a[lo + i]
            i += 1
        return s
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_sum(a, lo, n2) + _pairwise_sum(a, lo + n2, n - n2)


@njit(cache=True)
def verdicts(
    ul,
    dm,
    dv,
    bounds,
    vols,
    msgs,
    inv_bw,
    load,
    mc,
    ac,
    top,
    total_base,
    base_used,
    volume_metric,
    eps,
):
    """Batched Algorithm-3 accept rule — one candidate per ``bounds`` slice.

    The compiled counterpart of the NumPy pass in ``CongestionModel.
    _verdicts``: one loop per candidate, same arithmetic as the scalar
    ``_verdict`` oracle (AC totals keep ``np.sum``'s pairwise order).
    ``ul`` slices are sorted ascending (``np.unique`` order), which the
    unchanged-links max exploits via a merge walk.
    """
    K = bounds.shape[0] - 1
    out = np.zeros(K, dtype=np.bool_)
    nl = load.shape[0]
    for k in range(K):
        s, e = bounds[k], bounds[k + 1]
        if e == s:
            continue
        top_touched = False
        first = vols[ul[s]] + dv[s]
        if volume_metric:
            first *= inv_bw[ul[s]]
        new_changed_max = first
        for i in range(s, e):
            l = ul[i]
            if l == top:
                top_touched = True
            nv = vols[l] + dv[i]
            if volume_metric:
                nv *= inv_bw[l]
            if nv > new_changed_max:
                new_changed_max = nv
        if top_touched:
            # Max load over links outside this candidate's sorted slice.
            max_unchanged = 0.0
            any_unchanged = False
            ptr = s
            for l in range(nl):
                while ptr < e and ul[ptr] < l:
                    ptr += 1
                if ptr < e and ul[ptr] == l:
                    continue
                if not any_unchanged or load[l] > max_unchanged:
                    max_unchanged = load[l]
                    any_unchanged = True
        else:
            max_unchanged = load[top]
        new_mc = max_unchanged if max_unchanged > new_changed_max else new_changed_max
        if new_mc < mc - eps:
            out[k] = True
            continue
        if new_mc > mc + eps:
            continue
        # Equal MC: accept on AC improvement.
        used_new = base_used
        for i in range(s, e):
            l = ul[i]
            before = msgs[l] > eps
            after = msgs[l] + dm[i] > eps
            if after and not before:
                used_new += 1
            elif before and not after:
                used_new -= 1
        n_terms = e - s
        terms = np.empty(n_terms, dtype=np.float64)
        if volume_metric:
            for i in range(s, e):
                terms[i - s] = dv[i] * inv_bw[ul[i]]
        else:
            for i in range(s, e):
                terms[i - s] = dv[i]
        total_new = total_base + _pairwise_sum(terms, 0, n_terms)
        new_ac = total_new / used_new if used_new != 0 else 0.0
        out[k] = new_ac < ac - eps
    return out


# ---------------------------------------------------------------------------
# commTasks index refresh (kernels/congestion.py).
# ---------------------------------------------------------------------------


@njit(cache=True)
def comm_index(links, edge_of_entry, src_t, dst_t, nl):
    """Link → interleaved (src, dst) task CSR via stable counting sort.

    A counting sort that appends entries in input order within each
    link bucket *is* ``np.argsort(kind='stable')`` over the link keys,
    so the bucket contents match the reference ordering exactly.
    """
    ne = links.shape[0]
    per_link = np.zeros(nl, dtype=np.int64)
    for i in range(ne):
        per_link[links[i]] += 1
    comm_ptr = np.zeros(nl + 1, dtype=np.int64)
    for l in range(nl):
        comm_ptr[l + 1] = comm_ptr[l] + 2 * per_link[l]
    fill = comm_ptr[:nl].copy()
    tasks = np.empty(2 * ne, dtype=np.int64)
    for i in range(ne):
        l = links[i]
        p = fill[l]
        e = edge_of_entry[i]
        tasks[p] = src_t[e]
        tasks[p + 1] = dst_t[e]
        fill[l] = p + 2
    return comm_ptr, tasks


# ---------------------------------------------------------------------------
# RouteTable kernels (topology/routing.py).
# ---------------------------------------------------------------------------


@njit(cache=True)
def accumulate_loads(ptr, links, volumes, nl):
    """Per-link ``(message_count, volume)`` over all routed pairs.

    Accumulation runs pair-major in CSR-entry order — the exact order
    ``np.add.at`` (unbuffered, sequential) applies the reference's
    repeated-volume updates, so even non-integer volumes agree bit for
    bit.  Message counts are integer-exact either way.
    """
    msgs = np.zeros(nl, dtype=np.float64)
    vols = np.zeros(nl, dtype=np.float64)
    for pair in range(ptr.shape[0] - 1):
        v = volumes[pair]
        for i in range(ptr[pair], ptr[pair + 1]):
            l = links[i]
            msgs[l] += 1.0
            vols[l] += v
    return msgs, vols


@njit(cache=True)
def splice_routes(ptr, links, pairs, new_links, new_counts):
    """Replace the CSR segments of *pairs*; returns ``(next_ptr, out)``.

    Pure integer moves: kept segments scatter to their new offsets,
    replacement segments (concatenated in *pairs* order) fill the rest.
    """
    npairs = ptr.shape[0] - 1
    moved = np.zeros(npairs, dtype=np.bool_)
    counts_next = np.empty(npairs, dtype=np.int64)
    for p in range(npairs):
        counts_next[p] = ptr[p + 1] - ptr[p]
    for i in range(pairs.shape[0]):
        moved[pairs[i]] = True
        counts_next[pairs[i]] = new_counts[i]
    next_ptr = np.zeros(npairs + 1, dtype=np.int64)
    for p in range(npairs):
        next_ptr[p + 1] = next_ptr[p] + counts_next[p]
    out = np.empty(next_ptr[npairs], dtype=np.int64)
    for p in range(npairs):
        if not moved[p]:
            src0 = ptr[p]
            dst0 = next_ptr[p]
            for i in range(ptr[p + 1] - ptr[p]):
                out[dst0 + i] = links[src0 + i]
    off = 0
    for i in range(pairs.shape[0]):
        dst0 = next_ptr[pairs[i]]
        for j in range(new_counts[i]):
            out[dst0 + j] = new_links[off + j]
        off += new_counts[i]
    return next_ptr, out
