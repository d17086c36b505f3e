"""The LID period loop (paper Alg. 1) and its equivalence oracle.

Each LID period is O(|beta|) arithmetic, and the selected column is
almost always already resident in the
:class:`~repro.affinity.cache.ColumnBlockCache`.  The production loop is
therefore **run-until-miss**: consecutive periods execute against one
:meth:`~repro.affinity.cache.ColumnBlockCache.resident_view` of the
cache's backing matrix and return to the generic cache machinery only
when the selected vertex's column is a miss (one oracle fetch, then
re-enter).

Two loops live here:

:func:`run_fused`
    The production loop :func:`repro.dynamics.lid.lid_dynamics` runs:
    single-pass NumPy over the resident block with bound-method
    reductions, an incrementally maintained support-penalty array
    instead of a per-iteration mask rebuild, stacked ``x``/``g``
    updates for shared scale factors, and LRU recency replayed in
    batches at run boundaries.
:func:`run_reference`
    The historical per-period loop, kept verbatim as the equivalence
    oracle of the tests and the ``lid_kernel_*`` bench lane, and as the
    fallback for degenerate starting points.

Both produce bit-identical ``x`` and ``g`` trajectories, identical
iteration counts, identical ``entries_computed``, and identical LRU
recency order (pinned by ``tests/test_dynamics_lid_kernel.py``), so
detections and the Fig. 9 eviction behaviour are exactly those of the
historical loop.  The fused loop requires a clean starting point
(finite ``g``, non-negative ``x`` without negative zeros — everything
the ALID driver produces); anything else delegates to
:func:`run_reference`, whose semantics on degenerate input are the
contract.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.iid import invasion_share

__all__ = ["run_fused", "run_reference"]

_INF = np.inf

# Flush the recency-replay buffer after this many recorded hits so the
# bookkeeping stays O(1) amortised even for very long runs (tests shrink
# it to exercise the flush path).
_REPLAY_FLUSH = 4096


# ----------------------------------------------------------------------
# reference loop (the historical loop, equivalence oracle)
# ----------------------------------------------------------------------
def run_reference(state, max_iter: int, tol: float) -> tuple[int, bool]:
    """Run LID periods with the original per-iteration loop.

    One cache lookup (:meth:`LIDState.column`) and ~12 small NumPy ops
    per period.  Kept verbatim as the oracle :func:`run_fused` is
    pinned against, and as its fallback for degenerate input.
    """
    x = state.x
    g = state.g
    converged = False
    iterations = 0
    scores = np.empty_like(g)
    neg = np.empty_like(g)
    for iterations in range(1, max_iter + 1):
        density = float(x @ g)
        # Select by Eq. 6/8: strongest infective vertex or weakest support
        # vertex, whichever has the larger |pi(s_i - x, x)|; the payoff
        # margin is pay_i = g_i - density.
        np.subtract(g, density, out=scores)
        np.negative(scores, out=neg)
        neg[x <= 0.0] = 0.0
        np.maximum(scores, neg, out=scores)
        pos = int(np.argmax(scores))
        if scores[pos] <= tol:
            converged = True
            iterations -= 1
            break
        col = state.column(int(state.beta[pos]))
        pay_i = float(g[pos]) - density
        quad_i = -2.0 * float(g[pos]) + density  # pi(s_i - x), Eq. 11
        if pay_i > 0.0:
            # Infection with the pure vertex (Eq. 13/14 first case).
            eps = invasion_share(pay_i, quad_i)
            x *= 1.0 - eps
            x[pos] += eps
            g *= 1.0 - eps
            g += eps * col
        else:
            # Immunization with the co-vertex (Eq. 12, Eq. 13/14 second
            # case); mu = x_i / (x_i - 1) < 0.
            xi = float(x[pos])
            mu = xi / (xi - 1.0)
            eps = invasion_share(mu * pay_i, mu * mu * quad_i)
            x *= 1.0 - eps * mu
            x[pos] = (1.0 - eps) * xi
            g += eps * mu * (col - g)
        # Roundoff hygiene: x and g are linear in the same scale factor.
        np.maximum(x, 0.0, out=x)
        total = float(x.sum())
        if abs(total - 1.0) > 1e-9 and total > 0.0:
            x /= total
            g /= total
    state.x = x
    state.g = g
    return iterations, converged


# ----------------------------------------------------------------------
# shared run-until-miss machinery
# ----------------------------------------------------------------------
def _clean_start(x: np.ndarray, g: np.ndarray) -> bool:
    """True when the fused loop's preconditions hold.

    The fused loop skips the reference's per-iteration clamp
    (``maximum(x, 0)``) because the updates provably cannot produce a
    negative weight from a non-negative one; that proof needs ``x``
    free of negatives, negative zeros and NaNs, and ``g`` finite (so
    the selection scan never meets a NaN).  Anything else is degenerate
    input whose behaviour the reference loop defines.
    """
    if x.size == 0:
        return True
    return (
        bool(np.all(x >= 0.0))
        and not bool(np.signbit(x).any())
        and bool(np.all(np.isfinite(g)))
    )


class _RecencyReplay:
    """Batched LRU-touch replay for the run-until-miss loop.

    The reference loop touches the selected column on every period; the
    fused loop must leave the cache's recency order in the identical
    state (evictions under a storage budget follow it), but paying a
    dict update per period is the overhead being removed.  Instead the
    per-period selections are recorded and replayed — deduplicated to
    the last access of each column, in chronological order — right
    before any operation that can read the recency order (a miss fetch,
    or run exit).
    """

    __slots__ = ("beta", "cache", "hits")

    def __init__(self, cache, beta: np.ndarray):
        self.cache = cache
        self.beta = beta
        self.hits: list[int] = []

    def flush(self) -> None:
        """Replay the recorded touches into the cache's LRU order.

        Every recorded period was served from the block, so each one is
        a cache hit, as the reference loop's :meth:`get` counts it.
        """
        hits = self.hits
        if not hits:
            return
        self.cache.hits += len(hits)
        if len(hits) <= 16:
            # Short segment (typical between misses): pure-Python
            # last-occurrence dedupe beats ufunc dispatch.
            ordered: list[int] = []
            seen: set[int] = set()
            for pos in reversed(hits):
                if pos not in seen:
                    seen.add(pos)
                    ordered.append(pos)
            ordered.reverse()
            touched = [int(self.beta[pos]) for pos in ordered]
        else:
            seq = self.beta[np.asarray(hits, dtype=np.intp)]
            rev = seq[::-1]
            _, first = np.unique(rev, return_index=True)
            touched = [int(j) for j in rev[np.sort(first)][::-1]]
        self.cache.touch_sequence(touched)
        hits.clear()


# ----------------------------------------------------------------------
# fused loop (single-pass NumPy on the resident block)
# ----------------------------------------------------------------------
def run_fused(state, max_iter: int, tol: float) -> tuple[int, bool]:
    """Run LID periods as a run-until-miss loop over the resident block.

    Per period (cache-hit path): one BLAS dot, four array passes for
    the Eq. 6/8 selection (subtract / argmax / penalty-add / argmin),
    the Eq. 13/14 update on a stacked ``(2, m)`` view of ``x`` and
    ``g``, and one sum for the roundoff hygiene — no cache lookup, no
    Python-level dict traffic, no allocations.  The support set is
    tracked as a ``0/+inf`` penalty array updated incrementally (the
    support changes by at most the selected vertex per period); the
    rare underflow-to-zero of a third vertex is detected at selection
    time and triggers a rebuild, so the trajectory stays bit-identical
    to the reference loop.
    """
    if not _clean_start(state.x, state.g):
        return run_reference(state, max_iter, tol)
    cache = state._cache
    beta = state.beta
    m = int(beta.size)
    stacked = np.empty((2, m))
    stacked[0] = state.x
    stacked[1] = state.g
    x = stacked[0]
    g = stacked[1]
    s = np.empty(m)
    tmp = np.empty(m)
    pen = np.where(x > 0.0, 0.0, _INF)
    replay = _RecencyReplay(cache, beta)
    hits_append = replay.hits.append
    subtract = np.subtract
    add = np.add
    multiply = np.multiply
    divide = np.divide
    x_dot = x.dot
    s_argmax = s.argmax
    tmp_argmin = tmp.argmin
    x_sum = x.sum
    buf, slots = cache.resident_view()
    it = 0
    converged = False
    try:
        while it < max_iter:
            it += 1
            while True:
                # --- selection (Eq. 6/8) --------------------------------
                d = float(x_dot(g))
                subtract(g, d, out=s)
                i1 = s_argmax()
                add(s, pen, out=tmp)
                i2 = tmp_argmin()
                s_inf = float(s[i1])
                s_sup = -float(tmp[i2])
                if s_inf >= s_sup:
                    best = s_inf
                    pos = int(i1) if s_inf > s_sup else min(int(i1), int(i2))
                else:
                    best = s_sup
                    pos = int(i2)
                if best <= tol:
                    converged = True
                    break
                if pos != i1 and float(x[pos]) == 0.0:
                    # The penalty array went stale (a weight underflowed
                    # to zero outside the selected position): rebuild it
                    # and redo the selection over the true support.
                    np.copyto(pen, 0.0)
                    pen[np.equal(x, 0.0)] = _INF
                    continue
                break
            if converged:
                it -= 1
                break
            slot = int(slots[pos])
            if slot < 0:
                # --- cache miss: one oracle fetch, then re-enter --------
                replay.flush()
                prev_cols = cache.n_columns
                j = int(beta[pos])
                cache.get(j)
                if cache._buf is buf and cache.n_columns == prev_cols + 1:
                    slot = cache.slot_index(j)
                    slots[pos] = slot
                else:
                    # Eviction or buffer growth: remap the whole view.
                    buf, slots = cache.resident_view()
                    slot = int(slots[pos])
            else:
                if len(replay.hits) >= _REPLAY_FLUSH:
                    replay.flush()
                hits_append(pos)
            col = buf[slot]
            # --- update (Eq. 13/14) -------------------------------------
            g_pos = float(g[pos])
            pay_i = g_pos - d
            quad_i = -2.0 * g_pos + d
            if pay_i > 0.0:
                if quad_i < 0.0:
                    eps = -pay_i / quad_i
                    if eps > 1.0:
                        eps = 1.0
                else:
                    eps = 1.0
                ce = 1.0 - eps
                multiply(stacked, ce, out=stacked)
                x[pos] += eps
                multiply(col, eps, out=tmp)
                add(g, tmp, out=g)
                if ce == 0.0:
                    pen.fill(_INF)
                pen[pos] = 0.0
            else:
                xi = float(x[pos])
                mu = xi / (xi - 1.0)
                pay_diff = mu * pay_i
                pay_quad = mu * mu * quad_i
                if pay_quad < 0.0:
                    eps = -pay_diff / pay_quad
                    if eps > 1.0:
                        eps = 1.0
                else:
                    eps = 1.0
                multiply(x, 1.0 - eps * mu, out=x)
                xnew = (1.0 - eps) * xi
                x[pos] = xnew
                subtract(col, g, out=tmp)
                multiply(tmp, eps * mu, out=tmp)
                add(g, tmp, out=g)
                if xnew == 0.0:
                    pen[pos] = _INF
            total = float(x_sum())
            if abs(total - 1.0) > 1e-9 and total > 0.0:
                divide(stacked, total, out=stacked)
    finally:
        # Publish progress even when the miss fetch raises (budget
        # exhaustion): the reference loop mutates in place, so partial
        # trajectories must survive the exception identically.
        replay.flush()
        state.x = x.copy()
        state.g = g.copy()
    return it, converged
