"""The LID period loop (paper Alg. 1) and its equivalence oracle.

Each LID period is O(|beta|) arithmetic, and the selected column is
almost always already resident in the
:class:`~repro.affinity.cache.ColumnBlockCache`.  The production loop is
therefore **run-until-miss**: consecutive periods execute against the
cache's backing matrix ``buf`` through its position-keyed ``slots``
map and return to the generic cache machinery only when the selected
vertex's column is a miss (one oracle fetch, then re-enter).

Two loops live here:

:func:`run_fused`
    The production loop :func:`repro.dynamics.lid.lid_dynamics` runs:
    single-pass NumPy over the resident block with bound-method
    reductions, an incrementally maintained support-penalty array
    instead of a per-iteration mask rebuild, stacked ``x``/``g``
    updates for shared scale factors, and one LRU stamp (a list
    store into the cache's ``last_use``) per period served.
:func:`run_reference`
    The historical per-period loop, kept as the equivalence
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


# ----------------------------------------------------------------------
# reference loop (the historical loop, equivalence oracle)
# ----------------------------------------------------------------------
def run_reference(state, max_iter: int, tol: float) -> tuple[int, bool]:
    """Run LID periods with the original per-iteration loop.

    One cache lookup (:meth:`ColumnBlockCache.get` of the selected
    position) and ~12 small NumPy ops per period.  Kept as the oracle
    :func:`run_fused` is pinned against, and as its fallback for
    degenerate input.
    """
    x = state.x
    g = state.g
    get = state._cache.get
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
        col = get(pos)
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


# ----------------------------------------------------------------------
# fused loop (single-pass NumPy on the resident block)
# ----------------------------------------------------------------------
def run_fused(state, max_iter: int, tol: float) -> tuple[int, bool]:
    """Run LID periods as a run-until-miss loop over the resident block.

    Per period (cache-hit path): one BLAS dot, four array passes for
    the Eq. 6/8 selection (subtract / argmax / penalty-add / argmin),
    the Eq. 13/14 update on a stacked ``(2, m)`` view of ``x`` and
    ``g``, one sum for the roundoff hygiene and one recency stamp — no
    cache call, no allocations.  The stamps and the hits they count are
    published to the cache before each miss and at exit.  The support
    set is tracked as a ``0/+inf`` penalty array updated incrementally
    (the support changes by at most the selected vertex per period);
    the rare underflow-to-zero of a third vertex is detected at
    selection time and triggers a rebuild, so the trajectory stays
    bit-identical to the reference loop.
    """
    if not _clean_start(state.x, state.g):
        return run_reference(state, max_iter, tol)
    cache = state._cache
    m = int(state.beta.size)
    stacked = np.empty((2, m))
    stacked[0] = state.x
    stacked[1] = state.g
    x = stacked[0]
    g = stacked[1]
    s = np.empty(m)
    tmp = np.empty(m)
    pen = np.where(x > 0.0, 0.0, _INF)
    subtract = np.subtract
    add = np.add
    multiply = np.multiply
    divide = np.divide
    x_dot = x.dot
    s_argmax = s.argmax
    tmp_argmin = tmp.argmin
    x_sum = x.sum
    buf = cache.buf
    slots = cache.slots
    last_use = cache.last_use
    # The stamps taken since `start` are the periods served: hits.
    clock = start = cache.clock
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
                # Publish first: an eviction reads the stamps.  `get`
                # updates `slots` and `last_use` in place and may grow
                # the buffer.
                cache.hits += clock - start
                cache.clock = start = clock
                cache.get(pos)
                clock = start = cache.clock
                buf = cache.buf
                slot = int(slots[pos])
            else:
                last_use[slot] = clock
                clock += 1
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
        cache.hits += clock - start
        cache.clock = clock
        state.x = x.copy()
        state.g = g.copy()
    return it, converged
