"""Localized Infection Immunization Dynamics — LID (paper Alg. 1, §4.1).

LID runs the infection/immunization scheme *inside a local range* ``beta``
(an index set of graph vertices) and never touches the full affinity
matrix: it maintains

* ``x``      — the local mixed strategy, aligned with ``beta``;
* ``g``      — the payoff vector ``(A x)_beta = A[beta, alpha] @ x_alpha``
  (the paper's ``A_beta_alpha x_alpha``); and
* a cache of affinity columns ``A[beta, j]`` for members ``j`` of
  ``beta`` (paper Fig. 3's green columns), fetched on demand through the
  instrumented oracle and charged to the simulated-memory accounting.
  The cache is the matrix-backed LRU
  :class:`~repro.affinity.cache.ColumnBlockCache`, keyed by position in
  ``beta``: a miss evaluates only the selected column, one
  matrix-vector product over the row block ``data[beta]`` the cache
  holds from the range's first miss, local-range changes are single
  fancy-index operations (a restriction drops the columns of the
  vertices it removes), and under a storage budget the
  least-recently-used columns are evicted instead of aborting the run.

Per iteration: O(|beta|) arithmetic plus at most one new column of kernel
evaluations — exactly the paper's claimed cost.  The iteration loop
itself is :func:`repro.dynamics.lid_kernel.run_fused` (run-until-miss
over the cache's resident block).  A run that will ask for nearly every
column of its range — the streaming tier's re-convergence of a live
cluster from its converged strategy — first makes the whole range
resident with :meth:`LIDState.prefetch_columns`: one oracle call whose
columns are bit-identical to the misses it replaces, after which its
periods fetch nothing.  :meth:`LIDState.column`,
:meth:`~LIDState.has_cached` and :meth:`~LIDState.cached_column` take a
global id and map it through ``beta``; the loops address the cache by
position.
"""

from __future__ import annotations

import time

import numpy as np

from repro.affinity.cache import ColumnBlockCache
from repro.affinity.oracle import AffinityOracle
from repro.dynamics.lid_kernel import run_fused
from repro.exceptions import ValidationError
from repro.obs import phases
from repro.utils.validation import check_index_array

__all__ = ["LIDState", "lid_dynamics"]


class LIDState:
    """Mutable state of a localized infection-immunization run.

    The state owns the column cache and its storage accounting; call
    :meth:`release` when a cluster is peeled so the simulated memory is
    freed (paper §4.5: "all submatrices are released when the i-th
    cluster is peeled off").
    """

    def __init__(
        self,
        oracle: AffinityOracle,
        beta: np.ndarray,
        x: np.ndarray,
        g: np.ndarray,
    ):
        self.oracle = oracle
        self.beta = check_index_array(beta, oracle.n, name="beta", allow_empty=False)
        if len(np.unique(self.beta)) != len(self.beta):
            raise ValidationError("beta contains duplicate indices")
        self.x = np.asarray(x, dtype=np.float64).copy()
        self.g = np.asarray(g, dtype=np.float64).copy()
        if self.x.shape != self.beta.shape or self.g.shape != self.beta.shape:
            raise ValidationError(
                f"x/g must align with beta: beta={self.beta.shape}, "
                f"x={self.x.shape}, g={self.g.shape}"
            )
        self._cache = ColumnBlockCache(oracle, self.beta)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_seed(cls, oracle: AffinityOracle, seed_index: int) -> "LIDState":
        """Paper Alg. 2 line 1: beta = {i}, x = s_i, A_beta_alpha x = a_ii = 0."""
        beta = np.asarray([seed_index], dtype=np.intp)
        return cls(oracle, beta, np.asarray([1.0]), np.asarray([0.0]))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Current size of the local range |beta|."""
        return int(self.beta.size)

    def density(self) -> float:
        """Graph density pi(x) = x' A x = sum_i x_i * g_i (local)."""
        return float(self.x @ self.g)

    def payoffs(self) -> np.ndarray:
        """pi(s_i - x, x) for every i in beta (paper Eq. 10)."""
        return self.g - self.density()

    def support_positions(self, tol: float = 0.0) -> np.ndarray:
        """Positions (into beta) of vertices with weight > tol."""
        return np.flatnonzero(self.x > tol).astype(np.intp)

    def support_global(self, tol: float = 0.0) -> np.ndarray:
        """Global indices of the support (the paper's alpha set)."""
        return self.beta[self.support_positions(tol)]

    def cached_entries(self) -> int:
        """Number of affinity entries currently held by the column cache."""
        return self._cache.cached_entries()

    def has_cached(self, j_global: int) -> bool:
        """True when column *j_global* is resident in the cache."""
        pos = self._position(j_global)
        return pos is not None and pos in self._cache

    def cached_column(self, j_global: int) -> np.ndarray | None:
        """An owned copy of the cached column, or None (never fetches)."""
        pos = self._position(j_global)
        return None if pos is None else self._cache.peek(pos)

    def _position(self, j_global: int) -> int | None:
        """Position of vertex *j_global* in beta, or None."""
        found = np.flatnonzero(self.beta == int(j_global))
        return int(found[0]) if found.size else None

    # ------------------------------------------------------------------
    # column cache (A[beta, j], paper Fig. 3)
    # ------------------------------------------------------------------
    def column(self, j_global: int) -> np.ndarray:
        """Affinity column ``A[beta, j]`` of a member *j_global*, cached.

        Returns a view valid only until the next cache operation (see
        :meth:`ColumnBlockCache.get`); copy it if held across fetches.
        Raises :class:`~repro.exceptions.ValidationError` when
        *j_global* is not in beta.
        """
        pos = self._position(j_global)
        if pos is None:
            raise ValidationError(f"vertex {j_global} is not in beta")
        return self._cache.get(pos)

    def prefetch_columns(self) -> None:
        """Make the column of every vertex of beta resident, in one call.

        Each column is bit-identical to the miss it replaces
        (:meth:`~repro.affinity.cache.ColumnBlockCache.ensure`), so a
        run after the prefetch follows the same iterates.
        """
        self._cache.ensure(np.arange(self.size))

    def release(self) -> None:
        """Free all cached columns (cluster peeled).

        When a :class:`~repro.obs.phases.PhaseProfiler` is active, the
        cache's lifetime hit/miss/eviction tallies are drained into the
        ``cache`` phase (paper §4.5's release discipline is the natural
        flush point — the cache dies with the peeled cluster).
        """
        prof = phases.active()
        if prof is not None:
            cache = self._cache
            prof.record(
                "cache",
                entries=cache.cached_entries(),
                hits=cache.hits,
                misses=cache.misses,
                evictions=cache.evictions,
            )
            cache.hits = cache.misses = cache.evictions = 0
        self._cache.release_all()

    # ------------------------------------------------------------------
    # local-range updates (paper Eq. 17 and the beta = alpha ∪ psi step)
    # ------------------------------------------------------------------
    def restrict_to_support(self) -> None:
        """Shrink the local range to the support: beta <- alpha.

        Keeps ``g`` consistent because ``x`` has no weight outside alpha:
        ``g_alpha = A[alpha, alpha] @ x_alpha`` (paper Eq. 17, top block).
        Cached columns for vertices remaining in beta are row-subset with
        one fancy-index; the cache drops all others.
        """
        pos = self.support_positions()
        if pos.size == self.beta.size:
            return
        self._cache.restrict_rows(pos)
        self.beta = self.beta[pos]
        self.x = self.x[pos].copy()
        self.g = self.g[pos].copy()

    def extend(self, psi: np.ndarray) -> None:
        """Grow the local range with new vertices psi (CIVS output).

        Implements paper Eq. 17: the new vertices join with zero weight
        and their payoff entries ``g_psi = A[psi, alpha] @ x_alpha`` are
        computed through the oracle.  The payoff block ``A[psi, alpha]``
        and the psi-row extension of every cached column come from
        **one** fused block fetch
        (:meth:`~repro.affinity.cache.ColumnBlockCache.extend_rows`
        with the support positions as ``fetch_cols``): support columns
        that are already cached — the common case after a converged LID
        period — are charged once instead of twice, and nothing
        speculative is ever computed.  Members of beta in *psi* are
        skipped; a repeated vertex raises
        :class:`~repro.exceptions.ValidationError`, as a repeated beta
        does.
        """
        psi = check_index_array(psi, self.oracle.n, name="psi")
        if psi.size == 0:
            return
        if len(np.unique(psi)) != len(psi):
            raise ValidationError("psi contains duplicate indices")
        psi = psi[np.isin(psi, self.beta, invert=True)]
        if psi.size == 0:
            return
        prof = phases.active()
        t0 = time.perf_counter() if prof is not None else 0.0
        before = self.oracle.counters.entries_computed
        alpha_pos = self.support_positions()
        if alpha_pos.size > 0:
            block = self._cache.extend_rows(psi, fetch_cols=alpha_pos)
            g_psi = block @ self.x[alpha_pos]
        else:
            self._cache.extend_rows(psi)
            g_psi = np.zeros(psi.size, dtype=np.float64)
        self.beta = np.concatenate([self.beta, psi])
        self.x = np.concatenate([self.x, np.zeros(psi.size)])
        self.g = np.concatenate([self.g, g_psi])
        if prof is not None:
            prof.record(
                "extend",
                wall=time.perf_counter() - t0,
                entries=self.oracle.counters.entries_computed - before,
                vertices=int(psi.size),
            )

    # ------------------------------------------------------------------
    # consistency check (used by tests)
    # ------------------------------------------------------------------
    def recompute_g(self) -> np.ndarray:
        """Recompute ``(A x)_beta`` from scratch (testing/verification)."""
        alpha_pos = self.support_positions()
        if alpha_pos.size == 0:
            return np.zeros(self.beta.size)
        block = self.oracle.block(self.beta, self.beta[alpha_pos])
        return block @ self.x[alpha_pos]


def lid_dynamics(
    state: LIDState,
    *,
    max_iter: int = 1000,
    tol: float = 1e-7,
) -> tuple[int, bool]:
    """Run LID iterations (paper Alg. 1) on *state* in place.

    Repeats single LID periods until the local point is immune against
    every vertex of the local range (``gamma_beta(x) = empty``, Theorem 1)
    up to *tol*, or until *max_iter* — the paper's constant ``T``.

    The periods run in :func:`~repro.dynamics.lid_kernel.run_fused`, a
    run-until-miss pass over the cache's resident block that is
    bit-identical to the historical per-period loop
    (:func:`~repro.dynamics.lid_kernel.run_reference`) in iterates,
    iteration counts, work accounting and cache recency order; per
    period the only kernel work is (at most) one column fetch through
    the LRU cache.

    Returns
    -------
    (iterations, converged)
    """
    prof = phases.active()
    if prof is None:
        return run_fused(state, max_iter, tol)
    t0 = time.perf_counter()
    before = state.oracle.counters.entries_computed
    iterations, converged = run_fused(state, max_iter, tol)
    prof.record(
        "lid",
        wall=time.perf_counter() - t0,
        entries=state.oracle.counters.entries_computed - before,
        iterations=int(iterations),
    )
    return iterations, converged
