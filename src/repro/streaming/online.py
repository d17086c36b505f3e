"""StreamingALID: online dominant-cluster detection over arriving batches.

Design (an incremental reading of paper Alg. 2):

* The LSH index, kernel scale and configuration are fixed from the
  first batch; later batches are hashed into the same tables
  (:meth:`repro.lsh.index.LSHIndex.insert`).
* **Absorb** — for every existing dominant cluster, arriving items that
  are infective against it (``pi(s_j - x, x) > tol``, the Theorem 1
  criterion) trigger a LID re-convergence of that cluster over its old
  support plus the joiners.  Members that lose their weight in the
  re-converged strategy return to the unassigned pool.  A
  re-convergence starts from a converged strategy and asks for nearly
  every column of its local range, so it prefetches the whole range in
  one oracle call (bit-identical to the misses it replaces) instead of
  taking one LID miss per column.
* **Discover** — every arrival absorb left unassigned dirties its whole
  LSH collision component (a seeded Alg. 2 run never leaves its seed's
  component), and Alg. 2 runs seeded across the dirty components, in
  the fit's seed order, grow any genuinely new dominant clusters there;
  sub-threshold detections stay unassigned (noise may become a cluster
  once enough similar items have arrived).  Components no arrival
  touched keep their old outcome and are not re-seeded.
* **Retire** — expired items (old news, deleted posts) are tombstoned:
  they vanish from every future query and every cluster containing one
  re-converges over its survivors (the same prefetching
  re-convergence as absorb); clusters that fall below the
  dominance threshold dissolve back into the pool.
  ``discover(np.arange(n_items))`` re-runs discovery over the whole
  pool, for streams where retirement may have *freed* items to regroup.

Work and memory follow the ALID accounting: only local blocks are ever
computed, through the shared instrumented oracle.  Tombstoned rows stay
in the data matrix (index-stable), so memory is reclaimed only by
rebuilding a fresh stream — the trade the paper's MongoDB-backed tables
make as well.
"""

from __future__ import annotations

import numpy as np

from repro.affinity.kernel import LaplacianKernel
from repro.affinity.oracle import AffinityCounters, AffinityOracle
from repro.core.alid import ALIDEngine, SeedSchedule, calibrate
from repro.core.config import ALIDConfig
from repro.core.infectivity import infective_mask, item_payoffs
from repro.core.results import Cluster, DetectionResult
from repro.exceptions import ValidationError
from repro.lsh.index import LSHIndex
from repro.utils.timing import timed
from repro.utils.validation import check_data_matrix, check_index_array

__all__ = ["StreamingALID"]


class StreamingALID:
    """Online ALID over a stream of item batches.

    Parameters
    ----------
    config:
        The usual ALID configuration.  The kernel scale and LSH segment
        length are calibrated on the **first** batch and frozen, so the
        affinity semantics stay consistent across the stream.

    Example
    -------
    >>> from repro import ALIDConfig, make_synthetic_mixture
    >>> from repro.streaming import StreamingALID
    >>> ds = make_synthetic_mixture(n=400, regime="bounded", bound=200,
    ...                             n_clusters=5, dim=20, seed=0)
    >>> stream = StreamingALID(ALIDConfig(delta=100, seed=0))
    >>> _ = stream.partial_fit(ds.data[:200])
    >>> snapshot = stream.partial_fit(ds.data[200:])
    >>> snapshot.n_items
    400
    """

    def __init__(self, config: ALIDConfig | None = None):
        self.config = config or ALIDConfig()
        self._data: np.ndarray | None = None
        self._kernel: LaplacianKernel | None = None
        self._index: LSHIndex | None = None
        # (batch, kernel, index) calibrated on a first batch not yet ingested.
        self._calibrated: tuple | None = None
        self._counters = AffinityCounters()
        self._clusters: list[Cluster] = []
        self._assigned: np.ndarray = np.zeros(0, dtype=bool)
        self._retired: np.ndarray = np.zeros(0, dtype=bool)
        self._next_label = 0
        self._batches = 0

    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        """Items seen so far (including retired tombstones)."""
        return 0 if self._data is None else self._data.shape[0]

    @property
    def n_retired(self) -> int:
        """Items retired from the stream."""
        return int(self._retired.sum())

    @property
    def n_clusters(self) -> int:
        """Current number of dominant clusters."""
        return len(self._clusters)

    @property
    def clusters(self) -> list[Cluster]:
        """The current dominant clusters (a copy of the list)."""
        return list(self._clusters)

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the stream's data matrix (tombstones included)."""
        if self._data is None:
            return np.zeros((0, 0))
        view = self._data.view()
        view.flags.writeable = False
        return view

    @property
    def assigned_mask(self) -> np.ndarray:
        """Read-only mask of items currently in some dominant cluster."""
        view = self._assigned.view()
        view.flags.writeable = False
        return view

    @property
    def retired_mask(self) -> np.ndarray:
        """Read-only mask of items retired (tombstoned) from the stream."""
        view = self._retired.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    def check_batch(self, batch: np.ndarray) -> np.ndarray:
        """Refuse what :meth:`partial_fit` would refuse.

        Checks the matrix (2-D, non-empty, finite), then whether every
        row can be hashed into the index: once the stream holds data,
        the width and :meth:`repro.lsh.index.LSHIndex.check_hashable`;
        on an empty stream, by calibrating the kernel and building the
        index on the batch, which :meth:`partial_fit` then adopts for
        that same batch instead of building them again.  The stream's
        data and clusters are left unchanged.  A journaled caller runs
        this before it records the batch.  Returns the canonical
        ``float64`` batch.
        """
        batch = check_data_matrix(batch, name="batch")
        if self._data is None:
            self._calibrate(batch)
        else:
            self._check_width(batch)
            self._index.check_hashable(batch)
        return batch

    def _check_width(self, batch: np.ndarray) -> None:
        if batch.shape[1] != self._data.shape[1]:
            raise ValidationError(
                f"batch has dim {batch.shape[1]}, stream expects "
                f"{self._data.shape[1]}"
            )

    def partial_fit(self, batch: np.ndarray) -> DetectionResult:
        """Ingest one batch and return the updated detection snapshot.

        Arrivals infective against an existing cluster join it through
        that cluster's LID re-convergence.  Every arrival left
        unassigned dirties its whole LSH collision component, and
        :meth:`discover` re-peels exactly those components.  The
        snapshot's ``metadata`` adds the batch's ``absorbed`` count and
        its ``dirty_marked`` count (the items the re-peel covered).

        Parameters
        ----------
        batch:
            Arriving items, shape ``(m, d)``.
        """
        batch = check_data_matrix(batch, name="batch")
        with timed() as clock:
            if self._data is None:
                self._bootstrap(batch)
                new_indices = np.arange(batch.shape[0], dtype=np.intp)
            else:
                self._check_width(batch)
                new_indices = self._index.insert(batch)
                self._data = np.vstack([self._data, batch])
                self._assigned = np.concatenate(
                    [self._assigned, np.zeros(batch.shape[0], dtype=bool)]
                )
                self._retired = np.concatenate(
                    [self._retired, np.zeros(batch.shape[0], dtype=bool)]
                )
            self._batches += 1
            self._absorb(self._make_oracle(), new_indices)
            self._sync_index_mask()
            leftover = new_indices[~self._assigned[new_indices]]
            dirty = leftover
            if leftover.size:
                dirty = self._index.collision_components(leftover)
                self.discover(dirty)
        return self._snapshot(
            clock[0],
            absorbed=int(new_indices.size - leftover.size),
            dirty_marked=int(dirty.size),
        )

    def discover(self, indices: np.ndarray) -> DetectionResult:
        """Run discovery seeded from the given unassigned items.

        Alg. 2 runs are seeded only at *indices* (assigned or retired
        entries are skipped), in the order the fit's
        :class:`~repro.core.alid.SeedSchedule` visits them.
        :meth:`partial_fit` passes the collision components its batch
        left dirty; ``discover(np.arange(n_items))`` sweeps the whole
        pool, e.g. after retirements freed items to regroup.
        """
        if self._data is None:
            raise ValidationError("stream has not seen any data yet")
        indices = check_index_array(indices, self.n_items, name="indices")
        with timed() as clock:
            pool = indices[
                ~self._assigned[indices] & ~self._retired[indices]
            ]
            if pool.size:
                oracle = self._make_oracle()
                self._discover(oracle, pool)
        return self._snapshot(clock[0])

    def export_appended_keys(self, start: int) -> np.ndarray:
        """Per-table LSH bucket keys of items ``start..n_items`` ``(l, m)``.

        The insert state a :class:`~repro.serve.snapshot.SnapshotDelta`
        persists: the keys the parent index would assign the appended
        rows, without re-hashing at apply time.
        """
        if self._data is None:
            raise ValidationError("stream has not seen any data yet")
        return self._index.export_keys(start)

    def to_snapshot(self, *, meta: dict | None = None):
        """Capture the full current state as a serve-time snapshot.

        The streaming twin of
        :meth:`repro.serve.snapshot.DetectionSnapshot.from_result`: data
        matrix, LSH insert state, calibrated kernel and the current
        dominant clusters, ready to save or serve.  This is the *base*
        artifact a delta chain anchors to.
        """
        from repro.serve.snapshot import DetectionSnapshot

        if self._data is None:
            raise ValidationError("stream has not seen any data yet")
        oracle = self._make_oracle()
        engine = self._make_engine(oracle)
        base_meta = {
            "method": "StreamingALID",
            "batches": self._batches,
            "retired": self.n_retired,
        }
        base_meta.update(meta or {})
        return DetectionSnapshot.from_engine(
            engine, list(self._clusters), meta=base_meta
        )

    def result(self) -> DetectionResult:
        """Current detection snapshot without ingesting anything."""
        return self._snapshot(0.0)

    def retire(self, indices: np.ndarray) -> DetectionResult:
        """Remove items from the stream (expiry / deletion).

        Retired items disappear from every future LSH query and from
        every cluster: a cluster losing members re-converges by LID
        over its survivors; if it falls below the dominance threshold
        (or the minimum size) it dissolves and its surviving members
        return to the unassigned pool.  Retiring is idempotent.
        """
        if self._data is None:
            raise ValidationError("stream has not seen any data yet")
        indices = check_index_array(indices, self.n_items, name="indices")
        with timed() as clock:
            self._retired[indices] = True
            self._assigned[indices] = False
            self._sync_index_mask()
            oracle = self._make_oracle()
            survivors: list[Cluster] = []
            for cluster in self._clusters:
                hit = self._retired[cluster.members]
                if not hit.any():
                    survivors.append(cluster)
                    continue
                refreshed = self._shrink_cluster(oracle, cluster)
                if refreshed is not None:
                    survivors.append(refreshed)
            self._clusters = survivors
            self._sync_index_mask()
        return self._snapshot(clock[0])

    def _shrink_cluster(
        self, oracle: AffinityOracle, cluster: Cluster
    ) -> Cluster | None:
        """Re-converge a cluster after member retirement.

        Returns the refreshed cluster, or None when the survivors no
        longer form a dominant cluster (they return to the pool).
        """
        cfg = self.config
        keep = ~self._retired[cluster.members]
        members = cluster.members[keep]
        if members.size < max(cfg.min_cluster_size, 2):
            self._assigned[members] = False
            return None
        weights = cluster.weights[keep]
        total = float(weights.sum())
        weights = (
            weights / total
            if total > 0
            else np.full(members.size, 1.0 / members.size)
        )
        new_members, new_weights, density = self._reconverge(
            oracle, members, weights
        )
        dropped = np.setdiff1d(members, new_members)
        self._assigned[dropped] = False
        if (
            density < cfg.density_threshold
            or new_members.size < cfg.min_cluster_size
        ):
            self._assigned[new_members] = False
            return None
        self._assigned[new_members] = True
        return Cluster(
            members=new_members,
            weights=new_weights,
            density=density,
            label=cluster.label,
            seed=cluster.seed,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _calibrate(self, batch: np.ndarray) -> tuple:
        """Kernel and LSH index fixed from the first batch, built once.

        Kept as ``(batch, kernel, index)`` and reused only for a batch
        equal to the one they were built on, so a batch that was checked
        but never ingested (its journal append failed, say) cannot lend
        its calibration to a different first batch.
        """
        if self._calibrated is not None and np.array_equal(
            self._calibrated[0], batch
        ):
            return self._calibrated
        batch = batch.copy()
        kernel, index = calibrate(batch, self.config)
        self._calibrated = (batch, kernel, index)
        return self._calibrated

    def _bootstrap(self, batch: np.ndarray) -> None:
        self._data, self._kernel, self._index = self._calibrate(batch)
        self._calibrated = None
        self._assigned = np.zeros(batch.shape[0], dtype=bool)
        self._retired = np.zeros(batch.shape[0], dtype=bool)

    def _make_oracle(self) -> AffinityOracle:
        return AffinityOracle(
            self._data, self._kernel, counters=self._counters
        )

    def _make_engine(self, oracle: AffinityOracle) -> ALIDEngine:
        """Assemble an engine around the streaming state (no rebuilds)."""
        engine = ALIDEngine.__new__(ALIDEngine)
        engine.config = self.config
        engine.kernel = self._kernel
        engine.oracle = oracle
        engine.lsh_r = self._index.r
        engine.index = self._index
        return engine

    def _absorb(self, oracle: AffinityOracle, new_indices: np.ndarray) -> None:
        """Let arriving infective items join existing clusters via LID."""
        if not self._clusters or new_indices.size == 0:
            return
        cfg = self.config
        updated: list[Cluster] = []
        for cluster in self._clusters:
            fresh = new_indices[~self._assigned[new_indices]]
            if fresh.size == 0:
                updated.append(cluster)
                continue
            pay = item_payoffs(
                oracle,
                fresh,
                cluster.members,
                cluster.weights,
                cluster.density,
            )
            joiners = fresh[infective_mask(pay, cfg.tol)]
            if joiners.size == 0:
                updated.append(cluster)
                continue
            members, weights, density = self._reconverge(
                oracle, cluster.members, cluster.weights, joiners
            )
            # Dropped members go back to the pool; joiners that made it
            # into the support leave it.
            dropped = np.setdiff1d(cluster.members, members)
            self._assigned[dropped] = False
            self._assigned[members] = True
            updated.append(
                Cluster(
                    members=members,
                    weights=weights,
                    density=density,
                    label=cluster.label,
                    seed=cluster.seed,
                )
            )
        self._clusters = updated

    def _reconverge(
        self,
        oracle: AffinityOracle,
        members: np.ndarray,
        weights: np.ndarray,
        joiners: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """LID over a live cluster's *members* plus any *joiners*.

        Starts from the cluster's strategy (the joiners at zero weight)
        and returns the re-converged ``(members, weights, density)``.
        A converged strategy re-converging asks for nearly every column
        of its local range, so the whole range is prefetched in one
        oracle call over the held row block, bit-identical to the
        misses it replaces, and the LID loop never leaves the resident
        block.
        """
        from repro.dynamics.lid import LIDState, lid_dynamics

        cfg = self.config
        beta, x = members, weights
        if joiners is not None:
            beta = np.concatenate([members, joiners])
            x = np.concatenate([weights, np.zeros(joiners.size)])
        g = oracle.block(beta, members) @ weights
        state = LIDState(oracle, beta, x, g)
        state.prefetch_columns()
        lid_dynamics(state, max_iter=cfg.max_lid_iterations, tol=cfg.tol)
        state.restrict_to_support()
        positions = state.support_positions(cfg.support_tol)
        result = (
            state.beta[positions],
            state.x[positions].copy(),
            state.density(),
        )
        state.release()
        return result

    def _sync_index_mask(self) -> None:
        """Index visibility = unassigned, unretired items only."""
        self._index.reactivate_all()
        taken = np.flatnonzero(self._assigned | self._retired)
        if taken.size:
            self._index.deactivate(taken)

    def _discover(self, oracle: AffinityOracle, seeds: np.ndarray) -> None:
        """Grow new dominant clusters seeded from *seeds* (pool items)."""
        cfg = self.config
        self._sync_index_mask()
        engine = self._make_engine(oracle)
        schedule = SeedSchedule(self._index, seeds)
        attempts = 0
        while attempts < seeds.size:
            seed = schedule.next_active()
            if seed is None:
                break
            attempts += 1
            detection = engine.detect_from_seed(seed)
            members = detection.members
            if (
                detection.density >= cfg.density_threshold
                and members.size >= cfg.min_cluster_size
            ):
                self._clusters.append(
                    Cluster(
                        members=members,
                        weights=detection.weights,
                        density=detection.density,
                        label=self._next_label,
                        seed=seed,
                    )
                )
                self._next_label += 1
                self._assigned[members] = True
                self._sync_index_mask()
            else:
                # Not (yet) dominant: hide the seed for this round so
                # the schedule advances; it stays unassigned.
                self._index.deactivate(np.asarray([seed]))
        self._sync_index_mask()

    def _snapshot(self, runtime: float, **batch_counts: int) -> DetectionResult:
        return DetectionResult(
            clusters=list(self._clusters),
            all_clusters=list(self._clusters),
            n_items=self.n_items,
            runtime_seconds=runtime,
            counters=self._counters.snapshot(),
            method="StreamingALID",
            metadata={
                "batches": self._batches,
                "retired": self.n_retired,
                "kernel_k": None if self._kernel is None else self._kernel.k,
                **batch_counts,
            },
        )
