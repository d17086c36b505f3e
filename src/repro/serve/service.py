"""ClusterService: a long-lived assignment front over snapshot artifacts.

The service owns one loaded snapshot + assigner pair and exposes the
operations a serving process needs:

* :meth:`ClusterService.assign` — batch assignment, delegated to the
  current :class:`~repro.serve.assigner.ClusterAssigner`;
* :meth:`ClusterService.reload` — **atomic hot-reload**: a newer
  snapshot is loaded and validated completely off to the side, then
  swapped in with one reference assignment.  In-flight batches finish
  against the snapshot they started with, and a failed load (corrupt
  artifact, future schema) leaves the old snapshot serving — the
  service never degrades to partial state;
* :meth:`ClusterService.stats` — serving counters at two scopes.  The
  top-level counters (queries, batches, coverage, affinity work,
  reloads) are **lifetime** totals: they span the service's whole life
  and survive every hot reload.  The nested ``"snapshot"`` block holds
  the same counters scoped to the **currently served snapshot**: a
  successful :meth:`ClusterService.reload` resets them to zero (a
  failed reload, which keeps the old snapshot serving, resets
  nothing).  Work is accumulated under the service lock from each
  batch's race-free
  :attr:`~repro.serve.assigner.Assignment.entries_computed`, so the
  totals stay exact even when batches run concurrently.

This mirrors the paper's §4.6 deployment shape: fitted state (hash
tables + items) lives in a server database; query-time workers read it
and answer membership questions without ever refitting.
"""

from __future__ import annotations

import pathlib
import threading
import time

import numpy as np

from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry, default_latency_bounds_ms
from repro.obs.trace import TID_ROUTER
from repro.serve.assigner import Assignment, ClusterAssigner
from repro.serve.snapshot import DetectionSnapshot, SnapshotDelta

__all__ = ["ClusterService", "SERVING_STATS_SCHEMA"]

#: The single declaration both stats scopes (and both service fronts)
#: derive from: ``(stats key, backing metric, help, flags)``.  Flags:
#: ``"derived"`` — computed from other fields (no backing counter);
#: ``"lifetime"`` — present only at the top-level (lifetime) scope;
#: ``"gauge"`` — current-state value backed by a registry gauge (set at
#: install/reload, identical in both scopes — gauges describe the
#: served snapshot, not an accumulation since some point).  Both fronts
#: render every row; the single-process service never advances the
#: degraded-mode ones (``degraded_batches``, ``respawns``,
#: ``healed_shards``), so its stats keep the sharded keys.  The parity
#: test in ``tests/test_serve_faults.py`` checks the *rendered* dicts;
#: this table is why the check can't silently rot.
SERVING_STATS_SCHEMA = (
    ("batches", "serve_batches_total", "Query batches served", ""),
    ("queries", "serve_queries_total", "Query rows served", ""),
    (
        "assigned",
        "serve_assigned_total",
        "Query rows assigned to a dominant cluster",
        "",
    ),
    ("coverage", None, "assigned / queries (derived)", "derived"),
    (
        "reloads",
        "serve_reloads_total",
        "Successful hot reloads (full or delta)",
        "lifetime",
    ),
    (
        "entries_computed",
        "serve_entries_computed_total",
        "Serve-side affinity entries computed",
        "",
    ),
    (
        "quality_clusters",
        "serve_quality_clusters",
        "Clusters carrying quality annotations in the served snapshot",
        "gauge",
    ),
    (
        "degraded_batches",
        "serve_degraded_batches_total",
        "Batches served with at least one shard missing",
        "",
    ),
    (
        "respawns",
        "serve_respawns_total",
        "Replacement shard workers spawned by heals",
        "",
    ),
    (
        "healed_shards",
        "serve_healed_shards_total",
        "Shards returned to the pool by heals",
        "",
    ),
)


class _ServingCounters:
    """Two-scope serving counters shared by both service fronts.

    Backed by :class:`~repro.obs.metrics.MetricsRegistry` counters —
    the lifetime scope reads the counters directly, the snapshot scope
    is the diff against a checkpoint taken at the last successful hot
    reload (a heal advances counters but never moves the checkpoint:
    the served snapshot did not change).  Both scopes render from
    :data:`SERVING_STATS_SCHEMA`, so :class:`ClusterService` and
    :class:`~repro.serve.sharded.ShardedClusterService` cannot drift on
    the documented stats semantics.

    Instances are not thread-safe on their own — both services mutate
    them under their service lock (the metric objects add their own
    registry lock, which keeps concurrent scrapes consistent).
    """

    __slots__ = (
        "registry",
        "_counters",
        "_gauges",
        "_snapshot_base",
        "_quality_labels",
    )

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = (
            MetricsRegistry(component="serve")
            if registry is None
            else registry
        )
        self._counters = {
            key: self.registry.counter(metric, help)
            for key, metric, help, flags in SERVING_STATS_SCHEMA
            if metric is not None and flags != "gauge"
        }
        self._gauges = {
            key: self.registry.gauge(metric, help)
            for key, metric, help, flags in SERVING_STATS_SCHEMA
            if flags == "gauge"
        }
        self._snapshot_base = {
            key: counter.value for key, counter in self._counters.items()
        }
        self._quality_labels: set[tuple[int, str]] = set()

    def record_batch(
        self,
        n_queries: int,
        assigned: int,
        entries: int,
        *,
        degraded: bool = False,
    ) -> None:
        """Account one served batch (both scopes read the same counters)."""
        self._counters["batches"].inc()
        self._counters["queries"].inc(int(n_queries))
        self._counters["assigned"].inc(int(assigned))
        self._counters["entries_computed"].inc(int(entries))
        if degraded:
            self._counters["degraded_batches"].inc()

    def record_reload(self) -> None:
        """Account a successful hot reload: snapshot scope starts over."""
        self._counters["reloads"].inc()
        self._snapshot_base = {
            key: counter.value for key, counter in self._counters.items()
        }

    def set_quality(
        self, quality: dict[int, dict[str, float]] | None
    ) -> None:
        """Export the served snapshot's quality block as gauges.

        One ``serve_cluster_quality{cluster=..., metric=...}`` gauge
        per (cluster, metric) pair, plus the schema-level
        ``serve_quality_clusters`` count.  Gauges of (cluster, metric)
        pairs from a previously served snapshot that are absent from
        *quality* are reset to 0 — a reload to an unannotated snapshot
        must not keep scraping stale per-cluster scores.
        """
        fresh: set[tuple[int, str]] = set()
        for label, scores in (quality or {}).items():
            for metric, score in scores.items():
                self.registry.gauge(
                    "serve_cluster_quality",
                    "Per-cluster quality score of the served snapshot",
                    cluster=str(int(label)),
                    metric=str(metric),
                ).set(float(score))
                fresh.add((int(label), str(metric)))
        for label, metric in self._quality_labels - fresh:
            self.registry.gauge(
                "serve_cluster_quality",
                "Per-cluster quality score of the served snapshot",
                cluster=str(label),
                metric=metric,
            ).set(0.0)
        self._quality_labels = fresh
        self._gauges["quality_clusters"].set(len(quality or {}))

    def record_heal(self, n_shards: int) -> None:
        """Account one heal of *n_shards* shards (checkpoint stays put).

        One replacement worker per shard, so ``respawns`` and
        ``healed_shards`` advance together.
        """
        self._counters["respawns"].inc(int(n_shards))
        self._counters["healed_shards"].inc(int(n_shards))

    def _render(self, snapshot_scope: bool) -> dict:
        """Render one scope from :data:`SERVING_STATS_SCHEMA`."""
        values = {
            key: (
                counter.value - self._snapshot_base.get(key, 0)
                if snapshot_scope
                else counter.value
            )
            for key, counter in self._counters.items()
        }
        out: dict = {}
        for key, metric, _help, flags in SERVING_STATS_SCHEMA:
            if flags == "lifetime" and snapshot_scope:
                continue
            if flags == "gauge":
                out[key] = self._gauges[key].value
            elif flags == "derived":
                out[key] = (
                    values["assigned"] / values["queries"]
                    if values["queries"]
                    else 0.0
                )
            else:
                out[key] = values[key]
        return out

    def lifetime_dict(self) -> dict:
        """The top-level (lifetime) stats fields."""
        return self._render(False)

    def snapshot_dict(self) -> dict:
        """The nested per-snapshot stats block."""
        return self._render(True)


class ClusterService:
    """Serve cluster assignments from a snapshot, with hot reload.

    Parameters
    ----------
    source:
        A snapshot directory path, or an in-memory
        :class:`~repro.serve.snapshot.DetectionSnapshot`.
    mmap:
        When *source* is a path, map the array files read-only instead
        of copying them into memory (identical results, smaller
        residency).
    registry:
        An optional :class:`~repro.obs.metrics.MetricsRegistry` to
        record serving metrics into (counters behind :meth:`stats` plus
        a ``serve_assign_ms`` latency histogram); a private
        ``component="serve"`` registry is created when omitted and
        exposed as :attr:`metrics_registry` either way.
    tracer:
        An optional :class:`~repro.obs.trace.TraceRecorder`; when set,
        every :meth:`assign` records an ``assign`` span on the router
        lane with a deterministic ``svc-<seq>`` trace id.

    Example
    -------
    >>> from repro import ALID, ALIDConfig, make_synthetic_mixture
    >>> from repro.serve import ClusterService, DetectionSnapshot
    >>> ds = make_synthetic_mixture(n=300, regime="bounded", seed=0)
    >>> detector = ALID(ALIDConfig(delta=200, seed=0))
    >>> snap = DetectionSnapshot.from_result(detector, detector.fit(ds.data))
    >>> service = ClusterService(snap)
    >>> service.assign(ds.data[:8]).n_queries
    8
    """

    def __init__(
        self,
        source,
        *,
        mmap: bool = False,
        registry: MetricsRegistry | None = None,
        tracer=None,
    ):
        self._lock = threading.Lock()
        self._counters = _ServingCounters(registry)
        self.metrics_registry = self._counters.registry
        self.tracer = tracer
        self._assign_ms = self.metrics_registry.histogram(
            "serve_assign_ms",
            "Single-service batch assign latency (ms)",
            bounds=default_latency_bounds_ms(),
        )
        self._assign_seq = 0
        self._source = None
        self._closed = False
        self._snapshot: DetectionSnapshot | None = None
        self._assigner: ClusterAssigner | None = None
        self._install(source, mmap)

    # ------------------------------------------------------------------
    def _install(self, source, mmap: bool) -> None:
        """Load + validate a snapshot fully, then swap it in atomically.

        The swap re-checks :meth:`close` under the lock (a close that
        lands while the snapshot loads stays closed), and every install
        but the first counts as a reload in the same critical section.
        """
        if isinstance(source, DetectionSnapshot):
            snapshot = source
            described = "<in-memory>"
        else:
            snapshot = DetectionSnapshot.load(source, mmap=mmap)
            described = str(pathlib.Path(source))
        # Everything heavy (checksums, CSR rebuild, ownership map)
        # happens above; the swap below is one tuple of reference
        # assignments under the lock.
        assigner = ClusterAssigner(snapshot)
        with self._lock:
            if self._closed:
                raise ValidationError("service is closed")
            if self._snapshot is not None:
                self._counters.record_reload()
            self._snapshot = snapshot
            self._assigner = assigner
            self._source = described
            self._counters.set_quality(snapshot.quality)

    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> DetectionSnapshot:
        """The currently served snapshot."""
        return self._snapshot

    @property
    def n_clusters(self) -> int:
        """Number of assignable clusters in the current snapshot."""
        return self._assigner.n_clusters

    def assign(
        self, queries: np.ndarray, *, shortlist: str = "lsh"
    ) -> Assignment:
        """Assign a query batch against the current snapshot.

        The assigner reference is captured once, so a concurrent
        :meth:`reload` never switches snapshots mid-batch.
        """
        assigner = self._assigner
        if assigner is None:
            raise ValidationError("service is closed")
        t_start = time.monotonic()
        result = assigner.assign(queries, shortlist=shortlist)
        t_done = time.monotonic()
        with self._lock:
            self._counters.record_batch(
                result.n_queries,
                int(result.assigned_mask.sum()),
                int(result.entries_computed),
            )
            self._assign_seq += 1
            seq = self._assign_seq
        self._assign_ms.observe((t_done - t_start) * 1e3)
        if self.tracer is not None:
            self.tracer.record(
                "assign",
                t_start,
                t_done,
                trace_id=f"svc-{seq}",
                tid=TID_ROUTER,
                rows=int(result.n_queries),
            )
        return result

    def reload(self, source, *, mmap: bool = False) -> None:
        """Hot-swap to a newer snapshot.

        The new artifact is loaded and checksum-validated completely
        before the swap; any
        :class:`~repro.exceptions.SnapshotError` propagates and the
        previous snapshot keeps serving untouched (including its
        per-snapshot counters).  On success the lifetime counters carry
        on unchanged while the per-snapshot counters of :meth:`stats`
        restart at zero for the new artifact.
        """
        if self._closed:
            raise ValidationError("service is closed")
        self._install(source, mmap)

    def apply_delta(self, source, *, mmap: bool = False) -> None:
        """Hot-apply an incremental :class:`SnapshotDelta`.

        *source* is a delta directory path or a loaded
        :class:`~repro.serve.snapshot.SnapshotDelta`.  The delta is
        loaded, checksum-verified and applied to the **currently
        served** snapshot entirely off to the side —
        :meth:`SnapshotDelta.apply` refuses a delta whose recorded
        parent manifest SHA does not match the serving snapshot's, so
        chains cannot be applied out of order — and the result swaps in
        through the same atomic path as :meth:`reload`.  Any
        :class:`~repro.exceptions.SnapshotError` propagates with the
        old snapshot still serving; a successful apply counts as a
        reload in :meth:`stats` (snapshot-scope counters restart).
        """
        snapshot = self._snapshot
        if snapshot is None:
            raise ValidationError("service is closed")
        if isinstance(source, SnapshotDelta):
            delta = source
        else:
            delta = SnapshotDelta.load(source, mmap=mmap)
        self._install(delta.apply(snapshot), mmap)

    def close(self) -> None:
        """Release the snapshot; later :meth:`assign` calls raise.

        Idempotent.  Mirrors
        :meth:`~repro.serve.sharded.ShardedClusterService.close` so the
        unified :func:`~repro.serve.client.connect` handle can always
        be closed regardless of backend.
        """
        with self._lock:
            self._closed = True
            self._snapshot = None
            self._assigner = None

    def __enter__(self) -> "ClusterService":
        """Context-manager entry."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: release the snapshot."""
        self.close()

    def stats(self) -> dict:
        """Serving statistics at lifetime and per-snapshot scope.

        The top-level counters are **lifetime** totals spanning every
        hot reload; the nested ``"snapshot"`` dict carries the same
        counters for the currently served snapshot only (zeroed by each
        successful :meth:`reload`).  Every number is accumulated under
        the service lock from per-batch results, so the totals stay
        exact under concurrent :meth:`assign` calls.
        """
        with self._lock:
            snapshot = self._snapshot
            return {
                "source": self._source,
                "n_items": 0 if snapshot is None else snapshot.n_items,
                "n_clusters": (
                    0 if snapshot is None else len(snapshot.clusters)
                ),
                **self._counters.lifetime_dict(),
                "snapshot": self._counters.snapshot_dict(),
            }
