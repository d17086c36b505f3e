"""IngestService: streaming ingest wired into the serve tier.

The live-corpus half of the serving story (the paper's §6 future work
meets its §4.6 server database): a :class:`~repro.streaming.online.
StreamingALID` absorbs arriving point batches on the write path, and
what changed is published as incremental
:class:`~repro.serve.snapshot.SnapshotDelta` artifacts the serving
fronts (:class:`~repro.serve.service.ClusterService`,
:class:`~repro.serve.sharded.ShardedClusterService`) hot-apply — reload
cost scales with the churn, not with the corpus.

Lifecycle of one batch (the service validates, journals, counts and
reports; the stream's ``partial_fit`` is the one ingest step)::

    ingest(points)
      |-- absorb: arriving items infective against an existing cluster
      |     (the shared Theorem 1 criterion of repro.core.infectivity)
      |     trigger that cluster's LID re-convergence
      |-- dirty-mark: every arrival absorption left behind dirties its
      |     whole LSH collision component (the reachability unit of a
      |     seeded Alg. 2 run)
      '-- re-peel: StreamingALID.discover over the dirty components
            only, before ingest() returns — new dominant clusters grow
            where the batch landed, the way Shi et al.'s parallel
            correlation clustering re-clusters affected subgraphs, not
            the graph

    publish_base(dir)    a full DetectionSnapshot; the chain anchor
    publish_delta(dir)   appended rows + LSH insert state + replaced/
                         retired clusters + tombstoned rows since the
                         last publish

Publishing diffs the stream's cluster list against what was last
published: a cluster whose support, weights, density or seed changed is
*replaced* (its label lands in ``removed_labels`` and the refreshed
cluster in the upserts), a vanished label is retired, a new label is a
plain upsert.  Rows tombstoned through :meth:`IngestService.retire`
ride as the delta's ``retired_rows`` (schema v2), so expiring items or
whole clusters no longer forces republishing a base.  Applying the
delta chain is therefore exact: the resulting snapshot holds
byte-identical rows, bucket keys and cluster strategies to a full
snapshot written from the same stream state (pinned by
``tests/test_serve_delta.py``).

Durability
----------
With a :class:`~repro.serve.wal.WriteAheadLog` attached (``wal=``),
every ingest batch and retirement is journaled **before** the stream
mutates and every publish commits a marker **after** its artifact
saved.  Each batch is absorbed and re-peeled within one call, so the
stream is a function of the journaled operations alone:
:meth:`IngestService.recover` rebuilds a crashed service by truncating
the journal's torn tail and replaying the committed prefix through a
fresh stream — byte-identical clusters (labels included), LSH state and
``entries_computed`` accounting to a run that never crashed (pinned by
``tests/test_serve_durability.py``).
"""

from __future__ import annotations

import dataclasses
import pathlib
import threading

import numpy as np

from repro.core.config import ALIDConfig
from repro.core.results import Cluster, DetectionResult
from repro.exceptions import ValidationError, WALError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TID_INGEST
from repro.serve.artifact import (
    MANIFEST_NAME,
    check_pin,
    child_dir,
    decode_guard,
    fields,
)
from repro.serve.snapshot import DetectionSnapshot, SnapshotDelta
from repro.serve.wal import WALRecord, WriteAheadLog
from repro.streaming.online import StreamingALID
from repro.utils.timing import timed
from repro.utils.validation import check_index_array

__all__ = ["IngestReport", "IngestService"]


@dataclasses.dataclass
class IngestReport:
    """Outcome of one :meth:`IngestService.ingest` call.

    Attributes
    ----------
    n_points:
        Points in the batch.
    absorbed:
        Points that joined an existing dominant cluster on the ingest
        path (Theorem 1 infective, survived the re-convergence).
    dirty_marked:
        Pool items whose collision components this batch dirtied (the
        region its re-peel covered).
    n_clusters:
        Dominant clusters after the re-peel.
    entries_computed:
        Affinity entries the whole batch cost: absorb and re-peel.
    wall_seconds:
        Wall-clock time of the call.
    """

    n_points: int
    absorbed: int
    dirty_marked: int
    n_clusters: int
    entries_computed: int
    wall_seconds: float


def _same_cluster(a: Cluster, b: Cluster) -> bool:
    """Whether two clusters carry an identical converged strategy."""
    return (
        a.label == b.label
        and a.seed == b.seed
        and a.density == b.density
        and np.array_equal(a.members, b.members)
        and np.array_equal(a.weights, b.weights)
    )


class IngestService:
    """Accept point batches, maintain a live corpus, publish deltas.

    Parameters
    ----------
    stream:
        The :class:`~repro.streaming.online.StreamingALID` holding the
        live corpus.  May be freshly constructed (the first batch
        bootstraps it) or already fitted.
    repeel:
        Only ``"sync"``, the default: :meth:`ingest` re-peels the
        regions it dirtied before it returns.  Any other value raises
        ValidationError.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` for the
        ingest counters; a private ``component="ingest"`` registry is
        created when omitted (exposed as :attr:`metrics_registry`).
    tracer:
        Optional :class:`~repro.obs.trace.TraceRecorder`; when set,
        every :meth:`ingest` batch and every publish records a span on
        the ingest lane.
    wal:
        Optional :class:`~repro.serve.wal.WriteAheadLog` (or a path to
        create one at) journaling every mutation write-ahead.  Only an
        *empty* journal may be attached to an *empty* stream — a
        journal that already holds records belongs to a previous
        incarnation and must go through :meth:`recover` instead, and a
        pre-populated stream would leave the journal blind to the
        state it is supposed to replay.

    All stream access is serialized under one lock, so ingest (with its
    re-peel), retirement, publishing and :meth:`close` never interleave
    mid-mutation.  A closed service refuses every call with
    ValidationError and releases its stream (:attr:`stream` reads None).

    Example
    -------
    >>> from repro import ALIDConfig, make_synthetic_mixture
    >>> from repro.serve.ingest import IngestService
    >>> from repro.streaming import StreamingALID
    >>> ds = make_synthetic_mixture(n=400, regime="bounded", bound=200,
    ...                             n_clusters=5, dim=20, seed=0)
    >>> svc = IngestService(StreamingALID(ALIDConfig(delta=100, seed=0)))
    >>> report = svc.ingest(ds.data[:200])
    >>> report.n_points
    200
    >>> svc.close()
    """

    def __init__(
        self,
        stream: StreamingALID,
        *,
        repeel: str = "sync",
        registry: MetricsRegistry | None = None,
        tracer=None,
        wal: WriteAheadLog | str | pathlib.Path | None = None,
    ):
        if repeel != "sync":
            raise ValidationError(f"repeel must be 'sync', got {repeel!r}")
        self._stream = stream
        self.metrics_registry = (
            MetricsRegistry(component="ingest")
            if registry is None
            else registry
        )
        self.tracer = tracer
        reg = self.metrics_registry
        self._m_ingested = reg.counter(
            "ingest_points_total", "Points ingested"
        )
        self._m_absorbed = reg.counter(
            "ingest_absorbed_total",
            "Points absorbed into existing clusters on the ingest path",
        )
        self._m_retired = reg.counter(
            "ingest_retired_total", "Rows tombstoned via retire()"
        )
        self._m_repeel_runs = reg.counter(
            "ingest_repeel_runs_total", "Targeted re-peel runs"
        )
        self._m_repeel_discoveries = reg.counter(
            "ingest_repeel_discoveries_total",
            "Clusters grown by re-peel runs",
        )
        self._m_publishes = reg.counter(
            "ingest_publishes_total", "Base + delta publishes"
        )
        self._m_wal_records = reg.counter(
            "ingest_wal_records_total",
            "Records journaled to the write-ahead log",
        )
        self._m_recoveries = reg.counter(
            "ingest_recoveries_total",
            "Crash recoveries replayed from the write-ahead log",
        )
        self._lock = threading.Lock()
        # Publishing bookkeeping: the delta chain tip and the state it
        # covers.  None until publish_base() anchors the chain.
        self._published_sha: str | None = None
        self._published_n = 0
        self._published_clusters: dict[int, Cluster] = {}
        self._published_retired = np.zeros(0, dtype=np.int64)
        self._sequence = 0
        # Deterministic trace ids: ingest batches and publish rounds.
        self._ingest_seq = 0
        # Durability: journal attached (or None), and whether the
        # service is currently replaying that journal — replayed
        # operations must not re-journal themselves.
        self._wal: WriteAheadLog | None = None
        self._replaying = False
        self.recovery_info: dict | None = None
        if wal is not None:
            self._attach_wal(wal)

    def _attach_wal(self, wal: WriteAheadLog | str | pathlib.Path) -> None:
        """Adopt an empty journal and write its ``begin`` record."""
        log = wal if isinstance(wal, WriteAheadLog) else WriteAheadLog(wal)
        try:
            if log.n_records:
                raise ValidationError(
                    f"{log.path} already holds {log.n_records} record(s); "
                    f"a used journal belongs to a previous incarnation — "
                    f"rebuild it via IngestService.recover() instead"
                )
            if self._stream.n_items:
                raise ValidationError(
                    "cannot attach a fresh WAL to a stream that already "
                    "holds data; the journal must cover every mutation "
                    "from the first batch"
                )
            log.append(
                "begin",
                meta={"config": dataclasses.asdict(self._stream.config)},
            )
        except BaseException:
            if log is not wal:  # a log passed in stays the caller's
                log.close()
            raise
        self._m_wal_records.inc()
        self._wal = log

    def _journal(self, kind: str, *, meta: dict | None = None,
                 arrays: dict[str, np.ndarray] | None = None) -> None:
        """Append one record unless no WAL is attached or replaying."""
        if self._wal is None or self._replaying:
            return
        self._wal.append(kind, meta=meta, arrays=arrays)
        self._m_wal_records.inc()

    # ------------------------------------------------------------------
    @property
    def stream(self) -> StreamingALID | None:
        """The underlying live stream (shared); None once closed."""
        return self._stream

    def _open_stream(self) -> StreamingALID:
        """The stream, or ValidationError once closed (hold the lock)."""
        if self._stream is None:
            raise ValidationError("ingest service is closed")
        return self._stream

    # ------------------------------------------------------------------
    def ingest(self, points: np.ndarray) -> IngestReport:
        """Journal one batch, then ingest it through the stream.

        :meth:`~repro.streaming.online.StreamingALID.partial_fit` is the
        one ingest step: arrivals infective against an existing cluster
        join it, and every arrival left over dirties its whole LSH
        collision component, which the stream re-peels before the call
        returns, under the service lock.
        """
        tracer = self.tracer
        t_trace = tracer.now() if tracer is not None else 0.0
        with timed() as clock:
            with self._lock:
                stream = self._open_stream()
                # Validate before journaling: a record that would blow
                # up the stream would poison every future replay.
                points = stream.check_batch(points)
                self._journal("ingest", arrays={"points": points})
                before = stream.result()
                result = stream.partial_fit(points)
                absorbed = result.metadata["absorbed"]
                dirty_marked = result.metadata["dirty_marked"]
                if dirty_marked:
                    self._m_repeel_runs.inc()
                    self._m_repeel_discoveries.inc(
                        result.n_clusters - before.n_clusters
                    )
                self._m_ingested.inc(points.shape[0])
                self._m_absorbed.inc(absorbed)
        if tracer is not None:
            self._ingest_seq += 1
            tracer.record(
                "ingest",
                t_trace,
                tracer.now(),
                trace_id=f"ing-{self._ingest_seq}",
                tid=TID_INGEST,
                points=points.shape[0],
                absorbed=absorbed,
                dirty_marked=dirty_marked,
            )
        return IngestReport(
            n_points=points.shape[0],
            absorbed=absorbed,
            dirty_marked=dirty_marked,
            n_clusters=result.n_clusters,
            entries_computed=int(
                result.counters.entries_computed
                - before.counters.entries_computed
            ),
            wall_seconds=clock[0],
        )

    # ------------------------------------------------------------------
    def retire(self, indices: np.ndarray) -> DetectionResult:
        """Tombstone rows (expiry / deletion); journaled write-ahead.

        Delegates to :meth:`~repro.streaming.online.StreamingALID.
        retire`: the rows vanish from every future query, clusters
        losing members re-converge or dissolve.  The next
        :meth:`publish_delta` ships the tombstones as its
        ``retired_rows`` plus the cluster churn they caused — no base
        republish.  Returns the stream's post-retirement detection
        result.
        """
        tracer = self.tracer
        t_trace = tracer.now() if tracer is not None else 0.0
        with self._lock:
            stream = self._open_stream()
            if stream.n_items == 0:
                raise ValidationError("stream has not seen any data yet")
            indices = check_index_array(
                indices, stream.n_items, name="indices"
            )
            canonical = np.unique(np.asarray(indices, dtype=np.int64))
            self._journal("retire", arrays={"indices": canonical})
            result = stream.retire(canonical)
            self._m_retired.inc(int(canonical.size))
        if tracer is not None:
            self._ingest_seq += 1
            tracer.record(
                "retire",
                t_trace,
                tracer.now(),
                trace_id=f"ret-{self._ingest_seq}",
                tid=TID_INGEST,
                rows=int(canonical.size),
            )
        return result

    # ------------------------------------------------------------------
    # publishing
    # ------------------------------------------------------------------
    def publish_base(self, path) -> DetectionSnapshot:
        """Write the full current state; (re-)anchor the delta chain.

        Returns the saved :class:`DetectionSnapshot`; subsequent
        :meth:`publish_delta` calls record changes against it (and then
        against each other) starting at sequence 0.
        """
        tracer = self.tracer
        t_trace = tracer.now() if tracer is not None else 0.0
        with self._lock:
            stream = self._open_stream()
            snapshot = stream.to_snapshot(
                meta={"published_by": "IngestService"}
            )
            snapshot.save(path)
            self._published_sha = snapshot.manifest_sha256
            self._published_n = snapshot.n_items
            self._published_clusters = {
                int(c.label): c for c in snapshot.clusters
            }
            self._published_retired = np.flatnonzero(
                stream.retired_mask
            ).astype(np.int64)
            self._sequence = 0
            # Commit marker: journaled only after the artifact saved,
            # so a marked publish always exists on disk.
            self._journal(
                "publish_base",
                meta={
                    "sha256": snapshot.manifest_sha256,
                    "n_items": snapshot.n_items,
                    "name": pathlib.Path(path).name,
                },
            )
        self._m_publishes.inc()
        if tracer is not None:
            tracer.record(
                "publish_base",
                t_trace,
                tracer.now(),
                trace_id="pub-base",
                tid=TID_INGEST,
                n_items=snapshot.n_items,
            )
        return snapshot

    def publish_delta(self, path) -> SnapshotDelta:
        """Write what changed since the last publish as a delta.

        Appended rows ride with their per-table LSH bucket keys (the
        parent's tables extend without re-hashing); clusters whose
        strategy changed are replaced, vanished labels retired, new
        labels upserted.  An idle corpus publishes a valid empty delta.

        Raises
        ------
        ValidationError
            When no base snapshot was published yet (a chain needs its
            anchor), or the stream shrank (never happens through this
            service's own API).
        """
        tracer = self.tracer
        t_trace = tracer.now() if tracer is not None else 0.0
        with self._lock:
            stream = self._open_stream()
            if self._published_sha is None:
                raise ValidationError(
                    "no base snapshot published; call publish_base() "
                    "before publishing deltas"
                )
            n_now = stream.n_items
            if n_now < self._published_n:
                raise ValidationError(
                    f"stream shrank below the published state "
                    f"({n_now} < {self._published_n})"
                )
            appended = np.ascontiguousarray(
                np.asarray(stream.data)[self._published_n:],
                dtype=np.float64,
            )
            appended_keys = stream.export_appended_keys(self._published_n)
            current = {int(c.label): c for c in stream.clusters}
            removed = [
                label
                for label in self._published_clusters
                if label not in current
                or not _same_cluster(
                    self._published_clusters[label], current[label]
                )
            ]
            upserts = [
                cluster
                for label, cluster in current.items()
                if label not in self._published_clusters
                or not _same_cluster(
                    self._published_clusters[label], cluster
                )
            ]
            retired_now = np.flatnonzero(stream.retired_mask).astype(
                np.int64
            )
            newly_retired = np.setdiff1d(
                retired_now, self._published_retired
            )
            delta = SnapshotDelta(
                parent_sha256=self._published_sha,
                parent_n_items=self._published_n,
                sequence=self._sequence,
                appended_data=appended,
                appended_item_keys=appended_keys,
                removed_labels=np.asarray(sorted(removed), dtype=np.int64),
                clusters=sorted(upserts, key=lambda c: int(c.label)),
                retired_rows=newly_retired,
                meta={
                    "published_by": "IngestService",
                    "stream_batches": stream.result().metadata["batches"],
                },
            )
            delta.save(path)
            self._published_sha = delta.manifest_sha256
            self._published_n = n_now
            self._published_clusters = current
            self._published_retired = retired_now
            self._sequence += 1
            sequence = self._sequence
            self._journal(
                "publish_delta",
                meta={
                    "sha256": delta.manifest_sha256,
                    "n_items": n_now,
                    "sequence": sequence - 1,
                    "name": pathlib.Path(path).name,
                },
            )
        self._m_publishes.inc()
        if tracer is not None:
            tracer.record(
                "publish_delta",
                t_trace,
                tracer.now(),
                trace_id=f"pub-{sequence - 1}",
                tid=TID_INGEST,
                appended=int(appended.shape[0]),
                removed=len(removed),
                upserts=len(upserts),
            )
        return delta

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        wal: WriteAheadLog | str | pathlib.Path,
        chain_dir: str | pathlib.Path | None = None,
        *,
        registry: MetricsRegistry | None = None,
        tracer=None,
    ) -> "IngestService":
        """Rebuild a service from its journal after a crash.

        Truncates the journal's torn tail (the half-written record a
        crash mid-append leaves), then replays the committed prefix —
        every ``ingest`` and ``retire`` record, in order, through a
        fresh stream built from the ``begin`` record's config.  Replay
        runs the same calls the journaled run made, so recovery yields
        **byte-identical** clusters (labels included), LSH state and
        ``entries_computed`` accounting to a run that never crashed.

        Publish markers restore the delta-chain bookkeeping; with
        *chain_dir* given, each marker's manifest SHA-256 is verified
        against the named on-disk artifact, so a journal/artifact
        divergence fails recovery instead of forking the chain.  An
        artifact directory *without* its marker (a crash between save
        and marker append) is simply ignored — the next publish
        overwrites it.

        The recovered service adopts the (now clean) journal for
        further appends and records what happened in
        :attr:`recovery_info` (``records_replayed``,
        ``torn_bytes_truncated``, ``publishes_restored``).

        Raises
        ------
        WALError
            Unreadable journal, no leading ``begin`` record, a replay
            record the stream rejects, or a publish marker whose
            artifact is missing or has a different manifest SHA.
        """
        if isinstance(wal, WriteAheadLog):
            wal.close()
            wal_path = wal.path
        else:
            wal_path = pathlib.Path(wal)
        torn = WriteAheadLog.truncate_torn_tail(wal_path)
        log = WriteAheadLog(wal_path)
        try:
            records = log.replay()
            if not records or records[0].kind != "begin":
                raise WALError(
                    f"{wal_path}: journal does not start with a begin "
                    f"record; nothing to recover from"
                )
            with decode_guard(
                f"{wal_path}: begin record carries an invalid config",
                WALError,
            ):
                config = ALIDConfig.from_dict(records[0].meta.get("config"))
            service = cls(StreamingALID(config), registry=registry)
            service._m_recoveries.inc()
            publishes = 0
            service._replaying = True
            with decode_guard(
                f"{wal_path}: replay failed — the journal and the stream "
                f"disagree",
                WALError,
            ):
                for number, record in enumerate(records[1:], start=1):
                    if record.kind == "ingest":
                        service.ingest(record.arrays["points"])
                    elif record.kind == "retire":
                        service.retire(record.arrays["indices"])
                    elif record.kind in ("publish_base", "publish_delta"):
                        service._restore_publish_marker(record, chain_dir)
                        publishes += 1
                    else:
                        raise WALError(
                            f"{wal_path}: unexpected {record.kind!r} "
                            f"record at position {number}"
                        )
        except BaseException:
            # A refused recovery leaves nothing behind to own the log.
            log.close()
            raise
        service._replaying = False
        service._wal = log
        service.tracer = tracer
        service.recovery_info = {
            "records_replayed": len(records),
            "torn_bytes_truncated": int(torn),
            "publishes_restored": publishes,
        }
        return service

    def _restore_publish_marker(
        self, record: WALRecord, chain_dir
    ) -> None:
        """Restore chain bookkeeping from one committed publish marker."""
        meta = record.meta
        sha, n_items = fields(
            meta, f"{record.kind} marker", WALError, sha256=str, n_items=int
        )
        if n_items != self._stream.n_items:
            raise WALError(
                f"{record.kind} marker covers {n_items} item(s) but "
                f"replay reached {self._stream.n_items} — the journal "
                f"does not match the run that wrote it"
            )
        if chain_dir is not None and meta.get("name"):
            what = f"{record.kind} marker"
            check_pin(
                child_dir(chain_dir, meta["name"], what, WALError)
                / MANIFEST_NAME,
                sha,
                what=f"{what} for {meta['name']!r}",
                error=WALError,
            )
        self._published_sha = sha
        self._published_n = n_items
        self._published_clusters = {
            int(c.label): c for c in self._stream.clusters
        }
        self._published_retired = np.flatnonzero(
            self._stream.retired_mask
        ).astype(np.int64)
        if record.kind == "publish_base":
            self._sequence = 0
        else:
            self._sequence = int(meta.get("sequence", self._sequence)) + 1

    # ------------------------------------------------------------------
    @property
    def wal(self) -> WriteAheadLog | None:
        """The attached write-ahead log (None when not journaling)."""
        return self._wal

    def stats(self) -> dict:
        """Ingest-side counters (lifetime scope, registry-backed)."""
        with self._lock:
            stream = self._stream
            return {
                "n_items": 0 if stream is None else stream.n_items,
                "n_clusters": 0 if stream is None else stream.n_clusters,
                "ingested": self._m_ingested.value,
                "absorbed": self._m_absorbed.value,
                "retired": self._m_retired.value,
                "repeel_runs": self._m_repeel_runs.value,
                "repeel_discoveries": self._m_repeel_discoveries.value,
                "published_sequence": self._sequence,
                "published_n_items": self._published_n,
                "chain_tip": self._published_sha,
                "wal_records": self._m_wal_records.value,
                "recoveries": self._m_recoveries.value,
            }

    def close(self) -> None:
        """Refuse further calls, close the journal, release the stream.

        Idempotent.  Takes the service lock, so a call in progress
        finishes (journal record and all) before the journal closes;
        every later call raises ValidationError.
        """
        with self._lock:
            self._stream = None
            if self._wal is not None:
                self._wal.close()

    def __enter__(self) -> "IngestService":
        """Context-manager entry (the service is already running)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: :meth:`close` the service."""
        self.close()
