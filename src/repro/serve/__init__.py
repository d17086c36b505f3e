"""Serve-time subsystem: persist a fitted detection, assign new queries.

The paper separates fit-time from serve-time state (§4.6 keeps hash
tables and data items in a server database that workers read); this
package is that separation made concrete for the reproduction:

* :mod:`repro.serve.artifact` — the one reader and writer of the
  artifact format: per-kind declarations (format marker, schema
  version, array dtypes and ndims), manifests, checksummed ``.npy``
  files, SHA pins, and the typed decode guard every load (and the
  journal) runs under.
* :mod:`repro.serve.snapshot` — :class:`DetectionSnapshot`, a versioned
  on-disk artifact (``.npy`` arrays + JSON manifest with schema version
  and SHA-256 checksums) capturing a fitted run: data matrix, LSH hash
  state, calibrated kernel, config, and every dominant cluster's
  support + converged strategy.  Round-trips bit-identically; loads are
  all-or-nothing (:class:`~repro.exceptions.SnapshotError` on any
  corruption); ``mmap=True`` serves multi-GB artifacts without a full
  copy.
* :mod:`repro.serve.assigner` — :class:`ClusterAssigner`, vectorized
  batch assignment: hash a query block against every restored LSH
  table at once (optionally multi-probed, ``shortlist="multiprobe"``),
  shortlist candidate clusters through a bucket -> cluster owner
  table, score with the shared Theorem 1 infectivity
  criterion (:mod:`repro.core.infectivity`), all through the
  instrumented oracle.
* :mod:`repro.serve.service` — :class:`ClusterService`, the
  single-process front: owns a snapshot, hot-reloads newer artifacts
  atomically, and keeps lifetime + per-snapshot serving statistics.
* :mod:`repro.serve.plan` — :class:`ShardPlanner` /
  :class:`ShardPlan`, the PALID-style decomposition of one snapshot
  into checksummed per-shard artifacts (whole clusters per shard, each
  shard a self-contained snapshot).
* :mod:`repro.serve.sharded` — :class:`ShardWorker` (one process per
  shard, mmap-loading only its shard) and
  :class:`ShardedClusterService`, the multi-process front with atomic
  shard-set hot reload and degraded-mode serving.
* :mod:`repro.serve.router` — :class:`BatchingRouter`, micro-batching
  scatter/gather with the densest-wins merge that makes sharded
  assignments byte-identical to the single-process path.
* :mod:`repro.serve.ingest` — :class:`IngestService`, the live-corpus
  write path: absorb arriving batches into a
  :class:`~repro.streaming.online.StreamingALID`, re-peel dirtied
  collision regions in the background, and publish
  :class:`SnapshotDelta` artifacts recording exactly what changed.
* :mod:`repro.serve.client` — :func:`connect`, the unified entry point:
  one call returns a running service of either backend behind the
  :class:`ClusterHandle` protocol
  (``assign``/``apply_delta``/``reload``/``stats``/``close``).
* :mod:`repro.serve.frontend` — :class:`AsyncFrontend`, the
  traffic-facing asyncio front: admission-controlled ingress,
  SLO-adaptive micro-batching over any :class:`ClusterHandle`, and
  :func:`run_open_loop`, the open-loop replay driver behind the soak
  lane and ``repro serve``.
* :mod:`repro.serve.admission` — :class:`AdmissionController`, the
  bounded ingress queue with per-client fair dequeue and
  reject-with-``retry_after``
  (:class:`~repro.exceptions.AdmissionError`).
* :mod:`repro.serve.supervisor` — :class:`ShardSupervisor`, the
  self-healing loop: watches a sharded pool's worker liveness and
  respawns crashed workers from their still-valid shard artifacts via
  :meth:`ShardedClusterService.heal`.
* :mod:`repro.serve.wal` — :class:`WriteAheadLog`, the append-only
  CRC-per-record journal the ingest tier writes ahead of every
  mutation; :meth:`IngestService.recover` replays its committed
  prefix after a crash.
* :mod:`repro.serve.compact` — :func:`compact_chain`, folding a
  base + delta chain into a fresh base snapshot serving byte-identical
  assignments to the chain tip.
* :mod:`repro.serve.verify` — :func:`verify_artifact` and friends,
  the offline audit behind ``repro verify``: the serving load path,
  one chain walk, and the journal's publish-marker pins.

Exposed on the command line as ``repro snapshot`` / ``repro shard`` /
``repro assign [--workers N]`` / ``repro ingest [--wal]`` /
``repro serve`` / ``repro compact`` / ``repro verify``.
See ``docs/serving.md`` for the artifact formats and semantics.
"""

from repro.serve.assigner import (
    SHORTLIST_MODES,
    Assignment,
    ClusterAssigner,
)
from repro.serve.admission import AdmissionController
from repro.serve.client import ClusterHandle, connect
from repro.serve.compact import chain_artifacts, compact_chain, load_chain_tip
from repro.serve.frontend import AsyncFrontend, FrontendReply, run_open_loop
from repro.serve.ingest import IngestReport, IngestService
from repro.serve.plan import (
    ShardPlan,
    ShardPlanner,
    ShardSpec,
    replan_for_delta,
)
from repro.serve.router import BatchingRouter, merge_partials
from repro.serve.service import ClusterService
from repro.serve.sharded import ShardedClusterService, ShardWorker
from repro.serve.snapshot import (
    DELTA_FORMAT,
    DELTA_SCHEMA_VERSION,
    SCHEMA_VERSION,
    SNAPSHOT_FORMAT,
    DetectionSnapshot,
    SnapshotDelta,
)
from repro.serve.supervisor import ShardSupervisor
from repro.serve.verify import (
    verify_artifact,
    verify_chain,
    verify_delta,
    verify_plan,
    verify_snapshot,
    verify_wal,
)
from repro.serve.wal import WALRecord, WriteAheadLog, read_records

__all__ = [
    "AdmissionController",
    "Assignment",
    "AsyncFrontend",
    "BatchingRouter",
    "chain_artifacts",
    "ClusterAssigner",
    "ClusterHandle",
    "ClusterService",
    "compact_chain",
    "connect",
    "DELTA_FORMAT",
    "DELTA_SCHEMA_VERSION",
    "DetectionSnapshot",
    "FrontendReply",
    "IngestReport",
    "IngestService",
    "load_chain_tip",
    "merge_partials",
    "read_records",
    "replan_for_delta",
    "run_open_loop",
    "SCHEMA_VERSION",
    "SHORTLIST_MODES",
    "SNAPSHOT_FORMAT",
    "ShardPlan",
    "ShardPlanner",
    "ShardSpec",
    "ShardSupervisor",
    "ShardWorker",
    "ShardedClusterService",
    "SnapshotDelta",
    "verify_artifact",
    "verify_chain",
    "verify_delta",
    "verify_plan",
    "verify_snapshot",
    "verify_wal",
    "WALRecord",
    "WriteAheadLog",
]
