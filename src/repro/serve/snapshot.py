"""Versioned on-disk snapshots of a fitted detection, and their deltas.

A snapshot captures everything a serve-time process needs to answer
"which dominant cluster does this query belong to?" without refitting:

* the data matrix (the paper's ``V``, the items the clusters live over);
* the fitted LSH state — Gaussian projections, segment offsets, key
  mixers and per-item bucket keys of every table
  (:meth:`repro.lsh.index.LSHIndex.export_state`), from which the CSR
  tables are rebuilt deterministically;
* the calibrated kernel (scaling factor ``k``, norm order ``p``) and
  the full :class:`~repro.core.config.ALIDConfig`;
* every dominant cluster's support and converged strategy
  (:func:`repro.core.results.pack_clusters` — the same packing the
  detection archive of :mod:`repro.io` uses).

It persists as a directory of plain ``.npy`` arrays plus a checksummed
JSON manifest, read and written only through :mod:`repro.serve.artifact`:
loads are all-or-nothing (:class:`~repro.exceptions.SnapshotError`,
never corrupt state), ``mmap=True`` maps the big payloads read-only,
and the manifest is written last.  ``load(save(state))`` restores hash
keys, CSR tables, kernel and strategies bit-identically, so a reloaded
snapshot assigns every query the same cluster and score.

:class:`SnapshotDelta` is the incremental sibling: only what one ingest
round changed against a parent artifact — appended rows, their
per-table LSH bucket keys (the insert state of
:meth:`repro.lsh.index.LSHIndex.insert`), retired rows, retired or
replaced cluster labels, and the replacement/new clusters.  Deltas
chain: each records the manifest SHA-256 of the artifact it applies on
top of, and :meth:`SnapshotDelta.apply` checks that link and every
shape before building the new in-memory snapshot, so a failed
application leaves the serving snapshot untouched.
"""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np

from repro.affinity.kernel import LaplacianKernel
from repro.affinity.oracle import AffinityCounters, AffinityOracle
from repro.core.config import ALIDConfig
from repro.core.results import Cluster, pack_clusters, unpack_clusters
from repro.exceptions import SnapshotError
from repro.lsh.index import LSHIndex
from repro.serve.artifact import (
    DELTA,
    MANIFEST_NAME,
    SNAPSHOT,
    decode_guard,
    expect,
    fields,
    load_arrays,
    read_manifest,
    write_artifact,
)

__all__ = [
    "DetectionSnapshot",
    "SnapshotDelta",
    "MANIFEST_NAME",
    "SCHEMA_VERSION",
    "SNAPSHOT_FORMAT",
    "DELTA_SCHEMA_VERSION",
    "DELTA_FORMAT",
]

# v2 added the optional per-cluster ``quality`` manifest block
# (``repro.arena.quality``); v1 snapshots load fine with quality=None.
SCHEMA_VERSION = SNAPSHOT.version
SNAPSHOT_FORMAT = SNAPSHOT.fmt
# Delta v2 added the ``retired_rows`` tombstone array (retirement
# deltas: expiring items/clusters no longer republishes a base); v1
# deltas load fine with an empty retirement set.
DELTA_SCHEMA_VERSION = DELTA.version
DELTA_FORMAT = DELTA.fmt

_INDEX_ARRAYS = ("projections", "hash_offsets", "mixers", "item_keys", "active")


def _packed_clusters(clusters: list[Cluster]) -> dict[str, np.ndarray]:
    """The ``cluster_*`` arrays of a snapshot or delta."""
    return {f"cluster_{k}": v for k, v in pack_clusters(clusters).items()}


def _unpacked_clusters(path, arrays: dict, n_items: int) -> list[Cluster]:
    """Rebuild the clusters of a loaded artifact, or raise SnapshotError."""
    with decode_guard(f"{path}: cluster arrays are inconsistent"):
        return unpack_clusters(
            {
                key[len("cluster_"):]: value
                for key, value in arrays.items()
                if key.startswith("cluster_")
            },
            n_items=n_items,
        )


def _meta(path, manifest: dict) -> dict:
    """A manifest's free-form ``meta`` section (empty when absent)."""
    meta = manifest.get("meta", {})
    return dict(expect(meta, dict, f"{path}: manifest section 'meta'"))


@dataclasses.dataclass
class DetectionSnapshot:
    """A fitted detection, ready to persist or serve.

    Attributes
    ----------
    data:
        Data matrix ``(n, d)`` the detection ran over (may be a
        read-only memory map after an ``mmap=True`` load).
    config:
        The :class:`~repro.core.config.ALIDConfig` of the fit; serving
        reuses its ``tol`` as the Theorem 1 immunity tolerance.
    kernel:
        The calibrated Laplacian kernel (frozen scaling factor).
    lsh_r:
        Segment length the LSH tables were built with.
    index_arrays:
        The :meth:`repro.lsh.index.LSHIndex.export_state` dict.
    clusters:
        Dominant clusters with converged strategies (members, weights,
        density, label, seed).
    meta:
        Free-form provenance (method name, fit counters, ...).
    quality:
        Optional per-cluster quality scores
        ``{label: {metric: score}}`` as produced by
        :func:`repro.arena.quality.annotate_snapshot`; ``None`` for
        unannotated snapshots (including every pre-v2 artifact).
        Inert for assignment — serving only exports it as gauges.
    manifest_sha256:
        SHA-256 of the snapshot's ``manifest.json``, set by
        :meth:`save` and :meth:`load`; ``None`` for in-memory snapshots
        that were never persisted.  This is the identity a
        :class:`SnapshotDelta` chain anchors to.
    """

    data: np.ndarray
    config: ALIDConfig
    kernel: LaplacianKernel
    lsh_r: float
    index_arrays: dict[str, np.ndarray]
    clusters: list[Cluster]
    meta: dict = dataclasses.field(default_factory=dict)
    quality: dict[int, dict[str, float]] | None = None
    manifest_sha256: str | None = dataclasses.field(
        default=None, compare=False
    )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_engine(
        cls,
        engine,
        clusters: list[Cluster],
        *,
        meta: dict | None = None,
    ) -> "DetectionSnapshot":
        """Capture a fitted :class:`~repro.core.alid.ALIDEngine`.

        Works for any engine-shaped object exposing ``oracle``,
        ``kernel``, ``config``, ``lsh_r`` and ``index`` — the batch
        engine and the streaming engine both qualify (the paper's §4.6
        server database holds exactly this state).
        """
        return cls(
            data=engine.oracle.data,
            config=engine.config,
            kernel=engine.kernel,
            lsh_r=float(engine.lsh_r),
            index_arrays=engine.index.export_state(),
            clusters=list(clusters),
            meta=dict(meta or {}),
        )

    @classmethod
    def from_result(cls, detector, result) -> "DetectionSnapshot":
        """Capture an :class:`~repro.core.alid.ALID` fit and its result.

        Persists the *dominant* clusters of ``result`` — the serve-time
        assignment targets — plus fit provenance in ``meta``.
        """
        if getattr(detector, "engine_", None) is None:
            raise SnapshotError(
                "detector has no fitted engine_; call fit() before "
                "snapshotting"
            )
        meta = {
            "method": result.method,
            "n_items": int(result.n_items),
            "fit_entries_computed": (
                int(result.counters.entries_computed)
                if result.counters is not None
                else None
            ),
        }
        return cls.from_engine(detector.engine_, result.clusters, meta=meta)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n_items(self) -> int:
        """Number of indexed items."""
        return int(self.data.shape[0])

    @property
    def dim(self) -> int:
        """Feature dimensionality."""
        return int(self.data.shape[1])

    @property
    def n_clusters(self) -> int:
        """Number of persisted dominant clusters."""
        return len(self.clusters)

    # ------------------------------------------------------------------
    # runtime reconstruction
    # ------------------------------------------------------------------
    def restore_index(self) -> LSHIndex:
        """Rebuild the LSH index (bit-identical buckets, no re-hashing).

        Raises :class:`SnapshotError` when the index arrays disagree
        with the data matrix or each other (shapes, non-finite data).
        """
        with decode_guard("snapshot LSH state does not restore"):
            return LSHIndex.from_state(
                self.data, r=self.lsh_r, **self.index_arrays
            )

    def make_oracle(
        self, counters: AffinityCounters | None = None
    ) -> AffinityOracle:
        """An instrumented oracle over the snapshot's data and kernel."""
        return AffinityOracle(
            self.data,
            self.kernel,
            counters=counters if counters is not None else AffinityCounters(),
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path) -> pathlib.Path:
        """Write the snapshot directory and return its resolved path.

        Arrays are written first, the manifest last — a readable
        manifest therefore certifies a complete snapshot.  When saving
        into an existing snapshot directory, any previous manifest is
        removed *before* the arrays are touched, so an interrupted
        overwrite is detected as a missing manifest (never as a stale
        manifest over mixed old/new arrays).  Serving processes should
        :meth:`load` a snapshot fully and swap atomically in memory
        rather than read a directory being rewritten.
        """
        path = pathlib.Path(path)
        arrays = {
            "data": np.ascontiguousarray(self.data, dtype=np.float64),
            **self.index_arrays,
            **_packed_clusters(self.clusters),
        }
        body = {
            "config": dataclasses.asdict(self.config),
            "kernel": {"k": self.kernel.k, "p": self.kernel.p},
            "lsh": {"r": float(self.lsh_r)},
            "counts": {
                "n_items": self.n_items,
                "dim": self.dim,
                "n_clusters": self.n_clusters,
            },
            "meta": self.meta,
        }
        if self.quality is not None:
            body["quality"] = {
                str(int(label)): {
                    str(metric): float(score)
                    for metric, score in scores.items()
                }
                for label, scores in self.quality.items()
            }
        self.manifest_sha256 = write_artifact(path, SNAPSHOT, arrays, body)
        return path

    @classmethod
    def load(cls, path, *, mmap: bool = False) -> "DetectionSnapshot":
        """Load and validate a snapshot directory.

        Runs every check of :mod:`repro.serve.artifact` — envelope,
        each array's path, size, SHA-256, header, dtype and shape —
        before anything is constructed (verification streams the file,
        so even ``mmap=True`` loads never hold a full copy in memory).
        The LSH index is not rebuilt here; :meth:`restore_index` does.

        Parameters
        ----------
        path:
            Snapshot directory written by :meth:`save`.
        mmap:
            Map array files read-only (``numpy.load(mmap_mode="r")``)
            instead of reading them into memory.  Results are pinned
            identical to an eager load; only residency differs.

        Raises
        ------
        SnapshotError
            Missing/unreadable manifest, wrong format, schema version
            newer than :data:`SCHEMA_VERSION`, a malformed section, a
            missing, misplaced, truncated, tampered or mistyped array
            file, or inconsistent cluster arrays.
        """
        path = pathlib.Path(path)
        _, manifest, sha = read_manifest(path, SNAPSHOT)
        arrays = load_arrays(path, SNAPSHOT, manifest, mmap=mmap)
        with decode_guard(f"{path}: manifest config/kernel section is invalid"):
            config = ALIDConfig.from_dict(manifest.get("config"))
            number = (int, float)
            k, p = fields(
                manifest.get("kernel"), f"{path}: manifest section 'kernel'",
                k=number, p=number,
            )
            kernel = LaplacianKernel(k=float(k), p=float(p))
            (lsh_r,) = fields(
                manifest.get("lsh"), f"{path}: manifest section 'lsh'",
                r=number,
            )
        clusters = _unpacked_clusters(path, arrays, arrays["data"].shape[0])
        quality = manifest.get("quality")
        if quality is not None:
            with decode_guard(f"{path}: manifest quality block is invalid"):
                quality = {
                    int(label): {
                        str(metric): float(score)
                        for metric, score in expect(
                            scores, dict, f"{path}: quality of label {label}"
                        ).items()
                    }
                    for label, scores in expect(
                        quality, dict, f"{path}: manifest section 'quality'"
                    ).items()
                }
        return cls(
            data=arrays["data"],
            config=config,
            kernel=kernel,
            lsh_r=float(lsh_r),
            index_arrays={name: arrays[name] for name in _INDEX_ARRAYS},
            clusters=clusters,
            meta=_meta(path, manifest),
            quality=quality,
            manifest_sha256=sha,
        )


@dataclasses.dataclass
class SnapshotDelta:
    """One ingest round's changes against a parent snapshot artifact.

    A delta is the incremental publish unit of the live-corpus pipeline
    (:class:`~repro.serve.ingest.IngestService`): instead of rewriting a
    full :class:`DetectionSnapshot` after every batch, only the appended
    rows, their per-table LSH bucket keys, and the retired/replaced
    clusters are persisted.  Its size scales with what changed, not with
    the corpus.

    Deltas form a chain anchored at a *saved* base snapshot:
    ``parent_sha256`` is the SHA-256 of the manifest of the artifact the
    delta applies on top of — the base snapshot's manifest for
    ``sequence == 0``, the previous delta's manifest afterwards.
    :meth:`apply` verifies that chain plus every shape before building
    anything, so an out-of-order, foreign, or corrupt delta never
    touches the serving snapshot.

    Attributes
    ----------
    parent_sha256:
        Manifest SHA-256 of the immediate parent artifact.
    parent_n_items:
        Item count of the state this delta applies to (base items plus
        all previously appended rows).
    sequence:
        0-based position in the delta chain.
    appended_data:
        New data rows ``(m, d)``; ``m`` may be zero (a pure
        cluster-churn delta).
    appended_item_keys:
        Per-table LSH bucket keys of the appended rows ``(l, m)`` — the
        exported insert state of
        :meth:`repro.lsh.index.LSHIndex.insert`, so the parent's tables
        extend without re-hashing.
    removed_labels:
        Labels of parent clusters that retired or were replaced.
    clusters:
        Upserted clusters (replacements and brand-new ones), member
        indices global into the post-append matrix.
    retired_rows:
        Data rows tombstoned since the parent (schema v2), indices
        global into the post-append matrix.  Retired rows stay in the
        matrix (index stability) but are marked inactive in the LSH
        state; the cluster churn a retirement caused (shrunk or
        dissolved clusters) rides in ``removed_labels`` / ``clusters``
        like any other churn.  v1 deltas load with an empty set.
    meta:
        Free-form provenance (ingest counters, ...).
    manifest_sha256:
        SHA-256 of this delta's own manifest, set by :meth:`save` /
        :meth:`load`; the next delta in the chain records it as its
        ``parent_sha256``.
    """

    parent_sha256: str
    parent_n_items: int
    sequence: int
    appended_data: np.ndarray
    appended_item_keys: np.ndarray
    removed_labels: np.ndarray
    clusters: list[Cluster]
    retired_rows: np.ndarray = dataclasses.field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    meta: dict = dataclasses.field(default_factory=dict)
    manifest_sha256: str | None = dataclasses.field(
        default=None, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def n_appended(self) -> int:
        """Number of appended data rows."""
        return int(np.asarray(self.appended_data).shape[0])

    @property
    def n_removed(self) -> int:
        """Number of retired/replaced parent cluster labels."""
        return int(np.asarray(self.removed_labels).size)

    @property
    def n_retired_rows(self) -> int:
        """Number of data rows this delta tombstones."""
        return int(np.asarray(self.retired_rows).size)

    @property
    def n_upserted(self) -> int:
        """Number of upserted (replacement or new) clusters."""
        return len(self.clusters)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save(self, path) -> pathlib.Path:
        """Write the delta directory and return its resolved path.

        Same discipline as :meth:`DetectionSnapshot.save`: any previous
        manifest is removed first, arrays are written via temp + rename,
        the manifest last — a readable manifest certifies a complete
        delta, and interrupted saves read as missing-manifest errors.
        """
        path = pathlib.Path(path)
        arrays = {
            "appended_data": np.ascontiguousarray(
                self.appended_data, dtype=np.float64
            ),
            "appended_item_keys": np.ascontiguousarray(
                self.appended_item_keys, dtype=np.uint64
            ),
            "removed_labels": np.asarray(self.removed_labels, dtype=np.int64),
            "retired_rows": np.asarray(self.retired_rows, dtype=np.int64),
            **_packed_clusters(self.clusters),
        }
        body = {
            "parent": {
                "sha256": self.parent_sha256,
                "n_items": int(self.parent_n_items),
                "sequence": int(self.sequence),
            },
            "counts": {
                "n_appended": self.n_appended,
                "n_removed": self.n_removed,
                "n_upserted": self.n_upserted,
                "n_retired_rows": self.n_retired_rows,
            },
            "meta": self.meta,
        }
        self.manifest_sha256 = write_artifact(path, DELTA, arrays, body)
        return path

    @classmethod
    def load(cls, path, *, mmap: bool = False) -> "SnapshotDelta":
        """Load and validate a delta directory, all-or-nothing.

        Runs the same :mod:`repro.serve.artifact` checks as
        :meth:`DetectionSnapshot.load` before anything is constructed.
        v1 deltas predate retirement: they carry no ``retired_rows``
        array and load with an empty tombstone set.

        Raises
        ------
        SnapshotError
            Missing/unreadable manifest, wrong format, schema version
            newer than :data:`DELTA_SCHEMA_VERSION`, malformed parent
            or meta section, a missing, misplaced, truncated, tampered
            or mistyped array file, or arrays that disagree.
        """
        path = pathlib.Path(path)
        _, manifest, sha = read_manifest(path, DELTA)
        parent_sha, parent_n, sequence = fields(
            manifest.get("parent"), f"{path}: delta manifest parent section",
            sha256=str, n_items=int, sequence=int,
        )
        arrays = load_arrays(path, DELTA, manifest, mmap=mmap)
        appended = arrays["appended_data"]
        keys = arrays["appended_item_keys"]
        if keys.shape[1] != appended.shape[0]:
            raise SnapshotError(
                f"{path}: appended_item_keys shape {keys.shape} does not "
                f"cover {appended.shape[0]} appended row(s)"
            )
        return cls(
            parent_sha256=parent_sha,
            parent_n_items=parent_n,
            sequence=sequence,
            appended_data=appended,
            appended_item_keys=keys,
            removed_labels=arrays["removed_labels"],
            clusters=_unpacked_clusters(
                path, arrays, parent_n + appended.shape[0]
            ),
            retired_rows=arrays.get(
                "retired_rows", np.zeros(0, dtype=np.int64)
            ),
            meta=_meta(path, manifest),
            manifest_sha256=sha,
        )

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(self, snapshot: DetectionSnapshot) -> DetectionSnapshot:
        """Build the post-delta snapshot, or raise without side effects.

        Pure function: *snapshot* is never mutated, so a failing
        application (wrong parent, shape mismatch, label conflict)
        leaves the caller's serving state untouched.  The result carries
        this delta's :attr:`manifest_sha256` as its own identity, which
        is what lets the next delta in the chain verify against the
        in-memory state without a full snapshot ever being rewritten.

        Raises
        ------
        SnapshotError
            Parent mismatch (the snapshot's manifest SHA is not this
            delta's ``parent_sha256``, or the snapshot was never
            persisted and has none), item-count/dim/table mismatch, a
            removed label the parent does not hold, an upserted label
            that would duplicate a surviving parent cluster, or a
            retired row outside (or repeated within) the post-append
            matrix.
        """
        if snapshot.manifest_sha256 is None:
            raise SnapshotError(
                "cannot verify delta parentage: the serving snapshot has "
                "no manifest checksum (it was never saved); publish a "
                "base snapshot before applying deltas"
            )
        if snapshot.manifest_sha256 != self.parent_sha256:
            raise SnapshotError(
                f"delta (sequence {self.sequence}) does not apply to this "
                f"snapshot: parent {self.parent_sha256[:12]}..., serving "
                f"{snapshot.manifest_sha256[:12]}... — deltas must be "
                f"applied in chain order against their own base"
            )
        if snapshot.n_items != self.parent_n_items:
            raise SnapshotError(
                f"delta expects a parent with {self.parent_n_items} "
                f"item(s), snapshot has {snapshot.n_items}"
            )
        m = self.n_appended
        appended = np.asarray(self.appended_data, dtype=np.float64)
        if m and appended.shape[1] != snapshot.dim:
            raise SnapshotError(
                f"delta appends dim-{appended.shape[1]} rows to a "
                f"dim-{snapshot.dim} snapshot"
            )
        old_keys = np.asarray(snapshot.index_arrays["item_keys"])
        new_keys_part = np.asarray(self.appended_item_keys, dtype=np.uint64)
        if new_keys_part.shape[0] != old_keys.shape[0]:
            raise SnapshotError(
                f"delta carries keys for {new_keys_part.shape[0]} LSH "
                f"table(s), snapshot has {old_keys.shape[0]}"
            )
        removed = {int(label) for label in np.asarray(self.removed_labels)}
        parent_labels = {int(c.label) for c in snapshot.clusters}
        missing = removed - parent_labels
        if missing:
            raise SnapshotError(
                f"delta removes label(s) {sorted(missing)} the parent "
                f"snapshot does not hold"
            )
        surviving_labels = parent_labels - removed
        conflicts = sorted(
            int(c.label)
            for c in self.clusters
            if int(c.label) in surviving_labels
        )
        if conflicts:
            raise SnapshotError(
                f"delta upserts label(s) {conflicts} that still exist in "
                f"the parent snapshot (replacements must also appear in "
                f"removed_labels)"
            )
        n_total = snapshot.n_items + m
        for cluster in self.clusters:
            if cluster.size and int(cluster.members.max()) >= n_total:
                raise SnapshotError(
                    f"delta cluster {cluster.label} references item "
                    f"{int(cluster.members.max())} beyond the "
                    f"{n_total}-item post-append matrix"
                )
        retired_rows = np.asarray(self.retired_rows, dtype=np.int64)
        if retired_rows.size:
            if int(retired_rows.min()) < 0 or (
                int(retired_rows.max()) >= n_total
            ):
                raise SnapshotError(
                    f"delta retires row(s) outside the {n_total}-item "
                    f"post-append matrix "
                    f"(range {int(retired_rows.min())}.."
                    f"{int(retired_rows.max())})"
                )
            if np.unique(retired_rows).size != retired_rows.size:
                raise SnapshotError(
                    "delta retires the same row more than once"
                )
        old_data = np.asarray(snapshot.data)
        index_arrays = dict(snapshot.index_arrays)
        if m:
            data = np.vstack([old_data, appended])
            index_arrays["item_keys"] = np.hstack(
                [old_keys, new_keys_part]
            )
            index_arrays["active"] = np.concatenate(
                [
                    np.asarray(snapshot.index_arrays["active"], dtype=bool),
                    np.ones(m, dtype=bool),
                ]
            )
        else:
            data = old_data
        if retired_rows.size:
            # Tombstone the retired rows in the LSH visibility mask.
            # Copy before writing — apply() must never mutate the
            # parent snapshot's arrays, even in the m == 0 case where
            # index_arrays still aliases them.
            active = np.array(index_arrays["active"], dtype=bool)
            active[retired_rows] = False
            index_arrays["active"] = active
        clusters = [
            c for c in snapshot.clusters if int(c.label) not in removed
        ]
        clusters.extend(self.clusters)
        meta = dict(snapshot.meta)
        meta.update(self.meta)
        meta["delta_sequence"] = int(self.sequence)
        # Quality scores are fit-time facts: removed clusters lose
        # theirs, and upserted clusters arrive unannotated (their
        # scores would describe the pre-ingest geometry) — a served
        # delta therefore *invalidates* the touched clusters' gauges
        # until the next annotation pass.
        quality = (
            None
            if snapshot.quality is None
            else {
                int(label): dict(scores)
                for label, scores in snapshot.quality.items()
                if int(label) not in removed
            }
        )
        return DetectionSnapshot(
            data=data,
            config=snapshot.config,
            kernel=snapshot.kernel,
            lsh_r=snapshot.lsh_r,
            index_arrays=index_arrays,
            clusters=clusters,
            meta=meta,
            quality=quality,
            manifest_sha256=self.manifest_sha256,
        )
