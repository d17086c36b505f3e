"""Offline artifact audit: snapshots, delta chains, write-ahead logs.

The read-only integrity half of the durability story, run through the
serving load path itself, so ``repro verify`` refuses exactly what a
serving process would: a snapshot is audited by
:meth:`~repro.serve.snapshot.DetectionSnapshot.load` plus the LSH index
restore :class:`~repro.serve.service.ClusterService` performs at
start-up; a chain by the one walk
(:func:`~repro.serve.compact.walk_chain`) that
:func:`~repro.serve.compact.load_chain_tip` and
:func:`~repro.serve.compact.compact_chain` use, after which every
committed publish marker of its journal must pin an artifact of the
chain.  ``repro verify`` is the CLI face: exit 0 with a summary line
per artifact, or exit 2 with a one-line diagnosis.

Every checker returns a small report dict on success and raises
:class:`~repro.exceptions.SnapshotError` (or its
:class:`~repro.exceptions.WALError` subclass) on the first problem.  A
torn WAL tail *is* reported as an error here: it is recoverable damage
(``IngestService.recover`` truncates it), but an audit's job is to say
the file is damaged.
"""

from __future__ import annotations

import pathlib

from repro.exceptions import SnapshotError, WALError
from repro.serve.artifact import (
    DELTA,
    MANIFEST_NAME,
    SNAPSHOT,
    check_pin,
    read_manifest,
)
from repro.serve.compact import BASE_NAME, walk_chain
from repro.serve.snapshot import DetectionSnapshot, SnapshotDelta
from repro.serve.wal import WAL_MAGIC, read_records

__all__ = [
    "verify_artifact",
    "verify_chain",
    "verify_delta",
    "verify_snapshot",
    "verify_wal",
]

WAL_NAME = "ingest.wal"


def _snapshot_report(path, snapshot: DetectionSnapshot) -> dict:
    return {
        "kind": "snapshot",
        "path": str(path),
        "n_items": snapshot.n_items,
        "n_clusters": snapshot.n_clusters,
        "manifest_sha256": snapshot.manifest_sha256,
    }


def _delta_report(path, delta: SnapshotDelta) -> dict:
    return {
        "kind": "delta",
        "path": str(path),
        "sequence": delta.sequence,
        "n_appended": delta.n_appended,
        "n_removed": delta.n_removed,
        "n_upserted": delta.n_upserted,
        "n_retired_rows": delta.n_retired_rows,
        "parent_sha256": delta.parent_sha256,
        "manifest_sha256": delta.manifest_sha256,
    }


def verify_snapshot(path) -> dict:
    """Audit one snapshot directory; return its summary or raise.

    The serving load path: :meth:`DetectionSnapshot.load` (``mmap``
    keeps residency trivial) plus
    :meth:`~DetectionSnapshot.restore_index`.
    """
    snapshot = DetectionSnapshot.load(path, mmap=True)
    snapshot.restore_index()
    return _snapshot_report(path, snapshot)


def verify_delta(path) -> dict:
    """Audit one delta directory on its own; return its summary or raise."""
    return _delta_report(path, SnapshotDelta.load(path, mmap=True))


def _audit_wal(path, allow_torn_tail: bool):
    """``(records, report)`` of a journal, refusing a torn tail."""
    records, committed, total = read_records(path)
    torn = total - committed
    if torn and not allow_torn_tail:
        raise WALError(
            f"{path}: torn tail — {torn} uncommitted byte(s) after "
            f"record {len(records)} (recoverable: "
            f"IngestService.recover() truncates and replays)"
        )
    kinds: dict[str, int] = {}
    for record in records:
        kinds[record.kind] = kinds.get(record.kind, 0) + 1
    return records, {
        "kind": "wal",
        "path": str(path),
        "n_records": len(records),
        "record_kinds": kinds,
        "committed_bytes": committed,
        "torn_bytes": torn,
    }


def verify_wal(path, *, allow_torn_tail: bool = False) -> dict:
    """Audit a write-ahead log; return its summary or raise.

    Checks the header magic and every record's framing, CRC-32 and
    header types.  Uncommitted tail bytes (a crash mid-append) raise
    unless *allow_torn_tail* — an audit reports damage even when
    recovery could truncate it.
    """
    return _audit_wal(path, allow_torn_tail)[1]


def verify_chain(path, *, allow_torn_tail: bool = False) -> dict:
    """Audit a whole chain directory: base, deltas, links, journal.

    Walks the chain once through :func:`~repro.serve.compact.walk_chain`
    (every load check, gapless sequence numbers, parent links checked
    by each apply), restores the tip's LSH index as serving would, and
    — when an ``ingest.wal`` journal rides along — pins every committed
    publish marker to a chain artifact with the exact manifest SHA it
    recorded.
    """
    path = pathlib.Path(path)
    reports = {}
    for artifact_path, artifact, tip in walk_chain(path, mmap=True):
        report = (
            _snapshot_report
            if isinstance(artifact, DetectionSnapshot)
            else _delta_report
        )
        reports[artifact_path.name] = report(artifact_path, artifact)
    tip.restore_index()
    wal_report = None
    wal_path = path / WAL_NAME
    if wal_path.is_file():
        records, wal_report = _audit_wal(wal_path, allow_torn_tail)
        for number, record in enumerate(records):
            if record.kind not in ("publish_base", "publish_delta"):
                continue
            name = record.meta.get("name")
            if not isinstance(name, str) or name not in reports:
                raise WALError(
                    f"{wal_path}: record {number} marks a publish of "
                    f"{str(name)[:60]!r} but the chain holds no such "
                    f"committed artifact"
                )
            check_pin(
                path / name / MANIFEST_NAME,
                record.meta.get("sha256"),
                what=f"{wal_path}: record {number} for {name!r}",
                error=WALError,
            )
    base_report = reports.pop(BASE_NAME)
    return {
        "kind": "chain",
        "path": str(path),
        "base": base_report,
        "deltas": list(reports.values()),
        "tip_sha256": tip.manifest_sha256,
        "wal": wal_report,
    }


def verify_artifact(path, *, allow_torn_tail: bool = False) -> dict:
    """Audit *path*, whatever artifact kind it is.

    A file starting with the WAL magic is a journal; a directory with a
    ``base/`` sub-snapshot is a chain; otherwise the manifest's envelope
    (:func:`~repro.serve.artifact.read_manifest`) says whether it is a
    snapshot or a delta.  Anything else raises with a one-line
    diagnosis.
    """
    path = pathlib.Path(path)
    if path.is_file():
        with open(path, "rb") as handle:
            head = handle.read(len(WAL_MAGIC))
        if head == WAL_MAGIC:
            return verify_wal(path, allow_torn_tail=allow_torn_tail)
        raise SnapshotError(
            f"{path} is not a known artifact: not a write-ahead log, "
            f"and artifacts are directories"
        )
    if not path.is_dir():
        raise SnapshotError(f"{path} does not exist")
    if (path / BASE_NAME / MANIFEST_NAME).is_file() or (
        (path / BASE_NAME).is_dir()
        and not (path / MANIFEST_NAME).is_file()
    ):
        return verify_chain(path, allow_torn_tail=allow_torn_tail)
    if not (path / MANIFEST_NAME).is_file():
        raise SnapshotError(
            f"{path} is not a known artifact: no {MANIFEST_NAME} and "
            f"no {BASE_NAME}/ chain anchor"
        )
    kind, _, _ = read_manifest(path, SNAPSHOT, DELTA)
    if kind is DELTA:
        return verify_delta(path)
    return verify_snapshot(path)
