"""Durability chaos suite: WAL, crash recovery, compaction, retirement.

The robustness contract of the durable ingest tier, proven under
injected faults rather than assumed from clean shutdowns:

* the write-ahead log detects every torn tail (CRC per record) and
  recovery truncates it and replays the committed prefix to
  **byte-identical** stream state — swept by crashing at *every*
  record boundary of a scripted run;
* a crash mid-publish leaves a manifest-less directory that recovery
  ignores and the next publish overwrites;
* ``compact_chain`` folds base + deltas into a fresh base serving
  byte-identical assignments (labels *and* scores) on the
  single-process and the sharded front alike;
* retirement deltas (schema v2) tombstone rows through the chain
  without a base republish, and v1 deltas still load;
* ``verify_*`` audits catch tampering with a one-line diagnosis.

Everything is deterministic: :class:`repro.testing.FaultInjector`
fires on explicit operation counts, and all services run
``repeel="sync"``.
"""

import json
import shutil
import zlib

import numpy as np
import pytest

from repro.core.config import ALIDConfig
from repro.datasets.synthetic import make_synthetic_mixture
from repro.exceptions import SnapshotError, ValidationError, WALError
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    ClusterService,
    DetectionSnapshot,
    IngestService,
    ShardPlanner,
    ShardedClusterService,
    SnapshotDelta,
    WriteAheadLog,
    chain_artifacts,
    compact_chain,
    load_chain_tip,
    read_records,
    verify_artifact,
    verify_chain,
    verify_snapshot,
    verify_wal,
)
from repro.serve.snapshot import MANIFEST_NAME
from repro.serve.wal import WAL_MAGIC, _LEN
from repro.streaming import StreamingALID
from repro.testing import FaultInjector, InjectedFault, crash_snapshot_writes


def _config():
    return ALIDConfig(
        delta=50,
        lsh_projections=16,
        lsh_tables=20,
        density_threshold=0.5,
        seed=0,
    )


@pytest.fixture(scope="module")
def batches():
    """Three deterministic ingest batches plus a retire index set."""
    ds = make_synthetic_mixture(
        n=360, regime="bounded", bound=200, n_clusters=6, dim=12, seed=3
    )
    return {
        "b1": ds.data[:160],
        "b2": ds.data[160:260],
        "b3": ds.data[260:],
        "retire": np.arange(40, 64, dtype=np.int64),
        "queries": ds.data[::3],
    }


def _scripted_run(batches, root, *, wal=None, upto=None):
    """Run the canonical op schedule; return the (closed) service.

    Each op journals exactly one WAL record, so with the leading
    ``begin`` record op *i* is record *i + 1* — the mapping the
    crash-sweep relies on.  ``upto`` executes only the first N ops
    (the committed prefix a crash at record N + 1 leaves behind).
    """
    service = IngestService(
        StreamingALID(_config()), repeel="sync", wal=wal
    )
    ops = [
        lambda s: s.ingest(batches["b1"]),
        lambda s: s.publish_base(root / "base"),
        lambda s: s.ingest(batches["b2"]),
        lambda s: s.publish_delta(root / "delta_0000"),
        lambda s: s.retire(batches["retire"]),
        lambda s: s.ingest(batches["b3"]),
        lambda s: s.publish_delta(root / "delta_0001"),
    ]
    for op in ops[: len(ops) if upto is None else upto]:
        op(service)
    return service


_N_OPS = 7  # keep in sync with _scripted_run's schedule


def _assert_streams_identical(got: StreamingALID, want: StreamingALID):
    """Byte-identity across everything recovery promises to restore."""
    assert got.n_items == want.n_items
    assert np.array_equal(got.data, want.data)
    assert np.array_equal(got.retired_mask, want.retired_mask)
    assert np.array_equal(got.assigned_mask, want.assigned_mask)
    assert (
        got.result().counters.entries_computed
        == want.result().counters.entries_computed
    )
    want_clusters = {c.label: c for c in want.clusters}
    assert sorted(c.label for c in got.clusters) == sorted(want_clusters)
    for cluster in got.clusters:
        ref = want_clusters[cluster.label]
        assert np.array_equal(cluster.members, ref.members)
        assert np.array_equal(cluster.weights, ref.weights)
        assert cluster.density == ref.density
        assert cluster.seed == ref.seed
    if want._index is None:
        assert got._index is None  # nothing committed before bootstrap
        return
    got_lsh = got._index.export_state()
    want_lsh = want._index.export_state()
    assert sorted(got_lsh) == sorted(want_lsh)
    for name in want_lsh:
        assert np.array_equal(got_lsh[name], want_lsh[name]), name


# ---------------------------------------------------------------------------
# WAL file format
# ---------------------------------------------------------------------------
class TestWALFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            assert wal.append("begin", meta={"config": {"delta": 5}}) == 0
            points = np.arange(12, dtype=np.float64).reshape(4, 3)
            assert wal.append("ingest", arrays={"points": points}) == 1
            wal.append(
                "publish_base",
                meta={"sha256": "ab", "n_items": 4, "name": "base"},
            )
        records, committed, total = read_records(path)
        assert committed == total
        assert [r.kind for r in records] == [
            "begin",
            "ingest",
            "publish_base",
        ]
        assert records[0].meta == {"config": {"delta": 5}}
        assert np.array_equal(records[1].arrays["points"], points)
        assert records[1].arrays["points"].dtype == np.float64
        assert records[2].meta["name"] == "base"

    def test_reopen_counts_committed_records(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append("begin")
            wal.append("retire", arrays={"indices": np.arange(3)})
        with WriteAheadLog(path) as wal:
            assert wal.n_records == 2
            assert wal.append("retire", arrays={"indices": np.arange(2)}) == 2

    def test_bad_kind_and_meta_rejected(self, tmp_path):
        with WriteAheadLog(tmp_path / "j.wal") as wal:
            with pytest.raises(ValidationError, match="kind"):
                wal.append("checkpoint")
            with pytest.raises(ValidationError, match="journaled"):
                wal.append("begin", meta={"bad": object()})

    def test_missing_file_and_bad_magic(self, tmp_path):
        with pytest.raises(WALError, match="no such file"):
            read_records(tmp_path / "nope.wal")
        foreign = tmp_path / "foreign.wal"
        foreign.write_bytes(b"SQLite format 3\0")
        with pytest.raises(WALError, match="header"):
            read_records(foreign)

    def test_torn_tail_detected_and_truncated(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append("begin")
            wal.append("ingest", arrays={"points": np.ones((2, 2))})
        committed = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(_LEN.pack(999) + b"half a frame")
        records, got_committed, total = read_records(path)
        assert len(records) == 2
        assert got_committed == committed < total
        with pytest.raises(WALError, match="torn tail"):
            WriteAheadLog(path)
        assert WriteAheadLog.truncate_torn_tail(path) == total - committed
        assert WriteAheadLog.truncate_torn_tail(path) == 0  # idempotent
        with WriteAheadLog(path) as wal:
            assert wal.n_records == 2

    def test_short_length_prefix_is_torn(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append("begin")
        with open(path, "ab") as handle:
            handle.write(b"\x07")  # 1 of 4 length-prefix bytes
        records, committed, total = read_records(path)
        assert len(records) == 1 and total - committed == 1

    def test_insane_length_prefix_is_torn(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append("begin")
        with open(path, "ab") as handle:
            handle.write(_LEN.pack(1 << 31) + b"garbage")
        records, committed, _ = read_records(path)
        assert len(records) == 1

    def test_crc_corruption_stops_replay(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append("begin")
            wal.append("ingest", arrays={"points": np.ones((2, 2))})
            wal.append("retire", arrays={"indices": np.arange(2)})
        blob = bytearray(path.read_bytes())
        # Flip one payload byte inside the second record.
        (len0,) = _LEN.unpack_from(blob, len(WAL_MAGIC))
        second = len(WAL_MAGIC) + _LEN.size + len0 + 4
        blob[second + _LEN.size + 5] ^= 0xFF
        path.write_bytes(bytes(blob))
        records, committed, total = read_records(path)
        assert [r.kind for r in records] == ["begin"]
        assert committed < total

    @pytest.mark.parametrize(
        "header, blob",
        [
            ([1, 2], b""),
            ({"kind": "begin", "meta": [1, 2], "arrays": []}, b""),
            (
                {
                    "kind": "ingest",
                    "meta": {},
                    "arrays": [{"name": "points", "dtype": "O", "shape": [1]}],
                },
                bytes(8),
            ),
        ],
        ids=["list-header", "list-meta", "object-dtype"],
    )
    def test_crc_valid_malformed_frame_is_typed(self, tmp_path, header, blob):
        """A frame can pass its CRC and still carry a wrong header."""
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append("begin")
        payload = json.dumps(header).encode() + b"\0" + blob
        with open(path, "ab") as handle:
            handle.write(
                _LEN.pack(len(payload))
                + payload
                + _LEN.pack(zlib.crc32(payload) & 0xFFFFFFFF)
            )
        with pytest.raises(WALError, match="record 1"):
            read_records(path)

    def test_append_to_closed_journal(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "j.wal")
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(WALError, match="closed"):
            wal.append("begin")

    def test_verify_wal_reports(self, tmp_path):
        path = tmp_path / "j.wal"
        with WriteAheadLog(path) as wal:
            wal.append("begin")
            wal.append("ingest", arrays={"points": np.ones((2, 2))})
        report = verify_wal(path)
        assert report["n_records"] == 2
        assert report["record_kinds"] == {"begin": 1, "ingest": 1}
        assert report["torn_bytes"] == 0
        with open(path, "ab") as handle:
            handle.write(b"\x01\x02\x03")
        with pytest.raises(WALError, match="torn tail"):
            verify_wal(path)
        assert verify_wal(path, allow_torn_tail=True)["torn_bytes"] == 3


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------
class TestCrashRecovery:
    @pytest.mark.parametrize("record", range(1, _N_OPS + 1))
    def test_crash_at_every_record_boundary(
        self, batches, tmp_path, record
    ):
        """The acceptance sweep: kill mid-append of each record in turn.

        Record ``record`` tears, so ops ``0 .. record - 2`` committed;
        recovery must rebuild exactly the stream a clean run of that op
        prefix produces — clusters, LSH state, retirement mask and
        ``entries_computed`` byte-identical.
        """
        root = tmp_path / "chain"
        injector = FaultInjector(kill_at_record=record)
        wal = WriteAheadLog(root / "ingest.wal", fault_hook=injector)
        with pytest.raises(InjectedFault):
            service = _scripted_run(batches, root, wal=wal)
            service.close()  # pragma: no cover - the run must crash
        assert injector.appends == record + 1
        _, committed, total = read_records(root / "ingest.wal")
        assert total - committed > 0  # half the frame reached disk

        recovered = _scripted_run(
            batches, tmp_path / "ref", upto=record - 1
        )
        try:
            service = IngestService.recover(root / "ingest.wal", root)
            try:
                assert service.recovery_info["records_replayed"] == record
                assert service.recovery_info["torn_bytes_truncated"] > 0
                _assert_streams_identical(service.stream, recovered.stream)
                assert service.stats()["recoveries"] == 1
            finally:
                service.close()
        finally:
            recovered.close()

    def test_crash_on_exact_boundary_leaves_no_torn_bytes(
        self, batches, tmp_path
    ):
        root = tmp_path / "chain"
        injector = FaultInjector(kill_at_record=3, torn_bytes=0)
        wal = WriteAheadLog(root / "ingest.wal", fault_hook=injector)
        with pytest.raises(InjectedFault):
            _scripted_run(batches, root, wal=wal)
        service = IngestService.recover(root / "ingest.wal", root)
        try:
            assert service.recovery_info["torn_bytes_truncated"] == 0
            assert service.recovery_info["records_replayed"] == 3
        finally:
            service.close()

    def test_recovered_service_continues_the_run(self, batches, tmp_path):
        """Recovery is not a dead end: the journal accepts new appends."""
        root = tmp_path / "chain"
        wal = WriteAheadLog(
            root / "ingest.wal",
            fault_hook=FaultInjector(kill_at_record=5),
        )
        with pytest.raises(InjectedFault):
            _scripted_run(batches, root, wal=wal)
        service = IngestService.recover(root / "ingest.wal", root)
        try:
            # Ops 0-3 committed; redo the rest of the schedule.
            service.retire(batches["retire"])
            service.ingest(batches["b3"])
            service.publish_delta(root / "delta_0001")
        finally:
            service.close()
        report = verify_chain(root)
        assert len(report["deltas"]) == 2
        clean = _scripted_run(batches, tmp_path / "ref")
        try:
            want = ClusterService(clean.stream.to_snapshot()).assign(
                batches["queries"]
            )
        finally:
            clean.close()
        got = ClusterService(load_chain_tip(root)).assign(
            batches["queries"]
        )
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.scores, want.scores)

    def test_full_run_recovers_identical(self, batches, tmp_path):
        """No crash at all: recovery of a complete journal is exact."""
        root = tmp_path / "chain"
        clean = _scripted_run(
            batches, root, wal=WriteAheadLog(root / "ingest.wal")
        )
        clean.close()
        service = IngestService.recover(root / "ingest.wal", root)
        try:
            assert service.recovery_info["torn_bytes_truncated"] == 0
            assert service.recovery_info["publishes_restored"] == 3
            ref = _scripted_run(batches, tmp_path / "ref")
            try:
                _assert_streams_identical(service.stream, ref.stream)
            finally:
                ref.close()
            # Chain bookkeeping restored: next delta continues the chain.
            service.ingest(batches["b1"][:20])
            service.publish_delta(root / "delta_0002")
            assert len(verify_chain(root)["deltas"]) == 3
        finally:
            service.close()

    def test_enospc_mid_append_recovers(self, batches, tmp_path):
        root = tmp_path / "chain"
        wal = WriteAheadLog(
            root / "ingest.wal",
            fault_hook=FaultInjector(enospc_at_record=2),
        )
        with pytest.raises(OSError, match="ENOSPC|injected"):
            _scripted_run(batches, root, wal=wal)
        service = IngestService.recover(root / "ingest.wal", root)
        try:
            assert service.recovery_info["records_replayed"] == 2
            assert service.recovery_info["torn_bytes_truncated"] > 0
        finally:
            service.close()

    def test_dropped_fsyncs_do_not_break_process_crash_recovery(
        self, batches, tmp_path
    ):
        root = tmp_path / "chain"
        injector = FaultInjector(drop_fsync=True)
        clean = _scripted_run(
            batches,
            root,
            wal=WriteAheadLog(root / "ingest.wal", fault_hook=injector),
        )
        clean.close()
        assert injector.fsyncs_dropped > 0
        service = IngestService.recover(root / "ingest.wal", root)
        try:
            ref = _scripted_run(batches, tmp_path / "ref")
            try:
                _assert_streams_identical(service.stream, ref.stream)
            finally:
                ref.close()
        finally:
            service.close()

    def test_torn_begin_record_is_unrecoverable(self, tmp_path):
        wal = WriteAheadLog(
            tmp_path / "j.wal",
            fault_hook=FaultInjector(kill_at_record=0),
        )
        with pytest.raises(InjectedFault):
            IngestService(
                StreamingALID(_config()), repeel="sync", wal=wal
            )
        with pytest.raises(WALError, match="begin"):
            IngestService.recover(tmp_path / "j.wal")


class TestLegacyBeginRecord:
    """Journals whose begin record carries the retired config fields."""

    def _legacy_journal(self, batches, root, **config_fields):
        """Journal the scripted run, then rewrite its begin record."""
        clean = _scripted_run(
            batches, root, wal=WriteAheadLog(root / "ingest.wal")
        )
        clean.close()
        records, _, _ = read_records(root / "ingest.wal")
        config = dict(records[0].meta["config"], **config_fields)
        with WriteAheadLog(root / "legacy.wal") as wal:
            wal.append("begin", meta={"config": config})
            for record in records[1:]:
                wal.append(record.kind, meta=record.meta, arrays=record.arrays)
        return root / "legacy.wal"

    def test_recovers_identical_to_a_clean_run(self, batches, tmp_path):
        root = tmp_path / "chain"
        legacy = self._legacy_journal(
            batches,
            root,
            peel_driver="batched",
            seed_block_size=256,
            lid_kernel="numba",
        )
        service = IngestService.recover(legacy, root)
        ref = _scripted_run(batches, tmp_path / "ref")
        try:
            assert service.stream.config == ref.stream.config
            _assert_streams_identical(service.stream, ref.stream)
            want = ClusterService(ref.stream.to_snapshot()).assign(
                batches["queries"]
            )
            got = ClusterService(service.stream.to_snapshot()).assign(
                batches["queries"]
            )
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.scores, want.scores)
        finally:
            ref.close()
            service.close()

    def test_other_unknown_field_is_typed_error(self, batches, tmp_path):
        root = tmp_path / "chain"
        legacy = self._legacy_journal(
            batches, root, peel_driver="batched", warp=1
        )
        with pytest.raises(WALError, match="config"):
            IngestService.recover(legacy, root)


class TestPublishCrash:
    def test_crash_mid_base_save_leaves_no_manifest(
        self, batches, tmp_path
    ):
        root = tmp_path / "chain"
        service = IngestService(
            StreamingALID(_config()),
            repeel="sync",
            wal=WriteAheadLog(root / "ingest.wal"),
        )
        service.ingest(batches["b1"])
        with pytest.raises(InjectedFault):
            with crash_snapshot_writes(
                FaultInjector(kill_at_array_write=4)
            ):
                service.publish_base(root / "base")
        service.close()
        assert (root / "base").is_dir()
        assert not (root / "base" / MANIFEST_NAME).exists()
        # The marker was never journaled, so recovery ignores the
        # orphan directory and the republish overwrites it.
        recovered = IngestService.recover(root / "ingest.wal", root)
        try:
            assert recovered.recovery_info["publishes_restored"] == 0
            recovered.publish_base(root / "base")
        finally:
            recovered.close()
        assert verify_chain(root)["base"]["n_items"] == len(batches["b1"])

    def test_crash_between_save_and_marker(self, batches, tmp_path):
        """Artifact on disk, marker torn: an uncommitted publish."""
        root = tmp_path / "chain"
        # Record 4 is delta_0000's commit marker (begin, ingest,
        # publish_base, ingest, publish_delta).
        wal = WriteAheadLog(
            root / "ingest.wal",
            fault_hook=FaultInjector(kill_at_record=4),
        )
        with pytest.raises(InjectedFault):
            _scripted_run(batches, root, wal=wal)
        assert (root / "delta_0000" / MANIFEST_NAME).is_file()
        service = IngestService.recover(root / "ingest.wal", root)
        try:
            assert service.recovery_info["publishes_restored"] == 1
            # The replayed stream includes b2 (its record committed
            # before the marker tore); republishing overwrites the
            # orphan delta with an identical artifact.
            service.publish_delta(root / "delta_0000")
            report = verify_chain(root)
            assert len(report["deltas"]) == 1
        finally:
            service.close()


class TestRecoverValidation:
    def test_used_journal_cannot_be_attached(self, batches, tmp_path):
        path = tmp_path / "j.wal"
        clean = _scripted_run(
            batches, tmp_path / "chain", wal=WriteAheadLog(path)
        )
        clean.close()
        with pytest.raises(ValidationError, match="recover"):
            IngestService(
                StreamingALID(_config()), repeel="sync", wal=path
            )

    def test_fresh_journal_needs_empty_stream(self, batches, tmp_path):
        stream = StreamingALID(_config())
        stream.partial_fit(batches["b1"])
        with pytest.raises(ValidationError, match="already"):
            IngestService(
                stream, repeel="sync", wal=tmp_path / "j.wal"
            )

    def test_marker_artifact_vanished(self, batches, tmp_path):
        root = tmp_path / "chain"
        clean = _scripted_run(
            batches, root, wal=WriteAheadLog(root / "ingest.wal")
        )
        clean.close()
        shutil.rmtree(root / "delta_0001")
        with pytest.raises(WALError, match="vanished"):
            IngestService.recover(root / "ingest.wal", root)

    def test_marker_artifact_diverged(self, batches, tmp_path):
        root = tmp_path / "chain"
        clean = _scripted_run(
            batches, root, wal=WriteAheadLog(root / "ingest.wal")
        )
        clean.close()
        manifest = root / "base" / MANIFEST_NAME
        doc = json.loads(manifest.read_text())
        doc["meta"]["published_by"] = "someone else"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(WALError, match="diverged"):
            IngestService.recover(root / "ingest.wal", root)
        # Without a chain_dir the journal alone still replays fine.
        service = IngestService.recover(root / "ingest.wal")
        service.close()

    def test_unhashable_batch_refused_before_journaling(
        self, batches, tmp_path
    ):
        """A row too large to hash never reaches the journal.

        Inserting it would raise after the record was written, and
        every later recovery would then fail replaying it.
        """
        path = tmp_path / "j.wal"
        service = IngestService(
            StreamingALID(_config()), repeel="sync", wal=path
        )
        service.ingest(batches["b1"])
        records = service.stats()["wal_records"]
        bad = batches["b2"].copy()
        bad[7] = 1e300
        with pytest.raises(ValidationError, match="int64"):
            service.ingest(bad)
        assert service.stats()["wal_records"] == records
        assert service._stream.n_items == batches["b1"].shape[0]
        service.ingest(batches["b2"])
        service.close()
        recovered = IngestService.recover(path)
        try:
            assert recovered._stream.n_items == (
                batches["b1"].shape[0] + batches["b2"].shape[0]
            )
        finally:
            recovered.close()

    def test_unhashable_first_batch_refused_before_journaling(
        self, batches, tmp_path
    ):
        """An empty stream's check builds the first batch's index.

        That build refuses a row too large to hash before the record is
        written, so the journal holds only ``begin`` and recovers.
        """
        path = tmp_path / "j.wal"
        service = IngestService(
            StreamingALID(_config()), repeel="sync", wal=path
        )
        bad = batches["b1"].copy()
        bad[7] = 1e300
        try:
            with pytest.raises(ValidationError, match="int64"):
                service.ingest(bad)
            assert service.stream.n_items == 0
        finally:
            service.close()
        records, _, _ = read_records(path)
        assert [record.kind for record in records] == ["begin"]
        IngestService.recover(path).close()

    def test_first_batch_lost_to_enospc_lends_no_calibration(
        self, batches, tmp_path
    ):
        """The check's kernel and index serve only the batch it checked.

        The first batch passes the check but its journal append fails;
        a different batch ingested next must be calibrated on itself,
        exactly as in a stream fed only that batch.
        """
        wal = WriteAheadLog(
            tmp_path / "j.wal", fault_hook=FaultInjector(enospc_at_record=1)
        )
        service = IngestService(
            StreamingALID(_config()), repeel="sync", wal=wal
        )
        clean = IngestService(StreamingALID(_config()), repeel="sync")
        try:
            with pytest.raises(OSError, match="ENOSPC|injected"):
                service.ingest(batches["b1"])
            assert service.stream.n_items == 0
            service.ingest(batches["b2"])
            clean.ingest(batches["b2"])
            _assert_streams_identical(service.stream, clean.stream)
            got, want = service.stream, clean.stream
            assert got._kernel.k == want._kernel.k
            assert got._index.r == want._index.r
            for name, array in want._index.export_state().items():
                assert np.array_equal(got._index.export_state()[name], array)
        finally:
            service.close()
            clean.close()

    def test_boolean_mask_refused_before_journaling(
        self, batches, tmp_path
    ):
        """A row mask passed to retire is refused, not read as rows 0/1."""
        path = tmp_path / "j.wal"
        service = IngestService(
            StreamingALID(_config()), repeel="sync", wal=path
        )
        try:
            service.ingest(batches["b1"])
            mask = np.zeros(service._stream.n_items, dtype=bool)
            mask[30:40] = True
            with pytest.raises(ValidationError, match="boolean mask"):
                service.retire(mask)
            assert not service._stream.retired_mask.any()
        finally:
            service.close()
        records, _, _ = read_records(path)
        assert "retire" not in [record.kind for record in records]

    def test_wal_counters_and_stats(self, batches, tmp_path):
        root = tmp_path / "chain"
        service = _scripted_run(
            batches, root, wal=WriteAheadLog(root / "ingest.wal")
        )
        try:
            stats = service.stats()
            assert stats["wal_records"] == _N_OPS + 1
            assert stats["retired"] == len(batches["retire"])
            assert stats["recoveries"] == 0
            assert service.wal is not None
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Retirement deltas (schema v2)
# ---------------------------------------------------------------------------
class TestRetirementDelta:
    @pytest.fixture(scope="class")
    def chain(self, batches, tmp_path_factory):
        root = tmp_path_factory.mktemp("retire_chain")
        service = _scripted_run(batches, root)
        yield {"root": root, "service": service}
        service.close()

    def test_delta_carries_tombstones(self, batches, chain):
        delta = SnapshotDelta.load(chain["root"] / "delta_0001")
        assert delta.n_retired_rows == len(batches["retire"])
        assert np.array_equal(
            delta.retired_rows, np.sort(batches["retire"])
        )

    def test_chain_tip_serves_like_the_stream(self, batches, chain):
        tip = load_chain_tip(chain["root"])
        live = chain["service"].stream.to_snapshot()
        want = ClusterService(live).assign(batches["queries"])
        got = ClusterService(tip).assign(batches["queries"])
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.scores, want.scores)

    def test_apply_rejects_out_of_range_tombstones(self, chain):
        base_path, _ = chain_artifacts(chain["root"])
        base = DetectionSnapshot.load(base_path)
        delta = SnapshotDelta.load(chain["root"] / "delta_0000")
        bad = SnapshotDelta(
            parent_sha256=delta.parent_sha256,
            parent_n_items=delta.parent_n_items,
            sequence=0,
            appended_data=delta.appended_data,
            appended_item_keys=delta.appended_item_keys,
            removed_labels=delta.removed_labels,
            clusters=delta.clusters,
            retired_rows=np.asarray([10**9], dtype=np.int64),
        )
        with pytest.raises(SnapshotError, match="retires"):
            bad.apply(base)
        dupes = SnapshotDelta(
            parent_sha256=delta.parent_sha256,
            parent_n_items=delta.parent_n_items,
            sequence=0,
            appended_data=delta.appended_data,
            appended_item_keys=delta.appended_item_keys,
            removed_labels=delta.removed_labels,
            clusters=delta.clusters,
            retired_rows=np.asarray([3, 3], dtype=np.int64),
        )
        with pytest.raises(SnapshotError, match="retires"):
            dupes.apply(base)

    def test_apply_never_mutates_the_parent(self, chain):
        """A retire-only delta (no appends) must copy before writing."""
        base_path, _ = chain_artifacts(chain["root"])
        base = DetectionSnapshot.load(base_path)
        before = base.index_arrays["active"].copy()
        delta = SnapshotDelta(
            parent_sha256=base.manifest_sha256,
            parent_n_items=base.n_items,
            sequence=0,
            appended_data=np.zeros((0, base.data.shape[1])),
            appended_item_keys=np.zeros(
                (base.index_arrays["item_keys"].shape[0], 0),
                dtype=base.index_arrays["item_keys"].dtype,
            ),
            removed_labels=np.zeros(0, dtype=np.int64),
            clusters=[],
            retired_rows=np.asarray([1, 5], dtype=np.int64),
        )
        applied = delta.apply(base)
        assert np.array_equal(base.index_arrays["active"], before)
        assert not applied.index_arrays["active"][1]
        assert not applied.index_arrays["active"][5]

    def test_v1_delta_still_loads(self, chain, tmp_path):
        """A pre-retirement delta (schema v1) loads with no tombstones."""
        src = chain["root"] / "delta_0000"
        legacy = tmp_path / "legacy_delta"
        shutil.copytree(src, legacy)
        (legacy / "arrays" / "retired_rows.npy").unlink()
        manifest = legacy / MANIFEST_NAME
        doc = json.loads(manifest.read_text())
        doc["schema_version"] = 1
        del doc["arrays"]["retired_rows"]
        del doc["counts"]["n_retired_rows"]
        manifest.write_text(json.dumps(doc))
        delta = SnapshotDelta.load(legacy)
        assert delta.n_retired_rows == 0
        assert delta.retired_rows.dtype == np.int64

    def test_sharded_front_serves_the_retired_chain(
        self, batches, chain, tmp_path
    ):
        tip = load_chain_tip(chain["root"])
        tip_dir = tmp_path / "tip"
        tip.save(tip_dir)
        shard_root = tmp_path / "shards"
        ShardPlanner(n_shards=2).plan(tip_dir, shard_root)
        want = ClusterService(tip).assign(batches["queries"])
        with ShardedClusterService(shard_root) as sharded:
            got = sharded.assign(batches["queries"])
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.scores, want.scores)


# ---------------------------------------------------------------------------
# Compaction
# ---------------------------------------------------------------------------
class TestCompaction:
    @pytest.fixture(scope="class")
    def chain(self, batches, tmp_path_factory):
        root = tmp_path_factory.mktemp("compact_chain")
        service = _scripted_run(batches, root)
        service.close()
        return root

    def test_chain_artifacts_ordering(self, chain):
        base, deltas = chain_artifacts(chain)
        assert base.name == "base"
        assert [d.name for d in deltas] == ["delta_0000", "delta_0001"]

    def test_chain_artifacts_rejects_holes(self, chain, tmp_path):
        root = tmp_path / "holey"
        shutil.copytree(chain, root)
        shutil.rmtree(root / "delta_0000")
        with pytest.raises(SnapshotError, match="hole"):
            chain_artifacts(root)

    def test_uncommitted_tail_delta_is_ignored(self, chain, tmp_path):
        root = tmp_path / "tail"
        shutil.copytree(chain, root)
        (root / "delta_0002").mkdir()  # crash mid-save: no manifest
        _, deltas = chain_artifacts(root)
        assert [d.name for d in deltas] == ["delta_0000", "delta_0001"]
        # But a manifest-less directory mid-chain is a hole.
        (root / "delta_0001" / MANIFEST_NAME).unlink()
        with pytest.raises(SnapshotError, match="hole"):
            chain_artifacts(root)

    def test_missing_chain_dir_and_base(self, tmp_path):
        with pytest.raises(SnapshotError, match="no such directory"):
            chain_artifacts(tmp_path / "nope")
        with pytest.raises(SnapshotError, match="base"):
            chain_artifacts(tmp_path)

    def test_compaction_is_deterministic(self, chain, tmp_path):
        first = compact_chain(chain, tmp_path / "c1")
        second = compact_chain(chain, tmp_path / "c2")
        assert first.manifest_sha256 == second.manifest_sha256
        tip = load_chain_tip(chain)
        assert first.meta["compacted_from"] == tip.manifest_sha256
        assert first.meta["compacted_deltas"] == 2
        assert "delta_sequence" not in first.meta

    def test_compacted_serves_byte_identical(
        self, batches, chain, tmp_path
    ):
        """The acceptance criterion: labels AND scores, both fronts."""
        registry = MetricsRegistry(component="test")
        compact_chain(chain, tmp_path / "compacted", registry=registry)
        assert registry.counter("compactions_total", "").value == 1
        tip = load_chain_tip(chain)
        want = ClusterService(tip).assign(batches["queries"])
        got = ClusterService(tmp_path / "compacted").assign(
            batches["queries"]
        )
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.scores, want.scores)
        shard_root = tmp_path / "shards"
        ShardPlanner(n_shards=2).plan(tmp_path / "compacted", shard_root)
        with ShardedClusterService(shard_root) as sharded:
            sharded_got = sharded.assign(batches["queries"])
        assert np.array_equal(sharded_got.labels, want.labels)
        assert np.array_equal(sharded_got.scores, want.scores)

    @pytest.mark.parametrize("target", ["base", "delta_0000"])
    def test_refuses_to_eat_its_own_base(self, chain, target):
        with pytest.raises(SnapshotError, match="own base"):
            compact_chain(chain, chain / target)
        assert verify_chain(chain)["kind"] == "chain"


# ---------------------------------------------------------------------------
# Offline verification
# ---------------------------------------------------------------------------
class TestVerify:
    @pytest.fixture(scope="class")
    def chain(self, batches, tmp_path_factory):
        root = tmp_path_factory.mktemp("verify_chain")
        service = _scripted_run(
            batches, root, wal=WriteAheadLog(root / "ingest.wal")
        )
        service.close()
        return root

    def test_dispatch(self, chain):
        assert verify_artifact(chain)["kind"] == "chain"
        assert verify_artifact(chain / "base")["kind"] == "snapshot"
        report = verify_artifact(chain / "delta_0001")
        assert report["kind"] == "delta"
        assert report["n_retired_rows"] > 0
        assert verify_artifact(chain / "ingest.wal")["kind"] == "wal"

    def test_chain_report_cross_checks_the_journal(self, chain):
        report = verify_chain(chain)
        assert report["wal"]["record_kinds"]["publish_delta"] == 2
        assert report["tip_sha256"] == report["deltas"][-1][
            "manifest_sha256"
        ]

    def test_unknown_paths_diagnose_cleanly(self, tmp_path):
        with pytest.raises(SnapshotError, match="does not exist"):
            verify_artifact(tmp_path / "nope")
        stray = tmp_path / "stray.txt"
        stray.write_text("hello")
        with pytest.raises(SnapshotError, match="not a known artifact"):
            verify_artifact(stray)
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SnapshotError, match="not a known artifact"):
            verify_artifact(empty)
        weird = tmp_path / "weird"
        weird.mkdir()
        (weird / MANIFEST_NAME).write_text('{"format": "parquet"}')
        with pytest.raises(SnapshotError, match="unknown format"):
            verify_artifact(weird)

    def test_tampered_array_is_caught(self, chain, tmp_path):
        root = tmp_path / "tampered"
        shutil.copytree(chain, root)
        target = root / "base" / "arrays" / "data.npy"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError):
            verify_snapshot(root / "base")
        with pytest.raises(SnapshotError):
            verify_chain(root)

    def test_broken_parent_link_is_caught(self, chain, tmp_path):
        root = tmp_path / "forked"
        shutil.copytree(chain, root)
        (root / "ingest.wal").unlink()
        manifest = root / "delta_0001" / MANIFEST_NAME
        doc = json.loads(manifest.read_text())
        doc["parent"]["sha256"] = "0" * 64
        manifest.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="parent"):
            verify_chain(root)

    def test_marker_mismatch_is_caught(self, chain, tmp_path):
        # The tip delta has no successor checking its parent link, so
        # only the journal's publish marker can expose the tamper.
        root = tmp_path / "diverged"
        shutil.copytree(chain, root)
        manifest = root / "delta_0001" / MANIFEST_NAME
        doc = json.loads(manifest.read_text())
        doc["meta"]["published_by"] = "someone else"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(WALError, match="hashes to"):
            verify_chain(root)

    def test_torn_journal_fails_chain_audit(self, chain, tmp_path):
        root = tmp_path / "torn"
        shutil.copytree(chain, root)
        with open(root / "ingest.wal", "ab") as handle:
            handle.write(b"\x01\x02")
        with pytest.raises(WALError, match="torn tail"):
            verify_chain(root)
        assert verify_chain(root, allow_torn_tail=True)["wal"][
            "torn_bytes"
        ] == 2
