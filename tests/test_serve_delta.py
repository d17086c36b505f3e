"""Tests for the live-corpus tier: SnapshotDelta, IngestService, connect().

Covers the delta artifact's integrity guarantees (all-or-nothing loads,
chain verification), byte-identity of delta-chain application against a
freshly written full snapshot, partial shard reloads that keep untouched
worker processes alive, and the unified serving client API.
"""

import contextlib
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.config import ALIDConfig
from repro.datasets.synthetic import make_synthetic_mixture
from repro.exceptions import SnapshotError, ValidationError
from repro.io import save_dataset
from repro.serve import (
    ClusterHandle,
    ClusterService,
    DetectionSnapshot,
    IngestService,
    ShardPlanner,
    ShardedClusterService,
    SnapshotDelta,
    connect,
)
from repro.serve.snapshot import MANIFEST_NAME
from repro.streaming import StreamingALID


def _stream_config():
    return ALIDConfig(
        delta=50,
        lsh_projections=16,
        lsh_tables=20,
        density_threshold=0.5,
        seed=0,
    )


def _blobs(rng, centers, per=20, noise=20, dim=8):
    pts = [c + rng.normal(scale=0.1, size=(per, dim)) for c in centers]
    labels = np.repeat(np.arange(len(centers)), per)
    pts.append(rng.uniform(-40, 40, size=(noise, dim)))
    labels = np.concatenate([labels, np.full(noise, -1)])
    return np.vstack(pts), labels


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A published base + two-delta chain and the live stream behind it.

    Batch 1 seeds four events (one deliberately under-covered); batch 2
    returns the held-back members, so their absorption *replaces* a
    cluster (removed + re-upserted label); batch 3 brings an entirely
    new fifth blob, so its delta *adds* a brand-new label.
    """
    rng = np.random.default_rng(0)
    centers = np.full((4, 8), [[0.0], [10.0], [-10.0], [20.0]])
    data, labels = _blobs(rng, centers)
    fifth = np.full(8, -20.0) + rng.normal(scale=0.1, size=(20, 8))
    held_back = np.flatnonzero(labels == 0)[10:]
    first = np.setdiff1d(np.arange(data.shape[0]), held_back)

    root = tmp_path_factory.mktemp("chain")
    # closing() guard: the service's journal handle is closed even when
    # one of the sanity asserts below fails before the yield.
    with contextlib.closing(
        IngestService(StreamingALID(_stream_config()))
    ) as service:
        yield from _build_chain(service, root, data, first, held_back, fifth)


def _build_chain(service, root, data, first, held_back, fifth):
    service.ingest(data[first])
    base = service.publish_base(root / "base")
    assert base.n_clusters >= 3
    service.ingest(data[held_back])
    delta1 = service.publish_delta(root / "delta1")
    assert delta1.n_removed >= 1  # a cluster was replaced by absorption
    service.ingest(fifth)
    delta2 = service.publish_delta(root / "delta2")
    new_labels = set(int(c.label) for c in delta2.clusters) - set(
        int(label) for label in delta2.removed_labels
    )
    assert new_labels  # the fifth blob arrived as a brand-new cluster
    yield {
        "root": root,
        "stream": service.stream,
        "service": service,
        "base": base,
        "delta1": delta1,
        "delta2": delta2,
        "queries": np.vstack([data, fifth]),
    }


def _clusters_identical(got, want):
    by_label = {c.label: c for c in want}
    if sorted(c.label for c in got) != sorted(by_label):
        return False
    return all(
        np.array_equal(c.members, by_label[c.label].members)
        and np.array_equal(c.weights, by_label[c.label].weights)
        and c.density == by_label[c.label].density
        and c.seed == by_label[c.label].seed
        for c in got
    )


class TestSnapshotDelta:
    def test_roundtrip(self, chain, tmp_path):
        delta = chain["delta1"]
        reloaded = SnapshotDelta.load(chain["root"] / "delta1")
        assert reloaded.parent_sha256 == delta.parent_sha256
        assert reloaded.parent_n_items == delta.parent_n_items
        assert np.array_equal(reloaded.appended_data, delta.appended_data)
        assert np.array_equal(
            reloaded.appended_item_keys, delta.appended_item_keys
        )
        assert np.array_equal(reloaded.removed_labels, delta.removed_labels)
        assert _clusters_identical(reloaded.clusters, delta.clusters)
        assert reloaded.meta == delta.meta
        assert reloaded.manifest_sha256 == delta.manifest_sha256
        assert reloaded.sequence == 0 and chain["delta2"].sequence == 1

    def test_chain_apply_matches_full_snapshot(self, chain):
        snap = DetectionSnapshot.load(chain["root"] / "base")
        snap = SnapshotDelta.load(chain["root"] / "delta1").apply(snap)
        snap = SnapshotDelta.load(chain["root"] / "delta2").apply(snap)
        full = chain["stream"].to_snapshot()
        assert np.array_equal(snap.data, full.data)
        for name in snap.index_arrays:
            if name == "active":
                # Deactivation marks are transient query state; assigners
                # call reactivate_all() before serving, so they carry no
                # assignment-visible information (the service-level tests
                # below pin byte-identical answers).
                continue
            assert np.array_equal(
                snap.index_arrays[name], full.index_arrays[name]
            ), name
        assert _clusters_identical(snap.clusters, full.clusters)
        # The applied snapshot carries the chain tip.
        assert snap.manifest_sha256 == chain["delta2"].manifest_sha256

    def test_out_of_order_apply_refused(self, chain):
        snap = DetectionSnapshot.load(chain["root"] / "base")
        with pytest.raises(SnapshotError, match="parent"):
            SnapshotDelta.load(chain["root"] / "delta2").apply(snap)

    def test_apply_needs_persisted_parent(self, chain):
        never_saved = chain["stream"].to_snapshot()
        assert never_saved.manifest_sha256 is None
        with pytest.raises(SnapshotError, match="base snapshot"):
            chain["delta1"].apply(never_saved)

    def test_corrupt_manifest_refused(self, chain, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(chain["root"] / "delta1", bad)
        (bad / MANIFEST_NAME).write_text("{broken")
        with pytest.raises(SnapshotError):
            SnapshotDelta.load(bad)

    def test_truncated_array_refused(self, chain, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(chain["root"] / "delta1", bad)
        target = next((bad / "arrays").glob("appended_data.npy"))
        target.write_bytes(target.read_bytes()[:-16])
        with pytest.raises(SnapshotError, match="truncated|checksum"):
            SnapshotDelta.load(bad)

    def test_tampered_array_refused(self, chain, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(chain["root"] / "delta1", bad)
        manifest = json.loads((bad / MANIFEST_NAME).read_text())
        entry = manifest["arrays"]["appended_data"]
        payload = np.load(bad / entry["file"])
        np.save(bad / entry["file"], payload + 1.0)
        with pytest.raises(SnapshotError, match="checksum"):
            SnapshotDelta.load(bad)

    def test_newer_schema_refused(self, chain, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(chain["root"] / "delta1", bad)
        manifest = json.loads((bad / MANIFEST_NAME).read_text())
        manifest["schema_version"] = 999
        (bad / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="newer"):
            SnapshotDelta.load(bad)

    def test_missing_delta_dir_refused(self, tmp_path):
        with pytest.raises(SnapshotError):
            SnapshotDelta.load(tmp_path / "nowhere")


class TestClusterServiceDelta:
    def test_apply_delta_matches_full_snapshot_service(self, chain):
        service = ClusterService(chain["root"] / "base")
        service.apply_delta(chain["root"] / "delta1")
        service.apply_delta(chain["root"] / "delta2")
        fresh = ClusterService(chain["stream"].to_snapshot())
        a = service.assign(chain["queries"])
        b = fresh.assign(chain["queries"])
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.scores, b.scores)
        assert a.entries_computed == b.entries_computed
        assert service.stats()["reloads"] == 2

    def test_failed_apply_keeps_serving(self, chain, tmp_path):
        import shutil

        bad = tmp_path / "bad"
        shutil.copytree(chain["root"] / "delta1", bad)
        (bad / MANIFEST_NAME).write_text("{broken")
        service = ClusterService(chain["root"] / "base")
        before = service.assign(chain["queries"][:30])
        with pytest.raises(SnapshotError):
            service.apply_delta(bad)
        # Out-of-order chains are refused too, with serving untouched.
        with pytest.raises(SnapshotError):
            service.apply_delta(chain["root"] / "delta2")
        after = service.assign(chain["queries"][:30])
        assert np.array_equal(before.labels, after.labels)
        assert service.stats()["reloads"] == 0

    def test_close_is_terminal(self, chain):
        service = ClusterService(chain["root"] / "base")
        service.close()
        service.close()  # idempotent
        with pytest.raises(ValidationError, match="closed"):
            service.assign(chain["queries"][:5])
        with pytest.raises(ValidationError, match="closed"):
            service.apply_delta(chain["root"] / "delta1")

    def test_context_manager(self, chain):
        with ClusterService(chain["root"] / "base") as service:
            assert service.assign(chain["queries"][:5]).n_queries == 5
        with pytest.raises(ValidationError):
            service.assign(chain["queries"][:5])

    def test_stats_schema_matches_sharded(self, chain, tmp_path):
        single = ClusterService(chain["root"] / "base")
        single.assign(chain["queries"][:10])
        ShardPlanner(n_shards=2).plan(chain["root"] / "base", tmp_path / "s")
        with ShardedClusterService(tmp_path / "s") as sharded:
            sharded.assign(chain["queries"][:10])
            a, b = single.stats(), sharded.stats()
        shared = set(a) & set(b)
        assert {
            "source",
            "n_items",
            "n_clusters",
            "batches",
            "queries",
            "assigned",
            "coverage",
            "reloads",
            "entries_computed",
            "degraded_batches",
            "snapshot",
        } <= shared
        assert set(a["snapshot"]) == set(b["snapshot"])


class TestShardedDelta:
    def test_partial_reload_keeps_untouched_workers(self, chain, tmp_path):
        root = tmp_path / "shards"
        plan = ShardPlanner(n_shards=3).plan(chain["root"] / "base", root)
        changed = set(
            int(label) for label in chain["delta1"].removed_labels
        ) | set(int(c.label) for c in chain["delta1"].clusters)
        expect_touched = sorted(
            spec.shard_id
            for spec in plan.shards
            if changed & set(spec.labels)
        )
        manifests_before = {
            spec.shard_id: (root / spec.dir_name / MANIFEST_NAME).read_bytes()
            for spec in plan.shards
        }
        with ShardedClusterService(
            root, parent_source=chain["root"] / "base"
        ) as service:
            pids_before = {
                d["shard_id"]: d["pid"] for d in service.describe_shards()
            }
            touched = service.apply_delta(chain["root"] / "delta1")
            assert touched == expect_touched
            pids_after = {
                d["shard_id"]: d["pid"] for d in service.describe_shards()
            }
            for spec in plan.shards:
                sid = spec.shard_id
                manifest = (
                    root / spec.dir_name / MANIFEST_NAME
                ).read_bytes()
                if sid in touched:
                    assert pids_after[sid] != pids_before[sid]
                    assert manifest != manifests_before[sid]
                else:
                    # Untouched workers keep their process and their
                    # on-disk artifact, byte for byte.
                    assert pids_after[sid] == pids_before[sid]
                    assert manifest == manifests_before[sid]
            assert service.stats()["reloads"] == 1

    def test_delta_chain_matches_single_process(self, chain, tmp_path):
        root = tmp_path / "shards"
        ShardPlanner(n_shards=3).plan(chain["root"] / "base", root)
        with ShardedClusterService(
            root, parent_source=chain["root"] / "base"
        ) as service:
            service.apply_delta(chain["root"] / "delta1")
            service.apply_delta(chain["root"] / "delta2")
            sharded = service.assign(chain["queries"])
        single = ClusterService(chain["stream"].to_snapshot()).assign(
            chain["queries"]
        )
        assert np.array_equal(sharded.labels, single.labels)
        assert np.array_equal(sharded.scores, single.scores)
        assert sharded.entries_computed == single.entries_computed

    def test_new_label_lands_on_a_shard(self, chain, tmp_path):
        root = tmp_path / "shards"
        ShardPlanner(n_shards=2).plan(chain["root"] / "base", root)
        with ShardedClusterService(
            root, parent_source=chain["root"] / "base"
        ) as service:
            service.apply_delta(chain["root"] / "delta1")
            service.apply_delta(chain["root"] / "delta2")
            owned = [
                label
                for spec in service.plan.shards
                for label in spec.labels
            ]
            assert sorted(owned) == sorted(
                int(c.label) for c in chain["stream"].clusters
            )

    def test_emptied_shard_falls_back_to_full_replan(self, chain, tmp_path):
        root = tmp_path / "shards"
        base = DetectionSnapshot.load(chain["root"] / "base")
        plan = ShardPlanner(n_shards=base.n_clusters).plan(
            chain["root"] / "base", root
        )
        victim = plan.shards[0].labels
        delta = SnapshotDelta(
            parent_sha256=base.manifest_sha256,
            parent_n_items=base.n_items,
            sequence=0,
            appended_data=np.zeros((0, base.dim)),
            appended_item_keys=np.zeros(
                (base.index_arrays["item_keys"].shape[0], 0), dtype=np.int64
            ),
            removed_labels=np.asarray(victim, dtype=np.int64),
            clusters=[],
        )
        delta.save(tmp_path / "drop")
        with ShardedClusterService(
            root, parent_source=chain["root"] / "base"
        ) as service:
            n_before = service.n_clusters
            touched = service.apply_delta(tmp_path / "drop")
            # Every shard was re-planned (the victim shard emptied out).
            assert len(touched) == service.n_shards
            assert service.n_clusters == n_before - len(victim)
            result = service.assign(chain["queries"][:30])
            assert result.n_queries == 30

    def test_apply_delta_requires_parent_source(self, chain, tmp_path):
        root = tmp_path / "shards"
        ShardPlanner(n_shards=2).plan(chain["root"] / "base", root)
        with ShardedClusterService(root) as service:
            with pytest.raises(ValidationError, match="parent_source"):
                service.apply_delta(chain["root"] / "delta1")

    def test_failed_delta_keeps_pool_serving(self, chain, tmp_path):
        root = tmp_path / "shards"
        ShardPlanner(n_shards=2).plan(chain["root"] / "base", root)
        with ShardedClusterService(
            root, parent_source=chain["root"] / "base"
        ) as service:
            before = service.assign(chain["queries"][:20])
            with pytest.raises(SnapshotError):
                service.apply_delta(chain["root"] / "delta2")  # wrong order
            after = service.assign(chain["queries"][:20])
            assert np.array_equal(before.labels, after.labels)
            assert service.stats()["reloads"] == 0


class TestConnect:
    def test_both_backends_satisfy_the_protocol(self, chain):
        # ExitStack so the first handle is closed even if constructing
        # the second one raises.
        with contextlib.ExitStack() as stack:
            single = stack.enter_context(connect(chain["root"] / "base"))
            sharded = stack.enter_context(
                connect(chain["root"] / "base", workers=2)
            )
            assert isinstance(single, ClusterHandle)
            assert isinstance(sharded, ClusterHandle)
            a = single.assign(chain["queries"][:25])
            b = sharded.assign(chain["queries"][:25])
            assert np.array_equal(a.labels, b.labels)
            assert a.entries_computed == b.entries_computed

    def test_deltas_flow_through_both_handles(self, chain):
        with connect(chain["root"] / "base") as single, connect(
            chain["root"] / "base", workers=2
        ) as sharded:
            for handle in (single, sharded):
                handle.apply_delta(chain["root"] / "delta1")
                handle.apply_delta(chain["root"] / "delta2")
            a = single.assign(chain["queries"])
            b = sharded.assign(chain["queries"])
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.scores, b.scores)

    def test_scratch_dir_removed_on_close(self, chain):
        handle = connect(chain["root"] / "base", workers=2)
        scratch = handle._scratch
        assert scratch is not None and scratch.exists()
        handle.close()
        assert not scratch.exists()

    def test_plan_dir_source(self, chain, tmp_path):
        ShardPlanner(n_shards=2).plan(chain["root"] / "base", tmp_path / "p")
        with connect(tmp_path / "p") as handle:
            assert isinstance(handle, ShardedClusterService)
            assert handle.n_shards == 2
        with pytest.raises(ValidationError, match="cannot resize"):
            connect(tmp_path / "p", workers=3)

    def test_bad_arguments(self, chain):
        with pytest.raises(ValidationError, match="workers"):
            connect(chain["root"] / "base", workers=0)
        with pytest.raises(ValidationError, match="single-process"):
            connect(chain["root"] / "base", max_batch=64)


class TestIngestService:
    def test_rejects_unknown_repeel_mode(self):
        for mode in ("nope", "background", "manual"):
            with pytest.raises(ValidationError, match="repeel"):
                IngestService(StreamingALID(_stream_config()), repeel=mode)
        IngestService(StreamingALID(_stream_config()), repeel="sync").close()

    def test_report_counts(self, rng):
        data, _ = _blobs(rng, np.full((2, 8), [[0.0], [10.0]]))
        service = IngestService(StreamingALID(_stream_config()))
        report = service.ingest(data)
        assert report.n_points == data.shape[0]
        assert report.absorbed == 0  # nothing to absorb into yet
        assert report.dirty_marked == data.shape[0]
        assert report.n_clusters == 2  # re-peeled before returning
        assert report.wall_seconds >= 0.0
        service.close()

    def test_report_counts_the_whole_batch(self):
        """``entries_computed`` covers absorb and re-peel alike."""
        ds = make_synthetic_mixture(
            n=400, regime="bounded", bound=200, n_clusters=5, dim=20, seed=0
        )
        with IngestService(
            StreamingALID(ALIDConfig(delta=100, seed=0))
        ) as service:
            for batch in (ds.data[:200], ds.data[200:]):
                before = service.stream.result().counters.entries_computed
                report = service.ingest(batch)
                after = service.stream.result().counters.entries_computed
                assert report.dirty_marked > 0  # a re-peel ran
                assert report.entries_computed == after - before > 0

    def test_publish_delta_requires_base(self, rng):
        data, _ = _blobs(rng, np.full((1, 8), [[0.0]]))
        with IngestService(StreamingALID(_stream_config())) as service:
            service.ingest(data)
            with pytest.raises(ValidationError, match="publish_base"):
                service.publish_delta("unused")

    def test_idle_delta_is_empty(self, rng, tmp_path):
        data, _ = _blobs(rng, np.full((2, 8), [[0.0], [10.0]]))
        with IngestService(StreamingALID(_stream_config())) as service:
            service.ingest(data)
            service.publish_base(tmp_path / "base")
            delta = service.publish_delta(tmp_path / "idle")
            assert delta.n_appended == 0
            assert delta.n_removed == 0 and delta.n_upserted == 0
            snap = DetectionSnapshot.load(tmp_path / "base")
            applied = SnapshotDelta.load(tmp_path / "idle").apply(snap)
            assert applied.n_items == snap.n_items

    def test_stats_and_closed_ingest(self, rng, tmp_path):
        data, _ = _blobs(rng, np.full((2, 8), [[0.0], [10.0]]))
        service = IngestService(StreamingALID(_stream_config()))
        service.ingest(data)
        service.publish_base(tmp_path / "base")
        stats = service.stats()
        assert stats["ingested"] == data.shape[0]
        assert stats["n_clusters"] == 2
        assert stats["published_sequence"] == 0
        assert stats["chain_tip"] is not None
        service.close()
        with pytest.raises(ValidationError, match="closed"):
            service.ingest(data)
        assert service.stream is None  # closing released the stream
        stats = service.stats()
        assert stats["n_items"] == stats["n_clusters"] == 0
        assert stats["ingested"] == data.shape[0]

    def test_closed_service_publishes_nothing(self, rng, tmp_path):
        data, _ = _blobs(rng, np.full((2, 8), [[0.0], [10.0]]))
        for wal in (None, tmp_path / "ingest.wal"):
            service = IngestService(StreamingALID(_stream_config()), wal=wal)
            service.ingest(data)
            service.publish_base(tmp_path / "base")
            service.close()
            for publish, name in (
                (service.publish_base, "base_again"),
                (service.publish_delta, "delta_0000"),
            ):
                with pytest.raises(ValidationError, match="service is closed"):
                    publish(tmp_path / name)
                assert not (tmp_path / name).exists()
            with pytest.raises(ValidationError, match="service is closed"):
                service.retire(np.arange(3))


class TestStreamingAdditions:
    def test_discover_requires_data(self):
        with pytest.raises(ValidationError):
            StreamingALID(_stream_config()).discover(np.arange(3))

    def test_export_appended_keys_bounds(self, rng):
        data, _ = _blobs(rng, np.full((2, 8), [[0.0], [10.0]]))
        stream = StreamingALID(_stream_config())
        stream.partial_fit(data)
        keys = stream.export_appended_keys(10)
        assert keys.shape == (
            stream.config.lsh_tables,
            stream.n_items - 10,
        )
        with pytest.raises(ValidationError, match="start"):
            stream.export_appended_keys(stream.n_items + 1)

    def test_to_snapshot_serves_like_the_stream(self, rng):
        data, _ = _blobs(rng, np.full((2, 8), [[0.0], [10.0]]))
        stream = StreamingALID(_stream_config())
        stream.partial_fit(data)
        snapshot = stream.to_snapshot()
        assert snapshot.manifest_sha256 is None  # never persisted
        assert _clusters_identical(snapshot.clusters, stream.clusters)
        service = ClusterService(snapshot)
        assert service.assign(data[:10]).n_queries == 10


class TestIngestCLI:
    def test_ingest_writes_a_loadable_chain(self, tmp_path, capsys):
        from repro.datasets.synthetic import make_synthetic_mixture

        dataset = make_synthetic_mixture(
            n=300, regime="bounded", bound=150, n_clusters=5, dim=16, seed=0
        )
        data_path = save_dataset(dataset, tmp_path / "ds.npz")
        out = tmp_path / "chain"
        code = main(
            [
                "ingest",
                "--input", str(data_path),
                "--out", str(out),
                "--batch-size", "120",
                "--delta", "100",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "wrote chain" in printed
        assert (out / "base" / MANIFEST_NAME).is_file()
        deltas = sorted(p.name for p in out.glob("delta_*"))
        assert deltas == ["delta_0000", "delta_0001"]
        with connect(out / "base") as handle:
            for name in deltas:
                handle.apply_delta(out / name)
            result = handle.assign(dataset.data[:40])
            assert result.n_queries == 40

    def test_ingest_rejects_bad_batch_size(self, tmp_path):
        from repro.datasets.synthetic import make_synthetic_mixture

        dataset = make_synthetic_mixture(n=60, regime="bounded", seed=0)
        data_path = save_dataset(dataset, tmp_path / "ds.npz")
        code = main(
            [
                "ingest",
                "--input", str(data_path),
                "--out", str(tmp_path / "chain"),
                "--batch-size", "0",
            ]
        )
        assert code == 2
