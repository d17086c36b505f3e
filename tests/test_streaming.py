"""Tests for the streaming extension (paper §6 future work) + LSH insert."""

import numpy as np
import pytest

from repro.core.config import ALIDConfig
from repro.datasets import make_synthetic_mixture
from repro.eval.metrics import average_f1
from repro.exceptions import ValidationError
from repro.lsh.index import LSHIndex
from repro.streaming import StreamingALID
from tests.conftest import lsh_reference_components


class TestLSHInsert:
    def test_insert_returns_new_indices(self, blob_data):
        data, _ = blob_data
        index = LSHIndex(data[:40], r=5.0, n_projections=8, n_tables=5, seed=0)
        new = index.insert(data[40:])
        assert list(new) == list(range(40, 60))
        assert index.n == 60

    def test_insert_matches_full_rebuild(self, blob_data):
        """Incremental insertion lands items in the rebuild's buckets."""
        data, _ = blob_data
        incremental = LSHIndex(
            data[:40], r=5.0, n_projections=8, n_tables=5, seed=0
        )
        incremental.insert(data[40:])
        rebuilt = LSHIndex(data, r=5.0, n_projections=8, n_tables=5, seed=0)
        for i in (0, 25, 45, 59):
            assert np.array_equal(
                incremental.query_item(i), rebuilt.query_item(i)
            )

    def test_inserted_items_start_active(self, blob_data):
        data, _ = blob_data
        index = LSHIndex(data[:40], r=5.0, n_projections=8, n_tables=5, seed=0)
        index.deactivate(np.arange(40))
        index.insert(data[40:])
        assert index.n_active == 20

    def test_insert_rejects_wrong_dim(self, blob_data):
        data, _ = blob_data
        index = LSHIndex(data, r=5.0, n_projections=8, n_tables=5, seed=0)
        with pytest.raises(ValidationError):
            index.insert(np.zeros((3, 99)))

    def test_multiple_inserts(self, blob_data):
        data, _ = blob_data
        index = LSHIndex(data[:20], r=5.0, n_projections=8, n_tables=5, seed=0)
        index.insert(data[20:40])
        index.insert(data[40:])
        rebuilt = LSHIndex(data, r=5.0, n_projections=8, n_tables=5, seed=0)
        assert np.array_equal(index.query_item(10), rebuilt.query_item(10))


@pytest.fixture
def stream_config():
    return ALIDConfig(
        delta=50,
        lsh_projections=16,
        lsh_tables=20,
        density_threshold=0.5,
        seed=0,
    )


class TestStreamingALID:
    def test_single_batch_matches_quality(self, blob_data, stream_config):
        data, labels = blob_data
        truth = [np.flatnonzero(labels == c) for c in (0, 1)]
        stream = StreamingALID(stream_config)
        result = stream.partial_fit(data)
        assert average_f1(result.member_lists(), truth) > 0.9

    def test_cluster_grows_across_batches(self, blob_data, stream_config):
        """Arriving members of an existing cluster are absorbed into it."""
        data, labels = blob_data
        cluster0 = np.flatnonzero(labels == 0)
        rest = np.setdiff1d(np.arange(data.shape[0]), cluster0[10:])
        first = data[rest]
        second = data[cluster0[10:]]

        stream = StreamingALID(stream_config)
        stream.partial_fit(first)
        before_labels = {c.label for c in stream.result().clusters}
        snapshot = stream.partial_fit(second)
        after_labels = {c.label for c in snapshot.clusters}
        # No spurious new cluster for the returning members...
        assert after_labels == before_labels
        # ...and the grown cluster now holds (almost) all 20 members.
        sizes = sorted(c.size for c in snapshot.clusters)
        assert max(sizes) >= 18 or sizes.count(20) >= 1

    def test_new_cluster_discovered_in_later_batch(
        self, blob_data, stream_config
    ):
        data, labels = blob_data
        cluster1 = np.flatnonzero(labels == 1)
        others = np.setdiff1d(np.arange(data.shape[0]), cluster1)
        stream = StreamingALID(stream_config)
        first = stream.partial_fit(data[others])
        assert first.n_clusters == 1  # only cluster 0 present
        second = stream.partial_fit(data[cluster1])
        assert second.n_clusters == 2

    def test_noise_batches_create_no_clusters(self, rng):
        # kernel_k is pinned: auto-calibration on a pure-noise first
        # batch would adapt the affinity scale to the noise itself.
        config = ALIDConfig(
            delta=50, lsh_projections=16, lsh_tables=20,
            density_threshold=0.5, kernel_k=0.45, seed=0,
        )
        stream = StreamingALID(config)
        stream.partial_fit(rng.uniform(-50, 50, size=(30, 8)))
        snapshot = stream.partial_fit(rng.uniform(-50, 50, size=(30, 8)))
        assert snapshot.n_clusters == 0
        assert snapshot.n_items == 60

    def test_noise_becomes_cluster_when_mass_arrives(self, rng):
        """Items that were noise can form a dominant cluster later."""
        config = ALIDConfig(
            delta=50, lsh_projections=16, lsh_tables=20,
            density_threshold=0.5, kernel_k=0.45, seed=0,
        )
        stream = StreamingALID(config)
        center = np.full(8, 3.0)
        lonely = center + rng.normal(scale=0.1, size=(2, 8))
        scatter = rng.uniform(-50, 50, size=(20, 8))
        stream.partial_fit(np.vstack([lonely, scatter]))
        assert stream.n_clusters == 0
        crowd = center + rng.normal(scale=0.1, size=(15, 8))
        snapshot = stream.partial_fit(crowd)
        assert snapshot.n_clusters == 1
        members = snapshot.clusters[0].member_set()
        # The crowd forms the cluster; the early lonely pair should be
        # absorbed too (they are infective against it).
        assert len(members) >= 15

    def test_streaming_matches_batch_quality(self, stream_config):
        ds = make_synthetic_mixture(
            n=300, regime="bounded", bound=150, n_clusters=5, dim=20, seed=4
        )
        order = np.random.default_rng(0).permutation(ds.n)
        stream = StreamingALID(
            ALIDConfig(delta=100, density_threshold=0.7, seed=0)
        )
        for start in range(0, ds.n, 100):
            snapshot = stream.partial_fit(ds.data[order[start:start + 100]])
        # Map streamed indices back to original ones for evaluation.
        truth_orig = ds.truth_clusters()
        truth_streamed = [
            np.flatnonzero(np.isin(order, t)) for t in truth_orig
        ]
        avg = average_f1(snapshot.member_lists(), truth_streamed)
        assert avg > 0.6

    def test_snapshot_counts(self, blob_data, stream_config):
        data, _ = blob_data
        stream = StreamingALID(stream_config)
        stream.partial_fit(data[:30])
        snapshot = stream.partial_fit(data[30:])
        assert snapshot.n_items == 60
        assert snapshot.metadata["batches"] == 2
        assert snapshot.counters.entries_computed > 0

    def test_rejects_dim_change(self, blob_data, stream_config):
        data, _ = blob_data
        stream = StreamingALID(stream_config)
        stream.partial_fit(data)
        with pytest.raises(ValidationError):
            stream.partial_fit(np.zeros((3, 99)))

    def test_checked_first_batch_is_built_once(
        self, blob_data, stream_config, monkeypatch
    ):
        """The check builds the first batch's index; the fit adopts it."""
        import repro.core.alid as alid

        data, _ = blob_data
        built = []

        def counting_index(*args, **kwargs):
            built.append(args[0].shape)
            return LSHIndex(*args, **kwargs)

        # The stream calibrates through core.alid.calibrate, which builds
        # the index.
        monkeypatch.setattr(alid, "LSHIndex", counting_index)
        stream = StreamingALID(stream_config)
        stream.partial_fit(stream.check_batch(data[:30]))
        stream.partial_fit(stream.check_batch(data[30:]))
        assert built == [(30, data.shape[1])]
        # A batch other than the checked one is calibrated on itself.
        other = StreamingALID(stream_config)
        other.check_batch(data[:30])
        other.partial_fit(data[30:50])
        assert built[1:] == [(30, data.shape[1]), (20, data.shape[1])]
        assert np.array_equal(other.data, data[30:50])

    def test_result_without_data(self, stream_config):
        stream = StreamingALID(stream_config)
        snapshot = stream.result()
        assert snapshot.n_items == 0
        assert snapshot.n_clusters == 0

    def test_clusters_disjoint(self, blob_data, stream_config):
        data, _ = blob_data
        stream = StreamingALID(stream_config)
        stream.partial_fit(data[:30])
        snapshot = stream.partial_fit(data[30:])
        seen: set[int] = set()
        for cluster in snapshot.clusters:
            members = cluster.member_set()
            assert not (members & seen)
            seen |= members


class TestRetirement:
    """The deletion half of the §6 streaming scenario."""

    def test_retire_noise_changes_nothing(self, blob_data, stream_config):
        data, labels = blob_data
        stream = StreamingALID(stream_config)
        stream.partial_fit(data)
        before = {c.label: set(c.members.tolist())
                  for c in stream.result().clusters}
        snapshot = stream.retire(np.flatnonzero(labels == -1)[:10])
        after = {c.label: set(c.members.tolist())
                 for c in snapshot.clusters}
        assert after == before
        assert snapshot.metadata["retired"] == 10

    def test_retire_some_members_shrinks_cluster(
        self, blob_data, stream_config
    ):
        data, labels = blob_data
        stream = StreamingALID(stream_config)
        stream.partial_fit(data)
        cluster0 = np.flatnonzero(labels == 0)
        snapshot = stream.retire(cluster0[:5])
        survivors = {
            c.label: set(c.members.tolist()) for c in snapshot.clusters
        }
        for members in survivors.values():
            assert not members & set(cluster0[:5].tolist())
        # The shrunk cluster still exists with the remaining ~15 items.
        assert any(
            len(members & set(cluster0.tolist())) >= 13
            for members in survivors.values()
        )

    def test_retire_whole_cluster_dissolves_it(
        self, blob_data, stream_config
    ):
        data, labels = blob_data
        stream = StreamingALID(stream_config)
        first = stream.partial_fit(data)
        n_before = first.n_clusters
        cluster0 = np.flatnonzero(labels == 0)
        snapshot = stream.retire(cluster0[:18])
        # Two survivors cannot hold the dominance threshold against
        # min_cluster_size/density on their own here — the cluster
        # either dissolved or shrank to the tiny remainder.
        assert snapshot.n_clusters <= n_before
        for cluster in snapshot.clusters:
            assert not set(cluster.members.tolist()) & set(
                cluster0[:18].tolist()
            )

    def test_retired_items_invisible_to_future_batches(
        self, blob_data, stream_config
    ):
        data, labels = blob_data
        cluster1 = np.flatnonzero(labels == 1)
        others = np.setdiff1d(np.arange(data.shape[0]), cluster1)
        stream = StreamingALID(stream_config)
        stream.partial_fit(data[others])
        stream.retire(np.arange(10))  # cluster-0 members
        snapshot = stream.partial_fit(data[cluster1])
        for cluster in snapshot.clusters:
            assert not set(cluster.members.tolist()) & set(range(10))

    def test_retire_is_idempotent(self, blob_data, stream_config):
        data, labels = blob_data
        stream = StreamingALID(stream_config)
        stream.partial_fit(data)
        a = stream.retire(np.asarray([0, 1]))
        b = stream.retire(np.asarray([0, 1]))
        assert a.metadata["retired"] == b.metadata["retired"] == 2

    def test_retire_before_any_data_rejected(self, stream_config):
        stream = StreamingALID(stream_config)
        with pytest.raises(ValidationError):
            stream.retire(np.asarray([0]))

    def test_retire_out_of_range_rejected(self, blob_data, stream_config):
        data, _ = blob_data
        stream = StreamingALID(stream_config)
        stream.partial_fit(data)
        with pytest.raises(ValidationError):
            stream.retire(np.asarray([999]))


class TestRediscover:
    def test_rediscover_before_any_data_rejected(self, stream_config):
        stream = StreamingALID(stream_config)
        with pytest.raises(ValidationError):
            stream.discover(np.arange(3))

    def test_rediscover_finds_pooled_cluster(self, blob_data, stream_config):
        data, labels = blob_data
        stream = StreamingALID(stream_config)
        stream.partial_fit(data)
        # Dissolve cluster 1 by retiring most of cluster 0 AND manually
        # dropping cluster 1's detection: simulate by retiring all of
        # cluster 1's current members' *cluster* via retire of a
        # majority, then re-adding equivalent items in a new batch.
        cluster1 = np.flatnonzero(labels == 1)
        stream.retire(cluster1[:15])
        # The 5 survivors were returned to the pool (below threshold)
        # or kept as a small cluster; feed 15 fresh near-duplicates and
        # re-run discovery over the whole pool.
        rng = np.random.default_rng(5)
        fresh = np.full((15, 8), 10.0) + rng.normal(scale=0.1, size=(15, 8))
        stream.partial_fit(fresh)
        snapshot = stream.discover(np.arange(stream.n_items))
        # Some dominant cluster must now cover the fresh items.
        fresh_start = data.shape[0]
        covered = False
        for cluster in snapshot.clusters:
            overlap = (np.asarray(cluster.members) >= fresh_start).sum()
            if overlap >= 10:
                covered = True
        assert covered

    def test_rediscover_noop_when_everything_assigned(
        self, blob_data, stream_config
    ):
        data, labels = blob_data
        stream = StreamingALID(stream_config)
        before = stream.partial_fit(data)
        after = stream.discover(np.arange(stream.n_items))
        assert after.n_clusters == before.n_clusters


class TestOneIngestStep:
    """``partial_fit`` absorbs, dirties leftovers' components, re-peels."""

    @pytest.fixture
    def discover_calls(self, monkeypatch):
        """Record every ``discover`` call with what it must cover.

        Captured at call time, i.e. after absorb: the indices passed,
        and the union of the collision components of the batch's
        unassigned arrivals.
        """
        calls = []
        original = StreamingALID.discover

        def spy(stream, indices):
            new = np.arange(spy.n_before, stream.n_items)
            leftover = new[~stream.assigned_mask[new]]
            want = lsh_reference_components(stream._index, leftover)
            calls.append((np.asarray(indices).copy(), want))
            return original(stream, indices)

        spy.n_before = 0
        monkeypatch.setattr(StreamingALID, "discover", spy)
        return calls, spy

    def test_dirty_components_are_the_discover_call(
        self, blob_data, stream_config, discover_calls
    ):
        data, _ = blob_data
        calls, spy = discover_calls
        stream = StreamingALID(stream_config)
        first = stream.partial_fit(data)
        assert len(calls) == 1
        indices, want = calls[0]
        assert np.array_equal(indices, want)
        assert first.metadata["absorbed"] == 0
        assert first.metadata["dirty_marked"] == indices.size
        assert first.n_clusters == 2

        # Near-copies of cluster members all absorb: no re-peel at all.
        members = stream.clusters[0].members
        spy.n_before = stream.n_items
        copies = stream.partial_fit(data[members[:5]] + 1e-3)
        assert copies.metadata["absorbed"] == 5
        assert copies.metadata["dirty_marked"] == 0
        assert len(calls) == 1

        # Copies plus far-off noise: the noise's components re-peel.
        rng = np.random.default_rng(3)
        noise = rng.uniform(-40, 40, size=(4, data.shape[1]))
        spy.n_before = stream.n_items
        mixed = stream.partial_fit(
            np.vstack([data[members[5:8]] + 1e-3, noise])
        )
        assert len(calls) == 2
        indices, want = calls[1]
        assert np.array_equal(indices, want)
        assert mixed.metadata["absorbed"] == 3
        assert mixed.metadata["dirty_marked"] == indices.size
        noise_rows = np.arange(stream.n_items - 4, stream.n_items)
        assert set(noise_rows) <= set(indices)
