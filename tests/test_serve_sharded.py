"""Tests for sharded serving (repro.serve.sharded / repro.serve.router).

The acceptance contract of the subsystem: a ShardedClusterService with
``workers >= 2`` produces **byte-identical assignments** and **identical
summed serve-side ``entries_computed``** to the single-process
ClusterService on the same snapshot and query block; on top of that it
hot-reloads shard sets atomically and keeps serving (degraded) when a
worker dies under the ``"skip"`` policy.
"""

import numpy as np
import pytest

from repro.cli import main
from repro.core.alid import ALID
from repro.core.config import ALIDConfig
from repro.datasets.synthetic import make_synthetic_mixture
from repro.exceptions import SnapshotError, ValidationError, WorkerError
from repro.io import save_dataset
from repro.serve import (
    ClusterService,
    DetectionSnapshot,
    ShardPlanner,
    ShardedClusterService,
)
from repro.serve.router import merge_partials
from repro.serve.snapshot import MANIFEST_NAME


@pytest.fixture(scope="module")
def fitted():
    dataset = make_synthetic_mixture(
        n=350, regime="bounded", bound=200, n_clusters=5, dim=16, seed=2
    )
    detector = ALID(ALIDConfig(delta=200, seed=2))
    result = detector.fit(dataset.data)
    assert result.n_clusters >= 3
    return dataset, detector, result


@pytest.fixture(scope="module")
def snapshot_dir(fitted, tmp_path_factory):
    _, detector, result = fitted
    return DetectionSnapshot.from_result(detector, result).save(
        tmp_path_factory.mktemp("sharded") / "snap"
    )


@pytest.fixture(scope="module")
def shard_root(snapshot_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("sharded") / "shards"
    ShardPlanner(n_shards=2).plan(snapshot_dir, root)
    return root


@pytest.fixture(scope="module")
def sharded(shard_root):
    service = ShardedClusterService(shard_root)
    yield service
    service.close()


class TestEquivalence:
    """The acceptance criterion, pinned."""

    @pytest.mark.parametrize("shortlist", ["lsh", "all", "multiprobe"])
    def test_byte_identical_to_single_process(
        self, fitted, snapshot_dir, sharded, shortlist
    ):
        dataset, _, _ = fitted
        single = ClusterService(snapshot_dir)
        a = single.assign(dataset.data, shortlist=shortlist)
        b = sharded.assign(dataset.data, shortlist=shortlist)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.scores, b.scores)  # byte-identical
        assert np.array_equal(a.n_candidates, b.n_candidates)
        assert a.entries_computed == b.entries_computed

    def test_summed_entries_match_service_stats(
        self, fitted, snapshot_dir, shard_root
    ):
        dataset, _, _ = fitted
        single = ClusterService(snapshot_dir)
        with ShardedClusterService(shard_root) as service:
            for lo in range(0, 350, 100):
                single.assign(dataset.data[lo : lo + 100])
                service.assign(dataset.data[lo : lo + 100])
            assert (
                service.stats()["entries_computed"]
                == single.stats()["entries_computed"]
            )
            assert service.stats()["queries"] == single.stats()["queries"]
            assert service.stats()["assigned"] == single.stats()["assigned"]

    def test_three_shards_equivalent(
        self, fitted, snapshot_dir, tmp_path
    ):
        dataset, _, _ = fitted
        root = tmp_path / "three"
        ShardPlanner(n_shards=3, strategy="contiguous").plan(
            snapshot_dir, root
        )
        single = ClusterService(snapshot_dir).assign(dataset.data[:120])
        with ShardedClusterService(root) as service:
            assert service.n_shards == 3
            result = service.assign(dataset.data[:120])
        assert np.array_equal(single.labels, result.labels)
        assert np.array_equal(single.scores, result.scores)
        assert single.entries_computed == result.entries_computed

    def test_micro_batching_invariant(self, fitted, shard_root, sharded):
        """Labels and summed work are invariant to the micro-batch split."""
        dataset, _, _ = fitted
        whole = sharded.assign(dataset.data[:90])
        with ShardedClusterService(shard_root, max_batch=16) as split_service:
            split = split_service.assign(dataset.data[:90])
        assert np.array_equal(whole.labels, split.labels)
        assert whole.entries_computed == split.entries_computed
        # Scores may differ only by BLAS batching roundoff.
        assert np.allclose(split.scores, whole.scores, rtol=0.0, atol=1e-12)

    def test_deterministic_across_pools(self, fitted, shard_root, sharded):
        """Two independent worker pools answer bit-identically."""
        dataset, _, _ = fitted
        a = sharded.assign(dataset.data[:80])
        with ShardedClusterService(shard_root) as fresh:
            b = fresh.assign(dataset.data[:80])
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.scores, b.scores)
        assert a.entries_computed == b.entries_computed


class TestMergePartials:
    def _partial(self, labels, scores, density, n_candidates=None, entries=7):
        labels = np.asarray(labels, dtype=np.int64)
        return {
            "labels": labels,
            "scores": np.asarray(scores, dtype=np.float64),
            "density": np.asarray(density, dtype=np.float64),
            "n_candidates": (
                np.ones(labels.size, dtype=np.int64)
                if n_candidates is None
                else np.asarray(n_candidates, dtype=np.int64)
            ),
            "entries": entries,
        }

    def test_highest_margin_wins(self):
        merged = merge_partials(
            [
                self._partial([3], [0.2], [0.9]),
                self._partial([5], [0.4], [0.8]),
            ],
            1,
        )
        assert merged["labels"][0] == 5
        assert merged["scores"][0] == 0.4
        assert merged["entries"] == 14
        assert merged["n_candidates"][0] == 2

    def test_margin_tie_falls_to_denser_cluster(self):
        merged = merge_partials(
            [
                self._partial([3], [0.4], [0.8]),
                self._partial([5], [0.4], [0.9]),
            ],
            1,
        )
        assert merged["labels"][0] == 5

    def test_full_tie_falls_to_smaller_label(self):
        merged = merge_partials(
            [
                self._partial([5], [0.4], [0.9]),
                self._partial([3], [0.4], [0.9]),
            ],
            1,
        )
        assert merged["labels"][0] == 3

    def test_all_noise_stays_noise(self):
        merged = merge_partials(
            [
                self._partial([-1], [-np.inf], [-np.inf]),
                self._partial([-1], [-np.inf], [-np.inf]),
            ],
            1,
        )
        assert merged["labels"][0] == -1
        assert np.isneginf(merged["scores"][0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(WorkerError, match="answers"):
            merge_partials([self._partial([1, 2], [0, 0], [0, 0])], 3)


class TestDegradedMode:
    def test_skip_policy_serves_survivors(
        self, fitted, snapshot_dir, tmp_path
    ):
        dataset, _, _ = fitted
        root = tmp_path / "deg"
        plan = ShardPlanner(n_shards=2).plan(snapshot_dir, root)
        with ShardedClusterService(root, on_worker_error="skip") as service:
            healthy = service.assign(dataset.data[:60])
            victim = service._workers[0]
            victim.process.terminate()
            victim.process.join()
            degraded = service.assign(dataset.data[:60])
            stats = service.stats()
            assert stats["degraded_batches"] == 1
            assert stats["dead_shards"] == [0]
            assert stats["alive_shards"] == [1]
            # Queries owned by surviving shards answer identically ...
            lost = np.isin(healthy.labels, plan.shards[0].labels)
            kept = ~lost & (healthy.labels >= 0)
            assert np.array_equal(
                degraded.labels[kept], healthy.labels[kept]
            )
            # ... while the dead shard's clusters are gone.
            assert not np.isin(
                degraded.labels, plan.shards[0].labels
            ).any()

    def test_raise_policy_propagates(self, snapshot_dir, fitted, tmp_path):
        dataset, _, _ = fitted
        root = tmp_path / "raise"
        ShardPlanner(n_shards=2).plan(snapshot_dir, root)
        with ShardedClusterService(root) as service:
            victim = service._workers[1]
            victim.process.terminate()
            victim.process.join()
            with pytest.raises(WorkerError, match="not alive"):
                service.assign(dataset.data[:5])

    def test_all_shards_dead_raises_even_when_skipping(
        self, snapshot_dir, fitted, tmp_path
    ):
        dataset, _, _ = fitted
        root = tmp_path / "dead"
        ShardPlanner(n_shards=2).plan(snapshot_dir, root)
        with ShardedClusterService(root, on_worker_error="skip") as service:
            for worker in service._workers:
                worker.process.terminate()
                worker.process.join()
            with pytest.raises(WorkerError, match="every shard is dead"):
                service.assign(dataset.data[:5])


class TestHotReload:
    def test_reload_swaps_pool_and_resets_snapshot_counters(
        self, fitted, snapshot_dir, shard_root, tmp_path
    ):
        dataset, _, _ = fitted
        service = ShardedClusterService(shard_root)
        try:
            before = service.assign(dataset.data[:50])
            other = tmp_path / "other"
            ShardPlanner(n_shards=3).plan(snapshot_dir, other)
            old_pids = [w.process.pid for w in service._workers]
            service.reload(other)
            assert service.n_shards == 3
            assert all(
                w.process.pid not in old_pids for w in service._workers
            )
            after = service.assign(dataset.data[:50])
            assert np.array_equal(before.labels, after.labels)
            stats = service.stats()
            assert stats["reloads"] == 1
            assert stats["batches"] == 2  # lifetime survives
            assert stats["snapshot"]["batches"] == 1  # reset + 1 new batch
        finally:
            service.close()

    def test_reload_onto_fewer_shards_stops_the_extra_worker(
        self, fitted, snapshot_dir, tmp_path
    ):
        dataset, _, _ = fitted
        three, two = tmp_path / "three", tmp_path / "two"
        ShardPlanner(n_shards=3).plan(snapshot_dir, three)
        ShardPlanner(n_shards=2).plan(snapshot_dir, two)
        single = ClusterService(snapshot_dir).assign(dataset.data)
        with ShardedClusterService(three) as service:
            third = service._workers[2]
            service.reload(two)
            assert service.n_shards == 2
            assert third.process.exitcode is not None
            assert not third.process.is_alive()
            result = service.assign(dataset.data)
        assert np.array_equal(single.labels, result.labels)
        assert np.array_equal(single.scores, result.scores)
        assert np.array_equal(single.n_candidates, result.n_candidates)
        assert single.entries_computed == result.entries_computed

    def test_failed_reload_keeps_old_pool_serving(
        self, fitted, snapshot_dir, shard_root, tmp_path
    ):
        dataset, _, _ = fitted
        service = ShardedClusterService(shard_root)
        try:
            baseline = service.assign(dataset.data[:30])
            corrupt = tmp_path / "corrupt"
            ShardPlanner(n_shards=2).plan(snapshot_dir, corrupt)
            manifest = corrupt / "shard_000" / MANIFEST_NAME
            manifest.write_text(manifest.read_text()[:100])
            pids = [w.process.pid for w in service._workers]
            with pytest.raises(SnapshotError):
                service.reload(corrupt)
            stats = service.stats()
            assert stats["reloads"] == 0
            assert [w.process.pid for w in service._workers] == pids
            again = service.assign(dataset.data[:30])
            assert np.array_equal(baseline.labels, again.labels)
        finally:
            service.close()


#: Query blocks a client might send that no float64 cast can honour.
MALFORMED_QUERIES = {
    "string": "not a block",
    "strings": [["a"] * 16, ["b"] * 16],
    "ragged": [[0.0] * 16, [0.0] * 15],
    "complex": np.zeros((2, 16)) + 1j,
    "object": [[None] * 16],
}


class TestMalformedQueries:
    """Both serving fronts reject hostile blocks with ValidationError."""

    @pytest.mark.parametrize("kind", sorted(MALFORMED_QUERIES))
    @pytest.mark.parametrize("shortlist", ["lsh", "multiprobe", "all"])
    def test_both_fronts_raise_and_keep_serving(
        self, fitted, snapshot_dir, sharded, kind, shortlist
    ):
        dataset, _, _ = fitted
        single = ClusterService(snapshot_dir)
        try:
            for front in (single, sharded):
                with pytest.raises(ValidationError, match="queries"):
                    front.assign(MALFORMED_QUERIES[kind], shortlist=shortlist)
            a = single.assign(dataset.data[:40], shortlist=shortlist)
            b = sharded.assign(dataset.data[:40], shortlist=shortlist)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.scores, b.scores)
        finally:
            single.close()

    def test_huge_finite_queries_fail_typed(self, fitted, snapshot_dir, sharded):
        """A block that projects past int64 hash codes is refused.

        Both fronts raise the index's ValidationError; the shard workers
        report it back typed and stay up for the next request.
        """
        dataset, _, _ = fitted
        huge = np.full((3, 16), 1e300)
        single = ClusterService(snapshot_dir)
        try:
            for front in (single, sharded):
                with pytest.raises(ValidationError, match="int64"):
                    front.assign(huge)
            a = single.assign(dataset.data[:40])
            b = sharded.assign(dataset.data[:40])
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.scores, b.scores)
        finally:
            single.close()

    def test_refused_block_is_not_a_shard_failure(
        self, fitted, snapshot_dir, tmp_path
    ):
        """Under ``skip`` a refused block neither degrades nor kills shards."""
        dataset, _, _ = fitted
        root = tmp_path / "refuse"
        ShardPlanner(n_shards=2).plan(snapshot_dir, root)
        with ShardedClusterService(root, on_worker_error="skip") as service:
            block = dataset.data[:40].copy()
            block[17] = -1e20
            with pytest.raises(ValidationError, match="int64"):
                service.assign(block)
            stats = service.stats()
            assert stats["degraded_batches"] == 0
            assert stats["dead_shards"] == []
            assert service.assign(dataset.data[:40]).n_queries == 40


class TestServiceMechanics:
    def test_empty_batch(self, sharded, fitted):
        dataset, _, _ = fitted
        empty = sharded.assign(dataset.data[:0])
        assert empty.n_queries == 0
        assert empty.entries_computed == 0

    def test_dim_mismatch_raises(self, sharded):
        with pytest.raises(ValidationError, match="queries must be"):
            sharded.assign(np.zeros((3, 4)))

    def test_nan_queries_raise(self, sharded):
        bad = np.full((2, 16), np.nan)
        with pytest.raises(ValidationError, match="NaN"):
            sharded.assign(bad)

    def test_bad_shortlist_raises(self, sharded, fitted):
        dataset, _, _ = fitted
        with pytest.raises(ValidationError, match="shortlist"):
            sharded.assign(dataset.data[:3], shortlist="maybe")

    def test_bad_policy_and_batch_rejected(self, shard_root):
        with pytest.raises(ValidationError, match="on_worker_error"):
            ShardedClusterService(shard_root, on_worker_error="retry")
        with pytest.raises(ValidationError, match="max_batch"):
            ShardedClusterService(shard_root, max_batch=0)

    def test_close_is_idempotent(self, shard_root):
        service = ShardedClusterService(shard_root)
        workers = list(service._workers)
        service.close()
        service.close()
        assert all(not w.process.is_alive() for w in workers)

    def test_assign_after_close_fails_cleanly(self, shard_root, fitted):
        dataset, _, _ = fitted
        service = ShardedClusterService(shard_root)
        service.close()
        with pytest.raises(WorkerError, match="closed"):
            service.assign(dataset.data[:3])
        with pytest.raises(WorkerError, match="closed"):
            service.describe_shards()

    def test_reload_after_close_is_refused(self, shard_root):
        """A closed pool stays closed: the reload's fresh workers stop."""
        import multiprocessing

        service = ShardedClusterService(shard_root)
        service.close()
        running = len(multiprocessing.active_children())
        with pytest.raises(WorkerError, match="closed"):
            service.reload(shard_root)
        assert service.n_shards == 0
        assert len(multiprocessing.active_children()) == running

    def test_workers_mmap_their_shard_only(self, sharded):
        """Workers hold file-backed buffers, never full-matrix copies."""
        described = sharded.describe_shards()
        assert len(described) == 2
        pids = set()
        for facts in described:
            assert facts["data_type"] == "memmap"
            assert facts["data_filename"].endswith("arrays/data.npy")
            assert f"shard_{facts['shard_id']:03d}" in facts["data_filename"]
            pids.add(facts["pid"])
        assert len(pids) == 2  # genuinely separate processes

    def test_concurrent_assigns_stay_consistent(self, fitted, shard_root):
        """Threaded callers never steal each other's worker replies."""
        import threading

        dataset, _, _ = fitted
        with ShardedClusterService(shard_root) as service:
            reference = [
                service.assign(dataset.data[lo : lo + 50])
                for lo in range(0, 200, 50)
            ]
            base = service.stats()
            results: dict[int, object] = {}

            def work(slot: int, lo: int) -> None:
                results[slot] = service.assign(dataset.data[lo : lo + 50])

            threads = [
                threading.Thread(target=work, args=(slot, lo))
                for slot, lo in enumerate(range(0, 200, 50))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for slot in range(4):
                assert np.array_equal(
                    results[slot].labels, reference[slot].labels
                )
            stats = service.stats()
            assert stats["batches"] == base["batches"] + 4
            assert stats["queries"] == base["queries"] + 200
            assert stats["dead_shards"] == []

    def test_plan_and_stats_surface(self, sharded, shard_root):
        stats = sharded.stats()
        assert stats["source"] == str(shard_root)
        assert stats["n_shards"] == 2
        assert stats["n_clusters"] == sharded.n_clusters
        # Parent-scope item count (matches ClusterService on the same
        # snapshot); the shards themselves hold only cluster members.
        assert stats["n_items"] == 350
        assert 0 < stats["sharded_items"] <= 350
        assert sharded.plan.root == shard_root


class TestShardedCLI:
    @pytest.fixture
    def dataset_file(self, fitted, tmp_path):
        dataset, _, _ = fitted
        return str(save_dataset(dataset, tmp_path / "ds.npz"))

    def test_shard_command(self, snapshot_dir, tmp_path, capsys):
        out_root = tmp_path / "cli_shards"
        code = main(
            [
                "shard",
                "--snapshot", str(snapshot_dir),
                "--out", str(out_root),
                "--shards", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "wrote shard plan" in output
        assert (out_root / "plan.json").is_file()

    def test_assign_workers_matches_single(
        self, snapshot_dir, dataset_file, tmp_path, capsys
    ):
        single_out = tmp_path / "single"
        assert main(
            [
                "assign",
                "--snapshot", str(snapshot_dir),
                "--queries", dataset_file,
                "--out", str(single_out),
            ]
        ) == 0
        sharded_out = tmp_path / "sharded"
        assert main(
            [
                "assign",
                "--snapshot", str(snapshot_dir),
                "--queries", dataset_file,
                "--workers", "2",
                "--out", str(sharded_out),
            ]
        ) == 0
        assert "2 shard worker(s)" in capsys.readouterr().out
        a = np.load(f"{single_out}.npz")
        b = np.load(f"{sharded_out}.npz")
        assert np.array_equal(a["labels"], b["labels"])
        assert np.array_equal(a["scores"], b["scores"])

    def test_assign_accepts_plan_directory(
        self, shard_root, dataset_file, capsys
    ):
        code = main(
            [
                "assign",
                "--snapshot", str(shard_root),
                "--queries", dataset_file,
            ]
        )
        assert code == 0
        assert "shard worker(s)" in capsys.readouterr().out

    def test_shard_missing_snapshot_is_error(self, tmp_path, capsys):
        code = main(
            [
                "shard",
                "--snapshot", str(tmp_path / "nope"),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
