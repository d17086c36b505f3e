"""Tests for the on-disk detection snapshot (repro.serve.snapshot).

Pins the three load-bearing guarantees: lossless round-trips (including
the acceptance criterion of bit-identical assignments and mmap == eager
loads), all-or-nothing integrity validation, and schema versioning.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.core.alid import ALID
from repro.core.config import ALIDConfig
from repro.datasets.synthetic import make_synthetic_mixture
from repro.exceptions import SnapshotError, ValidationError
from repro.serve.assigner import ClusterAssigner
from repro.serve.snapshot import (
    MANIFEST_NAME,
    SCHEMA_VERSION,
    DetectionSnapshot,
)


@pytest.fixture(scope="module")
def fitted():
    """One fitted detector + result shared by the whole module."""
    dataset = make_synthetic_mixture(
        n=400, regime="bounded", bound=200, n_clusters=5, dim=16, seed=11
    )
    detector = ALID(ALIDConfig(delta=200, seed=11))
    result = detector.fit(dataset.data)
    assert result.n_clusters > 0
    return dataset, detector, result


@pytest.fixture
def snapshot_dir(fitted, tmp_path):
    _, detector, result = fitted
    snapshot = DetectionSnapshot.from_result(detector, result)
    return snapshot.save(tmp_path / "snap")


@pytest.fixture
def query_block(fitted):
    dataset, _, _ = fitted
    rng = np.random.default_rng(99)
    return np.vstack(
        [
            dataset.data[:40] + rng.normal(scale=0.01, size=(40, 16)),
            rng.uniform(-60, 60, size=(15, 16)),
        ]
    )


class TestRoundTrip:
    def test_arrays_are_bit_identical(self, fitted, snapshot_dir):
        _, detector, result = fitted
        original = DetectionSnapshot.from_result(detector, result)
        loaded = DetectionSnapshot.load(snapshot_dir)
        assert np.array_equal(loaded.data, original.data)
        for name, want in original.index_arrays.items():
            assert np.array_equal(loaded.index_arrays[name], want), name
        assert loaded.config == original.config
        assert loaded.kernel.k == original.kernel.k
        assert loaded.kernel.p == original.kernel.p
        assert loaded.lsh_r == original.lsh_r
        assert len(loaded.clusters) == len(original.clusters)
        for got, want in zip(loaded.clusters, original.clusters):
            assert np.array_equal(got.members, want.members)
            assert np.array_equal(got.weights, want.weights)
            assert got.density == want.density
            assert got.label == want.label
            assert got.seed == want.seed

    def test_assignments_are_bit_identical(
        self, fitted, snapshot_dir, query_block
    ):
        _, detector, result = fitted
        original = DetectionSnapshot.from_result(detector, result)
        live = ClusterAssigner(original).assign(query_block)
        reloaded = ClusterAssigner(
            DetectionSnapshot.load(snapshot_dir)
        ).assign(query_block)
        assert np.array_equal(live.labels, reloaded.labels)
        assert np.array_equal(live.scores, reloaded.scores)
        assert np.array_equal(live.n_candidates, reloaded.n_candidates)
        assert live.entries_computed == reloaded.entries_computed

    def test_mmap_load_equals_eager_load(self, snapshot_dir, query_block):
        eager = ClusterAssigner(
            DetectionSnapshot.load(snapshot_dir)
        ).assign(query_block)
        mapped_snapshot = DetectionSnapshot.load(snapshot_dir, mmap=True)
        assert isinstance(mapped_snapshot.data, np.memmap)
        mapped = ClusterAssigner(mapped_snapshot).assign(query_block)
        assert np.array_equal(eager.labels, mapped.labels)
        assert np.array_equal(eager.scores, mapped.scores)
        assert eager.entries_computed == mapped.entries_computed

    def test_meta_survives(self, fitted, snapshot_dir):
        _, _, result = fitted
        loaded = DetectionSnapshot.load(snapshot_dir)
        assert loaded.meta["method"] == "ALID"
        assert loaded.meta["n_items"] == result.n_items

    def test_save_into_same_directory_overwrites(
        self, fitted, snapshot_dir, query_block
    ):
        _, detector, result = fitted
        DetectionSnapshot.from_result(detector, result).save(snapshot_dir)
        loaded = DetectionSnapshot.load(snapshot_dir)
        assert loaded.n_clusters == result.n_clusters

    def test_numpy_scalar_config_round_trips(self, fitted, tmp_path):
        """np.int32/float32 config values must save as JSON numbers."""
        dataset, _, _ = fitted
        detector = ALID(
            ALIDConfig(delta=np.int32(200), tol=np.float64(1e-7), seed=11)
        )
        result = detector.fit(dataset.data)
        path = DetectionSnapshot.from_result(detector, result).save(
            tmp_path / "np_cfg"
        )
        loaded = DetectionSnapshot.load(path)
        assert loaded.config.delta == 200
        assert isinstance(loaded.config.delta, int)

    def test_unserialisable_meta_fails_at_save(self, fitted, tmp_path):
        _, detector, result = fitted
        snapshot = DetectionSnapshot.from_result(detector, result)
        snapshot.meta["broken"] = object()
        with pytest.raises(SnapshotError, match="persisted"):
            snapshot.save(tmp_path / "broken")
        # A readable manifest was never produced.
        with pytest.raises(SnapshotError, match="no manifest"):
            DetectionSnapshot.load(tmp_path / "broken")

    def test_unfitted_detector_raises(self):
        detector = ALID(ALIDConfig())
        with pytest.raises(SnapshotError):
            DetectionSnapshot.from_result(
                detector,
                type("R", (), {"method": "ALID", "n_items": 0})(),
            )


class TestIntegrityFailures:
    """Corruption must raise SnapshotError, never return state."""

    def _manifest(self, snapshot_dir) -> dict:
        return json.loads((snapshot_dir / MANIFEST_NAME).read_text())

    def _write_manifest(self, snapshot_dir, manifest) -> None:
        (snapshot_dir / MANIFEST_NAME).write_text(json.dumps(manifest))

    def test_missing_manifest(self, snapshot_dir):
        (snapshot_dir / MANIFEST_NAME).unlink()
        with pytest.raises(SnapshotError, match="no manifest"):
            DetectionSnapshot.load(snapshot_dir)

    def test_malformed_manifest_json(self, snapshot_dir):
        (snapshot_dir / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SnapshotError, match="JSON"):
            DetectionSnapshot.load(snapshot_dir)

    def test_wrong_format_marker(self, snapshot_dir):
        manifest = self._manifest(snapshot_dir)
        manifest["format"] = "something-else"
        self._write_manifest(snapshot_dir, manifest)
        with pytest.raises(SnapshotError, match="format"):
            DetectionSnapshot.load(snapshot_dir)

    def test_future_schema_version(self, snapshot_dir):
        manifest = self._manifest(snapshot_dir)
        manifest["schema_version"] = SCHEMA_VERSION + 1
        self._write_manifest(snapshot_dir, manifest)
        with pytest.raises(SnapshotError, match="newer"):
            DetectionSnapshot.load(snapshot_dir)

    def test_invalid_schema_version(self, snapshot_dir):
        manifest = self._manifest(snapshot_dir)
        manifest["schema_version"] = "two"
        self._write_manifest(snapshot_dir, manifest)
        with pytest.raises(SnapshotError, match="schema_version"):
            DetectionSnapshot.load(snapshot_dir)

    def test_truncated_array_file(self, snapshot_dir):
        target = snapshot_dir / "arrays" / "data.npy"
        payload = target.read_bytes()
        target.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(SnapshotError, match="truncated"):
            DetectionSnapshot.load(snapshot_dir)

    def test_checksum_mismatch(self, snapshot_dir):
        target = snapshot_dir / "arrays" / "cluster_weights.npy"
        payload = bytearray(target.read_bytes())
        payload[-1] ^= 0xFF  # flip bits, keep the size
        target.write_bytes(bytes(payload))
        with pytest.raises(SnapshotError, match="checksum"):
            DetectionSnapshot.load(snapshot_dir)

    def test_missing_array_file(self, snapshot_dir):
        (snapshot_dir / "arrays" / "mixers.npy").unlink()
        with pytest.raises(SnapshotError, match="missing"):
            DetectionSnapshot.load(snapshot_dir)

    def test_missing_array_entry(self, snapshot_dir):
        manifest = self._manifest(snapshot_dir)
        del manifest["arrays"]["item_keys"]
        self._write_manifest(snapshot_dir, manifest)
        with pytest.raises(SnapshotError, match="no array entry"):
            DetectionSnapshot.load(snapshot_dir)

    def test_invalid_config_section(self, snapshot_dir):
        manifest = self._manifest(snapshot_dir)
        manifest["config"]["delta"] = -5
        self._write_manifest(snapshot_dir, manifest)
        with pytest.raises(SnapshotError, match="config"):
            DetectionSnapshot.load(snapshot_dir)

    def test_inconsistent_cluster_arrays(self, fitted, snapshot_dir):
        # Rewrite one cluster array consistently with the checksums but
        # inconsistently with the offsets: unpack must refuse.
        target = snapshot_dir / "arrays" / "cluster_densities.npy"
        np.save(target, np.zeros(1))
        manifest = self._manifest(snapshot_dir)
        entry = manifest["arrays"]["cluster_densities"]
        import hashlib

        entry["sha256"] = hashlib.sha256(target.read_bytes()).hexdigest()
        entry["bytes"] = target.stat().st_size
        self._write_manifest(snapshot_dir, manifest)
        with pytest.raises(SnapshotError, match="inconsistent"):
            DetectionSnapshot.load(snapshot_dir)

    def test_errors_are_validation_family(self):
        assert issubclass(SnapshotError, ValidationError)

    def test_nonexistent_directory(self, tmp_path):
        with pytest.raises(SnapshotError):
            DetectionSnapshot.load(tmp_path / "nope")


class TestLegacyManifest:
    """Manifests whose config dict still carries the retired fields."""

    def _rewrite_config(self, snapshot_dir, **fields) -> None:
        path = snapshot_dir / MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["config"].update(fields)
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize("lid_kernel", ["reference", "fused", "numba"])
    def test_loads_and_answers_like_a_fresh_snapshot(
        self, snapshot_dir, query_block, lid_kernel
    ):
        fresh = DetectionSnapshot.load(snapshot_dir)
        self._rewrite_config(
            snapshot_dir,
            peel_driver="batched",
            seed_block_size=256,
            lid_kernel=lid_kernel,
        )
        legacy = DetectionSnapshot.load(snapshot_dir)
        assert legacy.config == fresh.config
        want = ClusterAssigner(fresh).assign(query_block)
        got = ClusterAssigner(legacy).assign(query_block)
        assert np.array_equal(got.labels, want.labels)
        assert np.array_equal(got.scores, want.scores)
        assert got.entries_computed == want.entries_computed

    def test_other_unknown_field_is_typed_error(self, snapshot_dir):
        self._rewrite_config(snapshot_dir, peel_driver="batched", warp=1)
        with pytest.raises(SnapshotError, match="config"):
            DetectionSnapshot.load(snapshot_dir)


class TestSnapshotShape:
    def test_manifest_records_every_array(self, snapshot_dir):
        manifest = json.loads((snapshot_dir / MANIFEST_NAME).read_text())
        for name, entry in manifest["arrays"].items():
            file_path = snapshot_dir / entry["file"]
            assert file_path.is_file(), name
            assert entry["bytes"] == file_path.stat().st_size
            assert len(entry["sha256"]) == 64
        assert manifest["schema_version"] == SCHEMA_VERSION

    def test_counts_section(self, fitted, snapshot_dir):
        dataset, _, result = fitted
        manifest = json.loads((snapshot_dir / MANIFEST_NAME).read_text())
        assert manifest["counts"] == {
            "n_items": dataset.n,
            "dim": dataset.dim,
            "n_clusters": result.n_clusters,
        }

    def test_paths_accept_pathlib_and_str(self, snapshot_dir):
        a = DetectionSnapshot.load(str(snapshot_dir))
        b = DetectionSnapshot.load(pathlib.Path(snapshot_dir))
        assert a.n_items == b.n_items


def _mmap_residency_probe(snapshot_path: str, queue) -> None:
    """Child-process probe: load mmap, report the buffer's backing facts."""
    snap = DetectionSnapshot.load(snapshot_path, mmap=True)
    data = snap.data
    queue.put(
        {
            "data_type": type(data).__name__,
            "filename": str(getattr(data, "filename", "")),
            "writeable": bool(data.flags.writeable)
            if hasattr(data, "flags")
            else None,
            "first_row": np.asarray(data[0]).tolist(),
        }
    )


class TestCrossProcessMmapSharing:
    """mmap loads must share one file-backed buffer, never copy.

    Two processes that mmap-load the same snapshot both get
    ``numpy.memmap`` views of the *same* ``arrays/data.npy`` inode —
    the OS page cache holds the matrix once, which is the whole point
    of serving multi-GB artifacts (and of sharded workers) without
    duplicating data per process.
    """

    def test_two_processes_map_the_same_npy_file(self, snapshot_dir):
        import multiprocessing

        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        processes = [
            ctx.Process(
                target=_mmap_residency_probe,
                args=(str(snapshot_dir), queue),
            )
            for _ in range(2)
        ]
        for process in processes:
            process.start()
        reports = [queue.get(timeout=60) for _ in processes]
        for process in processes:
            process.join(30)
        expected_file = str(
            (snapshot_dir / "arrays" / "data.npy").resolve()
        )
        eager = DetectionSnapshot.load(snapshot_dir)
        for report in reports:
            # File-backed buffer, not an in-memory copy ...
            assert report["data_type"] == "memmap"
            # ... of exactly the snapshot's .npy payload, read-only.
            assert report["filename"] == expected_file
            assert report["writeable"] is False
            # And the mapped bytes are the snapshot's bytes.
            assert np.allclose(report["first_row"], eager.data[0])

    def test_parent_mmap_load_is_file_backed_too(self, snapshot_dir):
        snap = DetectionSnapshot.load(snapshot_dir, mmap=True)
        assert isinstance(snap.data, np.memmap)
        assert str(snap.data.filename) == str(
            (snapshot_dir / "arrays" / "data.npy").resolve()
        )
