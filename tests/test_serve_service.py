"""Tests for ClusterService (hot reload, stats) and the serve CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.alid import ALID
from repro.core.config import ALIDConfig
from repro.datasets.synthetic import make_synthetic_mixture
from repro.exceptions import SnapshotError, ValidationError
from repro.io import save_dataset
from repro.serve import ClusterService, DetectionSnapshot
from repro.serve.snapshot import MANIFEST_NAME


@pytest.fixture(scope="module")
def fitted():
    dataset = make_synthetic_mixture(
        n=350, regime="bounded", bound=200, n_clusters=5, dim=16, seed=2
    )
    detector = ALID(ALIDConfig(delta=200, seed=2))
    result = detector.fit(dataset.data)
    assert result.n_clusters > 0
    return dataset, detector, result


@pytest.fixture
def snapshot_dir(fitted, tmp_path):
    _, detector, result = fitted
    return DetectionSnapshot.from_result(detector, result).save(
        tmp_path / "snap"
    )


class TestClusterService:
    def test_serves_from_path_and_memory(self, fitted, snapshot_dir):
        dataset, detector, result = fitted
        from_path = ClusterService(snapshot_dir)
        from_memory = ClusterService(
            DetectionSnapshot.from_result(detector, result)
        )
        a = from_path.assign(dataset.data[:20])
        b = from_memory.assign(dataset.data[:20])
        assert np.array_equal(a.labels, b.labels)

    def test_mmap_service_matches_eager(self, fitted, snapshot_dir):
        dataset, _, _ = fitted
        eager = ClusterService(snapshot_dir).assign(dataset.data[:30])
        mapped = ClusterService(snapshot_dir, mmap=True).assign(
            dataset.data[:30]
        )
        assert np.array_equal(eager.labels, mapped.labels)
        assert np.array_equal(eager.scores, mapped.scores)

    def test_stats_accumulate(self, fitted, snapshot_dir):
        dataset, _, result = fitted
        service = ClusterService(snapshot_dir)
        service.assign(dataset.data[:10])
        service.assign(dataset.data[10:25])
        stats = service.stats()
        assert stats["batches"] == 2
        assert stats["queries"] == 25
        assert stats["n_clusters"] == result.n_clusters
        assert stats["entries_computed"] > 0
        assert 0.0 <= stats["coverage"] <= 1.0
        assert stats["reloads"] == 0

    def test_hot_reload_swaps_snapshot(self, fitted, snapshot_dir, tmp_path):
        dataset, detector, result = fitted
        service = ClusterService(snapshot_dir)
        before = service.assign(dataset.data[:15])
        other_dir = DetectionSnapshot.from_result(detector, result).save(
            tmp_path / "snap2"
        )
        service.reload(other_dir)
        after = service.assign(dataset.data[:15])
        assert np.array_equal(before.labels, after.labels)
        stats = service.stats()
        assert stats["reloads"] == 1
        assert stats["source"] == str(other_dir)
        # Work accounting spans the reload.
        assert stats["batches"] == 2

    def test_failed_reload_keeps_serving(self, fitted, snapshot_dir, tmp_path):
        dataset, _, _ = fitted
        service = ClusterService(snapshot_dir)
        baseline = service.assign(dataset.data[:15])
        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        (corrupt / MANIFEST_NAME).write_text("{broken")
        with pytest.raises(SnapshotError):
            service.reload(corrupt)
        stats = service.stats()
        assert stats["reloads"] == 0
        assert stats["source"] == str(snapshot_dir)
        again = service.assign(dataset.data[:15])
        assert np.array_equal(baseline.labels, again.labels)

    def test_snapshot_property(self, snapshot_dir):
        service = ClusterService(snapshot_dir)
        assert service.snapshot.n_items == 350
        assert service.n_clusters == len(service.snapshot.clusters)

    def test_stats_scopes_across_reload(self, fitted, snapshot_dir, tmp_path):
        """Lifetime counters span reloads; per-snapshot counters reset.

        This pins the stats contract: the top-level counters are
        lifetime totals, the nested "snapshot" block restarts at zero on
        every successful reload and both scopes agree before the first
        reload.
        """
        dataset, detector, result = fitted
        service = ClusterService(snapshot_dir)
        first = service.assign(dataset.data[:10])
        second = service.assign(dataset.data[10:30])
        before = service.stats()
        # Before any reload the two scopes are the same numbers.
        assert before["snapshot"]["batches"] == before["batches"] == 2
        assert before["snapshot"]["queries"] == before["queries"] == 30
        assert (
            before["snapshot"]["entries_computed"]
            == before["entries_computed"]
            == first.entries_computed + second.entries_computed
        )
        other = DetectionSnapshot.from_result(detector, result).save(
            tmp_path / "snap_b"
        )
        service.reload(other)
        after = service.stats()
        # Lifetime survives the swap untouched ...
        assert after["batches"] == 2
        assert after["queries"] == 30
        assert after["entries_computed"] == before["entries_computed"]
        # ... while the per-snapshot scope starts from zero.
        assert after["snapshot"]["batches"] == 0
        assert after["snapshot"]["queries"] == 0
        assert after["snapshot"]["entries_computed"] == 0
        assert after["snapshot"]["coverage"] == 0.0
        third = service.assign(dataset.data[:15])
        final = service.stats()
        assert final["batches"] == 3
        assert final["snapshot"]["batches"] == 1
        assert final["snapshot"]["queries"] == 15
        assert (
            final["snapshot"]["entries_computed"] == third.entries_computed
        )
        assert (
            final["entries_computed"]
            == before["entries_computed"] + third.entries_computed
        )

    def test_failed_reload_keeps_snapshot_counters(
        self, fitted, snapshot_dir, tmp_path
    ):
        dataset, _, _ = fitted
        service = ClusterService(snapshot_dir)
        service.assign(dataset.data[:10])
        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        (corrupt / MANIFEST_NAME).write_text("{broken")
        with pytest.raises(SnapshotError):
            service.reload(corrupt)
        stats = service.stats()
        # The old snapshot kept serving, so its counters survive too.
        assert stats["snapshot"]["batches"] == 1
        assert stats["snapshot"]["queries"] == 10

    def test_close_during_reload_stays_closed(
        self, fitted, snapshot_dir, monkeypatch
    ):
        """A close() that lands while a reload prepares its snapshot wins."""
        import repro.serve.service as service_module

        dataset, _, _ = fitted
        service = ClusterService(snapshot_dir)
        build = service_module.ClusterAssigner

        def close_while_building(snapshot):
            service.close()
            return build(snapshot)

        monkeypatch.setattr(
            service_module, "ClusterAssigner", close_while_building
        )
        with pytest.raises(ValidationError, match="closed"):
            service.reload(snapshot_dir)
        with pytest.raises(ValidationError, match="closed"):
            service.assign(dataset.data[:5])
        stats = service.stats()
        assert stats["reloads"] == 0
        assert stats["n_clusters"] == 0


class TestServeCLI:
    @pytest.fixture
    def dataset_file(self, fitted, tmp_path):
        dataset, _, _ = fitted
        return str(save_dataset(dataset, tmp_path / "ds.npz"))

    def test_snapshot_command(self, dataset_file, tmp_path, capsys):
        out_dir = tmp_path / "cli_snap"
        code = main(
            [
                "snapshot",
                "--input", dataset_file,
                "--out", str(out_dir),
                "--delta", "200",
                "--seed", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "wrote snapshot" in output
        assert (out_dir / MANIFEST_NAME).is_file()

    def test_assign_command(self, dataset_file, tmp_path, capsys):
        out_dir = tmp_path / "cli_snap"
        assert main(
            [
                "snapshot",
                "--input", dataset_file,
                "--out", str(out_dir),
                "--delta", "200",
                "--seed", "2",
            ]
        ) == 0
        result_path = tmp_path / "assigned"
        code = main(
            [
                "assign",
                "--snapshot", str(out_dir),
                "--queries", dataset_file,
                "--mmap",
                "--out", str(result_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "queries/s" in output
        saved = np.load(f"{result_path}.npz")
        assert saved["labels"].shape == (350,)
        assert saved["scores"].shape == (350,)
        manifest = json.loads((out_dir / MANIFEST_NAME).read_text())
        assert manifest["counts"]["n_items"] == 350

    def test_assign_missing_snapshot_is_error(self, dataset_file, tmp_path, capsys):
        code = main(
            [
                "assign",
                "--snapshot", str(tmp_path / "nope"),
                "--queries", dataset_file,
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
