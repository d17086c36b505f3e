"""Tier-1 contracts of the quality arena (``src/repro/arena``).

Covers the three layers of ``docs/arena.md``: the detector registry
(complete over the baselines, one protocol), the subprocess cell
harness (limits enforced, statuses classified, reports deterministic),
the quality metrics (edge cases and determinism), and the telemetry
wiring (snapshot ``quality`` block round-trip, delta invalidation,
serving gauges on both fronts).
"""

import json
import time

import numpy as np
import pytest

import repro.baselines as baselines
from repro.affinity.oracle import AffinityCounters
from repro.arena import (
    CELL_STATUSES,
    DEFAULT_DETECTORS,
    QUALITY_METRICS,
    ArenaReport,
    ArenaRunner,
    CellLimits,
    DetectorSpec,
    annotate_snapshot,
    coverage_scores,
    default_registry,
    resolve_detectors,
    score_clusters,
    silhouette_scores,
    stability_scores,
    tiny_datasets,
)
from repro.baselines.common import Detector
from repro.core.alid import ALID
from repro.core.config import ALIDConfig
from repro.core.results import Cluster, DetectionResult
from repro.exceptions import ValidationError
from repro.obs import phases
from repro.obs.metrics import MetricsRegistry
from repro.serve.client import connect
from repro.serve.service import ClusterService
from repro.serve.snapshot import DetectionSnapshot, SnapshotDelta


# ----------------------------------------------------------------------
# shared fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny():
    return tiny_datasets()[0]


@pytest.fixture(scope="module")
def ok_report(tiny):
    runner = ArenaRunner(limits=CellLimits(wall_seconds=120.0))
    return runner.run([tiny], detectors=("alid", "km"), seeds=(0,))


@pytest.fixture(scope="module")
def fitted(tiny):
    detector = ALID(ALIDConfig(delta=400, seed=0))
    result = detector.fit(tiny.data)
    return detector, result


def _snapshot(fitted):
    detector, result = fitted
    return DetectionSnapshot.from_result(detector, result)


# ----------------------------------------------------------------------
# stub detectors for the limit/status tests (fork start method: these
# need not be picklable, only reachable in the forked child)
# ----------------------------------------------------------------------
class _Sleeper:
    name = "SLEEPER"

    def fit(self, data):
        time.sleep(30.0)


class _Hog:
    name = "HOG"

    def fit(self, data):
        hoard = []
        for _ in range(64):  # ~512 MB against a 64 MB headroom budget
            hoard.append(np.ones((1024, 1024), dtype=np.float64))
        return hoard


class _Liar:
    """Reports 5 oracle entries but records only 3 as seed_round work."""

    name = "LIAR"

    def fit(self, data):
        hook = phases.active()
        if hook is not None:
            hook.record("seed_round", wall=0.0, entries=3)
        n = 5
        cluster = Cluster(
            members=np.arange(n, dtype=np.intp),
            weights=np.ones(n) / n,
            density=0.9,
            label=0,
        )
        return DetectionResult(
            clusters=[cluster],
            all_clusters=[cluster],
            n_items=int(data.shape[0]),
            counters=AffinityCounters(entries_computed=5),
        )


class _Crasher:
    name = "CRASHER"

    def fit(self, data):
        raise ValueError("deliberate cell failure")


def _stub_spec(name, factory):
    return DetectorSpec(name, "baseline", lambda seed, hint: factory())


def _stub_report(name, factory, *, tiny, limits, with_quality=False):
    runner = ArenaRunner(
        registry={name: _stub_spec(name, factory)},
        limits=limits,
        with_quality=with_quality,
    )
    return runner.run([tiny], detectors=(name,), seeds=(0,))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_alid_has_one_row(self):
        registry = default_registry()
        alid_rows = [
            name for name, spec in registry.items() if spec.family == "alid"
        ]
        assert alid_rows == ["alid"]
        assert isinstance(registry["alid"].build(0, 4), ALID)

    def test_every_baseline_is_registered(self):
        registry = default_registry()
        built = {
            type(spec.build(0, 4)).__name__
            for spec in registry.values()
            if spec.family == "baseline"
        }
        assert built == set(baselines.__all__)

    def test_every_spec_satisfies_the_detector_protocol(self):
        for spec in default_registry().values():
            assert isinstance(spec.build(0, 4), Detector), spec.name

    def test_default_matrix_is_alid_plus_baselines(self):
        registry = default_registry()
        assert "alid" in DEFAULT_DETECTORS
        non_alid = [
            name
            for name in DEFAULT_DETECTORS
            if registry[name].family == "baseline"
        ]
        assert len(non_alid) >= 4

    def test_resolve_rejects_unknown_names(self):
        registry = default_registry()
        with pytest.raises(ValidationError, match="nope"):
            resolve_detectors(registry, ["alid", "nope"])
        specs = resolve_detectors(registry, ["km", "alid"])
        assert [s.name for s in specs] == ["km", "alid"]


# ----------------------------------------------------------------------
# quality metrics
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def blobs():
    rng = np.random.default_rng(0)
    a = rng.normal(0.0, 0.5, size=(20, 4))
    b = rng.normal(0.0, 0.5, size=(20, 4)) + 50.0
    data = np.vstack([a, b])
    clusters = [
        np.arange(20, dtype=np.intp),
        np.arange(20, 40, dtype=np.intp),
    ]
    return data, clusters


class TestQualityMetrics:
    def test_separated_blobs_score_well(self, blobs):
        data, clusters = blobs
        scores = score_clusters(data, clusters, seed=0)
        assert set(scores) == {0, 1}
        for label in (0, 1):
            assert scores[label]["silhouette"] > 0.8
            assert scores[label]["conductance"] < 0.2
            assert scores[label]["coverage"] == pytest.approx(0.5)

    def test_overlapping_clusters_stay_finite(self, blobs):
        data, _ = blobs
        overlapping = [
            np.arange(25, dtype=np.intp),  # reaches into the other blob
            np.arange(15, 40, dtype=np.intp),
        ]
        scores = score_clusters(data, overlapping, seed=0)
        for per_cluster in scores.values():
            for value in per_cluster.values():
                assert np.isfinite(value)
        # Impure clusters must score strictly worse than the pure split.
        pure = score_clusters(data, blobs[1], seed=0)
        assert (
            scores[0]["silhouette"] < pure[0]["silhouette"]
        )

    def test_singleton_and_single_cluster_conventions(self, blobs):
        data, _ = blobs
        mixed = [np.asarray([0], dtype=np.intp), np.arange(1, 20, dtype=np.intp)]
        assert silhouette_scores(data, mixed)[0] == 0.0
        only = [np.arange(20, dtype=np.intp)]
        assert silhouette_scores(data, only)[0] == 0.0

    def test_all_noise_detection_scores_empty(self, blobs):
        data, _ = blobs
        assert score_clusters(data, [], seed=0) == {}

    def test_coverage_validates_n_items(self, blobs):
        _, clusters = blobs
        with pytest.raises(ValidationError):
            coverage_scores(clusters, 0)

    def test_stability_identity_and_vanishing_refits(self, blobs):
        _, clusters = blobs
        identical = stability_scores(
            clusters, lambda seed: [c.copy() for c in clusters]
        )
        assert identical == {0: pytest.approx(1.0), 1: pytest.approx(1.0)}
        vanished = stability_scores(clusters, lambda seed: [])
        assert vanished == {0: 0.0, 1: 0.0}
        with pytest.raises(ValidationError):
            stability_scores(clusters, lambda seed: [], n_refits=0)
        with pytest.raises(ValidationError):
            stability_scores(
                [np.asarray([], dtype=np.intp)], lambda seed: []
            )

    def test_scores_are_deterministic(self, blobs):
        data, clusters = blobs
        first = score_clusters(data, clusters, seed=3)
        second = score_clusters(data, clusters, seed=3)
        assert first == second

    def test_stability_is_opt_in(self, blobs):
        data, clusters = blobs
        without = score_clusters(data, clusters, seed=0)
        assert "stability" not in without[0]
        with_refit = score_clusters(
            data, clusters, seed=0, refit=lambda s: list(clusters)
        )
        assert with_refit[0]["stability"] == pytest.approx(1.0)
        assert tuple(with_refit[0]) == QUALITY_METRICS


# ----------------------------------------------------------------------
# the cell harness
# ----------------------------------------------------------------------
class TestRunner:
    def test_ok_cells_carry_the_full_record(self, ok_report, tiny):
        assert [c.status for c in ok_report.cells] == ["OK", "OK"]
        by_name = {c.detector: c for c in ok_report.cells}
        alid, km = by_name["alid"], by_name["km"]
        assert alid.entries_computed > 0  # the oracle counts ALID
        assert km.entries_computed is None  # k-means never touches it
        for cell in (alid, km):
            assert cell.dataset == tiny.name
            assert cell.avg_f1 is not None  # tiny datasets carry truth
            assert cell.wall_seconds > 0
            assert cell.peak_rss_mb > 0
            assert set(cell.quality) == {
                "silhouette",
                "conductance",
                "coverage",
            }  # stability is annotation-time only

    def test_fingerprint_is_deterministic_and_matrix_bound(
        self, ok_report, tiny
    ):
        runner = ArenaRunner(limits=CellLimits(wall_seconds=120.0))
        first = runner.run([tiny], detectors=("km",), seeds=(0,))
        second = runner.run([tiny], detectors=("km",), seeds=(0,))
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() != ok_report.fingerprint()

    def test_timeout_cell_is_reported_not_raised(self, tiny):
        report = _stub_report(
            "sleeper",
            _Sleeper,
            tiny=tiny,
            limits=CellLimits(wall_seconds=0.5),
        )
        (cell,) = report.cells
        assert cell.status == "TIMEOUT"
        assert "wall budget" in cell.error

    def test_rss_limited_cell_is_reported_as_oom(self, tiny):
        report = _stub_report(
            "hog",
            _Hog,
            tiny=tiny,
            limits=CellLimits(wall_seconds=120.0, rss_mb=64.0),
        )
        (cell,) = report.cells
        assert cell.status == "OOM"

    def test_accounting_mismatch_fails_the_cell(self, tiny):
        report = _stub_report(
            "liar",
            _Liar,
            tiny=tiny,
            limits=CellLimits(wall_seconds=120.0),
        )
        (cell,) = report.cells
        assert cell.status == "ACCOUNTING_MISMATCH"
        assert "seed_round" in cell.error

    def test_crashing_cell_is_reported_as_error(self, tiny):
        report = _stub_report(
            "crasher",
            _Crasher,
            tiny=tiny,
            limits=CellLimits(wall_seconds=120.0),
        )
        (cell,) = report.cells
        assert cell.status == "ERROR"
        assert "deliberate cell failure" in cell.error

    def test_every_status_is_declared(self, tiny):
        assert set(CELL_STATUSES) == {
            "OK",
            "TIMEOUT",
            "OOM",
            "ERROR",
            "ACCOUNTING_MISMATCH",
        }

    def test_report_round_trips_through_json(self, ok_report, tmp_path):
        path = tmp_path / "report.json"
        ok_report.save(path)
        loaded = ArenaReport.load(path)
        assert loaded.fingerprint() == ok_report.fingerprint()
        assert loaded.meta == ok_report.meta

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"format": "nope", "cells": []}))
        with pytest.raises(ValidationError, match="not an arena report"):
            ArenaReport.load(path)

    def test_leaderboard_ranks_by_avg_f1(self, ok_report):
        board = ok_report.leaderboard(title="test board")
        lines = board.splitlines()
        assert "q_silhouette" in lines[1]
        assert "stability" not in lines[1]  # carried metrics only
        data_rows = lines[3:]
        assert data_rows[0].startswith("alid")
        assert any(row.startswith("km") for row in data_rows)

    def test_limits_and_matrix_are_validated(self, tiny):
        with pytest.raises(ValidationError):
            CellLimits(wall_seconds=0.0)
        with pytest.raises(ValidationError):
            CellLimits(rss_mb=-1.0)
        runner = ArenaRunner()
        with pytest.raises(ValidationError):
            runner.run([], detectors=("km",))
        with pytest.raises(ValidationError):
            runner.run([tiny], detectors=("km",), seeds=())
        with pytest.raises(ValidationError, match="unknown detector"):
            runner.run([tiny], detectors=("km", "nope"))
        with pytest.raises(ValidationError, match="unique"):
            runner.run([tiny, tiny], detectors=("km",))


# ----------------------------------------------------------------------
# snapshot quality block
# ----------------------------------------------------------------------
class TestSnapshotQuality:
    def test_annotated_snapshot_round_trips(self, fitted, tmp_path):
        snapshot = annotate_snapshot(_snapshot(fitted), seed=0)
        assert snapshot.quality  # every cluster scored
        for scores in snapshot.quality.values():
            assert set(scores) == {"silhouette", "conductance", "coverage"}
        path = snapshot.save(tmp_path / "snap")
        reloaded = DetectionSnapshot.load(path)
        assert set(reloaded.quality) == set(snapshot.quality)
        for label, scores in snapshot.quality.items():
            assert reloaded.quality[label] == pytest.approx(scores)

    def test_stability_refits_add_the_fourth_metric(self, fitted):
        snapshot = annotate_snapshot(
            _snapshot(fitted), seed=0, stability_refits=1
        )
        for scores in snapshot.quality.values():
            assert set(scores) == set(QUALITY_METRICS)
            assert 0.0 <= scores["stability"] <= 1.0

    def test_unannotated_manifest_has_no_quality_key(self, fitted, tmp_path):
        path = _snapshot(fitted).save(tmp_path / "plain")
        manifest = json.loads((path / "manifest.json").read_text())
        assert "quality" not in manifest
        assert DetectionSnapshot.load(path).quality is None

    def test_schema_v1_artifacts_still_load(self, fitted, tmp_path):
        path = annotate_snapshot(_snapshot(fitted), seed=0).save(
            tmp_path / "v1"
        )
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.pop("quality")
        manifest["schema_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        reloaded = DetectionSnapshot.load(path)
        assert reloaded.quality is None

    def test_annotation_never_changes_assignments(self, fitted, tmp_path):
        plain_path = _snapshot(fitted).save(tmp_path / "plain")
        annotated_path = annotate_snapshot(_snapshot(fitted), seed=0).save(
            tmp_path / "annotated"
        )
        queries = np.asarray(_snapshot(fitted).data)[:64]
        plain = ClusterService(plain_path)
        annotated = ClusterService(annotated_path)
        try:
            a = plain.assign(queries)
            b = annotated.assign(queries)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.scores, b.scores)
            assert a.entries_computed == b.entries_computed
        finally:
            plain.close()
            annotated.close()

    def test_delta_invalidates_touched_clusters(self, fitted, tmp_path):
        snapshot = annotate_snapshot(_snapshot(fitted), seed=0)
        snapshot.save(tmp_path / "base")
        labels = sorted(snapshot.quality)
        assert len(labels) >= 2
        victim, survivor = labels[0], labels[1]
        replacement = Cluster(
            members=np.arange(4, dtype=np.intp),
            weights=np.ones(4) / 4.0,
            density=0.9,
            label=victim,
        )
        n_tables = snapshot.index_arrays["item_keys"].shape[0]
        delta = SnapshotDelta(
            parent_sha256=snapshot.manifest_sha256,
            parent_n_items=snapshot.n_items,
            sequence=0,
            appended_data=np.zeros((0, snapshot.dim)),
            appended_item_keys=np.zeros((n_tables, 0), dtype=np.uint64),
            removed_labels=np.asarray([victim]),
            clusters=[replacement],
        )
        delta.manifest_sha256 = "0" * 64
        updated = delta.apply(snapshot)
        # The replaced cluster's stale scores are gone; untouched
        # clusters keep theirs; the upsert re-enters unannotated.
        assert victim not in updated.quality
        assert updated.quality[survivor] == snapshot.quality[survivor]


# ----------------------------------------------------------------------
# serving gauges
# ----------------------------------------------------------------------
class TestServingGauges:
    def _quality_lines(self, page):
        return [
            line
            for line in page.splitlines()
            if line.startswith("serve_cluster_quality{")
        ]

    def test_single_service_exports_and_resets_gauges(
        self, fitted, tmp_path
    ):
        plain_path = _snapshot(fitted).save(tmp_path / "plain")
        snapshot = annotate_snapshot(_snapshot(fitted), seed=0)
        annotated_path = snapshot.save(tmp_path / "annotated")
        registry = MetricsRegistry()
        service = ClusterService(annotated_path, registry=registry)
        try:
            n = len(snapshot.quality)
            assert service.stats()["quality_clusters"] == n
            lines = self._quality_lines(registry.render_text())
            assert len(lines) == 3 * n  # three metrics per cluster
            assert all(float(line.rsplit(" ", 1)[1]) != 0 for line in lines)
            service.reload(plain_path)
            assert service.stats()["quality_clusters"] == 0
            lines = self._quality_lines(registry.render_text())
            assert all(float(line.rsplit(" ", 1)[1]) == 0 for line in lines)
        finally:
            service.close()

    def test_sharded_pool_reexports_the_union(self, fitted, tmp_path):
        snapshot = annotate_snapshot(_snapshot(fitted), seed=0)
        path = snapshot.save(tmp_path / "annotated")
        registry = MetricsRegistry()
        with connect(path, workers=2, registry=registry) as handle:
            assert (
                handle.stats()["quality_clusters"] == len(snapshot.quality)
            )
            lines = self._quality_lines(registry.render_text())
            assert len(lines) == 3 * len(snapshot.quality)
