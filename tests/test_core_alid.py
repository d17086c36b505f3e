"""Unit and behaviour tests for the ALID detector (paper Alg. 2 + §4.4)."""

import numpy as np
import pytest

from repro.core.alid import ALID, ALIDEngine, SeedSchedule
from repro.core.config import ALIDConfig
from repro.eval.metrics import average_f1
from repro.exceptions import ValidationError


@pytest.fixture
def blob_config():
    return ALIDConfig(
        delta=50,
        lsh_projections=16,
        lsh_tables=20,
        density_threshold=0.5,
        seed=0,
    )


class TestALIDEngine:
    def test_detects_cluster_from_seed(self, blob_data, blob_config):
        data, labels = blob_data
        engine = ALIDEngine(data, blob_config)
        cluster0 = np.flatnonzero(labels == 0)
        detection = engine.detect_from_seed(int(cluster0[0]))
        found = set(detection.members)
        assert found == set(cluster0)
        assert detection.density > 0.5

    def test_weights_on_simplex(self, blob_data, blob_config):
        data, labels = blob_data
        engine = ALIDEngine(data, blob_config)
        detection = engine.detect_from_seed(0)
        assert detection.weights.sum() == pytest.approx(1.0, abs=1e-8)
        assert detection.weights.min() > 0

    def test_noise_seed_detects_small_or_nothing(self, blob_data, blob_config):
        data, labels = blob_data
        engine = ALIDEngine(data, blob_config)
        noise = np.flatnonzero(labels == -1)
        detection = engine.detect_from_seed(int(noise[0]))
        # Noise is scattered: at most a couple of points, low density.
        assert detection.members.size <= 5
        assert detection.density < 0.5

    def test_verify_global_confirms_theorem1(self, blob_data):
        data, labels = blob_data
        config = ALIDConfig(
            delta=50,
            lsh_projections=16,
            lsh_tables=20,
            verify_global=True,
            seed=0,
        )
        engine = ALIDEngine(data, config)
        cluster0 = np.flatnonzero(labels == 0)
        detection = engine.detect_from_seed(int(cluster0[0]))
        assert detection.globally_verified
        # Exact check: no active vertex outside the support is infective.
        support = detection.members
        x = detection.weights
        affinity = engine.kernel.block(data, data[support])
        pay = affinity @ x - detection.density
        outside = np.setdiff1d(np.arange(data.shape[0]), support)
        assert pay[outside].max() <= 1e-6

    def test_respects_peeled_items(self, blob_data, blob_config):
        data, labels = blob_data
        engine = ALIDEngine(data, blob_config)
        cluster0 = np.flatnonzero(labels == 0)
        engine.index.deactivate(cluster0[5:])
        detection = engine.detect_from_seed(int(cluster0[0]))
        assert not (set(cluster0[5:]) & set(detection.members))

    def test_auto_kernel_and_lsh(self, blob_data):
        data, _ = blob_data
        engine = ALIDEngine(data, ALIDConfig(seed=0))
        assert engine.kernel.k > 0
        assert engine.lsh_r > 0

    def test_explicit_kernel_respected(self, blob_data):
        data, _ = blob_data
        engine = ALIDEngine(data, ALIDConfig(kernel_k=0.37, lsh_r=4.2))
        assert engine.kernel.k == 0.37
        assert engine.lsh_r == 4.2

    def test_initial_radius_fixed_value(self, blob_data):
        data, _ = blob_data
        engine = ALIDEngine(data, ALIDConfig(initial_radius=0.4))
        assert engine._initial_radius(0) == 0.4

    def test_initial_radius_auto_positive(self, blob_data):
        data, _ = blob_data
        engine = ALIDEngine(data, ALIDConfig(initial_radius="auto"))
        assert engine._initial_radius(0) > 0


class TestSeedSchedule:
    def test_visits_all_items(self, blob_data, blob_config):
        data, _ = blob_data
        engine = ALIDEngine(data, blob_config)
        schedule = SeedSchedule(engine.index)
        seen = []
        while True:
            seed = schedule.next_active()
            if seed is None:
                break
            seen.append(seed)
            engine.index.deactivate(np.asarray([seed]))
        assert sorted(seen) == list(range(data.shape[0]))

    def test_cluster_items_first(self, blob_data, blob_config):
        """Large-bucket (cluster) items should precede scattered noise."""
        data, labels = blob_data
        engine = ALIDEngine(data, blob_config)
        schedule = SeedSchedule(engine.index)
        first = schedule.next_active()
        assert labels[first] >= 0

    def test_scores_by_active_bucket_size(self, blob_data, blob_config):
        """Regression: seeding over a partially peeled index must rank
        by ACTIVE bucket members, not raw bucket sizes.

        With cluster 0 peeled except one survivor, that survivor's
        bucket holds only 1 active item and must not outrank cluster 1
        (fully active) — even though its raw bucket is just as large.
        """
        data, labels = blob_data
        engine = ALIDEngine(data, blob_config)
        cluster0 = np.flatnonzero(labels == 0)
        engine.index.deactivate(cluster0[1:])  # keep one survivor
        schedule = SeedSchedule(engine.index)
        first = schedule.next_active()
        assert labels[first] == 1


class TestALIDFit:
    def test_finds_both_blobs(self, blob_data, blob_config):
        data, labels = blob_data
        result = ALID(blob_config).fit(data)
        truth = [np.flatnonzero(labels == c) for c in (0, 1)]
        assert average_f1(result.member_lists(), truth) > 0.95

    def test_all_items_peeled(self, blob_data, blob_config):
        data, _ = blob_data
        result = ALID(blob_config).fit(data)
        peeled = np.concatenate([c.members for c in result.all_clusters])
        assert sorted(peeled.tolist()) == list(range(data.shape[0]))

    def test_peeled_clusters_disjoint(self, blob_data, blob_config):
        data, _ = blob_data
        result = ALID(blob_config).fit(data)
        seen: set[int] = set()
        for cluster in result.all_clusters:
            members = set(cluster.members.tolist())
            assert not (members & seen)
            seen |= members

    def test_noise_not_in_dominant_clusters(self, blob_data, blob_config):
        data, labels = blob_data
        result = ALID(blob_config).fit(data)
        assigned = result.labels()
        noise = labels == -1
        # At most a stray point or two of the 20 noise items claimed.
        assert (assigned[noise] >= 0).sum() <= 2

    def test_counters_populated(self, blob_data, blob_config):
        data, _ = blob_data
        result = ALID(blob_config).fit(data)
        assert result.counters.entries_computed > 0
        n = data.shape[0]
        assert result.counters.entries_computed < n * n

    def test_storage_released_after_fit(self, blob_data, blob_config):
        data, _ = blob_data
        detector = ALID(blob_config)
        detector.fit(data)
        assert detector.engine_.oracle.counters.entries_stored_current == 0

    def test_deterministic_given_seed(self, blob_data, blob_config):
        data, _ = blob_data
        r1 = ALID(blob_config).fit(data)
        r2 = ALID(blob_config).fit(data)
        assert len(r1.all_clusters) == len(r2.all_clusters)
        for c1, c2 in zip(r1.all_clusters, r2.all_clusters):
            assert np.array_equal(c1.members, c2.members)

    def test_rejects_bad_data(self, blob_config):
        with pytest.raises(ValidationError):
            ALID(blob_config).fit(np.zeros(5))

    def test_rejects_a_row_it_cannot_hash(self, small_mixture):
        # A finite row projecting outside the int64 hash codes is refused
        # by the index build, as insert and every query refuse it.
        data = small_mixture.data.copy()
        data[17] = 1e300
        with pytest.raises(ValidationError, match="int64"):
            ALID().fit(data)

    def test_metadata(self, blob_data, blob_config):
        data, _ = blob_data
        result = ALID(blob_config).fit(data)
        assert result.method == "ALID"
        assert result.metadata["kernel_k"] > 0
        assert result.metadata["peeling_rounds"] == len(result.all_clusters)

    def test_min_cluster_size_filter(self, blob_data):
        data, _ = blob_data
        config = ALIDConfig(
            delta=50,
            lsh_projections=16,
            lsh_tables=20,
            density_threshold=0.0,
            min_cluster_size=10,
            seed=0,
        )
        result = ALID(config).fit(data)
        assert all(c.size >= 10 for c in result.clusters)

    def test_synthetic_mixture_quality(self, small_mixture):
        result = ALID(
            ALIDConfig(delta=100, density_threshold=0.7, seed=0)
        ).fit(small_mixture.data)
        avg = average_f1(
            result.member_lists(), small_mixture.truth_clusters()
        )
        assert avg > 0.7
