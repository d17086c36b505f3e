"""The §4.4 peel pinned against a paper-literal reference loop, plus edges.

``ALID.fit`` peels in rounds: one colliding mask per round, every
noise-isolated seed peeled as a zero-work singleton, then one Alg. 2 run
(see :mod:`repro.core.alid`).  That must be a pure performance
transformation of the paper's loop — one seed, one detection, one peel —
so these tests rebuild that loop here from public pieces
(:meth:`SeedSchedule.next_active`, :meth:`ALIDEngine.detect_from_seed`,
:meth:`LSHIndex.deactivate` and the degenerate-seed rule) and require
identical clusters, in identical order, with identical work accounting.
They also exercise the noise pre-filter's edge cases (all-noise, one
giant cluster, tiny/empty datasets) and PALID's lockstep cohorts.
"""

import numpy as np
import pytest

from repro.core.alid import ALID, ALIDEngine, SeedSchedule
from repro.core.config import ALIDConfig
from repro.datasets.synthetic import make_synthetic_mixture
from repro.exceptions import EmptyDatasetError, ValidationError


def reference_peel(data, config, *, budget_entries=None):
    """Paper §4.4 taken literally: detect from the next seed, peel, repeat.

    Returns ``(clusters, entries_computed, colliding_picks)`` where
    *clusters* lists one ``(seed, members, weights, density)`` tuple per
    peel, in peel order, and *colliding_picks* counts the seeds that
    had an active LSH collision when picked.
    """
    engine = ALIDEngine(data, config, budget_entries=budget_entries)
    schedule = SeedSchedule(engine.index)
    clusters = []
    colliding_picks = 0
    while (seed := schedule.next_active()) is not None:
        colliding_picks += engine.index.query_item(seed).size > 0
        detection = engine.detect_from_seed(seed)
        if detection.members.size:
            members = detection.members
            weights = detection.weights
            density = detection.density
        else:
            # Degenerate run: peel the seed alone so progress is made.
            members = np.asarray([seed], dtype=np.intp)
            weights = np.asarray([1.0])
            density = 0.0
        clusters.append((seed, members, weights, density))
        engine.index.deactivate(members)
    return clusters, engine.oracle.counters.entries_computed, colliding_picks


def assert_matches_reference(data, config, *, budget_entries=None):
    """Fit *data* and require the reference loop's exact output.

    Same peels in the same order (label, seed, members, weights,
    density), the same dominant selection, and the same
    ``entries_computed``.  The pre-filter must be exact: Alg. 2 runs
    from every seed that has an active collision when picked and from
    no other (from every seed under ``verify_global``).  Returns the
    fit's result.
    """
    result = ALID(config).fit(data, budget_entries=budget_entries)
    clusters, entries, colliding_picks = reference_peel(
        data, config, budget_entries=budget_entries
    )
    assert len(result.all_clusters) == len(clusters)
    for label, (got, (seed, members, weights, density)) in enumerate(
        zip(result.all_clusters, clusters)
    ):
        assert got.label == label
        assert got.seed == seed
        assert np.array_equal(got.members, members)
        assert np.array_equal(got.weights, weights)
        assert got.density == density
    assert result.counters.entries_computed == entries
    dominant = [
        label
        for label, (_, members, _, density) in enumerate(clusters)
        if density >= config.density_threshold
        and members.size >= config.min_cluster_size
    ]
    assert [c.label for c in result.clusters] == dominant
    lid_runs = len(clusters) if config.verify_global else colliding_picks
    assert result.metadata["lid_runs"] == lid_runs
    assert result.metadata["noise_prefiltered"] == len(clusters) - lid_runs
    return result


def _blob_config(**overrides):
    return ALIDConfig(
        delta=50, lsh_projections=16, lsh_tables=20, seed=0, **overrides
    )


class TestBatchSequentialEquivalence:
    def test_blob_workload(self, blob_data):
        data, _ = blob_data
        assert_matches_reference(data, _blob_config(density_threshold=0.5))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_synthetic_mixture(self, seed):
        dataset = make_synthetic_mixture(
            n=400, regime="bounded", bound=200, n_clusters=8, dim=16,
            seed=seed,
        )
        assert_matches_reference(dataset.data, ALIDConfig(seed=seed))

    @pytest.mark.parametrize(
        "extras",
        [{}, {"civs_single_query": True}],
        ids=["defaults", "civs_single_query"],
    )
    def test_bounded_mixture_n2000(self, extras):
        """The benchmark's regime at a tier-1 size, at ALIDConfig()
        defaults and under the single-query CIVS ablation."""
        dataset = make_synthetic_mixture(
            n=2000, regime="bounded", dim=32, seed=5
        )
        result = assert_matches_reference(
            dataset.data, ALIDConfig(extras=extras)
        )
        assert result.n_clusters > 0
        assert result.metadata["noise_prefiltered"] > 0

    def test_budget_entries_equivalent(self, small_mixture):
        """Under a storage budget evictions follow the same LRU order."""
        assert_matches_reference(
            small_mixture.data, ALIDConfig(seed=1), budget_entries=60_000
        )

    def test_verify_global_falls_back_to_sequential(self, blob_data):
        """verify_global's exact scan can resurrect LSH-isolated items:
        the fit must not pre-filter them away."""
        data, _ = blob_data
        result = assert_matches_reference(
            data, _blob_config(verify_global=True)
        )
        assert result.metadata["noise_prefiltered"] == 0
        assert result.metadata["seed_rounds"] == result.metadata["lid_runs"]


class TestNoisePrefilter:
    def test_all_noise_dataset(self, rng):
        """Widely scattered points: everything peels as singletons and
        the pre-filter kills every seed without LID, in one round.

        The kernel scale is pinned so the auto-calibration cannot zoom
        into the noise and manufacture collisions.
        """
        data = rng.uniform(-500, 500, size=(80, 6))
        result = assert_matches_reference(
            data, ALIDConfig(seed=0, kernel_k=1.0)
        )
        assert result.n_clusters == 0
        meta = result.metadata
        assert meta["noise_prefiltered"] == 80
        assert meta["lid_runs"] == 0
        assert meta["seed_rounds"] == 1
        assert meta["max_cohort"] == 0

    def test_single_giant_cluster(self, rng):
        """One dense cluster covering the whole dataset: the first peel
        takes (almost) everything, still equivalent."""
        data = rng.normal(scale=0.05, size=(60, 8))
        result = assert_matches_reference(data, ALIDConfig(seed=0))
        assert result.n_clusters >= 1
        assert result.clusters[0].size >= 30
        assert result.metadata["max_cohort"] == 1

    def test_prefiltered_seeds_do_zero_kernel_work(self, rng):
        """An all-isolated dataset must be peeled with no oracle work
        beyond the kernel auto-calibration (which charges nothing)."""
        data = rng.uniform(-1000, 1000, size=(40, 4))
        result = ALID(ALIDConfig(seed=0, kernel_k=1.0)).fit(data)
        if result.metadata["lid_runs"] == 0:
            assert result.counters.entries_computed == 0
        assert len(result.all_clusters) == 40

    def test_round_stats_in_metadata(self, small_mixture):
        result = ALID(ALIDConfig(seed=1)).fit(small_mixture.data)
        meta = result.metadata
        # One Alg. 2 run per round; only the last round can lack one
        # (its pre-filter peeled the rest of the schedule).
        assert meta["lid_runs"] <= meta["seed_rounds"] <= meta["lid_runs"] + 1
        assert meta["max_cohort"] == 1
        assert (
            meta["noise_prefiltered"] + meta["lid_runs"]
            == meta["peeling_rounds"]
        )
        assert meta["noise_lid_runs"] <= meta["lid_runs"]
        # The pre-filter is what makes rounds << peels on noisy data.
        assert meta["noise_prefiltered"] > 0
        assert meta["seed_rounds"] < meta["peeling_rounds"]


class TestEdgeCases:
    def test_empty_dataset_raises(self):
        # check_data_matrix rejects the empty matrix first; both errors
        # are ReproError/ValueError family members.
        with pytest.raises((EmptyDatasetError, ValidationError)):
            ALID(ALIDConfig(seed=0)).fit(np.empty((0, 5)))

    def test_single_item(self):
        result = ALID(ALIDConfig(seed=0)).fit(np.zeros((1, 3)))
        assert len(result.all_clusters) == 1
        assert result.all_clusters[0].members.tolist() == [0]
        assert result.n_clusters == 0

    def test_two_identical_items(self):
        assert_matches_reference(np.zeros((2, 3)), ALIDConfig(seed=0))

    def test_invalid_driver_rejected(self):
        """There is one peel loop: no driver can be chosen."""
        with pytest.raises(TypeError):
            ALIDConfig(peel_driver="sequential")

    def test_invalid_block_size_rejected(self):
        """Rounds take no seed block: the block size knob is gone."""
        with pytest.raises(TypeError):
            ALIDConfig(seed_block_size=256)


class TestDetectCohort:
    def test_matches_detect_from_seed_fixed_mask(self, blob_data):
        """PALID-style cohorts (no peeling between seeds, overlapping
        components allowed) must match per-seed detection exactly."""
        data, labels = blob_data
        config = _blob_config()
        seeds = [0, 1, 20, 21, 40]
        cohort_engine = ALIDEngine(data, config)
        cohort = cohort_engine.detect_cohort(seeds)
        solo_engine = ALIDEngine(data, config)
        for seed, detection in zip(seeds, cohort):
            solo = solo_engine.detect_from_seed(seed)
            assert np.array_equal(solo.members, detection.members)
            assert np.array_equal(solo.weights, detection.weights)
            assert solo.density == detection.density
            assert solo.outer_iterations == detection.outer_iterations

    def test_cohort_work_accounting_matches(self, blob_data):
        data, _ = blob_data
        config = _blob_config()
        seeds = [0, 20, 41, 47]
        cohort_engine = ALIDEngine(data, config)
        cohort_engine.detect_cohort(seeds)
        solo_engine = ALIDEngine(data, config)
        for seed in seeds:
            solo_engine.detect_from_seed(seed)
        assert (
            cohort_engine.oracle.counters.entries_computed
            == solo_engine.oracle.counters.entries_computed
        )

    def test_empty_cohort(self, blob_data):
        data, _ = blob_data
        engine = ALIDEngine(
            data, ALIDConfig(lsh_projections=16, lsh_tables=20, seed=0)
        )
        assert engine.detect_cohort([]) == []

    def test_traces_align(self, blob_data):
        data, _ = blob_data
        config = _blob_config()
        engine = ALIDEngine(data, config)
        traces = [[], []]
        engine.detect_cohort([0, 20], traces=traces)
        solo_engine = ALIDEngine(data, config)
        solo_trace: list = []
        solo_engine.detect_from_seed(0, trace=solo_trace)
        assert traces[0] == solo_trace
        assert len(traces[1]) > 0
