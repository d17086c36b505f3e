"""Unit tests for the LSH substrate (hashing, params, index)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.lsh.hashing import PStableHashFamily
from repro.lsh.index import LSHIndex
from repro.lsh.params import (
    collision_probability,
    retrieval_probability,
    suggest_tables,
)
from tests.conftest import (
    LSH_CSR_ARRAYS,
    assert_lsh_csr_matches_reference,
    lsh_reference_components,
    lsh_reference_keys,
)


def _assert_same_index(got, want):
    """Equal export_state() and equal CSR arrays (values and dtypes)."""
    got_state, want_state = got.export_state(), want.export_state()
    assert got_state.keys() == want_state.keys()
    for name, array in want_state.items():
        assert got_state[name].dtype == array.dtype, name
        assert np.array_equal(got_state[name], array), name
    for name in LSH_CSR_ARRAYS:
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestPStableHashFamily:
    def test_deterministic_given_seed(self, rng):
        data = rng.normal(size=(10, 6))
        f1 = PStableHashFamily(6, r=1.0, n_projections=8, seed=3)
        f2 = PStableHashFamily(6, r=1.0, n_projections=8, seed=3)
        assert np.array_equal(f1.hash_many(data), f2.hash_many(data))

    def test_shape(self, rng):
        data = rng.normal(size=(10, 6))
        family = PStableHashFamily(6, r=1.0, n_projections=8, seed=0)
        assert family.hash_many(data).shape == (10, 8)

    def test_identical_points_same_hash(self, rng):
        family = PStableHashFamily(4, r=1.0, seed=0)
        point = rng.normal(size=4)
        data = np.vstack([point, point])
        codes = family.hash_many(data)
        assert np.array_equal(codes[0], codes[1])

    def test_hash_one_matches_hash_many(self, rng):
        family = PStableHashFamily(4, r=1.0, seed=0)
        point = rng.normal(size=4)
        assert family.hash_one(point) == tuple(
            family.hash_many(point[None, :])[0].tolist()
        )

    def test_rejects_bad_dim(self):
        with pytest.raises(ValidationError):
            PStableHashFamily(0, r=1.0)

    def test_rejects_bad_r(self):
        with pytest.raises(ValidationError):
            PStableHashFamily(4, r=0.0)

    def test_rejects_wrong_data_dim(self, rng):
        family = PStableHashFamily(4, r=1.0, seed=0)
        with pytest.raises(ValidationError):
            family.hash_many(rng.normal(size=(3, 5)))

    def test_larger_r_coarser_buckets(self, rng):
        data = rng.normal(size=(200, 8))
        fine = PStableHashFamily(8, r=0.1, n_projections=1, seed=0)
        coarse = PStableHashFamily(8, r=100.0, n_projections=1, seed=0)
        n_fine = len(set(fine.hash_many(data)[:, 0].tolist()))
        n_coarse = len(set(coarse.hash_many(data)[:, 0].tolist()))
        assert n_coarse < n_fine


class TestCollisionProbability:
    def test_zero_distance(self):
        assert collision_probability(0.0, r=1.0) == 1.0

    def test_monotone_decreasing_in_distance(self):
        probs = [collision_probability(c, r=1.0) for c in (0.1, 0.5, 1.0, 5.0)]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_monotone_increasing_in_r(self):
        probs = [collision_probability(1.0, r=r) for r in (0.5, 1.0, 2.0, 8.0)]
        assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_bounds(self):
        for c in (0.01, 1.0, 100.0):
            p = collision_probability(c, r=1.0)
            assert 0.0 <= p <= 1.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            collision_probability(-1.0, r=1.0)


class TestRetrievalProbability:
    def test_more_tables_higher_recall(self):
        p1 = retrieval_probability(1.0, r=5.0, n_projections=10, n_tables=1)
        p50 = retrieval_probability(1.0, r=5.0, n_projections=10, n_tables=50)
        assert p50 > p1

    def test_more_projections_lower_recall(self):
        few = retrieval_probability(1.0, r=5.0, n_projections=5, n_tables=10)
        many = retrieval_probability(1.0, r=5.0, n_projections=40, n_tables=10)
        assert many < few

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            retrieval_probability(1.0, r=1.0, n_projections=0, n_tables=1)


class TestSuggestTables:
    def test_achieves_target(self):
        tables = suggest_tables(1.0, r=10.0, n_projections=10, target_recall=0.9)
        achieved = retrieval_probability(1.0, r=10.0, n_projections=10,
                                         n_tables=tables)
        assert achieved >= 0.9

    def test_sentinel_on_underflow(self):
        assert suggest_tables(100.0, r=0.001, n_projections=64) == 10**6

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            suggest_tables(1.0, r=1.0, n_projections=4, target_recall=1.5)


@pytest.fixture
def small_index(blob_data):
    data, _ = blob_data
    # r ~ 10x the intra-cluster scale (~0.5) for high intra recall.
    return LSHIndex(data, r=5.0, n_projections=16, n_tables=20, seed=0)


class TestLSHIndex:
    def test_query_item_finds_cluster_siblings(self, small_index, blob_data):
        _, labels = blob_data
        neighbors = small_index.query_item(0)
        siblings = np.flatnonzero(labels == labels[0])
        recall = np.isin(siblings[siblings != 0], neighbors).mean()
        assert recall > 0.8

    def test_query_item_excludes_self(self, small_index):
        assert 0 not in small_index.query_item(0)

    def test_query_item_sorted(self, small_index):
        out = small_index.query_item(0)
        assert np.all(np.diff(out) > 0)

    def test_query_point_matches_query_item(self, small_index, blob_data):
        data, _ = blob_data
        by_point = small_index.query_point(data[3])
        by_item = small_index.query_item(3)
        # query_point includes the item itself; otherwise identical.
        assert set(by_item) <= set(by_point)

    def test_query_items_union(self, small_index):
        a = set(small_index.query_item(0)) | {0}
        b = set(small_index.query_item(1)) | {1}
        union = set(small_index.query_items(np.asarray([0, 1])))
        assert union <= (a | b)
        assert (set(small_index.query_item(0)) - {1}) <= (union | {0, 1})

    def test_query_items_matches_query_item_loop(self, small_index):
        """Batch == union of single-item queries minus the query set."""
        for indices in ([0], [0, 1, 5], list(range(12)), [7, 41, 55]):
            indices = np.asarray(indices, dtype=np.intp)
            looped: set[int] = set()
            for i in indices:
                looped.update(small_index.query_item(int(i)).tolist())
            looped -= set(indices.tolist())
            batched = small_index.query_items(indices)
            assert sorted(looped) == batched.tolist()

    def test_query_items_loop_equivalence_after_peeling(self, small_index):
        small_index.deactivate(np.asarray([2, 3, 21, 22, 23]))
        indices = np.asarray([0, 1, 20, 40], dtype=np.intp)
        looped: set[int] = set()
        for i in indices:
            looped.update(small_index.query_item(int(i)).tolist())
        looped -= set(indices.tolist())
        assert sorted(looped) == small_index.query_items(indices).tolist()

    def test_query_points_matches_query_point_loop(self, small_index, blob_data):
        data, _ = blob_data
        points = data[[0, 25, 45]] + 0.05
        looped: set[int] = set()
        for point in points:
            looped.update(small_index.query_point(point).tolist())
        assert sorted(looped) == small_index.query_points(points).tolist()

    def test_query_items_excludes_queries(self, small_index):
        out = small_index.query_items(np.asarray([0, 1, 2]))
        assert not ({0, 1, 2} & set(out))

    def test_deactivate_hides_items(self, small_index):
        neighbors = small_index.query_item(0)
        assert neighbors.size > 0
        small_index.deactivate(neighbors)
        assert small_index.query_item(0).size == 0

    def test_reactivate_all(self, small_index):
        before = small_index.query_item(0)
        small_index.deactivate(np.arange(small_index.n))
        small_index.reactivate_all()
        after = small_index.query_item(0)
        assert np.array_equal(before, after)

    def test_n_active(self, small_index):
        assert small_index.n_active == small_index.n
        small_index.deactivate(np.asarray([0, 1]))
        assert small_index.n_active == small_index.n - 2

    def test_active_mask_readonly(self, small_index):
        with pytest.raises(ValueError):
            small_index.active_mask[0] = False

    def test_determinism_across_instances(self, blob_data):
        data, _ = blob_data
        a = LSHIndex(data, r=5.0, n_projections=8, n_tables=5, seed=9)
        b = LSHIndex(data, r=5.0, n_projections=8, n_tables=5, seed=9)
        for i in (0, 10, 40):
            assert np.array_equal(a.query_item(i), b.query_item(i))

    def test_noise_rarely_collides(self, small_index, blob_data):
        _, labels = blob_data
        noise_indices = np.flatnonzero(labels == -1)
        # Noise points are far from everything; most find few neighbors.
        counts = [small_index.query_item(int(i)).size for i in noise_indices]
        assert np.median(counts) <= 2

    def test_bucket_sizes(self, small_index):
        sizes = small_index.bucket_sizes(table=0)
        assert sum(sizes.values()) == small_index.n

    def test_large_buckets_single_table(self, small_index):
        buckets = small_index.large_buckets(min_size=5, table=0)
        assert all(b.size >= 5 for b in buckets)

    def test_large_buckets_all_tables(self, small_index):
        all_tables = small_index.large_buckets(min_size=5, table=None)
        one_table = small_index.large_buckets(min_size=5, table=0)
        assert len(all_tables) >= len(one_table)

    def test_large_buckets_respect_peeling(self, small_index, blob_data):
        _, labels = blob_data
        small_index.deactivate(np.flatnonzero(labels == 0))
        for bucket in small_index.large_buckets(min_size=3):
            assert np.all(labels[bucket] != 0)

    def test_storage_cost(self, small_index):
        assert small_index.storage_cost_entries() == 2 * 60 * 20

    def test_invalid_point_dim(self, small_index):
        with pytest.raises(ValidationError):
            small_index.query_point(np.zeros(3))

    def test_out_of_range_item(self, small_index):
        with pytest.raises(IndexError):
            small_index.query_item(10_000)


class TestKeyOfPointConsistency:
    """Regression: point queries must hash into build-time buckets.

    ``key_of_point`` once multiplied int64 codes by the uint64 mixer,
    which NumPy promotes to float64 — wrong keys whenever any hash code
    was negative (i.e. for roughly half of all real-valued data).
    """

    def test_query_point_matches_query_item_bucket(self):
        rng = np.random.default_rng(7)
        # Centre the data at a large negative offset so that hash codes
        # are overwhelmingly negative.
        data = rng.normal(loc=-50.0, scale=0.5, size=(40, 6))
        index = LSHIndex(data, r=1.0, n_projections=12, n_tables=4, seed=0)
        for i in range(0, 40, 7):
            by_point = set(index.query_point(data[i]).tolist()) - {i}
            by_item = set(index.query_item(i).tolist())
            # The item lookup walks the inverted list; the point lookup
            # re-hashes.  Both must reach the identical buckets.
            assert by_point == by_item


class TestGroupedQueries:
    """query_items_grouped must match per-group query_items exactly."""

    def test_matches_per_group(self, small_index):
        groups = [
            np.asarray([0, 1, 2], dtype=np.intp),
            np.asarray([], dtype=np.intp),
            np.asarray([30, 41, 55], dtype=np.intp),
            np.arange(20, 33, dtype=np.intp),
        ]
        grouped = small_index.query_items_grouped(groups)
        assert len(grouped) == len(groups)
        for group, got in zip(groups, grouped):
            assert np.array_equal(got, small_index.query_items(group))

    def test_respects_active_mask(self, small_index):
        small_index.deactivate(np.arange(0, 15))
        groups = [np.asarray([20, 21]), np.asarray([45, 50])]
        grouped = small_index.query_items_grouped(groups)
        for group, got in zip(groups, grouped):
            assert np.array_equal(got, small_index.query_items(group))
            assert not np.isin(got, np.arange(0, 15)).any()

    def test_groups_do_not_exclude_each_other(self, small_index):
        """Only a group's OWN items are dropped from its result."""
        grouped = small_index.query_items_grouped(
            [np.asarray([0]), np.asarray([1])]
        )
        # Items 0 and 1 are in the same blob; each should retrieve the
        # other even though both are query items of *some* group.
        assert 1 in grouped[0]
        assert 0 in grouped[1]

    def test_all_empty(self, small_index):
        out = small_index.query_items_grouped([np.asarray([], dtype=np.intp)])
        assert out[0].size == 0

    def test_out_of_range_rejected(self, small_index):
        with pytest.raises(ValidationError):
            small_index.query_items_grouped([np.asarray([10_000])])


class TestCollisionStructure:
    """colliding_mask / collision_components over the fused CSR."""

    def test_colliding_mask_matches_query_item(self, small_index):
        mask = small_index.colliding_mask()
        for i in range(small_index.n):
            assert mask[i] == (small_index.query_item(i).size > 0)

    def test_colliding_mask_after_peeling(self, small_index):
        # Peel one blob except a lone survivor: the survivor keeps its
        # buckets but loses all active companions.
        small_index.deactivate(np.arange(1, 20))
        mask = small_index.colliding_mask()
        for i in range(small_index.n):
            expected = bool(
                small_index.active_mask[i]
                and small_index.query_item(i).size > 0
            )
            assert mask[i] == expected

    def test_components_closed_under_collision(self, small_index):
        for i in range(small_index.n):
            comp = small_index.collision_components(np.asarray([i]))
            assert i in comp
            assert set(small_index.query_item(i).tolist()) <= set(comp.tolist())
            assert np.array_equal(
                comp, lsh_reference_components(small_index, [i])
            )

    def test_isolated_items_are_singleton_components(self, small_index):
        mask = small_index.colliding_mask()
        isolated = np.flatnonzero(small_index.active_mask & ~mask)
        assert isolated.size
        for i in isolated:
            comp = small_index.collision_components(np.asarray([i]))
            assert comp.tolist() == [i]

    def test_inactive_items_unlabelled(self, small_index):
        small_index.deactivate(np.arange(0, 10))
        assert small_index.collision_components(np.arange(10)).size == 0
        everything = small_index.collision_components(
            np.arange(small_index.n)
        )
        assert np.array_equal(
            everything, np.flatnonzero(small_index.active_mask)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_search_matches_whole_graph_labeling(self, seed):
        """Random item sets, after peeling and inserts, match the reference."""
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-20, 20, size=(6, 5))
        data = np.vstack(
            [c + rng.normal(scale=0.4, size=(30, 5)) for c in centers]
            + [rng.uniform(-25, 25, size=(60, 5))]
        )
        index = LSHIndex(data, r=3.0, n_projections=8, n_tables=12, seed=seed)
        for step in range(4):
            index.deactivate(rng.choice(index.n, size=25, replace=False))
            for size in (1, 3, 20):
                items = rng.choice(index.n, size=size, replace=False)
                assert np.array_equal(
                    index.collision_components(items),
                    lsh_reference_components(index, items),
                )
            index.insert(
                data[rng.choice(data.shape[0], size=15)]
                + rng.normal(scale=0.2, size=(15, 5))
            )

    def test_items_out_of_range_rejected(self, small_index):
        with pytest.raises(ValidationError):
            small_index.collision_components(np.asarray([small_index.n]))

    def test_bucket_populations_sum(self, small_index):
        populations = small_index.active_bucket_populations()
        # Every item appears once per table, so active populations sum
        # to n_active * n_tables.
        assert populations.sum() == (
            small_index.n_active * small_index.n_tables
        )
        small_index.deactivate(np.arange(0, 30))
        populations = small_index.active_bucket_populations()
        assert populations.sum() == (
            small_index.n_active * small_index.n_tables
        )


class TestMergeInsert:
    """Insert (a stable-sort merge) must equal a build from scratch."""

    def test_insert_equals_rebuild(self, blob_data, rng):
        data, _ = blob_data
        extra = rng.normal(scale=5.0, size=(25, data.shape[1]))
        kwargs = dict(r=5.0, n_projections=16, n_tables=20, seed=0)
        merged = LSHIndex(data, **kwargs)
        merged.insert(extra[:11])
        merged.insert(extra[11:])
        everything = np.vstack([data, extra])
        assert np.array_equal(
            merged.export_state()["item_keys"],
            lsh_reference_keys(merged.export_state(), merged.r, everything),
        )
        assert_lsh_csr_matches_reference(merged)
        _assert_same_index(merged, LSHIndex(everything, **kwargs))

    def test_insert_queries_match_fresh_index(self, blob_data, rng):
        data, _ = blob_data
        extra = data[:15] + rng.normal(scale=0.05, size=(15, data.shape[1]))
        merged = LSHIndex(data, r=5.0, n_projections=16, n_tables=20, seed=0)
        merged.insert(extra)
        fresh = LSHIndex(
            np.vstack([data, extra]),
            r=5.0,
            n_projections=16,
            n_tables=20,
            seed=0,
        )
        for i in range(merged.n):
            assert np.array_equal(merged.query_item(i), fresh.query_item(i))

    def test_insert_into_duplicate_key_buckets(self):
        # Identical rows share every bucket; merged members must stay in
        # ascending index order inside each bucket (the stable invariant
        # bucket slicing relies on).
        data = np.tile(np.arange(4.0)[None, :], (6, 1))
        index = LSHIndex(data, r=1.0, n_projections=4, n_tables=3, seed=0)
        index.insert(data[:3])
        assert_lsh_csr_matches_reference(index)
        assert index._g_lengths.tolist() == [9, 9, 9]
        for b in range(index._g_lengths.size):
            bucket = index._gather_buckets(np.asarray([b]))
            assert np.array_equal(bucket, np.arange(9))


class TestQueryPointsGrouped:
    def test_matches_query_point_loop(self, small_index, blob_data, rng):
        data, _ = blob_data
        points = np.vstack(
            [
                data[:8] + rng.normal(scale=0.05, size=(8, data.shape[1])),
                rng.uniform(-40, 40, size=(6, data.shape[1])),
            ]
        )
        grouped = small_index.query_points_grouped(points)
        assert len(grouped) == points.shape[0]
        for i, point in enumerate(points):
            assert np.array_equal(grouped[i], small_index.query_point(point))

    def test_respects_active_mask(self, small_index, blob_data):
        data, _ = blob_data
        small_index.deactivate(np.arange(0, small_index.n, 2))
        grouped = small_index.query_points_grouped(data[:5])
        for i in range(5):
            assert np.array_equal(
                grouped[i], small_index.query_point(data[i])
            )
            assert not np.isin(
                grouped[i], np.arange(0, small_index.n, 2)
            ).any()

    def test_empty_batch(self, small_index):
        assert small_index.query_points_grouped(
            np.empty((0, 8))
        ) == []

    def test_dim_mismatch_raises(self, small_index):
        with pytest.raises(ValidationError):
            small_index.query_points_grouped(np.zeros((3, 5)))


class TestExportRestoreState:
    def test_round_trip_is_bit_identical(self, small_index, blob_data):
        data, _ = blob_data
        state = small_index.export_state()
        restored = LSHIndex.from_state(data, r=small_index.r, **state)
        _assert_same_index(restored, small_index)
        assert_lsh_csr_matches_reference(restored)
        for i in range(restored.n):
            assert np.array_equal(
                restored.query_item(i), small_index.query_item(i)
            )
        assert np.array_equal(
            restored.query_point(data[0] + 0.01),
            small_index.query_point(data[0] + 0.01),
        )

    def test_round_trip_preserves_active_mask(self, small_index, blob_data):
        data, _ = blob_data
        small_index.deactivate(np.asarray([1, 3, 5]))
        state = small_index.export_state()
        restored = LSHIndex.from_state(data, r=small_index.r, **state)
        assert np.array_equal(restored.active_mask, small_index.active_mask)
        # The restored mask is an independent, writable copy.
        restored.reactivate_all()
        assert not small_index.active_mask[1]

    def test_bad_shapes_raise(self, small_index, blob_data):
        data, _ = blob_data
        state = small_index.export_state()
        bad = dict(state)
        bad["item_keys"] = state["item_keys"][:, :-1]
        with pytest.raises(ValidationError):
            LSHIndex.from_state(data, r=small_index.r, **bad)
        bad = dict(state)
        bad["mixers"] = state["mixers"][:-1]
        with pytest.raises(ValidationError):
            LSHIndex.from_state(data, r=small_index.r, **bad)

    @pytest.mark.parametrize("r", [0.0, -1.0, np.nan, np.inf])
    def test_r_must_be_positive_and_finite(self, small_index, blob_data, r):
        data, _ = blob_data
        with pytest.raises(ValidationError, match="r must be"):
            LSHIndex.from_state(data, r=r, **small_index.export_state())

    @pytest.mark.parametrize("name", ["projections", "hash_offsets"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_hash_state_raises(
        self, small_index, blob_data, name, value
    ):
        data, _ = blob_data
        state = small_index.export_state()
        state[name].flat[3] = value
        with pytest.raises(ValidationError, match="finite"):
            LSHIndex.from_state(data, r=small_index.r, **state)


def _paper_scale_index(n=400, dim=12, seed=3):
    """An index with the paper's table shape (40 projections x 50 tables)."""
    data = np.random.default_rng(seed).normal(scale=3.0, size=(n, dim))
    return data, LSHIndex(
        data, r=4.0, n_projections=40, n_tables=50, seed=seed
    )


class TestStackedHashing:
    """Keys come from one stacked, chunked hashing path.

    The build, inserts and queries hash against all tables at once, in
    chunks of ``HASH_CHUNK_ROWS`` rows.  Its keys must equal the
    per-table definition bit for bit (``lsh_reference_keys``), or a
    query would miss the bucket its twin item was filed in.
    """

    @pytest.mark.parametrize("q", [1, 63, 64, 65, 1000])
    def test_matches_per_table_keys(self, q):
        data, index = _paper_scale_index()
        rng = np.random.default_rng(q)
        points = np.vstack(
            [
                data[rng.integers(0, data.shape[0], size=q // 2)]
                + rng.normal(scale=0.5, size=(q // 2, data.shape[1])),
                rng.normal(loc=-7.0, scale=9.0, size=(q - q // 2, data.shape[1])),
            ]
        )
        keys = index._block_keys(points)
        assert keys.shape == (index.n_tables, q, 1)
        assert np.array_equal(
            keys[:, :, 0],
            lsh_reference_keys(index.export_state(), index.r, points),
        )

    def test_own_data_reproduces_stored_keys(self):
        data, index = _paper_scale_index()
        restored = LSHIndex.from_state(data, r=index.r, **index.export_state())
        reference = lsh_reference_keys(index.export_state(), index.r, data)
        for built in (index, restored):
            stored = built.export_state()["item_keys"]
            assert np.array_equal(stored, reference)
            assert np.array_equal(built._block_keys(data)[:, :, 0], stored)
            # ...so every item hits its own bucket in every table.
            qids, buckets = built.point_bucket_hits(data)
            hit = np.zeros((built.n, built._g_lengths.size), dtype=bool)
            hit[qids, buckets] = True
            own = built._item_buckets.T
            assert hit[np.arange(built.n)[:, None], own].all()

    def test_hits_are_unique_and_match_grouped_queries(self, small_index, rng):
        data = np.vstack([small_index._data, small_index._data[:10]])
        points = data + rng.normal(scale=0.05, size=data.shape)
        qids, buckets = small_index.point_bucket_hits(points)
        pairs = qids * small_index._g_lengths.size + buckets
        assert np.unique(pairs).size == pairs.size
        assert (np.bincount(qids, minlength=70) <= small_index.n_tables).all()
        grouped = small_index.query_points_grouped(points)
        for i in range(70):
            members = small_index._gather_buckets(buckets[qids == i])
            assert np.array_equal(grouped[i], np.unique(members))

    def test_empty_block_has_no_hits(self, small_index):
        qids, buckets = small_index.point_bucket_hits(np.empty((0, 8)))
        assert qids.size == 0 and buckets.size == 0


class TestHugeQueries:
    """A finite query can still project beyond the int64 hash codes."""

    @pytest.mark.parametrize("value", [1e20, -1e20, 1e300, -1e300])
    def test_out_of_range_projection_raises(self, small_index, value):
        point = np.full((1, 8), value)
        with pytest.raises(ValidationError, match="int64"):
            small_index.point_bucket_hits(point)
        with pytest.raises(ValidationError, match="int64"):
            small_index.query_points_grouped(point)
        with pytest.raises(ValidationError, match="int64"):
            small_index.query_point(point[0])

    def test_build_refuses_an_unhashable_row(self, blob_data):
        data = blob_data[0].copy()
        data[7] = 1e300
        with pytest.raises(ValidationError, match="int64"):
            LSHIndex(data, r=5.0, n_projections=6, n_tables=5, seed=3)

    def test_huge_row_in_a_later_chunk_raises(self, small_index):
        points = np.zeros((130, 8))
        points[129] = 1e300
        with pytest.raises(ValidationError, match="int64"):
            small_index.point_bucket_hits(points)

    def test_large_but_hashable_points_pass(self, small_index):
        qids, _ = small_index.point_bucket_hits(np.full((2, 8), 1e6))
        assert qids.size == 0

    def test_non_finite_points_raise(self, small_index):
        with pytest.raises(ValidationError, match="NaN"):
            small_index.point_bucket_hits(np.full((1, 8), np.nan))

    def test_check_hashable_refuses_what_hashing_refuses(self, small_index):
        points = np.zeros((3, 8))
        assert np.array_equal(small_index.check_hashable(points), points)
        points[1] = 1e20
        with pytest.raises(ValidationError, match="int64"):
            small_index.check_hashable(points)

    def test_insert_refuses_the_batch_and_changes_nothing(self, blob_data):
        data, _ = blob_data
        index = LSHIndex(data, r=5.0, n_projections=6, n_tables=5, seed=3)
        before = index.export_state()
        batch = np.zeros((4, data.shape[1]))
        batch[2] = -1e300
        with pytest.raises(ValidationError, match="int64"):
            index.insert(batch)
        after = index.export_state()
        assert index.n == data.shape[0]
        for name in before:
            assert np.array_equal(after[name], before[name]), name


class TestItemBucketMap:
    """``_item_buckets`` against an independent per-table dict reference."""

    def test_after_construction(self, small_index):
        assert_lsh_csr_matches_reference(small_index)

    def test_after_insert_into_new_buckets(self, small_index, rng):
        before = small_index._g_lengths.size
        far = rng.uniform(200.0, 400.0, size=(9, 8))
        small_index.insert(far)
        assert small_index._g_lengths.size > before
        assert_lsh_csr_matches_reference(small_index)

    def test_after_insert_into_duplicate_key_buckets(self, small_index):
        before = small_index._g_lengths.size
        small_index.insert(small_index._data[:7].copy())
        assert small_index._g_lengths.size == before
        assert_lsh_csr_matches_reference(small_index)
        for i in range(7):
            assert np.array_equal(
                small_index._item_buckets[:, small_index.n - 7 + i],
                small_index._item_buckets[:, i],
            )

    def test_after_from_state(self, small_index, blob_data, rng):
        small_index.insert(rng.normal(scale=30.0, size=(5, 8)))
        restored = LSHIndex.from_state(
            small_index._data, r=small_index.r, **small_index.export_state()
        )
        assert_lsh_csr_matches_reference(restored)
        assert np.array_equal(restored._item_buckets, small_index._item_buckets)


class TestBucketOwners:
    def test_matches_per_bucket_owner_sets(self, small_index, rng):
        owner = rng.integers(-1, 4, size=small_index.n)
        offsets, owners = small_index.bucket_owners(owner)
        assert offsets.dtype == np.int32 and owners.dtype == np.int32
        assert offsets.size == small_index._g_lengths.size + 1
        for b in range(small_index._g_lengths.size):
            members = small_index._gather_buckets(np.asarray([b]))
            expected = np.unique(owner[members])
            expected = expected[expected >= 0]
            assert np.array_equal(owners[offsets[b] : offsets[b + 1]], expected)

    def test_no_owners(self, small_index):
        offsets, owners = small_index.bucket_owners(
            np.full(small_index.n, -1)
        )
        assert owners.size == 0
        assert not offsets.any()

    def test_shape_mismatch_raises(self, small_index):
        with pytest.raises(ValidationError):
            small_index.bucket_owners(np.zeros(small_index.n - 1))
