"""Stateful property test: LSHIndex under arbitrary operation interleavings.

The golden property: after ANY sequence of inserts, peels and
reactivations, the incremental index answers every query exactly like a
fresh index built from scratch over the same data with the same seed and
the same active mask.  This is what CIVS and the streaming extension
rely on — peeling and insertion must never corrupt bucket membership.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.lsh.index import LSHIndex, csr_gather, sorted_unique

DIM = 4
SEED = 1234

coords = st.integers(min_value=-50, max_value=50)
row = st.tuples(*([coords] * DIM))


class LSHIndexMachine(RuleBasedStateMachine):
    @initialize(rows=st.lists(row, min_size=2, max_size=8))
    def build(self, rows):
        self.data = np.asarray(rows, dtype=np.float64)
        self.active = np.ones(len(rows), dtype=bool)
        self.index = LSHIndex(
            self.data, r=20.0, n_projections=6, n_tables=4, seed=SEED
        )

    # ------------------------------------------------------------------
    @rule(rows=st.lists(row, min_size=1, max_size=4))
    def insert(self, rows):
        batch = np.asarray(rows, dtype=np.float64)
        self.index.insert(batch)
        self.data = np.vstack([self.data, batch])
        self.active = np.concatenate(
            [self.active, np.ones(len(rows), dtype=bool)]
        )

    @rule(data=st.data())
    def insert_copy(self, data):
        # A copy shares every bucket with its original, so later peels
        # leave active items whose only companions are inactive.
        i = data.draw(st.integers(min_value=0, max_value=len(self.data) - 1))
        self.insert([self.data[i].tolist()])

    @rule(data=st.data())
    def deactivate_some(self, data):
        n = self.data.shape[0]
        picks = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1,
                max_size=min(5, n),
            )
        )
        picks = np.unique(np.asarray(picks, dtype=np.intp))
        self.index.deactivate(picks)
        self.active[picks] = False

    @rule()
    def reactivate(self):
        self.index.reactivate_all()
        self.active[:] = True

    # ------------------------------------------------------------------
    @invariant()
    def matches_fresh_rebuild(self):
        rebuilt = LSHIndex(
            self.data, r=20.0, n_projections=6, n_tables=4, seed=SEED
        )
        inactive = np.flatnonzero(~self.active)
        if inactive.size:
            rebuilt.deactivate(inactive)
        # Probe a deterministic sample of items plus one foreign point.
        n = self.data.shape[0]
        for i in {0, n // 2, n - 1}:
            np.testing.assert_array_equal(
                self.index.query_item(int(i)),
                rebuilt.query_item(int(i)),
            )
        probe = self.data.mean(axis=0) + 0.5
        np.testing.assert_array_equal(
            self.index.query_point(probe), rebuilt.query_point(probe)
        )

    @invariant()
    def query_respects_active_mask(self):
        result = self.index.query_item(0)
        assert self.active[result].all()
        assert 0 not in result.tolist()

    @invariant()
    def active_count_consistent(self):
        assert self.index.n_active == int(self.active.sum())

    @invariant()
    def per_item_collision_check_matches_mask(self):
        colliding = self.index.colliding_mask()
        for i in np.flatnonzero(self.active):
            assert self.index.has_active_collision(int(i)) == colliding[i]

    @invariant()
    def batched_query_matches_key_equality(self):
        # Brute force: an item is a candidate when it is active, is not
        # a query item, and shares a bucket key with a query item in
        # some table.
        n = self.data.shape[0]
        sample = np.arange(0, n, 3, dtype=np.intp)
        keys = self.index.export_state()["item_keys"]
        expected = np.zeros(n, dtype=bool)
        for item in sample:
            expected |= (keys == keys[:, [item]]).any(axis=0)
        expected &= self.active
        expected[sample] = False
        np.testing.assert_array_equal(
            self.index.query_items(sample), np.flatnonzero(expected)
        )

    @invariant()
    def item_bucket_map_matches_key_search(self):
        # The map is read off each table's sort order; an independent
        # key search must agree after any interleaving of inserts.
        for t, table in enumerate(self.index._tables):
            np.testing.assert_array_equal(
                self.index._item_buckets[t],
                np.searchsorted(table.unique_keys, table.item_keys)
                + self.index._table_bucket_base[t],
            )


TestLSHIndexStateful = LSHIndexMachine.TestCase
TestLSHIndexStateful.settings = settings(
    max_examples=20, stateful_step_count=10, deadline=None
)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(row, min_size=2, max_size=12),
    owner_seed=st.integers(min_value=0, max_value=2**16),
    queries=st.lists(row, min_size=1, max_size=6),
)
def test_owner_table_pairs_equal_item_owner_pairs(rows, owner_seed, queries):
    """Bucket -> owner lookups shortlist exactly what item gathers do."""
    data = np.asarray(rows, dtype=np.float64)
    index = LSHIndex(data, r=20.0, n_projections=6, n_tables=4, seed=SEED)
    owner = np.random.default_rng(owner_seed).integers(-1, 3, size=len(rows))
    points = np.asarray(queries, dtype=np.float64)
    offsets, owners = index.bucket_owners(owner)
    qids, buckets = index.point_bucket_hits(points)
    lengths = offsets[buckets + 1] - offsets[buckets]
    by_table = set(
        zip(
            np.repeat(qids, lengths).tolist(),
            csr_gather(owners, offsets[buckets], lengths).tolist(),
        )
    )
    by_items = {
        (q, int(owner[i]))
        for q, items in enumerate(index.query_points_grouped(points))
        for i in items
        if owner[i] >= 0
    }
    assert by_table == by_items


@st.composite
def integer_keys(draw):
    """Int64, intp or uint64 arrays (1-D or 2-D) with many repeats."""
    dtype = np.dtype(draw(st.sampled_from([np.int64, np.intp, np.uint64])))
    info = np.iinfo(dtype)
    pool = draw(
        st.lists(st.integers(info.min, info.max), min_size=1, max_size=5)
    )
    shape = draw(array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=9))
    return draw(arrays(dtype, shape, elements=st.sampled_from(pool)))


@settings(max_examples=80, deadline=None)
@given(keys=integer_keys())
@example(keys=np.empty(0, dtype=np.int64))
@example(keys=np.empty((0, 3), dtype=np.uint64))
@example(keys=np.asarray([[7, 2**64 - 1], [0, 7]], dtype=np.uint64))
def test_sorted_unique_equals_np_unique(keys):
    out = sorted_unique(keys)
    want = np.unique(keys)
    assert out.dtype == want.dtype
    np.testing.assert_array_equal(out, want)
