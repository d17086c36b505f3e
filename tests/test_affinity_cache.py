"""Unit tests for the matrix-backed LRU column cache (LID hot path)."""

import numpy as np
import pytest

from repro.affinity.cache import ColumnBlockCache
from repro.affinity.kernel import LaplacianKernel
from repro.affinity.oracle import AffinityOracle
from repro.exceptions import BudgetExceededError


def make_oracle(blob_data, budget=None):
    data, _ = blob_data
    return AffinityOracle(data, LaplacianKernel(k=0.45), budget_entries=budget)


@pytest.fixture
def rows():
    return np.arange(10, dtype=np.intp)


class TestBasics:
    def test_get_matches_oracle_column(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        reference = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        for j in (3, 7, 3):
            assert np.allclose(cache.get(j), reference.column(j, rows=rows))

    def test_get_caches(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.get(3)
        computed = oracle.counters.entries_computed
        cache.get(3)
        assert oracle.counters.entries_computed == computed
        assert 3 in cache
        assert cache.n_columns == 1

    def test_ensure_batches_misses(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.get(0)
        before = oracle.counters.block_requests + oracle.counters.column_requests
        cache.ensure(np.asarray([0, 1, 2, 3]))
        # One batched fetch for the three misses: 3 column requests, all
        # in a single kernel block evaluation.
        assert oracle.counters.column_requests - before + 1 == 4
        assert oracle.counters.entries_computed == 4 * rows.size
        assert cache.n_columns == 4

    def test_storage_charged_and_released(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([1, 2, 3]))
        assert oracle.counters.entries_stored_current == 3 * rows.size
        cache.release_all()
        assert oracle.counters.entries_stored_current == 0
        assert cache.n_columns == 0

    def test_peek_never_fetches(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        assert cache.peek(5) is None
        assert oracle.counters.entries_computed == 0
        cache.get(5)
        assert np.allclose(cache.peek(5), cache.get(5))


class TestRowMaintenance:
    def test_restrict_rows_keeps_values(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        reference = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([2, 4]))
        keep = np.asarray([0, 3, 8], dtype=np.intp)
        cache.restrict_rows(keep)
        assert cache.n_rows == 3
        for j in (2, 4):
            assert np.allclose(
                cache.peek(j), reference.column(j, rows=rows[keep])
            )
        assert oracle.counters.entries_stored_current == 2 * 3

    def test_extend_rows_fetches_only_new_entries(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        reference = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([2, 4]))
        computed = oracle.counters.entries_computed
        new_rows = np.asarray([20, 25], dtype=np.intp)
        cache.extend_rows(new_rows)
        assert oracle.counters.entries_computed - computed == 2 * 2
        full_rows = np.concatenate([rows, new_rows])
        for j in (2, 4):
            assert np.allclose(
                cache.peek(j), reference.column(j, rows=full_rows)
            )
        assert oracle.counters.entries_stored_current == 2 * full_rows.size


class TestEviction:
    def test_lru_evicted_under_budget(self, blob_data, rows):
        # Budget fits exactly two 10-entry columns.
        oracle = make_oracle(blob_data, budget=20)
        cache = ColumnBlockCache(oracle, rows)
        cache.get(1)
        cache.get(2)
        cache.get(1)  # touch 1: column 2 becomes the LRU victim
        cache.get(3)
        assert 2 not in cache
        assert 1 in cache and 3 in cache
        assert oracle.counters.entries_stored_current <= 20

    def test_eviction_releases_storage(self, blob_data, rows):
        oracle = make_oracle(blob_data, budget=20)
        cache = ColumnBlockCache(oracle, rows)
        for j in range(6):
            cache.get(j)
        assert cache.n_columns == 2
        assert oracle.counters.entries_stored_current == 20

    def test_evicted_column_recomputed_on_demand(self, blob_data, rows):
        oracle = make_oracle(blob_data, budget=20)
        reference = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.get(1)
        cache.get(2)
        cache.get(3)  # evicts 1
        assert 1 not in cache
        assert np.allclose(cache.get(1), reference.column(1, rows=rows))

    def test_budget_error_when_nothing_evictable(self, blob_data, rows):
        oracle = make_oracle(blob_data, budget=5)  # one column needs 10
        cache = ColumnBlockCache(oracle, rows)
        with pytest.raises(BudgetExceededError):
            cache.get(1)

    def test_external_storage_not_evictable(self, blob_data, rows):
        oracle = make_oracle(blob_data, budget=25)
        oracle.charge_stored(18)  # someone else holds most of the budget
        cache = ColumnBlockCache(oracle, rows)
        with pytest.raises(BudgetExceededError):
            cache.get(1)
        assert oracle.counters.entries_stored_current >= 18

    def test_restrict_after_evicting_every_column_then_refetch(
        self, blob_data, rows
    ):
        """Regression: evict-all then restrict left stale free slots
        pointing past a 0-row buffer, crashing the next fetch."""
        oracle = make_oracle(blob_data)
        reference = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([1, 2]))
        cache.evict(1)
        cache.evict(2)
        keep = np.asarray([0, 4], dtype=np.intp)
        cache.restrict_rows(keep)
        col = cache.get(3)
        assert np.allclose(col, reference.column(3, rows=rows[keep]))

    def test_extend_rows_evicts_lru_rather_than_overflow(self, blob_data, rows):
        # 3 columns x 10 rows = 30 held; extending by 5 rows each would
        # need 45 total, over the 40 budget -> the LRU column is dropped.
        oracle = make_oracle(blob_data, budget=40)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([1, 2, 3]))
        cache.get(1)  # column 2 is now the LRU
        cache.extend_rows(np.asarray([30, 35, 40, 45, 50], dtype=np.intp))
        assert 2 not in cache
        assert cache.n_columns == 2
        assert oracle.counters.entries_stored_current <= 40


class TestFusedExtend:
    """extend_rows(fetch_cols=...) — the accounting-neutral fused fetch."""

    def test_returns_requested_block(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        reference = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([2, 4]))
        new_rows = np.asarray([20, 25, 30], dtype=np.intp)
        fetch_cols = np.asarray([4, 7], dtype=np.intp)
        block = cache.extend_rows(new_rows, fetch_cols=fetch_cols)
        assert block.shape == (3, 2)
        expected = reference.block(new_rows, fetch_cols)
        assert np.allclose(block, expected)

    def test_overlapping_columns_charged_once(self, blob_data, rows):
        """A requested column that is already cached must not be
        computed twice over the new rows."""
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([2, 4]))
        computed = oracle.counters.entries_computed
        new_rows = np.asarray([20, 25], dtype=np.intp)
        # fetch col 4 (cached) and col 7 (not cached): the union is
        # {2, 4, 7} -> 3 columns x 2 new rows, not (2 + 2) x 2.
        cache.extend_rows(new_rows, fetch_cols=np.asarray([4, 7]))
        assert oracle.counters.entries_computed - computed == 3 * 2
        # Only the cached columns' extension counts as stored.
        assert oracle.counters.entries_stored_current == 2 * (rows.size + 2)

    def test_fetch_cols_not_admitted(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([2]))
        cache.extend_rows(np.asarray([20]), fetch_cols=np.asarray([7]))
        assert 7 not in cache
        assert 2 in cache

    def test_cached_columns_extended_correctly(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        reference = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([2, 4]))
        new_rows = np.asarray([20, 25], dtype=np.intp)
        cache.extend_rows(new_rows, fetch_cols=np.asarray([2, 9]))
        full_rows = np.concatenate([rows, new_rows])
        for j in (2, 4):
            assert np.allclose(
                cache.peek(j), reference.column(j, rows=full_rows)
            )

    def test_empty_cache_fetch_only(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        reference = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        block = cache.extend_rows(
            np.asarray([20, 25]), fetch_cols=np.asarray([3])
        )
        assert np.allclose(block, reference.block(np.asarray([20, 25]),
                                                  np.asarray([3])))
        assert oracle.counters.entries_stored_current == 0

    def test_empty_new_rows(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        block = cache.extend_rows(
            np.asarray([], dtype=np.intp), fetch_cols=np.asarray([3])
        )
        assert block.shape == (0, 1)
        assert cache.extend_rows(np.asarray([], dtype=np.intp)) is None


def _scripted_run(oracle, check_miss=None):
    """Drive a cache through misses, hits, row changes and evictions.

    Calls ``check_miss(cache, j, column)`` after every miss, and returns
    what the accounting contract pins: the oracle counters, the cache's
    tallies, its LRU order and every resident column.
    """
    rows = np.arange(0, 40, 3, dtype=np.intp)
    cache = ColumnBlockCache(oracle, rows)

    c = oracle.counters

    def get(j):
        miss = j not in cache
        before = (c.entries_computed, c.column_requests, cache.hits, cache.misses)
        column = cache.get(j).copy()
        after = (c.entries_computed, c.column_requests, cache.hits, cache.misses)
        step = (cache.n_rows, 1, 0, 1) if miss else (0, 0, 1, 0)
        assert tuple(a - b for a, b in zip(after, before)) == step
        assert c.entries_stored_current == cache.cached_entries()
        if miss and check_miss is not None:
            check_miss(cache, j, column)

    for j in (3, 6, 3, 50, 6, 9, 12):
        get(j)
    cache.restrict_rows(np.asarray([0, 2, 3, 5, 7, 8], dtype=np.intp))
    for j in (6, 15, 21, 57, 15):
        get(j)
    cache.extend_rows(np.asarray([41, 44, 47], dtype=np.intp))
    for j in (41, 6, 44, 1):
        get(j)
    cache.extend_rows(
        np.asarray([50, 53], dtype=np.intp),
        fetch_cols=np.asarray([41, 2, 47], dtype=np.intp),
    )
    for j in (50, 2, 53, 6, 44, 21, 59):
        get(j)
    cache.evict(int(cache.column_ids()[-1]))
    for j in (47, 21, 50):
        get(j)
    cache.release_all()
    for j in (53, 6):
        get(j)
    cache.restrict_rows(np.asarray([1], dtype=np.intp))
    for j in (int(cache.rows[0]), 58, 6):
        get(j)
    return (
        c.entries_computed,
        c.column_requests,
        c.entries_stored_current,
        c.entries_stored_peak,
        (cache.hits, cache.misses, cache.evictions),
        cache.column_ids().tolist(),
        [cache.peek(j).tobytes() for j in cache.column_ids()],
    )


class TestHeldRowBlock:
    """A miss over the held row block equals the generic block fetch."""

    @pytest.fixture(
        params=[(2.0, 1), (2.0, 7), (2.0, 32), (1.0, 7)],
        ids=["p2-d1", "p2-d7", "p2-d32", "p1-d7"],
    )
    def substrate(self, request):
        p, d = request.param
        data = np.random.default_rng(d).normal(size=(60, d))
        return data, LaplacianKernel(k=0.3, p=p)

    @pytest.mark.parametrize("budget", [None, 70])
    def test_scripted_misses_match_block_fetch(self, substrate, budget):
        data, kernel = substrate
        held = []

        def check(cache, j, column):
            fresh = AffinityOracle(data, kernel)
            want = fresh.columns(np.asarray([j]), cache.rows)[:, 0]
            assert column.tobytes() == want.tobytes()
            held.append(cache._row_block is not None)

        got = _scripted_run(
            AffinityOracle(data, kernel, budget_entries=budget), check
        )
        generic = AffinityOracle(data, kernel, budget_entries=budget)
        generic.row_block = lambda rows: None  # every miss: block path
        assert got == _scripted_run(generic)
        assert all(held) if kernel.p == 2.0 else not any(held)
        if budget is not None:
            assert got[4][2] > 0  # the script evicted under the budget

    def test_column_outside_rows_zeroes_nothing(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.get(2)  # gathers the row block
        column = cache.get(45)
        assert (column > 0.0).all()
        want = make_oracle(blob_data).columns(np.asarray([45]), rows)[:, 0]
        assert column.tobytes() == want.tobytes()
        assert cache.get(2)[2] == 0.0
