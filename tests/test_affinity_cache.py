"""Unit tests for the matrix-backed LRU column cache (LID hot path).

The cache is keyed by row position: ``get(p)`` is the column of
``rows[p]``.  The ``rows`` fixture lists ids unlike their positions, so
a test that confused the two would read the wrong column.
"""

import numpy as np
import pytest

from repro.affinity.cache import ColumnBlockCache
from repro.affinity.kernel import LaplacianKernel
from repro.affinity.oracle import AffinityOracle
from repro.exceptions import BudgetExceededError

from tests.conftest import LRUColumnModel


def make_oracle(blob_data, budget=None):
    data, _ = blob_data
    return AffinityOracle(data, LaplacianKernel(k=0.45), budget_entries=budget)


@pytest.fixture
def rows():
    return np.asarray([12, 3, 40, 7, 25, 0, 33, 18, 9, 46], dtype=np.intp)


class TestBasics:
    def test_get_matches_oracle_column(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        reference = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        for p in (3, 7, 3):
            col = cache.get(p)
            assert np.allclose(col, reference.column(rows[p], rows=rows))
            assert col[p] == 0.0

    def test_get_caches(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.get(3)
        computed = oracle.counters.entries_computed
        cache.get(3)
        assert oracle.counters.entries_computed == computed
        assert 3 in cache
        assert cache.n_columns == 1
        assert cache.column_ids().tolist() == [rows[3]]

    def test_ensure_batches_misses(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.get(0)
        before = oracle.counters.block_requests + oracle.counters.column_requests
        cache.ensure(np.asarray([0, 1, 2, 3, 1]))
        # One batched fetch for the three misses: 3 column requests, all
        # in a single kernel block evaluation; the repeat is a hit.
        assert oracle.counters.column_requests - before + 1 == 4
        assert oracle.counters.entries_computed == 4 * rows.size
        assert cache.n_columns == 4
        assert (cache.hits, cache.misses) == (2, 4)
        assert cache.column_ids().tolist() == rows[[0, 2, 3, 1]].tolist()

    def test_storage_charged_and_released(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([1, 2, 3]))
        assert oracle.counters.entries_stored_current == 3 * rows.size
        cache.release_all()
        assert oracle.counters.entries_stored_current == 0
        assert cache.n_columns == 0
        assert (cache.slots == -1).all()

    def test_peek_never_fetches(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        assert cache.peek(5) is None
        assert oracle.counters.entries_computed == 0
        cache.get(5)
        assert np.array_equal(cache.peek(5), cache.get(5))


class TestRowMaintenance:
    def test_restrict_rows_keeps_values(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        reference = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([3, 8, 5]))
        keep = np.asarray([0, 3, 8], dtype=np.intp)
        cache.restrict_rows(keep)
        assert cache.n_rows == 3
        # The columns of kept rows 3 and 8 (now positions 1 and 2)
        # survive; the column of removed row 5 is dropped.
        assert cache.peek(0) is None
        for p in (1, 2):
            assert np.allclose(
                cache.peek(p), reference.column(rows[keep][p], rows=rows[keep])
            )
        assert cache.column_ids().tolist() == rows[[3, 8]].tolist()
        assert oracle.counters.entries_stored_current == 2 * 3

    def test_restrict_drops_are_not_evictions(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.arange(rows.size))
        cache.restrict_rows(np.asarray([2, 6]))
        assert cache.n_columns == 2
        assert cache.evictions == 0
        assert oracle.counters.entries_stored_current == 2 * 2

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
        for p in (2, 4):
            assert np.allclose(
                cache.peek(p), reference.column(rows[p], rows=full_rows)
            )
        assert cache.slots.shape == (full_rows.size,)
        assert cache.peek(rows.size) is None
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
        assert cache.evictions == 1
        assert oracle.counters.entries_stored_current <= 20

    def test_eviction_releases_storage(self, blob_data, rows):
        oracle = make_oracle(blob_data, budget=20)
        cache = ColumnBlockCache(oracle, rows)
        for p in range(6):
            cache.get(p)
        assert cache.n_columns == 2
        assert cache.evictions == 4
        assert oracle.counters.entries_stored_current == 20

    def test_evicted_column_recomputed_on_demand(self, blob_data, rows):
        oracle = make_oracle(blob_data, budget=20)
        reference = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.get(1)
        cache.get(2)
        cache.get(3)  # evicts 1
        assert 1 not in cache
        assert np.allclose(cache.get(1), reference.column(rows[1], rows=rows))

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
        col = cache.get(1)
        assert np.allclose(col, reference.column(rows[4], rows=rows[keep]))

    def test_extend_rows_evicts_lru_rather_than_overflow(self, blob_data, rows):
        # 3 columns x 10 rows = 30 held; extending by 5 rows each would
        # need 45 total, over the 40 budget -> the LRU column is dropped.
        oracle = make_oracle(blob_data, budget=40)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([1, 2, 3]))
        cache.get(1)  # column 2 is now the LRU
        cache.extend_rows(np.asarray([30, 35, 41, 45, 50], dtype=np.intp))
        assert 2 not in cache
        assert cache.n_columns == 2
        assert cache.evictions == 1
        assert oracle.counters.entries_stored_current <= 40


class TestFusedExtend:
    """extend_rows(fetch_cols=...) — the accounting-neutral fused fetch."""

    def test_returns_requested_block(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        reference = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([2, 4]))
        new_rows = np.asarray([20, 26, 30], dtype=np.intp)
        fetch_cols = np.asarray([4, 7], dtype=np.intp)
        block = cache.extend_rows(new_rows, fetch_cols=fetch_cols)
        assert block.shape == (3, 2)
        assert block.flags["C_CONTIGUOUS"]
        expected = reference.block(new_rows, rows[fetch_cols])
        assert np.allclose(block, expected)

    def test_overlapping_columns_charged_once(self, blob_data, rows):
        """A requested column that is already cached must not be
        computed twice over the new rows."""
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        cache.ensure(np.asarray([2, 4]))
        computed = oracle.counters.entries_computed
        new_rows = np.asarray([20, 26], dtype=np.intp)
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
        new_rows = np.asarray([20, 26], dtype=np.intp)
        cache.extend_rows(new_rows, fetch_cols=np.asarray([2, 9]))
        full_rows = np.concatenate([rows, new_rows])
        for p in (2, 4):
            assert np.allclose(
                cache.peek(p), reference.column(rows[p], rows=full_rows)
            )

    def test_empty_cache_fetch_only(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        reference = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        block = cache.extend_rows(
            np.asarray([20, 26]), fetch_cols=np.asarray([3])
        )
        assert np.allclose(block, reference.block(np.asarray([20, 26]),
                                                  rows[[3]]))
        assert oracle.counters.entries_stored_current == 0

    def test_empty_new_rows(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        block = cache.extend_rows(
            np.asarray([], dtype=np.intp), fetch_cols=np.asarray([3])
        )
        assert block.shape == (0, 1)
        assert cache.extend_rows(np.asarray([], dtype=np.intp)) is None

    def test_cached_columns_fetched_in_admission_order(self, blob_data, rows):
        """The fused block lists the cached columns in the order they
        were admitted (not recency, not row order), then the uncached
        requested ones: a gemm entry's last bits depend on its column's
        place in the block."""
        oracle = make_oracle(blob_data)
        cache = ColumnBlockCache(oracle, rows)
        for p in (6, 2, 8, 4, 1):
            cache.get(p)
        cache.get(6)
        cache.evict(8)
        cache.restrict_rows(np.asarray([1, 2, 4, 6, 9]))
        assert cache.column_ids().tolist() == rows[[2, 4, 1, 6]].tolist()
        calls = []
        columns = oracle.columns

        def spy(js, rows_, **kw):
            calls.append(np.asarray(js).tolist())
            return columns(js, rows_, **kw)

        oracle.columns = spy
        # Positions 4 (row 9, not cached) and 1 (row 2, cached).
        cache.extend_rows(np.asarray([20, 26]), fetch_cols=np.asarray([4, 1]))
        assert calls == [rows[[6, 2, 4, 1, 9]].tolist()]


def _scripted_run(oracle, check_miss=None):
    """Drive a cache through misses, batches, row changes and evictions.

    Every fetch names a member column by its row position.  Calls
    ``check_miss(cache, p, column)`` for every column a ``get`` miss or
    an ``ensure`` batch admits, and returns what the accounting contract
    pins: the oracle counters, the cache's tallies, its LRU order and
    every resident column.
    """
    rows = np.arange(0, 40, 3, dtype=np.intp)
    cache = ColumnBlockCache(oracle, rows)

    c = oracle.counters

    def tallies():
        return (c.entries_computed, c.column_requests, cache.hits, cache.misses)

    def get(p):
        miss = p not in cache
        before = tallies()
        column = cache.get(p).copy()
        step = (cache.n_rows, 1, 0, 1) if miss else (0, 0, 1, 0)
        assert tuple(a - b for a, b in zip(tallies(), before)) == step
        assert c.entries_stored_current == cache.cached_entries()
        if miss and check_miss is not None:
            check_miss(cache, p, column)

    def ensure(ps):
        # A repeated position is a hit, as a get of it would be.
        missing = [p for p in dict.fromkeys(ps) if p not in cache]
        before = tallies()
        cache.ensure(np.asarray(ps, dtype=np.intp))
        k = len(missing)
        step = (k * cache.n_rows, k, len(ps) - k, k)
        assert tuple(a - b for a, b in zip(tallies(), before)) == step
        assert c.entries_stored_current == cache.cached_entries()
        if check_miss is not None:
            for p in missing:
                check_miss(cache, p, cache.peek(p))

    for p in (1, 2, 1, 13, 2, 3, 4):
        get(p)
    ensure([3, 1, 9, 3, 10])
    cache.restrict_rows(np.asarray([0, 2, 3, 5, 7, 9, 10], dtype=np.intp))
    for p in (1, 4, 6, 0, 4):
        get(p)
    ensure([4, 5, 2, 4, 0])
    cache.extend_rows(np.asarray([41, 44, 47], dtype=np.intp))
    for p in (7, 1, 8, 3):
        get(p)
    cache.extend_rows(
        np.asarray([50, 53], dtype=np.intp),
        fetch_cols=np.asarray([7, 2, 9], dtype=np.intp),
    )
    for p in (10, 2, 11, 1, 8, 6, 5):
        get(p)
    ensure([8, 11, 9, 5])
    mru = int(cache.column_ids()[-1])
    cache.evict(int(np.flatnonzero(cache.rows == mru)[0]))
    for p in (9, 6, 10):
        get(p)
    cache.release_all()
    ensure([11, 0, 3, 11])
    for p in (11, 1):
        get(p)
    cache.restrict_rows(np.asarray([1], dtype=np.intp))
    for p in (0, 0):
        get(p)
    lru = cache.column_ids()
    return (
        c.entries_computed,
        c.column_requests,
        c.entries_stored_current,
        c.entries_stored_peak,
        (cache.hits, cache.misses, cache.evictions),
        lru.tolist(),
        [
            cache.peek(int(np.flatnonzero(cache.rows == j)[0])).tobytes()
            for j in lru
        ],
    )


class TestHeldRowBlock:
    """A fetch over the held row block equals the generic block fetch.

    Every column a ``get`` miss or an ``ensure`` batch admits must equal
    both a one-column block fetch and a ``get`` miss over the same rows,
    byte for byte.  For ``ensure`` this pins that NumPy runs a stacked
    ``matmul`` as one matrix-vector product per column.
    """

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

        def check(cache, p, column):
            fresh = AffinityOracle(data, kernel)
            want = fresh.columns(cache.rows[[p]], cache.rows)[:, 0]
            assert column.tobytes() == want.tobytes()
            miss = ColumnBlockCache(AffinityOracle(data, kernel), cache.rows)
            assert column.tobytes() == miss.get(p).tobytes()
            held.append(cache._row_block is not None)

        got = _scripted_run(
            AffinityOracle(data, kernel, budget_entries=budget), check
        )
        generic = AffinityOracle(data, kernel, budget_entries=budget)
        # Every fetch takes the block path, one column at a time.
        generic.row_block = lambda rows: None
        block_path = generic.columns
        generic.columns = lambda js, rows, **kw: np.hstack(
            [block_path(js[c : c + 1], rows, **kw) for c in range(js.size)]
        )
        assert got == _scripted_run(generic)
        assert all(held) if kernel.p == 2.0 else not any(held)
        if budget is not None:
            assert got[4][2] > 0  # the script evicted under the budget

    def test_column_outside_rows_zeroes_nothing(self, blob_data, rows):
        oracle = make_oracle(blob_data)
        held = oracle.row_block(rows)
        column = oracle.columns(np.asarray([45]), rows, row_block=held)[:, 0]
        assert (column > 0.0).all()
        want = make_oracle(blob_data).columns(np.asarray([45]), rows)[:, 0]
        assert column.tobytes() == want.tobytes()
        member = oracle.columns(rows[[2]], rows, row_block=held)[:, 0]
        assert member[2] == 0.0


def _random_script(seed, budget, n_items=60):
    """Drive the cache and the dict-LRU model with one random script.

    Steps: member gets, ``ensure`` batches with repeats, restricts,
    extends (with and without ``fetch_cols``) and releases.  After
    every step the resident ids in LRU order, the tallies and the
    stored entries must agree, and every extend's block fetch must
    list the columns the model predicts, in its order.
    """
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n_items, 5))
    oracle = AffinityOracle(data, LaplacianKernel(k=0.5), budget_entries=budget)
    start = rng.choice(n_items, size=8, replace=False)
    cache = ColumnBlockCache(oracle, start)
    model = LRUColumnModel(start.tolist(), budget)
    calls = []
    columns = oracle.columns

    def spy(js, rows, **kw):
        calls.append(np.asarray(js).tolist())
        return columns(js, rows, **kw)

    oracle.columns = spy
    kinds = []
    for _ in range(120):
        m = cache.n_rows
        kind = rng.choice(
            ["get", "get", "get", "ensure", "restrict", "extend", "release"],
            p=[0.2, 0.2, 0.2, 0.15, 0.1, 0.1, 0.05],
        )
        if kind == "get":
            p = int(rng.integers(m))
            cache.get(p)
            model.get(model.rows[p])
        elif kind == "ensure":
            ps = rng.integers(m, size=int(rng.integers(1, 3))).tolist()
            ps += ps[: int(rng.integers(0, 2))]  # maybe repeat one
            cache.ensure(np.asarray(ps))
            model.ensure([model.rows[p] for p in ps])
        elif kind == "restrict" and m > 3:
            keep = np.sort(rng.choice(m, size=int(rng.integers(2, m)), replace=False))
            cache.restrict_rows(keep)
            model.restrict([model.rows[p] for p in keep])
        elif kind == "extend" and m < 14:
            fresh = np.setdiff1d(np.arange(n_items), cache.rows)
            new = rng.choice(fresh, size=int(rng.integers(1, 4)), replace=False)
            fetch = None
            if rng.random() < 0.6:
                k = int(rng.integers(1, min(m, 4) + 1))
                fetch = rng.choice(m, size=k, replace=False)
            calls.clear()
            got = cache.extend_rows(new, fetch_cols=fetch)
            want = model.extend(
                new.tolist(), [] if fetch is None else [model.rows[p] for p in fetch]
            )
            assert calls == ([want] if want else [])
            if fetch is not None:
                assert got.shape == (new.size, fetch.size)
        elif kind == "release":
            cache.release_all()
            model.release()
        else:
            continue
        kinds.append(str(kind))
        assert cache.rows.tolist() == model.rows
        assert cache.column_ids().tolist() == list(model.use), kind
        assert (cache.hits, cache.misses, cache.evictions) == (
            model.hits,
            model.misses,
            model.evictions,
        ), kind
        assert oracle.counters.entries_stored_current == model.stored, kind
    return kinds, model


class TestMatchesDictModel:
    """The position-keyed cache keeps the id-keyed dict-LRU policy."""

    # 40 entries hold 2-5 columns of the script's 8-16 rows; an ensure
    # asks for at most 2 distinct columns, so no step exceeds it.
    @pytest.mark.parametrize("budget", [None, 40])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_script(self, seed, budget):
        kinds, model = _random_script(seed, budget)
        assert {"get", "ensure", "restrict", "extend"} <= set(kinds)
        if budget is not None:
            assert model.evictions > 0
