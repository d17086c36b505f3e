"""Matrix-backed LRU cache of affinity columns for the LID hot path.

The LID dynamics repeatedly need affinity columns ``A[beta, j]`` (paper
Fig. 3's green columns), and the selected vertex ``j`` is always a
member of ``beta``.  The cache is therefore keyed by **row position**:
the column of ``rows[p]`` lives in buffer row ``slots[p]`` of a single
2-D buffer (``-1`` marks a column that is not resident), so

* a miss in :meth:`ColumnBlockCache.get` evaluates only ``A[rows, j]``,
  and a batch of missing columns (:meth:`ColumnBlockCache.ensure`, the
  streaming tier's prefetch of a whole local range) only those columns:
  the cache holds the row block ``data[rows]`` and its squared norms
  from the row set's first fetch
  (:meth:`~repro.affinity.oracle.AffinityOracle.row_block`), and the
  oracle's held-block branch of
  :meth:`~repro.affinity.oracle.AffinityOracle.columns` evaluates each
  column on it as one matrix-vector product plus elementwise steps,
  bit-identical to a block fetch of that column alone, so a prefetched
  column equals the miss it replaces; a fetch is admitted with one
  buffer write,
* a local-range restriction is **one** fancy-index over the buffer, and
  drops the columns of the rows it removes (paper §4.5: a vertex that
  leaves ``beta`` takes its column with it), and
* a local-range extension fetches the new rows of *every* cached column
  with one block call instead of one oracle call per column.

Recency is two per-slot stamps drawn from one counter: ``last_use``
(every admit, hit and :meth:`~ColumnBlockCache.ensure` id takes a fresh
stamp) and ``admitted``.  The fused LID loop
(:func:`repro.dynamics.lid_kernel.run_fused`) reads ``slots`` and
writes ``last_use`` directly, one list store per period.

Storage is charged to the owning oracle's simulated-memory accounting
(the held row block is data, not affinity storage, and is charged
nothing).  When the oracle has a ``budget_entries`` cap, the cache
**evicts the least-recently-used column** (smallest ``last_use``)
instead of dying: columns are dropped (and their storage released)
until the new charge fits, and only these drops count as
``evictions``.  Only when nothing evictable remains does the oracle's
:class:`~repro.exceptions.BudgetExceededError` surface — the same
bounded-memory contract as the paper's §4.5 release discipline, but
enforced continuously rather than only at cluster peeling.

Row extension is *fused*: :meth:`ColumnBlockCache.extend_rows` can
evaluate caller-requested columns (the Eq. 17 payoff block over the new
rows) inside the same oracle block call that extends the cached
columns, so overlapping entries are charged exactly once.  This is the
cache's accounting-neutral prefetch policy: only entries with a proven
immediate use are ever computed.
"""

from __future__ import annotations

import numpy as np

from repro.affinity.oracle import AffinityOracle

__all__ = ["ColumnBlockCache"]


class ColumnBlockCache:
    """LRU cache of affinity columns ``A[rows, rows[p]]`` over a row set.

    Parameters
    ----------
    oracle:
        The instrumented affinity oracle; all kernel work and storage
        accounting flows through it.
    rows:
        Global indices of the current row set (the LID local range
        ``beta``), distinct.  Must already be validated by the caller;
        the cache trusts it on every fetch (hot path).

    Every column is named by its position ``p`` in ``rows``.
    ``buf[slots[p]]`` is the column of ``rows[p]`` when ``slots[p] >= 0``.
    Admits and evictions update ``slots``, ``last_use`` and ``admitted``
    in place; a row-set change replaces them, and any fetch may
    replace ``buf``.
    """

    def __init__(self, oracle: AffinityOracle, rows: np.ndarray):
        self.oracle = oracle
        self.rows = np.asarray(rows, dtype=np.intp)
        # Telemetry tallies (plain ints — zero overhead when nobody
        # reads them).  The fit-phase profiler drains them per cluster
        # at :meth:`~repro.dynamics.lid.LIDState.release` time.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Buffer rows are cache slots; buf[slots[p]] is the column of
        # rows[p] over `rows`.  Each slot is resident or in _free.
        self.buf = np.empty((0, self.rows.size), dtype=np.float64)
        self.slots = np.full(self.rows.size, -1, dtype=np.int64)
        self._free: list[int] = []
        # Per-slot stamps from the one counter `clock` (the next stamp).
        self.last_use: list[int] = []
        self.admitted: list[int] = []
        self.clock = 0
        # The oracle's row operand for column fetches over `rows`,
        # gathered by the first fetch and dropped when `rows` changes
        # (None for a kernel without a held-block branch).
        self._row_block: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Length of every cached column (the local-range size)."""
        return int(self.rows.size)

    @property
    def n_columns(self) -> int:
        """Number of columns currently cached."""
        return self.buf.shape[0] - len(self._free)

    def cached_entries(self) -> int:
        """Affinity entries currently held (rows x columns)."""
        return self.n_rows * self.n_columns

    def column_ids(self) -> np.ndarray:
        """Cached global column indices, least recently used first."""
        return self.rows[self._by_stamp(self.last_use)]

    def __contains__(self, p: int) -> bool:
        return bool(self.slots[p] >= 0)

    # ------------------------------------------------------------------
    # lookup / fetch
    # ------------------------------------------------------------------
    def peek(self, p: int) -> np.ndarray | None:
        """Cached column of ``rows[p]`` without fetching or touching recency.

        Returns an owned copy (safe to hold); inspection is off the hot
        path, so the allocation is irrelevant.
        """
        slot = int(self.slots[p])
        return None if slot < 0 else self.buf[slot].copy()

    def get(self, p: int) -> np.ndarray:
        """Column ``A[rows, rows[p]]``, evaluated through the oracle on a miss.

        A miss computes only this column, from the row block held for
        the current row set, and admits it into one slot (evicting LRU
        columns first when the budget needs room).

        Returns a **view into the slot buffer** — valid only until the
        next cache operation (a later fetch may evict this column and
        reuse its slot, silently rewriting the view's contents).  The
        hot path consumes the column immediately, which is why this is
        allocation-free; callers holding a column across cache activity
        must copy it.
        """
        slot = int(self.slots[p])
        if slot < 0:
            self.misses += 1
            self._fetch([p])
            slot = int(self.slots[p])
        else:
            self.hits += 1
            self.last_use[slot] = self.clock
            self.clock += 1
        return self.buf[slot]

    def ensure(self, positions: np.ndarray) -> None:
        """Make the column of every row position in *positions* resident.

        All missing columns are computed with one oracle call over the
        held row block, each bit-identical to a :meth:`get` miss of it,
        and charged to storage in one transaction (after any LRU
        eviction needed to make room).  When that evicts nothing, the
        tallies and the recency order are those of calling :meth:`get`
        on each position in turn: a repeated position is a hit.
        """
        positions = np.asarray(positions, dtype=np.intp)
        # dict.fromkeys: dedup while preserving order.
        absent = positions[self.slots[positions] < 0]
        missing = list(dict.fromkeys(absent.tolist()))
        self.misses += len(missing)
        self.hits += positions.size - len(missing)
        if missing:
            self._fetch(missing)
        last_use = self.last_use
        for slot in self.slots[positions].tolist():
            # Only resident columns take a stamp (making room under the
            # budget may have evicted a column this batch hit).
            if slot >= 0:
                last_use[slot] = self.clock
                self.clock += 1

    # ------------------------------------------------------------------
    # row-set maintenance (the beta <- alpha / beta <- alpha U psi steps)
    # ------------------------------------------------------------------
    def restrict_rows(self, positions: np.ndarray) -> None:
        """Shrink the row set to ``rows[positions]`` (one fancy-index).

        Columns of kept rows survive with their kept entries; the
        columns of removed rows are dropped (not counted as evictions)
        and every freed entry is released from the storage accounting.
        """
        positions = np.asarray(positions, dtype=np.intp)
        freed = self.cached_entries()
        kept = self.slots[positions]
        held = kept >= 0
        old = kept[held]
        # Compact the kept slots while slicing, so the buffer does not
        # drag free slots along.
        self.buf = self.buf[old][:, positions]
        self.last_use = [self.last_use[s] for s in old.tolist()]
        self.admitted = [self.admitted[s] for s in old.tolist()]
        kept[held] = np.arange(old.size)
        self.slots = kept
        self._free = []
        self.rows = self.rows[positions]
        self._row_block = None
        freed -= self.cached_entries()
        if freed:
            self.oracle.release_stored(freed)

    def extend_rows(
        self,
        new_rows: np.ndarray,
        fetch_cols: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Append *new_rows* to the row set, extending cached columns.

        The new entries of every cached column come from one oracle
        block call, which lists the cached columns in the order they
        were admitted: a gemm entry's last bits depend on its column's
        place in the block.  Under a storage budget, least-recently-used
        columns are evicted outright (cheaper than extending them) until
        the extension fits.

        Parameters
        ----------
        new_rows:
            Global indices joining the row set (the CIVS psi set),
            distinct and not already rows.
        fetch_cols:
            Optional row positions whose columns the caller needs
            evaluated over *new_rows* — for the LID extend step (paper
            Eq. 17) these are the support positions, whose block
            ``A[new_rows, alpha]`` yields the new payoff entries
            ``g_psi``.  They are fused into the **same** oracle block
            call that extends the cached columns, so entries of columns
            that are both cached and requested are computed (and
            charged) exactly once instead of twice.  This is the
            accounting-neutral prefetch policy: no speculative entry is
            ever computed — the fused fetch covers only entries with a
            proven immediate use — and ``entries_computed`` can only
            shrink relative to issuing the two fetches separately.

        Returns
        -------
        numpy.ndarray or None
            ``A[new_rows, rows[fetch_cols]]`` (an owned array) when
            *fetch_cols* is given, else None.  Requested columns are
            *not* admitted to the cache; only their *new_rows* entries
            are evaluated, as transient work.
        """
        new_rows = np.asarray(new_rows, dtype=np.intp)
        if fetch_cols is not None:
            fetch_cols = np.asarray(fetch_cols, dtype=np.intp)
        if new_rows.size == 0:
            if fetch_cols is not None:
                return np.empty((0, fetch_cols.size), dtype=np.float64)
            return None
        if self.oracle.headroom() is not None:
            # Evict whole LRU columns until the per-column extension fits.
            while self.n_columns and (
                self.n_columns * new_rows.size > self.oracle.headroom()
            ):
                self._evict_lru()
        cached = self._by_stamp(self.admitted)
        cols = cached
        if fetch_cols is not None:
            extra = fetch_cols[self.slots[fetch_cols] < 0]
            cols = np.concatenate([cached, extra])
        old_n = self.n_rows
        grown = np.empty(
            (self.buf.shape[0], old_n + new_rows.size), dtype=np.float64
        )
        grown[:, :old_n] = self.buf
        fetched: np.ndarray | None = None
        if cols.size:
            block = self.oracle.columns(
                self.rows[cols], new_rows, assume_valid=True
            )
            if cached.size:
                self.oracle.charge_stored(cached.size * new_rows.size)
                grown[self.slots[cached], old_n:] = block[:, : cached.size].T
            if fetch_cols is not None:
                where = {p: c for c, p in enumerate(cols.tolist())}
                # The copy is C-ordered (the fancy index is not): the
                # caller's payoff product rounds by layout.
                fetched = block[
                    :, [where[p] for p in fetch_cols.tolist()]
                ].copy()
        elif fetch_cols is not None:
            fetched = np.empty((new_rows.size, 0), dtype=np.float64)
        self.buf = grown
        self.slots = np.concatenate(
            [self.slots, np.full(new_rows.size, -1, dtype=np.int64)]
        )
        self.rows = np.concatenate([self.rows, new_rows])
        self._row_block = None
        return fetched

    # ------------------------------------------------------------------
    # eviction / release
    # ------------------------------------------------------------------
    def evict(self, p: int) -> None:
        """Drop the cached column of ``rows[p]`` and release its storage."""
        slot = int(self.slots[p])
        if slot < 0:
            raise KeyError(p)
        self.slots[p] = -1
        self._free.append(slot)
        self.evictions += 1
        self.oracle.release_stored(self.n_rows)

    def release_all(self) -> None:
        """Drop every cached column (cluster peeled, paper §4.5)."""
        entries = self.cached_entries()
        self.slots.fill(-1)
        self._free = list(range(self.buf.shape[0]))
        if entries:
            self.oracle.release_stored(entries)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _by_stamp(self, stamps: list[int]) -> np.ndarray:
        """Resident row positions, smallest of *stamps* first."""
        resident = np.flatnonzero(self.slots >= 0)
        held = np.asarray(stamps, dtype=np.int64)[self.slots[resident]]
        return resident[held.argsort()]

    def _evict_lru(self) -> None:
        self.evict(int(self._by_stamp(self.last_use)[0]))

    def _fetch(self, positions: list[int]) -> None:
        """Evaluate the non-resident columns at *positions* and admit them."""
        if self._row_block is None:
            self._row_block = self.oracle.row_block(self.rows)
        block = self.oracle.columns(
            self.rows[positions],
            self.rows,
            assume_valid=True,
            row_block=self._row_block,
        )
        self._admit(positions, block.T)

    def _admit(self, positions: list[int], columns: np.ndarray) -> None:
        """Insert freshly computed columns (rows of *columns*) as a batch."""
        needed = len(positions) * self.n_rows
        self._make_room(needed)
        self.oracle.charge_stored(needed)
        free = self._free
        short = len(positions) - len(free)
        if short > 0:
            # Grow the slot buffer geometrically, once for the batch.
            old = self.buf.shape[0]
            grown = np.empty(
                (max(4, 2 * old, old + short), self.buf.shape[1]),
                dtype=np.float64,
            )
            grown[:old] = self.buf
            self.buf = grown
            free.extend(range(grown.shape[0] - 1, old - 1, -1))
            # In place: the fused loop holds these lists across a miss.
            self.last_use.extend([0] * (grown.shape[0] - old))
            self.admitted.extend([0] * (grown.shape[0] - old))
        cut = len(free) - len(positions)
        taken = free[cut:]
        del free[cut:]
        # One write for the batch.  A lone column (every LID miss) takes
        # the basic index, a fifth of the fancy index's cost.
        self.buf[taken[0] if len(taken) == 1 else taken] = columns
        self.slots[positions] = taken
        for slot in taken:
            self.admitted[slot] = self.last_use[slot] = self.clock
            self.clock += 1

    def _make_room(self, needed: int) -> None:
        """Evict LRU columns until *needed* new entries fit the budget."""
        if self.oracle.headroom() is None:
            return
        while self.n_columns and needed > self.oracle.headroom():
            self._evict_lru()
