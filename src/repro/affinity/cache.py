"""Matrix-backed LRU cache of affinity columns for the LID hot path.

The LID dynamics repeatedly need affinity columns ``A[beta, j]`` (paper
Fig. 3's green columns).  The original implementation kept them in a
``dict[int, ndarray]``, which costs one oracle round-trip per column and
one Python-level concatenate per local-range change.  This cache keeps
every cached column as one row of a single 2-D buffer, so

* a miss in :meth:`ColumnBlockCache.get` evaluates only ``A[rows, j]``:
  the cache holds the row block ``data[rows]`` and its squared norms
  from the row set's first miss
  (:meth:`~repro.affinity.oracle.AffinityOracle.row_block`), so each
  miss is one matrix-vector product plus elementwise steps in the
  oracle's single-column branch of
  :meth:`~repro.affinity.oracle.AffinityOracle.columns`, bit-identical
  to a block fetch of that column, admitted into one slot;
* a batch of missing columns (:meth:`ColumnBlockCache.ensure`) is
  fetched with **one** BLAS-backed block evaluation,
* a local-range restriction is **one** fancy-index over the buffer, and
* a local-range extension fetches the new rows of *every* cached column
  with one block call instead of one oracle call per column.

Storage is charged to the owning oracle's simulated-memory accounting
exactly as before (the held row block is data, not affinity storage,
and is charged nothing).  When the oracle has a ``budget_entries`` cap,
the cache **evicts least-recently-used columns** instead of dying:
columns are dropped (and their storage released) until the new charge
fits.  Only when nothing evictable remains does the oracle's
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
    """LRU cache of affinity columns ``A[rows, j]`` over a row set.

    Parameters
    ----------
    oracle:
        The instrumented affinity oracle; all kernel work and storage
        accounting flows through it.
    rows:
        Global indices of the current row set (the LID local range
        ``beta``).  Must already be validated by the caller; the cache
        trusts it on every fetch (hot path).
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
        # Buffer rows are cache slots; _buf[slot] is column j over `rows`.
        self._buf = np.empty((0, self.rows.size), dtype=np.float64)
        self._slot_of: dict[int, int] = {}
        self._free: list[int] = []
        # Insertion order tracks recency: first key = least recently used.
        self._use: dict[int, None] = {}
        # The oracle's row operand for single-column misses over `rows`,
        # gathered by the first miss and dropped when `rows` changes
        # (None for a kernel without a single-column branch).
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
        return len(self._slot_of)

    def cached_entries(self) -> int:
        """Affinity entries currently held (rows x columns)."""
        return self.n_rows * self.n_columns

    def column_ids(self) -> np.ndarray:
        """Cached global column indices, least recently used first."""
        return np.fromiter(self._use, dtype=np.intp, count=len(self._use))

    def __contains__(self, j: int) -> bool:
        return int(j) in self._slot_of

    def slot_index(self, j: int) -> int:
        """Buffer slot of cached column *j* (KeyError when not resident)."""
        return self._slot_of[int(j)]

    def resident_view(self) -> tuple[np.ndarray, np.ndarray]:
        """The backing matrix plus a row-position → slot map.

        The contract behind the run-until-miss LID loop
        (:func:`repro.dynamics.lid_kernel.run_fused`): returns
        ``(buf, slots)`` where ``buf[slots[p]]`` is the cached column
        ``A[rows, rows[p]]`` and ``slots[p] < 0`` marks a non-resident
        column.
        Cached columns whose id is not a member of ``rows`` (possible
        for generic callers) simply do not appear in the map.

        The view is **invalidated by any cache mutation**: an admit may
        grow (reallocate) the buffer, an eviction frees a slot for
        reuse, and row-set changes reshape everything.  Callers must
        re-request the view afterwards; as a fast path, an admit that
        neither evicted nor reallocated (buffer identity unchanged and
        ``n_columns`` grew by exactly one) only adds the new column's
        ``slot_index`` entry.
        """
        m = self.n_rows
        buf = self._buf if self._buf.shape[1] == m else self._buf[:, :m]
        slots = np.full(m, -1, dtype=np.int64)
        if self._slot_of:
            count = len(self._slot_of)
            js = np.fromiter(self._slot_of.keys(), np.intp, count)
            taken = np.fromiter(self._slot_of.values(), np.intp, count)
            sorter = np.argsort(self.rows, kind="stable")
            idx = np.searchsorted(self.rows, js, sorter=sorter)
            idx[idx >= m] = 0
            positions = sorter[idx]
            member = self.rows[positions] == js
            slots[positions[member]] = taken[member]
        return buf, slots

    def touch_sequence(self, js) -> None:
        """Replay accesses: mark each column in *js* most recently used.

        The batched form of the per-:meth:`get` recency update, used by
        the run-until-miss LID kernels to restore the exact LRU order
        the reference loop would have produced before anything (an
        eviction decision, a later run) reads it.  Non-resident ids are
        ignored — a recorded hit can refer to a column that a later
        miss already evicted, and touching it must not resurrect a
        phantom entry.
        """
        use = self._use
        slot_of = self._slot_of
        hits = 0
        for j in js:
            j = int(j)
            if j in slot_of:
                hits += 1
                use.pop(j, None)
                use[j] = None
        self.hits += hits

    # ------------------------------------------------------------------
    # lookup / fetch
    # ------------------------------------------------------------------
    def peek(self, j: int) -> np.ndarray | None:
        """Cached column *j* without fetching or touching recency.

        Returns an owned copy (safe to hold); inspection is off the hot
        path, so the allocation is irrelevant.
        """
        slot = self._slot_of.get(int(j))
        if slot is None:
            return None
        return self._buf[slot, : self.n_rows].copy()

    def get(self, j: int) -> np.ndarray:
        """Column ``A[rows, j]``, evaluated through the oracle on a miss.

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
        j = int(j)
        slot = self._slot_of.get(j)
        if slot is None:
            self.misses += 1
            if self._row_block is None:
                self._row_block = self.oracle.row_block(self.rows)
            column = self.oracle.columns(
                np.asarray([j], dtype=np.intp),
                self.rows,
                assume_valid=True,
                row_block=self._row_block,
            )
            self._admit([j], column.T)
            slot = self._slot_of[j]
        else:
            self.hits += 1
            self._touch(j)
        return self._buf[slot, : self.n_rows]

    def ensure(self, js: np.ndarray) -> None:
        """Make every column in *js* resident, batching the misses.

        All missing columns are computed with a single oracle block
        call, charged to storage in one transaction (after any LRU
        eviction needed to make room).
        """
        js = np.asarray(js, dtype=np.intp)
        missing = [int(j) for j in js if int(j) not in self._slot_of]
        self.misses += len(missing)
        self.hits += int(js.size) - len(missing)
        if missing:
            # dict.fromkeys: dedup while preserving order.
            missing = list(dict.fromkeys(missing))
            block = self.oracle.columns(
                np.asarray(missing, dtype=np.intp),
                self.rows,
                assume_valid=True,
            )
            self._admit(missing, block.T)
        for j in js:
            # Only resident columns enter the recency order (making room
            # under the budget may have evicted a column this batch hit).
            if int(j) in self._slot_of:
                self._touch(int(j))

    # ------------------------------------------------------------------
    # row-set maintenance (the beta <- alpha / beta <- alpha U psi steps)
    # ------------------------------------------------------------------
    def restrict_rows(self, positions: np.ndarray) -> None:
        """Shrink the row set to ``rows[positions]`` (one fancy-index).

        Cached columns survive with their surviving rows; the freed
        entries are released from the storage accounting.
        """
        positions = np.asarray(positions, dtype=np.intp)
        old_rows = self.n_rows
        freed = (old_rows - positions.size) * self.n_columns
        if self.n_columns:
            # Compact used slots while slicing, so the buffer does not
            # drag free slots along.
            js = list(self._slot_of)
            slots = np.asarray([self._slot_of[j] for j in js], dtype=np.intp)
            self._buf = self._buf[slots][:, positions]
            self._slot_of = {j: pos for pos, j in enumerate(js)}
            self._free = []
        else:
            # Keep the slot capacity: stale slot indices in _free must
            # stay addressable or the next admit writes out of bounds.
            self._buf = np.empty(
                (self._buf.shape[0], positions.size), dtype=np.float64
            )
            self._free = list(range(self._buf.shape[0]))
        self.rows = self.rows[positions]
        self._row_block = None
        if freed:
            self.oracle.release_stored(freed)

    def extend_rows(
        self,
        new_rows: np.ndarray,
        fetch_cols: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Append *new_rows* to the row set, extending cached columns.

        The new entries of every cached column come from one oracle
        block call.  Under a storage budget, least-recently-used columns
        are evicted outright (cheaper than extending them) until the
        extension fits.

        Parameters
        ----------
        new_rows:
            Global indices joining the row set (the CIVS psi set).
        fetch_cols:
            Optional global column indices the caller needs evaluated
            over *new_rows* — for the LID extend step (paper Eq. 17)
            these are the support columns ``alpha`` whose block
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
            ``A[new_rows, fetch_cols]`` (an owned array) when
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
        budget = self.oracle.headroom()
        if budget is not None:
            # Evict whole LRU columns until the per-column extension fits.
            while self.n_columns and (
                self.n_columns * new_rows.size > self.oracle.headroom()
            ):
                self.evict(next(iter(self._use)))
        cached_js = list(self._slot_of)
        all_js = np.asarray(cached_js, dtype=np.intp)
        if fetch_cols is not None and fetch_cols.size:
            extra = (
                fetch_cols[np.isin(fetch_cols, all_js, invert=True)]
                if all_js.size
                else fetch_cols
            )
            all_js = np.concatenate([all_js, extra])
        fetched: np.ndarray | None = None
        if all_js.size:
            block = self.oracle.columns(all_js, new_rows, assume_valid=True)
            if cached_js:
                extension = block[:, : len(cached_js)]
                self.oracle.charge_stored(extension.size)
                old_n = self.n_rows
                slots = np.asarray(
                    [self._slot_of[j] for j in cached_js], dtype=np.intp
                )
                new_buf = np.empty(
                    (self._buf.shape[0], old_n + new_rows.size),
                    dtype=np.float64,
                )
                new_buf[:, :old_n] = self._buf
                new_buf[slots, old_n:] = extension.T
                self._buf = new_buf
            else:
                self._buf = np.empty(
                    (self._buf.shape[0], self.n_rows + new_rows.size),
                    dtype=np.float64,
                )
            if fetch_cols is not None:
                position = {int(j): p for p, j in enumerate(all_js)}
                fetched = block[
                    :, [position[int(j)] for j in fetch_cols]
                ].copy()
        else:
            self._buf = np.empty(
                (self._buf.shape[0], self.n_rows + new_rows.size),
                dtype=np.float64,
            )
            if fetch_cols is not None:
                fetched = np.empty(
                    (new_rows.size, 0), dtype=np.float64
                )
        self.rows = np.concatenate([self.rows, new_rows])
        self._row_block = None
        return fetched

    # ------------------------------------------------------------------
    # eviction / release
    # ------------------------------------------------------------------
    def evict(self, j: int) -> None:
        """Drop one cached column and release its storage."""
        j = int(j)
        slot = self._slot_of.pop(j)
        self._use.pop(j, None)
        self._free.append(slot)
        self.evictions += 1
        self.oracle.release_stored(self.n_rows)

    def release_all(self) -> None:
        """Drop every cached column (cluster peeled, paper §4.5)."""
        entries = self.cached_entries()
        self._slot_of.clear()
        self._use.clear()
        self._free = list(range(self._buf.shape[0]))
        if entries:
            self.oracle.release_stored(entries)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _touch(self, j: int) -> None:
        self._use.pop(j, None)
        self._use[j] = None

    def _admit(self, js: list[int], columns: np.ndarray) -> None:
        """Insert freshly computed columns (rows of *columns*) as a batch."""
        needed = len(js) * self.n_rows
        self._make_room(needed)
        self.oracle.charge_stored(needed)
        for j, column in zip(js, columns):
            slot = self._take_slot()
            self._buf[slot, : self.n_rows] = column
            self._slot_of[j] = slot
            self._touch(j)

    def _make_room(self, needed: int) -> None:
        """Evict LRU columns until *needed* new entries fit the budget."""
        if self.oracle.headroom() is None:
            return
        while self.n_columns and needed > self.oracle.headroom():
            self.evict(next(iter(self._use)))

    def _take_slot(self) -> int:
        if self._free:
            return self._free.pop()
        # Grow the slot buffer geometrically.
        old_capacity = self._buf.shape[0]
        new_capacity = max(4, 2 * old_capacity)
        grown = np.empty((new_capacity, self._buf.shape[1]), dtype=np.float64)
        grown[:old_capacity] = self._buf
        self._buf = grown
        self._free.extend(range(old_capacity + 1, new_capacity))
        return old_capacity
