"""Instrumented affinity oracle.

Every clustering method in this repository — ALID and all baselines —
obtains affinity (and distance) values exclusively through an
:class:`AffinityOracle`.  The oracle counts

* ``entries_computed`` — total kernel evaluations performed ("work", the
  paper's runtime driver), and
* ``entries_stored_peak`` — the largest number of matrix entries held
  simultaneously ("space", the paper's memory driver),

which lets the benchmark harness reproduce the runtime/memory curves of
Figs. 6, 7 and 9 deterministically (see DESIGN.md §2, accounting row).

An optional storage *budget* emulates the paper's 12 GB RAM cap: methods
that try to hold too many entries at once raise
:class:`~repro.exceptions.BudgetExceededError`, mirroring the paper's
"experiments are stopped when the 12GB RAM limit is reached".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.affinity.kernel import LaplacianKernel, pairwise_distances
from repro.exceptions import (
    AccountingError,
    BudgetExceededError,
    ValidationError,
)
from repro.utils.validation import check_data_matrix, check_index_array

__all__ = ["AffinityCounters", "AffinityOracle"]

_BYTES_PER_ENTRY = 8  # float64


@dataclass
class AffinityCounters:
    """Mutable counters shared by everything touching one oracle."""

    entries_computed: int = 0
    entries_stored_current: int = 0
    entries_stored_peak: int = 0
    column_requests: int = 0
    block_requests: int = 0

    def charge(self, computed: int, stored_delta: int = 0) -> None:
        """Record *computed* kernel evaluations and a storage change."""
        self.entries_computed += int(computed)
        self.entries_stored_current += int(stored_delta)
        if self.entries_stored_current > self.entries_stored_peak:
            self.entries_stored_peak = self.entries_stored_current

    def release(self, n_entries: int) -> None:
        """Record that *n_entries* stored entries were freed.

        Raises
        ------
        AccountingError
            If the release would drive the stored count negative — more
            entries released than were ever charged, which means a
            double-release or cache-eviction bug somewhere upstream.
        """
        n_entries = int(n_entries)
        if n_entries > self.entries_stored_current:
            raise AccountingError(
                f"release({n_entries}) underflows the storage accounting: "
                f"only {self.entries_stored_current} entries are held"
            )
        self.entries_stored_current -= n_entries

    @property
    def peak_memory_bytes(self) -> int:
        """Peak simulated memory of stored affinity entries."""
        return self.entries_stored_peak * _BYTES_PER_ENTRY

    @property
    def peak_memory_mb(self) -> float:
        """Peak simulated memory in megabytes."""
        return self.peak_memory_bytes / 1e6

    def snapshot(self) -> "AffinityCounters":
        """Return an immutable-by-convention copy of the current counts."""
        return AffinityCounters(
            entries_computed=self.entries_computed,
            entries_stored_current=self.entries_stored_current,
            entries_stored_peak=self.entries_stored_peak,
            column_requests=self.column_requests,
            block_requests=self.block_requests,
        )

    def reset(self) -> None:
        """Zero every counter."""
        self.entries_computed = 0
        self.entries_stored_current = 0
        self.entries_stored_peak = 0
        self.column_requests = 0
        self.block_requests = 0


@dataclass
class AffinityOracle:
    """Instrumented access to the (never fully materialised) affinity matrix.

    Parameters
    ----------
    data:
        Data matrix of shape ``(n, d)``; rows are items (paper's ``V``).
    kernel:
        The Laplacian kernel of Eq. 1.
    budget_entries:
        Optional cap on simultaneously stored entries.  Exceeding it raises
        :class:`BudgetExceededError` (used by the Fig. 9 experiment).

    Notes
    -----
    The oracle itself stores nothing except the raw data; *callers* own the
    arrays it returns and must declare long-lived storage with
    :meth:`charge_stored` / :meth:`release_stored`.  Transient reads (a
    column consumed and discarded inside one iteration) only count as work.
    """

    data: np.ndarray
    kernel: LaplacianKernel
    budget_entries: int | None = None
    counters: AffinityCounters = field(default_factory=AffinityCounters)

    def __post_init__(self) -> None:
        self.data = check_data_matrix(self.data)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of data items."""
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        """Feature dimensionality."""
        return self.data.shape[1]

    # ------------------------------------------------------------------
    # affinity access (each call charges `entries_computed`)
    # ------------------------------------------------------------------
    def column(self, j: int, rows: np.ndarray | None = None) -> np.ndarray:
        """Affinity column ``A[rows, j]`` (paper Fig. 3's green column).

        ``rows`` defaults to all items.  The diagonal convention
        ``a_jj = 0`` is honoured whenever ``j`` appears in *rows*.
        """
        if not 0 <= j < self.n:
            raise IndexError(f"column index {j} out of range [0, {self.n})")
        if rows is None:
            rows = np.arange(self.n, dtype=np.intp)
        else:
            rows = check_index_array(rows, self.n, name="rows")
        dists = pairwise_distances(
            self.data[rows], self.data[j][None, :], p=self.kernel.p
        )[:, 0]
        col = self.kernel.affinity_from_distance(dists, out=dists)
        col[rows == j] = 0.0
        self.counters.column_requests += 1
        self.counters.charge(computed=len(rows))
        return col

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Affinity block ``A[rows, cols]`` with the zero-diagonal rule."""
        rows = check_index_array(rows, self.n, name="rows")
        cols = check_index_array(cols, self.n, name="cols")
        dists = pairwise_distances(self.data[rows], self.data[cols], p=self.kernel.p)
        out = self.kernel.affinity_from_distance(dists, out=dists)
        same = rows[:, None] == cols[None, :]
        out[same] = 0.0
        self.counters.block_requests += 1
        self.counters.charge(computed=out.size)
        return out

    def columns(
        self,
        js: np.ndarray,
        rows: np.ndarray,
        *,
        assume_valid: bool = False,
        row_block: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Batched affinity columns ``A[rows, js]`` in one kernel block.

        The BLAS-backed batch form of :meth:`column`: one
        ``(len(rows), len(js))`` evaluation replaces ``len(js)``
        separate column calls, with identical work accounting (each
        entry is charged exactly once, and every requested column still
        counts as a column request).

        ``assume_valid=True`` skips index validation for trusted callers
        on the hot path (the LID column cache validates its row set once
        at construction).

        ``row_block`` is what :meth:`row_block` returned for the same
        *rows*, held by a caller that evaluates many single columns over
        one row set (the LID column cache's misses).  A single column
        then runs on that block: one ``(m, d) @ (d, 1)`` product and the
        elementwise steps of the p = 2 distance, with neither the row
        gather nor the row norms of the block path.  Every step is the
        one the block path performs on the same operand shapes, so the
        column is bit-identical to ``columns([j], rows)``.
        """
        if not assume_valid:
            js = check_index_array(js, self.n, name="js")
            rows = check_index_array(rows, self.n, name="rows")
        if row_block is not None and js.size == 1:
            out = self._column_from_rows(int(js[0]), rows, *row_block)
        else:
            dists = pairwise_distances(
                self.data[rows], self.data[js], p=self.kernel.p
            )
            out = self.kernel.affinity_from_distance(dists, out=dists)
            same = rows[:, None] == js[None, :]
            out[same] = 0.0
        self.counters.column_requests += len(js)
        self.counters.charge(computed=out.size)
        return out

    def row_block(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The row operand of repeated single-column evaluations.

        ``(data[rows], squared norms of those rows)`` for the paper's
        p = 2 kernel, to pass to :meth:`columns` as ``row_block`` while
        the row set stays *rows*; None for other norms, whose columns
        always take the block path.  The block is data, not affinity
        storage: holding it charges nothing.
        """
        if self.kernel.p != 2.0:
            return None
        return self.data[rows], self._sqnorms[rows]

    @cached_property
    def _sqnorms(self) -> np.ndarray:
        """Squared norm of every item, computed on first use.

        The ``xx``/``yy`` einsum of :func:`pairwise_distances` (p = 2).
        Each row's sum runs on its own, so a row's norm has the same bits
        here as in any gathered block, which keeps a held-block column
        bit-identical to a block fetch of it.
        """
        return np.einsum("ij,ij->i", self.data, self.data)

    def _column_from_rows(
        self, j: int, rows: np.ndarray, x: np.ndarray, xx: np.ndarray
    ) -> np.ndarray:
        """``A[rows, j]`` as an ``(m, 1)`` array from a held row block.

        :func:`~repro.affinity.kernel.pairwise_distances`' p = 2 steps
        for one column, ``(xx + yy) - 2 x y'``, clip, sqrt, then the
        kernel's ``exp(-k d)`` and the zeroed self entry.
        """
        y = self.data[j : j + 1]
        sq = xx[:, None] + self._sqnorms[j]
        twice = x @ y.T
        twice *= 2.0
        sq -= twice
        np.maximum(sq, 0.0, out=sq)
        np.sqrt(sq, out=sq)
        out = self.kernel.affinity_from_distance(sq, out=sq)
        out[rows == j] = 0.0
        return out

    def point_block(
        self, points: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        """Affinity block between foreign *points* and indexed items *cols*.

        The serve-time counterpart of :meth:`block`: rows are arbitrary
        query points (not rows of the data matrix), so no zero-diagonal
        rule applies and every entry is a plain kernel evaluation.  Work
        is charged exactly like :meth:`block` — ``len(points) *
        len(cols)`` entries and one block request — so serving queries
        are accounted the same way fit-time detection is.
        """
        cols = check_index_array(cols, self.n, name="cols")
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.dim:
            raise ValidationError(
                f"points have dim {points.shape[1]}, oracle expects {self.dim}"
            )
        dists = pairwise_distances(points, self.data[cols], p=self.kernel.p)
        out = self.kernel.affinity_from_distance(dists, out=dists)
        self.counters.block_requests += 1
        self.counters.charge(computed=out.size)
        return out

    def pairwise(self, indices: np.ndarray | None = None) -> np.ndarray:
        """Full affinity submatrix over *indices* (defaults to everything).

        This is the expensive O(m^2) materialisation the baselines need;
        callers keeping the result must also call :meth:`charge_stored`.
        """
        if indices is None:
            indices = np.arange(self.n, dtype=np.intp)
        return self.block(indices, indices)

    def distances_to_point(
        self, point: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Lp distances from every item in *rows* to an arbitrary *point*.

        Used by the ROI / CIVS machinery (distances to the hyperball centre
        ``D``, which is generally not a data item).  Counts as work.
        """
        if rows is None:
            rows = np.arange(self.n, dtype=np.intp)
        else:
            rows = check_index_array(rows, self.n, name="rows")
        point = np.asarray(point, dtype=np.float64)
        dists = pairwise_distances(self.data[rows], point[None, :], p=self.kernel.p)
        self.counters.charge(computed=len(rows))
        return dists[:, 0]

    # ------------------------------------------------------------------
    # storage accounting
    # ------------------------------------------------------------------
    def headroom(self) -> int | None:
        """Remaining storage budget in entries (None when unbudgeted).

        Can be negative when the budget is already exceeded (a caller
        charged past the cap and survived the error).
        """
        if self.budget_entries is None:
            return None
        return self.budget_entries - self.counters.entries_stored_current

    def charge_stored(self, n_entries: int) -> None:
        """Declare that the caller now holds *n_entries* matrix entries.

        Raises
        ------
        BudgetExceededError
            If the storage budget would be exceeded; the charge is applied
            first so the peak reflects the attempted allocation.
        """
        self.counters.charge(computed=0, stored_delta=n_entries)
        if (
            self.budget_entries is not None
            and self.counters.entries_stored_current > self.budget_entries
        ):
            raise BudgetExceededError(
                f"affinity storage budget exceeded: "
                f"{self.counters.entries_stored_current} entries held, "
                f"budget is {self.budget_entries}"
            )

    def release_stored(self, n_entries: int) -> None:
        """Declare that *n_entries* previously-charged entries were freed."""
        self.counters.release(n_entries)
