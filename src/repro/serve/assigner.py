"""Vectorized batch assignment of queries to persisted dominant clusters.

Given a loaded :class:`~repro.serve.snapshot.DetectionSnapshot`, the
assigner answers "which dominant cluster does this query belong to?" for
whole ``(q, d)`` query blocks at once:

1. **Hash** — the block is hashed against every restored LSH table at
   once (:meth:`repro.lsh.index.LSHIndex.point_bucket_hits`), yielding
   the (query, bucket) hits.
2. **Shortlist** — each hit bucket maps to the clusters that own its
   members through a bucket -> cluster *owner table* built once per
   snapshot (:meth:`repro.lsh.index.LSHIndex.bucket_owners`; item
   ownership is densest-wins on overlap, the reducer rule of
   :meth:`repro.core.results.DetectionResult.labels`), yielding the
   candidate clusters each query could plausibly join.  Theorem 1 only
   ever reads a colliding item's owning cluster (paper §4.6), so the
   items themselves are never gathered.  Queries whose collisions hit
   only noise items shortlist nothing and are noise by construction —
   the serve-time analogue of the peeling driver's noise pre-filter.
3. **Score** — every (query, candidate cluster) pair is scored with the
   Theorem 1 infectivity criterion
   (:func:`repro.core.infectivity.point_payoffs`): the payoff margin
   ``pi(s_q - x, x) = a(q, support) . weights - pi(x)``.  A query joins
   the candidate with the largest margin when that margin exceeds the
   immunity tolerance — exactly the test streaming absorb applies to
   arriving items — and is noise otherwise.

All kernel evaluations flow through the snapshot's instrumented
:class:`~repro.affinity.oracle.AffinityOracle`, so serving work is
accounted (``entries_computed``) the same way fit-time detection is and
the serve benchmark can gate on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.infectivity import infective_mask, point_payoffs
from repro.exceptions import ValidationError
from repro.lsh.index import csr_gather, sorted_unique
from repro.lsh.multiprobe import MultiProbeQuerier
from repro.serve.snapshot import DetectionSnapshot
from repro.utils.validation import check_query_block

__all__ = ["Assignment", "ClusterAssigner", "SHORTLIST_MODES"]

SHORTLIST_MODES = ("lsh", "multiprobe", "all")


@dataclass
class Assignment:
    """Result of one batch assignment.

    Attributes
    ----------
    labels:
        Per-query cluster label, or -1 for noise (no candidate cluster
        was infective).
    scores:
        Per-query best payoff margin ``pi(s_q - x, x)`` over the scored
        candidates (``-inf`` when nothing was shortlisted).  For
        assigned queries this is the winning margin; for noise queries
        it measures how far from joining the closest cluster was.
    n_candidates:
        Number of candidate clusters scored per query (the shortlist
        size after LSH collision mapping).
    entries_computed:
        Affinity entries evaluated for this batch (serve-side work, the
        counter the serve benchmark gates on).
    """

    labels: np.ndarray
    scores: np.ndarray
    n_candidates: np.ndarray
    entries_computed: int

    @property
    def n_queries(self) -> int:
        """Number of queries in the batch."""
        return int(self.labels.size)

    @property
    def assigned_mask(self) -> np.ndarray:
        """Boolean mask of queries assigned to some cluster."""
        return self.labels >= 0

    @property
    def coverage(self) -> float:
        """Fraction of queries assigned to some cluster."""
        if self.labels.size == 0:
            return 0.0
        return float(self.assigned_mask.sum()) / self.labels.size


class ClusterAssigner:
    """Serve-time batch assigner over one loaded snapshot.

    Parameters
    ----------
    snapshot:
        A :class:`~repro.serve.snapshot.DetectionSnapshot` (eager or
        mmap-loaded).
    n_probes:
        Extra buckets probed per table by the ``shortlist="multiprobe"``
        mode (ignored by the other modes).

    Notes
    -----
    The restored index is fully reactivated: at fit end every item is
    peeled, but serving must see all items so query collisions reach
    cluster members.  Collisions with noise items simply map to no
    cluster.  The bucket -> cluster owner table costs O(m * l) to build
    for m clustered items and l tables, and holds one ``int32`` offset
    per fused bucket plus one ``int32`` row per (bucket, owning
    cluster) pair.  Per-batch work is returned race-free on each
    :class:`Assignment`; :class:`~repro.serve.service.ClusterService`
    accumulates those into its lifetime totals.
    """

    def __init__(self, snapshot: DetectionSnapshot, *, n_probes: int = 8):
        self.snapshot = snapshot
        self.config = snapshot.config
        self.oracle = snapshot.make_oracle()
        self.index = snapshot.restore_index()
        self.index.reactivate_all()
        self.multiprobe = MultiProbeQuerier(self.index, n_probes=n_probes)
        self.clusters = list(snapshot.clusters)
        n = snapshot.n_items
        # Densest-first scoring order gives deterministic tie-breaks;
        # item ownership resolves overlaps densest-wins (reducer rule).
        self._rows_densest_first = sorted(
            range(len(self.clusters)),
            key=lambda row: (-self.clusters[row].density,
                             self.clusters[row].label),
        )
        self._item_owner = np.full(n, -1, dtype=np.int64)
        for row in reversed(self._rows_densest_first):
            self._item_owner[self.clusters[row].members] = row
        self._owner_offsets, self._owner_rows = self.index.bucket_owners(
            self._item_owner
        )

    @property
    def n_clusters(self) -> int:
        """Number of assignable dominant clusters."""
        return len(self.clusters)

    # ------------------------------------------------------------------
    def _shortlist_pairs(
        self, queries: np.ndarray, shortlist: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """(query_ids, cluster_rows) pairs worth scoring, deduplicated."""
        k = len(self.clusters)
        probe = self.multiprobe.probe_keys if shortlist == "multiprobe" else None
        qids, buckets = self.index.point_bucket_hits(queries, probe=probe)
        starts = self._owner_offsets[buckets]
        lengths = self._owner_offsets[buckets + 1] - starts
        rows = csr_gather(self._owner_rows, starts, lengths)
        pair_keys = sorted_unique(np.repeat(qids, lengths) * k + rows)
        return pair_keys // k, pair_keys % k

    def assign(
        self, queries: np.ndarray, *, shortlist: str = "lsh"
    ) -> Assignment:
        """Assign a ``(q, d)`` query block to dominant clusters.

        Parameters
        ----------
        queries:
            Query block; a single ``(d,)`` vector is treated as one
            query.
        shortlist:
            ``"lsh"`` (default) scores only LSH-shortlisted candidate
            clusters; ``"multiprobe"`` additionally probes the
            ``n_probes`` cheapest neighbouring buckets per table
            (Lv et al. 2007), recovering borderline-infective queries
            whose collisions all miss the plain shortlist; probe
            enumeration is precomputed per hash family and scored
            vectorized per batch (see :mod:`repro.lsh.multiprobe`),
            so the mode serves hot paths at paper-scale table counts
            too; ``"all"`` scores every query against
            every cluster — the exact reference mode (O(q * n) work)
            the equivalence tests compare against.

        Returns
        -------
        Assignment
            Per-query labels, scores, shortlist sizes, and the batch's
            serve-side work accounting.

        Raises
        ------
        ValidationError
            For a malformed block, or one with a point too large to
            hash (:meth:`repro.lsh.index.LSHIndex.check_hashable`), in
            every mode.
        """
        if shortlist not in SHORTLIST_MODES:
            raise ValidationError(
                f"shortlist must be one of {SHORTLIST_MODES}, "
                f"got {shortlist!r}"
            )
        # Validate here, before the modes branch: the exhaustive mode
        # never touches the index (whose own validation would catch
        # this), and NaN payoffs would silently read as noise.
        queries = check_query_block(queries, dim=self.snapshot.dim)
        q = queries.shape[0]
        k = len(self.clusters)
        # Accounted locally (not as a shared-counter delta) so
        # concurrent batches on one service never misattribute work.
        batch_entries = 0
        best_score = np.full(q, -np.inf)
        best_row = np.full(q, -1, dtype=np.int64)
        n_candidates = np.zeros(q, dtype=np.int64)
        # Every mode hashes (or range-checks) the block, even against a
        # snapshot without clusters, so all modes refuse the same
        # blocks: those too large to hash.
        if shortlist == "all":
            self.index.check_hashable(queries)
            pair_qids = np.tile(np.arange(q, dtype=np.int64), k)
            pair_rows = np.repeat(np.arange(k, dtype=np.int64), q)
        else:
            pair_qids, pair_rows = self._shortlist_pairs(queries, shortlist)
        # Group pairs by cluster row once (sort + boundary split)
        # instead of one full boolean scan per cluster.
        order = np.argsort(pair_rows, kind="stable")
        pair_qids = pair_qids[order]
        pair_rows = pair_rows[order]
        row_bounds = np.searchsorted(
            pair_rows, np.arange(k + 1, dtype=np.int64)
        )
        for row in self._rows_densest_first:
            lo, hi = int(row_bounds[row]), int(row_bounds[row + 1])
            if hi == lo:
                continue
            qk = pair_qids[lo:hi]
            n_candidates[qk] += 1
            cluster = self.clusters[row]
            pay = point_payoffs(
                self.oracle,
                queries[qk],
                cluster.members,
                cluster.weights,
                cluster.density,
            )
            batch_entries += int(qk.size) * int(cluster.members.size)
            # Strict > keeps the densest cluster on exact ties.
            better = pay > best_score[qk]
            upd = qk[better]
            best_score[upd] = pay[better]
            best_row[upd] = row
        infective = infective_mask(best_score, self.config.tol)
        labels = np.full(q, -1, dtype=np.int64)
        hit = infective & (best_row >= 0)
        if hit.any():
            cluster_labels = np.asarray(
                [c.label for c in self.clusters], dtype=np.int64
            )
            labels[hit] = cluster_labels[best_row[hit]]
        return Assignment(
            labels=labels,
            scores=best_score,
            n_candidates=n_candidates,
            entries_computed=batch_entries,
        )
