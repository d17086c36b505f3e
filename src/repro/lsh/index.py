"""Multi-table LSH index with inverted lists and peeling support.

This is the index CIVS queries (paper §4.3): ``l`` hash tables, each built
from ``mu`` concatenated p-stable functions, plus an inverted list mapping
every item to its bucket in every table.  As in the paper, "all possible
LSH queries are built into the hash tables", so querying an indexed item
is a pure inverted-list lookup with no re-hashing.

Implementation notes
--------------------
* The ``mu`` concatenated hash integers of one item are compressed into a
  single 64-bit bucket key through a random linear map (with wraparound).
  Key collisions of genuinely different hash vectors are ~2^-64 events
  and at worst add a spurious candidate that the exact distance filter
  removes — the classic fingerprinting trade.
* Each table stores its inverted list in CSR form: a sorted array of
  unique bucket keys, an offsets array, and one flat member array
  grouped by bucket.  Lookups are ``searchsorted`` binary searches and
  multi-bucket queries gather all member ranges with a single
  repeat/cumsum fancy-index — no Python dict traffic on the hot path.
* Batched queries (:meth:`LSHIndex.query_items`) deduplicate the
  candidate union with one :func:`sorted_unique` over the concatenated
  per-table gathers, which is what makes CIVS's multi-query pattern
  (one query per supporting item, paper Fig. 4(b)) cheap: the dedup
  costs O(k log k) in the k items gathered, never O(n).
* Foreign points (serve-time queries) are hashed against every table
  at once: the tables' projections are stacked into one matrix, so
  :meth:`LSHIndex.point_bucket_hits` costs a few column-blocked products
  per 64-row chunk, one key mix for all tables and one binary search
  per table.  :meth:`LSHIndex.bucket_owners` maps fused buckets to the
  owners of their members, which is all the serving shortlist needs
  from a hit.
* Peeling (paper §4.4) uses an *active mask*: peeled items stay in the
  tables but are filtered out of every query — O(1) per peel, no rebuild.
* The collision *structure* is read directly:
  :meth:`LSHIndex.active_bucket_populations` (one ``reduceat`` over the
  fused CSR), :meth:`LSHIndex.has_active_collision` (the peeling loop's
  per-seed noise pre-filter, reading only the seed's ``l`` buckets),
  :meth:`LSHIndex.colliding_mask` (the same test for every item at
  once), :meth:`LSHIndex.collision_components` (the ingest tier's
  re-peel units) and :meth:`LSHIndex.query_items_grouped` (one gather
  serving a PALID seed cohort's CIVS queries).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.exceptions import ValidationError
from repro.lsh.hashing import PStableHashFamily
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import (
    check_data_matrix,
    check_index_array,
    check_query_block,
)

__all__ = ["HASH_CHUNK_ROWS", "LSHIndex", "csr_gather", "sorted_unique"]

#: Rows hashed per chunk by :meth:`LSHIndex.point_bucket_hits`; bounds
#: the ``(rows, n_tables * n_projections)`` coordinate temporaries.
HASH_CHUNK_ROWS = 64
# Hash codes are int64: a floored segment coordinate must lie in
# [-2**63, 2**63) to be cast without undefined behaviour.
_INT64_SPAN = 2.0**63
# OpenBLAS (numpy's bundled BLAS) spreads a matrix product over threads
# above a few 10^5 multiply-adds.  Beside other busy serving threads or
# processes the caller then waits whole scheduler slices for its helper
# thread (a 64 x 2000 x 32 product: 0.09 ms alone, 16 ms p50 on a loaded
# 2-CPU host), so each hashing product stays below this many.
_SERIAL_GEMM_MACS = 2**18


def csr_gather(
    members: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Concatenate ``members[s:s+l]`` for every (start, length) range.

    The standard vectorised multi-range gather: positions inside each
    range are recovered from a cumsum so no Python loop over ranges is
    needed.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=members.dtype)
    range_ends = np.cumsum(lengths)
    within = np.arange(total, dtype=np.intp)
    within -= np.repeat(range_ends - lengths, lengths)
    return members[np.repeat(starts, lengths) + within]


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, flattened (``np.unique``).

    Same values, order and dtype as ``np.unique``, from one sort plus a
    neighbour comparison.  NumPy 2.3+ sends integer ``np.unique``
    through a hash table that runs ~6-20x slower than this on the
    10^3-10^5 keys that the fit's CIVS gathers and the serving
    shortlist deduplicate.  The cost is O(k log k) in the k keys, with
    no term in the index size, so a CIVS call stays proportional to
    what it gathers.
    """
    keys = np.sort(keys, axis=None)
    keep = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


class _Table:
    """One hash table as a CSR inverted list over 64-bit bucket keys."""

    __slots__ = (
        "family",
        "mixer",
        "item_keys",
        "unique_keys",
        "offsets",
        "members",
    )

    def __init__(
        self,
        family: PStableHashFamily,
        mixer: np.ndarray,
        item_keys: np.ndarray,
    ):
        self.family = family
        self.mixer = mixer
        self.item_keys = item_keys.astype(np.uint64, copy=False)
        self._rebuild()

    def _rebuild(self) -> None:
        """(Re)build the CSR bucket structure from ``item_keys``.

        A stable argsort keeps equal-key items in ascending index order,
        so every bucket's member list comes out sorted for free.
        """
        keys = self.item_keys
        n = keys.size
        order = np.argsort(keys, kind="stable").astype(np.intp)
        sorted_keys = keys[order]
        if n == 0:
            self.unique_keys = np.empty(0, dtype=np.uint64)
            self.offsets = np.zeros(1, dtype=np.intp)
            self.members = order
            return
        boundaries = np.flatnonzero(
            np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]])
        ).astype(np.intp)
        self.unique_keys = sorted_keys[boundaries]
        self.offsets = np.concatenate([boundaries, [n]]).astype(np.intp)
        self.members = order

    def merge_insert(self, new_keys: np.ndarray) -> None:
        """Merge a batch of appended items into the CSR without a re-sort.

        The existing member array is already key-sorted, and the batch
        only needs an O(m log m) sort of its own; a two-way merge (two
        ``searchsorted`` passes + one scatter) then produces the same
        member order a full stable re-sort would — old items keep their
        ascending-index order inside each bucket, and new items (whose
        global indices are larger) follow them.  O(n + m log m) per
        batch instead of the historical O(n log n) full re-sort.
        """
        new_keys = np.asarray(new_keys).astype(np.uint64, copy=False)
        old_n = self.item_keys.size
        m = new_keys.size
        if m == 0:
            return
        order_new = np.argsort(new_keys, kind="stable").astype(np.intp)
        sorted_new = new_keys[order_new]
        new_members = order_new + old_n
        old_sorted = self.item_keys[self.members]
        # Merged positions: each old item is shifted right by the number
        # of strictly-smaller new keys; each new item by the number of
        # old keys that are smaller *or equal* (ties put old first).
        shift_old = np.searchsorted(sorted_new, old_sorted, side="left")
        shift_new = np.searchsorted(old_sorted, sorted_new, side="right")
        merged = np.empty(old_n + m, dtype=np.intp)
        merged[np.arange(old_n, dtype=np.intp) + shift_old] = self.members
        merged[np.arange(m, dtype=np.intp) + shift_new] = new_members
        self.item_keys = np.concatenate([self.item_keys, new_keys])
        merged_keys = self.item_keys[merged]
        boundaries = np.flatnonzero(
            np.concatenate([[True], merged_keys[1:] != merged_keys[:-1]])
        ).astype(np.intp)
        self.unique_keys = merged_keys[boundaries]
        self.offsets = np.concatenate([boundaries, [old_n + m]]).astype(
            np.intp
        )
        self.members = merged

    # ------------------------------------------------------------------
    def keys_of_points(self, points: np.ndarray) -> np.ndarray:
        """Bucket keys of arbitrary points under this table's hash alone.

        The index build's path; :meth:`LSHIndex.point_bucket_hits` and
        :meth:`LSHIndex.insert` hash every table at once and must agree
        with it bit for bit.  Cast to uint64 *before* mixing: int64 *
        uint64 promotes to float64, which cannot represent the
        wraparound keys the index was built with (negative codes would
        hash to the wrong bucket).
        """
        codes = self.family.hash_many(points).astype(np.uint64)
        with np.errstate(over="ignore"):
            return (codes * self.mixer[None, :]).sum(axis=1, dtype=np.uint64)


class LSHIndex:
    """p-stable LSH index over a fixed data matrix.

    Parameters
    ----------
    data:
        Data matrix of shape ``(n, d)``.
    r:
        Segment length of the p-stable functions (paper Fig. 6 sweep).
    n_projections:
        Concatenated hash functions per table (paper: 40).
    n_tables:
        Number of hash tables (paper: 50).
    seed:
        Seed for the random projections (each table gets an independent
        child generator, so indices are reproducible).
    """

    def __init__(
        self,
        data: np.ndarray,
        *,
        r: float,
        n_projections: int = 40,
        n_tables: int = 50,
        seed=0,
    ):
        self._data = check_data_matrix(data, name="data")
        if n_tables <= 0:
            raise ValidationError(f"n_tables must be positive, got {n_tables}")
        self.r = float(r)
        self.n_projections = int(n_projections)
        self.n_tables = int(n_tables)
        n, dim = self._data.shape
        hash_state = [
            PStableHashFamily(
                dim, self.r, self.n_projections, seed=rng
            ).export_arrays()
            for rng in spawn_generators(seed, self.n_tables)
        ]
        # Fixed seed: the mixer only fingerprints hash vectors, it carries
        # no locality information, so it need not vary with `seed`.
        mixer_rng = as_generator(np.random.SeedSequence(0xA11D))
        mixers = np.stack(
            [
                mixer_rng.integers(
                    1, 2**63 - 1, size=self.n_projections, dtype=np.uint64
                )
                | np.uint64(1)
                for _ in range(self.n_tables)
            ]
        )
        families = self._stack_hash_state(
            np.concatenate([p for p, _ in hash_state]),
            np.concatenate([o for _, o in hash_state]),
            mixers,
        )
        # Each table hashes the data itself, without the int64 range
        # check of point_bucket_hits: a journaled ingest stream builds
        # its index here from a batch it has already recorded, and
        # refusing that batch now would fail every later replay.
        self._tables: list[_Table] = []
        for family, mixer in zip(families, self._mixers):
            table = _Table(family, mixer, np.empty(0, dtype=np.uint64))
            table.merge_insert(table.keys_of_points(self._data))
            self._tables.append(table)
        self._active = np.ones(n, dtype=bool)
        self._rebuild_combined()

    def _stack_hash_state(
        self, projections: np.ndarray, offsets: np.ndarray, mixers: np.ndarray
    ) -> list[PStableHashFamily]:
        """Hold every table's hash state in three stacked arrays.

        *projections* is ``(l * mu, d)``, *offsets* ``(l * mu,)`` and
        *mixers* ``(l, mu)``.  Returns one hash family per table built
        on views into the stacks, so nothing is stored twice, while
        :meth:`point_bucket_hits` hashes a block against every table
        at once.
        """
        self._projections = projections
        self._hash_offsets = offsets
        self._mixers = mixers
        mu = self.n_projections
        return [
            PStableHashFamily.from_arrays(
                r=self.r,
                projections=projections[t * mu : (t + 1) * mu],
                offsets=offsets[t * mu : (t + 1) * mu],
            )
            for t in range(self.n_tables)
        ]

    def _rebuild_combined(self) -> None:
        """Fuse every table's inverted list into one index-level CSR.

        This is the paper's O(n*l) inverted list made literal: one flat
        member array over all tables, per-bucket (start, length) ranges,
        and an ``(l, n)`` map from item to its bucket id in every table.
        Item queries then touch no per-table Python at all — a batched
        query is one fancy-index over the map, one
        :func:`sorted_unique`, and one multi-range gather, regardless of
        ``n_tables``.

        The item -> bucket map needs no key search: each table's stable
        sort already laid its members out bucket by bucket, so sorted
        position ``p`` belongs to bucket ``repeat(buckets, lengths)[p]``
        and one scatter through ``members`` files every item.
        """
        members_parts = []
        starts_parts = []
        lengths_parts = []
        self._item_buckets = np.empty(
            (self.n_tables, self._tables[0].item_keys.size), dtype=np.intp
        )
        bucket_base = 0
        member_base = 0
        for t, table in enumerate(self._tables):
            lengths = np.diff(table.offsets)
            starts_parts.append(table.offsets[:-1] + member_base)
            lengths_parts.append(lengths)
            members_parts.append(table.members)
            self._item_buckets[t, table.members] = np.repeat(
                np.arange(bucket_base, bucket_base + lengths.size, dtype=np.intp),
                lengths,
            )
            bucket_base += lengths.size
            member_base += table.members.size
        self._g_members = np.concatenate(members_parts)
        self._g_starts = np.concatenate(starts_parts).astype(np.intp)
        self._g_lengths = np.concatenate(lengths_parts).astype(np.intp)
        # Bucket keys of every table, fused the same way, so point
        # lookups check hits in one gather.
        self._g_keys = np.concatenate([t.unique_keys for t in self._tables])
        # First global bucket id of each table (for per-table lookups).
        self._table_bucket_base = np.concatenate(
            [[0], np.cumsum([t.unique_keys.size for t in self._tables])]
        ).astype(np.intp)
        # Tables keep views into the fused arrays: nothing stored twice.
        n = self._item_buckets.shape[1]
        for t, table in enumerate(self._tables):
            lo, hi = self._table_bucket_base[t : t + 2]
            table.unique_keys = self._g_keys[lo:hi]
            table.members = self._g_members[t * n : (t + 1) * n]

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of indexed items (including deactivated ones)."""
        return self._data.shape[0]

    @property
    def active_mask(self) -> np.ndarray:
        """Read-only view of the active (not peeled) mask."""
        view = self._active.view()
        view.flags.writeable = False
        return view

    @property
    def n_active(self) -> int:
        """Number of items still active."""
        return int(self._active.sum())

    # ------------------------------------------------------------------
    # incremental insertion (streaming extension, paper §6 future work)
    # ------------------------------------------------------------------
    def insert(self, new_data: np.ndarray) -> np.ndarray:
        """Append new items to the index and return their global indices.

        The hash families are fixed at construction, so inserted items
        land in exactly the buckets a from-scratch rebuild would put
        them in; queries before/after insertion are consistent.  New
        items start active.  The batch is hashed like a query block
        (:meth:`point_bucket_hits`), so a row whose segment coordinates
        leave the int64 range of hash codes refuses the whole batch
        with :class:`ValidationError` and nothing is inserted.

        Cost note: each table absorbs the batch through a merge-based
        CSR update (:meth:`_Table.merge_insert`) — O(n + m log m) per
        table for a batch of m, not the historical O(n log n) full
        re-sort.  The fused item->bucket map still shifts globally
        whenever a new bucket appears, so refreshing it stays O(l * n);
        batch arrivals rather than inserting point-by-point.
        """
        new_data = check_data_matrix(new_data, name="new_data")
        if new_data.shape[1] != self._data.shape[1]:
            raise ValidationError(
                f"new_data has dim {new_data.shape[1]}, "
                f"index expects {self._data.shape[1]}"
            )
        # Hashed before any state changes: an unhashable row refuses the
        # whole batch and leaves the index untouched.
        keys = self._block_keys(new_data)
        start = self._data.shape[0]
        new_indices = np.arange(start, start + new_data.shape[0], dtype=np.intp)
        self._data = np.vstack([self._data, new_data])
        for t, table in enumerate(self._tables):
            table.merge_insert(keys[t, :, 0])
        self._active = np.concatenate(
            [self._active, np.ones(new_data.shape[0], dtype=bool)]
        )
        self._rebuild_combined()
        return new_indices

    # ------------------------------------------------------------------
    # peeling support
    # ------------------------------------------------------------------
    def deactivate(self, indices: np.ndarray) -> None:
        """Remove items from all future query results (peeling, §4.4)."""
        indices = check_index_array(indices, self.n, name="indices")
        self._active[indices] = False

    def reactivate_all(self) -> None:
        """Restore every item (used between independent experiments)."""
        self._active[:] = True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def _finalize(self, candidates: np.ndarray) -> np.ndarray:
        """Deduplicate, sort and active-filter a raw candidate gather."""
        if candidates.size == 0:
            return np.empty(0, dtype=np.intp)
        out = sorted_unique(candidates)
        return out[self._active[out]]

    def _gather_buckets(self, bucket_ids: np.ndarray) -> np.ndarray:
        """Concatenated members of index-level buckets (all tables)."""
        return csr_gather(
            self._g_members,
            self._g_starts[bucket_ids],
            self._g_lengths[bucket_ids],
        )

    def query_item(self, i: int) -> np.ndarray:
        """Active items colliding with indexed item *i* in any table.

        Pure inverted-list lookup — no hashing at query time, as in the
        paper.  The result excludes *i* itself and is sorted.
        """
        if not 0 <= i < self.n:
            raise IndexError(f"item index {i} out of range [0, {self.n})")
        out = self._finalize(self._gather_buckets(self._item_buckets[:, i]))
        return out[out != i]

    def query_point(self, point: np.ndarray) -> np.ndarray:
        """Active items colliding with an arbitrary *point* in any table."""
        point = np.asarray(point)
        if point.ndim != 1:
            raise ValidationError(
                f"point must be 1-D of dim {self._data.shape[1]}, "
                f"got shape {point.shape}"
            )
        return self.query_points(point)

    def query_items(self, indices: np.ndarray) -> np.ndarray:
        """Deduplicated union of :meth:`query_item` over indexed items.

        This is the multi-query pattern of CIVS (paper Fig. 4(b)): every
        supporting item of the current subgraph issues its own query so
        the union of locality-sensitive regions covers the ROI.  The
        whole batch is one vectorised gather per table; the union is
        deduplicated once, and *all* query items are excluded from the
        result (psi must contain new vertices only).
        """
        indices = check_index_array(indices, self.n, name="indices")
        if indices.size == 0:
            return np.empty(0, dtype=np.intp)
        bucket_ids = sorted_unique(self._item_buckets[:, indices])
        out = self._finalize(self._gather_buckets(bucket_ids))
        if out.size:
            out = out[np.isin(out, indices, invert=True)]
        return out

    def query_points(self, points: np.ndarray, *, probe=None) -> np.ndarray:
        """Deduplicated union of :meth:`query_point` over several points.

        One hashing pass for the whole batch (:meth:`point_bucket_hits`,
        whose *probe* hook this forwards) — the cheap way to probe many
        foreign points (e.g. streaming arrivals) at once.  An empty
        batch returns an empty result.
        """
        _, bucket_ids = self.point_bucket_hits(points, probe=probe)
        return self._finalize(self._gather_buckets(sorted_unique(bucket_ids)))

    def query_items_grouped(
        self, groups: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Run :meth:`query_items` for several index sets in one fused pass.

        This is the seed-block form of the CIVS multi-query pattern: a
        cohort of seeds driven in lockstep (PALID's mappers) issues one
        grouped retrieval instead of one :meth:`query_items` call per
        seed.  Buckets of every group are gathered together, then
        candidates are deduplicated *per group* with a single
        :func:`sorted_unique` over ``group_id * n + item`` keys — no
        Python loop over tables or candidates.

        Parameters
        ----------
        groups:
            Sequence of index arrays; each array plays the role of the
            ``indices`` argument of :meth:`query_items`.

        Returns
        -------
        list of numpy.ndarray
            ``out[i]`` is exactly ``self.query_items(groups[i])``:
            sorted, deduplicated, active-only, and excluding the
            group's own items (but *not* other groups' items).
        """
        results: list[np.ndarray] = [
            np.empty(0, dtype=np.intp) for _ in groups
        ]
        n = self.n
        n_buckets = int(self._g_lengths.size)
        pair_parts: list[np.ndarray] = []
        query_key_parts: list[np.ndarray] = []
        for gid, group in enumerate(groups):
            group = check_index_array(group, n, name="groups")
            if group.size == 0:
                continue
            buckets = self._item_buckets[:, group].ravel()
            pair_parts.append(
                np.int64(gid) * n_buckets + buckets.astype(np.int64)
            )
            query_key_parts.append(
                np.int64(gid) * n + group.astype(np.int64)
            )
        if not pair_parts:
            return results
        # Unique (group, bucket) pairs -> one multi-range member gather.
        pair_keys = sorted_unique(np.concatenate(pair_parts))
        exclude_keys = sorted_unique(np.concatenate(query_key_parts))
        return self._resolve_grouped_pairs(
            pair_keys, len(groups), exclude_keys=exclude_keys
        )

    def _resolve_grouped_pairs(
        self,
        pair_keys: np.ndarray,
        n_groups: int,
        *,
        exclude_keys: np.ndarray | None = None,
    ) -> list[np.ndarray]:
        """Resolve sorted ``group * n_buckets + bucket`` keys to candidates.

        The shared tail of the grouped query paths: one multi-range
        member gather over the fused CSR, per-group dedup via a single
        :func:`sorted_unique` over ``group * n + item`` keys, active-mask
        filtering, optional exclusion of ``group * n + item`` keys (a
        group's own query items), and the sorted split into per-group
        arrays.
        """
        results: list[np.ndarray] = [
            np.empty(0, dtype=np.intp) for _ in range(n_groups)
        ]
        if pair_keys.size == 0:
            return results
        n = self.n
        n_buckets = int(self._g_lengths.size)
        bucket_ids = (pair_keys % n_buckets).astype(np.intp)
        pair_gids = pair_keys // n_buckets
        lengths = self._g_lengths[bucket_ids]
        members = csr_gather(
            self._g_members, self._g_starts[bucket_ids], lengths
        )
        # Unique (group, item) pairs: dedup within each group only.
        member_keys = np.repeat(pair_gids, lengths) * n + members
        member_keys = sorted_unique(member_keys)
        items = (member_keys % n).astype(np.intp)
        gids = member_keys // n
        keep = self._active[items]
        if exclude_keys is not None and exclude_keys.size:
            keep &= np.isin(member_keys, exclude_keys, invert=True)
        items = items[keep]
        gids = gids[keep]
        # Split the flat result at group boundaries; keys are sorted by
        # (group, item), so every slice comes out sorted.
        bounds = np.searchsorted(gids, np.arange(n_groups + 1))
        for gid in range(n_groups):
            lo, hi = int(bounds[gid]), int(bounds[gid + 1])
            if hi > lo:
                results[gid] = items[lo:hi]
        return results

    def point_bucket_hits(
        self, points: np.ndarray, *, probe=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The fused buckets a block of foreign points hits, per point.

        The block is hashed against all tables at once over the stacked
        projections, in chunks of at most :data:`HASH_CHUNK_ROWS` rows,
        then each table looks the whole block up with one binary
        search.  Keys equal :meth:`_Table.keys_of_points` bit for bit.

        Parameters
        ----------
        points:
            Query block of shape ``(q, d)``; a ``(d,)`` vector is one
            point.
        probe:
            Optional multi-probe hook ``probe(fractions, base_keys,
            mixers) -> keys`` over ``m`` (point, table) rows: fractional
            segment coordinates ``(m, mu)``, own bucket keys ``(m,)`` and
            key mixers ``(m, mu)`` in, ``(m, k)`` keys to look up out
            (:meth:`repro.lsh.multiprobe.MultiProbeQuerier.probe_keys`).

        Returns
        -------
        tuple of numpy.ndarray
            ``(query_ids, bucket_ids)``, one entry per key found: point
            rows and fused bucket ids (those of ``_item_buckets``).
            Plain hits are unique; probes may repeat a bucket.  The
            active mask is not applied.

        Raises
        ------
        ValidationError
            For a malformed block, or a finite point whose segment
            coordinates leave the int64 range of hash codes.
        """
        points = check_query_block(
            points, dim=self._data.shape[1], name="points"
        )
        keys = self._block_keys(points, probe)
        l, q, k = keys.shape
        keys = keys.reshape(l, q * k)
        pos = np.empty(keys.shape, dtype=np.intp)
        for t, table in enumerate(self._tables):
            pos[t] = table.unique_keys.searchsorted(keys[t])
        # A key above a table's largest bucket key lands one past its
        # end; clamped to the last bucket it simply fails the match.
        bucket_base = self._table_bucket_base
        np.minimum(pos, np.diff(bucket_base)[:, None] - 1, out=pos)
        pos += bucket_base[:-1, None]
        hit = self._g_keys[pos] == keys
        return np.nonzero(hit)[1] // k, pos[hit]

    def check_hashable(self, points: np.ndarray) -> np.ndarray:
        """Validate a block as :meth:`point_bucket_hits` would; return it.

        For callers that must refuse exactly what hashing refuses
        without looking anything up: the exhaustive serving mode, and
        ingest before it journals a batch it will :meth:`insert`.

        Raises
        ------
        ValidationError
            For a malformed block, or a finite point whose segment
            coordinates leave the int64 range of hash codes.
        """
        points = check_query_block(
            points, dim=self._data.shape[1], name="points"
        )
        self._block_keys(points)
        return points

    def _block_keys(self, points: np.ndarray, probe=None) -> np.ndarray:
        """``(l, q, k)`` bucket keys of a validated block, hashed in chunks."""
        chunks = [
            self._chunk_keys(points[lo : lo + HASH_CHUNK_ROWS], probe)
            for lo in range(0, points.shape[0], HASH_CHUNK_ROWS)
        ]
        if not chunks:
            return np.empty((self.n_tables, 0, 1), dtype=np.uint64)
        return np.concatenate(chunks).transpose(1, 0, 2)

    def _chunk_keys(self, chunk: np.ndarray, probe) -> np.ndarray:
        """``(c, l, k)`` keys of a validated chunk (see point_bucket_hits)."""
        c, dim = chunk.shape
        # PStableHashFamily.project for every table at once, in place,
        # in column blocks small enough to run on the calling thread.
        coords = np.empty((c, self._projections.shape[0]))
        step = max(1, _SERIAL_GEMM_MACS // (c * dim))
        for lo in range(0, coords.shape[1], step):
            np.matmul(
                chunk,
                self._projections[lo : lo + step].T,
                out=coords[:, lo : lo + step],
            )
        coords += self._hash_offsets
        coords /= self.r
        # floor(x) fits int64 exactly when x lies in [-2**63, 2**63).
        # NaN fails both comparisons; casting an out-of-range float is
        # undefined, so such a point is rejected, not hashed.
        if not (coords.min() >= -_INT64_SPAN and coords.max() < _INT64_SPAN):
            raise ValidationError(
                "points project outside the int64 range of hash codes "
                "(coordinates too large to hash)"
            )
        codes = np.floor(coords, out=coords if probe is None else None)
        # int64 -> uint64 reinterpretation is the wraparound cast
        # keys_of_points makes; the uint64 sum of products wraps too.
        ints = codes.astype(np.int64).view(np.uint64)
        ints = ints.reshape(c, self.n_tables, self.n_projections)
        keys = np.einsum("ctm,tm->ct", ints, self._mixers)
        if probe is None:
            return keys[:, :, None]
        m = c * self.n_tables
        fractions = (coords - codes).reshape(m, self.n_projections)
        mixers = np.broadcast_to(self._mixers, (c,) + self._mixers.shape)
        probed = probe(
            fractions, keys.reshape(m), mixers.reshape(m, self.n_projections)
        )
        return probed.reshape(c, self.n_tables, -1)

    def query_points_grouped(
        self, points: np.ndarray, *, probe=None
    ) -> list[np.ndarray]:
        """Run :meth:`query_point` for a batch of points in one fused pass.

        The foreign-point twin of :meth:`query_items_grouped`: a block
        of points is hashed once (:meth:`point_bucket_hits`, whose
        *probe* hook this forwards), every hit bucket of every point is
        gathered together from the fused CSR, and candidates are
        deduplicated *per point* with a single :func:`sorted_unique`
        over ``point_id * n + item`` keys.

        Parameters
        ----------
        points:
            Query block of shape ``(q, d)``.
        probe:
            Optional multi-probe expansion (see :meth:`point_bucket_hits`).

        Returns
        -------
        list of numpy.ndarray
            ``out[i]`` is exactly ``self.query_point(points[i])``:
            sorted, deduplicated, active-only.
        """
        points = check_query_block(
            points, dim=self._data.shape[1], name="points"
        )
        query_ids, bucket_ids = self.point_bucket_hits(points, probe=probe)
        # Distinct probes can land in the same bucket, so the (point,
        # bucket) pairs are deduplicated.
        pair_keys = sorted_unique(query_ids * self._g_lengths.size + bucket_ids)
        return self._resolve_grouped_pairs(pair_keys, points.shape[0])

    def bucket_owners(
        self, item_owner: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR from every fused bucket to the distinct owners of its members.

        The serve-time shortlist only needs the *owner* of a colliding
        item (its dominant cluster, paper §4.6 / Theorem 1), so this
        table turns a hit from :meth:`point_bucket_hits` straight into
        owners.  One sort of the m owned items' O(m * l) (bucket, owner)
        pairs; the active mask is not applied.

        Parameters
        ----------
        item_owner:
            ``(n,)`` integer owner id of every item, ``-1`` for an item
            without one.

        Returns
        -------
        tuple of numpy.ndarray
            ``(offsets, owners)``, both ``int32``: the owners of fused
            bucket ``b`` are ``owners[offsets[b]:offsets[b + 1]]``,
            ascending.
        """
        item_owner = np.asarray(item_owner)
        if item_owner.shape != (self.n,):
            raise ValidationError(
                f"item_owner shape {item_owner.shape} != ({self.n},)"
            )
        n_buckets = int(self._g_lengths.size)
        owned = np.flatnonzero(item_owner >= 0)
        span = int(item_owner[owned].max()) + 1 if owned.size else 1
        pairs = self._item_buckets[:, owned].astype(np.int64)
        pairs *= span
        pairs += item_owner[owned]
        keys = sorted_unique(pairs)
        width = np.int32 if keys.size < 2**31 else np.int64
        offsets = np.zeros(n_buckets + 1, dtype=width)
        np.cumsum(np.bincount(keys // span, minlength=n_buckets), out=offsets[1:])
        return offsets, (keys % span).astype(np.int32)

    # ------------------------------------------------------------------
    # persistence (detection snapshots, repro.serve)
    # ------------------------------------------------------------------
    def export_state(self) -> dict[str, np.ndarray]:
        """Arrays that, together with the data matrix, rebuild this index.

        Used by :mod:`repro.serve.snapshot` to persist a fitted index:
        the per-table hash state (Gaussian projections, segment offsets,
        key mixers, per-item bucket keys) and the active mask.  The CSR
        bucket structure is *derived* state — it is rebuilt
        deterministically from ``item_keys`` on restore, so snapshots
        stay small and independent of the CSR layout.

        Returns
        -------
        dict of numpy.ndarray
            ``projections`` ``(l, mu, d)``, ``hash_offsets`` ``(l,
            mu)``, ``mixers`` ``(l, mu)``, ``item_keys`` ``(l, n)``,
            ``active`` ``(n,)`` — all copies, safe to persist.
        """
        l, mu = self._mixers.shape
        return {
            "projections": self._projections.reshape(l, mu, -1).copy(),
            "hash_offsets": self._hash_offsets.reshape(l, mu).copy(),
            "mixers": self._mixers.copy(),
            "item_keys": np.stack([t.item_keys for t in self._tables]),
            "active": self._active.copy(),
        }

    def export_keys(self, start: int = 0) -> np.ndarray:
        """Per-table bucket keys of items ``start..n`` as an ``(l, m)`` array.

        The incremental slice of :meth:`export_state`'s ``item_keys``:
        after a batch of :meth:`insert` calls, ``export_keys(old_n)``
        is exactly the insert state those batches added — what a
        :class:`~repro.serve.snapshot.SnapshotDelta` persists so a
        parent snapshot's tables extend to the appended rows without
        re-hashing.  Keys are position-stable: inserting never rewrites
        an existing item's key, so the slice taken at publish time
        matches what a later full :meth:`export_state` reports for the
        same columns.
        """
        if not 0 <= start <= self.n:
            raise ValidationError(
                f"start must be in [0, {self.n}], got {start}"
            )
        return np.stack(
            [t.item_keys[start:].copy() for t in self._tables]
        )

    @classmethod
    def from_state(
        cls,
        data: np.ndarray,
        *,
        r: float,
        projections: np.ndarray,
        hash_offsets: np.ndarray,
        mixers: np.ndarray,
        item_keys: np.ndarray,
        active: np.ndarray,
    ) -> "LSHIndex":
        """Rebuild an index from :meth:`export_state` arrays, re-hashing nothing.

        The restored index hashes queries and serves lookups
        bit-identically to the exporting one: hash families are restored
        from their stored random state, per-item bucket keys are taken
        verbatim, and the CSR structure is rebuilt with the same stable
        sort construction uses.  *data* may be a read-only memory map —
        it is validated but never copied, which is what lets a multi-GB
        snapshot serve without materialising the matrix.
        """
        data = check_data_matrix(data, name="data")
        projections = np.asarray(projections, dtype=np.float64)
        if projections.ndim != 3:
            raise ValidationError(
                f"projections must be 3-D (tables, mu, dim), "
                f"got ndim={projections.ndim}"
            )
        l, mu, dim = projections.shape
        if dim != data.shape[1]:
            raise ValidationError(
                f"projections have dim {dim}, data has dim {data.shape[1]}"
            )
        n = data.shape[0]
        hash_offsets = np.asarray(hash_offsets, dtype=np.float64)
        mixers = np.asarray(mixers)
        item_keys = np.asarray(item_keys)
        active = np.asarray(active)
        if hash_offsets.shape != (l, mu):
            raise ValidationError(
                f"hash_offsets shape {hash_offsets.shape} != ({l}, {mu})"
            )
        if mixers.shape != (l, mu):
            raise ValidationError(f"mixers shape {mixers.shape} != ({l}, {mu})")
        if item_keys.shape != (l, n):
            raise ValidationError(
                f"item_keys shape {item_keys.shape} != ({l}, {n})"
            )
        if active.shape != (n,):
            raise ValidationError(f"active shape {active.shape} != ({n},)")
        self = cls.__new__(cls)
        self._data = data
        self.r = float(r)
        self.n_projections = int(mu)
        self.n_tables = int(l)
        families = self._stack_hash_state(
            np.ascontiguousarray(projections).reshape(l * mu, dim),
            np.ascontiguousarray(hash_offsets).reshape(l * mu),
            np.ascontiguousarray(mixers, dtype=np.uint64),
        )
        self._tables = [
            _Table(family, mixer, np.ascontiguousarray(item_keys[t]))
            for t, (family, mixer) in enumerate(zip(families, self._mixers))
        ]
        self._active = np.array(active, dtype=bool)
        self._rebuild_combined()
        return self

    # ------------------------------------------------------------------
    # bucket statistics (PALID seed sampling, paper §4.6)
    # ------------------------------------------------------------------
    def _active_bucket_counts(self, table: _Table) -> np.ndarray:
        """Active-member count of every bucket of one table."""
        if table.members.size == 0:
            return np.zeros(0, dtype=np.int64)
        flags = self._active[table.members].astype(np.int64)
        return np.add.reduceat(flags, table.offsets[:-1])

    def active_bucket_populations(self) -> np.ndarray:
        """Active-member count of every fused-CSR bucket, in one pass.

        Buckets are laid out contiguously in the index-level member
        array (table 0's buckets first, then table 1's, ...), so a
        single ``np.add.reduceat`` over the active flags yields the
        population of **every bucket of every table** without touching
        per-table Python.  This is the bucket-population primitive the
        peeling loop's noise pre-filter is built on (§4.4 / §4.6: items
        in small buckets are unlikely dominant-cluster members).

        Returns
        -------
        numpy.ndarray
            ``int64`` array of length ``total buckets`` (all tables),
            aligned with the fused bucket ids used by
            ``_item_buckets``.
        """
        if self._g_members.size == 0:
            return np.zeros(self._g_lengths.size, dtype=np.int64)
        flags = self._active[self._g_members].astype(np.int64)
        return np.add.reduceat(flags, self._g_starts)

    def has_active_collision(self, i: int) -> bool:
        """Whether active item *i* shares a bucket with another active item.

        Equals ``colliding_mask()[i]`` (False for an inactive item) but
        reads only the item's ``l`` buckets: when every one of them
        holds *i* alone the item is isolated and nothing is gathered;
        otherwise their members are gathered and checked for another
        active one.  This is the peeling loop's per-seed noise
        pre-filter: an Alg. 2 run seeded at an item where it is False
        can never retrieve anything (CIVS candidates come from LSH
        collisions only) and provably peels as a zero-work singleton.
        """
        if not 0 <= i < self.n:
            raise IndexError(f"item index {i} out of range [0, {self.n})")
        if not self._active[i]:
            return False
        buckets = self._item_buckets[:, i]
        lengths = self._g_lengths[buckets]
        if lengths.max() <= 1:
            return False
        members = csr_gather(self._g_members, self._g_starts[buckets], lengths)
        return bool(self._active[members[members != i]].any())

    def colliding_mask(self) -> np.ndarray:
        """Boolean mask of active items with >= 1 active LSH collision.

        ``colliding_mask()[i]`` is True exactly when
        ``query_item(i).size > 0``: the item is active and shares a
        bucket with another active item in at least one table.  Items
        where it is False are *noise-isolated*.  One fused
        bucket-population pass over the whole index, no queries; the
        per-item form the peeling loop uses is
        :meth:`has_active_collision`.
        """
        populations = self.active_bucket_populations()
        if populations.size == 0:
            return np.zeros(self.n, dtype=bool)
        has_companion = (populations[self._item_buckets] >= 2).any(axis=0)
        return self._active & has_companion

    def collision_components(self) -> np.ndarray:
        """Connected components of the active collision graph.

        Two active items are connected when they share a bucket in any
        table; components are the transitive closure.  A seeded Alg. 2
        run can only ever reach items inside its seed's component
        (CIVS retrieval is LSH-collision-bound), so a change to one
        component leaves runs seeded in the others unaffected — the
        invariant the ingest tier uses to re-peel only dirty
        components.

        Returns
        -------
        numpy.ndarray
            ``int64`` labels of length ``n``; inactive items get -1.
            Label values are arbitrary but consistent within one call.
        """
        n = self.n
        labels = np.full(n, -1, dtype=np.int64)
        active_items = np.flatnonzero(self._active)
        if active_items.size == 0:
            return labels
        populations = self.active_bucket_populations()
        item_buckets = self._item_buckets[:, active_items]  # (l, m)
        # Only buckets holding >= 2 active members can connect items.
        useful = populations[item_buckets] >= 2
        rows = np.broadcast_to(active_items, item_buckets.shape)[useful]
        cols = item_buckets[useful] + n
        n_nodes = n + int(self._g_lengths.size)
        bipartite = csr_matrix(
            (np.ones(rows.size, dtype=np.int8), (rows, cols)),
            shape=(n_nodes, n_nodes),
        )
        _, component = connected_components(bipartite, directed=False)
        labels[active_items] = component[active_items]
        return labels

    def item_bucket_sizes(
        self, table: int = 0, *, active_only: bool = False
    ) -> np.ndarray:
        """Per-item size of the bucket it occupies in *table*.

        One fancy-index over the fused CSR, used by the seed schedule to
        rank likely dominant-cluster members without touching bucket
        lists.  ``active_only=True`` counts only unpeeled members, which
        is what seeding over a partially peeled index must use.
        """
        if not 0 <= table < self.n_tables:
            raise IndexError(f"table {table} out of range [0, {self.n_tables})")
        if not active_only:
            return self._g_lengths[self._item_buckets[table]]
        counts = self._active_bucket_counts(self._tables[table])
        local_ids = self._item_buckets[table] - self._table_bucket_base[table]
        return counts[local_ids]

    def bucket_sizes(self, table: int = 0) -> dict[int, int]:
        """Bucket key -> active-member count for one table."""
        if not 0 <= table < self.n_tables:
            raise IndexError(f"table {table} out of range [0, {self.n_tables})")
        t = self._tables[table]
        counts = self._active_bucket_counts(t)
        return {
            int(key): int(count)
            for key, count in zip(t.unique_keys.tolist(), counts.tolist())
        }

    def large_buckets(
        self, min_size: int = 6, table: int | None = 0
    ) -> list[np.ndarray]:
        """Active members of buckets with at least *min_size* active items.

        PALID samples its initial vertices from "every LSH hash bucket
        that contains more than 5 data items" (paper §4.6), i.e.
        ``min_size=6``.  ``table=None`` scans every table (recommended
        for seeding: a cluster that never concentrates in one table's
        buckets may still do so in another's).
        """
        tables = self._tables if table is None else [self._tables[table]]
        out = []
        for t in tables:
            counts = self._active_bucket_counts(t)
            for pos in np.flatnonzero(counts >= min_size):
                members = t.members[t.offsets[pos] : t.offsets[pos + 1]]
                out.append(members[self._active[members]])
        return out

    # ------------------------------------------------------------------
    # memory model
    # ------------------------------------------------------------------
    def storage_cost_entries(self) -> int:
        """Index storage in "slots" for the simulated memory model.

        Matches the paper's accounting (§4.3): O(n*l) for the inverted
        list plus O(n*l) for the hash tables.
        """
        return 2 * self.n * self.n_tables
