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
* One hash path: every table's projections, offsets and key mixers are
  stacked, and :meth:`LSHIndex._block_keys` hashes a block against all
  tables at once, a few column-blocked products per 64-row chunk.  The
  build, :meth:`LSHIndex.insert`, :meth:`LSHIndex.check_hashable` and
  every foreign-point query call it, so each refuses the same rows (those
  projecting outside the int64 range of hash codes) and an item and its
  twin query always get the same key.
* One CSR for all tables: each table's buckets are the sorted distinct
  keys of its row of the ``(l, n)`` item keys, numbered table-major; one
  flat member array holds every bucket's members in ascending index
  order, with per-bucket (start, length) ranges and an ``(l, n)`` map
  from item to its bucket in every table.  A stable sort per table row
  lays it out (:meth:`LSHIndex._build_csr`) for the build,
  :meth:`LSHIndex.from_state` and :meth:`LSHIndex.insert`.  Lookups are
  ``searchsorted`` binary searches, and multi-bucket queries gather all
  member ranges with a single repeat/cumsum fancy-index — no Python
  dict traffic on the hot path.
* Insert is a merge: each table's old members are passed in key order,
  followed by the batch, and NumPy's stable sort (timsort) merges that
  sorted run with the batch in O(n + m log m) per table.
* Batched queries (:meth:`LSHIndex.query_items`) deduplicate the
  candidate union with one :func:`sorted_unique` over the concatenated
  gathers, which is what makes CIVS's multi-query pattern (one query
  per supporting item, paper Fig. 4(b)) cheap: the dedup costs
  O(k log k) in the k items gathered, never O(n).
* Foreign points (serve-time queries) cost one hash pass and one binary
  search per table (:meth:`LSHIndex.point_bucket_hits`).
  :meth:`LSHIndex.bucket_owners` maps buckets to the owners of their
  members, which is all the serving shortlist needs from a hit.
* Peeling (paper §4.4) uses an *active mask*: peeled items stay in the
  tables but are filtered out of every query — O(1) per peel, no rebuild.
* The collision *structure* is read directly:
  :meth:`LSHIndex.active_bucket_populations` (one ``reduceat`` over the
  CSR), :meth:`LSHIndex.has_active_collision` (the peeling loop's
  per-seed noise pre-filter, reading only the seed's ``l`` buckets),
  :meth:`LSHIndex.colliding_mask` (the same test for every item at
  once), :meth:`LSHIndex.collision_components` (the ingest tier's
  re-peel units: the components holding given items, grown by a search
  through the CSR from those items alone) and
  :meth:`LSHIndex.query_items_grouped` (one gather serving a PALID seed
  cohort's CIVS queries).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.lsh.hashing import PStableHashFamily
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.validation import (
    check_data_matrix,
    check_index_array,
    check_query_block,
)

__all__ = ["HASH_CHUNK_ROWS", "LSHIndex", "csr_gather", "sorted_unique"]

#: Rows hashed per chunk by :meth:`LSHIndex._block_keys` (the build,
#: inserts and queries); bounds the ``(rows, n_tables * n_projections)``
#: coordinate temporaries.
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
        self._mixers = np.stack(
            [
                mixer_rng.integers(
                    1, 2**63 - 1, size=self.n_projections, dtype=np.uint64
                )
                | np.uint64(1)
                for _ in range(self.n_tables)
            ]
        )
        self._projections = np.concatenate([p for p, _ in hash_state])
        self._hash_offsets = np.concatenate([o for _, o in hash_state])
        self._active = np.ones(n, dtype=bool)
        # The checked hash path: a row projecting outside the int64 range
        # of hash codes refuses the build, as it refuses insert and query.
        self._item_keys = self._block_keys(self._data)[:, :, 0]
        self._build_csr(self._item_keys)

    def _build_csr(self, keys: np.ndarray, ids: np.ndarray | None = None) -> None:
        """Lay out the index's one CSR from per-table rows of bucket keys.

        Row ``t`` of *keys* ``(l, n)`` holds table ``t``'s key of the
        item in the same column of *ids* (item ``j`` at column ``j`` when
        *ids* is None).  One stable sort per row groups it by key, ties
        in column order, and each run of equal keys becomes a bucket:
        numbered table-major, keys ascending within a table, members
        contiguous in the flat ``(l * n,)`` member array.  The build and
        :meth:`from_state` pass item order; :meth:`insert` passes each
        table's old members in key order followed by the batch, so every
        bucket's members stay ascending.
        """
        l, n = keys.shape
        members = np.empty((l, n), dtype=np.intp)
        item_buckets = np.empty((l, n), dtype=np.intp)
        new_bucket = np.ones(n, dtype=bool)
        key_parts = []
        start_parts = []
        n_buckets = 0
        for t in range(l):
            order = np.argsort(keys[t], kind="stable")
            row = keys[t][order]
            np.not_equal(row[1:], row[:-1], out=new_bucket[1:])
            starts = np.flatnonzero(new_bucket)
            key_parts.append(row[starts])
            start_parts.append(starts + t * n)
            members[t] = order if ids is None else ids[t][order]
            bucket_of = np.cumsum(new_bucket)
            bucket_of += n_buckets - 1
            item_buckets[t, members[t]] = bucket_of
            n_buckets += starts.size
        self._g_keys = np.concatenate(key_parts)
        bounds = np.concatenate([*start_parts, [l * n]])
        self._g_starts = bounds[:-1]
        self._g_lengths = np.diff(bounds)
        self._g_members = members.reshape(l * n)
        self._item_buckets = item_buckets
        self._table_bucket_base = np.cumsum(
            [0] + [part.size for part in key_parts], dtype=np.intp
        )

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

        The hash state is fixed at construction, so inserted items
        land in exactly the buckets a from-scratch build would put them
        in; queries before/after insertion are consistent.  New items
        start active.  The batch is hashed like a query block, so a row
        whose segment coordinates leave the int64 range of hash codes
        refuses the whole batch with :class:`ValidationError` and
        nothing is inserted.

        Cost note: each table's old members are handed to
        :meth:`_build_csr` already in key order, followed by the batch,
        so the stable sort merges one sorted run with the batch —
        O(n + m log m) per table for a batch of m, not an O(n log n)
        re-sort.  The item->bucket map still shifts globally whenever a
        new bucket appears, so refreshing it stays O(l * n); batch
        arrivals rather than inserting point-by-point.
        """
        new_data = check_data_matrix(new_data, name="new_data")
        if new_data.shape[1] != self._data.shape[1]:
            raise ValidationError(
                f"new_data has dim {new_data.shape[1]}, "
                f"index expects {self._data.shape[1]}"
            )
        # Hashed before any state changes: an unhashable row refuses the
        # whole batch and leaves the index untouched.
        keys = self._block_keys(new_data)[:, :, 0]
        l, n = self._item_keys.shape
        m = new_data.shape[0]
        new_indices = np.arange(n, n + m, dtype=np.intp)
        self._build_csr(
            np.concatenate(
                [np.repeat(self._g_keys, self._g_lengths).reshape(l, n), keys],
                axis=1,
            ),
            np.concatenate(
                [
                    self._g_members.reshape(l, n),
                    np.broadcast_to(new_indices, (l, m)),
                ],
                axis=1,
            ),
        )
        self._item_keys = np.concatenate([self._item_keys, keys], axis=1)
        self._data = np.vstack([self._data, new_data])
        self._active = np.concatenate([self._active, np.ones(m, dtype=bool)])
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
        search.  Keys are those the build and :meth:`insert` filed the
        items under (the one hash path, :meth:`_block_keys`).

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
        bucket_base = self._table_bucket_base
        bounds = bucket_base.tolist()
        pos = np.empty(keys.shape, dtype=np.intp)
        for t in range(l):
            table_keys = self._g_keys[bounds[t] : bounds[t + 1]]
            pos[t] = table_keys.searchsorted(keys[t])
        # A key above a table's largest bucket key lands one past its
        # end; clamped to the last bucket it simply fails the match.
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
        """``(l, q, k)`` bucket keys of a validated ``(q, d)`` block.

        The index's one hash path, for the build, :meth:`insert`,
        :meth:`check_hashable` and every query.  Rows are hashed against
        all tables at once over the stacked projections, at most
        :data:`HASH_CHUNK_ROWS` at a time, in column blocks small enough
        to run on the calling thread.  Table ``t``'s key of a row is
        ``sum_j floor((a_j . v + b_j) / r) * mixer_j`` over its ``mu``
        functions, in uint64 with wraparound.  Without *probe*, ``k`` is
        1; with it, the hook's keys (see :meth:`point_bucket_hits`).

        Raises
        ------
        ValidationError
            For a row whose segment coordinates leave the int64 range of
            hash codes.
        """
        l, mu = self._mixers.shape
        dim = points.shape[1]
        parts = []
        for lo in range(0, points.shape[0], HASH_CHUNK_ROWS):
            chunk = points[lo : lo + HASH_CHUNK_ROWS]
            c = chunk.shape[0]
            coords = np.empty((c, l * mu))
            step = max(1, _SERIAL_GEMM_MACS // (c * dim))
            for col in range(0, l * mu, step):
                np.matmul(
                    chunk,
                    self._projections[col : col + step].T,
                    out=coords[:, col : col + step],
                )
            coords += self._hash_offsets
            coords /= self.r
            # floor(x) fits int64 exactly when x lies in [-2**63, 2**63).
            # NaN fails both comparisons; casting an out-of-range float is
            # undefined, so such a row is rejected, not hashed.
            if not (
                coords.min() >= -_INT64_SPAN and coords.max() < _INT64_SPAN
            ):
                raise ValidationError(
                    "points project outside the int64 range of hash codes "
                    "(coordinates too large to hash)"
                )
            codes = np.floor(coords, out=coords if probe is None else None)
            # Cast to uint64 *before* mixing (int64 * uint64 promotes to
            # float64): the reinterpretation and the sum of products wrap.
            ints = codes.astype(np.int64).view(np.uint64).reshape(c, l, mu)
            # C order: each table's keys stay contiguous for its lookups.
            keys = np.einsum("ctm,tm->tc", ints, self._mixers, order="C")
            keys = keys[:, :, None]
            if probe is not None:
                fractions = (coords - codes).reshape(c * l, mu)
                mixers = np.broadcast_to(self._mixers, (c, l, mu))
                keys = probe(
                    fractions,
                    keys.transpose(1, 0, 2).reshape(c * l),
                    mixers.reshape(c * l, mu),
                )
                keys = np.ascontiguousarray(
                    keys.reshape(c, l, -1).transpose(1, 0, 2)
                )
            parts.append(keys)
        if not parts:
            return np.empty((l, 0, 1), dtype=np.uint64)
        return np.concatenate(parts, axis=1)

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
            "item_keys": self._item_keys.copy(),
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
        return self._item_keys[:, start:].copy()

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
        bit-identically to the exporting one: the hash state is restored
        from its stored random state, per-item bucket keys are taken
        verbatim, and the CSR is laid out by the same :meth:`_build_csr`
        the build uses.  *data* may be a read-only memory map — it is
        validated but never copied, which is what lets a multi-GB
        snapshot serve without materialising the matrix.

        Raises
        ------
        ValidationError
            For shapes that disagree with *data* or each other, a
            non-finite *data*, projection or offset, or an *r* that is
            not positive and finite.
        """
        data = check_data_matrix(data, name="data")
        r = float(r)
        if not 0.0 < r < np.inf:
            raise ValidationError(f"r must be positive and finite, got {r}")
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
        if not (np.isfinite(projections).all() and np.isfinite(hash_offsets).all()):
            raise ValidationError("projections and hash_offsets must be finite")
        self = cls.__new__(cls)
        self._data = data
        self.r = r
        self.n_projections = int(mu)
        self.n_tables = int(l)
        self._projections = np.ascontiguousarray(projections).reshape(l * mu, dim)
        self._hash_offsets = np.ascontiguousarray(hash_offsets).reshape(l * mu)
        self._mixers = np.ascontiguousarray(mixers, dtype=np.uint64)
        self._item_keys = np.ascontiguousarray(item_keys, dtype=np.uint64)
        self._active = np.array(active, dtype=bool)
        self._build_csr(self._item_keys)
        return self

    # ------------------------------------------------------------------
    # bucket statistics (PALID seed sampling, paper §4.6)
    # ------------------------------------------------------------------
    def _active_bucket_counts(self, table: int) -> np.ndarray:
        """Active-member count of every bucket of one table (its CSR slice)."""
        if not 0 <= table < self.n_tables:
            raise IndexError(f"table {table} out of range [0, {self.n_tables})")
        n = self.n
        lo, hi = self._table_bucket_base[table : table + 2]
        flags = self._active[self._g_members[table * n : (table + 1) * n]]
        return np.add.reduceat(
            flags.astype(np.int64), self._g_starts[lo:hi] - table * n
        )

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

    def collision_components(self, items: np.ndarray) -> np.ndarray:
        """Active items of the collision components that contain *items*.

        Two active items are connected when they share a bucket in any
        table; components are the transitive closure.  A seeded Alg. 2
        run can only ever reach items inside its seed's component
        (CIVS retrieval is LSH-collision-bound), so a change to one
        component leaves runs seeded in the others unaffected — the
        invariant the ingest tier uses to re-peel only dirty
        components.

        The components are grown by a search from *items* through the
        CSR: each round gathers the frontier's unseen buckets, then
        their unseen active members, until no new item appears.  Beyond
        zeroing one flag per item and per bucket, the cost follows the
        components found, not the index size.

        Returns
        -------
        numpy.ndarray
            Sorted global indices of every active item in a component
            holding one of *items*.  An inactive item belongs to no
            component and adds nothing.
        """
        items = check_index_array(items, self.n, name="items")
        seen_items = np.zeros(self.n, dtype=bool)
        seen_buckets = np.zeros(self._g_lengths.size, dtype=bool)
        frontier = sorted_unique(items[self._active[items]])
        while frontier.size:
            seen_items[frontier] = True
            buckets = self._item_buckets[:, frontier]
            buckets = sorted_unique(buckets[~seen_buckets[buckets]])
            seen_buckets[buckets] = True
            members = self._gather_buckets(buckets)
            members = members[self._active[members] & ~seen_items[members]]
            frontier = sorted_unique(members)
        return np.flatnonzero(seen_items)

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
        counts = self._active_bucket_counts(table)
        return counts[self._item_buckets[table] - self._table_bucket_base[table]]

    def bucket_sizes(self, table: int = 0) -> dict[int, int]:
        """Bucket key -> active-member count for one table."""
        counts = self._active_bucket_counts(table)
        lo, hi = self._table_bucket_base[table : table + 2]
        return dict(zip(self._g_keys[lo:hi].tolist(), counts.tolist()))

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
        tables = range(self.n_tables) if table is None else [table]
        out = []
        for t in tables:
            counts = self._active_bucket_counts(t)
            for b in np.flatnonzero(counts >= min_size) + self._table_bucket_base[t]:
                start = self._g_starts[b]
                members = self._g_members[start : start + self._g_lengths[b]]
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
