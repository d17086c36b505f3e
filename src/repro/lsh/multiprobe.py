"""Multi-probe LSH queries (Lv et al., VLDB 2007) over :class:`LSHIndex`.

Plain LSH needs many hash tables to reach high recall — the paper uses
50 (Fig. 6), and each table costs O(n) index memory (§4.3).  Multi-probe
trades probes for tables: besides the query's own bucket, each table is
probed in the neighbouring buckets obtained by perturbing individual
hash coordinates by ±1, in increasing order of expected "miss distance".

For the p-stable function ``h_j(v) = floor(f_j)`` with segment coordinate
``f_j = (a_j . v + b_j) / r`` and fractional part ``x_j``, a near
neighbour that missed the query's bucket most plausibly fell just across
a segment boundary, so the score of perturbing coordinate ``j`` by +1 is
``(1 - x_j)^2`` and by −1 is ``x_j^2`` (squared distance to the
boundary, Lv et al. §4.2).  The cheapest perturbation *sets* are
enumerated with the shift/expand heap over the sorted single-coordinate
scores (§4.4).

The bucket key of a perturbed code vector is computed incrementally:
:class:`~repro.lsh.index.LSHIndex` fingerprints code vectors with a
linear map ``key = sum_j code_j * mixer_j (mod 2^64)``, so perturbing
coordinate ``j`` by ±1 shifts the key by ``±mixer_j`` — no re-hashing.

The querier does **not** run the heap per (query, table).  In sorted-
position space the validity rule is query-independent: when the ``2
mu`` single-coordinate scores are sorted ascending, the opposite
perturbation of the coordinate at sorted position ``p`` always sits at
position ``2 mu - 1 - p`` (``x^2`` and ``(1-x)^2`` order oppositely in
``x``, so rank counts mirror).  That makes the whole enumeration
hoistable: :func:`probe_candidate_sets` precomputes, once per
``(2 mu, n_probes)`` family, every sorted-position set that can appear
among the ``n_probes`` cheapest valid sets for *any* score vector (the
sets whose dominance ideal holds fewer than ``n_probes`` valid sets),
and each query then just scores those candidates against its own sorted
coordinates — a few vectorized gathers per block of (query, table)
rows instead of a Python heap per (query, table).  Probing rides on
:meth:`~repro.lsh.index.LSHIndex.point_bucket_hits`, which hashes the
block against all tables at once and hands the coordinates to
:meth:`MultiProbeQuerier.probe_keys`.  The per-query result is identical to
the heap enumeration except under exactly-tied perturbation scores
(coordinates whose fractional parts coincide bit-for-bit — probability
zero for real-valued projections), where the adjacent-bucket tie may
resolve differently.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.exceptions import ValidationError
from repro.lsh.index import LSHIndex
from repro.utils.validation import check_index_array

__all__ = ["MultiProbeQuerier", "perturbation_sets", "probe_candidate_sets"]

Perturbation = tuple[int, int]  # (coordinate, delta in {-1, +1})

# Above this probe count the query-independent candidate enumeration is
# not precomputed (its dominance counting grows with n_probes^2) and the
# querier falls back to the exact per-query heap.
_VECTOR_PROBE_CAP = 128


def perturbation_sets(
    fractions: np.ndarray, n_probes: int
) -> list[list[Perturbation]]:
    """The *n_probes* cheapest perturbation sets for one query.

    Parameters
    ----------
    fractions:
        Fractional parts ``x_j in [0, 1)`` of the query's segment
        coordinates, one per hash coordinate.
    n_probes:
        Number of sets to return.

    Returns
    -------
    list of perturbation sets, each a list of ``(coordinate, ±1)``
    pairs, ordered by ascending total score ``sum of x^2 / (1-x)^2``.
    A set never perturbs one coordinate both ways (such sets are
    invalid: the perturbed bucket would not be adjacent).

    Implements the shift/expand heap of Lv et al. §4.4: starting from
    the singleton holding the cheapest perturbation, the successors of a
    set whose maximum sorted position is ``m`` are *shift* (replace
    ``m`` by ``m + 1``) and *expand* (add ``m + 1``); both preserve the
    heap's cost order, so sets pop in globally ascending cost.
    """
    fractions = np.asarray(fractions, dtype=np.float64)
    if fractions.ndim != 1 or fractions.size == 0:
        raise ValidationError(
            f"fractions must be a non-empty 1-D array, got shape "
            f"{fractions.shape}"
        )
    if np.any((fractions < 0.0) | (fractions >= 1.0)):
        raise ValidationError("fractions must lie in [0, 1)")
    if n_probes < 0:
        raise ValidationError(f"n_probes must be >= 0, got {n_probes}")
    if n_probes == 0:
        return []
    mu = fractions.size
    # All 2*mu single-coordinate perturbations with their scores.
    scores = np.concatenate([fractions**2, (1.0 - fractions) ** 2])
    deltas = np.concatenate(
        [np.full(mu, -1, dtype=np.int64), np.ones(mu, dtype=np.int64)]
    )
    coordinates = np.concatenate([np.arange(mu), np.arange(mu)])
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # Sorted position of the opposite perturbation of the same
    # coordinate, for the validity rule.
    rank_of = np.empty(2 * mu, dtype=np.intp)
    rank_of[order] = np.arange(2 * mu)
    partner = rank_of[(order + mu) % (2 * mu)]

    out: list[list[Perturbation]] = []
    start = (0,)
    heap: list[tuple[float, tuple[int, ...]]] = [
        (float(sorted_scores[0]), start)
    ]
    seen = {start}
    while heap and len(out) < n_probes:
        cost, positions = heapq.heappop(heap)
        taken = set(positions)
        if not any(int(partner[pos]) in taken for pos in positions):
            out.append(
                [
                    (int(coordinates[order[pos]]), int(deltas[order[pos]]))
                    for pos in positions
                ]
            )
        m = positions[-1]
        if m + 1 < 2 * mu:
            for successor in (
                positions[:-1] + (m + 1,),
                positions + (m + 1,),
            ):
                if successor not in seen:
                    seen.add(successor)
                    heapq.heappush(
                        heap,
                        (
                            float(sorted_scores[list(successor)].sum()),
                            successor,
                        ),
                    )
    return out


def _dominated_at_most(
    t: tuple[int, ...], two_mu: int, limit: int
) -> int:
    """Count valid sets dominated by *t*, capped at *limit*.

    ``u`` is dominated by ``t`` when every ascending score vector makes
    ``u`` at most as expensive: ``len(u) <= len(t)`` and ``u_i <=
    t[i + len(t) - len(u)]``.  Validity means no sorted position appears
    together with its mirror ``2 mu - 1 - p``.  The count includes *t*
    itself when *t* is valid; the search bails out once *limit* is
    exceeded, which keeps candidate generation O(n_probes) per probe.
    """
    length = len(t)
    total = 0
    for sub in range(1, length + 1):
        bounds = t[length - sub :]
        stack = [(0, 0, frozenset())]
        while stack:
            if total > limit:
                return total
            i, lo, used = stack.pop()
            if i == len(bounds):
                total += 1
                continue
            for q in range(lo, bounds[i] + 1):
                if two_mu - 1 - q in used or q in used:
                    continue
                stack.append((i + 1, q + 1, used | {q}))
    return total


def probe_candidate_sets(two_mu: int, n_probes: int) -> list[tuple[int, ...]]:
    """All sorted-position sets that can rank among the cheapest *n_probes*.

    Returns every valid (mirror-free) strictly-increasing tuple of
    sorted positions over ``[0, two_mu)`` whose strict dominance ideal
    contains fewer than *n_probes* valid sets — the query-independent
    superset of the heap enumeration's first *n_probes* outputs over all
    possible score vectors.  Tuples are returned in lexicographic order
    (the heap's tie order), ready to be cost-scored per query.
    """
    if two_mu <= 0:
        raise ValidationError(f"two_mu must be positive, got {two_mu}")
    if n_probes < 0:
        raise ValidationError(f"n_probes must be >= 0, got {n_probes}")
    if n_probes == 0:
        return []
    out: list[tuple[int, ...]] = []
    start = (0,)
    frontier = [start]
    seen = {start}
    while frontier:
        t = frontier.pop()
        dominated = _dominated_at_most(t, two_mu, n_probes)
        valid = not any(two_mu - 1 - p in t for p in t)
        strict = dominated - (1 if valid else 0)
        if strict >= n_probes:
            # Dominance counts only grow along shift/expand: prune.
            continue
        if valid:
            out.append(t)
        m = t[-1]
        if m + 1 < two_mu:
            for successor in (t[:-1] + (m + 1,), t + (m + 1,)):
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
    out.sort()
    return out


class _ProbePlan:
    """Precomputed vectorized enumeration for one ``(2 mu, n_probes)``.

    Holds the candidate sorted-position sets as one padded index matrix
    (pad column = ``2 mu``, which maps to a zero score and a zero key
    offset), so a query batch scores every candidate with one gather +
    sum and picks its ``n_probes`` cheapest with one stable argsort.
    """

    __slots__ = ("n_candidates", "n_probes", "positions", "two_mu")

    def __init__(self, two_mu: int, n_probes: int):
        candidates = probe_candidate_sets(two_mu, n_probes)
        self.two_mu = int(two_mu)
        self.n_probes = int(n_probes)
        self.n_candidates = len(candidates)
        width = max((len(t) for t in candidates), default=1)
        self.positions = np.full(
            (len(candidates), width), two_mu, dtype=np.intp
        )
        for row, t in enumerate(candidates):
            self.positions[row, : len(t)] = t


class MultiProbeQuerier:
    """Probe an existing :class:`LSHIndex` in multiple buckets per table.

    Parameters
    ----------
    index:
        The index to query (unchanged; this class adds no storage beyond
        transient probe keys).
    n_probes:
        Extra buckets probed per table, beyond the query's own bucket.

    Example
    -------
    >>> import numpy as np
    >>> from repro.lsh.index import LSHIndex
    >>> rng = np.random.default_rng(0)
    >>> data = rng.normal(size=(50, 4))
    >>> index = LSHIndex(data, r=1.0, n_projections=8, n_tables=2, seed=0)
    >>> plain = index.query_point(data[0])
    >>> probed = MultiProbeQuerier(index, n_probes=4).query_point(data[0])
    >>> set(plain.tolist()) <= set(probed.tolist())
    True
    """

    def __init__(self, index: LSHIndex, *, n_probes: int = 8):
        if n_probes < 0:
            raise ValidationError(f"n_probes must be >= 0, got {n_probes}")
        self.index = index
        self.n_probes = int(n_probes)
        self._plan: _ProbePlan | None = None

    # ------------------------------------------------------------------
    def _probe_plan(self, mu: int) -> _ProbePlan | None:
        """The (cached) vectorized enumeration, or None for the heap path."""
        if self.n_probes == 0 or self.n_probes > _VECTOR_PROBE_CAP:
            return None
        plan = self._plan
        if plan is None or plan.two_mu != 2 * mu:
            plan = _ProbePlan(2 * mu, self.n_probes)
            self._plan = plan
        return plan

    def probe_keys(
        self, fractions: np.ndarray, base_keys: np.ndarray, mixers: np.ndarray
    ) -> np.ndarray:
        """Own and perturbed bucket keys of ``m`` (point, table) rows.

        The ``probe`` hook of
        :meth:`repro.lsh.index.LSHIndex.point_bucket_hits`, which passes
        the fractional parts ``(m, mu)`` of each row's segment
        coordinates, the row's own bucket key ``(m,)`` and its table's
        key mixers ``(m, mu)``.  Perturbed keys are derived
        incrementally from the own key (``key ± mixer_j`` per perturbed
        coordinate), with the perturbation sets picked by scoring the
        precomputed candidate family against each row's sorted
        coordinates (see the module docstring) — no per-row Python
        enumeration.  Returns ``(m, 1 + n_probes)`` keys, the own key
        first; a row with fewer valid perturbation sets repeats its own
        key in the spare columns.
        """
        m, mu = fractions.shape
        plan = self._probe_plan(mu)
        if plan is None:
            return self._probe_keys_heap(fractions, base_keys, mixers)
        if plan.n_candidates == 0:
            return base_keys[:, None].copy()
        # Per-row scores of all 2 mu single perturbations: columns
        # [0, mu) are delta = -1 (cost x^2), [mu, 2 mu) are delta = +1.
        scores = np.concatenate([fractions**2, (1.0 - fractions) ** 2], axis=1)
        order = np.argsort(scores, axis=1, kind="stable")
        ranked = np.take_along_axis(scores, order, axis=1)
        ranked = np.concatenate([ranked, np.zeros((m, 1))], axis=1)
        costs = ranked[:, plan.positions].sum(axis=2)
        take = min(plan.n_probes, plan.n_candidates)
        chosen = np.argsort(costs, axis=1, kind="stable")[:, :take]
        # Signed key offsets aligned with the score columns, plus the
        # zero pad slot; gathering through `order` puts them in each
        # row's sorted-position space.
        signed = np.concatenate(
            [np.uint64(0) - mixers, mixers, np.zeros((m, 1), dtype=np.uint64)],
            axis=1,
        )
        pad = np.full((m, 1), 2 * mu, dtype=order.dtype)
        offsets = np.take_along_axis(
            signed, np.concatenate([order, pad], axis=1), axis=1
        )
        candidate_offsets = offsets[:, plan.positions].sum(
            axis=2, dtype=np.uint64
        )
        picked = np.take_along_axis(candidate_offsets, chosen, axis=1)
        with np.errstate(over="ignore"):
            keys = base_keys[:, None] + picked
        return np.concatenate([base_keys[:, None], keys], axis=1)

    def _probe_keys_heap(
        self, fractions: np.ndarray, base_keys: np.ndarray, mixers: np.ndarray
    ) -> np.ndarray:
        """Exact per-row heap enumeration (n_probes above the cap)."""
        keys = np.repeat(base_keys[:, None], 1 + self.n_probes, axis=1)
        with np.errstate(over="ignore"):
            for row in range(fractions.shape[0]):
                sets = perturbation_sets(fractions[row], self.n_probes)
                for col, perturbations in enumerate(sets, start=1):
                    key = base_keys[row]
                    for coordinate, delta in perturbations:
                        if delta > 0:
                            key = key + mixers[row, coordinate]
                        else:
                            key = key - mixers[row, coordinate]
                    keys[row, col] = key
        return keys

    def query_points(self, points: np.ndarray) -> np.ndarray:
        """Active items found in the probed buckets over a point batch.

        The batched counterpart of :meth:`query_point`: one hashing pass
        covers every point and table, and the probed buckets are
        deduplicated once before their members are gathered.
        """
        return self.index.query_points(points, probe=self.probe_keys)

    def query_point(self, point: np.ndarray) -> np.ndarray:
        """Active items found in the probed buckets of every table."""
        point = np.asarray(point)
        if point.ndim != 1:
            raise ValidationError(
                f"point must be 1-D of dim {self.index._data.shape[1]}, "
                f"got shape {point.shape}"
            )
        return self.query_points(point)

    def query_item(self, i: int) -> np.ndarray:
        """Multi-probe lookup for an indexed item (excludes *i* itself)."""
        if not 0 <= i < self.index.n:
            raise IndexError(
                f"item index {i} out of range [0, {self.index.n})"
            )
        result = self.query_point(self.index._data[i])
        return result[result != i]

    def query_items(self, indices: np.ndarray) -> np.ndarray:
        """Multi-probe union over several indexed items.

        Mirrors :meth:`LSHIndex.query_items`: the result is the
        deduplicated union of every item's probed collisions, with all
        query items excluded.
        """
        indices = check_index_array(indices, self.index.n, name="indices")
        if indices.size == 0:
            return np.empty(0, dtype=np.intp)
        out = self.query_points(self.index._data[indices])
        if out.size:
            out = out[np.isin(out, indices, invert=True)]
        return out
