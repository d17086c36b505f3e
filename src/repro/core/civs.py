"""Candidate Infective Vertex Search — CIVS (paper §4.3, Fig. 4).

A single LSH query from the ROI centre covers only one locality-sensitive
region and can miss parts of the ROI (paper Fig. 4(a)).  CIVS therefore
queries the index from *every supporting data item* of the current local
dense subgraph, unions the collision sets, filters them exactly against
the ROI ball, and keeps at most ``delta`` candidates nearest to the
centre ``D`` (Fig. 4(b)).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.affinity.oracle import AffinityOracle
from repro.lsh.index import LSHIndex
from repro.obs import phases
from repro.utils.validation import check_index_array

__all__ = ["CIVSResult", "civs_retrieve"]


@dataclass(frozen=True)
class CIVSResult:
    """Outcome of one CIVS retrieval.

    Attributes
    ----------
    psi:
        Global indices of retrieved candidates (new vertices within the
        ROI, at most delta, nearest-to-centre first).
    n_candidates:
        Size of the raw LSH collision union before the exact ROI filter
        (diagnostic: how much the exact filter pruned).
    """

    psi: np.ndarray
    n_candidates: int


def civs_retrieve(
    index: LSHIndex,
    oracle: AffinityOracle,
    support: np.ndarray,
    center: np.ndarray,
    radius: float,
    delta: int,
    *,
    exclude: np.ndarray | None = None,
    candidates: np.ndarray | None = None,
) -> CIVSResult:
    """Retrieve candidate infective vertices inside the ROI.

    Parameters
    ----------
    index:
        The LSH index over all data items (peeled items are inactive).
    oracle:
        Affinity oracle (used for exact distance checks, which are charged
        as work like any other kernel-adjacent computation).
    support:
        Global indices of the supporting items of ``x_hat`` — each issues
        one LSH query (the multi-LSR coverage of Fig. 4(b)).
    center:
        The ROI centre ``D``.
    radius:
        Current working radius of the ROI (Eq. 16).
    delta:
        Maximum number of candidates to keep (paper: 800).
    exclude:
        Additional global indices to drop from the result (the support
        itself is always dropped — psi must contain *new* vertices only).
    candidates:
        Precomputed LSH collision union for *support* — must equal
        ``index.query_items(support)``.  A seed cohort
        (:meth:`~repro.core.alid.ALIDEngine.detect_cohort`) passes the
        per-seed slice of one
        :meth:`~repro.lsh.index.LSHIndex.query_items_grouped` call here
        so the whole cohort shares a single fused gather; ``None``
        queries the index directly.

    Returns
    -------
    CIVSResult
        Candidates sorted by distance to the centre, nearest first.
    """
    prof = phases.active()
    if prof is None:
        return _civs_retrieve(
            index, oracle, support, center, radius, delta,
            exclude=exclude, candidates=candidates,
        )
    t0 = time.perf_counter()
    before = oracle.counters.entries_computed
    result = _civs_retrieve(
        index, oracle, support, center, radius, delta,
        exclude=exclude, candidates=candidates,
    )
    prof.record(
        "civs",
        wall=time.perf_counter() - t0,
        entries=oracle.counters.entries_computed - before,
        candidates=result.n_candidates,
        retrieved=int(result.psi.size),
    )
    return result


def _civs_retrieve(
    index: LSHIndex,
    oracle: AffinityOracle,
    support: np.ndarray,
    center: np.ndarray,
    radius: float,
    delta: int,
    *,
    exclude: np.ndarray | None = None,
    candidates: np.ndarray | None = None,
) -> CIVSResult:
    """The unprofiled CIVS body (see :func:`civs_retrieve`)."""
    support = check_index_array(support, index.n, name="support")
    if candidates is None:
        candidates = index.query_items(support)
    n_raw = int(candidates.size)
    if candidates.size == 0:
        return CIVSResult(psi=np.empty(0, dtype=np.intp), n_candidates=0)
    # query_items already excludes the support; only the caller's extra
    # exclusions (e.g. the immunity cache) remain to be filtered.
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=np.intp).ravel()
        if exclude.size:
            candidates = candidates[
                np.isin(candidates, exclude, invert=True)
            ]
    if candidates.size == 0:
        return CIVSResult(psi=np.empty(0, dtype=np.intp), n_candidates=n_raw)
    # Exact fixed-radius filter against the ROI ball.
    dists = oracle.distances_to_point(center, rows=candidates)
    inside = dists <= radius
    candidates = candidates[inside]
    dists = dists[inside]
    if candidates.size > delta:
        # Keep the delta candidates nearest to the ball centre (paper:
        # "at most delta new data items within the ROI that are the
        # nearest to the ball center D").
        nearest = np.argsort(dists, kind="stable")[:delta]
        candidates = candidates[nearest]
    else:
        order = np.argsort(dists, kind="stable")
        candidates = candidates[order]
    return CIVSResult(psi=candidates, n_candidates=n_raw)
