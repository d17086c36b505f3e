"""The Theorem 1 infectivity test, shared by fit-time and serve-time code.

A converged cluster strategy ``x`` (support ``members``, weights, density
``pi(x)``) is *immune* against a vertex ``s`` exactly when the payoff
margin ``pi(s - x, x) = a(s, members) . weights - pi(x)`` is at most the
immunity tolerance; vertices above the tolerance are **infective** and
would strictly increase the cluster's density if absorbed (paper
Theorem 1, the stop criterion of Alg. 2).

Three call sites evaluate this test against a *finished* strategy and
previously re-implemented it inline:

* :meth:`repro.streaming.online.StreamingALID` absorb — arriving items
  joining an existing cluster;
* :meth:`repro.core.alid.ALIDEngine` global verification — the exact
  full-range scan behind ``verify_global=True``;
* :class:`repro.serve.assigner.ClusterAssigner` — serve-time assignment
  of foreign query points to persisted clusters.

All three now route through the vectorised helpers below, so the
criterion (and its oracle accounting: one counted block per evaluation)
cannot drift between the online and serving paths.  The ingest tier
does not re-test the arrivals absorb left over: each one dirties its
LSH collision component for a re-peel, whatever its margin.
"""

from __future__ import annotations

import numpy as np

from repro.affinity.oracle import AffinityOracle

__all__ = [
    "cluster_payoffs",
    "item_payoffs",
    "point_payoffs",
    "infective_mask",
]


def cluster_payoffs(
    block: np.ndarray, weights: np.ndarray, density: float
) -> np.ndarray:
    """Payoff margins ``pi(s - x, x)`` from a precomputed affinity block.

    Parameters
    ----------
    block:
        Affinity block of shape ``(m, support)`` — one row per candidate
        vertex, columns aligned with the cluster's support.
    weights:
        The cluster's converged strategy weights over its support.
    density:
        The cluster's graph density ``pi(x)``.

    Returns
    -------
    numpy.ndarray
        ``block @ weights - density``, one margin per candidate row.
    """
    weights = np.asarray(weights, dtype=np.float64)
    return np.asarray(block, dtype=np.float64) @ weights - float(density)


def item_payoffs(
    oracle: AffinityOracle,
    items: np.ndarray,
    members: np.ndarray,
    weights: np.ndarray,
    density: float,
) -> np.ndarray:
    """Payoff margins of **indexed items** against a cluster strategy.

    One counted :meth:`~repro.affinity.oracle.AffinityOracle.block`
    fetch of shape ``(len(items), len(members))`` — the exact evaluation
    (and accounting) streaming absorb has always performed.
    """
    return cluster_payoffs(oracle.block(items, members), weights, density)


def point_payoffs(
    oracle: AffinityOracle,
    points: np.ndarray,
    members: np.ndarray,
    weights: np.ndarray,
    density: float,
) -> np.ndarray:
    """Payoff margins of **foreign query points** against a cluster strategy.

    The serve-time twin of :func:`item_payoffs`: queries are arbitrary
    points, not rows of the oracle's data matrix, so the affinities come
    from one counted
    :meth:`~repro.affinity.oracle.AffinityOracle.point_block` fetch (no
    zero-diagonal rule applies — a query is never a support member).
    """
    return cluster_payoffs(
        oracle.point_block(points, members), weights, density
    )


def infective_mask(payoffs: np.ndarray, tol: float) -> np.ndarray:
    """Boolean mask of candidates that are infective (``payoff > tol``).

    This is the Theorem 1 decision itself; keeping the strict inequality
    in one place pins serve-time assignment to streaming absorb.
    """
    return np.asarray(payoffs) > float(tol)
