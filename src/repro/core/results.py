"""Result types shared by every detection method in the repository.

All detectors — ALID, PALID and the seven baselines — return a
:class:`DetectionResult`, so the evaluation harness (AVG-F, accounting,
report rendering) treats them uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.affinity.oracle import AffinityCounters
from repro.exceptions import ValidationError

__all__ = ["Cluster", "DetectionResult", "pack_clusters", "unpack_clusters"]


@dataclass
class Cluster:
    """One detected cluster.

    Attributes
    ----------
    members:
        Global indices of the cluster's data items.
    weights:
        Probabilistic memberships aligned with *members* (uniform for
        partitioning baselines that have no notion of weights).
    density:
        The cluster's graph density ``pi(x)`` (internal coherence); the
        paper selects clusters with ``pi(x) >= 0.75`` as dominant.
    label:
        Unique cluster label within one detection run.
    seed:
        The initial vertex the cluster was grown from (-1 if not seeded).
    """

    members: np.ndarray
    weights: np.ndarray
    density: float
    label: int
    seed: int = -1

    def __post_init__(self) -> None:
        self.members = np.asarray(self.members, dtype=np.intp)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.members.shape != self.weights.shape:
            raise ValidationError(
                f"members and weights must align: "
                f"{self.members.shape} vs {self.weights.shape}"
            )

    @property
    def size(self) -> int:
        """Number of member items."""
        return int(self.members.size)

    def member_set(self) -> set[int]:
        """Members as a Python set (for evaluation convenience)."""
        return set(int(i) for i in self.members)


@dataclass
class DetectionResult:
    """Uniform output of every detection method.

    Attributes
    ----------
    clusters:
        The *dominant* clusters (density above the method's threshold when
        the method filters; all clusters for partitioning baselines).
    all_clusters:
        Every cluster found, including sub-threshold ones peeled as noise.
    n_items:
        Total number of data items the detector saw.
    runtime_seconds:
        Wall-clock detection time (including any affinity computation, as
        in the paper's measurement protocol).
    counters:
        Snapshot of the affinity-oracle counters at completion (work and
        simulated memory).
    method:
        Human-readable method name ("ALID", "IID", ...).
    metadata:
        Free-form extras (iteration counts, parallel speedup inputs, ...).
    """

    clusters: list[Cluster]
    all_clusters: list[Cluster]
    n_items: int
    runtime_seconds: float = 0.0
    counters: AffinityCounters | None = None
    method: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        """Number of dominant clusters."""
        return len(self.clusters)

    def labels(self) -> np.ndarray:
        """Per-item labels: cluster label, or -1 for unclustered noise.

        When clusters overlap (possible for PALID before reduction), the
        densest cluster wins — mirroring the paper's reducer rule.
        """
        labels = np.full(self.n_items, -1, dtype=np.int64)
        best_density = np.full(self.n_items, -np.inf)
        for cluster in self.clusters:
            better = cluster.density > best_density[cluster.members]
            chosen = cluster.members[better]
            labels[chosen] = cluster.label
            best_density[chosen] = cluster.density
        return labels

    def member_lists(self) -> list[np.ndarray]:
        """Member index arrays of the dominant clusters (for AVG-F)."""
        return [c.members for c in self.clusters]

    def coverage(self) -> float:
        """Fraction of items assigned to some dominant cluster."""
        if self.n_items == 0:
            return 0.0
        return float((self.labels() >= 0).sum()) / self.n_items

    def dominant_rows(self) -> np.ndarray:
        """Indices into ``all_clusters`` of the dominant clusters.

        Identity-based (a cluster may appear in both lists as the same
        object), which is how the persistence layers mark dominance
        without duplicating member arrays.
        """
        dominant_ids = {id(c) for c in self.clusters}
        return np.flatnonzero(
            np.asarray(
                [id(c) in dominant_ids for c in self.all_clusters], dtype=bool
            )
        )

    def summary(self) -> str:
        """One-line human-readable summary."""
        mem = (
            f", peak-mem {self.counters.peak_memory_mb:.2f} MB"
            if self.counters is not None
            else ""
        )
        return (
            f"{self.method or 'detection'}: {self.n_clusters} dominant "
            f"cluster(s) over {self.n_items} items in "
            f"{self.runtime_seconds:.3f}s{mem}"
        )


# ---------------------------------------------------------------------------
# flat array packing (shared by repro.io and repro.serve.snapshot)
# ---------------------------------------------------------------------------
def pack_clusters(clusters: list[Cluster]) -> dict[str, np.ndarray]:
    """Flatten a cluster list into parallel arrays for persistence.

    Members and weights are concatenated with a CSR-style ``offsets``
    array (``offsets[i]:offsets[i+1]`` slices cluster *i*); densities,
    labels and seeds are one scalar per cluster.  This is the single
    serialisation both the detection archive (:mod:`repro.io`) and the
    serve-time snapshot (:mod:`repro.serve.snapshot`) write, so the two
    formats cannot drift.
    """
    members = (
        np.concatenate([c.members for c in clusters])
        if clusters
        else np.empty(0, dtype=np.intp)
    )
    weights = (
        np.concatenate([c.weights for c in clusters])
        if clusters
        else np.empty(0)
    )
    return {
        "members": members,
        "weights": weights,
        "offsets": np.cumsum([0] + [c.size for c in clusters]),
        "densities": np.asarray([c.density for c in clusters]),
        "labels": np.asarray([c.label for c in clusters], dtype=np.int64),
        "seeds": np.asarray([c.seed for c in clusters], dtype=np.int64),
    }


def unpack_clusters(arrays, *, n_items: int | None = None) -> list[Cluster]:
    """Rebuild the cluster list written by :func:`pack_clusters`.

    *arrays* is any mapping holding the six packed arrays (an ``.npz``
    archive, a snapshot's array dict, ...).  Round-trips bit-identically:
    member indices, weights, densities, labels and seeds all survive.

    Parameters
    ----------
    arrays:
        Mapping with the six :func:`pack_clusters` keys.
    n_items:
        When given, every member index must lie in ``[0, n_items)`` —
        pass it so a corrupt archive fails loudly instead of yielding
        clusters pointing outside the data matrix.

    Raises
    ------
    ValidationError
        If the offsets are inconsistent with the flat arrays
        (non-monotonic, wrong total), members are out of range, or a
        weight or density is not finite.
    """
    offsets = np.asarray(arrays["offsets"], dtype=np.int64)
    members = np.asarray(arrays["members"])
    weights = np.asarray(arrays["weights"])
    densities = np.asarray(arrays["densities"])
    labels = np.asarray(arrays["labels"])
    seeds = np.asarray(arrays["seeds"])
    if offsets.size < 1:
        raise ValidationError("cluster offsets must hold at least [0]")
    if int(offsets[0]) != 0 or (np.diff(offsets) < 0).any():
        raise ValidationError(
            "cluster offsets must start at 0 and be non-decreasing"
        )
    if members.size and n_items is not None:
        if int(members.min()) < 0 or int(members.max()) >= n_items:
            raise ValidationError(
                f"cluster members out of range for {n_items} items: "
                f"min={int(members.min())}, max={int(members.max())}"
            )
    n_clusters = offsets.size - 1
    if not (
        densities.size == n_clusters
        and labels.size == n_clusters
        and seeds.size == n_clusters
    ):
        raise ValidationError(
            f"cluster scalar arrays disagree with offsets: "
            f"{n_clusters} clusters expected"
        )
    if int(offsets[-1]) != members.size or members.size != weights.size:
        raise ValidationError(
            f"cluster member/weight arrays ({members.size}/{weights.size}) "
            f"disagree with offsets (total {int(offsets[-1])})"
        )
    if not (np.isfinite(weights).all() and np.isfinite(densities).all()):
        raise ValidationError("cluster weights and densities must be finite")
    clusters = []
    for i in range(n_clusters):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        clusters.append(
            Cluster(
                members=members[lo:hi],
                weights=weights[lo:hi],
                density=float(densities[i]),
                label=int(labels[i]),
                seed=int(seeds[i]),
            )
        )
    return clusters
