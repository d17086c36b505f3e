"""The arena's detector and dataset registries.

One :class:`DetectorSpec` per runnable method configuration — ALID
plus every :mod:`repro.baselines` entry — each a
deterministic factory ``build(seed, n_clusters_hint)`` returning an
object satisfying the :class:`repro.baselines.common.Detector`
protocol.  Factories mirror the CLI's ``repro detect`` construction
exactly, so an arena cell and a hand-run ``repro detect`` at the same
seed produce the same fit.

Datasets enter the arena as :class:`ArenaDataset` wrappers: the data
matrix, optional ground-truth member lists (empty means "no truth" —
truth-bound metrics are simply omitted for that dataset, clubmark
style), and a cluster-count hint for the k-taking baselines
(k-means, spectral), defaulting to the paper's §5 protocol of
``n_true_clusters + 1`` when truth is available.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.baselines import (
    SEA,
    AffinityPropagation,
    DominantSets,
    GraphShift,
    IIDDetector,
    KMeans,
    MeanShift,
    SpectralClustering,
)
from repro.baselines.common import Detector, KernelParams
from repro.core.alid import ALID
from repro.core.config import ALIDConfig
from repro.datasets import Dataset, make_synthetic_mixture
from repro.exceptions import ValidationError

__all__ = [
    "DEFAULT_DETECTORS",
    "ArenaDataset",
    "DetectorSpec",
    "default_registry",
    "resolve_detectors",
    "tiny_datasets",
]


@dataclass(frozen=True, eq=False)
class ArenaDataset:
    """A dataset as the arena consumes it.

    Attributes
    ----------
    name:
        Leaderboard row key; must be unique within one run.
    data:
        Data matrix of shape ``(n, d)``.
    truth:
        Ground-truth member index arrays — empty tuple when no truth is
        available, in which case truth-bound metrics (AVG-F) are
        omitted for this dataset rather than faked.
    n_clusters_hint:
        ``k`` handed to the baselines that require one (k-means,
        spectral clustering).
    """

    name: str
    data: np.ndarray
    truth: tuple = ()
    n_clusters_hint: int = 8

    @classmethod
    def from_dataset(cls, dataset: Dataset, name: str | None = None) -> "ArenaDataset":
        """Wrap a labelled :class:`~repro.datasets.Dataset`.

        The hint follows the paper's §5 protocol for the k-taking
        baselines: one more cluster than the ground truth holds, so the
        noise has somewhere to go.
        """
        return cls(
            name=name if name is not None else dataset.name,
            data=np.asarray(dataset.data, dtype=np.float64),
            truth=tuple(dataset.truth_clusters()),
            n_clusters_hint=dataset.n_true_clusters + 1,
        )


@dataclass(frozen=True)
class DetectorSpec:
    """A registered, seed-parameterised detector configuration.

    Attributes
    ----------
    name:
        Registry key and leaderboard column (e.g. ``"alid"``).
    family:
        ``"alid"`` for the paper's method, ``"baseline"``
        for everything it is compared against.
    build:
        Deterministic factory ``build(seed, n_clusters_hint)``
        returning a fresh :class:`~repro.baselines.common.Detector`.
    """

    name: str
    family: str
    build: Callable[[int, int], Detector] = field(repr=False)


def default_registry(
    delta: int = 400, density_threshold: float = 0.75
) -> dict[str, DetectorSpec]:
    """Every detector the arena knows, keyed by registry name.

    ALID and all baselines route their randomness through the seed
    handed to ``build``, so every cell is bit-reproducible.
    """
    specs = [
        DetectorSpec(
            "alid",
            "alid",
            lambda seed, hint: ALID(
                ALIDConfig(
                    delta=delta,
                    density_threshold=density_threshold,
                    seed=seed,
                )
            ),
        ),
        DetectorSpec(
            "iid",
            "baseline",
            lambda seed, hint: IIDDetector(
                kernel=KernelParams(seed=seed),
                density_threshold=density_threshold,
            ),
        ),
        DetectorSpec(
            "ds",
            "baseline",
            lambda seed, hint: DominantSets(
                kernel=KernelParams(seed=seed),
                density_threshold=density_threshold,
            ),
        ),
        DetectorSpec(
            "gs",
            "baseline",
            lambda seed, hint: GraphShift(
                kernel=KernelParams(seed=seed),
                density_threshold=density_threshold,
            ),
        ),
        DetectorSpec(
            "sea",
            "baseline",
            lambda seed, hint: SEA(
                kernel=KernelParams(seed=seed, lsh_r_scale=20.0),
                density_threshold=density_threshold,
            ),
        ),
        DetectorSpec(
            "ap",
            "baseline",
            lambda seed, hint: AffinityPropagation(
                kernel=KernelParams(seed=seed)
            ),
        ),
        DetectorSpec(
            "km",
            "baseline",
            lambda seed, hint: KMeans(hint, seed=seed),
        ),
        DetectorSpec(
            "sc-fl",
            "baseline",
            lambda seed, hint: SpectralClustering(
                hint, mode="full", kernel=KernelParams(seed=seed), seed=seed
            ),
        ),
        DetectorSpec(
            "sc-nys",
            "baseline",
            lambda seed, hint: SpectralClustering(
                hint, mode="nystrom", kernel=KernelParams(seed=seed), seed=seed
            ),
        ),
        DetectorSpec(
            "ms",
            "baseline",
            lambda seed, hint: MeanShift(seed=seed),
        ),
    ]
    return {spec.name: spec for spec in specs}


#: The default arena matrix: ALID against four baselines spanning the
#: paper's comparison families (replicator dynamics, graph mode
#: seeking, partitioning, density mode seeking).
DEFAULT_DETECTORS = ("alid", "iid", "ds", "km", "ms")


def resolve_detectors(
    registry: dict[str, DetectorSpec], names
) -> list[DetectorSpec]:
    """Registry lookups for *names*, rejecting unknown detectors."""
    unknown = sorted(set(names) - set(registry))
    if unknown:
        raise ValidationError(
            f"unknown detector(s) {unknown}; "
            f"registered: {sorted(registry)}"
        )
    return [registry[name] for name in names]


def tiny_datasets(seed: int = 0) -> list[ArenaDataset]:
    """The two small synthetic datasets of the ``arena_tiny`` matrix.

    Sized so the full default matrix finishes in seconds per cell —
    the CI lane and the quickstart both run on exactly these.
    """
    out = []
    for index, n in enumerate((240, 320)):
        dataset = make_synthetic_mixture(
            n,
            regime="bounded",
            n_clusters=3,
            dim=8,
            bound=n // 4,
            seed=seed + index,
        )
        out.append(
            ArenaDataset.from_dataset(dataset, name=f"tiny-{index}")
        )
    return out
