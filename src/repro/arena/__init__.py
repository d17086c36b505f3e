"""Quality arena: many detectors, many datasets, one set of rules.

A clubmark-style evaluation subsystem for dominant-cluster detection:
the :mod:`~repro.arena.registry` enumerates ALID and every baseline
behind one ``Detector`` protocol, the :mod:`~repro.arena.runner`
executes each (detector × dataset × seed) cell in a resource-limited
subprocess, and :mod:`~repro.arena.quality` scores every detected
cluster without ground truth — silhouette, conductance, coverage, and
seed-perturbation stability — feeding both the arena leaderboard and
the serving tier's per-cluster quality gauges (see
:func:`~repro.arena.quality.annotate_snapshot`).

See ``docs/arena.md`` for the harness design and metric definitions.
"""

from repro.arena.quality import (
    QUALITY_METRICS,
    annotate_snapshot,
    conductance_scores,
    coverage_scores,
    score_clusters,
    silhouette_scores,
    stability_scores,
)
from repro.arena.registry import (
    DEFAULT_DETECTORS,
    ArenaDataset,
    DetectorSpec,
    default_registry,
    resolve_detectors,
    tiny_datasets,
)
from repro.arena.runner import (
    CELL_STATUSES,
    ArenaReport,
    ArenaRunner,
    CellLimits,
    CellResult,
)

__all__ = [
    "CELL_STATUSES",
    "DEFAULT_DETECTORS",
    "QUALITY_METRICS",
    "ArenaDataset",
    "ArenaReport",
    "ArenaRunner",
    "CellLimits",
    "CellResult",
    "DetectorSpec",
    "annotate_snapshot",
    "conductance_scores",
    "coverage_scores",
    "default_registry",
    "resolve_detectors",
    "score_clusters",
    "silhouette_scores",
    "stability_scores",
    "tiny_datasets",
]
