#!/usr/bin/env python
"""Arena quickstart: evaluate detectors, annotate a snapshot, scrape gauges.

The quality-arena story in four steps (see ``docs/arena.md``):

1. run a small evaluation matrix — ALID against k-means on the
   arena's built-in tiny synthetic pair, every (detector, dataset,
   seed) cell in its own subprocess under a wall limit — and print
   the ASCII leaderboard (accuracy vs the ground truth alongside
   truth-free quality metrics);
2. fit ALID on one of those datasets and persist the fitted state as a
   serving snapshot;
3. annotate the snapshot with per-cluster quality scores
   (:func:`repro.arena.annotate_snapshot` — the ``repro quality`` CLI
   verb does the same) and save it; annotation is inert metadata, so
   assignments stay byte-identical to the unannotated artifact;
4. serve the annotated snapshot with a metrics registry attached and
   scrape the per-cluster ``serve_cluster_quality`` gauges off the
   Prometheus page (see ``docs/observability.md``).

Run:  python examples/arena_quickstart.py
"""

import tempfile

from repro import ALID, ALIDConfig
from repro.arena import ArenaRunner, CellLimits, annotate_snapshot
from repro.arena.registry import tiny_datasets
from repro.obs.metrics import MetricsRegistry
from repro.serve import DetectionSnapshot, connect


def main() -> None:
    # --- 1. the evaluation matrix ------------------------------------
    datasets = tiny_datasets()
    runner = ArenaRunner(limits=CellLimits(wall_seconds=120.0))
    report = runner.run(datasets, detectors=("alid", "km"), seeds=(0,))
    print(report.leaderboard(title="arena quickstart"))
    statuses = sorted({cell.status for cell in report.cells})
    print(
        f"{len(report.cells)} cells, statuses: {', '.join(statuses)}; "
        f"report fingerprint {report.fingerprint()[:16]}"
    )

    # --- 2. fit + snapshot one of the datasets -----------------------
    arena_dataset = datasets[0]
    detector = ALID(ALIDConfig(delta=400, seed=0))
    result = detector.fit(arena_dataset.data)
    print(f"fit {arena_dataset.name}: {result.summary()}")

    with tempfile.TemporaryDirectory(prefix="alid_arena_") as scratch:
        snapshot = DetectionSnapshot.from_result(detector, result)

        # --- 3. annotate with per-cluster quality --------------------
        annotate_snapshot(snapshot, seed=0)
        path = snapshot.save(f"{scratch}/snapshot")
        n_metrics = sum(len(scores) for scores in snapshot.quality.values())
        print(
            f"quality-annotated snapshot written to {path} "
            f"({len(snapshot.quality)} clusters, {n_metrics} scores)"
        )

        # --- 4. serve it and scrape the gauges -----------------------
        registry = MetricsRegistry()
        with connect(path, registry=registry) as handle:
            assignment = handle.assign(arena_dataset.data[:64])
            print(
                f"assigned {int(assignment.assigned_mask.sum())}/"
                f"{assignment.n_queries} queries off the annotated snapshot"
            )
            page = registry.render_text()
        gauge_lines = [
            line
            for line in page.splitlines()
            if line.startswith("serve_cluster_quality{")
        ]
        print(
            f"quality gauges exported: {len(gauge_lines)} "
            f"(serve_quality_clusters = {len(snapshot.quality)})"
        )
        print("scrape sample: " + gauge_lines[0])


if __name__ == "__main__":
    main()
