#!/usr/bin/env python
"""Serve-path benchmark: snapshot round-trip + batch assignment throughput.

Fits ALID on a deterministic synthetic mixture, persists the fitted
state as a :class:`~repro.serve.snapshot.DetectionSnapshot`, reloads it,
and assigns the whole dataset back in fixed-size batches through
:class:`~repro.serve.service.ClusterService` — the serve-time workload
the ROADMAP's heavy-traffic north star cares about.  The ``full``
workload additionally runs a **sharded lane**: the same snapshot is
split into 2 shards (:class:`~repro.serve.plan.ShardPlanner`) and the
same query sweep is served by a 2-process
:class:`~repro.serve.sharded.ShardedClusterService`; its summed
serve-side ``entries_computed`` is provably equal to the single-process
number, so the same 10% CI gate pins the sharded path too.  The
``tiny`` workload additionally runs an **ingest lane**: the same points
arrive as a live stream through
:class:`~repro.serve.ingest.IngestService` (sync re-peel), publishing a
base snapshot plus one :class:`~repro.serve.snapshot.SnapshotDelta` per
batch, each hot-applied to a running service — measuring absorb
throughput, delta size against a full snapshot of the same state, and
delta hot-reload latency.  Writes a machine-readable
``BENCH_serve.json``:

.. code-block:: json

    {
      "schema_version": 3,
      "workloads": {
        "serve_full": {
          "queries_per_second": 123456.0,
          "entries_computed": 987654,
          "entries_per_query": 197.5,
          ...
        }
      }
    }

See ``docs/benchmarks.md`` for the full field reference.

``queries_per_second`` and the wall fields track the perf trajectory
(informational — machine-dependent).  ``entries_computed`` — the
serve-side affinity work per full query sweep — is deterministic given
the code and is gated in CI by ``check_hotpath_regression.py`` (the
gate is generic over reports) against the committed baseline
``benchmarks/results/BENCH_serve_baseline.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py \
        --workloads tiny full --output BENCH_serve.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.alid import ALID  # noqa: E402
from repro.core.config import ALIDConfig  # noqa: E402
from repro.datasets.synthetic import make_synthetic_mixture  # noqa: E402
from repro.serve import (  # noqa: E402
    ClusterService,
    DetectionSnapshot,
    IngestService,
    ShardPlanner,
    ShardedClusterService,
)
from repro.streaming import StreamingALID  # noqa: E402

# Fixed workloads; sizes/seeds must never change silently (the CI gate
# compares `entries_computed` against the committed baseline, which is
# only meaningful for identical inputs).  `full` (n=5000) is the
# acceptance workload for serve throughput.
WORKLOAD_SIZES = {
    "tiny": dict(n=600, dim=16, n_clusters=6),
    "full": dict(n=5000, dim=32, n_clusters=10),
}
_SEED = 7
_BATCH = 1024
# Sharded lane: workloads served a second time through a planned shard
# set and this many worker processes (the acceptance lane is `full`).
SHARDED_WORKLOADS = ("full",)
_SHARD_WORKERS = 2
# Ingest lane: the same workload arrives as a live stream instead; the
# lane measures absorb throughput, delta size vs a full snapshot, and
# delta hot-reload latency through ClusterService.apply_delta.
INGEST_WORKLOADS = ("tiny",)
_INGEST_BATCH = 150


def _make_data(size_key: str) -> np.ndarray:
    spec = WORKLOAD_SIZES[size_key]
    dataset = make_synthetic_mixture(
        n=spec["n"],
        regime="bounded",
        bound=spec["n"] // 2,
        n_clusters=spec["n_clusters"],
        dim=spec["dim"],
        seed=_SEED,
    )
    return dataset.data


def bench_serve(
    size_key: str, scratch: pathlib.Path
) -> tuple[dict, pathlib.Path, np.ndarray]:
    """Fit, snapshot, reload (eager), assign every item back in batches.

    Returns the report entry plus the snapshot directory and data so
    the sharded lane can reuse the same fitted artifact.
    """
    data = _make_data(size_key)
    detector = ALID(ALIDConfig(seed=_SEED))
    fit_start = time.perf_counter()
    result = detector.fit(data)
    fit_wall = time.perf_counter() - fit_start

    snapshot_dir = scratch / f"snapshot_{size_key}"
    save_start = time.perf_counter()
    DetectionSnapshot.from_result(detector, result).save(snapshot_dir)
    save_wall = time.perf_counter() - save_start
    snapshot_bytes = sum(
        p.stat().st_size for p in snapshot_dir.rglob("*") if p.is_file()
    )

    load_start = time.perf_counter()
    service = ClusterService(snapshot_dir)
    load_wall = time.perf_counter() - load_start

    n = data.shape[0]
    assigned = 0
    assign_start = time.perf_counter()
    for lo in range(0, n, _BATCH):
        batch = service.assign(data[lo : lo + _BATCH])
        assigned += int(batch.assigned_mask.sum())
    assign_wall = max(time.perf_counter() - assign_start, 1e-9)
    stats = service.stats()
    entry = {
        "n": int(n),
        "dim": int(data.shape[1]),
        "n_clusters": int(stats["n_clusters"]),
        "n_queries": int(stats["queries"]),
        "batch_size": _BATCH,
        "fit_wall_seconds": round(fit_wall, 4),
        "snapshot_save_seconds": round(save_wall, 4),
        "snapshot_load_seconds": round(load_wall, 4),
        "snapshot_mb": round(snapshot_bytes / 1e6, 3),
        "wall_seconds": round(assign_wall, 4),
        "queries_per_second": round(n / assign_wall, 1),
        "entries_computed": int(stats["entries_computed"]),
        "entries_per_query": round(stats["entries_computed"] / n, 2),
        "assigned": assigned,
        "coverage": round(assigned / n, 4),
    }
    return entry, snapshot_dir, data


def bench_serve_sharded(
    size_key: str,
    snapshot_dir: pathlib.Path,
    data: np.ndarray,
    scratch: pathlib.Path,
) -> dict:
    """Shard the fitted snapshot and serve the same sweep via workers.

    Summed serve-side ``entries_computed`` is equal to the
    single-process lane by construction (each (query, cluster) pair is
    scored in exactly one shard), so the same baseline gate applies.
    """
    shard_root = scratch / f"shards_{size_key}"
    plan_start = time.perf_counter()
    plan = ShardPlanner(n_shards=_SHARD_WORKERS).plan(
        snapshot_dir, shard_root
    )
    plan_wall = time.perf_counter() - plan_start

    spawn_start = time.perf_counter()
    service = ShardedClusterService(shard_root)
    spawn_wall = time.perf_counter() - spawn_start
    try:
        n = data.shape[0]
        assigned = 0
        assign_start = time.perf_counter()
        for lo in range(0, n, _BATCH):
            batch = service.assign(data[lo : lo + _BATCH])
            assigned += int(batch.assigned_mask.sum())
        assign_wall = max(time.perf_counter() - assign_start, 1e-9)
        stats = service.stats()
    finally:
        service.close()
    return {
        "n": int(n),
        "dim": int(data.shape[1]),
        "n_clusters": int(stats["n_clusters"]),
        "n_queries": int(stats["queries"]),
        "batch_size": _BATCH,
        "workers": _SHARD_WORKERS,
        "n_shards": plan.n_shards,
        "shard_items": [int(s.n_items) for s in plan.shards],
        "plan_seconds": round(plan_wall, 4),
        "pool_spawn_seconds": round(spawn_wall, 4),
        "wall_seconds": round(assign_wall, 4),
        "queries_per_second": round(n / assign_wall, 1),
        "entries_computed": int(stats["entries_computed"]),
        "entries_per_query": round(stats["entries_computed"] / n, 2),
        "assigned": assigned,
        "coverage": round(assigned / n, 4),
        "degraded_batches": int(stats["degraded_batches"]),
    }


def _dir_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def bench_ingest(size_key: str, scratch: pathlib.Path) -> dict:
    """Stream the workload through the ingest tier, publishing a delta chain.

    The first batch anchors the chain (``publish_base``); every later
    batch publishes a :class:`~repro.serve.snapshot.SnapshotDelta`,
    which is then hot-applied to a live
    :class:`~repro.serve.service.ClusterService`.  ``entries_computed``
    — total affinity work over the whole stream — and
    ``column_requests`` — its affinity columns, misses and prefetches
    alike — are deterministic for the fixed seed and gated against the
    committed baseline (the first within 10%, the second exactly);
    sizes and wall clocks are informational.
    """
    data = _make_data(size_key)
    n = data.shape[0]
    chain_root = scratch / f"chain_{size_key}"
    chain_root.mkdir(parents=True, exist_ok=True)

    service = IngestService(StreamingALID(ALIDConfig(seed=_SEED)))
    serving = None
    delta_bytes: list[int] = []
    reload_walls: list[float] = []
    absorbed = 0
    ingest_wall = 0.0
    try:
        for number, lo in enumerate(range(0, n, _INGEST_BATCH)):
            ingest_start = time.perf_counter()
            report = service.ingest(data[lo : lo + _INGEST_BATCH])
            ingest_wall += time.perf_counter() - ingest_start
            absorbed += report.absorbed
            if number == 0:
                service.publish_base(chain_root / "base")
                serving = ClusterService(chain_root / "base")
            else:
                delta_dir = chain_root / f"delta_{number - 1:04d}"
                service.publish_delta(delta_dir)
                delta_bytes.append(_dir_bytes(delta_dir))
                reload_start = time.perf_counter()
                serving.apply_delta(delta_dir)
                reload_walls.append(time.perf_counter() - reload_start)
        # Reference point: a full snapshot of the final state, the
        # artifact each delta is an increment of.
        full_dir = scratch / f"chain_full_{size_key}"
        service.stream.to_snapshot().save(full_dir)
        full_bytes = _dir_bytes(full_dir)
        stats = service.stats()
        counters = service.stream.result().counters
    finally:
        if serving is not None:
            serving.close()
        service.close()
    ingest_wall = max(ingest_wall, 1e-9)
    return {
        "n": int(n),
        "dim": int(data.shape[1]),
        "batch_size": _INGEST_BATCH,
        "n_batches": number + 1,
        "n_deltas": len(delta_bytes),
        "n_clusters": int(stats["n_clusters"]),
        "absorbed": int(absorbed),
        "ingest_wall_seconds": round(ingest_wall, 4),
        "points_per_second": round(n / ingest_wall, 1),
        "entries_computed": int(counters.entries_computed),
        "column_requests": int(counters.column_requests),
        "base_mb": round(_dir_bytes(chain_root / "base") / 1e6, 3),
        "full_snapshot_mb": round(full_bytes / 1e6, 3),
        "delta_mb_mean": round(
            sum(delta_bytes) / max(len(delta_bytes), 1) / 1e6, 3
        ),
        "delta_to_full_ratio": round(
            sum(delta_bytes) / max(len(delta_bytes), 1) / full_bytes, 4
        ),
        "delta_reload_ms_mean": round(
            1e3 * sum(reload_walls) / max(len(reload_walls), 1), 2
        ),
    }


def run(workload_keys: list[str], scratch: pathlib.Path) -> dict:
    workloads: dict[str, dict] = {}
    for key in workload_keys:
        print(f"[bench_serve] serve_{key} ...", flush=True)
        entry, snapshot_dir, data = bench_serve(key, scratch)
        workloads[f"serve_{key}"] = entry
        if key in SHARDED_WORKLOADS:
            print(
                f"[bench_serve] serve_{key}_sharded "
                f"(workers={_SHARD_WORKERS}) ...",
                flush=True,
            )
            workloads[f"serve_{key}_sharded"] = bench_serve_sharded(
                key, snapshot_dir, data, scratch
            )
        if key in INGEST_WORKLOADS:
            print(f"[bench_serve] ingest_{key} ...", flush=True)
            workloads[f"ingest_{key}"] = bench_ingest(key, scratch)
    return {
        "schema_version": 3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workloads",
        nargs="+",
        choices=sorted(WORKLOAD_SIZES),
        default=["tiny", "full"],
        help="workload sizes to run (default: tiny full)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_serve.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench_serve_") as scratch:
        report = run(args.workloads, pathlib.Path(scratch))
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"[bench_serve] wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
