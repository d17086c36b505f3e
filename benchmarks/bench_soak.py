#!/usr/bin/env python
"""Soak benchmark: sustained open-loop traffic through the async front-end.

Fits ALID on the deterministic synthetic mixture of ``bench_serve.py``,
shards the snapshot, and drives a **fixed, seeded open-loop arrival
schedule** (exponential inter-arrivals; arrivals fire on schedule
regardless of completions) through the full traffic stack:
:class:`~repro.serve.frontend.AsyncFrontend` (SLO-adaptive
micro-batching) → :class:`~repro.serve.admission.AdmissionController`
(bounded queue, per-client fairness) →
:class:`~repro.serve.sharded.ShardedClusterService` (skip policy) with
a :class:`~repro.serve.supervisor.ShardSupervisor` healing crashes.

Three lanes per profile:

- ``soak_<p>`` — clean soak.  Gated: ``entries_computed`` (10% rule —
  deterministic: every query is scored against every shard's resident
  clusters regardless of batching), ``throughput_qps`` (may not fall
  more than 10% below baseline; open-loop and under-loaded by
  construction, so throughput tracks the offered schedule, not the
  machine), and the zero-tolerance booleans ``accounting_exact``,
  ``assignments_identical`` and ``slo_met``.
- ``soak_<p>_faulted`` — same schedule with one shard worker SIGKILLed
  mid-run; the supervisor respawns it from the on-disk shard artifact
  while surviving shards serve degraded.  Gated: ``throughput_qps``,
  ``accounting_exact``, ``healed_ok`` (the worker came back), and
  ``assignments_identical`` — here a **post-heal sweep**: assignments
  byte-identical (labels *and* scores) to the single-process
  :class:`~repro.serve.service.ClusterService` reference.
  ``entries_computed`` is reported but not baselined: the degraded
  window's width (and thus the work skipped on the dead shard) depends
  on heal timing.
- ``soak_<p>_overload`` — a single burst far past a deliberately tiny
  admission bound.  Gated: ``accounting_exact``,
  ``rejections_observed`` and ``retry_after_ok`` (every rejection
  carried a positive back-off hint).
- ``soak_<p>_telemetry`` — the clean schedule replayed twice on the
  same pool layout: bare, then with the full observability stack wired
  (shared :class:`~repro.obs.metrics.MetricsRegistry` +
  :class:`~repro.obs.trace.TraceRecorder` through both the sharded
  service and the front-end).  Gated: ``telemetry_shrink`` (the
  instrumented replay may not deliver more than 3% less throughput
  than the bare one — both runs share one machine and one schedule, so
  the ratio is noise-resistant where absolute wall clock is not) and
  the zero-tolerance booleans ``trace_spans_balanced`` (every span the
  recorder opened was closed), ``latency_histogram_exact`` (the merged
  ``frontend_latency_ms`` histogram is bucket-for-bucket identical —
  p50/p95/p99 included — to a histogram rebuilt from the per-request
  latencies the replies reported) and ``span_breakdown_exact`` (each
  reply's queued + service span milliseconds sum to its latency).
- ``churn_<p>`` — the durable write path: the corpus streamed through
  a WAL-journaled :class:`~repro.serve.ingest.IngestService` as N
  publish rounds (base + one delta per round, one round retiring rows
  mid-run), then the chain compacted and the journal crash-recovered
  with an injected torn tail.  Gated: ``entries_computed`` (the 10%
  rule — ingest work is seeded and deterministic), ``throughput_qps``
  (the committed floor is deliberately loose — churn ingest is
  CPU-bound, so the floor plays the role the loose SLOs play for
  latency), and the zero-tolerance booleans
  ``assignments_identical`` (chain tip serves byte-identically to the
  live stream), ``compaction_identical`` (the folded base serves
  byte-identically to the chain tip and compaction is deterministic),
  ``recovery_identical`` (replaying the journal reproduces the stream
  byte-for-byte, ``entries_computed`` included) and
  ``wal_tail_truncated_ok`` (recovery truncated exactly the injected
  torn bytes and left a clean journal).

Latency is **SLO-gated, not baseline-gated**: ``slo_met`` (p99 ≤ the
lane's SLO) is a zero-tolerance boolean, while the p50/p99 numbers
themselves are informational — single-digit-millisecond percentiles
are machine noise under the 10% rule, the SLO bound is not.

Writes a machine-readable ``BENCH_soak.json`` (see
``docs/benchmarks.md`` for the field reference), gated in CI by
``check_hotpath_regression.py`` against the committed
``benchmarks/results/BENCH_soak_baseline.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_soak.py \
        --profiles tiny --output BENCH_soak.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import platform
import shutil
import signal
import sys
import time

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.alid import ALID  # noqa: E402
from repro.core.config import ALIDConfig  # noqa: E402
from repro.datasets.synthetic import make_synthetic_mixture  # noqa: E402
from repro.obs.metrics import (  # noqa: E402
    MetricsRegistry,
    default_latency_bounds_ms,
)
from repro.obs.trace import TraceRecorder  # noqa: E402
from repro.serve import (  # noqa: E402
    AsyncFrontend,
    ClusterService,
    DetectionSnapshot,
    IngestService,
    ShardPlanner,
    ShardSupervisor,
    ShardedClusterService,
    WriteAheadLog,
    compact_chain,
    load_chain_tip,
    run_open_loop,
    verify_wal,
)
from repro.streaming import StreamingALID  # noqa: E402

# Corpora are shared with bench_serve.py (same sizes, same seed) so the
# fitted state matches lane-for-lane; the arrival schedules are fixed
# and seeded — changing any knob silently would invalidate the
# committed baseline.
CORPUS_SIZES = {
    "tiny": dict(n=600, dim=16, n_clusters=6),
    "full": dict(n=5000, dim=32, n_clusters=10),
}
_SEED = 7
_SHARD_WORKERS = 2
_SUPERVISOR_INTERVAL = 0.05

# Per-profile traffic shape.  Offered load is kept well under serving
# capacity so the clean lane is rejection-free (deterministic entries)
# and throughput tracks the schedule, not the machine.
PROFILES = {
    "tiny": dict(
        rate=150.0, duration=2.5, rows=16, clients=4,
        slo_ms=150.0, max_queued=4096, overload_requests=120,
        overload_queue=128,
    ),
    "full": dict(
        rate=200.0, duration=6.0, rows=32, clients=8,
        slo_ms=250.0, max_queued=16384, overload_requests=400,
        overload_queue=512,
    ),
}
# The SLOs are deliberately loose multiples of the p99s observed on a
# development machine (~15-30 ms tiny): `slo_met` is a zero-tolerance
# CI gate, so the bound must hold on the slowest runner, not the
# fastest.  Tightening an SLO is a baseline-style decision — re-measure
# first.
#: When the faulted lane kills its victim, as a fraction of `duration`.
_KILL_FRACTION = 0.4
_SWEEP_BATCH = 1024

# Churn lane shape: publish-round batch size, the streaming delta, and
# how many of the oldest rows one mid-run round retires.
_CHURN = {
    "tiny": dict(batch=150, delta=100, retire_rows=24),
    "full": dict(batch=1000, delta=400, retire_rows=200),
}
#: Garbage appended to the journal copy before the recovery check (the
#: torn tail a crash mid-append would leave).
_TORN_TAIL = b"\x40\x00\x00\x00torn mid-append by bench_soak"


def _make_data(profile: str) -> np.ndarray:
    spec = CORPUS_SIZES[profile]
    dataset = make_synthetic_mixture(
        n=spec["n"],
        regime="bounded",
        bound=spec["n"] // 2,
        n_clusters=spec["n_clusters"],
        dim=spec["dim"],
        seed=_SEED,
    )
    return dataset.data


def _schedule(profile: str) -> tuple[list[float], list[str]]:
    """The profile's fixed open-loop schedule: arrival offsets + clients."""
    spec = PROFILES[profile]
    rng = np.random.default_rng(_SEED)
    arrivals: list[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / spec["rate"]))
        if t >= spec["duration"]:
            break
        arrivals.append(t)
    clients = [f"client-{i % spec['clients']}" for i in range(len(arrivals))]
    return arrivals, clients


def _requests(data: np.ndarray, rows: int, count: int) -> list[np.ndarray]:
    """`count` query blocks of `rows` rows each, cycling the corpus."""
    n = data.shape[0]
    return [
        data[np.arange(i * rows, (i + 1) * rows) % n] for i in range(count)
    ]


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


async def _replay(
    service,
    requests,
    arrivals,
    clients,
    *,
    slo_ms: float,
    max_queued: int,
    kill_at: float | None,
    registry: MetricsRegistry | None = None,
    tracer: TraceRecorder | None = None,
):
    """One open-loop replay; returns (records, frontend stats, wall)."""
    async with AsyncFrontend(
        service,
        slo_ms=slo_ms,
        max_queued_rows=max_queued,
        registry=registry,
        tracer=tracer,
    ) as frontend:
        kill_task = None
        if kill_at is not None:

            async def _kill():
                await asyncio.sleep(kill_at)
                victim = service._workers[0]
                os.kill(victim.process.pid, signal.SIGKILL)

            kill_task = asyncio.ensure_future(_kill())
        start = time.perf_counter()
        try:
            records = await run_open_loop(
                frontend, requests, arrivals, clients=clients
            )
        finally:
            if kill_task is not None and not kill_task.done():
                kill_task.cancel()
        wall = max(time.perf_counter() - start, 1e-9)
        return records, frontend.stats(), wall


def _accounting(records, fe_stats) -> tuple[dict, bool]:
    """Request accounting + the exactness boolean the gate pins."""
    ok = [r for r in records if r["status"] == "ok"]
    rejected = [r for r in records if r["status"] == "rejected"]
    errors = [r for r in records if r["status"] == "error"]
    admission = fe_stats["admission"]
    exact = (
        len(records) == len(ok) + len(rejected) + len(errors)
        and admission["offered_requests"]
        == admission["admitted_requests"] + admission["rejected_requests"]
        and admission["rejected_requests"] == len(rejected)
        and admission["queued_requests"] == 0
    )
    entry = {
        "offered_requests": len(records),
        "completed_requests": len(ok),
        "rejected_requests": len(rejected),
        "error_requests": len(errors),
        "rejection_rate": round(
            len(rejected) / max(len(records), 1), 4
        ),
        "accounting_exact": bool(exact),
    }
    return entry, bool(exact)


def soak_lane(
    profile: str,
    data: np.ndarray,
    shard_root: pathlib.Path,
    reference: ClusterService,
    *,
    faulted: bool,
) -> dict:
    """Run one soak lane (clean or faulted) and assemble its report entry."""
    spec = PROFILES[profile]
    arrivals, clients = _schedule(profile)
    requests = _requests(data, spec["rows"], len(arrivals))
    kill_at = spec["duration"] * _KILL_FRACTION if faulted else None

    with ShardedClusterService(
        shard_root, on_worker_error="skip"
    ) as service:
        with ShardSupervisor(service, interval=_SUPERVISOR_INTERVAL):
            records, fe_stats, wall = asyncio.run(
                _replay(
                    service,
                    requests,
                    arrivals,
                    clients,
                    slo_ms=spec["slo_ms"],
                    max_queued=spec["max_queued"],
                    kill_at=kill_at,
                )
            )
            # Let a heal that landed after the last reply settle before
            # reading the pool state.
            if faulted:
                deadline = time.perf_counter() + 30.0
                while (
                    service.dead_shard_ids()
                    and time.perf_counter() < deadline
                ):
                    time.sleep(_SUPERVISOR_INTERVAL)
        stats = service.stats()

        ok = [r for r in records if r["status"] == "ok"]
        latencies = [r["reply"].latency_ms for r in ok]
        rows_ok = sum(r["n_rows"] for r in ok)
        entry, _ = _accounting(records, fe_stats)

        # Per-request identity vs the single-process reference.  Labels
        # are invariant under micro-batch composition, so on a healthy
        # pool every request must match; requests served inside a
        # degraded window legitimately differ (the dead shard's
        # clusters are unreachable) and are only counted.
        mismatches = 0
        for i, record in enumerate(records):
            if record["status"] != "ok":
                continue
            ref = reference.assign(requests[i])
            if not np.array_equal(record["reply"].labels, ref.labels):
                mismatches += 1

        # Post-heal sweep straight through the pool: byte-identical
        # labels AND scores against the reference, same blocks.
        sweep_identical = True
        for lo in range(0, data.shape[0], _SWEEP_BATCH):
            block = data[lo : lo + _SWEEP_BATCH]
            got = service.assign(block)
            ref = reference.assign(block)
            if not (
                np.array_equal(got.labels, ref.labels)
                and np.array_equal(got.scores, ref.scores)
            ):
                sweep_identical = False

    identical = sweep_identical and (faulted or mismatches == 0)
    p99 = _percentile(latencies, 99)
    entry.update(
        {
            "rows_per_request": spec["rows"],
            "n_clients": spec["clients"],
            "offered_rate_rps": spec["rate"],
            "schedule_seconds": spec["duration"],
            "wall_seconds": round(wall, 4),
            "slo_ms": spec["slo_ms"],
            "latency_p50_ms": round(_percentile(latencies, 50), 3),
            "latency_p99_ms": round(p99, 3),
            "slo_violations": int(fe_stats["slo_violations"]),
            "slo_met": bool(p99 <= spec["slo_ms"]),
            "throughput_qps": round(rows_ok / wall, 1),
            "micro_batches": int(fe_stats["batches"]),
            "mean_batch_rows": round(fe_stats["mean_batch_rows"], 2),
            "max_batch_rows_seen": int(fe_stats["max_batch_rows_seen"]),
            "entries_computed": int(stats["entries_computed"]),
            "degraded_batches": int(stats["degraded_batches"]),
            "respawns": int(stats["respawns"]),
            "healed_shards": int(stats["healed_shards"]),
            "request_label_mismatches": int(mismatches),
            "assignments_identical": bool(identical),
        }
    )
    if faulted:
        entry["healed_ok"] = bool(
            stats["respawns"] >= 1 and not stats["dead_shards"]
        )
    return entry


def overload_lane(
    profile: str, data: np.ndarray, shard_root: pathlib.Path
) -> dict:
    """Burst far past a tiny admission bound; accounting must stay exact."""
    spec = PROFILES[profile]
    count = spec["overload_requests"]
    requests = _requests(data, spec["rows"], count)
    arrivals = [0.0] * count
    clients = [f"client-{i % spec['clients']}" for i in range(count)]
    with ShardedClusterService(
        shard_root, on_worker_error="skip"
    ) as service:
        records, fe_stats, wall = asyncio.run(
            _replay(
                service,
                requests,
                arrivals,
                clients,
                slo_ms=spec["slo_ms"],
                max_queued=spec["overload_queue"],
                kill_at=None,
            )
        )
    rejected = [r for r in records if r["status"] == "rejected"]
    entry, _ = _accounting(records, fe_stats)
    entry.update(
        {
            "rows_per_request": spec["rows"],
            "burst_rows": count * spec["rows"],
            "max_queued_rows": spec["overload_queue"],
            "wall_seconds": round(wall, 4),
            "rejections_observed": bool(rejected),
            "retry_after_ok": bool(rejected)
            and all(
                r.get("retry_after") is not None and r["retry_after"] > 0.0
                for r in rejected
            ),
        }
    )
    return entry


def telemetry_lane(
    profile: str, data: np.ndarray, shard_root: pathlib.Path
) -> dict:
    """Replay the clean schedule bare, then fully instrumented.

    The two replays share one machine, one schedule and one shard
    layout, so the throughput ratio isolates the observability
    overhead; the exactness booleans pin the telemetry's correctness
    claims (see the module docstring) on real cross-process traffic.
    """
    spec = PROFILES[profile]
    arrivals, clients = _schedule(profile)
    requests = _requests(data, spec["rows"], len(arrivals))

    def _one(registry=None, tracer=None):
        with ShardedClusterService(
            shard_root,
            on_worker_error="skip",
            registry=registry,
            tracer=tracer,
        ) as service:
            return asyncio.run(
                _replay(
                    service,
                    requests,
                    arrivals,
                    clients,
                    slo_ms=spec["slo_ms"],
                    max_queued=spec["max_queued"],
                    kill_at=None,
                    registry=registry,
                    tracer=tracer,
                )
            )

    bare_records, _, bare_wall = _one()
    registry = MetricsRegistry()
    tracer = TraceRecorder()
    records, fe_stats, wall = _one(registry=registry, tracer=tracer)

    bare_rows = sum(
        r["n_rows"] for r in bare_records if r["status"] == "ok"
    )
    ok = [r for r in records if r["status"] == "ok"]
    rows_ok = sum(r["n_rows"] for r in ok)
    qps_bare = bare_rows / bare_wall
    qps_telemetry = rows_ok / wall
    shrink = max(0.0, 1.0 - qps_telemetry / max(qps_bare, 1e-9))

    # The merged front-end histogram (worker deltas included) must be
    # the bucket-level image of the latencies the replies themselves
    # reported — same bounds, same counts, hence same percentiles.
    hist = registry.get("frontend_latency_ms")
    reference = MetricsRegistry().histogram(
        "reference_ms", bounds=default_latency_bounds_ms()
    )
    for record in ok:
        reference.observe(record["reply"].latency_ms)
    histogram_exact = (
        hist.bucket_counts() == reference.bucket_counts()
        and hist.percentiles() == reference.percentiles()
    )

    span_exact = all(
        record["reply"].span is not None
        and abs(
            record["reply"].span["queued_ms"]
            + record["reply"].span["service_ms"]
            - record["reply"].latency_ms
        )
        <= 1e-9
        for record in ok
    )

    percentiles = hist.percentiles()
    entry, _ = _accounting(records, fe_stats)
    entry.update(
        {
            "rows_per_request": spec["rows"],
            "wall_seconds": round(wall, 4),
            "bare_wall_seconds": round(bare_wall, 4),
            "throughput_qps": round(qps_telemetry, 1),
            "bare_throughput_qps": round(qps_bare, 1),
            "telemetry_shrink": round(shrink, 4),
            "trace_spans_balanced": bool(tracer.balanced),
            "trace_request_spans": len(tracer.spans("request")),
            "trace_total_spans": len(tracer),
            "latency_histogram_exact": bool(histogram_exact),
            "span_breakdown_exact": bool(span_exact),
            "histogram_p50_ms": round(percentiles["p50"], 3),
            "histogram_p95_ms": round(percentiles["p95"], 3),
            "histogram_p99_ms": round(percentiles["p99"], 3),
        }
    )
    return entry


def churn_lane(
    profile: str, data: np.ndarray, scratch: pathlib.Path
) -> dict:
    """Durable write path: WAL'd publish rounds, compaction, recovery.

    Streams the corpus through a journaled
    :class:`~repro.serve.ingest.IngestService` (base + one delta per
    batch, one mid-run retirement round), then pins the lifecycle
    claims: the chain tip serves like the live stream, compaction is
    deterministic and byte-identical, and crash recovery from a
    torn-tailed copy of the journal reproduces the stream exactly.
    """
    spec = _CHURN[profile]
    chain_dir = scratch / f"churn_{profile}"
    chain_dir.mkdir()
    wal_path = chain_dir / "ingest.wal"
    config = ALIDConfig(
        delta=spec["delta"], density_threshold=0.6, seed=_SEED
    )
    queries = data[::3]

    publishes = 0
    start = time.perf_counter()
    with IngestService(
        StreamingALID(config), wal=WriteAheadLog(wal_path)
    ) as service:
        for number, lo in enumerate(
            range(0, data.shape[0], spec["batch"])
        ):
            service.ingest(data[lo : lo + spec["batch"]])
            if number == 0:
                service.publish_base(chain_dir / "base")
            else:
                seq = service.stats()["published_sequence"]
                service.publish_delta(chain_dir / f"delta_{seq:04d}")
            publishes += 1
            if number == 1:
                # Retirement round: tombstone the oldest rows and ship
                # them as a delta (no base republish).
                service.retire(
                    np.arange(spec["retire_rows"], dtype=np.int64)
                )
                seq = service.stats()["published_sequence"]
                service.publish_delta(chain_dir / f"delta_{seq:04d}")
                publishes += 1
        wall = max(time.perf_counter() - start, 1e-9)
        stats = service.stats()
        entries = int(service.stream.result().counters.entries_computed)
        live = service.stream.to_snapshot()

        # Chain-tip identity: base + deltas must serve byte-identically
        # (labels AND scores) to the stream that published them.
        with ClusterService(live) as live_service:
            want = live_service.assign(queries)
        with ClusterService(load_chain_tip(chain_dir)) as tip_service:
            got = tip_service.assign(queries)
        assignments_identical = bool(
            np.array_equal(got.labels, want.labels)
            and np.array_equal(got.scores, want.scores)
        )

        # Compaction: folding the chain into a fresh base must be
        # deterministic (same manifest SHA twice) and serve the same
        # bytes as the tip it replaced.
        compacted = compact_chain(
            chain_dir, scratch / f"churn_{profile}_compact_a"
        )
        again = compact_chain(
            chain_dir, scratch / f"churn_{profile}_compact_b"
        )
        with ClusterService(
            scratch / f"churn_{profile}_compact_a"
        ) as folded:
            fold = folded.assign(queries)
        compaction_identical = bool(
            compacted.manifest_sha256 == again.manifest_sha256
            and np.array_equal(fold.labels, want.labels)
            and np.array_equal(fold.scores, want.scores)
        )

        # Crash recovery: replay a torn-tailed copy of the journal and
        # demand the rebuilt stream is byte-identical — same
        # assignments, same deterministic work counter.
        torn_wal = scratch / f"churn_{profile}_recovery.wal"
        shutil.copy(wal_path, torn_wal)
        with open(torn_wal, "ab") as handle:
            handle.write(_TORN_TAIL)
        with IngestService.recover(torn_wal, chain_dir) as recovered:
            info = dict(recovered.recovery_info)
            recovered_entries = int(
                recovered.stream.result().counters.entries_computed
            )
            with ClusterService(
                recovered.stream.to_snapshot()
            ) as recovered_service:
                replayed = recovered_service.assign(queries)
        recovery_identical = bool(
            recovered_entries == entries
            and info["publishes_restored"] == publishes
            and np.array_equal(replayed.labels, want.labels)
            and np.array_equal(replayed.scores, want.scores)
        )
        wal_tail_truncated_ok = bool(
            info["torn_bytes_truncated"] == len(_TORN_TAIL)
            and verify_wal(torn_wal)["torn_bytes"] == 0
        )

    return {
        "batch_rows": spec["batch"],
        "publish_rounds": publishes,
        "rows_ingested": int(data.shape[0]),
        "rows_retired": spec["retire_rows"],
        "chain_deltas": publishes - 1,
        "wal_records": int(stats["wal_records"]),
        "wall_seconds": round(wall, 4),
        "throughput_qps": round(data.shape[0] / wall, 1),
        "entries_computed": entries,
        "records_replayed": int(info["records_replayed"]),
        "torn_bytes_truncated": int(info["torn_bytes_truncated"]),
        "publishes_restored": int(info["publishes_restored"]),
        "assignments_identical": assignments_identical,
        "compaction_identical": compaction_identical,
        "recovery_identical": recovery_identical,
        "wal_tail_truncated_ok": wal_tail_truncated_ok,
    }


def run(profile_keys: list[str], scratch: pathlib.Path) -> dict:
    workloads: dict[str, dict] = {}
    for profile in profile_keys:
        print(f"[bench_soak] fitting {profile} corpus ...", flush=True)
        data = _make_data(profile)
        detector = ALID(ALIDConfig(seed=_SEED))
        result = detector.fit(data)
        snapshot_dir = scratch / f"snapshot_{profile}"
        DetectionSnapshot.from_result(detector, result).save(snapshot_dir)
        shard_root = scratch / f"shards_{profile}"
        ShardPlanner(n_shards=_SHARD_WORKERS).plan(snapshot_dir, shard_root)
        with ClusterService(snapshot_dir) as reference:
            print(f"[bench_soak] soak_{profile} ...", flush=True)
            workloads[f"soak_{profile}"] = soak_lane(
                profile, data, shard_root, reference, faulted=False
            )
            print(f"[bench_soak] soak_{profile}_faulted ...", flush=True)
            workloads[f"soak_{profile}_faulted"] = soak_lane(
                profile, data, shard_root, reference, faulted=True
            )
        print(f"[bench_soak] soak_{profile}_overload ...", flush=True)
        workloads[f"soak_{profile}_overload"] = overload_lane(
            profile, data, shard_root
        )
        print(f"[bench_soak] soak_{profile}_telemetry ...", flush=True)
        workloads[f"soak_{profile}_telemetry"] = telemetry_lane(
            profile, data, shard_root
        )
        print(f"[bench_soak] churn_{profile} ...", flush=True)
        workloads[f"churn_{profile}"] = churn_lane(profile, data, scratch)
    return {
        "schema_version": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--profiles",
        nargs="+",
        choices=sorted(PROFILES),
        default=["tiny"],
        help="traffic profiles to run (default: tiny; `full` is the "
        "slow soak)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_soak.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench_soak_") as scratch:
        report = run(args.profiles, pathlib.Path(scratch))
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"[bench_soak] wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
