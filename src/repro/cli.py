"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Produce one of the paper's workloads and save it as ``.npz``.
``detect``
    Run a detection method on a saved (or freshly generated) dataset,
    print the summary/AVG-F and optionally save the result.
``compare``
    Run several methods on one dataset and print a comparison table.
``info``
    Describe a saved dataset or detection archive.
``snapshot``
    Fit ALID on a dataset and persist the fitted state as a versioned
    serve-time snapshot directory (see :mod:`repro.serve`).
``shard``
    Split a saved snapshot into per-worker serving shards (a shard plan
    directory; see :mod:`repro.serve.plan`).
``assign``
    Load a snapshot and assign a batch of query points to its dominant
    clusters (the serve-time workload).  With ``--workers N`` the
    snapshot is sharded on the fly and served by N worker processes
    (identical assignments, see :mod:`repro.serve.sharded`).  Both
    paths go through :func:`repro.serve.connect`.
``serve``
    Drive a deterministic open-loop traffic replay through the asyncio
    front-end (:mod:`repro.serve.frontend`): admission-controlled
    ingress, SLO-adaptive micro-batching, and — when sharded — a
    :class:`~repro.serve.supervisor.ShardSupervisor` healing crashed
    workers (``--kill-shard`` injects the crash).  Prints p50/p99
    latency, throughput, rejection accounting, and heal counters.
``ingest``
    Stream a dataset batch-by-batch through the live-corpus ingest
    tier (:mod:`repro.serve.ingest`): absorb each batch, re-peel the
    dirtied collision regions, and publish a base snapshot plus one
    incremental delta per subsequent batch — the artifact chain a
    serving process hot-applies with ``ClusterHandle.apply_delta``.
    With ``--wal`` every mutation is journaled write-ahead to
    ``<out>/ingest.wal``; re-running the command after a crash
    recovers the committed prefix (torn tail truncated, state
    replayed byte-identically) and continues the run.
``compact``
    Fold a chain directory (``base`` + ``delta_NNNN``) into one fresh
    base snapshot (:func:`repro.serve.compact.compact_chain`) serving
    byte-identical assignments to the chain tip.
``verify``
    Audit artifacts offline (:mod:`repro.serve.verify`): snapshot and
    delta checksums, delta parent-SHA links, shard-plan pins, WAL
    record CRCs, and journal/chain publish-marker agreement — exit 0
    with a summary line per artifact, or exit 2 with a one-line
    diagnosis.
``stats``
    Serve a query batch against a snapshot with a shared
    :class:`~repro.obs.metrics.MetricsRegistry` wired through the
    backend (worker-process histogram deltas included) and print the
    Prometheus-style text exposition — the same output
    :meth:`~repro.serve.frontend.AsyncFrontend.metrics` scrapes.
``trace``
    Replay open-loop traffic (the ``serve`` schedule) with a
    :class:`~repro.obs.trace.TraceRecorder` attached to the front-end
    and the service, then export the spans — admission queueing,
    micro-batches, scatter / per-shard assign / merge, supervisor
    heals — as Chrome ``chrome://tracing`` / Perfetto-loadable
    trace-event JSONL.
``arena``
    Run the quality arena (:mod:`repro.arena`): every requested
    detector on every dataset, each cell in a subprocess under uniform
    wall/RSS limits, then print the deterministic ASCII leaderboard
    (and optionally save the JSON report).
``quality``
    Annotate a saved snapshot with per-cluster quality scores
    (:func:`repro.arena.quality.annotate_snapshot`) and print them;
    the annotated snapshot serves with quality gauges in ``stats``.

Examples
--------
::

    python -m repro generate --workload nart --scale 0.3 --out nart.npz
    python -m repro detect --input nart.npz --method alid --delta 400
    python -m repro compare --input nart.npz --methods alid iid km
    python -m repro snapshot --input nart.npz --out nart_snapshot
    python -m repro shard --snapshot nart_snapshot --out nart_shards --shards 4
    python -m repro assign --snapshot nart_snapshot --queries nart.npz --workers 2
    python -m repro serve --snapshot nart_snapshot --queries nart.npz --workers 2 --kill-shard 1.5
    python -m repro ingest --input nart.npz --out nart_chain --batch-size 500 --wal
    python -m repro compact --chain nart_chain --out nart_base2
    python -m repro verify nart_chain nart_snapshot
    python -m repro stats --snapshot nart_snapshot --queries nart.npz --workers 2
    python -m repro trace --snapshot nart_snapshot --queries nart.npz --out spans.jsonl
    python -m repro arena --detectors alid-fused iid km --wall-limit 60
    python -m repro quality --snapshot nart_snapshot --stability-refits 2
"""

from __future__ import annotations

import argparse
import sys


from repro.baselines import (
    AffinityPropagation,
    DominantSets,
    GraphShift,
    IIDDetector,
    KMeans,
    MeanShift,
    SEA,
    SpectralClustering,
)
from repro.baselines.common import KernelParams
from repro.core.alid import ALID
from repro.core.config import ALIDConfig
from repro.datasets import (
    Dataset,
    make_nart,
    make_ndi,
    make_sift,
    make_sub_ndi,
    make_synthetic_mixture,
)
from repro.eval.metrics import average_f1
from repro.exceptions import ValidationError
from repro.io import load_dataset, load_detection, save_dataset, save_detection
from repro.parallel.palid import PALID

__all__ = ["main", "build_parser"]

WORKLOADS = (
    "synthetic",
    "nart",
    "ndi",
    "sub_ndi",
    "sift",
    # End-to-end feature pipelines (raw media -> descriptors), §2 of
    # DESIGN.md; laptop-scale by construction.
    "nart_lda",
    "ndi_gist",
    "sift_patches",
)
METHODS = (
    "alid",
    "palid",
    "iid",
    "ds",
    "gs",
    "sea",
    "ap",
    "km",
    "sc-fl",
    "sc-nys",
    "ms",
)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
def _add_traffic_args(parser) -> None:
    """The open-loop replay knobs shared by ``serve`` and ``trace``."""
    parser.add_argument("--snapshot", required=True,
                        help="snapshot directory (or shard plan directory "
                             "with a plan.json)")
    parser.add_argument("--queries", required=True,
                        help="dataset .npz whose items feed the traffic")
    parser.add_argument("--workers", type=int, default=1,
                        help="serve through N shard worker processes "
                             "(default 1: single-process service)")
    parser.add_argument("--mmap", action="store_true",
                        help="memory-map snapshot arrays (single-process)")
    parser.add_argument("--rate", type=float, default=200.0,
                        help="mean request arrival rate, requests/s")
    parser.add_argument("--duration", type=float, default=3.0,
                        help="length of the arrival schedule, seconds")
    parser.add_argument("--request-rows", type=int, default=16,
                        help="query rows per request")
    parser.add_argument("--clients", type=int, default=4,
                        help="simulated clients cycling round-robin")
    parser.add_argument("--slo-ms", type=float, default=50.0,
                        help="latency SLO driving the adaptive batch cap")
    parser.add_argument("--max-batch", type=int, default=1024,
                        help="hard micro-batch row ceiling")
    parser.add_argument("--max-queued", type=int, default=4096,
                        help="admission bound, rows")
    parser.add_argument("--shortlist", choices=("lsh", "multiprobe", "all"),
                        default="lsh",
                        help="candidate-cluster shortlist mode")
    parser.add_argument("--kill-shard", type=float, default=None,
                        metavar="SECONDS",
                        help="SIGKILL one shard worker this far into the "
                             "replay (sharded only) to exercise "
                             "supervision and self-healing")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the arrival schedule")


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "ALID: Scalable Dominant Cluster Detection (VLDB 2015) — "
            "reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a paper workload")
    gen.add_argument("--workload", choices=WORKLOADS, required=True)
    gen.add_argument("--out", required=True, help="output .npz path")
    gen.add_argument("--n", type=int, default=5000,
                     help="size (synthetic/sift)")
    gen.add_argument("--scale", type=float, default=0.3,
                     help="scale factor (nart/ndi/sub_ndi)")
    gen.add_argument("--regime", default="bounded",
                     choices=("omega_n", "n_eta", "bounded"))
    gen.add_argument("--noise-degree", type=float, default=None)
    gen.add_argument("--seed", type=int, default=0)

    det = sub.add_parser("detect", help="run one detection method")
    det.add_argument("--input", required=True, help="dataset .npz path")
    det.add_argument("--method", choices=METHODS, default="alid")
    det.add_argument("--delta", type=int, default=800)
    det.add_argument("--density-threshold", type=float, default=0.75)
    det.add_argument("--executors", type=int, default=1,
                     help="PALID executors")
    det.add_argument("--k-clusters", type=int, default=None,
                     help="cluster count for partitioning methods "
                          "(default: true count + 1)")
    det.add_argument("--out", default=None, help="save result .npz here")
    det.add_argument("--seed", type=int, default=0)
    det.add_argument("--lid-kernel", default="fused",
                     choices=("reference", "fused"),
                     help="LID inner-loop backend (bit-identical)")
    det.add_argument("--profile", action="store_true",
                     help="run the fit under the phase profiler and "
                          "print per-phase wall/work keyed to the "
                          "paper's algorithms (ALID/PALID only)")

    cmp_cmd = sub.add_parser("compare", help="run several methods")
    cmp_cmd.add_argument("--input", required=True)
    cmp_cmd.add_argument("--methods", nargs="+", choices=METHODS,
                         default=["alid", "iid"])
    cmp_cmd.add_argument("--delta", type=int, default=800)
    cmp_cmd.add_argument("--density-threshold", type=float, default=0.75)
    cmp_cmd.add_argument("--seed", type=int, default=0)

    info = sub.add_parser("info", help="describe a saved archive")
    info.add_argument("path", help=".npz produced by generate or detect")
    info.add_argument("--kind", choices=("dataset", "detection"),
                      default="dataset")

    snap = sub.add_parser(
        "snapshot", help="fit ALID and persist a serve-time snapshot"
    )
    snap.add_argument("--input", required=True, help="dataset .npz path")
    snap.add_argument("--out", required=True,
                      help="snapshot directory to write")
    snap.add_argument("--delta", type=int, default=800)
    snap.add_argument("--density-threshold", type=float, default=0.75)
    snap.add_argument("--seed", type=int, default=0)
    snap.add_argument("--lid-kernel", default="fused",
                      choices=("reference", "fused"),
                      help="LID inner-loop backend (bit-identical)")

    shard = sub.add_parser(
        "shard", help="split a snapshot into per-worker serving shards"
    )
    shard.add_argument("--snapshot", required=True,
                       help="snapshot directory written by `repro snapshot`")
    shard.add_argument("--out", required=True,
                       help="shard plan directory to write")
    shard.add_argument("--shards", type=int, default=2,
                       help="number of shards (default 2)")
    shard.add_argument("--strategy", choices=("balanced", "contiguous"),
                       default="balanced",
                       help="cluster-to-shard assignment rule")

    assign = sub.add_parser(
        "assign", help="assign query points against a saved snapshot"
    )
    assign.add_argument("--snapshot", required=True,
                        help="snapshot directory written by `repro snapshot`"
                             " (or a shard plan directory when it holds a"
                             " plan.json)")
    assign.add_argument("--queries", required=True,
                        help="dataset .npz whose items are the queries")
    assign.add_argument("--mmap", action="store_true",
                        help="memory-map the snapshot arrays (read-only)")
    assign.add_argument("--workers", type=int, default=1,
                        help="serve through N shard worker processes "
                             "(default 1: single-process service)")
    assign.add_argument("--shortlist", choices=("lsh", "multiprobe", "all"),
                        default="lsh",
                        help="candidate-cluster shortlist mode")
    assign.add_argument("--out", default=None,
                        help="save per-query labels/scores .npz here")

    serve = sub.add_parser(
        "serve",
        help="drive open-loop traffic through the async front-end",
    )
    _add_traffic_args(serve)

    trace = sub.add_parser(
        "trace",
        help="replay traffic with request tracing and export the spans",
    )
    _add_traffic_args(trace)
    trace.add_argument("--out", required=True,
                       help="write Chrome trace-event JSONL here "
                            "(loadable by chrome://tracing / Perfetto)")

    stats = sub.add_parser(
        "stats",
        help="serve a query batch and print the metrics exposition",
    )
    stats.add_argument("--snapshot", required=True,
                       help="snapshot directory (or shard plan directory "
                            "with a plan.json)")
    stats.add_argument("--queries", required=True,
                       help="dataset .npz whose items are the queries")
    stats.add_argument("--workers", type=int, default=1,
                       help="serve through N shard worker processes "
                            "(default 1: single-process service)")
    stats.add_argument("--mmap", action="store_true",
                       help="memory-map snapshot arrays (single-process)")
    stats.add_argument("--batches", type=int, default=8,
                       help="split the queries into this many assign "
                            "batches (populates the latency histograms)")
    stats.add_argument("--shortlist", choices=("lsh", "multiprobe", "all"),
                       default="lsh",
                       help="candidate-cluster shortlist mode")

    ingest = sub.add_parser(
        "ingest",
        help="stream a dataset into a live corpus, publishing deltas",
    )
    ingest.add_argument("--input", required=True,
                        help="dataset .npz whose items arrive in batches")
    ingest.add_argument("--out", required=True,
                        help="chain directory: base/ plus delta_NNNN/ "
                             "subdirectories")
    ingest.add_argument("--batch-size", type=int, default=200,
                        help="arriving items per ingest batch (default 200)")
    ingest.add_argument("--delta", type=int, default=800)
    ingest.add_argument("--density-threshold", type=float, default=0.75)
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument("--wal", action="store_true",
                        help="journal every mutation to <out>/ingest.wal "
                             "and recover a crashed run on restart")

    compact = sub.add_parser(
        "compact",
        help="fold a delta chain into a fresh base snapshot",
    )
    compact.add_argument("--chain", required=True,
                         help="chain directory (base/ + delta_NNNN/)")
    compact.add_argument("--out", required=True,
                         help="where to write the compacted snapshot "
                              "(must not be the chain's own base/)")
    compact.add_argument("--mmap", action="store_true",
                         help="memory-map the chain's arrays while "
                              "folding")

    verify = sub.add_parser(
        "verify",
        help="audit snapshot/delta/chain/plan/WAL artifacts offline",
    )
    verify.add_argument("paths", nargs="+",
                        help="artifact path(s): snapshot, delta, "
                             "chain or shard-plan directories, or "
                             ".wal journal files")
    verify.add_argument("--allow-torn-tail", action="store_true",
                        help="report a journal's torn tail instead of "
                             "failing on it (recovery can truncate it)")

    arena = sub.add_parser(
        "arena",
        help="run detectors head-to-head under uniform limits",
    )
    arena.add_argument("--input", nargs="*", default=[],
                       help="dataset .npz path(s); the built-in tiny "
                            "synthetic pair when omitted")
    arena.add_argument("--detectors", nargs="+", default=None,
                       help="registry names (default: ALID + four "
                            "baselines; see repro.arena.registry)")
    arena.add_argument("--seeds", nargs="+", type=int, default=[0],
                       help="one cell per (detector, dataset, seed)")
    arena.add_argument("--wall-limit", type=float, default=120.0,
                       help="per-cell wall-clock budget, seconds")
    arena.add_argument("--rss-mb", type=float, default=None,
                       help="per-cell allocation budget beyond the "
                            "interpreter baseline, MB (default: "
                            "unlimited)")
    arena.add_argument("--delta", type=int, default=400,
                       help="ALID delta for the registry's alid-* specs")
    arena.add_argument("--density-threshold", type=float, default=0.75)
    arena.add_argument("--no-quality", action="store_true",
                       help="skip the per-cluster quality metrics "
                            "(pure wall/work sweep)")
    arena.add_argument("--out", default=None,
                       help="save the JSON ArenaReport here")

    quality = sub.add_parser(
        "quality",
        help="annotate a snapshot with per-cluster quality scores",
    )
    quality.add_argument("--snapshot", required=True,
                         help="snapshot directory to annotate")
    quality.add_argument("--out", default=None,
                         help="write the annotated snapshot here "
                              "(default: rewrite in place)")
    quality.add_argument("--stability-refits", type=int, default=0,
                         help="seed-perturbed refits for the stability "
                              "score (0 = skip stability; each refit "
                              "costs one full fit)")
    quality.add_argument("--seed", type=int, default=0)
    return parser


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------
def _cmd_generate(args) -> int:
    if args.workload == "synthetic":
        dataset = make_synthetic_mixture(
            args.n, regime=args.regime, seed=args.seed
        )
    elif args.workload == "nart":
        dataset = make_nart(
            scale=args.scale, noise_degree=args.noise_degree, seed=args.seed
        )
    elif args.workload == "ndi":
        dataset = make_ndi(
            scale=args.scale, noise_degree=args.noise_degree, seed=args.seed
        )
    elif args.workload == "sub_ndi":
        dataset = make_sub_ndi(
            scale=args.scale, noise_degree=args.noise_degree, seed=args.seed
        )
    elif args.workload == "sift":
        dataset = make_sift(args.n, seed=args.seed)
    elif args.workload == "nart_lda":
        from repro.features import nart_via_lda

        dataset = nart_via_lda(seed=args.seed)
    elif args.workload == "ndi_gist":
        from repro.features import ndi_via_gist

        dataset = ndi_via_gist(seed=args.seed)
    else:
        from repro.features import sift_via_patches

        dataset = sift_via_patches(seed=args.seed)
    path = save_dataset(dataset, args.out)
    print(
        f"wrote {path}: {dataset.n} items, dim {dataset.dim}, "
        f"{dataset.n_true_clusters} true clusters, "
        f"noise degree {dataset.noise_degree():.2f}"
    )
    return 0


def _build_method(name: str, dataset: Dataset, args):
    kernel = KernelParams(seed=args.seed)
    k_clusters = getattr(args, "k_clusters", None)
    if k_clusters is None:
        k_clusters = dataset.n_true_clusters + 1
    if name == "alid":
        return ALID(
            ALIDConfig(
                delta=args.delta,
                density_threshold=args.density_threshold,
                seed=args.seed,
                lid_kernel=getattr(args, "lid_kernel", "fused"),
            )
        )
    if name == "palid":
        return PALID(
            ALIDConfig(
                delta=args.delta,
                density_threshold=args.density_threshold,
                seed=args.seed,
                lid_kernel=getattr(args, "lid_kernel", "fused"),
            ),
            n_executors=getattr(args, "executors", 1),
        )
    if name == "iid":
        return IIDDetector(
            kernel=kernel, density_threshold=args.density_threshold
        )
    if name == "ds":
        return DominantSets(
            kernel=kernel, density_threshold=args.density_threshold
        )
    if name == "gs":
        return GraphShift(
            kernel=kernel, density_threshold=args.density_threshold
        )
    if name == "sea":
        return SEA(
            kernel=KernelParams(seed=args.seed, lsh_r_scale=20.0),
            density_threshold=args.density_threshold,
        )
    if name == "ap":
        return AffinityPropagation(kernel=kernel)
    if name == "km":
        return KMeans(k_clusters, seed=args.seed)
    if name == "sc-fl":
        return SpectralClustering(
            k_clusters, mode="full", kernel=kernel, seed=args.seed
        )
    if name == "sc-nys":
        return SpectralClustering(
            k_clusters, mode="nystrom", kernel=kernel, seed=args.seed
        )
    if name == "ms":
        return MeanShift(seed=args.seed)
    raise ValidationError(f"unknown method {name!r}")


def _evaluate_line(result, dataset: Dataset) -> str:
    truth = dataset.truth_clusters()
    avg = average_f1(result.member_lists(), truth) if truth else float("nan")
    work = result.counters.entries_computed if result.counters else 0
    mem = result.counters.peak_memory_mb if result.counters else 0.0
    return (
        f"{result.method:8s}  clusters={result.n_clusters:4d}  "
        f"AVG-F={avg:6.3f}  time={result.runtime_seconds:8.3f}s  "
        f"work={work:>12,}  peak-mem={mem:8.3f} MB"
    )


def _cmd_detect(args) -> int:
    dataset = load_dataset(args.input)
    method = _build_method(args.method, dataset, args)
    if getattr(args, "profile", False):
        from repro.obs.phases import PHASES, PhaseProfiler

        profiler = PhaseProfiler()
        with profiler:
            result = method.fit(dataset.data)
        print(_evaluate_line(result, dataset))
        summary = profiler.summary()
        for phase, record in sorted(summary.items()):
            wall = record.get("wall_seconds", 0.0)
            print(
                f"  phase {phase:10s} calls={record.get('calls', 0):6d}  "
                f"wall={wall:8.3f}s  "
                f"entries={record.get('entries', 0):>12,}  "
                f"({PHASES.get(phase, '?')})"
            )
    else:
        result = method.fit(dataset.data)
        print(_evaluate_line(result, dataset))
    if args.out:
        path = save_detection(result, args.out)
        print(f"saved detection to {path}")
    return 0


def _cmd_compare(args) -> int:
    dataset = load_dataset(args.input)
    print(
        f"dataset {dataset.name}: {dataset.n} items, "
        f"{dataset.n_true_clusters} true clusters, "
        f"noise degree {dataset.noise_degree():.2f}"
    )
    for name in args.methods:
        method = _build_method(name, dataset, args)
        result = method.fit(dataset.data)
        print(_evaluate_line(result, dataset))
    return 0


def _cmd_info(args) -> int:
    if args.kind == "dataset":
        dataset = load_dataset(args.path)
        print(f"dataset {dataset.name}")
        print(f"  items:        {dataset.n}")
        print(f"  dim:          {dataset.dim}")
        print(f"  true clusters:{dataset.n_true_clusters:>6}")
        print(f"  ground truth: {dataset.n_ground_truth}")
        print(f"  noise:        {dataset.n_noise}")
        print(f"  noise degree: {dataset.noise_degree():.3f}")
        print(f"  a*:           {dataset.largest_cluster_size()}")
    else:
        result = load_detection(args.path)
        print(result.summary())
        for cluster in sorted(result.clusters, key=lambda c: -c.size)[:10]:
            print(
                f"  label {cluster.label:4d}: size {cluster.size:5d}, "
                f"density {cluster.density:.3f}"
            )
    return 0


def _cmd_snapshot(args) -> int:
    from repro.serve import DetectionSnapshot

    dataset = load_dataset(args.input)
    detector = ALID(
        ALIDConfig(
            delta=args.delta,
            density_threshold=args.density_threshold,
            seed=args.seed,
            lid_kernel=getattr(args, "lid_kernel", "fused"),
        )
    )
    result = detector.fit(dataset.data)
    print(_evaluate_line(result, dataset))
    snapshot = DetectionSnapshot.from_result(detector, result)
    path = snapshot.save(args.out)
    print(
        f"wrote snapshot {path}: {snapshot.n_clusters} cluster(s), "
        f"{snapshot.n_items} items, dim {snapshot.dim}"
    )
    return 0


def _cmd_shard(args) -> int:
    from repro.serve import ShardPlanner

    plan = ShardPlanner(n_shards=args.shards, strategy=args.strategy).plan(
        args.snapshot, args.out
    )
    print(
        f"wrote shard plan {plan.root}: {plan.n_shards} shard(s), "
        f"strategy {plan.strategy}, parent {plan.parent_n_items} items / "
        f"{plan.parent_n_clusters} cluster(s)"
    )
    for spec in plan.shards:
        print(
            f"  {spec.dir_name}: {spec.n_items:6d} items, "
            f"{spec.n_clusters:3d} cluster(s) "
            f"(labels {', '.join(str(label) for label in spec.labels)})"
        )
    return 0


def _connect_snapshot(stack, args, *, on_worker_error="raise", **hooks):
    """Open ``args.snapshot`` through :func:`repro.serve.connect`.

    A shard plan directory serves with its planned shard count (workers
    always mmap their shards; ``--workers`` is ignored), ``--workers N``
    shards a snapshot on the fly into a managed scratch plan, and
    anything else serves in-process (``--mmap`` applies there).
    ``on_worker_error`` reaches a sharded pool only; ``hooks``
    (``registry`` / ``tracer``) reach either backend.  The handle closes
    with *stack*.
    """
    import pathlib

    from repro.serve import connect

    plan_dir = (pathlib.Path(args.snapshot) / "plan.json").is_file()
    if plan_dir and args.workers > 1:
        print(
            f"note: {args.snapshot} is a shard plan; serving with its "
            f"planned shard count, --workers ignored",
            file=sys.stderr,
        )
    if plan_dir or args.workers > 1:
        hooks["on_worker_error"] = on_worker_error
    return stack.enter_context(
        connect(
            args.snapshot,
            workers=None if plan_dir else args.workers,
            mmap=args.mmap,
            **hooks,
        )
    )


def _cmd_assign(args) -> int:
    import contextlib
    import time

    import numpy as np

    queries = load_dataset(args.queries).data
    with contextlib.ExitStack() as stack:
        service = _connect_snapshot(stack, args)
        n_shards = getattr(service, "n_shards", None)
        served_by = (
            "1 process" if n_shards is None else f"{n_shards} shard worker(s)"
        )
        start = time.perf_counter()
        assignment = service.assign(queries, shortlist=args.shortlist)
        wall = max(time.perf_counter() - start, 1e-9)
        n_clusters = service.n_clusters
    print(
        f"assigned {int(assignment.assigned_mask.sum())}/"
        f"{assignment.n_queries} queries "
        f"({100 * assignment.coverage:.1f}%) across "
        f"{n_clusters} cluster(s) in {wall:.3f}s "
        f"({assignment.n_queries / wall:,.0f} queries/s, "
        f"{assignment.entries_computed:,} affinity entries, "
        f"served by {served_by})"
    )
    labels, counts = np.unique(
        assignment.labels[assignment.assigned_mask], return_counts=True
    )
    for label, count in zip(labels.tolist(), counts.tolist()):
        print(f"  cluster {label:4d}: {count:6d} queries")
    if args.out:
        path = args.out if str(args.out).endswith(".npz") else f"{args.out}.npz"
        np.savez_compressed(
            path,
            labels=assignment.labels,
            scores=assignment.scores,
            n_candidates=assignment.n_candidates,
        )
        print(f"saved assignment to {path}")
    return 0


def _traffic_schedule(args, data):
    """Deterministic open-loop schedule: exponential inter-arrivals at
    the requested mean rate, requests cycling through the dataset."""
    import numpy as np

    if args.rate <= 0.0:
        raise ValidationError(f"--rate must be > 0, got {args.rate}")
    if args.duration <= 0.0:
        raise ValidationError(
            f"--duration must be > 0, got {args.duration}"
        )
    if args.request_rows < 1:
        raise ValidationError(
            f"--request-rows must be >= 1, got {args.request_rows}"
        )
    if args.clients < 1:
        raise ValidationError(f"--clients must be >= 1, got {args.clients}")
    rng = np.random.default_rng(args.seed)
    arrivals = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / args.rate))
        if t >= args.duration:
            break
        arrivals.append(t)
    if not arrivals:
        raise ValidationError(
            "the arrival schedule is empty; raise --rate or --duration"
        )
    rows = args.request_rows
    requests = [
        data[np.arange(i * rows, (i + 1) * rows) % data.shape[0]]
        for i in range(len(arrivals))
    ]
    clients = [f"client-{i % args.clients}" for i in range(len(arrivals))]
    return arrivals, requests, clients


def _connect_traffic_service(stack, args, **hooks):
    """Open the serving backend for a traffic replay (plus supervisor).

    Sharded pools serve degraded around a dead worker ("skip") while a
    :class:`~repro.serve.ShardSupervisor` heals it — the traffic front
    must not fail whole batches for one lost shard.  ``hooks`` forwards
    ``registry`` / ``tracer`` to the backend.
    """
    from repro.serve import ShardSupervisor

    service = _connect_snapshot(stack, args, on_worker_error="skip", **hooks)
    if hasattr(service, "heal"):
        stack.enter_context(ShardSupervisor(service, interval=0.1))
    elif args.kill_shard is not None:
        raise ValidationError(
            "--kill-shard needs a sharded service; pass --workers N "
            "or a shard plan directory"
        )
    return service


def _drive_open_loop(service, args, arrivals, requests, clients,
                     registry=None, tracer=None):
    """Run the replay through an :class:`AsyncFrontend`; returns
    ``(records, frontend_stats)``."""
    import asyncio
    import os
    import signal

    from repro.serve import AsyncFrontend, run_open_loop

    async def _drive():
        async with AsyncFrontend(
            service,
            slo_ms=args.slo_ms,
            max_batch_rows=args.max_batch,
            max_queued_rows=args.max_queued,
            shortlist=args.shortlist,
            registry=registry,
            tracer=tracer,
        ) as frontend:
            kill_task = None
            if args.kill_shard is not None:

                async def _kill():
                    await asyncio.sleep(args.kill_shard)
                    victim = service._workers[0]
                    print(
                        f"[fault] SIGKILL shard "
                        f"{victim.shard_id} (pid {victim.process.pid})"
                    )
                    os.kill(victim.process.pid, signal.SIGKILL)

                kill_task = asyncio.ensure_future(_kill())
            try:
                records = await run_open_loop(
                    frontend, requests, arrivals, clients=clients
                )
            finally:
                if kill_task is not None and not kill_task.done():
                    kill_task.cancel()
            return records, frontend.stats()

    return asyncio.run(_drive())


def _cmd_serve(args) -> int:
    import contextlib

    import numpy as np

    data = load_dataset(args.queries).data
    arrivals, requests, clients = _traffic_schedule(args, data)
    with contextlib.ExitStack() as stack:
        service = _connect_traffic_service(stack, args)
        records, fe_stats = _drive_open_loop(
            service, args, arrivals, requests, clients
        )
        service_stats = service.stats()

    ok = [r for r in records if r["status"] == "ok"]
    rejected = [r for r in records if r["status"] == "rejected"]
    errors = [r for r in records if r["status"] == "error"]
    latencies = np.asarray([r["reply"].latency_ms for r in ok])
    print(
        f"offered {len(records)} requests over {args.duration:.1f}s "
        f"({args.rate:.0f} req/s x {args.request_rows} rows): "
        f"{len(ok)} ok, {len(rejected)} rejected, {len(errors)} errors"
    )
    if latencies.size:
        done_rows = sum(r["n_rows"] for r in ok)
        print(
            f"latency p50 {np.percentile(latencies, 50):.2f} ms, "
            f"p99 {np.percentile(latencies, 99):.2f} ms "
            f"(SLO {args.slo_ms:.0f} ms, "
            f"{fe_stats['slo_violations']} violations); "
            f"throughput {done_rows / args.duration:,.0f} rows/s in "
            f"{fe_stats['batches']} micro-batches "
            f"(mean {fe_stats['mean_batch_rows']:.1f} rows)"
        )
    admission = fe_stats["admission"]
    print(
        f"admission: {admission['admitted_requests']} admitted, "
        f"{admission['rejected_requests']} rejected, peak queue "
        f"{admission['peak_queued_rows']} rows "
        f"(bound {admission['max_queued_rows']})"
    )
    if "dead_shards" in service_stats:
        print(
            f"pool: {service_stats['n_shards']} shard(s), "
            f"dead now {service_stats['dead_shards']}, "
            f"{service_stats['respawns']} respawn(s), "
            f"{service_stats['healed_shards']} healed shard(s), "
            f"{service_stats['degraded_batches']} degraded batch(es)"
        )
    return 0 if not errors else 1


def _cmd_trace(args) -> int:
    import contextlib
    from collections import Counter

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import TraceRecorder

    data = load_dataset(args.queries).data
    arrivals, requests, clients = _traffic_schedule(args, data)
    tracer = TraceRecorder()
    registry = MetricsRegistry()
    with contextlib.ExitStack() as stack:
        service = _connect_traffic_service(
            stack, args, registry=registry, tracer=tracer
        )
        records, fe_stats = _drive_open_loop(
            service, args, arrivals, requests, clients,
            registry=registry, tracer=tracer,
        )
    ok = sum(1 for r in records if r["status"] == "ok")
    n_events = tracer.export_jsonl(args.out)
    names = Counter(
        event["name"] for event in tracer.events() if event["ph"] == "X"
    )
    print(
        f"replayed {len(records)} requests ({ok} ok); "
        f"wrote {n_events} trace event(s) to {args.out} "
        f"(spans opened {tracer.opened}, closed {tracer.closed}, "
        f"dropped {tracer.dropped}, "
        f"balanced {'yes' if tracer.balanced else 'NO'})"
    )
    for name, count in sorted(names.items()):
        print(f"  {name:12s} {count:6d}")
    return 0


def _cmd_stats(args) -> int:
    import contextlib

    import numpy as np

    from repro.obs.metrics import MetricsRegistry

    if args.batches < 1:
        raise ValidationError(
            f"--batches must be >= 1, got {args.batches}"
        )
    registry = MetricsRegistry()
    queries = load_dataset(args.queries).data
    with contextlib.ExitStack() as stack:
        service = _connect_snapshot(stack, args, registry=registry)
        n_batches = max(1, min(args.batches, queries.shape[0]))
        for block in np.array_split(queries, n_batches):
            if block.shape[0]:
                service.assign(block, shortlist=args.shortlist)
    print(registry.render_text(), end="")
    return 0


def _dir_bytes(path) -> int:
    """Total payload bytes of an artifact directory (recursive)."""
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _cmd_ingest(args) -> int:
    import pathlib

    from repro.serve import IngestService
    from repro.streaming import StreamingALID

    if args.batch_size < 1:
        raise ValidationError(
            f"--batch-size must be >= 1, got {args.batch_size}"
        )
    dataset = load_dataset(args.input)
    out = pathlib.Path(args.out)
    config = ALIDConfig(
        delta=args.delta,
        density_threshold=args.density_threshold,
        seed=args.seed,
    )
    step = args.batch_size
    wal_path = out / "ingest.wal"
    # Synchronous re-peel: the CLI is a batch tool, so the published
    # chain must be deterministic for a given input and seed.
    if args.wal and wal_path.is_file():
        # A journal from a previous (possibly crashed) run: truncate
        # its torn tail, replay the committed prefix, continue.
        service = IngestService.recover(wal_path, out)
        info = service.recovery_info
        print(
            f"recovered {wal_path}: {info['records_replayed']} "
            f"record(s) replayed, {info['torn_bytes_truncated']} torn "
            f"byte(s) truncated, {info['publishes_restored']} "
            f"publish(es) restored"
        )
    else:
        service = IngestService(
            StreamingALID(config),
            repeel="sync",
            wal=wal_path if args.wal else None,
        )
    published = []
    with service:
        start = service.stream.n_items
        for lo in range(start, dataset.n, step):
            number = lo // step
            report = service.ingest(dataset.data[lo:lo + step])
            print(
                f"batch {number:3d}: {report.n_points:5d} points, "
                f"{report.absorbed:5d} absorbed, "
                f"{report.dirty_marked:5d} re-peeled, "
                f"{report.n_clusters:3d} cluster(s), "
                f"{report.entries_computed:,} affinity entries"
            )
            if service.stats()["chain_tip"] is None:
                snapshot = service.publish_base(out / "base")
                published.append(
                    f"  base: {snapshot.n_clusters} cluster(s), "
                    f"{snapshot.n_items} items, "
                    f"{_dir_bytes(out / 'base'):,} bytes"
                )
            else:
                name = (
                    f"delta_{service.stats()['published_sequence']:04d}"
                )
                delta = service.publish_delta(out / name)
                published.append(
                    f"  {name}: +{delta.n_appended} rows, "
                    f"-{delta.n_removed}/+{delta.n_upserted} cluster(s), "
                    f"{_dir_bytes(out / name):,} bytes"
                )
        stats = service.stats()
    print(f"wrote chain {out}: {len(published)} publish(es)")
    for line in published:
        print(line)
    print(
        f"final corpus: {stats['n_items']} items, "
        f"{stats['n_clusters']} cluster(s), chain tip "
        f"{str(stats['chain_tip'])[:12]}..."
    )
    return 0


def _cmd_compact(args) -> int:
    import pathlib

    from repro.serve import chain_artifacts, compact_chain

    _, deltas = chain_artifacts(args.chain)
    snapshot = compact_chain(args.chain, args.out, mmap=args.mmap)
    out = pathlib.Path(args.out)
    print(
        f"compacted {args.chain}: base + {len(deltas)} delta(s) -> "
        f"{out} ({_dir_bytes(out):,} bytes)"
    )
    print(
        f"  {snapshot.n_items} items, {snapshot.n_clusters} "
        f"cluster(s), folded tip {snapshot.meta['compacted_from'][:12]}"
        f"..., manifest {snapshot.manifest_sha256[:12]}..."
    )
    return 0


def _cmd_verify(args) -> int:
    from repro.serve import verify_artifact

    for path in args.paths:
        report = verify_artifact(
            path, allow_torn_tail=args.allow_torn_tail
        )
        kind = report["kind"]
        if kind == "chain":
            wal = report["wal"]
            journal = (
                "no journal"
                if wal is None
                else f"journal {wal['n_records']} record(s)"
                + (
                    f" ({wal['torn_bytes']} torn byte(s))"
                    if wal["torn_bytes"]
                    else ""
                )
            )
            print(
                f"{path}: chain ok — base + "
                f"{len(report['deltas'])} delta(s), tip "
                f"{report['tip_sha256'][:12]}..., {journal}"
            )
        elif kind == "snapshot":
            print(
                f"{path}: snapshot ok — {report['n_items']} items, "
                f"{report['n_clusters']} cluster(s), manifest "
                f"{report['manifest_sha256'][:12]}..."
            )
        elif kind == "plan":
            parent = report["parent_sha256"]
            print(
                f"{path}: plan ok — {len(report['shards'])} shard(s), "
                f"parent {parent[:12] + '...' if parent else 'in memory'}"
            )
        elif kind == "delta":
            print(
                f"{path}: delta ok — sequence {report['sequence']}, "
                f"+{report['n_appended']} rows, "
                f"-{report['n_removed']}/+{report['n_upserted']} "
                f"cluster(s), {report['n_retired_rows']} retired "
                f"row(s), parent {report['parent_sha256'][:12]}..."
            )
        else:
            torn = (
                f", {report['torn_bytes']} torn byte(s)"
                if report["torn_bytes"]
                else ""
            )
            print(
                f"{path}: wal ok — {report['n_records']} record(s), "
                f"{report['committed_bytes']:,} committed bytes{torn}"
            )
    return 0


def _cmd_arena(args) -> int:
    from repro.arena import ArenaDataset, ArenaRunner, CellLimits
    from repro.arena.registry import default_registry, tiny_datasets

    if args.input:
        datasets = [
            ArenaDataset.from_dataset(load_dataset(path))
            for path in args.input
        ]
    else:
        datasets = tiny_datasets()
    runner = ArenaRunner(
        default_registry(
            delta=args.delta,
            density_threshold=args.density_threshold,
        ),
        limits=CellLimits(
            wall_seconds=args.wall_limit, rss_mb=args.rss_mb
        ),
        with_quality=not args.no_quality,
    )
    report = runner.run(datasets, detectors=args.detectors,
                        seeds=args.seeds)
    print(report.leaderboard())
    by_status: dict[str, int] = {}
    for cell in report.cells:
        by_status[cell.status] = by_status.get(cell.status, 0) + 1
    summary = ", ".join(
        f"{status}={count}" for status, count in sorted(by_status.items())
    )
    print(f"{len(report.cells)} cell(s): {summary}")
    for cell in report.cells:
        if cell.status != "OK":
            print(
                f"  {cell.status}: {cell.detector} x {cell.dataset} "
                f"seed {cell.seed}: {cell.error}"
            )
    print(f"report fingerprint: {report.fingerprint()[:16]}")
    if args.out is not None:
        report.save(args.out)
        print(f"report written to {args.out}")
    return 0


def _cmd_quality(args) -> int:
    from repro.arena.quality import QUALITY_METRICS, annotate_snapshot
    from repro.serve import DetectionSnapshot
    from repro.viz.ascii import render_leaderboard

    if args.stability_refits < 0:
        raise ValidationError(
            f"--stability-refits must be >= 0, got {args.stability_refits}"
        )
    snapshot = DetectionSnapshot.load(args.snapshot)
    annotate_snapshot(
        snapshot,
        seed=args.seed,
        stability_refits=args.stability_refits,
    )
    carried = [
        metric
        for metric in QUALITY_METRICS
        if all(metric in s for s in snapshot.quality.values())
    ]
    rows = [
        [str(label)] + [f"{snapshot.quality[label][m]:.3f}" for m in carried]
        for label in sorted(snapshot.quality)
    ]
    print(
        render_leaderboard(
            ["cluster"] + carried,
            rows,
            title=f"quality of {args.snapshot} "
                  f"({len(snapshot.quality)} cluster(s))",
        )
    )
    out = args.out if args.out is not None else args.snapshot
    snapshot.save(out)
    print(f"quality-annotated snapshot written to {out}")
    print(
        "note: the manifest sha changed — re-anchor any delta chain "
        "published against the unannotated artifact"
    )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "detect": _cmd_detect,
    "compare": _cmd_compare,
    "info": _cmd_info,
    "snapshot": _cmd_snapshot,
    "shard": _cmd_shard,
    "assign": _cmd_assign,
    "serve": _cmd_serve,
    "ingest": _cmd_ingest,
    "compact": _cmd_compact,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "arena": _cmd_arena,
    "quality": _cmd_quality,
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
