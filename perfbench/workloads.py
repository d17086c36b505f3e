"""The benchmark's three workloads.

Each workload builds its inputs from the seed alone, pays and times its
set-up several times, runs a warm-up pass, then repeats one fixed unit
of work until the requested seconds have elapsed and at least two units
ran: one fit (``fit_20k``), one pass of 64-row requests over the query
set (``serve_local``) or one whole stream (``ingest``).  Outputs are checked after the timed window; a failed
check or an exception counts as a failed operation.  See README.md in
this directory for why each workload exists and what each metric means.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from repro import ALID, ALIDConfig, average_f1, make_synthetic_mixture
from repro.serve import ClusterService, DetectionSnapshot, IngestService
from repro.streaming import StreamingALID

from layertrace import SpanRecorder, combine

#: Set-up calls timed per run; ``setup_s`` is their median.  A fresh
#: interpreter's ``import repro`` costs ~0.7 s, the other set-ups <0.1 s.
SETUP_REPEATS = 15
IMPORT_REPEATS = 7
#: Rows per serve request (the closed-loop client's request size), and
#: requests per window of the serve metrics (two passes over the queries).
REQUEST_ROWS = 64
WINDOW_REQUESTS = 156
#: Points per ingest round, and rows of the read served after each round.
INGEST_BATCH = 30
INGEST_READ_ROWS = 256
#: Mixtures drawn per run by fit_20k and ingest, which alternate between
#: them.  Their cost and quality vary with the draw; two draws per run
#: average that variation in every figure.
INPUTS_PER_RUN = 2


class Outcome:
    """Operation counts, failures and metrics of one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}
        self.info: list[str] = []
        self.recorders: dict[str, SpanRecorder] = {}

    def fail(self, what: str) -> None:
        """Count one failed operation and keep its first messages."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


@dataclasses.dataclass
class Context:
    """Arguments of one run plus its scratch directory."""

    root: pathlib.Path
    workdir: pathlib.Path
    seed: int
    seconds: float
    trace: bool


def mixture(n: int, seed):
    """The paper's ``bounded`` regime: 10 Gaussian clusters over noise, d=32."""
    return make_synthetic_mixture(
        n=n, regime="bounded", bound=n // 2, n_clusters=10, dim=32, seed=seed
    )


def input_seeds(seed: int) -> list[np.random.SeedSequence]:
    """Independent seeds of the :data:`INPUTS_PER_RUN` draws of a run."""
    return np.random.SeedSequence(seed).spawn(INPUTS_PER_RUN)


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def percentile_ms(seconds: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def latency_line(what: str, seconds: list[float], p99: bool) -> str:
    """Percentiles with their sample count, for the printed report."""
    quantiles = (50, 90, 99) if p99 else (50, 90)
    parts = [f"p{q}={percentile_ms(seconds, q):.3f} ms" for q in quantiles]
    return f"{what}: {', '.join(parts)} over {len(seconds)} samples"


def repeated_setup(make, close, recorder: SpanRecorder | None):
    """Call ``make(k)`` :data:`SETUP_REPEATS` times; keep the last object.

    Returns the last object and the median set-up wall time.  Every
    object but the last is closed.  With a recorder each call is traced.
    """
    walls = []
    made = None
    for k in range(SETUP_REPEATS):
        if made is not None:
            close(made)
        start = time.perf_counter()
        if recorder is None:
            made = make(k)
        else:
            with recorder.episode(f"setup-{k}"):
                made = make(k)
        walls.append(time.perf_counter() - start)
    return made, statistics.median(walls)


def run_units(seconds: float, unit, tracing: bool) -> list[tuple[bool, object]]:
    """Call ``unit(k, traced)`` for k = 0, 1, ... until *seconds* have elapsed.

    Units run in pairs, so both draws of a run (or, traced, an untraced
    and a traced unit) weigh equally.  Untraced runs trace nothing.
    Traced runs alternate untraced and traced units, so the tracing
    overhead is measured under the same host drift.  Returns
    ``(traced, result)`` per unit.
    """
    gc.collect()
    done: list[tuple[bool, object]] = []
    start = time.perf_counter()
    while len(done) % 2 or not done or time.perf_counter() - start < seconds:
        traced = tracing and len(done) % 2 == 1
        done.append((traced, unit(len(done), traced)))
    return done


def throughput(units: list[tuple[bool, dict]], traced: bool) -> float:
    """Items per second over the units of one kind."""
    chosen = [result for was_traced, result in units if was_traced == traced]
    return sum(r["items"] for r in chosen) / sum(r["wall"] for r in chosen)


def finish(out: Outcome, units, recorders: dict, extra: dict) -> None:
    """Fill the per-layer metrics of a traced run."""
    setup = recorders.get("setup")
    layer = combine(setup, recorders["units"])
    layer.update(extra)
    layer["trace_overhead"] = 1.0 - throughput(units, True) / throughput(
        units, False
    )
    out.metrics = layer
    out.recorders = recorders


# ----------------------------------------------------------------------
# fit_20k
# ----------------------------------------------------------------------
def import_seconds(ctx: Context) -> float:
    """Wall time of ``import repro`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro"], env=env, cwd=ctx.root, check=True
    )
    return time.perf_counter() - start


def check_fit(result, n: int, config: ALIDConfig) -> str | None:
    """Why the dominant clusters are malformed, or None when they are not."""
    seen = np.zeros(n, dtype=bool)
    for cluster in result.clusters:
        members = cluster.members
        if members.size == 0 or members.min() < 0 or members.max() >= n:
            return f"cluster {cluster.label} has out-of-range members"
        if np.unique(members).size != members.size or seen[members].any():
            return f"cluster {cluster.label} overlaps another support"
        seen[members] = True
        if cluster.density < config.density_threshold:
            return f"cluster {cluster.label} density {cluster.density} below threshold"
    return None


def fit_digest(result) -> str:
    """Digest of everything a repeated fit must reproduce exactly."""
    digest = hashlib.sha256(str(result.counters.entries_computed).encode())
    for cluster in result.all_clusters:
        digest.update(cluster.members.tobytes())
        digest.update(cluster.weights.tobytes())
    return digest.hexdigest()


def fit_20k(ctx: Context) -> Outcome:
    n = 20_000
    out = Outcome()
    config = ALIDConfig()
    datasets = [mixture(n, seed) for seed in input_seeds(ctx.seed)]
    setup_s = None
    if not ctx.trace:
        import_seconds(ctx)
        setup_s = statistics.median(
            import_seconds(ctx) for _ in range(IMPORT_REPEATS)
        )
    ALID(config).fit(mixture(2_000, ctx.seed).data)
    recorder = SpanRecorder()
    first = {}
    traced_results = []

    def unit(k: int, traced: bool):
        i = 0 if ctx.trace else k % len(datasets)
        out.attempted += 1
        rid = f"fit-{out.attempted}"
        start = time.perf_counter()
        try:
            if traced:
                with recorder.episode(rid):
                    result = ALID(config).fit(datasets[i].data)
            else:
                result = ALID(config).fit(datasets[i].data)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            out.fail(f"{rid}: {type(exc).__name__}: {exc}")
            return None
        wall = time.perf_counter() - start
        problem = check_fit(result, n, config)
        digest = fit_digest(result)
        if problem is None and first.setdefault(i, (result, digest))[1] != digest:
            problem = "fit differs from the first fit of the same input"
        if problem is not None:
            out.fail(f"{rid}: {problem}")
            return None
        if traced:
            traced_results.append(result)
        return {"wall": wall, "items": n}

    units = [(t, r) for t, r in run_units(ctx.seconds, unit, ctx.trace) if r]
    if not units:
        raise RuntimeError(f"every fit failed: {out.errors}")
    if ctx.trace:
        traced = traced_results[0]
        meta = traced.metadata
        finish(
            out,
            units,
            {"units": recorder},
            {
                "affinity.entries_stored_peak": traced.counters.entries_stored_peak,
                "core.seed_rounds": meta["seed_rounds"],
                "core.lid_runs": meta["lid_runs"],
                "core.noise_prefiltered": meta["noise_prefiltered"],
                "core.max_cohort": meta["max_cohort"],
                "core.dominant_per_lid_run": traced.n_clusters / meta["lid_runs"],
            },
        )
        return out
    walls = [r["wall"] for _, r in units]
    results = {i: result for i, (result, _) in first.items()}
    out.metrics = {
        "setup_s": setup_s,
        "items_per_s": throughput(units, False),
        "p50_ms": percentile_ms(walls, 50),
        "p90_ms": percentile_ms(walls, 90),
        "peak_rss_mb": vm_hwm_mb(),
        "work_entries": statistics.mean(
            r.counters.entries_computed for r in results.values()
        ),
        "avg_f": statistics.mean(
            average_f1(r.member_lists(), datasets[i].truth_clusters())
            for i, r in results.items()
        ),
    }
    out.info.append(latency_line("fit wall", walls, p99=False))
    for i, result in sorted(results.items()):
        out.info.append(
            f"input {i}: {result.n_clusters} dominant clusters, "
            f"{result.metadata['seed_rounds']} seed rounds, "
            f"{result.metadata['lid_runs']} LID runs, "
            f"{result.counters.entries_computed} entries"
        )
    return out


# ----------------------------------------------------------------------
# serve_local
# ----------------------------------------------------------------------
def serve_inputs(ctx: Context):
    """Fit a snapshot on one half of a 2x5k draw; the other half queries it.

    Returns the snapshot directory, the 64-row request blocks and the
    true labels of the query rows.
    """
    n = 10_000
    dataset = mixture(n, ctx.seed)
    order = np.random.default_rng(ctx.seed).permutation(n)
    half = n // 2
    query_rows = order[half:][: half // REQUEST_ROWS * REQUEST_ROWS]
    detector = ALID(ALIDConfig())
    result = detector.fit(dataset.data[order[:half]])
    snapshot_dir = ctx.workdir / "snapshot"
    DetectionSnapshot.from_result(detector, result).save(snapshot_dir)
    queries = np.ascontiguousarray(dataset.data[query_rows])
    blocks = [
        queries[lo : lo + REQUEST_ROWS]
        for lo in range(0, queries.shape[0], REQUEST_ROWS)
    ]
    return snapshot_dir, blocks, dataset.labels[query_rows]


def query_avg_f(labels: np.ndarray, truth: np.ndarray) -> float:
    """AVG-F of the assigned query groups against the queries' true clusters."""
    detected = [np.flatnonzero(labels == c) for c in np.unique(labels[labels >= 0])]
    expected = [np.flatnonzero(truth == c) for c in np.unique(truth[truth >= 0])]
    return average_f1(detected, expected)


def serve_window(ctx, out, assign, blocks, recorder):
    """Closed loop, one client: passes of 64-row requests until time is up.

    Returns the units and every reply as ``(block index, assignment)``.
    """
    replies = []

    def one_pass(traced: bool):
        latencies = []
        start = time.perf_counter()
        for i, block in enumerate(blocks):
            out.attempted += 1
            rid = f"req-{out.attempted}"
            recorder.rid = rid
            sent = time.perf_counter()
            try:
                reply = assign(block)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                out.fail(f"{rid}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(time.perf_counter() - sent)
            replies.append((i, reply))
        wall = time.perf_counter() - start
        return {"wall": wall, "items": len(latencies) * REQUEST_ROWS,
                "latencies": latencies}

    def unit(k: int, traced: bool):
        if not traced:
            return one_pass(False)
        with recorder.episode(f"pass-{k}"):
            return one_pass(True)

    units = run_units(ctx.seconds, unit, ctx.trace)
    return units, replies


def check_replies(out: Outcome, replies, reference) -> None:
    """Every reply must equal the reference reply byte for byte."""
    for i, reply in replies:
        expected = reference[i]
        if (
            reply.labels.tobytes() != expected.labels.tobytes()
            or reply.scores.tobytes() != expected.scores.tobytes()
        ):
            out.fail(f"request block {i}: reply differs from the reference")


def serve_metrics(out, units, replies, blocks, truth, setup_s, rss_mb) -> None:
    """End-to-end serve metrics, each the median over request windows.

    Bursts of host contention shorter than half the run then move no
    metric; a window holds enough requests for its p90 to have more
    than ten samples beyond it.
    """
    latencies = np.asarray([s for _, r in units for s in r["latencies"]])
    n_windows = latencies.size // WINDOW_REQUESTS
    windows = latencies[: n_windows * WINDOW_REQUESTS].reshape(n_windows, -1)
    first_pass = {}
    for i, reply in replies:
        first_pass.setdefault(i, reply)
    labels = np.concatenate([first_pass[i].labels for i in range(len(blocks))])
    out.metrics = {
        "setup_s": setup_s,
        "items_per_s": float(
            np.median(REQUEST_ROWS * WINDOW_REQUESTS / windows.sum(axis=1))
        ),
        "p50_ms": float(np.median(np.percentile(windows, 50, axis=1))) * 1e3,
        "p90_ms": float(np.median(np.percentile(windows, 90, axis=1))) * 1e3,
        "peak_rss_mb": rss_mb,
        "work_entries": sum(first_pass[i].entries_computed for i in first_pass),
        "avg_f": query_avg_f(labels, truth),
    }
    out.info.append(latency_line("request latency", list(latencies), p99=True))
    out.info.append(
        f"rate, p50 and p90 are medians over {n_windows} windows "
        f"of {WINDOW_REQUESTS} requests"
    )


def serve_local(ctx: Context) -> Outcome:
    out = Outcome()
    snapshot_dir, blocks, truth = serve_inputs(ctx)
    setup_rec = SpanRecorder()
    service, setup_s = repeated_setup(
        lambda k: ClusterService(snapshot_dir),
        lambda svc: svc.close(),
        setup_rec if ctx.trace else None,
    )
    try:
        reference = [service.assign(block) for block in blocks]
        recorder = SpanRecorder()
        units, replies = serve_window(ctx, out, service.assign, blocks, recorder)
    finally:
        service.close()
    check_replies(out, replies, reference)
    if not replies:
        raise RuntimeError(f"every request failed: {out.errors}")
    if ctx.trace:
        finish(out, units, {"setup": setup_rec, "units": recorder}, {})
        return out
    serve_metrics(out, units, replies, blocks, truth, setup_s, vm_hwm_mb())
    return out


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
def stream_input(n: int, seed: np.random.SeedSequence):
    """A mixture in seed-shuffled arrival order, with its true clusters."""
    data_seed, order_seed = seed.spawn(2)
    dataset = mixture(n, data_seed)
    order = np.random.default_rng(order_seed).permutation(n)
    labels = dataset.labels[order]
    truth = [np.flatnonzero(labels == c) for c in np.unique(labels[labels >= 0])]
    return np.ascontiguousarray(dataset.data[order]), truth


def ingest(ctx: Context) -> Outcome:
    n = 3_000
    out = Outcome()
    inputs = [stream_input(n, seed) for seed in input_seeds(ctx.seed)]
    names = itertools.count()
    opened: list = []

    def bootstrap(i: int):
        """``IngestService`` with a journal, first batch, base, live service."""
        directory = ctx.workdir / f"stream-{next(names)}"
        service = IngestService(
            StreamingALID(ALIDConfig()), repeel="sync", wal=directory / "wal.log"
        )
        opened.append(service)
        service.ingest(inputs[i][0][:INGEST_BATCH])
        service.publish_base(directory / "base")
        return service, ClusterService(directory / "base"), directory, i

    def close(stream) -> None:
        service, live, directory, _ = stream
        live.close()
        service.close()
        shutil.rmtree(directory)

    def one_round(stream, r: int):
        """Ingest round *r*; return its report and when the delta was live."""
        service, live, directory, i = stream
        points = inputs[i][0]
        lo = INGEST_BATCH * (r + 1)
        report = service.ingest(points[lo : lo + INGEST_BATCH])
        service.publish_delta(directory / f"delta-{r:04d}")
        live.apply_delta(directory / f"delta-{r:04d}")
        applied = time.perf_counter()
        live.assign(points[-INGEST_READ_ROWS:])
        return report, applied

    def check_stream(stream) -> str | None:
        """The chain-applied service must answer like a fresh full snapshot."""
        service, live, _, i = stream
        read_block = inputs[i][0][-INGEST_READ_ROWS:]
        chained = live.assign(read_block)
        with ClusterService(service.stream.to_snapshot()) as direct:
            fresh = direct.assign(read_block)
        if (
            chained.labels.tobytes() != fresh.labels.tobytes()
            or chained.scores.tobytes() != fresh.scores.tobytes()
        ):
            return "chain-applied service differs from a fresh snapshot"
        result = service.stream.result()
        known = first.setdefault(i, result)
        if result.counters.entries_computed != known.counters.entries_computed:
            return "stream work differs from the first stream of the same input"
        return None

    setup_rec = SpanRecorder()
    recorder = SpanRecorder()
    first = {}
    stream, setup_s = repeated_setup(
        lambda k: bootstrap(0), close, setup_rec if ctx.trace else None
    )
    close(stream)
    stream = bootstrap(0)
    for r in range(9):
        one_round(stream, r)
    close(stream)

    def rounds(stream, traced: bool):
        freshness = []
        start = time.perf_counter()
        for r in range(n // INGEST_BATCH - 1):
            out.attempted += 1
            rid = f"round-{out.attempted}"
            recorder.rid = rid
            sent = time.perf_counter()
            try:
                report, applied = one_round(stream, r)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                out.fail(f"{rid}: {type(exc).__name__}: {exc}")
                continue
            freshness.append(applied - sent)
            if traced:
                recorder.add("ingested", report.n_points)
                recorder.add("absorbed", report.absorbed)
                recorder.add("streaming.dirty_marked", report.dirty_marked)
        wall = time.perf_counter() - start
        return {"wall": wall, "items": len(freshness) * INGEST_BATCH,
                "latencies": freshness}

    def unit(k: int, traced: bool):
        stream = bootstrap(0 if ctx.trace else k % len(inputs))
        try:
            if traced:
                with recorder.episode(f"stream-{k}"):
                    result = rounds(stream, True)
            else:
                result = rounds(stream, False)
            out.attempted += 1
            try:
                problem = check_stream(stream)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                problem = f"{type(exc).__name__}: {exc}"
            if problem is not None:
                out.fail(f"stream check: {problem}")
            return result
        finally:
            close(stream)

    try:
        units = run_units(ctx.seconds, unit, ctx.trace)
    finally:
        for service in opened:
            service.close()
    if not first:
        raise RuntimeError(f"no stream completed its check: {out.errors}")
    if ctx.trace:
        finish(
            out,
            units,
            {"setup": setup_rec, "units": recorder},
            {"affinity.entries_stored_peak": first[0].counters.entries_stored_peak},
        )
        return out
    latencies = [s for _, r in units for s in r["latencies"]]
    out.metrics = {
        "setup_s": setup_s,
        "items_per_s": throughput(units, False),
        "p50_ms": percentile_ms(latencies, 50),
        "p90_ms": percentile_ms(latencies, 90),
        "peak_rss_mb": vm_hwm_mb(),
        "work_entries": statistics.mean(
            r.counters.entries_computed for r in first.values()
        ),
        "avg_f": statistics.mean(
            average_f1(r.member_lists(), inputs[i][1]) for i, r in first.items()
        ),
    }
    out.info.append(latency_line("round freshness", latencies, p99=False))
    for i, result in sorted(first.items()):
        out.info.append(
            f"input {i}: {result.n_clusters} live clusters at the end of a "
            f"stream, {result.counters.entries_computed} entries"
        )
    return out


WORKLOADS = {
    "fit_20k": fit_20k,
    "serve_local": serve_local,
    "ingest": ingest,
}
