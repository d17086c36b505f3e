"""Multi-worker sharded serving over a planned shard set.

The process architecture behind the ROADMAP's serving-scale lever:

::

    ShardPlanner.plan(snapshot, root)                     (offline)
            |
        shard_root/  (plan.json + one DetectionSnapshot per shard)
            |
    ShardedClusterService(shard_root)                     (serve time)
        |-- ShardWorker 0  (process, mmap-loads shard_000 only)
        |-- ShardWorker 1  (process, mmap-loads shard_001 only)
        |        ...each runs the unmodified ClusterAssigner locally
        '-- BatchingRouter: micro-batch -> scatter -> densest-wins merge

Each worker is a separate OS process that loads **only its shard**, with
``mmap=True`` — the shard's data matrix stays a file-backed buffer, so
neither the router process nor any worker ever holds a full-matrix copy
(the router holds no arrays at all; it reads ``plan.json`` and worker
handshakes).  Requests and partial verdicts travel over
``multiprocessing`` pipes with the out-of-band pickle framing of
:mod:`repro.serve.ipc` — query and verdict arrays ride as raw buffers
and are rebuilt as zero-copy views on the receiving side, cutting the
per-micro-batch copy cost of the stock in-band pickling.

Guarantees, pinned by ``tests/test_serve_sharded.py``:

* **Exactness** — with every worker alive, assignments are
  byte-identical to the single-process
  :class:`~repro.serve.service.ClusterService` on the same snapshot and
  queries, and the summed serve-side ``entries_computed`` matches
  exactly (each (query, cluster) pair is scored in exactly one shard;
  see :mod:`repro.serve.plan` for why the decomposition is exact).
* **Atomic hot reload** — :meth:`ShardedClusterService.reload` builds
  and handshakes a complete new worker pool off to the side (plan
  checksums verified, every worker loaded) before swapping; a failure
  at any point leaves the old pool serving untouched.
* **Degraded serving** — with ``on_worker_error="skip"``, a dead worker
  removes only its shard's clusters from consideration; surviving
  shards keep answering and the degradation is surfaced in
  :meth:`ShardedClusterService.stats`.  The default policy raises
  :class:`~repro.exceptions.WorkerError` instead.
* **Self-healing** — :meth:`ShardedClusterService.heal` respawns dead
  workers from their on-disk shard artifacts and swaps them in behind a
  drained router.  Every worker reports the checksum of the shard
  manifest it loaded, and a respawn that loaded any other manifest than
  the one the served plan recorded is refused, so post-heal assignments
  are byte-identical to a never-crashed pool.
  :class:`~repro.serve.supervisor.ShardSupervisor` automates the
  watch-and-heal loop; ``tests/test_serve_faults.py`` pins both.

Stats follow the same two-scope semantics as the single-process
service: top-level counters are lifetime, the ``"snapshot"`` block
resets on each successful reload.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import threading
import time

import numpy as np

from repro.exceptions import SnapshotError, ValidationError, WorkerError
from repro.obs.metrics import MetricsRegistry, default_latency_bounds_ms
from repro.obs.trace import TID_SUPERVISOR
from repro.serve.assigner import Assignment, ClusterAssigner
from repro.serve.ipc import recv_message, send_message
from repro.serve.plan import ShardPlan, ShardPlanner, replan_for_delta
from repro.serve.router import BatchingRouter
from repro.serve.service import _ServingCounters
from repro.serve.snapshot import DetectionSnapshot, SnapshotDelta

__all__ = ["ShardWorker", "ShardedClusterService"]


def _mp_context():
    """Fork when the platform has it (cheap), spawn otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _describe_payload(shard_dir: str, snapshot: DetectionSnapshot) -> dict:
    """The worker's handshake/describe payload (shape + residency facts)."""
    data = snapshot.data
    filename = getattr(data, "filename", None)
    return {
        "shard_dir": str(shard_dir),
        "pid": os.getpid(),
        "n_items": snapshot.n_items,
        "dim": snapshot.dim,
        "n_clusters": snapshot.n_clusters,
        "labels": [int(c.label) for c in snapshot.clusters],
        "shard_id": snapshot.meta.get("shard_id"),
        "manifest_sha256": snapshot.manifest_sha256,
        "data_type": type(data).__name__,
        "data_filename": None if filename is None else str(filename),
        "quality": (
            None
            if snapshot.quality is None
            else {
                int(label): dict(scores)
                for label, scores in snapshot.quality.items()
            }
        ),
    }


def _worker_main(shard_dir: str, conn, mmap: bool) -> None:
    """Entry point of one shard worker process.

    Loads the shard snapshot (checksum-verified, ``mmap`` by default so
    the data matrix stays file-backed), builds the ordinary
    :class:`ClusterAssigner` over it, then answers requests until the
    pipe closes or a ``stop`` arrives.  Every failure is reported over
    the pipe — the worker never dies silently while the pipe is open.

    Telemetry: the worker keeps its own
    :class:`~repro.obs.metrics.MetricsRegistry` and piggybacks a
    ``"metrics"`` delta (:meth:`~repro.obs.metrics.MetricsRegistry.flush_delta`)
    on **every** assign reply — the delta rides the same pickle-5
    framing as the verdict arrays, so the parent's merged histograms
    are the exact bucket-level sum of what the workers observed, and a
    healed worker's fresh registry simply resumes the delta stream from
    zero (parent totals stay monotone).
    """
    try:
        snapshot = DetectionSnapshot.load(shard_dir, mmap=mmap)
        assigner = ClusterAssigner(snapshot)
        labels = np.asarray(
            [c.label for c in snapshot.clusters], dtype=np.int64
        )
        densities = np.asarray(
            [c.density for c in snapshot.clusters], dtype=np.float64
        )
        label_order = np.argsort(labels, kind="stable")
        sorted_labels = labels[label_order]
        sorted_densities = densities[label_order]
        registry = MetricsRegistry(component="shard_worker")
        shard_label = str(snapshot.meta.get("shard_id"))
        m_assign_ms = registry.histogram(
            "shard_assign_ms",
            "Per-shard local assign latency (ms)",
            bounds=default_latency_bounds_ms(),
            shard=shard_label,
        )
        m_batches = registry.counter(
            "shard_batches_total",
            "Query batches answered by this shard",
            shard=shard_label,
        )
        m_queries = registry.counter(
            "shard_queries_total",
            "Query rows answered by this shard",
            shard=shard_label,
        )
        m_entries = registry.counter(
            "shard_entries_total",
            "Affinity entries computed by this shard",
            shard=shard_label,
        )
    except BaseException as exc:  # noqa: BLE001 - reported over the pipe
        try:
            send_message(conn, ("failed", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    send_message(conn, ("ready", _describe_payload(shard_dir, snapshot)))
    while True:
        try:
            message = recv_message(conn)
        except (EOFError, OSError):
            break
        command = message[0]
        if command == "stop":
            break
        seq = message[1]
        try:
            if command == "assign":
                queries, shortlist = message[2], message[3]
                t_start = time.perf_counter()
                result = assigner.assign(queries, shortlist=shortlist)
                density = np.full(result.labels.size, -np.inf)
                hit = result.labels >= 0
                if hit.any():
                    positions = np.searchsorted(
                        sorted_labels, result.labels[hit]
                    )
                    density[hit] = sorted_densities[positions]
                m_assign_ms.observe(
                    (time.perf_counter() - t_start) * 1e3
                )
                m_batches.inc()
                m_queries.inc(int(result.labels.size))
                m_entries.inc(int(result.entries_computed))
                send_message(
                    conn,
                    (
                        "ok",
                        seq,
                        {
                            "labels": result.labels,
                            "scores": result.scores,
                            "density": density,
                            "n_candidates": result.n_candidates,
                            "entries": result.entries_computed,
                            "metrics": registry.flush_delta(),
                        },
                    ),
                )
            elif command == "describe":
                send_message(
                    conn, ("ok", seq, _describe_payload(shard_dir, snapshot))
                )
            else:
                send_message(conn, ("error", seq, f"unknown command {command!r}"))
        except ValidationError as exc:
            # The request, not the worker, is at fault (a block too
            # large to hash): the parent re-raises it typed.
            send_message(conn, ("invalid", seq, str(exc)))
        except Exception as exc:  # noqa: BLE001 - reported, worker stays up
            send_message(conn, ("error", seq, f"{type(exc).__name__}: {exc}"))
    conn.close()


class ShardWorker:
    """Parent-side handle of one shard worker process.

    Parameters
    ----------
    shard_dir:
        Directory of the shard's :class:`DetectionSnapshot`.
    shard_id:
        Position of the shard in its plan (used by router bookkeeping).
    mmap:
        Load the shard memory-mapped (default; the point of sharding is
        that no process materialises matrices it does not own).
    start_timeout:
        Seconds to wait for the worker's ready handshake before the
        start is abandoned (:class:`WorkerError`).
    request_timeout:
        Seconds to wait for any single response (:class:`WorkerError`
        on expiry; the worker is considered dead afterwards).
    """

    def __init__(
        self,
        shard_dir,
        shard_id: int,
        *,
        mmap: bool = True,
        start_timeout: float = 120.0,
        request_timeout: float = 300.0,
    ):
        self.shard_id = int(shard_id)
        self.shard_dir = pathlib.Path(shard_dir)
        self.request_timeout = float(request_timeout)
        self._dead = False
        self._seq = 0
        ctx = _mp_context()
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(str(self.shard_dir), child_conn, bool(mmap)),
            daemon=True,
            name=f"repro-shard-{shard_id}",
        )
        self.process.start()
        child_conn.close()
        try:
            if not self._conn.poll(start_timeout):
                raise WorkerError(
                    f"shard worker {shard_id} did not come up within "
                    f"{start_timeout:.0f}s"
                )
            status, payload = recv_message(self._conn)
        except WorkerError:
            self._terminate()
            raise
        except (EOFError, OSError) as exc:
            self._terminate()
            raise WorkerError(
                f"shard worker {shard_id} died during startup: {exc}"
            ) from exc
        if status != "ready":
            self._terminate()
            raise WorkerError(
                f"shard worker {shard_id} failed to load "
                f"{self.shard_dir}: {payload}"
            )
        self.info = payload

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the worker process is up and answering."""
        return not self._dead and self.process.is_alive()

    def submit(self, command: str, *payload) -> int:
        """Send one request; returns the sequence id to collect on."""
        if not self.alive:
            raise WorkerError(
                f"shard worker {self.shard_id} is not alive"
            )
        self._seq += 1
        try:
            send_message(self._conn, (command, self._seq) + payload)
        except (BrokenPipeError, OSError) as exc:
            self._dead = True
            raise WorkerError(
                f"shard worker {self.shard_id} pipe is broken: {exc}"
            ) from exc
        return self._seq

    def collect(self, seq: int, timeout: float | None = None):
        """Wait for the response to *seq* and return its payload.

        Raises :class:`~repro.exceptions.ValidationError` when the
        worker refused the request's input (it stays up), and
        :class:`~repro.exceptions.WorkerError` for any other failure.
        """
        timeout = self.request_timeout if timeout is None else timeout
        try:
            if not self._conn.poll(timeout):
                self._dead = True
                raise WorkerError(
                    f"shard worker {self.shard_id} timed out after "
                    f"{timeout:.0f}s"
                )
            status, got_seq, payload = recv_message(self._conn)
        except WorkerError:
            raise
        except (EOFError, OSError) as exc:
            self._dead = True
            raise WorkerError(
                f"shard worker {self.shard_id} died mid-request: {exc}"
            ) from exc
        if got_seq != seq:
            self._dead = True
            raise WorkerError(
                f"shard worker {self.shard_id} answered request "
                f"{got_seq}, expected {seq} (protocol desync)"
            )
        if status == "invalid":
            raise ValidationError(payload)
        if status != "ok":
            raise WorkerError(
                f"shard worker {self.shard_id} request failed: {payload}"
            )
        return payload

    def request(self, command: str, *payload, timeout: float | None = None):
        """Synchronous submit + collect convenience."""
        return self.collect(self.submit(command, *payload), timeout=timeout)

    def describe(self) -> dict:
        """Fresh shard facts from the worker (pid, residency, shapes)."""
        return self.request("describe")

    def stop(self, timeout: float = 10.0) -> None:
        """Ask the worker to exit; escalate to terminate if it will not.

        The polite ``stop`` is attempted whenever the *process* is
        alive — even for handles already marked dead (a timed-out or
        desynced worker may still be looping on its pipe), so shutdown
        does not burn the whole join timeout on a process that would
        have exited on request.
        """
        if self.process.is_alive():
            try:
                send_message(self._conn, ("stop",))
            except (BrokenPipeError, OSError):
                pass
            self.process.join(timeout)
        self._terminate()

    def _terminate(self) -> None:
        self._dead = True
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(5.0)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


class ShardedClusterService:
    """Serve cluster assignments from a shard set, one worker per shard.

    Parameters
    ----------
    root:
        A shard plan directory written by
        :class:`~repro.serve.plan.ShardPlanner` (``plan.json`` + shard
        snapshot subdirectories).
    mmap:
        Workers load their shards memory-mapped (default True).
    max_batch:
        Router micro-batch size (see
        :class:`~repro.serve.router.BatchingRouter`).
    on_worker_error:
        ``"raise"`` (default) or ``"skip"`` — the degraded-mode policy.
    parent_source:
        The plan's parent snapshot (a directory path or loaded
        :class:`DetectionSnapshot`), required only for
        :meth:`apply_delta` — partial re-planning needs the full
        corpus, which no single shard holds.  Loaded ``mmap=True`` when
        given as a path.  :func:`repro.serve.client.connect` wires this
        automatically.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` for the
        serving counters, the per-shard metric deltas the workers
        piggyback on their replies, and everything else the pool
        records; a private ``component="serve"`` registry is created
        when omitted and exposed as :attr:`metrics_registry` either
        way.
    tracer:
        Optional :class:`~repro.obs.trace.TraceRecorder` handed to
        every router the service builds (scatter / per-shard assign /
        merge spans) and used for ``heal`` spans.

    Example
    -------
    >>> from repro.serve import ShardPlanner, ShardedClusterService
    ... # doctest: +SKIP
    >>> ShardPlanner(n_shards=4).plan("snap", "shards")  # doctest: +SKIP
    >>> service = ShardedClusterService("shards")        # doctest: +SKIP
    >>> service.assign(queries).labels                   # doctest: +SKIP
    """

    def __init__(
        self,
        root,
        *,
        mmap: bool = True,
        max_batch: int = 1024,
        on_worker_error: str = "raise",
        start_timeout: float = 120.0,
        parent_source=None,
        registry: MetricsRegistry | None = None,
        tracer=None,
    ):
        # Reject bad knobs before any worker is forked (the router would
        # only catch them after the whole pool came up).
        if on_worker_error not in ("raise", "skip"):
            raise ValidationError(
                f"on_worker_error must be 'raise' or 'skip', "
                f"got {on_worker_error!r}"
            )
        if max_batch < 1:
            raise ValidationError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        self._lock = threading.Lock()
        self._mmap = bool(mmap)
        self._max_batch = int(max_batch)
        self._on_worker_error = on_worker_error
        self._start_timeout = float(start_timeout)
        self._counters = _ServingCounters(registry)
        self.metrics_registry = self._counters.registry
        self.tracer = tracer
        self._heal_seq = 0
        self._closed = False
        self._plan: ShardPlan | None = None
        self._workers: list[ShardWorker] = []
        self._router: BatchingRouter | None = None
        if parent_source is None or isinstance(
            parent_source, DetectionSnapshot
        ):
            self._full: DetectionSnapshot | None = parent_source
        else:
            self._full = DetectionSnapshot.load(parent_source, mmap=True)
        plan = ShardPlan.load(root)
        self._swap(plan, self._start(plan, range(plan.n_shards)))

    # ------------------------------------------------------------------
    @staticmethod
    def _merged_quality(
        workers: list["ShardWorker"],
    ) -> dict[int, dict[str, float]] | None:
        """Union of the per-shard quality blocks (labels are global).

        ``None`` when no shard carries annotations — the planner only
        writes a shard-level quality block when the parent snapshot had
        one, so an unannotated parent yields unannotated shards and the
        gauges stay absent rather than zero-filled.
        """
        merged: dict[int, dict[str, float]] = {}
        annotated = False
        for worker in workers:
            block = worker.info.get("quality")
            if block is None:
                continue
            annotated = True
            merged.update(
                {int(label): dict(s) for label, s in block.items()}
            )
        return merged if annotated else None

    def _check_open(self) -> None:
        """Refuse a serving call once :meth:`close` ran (lock held)."""
        if self._closed:
            raise WorkerError(
                "service is closed; no shard workers are running"
            )

    def _start(self, plan: ShardPlan, shard_ids) -> list[ShardWorker]:
        """Start one worker per shard id of *plan*: all of them, or none.

        A worker whose handshake reports another shard manifest than the
        one *plan* recorded (the shard was rewritten since) is refused
        with :class:`~repro.exceptions.SnapshotError`.  On any failure
        every worker started so far is stopped and the error re-raised.
        """
        fresh: list[ShardWorker] = []
        try:
            for shard_id in shard_ids:
                worker = ShardWorker(
                    plan.shard_dir(shard_id),
                    shard_id,
                    mmap=self._mmap,
                    start_timeout=self._start_timeout,
                )
                fresh.append(worker)
                loaded = worker.info["manifest_sha256"]
                recorded = plan.shards[shard_id].manifest_sha256
                if loaded != recorded:
                    raise SnapshotError(
                        f"{worker.shard_dir} loaded manifest "
                        f"{loaded[:12]}..., but the plan records "
                        f"{recorded[:12]}... — the shard was rewritten "
                        f"after the plan was read"
                    )
        except BaseException:
            for worker in fresh:
                worker.stop()
            raise
        return fresh

    def _swap(
        self,
        plan: ShardPlan,
        fresh: list[ShardWorker],
        *,
        base: ShardPlan | None = None,
        full: DetectionSnapshot | None = None,
    ) -> bool:
        """Serve *plan* with *fresh* workers plus the current ones kept.

        A current worker is kept when *plan* still has its shard and no
        fresh worker replaces it; the others stop after the swap.  A
        kept worker moves to the new router, so the old router drains
        under the lock first (a worker pipe never carries two routers'
        requests, and new batches cannot retain meanwhile); with nothing
        kept the swap comes first and the old pool drains afterwards.

        A new *plan* counts as a reload (quality gauges follow it), the
        served plan again as a heal.  *full* becomes the tracked parent.
        When *base* is given but no longer served, the fresh workers stop
        and ``False`` is returned; on a closed service they stop and
        :class:`~repro.exceptions.WorkerError` is raised.
        """
        fresh_ids = {worker.shard_id for worker in fresh}
        retired, draining = fresh, None
        try:
            with self._lock:
                self._check_open()
                if base is not None and self._plan is not base:
                    return False
                kept = [
                    worker
                    for worker in self._workers
                    if worker.shard_id < plan.n_shards
                    and worker.shard_id not in fresh_ids
                ]
                workers = sorted(
                    kept + fresh, key=lambda worker: worker.shard_id
                )
                router = BatchingRouter(
                    workers,
                    max_batch=self._max_batch,
                    on_worker_error=self._on_worker_error,
                    registry=self.metrics_registry,
                    tracer=self.tracer,
                )
                if kept:
                    self._router.wait_idle()
                else:
                    draining = self._router
                if plan is self._plan:
                    self._counters.record_heal(len(fresh))
                else:
                    if self._plan is not None:
                        self._counters.record_reload()
                    self._counters.set_quality(self._merged_quality(workers))
                retired = [w for w in self._workers if w not in kept]
                self._plan, self._workers, self._router = plan, workers, router
                if full is not None:
                    self._full = full
            return True
        finally:
            # In-flight batches retained the old router; they finish
            # before their workers stop (each request is bounded by the
            # workers' request timeout, so this wait terminates).
            if draining is not None:
                draining.wait_idle()
            for worker in retired:
                worker.stop()

    # ------------------------------------------------------------------
    @property
    def plan(self) -> ShardPlan:
        """The currently served shard plan."""
        return self._plan

    @property
    def n_shards(self) -> int:
        """Number of shards (== workers) in the current pool."""
        return len(self._workers)

    @property
    def n_clusters(self) -> int:
        """Total assignable clusters across all shards."""
        return sum(spec.n_clusters for spec in self._plan.shards)

    def assign(
        self, queries: np.ndarray, *, shortlist: str = "lsh"
    ) -> Assignment:
        """Assign a query block across the shard pool (merged verdicts).

        The router reference is captured once, so a concurrent
        :meth:`reload` never switches shard sets mid-batch.  Raises
        :class:`~repro.exceptions.WorkerError` under the ``"raise"``
        policy when any shard fails (or, under ``"skip"``, when *every*
        shard is gone — a service with no shards must not silently
        answer "all noise").
        """
        # Capture + retain under the same lock reload() swaps under, so
        # the old pool can never read as idle between this batch
        # grabbing its router and actually routing.
        with self._lock:
            self._check_open()
            router = self._router.retain()
        try:
            result, info = router.route(queries, shortlist=shortlist)
        finally:
            router.release()
        with self._lock:
            self._counters.record_batch(
                result.n_queries,
                int(result.assigned_mask.sum()),
                int(result.entries_computed),
                degraded=info["degraded"],
            )
        return result

    def reload(self, root) -> None:
        """Hot-swap to a new shard set, atomically.

        The new plan is checksum-validated and its **entire** worker
        pool is spawned and handshaken off to the side; only then is it
        swapped in (one reference assignment under the lock) and the old
        pool shut down — after waiting for in-flight batches on the old
        router to drain, so a batch that started before the swap
        finishes against the pool it captured.  Any failure — corrupt
        plan, truncated shard, worker that cannot load — propagates and
        leaves the old pool serving untouched.  On success the lifetime counters carry on
        while the per-snapshot counters reset, exactly like
        :meth:`repro.serve.service.ClusterService.reload`.
        """
        plan = ShardPlan.load(root)
        self._swap(plan, self._start(plan, range(plan.n_shards)))

    def apply_delta(self, source, *, mmap: bool = False) -> list[int]:
        """Hot-apply a :class:`SnapshotDelta` with a partial reload.

        The delta is verified against (and applied to) the tracked
        parent snapshot — the service must have been built with
        ``parent_source`` (or via :func:`repro.serve.connect`).  Only
        the shards whose clusters the delta removed or replaced are
        rewritten on disk and respawned; every untouched worker keeps
        its process (same pid, pinned by ``tests/test_serve_delta.py``)
        and never re-reads its shard.  A brand-new cluster lands on the
        lightest touched shard (or the lightest shard overall for a
        pure-addition delta).  When a touched shard would end up
        empty — an unservable artifact — the whole shard set is
        re-planned and every shard respawned instead.

        Returns the sorted shard ids that were respawned (empty for a
        pure-append delta, which only advances the plan's recorded
        parent).  On any failure — chain mismatch, corrupt delta,
        worker that cannot load — the old pool keeps serving untouched.

        Counts as one reload in :meth:`stats`, exactly like
        :meth:`reload`.
        """
        if self._full is None:
            raise ValidationError(
                "this service does not track its parent snapshot; "
                "construct it with parent_source= (or through "
                "repro.serve.connect) to apply deltas"
            )
        if isinstance(source, SnapshotDelta):
            delta = source
        else:
            delta = SnapshotDelta.load(source, mmap=mmap)
        with self._lock:
            self._check_open()
            plan = self._plan
        if (
            plan.parent_manifest_sha256 is not None
            and self._full.manifest_sha256 != plan.parent_manifest_sha256
        ):
            raise SnapshotError(
                "tracked parent snapshot does not match the serving "
                "plan's recorded parent "
                f"({str(self._full.manifest_sha256)[:12]}... vs "
                f"{plan.parent_manifest_sha256[:12]}...)"
            )
        new_full = delta.apply(self._full)
        replanned = replan_for_delta(
            plan,
            new_full,
            delta.removed_labels,
            [c.label for c in delta.clusters],
        )
        if replanned is None:
            # A touched shard emptied out: re-plan the same root (same
            # shard count and strategy) and respawn every shard.
            new_plan = ShardPlanner(
                n_shards=plan.n_shards, strategy=plan.strategy
            ).plan(new_full, plan.root)
            touched = list(range(new_plan.n_shards))
        else:
            new_plan, touched = replanned
        self._swap(new_plan, self._start(new_plan, touched), full=new_full)
        return touched

    def dead_shard_ids(self) -> list[int]:
        """Sorted shard ids whose worker is currently dead.

        Cheap (no worker round-trip — liveness is the parent-side
        ``alive`` flag), so supervisors can poll it at a tight interval.
        Raises :class:`WorkerError` on a closed service, like every
        other serving call.
        """
        with self._lock:
            self._check_open()
            return sorted(
                w.shard_id for w in self._workers if not w.alive
            )

    def heal(self) -> list[int]:
        """Respawn every dead shard worker from its on-disk artifact.

        The self-healing half of degraded serving: a crashed (or
        timed-out, or desynced) worker's shard snapshot is still on
        disk — worker processes only ever *read* their shard, so a
        SIGKILL cannot tear it.  A replacement loads only the shard
        manifest the served plan recorded (checksums re-verified on
        load), so it serves exactly the bytes the dead worker served; a
        shard rewritten since — e.g. by a partial :meth:`apply_delta`
        whose respawn failed — is refused with
        :class:`~repro.exceptions.SnapshotError`.  Replacements are
        spawned and handshaken entirely off to the side (a failure
        propagates with the surviving pool still serving degraded),
        then swapped in behind a drained router.  A heal that a
        concurrent reload superseded discards its replacements.

        Returns the sorted shard ids that were healed (empty when every
        worker is alive, or the heal was superseded).  Unlike a reload,
        a heal does **not** reset the per-snapshot stats scope — the
        served snapshot did not change — but it does advance the
        ``respawns`` and ``healed_shards`` counters at both scopes.
        """
        with self._lock:
            self._check_open()
            plan = self._plan
            dead_ids = sorted(
                w.shard_id for w in self._workers if not w.alive
            )
            if not dead_ids:
                return []
            self._heal_seq += 1
            heal_seq = self._heal_seq
        heal_span = None
        if self.tracer is not None:
            heal_span = self.tracer.begin(
                "heal",
                trace_id=f"heal-{heal_seq}",
                tid=TID_SUPERVISOR,
                shards=list(dead_ids),
            )
        try:
            healed = self._swap(
                plan, self._start(plan, dead_ids), base=plan
            )
        except Exception as exc:
            if heal_span is not None:
                heal_span.end(error=type(exc).__name__)
            raise
        if heal_span is not None:
            if healed:
                heal_span.end(healed=len(dead_ids))
            else:
                heal_span.end(outcome="superseded")
        return dead_ids if healed else []

    def describe_shards(self) -> list[dict]:
        """Live facts from every worker that still answers.

        Serialized with routing on the worker pipes (monitoring must
        never steal an in-flight batch's replies), and retained like a
        batch so a concurrent reload cannot stop the pool mid-describe.
        """
        with self._lock:
            self._check_open()
            router = self._router.retain()
        try:
            return router.describe_workers()
        finally:
            router.release()

    def stats(self) -> dict:
        """Serving statistics at lifetime and per-snapshot scope.

        Same two-scope semantics as the single-process service, plus the
        sharding extras: shard counts, live/dead shard ids, and how many
        batches were served degraded (some shard missing).
        """
        with self._lock:
            alive = [w.shard_id for w in self._workers if w.alive]
            dead = [w.shard_id for w in self._workers if not w.alive]
            return {
                "source": str(self._plan.root),
                "n_shards": len(self._workers),
                "alive_shards": alive,
                "dead_shards": dead,
                # Parent-scope item count, matching what ClusterService
                # reports for the same logical snapshot (the shards
                # themselves drop fit-time noise rows; their sum is
                # exposed separately).
                "n_items": self._plan.parent_n_items,
                "sharded_items": sum(
                    s.n_items for s in self._plan.shards
                ),
                "n_clusters": sum(
                    s.n_clusters for s in self._plan.shards
                ),
                **self._counters.lifetime_dict(),
                "snapshot": self._counters.snapshot_dict(),
            }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every worker process (idempotent).

        The pool is detached under the service lock (a racing
        :meth:`assign` either retained the router first — and is
        drained like a reload — or sees a closed service and fails
        cleanly), then stopped.
        """
        with self._lock:
            self._closed = True
            workers, self._workers = self._workers, []
            router, self._router = self._router, None
        if router is not None:
            router.wait_idle()
        for worker in workers:
            worker.stop()

    def __enter__(self) -> "ShardedClusterService":
        """Context-manager entry (the service is already running)."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: shut the worker pool down."""
        self.close()
