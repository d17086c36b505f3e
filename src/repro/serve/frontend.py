"""Asyncio serving front-end with SLO-adaptive micro-batching.

This is the traffic-facing layer of the serve tier: an
:class:`AsyncFrontend` accepts concurrent ``assign`` requests on an
asyncio event loop, admits them through a bounded
:class:`~repro.serve.admission.AdmissionController`, coalesces queued
requests into micro-batches sized against a latency SLO, and executes
each batch on a backing :class:`~repro.serve.client.ClusterHandle`
(single-process or sharded) in a dedicated executor thread.

Batching policy — *continuous batching*, no timers:

- When the executor is free the dispatcher immediately drains whatever
  is queued (eager flush: an idle front-end adds no artificial latency).
- While a batch is running, new arrivals accumulate; the next drain
  takes them together, up to a row cap derived from the SLO:
  ``cap = slo_ms * headroom / ewma_ms_per_row``, clamped to
  ``[min_batch_rows, max_batch_rows]``.  Load therefore *grows* batches
  (amortising per-batch overhead) until batches threaten the latency
  budget, at which point the cap stops them growing further.

Exactness: batching only concatenates query blocks; assignment of each
row is computed by the backing handle exactly as if the row arrived
alone — labels are byte-identical to the synchronous single-process
:class:`~repro.serve.service.ClusterService`, and scores match up to
the documented micro-batch-split roundoff of the shared BLAS reductions
(bit-identical when the batch composition matches).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Sequence

import numpy as np

from ..exceptions import AdmissionError, ValidationError
from ..obs.metrics import (
    MetricsRegistry,
    default_latency_bounds_ms,
    render_merged,
)
from ..obs.trace import TID_BATCH, TID_REQUEST
from ..utils.validation import check_query_block
from .admission import AdmissionController
from .assigner import SHORTLIST_MODES

__all__ = ["AsyncFrontend", "FrontendReply", "run_open_loop"]

#: Fraction of the SLO budgeted for executing one micro-batch.  The
#: remainder absorbs queueing delay (a request may wait for the batch
#: ahead of it) so that end-to-end latency, not just service time,
#: lands under the SLO.
_SLO_HEADROOM = 0.5

#: Smoothing factor for the per-row service-time estimate.
_EWMA_ALPHA = 0.3


@dataclass(frozen=True)
class FrontendReply:
    """Per-request result sliced out of a served micro-batch.

    Attributes:
        labels: Cluster label per query row (``-1`` = unassigned).
        scores: Theorem 1 margin per query row.
        n_candidates: Shortlisted clusters scored per query row.
        batch_rows: Total rows of the micro-batch this request rode in.
        queued_ms: Time from admission to dispatch.
        service_ms: Executor time of the micro-batch (shared by every
            request in it).
        latency_ms: End-to-end time from admission to completion.
        span: Per-request lifecycle breakdown — ``trace_id`` (the
            deterministic ``req-<seq>`` id the front-end's trace spans
            carry), ``queued_ms`` and ``service_ms``.  The two phases
            sum to ``latency_ms`` exactly (same clock, shared
            endpoints), which the soak lane gates as
            ``span_breakdown_exact``.
    """

    labels: np.ndarray
    scores: np.ndarray
    n_candidates: np.ndarray
    batch_rows: int
    queued_ms: float
    service_ms: float
    latency_ms: float
    span: dict | None = None

    @property
    def n_queries(self) -> int:
        """Number of query rows in this request."""
        return int(self.labels.shape[0])


class _Pending:
    """One admitted request waiting for (or riding in) a micro-batch."""

    __slots__ = ("queries", "future", "t_enqueue", "trace_id")

    def __init__(self, queries, future, t_enqueue, trace_id):
        self.queries = queries
        self.future = future
        self.t_enqueue = t_enqueue
        self.trace_id = trace_id


class AsyncFrontend:
    """Admission-controlled asyncio front-end over a ``ClusterHandle``.

    The front-end owns a single-thread executor so batches execute one
    at a time in arrival order; the backing handle never sees
    concurrent calls from this front-end.  All coroutine methods must
    be called from one event loop (the loop is captured on first use).

    Args:
        handle: Any :class:`~repro.serve.client.ClusterHandle` — an
            in-process ``ClusterService`` or a ``ShardedClusterService``.
        slo_ms: Target end-to-end latency; drives the adaptive batch
            cap and the ``slo_violations`` counter.
        max_batch_rows: Hard ceiling on micro-batch size.
        min_batch_rows: Floor for the adaptive cap (the cap never
            starves the dispatcher below this).
        shortlist: Shortlist mode forwarded to ``handle.assign``.
        admission: A pre-configured controller, or ``None`` to build
            one bounded at ``max_queued_rows``.
        max_queued_rows: Bound for the default controller (ignored when
            ``admission`` is given).
        registry: Optional :class:`~repro.obs.metrics.MetricsRegistry`
            for the front-end's counters and per-request latency
            histograms; a private ``component="frontend"`` registry is
            created when omitted and exposed as :attr:`metrics_registry`
            either way.  :meth:`metrics` renders it merged with the
            admission controller's and the backing handle's.
        tracer: Optional :class:`~repro.obs.trace.TraceRecorder`; when
            set, every request records ``queued`` and ``request`` spans
            (deterministic ``req-<seq>`` trace ids from the admission
            sequence) and every micro-batch a ``batch`` span, all on
            the loop's clock — pass the *same* recorder to a sharded
            backing service and its scatter / shard / merge spans land
            on the same time axis.
    """

    def __init__(
        self,
        handle,
        *,
        slo_ms: float = 50.0,
        max_batch_rows: int = 1024,
        min_batch_rows: int = 1,
        shortlist: str = "lsh",
        admission: AdmissionController | None = None,
        max_queued_rows: int = 4096,
        registry: MetricsRegistry | None = None,
        tracer=None,
    ):
        """Validate knobs; the dispatcher starts lazily on first use."""
        if slo_ms <= 0.0:
            raise ValidationError(f"slo_ms must be > 0, got {slo_ms}")
        if max_batch_rows < 1:
            raise ValidationError(
                f"max_batch_rows must be >= 1, got {max_batch_rows}"
            )
        if not 1 <= min_batch_rows <= max_batch_rows:
            raise ValidationError(
                "min_batch_rows must satisfy 1 <= min_batch_rows <= "
                f"max_batch_rows, got {min_batch_rows}"
            )
        if shortlist not in SHORTLIST_MODES:
            raise ValidationError(
                f"unknown shortlist mode {shortlist!r}; "
                f"expected one of {SHORTLIST_MODES}"
            )
        self._handle = handle
        self.slo_ms = float(slo_ms)
        self.max_batch_rows = int(max_batch_rows)
        self.min_batch_rows = int(min_batch_rows)
        self._shortlist = shortlist
        self._admission = admission or AdmissionController(
            max_queued_rows=max_queued_rows, registry=registry
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._task: asyncio.Task | None = None
        self._wake = asyncio.Event()
        self._closed = False
        self._stats_lock = threading.Lock()
        self._ewma_ms_per_row = 0.0
        self._max_batch_seen = 0
        self._request_seq = 0
        self._batch_seq = 0
        self.tracer = tracer
        self.metrics_registry = (
            MetricsRegistry(component="frontend")
            if registry is None
            else registry
        )
        reg = self.metrics_registry
        self._m_requests = reg.counter(
            "frontend_requests_completed_total", "Requests completed"
        )
        self._m_failed = reg.counter(
            "frontend_requests_failed_total", "Requests failed in serving"
        )
        self._m_rows = reg.counter(
            "frontend_rows_completed_total", "Query rows completed"
        )
        self._m_batches = reg.counter(
            "frontend_batches_total", "Micro-batches dispatched"
        )
        self._m_batched_rows = reg.counter(
            "frontend_batched_rows_total", "Rows across all micro-batches"
        )
        self._m_violations = reg.counter(
            "frontend_slo_violations_total",
            "Requests whose end-to-end latency exceeded the SLO",
        )
        self._g_ewma = reg.gauge(
            "frontend_ewma_ms_per_row",
            "EWMA per-row service time driving the adaptive batch cap",
        )
        bounds = default_latency_bounds_ms()
        self._h_latency = reg.histogram(
            "frontend_latency_ms",
            "End-to-end request latency (admission to completion, ms)",
            bounds=bounds,
        )
        self._h_queued = reg.histogram(
            "frontend_queued_ms",
            "Request queueing delay (admission to dispatch, ms)",
            bounds=bounds,
        )
        self._h_service = reg.histogram(
            "frontend_service_ms",
            "Micro-batch executor time (ms, one observation per batch)",
            bounds=bounds,
        )

    @property
    def admission(self) -> AdmissionController:
        """The admission controller guarding this front-end's queue."""
        return self._admission

    # ------------------------------------------------------------------
    # lifecycle

    def _ensure_started(self) -> None:
        """Capture the running loop and start the dispatcher task."""
        if self._closed:
            raise AdmissionError("front-end is closed")
        if self._task is not None:
            return
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-frontend"
        )
        self._task = loop.create_task(self._dispatch_loop())

    async def close(self) -> None:
        """Stop the dispatcher and fail any still-queued requests.

        Idempotent.  The backing handle is *not* closed — the caller
        owns it and may keep serving synchronously or attach a new
        front-end.
        """
        if self._closed:
            return
        self._closed = True
        if self._task is not None:
            self._wake.set()
            await self._task
            self._task = None
        for _, item, _ in self._admission.drain(2**62):
            if not item.future.done():
                item.future.set_exception(
                    AdmissionError("front-end is closed")
                )
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    async def __aenter__(self) -> "AsyncFrontend":
        """Start the dispatcher eagerly and return ``self``."""
        self._ensure_started()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        """Close the front-end on context exit."""
        await self.close()

    # ------------------------------------------------------------------
    # request path

    async def assign(self, queries, *, client: str = "default") -> FrontendReply:
        """Admit one request and await its slice of a served micro-batch.

        Raises :class:`~repro.exceptions.AdmissionError` (with a
        ``retry_after`` hint) when the bounded queue is full, and
        propagates :class:`~repro.exceptions.WorkerError` from the
        backing handle when serving fails.
        """
        self._ensure_started()
        block = check_query_block(queries, allow_empty=False)
        loop = self._loop
        assert loop is not None
        with self._stats_lock:
            self._request_seq += 1
            seq = self._request_seq
        item = _Pending(
            block, loop.create_future(), loop.time(), f"req-{seq}"
        )
        self._admission.offer(client, item, int(block.shape[0]))
        self._wake.set()
        return await item.future

    # ------------------------------------------------------------------
    # dispatcher

    def _target_rows(self) -> int:
        """SLO-derived row cap for the next micro-batch."""
        per_row = self._ewma_ms_per_row
        if per_row <= 0.0:
            return self.max_batch_rows
        cap = int(self.slo_ms * _SLO_HEADROOM / per_row)
        return max(self.min_batch_rows, min(self.max_batch_rows, cap))

    async def _dispatch_loop(self) -> None:
        """Serve micro-batches until closed; eager flush when idle."""
        while True:
            await self._wake.wait()
            self._wake.clear()
            while True:
                batch = self._admission.drain(self._target_rows())
                if not batch:
                    break
                await self._run_batch([item for _, item, _ in batch])
            if self._closed:
                return

    async def _run_batch(self, items: Sequence[_Pending]) -> None:
        """Execute one drained micro-batch, one handle call per query width.

        Blocks of different widths cannot share one array.  Serving each
        width on its own lets the handle reject a wrong-width request by
        itself, where a failed concatenation would kill the dispatcher
        and strand every queued request.
        """
        by_width: dict[int, list[_Pending]] = {}
        for item in items:
            by_width.setdefault(int(item.queries.shape[1]), []).append(item)
        for group in by_width.values():
            await self._serve_group(group)

    async def _serve_group(self, items: Sequence[_Pending]) -> None:
        """Execute one equal-width micro-batch; deliver per-request slices.

        A handle that refuses a co-batched block as invalid (for
        example a point too large to hash) cannot say which request
        was at fault, so each request is then served on its own and
        only the offending one fails.
        """
        loop = self._loop
        assert loop is not None and self._pool is not None
        blocks = [item.queries for item in items]
        big = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        rows = int(big.shape[0])
        t_start = loop.time()
        try:
            assignment = await loop.run_in_executor(
                self._pool,
                partial(self._handle.assign, big, shortlist=self._shortlist),
            )
        except Exception as exc:
            if isinstance(exc, ValidationError) and len(items) > 1:
                for item in items:
                    await self._serve_group([item])
                return
            t_done = loop.time()
            self._m_failed.inc(len(items))
            tracer = self.tracer
            for item in items:
                if tracer is not None:
                    tracer.record(
                        "request",
                        item.t_enqueue,
                        t_done,
                        trace_id=item.trace_id,
                        tid=TID_REQUEST,
                        error=type(exc).__name__,
                    )
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        t_done = loop.time()
        service_ms = (t_done - t_start) * 1e3
        self._admission.note_drained(rows, t_done - t_start)
        per_row = service_ms / rows
        violations = 0
        offset = 0
        tracer = self.tracer
        with self._stats_lock:
            self._batch_seq += 1
            batch_seq = self._batch_seq
        if tracer is not None:
            tracer.record(
                "batch",
                t_start,
                t_done,
                trace_id=f"batch-{batch_seq}",
                tid=TID_BATCH,
                rows=rows,
                requests=len(items),
            )
        self._h_service.observe(service_ms)
        for item in items:
            n = int(item.queries.shape[0])
            queued_ms = (t_start - item.t_enqueue) * 1e3
            latency_ms = (t_done - item.t_enqueue) * 1e3
            reply = FrontendReply(
                labels=np.array(assignment.labels[offset : offset + n]),
                scores=np.array(assignment.scores[offset : offset + n]),
                n_candidates=np.array(
                    assignment.n_candidates[offset : offset + n]
                ),
                batch_rows=rows,
                queued_ms=queued_ms,
                service_ms=service_ms,
                latency_ms=latency_ms,
                # queued + service == latency exactly: the three share
                # the same clock readings (t_enqueue, t_start, t_done).
                span={
                    "trace_id": item.trace_id,
                    "batch": f"batch-{batch_seq}",
                    "queued_ms": queued_ms,
                    "service_ms": service_ms,
                },
            )
            offset += n
            self._h_queued.observe(queued_ms)
            self._h_latency.observe(latency_ms)
            if tracer is not None:
                tracer.record(
                    "queued",
                    item.t_enqueue,
                    t_start,
                    trace_id=item.trace_id,
                    tid=TID_REQUEST,
                )
                tracer.record(
                    "request",
                    item.t_enqueue,
                    t_done,
                    trace_id=item.trace_id,
                    tid=TID_REQUEST,
                    rows=n,
                    batch=f"batch-{batch_seq}",
                )
            if latency_ms > self.slo_ms:
                violations += 1
            if not item.future.done():
                item.future.set_result(reply)
        self._m_batches.inc()
        self._m_batched_rows.inc(rows)
        self._m_requests.inc(len(items))
        self._m_rows.inc(rows)
        if violations:
            self._m_violations.inc(violations)
        with self._stats_lock:
            if self._ewma_ms_per_row <= 0.0:
                self._ewma_ms_per_row = per_row
            else:
                self._ewma_ms_per_row += _EWMA_ALPHA * (
                    per_row - self._ewma_ms_per_row
                )
            self._max_batch_seen = max(self._max_batch_seen, rows)
            ewma = self._ewma_ms_per_row
        self._g_ewma.set(ewma)

    # ------------------------------------------------------------------
    # introspection

    def stats(self) -> dict:
        """Return front-end counters plus the nested admission stats.

        The counters read the same registry metrics a :meth:`metrics`
        scrape renders — stats and exposition can never disagree.
        """
        batches = self._m_batches.value
        batched_rows = self._m_batched_rows.value
        with self._stats_lock:
            ewma = self._ewma_ms_per_row
            max_seen = self._max_batch_seen
        out = {
            "slo_ms": self.slo_ms,
            "shortlist": self._shortlist,
            "max_batch_rows": self.max_batch_rows,
            "min_batch_rows": self.min_batch_rows,
            "requests_completed": self._m_requests.value,
            "requests_failed": self._m_failed.value,
            "rows_completed": self._m_rows.value,
            "batches": batches,
            "mean_batch_rows": (
                batched_rows / batches if batches else 0.0
            ),
            "max_batch_rows_seen": max_seen,
            "ewma_ms_per_row": ewma,
            "slo_violations": self._m_violations.value,
        }
        out["admission"] = self._admission.stats()
        return out

    async def metrics(self) -> str:
        """One Prometheus-style exposition across the serving stack.

        Merges the front-end's registry with the admission controller's
        and the backing handle's (when it exposes one) via
        :func:`~repro.obs.metrics.render_merged` — a single scrape sees
        request latencies, queue backlog, serving counters and the
        per-shard histograms the workers shipped up.  Runs on the
        executor so a scrape never blocks the event loop on the
        registry locks.
        """
        self._ensure_started()
        loop = self._loop
        assert loop is not None and self._pool is not None
        registries = [
            self.metrics_registry,
            getattr(self._admission, "registry", None),
            getattr(self._handle, "metrics_registry", None),
        ]
        return await loop.run_in_executor(
            self._pool, partial(render_merged, registries)
        )


async def run_open_loop(
    frontend: AsyncFrontend,
    requests: Sequence[np.ndarray],
    arrival_times: Sequence[float],
    *,
    clients: Sequence[str] | None = None,
) -> list[dict[str, Any]]:
    """Replay an open-loop arrival schedule through a front-end.

    Open-loop means arrivals fire at their scheduled offsets (seconds,
    relative to the start of the replay) regardless of completions —
    the arrival process does not slow down when the service lags, which
    is what makes soak throughput comparable across machines.

    Returns one record per request, in schedule order: ``status`` is
    ``"ok"`` (with the :class:`FrontendReply` under ``"reply"``),
    ``"rejected"`` (with the ``retry_after`` hint) or ``"error"``.
    Used by ``benchmarks/bench_soak.py`` and the ``repro serve`` CLI.
    """
    if len(requests) != len(arrival_times):
        raise ValidationError(
            f"requests ({len(requests)}) and arrival_times "
            f"({len(arrival_times)}) must have equal length"
        )
    if clients is not None and len(clients) != len(requests):
        raise ValidationError(
            f"clients ({len(clients)}) must match requests "
            f"({len(requests)})"
        )
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    records: list[dict[str, Any] | None] = [None] * len(requests)

    async def _fire(i: int) -> None:
        delay = arrival_times[i] - (loop.time() - t0)
        if delay > 0.0:
            await asyncio.sleep(delay)
        n_rows = int(np.atleast_2d(requests[i]).shape[0])
        client = clients[i] if clients is not None else "default"
        try:
            reply = await frontend.assign(requests[i], client=client)
        except AdmissionError as exc:
            records[i] = {
                "status": "rejected",
                "n_rows": n_rows,
                "retry_after": exc.retry_after,
            }
        except Exception as exc:  # WorkerError etc: record, don't abort
            records[i] = {
                "status": "error",
                "n_rows": n_rows,
                "error": f"{type(exc).__name__}: {exc}",
            }
        else:
            records[i] = {"status": "ok", "n_rows": n_rows, "reply": reply}

    await asyncio.gather(*(_fire(i) for i in range(len(requests))))
    return [r for r in records if r is not None]
