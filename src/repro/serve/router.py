"""Batching router: scatter query blocks to shard workers, merge verdicts.

The reducer half of sharded serving.  Each shard worker answers a query
block with a **partial verdict** — its best local candidate per query
(payoff margin, winning cluster's density and label) plus its local
work accounting.  The router

1. **micro-batches** incoming ``(q, d)`` blocks into chunks of at most
   ``max_batch`` queries (bounds per-request latency and worker-pipe
   payloads under heavy traffic),
2. **scatters** every micro-batch to all live workers (cluster-sharded
   serving is a broadcast: any shard might own the winning cluster),
3. **merges** the partial verdicts with the densest-wins global rule.

The merge (:func:`merge_partials`) is the exact cross-shard image of the
single-process tie-break: the single-process assigner scores clusters in
densest-first order and only a *strictly* larger margin displaces the
incumbent, so on equal margins the denser cluster (then the smaller
label) wins.  Each shard already resolves its local candidates that way,
and comparing ``(margin, density, -label)`` lexicographically across
shards reproduces the global order — which is what makes sharded
assignments byte-identical to :class:`~repro.serve.service.ClusterService`
(pinned by ``tests/test_serve_sharded.py``).

Degraded mode: a worker that died or errors mid-batch is handled by
policy — ``on_worker_error="raise"`` (default) propagates a
:class:`~repro.exceptions.WorkerError`; ``"skip"`` serves the batch from
the surviving shards and reports the gap in the routing info (queries
whose winning cluster lived on the dead shard degrade to their best
surviving candidate or noise).
"""

from __future__ import annotations

import threading

import numpy as np

from repro.exceptions import ValidationError, WorkerError
from repro.obs.trace import TID_ROUTER, TID_SHARD_BASE
from repro.serve.assigner import SHORTLIST_MODES, Assignment
from repro.utils.validation import check_query_block

__all__ = ["BatchingRouter", "merge_partials"]


def merge_partials(partials: list[dict], n_queries: int) -> dict:
    """Merge per-shard partial verdicts with the densest-wins rule.

    Parameters
    ----------
    partials:
        One dict per responding shard, with keys ``labels`` (int64,
        -1 for local noise), ``scores`` (best local payoff margin,
        ``-inf`` when nothing was shortlisted), ``density`` (density of
        the winning local cluster, ``-inf`` for local noise),
        ``n_candidates`` and ``entries`` (local work).
    n_queries:
        Number of queries the partials answer for.

    Returns
    -------
    dict
        Merged ``labels``, ``scores``, ``n_candidates`` (summed — shard
        shortlists are disjoint by cluster) and ``entries`` (summed
        serve-side work, equal to the single-process accounting).
    """
    labels = np.full(n_queries, -1, dtype=np.int64)
    scores = np.full(n_queries, -np.inf)
    density = np.full(n_queries, -np.inf)
    n_candidates = np.zeros(n_queries, dtype=np.int64)
    entries = 0
    for partial in partials:
        p_labels = np.asarray(partial["labels"], dtype=np.int64)
        p_scores = np.asarray(partial["scores"], dtype=np.float64)
        p_density = np.asarray(partial["density"], dtype=np.float64)
        if p_labels.shape != (n_queries,):
            raise WorkerError(
                f"partial verdict answers {p_labels.shape} queries, "
                f"expected ({n_queries},)"
            )
        n_candidates += np.asarray(partial["n_candidates"], dtype=np.int64)
        entries += int(partial["entries"])
        # Strictly-better margin wins; margin ties fall to the denser
        # cluster, then the smaller label — the same order the
        # single-process densest-first scan induces.
        better = p_scores > scores
        ties = p_scores == scores
        better |= ties & (p_density > density)
        better |= (
            ties
            & (p_density == density)
            & (p_labels >= 0)
            & ((labels < 0) | (p_labels < labels))
        )
        labels[better] = p_labels[better]
        scores[better] = p_scores[better]
        density[better] = p_density[better]
    return {
        "labels": labels,
        "scores": scores,
        "n_candidates": n_candidates,
        "entries": entries,
    }


class BatchingRouter:
    """Scatter/gather front over a pool of shard workers.

    Parameters
    ----------
    workers:
        Live :class:`~repro.serve.sharded.ShardWorker` handles (one per
        shard).
    max_batch:
        Micro-batch size: larger blocks are split into chunks of at most
        this many queries before scattering.  Assignments are invariant
        to the split; scores may differ in the last float64 bit across
        different splits (BLAS reduction order), exactly as documented
        for the single-process modes.
    on_worker_error:
        ``"raise"`` (default) turns any dead or erroring worker into a
        :class:`~repro.exceptions.WorkerError`; ``"skip"`` serves from
        the surviving shards and records the degradation.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` the
        per-batch metric deltas piggybacked on worker replies are
        merged into.  Because every reply carries the delta for exactly
        the work it answered, the merged histograms here are the exact
        bucket-level sum of the workers' — including across a mid-run
        heal, where a replacement worker's fresh registry simply starts
        contributing deltas from zero.
    tracer:
        Optional :class:`~repro.obs.trace.TraceRecorder`; when set,
        each micro-batch records a ``scatter`` span and a ``merge``
        span on the router lane plus one ``shard_assign`` span per
        responding shard on its own lane (submit-to-collect on the
        router's clock), all tied by a deterministic trace id.
    """

    def __init__(
        self,
        workers: list,
        *,
        max_batch: int = 1024,
        on_worker_error: str = "raise",
        registry=None,
        tracer=None,
    ):
        if not workers:
            raise ValidationError("router needs at least one shard worker")
        if max_batch < 1:
            raise ValidationError(
                f"max_batch must be >= 1, got {max_batch}"
            )
        if on_worker_error not in ("raise", "skip"):
            raise ValidationError(
                f"on_worker_error must be 'raise' or 'skip', "
                f"got {on_worker_error!r}"
            )
        self.workers = list(workers)
        self.max_batch = int(max_batch)
        self.on_worker_error = on_worker_error
        self.registry = registry
        self.tracer = tracer
        self._block_seq = 0
        self.dim = int(self.workers[0].info["dim"])
        # Worker pipes carry one request/response stream each; every
        # pipe interaction (routing and :meth:`describe_workers`) is
        # serialized under this lock so two threads can never
        # interleave their submits and steal each other's replies (the
        # workers still compute one batch in parallel across
        # processes).
        self._route_lock = threading.Lock()
        # In-flight accounting for hot reload: a caller that captured
        # this router retains it *before* routing; reload() stops the
        # old pool only once the count drains to zero (:meth:`retain`
        # / :meth:`release` / :meth:`wait_idle`).
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    # ------------------------------------------------------------------
    def route(
        self, queries: np.ndarray, *, shortlist: str = "lsh"
    ) -> tuple[Assignment, dict]:
        """Assign a query block across all shards and merge the verdicts.

        Returns the merged :class:`~repro.serve.assigner.Assignment`
        plus a routing-info dict (``micro_batches``, ``shards_used``,
        ``degraded``, ``failed_shards``).
        """
        if shortlist not in SHORTLIST_MODES:
            raise ValidationError(
                f"shortlist must be one of {SHORTLIST_MODES}, "
                f"got {shortlist!r}"
            )
        queries = check_query_block(queries, dim=self.dim)
        q = queries.shape[0]
        labels = np.full(q, -1, dtype=np.int64)
        scores = np.full(q, -np.inf)
        n_candidates = np.zeros(q, dtype=np.int64)
        entries = 0
        failed: dict[int, str] = {}
        micro_batches = 0
        shards_used = None
        with self._route_lock:
            for lo in range(0, q, self.max_batch):
                block = queries[lo : lo + self.max_batch]
                self._block_seq += 1
                merged, used = self._route_block(block, shortlist, failed)
                micro_batches += 1
                shards_used = (
                    used if shards_used is None else min(shards_used, used)
                )
                hi = lo + block.shape[0]
                labels[lo:hi] = merged["labels"]
                scores[lo:hi] = merged["scores"]
                n_candidates[lo:hi] = merged["n_candidates"]
                entries += merged["entries"]
        info = {
            "micro_batches": micro_batches,
            "shards_used": 0 if shards_used is None else shards_used,
            "degraded": bool(failed),
            "failed_shards": {
                shard_id: message for shard_id, message in sorted(failed.items())
            },
        }
        return (
            Assignment(
                labels=labels,
                scores=scores,
                n_candidates=n_candidates,
                entries_computed=entries,
            ),
            info,
        )

    def retain(self) -> "BatchingRouter":
        """Mark one caller as about to route through this router.

        Callers retain under the lock that also guards the router swap
        (see :meth:`repro.serve.sharded.ShardedClusterService.assign`),
        so a hot reload can never observe "idle" between a batch
        capturing the router and actually routing.
        """
        with self._inflight_cv:
            self._inflight += 1
        return self

    def release(self) -> None:
        """Undo one :meth:`retain` (call from a ``finally`` block)."""
        with self._inflight_cv:
            self._inflight -= 1
            self._inflight_cv.notify_all()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no caller holds this router (True) or timeout.

        Used by hot reload: an old pool must not be stopped while a
        batch that captured its router is still using (or about to
        use) it.  Each in-flight request is itself bounded by the
        workers' ``request_timeout``, so an unbounded wait here still
        terminates.
        """
        with self._inflight_cv:
            return self._inflight_cv.wait_for(
                lambda: self._inflight == 0, timeout
            )

    def describe_workers(self) -> list[dict]:
        """Live facts from every worker, serialized with routing.

        Sharing the route lock keeps monitoring traffic off the pipes
        while a batch is mid-flight — an interleaved ``describe`` would
        steal the batch's replies and falsely desync healthy workers.
        """
        out: list[dict] = []
        with self._route_lock:
            for worker in self.workers:
                try:
                    out.append(worker.describe())
                except WorkerError as exc:
                    out.append(
                        {"shard_id": worker.shard_id, "error": str(exc)}
                    )
        return out

    def _route_block(
        self, block: np.ndarray, shortlist: str, failed: dict
    ) -> tuple[dict, int]:
        """Scatter one micro-batch, gather partials, merge. Returns used count.

        Every submitted request is collected (or its worker marked
        failed) *before* any policy error propagates — a raise must
        never leave an unread reply in a healthy worker's pipe, where
        it would desync the next request.  A block the workers refuse
        as invalid raises :class:`~repro.exceptions.ValidationError`
        and marks no shard failed.
        """
        fresh_failures: list[str] = []
        tracer = self.tracer
        trace_id = f"blk-{self._block_seq}"

        def fail(worker, message: str) -> None:
            failed[worker.shard_id] = message
            fresh_failures.append(
                f"shard worker {worker.shard_id} failed: {message}"
            )

        t_scatter = tracer.now() if tracer is not None else 0.0
        pending = []
        for worker in self.workers:
            if worker.shard_id in failed:
                continue
            if not worker.alive:
                fail(worker, "worker process is not alive")
                continue
            try:
                seq = worker.submit("assign", block, shortlist)
            except WorkerError as exc:
                fail(worker, str(exc))
                continue
            pending.append((worker, seq))
        if tracer is not None:
            tracer.record(
                "scatter",
                t_scatter,
                tracer.now(),
                trace_id=trace_id,
                tid=TID_ROUTER,
                rows=int(block.shape[0]),
                shards=len(pending),
            )
        partials = []
        refused = None
        for worker, seq in pending:
            try:
                partial = worker.collect(seq)
            except ValidationError as exc:
                # A healthy worker refused the block itself (every shard
                # hashes it the same way): the caller's error, not a
                # shard failure.  Keep draining the other replies.
                refused = exc
                continue
            except WorkerError as exc:
                fail(worker, str(exc))
                continue
            if tracer is not None:
                tracer.record(
                    "shard_assign",
                    t_scatter,
                    tracer.now(),
                    trace_id=trace_id,
                    tid=TID_SHARD_BASE + int(worker.shard_id),
                    shard=int(worker.shard_id),
                )
            # Workers piggyback their metric deltas on every reply;
            # merging here (not in merge_partials) keeps the verdict
            # merge purely mathematical.
            delta = partial.pop("metrics", None)
            if delta and self.registry is not None:
                self.registry.merge(delta)
            partials.append(partial)
        if refused is not None:
            raise refused
        if fresh_failures and self.on_worker_error == "raise":
            raise WorkerError(
                "; ".join(fresh_failures)
                + " (pass on_worker_error='skip' for degraded serving)"
            )
        if not partials:
            raise WorkerError(
                "no shard worker answered the batch; every shard is dead "
                f"({len(self.workers)} worker(s), failures: {failed})"
            )
        if tracer is None:
            return merge_partials(partials, block.shape[0]), len(partials)
        t_merge = tracer.now()
        merged = merge_partials(partials, block.shape[0])
        tracer.record(
            "merge",
            t_merge,
            tracer.now(),
            trace_id=trace_id,
            tid=TID_ROUTER,
            shards=len(partials),
        )
        return merged, len(partials)
