"""Async front-end + admission control: batching, fairness, exactness.

Covers :mod:`repro.serve.admission` (bounded queues, per-client fair
dequeue, reject-with-retry-after, exact accounting) and
:mod:`repro.serve.frontend` (SLO-adaptive micro-batching over a
``ClusterHandle``, per-request reply slicing, byte-identity against the
synchronous single-process reference, the open-loop replay driver).
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.alid import ALID
from repro.core.config import ALIDConfig
from repro.datasets.synthetic import make_synthetic_mixture
from repro.exceptions import AdmissionError, ValidationError
from repro.serve import (
    AdmissionController,
    AsyncFrontend,
    ClusterService,
    DetectionSnapshot,
    FrontendReply,
    run_open_loop,
)


@pytest.fixture(scope="module")
def dataset():
    return make_synthetic_mixture(
        n=350, regime="bounded", bound=200, n_clusters=6, dim=16, seed=2
    )


@pytest.fixture(scope="module")
def snapshot(dataset):
    detector = ALID(ALIDConfig(delta=200, seed=2))
    return DetectionSnapshot.from_result(
        detector, detector.fit(dataset.data)
    )


@pytest.fixture(scope="module")
def service(snapshot):
    with ClusterService(snapshot) as svc:
        yield svc


class TestAdmissionController:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValidationError):
            AdmissionController(max_queued_rows=0)
        with pytest.raises(ValidationError):
            AdmissionController(max_queued_rows=8, max_client_rows=0)
        controller = AdmissionController(max_queued_rows=8)
        with pytest.raises(ValidationError):
            controller.offer("a", object(), 0)
        with pytest.raises(ValidationError):
            controller.drain(0)

    def test_global_bound_rejects_with_retry_after(self):
        controller = AdmissionController(max_queued_rows=10)
        controller.offer("a", "x", 6)
        with pytest.raises(AdmissionError) as excinfo:
            controller.offer("b", "y", 6)
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after > 0.0
        # A request that still fits is admitted after the rejection.
        controller.offer("b", "z", 4)
        stats = controller.stats()
        assert stats["queued_rows"] == 10
        assert stats["rejected_requests"] == 1
        assert stats["rejected_rows"] == 6

    def test_per_client_bound_is_independent_of_global_room(self):
        controller = AdmissionController(
            max_queued_rows=100, max_client_rows=10
        )
        controller.offer("greedy", "a", 8)
        with pytest.raises(AdmissionError):
            controller.offer("greedy", "b", 8)
        # Another client still has its own budget.
        controller.offer("polite", "c", 8)
        assert controller.queued_rows == 16

    def test_retry_after_uses_observed_drain_rate(self):
        controller = AdmissionController(max_queued_rows=10)
        controller.note_drained(100, 1.0)  # 100 rows/s
        controller.offer("a", "x", 10)
        with pytest.raises(AdmissionError) as excinfo:
            controller.offer("a", "y", 10)
        # Backlog of 20 rows at 100 rows/s -> ~0.2 s.
        assert excinfo.value.retry_after == pytest.approx(0.2, rel=0.01)

    def test_fair_round_robin_interleaves_clients(self):
        controller = AdmissionController(max_queued_rows=1000)
        for i in range(3):
            for client in ("a", "b", "c"):
                controller.offer(client, f"{client}{i}", 1)
        order = [c for c, _, _ in controller.drain(1000)]
        assert order == ["a", "b", "c", "a", "b", "c", "a", "b", "c"]

    def test_round_robin_cursor_persists_across_drains(self):
        controller = AdmissionController(max_queued_rows=1000)
        for i in range(2):
            for client in ("a", "b", "c"):
                controller.offer(client, f"{client}{i}", 1)
        first = [c for c, _, _ in controller.drain(1)]
        second = [c for c, _, _ in controller.drain(1)]
        third = [c for c, _, _ in controller.drain(1)]
        assert first == ["a"] and second == ["b"] and third == ["c"]

    def test_requests_never_split_and_budget_respected(self):
        controller = AdmissionController(max_queued_rows=1000)
        controller.offer("a", "big", 8)
        controller.offer("a", "small", 2)
        taken = controller.drain(9)
        # The whole 8-row head fits; the next 2-row request would
        # exceed the 9-row budget, so it stays queued.
        assert [(c, r) for c, _, r in taken] == [("a", 8)]
        assert controller.queued_rows == 2

    def test_oversized_head_is_taken_alone(self):
        controller = AdmissionController(max_queued_rows=1000)
        controller.offer("a", "huge", 64)
        taken = controller.drain(16)
        assert [(c, r) for c, _, r in taken] == [("a", 64)]
        assert controller.queued_rows == 0

    def test_accounting_stays_exact(self):
        controller = AdmissionController(max_queued_rows=16)
        admitted = rejected = 0
        for i in range(50):
            try:
                controller.offer(f"c{i % 3}", i, 3)
                admitted += 1
            except AdmissionError:
                rejected += 1
            if i % 7 == 6:
                controller.drain(1000)
        stats = controller.stats()
        assert stats["offered_requests"] == 50
        assert stats["admitted_requests"] == admitted
        assert stats["rejected_requests"] == rejected
        assert admitted + rejected == 50
        controller.drain(1000)
        assert controller.queued_rows == 0
        assert controller.queued_requests == 0


class TestFrontendValidation:
    def test_rejects_bad_knobs(self, service):
        with pytest.raises(ValidationError):
            AsyncFrontend(service, slo_ms=0.0)
        with pytest.raises(ValidationError):
            AsyncFrontend(service, max_batch_rows=0)
        with pytest.raises(ValidationError):
            AsyncFrontend(service, min_batch_rows=8, max_batch_rows=4)
        with pytest.raises(ValidationError):
            AsyncFrontend(service, shortlist="nope")

    def test_rejects_empty_queries(self, service):
        async def go():
            async with AsyncFrontend(service) as frontend:
                with pytest.raises(ValidationError):
                    await frontend.assign(np.empty((0, 16)))

        asyncio.run(go())

    def test_wrong_width_request_fails_alone(self, service):
        """A co-batched wrong-width block must not sink its neighbours."""

        async def go():
            async with AsyncFrontend(service) as frontend:
                good = frontend.assign(np.zeros((3, 16)))
                bad = frontend.assign(np.zeros((2, 5)))
                replies = await asyncio.wait_for(
                    asyncio.gather(good, bad, return_exceptions=True), 30
                )
                later = await asyncio.wait_for(
                    frontend.assign(np.zeros((2, 16))), 30
                )
                return replies, later

        (good, bad), later = asyncio.run(go())
        assert good.labels.shape == (3,)
        assert isinstance(bad, ValidationError)
        assert later.labels.shape == (2,)

    def test_unhashable_request_fails_alone(self, service):
        """A co-batched block too large to hash sinks only its request.

        The handle refuses the whole micro-batch; the front-end then
        serves each request on its own, so its neighbours, from other
        clients, still get their replies.
        """
        rng = np.random.default_rng(5)
        goods = [rng.normal(size=(n, 16)) for n in (3, 1, 4)]
        bad = np.full((1, 16), 1e300)

        async def go():
            async with AsyncFrontend(service) as frontend:
                calls = [
                    frontend.assign(goods[0], client="a"),
                    frontend.assign(bad, client="b"),
                    frontend.assign(goods[1], client="c"),
                    frontend.assign(goods[2], client="a"),
                ]
                replies = await asyncio.wait_for(
                    asyncio.gather(*calls, return_exceptions=True), 30
                )
                return replies, frontend.stats()

        replies, stats = asyncio.run(go())
        assert isinstance(replies[1], ValidationError)
        assert "int64" in str(replies[1])
        for block, reply in zip(goods, replies[:1] + replies[2:]):
            want = service.assign(block)
            assert np.array_equal(reply.labels, want.labels)
            assert np.array_equal(reply.scores, want.scores)
        assert stats["requests_failed"] == 1

    @pytest.mark.parametrize(
        "queries",
        ["nope", [[0.0] * 16, [0.0] * 15], np.zeros((1, 16)) + 1j],
        ids=["string", "ragged", "complex"],
    )
    def test_rejects_malformed_queries(self, service, queries):
        async def go():
            async with AsyncFrontend(service) as frontend:
                with pytest.raises(ValidationError, match="queries"):
                    await frontend.assign(queries)
                # The dispatcher is unharmed: a valid request still serves.
                reply = await frontend.assign(np.zeros((2, 16)))
                assert reply.labels.shape == (2,)

        asyncio.run(go())


class TestFrontendServing:
    def test_solo_request_byte_identical_to_reference(
        self, service, dataset
    ):
        block = dataset.data[:32]
        reference = service.assign(block)

        async def go():
            async with AsyncFrontend(service) as frontend:
                return await frontend.assign(block)

        reply = asyncio.run(go())
        assert isinstance(reply, FrontendReply)
        # Served alone, the micro-batch IS the request block: labels,
        # scores and candidate counts are byte-identical to the
        # synchronous single-process service.
        assert np.array_equal(reply.labels, reference.labels)
        assert np.array_equal(reply.scores, reference.scores)
        assert np.array_equal(reply.n_candidates, reference.n_candidates)
        assert reply.n_queries == 32
        assert reply.batch_rows == 32
        assert reply.latency_ms >= reply.service_ms >= 0.0

    def test_sequential_requests_flush_eagerly(self, service, dataset):
        async def go():
            async with AsyncFrontend(service) as frontend:
                for i in range(4):
                    await frontend.assign(dataset.data[i * 8 : i * 8 + 8])
                return frontend.stats()

        stats = asyncio.run(go())
        # An idle front-end never waits to fill a batch: one batch per
        # awaited request.
        assert stats["batches"] == 4
        assert stats["mean_batch_rows"] == 8.0

    def test_concurrent_requests_coalesce_and_match_reference(
        self, service, dataset
    ):
        blocks = [dataset.data[i * 10 : i * 10 + 10] for i in range(12)]
        references = [service.assign(b) for b in blocks]

        async def go():
            async with AsyncFrontend(service) as frontend:
                replies = await asyncio.gather(
                    *(frontend.assign(b) for b in blocks)
                )
                return replies, frontend.stats()

        replies, stats = asyncio.run(go())
        for reply, reference in zip(replies, references):
            # Labels are invariant under micro-batch composition;
            # scores agree to the documented batch-split roundoff.
            assert np.array_equal(reply.labels, reference.labels)
            np.testing.assert_allclose(
                reply.scores, reference.scores, atol=1e-12
            )
        # The concurrent burst coalesced: strictly fewer batches than
        # requests (the first may run alone before the rest queue up).
        assert stats["batches"] < len(blocks)
        assert stats["requests_completed"] == len(blocks)
        assert stats["rows_completed"] == sum(b.shape[0] for b in blocks)

    def test_uneven_blocks_slice_back_to_their_requests(
        self, service, dataset
    ):
        sizes = [1, 3, 2, 5, 4]
        offsets = np.cumsum([0] + sizes)
        blocks = [
            dataset.data[lo : lo + size]
            for lo, size in zip(offsets[:-1], sizes)
        ]
        references = [service.assign(b) for b in blocks]

        async def go():
            async with AsyncFrontend(service) as frontend:
                return await asyncio.gather(
                    *(frontend.assign(b) for b in blocks)
                )

        replies = asyncio.run(go())
        for reply, reference, size in zip(replies, references, sizes):
            assert reply.n_queries == size
            assert np.array_equal(reply.labels, reference.labels)

    def test_slo_derived_batch_cap(self, service):
        frontend = AsyncFrontend(
            service, slo_ms=50.0, min_batch_rows=2, max_batch_rows=1024
        )
        # No estimate yet: take everything up to the hard ceiling.
        assert frontend._target_rows() == 1024
        # 1 ms/row at a 50 ms SLO with 0.5 headroom -> 25-row cap.
        frontend._ewma_ms_per_row = 1.0
        assert frontend._target_rows() == 25
        # Very slow rows: the floor keeps the dispatcher moving.
        frontend._ewma_ms_per_row = 1e6
        assert frontend._target_rows() == 2
        # Very fast rows: clamped at the hard ceiling.
        frontend._ewma_ms_per_row = 1e-9
        assert frontend._target_rows() == 1024

    def test_rejection_surfaces_retry_after_and_exact_accounting(
        self, service, dataset
    ):
        async def go():
            async with AsyncFrontend(
                service, max_queued_rows=8
            ) as frontend:
                first = asyncio.ensure_future(
                    frontend.assign(dataset.data[:8], client="a")
                )
                second = asyncio.ensure_future(
                    frontend.assign(dataset.data[8:16], client="b")
                )
                results = await asyncio.gather(
                    first, second, return_exceptions=True
                )
                return results, frontend.stats()

        results, stats = asyncio.run(go())
        rejected = [r for r in results if isinstance(r, AdmissionError)]
        completed = [r for r in results if isinstance(r, FrontendReply)]
        # Both offers land before the dispatcher wakes, so the bounded
        # queue admits exactly one and rejects the other.
        assert len(rejected) == 1 and len(completed) == 1
        assert rejected[0].retry_after is not None
        admission = stats["admission"]
        assert admission["offered_requests"] == 2
        assert admission["admitted_requests"] == 1
        assert admission["rejected_requests"] == 1
        assert stats["requests_completed"] == 1

    def test_assign_after_close_raises(self, service, dataset):
        async def go():
            frontend = AsyncFrontend(service)
            reply = await frontend.assign(dataset.data[:4])
            await frontend.close()
            await frontend.close()  # idempotent
            with pytest.raises(AdmissionError):
                await frontend.assign(dataset.data[:4])
            return reply

        assert asyncio.run(go()).n_queries == 4

    def test_worker_failure_propagates_to_awaiters(self, dataset, snapshot):
        # A service whose assign always explodes: the future gets the
        # exception, the front-end stays serviceable for later calls.
        class Broken:
            def __init__(self):
                self.calls = 0

            def assign(self, queries, *, shortlist="lsh"):
                self.calls += 1
                raise RuntimeError("boom")

        broken = Broken()

        async def go():
            async with AsyncFrontend(broken) as frontend:
                with pytest.raises(RuntimeError, match="boom"):
                    await frontend.assign(dataset.data[:4])
                stats = frontend.stats()
                return stats

        stats = asyncio.run(go())
        assert broken.calls == 1
        assert stats["requests_failed"] == 1
        assert stats["requests_completed"] == 0

    def test_stats_schema(self, service, dataset):
        async def go():
            async with AsyncFrontend(service) as frontend:
                await frontend.assign(dataset.data[:8])
                return frontend.stats()

        stats = asyncio.run(go())
        for key in (
            "slo_ms",
            "shortlist",
            "requests_completed",
            "requests_failed",
            "rows_completed",
            "batches",
            "mean_batch_rows",
            "max_batch_rows_seen",
            "ewma_ms_per_row",
            "slo_violations",
            "admission",
        ):
            assert key in stats
        assert stats["admission"]["offered_requests"] == 1
        assert stats["ewma_ms_per_row"] > 0.0


class TestRunOpenLoop:
    def test_rejects_mismatched_lengths(self, service, dataset):
        async def go():
            async with AsyncFrontend(service) as frontend:
                with pytest.raises(ValidationError):
                    await run_open_loop(
                        frontend, [dataset.data[:4]], [0.0, 0.1]
                    )
                with pytest.raises(ValidationError):
                    await run_open_loop(
                        frontend,
                        [dataset.data[:4]],
                        [0.0],
                        clients=["a", "b"],
                    )

        asyncio.run(go())

    def test_replay_records_every_request(self, service, dataset):
        blocks = [dataset.data[i * 8 : i * 8 + 8] for i in range(10)]
        arrivals = [0.002 * i for i in range(10)]

        async def go():
            async with AsyncFrontend(service) as frontend:
                return await run_open_loop(frontend, blocks, arrivals)

        records = asyncio.run(go())
        assert len(records) == 10
        assert all(r["status"] == "ok" for r in records)
        assert all(r["n_rows"] == 8 for r in records)
        for record, block in zip(records, blocks):
            reference = service.assign(block)
            assert np.array_equal(
                record["reply"].labels, reference.labels
            )

    def test_replay_counts_rejections(self, service, dataset):
        blocks = [dataset.data[:8] for _ in range(6)]
        arrivals = [0.0] * 6

        async def go():
            async with AsyncFrontend(
                service, max_queued_rows=16
            ) as frontend:
                return await run_open_loop(frontend, blocks, arrivals)

        records = asyncio.run(go())
        ok = [r for r in records if r["status"] == "ok"]
        rejected = [r for r in records if r["status"] == "rejected"]
        # All six arrive before the dispatcher wakes: two fit the
        # 16-row bound, four are rejected with a back-off hint.
        assert len(ok) == 2 and len(rejected) == 4
        assert all(r["retry_after"] > 0.0 for r in rejected)
