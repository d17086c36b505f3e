"""Fault injection: SIGKILLed shard workers, healing, and supervision.

The self-healing contract, pinned as tests: a shard worker killed
between batches or mid-batch degrades serving (under the ``"skip"``
policy) without failing whole requests, the hole is visible as
``dead_shards``, :meth:`ShardedClusterService.heal` respawns the
worker from its still-valid on-disk artifact, and post-heal
assignments are **byte-identical** to a never-crashed single-process
service.  :class:`ShardSupervisor` automates the heal with back-off on
failure; the ``respawns`` / ``healed_shards`` counters are exposed at
both stats scopes.
"""

import dataclasses
import os
import shutil
import signal
import time

import numpy as np
import pytest

from repro.core.alid import ALID
from repro.core.config import ALIDConfig
from repro.datasets.synthetic import make_synthetic_mixture
from repro.exceptions import SnapshotError, ValidationError, WorkerError
from repro.serve import (
    ClusterService,
    DetectionSnapshot,
    ShardPlanner,
    ShardSupervisor,
    ShardedClusterService,
)

_HEAL_DEADLINE = 15.0


@pytest.fixture(scope="module")
def fitted():
    dataset = make_synthetic_mixture(
        n=350, regime="bounded", bound=200, n_clusters=5, dim=16, seed=2
    )
    detector = ALID(ALIDConfig(delta=200, seed=2))
    result = detector.fit(dataset.data)
    assert result.n_clusters >= 3
    return dataset, detector, result


@pytest.fixture(scope="module")
def snapshot_dir(fitted, tmp_path_factory):
    _, detector, result = fitted
    return DetectionSnapshot.from_result(detector, result).save(
        tmp_path_factory.mktemp("faults") / "snap"
    )


@pytest.fixture(scope="module")
def shard_root(snapshot_dir, tmp_path_factory):
    root = tmp_path_factory.mktemp("faults") / "shards"
    ShardPlanner(n_shards=2).plan(snapshot_dir, root)
    return root


@pytest.fixture(scope="module")
def reference(fitted, snapshot_dir):
    """The never-crashed single-process assignment (the oracle)."""
    dataset, _, _ = fitted
    with ClusterService(snapshot_dir) as single:
        yield single.assign(dataset.data)


@pytest.fixture
def degraded_pool(shard_root):
    """A fresh 2-shard pool under the "skip" (degraded-mode) policy."""
    with ShardedClusterService(
        shard_root, on_worker_error="skip"
    ) as service:
        yield service


def _kill_worker(service, index=0):
    """SIGKILL one shard worker and wait until the parent sees it dead."""
    worker = service._workers[index]
    os.kill(worker.process.pid, signal.SIGKILL)
    worker.process.join(timeout=10)
    assert not worker.alive
    return worker.shard_id


def _assert_identical(result, reference):
    assert np.array_equal(result.labels, reference.labels)
    assert np.array_equal(result.scores, reference.scores)
    assert np.array_equal(result.n_candidates, reference.n_candidates)
    assert result.entries_computed == reference.entries_computed


class TestKillBetweenBatches:
    def test_degrade_heal_byte_identical(
        self, fitted, degraded_pool, reference
    ):
        dataset, _, _ = fitted
        service = degraded_pool
        _assert_identical(service.assign(dataset.data), reference)

        victim = _kill_worker(service)
        assert service.dead_shard_ids() == [victim]
        stats = service.stats()
        assert stats["dead_shards"] == [victim]
        assert victim not in stats["alive_shards"]

        # Degraded serving: the request completes against the
        # survivors instead of failing outright.
        partial = service.assign(dataset.data)
        assert partial.n_queries == dataset.data.shape[0]
        assert service.stats()["degraded_batches"] >= 1

        assert service.heal() == [victim]
        assert service.dead_shard_ids() == []
        stats = service.stats()
        assert stats["dead_shards"] == []
        assert stats["respawns"] == 1
        assert stats["healed_shards"] == 1
        assert stats["snapshot"]["respawns"] == 1
        assert stats["snapshot"]["healed_shards"] == 1

        # The respawned worker serves exactly the bytes the dead one
        # served: labels AND scores, not just labels.
        _assert_identical(service.assign(dataset.data), reference)

    def test_heal_on_healthy_pool_is_a_noop(self, degraded_pool):
        assert degraded_pool.heal() == []
        stats = degraded_pool.stats()
        assert stats["respawns"] == 0
        assert stats["healed_shards"] == 0

    def test_all_workers_dead_still_raises_under_skip(
        self, fitted, degraded_pool
    ):
        dataset, _, _ = fitted
        for index in range(len(degraded_pool._workers)):
            _kill_worker(degraded_pool, index)
        # A pool with no shards left must not silently answer "all
        # noise" — even the degraded policy refuses.
        with pytest.raises(WorkerError):
            degraded_pool.assign(dataset.data[:10])
        assert sorted(degraded_pool.dead_shard_ids()) == [0, 1]
        assert len(degraded_pool.heal()) == 2
        assert degraded_pool.assign(dataset.data[:10]).n_queries == 10

    def test_closed_service_refuses_health_calls(self, shard_root):
        service = ShardedClusterService(shard_root)
        service.close()
        with pytest.raises(WorkerError):
            service.dead_shard_ids()
        with pytest.raises(WorkerError):
            service.heal()

    def test_heal_refuses_a_shard_rewritten_after_planning(
        self, fitted, snapshot_dir, tmp_path, reference
    ):
        """A respawn serves the shard its plan recorded, or nothing.

        A partial ``apply_delta`` rewrites the touched shards before
        their workers start, so a failed start leaves rewritten files
        under a pool still serving the old plan.  Healing from such a
        file would silently change answers; the heal must refuse it.
        """
        dataset, _, _ = fitted
        root = tmp_path / "shards"
        ShardPlanner(n_shards=2).plan(snapshot_dir, root)
        with ShardedClusterService(root, on_worker_error="skip") as service:
            victim = _kill_worker(service)
            shard_dir = service.plan.shard_dir(victim)
            planned = tmp_path / "planned"
            shutil.copytree(shard_dir, planned)
            # A valid shard snapshot that serves one cluster less.
            shard = DetectionSnapshot.load(shard_dir)
            dataclasses.replace(shard, clusters=shard.clusters[1:]).save(
                shard_dir
            )
            with pytest.raises(SnapshotError, match="rewritten"):
                service.heal()
            assert service.dead_shard_ids() == [victim]
            assert service.stats()["respawns"] == 0
            # The recorded artifact back in place: the heal succeeds
            # and the pool answers like a never-crashed one.
            shutil.rmtree(shard_dir)
            shutil.copytree(planned, shard_dir)
            assert service.heal() == [victim]
            _assert_identical(service.assign(dataset.data), reference)

    def test_heal_superseded_by_a_reload_discards_its_workers(
        self, fitted, shard_root, degraded_pool, reference
    ):
        """A reload landing mid-heal wins; the heal's replacements stop."""
        dataset, _, _ = fitted
        service = degraded_pool
        _kill_worker(service)
        start, replacements = service._start, []

        def start_then_reload(plan, shard_ids):
            fresh = start(plan, shard_ids)
            if not replacements:
                replacements.extend(fresh)
                service.reload(shard_root)
            return fresh

        service._start = start_then_reload
        assert service.heal() == []
        assert [w.alive for w in replacements] == [False]
        assert service.dead_shard_ids() == []
        stats = service.stats()
        assert stats["reloads"] == 1
        assert stats["respawns"] == 0
        _assert_identical(service.assign(dataset.data), reference)


class TestKillMidBatch:
    def _arm_mid_batch_kill(self, service, index=0):
        """Make the victim worker die *after* accepting its next batch.

        The SIGKILL lands between the parent's ``submit`` and
        ``collect``, so the router observes the crash as a torn reply
        mid-flight — the hardest window, deterministically.
        """
        worker = service._workers[index]
        original = worker.submit

        def submit_then_die(command, *payload):
            seq = original(command, *payload)
            if command == "assign":
                os.kill(worker.process.pid, signal.SIGKILL)
                worker.process.join(timeout=10)
            return seq

        worker.submit = submit_then_die
        return worker.shard_id

    def test_skip_policy_degrades_then_heals(
        self, fitted, degraded_pool, reference
    ):
        dataset, _, _ = fitted
        victim = self._arm_mid_batch_kill(degraded_pool)
        partial = degraded_pool.assign(dataset.data)
        assert partial.n_queries == dataset.data.shape[0]
        stats = degraded_pool.stats()
        assert stats["degraded_batches"] >= 1
        assert stats["dead_shards"] == [victim]
        assert degraded_pool.heal() == [victim]
        _assert_identical(degraded_pool.assign(dataset.data), reference)

    def test_raise_policy_fails_the_batch_then_heals(
        self, fitted, shard_root, reference
    ):
        dataset, _, _ = fitted
        with ShardedClusterService(shard_root) as service:
            victim = self._arm_mid_batch_kill(service)
            with pytest.raises(WorkerError, match="skip"):
                service.assign(dataset.data)
            assert service.dead_shard_ids() == [victim]
            assert service.heal() == [victim]
            _assert_identical(service.assign(dataset.data), reference)


class TestSupervisor:
    def test_rejects_bad_arguments(self, degraded_pool):
        with pytest.raises(ValidationError):
            ShardSupervisor(degraded_pool, interval=0.0)
        with pytest.raises(ValidationError):
            ShardSupervisor(object())

    def test_poll_now_heals_synchronously(self, fitted, degraded_pool):
        dataset, _, _ = fitted
        supervisor = ShardSupervisor(degraded_pool, interval=0.05)
        assert supervisor.poll_now() == []
        victim = _kill_worker(degraded_pool)
        assert supervisor.poll_now() == [victim]
        assert supervisor.poll_now() == []
        stats = supervisor.stats()
        assert stats["heals"] == 1
        assert stats["healed_shards"] == 1
        assert stats["heal_failures"] == 0
        assert stats["last_error"] is None
        assert degraded_pool.assign(dataset.data[:20]).n_queries == 20

    def test_background_watch_heals_automatically(
        self, fitted, degraded_pool, reference
    ):
        dataset, _, _ = fitted
        healed_batches = []
        with ShardSupervisor(
            degraded_pool, interval=0.05, on_heal=healed_batches.append
        ) as supervisor:
            assert supervisor.running
            victim = _kill_worker(degraded_pool)
            deadline = time.monotonic() + _HEAL_DEADLINE
            while degraded_pool.dead_shard_ids():
                assert time.monotonic() < deadline, "supervisor never healed"
                time.sleep(0.02)
            _assert_identical(
                degraded_pool.assign(dataset.data), reference
            )
        assert not supervisor.running
        assert healed_batches == [[victim]]
        assert supervisor.stats()["heals"] == 1

    def test_heal_failure_backs_off_and_recovers(
        self, fitted, degraded_pool
    ):
        dataset, _, _ = fitted
        supervisor = ShardSupervisor(degraded_pool, interval=0.05)
        victim = _kill_worker(degraded_pool)
        shard_dir = degraded_pool.plan.shard_dir(victim)
        hidden = shard_dir.with_name(shard_dir.name + ".hidden")
        shard_dir.rename(hidden)
        try:
            # The artifact is gone: the heal fails, the failure is
            # absorbed (poll_now returns [], no exception), and the
            # surviving pool keeps serving degraded.
            assert supervisor.poll_now() == []
            stats = supervisor.stats()
            assert stats["heal_failures"] == 1
            assert stats["consecutive_failures"] == 1
            assert stats["backoff_polls_remaining"] > 0
            assert stats["last_error"] is not None
            partial = degraded_pool.assign(dataset.data[:20])
            assert partial.n_queries == 20
        finally:
            hidden.rename(shard_dir)
        # Artifact restored: the next cycle heals and resets the
        # failure bookkeeping.
        assert supervisor.poll_now() == [victim]
        stats = supervisor.stats()
        assert stats["heals"] == 1
        assert stats["consecutive_failures"] == 0
        assert stats["backoff_polls_remaining"] == 0
        assert stats["last_error"] is None

    def test_poll_on_closed_service_propagates(self, shard_root):
        service = ShardedClusterService(shard_root)
        supervisor = ShardSupervisor(service)
        service.close()
        with pytest.raises(WorkerError):
            supervisor.poll_now()

    @staticmethod
    def _failure_schedule(seed, failures):
        """Drive a supervisor through heal failures; record back-offs."""

        class _AlwaysDead:
            def dead_shard_ids(self):
                return [0]

            def heal(self):
                raise RuntimeError("artifact store down")

        supervisor = ShardSupervisor(
            _AlwaysDead(), backoff_jitter_seed=seed
        )
        schedule = []
        for _ in range(failures):
            assert supervisor.poll_now() == []
            schedule.append(
                supervisor.stats()["backoff_polls_remaining"]
            )
        return schedule

    def test_backoff_jitter_schedule_is_pinned(self):
        """Seeded jitter: exact, replayable retry schedule per seed."""
        import random

        schedule = self._failure_schedule(seed=0, failures=8)
        # The schedule is exactly base + Random(seed) jitter, capped.
        rng = random.Random(0)
        want = []
        for failure in range(1, 9):
            base = 2 ** min(failure, 16)
            want.append(min(base + rng.randrange(1 + base // 2), 64))
        assert schedule == want
        # Pinned bounds: never below the exponential base, never above
        # the cap, and the same seed replays the identical schedule.
        for failure, polls in enumerate(schedule, start=1):
            assert min(2 ** min(failure, 16), 64) <= polls <= 64
        assert self._failure_schedule(seed=0, failures=8) == schedule

    def test_backoff_jitter_decorrelates_across_seeds(self):
        a = self._failure_schedule(seed=1, failures=8)
        b = self._failure_schedule(seed=2, failures=8)
        assert a != b  # distinct seeds: no lockstep retry storms


class TestFrontendThroughFaults:
    """The whole tentpole stack: front-end + supervisor + SIGKILL."""

    def test_frontend_survives_kill_and_serves_identically_after_heal(
        self, fitted, degraded_pool, reference
    ):
        import asyncio

        from repro.serve import AsyncFrontend

        dataset, _, _ = fitted

        async def go():
            with ShardSupervisor(degraded_pool, interval=0.05):
                async with AsyncFrontend(degraded_pool) as frontend:
                    before = await frontend.assign(dataset.data)
                    assert np.array_equal(
                        before.labels, reference.labels
                    )
                    _kill_worker(degraded_pool)
                    # Degraded window: requests keep completing (the
                    # "skip" policy serves survivors, never errors).
                    deadline = time.monotonic() + _HEAL_DEADLINE
                    while degraded_pool.dead_shard_ids():
                        reply = await frontend.assign(dataset.data[:40])
                        assert reply.n_queries == 40
                        assert time.monotonic() < deadline
                        await asyncio.sleep(0.02)
                    after = await frontend.assign(dataset.data)
                    stats = frontend.stats()
            return after, stats

        after, stats = asyncio.run(go())
        assert np.array_equal(after.labels, reference.labels)
        assert np.array_equal(after.scores, reference.scores)
        assert np.array_equal(after.n_candidates, reference.n_candidates)
        assert stats["requests_failed"] == 0
        pool_stats = degraded_pool.stats()
        assert pool_stats["respawns"] == 1
        assert pool_stats["healed_shards"] == 1


class TestCounterScopes:
    def test_reload_resets_snapshot_scope_not_lifetime(
        self, shard_root, degraded_pool
    ):
        _kill_worker(degraded_pool)
        assert len(degraded_pool.heal()) == 1
        stats = degraded_pool.stats()
        assert stats["respawns"] == 1
        assert stats["snapshot"]["respawns"] == 1

        degraded_pool.reload(shard_root)
        stats = degraded_pool.stats()
        # Lifetime counters carry on; the per-snapshot scope starts
        # clean — a reload IS a new snapshot, unlike a heal.
        assert stats["respawns"] == 1
        assert stats["healed_shards"] == 1
        assert stats["snapshot"]["respawns"] == 0
        assert stats["snapshot"]["healed_shards"] == 0

    def test_single_process_service_reports_zero_heals(
        self, snapshot_dir
    ):
        with ClusterService(snapshot_dir) as single:
            stats = single.stats()
        # Schema parity with the sharded pool: the keys exist (so the
        # soak/gate tooling can read either backend) and are zero.
        assert stats["respawns"] == 0
        assert stats["healed_shards"] == 0
        assert stats["snapshot"]["respawns"] == 0
        assert stats["snapshot"]["healed_shards"] == 0
