"""Churn & drift: long delta chains and torn-state-free serving.

Stress for the live-corpus tier beyond the short chains of
``test_serve_delta.py``: many publish rounds with drifting cluster
centers (absorption keeps replacing clusters — removed + re-upserted
labels — and brand-new blobs arrive mid-chain), with byte-identity of
the chain-applied snapshot against a fresh full snapshot asserted at
**every** round, not just at the tip.  Also pins the no-torn-state
guarantee of the async front-end: replies raced against a concurrent
``apply_delta`` match either the pre- or the post-delta reference in
full, never a mix.
"""

import asyncio

import numpy as np
import pytest

from repro.core.config import ALIDConfig
from repro.serve import (
    AsyncFrontend,
    ClusterService,
    DetectionSnapshot,
    IngestService,
    SnapshotDelta,
)
from repro.streaming import StreamingALID

_ROUNDS = 5
_DIM = 8


def _stream_config():
    return ALIDConfig(
        delta=50,
        lsh_projections=16,
        lsh_tables=20,
        density_threshold=0.5,
        seed=0,
    )


def _blob(rng, center, per=12):
    return center + rng.normal(scale=0.1, size=(per, _DIM))


def _snapshots_identical(got, want):
    """Byte-level equality of everything assignment-visible."""
    if not np.array_equal(got.data, want.data):
        return False
    for name in got.index_arrays:
        if name == "active":
            # Transient query state; assigners reactivate_all() first.
            continue
        if not np.array_equal(
            got.index_arrays[name], want.index_arrays[name]
        ):
            return False
    by_label = {c.label: c for c in want.clusters}
    if sorted(c.label for c in got.clusters) != sorted(by_label):
        return False
    return all(
        np.array_equal(c.members, by_label[c.label].members)
        and np.array_equal(c.weights, by_label[c.label].weights)
        and c.density == by_label[c.label].density
        and c.seed == by_label[c.label].seed
        for c in got.clusters
    )


@pytest.fixture(scope="module")
def churned(tmp_path_factory):
    """A base + ``_ROUNDS`` deltas published under center drift.

    Every round drifts the blob centers and feeds fresh members drawn
    around the moved centers (so absorption keeps *replacing* live
    clusters), and round 3 introduces an entirely new blob (a
    brand-new label mid-chain).  The per-round full snapshots are kept
    so byte-identity can be checked round by round.
    """
    rng = np.random.default_rng(3)
    centers = np.vstack(
        [
            np.full(_DIM, 0.0),
            np.full(_DIM, 12.0),
            np.full(_DIM, -12.0),
        ]
    )
    root = tmp_path_factory.mktemp("churn")
    service = IngestService(StreamingALID(_stream_config()))

    seed_batch = np.vstack(
        [_blob(rng, c, per=18) for c in centers]
        + [rng.uniform(-40, 40, size=(15, _DIM))]
    )
    service.ingest(seed_batch)
    base = service.publish_base(root / "base")
    assert base.n_clusters >= 2

    deltas = []
    fulls = []
    for round_no in range(1, _ROUNDS + 1):
        # Steady drift, small against the blob scale: the moved
        # members are absorbed into the live clusters (replacing
        # them) rather than splitting off as new ones.
        centers = centers + 0.05
        batch = np.vstack([_blob(rng, c, per=8) for c in centers])
        if round_no == 3:
            newcomer = np.full(_DIM, 24.0)
            centers = np.vstack([centers, newcomer])
            batch = np.vstack([batch, _blob(rng, newcomer, per=16)])
        service.ingest(batch)
        deltas.append(service.publish_delta(root / f"delta{round_no}"))
        fulls.append(service.stream.to_snapshot())

    yield {
        "root": root,
        "service": service,
        "stream": service.stream,
        "base": base,
        "deltas": deltas,
        "fulls": fulls,
        "queries": np.vstack(
            [_blob(rng, c, per=4) for c in centers]
            + [rng.uniform(-40, 40, size=(10, _DIM))]
        ),
    }
    service.close()


class TestDeltaChainUnderChurn:
    def test_churn_actually_happened(self, churned):
        deltas = churned["deltas"]
        # Drifted members get absorbed: live clusters are replaced
        # (label removed AND re-upserted in the same delta)...
        replacements = [
            set(int(label) for label in d.removed_labels)
            & set(int(c.label) for c in d.clusters)
            for d in deltas
        ]
        assert any(replacements), "no cluster was ever replaced"
        # ...and round 3's newcomer blob arrives as a brand-new label.
        new_labels = set(int(c.label) for c in deltas[2].clusters) - set(
            int(label) for label in deltas[2].removed_labels
        )
        assert new_labels, "the mid-chain blob never became a cluster"

    def test_every_round_is_byte_identical(self, churned):
        snap = DetectionSnapshot.load(churned["root"] / "base")
        for round_no, (delta, full) in enumerate(
            zip(churned["deltas"], churned["fulls"]), start=1
        ):
            snap = delta.apply(snap)
            assert _snapshots_identical(snap, full), (
                f"chain-applied snapshot diverged at round {round_no}"
            )
            assert snap.manifest_sha256 == delta.manifest_sha256

    def test_whole_chain_from_base_matches_final_full(self, churned):
        snap = DetectionSnapshot.load(churned["root"] / "base")
        for round_no in range(1, _ROUNDS + 1):
            snap = SnapshotDelta.load(
                churned["root"] / f"delta{round_no}"
            ).apply(snap)
        assert _snapshots_identical(snap, churned["fulls"][-1])

    def test_serving_tier_tracks_the_chain(self, churned):
        """apply_delta round by round == fresh refit, byte-for-byte."""
        queries = churned["queries"]
        with ClusterService(churned["root"] / "base") as live:
            for round_no, full in enumerate(churned["fulls"], start=1):
                live.apply_delta(churned["root"] / f"delta{round_no}")
                a = live.assign(queries)
                with ClusterService(full) as fresh:
                    b = fresh.assign(queries)
                assert np.array_equal(a.labels, b.labels)
                assert np.array_equal(a.scores, b.scores)
                assert a.entries_computed == b.entries_computed
            assert live.stats()["reloads"] == _ROUNDS


class TestNoTornState:
    def test_frontend_replies_are_pre_or_post_never_mixed(self, churned):
        """Replies raced against apply_delta match one epoch entirely.

        The dispatcher serves each micro-batch against a single captured
        assigner, so a reply can never mix pre- and post-delta labels —
        even while ``apply_delta`` swaps the snapshot under it.
        """
        root = churned["root"]
        queries = churned["queries"]
        with ClusterService(root / "base") as pre_service:
            pre = pre_service.assign(queries).labels
        with ClusterService(root / "base") as post_service:
            post_service.apply_delta(root / "delta1")
            post = post_service.assign(queries).labels
        assert not np.array_equal(pre, post), (
            "delta1 must change these labels for the test to bite"
        )

        async def go():
            service = ClusterService(root / "base")
            async with AsyncFrontend(service) as frontend:
                warm = await frontend.assign(queries)
                assert np.array_equal(warm.labels, pre)
                apply_task = asyncio.create_task(
                    asyncio.to_thread(
                        service.apply_delta, root / "delta1"
                    )
                )
                racing = [frontend.assign(queries) for _ in range(16)]
                replies = await asyncio.gather(*racing)
                await apply_task
                final = await frontend.assign(queries)
            service.close()
            return replies, final

        replies, final = asyncio.run(go())
        for reply in replies:
            matches_pre = np.array_equal(reply.labels, pre)
            matches_post = np.array_equal(reply.labels, post)
            assert matches_pre or matches_post, (
                "a reply mixed pre- and post-delta state"
            )
        # Once the delta has landed, the front-end serves it.
        assert np.array_equal(final.labels, post)
