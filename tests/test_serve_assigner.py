"""Tests for serve-time batch assignment (repro.serve.assigner).

The acceptance contract: batch assignment agrees with the engine — a
query is assigned to cluster k exactly when it passes the streaming
absorb infectivity test against k (and, with several candidates, joins
the one with the largest payoff margin).
"""

import numpy as np
import pytest

from repro.affinity.kernel import LaplacianKernel
from repro.affinity.oracle import AffinityOracle
from repro.core.alid import ALID
from repro.core.config import ALIDConfig
from repro.core.infectivity import point_payoffs
from repro.core.results import Cluster
from repro.exceptions import ValidationError
from repro.lsh.index import LSHIndex
from repro.serve.assigner import ClusterAssigner
from repro.serve.snapshot import DetectionSnapshot


@pytest.fixture(scope="module")
def separated_fit():
    """Well-separated blobs: LSH shortlisting is lossless here."""
    rng = np.random.default_rng(5)
    centers = np.asarray(
        [[0.0] * 10, [12.0] * 10, [-12.0] * 10, [24.0] * 10]
    )
    data = np.vstack(
        [c + rng.normal(scale=0.1, size=(30, 10)) for c in centers]
    )
    noise = rng.uniform(-60, 60, size=(25, 10))
    data = np.vstack([data, noise])
    detector = ALID(ALIDConfig(delta=200, seed=5))
    result = detector.fit(data)
    assert result.n_clusters == 4
    snapshot = DetectionSnapshot.from_result(detector, result)
    queries = np.vstack(
        [
            centers.repeat(10, axis=0)
            + rng.normal(scale=0.05, size=(40, 10)),
            rng.uniform(-60, 60, size=(12, 10)),
        ]
    )
    return snapshot, queries


class TestAgreementWithEngine:
    def test_assignment_equals_infectivity_test(self, separated_fit):
        """Assigned to k <=> infective against k (Theorem 1, per cluster)."""
        snapshot, queries = separated_fit
        assigner = ClusterAssigner(snapshot)
        assignment = assigner.assign(queries, shortlist="all")
        tol = snapshot.config.tol
        oracle = snapshot.make_oracle()
        # Exhaustive reference: payoff of every query against every
        # cluster, exactly the streaming-absorb criterion.
        payoffs = np.stack(
            [
                point_payoffs(
                    oracle, queries, c.members, c.weights, c.density
                )
                for c in snapshot.clusters
            ]
        )  # (k, q)
        infective_any = (payoffs > tol).any(axis=0)
        assert np.array_equal(assignment.assigned_mask, infective_any)
        labels = np.asarray([c.label for c in snapshot.clusters])
        for qi in np.flatnonzero(infective_any):
            best = int(np.argmax(payoffs[:, qi]))
            assert assignment.labels[qi] == labels[best]
            assert assignment.scores[qi] == payoffs[best, qi]

    def test_lsh_shortlist_equals_exhaustive(self, separated_fit):
        snapshot, queries = separated_fit
        assigner = ClusterAssigner(snapshot)
        via_lsh = assigner.assign(queries, shortlist="lsh")
        exhaustive = assigner.assign(queries, shortlist="all")
        assert np.array_equal(via_lsh.labels, exhaustive.labels)
        # Scores may differ by BLAS-batching roundoff (the two modes
        # evaluate different query-row batches), never more.
        assigned = via_lsh.assigned_mask
        assert np.allclose(
            via_lsh.scores[assigned], exhaustive.scores[assigned],
            rtol=0.0, atol=1e-12,
        )
        # Shortlisting must do strictly less affinity work.
        assert via_lsh.entries_computed < exhaustive.entries_computed

    def test_noise_queries_rejected(self, separated_fit):
        snapshot, queries = separated_fit
        assignment = ClusterAssigner(snapshot).assign(queries)
        # The last 12 queries are uniform noise far from every center.
        assert (assignment.labels[40:] == -1).all()
        assert (assignment.labels[:40] >= 0).all()

    def test_assignments_deterministic(self, separated_fit):
        snapshot, queries = separated_fit
        a = ClusterAssigner(snapshot).assign(queries)
        b = ClusterAssigner(snapshot).assign(queries)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.scores, b.scores)
        assert a.entries_computed == b.entries_computed


class TestAssignmentMechanics:
    def test_single_vector_is_one_query(self, separated_fit):
        snapshot, queries = separated_fit
        assignment = ClusterAssigner(snapshot).assign(queries[0])
        assert assignment.n_queries == 1
        assert assignment.labels.shape == (1,)

    def test_dim_mismatch_raises(self, separated_fit):
        snapshot, _ = separated_fit
        with pytest.raises(ValidationError):
            ClusterAssigner(snapshot).assign(np.zeros((3, 4)))

    def test_bad_shortlist_mode_raises(self, separated_fit):
        snapshot, queries = separated_fit
        with pytest.raises(ValidationError):
            ClusterAssigner(snapshot).assign(queries, shortlist="maybe")

    def test_non_finite_queries_raise_in_both_modes(self, separated_fit):
        """NaN queries must error identically, never read as noise."""
        snapshot, _ = separated_fit
        assigner = ClusterAssigner(snapshot)
        bad = np.full((2, snapshot.dim), np.nan)
        for mode in ("lsh", "all"):
            with pytest.raises(ValidationError, match="NaN"):
                assigner.assign(bad, shortlist=mode)

    def test_scores_minus_inf_without_candidates(self, separated_fit):
        snapshot, _ = separated_fit
        far = np.full((2, snapshot.dim), 1e6)
        assignment = ClusterAssigner(snapshot).assign(far)
        assert (assignment.labels == -1).all()
        assert (assignment.n_candidates == 0).all()
        assert np.isneginf(assignment.scores).all()

    def test_work_is_accounted(self, separated_fit):
        snapshot, queries = separated_fit
        assigner = ClusterAssigner(snapshot)
        before = assigner.oracle.counters.entries_computed
        assignment = assigner.assign(queries)
        delta = assigner.oracle.counters.entries_computed - before
        assert assignment.entries_computed == delta > 0

    def test_coverage_property(self, separated_fit):
        snapshot, queries = separated_fit
        assignment = ClusterAssigner(snapshot).assign(queries)
        assert assignment.coverage == pytest.approx(40 / 52)

    def test_member_queries_join_their_own_cluster(self, separated_fit):
        """Cluster members re-submitted as queries come back home."""
        snapshot, _ = separated_fit
        assigner = ClusterAssigner(snapshot)
        for cluster in snapshot.clusters:
            probes = snapshot.data[cluster.members[:5]]
            assignment = assigner.assign(probes)
            assert (assignment.labels == cluster.label).all()


@pytest.fixture(scope="module")
def recall_gap_fit():
    """A snapshot whose plain LSH shortlist provably has a recall gap.

    One tight dominant cluster, a single coarse hash table, a wide
    kernel: plenty of borderline queries are infective (Theorem 1 says
    assign) yet hash into a neighbouring bucket and so miss the plain
    shortlist entirely.  Multi-probe's ±1 perturbations reach exactly
    those neighbouring buckets.
    """
    rng = np.random.default_rng(1)
    cluster_pts = rng.normal(scale=0.05, size=(40, 6))
    noise = rng.uniform(5, 9, size=(20, 6))
    data = np.vstack([cluster_pts, noise])
    index = LSHIndex(data, r=0.25, n_projections=10, n_tables=1, seed=1)
    kernel = LaplacianKernel(k=0.5, p=2.0)
    oracle = AffinityOracle(data, kernel)
    members = np.arange(40)
    block = oracle.block(members, members)
    weights = np.full(40, 1 / 40)
    for _ in range(300):
        weights = weights * (block @ weights)
        weights = weights / weights.sum()
    density = float(weights @ block @ weights)
    snapshot = DetectionSnapshot(
        data=data,
        config=ALIDConfig(delta=200, seed=0),
        kernel=kernel,
        lsh_r=0.25,
        index_arrays=index.export_state(),
        clusters=[
            Cluster(
                members=members, weights=weights, density=density, label=0
            )
        ],
    )
    queries = rng.normal(scale=0.1, size=(300, 6))
    return snapshot, queries


class TestMultiprobeShortlist:
    """The ROADMAP multi-probe open item: close the LSH recall gap."""

    def test_recovers_queries_plain_lsh_misses(self, recall_gap_fit):
        snapshot, queries = recall_gap_fit
        assigner = ClusterAssigner(snapshot, n_probes=8)
        exact = assigner.assign(queries, shortlist="all")
        plain = assigner.assign(queries, shortlist="lsh")
        multi = assigner.assign(queries, shortlist="multiprobe")
        infective = exact.labels >= 0
        missed_plain = infective & (plain.labels < 0)
        missed_multi = infective & (multi.labels < 0)
        # The scenario is meaningful: plain LSH really misses
        # borderline-infective queries here ...
        assert missed_plain.sum() > 0
        # ... and multi-probe recovers a strict subset of those misses.
        assert missed_multi.sum() < missed_plain.sum()
        recovered = missed_plain & ~missed_multi
        assert recovered.sum() > 0
        # Every recovered query gets the reference-mode label.
        assert np.array_equal(
            multi.labels[recovered], exact.labels[recovered]
        )

    def test_multiprobe_shortlist_is_superset_of_plain(
        self, recall_gap_fit
    ):
        snapshot, queries = recall_gap_fit
        assigner = ClusterAssigner(snapshot, n_probes=8)
        plain = assigner.assign(queries, shortlist="lsh")
        multi = assigner.assign(queries, shortlist="multiprobe")
        # Probing extra buckets can only add candidates.
        assert (multi.n_candidates >= plain.n_candidates).all()
        assigned_plain = plain.labels >= 0
        assert np.array_equal(
            multi.labels[assigned_plain], plain.labels[assigned_plain]
        )

    def test_multiprobe_cheaper_than_exhaustive(self, recall_gap_fit):
        snapshot, queries = recall_gap_fit
        assigner = ClusterAssigner(snapshot, n_probes=8)
        exact = assigner.assign(queries, shortlist="all")
        multi = assigner.assign(queries, shortlist="multiprobe")
        assert multi.entries_computed < exact.entries_computed

    def test_zero_probes_equals_plain(self, separated_fit):
        snapshot, queries = separated_fit
        assigner = ClusterAssigner(snapshot, n_probes=0)
        plain = assigner.assign(queries, shortlist="lsh")
        multi = assigner.assign(queries, shortlist="multiprobe")
        assert np.array_equal(plain.labels, multi.labels)
        assert plain.entries_computed == multi.entries_computed

    def test_multiprobe_on_standard_workload_matches_exact(
        self, separated_fit
    ):
        snapshot, queries = separated_fit
        assigner = ClusterAssigner(snapshot)
        exact = assigner.assign(queries, shortlist="all")
        multi = assigner.assign(queries, shortlist="multiprobe")
        assert np.array_equal(multi.labels, exact.labels)


def _item_path_pairs(assigner, queries, shortlist):
    """The item-gather shortlist the owner table replaces (the reference).

    Every colliding item is gathered per query and mapped to its owning
    cluster row through ``_item_owner``.
    """
    probe = (
        assigner.multiprobe.probe_keys if shortlist == "multiprobe" else None
    )
    pairs = set()
    grouped = assigner.index.query_points_grouped(queries, probe=probe)
    for qid, items in enumerate(grouped):
        rows = assigner._item_owner[items]
        pairs.update((qid, int(row)) for row in rows[rows >= 0])
    return sorted(pairs)


def _owner_table_pairs(assigner, queries, shortlist):
    qids, rows = assigner._shortlist_pairs(queries, shortlist)
    return list(zip(qids.tolist(), rows.tolist()))


def _hand_built_snapshot(clusters, data, index):
    return DetectionSnapshot(
        data=data,
        config=ALIDConfig(delta=200, seed=0),
        kernel=LaplacianKernel(k=1.0, p=2.0),
        lsh_r=index.r,
        index_arrays=index.export_state(),
        clusters=clusters,
    )


@pytest.fixture(scope="module")
def overlapping_fit():
    """Hand-built clusters whose supports overlap, plus far noise."""
    rng = np.random.default_rng(11)
    data = np.vstack(
        [
            rng.normal(scale=0.4, size=(50, 6)),
            rng.normal(loc=5.0, scale=0.4, size=(30, 6)),
            rng.uniform(40.0, 80.0, size=(40, 6)),
        ]
    )
    index = LSHIndex(data, r=2.0, n_projections=6, n_tables=8, seed=2)

    def cluster(members, density, label):
        weights = np.full(members.size, 1.0 / members.size)
        return Cluster(
            members=members, weights=weights, density=density, label=label
        )

    # Rows 0 and 1 share items 20..29; row 1 is denser, so it owns them.
    clusters = [
        cluster(np.arange(0, 30), 0.7, 10),
        cluster(np.arange(20, 50), 0.9, 11),
        cluster(np.arange(50, 80), 0.8, 12),
    ]
    snapshot = _hand_built_snapshot(clusters, data, index)
    queries = np.vstack(
        [
            data[:80] + rng.normal(scale=0.2, size=(80, 6)),
            rng.normal(loc=2.5, scale=1.5, size=(30, 6)),
        ]
    )
    return snapshot, queries


class TestOwnerTable:
    """Owner-table pairs equal the item-path pairs they replace."""

    @pytest.mark.parametrize("shortlist", ["lsh", "multiprobe"])
    def test_overlapping_supports(self, overlapping_fit, shortlist):
        snapshot, queries = overlapping_fit
        assigner = ClusterAssigner(snapshot, n_probes=4)
        assert (assigner._item_owner[20:30] == 1).all()  # densest wins
        assert (assigner._item_owner[:20] == 0).all()
        pairs = _owner_table_pairs(assigner, queries, shortlist)
        assert pairs == _item_path_pairs(assigner, queries, shortlist)
        assert {row for _, row in pairs} == {0, 1, 2}

    @pytest.mark.parametrize("shortlist", ["lsh", "multiprobe"])
    def test_fitted_snapshot(self, separated_fit, shortlist):
        snapshot, queries = separated_fit
        assigner = ClusterAssigner(snapshot)
        for lo in range(0, queries.shape[0], 7):
            block = queries[lo : lo + 7]
            assert _owner_table_pairs(
                assigner, block, shortlist
            ) == _item_path_pairs(assigner, block, shortlist)

    @pytest.mark.parametrize("shortlist", ["lsh", "multiprobe"])
    def test_block_hitting_only_noise(self, overlapping_fit, shortlist):
        snapshot, _ = overlapping_fit
        assigner = ClusterAssigner(snapshot, n_probes=4)
        noise_block = snapshot.data[80:]
        qids, _ = assigner.index.point_bucket_hits(noise_block)
        assert qids.size > 0  # the block does collide, with noise only
        assert _owner_table_pairs(assigner, noise_block, shortlist) == []
        assert _item_path_pairs(assigner, noise_block, shortlist) == []
        assignment = assigner.assign(noise_block, shortlist=shortlist)
        assert (assignment.labels == -1).all()
        assert (assignment.n_candidates == 0).all()

    @pytest.mark.parametrize("shortlist", ["lsh", "multiprobe"])
    def test_zero_cluster_snapshot(self, overlapping_fit, shortlist):
        snapshot, queries = overlapping_fit
        index = snapshot.restore_index()
        empty = _hand_built_snapshot([], snapshot.data, index)
        assigner = ClusterAssigner(empty, n_probes=4)
        assert assigner._owner_rows.size == 0
        assert not assigner._owner_offsets.any()
        assert _item_path_pairs(assigner, queries, shortlist) == []
        assignment = assigner.assign(queries, shortlist=shortlist)
        assert (assignment.labels == -1).all()
        assert assignment.entries_computed == 0


class TestMalformedQueries:
    """Hostile query blocks fail typed, never partially or silently."""

    @pytest.mark.parametrize(
        "queries",
        [
            "not a block",
            [["a"] * 10, ["b"] * 10],
            [[0.0] * 10, [0.0] * 9],
            np.zeros((2, 10), dtype=np.complex128) + 1j,
            [[None] * 10],
        ],
        ids=["string", "strings", "ragged", "complex", "object"],
    )
    @pytest.mark.parametrize("shortlist", ["lsh", "multiprobe", "all"])
    def test_rejected_with_validation_error(
        self, separated_fit, queries, shortlist
    ):
        snapshot, _ = separated_fit
        with pytest.raises(ValidationError, match="queries"):
            ClusterAssigner(snapshot).assign(queries, shortlist=shortlist)

    @pytest.mark.parametrize("shortlist", ["lsh", "multiprobe", "all"])
    def test_huge_finite_queries_raise(self, separated_fit, shortlist):
        """Every mode refuses a block too large to hash, not only LSH."""
        snapshot, _ = separated_fit
        huge = np.full((2, snapshot.dim), 1e300)
        with pytest.raises(ValidationError, match="int64"):
            ClusterAssigner(snapshot).assign(huge, shortlist=shortlist)

    @pytest.mark.parametrize("shortlist", ["lsh", "multiprobe", "all"])
    def test_huge_queries_raise_without_clusters(
        self, overlapping_fit, shortlist
    ):
        snapshot, _ = overlapping_fit
        empty = _hand_built_snapshot(
            [], snapshot.data, snapshot.restore_index()
        )
        huge = np.full((2, snapshot.dim), -1e20)
        with pytest.raises(ValidationError, match="int64"):
            ClusterAssigner(empty).assign(huge, shortlist=shortlist)
