"""Tests for multi-probe LSH (repro.lsh.multiprobe)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.lsh.index import LSHIndex
from repro.lsh.multiprobe import MultiProbeQuerier, perturbation_sets
from tests.conftest import lsh_reference_keys


class TestPerturbationSets:
    def test_first_set_is_cheapest_single(self):
        fractions = np.asarray([0.9, 0.5, 0.02])
        sets = perturbation_sets(fractions, n_probes=1)
        # Coordinate 2 sits 0.02 above its boundary: the cheapest move
        # is -1 on coordinate 2 with score 0.0004.
        assert sets == [[(2, -1)]]

    def test_costs_non_decreasing(self):
        rng = np.random.default_rng(0)
        fractions = rng.uniform(0.0, 1.0, size=10)

        def cost(perturbations):
            total = 0.0
            for coordinate, delta in perturbations:
                x = fractions[coordinate]
                total += (1.0 - x) ** 2 if delta > 0 else x**2
            return total

        sets = perturbation_sets(fractions, n_probes=30)
        costs = [cost(s) for s in sets]
        assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_no_set_perturbs_both_directions(self):
        fractions = np.asarray([0.5, 0.5, 0.5, 0.5])
        for perturbations in perturbation_sets(fractions, n_probes=50):
            coordinates = [c for c, _ in perturbations]
            assert len(coordinates) == len(set(coordinates))

    def test_sets_are_unique(self):
        fractions = np.random.default_rng(1).uniform(size=6)
        sets = perturbation_sets(fractions, n_probes=40)
        canon = [tuple(sorted(s)) for s in sets]
        assert len(canon) == len(set(canon))

    def test_zero_probes(self):
        assert perturbation_sets(np.asarray([0.5]), 0) == []

    def test_exhausts_small_space(self):
        # One coordinate: only two valid sets exist ({-1} and {+1}).
        sets = perturbation_sets(np.asarray([0.3]), n_probes=10)
        assert len(sets) == 2
        assert sorted(tuple(s[0]) for s in sets) == [(0, -1), (0, 1)]

    @pytest.mark.parametrize(
        "fractions,probes",
        [
            (np.asarray([[0.5]]), 1),
            (np.asarray([1.5]), 1),
            (np.asarray([-0.1]), 1),
            (np.asarray([0.5]), -1),
            (np.asarray([]), 1),
        ],
    )
    def test_invalid_inputs_rejected(self, fractions, probes):
        with pytest.raises(ValidationError):
            perturbation_sets(fractions, probes)

    @settings(max_examples=50, deadline=None)
    @given(
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=0.999), min_size=1, max_size=8
        ),
        n_probes=st.integers(min_value=0, max_value=20),
    )
    def test_validity_and_order_always_hold(self, fractions, n_probes):
        fractions = np.asarray(fractions)
        sets = perturbation_sets(fractions, n_probes)
        assert len(sets) <= n_probes
        previous = -1.0
        for perturbations in sets:
            coordinates = [c for c, _ in perturbations]
            assert len(coordinates) == len(set(coordinates))
            cost = sum(
                (1.0 - fractions[c]) ** 2 if d > 0 else fractions[c] ** 2
                for c, d in perturbations
            )
            assert cost >= previous - 1e-9
            previous = cost


@pytest.fixture(scope="module")
def small_index():
    rng = np.random.default_rng(0)
    centers = rng.normal(scale=8.0, size=(5, 6))
    data = np.concatenate(
        [center + rng.normal(scale=0.4, size=(30, 6)) for center in centers]
    )
    # Deliberately few tables: the regime where multi-probe pays off.
    return data, LSHIndex(data, r=2.0, n_projections=10, n_tables=3, seed=0)


class TestMultiProbeQuerier:
    def test_superset_of_plain_query(self, small_index):
        data, index = small_index
        querier = MultiProbeQuerier(index, n_probes=6)
        for i in (0, 40, 90):
            plain = set(index.query_point(data[i]).tolist())
            probed = set(querier.query_point(data[i]).tolist())
            assert plain <= probed

    def test_zero_probes_equals_plain_query(self, small_index):
        data, index = small_index
        querier = MultiProbeQuerier(index, n_probes=0)
        for i in (3, 77):
            np.testing.assert_array_equal(
                querier.query_point(data[i]), index.query_point(data[i])
            )

    def test_probing_improves_recall(self, small_index):
        data, index = small_index
        querier = MultiProbeQuerier(index, n_probes=16)
        plain_hits = probed_hits = 0
        for i in range(0, 150, 5):
            cluster = set(range(30 * (i // 30), 30 * (i // 30) + 30)) - {i}
            plain_hits += len(
                set(index.query_item(i).tolist()) & cluster
            )
            probed = set(querier.query_item(i).tolist()) - {i}
            probed_hits += len(probed & cluster)
        assert probed_hits >= plain_hits

    def test_query_item_excludes_self(self, small_index):
        _, index = small_index
        querier = MultiProbeQuerier(index, n_probes=4)
        assert 10 not in querier.query_item(10).tolist()

    def test_respects_active_mask(self, small_index):
        data, index = small_index
        querier = MultiProbeQuerier(index, n_probes=8)
        index.deactivate(np.arange(0, 30))
        try:
            result = querier.query_point(data[0])
            assert not set(result.tolist()) & set(range(30))
        finally:
            index.reactivate_all()

    def test_invalid_inputs_rejected(self, small_index):
        _, index = small_index
        with pytest.raises(ValidationError):
            MultiProbeQuerier(index, n_probes=-1)
        querier = MultiProbeQuerier(index)
        with pytest.raises(ValidationError):
            querier.query_point(np.zeros(3))
        with pytest.raises(IndexError):
            querier.query_item(10_000)


class TestQueryPointsGrouped:
    """``LSHIndex.query_points_grouped`` with the querier's probe keys."""

    def test_matches_per_point_loop(self, small_index):
        data, index = small_index
        rng = np.random.default_rng(3)
        querier = MultiProbeQuerier(index, n_probes=5)
        points = data[rng.choice(data.shape[0], size=12, replace=False)]
        points = points + rng.normal(scale=0.3, size=points.shape)
        grouped = index.query_points_grouped(points, probe=querier.probe_keys)
        assert len(grouped) == 12
        for i in range(12):
            np.testing.assert_array_equal(
                grouped[i], querier.query_point(points[i])
            )

    def test_respects_active_mask(self, small_index):
        data, index = small_index
        index.deactivate(np.arange(0, 25))
        try:
            querier = MultiProbeQuerier(index, n_probes=4)
            grouped = index.query_points_grouped(
                data[:6], probe=querier.probe_keys
            )
            for candidates in grouped:
                assert candidates.size == 0 or candidates.min() >= 25
                np.testing.assert_array_equal(
                    candidates, np.unique(candidates)
                )
        finally:
            index.reactivate_all()

    def test_zero_probes_equals_plain_grouped(self, small_index):
        data, index = small_index
        points = data[::40] + 0.1
        plain = index.query_points_grouped(points)
        probed = index.query_points_grouped(
            points, probe=MultiProbeQuerier(index, n_probes=0).probe_keys
        )
        for a, b in zip(plain, probed):
            np.testing.assert_array_equal(a, b)

    def test_empty_batch(self, small_index):
        _, index = small_index
        probe = MultiProbeQuerier(index).probe_keys
        assert index.query_points_grouped(np.empty((0, 6)), probe=probe) == []

    def test_dim_mismatch_raises(self, small_index):
        _, index = small_index
        probe = MultiProbeQuerier(index).probe_keys
        with pytest.raises(ValidationError):
            index.query_points_grouped(np.zeros((2, 3)), probe=probe)


class TestVectorizedEnumeration:
    """The hoisted candidate enumeration behind the batch probe path."""

    def test_candidate_sets_validate_inputs(self):
        from repro.lsh.multiprobe import probe_candidate_sets

        with pytest.raises(ValidationError):
            probe_candidate_sets(0, 4)
        with pytest.raises(ValidationError):
            probe_candidate_sets(8, -1)
        assert probe_candidate_sets(8, 0) == []

    def test_candidate_sets_cover_heap_output(self):
        """Every heap-enumerated set appears in the candidate family."""
        from repro.lsh.multiprobe import probe_candidate_sets

        rng = np.random.default_rng(0)
        for n_probes in (1, 4, 9):
            candidates = set(probe_candidate_sets(12, n_probes))
            for _ in range(20):
                fractions = rng.uniform(0.001, 0.999, size=6)
                scores = np.concatenate(
                    [fractions**2, (1.0 - fractions) ** 2]
                )
                order = np.argsort(scores, kind="stable")
                rank_of = np.empty(12, dtype=np.intp)
                rank_of[order] = np.arange(12)
                for sets in perturbation_sets(fractions, n_probes):
                    positions = tuple(
                        sorted(
                            int(rank_of[c if d < 0 else c + 6])
                            for c, d in sets
                        )
                    )
                    assert positions in candidates

    def test_partner_positions_mirror(self):
        """Sorted-rank mirror symmetry, the hoist's validity premise."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            fractions = rng.uniform(0.0, 1.0, size=9)
            scores = np.concatenate([fractions**2, (1.0 - fractions) ** 2])
            order = np.argsort(scores, kind="stable")
            rank_of = np.empty(18, dtype=np.intp)
            rank_of[order] = np.arange(18)
            for c in range(9):
                assert rank_of[c] + rank_of[c + 9] == 17

    @pytest.mark.parametrize("n_probes", [1, 3, 8, 20])
    def test_batch_keys_match_heap_enumeration(self, small_index, n_probes):
        data, index = small_index
        rng = np.random.default_rng(7)
        points = data[rng.choice(data.shape[0], size=25, replace=False)]
        points = points + rng.normal(scale=0.2, size=points.shape)
        fast = MultiProbeQuerier(index, n_probes=n_probes)
        slow = MultiProbeQuerier(index, n_probes=n_probes)
        slow._probe_plan = lambda mu: None  # force the per-query heap
        state = index.export_state()
        base_keys = lsh_reference_keys(state, index.r, points)
        for proj, offsets, mixer, base in zip(
            state["projections"], state["hash_offsets"], state["mixers"],
            base_keys,
        ):
            coords = (points @ proj.T + offsets) / index.r
            fractions = coords - np.floor(coords)
            mixers = np.broadcast_to(mixer, fractions.shape)
            np.testing.assert_array_equal(
                fast.probe_keys(fractions, base, mixers),
                slow.probe_keys(fractions, base, mixers),
            )

    def test_heap_fallback_above_cap(self, small_index):
        from repro.lsh import multiprobe as mp

        _, index = small_index
        querier = MultiProbeQuerier(
            index, n_probes=mp._VECTOR_PROBE_CAP + 1
        )
        assert querier._probe_plan(10) is None

    def test_plan_cached_per_family(self, small_index):
        _, index = small_index
        querier = MultiProbeQuerier(index, n_probes=4)
        plan = querier._probe_plan(10)
        assert querier._probe_plan(10) is plan
