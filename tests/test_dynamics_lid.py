"""Unit tests for LID (paper Alg. 1) — the localized dynamics.

The central correctness property: LID restricted to the *whole* index
range must reach the same dense subgraph as full-matrix IID, while
computing only the columns it touches.
"""

import numpy as np
import pytest

from repro.affinity.kernel import LaplacianKernel
from repro.affinity.oracle import AffinityOracle
from repro.dynamics.iid import iid_dynamics
from repro.dynamics.lid import LIDState, lid_dynamics
from repro.exceptions import ValidationError


@pytest.fixture
def lid_oracle(blob_data):
    data, _ = blob_data
    return AffinityOracle(data, LaplacianKernel(k=0.45))


class TestLIDState:
    def test_from_seed(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 7)
        assert state.size == 1
        assert state.beta[0] == 7
        assert state.x[0] == 1.0
        assert state.g[0] == 0.0
        assert state.density() == 0.0

    def test_rejects_duplicate_beta(self, lid_oracle):
        with pytest.raises(ValidationError, match="duplicate"):
            LIDState(lid_oracle, np.asarray([1, 1]), np.asarray([0.5, 0.5]),
                     np.asarray([0.0, 0.0]))

    def test_rejects_misaligned(self, lid_oracle):
        with pytest.raises(ValidationError, match="align"):
            LIDState(lid_oracle, np.asarray([1, 2]), np.asarray([1.0]),
                     np.asarray([0.0, 0.0]))

    def test_column_cached_once(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.asarray([1, 2, 3]))
        before = lid_oracle.counters.entries_computed
        state.column(1)
        mid = lid_oracle.counters.entries_computed
        state.column(1)  # cached: no new work
        assert lid_oracle.counters.entries_computed == mid
        assert mid > before

    def test_column_aligned_with_beta(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.asarray([5, 9]))
        col = state.column(5)
        expected = lid_oracle.column(5, rows=state.beta)
        assert np.allclose(col, expected)
        assert col[1] == 0.0  # self-affinity at position of 5

    def test_extend_updates_g(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.asarray([1, 2]))
        # g for new vertices must equal A[psi, alpha] @ x_alpha.
        expected = lid_oracle.block(
            np.asarray([1, 2]), np.asarray([0])
        ) @ np.asarray([1.0])
        assert np.allclose(state.g[1:], expected)

    def test_extend_ignores_existing(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.asarray([1]))
        size = state.size
        state.extend(np.asarray([0, 1]))
        assert state.size == size

    def test_extend_rejects_duplicate_psi(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 0)
        with pytest.raises(ValidationError, match="duplicate"):
            state.extend(np.asarray([5, 5, 6]))
        assert state.beta.tolist() == [0]
        with pytest.raises(ValidationError, match="duplicate"):
            state.extend(np.asarray([0, 0]))

    def test_column_lookup_maps_ids_through_beta(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 4)
        state.extend(np.asarray([9, 2]))
        assert not state.has_cached(2) and state.cached_column(2) is None
        col = state.column(2).copy()
        assert state.has_cached(2)
        np.testing.assert_array_equal(state.cached_column(2), col)
        assert np.allclose(col, lid_oracle.column(2, rows=state.beta))
        # A vertex outside beta has no cached column and no fetch.
        assert not state.has_cached(7) and state.cached_column(7) is None
        with pytest.raises(ValidationError, match="not in beta"):
            state.column(7)

    def test_extend_empty_noop(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.asarray([], dtype=np.intp))
        assert state.size == 1

    def test_extend_extends_cached_columns(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.asarray([1, 2]))
        col_before = state.column(1).copy()
        state.extend(np.asarray([3]))
        col_after = state.cached_column(1)
        assert col_after.size == state.size
        assert np.allclose(col_after[:3], col_before)
        assert col_after[3] == lid_oracle.column(1, rows=np.asarray([3]))[0]

    def test_restrict_to_support(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.asarray([1, 2, 3]))
        # give weight to 0 and 2 only
        state.x = np.asarray([0.5, 0.0, 0.5, 0.0])
        state.g = state.recompute_g()
        state.restrict_to_support()
        assert set(state.beta) == {0, 2}
        assert np.allclose(state.g, state.recompute_g())

    def test_restrict_prunes_column_cache(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.asarray([1, 2, 3]))
        state.column(1)
        state.column(2)
        state.x = np.asarray([0.5, 0.0, 0.5, 0.0])
        state.g = state.recompute_g()
        stored_before = lid_oracle.counters.entries_stored_current
        state.restrict_to_support()
        assert not state.has_cached(1)
        assert lid_oracle.counters.entries_stored_current < stored_before

    def test_release_frees_storage(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.asarray([1, 2, 3]))
        state.column(1)
        state.column(2)
        assert lid_oracle.counters.entries_stored_current > 0
        state.release()
        assert lid_oracle.counters.entries_stored_current == 0

    def test_support_helpers(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 4)
        state.extend(np.asarray([7]))
        assert list(state.support_global()) == [4]
        assert list(state.support_positions()) == [0]


class TestLIDUnderBudget:
    def test_dynamics_survive_tight_budget_via_eviction(self, blob_data):
        """A storage budget forces LRU eviction, not failure, and the
        dynamics land on the same dense subgraph as the unbudgeted run."""
        data, _ = blob_data
        free = AffinityOracle(data, LaplacianKernel(k=0.45))
        # Room for only ~3 full-range columns at |beta| = 30.
        tight = AffinityOracle(
            data, LaplacianKernel(k=0.45), budget_entries=100
        )
        results = []
        for oracle in (free, tight):
            state = LIDState.from_seed(oracle, 0)
            state.extend(np.arange(1, 30))
            lid_dynamics(state, max_iter=500)
            results.append(
                (set(state.support_global().tolist()), state.density())
            )
            state.release()
            assert oracle.counters.entries_stored_current == 0
        assert results[0][0] == results[1][0]
        assert results[0][1] == pytest.approx(results[1][1])
        # The budget was respected throughout...
        assert tight.counters.entries_stored_peak <= 100
        # ...at the price of recomputing evicted columns.
        assert (
            tight.counters.entries_computed
            >= free.counters.entries_computed
        )


class TestLIDDynamics:
    def test_matches_full_iid_on_global_range(self, lid_oracle):
        """LID over beta = everything == IID on the full matrix."""
        n = lid_oracle.n
        full = lid_oracle.kernel.block(lid_oracle.data, zero_diagonal=True)
        iid_res = iid_dynamics(full, np.full(n, 1.0 / n), tol=1e-10)

        state = LIDState(
            lid_oracle,
            np.arange(n),
            np.full(n, 1.0 / n),
            full @ np.full(n, 1.0 / n),
        )
        lid_dynamics(state, tol=1e-10)
        assert state.density() == pytest.approx(iid_res.density, abs=1e-6)
        assert set(state.support_global()) == set(iid_res.support())

    def test_density_monotone(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.arange(1, 25))
        prev = state.density()
        for _ in range(100):
            _, converged = lid_dynamics(state, max_iter=1)
            now = state.density()
            assert now >= prev - 1e-10
            prev = now
            if converged:
                break

    def test_g_consistent_after_dynamics(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.arange(1, 30))
        lid_dynamics(state, max_iter=200)
        assert np.allclose(state.g, state.recompute_g(), atol=1e-8)

    def test_converged_local_immunity(self, lid_oracle):
        """Theorem 1, locally: no vertex in beta is infective at the end."""
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.arange(1, 40))
        _, converged = lid_dynamics(state, max_iter=2000, tol=1e-9)
        assert converged
        pay = state.payoffs()
        assert pay.max() <= 1e-6
        assert pay[state.x > 0].min() >= -1e-6

    def test_singleton_converges_immediately(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 3)
        iterations, converged = lid_dynamics(state)
        assert converged
        assert iterations == 0
        assert state.density() == 0.0

    def test_x_stays_on_simplex(self, lid_oracle):
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.arange(1, 20))
        lid_dynamics(state, max_iter=500)
        assert state.x.min() >= 0.0
        assert state.x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_only_local_columns_computed(self, lid_oracle, blob_data):
        """LID on a 10-vertex range must not touch the other 50 items."""
        state = LIDState.from_seed(lid_oracle, 0)
        state.extend(np.arange(1, 10))
        before = lid_oracle.counters.entries_computed
        lid_dynamics(state, max_iter=500)
        spent = lid_oracle.counters.entries_computed - before
        # At most |beta| entries per distinct column fetched: <= 10 * 10.
        assert spent <= 100
