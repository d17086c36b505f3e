"""Equivalence matrix for the LID loop (repro.dynamics.lid_kernel).

``lid_dynamics`` (the production run-until-miss loop, ``run_fused``)
must produce bit-identical ``x``/``g`` trajectories, iteration counts,
``entries_computed`` and LRU recency order to the historical loop
``run_reference`` — over random substrates, under eviction pressure
(``budget_entries``), and across mid-run ``extend`` /
``restrict_to_support`` boundaries.
"""

import numpy as np
import pytest

from repro.affinity.kernel import LaplacianKernel
from repro.affinity.oracle import AffinityOracle
from repro.core.alid import ALID
from repro.core.config import ALIDConfig
from repro.cli import main
from repro.datasets.synthetic import make_synthetic_mixture
from repro.dynamics import lid, lid_kernel
from repro.dynamics.lid import LIDState, lid_dynamics
from repro.dynamics.lid_kernel import run_fused, run_reference
from repro.exceptions import BudgetExceededError

# The loop each equivalence test pins against run_reference: the one
# lid_dynamics runs.  Parametrized so every test id names it.
NON_REFERENCE = ["fused"]


def _run(name, state, *, max_iter, tol):
    """``"reference"`` runs the oracle loop; anything else lid_dynamics."""
    if name == "reference":
        return run_reference(state, max_iter, tol)
    return lid_dynamics(state, max_iter=max_iter, tol=tol)


def _substrate(seed, n=120, dim=8, scale=1.0):
    rng = np.random.default_rng(seed)
    data = rng.normal(scale=scale, size=(n, dim))
    return data, rng


def _make_state(oracle, rng, beta_n, uniform=True):
    beta = np.sort(
        rng.choice(oracle.n, size=beta_n, replace=False)
    ).astype(np.intp)
    if uniform:
        x = np.full(beta_n, 1.0 / beta_n)
    else:
        x = rng.random(beta_n)
        x /= x.sum()
    state = LIDState(oracle, beta, x, np.zeros(beta_n))
    state.g = state.recompute_g()
    return state


def _fingerprint(state, oracle, out):
    """Everything the equivalence contract pins, as one tuple."""
    return (
        out,
        state.x.copy(),
        state.g.copy(),
        oracle.counters.entries_computed,
        oracle.counters.entries_stored_current,
        list(state._cache._use),
        state._cache.column_ids().tolist(),
    )


def _assert_identical(reference, candidate, label):
    r_out, r_x, r_g, r_e, r_s, r_use, r_cols = reference
    c_out, c_x, c_g, c_e, c_s, c_use, c_cols = candidate
    assert c_out == r_out, f"{label}: (iterations, converged) differ"
    np.testing.assert_array_equal(c_x, r_x, err_msg=f"{label}: x differs")
    np.testing.assert_array_equal(c_g, r_g, err_msg=f"{label}: g differs")
    assert c_e == r_e, f"{label}: entries_computed differ"
    assert c_s == r_s, f"{label}: entries_stored differ"
    assert c_use == r_use, f"{label}: LRU recency order differs"
    assert c_cols == r_cols, f"{label}: cached column set differs"


class TestRetiredKnob:
    """The loop is no longer a choice: config and CLI refuse to name it."""

    @pytest.mark.parametrize("name", ["reference", "fused", "numba"])
    def test_config_refuses_lid_kernel(self, name):
        with pytest.raises(TypeError):
            ALIDConfig(lid_kernel=name)

    @pytest.mark.parametrize("command", ["detect", "snapshot"])
    def test_cli_refuses_lid_kernel(self, command, tmp_path):
        argv = [command, "--input", str(tmp_path / "ds.npz")]
        if command == "snapshot":
            argv += ["--out", str(tmp_path / "snap")]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--lid-kernel", "fused"])
        assert exc.value.code == 2

    def test_lid_dynamics_runs_the_fused_loop(self, monkeypatch):
        calls = []

        def spy(state, max_iter, tol):
            calls.append((max_iter, tol))
            return run_fused(state, max_iter, tol)

        monkeypatch.setattr(lid, "run_fused", spy)
        data, rng = _substrate(0, n=20)
        oracle = AffinityOracle(data, LaplacianKernel(k=1.0, p=2.0))
        lid_dynamics(_make_state(oracle, rng, 5), max_iter=7, tol=1e-9)
        assert calls == [(7, 1e-9)]


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("kernel", NON_REFERENCE)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_substrates(self, kernel, seed):
        data, _ = _substrate(seed, n=150, dim=6, scale=2.0)
        runs = {}
        for name in ("reference", kernel):
            rng = np.random.default_rng(seed + 1000)
            oracle = AffinityOracle(data, LaplacianKernel(k=1.0, p=2.0))
            state = _make_state(oracle, rng, 40, uniform=seed % 2 == 0)
            out = _run(name, state, max_iter=500, tol=1e-9)
            runs[name] = _fingerprint(state, oracle, out)
            state.release()
        _assert_identical(runs["reference"], runs[kernel], kernel)

    @pytest.mark.parametrize("kernel", NON_REFERENCE)
    def test_eviction_under_budget_entries(self, kernel):
        data, _ = _substrate(7, n=100, dim=5)
        runs = {}
        for name in ("reference", kernel):
            rng = np.random.default_rng(99)
            # Budget holds ~12 columns of a 30-row local range: the run
            # continuously evicts, so recency-order equivalence is load
            # bearing (a wrong LRU order changes the victims, the misses
            # and therefore entries_computed).
            oracle = AffinityOracle(
                data, LaplacianKernel(k=1.0, p=2.0), budget_entries=360
            )
            state = _make_state(oracle, rng, 30)
            out = _run(name, state, max_iter=800, tol=1e-10)
            runs[name] = _fingerprint(state, oracle, out)
            state.release()
        _assert_identical(runs["reference"], runs[kernel], kernel)

    @pytest.mark.parametrize("kernel", NON_REFERENCE)
    def test_mid_run_extend_and_restrict_boundaries(self, kernel):
        """Alternate LID runs with the Eq. 17 local-range maintenance."""
        data, _ = _substrate(13, n=140, dim=6, scale=1.5)
        runs = {}
        for name in ("reference", kernel):
            rng = np.random.default_rng(42)
            oracle = AffinityOracle(data, LaplacianKernel(k=1.2, p=2.0))
            state = _make_state(oracle, rng, 18)
            outs = []
            for _round in range(4):
                outs.append(
                    _run(name, state, max_iter=120, tol=1e-9)
                )
                state.restrict_to_support()
                fresh = np.setdiff1d(
                    rng.choice(140, size=20, replace=False), state.beta
                )
                state.extend(fresh.astype(np.intp))
            outs.append(
                _run(name, state, max_iter=400, tol=1e-9)
            )
            runs[name] = _fingerprint(state, oracle, tuple(outs))
            state.release()
        _assert_identical(runs["reference"], runs[kernel], kernel)

    @pytest.mark.parametrize("kernel", NON_REFERENCE)
    def test_replay_flush_path(self, kernel, monkeypatch):
        """A tiny replay buffer must not change the recency contract."""
        monkeypatch.setattr(lid_kernel, "_REPLAY_FLUSH", 3)
        data, _ = _substrate(17, n=90, dim=5)
        runs = {}
        for name in ("reference", kernel):
            rng = np.random.default_rng(2)
            oracle = AffinityOracle(data, LaplacianKernel(k=1.0, p=2.0))
            state = _make_state(oracle, rng, 24)
            out = _run(name, state, max_iter=300, tol=1e-10)
            runs[name] = _fingerprint(state, oracle, out)
            state.release()
        _assert_identical(runs["reference"], runs[kernel], kernel)

    @pytest.mark.parametrize("kernel", NON_REFERENCE)
    def test_budget_exhaustion_leaves_identical_state(self, kernel):
        """A mid-run BudgetExceededError must surface identical progress."""
        data, _ = _substrate(23, n=60, dim=4)
        runs = {}
        for name in ("reference", kernel):
            rng = np.random.default_rng(8)
            # Budget below one column of the 20-row local range: the
            # first miss raises after the run already made progress.
            oracle = AffinityOracle(
                data, LaplacianKernel(k=1.0, p=2.0), budget_entries=10
            )
            state = _make_state(oracle, rng, 20)
            with pytest.raises(BudgetExceededError):
                _run(name, state, max_iter=200, tol=1e-10)
            runs[name] = _fingerprint(state, oracle, None)
        _assert_identical(runs["reference"], runs[kernel], kernel)

    @pytest.mark.parametrize("kernel", NON_REFERENCE)
    def test_degenerate_start_delegates_to_reference(self, kernel):
        """Dirty input (negative weight) follows reference semantics."""
        data, _ = _substrate(29, n=40, dim=4)
        runs = {}
        for name in ("reference", kernel):
            rng = np.random.default_rng(4)
            oracle = AffinityOracle(data, LaplacianKernel(k=1.0, p=2.0))
            beta = np.sort(rng.choice(40, size=10, replace=False)).astype(
                np.intp
            )
            x = np.full(10, 1.0 / 9)
            x[3] = -1.0 / 9  # off-simplex start
            state = LIDState(oracle, beta, x, np.zeros(10))
            state.g = state.recompute_g()
            out = _run(name, state, max_iter=100, tol=1e-9)
            runs[name] = _fingerprint(state, oracle, out)
            state.release()
        _assert_identical(runs["reference"], runs[kernel], kernel)

    @pytest.mark.parametrize("kernel", NON_REFERENCE)
    def test_single_vertex_range(self, kernel):
        data, _ = _substrate(31, n=30, dim=4)
        for name in ("reference", kernel):
            oracle = AffinityOracle(data, LaplacianKernel(k=1.0, p=2.0))
            state = LIDState.from_seed(oracle, 3)
            out = _run(name, state, max_iter=50, tol=1e-9)
            assert out == (0, True)
            state.release()


class TestDetectionEquivalence:
    @pytest.mark.parametrize("kernel", NON_REFERENCE)
    def test_full_fit_identical_detections(self, kernel, monkeypatch):
        dataset = make_synthetic_mixture(
            n=400, regime="bounded", bound=200, n_clusters=5, dim=12, seed=6
        )
        results = {}
        for name in ("reference", kernel):
            with monkeypatch.context() as patch:
                if name == "reference":
                    patch.setattr(lid, "run_fused", run_reference)
                results[name] = ALID(ALIDConfig(seed=6)).fit(dataset.data)
        ref, cand = results["reference"], results[kernel]
        assert (
            cand.counters.entries_computed == ref.counters.entries_computed
        )
        assert (
            cand.counters.entries_stored_peak
            == ref.counters.entries_stored_peak
        )
        assert len(cand.all_clusters) == len(ref.all_clusters)
        for a, b in zip(ref.all_clusters, cand.all_clusters):
            np.testing.assert_array_equal(a.members, b.members)
            np.testing.assert_array_equal(a.weights, b.weights)
            assert a.density == b.density
            assert a.label == b.label
            assert a.seed == b.seed

    @pytest.mark.parametrize("kernel", NON_REFERENCE)
    def test_budgeted_fit_identical(self, kernel, monkeypatch):
        """Fig. 9 regime: eviction-coupled detection stays backend-free."""
        dataset = make_synthetic_mixture(
            n=250, regime="bounded", bound=125, n_clusters=4, dim=8, seed=9
        )
        results = {}
        for name in ("reference", kernel):
            with monkeypatch.context() as patch:
                if name == "reference":
                    patch.setattr(lid, "run_fused", run_reference)
                results[name] = ALID(ALIDConfig(seed=9)).fit(
                    dataset.data, budget_entries=4000
                )
        ref, cand = results["reference"], results[kernel]
        assert (
            cand.counters.entries_computed == ref.counters.entries_computed
        )
        for a, b in zip(ref.all_clusters, cand.all_clusters):
            np.testing.assert_array_equal(a.members, b.members)
            assert a.density == b.density


class TestResidentViewContract:
    def test_resident_view_maps_positions_to_slots(self):
        data, rng = _substrate(37, n=50, dim=4)
        oracle = AffinityOracle(data, LaplacianKernel(k=1.0, p=2.0))
        state = _make_state(oracle, rng, 12)
        cache = state._cache
        wanted = state.beta[[1, 4, 7]]
        state.prefetch_columns(wanted)
        buf, slots = cache.resident_view()
        assert slots.shape == (12,)
        for pos in range(12):
            j = int(state.beta[pos])
            if j in cache:
                assert slots[pos] == cache.slot_index(j)
                np.testing.assert_array_equal(
                    buf[slots[pos]], cache.peek(j)
                )
            else:
                assert slots[pos] == -1
        state.release()

    def test_touch_sequence_matches_get_order(self):
        data, _ = _substrate(41, n=40, dim=4)
        fp = {}
        for mode in ("get", "batch"):
            rng = np.random.default_rng(41)
            oracle = AffinityOracle(data, LaplacianKernel(k=1.0, p=2.0))
            state = _make_state(oracle, rng, 8)
            js = [int(state.beta[i]) for i in (0, 3, 5, 3, 0, 2)]
            state.prefetch_columns(np.asarray(js, dtype=np.intp))
            if mode == "get":
                for j in js:
                    state._cache.get(j)
            else:
                state._cache.touch_sequence(js)
            fp[mode] = list(state._cache._use)
            state.release()
        assert fp["get"] == fp["batch"]

    def test_touch_sequence_ignores_non_resident(self):
        data, rng = _substrate(43, n=30, dim=4)
        oracle = AffinityOracle(data, LaplacianKernel(k=1.0, p=2.0))
        state = _make_state(oracle, rng, 6)
        cache = state._cache
        cache.touch_sequence([int(state.beta[0]), 10**6 % 30])
        assert cache.n_columns == 0
        assert list(cache._use) == []
        state.release()
