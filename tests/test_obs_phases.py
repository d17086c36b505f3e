"""Tests for fit-phase profiling (repro.obs.phases) and its hook sites.

The hooks must be strictly observational: a fit run under an active
profiler produces bit-identical clusters and identical work accounting
to the same fit without one.
"""

import numpy as np
import pytest

from repro.core.alid import ALID
from repro.core.config import ALIDConfig
from repro.datasets.synthetic import make_synthetic_mixture
from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.phases import PHASES, PhaseProfiler, active


class TestActivation:
    def test_inactive_by_default(self):
        assert active() is None

    def test_context_manager_activates(self):
        prof = PhaseProfiler()
        with prof:
            assert active() is prof
        assert active() is None

    def test_nesting_restores_outer(self):
        outer, inner = PhaseProfiler(), PhaseProfiler()
        with outer:
            with inner:
                assert active() is inner
            assert active() is outer

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with PhaseProfiler():
                raise RuntimeError("boom")
        assert active() is None


class TestRecording:
    def test_record_accumulates(self):
        prof = PhaseProfiler()
        prof.record("lid", wall=0.5, entries=100, iterations=7)
        prof.record("lid", wall=0.25, entries=50, iterations=3)
        summary = prof.summary()
        assert summary["lid"]["calls"] == 2
        assert summary["lid"]["wall_seconds"] == pytest.approx(0.75)
        assert summary["lid"]["entries"] == 150
        assert summary["lid"]["iterations"] == 10

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValidationError):
            PhaseProfiler().record("warp_drive")

    def test_phase_context_times_the_block(self):
        prof = PhaseProfiler()
        with prof.phase("civs", candidates=12):
            pass
        summary = prof.summary()
        assert summary["civs"]["calls"] == 1
        assert summary["civs"]["wall_seconds"] >= 0.0
        assert summary["civs"]["candidates"] == 12

    def test_metrics_land_in_supplied_registry(self):
        reg = MetricsRegistry()
        prof = PhaseProfiler(registry=reg)
        prof.record("extend", entries=42)
        metric = reg.get("fit_phase_entries_total", phase="extend")
        assert metric.value == 42

    def test_phase_keys_cite_paper_sections(self):
        assert set(PHASES) == {
            "lid", "seed_round", "civs", "extend", "cache"
        }
        assert "Alg. 1" in PHASES["lid"]
        assert "Alg. 2" in PHASES["seed_round"]
        assert "Eq. 17" in PHASES["extend"]
        assert "4.5" in PHASES["cache"]


@pytest.fixture(scope="module")
def mixture():
    return make_synthetic_mixture(
        n=240, regime="bounded", bound=120, n_clusters=4, dim=8, seed=3
    )


class TestFitHooks:
    def test_fit_records_every_phase(self, mixture):
        prof = PhaseProfiler()
        with prof:
            result = ALID(ALIDConfig(seed=3)).fit(mixture.data)
        summary = prof.summary()
        for phase in ("lid", "seed_round", "civs", "extend", "cache"):
            assert phase in summary, f"phase {phase} never recorded"
            assert summary[phase]["calls"] > 0
        assert result.n_clusters > 0

    def test_seed_round_entries_cover_all_fit_work(self, mixture):
        """Every affinity entry the fit computes is charged inside some
        peeling round, so the seed_round phase totals the fit's work;
        one record per round, and every peel falls inside one."""
        prof = PhaseProfiler()
        with prof:
            result = ALID(ALIDConfig(seed=3)).fit(mixture.data)
        summary = prof.summary()
        assert (
            summary["seed_round"]["entries"]
            == result.counters.entries_computed
        )
        assert summary["seed_round"]["calls"] == result.metadata["seed_rounds"]
        assert summary["seed_round"]["seeds"] == len(result.all_clusters)

    def test_profiler_does_not_change_the_fit(self, mixture):
        plain = ALID(ALIDConfig(seed=3)).fit(mixture.data)
        with PhaseProfiler():
            profiled = ALID(ALIDConfig(seed=3)).fit(mixture.data)
        assert plain.counters.entries_computed == (
            profiled.counters.entries_computed
        )
        assert len(plain.all_clusters) == len(profiled.all_clusters)
        for a, b in zip(plain.all_clusters, profiled.all_clusters):
            assert np.array_equal(a.members, b.members)
            assert a.density == b.density

    def test_cache_phase_reports_hit_traffic(self, mixture):
        prof = PhaseProfiler()
        with prof:
            ALID(ALIDConfig(seed=3)).fit(mixture.data)
        cache = prof.summary()["cache"]
        assert cache["hits"] > 0
        assert cache["misses"] > 0

    def test_cache_evictions_count_only_budget_drops(self):
        """Support restrictions drop columns but are not evictions.

        The hot-path lane's tiny fit (n=600, seed 7) without a budget
        never evicts; its restrictions used to read as 14 evictions.
        """
        data = make_synthetic_mixture(
            n=600, regime="bounded", bound=300, n_clusters=6, dim=16, seed=7
        ).data
        prof = PhaseProfiler()
        with prof:
            ALID(ALIDConfig(seed=7)).fit(data)
        cache = prof.summary()["cache"]
        assert (cache["hits"], cache["misses"]) == (5265, 302)
        assert cache.get("evictions", 0) == 0
        with prof:
            ALID(ALIDConfig(seed=7)).fit(data, budget_entries=3000)
        assert prof.summary()["cache"]["evictions"] > 0
