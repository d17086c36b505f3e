"""ALID: Approximate Localized Infection Immunization Dynamics.

This module assembles the three steps of paper Alg. 2 —

1. **LID** (Step 1): localized infection/immunization on the current
   local range ``beta`` (:mod:`repro.dynamics.lid`);
2. **ROI** (Step 2): the double-deck hyperball estimated from the
   converged local dense subgraph (:mod:`repro.core.roi`);
3. **CIVS** (Step 3): LSH retrieval of candidate infective vertices
   inside the ROI (:mod:`repro.core.civs`) which extend ``beta`` for the
   next round —

into a seed run (:class:`_SeedRun`), exposed through
:meth:`ALIDEngine.detect_from_seed` (one seed) and
:meth:`ALIDEngine.detect_cohort` (a block of seeds driven in lockstep
against batched LSH retrievals, PALID's mapper unit), and wraps the
peeling loop of §4.4 (detect, peel, reiterate until everything is
peeled; keep clusters whose density clears the threshold) into the
user-facing :class:`ALID` estimator.

The peel runs in rounds.  Each round peels every noise-isolated seed
the schedule yields as a zero-work singleton (an Alg. 2 run seeded
there can retrieve nothing), and runs Alg. 2 from the first seed with
an active collision.  Each picked seed is checked on its own against
the current active mask, reading only its ``l`` LSH buckets, so the
emitted clusters are exactly those of the paper-literal
one-seed-at-a-time loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.affinity.kernel import LaplacianKernel, suggest_scaling_factor
from repro.affinity.oracle import AffinityOracle
from repro.core.civs import civs_retrieve
from repro.core.config import ALIDConfig
from repro.core.infectivity import infective_mask, item_payoffs
from repro.core.results import Cluster, DetectionResult
from repro.core.roi import estimate_roi, roi_radius
from repro.dynamics.lid import LIDState, lid_dynamics
from repro.exceptions import EmptyDatasetError
from repro.lsh.index import LSHIndex
from repro.obs import phases
from repro.utils.timing import timed
from repro.utils.validation import check_data_matrix

__all__ = ["ALID", "ALIDEngine", "SeedSchedule", "calibrate"]


def calibrate(
    data: np.ndarray, config: ALIDConfig
) -> tuple[LaplacianKernel, LSHIndex]:
    """Kernel scale, LSH segment length and LSH index for *data*.

    The one calibration rule of the fit and of a stream's first batch:
    ``kernel_k = None`` picks the Laplacian scale with
    :func:`~repro.affinity.kernel.suggest_scaling_factor`, ``lsh_r =
    None`` picks ``lsh_r_scale`` times the distance whose affinity is
    ``kernel_target_affinity``, and the index hashes every row of
    *data* (refusing a row it cannot hash with ``ValidationError``).
    """
    k = config.kernel_k
    if k is None:
        k = suggest_scaling_factor(
            data,
            p=config.kernel_p,
            target_affinity=config.kernel_target_affinity,
            seed=config.seed,
        )
    kernel = LaplacianKernel(k=k, p=config.kernel_p)
    lsh_r = config.lsh_r
    if lsh_r is None:
        # Segment length ~10x the intra-cluster distance scale: with
        # 40 concatenated projections, pairs at the intra-cluster scale
        # then collide in a given table with probability ~4%, i.e. ~85%
        # recall over 50 tables, while background-noise pairs (many
        # multiples of the scale away) almost never do.
        lsh_r = config.lsh_r_scale * kernel.distance_from_affinity(
            config.kernel_target_affinity
        )
    index = LSHIndex(
        data,
        r=float(lsh_r),
        n_projections=config.lsh_projections,
        n_tables=config.lsh_tables,
        seed=config.seed,
    )
    return kernel, index


@dataclass
class _SingleDetection:
    """Internal record of one Alg. 2 run."""

    members: np.ndarray
    weights: np.ndarray
    density: float
    outer_iterations: int
    globally_verified: bool


class _SeedRun:
    """One Alg. 2 run, sliced so a cohort can drive many in lockstep.

    The sequential loop of Alg. 2 alternates Step 1+2 (LID + ROI, pure
    per-seed state) with Step 3 (CIVS, whose LSH retrieval batches
    across seeds).  :meth:`step_local` runs Steps 1-2 and returns the
    CIVS query support; :meth:`absorb` consumes the (possibly batched)
    retrieval, applies the stop rules of Theorem 1, and reports whether
    the run is finished.  Driving a single run to completion through
    these two methods reproduces the historical ``detect_from_seed``
    loop exactly — the cohort driver is equivalence-by-construction.
    """

    __slots__ = (
        "engine",
        "seed",
        "state",
        "immune",
        "last_density",
        "c",
        "outer",
        "globally_verified",
        "trace",
        "hard_cap",
        "detection",
        "_center",
        "_radius",
        "_roi_complete",
        "_density",
        "_query_support",
    )

    def __init__(
        self, engine: "ALIDEngine", seed_index: int, trace: list | None = None
    ):
        cfg = engine.config
        self.engine = engine
        self.seed = int(seed_index)
        self.state = LIDState.from_seed(engine.oracle, self.seed)
        self.trace = trace
        self.hard_cap = (
            cfg.max_outer_iterations * 2
            if cfg.verify_global
            else cfg.max_outer_iterations
        )
        # Immunity cache: candidates CIVS retrieved that turned out to be
        # immune against the *current* x_hat.  Immunity only depends on
        # x_hat, so the cache stays valid while the dynamics do not move
        # and saves re-testing the same fringe on every ROI growth round.
        self.immune: set[int] = set()
        self.last_density = -1.0
        self.c = 0
        self.outer = 0
        self.globally_verified = False
        self.detection: _SingleDetection | None = None

    def step_local(self) -> np.ndarray:
        """Run Steps 1-2 of one outer iteration; return the CIVS support.

        Advances the iteration counter, runs the LID dynamics to local
        immunity, restricts to the support, and estimates the ROI
        (Eq. 15/16).  The returned index array is the support the CIVS
        retrieval must query from (Fig. 4(b)); the exact-filter
        geometry is kept on the run for :meth:`absorb`.
        """
        engine = self.engine
        cfg = engine.config
        state = self.state
        self.c += 1
        self.outer = self.c
        # --- Step 1: LID on the current local range -----------------
        lid_dynamics(state, max_iter=cfg.max_lid_iterations, tol=cfg.tol)
        state.restrict_to_support()
        density = state.density()
        if abs(density - self.last_density) > cfg.tol:
            self.immune.clear()
        self.last_density = density
        self._density = density
        alpha = state.beta
        # --- Step 2: estimate the ROI ------------------------------
        if density > 0.0:
            ball = estimate_roi(
                engine.data[alpha], state.x, density, engine.kernel
            )
            self._center = ball.center
            self._radius = roi_radius(
                ball,
                self.c,
                offset=cfg.roi_growth_offset,
                rate=cfg.roi_growth_rate,
            )
            # Prop. 1 only guarantees completeness at the *outer*
            # ball; with an intermediate radius, an empty or immune
            # retrieval does not prove global immunity yet.
            self._roi_complete = self._radius >= ball.r_out * (1.0 - 1e-9)
        else:
            # Singleton subgraph: Eq. 15 is undefined (pi = 0); use
            # the fallback radius around the seed item.  No outer
            # ball exists, so an empty retrieval ends the search.
            self._center = engine.data[self.seed]
            self._radius = engine._initial_radius(self.seed)
            self._roi_complete = True
        # Ablation hook (paper Fig. 4): with civs_single_query the
        # index is queried from the heaviest support item only, i.e.
        # one locality-sensitive region instead of one per support
        # item — the failure mode CIVS was designed to avoid.
        if cfg.extras.get("civs_single_query") and alpha.size > 1:
            heaviest = alpha[int(np.argmax(state.x))]
            query_support = np.asarray([heaviest], dtype=np.intp)
        else:
            query_support = alpha
        self._query_support = query_support
        return query_support

    def absorb(self, candidates: np.ndarray | None = None) -> bool:
        """Run Step 3 (CIVS) and the stop rules; return True when done.

        Parameters
        ----------
        candidates:
            Precomputed LSH collision union for the support returned by
            the matching :meth:`step_local` call (one slice of a
            grouped cohort retrieval), or None to query the index here.
        """
        engine = self.engine
        cfg = engine.config
        state = self.state
        # --- Step 3: CIVS ------------------------------------------
        exclude = (
            np.fromiter(self.immune, dtype=np.intp, count=len(self.immune))
            if self.immune
            else None
        )
        retrieval = civs_retrieve(
            engine.index,
            engine.oracle,
            support=self._query_support,
            center=self._center,
            radius=self._radius,
            delta=cfg.delta,
            exclude=exclude,
            candidates=candidates,
        )
        psi = retrieval.psi
        nothing_infective = psi.size == 0
        if psi.size > 0:
            prev_size = state.size
            state.extend(psi)
            new_pay = state.g[prev_size:] - self._density
            added = state.beta[prev_size:]
            self.immune.update(
                int(j) for j, pay in zip(added, new_pay) if pay <= cfg.tol
            )
            if new_pay.size > 0 and float(new_pay.max()) <= cfg.tol:
                # Every retrieved candidate is already immune; drop
                # them again (they carry zero weight).
                state.restrict_to_support()
                nothing_infective = True
        if self.trace is not None:
            self.trace.append(
                {
                    "c": self.c,
                    "support_size": int(
                        state.support_positions(cfg.support_tol).size
                    ),
                    "beta_size": int(state.size),
                    "density": float(self._density),
                    "radius": float(self._radius),
                    "retrieved": int(psi.size),
                }
            )
        # Stop when x_hat is immune against everything the ROI can
        # ever supply (Theorem 1 via Prop. 1's outer-ball guarantee),
        # or when the paper's iteration budget C runs out.
        stop = (nothing_infective and self._roi_complete) or (
            self.c >= cfg.max_outer_iterations
        )
        if stop:
            if cfg.verify_global and self.c < self.hard_cap:
                # Exact full-range scan (test oracle): resume the
                # dynamics if any infective vertex remains anywhere.
                if engine._verify_and_extend(state, self._density):
                    return self._finish_if_capped()
                self.globally_verified = True
            self._finish()
            return True
        # Otherwise iterate: the logistic schedule (Eq. 16) grows the
        # radius toward the outer ball on the next round.
        return self._finish_if_capped()

    def _finish_if_capped(self) -> bool:
        """Finish when the hard iteration cap is exhausted."""
        if self.c >= self.hard_cap:
            self._finish()
            return True
        return False

    def _finish(self) -> None:
        """Extract the final detection and release the cached columns."""
        cfg = self.engine.config
        state = self.state
        members = state.support_global(cfg.support_tol)
        positions = state.support_positions(cfg.support_tol)
        weights = state.x[positions].copy()
        density = state.density()
        state.release()
        self.detection = _SingleDetection(
            members=members,
            weights=weights,
            density=density,
            outer_iterations=self.outer,
            globally_verified=self.globally_verified,
        )


class ALIDEngine:
    """Shared machinery for one dataset: kernel, oracle, LSH index.

    The peeling loop (:class:`ALID`) runs :meth:`detect_from_seed` and
    the PALID mappers run :meth:`detect_cohort` against one engine,
    mirroring the paper's server-stored hash tables and data items
    (§4.6).

    Parameters
    ----------
    data:
        Data matrix ``(n, d)``; rows are items (the paper's ``V``).
    config:
        Detection configuration; None uses the paper defaults.
    budget_entries:
        Optional simulated-memory cap forwarded to the
        :class:`~repro.affinity.oracle.AffinityOracle` (emulates the
        paper's 12 GB RAM limit in Fig. 9).
    """

    def __init__(
        self,
        data: np.ndarray,
        config: ALIDConfig | None = None,
        *,
        budget_entries: int | None = None,
    ):
        self.config = config or ALIDConfig()
        data = check_data_matrix(data)
        self.kernel, self.index = calibrate(data, self.config)
        self.oracle = AffinityOracle(data, self.kernel,
                                     budget_entries=budget_entries)
        self.lsh_r = self.index.r

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of data items."""
        return self.oracle.n

    @property
    def data(self) -> np.ndarray:
        """The data matrix (rows are items)."""
        return self.oracle.data

    # ------------------------------------------------------------------
    def _initial_radius(self, seed_index: int) -> float:
        """ROI radius for iterations where pi(x)=0 (paper: R = 0.4 at c=1).

        ``initial_radius='auto'`` uses the median distance from the seed to
        its LSH-colliding neighbours, which adapts to the data scale.
        """
        cfg = self.config
        if cfg.initial_radius != "auto":
            return float(cfg.initial_radius)
        neighbors = self.index.query_item(seed_index)
        if neighbors.size == 0:
            # No collisions: fall back to the kernel's half-affinity scale.
            return self.kernel.distance_from_affinity(0.5)
        dists = self.oracle.distances_to_point(
            self.data[seed_index], rows=neighbors
        )
        return float(np.median(dists))

    def detect_from_seed(
        self, seed_index: int, *, trace: list | None = None
    ) -> _SingleDetection:
        """Run paper Alg. 2 from one initial vertex.

        Respects the LSH index's active mask, so peeled items are
        invisible.  Returns the final local dense subgraph; the caller
        decides whether it is dominant (density threshold) and whether to
        peel it.

        Parameters
        ----------
        seed_index:
            Global index of the initial vertex (Alg. 2 line 1:
            ``beta = {i}``, ``x = s_i``).
        trace:
            Pass a list to receive one record per outer iteration
            (support size, local-range size, density, ROI radius) — the
            raw series the Appendix B convergence analysis compares
            against Proposition 2's growth model
            (:mod:`repro.analysis.convergence`).

        Returns
        -------
        _SingleDetection
            Final support, weights, density, and convergence flags.
        """
        run = _SeedRun(self, seed_index, trace=trace)
        while True:
            run.step_local()
            if run.absorb():
                break
        return run.detection

    def detect_cohort(
        self,
        seeds: np.ndarray | list[int],
        *,
        traces: list[list] | None = None,
    ) -> list[_SingleDetection]:
        """Run paper Alg. 2 from several seeds, driven in lockstep.

        Every outer iteration advances all still-running seeds through
        Steps 1-2 (per-seed LID + ROI), then serves **all** their CIVS
        retrievals with one grouped LSH gather
        (:meth:`~repro.lsh.index.LSHIndex.query_items_grouped`) before
        Step 3 absorbs the per-seed slices.  Each seed's trajectory —
        and therefore its detection *and* its oracle work accounting —
        is identical to a standalone :meth:`detect_from_seed` call over
        the same active mask; only the uncharged LSH traffic is fused.

        No item is peeled between the cohort's seeds, so any seed block
        is valid; PALID's mappers are the caller.

        Parameters
        ----------
        seeds:
            Global indices of the initial vertices (one lane each).
        traces:
            Optional per-seed trace lists, aligned with *seeds*.

        Returns
        -------
        list of _SingleDetection
            One detection per seed, in input order.
        """
        runs = [
            _SeedRun(
                self,
                int(seed),
                trace=traces[i] if traces is not None else None,
            )
            for i, seed in enumerate(seeds)
        ]
        live = list(runs)
        while live:
            supports = [run.step_local() for run in live]
            candidate_lists = self.index.query_items_grouped(supports)
            live = [
                run
                for run, candidates in zip(live, candidate_lists)
                if not run.absorb(candidates)
            ]
        return [run.detection for run in runs]

    def _verify_and_extend(self, state: LIDState, density: float) -> bool:
        """Exact full-range infectivity scan (``verify_global=True`` only).

        Computes ``pi(s_j - x, x)`` for every active vertex outside beta
        and extends the local range with the infective ones (up to delta).
        Returns True when something was added, i.e. the dynamics must
        continue.  This is the test-oracle for Theorem 1; benchmarks never
        enable it.
        """
        cfg = self.config
        active = self.index.active_mask
        in_beta = np.zeros(self.n, dtype=bool)
        in_beta[state.beta] = True
        outside = np.flatnonzero(active & ~in_beta)
        if outside.size == 0:
            return False
        alpha_pos = state.support_positions()
        alpha = state.beta[alpha_pos]
        if alpha.size == 0:
            return False
        pay = item_payoffs(
            self.oracle, outside, alpha, state.x[alpha_pos], density
        )
        infective = outside[infective_mask(pay, cfg.tol)]
        if infective.size == 0:
            return False
        if infective.size > cfg.delta:
            order = np.argsort(pay[pay > cfg.tol])[::-1][: cfg.delta]
            infective = infective[order]
        state.extend(infective)
        return True


class SeedSchedule:
    """Order in which the peeling loop picks initial vertices.

    Items in large LSH buckets are likely members of dominant clusters
    (the observation PALID's sampling is built on, §4.6), so we visit
    them first; remaining items follow in index order.  Given *items*,
    the schedule visits only those, in the order the full schedule
    would.
    """

    def __init__(self, index: LSHIndex, items: np.ndarray | None = None):
        # Score = ACTIVE size of the item's table-0 bucket (< 2 active
        # collisions scores zero): one vectorised lookup over the fused
        # CSR.  Active counts matter when the schedule is built over a
        # partially peeled index (streaming re-discovery).
        sizes = index.item_bucket_sizes(table=0, active_only=True)
        score = np.where(sizes >= 2, sizes, 0).astype(np.int64)
        items = (
            np.arange(score.size, dtype=np.intp)
            if items is None
            else np.unique(np.asarray(items, dtype=np.intp))
        )
        # Sort by descending bucket size, stable so ties keep index order.
        self._order = items[np.argsort(-score[items], kind="stable")]
        self._cursor = 0
        self._index = index

    def next_active(self) -> int | None:
        """Next unpeeled seed, or None when everything is peeled."""
        active = self._index.active_mask
        while self._cursor < self._order.size:
            candidate = int(self._order[self._cursor])
            if active[candidate]:
                return candidate
            self._cursor += 1
        return None


class ALID:
    """Dominant-cluster detector with the paper's peeling protocol (§4.4).

    Detection peels one dominant cluster after another until every item
    is gone, one Alg. 2 run per round (see the module docstring for the
    noise pre-filter each round applies first).

    Parameters
    ----------
    config:
        Detection configuration; None uses the paper defaults.

    Attributes
    ----------
    engine_:
        The :class:`ALIDEngine` built by the last :meth:`fit` call
        (kernel, oracle, LSH index), or None before fitting.

    Example
    -------
    >>> from repro import ALID, make_synthetic_mixture
    >>> dataset = make_synthetic_mixture(n=400, regime="bounded", seed=0)
    >>> result = ALID().fit(dataset.data)
    >>> result.n_clusters > 0
    True
    """

    #: Registry name (arena `Detector` protocol).
    name = "ALID"
    def __init__(self, config: ALIDConfig | None = None):
        self.config = config or ALIDConfig()
        self.engine_: ALIDEngine | None = None

    def fit(
        self,
        data: np.ndarray,
        *,
        budget_entries: int | None = None,
    ) -> DetectionResult:
        """Detect all dominant clusters in *data*.

        Parameters
        ----------
        data:
            Data matrix ``(n, d)``.
        budget_entries:
            Optional simulated-memory cap (see
            :class:`~repro.affinity.oracle.AffinityOracle`).

        Returns
        -------
        DetectionResult
            Dominant clusters (density >= ``config.density_threshold`` and
            size >= ``config.min_cluster_size``), plus every peeled
            cluster in ``all_clusters``.  ``metadata`` carries the
            peeling statistics (``seed_rounds``, ``noise_prefiltered``,
            ``lid_runs``, ``noise_lid_runs``, ``max_cohort``).
        """
        data = check_data_matrix(data)
        if data.shape[0] == 0:
            raise EmptyDatasetError("cannot fit ALID on an empty dataset")
        stats = {
            "seed_rounds": 0,
            "noise_prefiltered": 0,
            "lid_runs": 0,
            "noise_lid_runs": 0,
        }
        with timed() as clock:
            engine = ALIDEngine(
                data, self.config, budget_entries=budget_entries
            )
            self.engine_ = engine
            all_clusters: list[Cluster] = []
            self._peel(engine, all_clusters, stats)
        # One Alg. 2 run per round: the widest cohort is a single seed.
        stats["max_cohort"] = min(stats["lid_runs"], 1)
        dominant = [
            c
            for c in all_clusters
            if c.density >= self.config.density_threshold
            and c.size >= self.config.min_cluster_size
        ]
        return DetectionResult(
            clusters=dominant,
            all_clusters=all_clusters,
            n_items=data.shape[0],
            runtime_seconds=clock[0],
            counters=engine.oracle.counters.snapshot(),
            method="ALID",
            metadata={
                "kernel_k": engine.kernel.k,
                "lsh_r": engine.lsh_r,
                "peeling_rounds": len(all_clusters),
                **stats,
            },
        )

    def _peel(
        self, engine: ALIDEngine, all_clusters: list[Cluster], stats: dict
    ) -> None:
        """Detect, peel, reiterate until every item is peeled (§4.4).

        Each round emits every seed the schedule yields without an
        active LSH collision as a singleton at density 0: CIVS
        candidates come from collisions only, so Alg. 2 from there
        provably returns the bare seed without kernel work.  Each
        picked seed is checked on its own with
        :meth:`~repro.lsh.index.LSHIndex.has_active_collision`, which
        reads only that seed's ``l`` buckets.  The round ends with one
        Alg. 2 run from the first colliding seed.  A seed whose
        detection drifted away from it stays active and is picked again
        next round.  ``verify_global``'s exact scan can reach items with
        no LSH collision, which voids the proof, so it skips the
        pre-filter.
        """
        cfg = self.config
        index = engine.index
        counters = engine.oracle.counters
        schedule = SeedSchedule(index)
        seed = schedule.next_active()
        while seed is not None:
            stats["seed_rounds"] += 1
            prof = phases.active()
            t0 = time.perf_counter() if prof is not None else 0.0
            entries_before = counters.entries_computed
            peeled_before = len(all_clusters)
            if not cfg.verify_global:
                collides = index.has_active_collision
                while seed is not None and not collides(seed):
                    stats["noise_prefiltered"] += 1
                    self._emit(
                        engine, all_clusters, seed, [seed], [1.0], 0.0
                    )
                    seed = schedule.next_active()
            if seed is not None:
                stats["lid_runs"] += 1
                detection = engine.detect_from_seed(seed)
                if detection.members.size:
                    members = detection.members
                    weights = detection.weights
                    density = detection.density
                else:
                    # Degenerate: peel the seed alone so progress is made.
                    members, weights, density = [seed], [1.0], 0.0
                if (
                    density < cfg.density_threshold
                    or len(members) < cfg.min_cluster_size
                ):
                    stats["noise_lid_runs"] += 1
                self._emit(
                    engine, all_clusters, seed, members, weights, density
                )
                seed = schedule.next_active()
            if prof is not None:
                prof.record(
                    "seed_round",
                    wall=time.perf_counter() - t0,
                    entries=counters.entries_computed - entries_before,
                    seeds=len(all_clusters) - peeled_before,
                )

    @staticmethod
    def _emit(
        engine: ALIDEngine,
        all_clusters: list[Cluster],
        seed: int,
        members,
        weights,
        density: float,
    ) -> None:
        """Record one peeled cluster and deactivate its members."""
        cluster = Cluster(
            members=members,
            weights=weights,
            density=density,
            label=len(all_clusters),
            seed=seed,
        )
        all_clusters.append(cluster)
        engine.index.deactivate(cluster.members)
