"""Fit-phase profiling hooks, keyed to the paper's sections.

The fit half of :mod:`repro.obs` (see ``docs/observability.md``).  ALID
argues its scalability with *exact work accounting* — affinity entries
computed per phase of Algs. 1–3 — and the fit tier already tracks the
totals through :class:`~repro.affinity.oracle.AffinityCounters`.  This
module breaks them down by phase: activate a :class:`PhaseProfiler`
around a fit and the peeling driver, the LID kernel, the CIVS gather
and the column cache record per-phase wall time, entry counts and call
counts into a :class:`~repro.obs.metrics.MetricsRegistry`, keyed to the
paper anchors in :data:`PHASES`.

Usage::

    from repro.obs import PhaseProfiler

    profiler = PhaseProfiler()
    with profiler:                      # activates the hooks
        result = ALID(config).fit(data)
    profiler.summary()                  # {phase: {calls, wall_seconds,
                                        #  entries, ...}}

Zero-cost-when-off contract: every hook site reads one module global
and compares against ``None`` — no timestamps are taken and no metrics
are touched unless a profiler is active.  The hooks are *observers*:
they never change iteration order, accounting
(``entries_computed`` stays bit-identical), or detections.

Activation is process-global (one fit is profiled at a time; nested
activations stack).  The profiler is intentionally not thread-local:
the peeling loop and the streaming re-peel thread both record into
whichever profiler is active, which is what a whole-fit profile wants.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.exceptions import ValidationError
from repro.obs.metrics import MetricsRegistry

__all__ = ["PHASES", "PhaseProfiler", "active"]

#: Phase keys and the paper anchor each one accounts for.
PHASES = {
    "lid": "Alg. 1 — LID dynamics runs (periods, wall, entries)",
    "seed_round": "Alg. 2 — peeling rounds (pre-filter + one detection)",
    "civs": "Alg. 2 Step 3 — CIVS candidate gather (Fig. 4)",
    "extend": "Eq. 17 — local-range extension of the payoff state",
    "cache": "§4.5 — ColumnBlockCache hits / misses / evictions",
}

#: The currently active profiler (module-global; ``None`` = hooks off).
_ACTIVE: "PhaseProfiler | None" = None


def active() -> "PhaseProfiler | None":
    """The profiler hook sites should record into (``None`` = off)."""
    return _ACTIVE


class PhaseProfiler:
    """Per-phase wall/entries accounting over one (or more) fits.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` to record into;
        a fresh ``component="fit"`` registry is created when omitted.

    Metrics written (all counters, labelled ``phase=<key>``):

    - ``fit_phase_calls_total`` — hook invocations;
    - ``fit_phase_wall_seconds_total`` — wall time inside the phase;
    - ``fit_phase_entries_total`` — affinity entries the phase computed;
    - ``fit_phase_<extra>_total`` — any extra integer keyword passed to
      :meth:`record` (e.g. ``iterations`` for LID periods, ``hits`` /
      ``misses`` / ``evictions`` for the cache).

    Use as a context manager to activate the hook sites; activations
    nest (the previous profiler is restored on exit).
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        """Bind (or create) the backing registry."""
        self.registry = (
            MetricsRegistry(component="fit") if registry is None else registry
        )
        self._counters: dict[tuple[str, str], object] = {}
        self._previous: PhaseProfiler | None = None

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def __enter__(self) -> "PhaseProfiler":
        """Activate the hook sites, stacking over any active profiler."""
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Restore the previously active profiler (or none)."""
        global _ACTIVE
        _ACTIVE = self._previous
        self._previous = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _counter(self, metric: str, phase: str):
        key = (metric, phase)
        counter = self._counters.get(key)
        if counter is None:
            counter = self.registry.counter(
                metric, PHASES[phase], phase=phase
            )
            self._counters[key] = counter
        return counter

    def record(
        self,
        phase: str,
        *,
        wall: float = 0.0,
        entries: int = 0,
        count: int = 1,
        **extras: int,
    ) -> None:
        """Account one phase occurrence.

        ``wall`` is seconds spent, ``entries`` the affinity entries the
        phase computed (both may be zero), ``count`` the number of
        occurrences this call covers.  Extra integer keywords become
        ``fit_phase_<name>_total`` counters under the same phase label.
        """
        if phase not in PHASES:
            raise ValidationError(
                f"unknown phase {phase!r}; expected one of "
                f"{sorted(PHASES)}"
            )
        if count:
            self._counter("fit_phase_calls_total", phase).inc(count)
        if wall:
            self._counter("fit_phase_wall_seconds_total", phase).inc(wall)
        if entries:
            self._counter("fit_phase_entries_total", phase).inc(entries)
        for name, value in extras.items():
            if value:
                self._counter(f"fit_phase_{name}_total", phase).inc(value)

    @contextmanager
    def phase(self, phase: str, **extras: int):
        """Time a block as one occurrence of ``phase``."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.record(
                phase, wall=time.perf_counter() - t0, **extras
            )

    # ------------------------------------------------------------------
    # readout
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Per-phase totals: ``{phase: {calls, wall_seconds, ...}}``.

        Keys follow the recorded metrics (``calls``, ``wall_seconds``,
        ``entries``, plus any extras); phases never recorded are
        absent.
        """
        prefix = "fit_phase_"
        out: dict[str, dict] = {}
        for metric in self.registry.metrics():
            name = metric.name
            if not (name.startswith(prefix) and name.endswith("_total")):
                continue
            phase = metric.labels.get("phase")
            if phase is None:
                continue
            field = name[len(prefix) : -len("_total")]
            out.setdefault(phase, {})[field] = metric.value
        return out
