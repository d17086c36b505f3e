"""Outside-in layer trace: timing spans around each layer's entry points.

The traced run of the benchmark wraps the public entry points of the
layers ``lsh``, ``affinity``, ``dynamics``, ``core``, ``streaming`` and
``serve`` with timing wrappers, installed only while a traced unit of
work runs and removed afterwards, so the untraced runs execute the
program exactly as shipped.  Each wrapper is patched where its caller
resolves the name: a function imported by name (``lid_dynamics`` in
``repro.core.alid``, ``point_payoffs`` in ``repro.serve.assigner``) is
patched in the importing module, a method on its class.

Every call records one span ``(name, start, end, parent, rid)`` in
memory, where ``parent`` is the index of the enclosing traced span and
``rid`` the request, round or fit the workload is running.  A span's
self time is its duration minus the time its child spans cover; the
per-layer metrics are those self times, summed per span name.  A traced
episode also activates :class:`repro.obs.PhaseProfiler`, which supplies
the LID iteration and column-cache counts.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager

from repro.obs import PhaseProfiler

#: Span name -> per-layer self-time metric.
TIME_METRICS = {
    "lsh.build": "lsh.build_s",
    "lsh.prefilter": "lsh.prefilter_s",
    "lsh.components": "lsh.components_s",
    "lsh.civs_gather": "lsh.civs_gather_s",
    "lsh.shortlist": "lsh.shortlist_s",
    "lsh.restore": "lsh.restore_s",
    "lsh.insert": "lsh.insert_s",
    "dynamics.lid": "dynamics.lid_s",
    "dynamics.extend": "dynamics.extend_s",
    "affinity.kernel": "affinity.kernel_s",
    "core.engine": "core.engine_s",
    "core.roi": "core.roi_s",
    "core.civs": "core.civs_s",
    "core.peel": "core.peel_s",
    "core.payoffs": "core.payoffs_s",
    "serve.assign": "serve.assign_self_s",
    "serve.snapshot_load": "serve.snapshot_load_s",
    "serve.assigner_build": "serve.assigner_build_s",
    "streaming.absorb": "streaming.absorb_s",
    "streaming.repeel": "streaming.repeel_s",
    "serve.ingest": "serve.ingest_s",
    "serve.publish_delta": "serve.publish_delta_s",
    "serve.delta_save": "serve.delta_save_s",
    "serve.wal_append": "serve.wal_append_s",
    "serve.apply_delta": "serve.apply_delta_s",
}

#: Span name -> per-layer call-count metric.
CALL_METRICS = {
    "lsh.prefilter": "lsh.prefilter_calls",
    "lsh.components": "lsh.components_calls",
    "dynamics.lid": "dynamics.lid_calls",
    "serve.wal_append": "serve.wal_records",
}

#: Every per-layer metric a traced run reports, with its unit.  Metrics of
#: layers a workload does not exercise read 0.
PER_LAYER = (
    [(metric, "s") for metric in TIME_METRICS.values()]
    + [(metric, "count") for metric in CALL_METRICS.values()]
    + [
        ("lsh.candidates_per_query", "items/query"),
        ("dynamics.lid_iterations", "count"),
        ("affinity.entries_stored_peak", "entries"),
        ("affinity.cache_hit_ratio", "ratio"),
        ("affinity.cache_evictions", "count"),
        ("core.seed_rounds", "count"),
        ("core.lid_runs", "count"),
        ("core.noise_prefiltered", "count"),
        ("core.max_cohort", "count"),
        ("core.dominant_per_lid_run", "ratio"),
        ("serve.pairs_per_query", "pairs/query"),
        ("serve.assigned_per_pair", "ratio"),
        ("serve.delta_bytes", "bytes"),
        ("streaming.absorbed_ratio", "ratio"),
        ("streaming.dirty_marked", "count"),
        ("unattributed_s", "s"),
        ("trace_overhead", "ratio"),
    ]
)


def _count_shortlist(recorder, args, result) -> None:
    recorder.add("shortlist_queries", len(result))
    recorder.add("shortlist_candidates", sum(int(c.size) for c in result))


def _count_assign(recorder, args, result) -> None:
    recorder.add("assign_queries", result.n_queries)
    recorder.add("assign_pairs", int(result.n_candidates.sum()))
    recorder.add("assign_assigned", int((result.labels >= 0).sum()))


def _count_delta_bytes(recorder, args, result) -> None:
    recorder.add(
        "delta_bytes",
        sum(p.stat().st_size for p in result.rglob("*") if p.is_file()),
    )


def _targets() -> list[tuple]:
    """``(span name, owner, attribute, count hook)`` for every entry point."""
    import repro.core.alid as alid
    import repro.dynamics.lid as lid
    import repro.serve.assigner as assigner
    from repro.affinity.oracle import AffinityOracle
    from repro.dynamics.lid import LIDState
    from repro.lsh.index import LSHIndex
    from repro.serve import (
        ClusterAssigner,
        ClusterService,
        DetectionSnapshot,
        IngestService,
        SnapshotDelta,
        WriteAheadLog,
    )
    from repro.streaming import StreamingALID

    return [
        ("lsh.build", LSHIndex, "__init__", None),
        ("lsh.prefilter", LSHIndex, "colliding_mask", None),
        ("lsh.components", LSHIndex, "collision_components", None),
        ("lsh.civs_gather", LSHIndex, "query_items", None),
        ("lsh.civs_gather", LSHIndex, "query_items_grouped", None),
        ("lsh.shortlist", LSHIndex, "query_points_grouped", _count_shortlist),
        ("lsh.restore", LSHIndex, "from_state", None),
        ("lsh.insert", LSHIndex, "insert", None),
        ("dynamics.lid", alid, "lid_dynamics", None),
        ("dynamics.lid", lid, "lid_dynamics", None),
        ("dynamics.extend", LIDState, "extend", None),
        ("affinity.kernel", AffinityOracle, "columns", None),
        ("affinity.kernel", AffinityOracle, "block", None),
        ("affinity.kernel", AffinityOracle, "point_block", None),
        ("core.engine", alid.ALIDEngine, "__init__", None),
        ("core.roi", alid, "estimate_roi", None),
        ("core.roi", alid, "roi_radius", None),
        ("core.civs", alid, "civs_retrieve", None),
        ("core.peel", alid.ALID, "fit", None),
        ("core.peel", alid.ALIDEngine, "detect_cohort", None),
        ("core.payoffs", assigner, "point_payoffs", None),
        ("serve.assign", ClusterAssigner, "assign", _count_assign),
        ("serve.snapshot_load", DetectionSnapshot, "load", None),
        ("serve.assigner_build", ClusterAssigner, "__init__", None),
        ("streaming.absorb", StreamingALID, "partial_fit", None),
        ("streaming.repeel", StreamingALID, "discover", None),
        ("serve.ingest", IngestService, "ingest", None),
        ("serve.publish_delta", IngestService, "publish_delta", None),
        ("serve.delta_save", SnapshotDelta, "save", _count_delta_bytes),
        ("serve.wal_append", WriteAheadLog, "append", None),
        ("serve.apply_delta", ClusterService, "apply_delta", None),
    ]


class SpanRecorder:
    """Spans of one traced phase, with running self-time totals.

    Only calls made by the creating thread of the creating process are
    recorded; calls from any other thread or process pass straight
    through.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.rid = ""
        self.episodes = 0
        self.wall = 0.0
        self.profiler = PhaseProfiler()
        self._stack: list[list] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()

    def add(self, key: str, amount: float) -> None:
        """Accumulate a count measured at a span boundary."""
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, count=None):
        """Return *fn* wrapped so every call records a span *name*."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1][0] if stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.spans[index] = (name, start, end, parent, self.rid)
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
                self.calls[name] = self.calls.get(name, 0) + 1
            if count is not None:
                count(self, args, result)
            return result

        return traced

    @contextmanager
    def episode(self, rid: str):
        """Trace one episode (a set-up call or a unit of work).

        Installs every wrapper for the duration of the block and adds
        its wall time to :attr:`wall`.
        """
        undo = []
        for name, owner, attr, count in _targets():
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                patched = classmethod(self.wrap(name, original.__func__, count))
            else:
                patched = self.wrap(name, original, count)
            setattr(owner, attr, patched)
            undo.append((owner, attr, original))
        self.rid = rid
        start = time.perf_counter()
        try:
            with self.profiler:
                yield self
        finally:
            self.wall += time.perf_counter() - start
            self.episodes += 1
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def per_episode(self) -> dict[str, float]:
        """Self times, call counts and counts averaged per episode."""
        n = max(self.episodes, 1)
        phases = self.profiler.summary()
        cache = phases.get("cache", {})
        out = {
            "wall": self.wall / n,
            "self": sum(self.self_s.values()) / n,
            "dynamics.lid_iterations": phases.get("lid", {}).get("iterations", 0) / n,
            "cache_hits": cache.get("hits", 0) / n,
            "cache_misses": cache.get("misses", 0) / n,
            "affinity.cache_evictions": cache.get("evictions", 0) / n,
        }
        for span, metric in TIME_METRICS.items():
            out[metric] = self.self_s.get(span, 0.0) / n
        for span, metric in CALL_METRICS.items():
            out[metric] = self.calls.get(span, 0) / n
        for key, value in self.counts.items():
            out[key] = value / n
        return out


def combine(setup: SpanRecorder | None, units: SpanRecorder) -> dict[str, float]:
    """Per-layer figures of one traced set-up call plus one unit of work.

    Ratios are taken over the pooled counts, so they do not depend on how
    many episodes were traced.
    """
    parts = [units.per_episode()]
    if setup is not None and setup.episodes:
        parts.append(setup.per_episode())
    total: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            total[key] = total.get(key, 0.0) + value
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for key in metrics:
        if key in total:
            metrics[key] = total[key]
    metrics["unattributed_s"] = total["wall"] - total["self"]
    metrics["lsh.candidates_per_query"] = _ratio(
        total.get("shortlist_candidates", 0.0), total.get("shortlist_queries", 0.0)
    )
    metrics["serve.pairs_per_query"] = _ratio(
        total.get("assign_pairs", 0.0), total.get("assign_queries", 0.0)
    )
    metrics["serve.assigned_per_pair"] = _ratio(
        total.get("assign_assigned", 0.0), total.get("assign_pairs", 0.0)
    )
    metrics["serve.delta_bytes"] = total.get("delta_bytes", 0.0)
    metrics["affinity.cache_hit_ratio"] = _ratio(
        total["cache_hits"], total["cache_hits"] + total["cache_misses"]
    )
    metrics["streaming.absorbed_ratio"] = _ratio(
        total.get("absorbed", 0.0), total.get("ingested", 0.0)
    )
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def write_spans(path, recorders: dict[str, SpanRecorder]) -> int:
    """Write every recorded span as JSON; return how many were written.

    ``parent`` is the row index of the enclosing span in the written
    list, or -1 for a span no traced span encloses.
    """
    names: dict[str, int] = {}
    rows = []
    for phase, recorder in recorders.items():
        base = len(rows)
        for name, start, end, parent, rid in recorder.spans:
            code = names.setdefault(name, len(names))
            rows.append(
                [phase, code, start, end, base + parent if parent >= 0 else -1, rid]
            )
    payload = {
        "fields": ["phase", "name", "start", "end", "parent", "rid"],
        "names": sorted(names, key=names.get),
        "spans": rows,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
    return len(rows)
