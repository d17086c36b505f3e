#!/usr/bin/env python
"""Gate `entries_computed` against the committed hot-path baseline.

Compares a freshly produced ``BENCH_hotpath.json`` (see
``benchmarks/bench_hotpath.py``) with the committed baseline
``benchmarks/results/BENCH_hotpath_baseline.json`` and fails when the
work accounting regresses:

* ``entries_computed`` of any shared workload may grow by at most
  ``--tolerance`` (default 10%) — kernel evaluations are deterministic
  for fixed seeds, so any growth is a real algorithmic regression, not
  machine noise;
* the deterministic retrieval, peeling and column counts
  (``candidates_returned`` of the ``lsh_batch_*`` lanes;
  ``noise_prefiltered``, ``lid_runs``, ``seed_rounds`` and
  ``column_requests`` of the ``alid_*`` lanes) must equal the baseline
  exactly — a dedup or pre-filter change that drops a candidate or
  misclassifies a seed, or a LID miss path that counts a column
  differently, moves one of them, in either direction;
* a workload present in the baseline but missing from the current
  report fails (the gate must not silently narrow);
* a workload reporting any of the zero-tolerance booleans
  (``entries_identical``, ``accounting_exact``,
  ``assignments_identical``, ``slo_met``, ``healed_ok``,
  ``rejections_observed``, ``retry_after_ok``,
  ``recovery_identical``, ``compaction_identical``,
  ``wal_tail_truncated_ok``) as ``false`` fails outright —
  bit-equivalence, exact request accounting, byte-identical
  assignments after a heal, an honoured latency SLO, a healed pool,
  and a crash-recoverable durable ingest chain are correctness
  claims, not performance numbers;
* a baseline ``throughput_qps`` (the soak lanes of
  ``bench_soak.py``) may not *fall* more than ``--tolerance`` below
  its committed value — soak traffic is open-loop and deliberately
  under-loaded, so delivered throughput tracks the offered schedule,
  not the machine;
* a workload reporting ``fused_speedup`` (the reference/fused wall
  ratio measured on the same machine in the same run) fails below
  ``--min-speedup`` (default 0.9, i.e. the fused backend may not be
  more than 10% slower than the reference it replaces; wall clock is
  same-machine relative here, so the usual noise argument does not
  apply);
* a workload reporting ``telemetry_shrink`` (the fractional throughput
  lost by the instrumented replay of ``bench_soak.py``'s telemetry
  lane relative to the bare replay in the same run) fails above
  ``--max-telemetry-shrink`` (default 0.03 — observability must stay
  within 3% of free; same-machine relative, so gateable).

Wall-clock numbers are reported for context but never gated — CI
machines are too noisy for that.  (Soak latency percentiles are wall
clock too: they are gated through the ``slo_met`` boolean against the
lane's deliberately loose SLO, never against the baseline's
millisecond values.)  When a deliberate change shifts the
accounting (e.g. a better pruning rule computes *fewer* entries),
regenerate the baseline with ``bench_hotpath.py`` and commit it with
the change.

Exit codes: 0 ok, 1 regression, 2 usage/schema error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

GATED_KEYS = ("entries_computed",)
# Baseline keys gated with zero tolerance: any difference fails.
EXACT_KEYS = (
    "candidates_returned",
    "noise_prefiltered",
    "lid_runs",
    "seed_rounds",
    "column_requests",
)
# Baseline keys gated in the *shrink* direction: the current value may
# not fall more than the tolerance below the committed one.
GATED_MIN_KEYS = ("throughput_qps",)
# Current-run booleans that fail the gate outright when false, with the
# correctness claim each one stands for (quoted in the failure line).
BOOLEAN_KEYS = {
    "entries_identical": (
        "entries_computed must be identical across kernel backends"
    ),
    "accounting_exact": "request accounting must be exact",
    "assignments_identical": (
        "assignments must be byte-identical to the reference"
    ),
    "slo_met": "p99 latency exceeded the lane's SLO",
    "healed_ok": "the pool did not heal after the injected worker kill",
    "rejections_observed": "the overload burst produced no rejections",
    "retry_after_ok": "rejections lacked positive retry_after hints",
    "trace_spans_balanced": (
        "the trace recorder left spans open (a code path returned "
        "without closing its bracket)"
    ),
    "latency_histogram_exact": (
        "the merged latency histogram diverged from the per-request "
        "latencies the replies reported"
    ),
    "span_breakdown_exact": (
        "reply span breakdowns (queued + service) did not sum to the "
        "reported latency"
    ),
    "cells_deterministic": (
        "arena cell results must be identical across back-to-back runs"
    ),
    "no_crashed_cells": "arena cells crashed or violated their limits",
    "recovery_identical": (
        "journal replay must rebuild the stream byte-identically"
    ),
    "compaction_identical": (
        "the compacted chain must serve byte-identically to the tip "
        "it folded"
    ),
    "wal_tail_truncated_ok": (
        "recovery must truncate exactly the journal's torn tail"
    ),
}
INFO_KEYS = (
    "entries_stored_peak",
    "wall_seconds",
    "latency_p50_ms",
    "latency_p99_ms",
    "rejection_rate",
    "degraded_batches",
    "respawns",
    "telemetry_shrink",
    "trace_total_spans",
)


def load(path: pathlib.Path) -> dict:
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"[check_hotpath] cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    if "workloads" not in report:
        print(f"[check_hotpath] {path} has no 'workloads'", file=sys.stderr)
        raise SystemExit(2)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--current", type=pathlib.Path, required=True)
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=pathlib.Path(__file__).parent
        / "results"
        / "BENCH_hotpath_baseline.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional growth of gated counters (default 0.10)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.9,
        help="floor for reported fused_speedup ratios (default 0.9)",
    )
    parser.add_argument(
        "--max-telemetry-shrink",
        type=float,
        default=0.03,
        help="ceiling for reported telemetry_shrink fractions "
        "(default 0.03)",
    )
    args = parser.parse_args(argv)
    current = load(args.current)["workloads"]
    baseline = load(args.baseline)["workloads"]

    failures: list[str] = []
    for name in sorted(current):
        cur = current[name]
        for key, claim in BOOLEAN_KEYS.items():
            if cur.get(key) is False:
                failures.append(f"{name}.{key} is false ({claim})")
        speedup = cur.get("fused_speedup")
        if speedup is not None:
            status = "FAIL" if speedup < args.min_speedup else "ok"
            print(
                f"[check_hotpath] {status:4s} {name}.fused_speedup: "
                f"{speedup} (floor {args.min_speedup})"
            )
            if speedup < args.min_speedup:
                failures.append(
                    f"{name}: fused_speedup {speedup} below "
                    f"{args.min_speedup}"
                )
        shrink = cur.get("telemetry_shrink")
        if shrink is not None:
            status = "FAIL" if shrink > args.max_telemetry_shrink else "ok"
            print(
                f"[check_hotpath] {status:4s} {name}.telemetry_shrink: "
                f"{shrink} (ceiling {args.max_telemetry_shrink})"
            )
            if shrink > args.max_telemetry_shrink:
                failures.append(
                    f"{name}: telemetry_shrink {shrink} above "
                    f"{args.max_telemetry_shrink}"
                )
    for name in sorted(baseline):
        base = baseline[name]
        gated = {k: base[k] for k in GATED_KEYS if k in base}
        exact = {k: base[k] for k in EXACT_KEYS if k in base}
        if (
            not gated
            and not exact
            and not any(k in base for k in GATED_MIN_KEYS)
        ):
            continue
        if name not in current:
            failures.append(
                f"{name}: present in baseline but missing from current run"
            )
            continue
        cur = current[name]
        for key, base_value in gated.items():
            cur_value = cur.get(key)
            if cur_value is None:
                failures.append(f"{name}.{key}: missing from current run")
                continue
            limit = base_value * (1.0 + args.tolerance)
            delta = (
                (cur_value - base_value) / base_value
                if base_value
                else float(cur_value > 0)
            )
            status = "FAIL" if cur_value > limit else "ok"
            print(
                f"[check_hotpath] {status:4s} {name}.{key}: "
                f"{cur_value} vs baseline {base_value} ({delta:+.1%})"
            )
            if cur_value > limit:
                failures.append(
                    f"{name}.{key}: {cur_value} exceeds baseline "
                    f"{base_value} by more than {args.tolerance:.0%}"
                )
        for key, base_value in exact.items():
            cur_value = cur.get(key)
            if cur_value is None:
                failures.append(f"{name}.{key}: missing from current run")
                continue
            status = "FAIL" if cur_value != base_value else "ok"
            print(
                f"[check_hotpath] {status:4s} {name}.{key}: "
                f"{cur_value} vs baseline {base_value} (exact)"
            )
            if cur_value != base_value:
                failures.append(
                    f"{name}.{key}: {cur_value} differs from baseline "
                    f"{base_value} (deterministic count, zero tolerance)"
                )
        for key in GATED_MIN_KEYS:
            if key not in base:
                continue
            base_value = base[key]
            cur_value = cur.get(key)
            if cur_value is None:
                failures.append(f"{name}.{key}: missing from current run")
                continue
            floor = base_value * (1.0 - args.tolerance)
            delta = (
                (cur_value - base_value) / base_value
                if base_value
                else float(cur_value > 0)
            )
            status = "FAIL" if cur_value < floor else "ok"
            print(
                f"[check_hotpath] {status:4s} {name}.{key}: "
                f"{cur_value} vs baseline {base_value} ({delta:+.1%})"
            )
            if cur_value < floor:
                failures.append(
                    f"{name}.{key}: {cur_value} falls short of baseline "
                    f"{base_value} by more than {args.tolerance:.0%}"
                )
        for key in INFO_KEYS:
            if key in base and key in cur:
                print(
                    f"[check_hotpath] info {name}.{key}: "
                    f"{cur[key]} (baseline {base[key]})"
                )
    if failures:
        print("[check_hotpath] REGRESSION DETECTED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("[check_hotpath] all gated counters within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
