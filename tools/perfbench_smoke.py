#!/usr/bin/env python3
"""Smoke-run every benchmark workload, untraced and traced.

Usage (from the repository root)::

    python3 tools/perfbench_smoke.py

For each workload listed in ``BENCHMARK.json`` this runs
``perfbench/run.py --seed 1 --seconds 1`` once with ``--trace 0`` and
once with ``--trace 1``, and fails unless the last line a run prints is
a JSON object with ``"correct": true``.  The traced run wraps the layer
entry points it finds by name (``perfbench/layertrace.py``), so renaming
or deleting one of them — ``LSHIndex.query_points_grouped``, or the
``point_payoffs`` name in ``repro.serve.assigner`` — fails here instead
of at the next benchmark run.  Exit code 0 when every run is correct, 1
otherwise.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(workload: str, trace: int) -> str | None:
    """Run one benchmark invocation; return why it failed, or None."""
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", "1",
        "--seconds", "1",
        "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return f"exit code {proc.returncode}"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return "last line is not a JSON result"
    if result.get("correct") is not True:
        return f"not correct: {result.get('failed')} of {result.get('attempted')} failed"
    return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    failures = []
    for workload in workloads:
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}", flush=True)
            problem = run_once(workload, trace)
            if problem is not None:
                failures.append(f"{workload} --trace {trace}: {problem}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
