#!/usr/bin/env python
"""Arena benchmark: the tiny evaluation matrix, run twice, gated on determinism.

Runs the :mod:`repro.arena` harness on its built-in tiny synthetic pair
with two detectors (ALID and k-means) — the ``arena_tiny`` CI lane.
The matrix is executed **twice** back to back and the two
:meth:`~repro.arena.runner.ArenaReport.fingerprint` values
are compared: the ``cells_deterministic`` boolean is the lane's core
claim (bit-reproducible evaluation cells), and ``no_crashed_cells``
asserts every cell finished ``OK`` under the enforced limits.  Both are
zero-tolerance booleans in ``check_hotpath_regression.py``.

Writes a machine-readable ``BENCH_arena.json``:

.. code-block:: json

    {
      "schema_version": 1,
      "workloads": {
        "arena_tiny": {
          "entries_computed": 4434,
          "throughput_qps": 1.9,
          "cells_deterministic": true,
          "no_crashed_cells": true,
          ...
        }
      }
    }

``entries_computed`` (total affinity work across OK cells, exactly
reproducible) is gated at 10% growth; ``throughput_qps`` (cells per
wall second — the committed baseline is deliberately derated to absorb
CI machine noise, see ``docs/benchmarks.md``) is gated at 10% shrink;
``wall_seconds`` is informational.  ``--leaderboard PATH`` additionally
writes the ASCII leaderboard of the first run (uploaded as a CI
artifact).

Usage::

    PYTHONPATH=src python benchmarks/bench_arena.py \
        --workloads arena_tiny --output BENCH_arena.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.arena import ArenaRunner, CellLimits  # noqa: E402
from repro.arena.registry import tiny_datasets  # noqa: E402

_SEED = 7

# Fixed matrix; detectors/datasets/seeds must never change silently
# (the committed baseline pins entries_computed for this exact matrix).
WORKLOADS = {
    "arena_tiny": {
        "detectors": ("alid", "km"),
        "seeds": (_SEED,),
        "wall_seconds": 120.0,
    },
}


def bench_arena(key: str) -> tuple[dict, str]:
    """Run one workload's matrix twice; return (report entry, leaderboard)."""
    spec = WORKLOADS[key]
    runner = ArenaRunner(
        limits=CellLimits(wall_seconds=spec["wall_seconds"]),
        with_quality=True,
    )
    datasets = tiny_datasets()
    t0 = time.perf_counter()
    first = runner.run(
        datasets, detectors=spec["detectors"], seeds=spec["seeds"]
    )
    wall_first = time.perf_counter() - t0
    second = runner.run(
        datasets, detectors=spec["detectors"], seeds=spec["seeds"]
    )
    wall_total = time.perf_counter() - t0
    entries = sum(
        cell.entries_computed
        for cell in first.cells
        if cell.entries_computed is not None
    )
    n_cells = len(first.cells) + len(second.cells)
    statuses = sorted(
        {cell.status for cell in first.cells + second.cells}
    )
    entry = {
        "n_cells": len(first.cells),
        "detectors": list(spec["detectors"]),
        "datasets": [d.name for d in datasets],
        "statuses": statuses,
        "entries_computed": int(entries),
        "throughput_qps": round(n_cells / wall_total, 3),
        "wall_seconds": round(wall_first, 4),
        "cells_deterministic": first.fingerprint() == second.fingerprint(),
        "no_crashed_cells": statuses == ["OK"],
        "fingerprint": first.fingerprint(),
    }
    return entry, first.leaderboard(title=f"{key} leaderboard")


def run(workload_keys: list[str]) -> tuple[dict, dict[str, str]]:
    """Run the requested workloads; return (report, leaderboards)."""
    workloads: dict[str, dict] = {}
    leaderboards: dict[str, str] = {}
    for key in workload_keys:
        print(f"[bench_arena] {key} ...", flush=True)
        entry, board = bench_arena(key)
        workloads[key] = entry
        leaderboards[key] = board
    report = {
        "schema_version": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": workloads,
    }
    return report, leaderboards


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workloads",
        nargs="+",
        choices=sorted(WORKLOADS),
        default=["arena_tiny"],
        help="arena matrices to run (default: arena_tiny)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_arena.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--leaderboard",
        type=pathlib.Path,
        default=None,
        help="also write the ASCII leaderboard(s) here",
    )
    args = parser.parse_args(argv)
    report, leaderboards = run(args.workloads)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"[bench_arena] wrote {args.output}")
    if args.leaderboard is not None:
        args.leaderboard.write_text(
            "\n\n".join(leaderboards[key] for key in args.workloads) + "\n"
        )
        print(f"[bench_arena] wrote {args.leaderboard}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
