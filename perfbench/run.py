#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit_20k --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
outside-in layer trace instead, reports the per-layer metrics and writes
every span to ``.perfbench_run/``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  README.md in this directory describes the workloads and
the metrics.
"""

import os

# BLAS and OpenMP size their thread pools once, when numpy loads: pin
# every pool to one thread before anything imports numpy.  The fresh
# interpreters timed by fit_20k inherit the pin.
THREAD_PINS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fit_20k", "serve_local", "ingest")

#: End-to-end metrics and their units (mirrors BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
    "work_entries": "entries",
    "avg_f": "ratio",
    "success_ratio": "ratio",
}


def plain(value):
    """A JSON-ready Python number from a numpy or Python scalar."""
    return value.item() if hasattr(value, "item") else value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from layertrace import PER_LAYER, write_spans

    print(
        "thread pools pinned: "
        + " ".join(f"{var}={value}" for var, value in THREAD_PINS.items()),
        flush=True,
    )
    run_dir = ROOT / ".perfbench_run"
    workdir = run_dir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = workloads.Context(
            ROOT, workdir, args.seed, args.seconds, bool(args.trace)
        )
        out = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        units = dict(PER_LAYER)
        path = run_dir / f"trace-{args.workload}-seed{args.seed}.json"
        count = write_spans(path, out.recorders)
        out.info.append(f"{count} spans written to {path.relative_to(ROOT)}")
    else:
        units = END_TO_END
        out.metrics["success_ratio"] = 1.0 - out.failed / out.attempted
        out.info.append(
            f"error_ratio: {out.failed / out.attempted} "
            f"({out.failed} failed of {out.attempted} attempted)"
        )
    for error in out.errors:
        print(f"failed: {error}", file=sys.stderr)
    for line in out.info:
        print(line)
    metrics = {}
    for name, unit in units.items():
        value = plain(out.metrics[name])
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name} = {value} {unit}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
