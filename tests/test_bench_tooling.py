"""Tests for the hot-path benchmark regression gate.

The gate script lives in benchmarks/ (not the package), so it is
exercised end-to-end through a subprocess, exactly as CI runs it.
"""

import json
import pathlib
import subprocess
import sys

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "check_hotpath_regression.py"
)


def _write_report(path: pathlib.Path, workloads: dict) -> pathlib.Path:
    path.write_text(json.dumps({"schema_version": 1, "workloads": workloads}))
    return path


def _run_gate(current: pathlib.Path, baseline: pathlib.Path, *extra: str):
    return subprocess.run(
        [sys.executable, str(_SCRIPT), "--current", str(current),
         "--baseline", str(baseline), *extra],
        capture_output=True,
        text=True,
    )


BASE = {"alid_tiny": {"entries_computed": 1000, "wall_seconds": 1.0}}


class TestCheckHotpathRegression:
    def test_identical_passes(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", BASE)
        current = _write_report(tmp_path / "cur.json", BASE)
        result = _run_gate(current, baseline)
        assert result.returncode == 0, result.stderr

    def test_within_tolerance_passes(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", BASE)
        current = _write_report(
            tmp_path / "cur.json",
            {"alid_tiny": {"entries_computed": 1099, "wall_seconds": 9.0}},
        )
        assert _run_gate(current, baseline).returncode == 0

    def test_regression_fails(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", BASE)
        current = _write_report(
            tmp_path / "cur.json", {"alid_tiny": {"entries_computed": 1101}}
        )
        result = _run_gate(current, baseline)
        assert result.returncode == 1
        assert "exceeds baseline" in result.stderr

    def test_improvement_passes(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", BASE)
        current = _write_report(
            tmp_path / "cur.json", {"alid_tiny": {"entries_computed": 10}}
        )
        assert _run_gate(current, baseline).returncode == 0

    def test_missing_workload_fails(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", BASE)
        current = _write_report(tmp_path / "cur.json", {})
        result = _run_gate(current, baseline)
        assert result.returncode == 1
        assert "missing" in result.stderr

    def test_wall_clock_never_gated(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", BASE)
        current = _write_report(
            tmp_path / "cur.json",
            {"alid_tiny": {"entries_computed": 1000, "wall_seconds": 99.0}},
        )
        assert _run_gate(current, baseline).returncode == 0

    def test_custom_tolerance(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", BASE)
        current = _write_report(
            tmp_path / "cur.json", {"alid_tiny": {"entries_computed": 1400}}
        )
        assert _run_gate(current, baseline, "--tolerance", "0.5").returncode == 0
        assert _run_gate(current, baseline, "--tolerance", "0.1").returncode == 1

    def test_garbage_input_is_usage_error(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", BASE)
        broken = tmp_path / "cur.json"
        broken.write_text("not json")
        assert _run_gate(broken, baseline).returncode == 2

    def test_committed_baseline_exists_and_has_gated_counters(self):
        committed = (
            _SCRIPT.parent / "results" / "BENCH_hotpath_baseline.json"
        )
        report = json.loads(committed.read_text())
        gated = [
            name
            for name, payload in report["workloads"].items()
            if "entries_computed" in payload
        ]
        assert gated, "baseline must gate at least one workload"

    def test_committed_serve_baseline_exists_and_is_gated(self):
        committed = _SCRIPT.parent / "results" / "BENCH_serve_baseline.json"
        report = json.loads(committed.read_text())
        gated = [
            name
            for name, payload in report["workloads"].items()
            if "entries_computed" in payload
        ]
        assert gated, "serve baseline must gate at least one workload"
        # The acceptance workload is present and records throughput.
        # (The throughput *value* is machine-dependent and deliberately
        # not asserted — wall-clock numbers are never gated.)
        full = report["workloads"]["serve_full"]
        assert full["n"] == 5000
        assert "queries_per_second" in full


class TestExactCounts:
    """Retrieval and peeling counts are deterministic: zero tolerance."""

    BASE = {
        "alid_tiny": {
            "entries_computed": 1000,
            "seed_rounds": 10,
            "noise_prefiltered": 310,
            "lid_runs": 9,
            "column_requests": 1666,
        },
        "lsh_batch_tiny": {"candidates_returned": 10160},
        "ingest_tiny": {"entries_computed": 2000, "column_requests": 900},
    }

    def test_identical_counts_pass(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", self.BASE)
        current = _write_report(tmp_path / "cur.json", self.BASE)
        result = _run_gate(current, baseline)
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "lane, key",
        [
            ("lsh_batch_tiny", "candidates_returned"),
            ("alid_tiny", "noise_prefiltered"),
            ("alid_tiny", "lid_runs"),
            ("alid_tiny", "seed_rounds"),
            ("alid_tiny", "column_requests"),
            ("ingest_tiny", "column_requests"),
        ],
    )
    @pytest.mark.parametrize("step", [-1, 1])
    def test_any_difference_fails_by_name(self, tmp_path, lane, key, step):
        baseline = _write_report(tmp_path / "base.json", self.BASE)
        drifted = json.loads(json.dumps(self.BASE))
        drifted[lane][key] += step
        current = _write_report(tmp_path / "cur.json", drifted)
        result = _run_gate(current, baseline, "--tolerance", "0.5")
        assert result.returncode == 1
        assert f"{lane}.{key}: " in result.stderr
        assert "zero tolerance" in result.stderr

    def test_missing_count_fails(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", self.BASE)
        current = _write_report(
            tmp_path / "cur.json",
            {"alid_tiny": self.BASE["alid_tiny"], "lsh_batch_tiny": {}},
        )
        result = _run_gate(current, baseline)
        assert result.returncode == 1
        assert "lsh_batch_tiny.candidates_returned: missing" in result.stderr


class TestBenchServeScript:
    def test_tiny_workload_runs_and_reports(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        result = subprocess.run(
            [
                sys.executable,
                str(_SCRIPT.parent / "bench_serve.py"),
                "--workloads", "tiny",
                "--output", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        payload = report["workloads"]["serve_tiny"]
        for key in (
            "entries_computed",
            "queries_per_second",
            "coverage",
            "snapshot_mb",
            "wall_seconds",
        ):
            assert key in payload, key
        assert payload["entries_computed"] > 0
        assert payload["n_queries"] == payload["n"] == 600

    def test_tiny_entries_match_committed_baseline(self, tmp_path):
        """The serve-side work accounting is deterministic and pinned."""
        out = tmp_path / "BENCH_serve.json"
        subprocess.run(
            [
                sys.executable,
                str(_SCRIPT.parent / "bench_serve.py"),
                "--workloads", "tiny",
                "--output", str(out),
            ],
            check=True,
            capture_output=True,
        )
        current = json.loads(out.read_text())["workloads"]["serve_tiny"]
        committed = json.loads(
            (_SCRIPT.parent / "results" / "BENCH_serve_baseline.json")
            .read_text()
        )["workloads"]["serve_tiny"]
        assert (
            current["entries_computed"] == committed["entries_computed"]
        )


class TestKernelLaneGates:
    """The lid_kernel lane's zero-tolerance backend gates."""

    def test_entries_identical_false_fails(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", BASE)
        current = _write_report(
            tmp_path / "cur.json",
            {
                "alid_tiny": {"entries_computed": 1000},
                "lid_kernel_tiny": {
                    "entries_computed": 500,
                    "entries_identical": False,
                },
            },
        )
        result = _run_gate(current, baseline)
        assert result.returncode == 1
        assert "across kernel backends" in result.stderr

    def test_entries_identical_true_passes(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", BASE)
        current = _write_report(
            tmp_path / "cur.json",
            {
                "alid_tiny": {"entries_computed": 1000},
                "lid_kernel_tiny": {
                    "entries_computed": 500,
                    "entries_identical": True,
                    "fused_speedup": 1.5,
                },
            },
        )
        assert _run_gate(current, baseline).returncode == 0

    def test_fused_speedup_below_floor_fails(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", BASE)
        current = _write_report(
            tmp_path / "cur.json",
            {
                "alid_tiny": {"entries_computed": 1000},
                "lid_kernel_tiny": {
                    "entries_identical": True,
                    "fused_speedup": 0.7,
                },
            },
        )
        result = _run_gate(current, baseline)
        assert result.returncode == 1
        assert "fused_speedup" in result.stderr

    def test_fused_speedup_floor_is_configurable(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", BASE)
        current = _write_report(
            tmp_path / "cur.json",
            {
                "alid_tiny": {"entries_computed": 1000},
                "lid_kernel_tiny": {
                    "entries_identical": True,
                    "fused_speedup": 0.7,
                },
            },
        )
        assert _run_gate(
            current, baseline, "--min-speedup", "0.5"
        ).returncode == 0

    def test_committed_baseline_covers_kernel_lane(self):
        baseline = json.loads(
            (_SCRIPT.parent / "results" / "BENCH_hotpath_baseline.json")
            .read_text()
        )
        lane = baseline["workloads"]["lid_kernel_tiny"]
        assert lane["entries_identical"] is True
        assert set(lane["backends"]) == {"reference", "fused"}
        assert lane["fused_speedup"] >= 1.5


class TestLayerTraceTargets:
    """The traced benchmark patches entry points it looks up by name.

    ``perfbench/layertrace.py`` reads ``owner.__dict__[attr]`` for every
    target, so a renamed or deleted entry point would otherwise surface
    only when the traced benchmark next runs.
    """

    def test_every_target_resolves(self, monkeypatch):
        root = pathlib.Path(__file__).resolve().parent.parent
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        import layertrace

        missing = [
            f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
            for name, owner, attr, _ in layertrace._targets()
            if attr not in owner.__dict__
        ]
        assert missing == []
