"""Smoke tests for the runnable examples.

Each example is imported and executed as ``__main__`` would run it, with
stdout captured, so a broken public API surfaces here.  The two heavier
examples (visual_words at n=12000, near_duplicate_images with full IID)
run in a trimmed form via module internals.
"""

import importlib.util
import pathlib
import re
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"


def _load_module(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamplesImportable:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart",
            "news_events",
            "near_duplicate_images",
            "visual_words",
            "streaming_events",
            "social_hubs",
            "image_pipeline",
            "serving_quickstart",
            "arena_quickstart",
        ],
    )
    def test_has_main(self, name):
        module = _load_module(name)
        assert callable(module.main)


class TestQuickstartRuns:
    def test_full_run(self, capsys):
        module = _load_module("quickstart")
        module.main()
        out = capsys.readouterr().out
        assert "AVG-F" in out
        assert "affinity entries computed" in out


class TestNewsEventsRuns:
    def test_full_run(self, capsys):
        module = _load_module("news_events")
        module.main()
        out = capsys.readouterr().out
        assert "ALID found" in out
        assert "k-means" in out


class TestStreamingEventsRuns:
    def test_full_run(self, capsys):
        module = _load_module("streaming_events")
        module.main()
        out = capsys.readouterr().out
        assert "day 1" in out
        assert "final AVG-F" in out


class TestSocialHubsRuns:
    def test_full_run(self, capsys):
        module = _load_module("social_hubs")
        module.main()
        out = capsys.readouterr().out
        assert "social groups" in out
        assert "peak memory" in out
        assert "full affinity matrix" in out


class TestServingQuickstartRuns:
    def test_full_run(self, capsys):
        module = _load_module("serving_quickstart")
        module.main()
        out = capsys.readouterr().out
        assert "snapshot written to" in out
        assert "reloaded:" in out
        assert "far-away queries rejected as noise: 20/20" in out
        assert "telemetry: 8 requests observed" in out
        assert "spans balanced: True" in out


class TestArenaQuickstartRuns:
    def test_full_run(self, capsys):
        module = _load_module("arena_quickstart")
        module.main()
        out = capsys.readouterr().out
        # the leaderboard row itself, not the "alid_arena_" scratch path
        assert re.search(r"^alid\s", out, re.M)
        assert "statuses: OK" in out
        assert "quality-annotated snapshot written to" in out
        assert "quality gauges exported: 6" in out


class TestImagePipelineRuns:
    def test_full_run(self, capsys):
        module = _load_module("image_pipeline")
        module.main()
        out = capsys.readouterr().out
        assert "GIST" in out
        assert "SIFT" in out
        assert "visual words" in out
