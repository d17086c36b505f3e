"""Regression tests for the one artifact reader (repro.serve.artifact).

One test per defect class of hostile-but-parseable artifacts: malformed
JSON sections, manifest, plan and journal paths that leave the
artifact, arrays of the wrong dtype, non-finite floats, corruptions the
offline audit must refuse exactly as the serving load does, and
``.npy`` headers that promise more bytes than the file holds.  Every case must surface as a typed
:class:`~repro.exceptions.SnapshotError`, never a traceback or a
silently wrong answer.
"""

import hashlib
import json
import shutil
import tracemalloc

import numpy as np
import pytest

from repro.cli import main
from repro.core.alid import ALID
from repro.core.config import ALIDConfig
from repro.datasets.synthetic import make_synthetic_mixture
from repro.exceptions import ReproError, SnapshotError, WALError
from repro.serve import (
    ClusterService,
    DetectionSnapshot,
    IngestService,
    ShardPlan,
    ShardPlanner,
    WriteAheadLog,
    verify_artifact,
)
from repro.serve.plan import PLAN_NAME
from repro.serve.snapshot import MANIFEST_NAME
from repro.streaming import StreamingALID


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One saved snapshot and a 2-shard plan of it, never mutated."""
    dataset = make_synthetic_mixture(
        n=300, regime="bounded", bound=200, n_clusters=4, dim=8, seed=4
    )
    detector = ALID(ALIDConfig(delta=150, seed=4))
    result = detector.fit(dataset.data)
    assert result.n_clusters >= 2
    root = tmp_path_factory.mktemp("artifact")
    snap = DetectionSnapshot.from_result(detector, result).save(root / "snap")
    ShardPlanner(n_shards=2).plan(snap, root / "shards")
    return root


@pytest.fixture
def snap(pristine, tmp_path):
    return shutil.copytree(pristine / "snap", tmp_path / "snap")


@pytest.fixture
def shards(pristine, tmp_path):
    return shutil.copytree(pristine / "shards", tmp_path / "shards")


def _edit_json(path, edit) -> None:
    doc = json.loads(path.read_text())
    doc = edit(doc)
    path.write_text(json.dumps(doc))


def _rewrite_array(snap_dir, name, array) -> None:
    """Replace one array and recompute its whole manifest entry."""
    target = snap_dir / "arrays" / f"{name}.npy"
    np.save(target, array)

    def edit(doc):
        doc["arrays"][name].update(
            sha256=hashlib.sha256(target.read_bytes()).hexdigest(),
            bytes=target.stat().st_size,
            shape=list(array.shape),
            dtype=str(array.dtype),
        )
        return doc

    _edit_json(snap_dir / MANIFEST_NAME, edit)


def _set(key, value):
    def edit(doc):
        doc[key] = value
        return doc

    return edit


def _assert_cli_refuses(path, capsys) -> None:
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert "Traceback" not in err


class TestMalformedManifest:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: [1, 2],
            _set("meta", "x"),
            _set("quality", [1, 2]),
            _set("arrays", []),
        ],
        ids=["top-level-list", "meta-string", "quality-list", "arrays-list"],
    )
    def test_typed_error_everywhere(self, snap, edit, capsys):
        _edit_json(snap / MANIFEST_NAME, edit)
        with pytest.raises(SnapshotError):
            DetectionSnapshot.load(snap)
        with pytest.raises(SnapshotError):
            verify_artifact(snap)
        _assert_cli_refuses(snap, capsys)


class TestMalformedPlan:
    @pytest.mark.parametrize(
        "edit",
        [
            _set("parent", "x"),
            lambda doc: {**doc, "shards": [
                {**doc["shards"][0], "n_items": "many"}, *doc["shards"][1:]
            ]},
            lambda doc: {**doc, "shards": [
                {**doc["shards"][0], "labels": 3}, *doc["shards"][1:]
            ]},
            _set("strategy", "x"),
        ],
        ids=["parent-string", "n-items-string", "labels-int", "strategy"],
    )
    def test_typed_error(self, shards, edit):
        _edit_json(shards / PLAN_NAME, edit)
        with pytest.raises(SnapshotError):
            ShardPlan.load(shards)


class TestPathEscapes:
    def test_array_file_outside_the_snapshot_is_refused(self, snap):
        outside = snap.parent / "outside" / "arrays"
        outside.mkdir(parents=True)
        shutil.copy(snap / "arrays" / "data.npy", outside / "data.npy")

        def edit(doc):
            doc["arrays"]["data"]["file"] = "../outside/arrays/data.npy"
            return doc

        _edit_json(snap / MANIFEST_NAME, edit)
        with pytest.raises(SnapshotError, match="refusing to follow"):
            DetectionSnapshot.load(snap)

    def test_shard_dir_outside_the_plan_is_refused(self, shards):
        shutil.move(shards / "shard_000", shards.parent / "elsewhere")

        def edit(doc):
            doc["shards"][0]["dir"] = "../elsewhere"
            return doc

        _edit_json(shards / PLAN_NAME, edit)
        with pytest.raises(SnapshotError, match="refusing to follow"):
            ShardPlan.load(shards)


    def test_publish_marker_outside_the_chain_is_refused(self, tmp_path):
        dataset = make_synthetic_mixture(
            n=120, regime="bounded", bound=200, n_clusters=3, dim=6, seed=5
        )
        chain = tmp_path / "chain"
        service = IngestService(
            StreamingALID(ALIDConfig(delta=50, seed=0)),
            repeel="sync",
            wal=WriteAheadLog(chain / "ingest.wal"),
        )
        service.ingest(dataset.data)
        base = service.publish_base(chain / "base")
        shutil.copytree(chain / "base", tmp_path / "elsewhere")
        service.wal.append(
            "publish_base",
            meta={
                "sha256": base.manifest_sha256,
                "n_items": base.n_items,
                "name": "../elsewhere",
            },
        )
        service.close()
        with pytest.raises(WALError, match="refusing to follow"):
            IngestService.recover(chain / "ingest.wal", chain)


class TestDeclaredDtypes:
    @pytest.mark.parametrize(
        "name, cast",
        [("item_keys", np.float64), ("mixers", np.int8)],
    )
    def test_wrong_dtype_is_refused(self, snap, name, cast):
        array = np.load(snap / "arrays" / f"{name}.npy").astype(cast)
        _rewrite_array(snap, name, array)
        with pytest.raises(SnapshotError, match=name):
            DetectionSnapshot.load(snap)

    @pytest.mark.parametrize(
        "field, value", [("shape", [1, 1]), ("dtype", "float32")]
    )
    def test_manifest_entry_must_match_the_file(self, snap, field, value):
        """The recorded dtype and shape are read, not just written."""

        def edit(doc):
            doc["arrays"]["data"][field] = value
            return doc

        _edit_json(snap / MANIFEST_NAME, edit)
        with pytest.raises(SnapshotError, match="manifest entry"):
            DetectionSnapshot.load(snap)


class TestVerifyEqualsServe:
    @pytest.mark.parametrize(
        "name, shrink",
        [
            ("item_keys", lambda a: a[:, :-1]),
            ("active", lambda a: a[:5]),
        ],
        ids=["item-keys-column-short", "active-length-5"],
    )
    def test_audit_refuses_what_serving_refuses(self, snap, name, shrink):
        array = np.load(snap / "arrays" / f"{name}.npy")
        _rewrite_array(snap, name, np.ascontiguousarray(shrink(array)))
        with pytest.raises(ReproError):
            ClusterService(snap)
        with pytest.raises(SnapshotError):
            verify_artifact(snap)


class TestNonFiniteArrays:
    """NaN or inf where a finite float is due is refused on load.

    Cluster weights and densities would silently change labels; a
    non-finite projection or offset would start a service whose every
    query fails.  The first two fail the load, the others the index
    restore, so the offline audit refuses each with one line.
    """

    @pytest.mark.parametrize(
        "name, index, value",
        [
            ("cluster_weights", 0, np.nan),
            ("cluster_densities", 0, np.nan),
            ("projections", (0, 0, 0), np.nan),
            ("hash_offsets", (0, 0), np.inf),
        ],
        ids=["weights-nan", "densities-nan", "projections-nan", "offsets-inf"],
    )
    def test_refused_everywhere(self, snap, name, index, value, capsys):
        array = np.load(snap / "arrays" / f"{name}.npy")
        array[index] = value
        _rewrite_array(snap, name, array)
        with pytest.raises(SnapshotError):
            DetectionSnapshot.load(snap).restore_index()
        with pytest.raises(SnapshotError):
            ClusterService(snap)
        with pytest.raises(SnapshotError):
            verify_artifact(snap)
        _assert_cli_refuses(snap, capsys)


class TestVerifyPlan:
    def test_fresh_plan_verifies(self, shards, capsys):
        report = verify_artifact(shards)
        assert report["kind"] == "plan"
        assert len(report["shards"]) == 2
        assert main(["verify", str(shards)]) == 0
        out = capsys.readouterr().out.strip()
        assert "plan ok" in out and "\n" not in out

    def test_tampered_shard_array_is_refused(self, shards, capsys):
        target = shards / "shard_001" / "arrays" / "cluster_weights.npy"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        ShardPlan.load(shards)  # the plan pins only manifests and items
        with pytest.raises(SnapshotError, match="shard_001"):
            verify_artifact(shards)
        _assert_cli_refuses(shards, capsys)


class TestBoundedAllocation:
    def test_header_larger_than_the_file_is_refused_unallocated(self, snap):
        target = snap / "arrays" / "cluster_weights.npy"
        with open(target, "wb") as handle:
            np.lib.format.write_array_header_1_0(
                handle,
                {"descr": "<f8", "fortran_order": False, "shape": (10**12,)},
            )
            handle.write(bytes(64))

        def edit(doc):
            doc["arrays"]["cluster_weights"].update(
                sha256=hashlib.sha256(target.read_bytes()).hexdigest(),
                bytes=target.stat().st_size,
                shape=[10**12],
            )
            return doc

        _edit_json(snap / MANIFEST_NAME, edit)
        tracemalloc.start()
        try:
            with pytest.raises(SnapshotError, match="promises"):
                DetectionSnapshot.load(snap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
