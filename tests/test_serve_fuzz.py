"""Fuzz the artifact boundary: corrupt-but-plausible bytes, typed errors.

Hypothesis mutates three small, known-good artifacts — a snapshot, a
base + 2-delta chain with its journal, and a 2-shard plan — and checks
three properties on every mutant:

* every load, :func:`~repro.serve.verify_artifact` call and
  :meth:`~repro.serve.IngestService.recover` call either returns or
  raises a :class:`~repro.exceptions.ReproError`;
* ``verify_artifact`` accepts a snapshot exactly when
  ``ClusterService(path)`` starts on it;
* a service serving the clean snapshot that is asked to ``reload`` or
  ``apply_delta`` a mutant either takes it or raises and then answers
  byte-identically to before.

Mutations: any JSON value at any key path of a manifest or
``plan.json`` replaced by null, a list, an object, a string, a negative
or a huge number; one array file rewritten with another dtype, ndim or
length, or with a NaN, its checksum and size recomputed; one bit
flipped in, or a truncation of, any file; CRC-valid journal frames with
generated JSON headers appended.  Examples are derandomized with a
fixed budget per test, so a failure replays exactly.
"""

import contextlib
import hashlib
import json
import pathlib
import shutil
import tempfile
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.alid import ALID
from repro.core.config import ALIDConfig
from repro.datasets.synthetic import make_synthetic_mixture
from repro.exceptions import ReproError
from repro.serve import (
    ClusterService,
    DetectionSnapshot,
    IngestService,
    ShardPlan,
    ShardPlanner,
    SnapshotDelta,
    WriteAheadLog,
    load_chain_tip,
    read_records,
    verify_artifact,
)
from repro.serve.snapshot import MANIFEST_NAME
from repro.serve.wal import RECORD_KINDS, _LEN
from repro.streaming import StreamingALID


def _fuzz(max_examples: int):
    return settings(
        max_examples=max_examples,
        derandomize=True,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


@pytest.fixture(scope="module")
def corpus():
    return make_synthetic_mixture(
        n=300, regime="bounded", bound=200, n_clusters=4, dim=8, seed=9
    )


@pytest.fixture(scope="module")
def artifacts(corpus, tmp_path_factory):
    """The clean snapshot, chain (with journal) and plan, never mutated."""
    root = tmp_path_factory.mktemp("fuzz")
    detector = ALID(ALIDConfig(delta=150, seed=9))
    result = detector.fit(corpus.data)
    snapshot = DetectionSnapshot.from_result(detector, result)
    snapshot.quality = {
        int(c.label): {"silhouette": 0.5, "coverage": 1.0}
        for c in snapshot.clusters
    }
    snapshot.save(root / "snap")
    ShardPlanner(n_shards=2).plan(root / "snap", root / "plan")
    chain = root / "chain"
    service = IngestService(
        StreamingALID(
            ALIDConfig(
                delta=50,
                lsh_projections=16,
                lsh_tables=20,
                density_threshold=0.5,
                seed=0,
            )
        ),
        wal=WriteAheadLog(chain / "ingest.wal"),
    )
    service.ingest(corpus.data[:100])
    service.publish_base(chain / "base")
    service.ingest(corpus.data[100:150])
    service.publish_delta(chain / "delta_0000")
    service.retire(np.arange(10, 20))
    service.ingest(corpus.data[150:200])
    service.publish_delta(chain / "delta_0001")
    service.close()
    return root


@pytest.fixture(scope="module")
def queries(corpus):
    rng = np.random.default_rng(1)
    return np.vstack(
        [corpus.data[::5], rng.uniform(-50, 50, size=(10, corpus.dim))]
    )


@contextlib.contextmanager
def _copy_of(source: pathlib.Path):
    """A private copy of one clean artifact, removed afterwards."""
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="repro-fuzz-"))
    try:
        yield shutil.copytree(source, scratch / source.name)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _returns_or_typed(call):
    """Run *call*; True if it returned, False on a ReproError."""
    try:
        call()
    except ReproError:
        return False
    return True


def _starts(path) -> bool:
    def start():
        ClusterService(path).close()

    return _returns_or_typed(start)


def _assert_same(got, want):
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.scores, want.scores)
    assert np.array_equal(got.n_candidates, want.n_candidates)


def _check_snapshot(path, clean, queries) -> None:
    """All three properties on one (possibly) mutated snapshot."""
    _returns_or_typed(lambda: DetectionSnapshot.load(path))
    _returns_or_typed(lambda: DetectionSnapshot.load(path, mmap=True))
    verified = _returns_or_typed(lambda: verify_artifact(path))
    assert verified == _starts(path)
    with ClusterService(clean) as service:
        before = service.assign(queries)
        if not _returns_or_typed(lambda: service.reload(path)):
            _assert_same(service.assign(queries), before)


# ----------------------------------------------------------------------
# JSON value replacement
# ----------------------------------------------------------------------
_ODD_VALUES = [None, [], [7, "x"], {}, {"k": 1}, "x", -1, -7.5, 10**30, 1e300]


def _key_paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _key_paths(value, prefix + (index,))


def _replace_json(path: pathlib.Path, data) -> None:
    """Replace one drawn value of the JSON file at *path*."""
    doc = json.loads(path.read_text())
    key_path = data.draw(st.sampled_from(list(_key_paths(doc))))
    value = data.draw(st.sampled_from(_ODD_VALUES))
    if not key_path:
        doc = value
    else:
        parent = doc
        for key in key_path[:-1]:
            parent = parent[key]
        parent[key_path[-1]] = value
    path.write_text(json.dumps(doc))


@_fuzz(100)
@given(data=st.data())
def test_snapshot_manifest_values(artifacts, queries, data):
    with _copy_of(artifacts / "snap") as snap:
        _replace_json(snap / MANIFEST_NAME, data)
        _check_snapshot(snap, artifacts / "snap", queries)


@_fuzz(60)
@given(data=st.data())
def test_delta_manifest_values(artifacts, queries, data):
    name = data.draw(st.sampled_from(["delta_0000", "delta_0001"]))
    with _copy_of(artifacts / "chain") as chain:
        _replace_json(chain / name / MANIFEST_NAME, data)
        _returns_or_typed(lambda: SnapshotDelta.load(chain / name))
        _returns_or_typed(lambda: verify_artifact(chain))
        _returns_or_typed(lambda: load_chain_tip(chain))
        with ClusterService(artifacts / "chain" / "base") as service:
            if name == "delta_0001":
                service.apply_delta(artifacts / "chain" / "delta_0000")
            before = service.assign(queries)
            delta = chain / name
            if not _returns_or_typed(lambda: service.apply_delta(delta)):
                _assert_same(service.assign(queries), before)


@_fuzz(60)
@given(data=st.data())
def test_plan_values(artifacts, data):
    with _copy_of(artifacts / "plan") as plan:
        _replace_json(plan / "plan.json", data)
        _returns_or_typed(lambda: ShardPlan.load(plan))


# ----------------------------------------------------------------------
# array rewrites (checksum and size recomputed)
# ----------------------------------------------------------------------
def _mutate_array(array: np.ndarray, how: str, data) -> np.ndarray:
    if how == "dtype":
        dtype = data.draw(
            st.sampled_from(
                [np.float32, np.float64, np.int8, np.int64, np.uint64, bool]
            )
        )
        return array.astype(dtype)
    if how == "ndim":
        return array.reshape(-1) if array.ndim > 1 else array[:, None]
    if how == "length":
        if data.draw(st.booleans()) or array.shape[0] == 0:
            return array[:-1]
        return np.concatenate([array, array[:1]])
    floats = array.astype(np.float64)
    if floats.size:
        index = data.draw(st.integers(0, floats.size - 1))
        floats.reshape(-1)[index] = np.nan
    return floats


@_fuzz(100)
@given(
    how=st.sampled_from(["dtype", "ndim", "length", "nan"]),
    record_shape=st.booleans(),
    data=st.data(),
)
def test_snapshot_array_rewrites(artifacts, queries, how, record_shape, data):
    with _copy_of(artifacts / "snap") as snap:
        manifest = json.loads((snap / MANIFEST_NAME).read_text())
        entry = manifest["arrays"][
            data.draw(st.sampled_from(sorted(manifest["arrays"])))
        ]
        target = snap / entry["file"]
        array = np.ascontiguousarray(
            _mutate_array(np.load(target), how, data)
        )
        np.save(target, array)
        entry["sha256"] = hashlib.sha256(target.read_bytes()).hexdigest()
        entry["bytes"] = target.stat().st_size
        if record_shape:
            entry["shape"] = list(array.shape)
            entry["dtype"] = str(array.dtype)
        (snap / MANIFEST_NAME).write_text(json.dumps(manifest))
        _check_snapshot(snap, artifacts / "snap", queries)


# ----------------------------------------------------------------------
# bit flips and truncations of any file
# ----------------------------------------------------------------------
def _damage_one_file(root: pathlib.Path, data) -> pathlib.Path:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    target = data.draw(st.sampled_from(files))
    blob = bytearray(target.read_bytes())
    position = data.draw(st.integers(0, max(len(blob) - 1, 0)))
    if data.draw(st.booleans()) and blob:
        blob[position] ^= 1 << data.draw(st.integers(0, 7))
    else:
        del blob[position:]
    target.write_bytes(bytes(blob))
    return target


def _recover(chain: pathlib.Path) -> None:
    IngestService.recover(chain / "ingest.wal", chain).close()


@_fuzz(60)
@given(data=st.data())
def test_snapshot_bytes(artifacts, queries, data):
    with _copy_of(artifacts / "snap") as snap:
        _damage_one_file(snap, data)
        _check_snapshot(snap, artifacts / "snap", queries)


@_fuzz(60)
@given(data=st.data())
def test_chain_bytes(artifacts, data):
    with _copy_of(artifacts / "chain") as chain:
        damaged = _damage_one_file(chain, data)
        _returns_or_typed(lambda: verify_artifact(chain))
        _returns_or_typed(lambda: load_chain_tip(chain))
        if damaged.suffix != ".npy":  # recovery reads only these files
            _returns_or_typed(lambda: _recover(chain))


@_fuzz(40)
@given(data=st.data())
def test_plan_bytes(artifacts, data):
    with _copy_of(artifacts / "plan") as plan:
        _damage_one_file(plan, data)
        _returns_or_typed(lambda: ShardPlan.load(plan))


# ----------------------------------------------------------------------
# CRC-valid journal frames with generated headers
# ----------------------------------------------------------------------
_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_descriptor = st.fixed_dictionaries(
    {
        "name": st.sampled_from(["points", "indices"]) | _json,
        "dtype": st.sampled_from(
            ["float64", "int64", "bool", "O", "V0", "<U2", "garbage"]
        )
        | _json,
        "shape": st.lists(st.integers(-1, 9), max_size=3) | _json,
    }
)
_header = _json | st.fixed_dictionaries(
    {
        "kind": st.sampled_from(RECORD_KINDS) | _json,
        "meta": st.dictionaries(
            st.sampled_from(["config", "sha256", "n_items", "name",
                             "sequence"]),
            _json,
            max_size=3,
        )
        | _json,
        "arrays": st.lists(_descriptor, max_size=2) | _json,
    }
)


@_fuzz(50)
@given(
    frames=st.lists(
        st.tuples(_header, st.binary(max_size=80)), min_size=1, max_size=3
    )
)
def test_appended_journal_frames(artifacts, frames):
    with _copy_of(artifacts / "chain") as chain:
        with open(chain / "ingest.wal", "ab") as handle:
            for header, blob in frames:
                payload = json.dumps(header).encode() + b"\0" + blob
                handle.write(
                    _LEN.pack(len(payload))
                    + payload
                    + _LEN.pack(zlib.crc32(payload) & 0xFFFFFFFF)
                )
        _returns_or_typed(lambda: read_records(chain / "ingest.wal"))
        _returns_or_typed(lambda: verify_artifact(chain))
        _returns_or_typed(lambda: _recover(chain))
