"""The on-disk format of every serving artifact, read and written here only.

Snapshots and deltas (:mod:`repro.serve.snapshot`) and shard plans
(:mod:`repro.serve.plan`) are directories holding a JSON manifest
(``manifest.json``; ``plan.json`` for a plan) and checksummed ``.npy``
files.  Each :class:`ArtifactKind` declares its format marker, schema
version and arrays once; the writer and the reader both follow that
declaration.  The write-ahead log (:mod:`repro.serve.wal`) keeps its
own framing but decodes with the same coercion and guard.

What every artifact load checks, in order:

* the manifest exists, is read once, parses as a JSON object, and its
  SHA-256 is taken from the very bytes that were parsed;
* its ``format`` is the expected kind's and its ``schema_version`` an
  integer from 1 up to the version this library writes;
* each declared array's entry is an object naming
  ``arrays/<name>.npy`` (any other path is refused, never followed);
  the file exists with the entry's ``bytes`` and ``sha256``; its
  ``.npy`` header promises exactly the bytes that follow it, so no
  allocation can exceed the file; its dtype and ndim match the
  declaration, and its dtype and shape match the entry;
* every section is a JSON object of the expected type, and anything
  else raised while decoding the body becomes a
  :class:`~repro.exceptions.SnapshotError` naming the artifact
  (:func:`decode_guard`).

Files are written via temp + rename, so an ``mmap`` reader of the old
file keeps its inode, and the manifest goes last: a directory with a
readable manifest is a complete artifact.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import pathlib

import numpy as np

from repro.exceptions import SnapshotError

__all__ = [
    "ArtifactKind",
    "DELTA",
    "MANIFEST_NAME",
    "PLAN",
    "SNAPSHOT",
    "check_pin",
    "child_dir",
    "decode_guard",
    "expect",
    "fields",
    "json_default",
    "load_arrays",
    "read_manifest",
    "save_npy",
    "sha256_file",
    "shard_dir_name",
    "write_artifact",
    "write_manifest",
]

MANIFEST_NAME = "manifest.json"
_ARRAY_DIR = "arrays"
_HASH_CHUNK = 1 << 20
# Declared dtype classes: one exact dtype, or any signed integer width.
_F8, _U8, _BOOL, _INT = "float64", "uint64", "bool", "signed integer"


@dataclasses.dataclass(frozen=True, eq=False)
class ArtifactKind:
    """Envelope and array declarations of one artifact kind.

    ``arrays`` maps each array name, in write order, to its ``(dtype
    class, ndim)``; ``since`` gives the first schema version of arrays
    older versions lack.
    """

    name: str
    fmt: str
    version: int
    arrays: dict = dataclasses.field(default_factory=dict)
    since: dict = dataclasses.field(default_factory=dict)
    manifest_name: str = MANIFEST_NAME


_CLUSTER_ARRAYS = {
    "cluster_members": (_INT, 1),
    "cluster_weights": (_F8, 1),
    "cluster_offsets": (_INT, 1),
    "cluster_densities": (_F8, 1),
    "cluster_labels": (_INT, 1),
    "cluster_seeds": (_INT, 1),
}
SNAPSHOT = ArtifactKind(
    "snapshot",
    "repro-alid-detection-snapshot",
    2,  # v2 added the optional per-cluster ``quality`` block
    {
        "data": (_F8, 2),
        "projections": (_F8, 3),
        "hash_offsets": (_F8, 2),
        "mixers": (_U8, 2),
        "item_keys": (_U8, 2),
        "active": (_BOOL, 1),
        **_CLUSTER_ARRAYS,
    },
)
DELTA = ArtifactKind(
    "delta",
    "repro-alid-snapshot-delta",
    2,  # v2 added the ``retired_rows`` tombstones
    {
        "appended_data": (_F8, 2),
        "appended_item_keys": (_U8, 2),
        "removed_labels": (_INT, 1),
        "retired_rows": (_INT, 1),
        **_CLUSTER_ARRAYS,
    },
    since={"retired_rows": 2},
)
PLAN = ArtifactKind(
    "shard plan", "repro-alid-shard-plan", 1, manifest_name="plan.json"
)


# ----------------------------------------------------------------------
# JSON coercion and typed decoding
# ----------------------------------------------------------------------
def json_default(value):
    """Coerce numpy values for JSON; reject anything else.

    ``default=str`` would silently stringify an unknown value (say a
    config ``delta`` of type ``np.int32``) into a record that never
    decodes back; anything but the numpy cases fails the write, loudly.
    """
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(
        f"value {value!r} ({type(value).__name__}) is not JSON-serializable"
    )


def _brief(value) -> str:
    """A repr short enough for a one-line error message."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer"}


def expect(value, typ, what: str, error=SnapshotError):
    """*value* if it is a JSON value of *typ*, else raise *error*.

    *typ* is ``dict``, ``list``, ``str``, ``int`` or ``(int, float)``
    for any number; ``true``/``false`` never count as numbers.
    """
    if isinstance(value, bool) or not isinstance(value, typ):
        name = _JSON_NAMES.get(typ, "number")
        raise error(f"{what} must be a JSON {name}, got {_brief(value)}")
    return value


def fields(doc, what: str, error=SnapshotError, **types) -> list:
    """Type-check several keys of the JSON object *doc*; return their values."""
    expect(doc, dict, what, error)
    return [
        expect(doc.get(key), typ, f"{what} {key!r}", error)
        for key, typ in types.items()
    ]


@contextlib.contextmanager
def decode_guard(context: str, error=SnapshotError):
    """Re-raise any decoding failure inside the block as *error*.

    A wrong type deep inside an untrusted body surfaces as
    ``TypeError``, ``KeyError``, ``AttributeError`` or a library
    :class:`~repro.exceptions.ValidationError`; each becomes one
    *error* whose message starts with *context*.  A
    :class:`~repro.exceptions.SnapshotError` passes through unchanged.
    """
    try:
        yield
    except SnapshotError:
        raise
    except (AttributeError, IndexError, KeyError, OverflowError,
            TypeError, ValueError) as exc:
        raise error(f"{context}: {exc}") from exc


# ----------------------------------------------------------------------
# files and pins
# ----------------------------------------------------------------------
def sha256_file(path: pathlib.Path) -> str:
    """Streamed SHA-256 of a file (constant memory, works on huge arrays)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def check_pin(path: pathlib.Path, sha256, *, what: str,
              error=SnapshotError) -> None:
    """Refuse unless the file at *path* exists and hashes to *sha256*.

    The one check behind every checksum recorded for another
    artifact's file: a shard plan's manifest and items pins and the
    journal's publish markers.
    """
    if not path.is_file():
        raise error(f"{what}: {path} does not exist — the pinned "
                    f"artifact vanished")
    digest = sha256_file(path)
    if digest != sha256:
        raise error(
            f"{what} checksum mismatch: {path} hashes to {digest[:12]}... "
            f"but is pinned at {str(sha256)[:12]}... — it was truncated "
            f"or rewritten after it was pinned (it diverged from its "
            f"record)"
        )


def shard_dir_name(shard_id: int) -> str:
    """Directory name of shard *shard_id* under a plan root."""
    return f"shard_{shard_id:03d}"


def child_dir(root, name, what: str, error=SnapshotError) -> pathlib.Path:
    """``root / name`` when *name* is one plain path component, else raise."""
    if not isinstance(name, str) or name in ("", ".", "..") or (
        pathlib.PurePath(name).name != name or "\\" in name
    ):
        raise error(f"{what} names {_brief(name)}, not a directory "
                    f"inside {root}; refusing to follow it")
    return pathlib.Path(root) / name


def save_npy(file_path: pathlib.Path, array) -> str:
    """Write one ``.npy`` via temp + rename; return its SHA-256."""
    tmp_path = file_path.with_name(file_path.stem + ".tmp.npy")
    np.save(tmp_path, array)
    tmp_path.replace(file_path)
    return sha256_file(file_path)


def _write_array(array_dir: pathlib.Path, name: str, array) -> dict:
    """Write ``arrays/<name>.npy``; return its manifest entry.

    The one array writer of every artifact save, looked up here at
    call time (:func:`repro.testing.faults.crash_snapshot_writes`
    patches it to crash a publish between two arrays).
    """
    array = np.asarray(array)
    file_path = array_dir / f"{name}.npy"
    return {
        "file": f"{_ARRAY_DIR}/{name}.npy",
        "sha256": save_npy(file_path, array),
        "bytes": file_path.stat().st_size,
        "shape": list(array.shape),
        "dtype": str(array.dtype),
    }


def _declared(dtype: np.dtype, ndim: int, spec) -> bool:
    """Whether *dtype* and *ndim* match a ``(dtype class, ndim)`` spec."""
    if spec[0] == _INT:
        return dtype.kind == "i" and ndim == spec[1]
    return dtype == np.dtype(spec[0]) and ndim == spec[1]


def write_manifest(path, kind: ArtifactKind, body: dict) -> str:
    """Write *kind*'s manifest (temp + rename); return its SHA-256.

    The ``format`` / ``schema_version`` envelope comes from *kind*.
    """
    doc = {"format": kind.fmt, "schema_version": kind.version, **body}
    try:
        payload = json.dumps(
            doc, indent=2, sort_keys=True, default=json_default
        ).encode() + b"\n"
    except (TypeError, ValueError) as exc:
        raise SnapshotError(
            f"{kind.name} manifest cannot be persisted: {exc}"
        ) from exc
    tmp = pathlib.Path(path) / (kind.manifest_name + ".tmp")
    tmp.write_bytes(payload)
    tmp.replace(pathlib.Path(path) / kind.manifest_name)
    return hashlib.sha256(payload).hexdigest()


def write_artifact(path, kind: ArtifactKind, arrays: dict, body: dict) -> str:
    """Write every declared array, then the manifest; return its SHA-256.

    A previous manifest is removed before the first array is touched,
    so an interrupted overwrite reads as a missing manifest, never as a
    stale manifest over mixed old/new arrays.
    """
    path = pathlib.Path(path)
    (path / _ARRAY_DIR).mkdir(parents=True, exist_ok=True)
    (path / kind.manifest_name).unlink(missing_ok=True)
    entries = {
        name: _write_array(path / _ARRAY_DIR, name, arrays[name])
        for name in kind.arrays
    }
    return write_manifest(path, kind, {**body, "arrays": entries})


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def read_manifest(path, *kinds: ArtifactKind) -> tuple[ArtifactKind, dict, str]:
    """Read and check the envelope of an artifact of one of *kinds*.

    Returns the kind its ``format`` names, the manifest, and the
    SHA-256 of the bytes that were parsed.  *kinds* share one manifest
    file name.
    """
    path = pathlib.Path(path)
    manifest_path = path / kinds[0].manifest_name
    if not manifest_path.is_file():
        raise SnapshotError(
            f"{path} is not a {kinds[0].name} directory: no "
            f"{manifest_path.name} (an interrupted save never writes one)"
        )
    try:
        raw = manifest_path.read_bytes()
        doc = json.loads(raw)
    except (OSError, RecursionError, ValueError) as exc:
        raise SnapshotError(
            f"{manifest_path} is not readable JSON: {exc}"
        ) from exc
    expect(doc, dict, f"{manifest_path}: the manifest")
    kind = next((k for k in kinds if k.fmt == doc.get("format")), None)
    if kind is None:
        raise SnapshotError(
            f"{path}: manifest declares unknown format "
            f"{_brief(doc.get('format'))} (expected "
            f"{' or '.join(repr(k.fmt) for k in kinds)})"
        )
    version = doc.get("schema_version")
    if isinstance(version, bool) or not isinstance(version, int) or version < 1:
        raise SnapshotError(f"{path}: invalid schema_version {_brief(version)}")
    if version > kind.version:
        raise SnapshotError(
            f"{path}: {kind.name} schema_version {version} is newer than "
            f"this library understands (max {kind.version}); upgrade "
            f"the library instead of serving corrupt state"
        )
    return kind, doc, hashlib.sha256(raw).hexdigest()


def _npy_header(handle) -> tuple[np.dtype, tuple, bool]:
    """``(dtype, shape, fortran_order)`` of an open ``.npy``; reads no data."""
    version = np.lib.format.read_magic(handle)
    if version == (1, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
    elif version == (2, 0):
        shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
    else:
        raise ValueError(f"unsupported .npy format version {version}")
    return dtype, shape, fortran


def _load_array(path: pathlib.Path, name: str, spec, entry, mmap: bool):
    """Run every per-array check on one manifest entry, then load it.

    The header is parsed once, and the array is built from it the way
    :func:`numpy.load` would (``numpy.memmap`` or ``numpy.fromfile``),
    only after the header is known to promise exactly the file's bytes.
    """
    if not isinstance(entry, dict):
        raise SnapshotError(f"{path}: manifest has no array entry for {name!r}")
    file_name = f"{_ARRAY_DIR}/{name}.npy"
    if entry.get("file") != file_name:
        raise SnapshotError(
            f"{path}: array entry {name!r} names file "
            f"{_brief(entry.get('file'))}, not {file_name!r}; refusing to "
            f"follow it"
        )
    file_path = path / file_name
    if not file_path.is_file():
        raise SnapshotError(f"{path}: array file {file_name} is missing")
    size = file_path.stat().st_size
    if entry.get("bytes") != size:
        raise SnapshotError(
            f"{path}: array file {file_name} is truncated or padded "
            f"({size} bytes, manifest says {_brief(entry.get('bytes'))})"
        )
    digest = sha256_file(file_path)
    if digest != entry.get("sha256"):
        raise SnapshotError(
            f"{path}: checksum mismatch for {file_name} (file "
            f"{digest[:12]}..., manifest {str(entry.get('sha256'))[:12]}...)"
        )
    invalid = f"{path}: array file {file_name} is not a valid .npy payload"
    with decode_guard(invalid), open(file_path, "rb") as handle:
        dtype, shape, fortran = _npy_header(handle)
        offset, count = handle.tell(), math.prod(shape)
        if count * dtype.itemsize != size - offset:
            raise SnapshotError(
                f"{invalid}: its header promises shape {shape} of {dtype} "
                f"but {size - offset} data byte(s) follow it"
            )
        if not _declared(dtype, len(shape), spec):
            raise SnapshotError(
                f"{path}: array {name!r} must be {spec[1]}-D {spec[0]}, "
                f"{file_name} holds {len(shape)}-D {dtype}"
            )
        if entry.get("dtype") != str(dtype) or entry.get("shape") != list(shape):
            raise SnapshotError(
                f"{path}: array file {file_name} is inconsistent with its "
                f"manifest entry (file {dtype} {list(shape)}, manifest "
                f"{_brief(entry.get('dtype'))} {_brief(entry.get('shape'))})"
            )
        order = "F" if fortran else "C"
        if mmap:
            return np.memmap(file_path, dtype=dtype, mode="r", offset=offset,
                             shape=shape, order=order)
        return np.fromfile(handle, dtype=dtype, count=count).reshape(
            shape, order=order
        )


def load_arrays(path, kind: ArtifactKind, manifest: dict, *,
                mmap: bool) -> dict[str, np.ndarray]:
    """Check and load every array a *kind* manifest of its version holds.

    Verification streams each file for its checksum, so even
    ``mmap=True`` loads never hold a full copy in memory.
    """
    path = pathlib.Path(path)
    (entries,) = fields(manifest, f"{path}: manifest", arrays=dict)
    version = manifest["schema_version"]
    return {
        name: _load_array(path, name, spec, entries.get(name), mmap)
        for name, spec in kind.arrays.items()
        if kind.since.get(name, 1) <= version
    }
