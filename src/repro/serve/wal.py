"""Write-ahead log for the live-corpus ingest tier.

The durability half of :mod:`repro.serve.ingest`: before the
:class:`~repro.serve.ingest.IngestService` mutates its stream, the
operation is journaled here, so a crash at *any* byte of the run loses
at most the operation whose record never committed.  The paper's §6
server-database deployment assumes exactly this discipline from its
storage layer; this module makes the reproduction honest about it.

Format
------
A WAL is a single append-only file::

    REPROWAL1\\n                         file header (magic + version)
    [u32 length | payload | u32 crc32]  one frame per record
    ...

Little-endian framing; the CRC-32 covers the payload bytes.  Each
payload is a JSON header (record kind, free-form ``meta``, array
descriptors) terminated by a NUL byte, followed by the raw C-order
bytes of every array in descriptor order — no pickling anywhere, so a
WAL can never execute code on replay.

Record kinds (:data:`RECORD_KINDS`):

* ``begin`` — the stream's :class:`~repro.core.config.ALIDConfig`,
  written once when an empty journal is attached; replay reconstructs
  the stream from it.
* ``ingest`` — one arriving batch, journaled **before** the absorb
  step runs (write-ahead, not write-behind).
* ``retire`` — tombstoned row indices, journaled before the stream
  retires them.
* ``publish_base`` / ``publish_delta`` — commit markers written
  **after** the artifact directory saved successfully, carrying its
  manifest SHA-256; an artifact directory without its marker is an
  uncommitted publish attempt and is ignored (then overwritten) by
  recovery.

Torn tails
----------
Appends are not atomic: a crash mid-write leaves a frame whose length
prefix, payload, or CRC is incomplete.  :func:`read_records` stops at
the first frame that fails its checks and reports how many bytes were
committed; :meth:`WriteAheadLog.truncate_torn_tail` drops the rest.
Because the file is append-only, everything *before* the torn frame is
untouched by the crash — the committed prefix replays exactly.

A failed append is not a crash: the process lives on and keeps
appending.  When writing, flushing or fsyncing a frame raises
``OSError`` (a full disk, say), :meth:`WriteAheadLog.append` drops the
handle's buffered bytes and cuts the file back to its last committed
size before re-raising, so the next record lands directly after the
last committed one and no acknowledged record ever sits behind a torn
frame.  If that cut fails too, the journal refuses every later append
with :class:`~repro.exceptions.WALError` until recovery truncates it.

Fault injection
---------------
``fault_hook`` is the chaos seam: a callable consulted at the
``append`` and ``fsync`` stages that may perform a partial write and
raise, raise ``ENOSPC``, or swallow the fsync — see
:mod:`repro.testing.faults`.  Production runs leave it ``None``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import struct
import zlib

import numpy as np

from repro.exceptions import ValidationError, WALError
from repro.serve.artifact import decode_guard, expect, fields, json_default

__all__ = [
    "RECORD_KINDS",
    "WAL_MAGIC",
    "WALRecord",
    "WriteAheadLog",
    "read_records",
]

WAL_MAGIC = b"REPROWAL1\n"
RECORD_KINDS = (
    "begin",
    "ingest",
    "retire",
    "publish_base",
    "publish_delta",
)
_LEN = struct.Struct("<I")
_CRC = struct.Struct("<I")
# A frame larger than this is a corrupt length prefix, not a record:
# the biggest legitimate payloads are ingest batches, and even the
# slow soak profile ships well under a few MB per batch.
_MAX_PAYLOAD = 1 << 30


@dataclasses.dataclass
class WALRecord:
    """One committed journal record.

    Attributes
    ----------
    kind:
        One of :data:`RECORD_KINDS`.
    meta:
        The record's JSON header ``meta`` block (publish markers carry
        the artifact's manifest SHA-256 and counts here).
    arrays:
        Named payload arrays (an ingest batch, retire indices), C-order
        copies owned by the caller.
    """

    kind: str
    meta: dict
    arrays: dict[str, np.ndarray]


def _encode(kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """Frame one record: length-prefixed JSON+arrays payload plus CRC."""
    if kind not in RECORD_KINDS:
        raise ValidationError(
            f"WAL record kind must be one of {RECORD_KINDS}, got {kind!r}"
        )
    blobs: list[bytes] = []
    descriptors: list[dict] = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        descriptors.append(
            {
                "name": str(name),
                "dtype": str(array.dtype),
                "shape": list(array.shape),
            }
        )
        blobs.append(array.tobytes())
    header = {"kind": kind, "meta": meta, "arrays": descriptors}
    try:
        header_bytes = json.dumps(
            header, sort_keys=True, default=json_default
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"WAL record meta cannot be journaled: {exc}"
        ) from exc
    payload = header_bytes + b"\0" + b"".join(blobs)
    return (
        _LEN.pack(len(payload))
        + payload
        + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)
    )


def _decode(payload: bytes, *, context: str) -> WALRecord:
    """Rebuild a record from a CRC-verified payload, or raise WALError.

    A CRC only proves the bytes are the ones written; the header is
    still untrusted, so every field is type-checked and any other
    decoding failure goes through the shared guard.
    """
    sep = payload.find(b"\0")
    if sep < 0:
        raise WALError(f"{context}: record header is not NUL-terminated")
    try:
        header = json.loads(payload[:sep].decode("utf-8"))
    except (RecursionError, ValueError) as exc:
        raise WALError(
            f"{context}: record header is not valid JSON: {exc}"
        ) from exc
    with decode_guard(f"{context}: malformed record", WALError):
        expect(header, dict, f"{context}: record header", WALError)
        kind = header.get("kind")
        if kind not in RECORD_KINDS:
            raise WALError(f"{context}: unknown record kind {str(kind)[:40]!r}")
        meta = header.get("meta")
        if meta is not None:
            expect(meta, dict, f"{context}: record meta", WALError)
        arrays: dict[str, np.ndarray] = {}
        offset = sep + 1
        for descriptor in expect(header.get("arrays", []), list,
                                 f"{context}: array list", WALError):
            name, dtype, shape = fields(
                descriptor, f"{context}: array descriptor", WALError,
                name=str, dtype=str, shape=list,
            )
            dtype = np.dtype(dtype)
            shape = tuple(shape)
            if dtype.hasobject or not all(
                isinstance(n, int) and not isinstance(n, bool) and n >= 0
                for n in shape
            ):
                raise WALError(
                    f"{context}: array {name!r} descriptor {dtype} "
                    f"{str(shape)[:40]} is not a plain numeric array"
                )
            n_bytes = dtype.itemsize * math.prod(shape)
            blob = payload[offset:offset + n_bytes]
            if len(blob) != n_bytes:
                raise WALError(
                    f"{context}: array {name!r} needs {n_bytes} payload "
                    f"bytes, {len(blob)} present"
                )
            arrays[name] = np.frombuffer(blob, dtype=dtype).reshape(shape).copy()
            offset += n_bytes
    if offset != len(payload):
        raise WALError(
            f"{context}: {len(payload) - offset} trailing payload "
            f"byte(s) no array descriptor claims"
        )
    return WALRecord(kind=kind, meta=dict(meta or {}), arrays=arrays)


def read_records(path) -> tuple[list[WALRecord], int, int]:
    """Read the committed prefix of a WAL file.

    Returns ``(records, committed_bytes, total_bytes)``: every record
    up to (excluding) the first frame whose length prefix, payload
    size, or CRC-32 fails, the byte offset that committed prefix ends
    at, and the file's actual size.  ``committed_bytes < total_bytes``
    is the torn-tail signature a crash mid-append leaves behind.

    Raises
    ------
    WALError
        Missing file, short/foreign header, or a structurally invalid
        record *inside* a CRC-clean frame (decoder errors are damage
        replay must not paper over).
    """
    path = pathlib.Path(path)
    if not path.is_file():
        raise WALError(f"{path} is not a write-ahead log: no such file")
    blob = path.read_bytes()
    total = len(blob)
    if total < len(WAL_MAGIC) or not blob.startswith(WAL_MAGIC):
        raise WALError(
            f"{path} is not a write-ahead log: bad or short header "
            f"(want {WAL_MAGIC!r})"
        )
    records: list[WALRecord] = []
    offset = len(WAL_MAGIC)
    while offset < total:
        if offset + _LEN.size > total:
            break  # torn length prefix
        (length,) = _LEN.unpack_from(blob, offset)
        if length > _MAX_PAYLOAD:
            break  # corrupt length prefix reads as a torn tail
        end = offset + _LEN.size + length + _CRC.size
        if end > total:
            break  # torn payload or CRC
        payload = blob[offset + _LEN.size:offset + _LEN.size + length]
        (crc,) = _CRC.unpack_from(blob, offset + _LEN.size + length)
        if crc != (zlib.crc32(payload) & 0xFFFFFFFF):
            break  # bit rot or torn rewrite: nothing after it is safe
        records.append(
            _decode(payload, context=f"{path} record {len(records)}")
        )
        offset = end
    return records, offset, total


class WriteAheadLog:
    """An append-only, CRC-per-record journal file.

    Parameters
    ----------
    path:
        Journal file; created (with its header) when missing, opened
        for append when present — after validating the header and
        scanning the committed prefix, so :attr:`n_records` is right
        from the first append.
    fsync:
        Fsync after every append (default).  Turning it off trades the
        power-loss guarantee for speed; process-crash durability (the
        chaos suite's threat model) is unaffected either way.
    fault_hook:
        Chaos seam: ``hook(stage, handle, data)`` consulted at stage
        ``"append"`` (data = the framed record bytes; return True to
        claim the write, e.g. after writing a torn prefix) and
        ``"fsync"`` (data = None; return True to swallow the fsync).
        See :mod:`repro.testing.faults`.
    """

    def __init__(self, path, *, fsync: bool = True, fault_hook=None):
        self._path = pathlib.Path(path)
        self._fsync = bool(fsync)
        self._fault_hook = fault_hook
        if self._path.exists():
            records, committed, total = read_records(self._path)
            if committed < total:
                raise WALError(
                    f"{self._path} has a torn tail ({total - committed} "
                    f"uncommitted byte(s) after record {len(records)}); "
                    f"truncate it via recovery before appending"
                )
            self._n_records = len(records)
        else:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._path.write_bytes(WAL_MAGIC)
            self._n_records = 0
        self._handle = open(self._path, "ab")
        # Size of the committed prefix, and why appending stopped if a
        # failed append could not be cut back to it.
        self._committed = self._path.stat().st_size
        self._cut_failure: OSError | None = None

    # ------------------------------------------------------------------
    @property
    def path(self) -> pathlib.Path:
        """The journal file."""
        return self._path

    @property
    def n_records(self) -> int:
        """Committed records (scanned at open, counted per append)."""
        return self._n_records

    # ------------------------------------------------------------------
    def append(self, kind: str, *, meta: dict | None = None,
               arrays: dict[str, np.ndarray] | None = None) -> int:
        """Append one record durably; return its 0-based index.

        The frame is written in one ``write`` call and fsynced before
        returning (unless constructed with ``fsync=False``), so a
        record whose ``append`` returned is committed: replay will see
        it even if the process dies on the very next instruction.  An
        append that raises ``OSError`` leaves the file at its last
        committed size (see the module docstring).

        Raises
        ------
        WALError
            The journal is closed, or an earlier failed append could
            not be cut back (recover the journal to append again).
        """
        if self._cut_failure is not None:
            raise WALError(
                f"{self._path}: a failed append could not be cut back "
                f"({self._cut_failure}); recover the journal before "
                f"appending"
            )
        if self._handle.closed:
            raise WALError(f"{self._path}: journal is closed")
        frame = _encode(kind, dict(meta or {}), dict(arrays or {}))
        try:
            handled = False
            if self._fault_hook is not None:
                handled = bool(
                    self._fault_hook("append", self._handle, frame)
                )
            if not handled:
                self._handle.write(frame)
            self._handle.flush()
            if self._fsync:
                skipped = False
                if self._fault_hook is not None:
                    skipped = bool(
                        self._fault_hook("fsync", self._handle, None)
                    )
                if not skipped:
                    os.fsync(self._handle.fileno())
        except OSError:
            self._cut_back()
            raise
        self._committed += len(frame)
        index = self._n_records
        self._n_records += 1
        return index

    def _cut_back(self) -> None:
        """Cut a failed append's partial frame off the file.

        Closing the handle drops its buffered bytes (the re-flush may
        fail again; the file closes regardless).  The file is then
        truncated to the committed size, fsynced and reopened for
        append.  A failure here is remembered and refuses every later
        append.
        """
        try:
            self._handle.close()
        except OSError:
            pass
        try:
            with open(self._path, "r+b") as handle:
                os.ftruncate(handle.fileno(), self._committed)
                os.fsync(handle.fileno())
            self._handle = open(self._path, "ab")
        except OSError as exc:
            self._cut_failure = exc

    def replay(self) -> list[WALRecord]:
        """Re-read every committed record (flushing pending appends)."""
        if not self._handle.closed:
            self._handle.flush()
        records, _, _ = read_records(self._path)
        return records

    @classmethod
    def truncate_torn_tail(cls, path) -> int:
        """Drop any uncommitted tail bytes; return how many were cut.

        The recovery primitive: after this, the file holds exactly its
        committed prefix and reopens cleanly for append.
        """
        records, committed, total = read_records(path)
        torn = total - committed
        if torn:
            with open(path, "r+b") as handle:
                handle.truncate(committed)
                handle.flush()
                os.fsync(handle.fileno())
        return torn

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the append handle (idempotent)."""
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        """Context-manager entry."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: close the append handle."""
        self.close()
