"""Deterministic chaos injector for the durable-ingest write path.

One :class:`FaultInjector` plugs into two seams:

* **WAL appends** — pass the injector as
  :class:`~repro.serve.wal.WriteAheadLog`'s ``fault_hook``.  It is
  consulted before every append (and fsync) and can write a *torn
  prefix* of the frame then die (:class:`InjectedFault`), fail with
  ``ENOSPC`` after a partial write, or swallow fsyncs.
* **Snapshot/delta array writes** — wrap a publish in
  :func:`crash_snapshot_writes` to die between two
  ``_write_array`` calls, the crash-mid-save case the manifest-last
  discipline must turn into a missing-manifest artifact (never a
  stale manifest over mixed arrays).

Determinism contract: faults fire on explicit 0-based operation
counts (``kill_at_record=3`` kills the 4th append), never on clocks
or randomness, so a failing chaos case replays exactly.
"""

from __future__ import annotations

import contextlib
import errno


__all__ = ["FaultInjector", "InjectedFault", "crash_snapshot_writes"]


class InjectedFault(RuntimeError):
    """The simulated crash.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: the
    library's own ``except ValidationError`` clauses must never absorb
    an injected crash — it has to propagate like the power loss it
    stands in for.
    """


class FaultInjector:
    """A scriptable fault schedule over the durable write path.

    Parameters
    ----------
    kill_at_record:
        0-based WAL append index to die at.  The frame is written only
        up to ``torn_bytes`` (default: half) before
        :class:`InjectedFault` is raised — the torn-tail case.
    torn_bytes:
        How many bytes of the doomed frame reach the file; ``0`` dies
        before any byte (a crash exactly on the record boundary),
        ``None`` writes half the frame.
    enospc_at_record:
        0-based append index at which the disk "fills": a third of the
        frame is written, then ``OSError(ENOSPC)`` is raised.
    drop_fsync:
        Swallow every fsync (the lying-disk case).  Appends still
        reach the OS page cache, so process-crash recovery is
        unaffected; the counter records how many syncs were dropped.
    kill_at_array_write:
        0-based snapshot array-write index to die *before*, when armed
        via :func:`crash_snapshot_writes`.

    Attributes
    ----------
    appends, fsyncs_dropped, array_writes:
        Operations observed so far — the determinism ledger a test can
        assert against.
    """

    def __init__(
        self,
        *,
        kill_at_record: int | None = None,
        torn_bytes: int | None = None,
        enospc_at_record: int | None = None,
        drop_fsync: bool = False,
        kill_at_array_write: int | None = None,
    ):
        self.kill_at_record = kill_at_record
        self.torn_bytes = torn_bytes
        self.enospc_at_record = enospc_at_record
        self.drop_fsync = drop_fsync
        self.kill_at_array_write = kill_at_array_write
        self.appends = 0
        self.fsyncs_dropped = 0
        self.array_writes = 0

    # ------------------------------------------------------------------
    def __call__(self, stage: str, handle, data) -> bool:
        """The :class:`~repro.serve.wal.WriteAheadLog` fault hook.

        Returns True when the injector claimed the operation (wrote a
        torn prefix / swallowed the fsync); False lets the WAL proceed
        normally.
        """
        if stage == "append":
            index = self.appends
            self.appends += 1
            if index == self.kill_at_record:
                torn = (
                    len(data) // 2
                    if self.torn_bytes is None
                    else min(self.torn_bytes, len(data))
                )
                if torn:
                    handle.write(data[:torn])
                    handle.flush()
                raise InjectedFault(
                    f"injected crash mid-append of record {index} "
                    f"({torn}/{len(data)} frame bytes reached disk)"
                )
            if index == self.enospc_at_record:
                handle.write(data[: len(data) // 3])
                handle.flush()
                raise OSError(
                    errno.ENOSPC, f"injected ENOSPC at record {index}"
                )
            return False
        if stage == "fsync":
            if self.drop_fsync:
                self.fsyncs_dropped += 1
                return True
            return False
        raise InjectedFault(f"unknown fault stage {stage!r}")


@contextlib.contextmanager
def crash_snapshot_writes(injector: FaultInjector):
    """Arm *injector* over snapshot/delta array writes.

    While active, every ``repro.serve.artifact._write_array`` call
    (snapshot saves, delta saves, shard plan writes — they all share
    it) bumps ``injector.array_writes`` and dies with
    :class:`InjectedFault` when the count reaches
    ``kill_at_array_write`` — *before* the doomed array is written,
    leaving the directory exactly as a crash between two array
    renames would.  The patch is removed on exit no matter how the
    block ends.
    """
    from repro.serve import artifact as artifact_module

    original = artifact_module._write_array

    def _instrumented(array_dir, name, array):
        index = injector.array_writes
        injector.array_writes += 1
        if index == injector.kill_at_array_write:
            raise InjectedFault(
                f"injected crash before array write {index} ({name!r})"
            )
        return original(array_dir, name, array)

    artifact_module._write_array = _instrumented
    try:
        yield injector
    finally:
        artifact_module._write_array = original
