"""Delta-chain compaction: fold base + deltas into a fresh base.

A long-lived ingest pipeline publishes one
:class:`~repro.serve.snapshot.SnapshotDelta` per round, so a chain
grows without bound — every cold start pays one
:meth:`~repro.serve.snapshot.SnapshotDelta.apply` per round since the
last base.  :func:`compact_chain` folds the whole chain into one fresh
:class:`~repro.serve.snapshot.DetectionSnapshot`: the exact in-memory
state a serving process holds at the chain tip, written back to disk
as the next chain's anchor.

Equivalence is pinned two ways (``tests/test_serve_durability.py``):

* the compacted snapshot serves **byte-identical** assignments (labels
  and scores) to the applied chain, on the single-process and the
  sharded front alike;
* compaction is deterministic — compacting the same chain twice
  yields artifacts with the same manifest SHA-256, and the output's
  ``meta`` records the tip SHA it folded
  (``compacted_from``), so provenance survives the fold.

Chain directories follow the ``repro ingest`` layout: one ``base``
snapshot plus ``delta_0000``, ``delta_0001``, ... in sequence order.
"""

from __future__ import annotations

import pathlib
import re

from repro.exceptions import SnapshotError
from repro.obs.metrics import MetricsRegistry
from repro.serve.artifact import MANIFEST_NAME
from repro.serve.snapshot import DetectionSnapshot, SnapshotDelta

__all__ = ["chain_artifacts", "compact_chain", "load_chain_tip", "walk_chain"]

BASE_NAME = "base"
_DELTA_RE = re.compile(r"^delta_(\d{4,})$")


def chain_artifacts(
    chain_dir,
) -> tuple[pathlib.Path, list[pathlib.Path]]:
    """Locate a chain's base and its deltas in sequence order.

    Only *committed* artifacts count: a directory without a readable
    manifest (the signature of a crash mid-save) is skipped — exactly
    one such uncommitted tail directory may exist, anything further is
    a hole in the chain and raises.

    Raises
    ------
    SnapshotError
        Missing chain directory or base, or a gap in the delta
        numbering (``delta_0000`` and ``delta_0002`` without a
        committed ``delta_0001`` cannot be applied in order).
    """
    chain_dir = pathlib.Path(chain_dir)
    if not chain_dir.is_dir():
        raise SnapshotError(
            f"{chain_dir} is not a chain directory: no such directory"
        )
    base = chain_dir / BASE_NAME
    if not base.is_dir():
        raise SnapshotError(
            f"{chain_dir} is not a chain directory: no {BASE_NAME}/ "
            f"snapshot"
        )
    numbered: list[tuple[int, pathlib.Path]] = []
    for entry in chain_dir.iterdir():
        match = _DELTA_RE.match(entry.name)
        if match and entry.is_dir():
            numbered.append((int(match.group(1)), entry))
    numbered.sort()
    deltas: list[pathlib.Path] = []
    for position, (number, path) in enumerate(numbered):
        if number != position:
            raise SnapshotError(
                f"{chain_dir}: delta numbering has a hole — found "
                f"{path.name} where delta_{position:04d} was expected"
            )
        if not (path / MANIFEST_NAME).is_file():
            # An interrupted save: tolerable only as the chain's very
            # last directory (the publish that never committed).
            if position != len(numbered) - 1:
                raise SnapshotError(
                    f"{chain_dir}: {path.name} has no manifest but "
                    f"later deltas exist — the chain has a hole"
                )
            break
        deltas.append(path)
    return base, deltas


def walk_chain(chain_dir, *, mmap: bool = False):
    """Load a chain's base, then apply each delta in order.

    Yields ``(path, artifact, state)`` once per step: the base snapshot
    (artifact and state are the same object), then each loaded
    :class:`~repro.serve.snapshot.SnapshotDelta` with the snapshot it
    produced.  The one walk behind :func:`load_chain_tip`,
    :func:`compact_chain` and :func:`repro.serve.verify.verify_chain`:
    every artifact runs the full load checks, each delta's sequence
    must equal its chain position, and
    :meth:`~repro.serve.snapshot.SnapshotDelta.apply` checks its parent
    link.

    Raises
    ------
    SnapshotError
        Any corrupt artifact, out-of-place sequence number or broken
        parent link.
    """
    base_path, delta_paths = chain_artifacts(chain_dir)
    state = DetectionSnapshot.load(base_path, mmap=mmap)
    yield base_path, state, state
    for position, delta_path in enumerate(delta_paths):
        delta = SnapshotDelta.load(delta_path, mmap=mmap)
        if delta.sequence != position:
            raise SnapshotError(
                f"{delta_path}: sequence {delta.sequence} at chain "
                f"position {position}"
            )
        state = delta.apply(state)
        yield delta_path, delta, state


def load_chain_tip(
    chain_dir, *, mmap: bool = False
) -> DetectionSnapshot:
    """Load the base and apply every delta; return the tip snapshot.

    All-or-nothing like every snapshot load: any corrupt artifact or
    broken parent link raises :class:`~repro.exceptions.SnapshotError`
    before any state escapes.
    """
    for _, _, tip in walk_chain(chain_dir, mmap=mmap):
        pass
    return tip


def compact_chain(
    chain_dir,
    out_dir,
    *,
    mmap: bool = False,
    registry: MetricsRegistry | None = None,
) -> DetectionSnapshot:
    """Fold a chain into a fresh base snapshot at *out_dir*.

    Loads the chain tip (base plus every committed delta, parent-SHA
    verified by :meth:`~repro.serve.snapshot.SnapshotDelta.apply`) and
    saves it as a plain snapshot — the anchor of the next chain.  The
    output's ``meta`` gains ``compacted_from`` (the tip's manifest
    SHA-256) and ``compacted_deltas`` (how many deltas were folded);
    ``delta_sequence`` bookkeeping from the applied chain is dropped,
    so compacting an identical chain twice writes byte-identical
    manifests.

    Parameters
    ----------
    chain_dir:
        Chain directory (``base`` + ``delta_NNNN`` as written by
        ``repro ingest``).
    out_dir:
        Where to write the compacted snapshot.  May be a fresh
        directory or an existing snapshot directory (overwritten with
        the usual manifest-last discipline); it must not be one of the
        chain's own artifacts (``base`` or a ``delta_NNNN``
        directory), which the fold still reads from.
    mmap:
        Memory-map the chain's arrays while folding.
    registry:
        Optional metrics registry; increments ``compactions_total``.

    Raises
    ------
    SnapshotError
        Any corrupt artifact, broken parent link, or *out_dir*
        pointing at one of the chain's own artifacts.
    """
    chain_dir = pathlib.Path(chain_dir)
    out = pathlib.Path(out_dir).resolve()
    if out.parent == chain_dir.resolve() and (
        out.name == BASE_NAME or _DELTA_RE.match(out.name)
    ):
        raise SnapshotError(
            f"refusing to compact {chain_dir} onto {out.name}: the "
            f"chain's own base and deltas must stay intact; write to a "
            f"fresh directory and swap"
        )
    # Step 0 is the base, so the last step's index counts the deltas.
    for n_deltas, (_, _, tip) in enumerate(walk_chain(chain_dir, mmap=mmap)):
        pass
    meta = dict(tip.meta)
    meta.pop("delta_sequence", None)
    meta["compacted_from"] = tip.manifest_sha256
    meta["compacted_deltas"] = n_deltas
    compacted = DetectionSnapshot(
        data=tip.data,
        config=tip.config,
        kernel=tip.kernel,
        lsh_r=tip.lsh_r,
        index_arrays=tip.index_arrays,
        clusters=tip.clusters,
        meta=meta,
        quality=tip.quality,
    )
    compacted.save(out_dir)
    if registry is not None:
        registry.counter(
            "compactions_total", "Delta chains folded into fresh bases"
        ).inc()
    return compacted
