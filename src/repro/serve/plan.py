"""Shard planning: split one detection snapshot into serving shards.

PALID (paper §4.6, Alg. 3) scales *fitting* by partitioning the work,
running the local criterion per partition, and merging with a cheap
global rule (densest-wins).  The shard planner applies the same
map-reduce decomposition to *serving*: one fitted
:class:`~repro.serve.snapshot.DetectionSnapshot` is split into
``n_shards`` self-contained shard artifacts, each of which a
:class:`~repro.serve.sharded.ShardWorker` process can mmap-load and
serve with the unmodified
:class:`~repro.serve.assigner.ClusterAssigner`.

Why sharding by **clusters** is exact
-------------------------------------
The serve-time criterion decomposes over disjoint point shards:

* LSH collisions are per-item — whether a query's bucket key matches
  item ``i``'s key depends only on the shared hash families and item
  ``i``, never on other items.  Restricting a shard's rebuilt index to
  its own items therefore yields exactly the parent index's collisions
  with those items.
* The Theorem 1 payoff margin of a (query, cluster) pair reads only the
  cluster's own support, weights and density — fully local to the shard
  that owns the cluster.
* The global decision (densest-wins over the best margins) is an
  associative merge, performed by :mod:`repro.serve.router`.

So a shard holds *whole clusters*: every cluster lives in exactly one
shard together with the data rows and per-table hash keys of its
members.  Items in no dominant cluster (fit-time noise) are dropped —
collisions with them never shortlist anything, so the sharded shortlist,
scores and summed ``entries_computed`` all match the single-process
assigner exactly (pinned by ``tests/test_serve_sharded.py``).  Clusters
must be support-disjoint (always true for ALID's peeling fits); an
overlapping cluster pair cannot be split without double-counting and is
rejected at planning time.

Artifact layout
---------------
::

    shard_root/
      plan.json            shard-set manifest: parent snapshot checksum,
                           strategy, per-shard manifest + items checksums
      shard_000/           a full DetectionSnapshot directory
        manifest.json      (embeds the parent checksum in its meta)
        items.npy          global item ids of the shard's rows
        arrays/*.npy
      shard_001/
        ...

``plan.json`` is written last (write-to-temp + rename), mirroring the
snapshot rule: a readable plan certifies a complete shard set, and
loading re-verifies every shard manifest and items file against the
recorded checksums — a truncated or edited shard manifest fails the
whole plan load, never one worker at a time.  Both files go through
:mod:`repro.serve.artifact`, which also refuses a shard ``dir`` other
than ``shard_NNN`` (the plan never points outside its root).
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil

import numpy as np

from repro.core.results import Cluster
from repro.exceptions import SnapshotError, ValidationError
from repro.parallel.mapreduce import chunk_evenly
from repro.serve.artifact import (
    MANIFEST_NAME,
    PLAN,
    check_pin,
    expect,
    fields,
    read_manifest,
    save_npy,
    shard_dir_name,
    write_manifest,
)
from repro.serve.snapshot import DetectionSnapshot

__all__ = [
    "ShardPlan",
    "ShardPlanner",
    "ShardSpec",
    "replan_for_delta",
    "PLAN_NAME",
    "PLAN_SCHEMA_VERSION",
    "SHARD_PLAN_FORMAT",
    "STRATEGIES",
]

SHARD_PLAN_FORMAT = PLAN.fmt
PLAN_SCHEMA_VERSION = PLAN.version
PLAN_NAME = PLAN.manifest_name
ITEMS_NAME = "items.npy"
STRATEGIES = ("balanced", "contiguous")


@dataclasses.dataclass
class ShardSpec:
    """Manifest entry of one shard inside a :class:`ShardPlan`.

    Attributes
    ----------
    shard_id:
        Position of the shard in the plan (0-based, contiguous).
    dir_name:
        Directory name of the shard snapshot under the plan root.
    n_items:
        Number of data rows the shard carries (union of its clusters'
        members).
    n_clusters:
        Number of dominant clusters the shard owns.
    labels:
        Global cluster labels owned by this shard (disjoint across
        shards).
    manifest_sha256:
        Checksum of the shard snapshot's ``manifest.json`` — ties the
        plan to the exact shard artifacts it was written with.
    items_sha256:
        Checksum of the shard's ``items.npy`` (global item ids).
    """

    shard_id: int
    dir_name: str
    n_items: int
    n_clusters: int
    labels: list[int]
    manifest_sha256: str
    items_sha256: str


@dataclasses.dataclass
class ShardPlan:
    """A validated shard set: parent provenance plus per-shard specs.

    Attributes
    ----------
    root:
        Directory holding ``plan.json`` and the shard subdirectories.
    parent_manifest_sha256:
        Checksum of the parent snapshot's manifest (``None`` when the
        plan was built from an in-memory snapshot).
    parent_n_items / parent_n_clusters / parent_dim:
        Shape of the parent detection, for quick sanity checks.
    strategy:
        The planner strategy that produced the split.
    shards:
        One :class:`ShardSpec` per shard, ordered by ``shard_id``.
    """

    root: pathlib.Path
    parent_manifest_sha256: str | None
    parent_n_items: int
    parent_n_clusters: int
    parent_dim: int
    strategy: str
    shards: list[ShardSpec]

    @property
    def n_shards(self) -> int:
        """Number of shards in the plan."""
        return len(self.shards)

    def shard_dir(self, shard_id: int) -> pathlib.Path:
        """Directory of one shard's snapshot artifact."""
        return self.root / self.shards[shard_id].dir_name

    def save(self) -> pathlib.Path:
        """Write ``plan.json`` (write-to-temp + rename) and return it."""
        write_manifest(
            self.root,
            PLAN,
            {
                "strategy": self.strategy,
                "parent": {
                    "manifest_sha256": self.parent_manifest_sha256,
                    "n_items": int(self.parent_n_items),
                    "n_clusters": int(self.parent_n_clusters),
                    "dim": int(self.parent_dim),
                },
                "shards": [
                    {
                        "shard_id": s.shard_id,
                        "dir": s.dir_name,
                        "n_items": s.n_items,
                        "n_clusters": s.n_clusters,
                        "labels": [int(label) for label in s.labels],
                        "manifest_sha256": s.manifest_sha256,
                        "items_sha256": s.items_sha256,
                    }
                    for s in self.shards
                ],
            },
        )
        return self.root / PLAN_NAME

    @classmethod
    def load(cls, root) -> "ShardPlan":
        """Load and validate a shard plan directory.

        Every field is type-checked, every shard ``dir`` must be its
        ``shard_NNN`` name, and every shard's ``manifest.json`` and
        ``items.npy`` is existence- and checksum-verified against the
        plan before anything serves — a truncated shard manifest or
        swapped items file fails the whole plan, so a worker pool never
        starts on a half-written shard set.  (The array payloads inside
        each shard are verified again by the worker's own
        :meth:`DetectionSnapshot.load`.)

        Raises
        ------
        SnapshotError
            Missing/unreadable ``plan.json``, wrong format, schema newer
            than :data:`PLAN_SCHEMA_VERSION`, a malformed field, an
            unknown strategy, a shard directory other than ``shard_NNN``,
            a missing shard file, or a checksum mismatch.
        """
        root = pathlib.Path(root)
        _, payload, _ = read_manifest(root, PLAN)
        strategy, entries, parent = fields(
            payload, f"{root}: plan", strategy=str, shards=list, parent=dict
        )
        n_items, n_clusters, dim = fields(
            parent, f"{root}: plan parent", n_items=int, n_clusters=int,
            dim=int,
        )
        parent_sha = parent.get("manifest_sha256")
        if parent_sha is not None:
            expect(parent_sha, str, f"{root}: plan parent manifest_sha256")
        if strategy not in STRATEGIES:
            raise SnapshotError(
                f"{root}: plan strategy {strategy[:40]!r} is not one of "
                f"{STRATEGIES}"
            )
        if not entries:
            raise SnapshotError(f"{root}: plan lists no shards")
        return cls(
            root=root,
            parent_manifest_sha256=parent_sha,
            parent_n_items=n_items,
            parent_n_clusters=n_clusters,
            parent_dim=dim,
            strategy=strategy,
            shards=[
                _load_spec(root, position, entry)
                for position, entry in enumerate(entries)
            ],
        )


def _load_spec(root: pathlib.Path, position: int, entry) -> ShardSpec:
    """Type-check one ``plan.json`` shard entry and pin its two files."""
    where = f"{root}: shard entry {position}"
    shard_id, dir_name, n_items, n_clusters, labels, manifest_sha, items_sha = (
        fields(entry, where, shard_id=int, dir=str, n_items=int,
               n_clusters=int, labels=list, manifest_sha256=str,
               items_sha256=str)
    )
    if shard_id != position:
        raise SnapshotError(
            f"{root}: shard ids must be contiguous from 0, got "
            f"{shard_id} at position {position}"
        )
    if dir_name != shard_dir_name(position):
        raise SnapshotError(
            f"{where}: dir {dir_name[:60]!r} is not "
            f"{shard_dir_name(position)!r}; refusing to follow it"
        )
    for label in labels:
        expect(label, int, f"{where} label")
    check_pin(root / dir_name / MANIFEST_NAME, manifest_sha,
              what=f"{root}: shard {dir_name} manifest")
    check_pin(root / dir_name / ITEMS_NAME, items_sha,
              what=f"{root}: shard {dir_name} items")
    return ShardSpec(position, dir_name, n_items, n_clusters, labels,
                     manifest_sha, items_sha)


class ShardPlanner:
    """Split one detection snapshot into per-shard serving artifacts.

    Parameters
    ----------
    n_shards:
        Requested number of shards.  When the snapshot has fewer
        clusters than shards, the plan shrinks to one shard per cluster
        (never an empty shard).
    strategy:
        ``"balanced"`` (default) assigns clusters greedily, largest
        first, to the currently lightest shard — near-equal data rows
        per shard regardless of cluster-size skew.  ``"contiguous"``
        keeps clusters in data order (by smallest member index) and
        cuts the sequence into contiguous runs
        (:func:`repro.parallel.mapreduce.chunk_evenly`, the PALID
        chunking rule) — shard *i* serves a contiguous region of the
        corpus, which matters when the corpus itself is range-partitioned.

    Example
    -------
    >>> from repro.serve import ShardPlanner           # doctest: +SKIP
    >>> plan = ShardPlanner(n_shards=4).plan("snap_dir", "shards_dir")
    ... # doctest: +SKIP
    """

    def __init__(self, n_shards: int = 2, *, strategy: str = "balanced"):
        if n_shards < 1:
            raise ValidationError(
                f"n_shards must be >= 1, got {n_shards}"
            )
        if strategy not in STRATEGIES:
            raise ValidationError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}"
            )
        self.n_shards = int(n_shards)
        self.strategy = strategy

    # ------------------------------------------------------------------
    def plan(self, source, out_root) -> ShardPlan:
        """Split *source* into shard artifacts under *out_root*.

        Parameters
        ----------
        source:
            A snapshot directory path (loaded ``mmap=True``, so planning
            a multi-GB snapshot never materialises its matrix) or an
            in-memory :class:`DetectionSnapshot`.
        out_root:
            Directory to create the shard set in.

        Returns
        -------
        ShardPlan
            The saved plan (``out_root/plan.json`` exists on return).

        Raises
        ------
        ValidationError
            Snapshot with no dominant clusters (nothing to serve), or
            clusters whose supports overlap (not shardable without
            double-counting; never produced by ALID's peeling fits).
        """
        if isinstance(source, DetectionSnapshot):
            snapshot = source
        else:
            snapshot = DetectionSnapshot.load(source, mmap=True)
        # The manifest SHA doubles as the delta-chain anchor: a snapshot
        # loaded from (or ever saved to) disk carries it, and
        # ShardedClusterService.apply_delta verifies chains against it.
        parent_sha = snapshot.manifest_sha256
        if snapshot.n_clusters == 0:
            raise ValidationError(
                "snapshot holds no dominant clusters; there is nothing "
                "to shard"
            )
        member_total = sum(c.size for c in snapshot.clusters)
        member_union = np.unique(
            np.concatenate([c.members for c in snapshot.clusters])
        )
        if member_union.size != member_total:
            raise ValidationError(
                "cluster supports overlap; cluster sharding requires "
                "support-disjoint clusters (ALID peeling fits always "
                "are — reduce PALID overlaps before sharding)"
            )
        groups = self._assign_clusters(snapshot.clusters)
        root = pathlib.Path(out_root)
        root.mkdir(parents=True, exist_ok=True)
        # Plan removed first (an interrupted re-plan reads as a clean
        # missing-plan state), then any shard directories of a previous
        # plan: a smaller new plan must not leave checksum-valid stale
        # shards of an older fit lying around as loadable snapshots.
        (root / PLAN_NAME).unlink(missing_ok=True)
        for stale in sorted(root.glob("shard_[0-9][0-9][0-9]")):
            if stale.is_dir():
                shutil.rmtree(stale)
        specs: list[ShardSpec] = []
        for shard_id, rows in enumerate(groups):
            specs.append(
                self._write_shard(
                    snapshot, parent_sha, root, shard_id, rows, len(groups)
                )
            )
        plan = ShardPlan(
            root=root,
            parent_manifest_sha256=parent_sha,
            parent_n_items=snapshot.n_items,
            parent_n_clusters=snapshot.n_clusters,
            parent_dim=snapshot.dim,
            strategy=self.strategy,
            shards=specs,
        )
        plan.save()
        return plan

    # ------------------------------------------------------------------
    def _assign_clusters(self, clusters: list[Cluster]) -> list[list[int]]:
        """Partition cluster rows into per-shard lists (no empty shards)."""
        k = len(clusters)
        n_shards = min(self.n_shards, k)
        if self.strategy == "contiguous":
            order = sorted(
                range(k), key=lambda row: int(clusters[row].members.min())
            )
            return chunk_evenly(order, n_shards)
        # balanced: largest clusters first onto the lightest shard.
        order = sorted(
            range(k),
            key=lambda row: (-clusters[row].size, clusters[row].label),
        )
        loads = [0] * n_shards
        groups: list[list[int]] = [[] for _ in range(n_shards)]
        for row in order:
            target = min(range(n_shards), key=lambda s: (loads[s], s))
            groups[target].append(row)
            loads[target] += clusters[row].size
        return groups

    def _write_shard(
        self,
        snapshot: DetectionSnapshot,
        parent_sha: str | None,
        root: pathlib.Path,
        shard_id: int,
        rows: list[int],
        n_shards: int,
    ) -> ShardSpec:
        """Materialise one shard as a DetectionSnapshot + items file."""
        clusters = [snapshot.clusters[row] for row in rows]
        items = np.unique(
            np.concatenate([c.members for c in clusters])
        ).astype(np.intp)
        # Remap each cluster's members to shard-local row positions;
        # member order inside a cluster is preserved, so payoff blocks
        # (and their BLAS batching) match the single-process assigner
        # bit for bit.
        local_clusters = [
            Cluster(
                members=np.searchsorted(items, c.members),
                weights=c.weights.copy(),
                density=c.density,
                label=c.label,
                seed=c.seed,
            )
            for c in clusters
        ]
        # Each shard keeps the quality scores of exactly its clusters
        # (scores are per-label facts, indifferent to the member remap),
        # so a sharded pool can re-export the parent's gauges.
        quality = (
            None
            if snapshot.quality is None
            else {
                int(c.label): dict(snapshot.quality[int(c.label)])
                for c in clusters
                if int(c.label) in snapshot.quality
            }
        )
        arrays = snapshot.index_arrays
        shard = DetectionSnapshot(
            data=np.ascontiguousarray(np.asarray(snapshot.data)[items]),
            config=snapshot.config,
            kernel=snapshot.kernel,
            lsh_r=snapshot.lsh_r,
            index_arrays={
                "projections": np.asarray(arrays["projections"]),
                "hash_offsets": np.asarray(arrays["hash_offsets"]),
                "mixers": np.asarray(arrays["mixers"]),
                "item_keys": np.ascontiguousarray(
                    np.asarray(arrays["item_keys"])[:, items]
                ),
                "active": np.ones(items.size, dtype=bool),
            },
            clusters=local_clusters,
            meta={
                "shard_id": shard_id,
                "n_shards": n_shards,
                "strategy": self.strategy,
                "parent_manifest_sha256": parent_sha,
                "parent_n_items": snapshot.n_items,
                "cluster_labels": [int(c.label) for c in clusters],
            },
            quality=quality,
        )
        dir_name = shard_dir_name(shard_id)
        shard_dir = root / dir_name
        shard.save(shard_dir)
        return ShardSpec(
            shard_id=shard_id,
            dir_name=dir_name,
            n_items=int(items.size),
            n_clusters=len(clusters),
            labels=[int(c.label) for c in clusters],
            manifest_sha256=shard.manifest_sha256,
            items_sha256=save_npy(
                shard_dir / ITEMS_NAME, items.astype(np.int64)
            ),
        )


def replan_for_delta(
    plan: ShardPlan,
    snapshot: DetectionSnapshot,
    removed_labels,
    upserted_labels,
) -> "tuple[ShardPlan, list[int]] | None":
    """Rewrite only the shards a delta touched; keep the rest on disk.

    *snapshot* is the **post-delta** full snapshot
    (:meth:`~repro.serve.snapshot.SnapshotDelta.apply` output) and
    *removed_labels* / *upserted_labels* are the delta's change set.
    Shard ownership follows the current *plan*: a removed or replaced
    label touches the shard that owns it; a brand-new label lands on the
    lightest already-touched shard (by recorded rows, ties to the lower
    shard id), or the lightest shard overall when the delta only adds
    clusters.  Untouched shard directories are not rewritten — their
    spec entries (checksums included) carry over verbatim, which is what
    lets :meth:`~repro.serve.sharded.ShardedClusterService.apply_delta`
    keep those workers' processes running.

    ``plan.json`` is removed first and the updated plan written last, so
    an interrupted rewrite reads as a clean missing-plan state, and
    replaced shard files go through the snapshot writer's
    write-to-temp + rename — a worker still mmap-serving the old shard
    keeps its inodes.

    Returns
    -------
    tuple[ShardPlan, list[int]] | None
        The saved updated plan and the sorted touched shard ids —
        or ``None`` when some touched shard would end up with zero
        clusters, in which case the caller must fall back to a full
        re-plan (an empty shard is not a servable artifact).
    """
    label_to_shard = {
        int(label): spec.shard_id
        for spec in plan.shards
        for label in spec.labels
    }
    removed = {int(label) for label in removed_labels}
    upserted = {int(label) for label in upserted_labels}
    unknown = removed - set(label_to_shard)
    if unknown:
        raise ValidationError(
            f"delta removes labels {sorted(unknown)} that no shard in "
            f"{plan.root} owns — the plan does not match the delta's "
            f"parent snapshot"
        )
    # Survivors keep their shard (and their within-shard order);
    # replaced labels (removed + re-upserted) come back to the shard
    # that owned them.
    new_sets = {
        spec.shard_id: [
            int(label) for label in spec.labels if int(label) not in removed
        ]
        for spec in plan.shards
    }
    touched = {
        label_to_shard[label]
        for label in removed | (upserted & set(label_to_shard))
    }
    for label in sorted(upserted & set(label_to_shard)):
        if label in removed:
            new_sets[label_to_shard[label]].append(label)
    fresh = sorted(upserted - set(label_to_shard))
    if fresh:
        candidates = sorted(touched) or [s.shard_id for s in plan.shards]
        target = min(
            candidates, key=lambda sid: (plan.shards[sid].n_items, sid)
        )
        touched.add(target)
        new_sets[target].extend(fresh)
    if any(not new_sets[sid] for sid in touched):
        return None
    label_to_row = {
        int(c.label): row for row, c in enumerate(snapshot.clusters)
    }
    planner = ShardPlanner(n_shards=len(plan.shards), strategy=plan.strategy)
    (plan.root / PLAN_NAME).unlink(missing_ok=True)
    specs = list(plan.shards)
    for sid in sorted(touched):
        rows = [label_to_row[label] for label in new_sets[sid]]
        specs[sid] = planner._write_shard(
            snapshot,
            snapshot.manifest_sha256,
            plan.root,
            sid,
            rows,
            len(plan.shards),
        )
    new_plan = ShardPlan(
        root=plan.root,
        parent_manifest_sha256=snapshot.manifest_sha256,
        parent_n_items=snapshot.n_items,
        parent_n_clusters=snapshot.n_clusters,
        parent_dim=snapshot.dim,
        strategy=plan.strategy,
        shards=specs,
    )
    new_plan.save()
    return new_plan, sorted(touched)
