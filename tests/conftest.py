"""Shared fixtures: small deterministic datasets and oracles.

Also carries the per-test timeout fallback: CI installs pytest-timeout
(see the `test` extra) and runs the fast lane with ``--timeout=120``,
but a bare local checkout may not have the plugin — the hooks below
apply the same default through ``signal.setitimer`` so a hung worker
pipe or supervisor deadlock fails the test instead of wedging the run.
``@pytest.mark.timeout(N)`` overrides the default either way.
"""

from __future__ import annotations

import signal

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.affinity.kernel import LaplacianKernel
from repro.affinity.oracle import AffinityOracle
from repro.datasets.synthetic import make_synthetic_mixture

_FALLBACK_TIMEOUT_SECONDS = 120.0


def _timeout_fallback_active(config) -> bool:
    """Whether the SIGALRM fallback should police test runtime.

    Defers entirely to pytest-timeout when it is installed, and only
    works where POSIX interval timers exist (everywhere CI runs).
    """
    if config.pluginmanager.hasplugin("timeout"):
        return False
    return hasattr(signal, "setitimer") and hasattr(signal, "SIGALRM")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Arm a per-test alarm when pytest-timeout is unavailable."""
    if not _timeout_fallback_active(item.config):
        yield
        return
    marker = item.get_closest_marker("timeout")
    seconds = _FALLBACK_TIMEOUT_SECONDS
    if marker is not None and marker.args:
        seconds = float(marker.args[0])
    if seconds <= 0:
        yield
        return

    def _expired(signum, frame):
        pytest.fail(
            f"test exceeded the {seconds:.0f}s fallback timeout "
            "(SIGALRM; install pytest-timeout for stack dumps)",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def blob_data(rng):
    """Three tight, well-separated 2-cluster-friendly blobs + noise.

    60 points, 8-d: clusters of 20 at distance ~0.3 internally, centers
    far apart, 20 noise points scattered widely.
    """
    centers = np.array(
        [
            [0.0] * 8,
            [10.0] * 8,
        ]
    )
    pts = []
    labels = []
    for cid, c in enumerate(centers):
        pts.append(c + rng.normal(scale=0.1, size=(20, 8)))
        labels.extend([cid] * 20)
    pts.append(rng.uniform(-30, 30, size=(20, 8)))
    labels.extend([-1] * 20)
    return np.vstack(pts), np.asarray(labels)


@pytest.fixture
def small_mixture():
    """A small instance of the paper's synthetic workload."""
    return make_synthetic_mixture(
        n=300, regime="bounded", bound=200, n_clusters=10, dim=20, seed=1
    )


@pytest.fixture
def oracle(blob_data):
    data, _ = blob_data
    # k chosen so intra-cluster affinities (~d=0.5) are ~0.8.
    return AffinityOracle(data, LaplacianKernel(k=0.45))


def tiny_affinity_matrix(n: int = 8, seed: int = 0) -> np.ndarray:
    """Random symmetric affinity matrix with zero diagonal in (0, 1)."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(n, n))
    sym = (raw + raw.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    return sym


#: The arrays that make up an LSH index's one CSR.
LSH_CSR_ARRAYS = (
    "_g_keys",
    "_g_starts",
    "_g_lengths",
    "_g_members",
    "_item_buckets",
    "_table_bucket_base",
)


def lsh_reference_keys(state: dict, r: float, points: np.ndarray) -> np.ndarray:
    """``(l, q)`` LSH bucket keys of *points*, hashed table by table.

    An independent reference for :class:`repro.lsh.index.LSHIndex`,
    computed from its ``export_state()``: table ``t``'s key of ``x`` is
    ``floor((x @ P_t.T + b_t) / r)`` cast int64 -> uint64, times the
    table's mixer row, summed with wraparound.
    """
    keys = []
    for proj, offsets, mixer in zip(
        state["projections"], state["hash_offsets"], state["mixers"]
    ):
        codes = np.floor((points @ proj.T + offsets) / r).astype(np.int64)
        keys.append((codes.astype(np.uint64) * mixer).sum(axis=1, dtype=np.uint64))
    return np.stack(keys)


def assert_lsh_csr_matches_reference(index) -> None:
    """An LSH index's CSR equals per-table dicts from key to sorted items.

    The dicts are built from ``export_state()["item_keys"]``.  Buckets
    are numbered table-major with keys ascending within a table; each
    bucket's members are contiguous in the flat member array, in
    ascending item order; every item maps to its bucket in every table.
    """
    item_keys = index.export_state()["item_keys"]
    l, n = item_keys.shape
    bucket = 0
    for t, row in enumerate(item_keys.tolist()):
        buckets: dict[int, list[int]] = {}
        for item, key in enumerate(row):
            buckets.setdefault(key, []).append(item)
        assert index._table_bucket_base[t] == bucket
        start = t * n
        for key in sorted(buckets):
            items = buckets[key]
            assert int(index._g_keys[bucket]) == key
            assert index._g_starts[bucket] == start
            assert index._g_lengths[bucket] == len(items)
            assert index._g_members[start : start + len(items)].tolist() == items
            assert (index._item_buckets[t, items] == bucket).all()
            start += len(items)
            bucket += 1
    assert index._g_keys.size == index._g_lengths.size == bucket
    assert index._table_bucket_base[l] == bucket


def lsh_reference_components(index, items) -> np.ndarray:
    """Active items of the collision components holding *items*.

    An independent reference for
    :meth:`repro.lsh.index.LSHIndex.collision_components`: it labels the
    whole active collision graph (a sparse item-bucket matrix over every
    active item and every bucket with >= 2 active members, then
    ``connected_components``) and keeps the components of the active
    *items*.
    """
    n = index.n
    active = np.flatnonzero(index.active_mask)
    items = np.asarray(items, dtype=np.intp)
    items = items[index.active_mask[items]]
    if items.size == 0:
        return np.empty(0, dtype=np.intp)
    populations = index.active_bucket_populations()
    item_buckets = index._item_buckets[:, active]
    useful = populations[item_buckets] >= 2
    rows = np.broadcast_to(active, item_buckets.shape)[useful]
    cols = item_buckets[useful] + n
    n_nodes = n + populations.size
    bipartite = csr_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)),
        shape=(n_nodes, n_nodes),
    )
    _, labels = connected_components(bipartite, directed=False)
    found = np.isin(labels[:n], labels[items])
    return np.flatnonzero(found & index.active_mask)
