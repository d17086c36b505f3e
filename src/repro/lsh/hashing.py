"""p-stable hash functions ``h(v) = floor((a . v + b) / r)``.

Each hash value is the concatenation of ``n_projections`` such functions
(the paper uses 40 projections per hash value, Fig. 6 caption).  Gaussian
projections make the family 2-stable, i.e. locality sensitive for the
Euclidean distance used throughout the paper's experiments.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive

__all__ = ["PStableHashFamily"]


class PStableHashFamily:
    """A bundle of ``n_projections`` p-stable hash functions.

    Parameters
    ----------
    dim:
        Dimensionality of the data items.
    r:
        Length of the equally divided segments of the real line (the
        paper's sweep parameter in Fig. 6).  Larger *r* makes collisions
        more likely, lowering the sparse degree of LSH-sparsified
        matrices.
    n_projections:
        Number of concatenated hash functions per hash value (paper: 40).
    seed:
        Seed or generator for the random projections and offsets.
    """

    def __init__(self, dim: int, r: float, n_projections: int = 40, seed=None):
        if dim <= 0:
            raise ValidationError(f"dim must be positive, got {dim}")
        if n_projections <= 0:
            raise ValidationError(
                f"n_projections must be positive, got {n_projections}"
            )
        self.dim = int(dim)
        self.r = check_positive(r, name="r")
        self.n_projections = int(n_projections)
        rng = as_generator(seed)
        # Gaussian entries => 2-stable family (Euclidean distance).
        self._projections = rng.normal(size=(self.n_projections, self.dim))
        self._offsets = rng.uniform(0.0, self.r, size=self.n_projections)

    # ------------------------------------------------------------------
    # persistence (detection snapshots, repro.serve)
    # ------------------------------------------------------------------
    def export_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The family's random state: ``(projections, offsets)`` copies.

        Together with ``r`` these fully determine every hash value the
        family will ever produce, which is what detection snapshots
        persist so a reloaded index hashes queries bit-identically.
        """
        return self._projections.copy(), self._offsets.copy()

    def project(self, data: np.ndarray) -> np.ndarray:
        """Raw segment coordinates ``(a . v + b) / r`` for every row.

        The integer part of each coordinate is the hash value; the
        fractional part measures how close the point sits to a segment
        boundary, which is what multi-probe LSH scores its bucket
        perturbations by (:mod:`repro.lsh.multiprobe`).
        """
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if data.shape[1] != self.dim:
            raise ValidationError(
                f"data has dim {data.shape[1]}, hash family expects {self.dim}"
            )
        return (data @ self._projections.T + self._offsets) / self.r

    def hash_many(self, data: np.ndarray) -> np.ndarray:
        """Hash every row of *data*.

        Returns an ``(n, n_projections)`` integer array; each row is the
        concatenated hash value of the corresponding data item.
        """
        return np.floor(self.project(data)).astype(np.int64)

    def hash_one(self, point: np.ndarray) -> tuple[int, ...]:
        """Hash a single point into a hashable bucket key."""
        return tuple(self.hash_many(point[None, :])[0].tolist())

    def keys_for(self, data: np.ndarray) -> list[tuple[int, ...]]:
        """Bucket keys (hashable tuples) for every row of *data*."""
        codes = self.hash_many(data)
        return [tuple(row) for row in codes.tolist()]
