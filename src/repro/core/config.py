"""Configuration for ALID / PALID with the paper's published defaults."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ValidationError

__all__ = ["ALIDConfig"]

#: Retired fields that older persisted configs still carry; dropped by
#: :meth:`ALIDConfig.from_dict`.
_RETIRED_FIELDS = ("peel_driver", "seed_block_size", "lid_kernel")


@dataclass(frozen=True)
class ALIDConfig:
    """All tunables of ALID (paper §4 and §5).

    Attributes
    ----------
    delta:
        Maximum number of new vertices CIVS may retrieve per iteration
        (paper fixes ``delta = 800`` in all experiments).
    max_outer_iterations:
        The paper's ``C`` — cap on ALID iterations per cluster ("a small
        value of C = 10 is adequate").
    max_lid_iterations:
        The paper's ``T`` — cap on LID iterations per Step 1 call.
    tol:
        Immunity tolerance for the infection/immunization dynamics.
    density_threshold:
        Clusters with final density ``pi(x)`` at or above this value are
        reported as dominant (paper §4.4 uses 0.75).
    initial_radius:
        ROI radius for the first iteration ``c = 1``, when ``pi(x) = 0``
        makes Eq. 15 undefined.  The paper hard-codes R = 0.4, which
        assumes its normalised feature scales; the default ``"auto"``
        uses the median distance from the seed to its LSH-colliding
        neighbours instead, adapting to any data scale (DESIGN.md §6;
        pass 0.4 to reproduce the paper's literal choice).
    support_tol:
        Weights at or below this value count as outside the support.
    lsh_r / lsh_projections / lsh_tables:
        LSH parameters; the paper's Fig. 6 uses 40 projections and 50
        tables and sweeps ``r``.  ``lsh_r = None`` auto-picks
        ``lsh_r_scale`` times the intra-cluster distance scale (the
        distance whose affinity is 0.8), which gives 40-projection hash
        values a per-table collision probability of a few percent for
        intra-cluster pairs — high recall over 50 tables, near-zero for
        noise pairs.
    lsh_r_scale:
        Multiplier for the auto-picked segment length (ablation hook).
    kernel_k / kernel_p:
        Laplacian-kernel parameters of Eq. 1; ``kernel_k = None``
        auto-selects via
        :func:`repro.affinity.kernel.suggest_scaling_factor`.
    kernel_target_affinity:
        Calibration anchor: the affinity assigned to pairs at the
        intra-cluster distance scale.  Used both by the auto kernel
        selection and as the distance anchor for the auto LSH segment
        length.
    roi_growth_offset / roi_growth_rate:
        The logistic ROI schedule ``theta(c) = 1 / (1 + exp(offset -
        c / rate))`` (paper Eq. 16 uses offset 4 and rate 2).
    min_cluster_size:
        Dominant clusters smaller than this are reported as noise.
    verify_global:
        If True, after ROI/CIVS convergence the detector performs an exact
        full scan for remaining infective vertices (only sensible for
        small n; used by correctness tests, not by benchmarks).
    seed:
        Seed for the LSH projections and any sampling.
    """

    delta: int = 800
    max_outer_iterations: int = 10
    max_lid_iterations: int = 1000
    tol: float = 1e-7
    density_threshold: float = 0.75
    initial_radius: float | str = "auto"
    support_tol: float = 0.0
    lsh_r: float | None = None
    lsh_r_scale: float = 10.0
    lsh_projections: int = 40
    lsh_tables: int = 50
    kernel_k: float | None = None
    kernel_p: float = 2.0
    kernel_target_affinity: float = 0.9
    roi_growth_offset: float = 4.0
    roi_growth_rate: float = 2.0
    min_cluster_size: int = 2
    verify_global: bool = False
    seed: int = 0
    extras: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValidationError(f"delta must be positive, got {self.delta}")
        if self.max_outer_iterations <= 0:
            raise ValidationError(
                f"max_outer_iterations must be positive, "
                f"got {self.max_outer_iterations}"
            )
        if self.max_lid_iterations <= 0:
            raise ValidationError(
                f"max_lid_iterations must be positive, got {self.max_lid_iterations}"
            )
        if self.tol < 0:
            raise ValidationError(f"tol must be >= 0, got {self.tol}")
        if not 0.0 <= self.density_threshold <= 1.0:
            raise ValidationError(
                f"density_threshold must be in [0, 1], got {self.density_threshold}"
            )
        if isinstance(self.initial_radius, str):
            if self.initial_radius != "auto":
                raise ValidationError(
                    f"initial_radius must be a positive float or 'auto', "
                    f"got {self.initial_radius!r}"
                )
        elif self.initial_radius <= 0:
            raise ValidationError(
                f"initial_radius must be positive, got {self.initial_radius}"
            )
        if self.min_cluster_size < 1:
            raise ValidationError(
                f"min_cluster_size must be >= 1, got {self.min_cluster_size}"
            )

    @classmethod
    def from_dict(cls, fields: dict) -> "ALIDConfig":
        """Rebuild a config persisted as :func:`dataclasses.asdict`.

        Snapshot manifests and WAL ``begin`` records store the config
        this way.  Older artifacts carry the retired ``peel_driver``,
        ``seed_block_size`` and ``lid_kernel`` fields, which are
        dropped: every ``lid_kernel`` value (``"reference"``,
        ``"fused"``, ``"numba"``) ran a loop bit-identical to the one
        the fit runs now.  Any other unknown field raises TypeError, as
        the constructor does.
        """
        if not isinstance(fields, dict):
            raise TypeError(
                f"config must be a mapping, got {type(fields).__name__}"
            )
        fields = {
            key: value
            for key, value in fields.items()
            if key not in _RETIRED_FIELDS
        }
        return cls(**fields)
