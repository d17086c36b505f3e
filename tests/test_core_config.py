"""Unit tests for ALIDConfig validation."""

import dataclasses

import pytest

from repro.core.config import ALIDConfig
from repro.exceptions import ValidationError


class TestALIDConfig:
    def test_defaults_match_paper(self):
        cfg = ALIDConfig()
        assert cfg.delta == 800  # paper §5
        assert cfg.max_outer_iterations == 10  # paper C = 10
        assert cfg.density_threshold == 0.75  # paper §4.4
        assert cfg.lsh_projections == 40  # paper Fig. 6
        assert cfg.lsh_tables == 50  # paper Fig. 6

    def test_frozen(self):
        cfg = ALIDConfig()
        with pytest.raises(AttributeError):
            cfg.delta = 5

    def test_rejects_bad_delta(self):
        with pytest.raises(ValidationError):
            ALIDConfig(delta=0)

    def test_rejects_bad_outer_iterations(self):
        with pytest.raises(ValidationError):
            ALIDConfig(max_outer_iterations=0)

    def test_rejects_bad_lid_iterations(self):
        with pytest.raises(ValidationError):
            ALIDConfig(max_lid_iterations=-1)

    def test_rejects_negative_tol(self):
        with pytest.raises(ValidationError):
            ALIDConfig(tol=-1e-9)

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValidationError):
            ALIDConfig(density_threshold=1.5)

    def test_initial_radius_auto(self):
        assert ALIDConfig(initial_radius="auto").initial_radius == "auto"

    def test_initial_radius_paper_value(self):
        assert ALIDConfig(initial_radius=0.4).initial_radius == 0.4

    def test_rejects_bad_initial_radius_string(self):
        with pytest.raises(ValidationError):
            ALIDConfig(initial_radius="big")

    def test_rejects_nonpositive_initial_radius(self):
        with pytest.raises(ValidationError):
            ALIDConfig(initial_radius=0.0)

    def test_rejects_bad_min_cluster_size(self):
        with pytest.raises(ValidationError):
            ALIDConfig(min_cluster_size=0)


def legacy_config_dict(config: ALIDConfig, **overrides) -> dict:
    """``asdict`` of *config* as written while ALIDConfig still carried
    the ``peel_driver`` and ``seed_block_size`` fields."""
    fields = dataclasses.asdict(config)
    fields.update(peel_driver="batched", seed_block_size=256)
    fields.update(overrides)
    return fields


class TestFromDict:
    def test_round_trips_asdict(self):
        cfg = ALIDConfig(delta=123, seed=4, extras={"civs_single_query": True})
        loaded = ALIDConfig.from_dict(dataclasses.asdict(cfg))
        assert loaded == cfg
        assert loaded.extras == cfg.extras

    def test_drops_retired_fields(self):
        cfg = ALIDConfig(delta=200, seed=11)
        assert ALIDConfig.from_dict(legacy_config_dict(cfg)) == cfg

    @pytest.mark.parametrize("lid_kernel", ["reference", "fused", "numba"])
    def test_persisted_lid_kernel_is_dropped(self, lid_kernel):
        cfg = ALIDConfig(seed=3)
        legacy = legacy_config_dict(cfg, lid_kernel=lid_kernel)
        loaded = ALIDConfig.from_dict(legacy)
        assert loaded == cfg
        assert not hasattr(loaded, "lid_kernel")
        assert legacy["lid_kernel"] == lid_kernel  # input left untouched

    def test_other_unknown_field_rejected(self):
        legacy = legacy_config_dict(ALIDConfig(), warp_factor=9)
        with pytest.raises(TypeError):
            ALIDConfig.from_dict(legacy)

    def test_non_mapping_rejected(self):
        with pytest.raises(TypeError):
            ALIDConfig.from_dict(["delta", 5])
