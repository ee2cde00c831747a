"""Tests for :class:`ClusterConfig`."""

import dataclasses
import math

import pytest

from repro.core.config import DEFAULT_GAMMA, ClusterConfig
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_valid(self):
        cfg = ClusterConfig()
        assert cfg.initial_delta == "mean"
        assert cfg.gamma == pytest.approx(4 * math.log(2))

    def test_invalid_tau(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(tau=0)

    def test_invalid_initial_delta_string(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(initial_delta="median")

    def test_invalid_initial_delta_number(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(initial_delta=-1.0)

    def test_invalid_gamma(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(gamma=0)

    def test_invalid_cap(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(growing_step_cap=0)

    def test_invalid_quotient_mode(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(quotient_mode="apsp")

    @pytest.mark.parametrize("executor", ["vector", "sharded"])
    def test_valid_executor(self, executor):
        assert ClusterConfig(executor=executor).executor == executor

    @pytest.mark.parametrize("executor", ["parallel", "mmap", "gpu", "serial"])
    def test_invalid_executor(self, executor):
        with pytest.raises(ConfigurationError):
            ClusterConfig(executor=executor)


class TestResolveTau:
    def test_explicit_tau_wins(self):
        assert ClusterConfig(tau=7).resolve_tau(1000) == 7

    def test_derived_from_target(self):
        cfg = ClusterConfig(target_quotient_nodes=100)
        tau = cfg.resolve_tau(10_000)
        assert 1 <= tau <= 100

    def test_capped_by_n(self):
        cfg = ClusterConfig(target_quotient_nodes=10_000)
        assert cfg.resolve_tau(5) <= 5


class TestResolveInitialDelta:
    def test_mean(self):
        assert ClusterConfig(initial_delta="mean").resolve_initial_delta(0.1, 0.5) == 0.5

    def test_min(self):
        assert ClusterConfig(initial_delta="min").resolve_initial_delta(0.1, 0.5) == 0.1

    def test_explicit(self):
        assert ClusterConfig(initial_delta=2.5).resolve_initial_delta(0.1, 0.5) == 2.5

    def test_edgeless_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(initial_delta="mean").resolve_initial_delta(
                float("inf"), 0.0
            )


class TestMisc:
    def test_stage_threshold_formula(self):
        cfg = ClusterConfig(stage_threshold_factor=8.0)
        assert cfg.stage_threshold(1000, 5) == pytest.approx(40 * math.log(1000))

    def test_with_updates_field(self):
        cfg = ClusterConfig(tau=3)
        assert cfg.with_(tau=9).tau == 9
        assert cfg.tau == 3  # original untouched

    def test_default_gamma_constant(self):
        assert DEFAULT_GAMMA == pytest.approx(4 * math.log(2))

    def test_emit_threads_is_a_constant_not_a_field(self):
        """The emit runs on the calling thread: the attribute reads
        ``None`` and neither construction nor ``with_`` accepts it."""
        assert ClusterConfig.emit_threads is None
        assert ClusterConfig().emit_threads is None
        names = {f.name for f in dataclasses.fields(ClusterConfig)}
        assert "emit_threads" not in names
        with pytest.raises(TypeError):
            ClusterConfig().with_(emit_threads=2)
