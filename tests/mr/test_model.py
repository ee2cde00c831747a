"""Tests for the MR(M_T, M_L) model parameters."""

import pytest

from repro.errors import ConfigurationError
from repro.mr.model import MRSpec


class TestMRSpec:
    def test_basic(self):
        spec = MRSpec(total_memory=1000, local_memory=100)
        assert spec.total_memory == 1000
        assert spec.num_workers == 1

    def test_invalid_local(self):
        with pytest.raises(ConfigurationError):
            MRSpec(total_memory=10, local_memory=0)

    def test_total_below_local(self):
        with pytest.raises(ConfigurationError):
            MRSpec(total_memory=5, local_memory=10)

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            MRSpec(total_memory=10, local_memory=10, num_workers=0)

    def test_frozen(self):
        spec = MRSpec(total_memory=10, local_memory=10)
        with pytest.raises(Exception):
            spec.total_memory = 20


class TestForInputSize:
    def test_sublinear_local_memory(self):
        spec = MRSpec.for_input_size(10_000, epsilon=0.5, slack=1.0)
        assert spec.local_memory == pytest.approx(100, rel=0.1)
        assert spec.total_memory >= spec.local_memory

    def test_epsilon_one_is_linear(self):
        spec = MRSpec.for_input_size(1000, epsilon=1.0, slack=1.0)
        assert spec.local_memory == 1000

    def test_invalid_epsilon(self):
        with pytest.raises(ConfigurationError):
            MRSpec.for_input_size(100, epsilon=0.0)
        with pytest.raises(ConfigurationError):
            MRSpec.for_input_size(100, epsilon=1.5)

    def test_tiny_input(self):
        spec = MRSpec.for_input_size(1)
        assert spec.local_memory >= 2
