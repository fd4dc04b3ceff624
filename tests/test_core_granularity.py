"""Tests for the granularity metric and its scaling predictions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    best_speedup_when_doubling,
    granularity,
    per_gpu_contribution,
    speedup_from_scaling,
)


class TestGranularity:
    def test_basic_ratio(self):
        assert granularity(100.0, 10.0) == 10.0

    def test_zero_comm_is_infinite(self):
        assert granularity(10.0, 0.0) == float("inf")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            granularity(-1.0, 1.0)
        with pytest.raises(ValueError):
            granularity(1.0, -1.0)


class TestScalingLaw:
    def test_paper_rule_granularity_one_gives_133(self):
        """Section 8: at granularity 1, doubling VMs gives at best 1.33x."""
        assert best_speedup_when_doubling(1.0) == pytest.approx(4 / 3)

    def test_paper_rule_granularity_ten_gives_183(self):
        """Section 8: at granularity 10, doubling gives at best 1.83x."""
        assert best_speedup_when_doubling(10.0) == pytest.approx(11 / 6)

    def test_infinite_granularity_scales_perfectly(self):
        assert speedup_from_scaling(float("inf"), 4.0) == 4.0

    def test_zero_granularity_never_speeds_up(self):
        assert speedup_from_scaling(0.0, 8.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup_from_scaling(1.0, 0.0)
        with pytest.raises(ValueError):
            speedup_from_scaling(-1.0, 2.0)

    @given(st.floats(min_value=0.01, max_value=100.0),
           st.floats(min_value=1.0, max_value=64.0))
    def test_property_speedup_bounded_by_scale_and_ceiling(self, g, k):
        speedup = speedup_from_scaling(g, k)
        assert 1.0 <= speedup <= k + 1e-9
        assert speedup <= g + 1.0 + 1e-9  # hard ceiling: comm never shrinks

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_property_monotone_in_scale(self, g):
        assert (speedup_from_scaling(g, 2.0)
                <= speedup_from_scaling(g, 4.0) + 1e-12)


class TestPerGpuContribution:
    def test_paper_example_rn18(self):
        """Section 3: RN18 goes from 0.7 at two GPUs to 0.4 at eight."""
        assert per_gpu_contribution(1.4, 2) == pytest.approx(0.7)
        assert per_gpu_contribution(3.2, 8) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            per_gpu_contribution(1.0, 0)
